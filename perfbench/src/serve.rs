//! The borg-serve side of every workload: a lossy cell-day trace is
//! loaded through the repairing reader into an epoch (the set-up), and
//! queries are served from it on the wall clock by a real `Service` over
//! a real `ServePool` — by two closed-loop clients (untraced run) or as
//! open-loop arrivals at three fixed rates (traced run).

use crate::cellday::cell_day;
use crate::digest::trace_digest;
use crate::stats::{latency_from_due, median};
use borg_core::pipeline::{load_trace_dir_with, DataQuality};
use borg_serve::plan::table_bytes;
use borg_serve::{
    generate_arrivals, plan_catalog, Action, AdmissionConfig, AttemptResult, ChaosConfig, Epoch,
    EpochStore, JobResult, Outcome, PlanSpec, QueryRequest, RecorderConfig, RetryPolicy,
    ServeConfig, ServeJob, ServePool, Service, SloConfig, Tier, TierPolicy, WitnessConfig,
    WorkloadSpec,
};
use borg_sim::{corrupt_trace, write_trace_dir_lossy, CorruptionConfig, FaultLedger};
use borg_telemetry::Telemetry;
use borg_trace::csv::{
    read_trace_dir_lenient, FILE_COLLECTION, FILE_INSTANCE, FILE_MACHINE, FILE_USAGE,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fleet size of the served cell-day.
const SERVED_MACHINES: u64 = 512;

/// Epoch name (the served trace is cell `d`).
const EPOCH: &str = "d";

/// The latency limit of the tiering promise: the prod deadline. A rate
/// "meets the limit" when its tail latency stays under it.
pub const PROD_DEADLINE_US: u64 = 500_000;

/// Batch queries may wait longer, but must still finish.
const BATCH_DEADLINE_US: u64 = 2_000_000;

/// The three fixed offered rates, queries per second, half prod and
/// half batch.
const RATES: [(&str, f64); 3] = [("low", 15.0), ("mid", 30.0), ("high", 60.0)];

/// How often the generator wakes to collect results when no arrival is
/// due sooner.
const POLL: Duration = Duration::from_micros(200);

/// Pool size: one worker dedicated to prod, one to batch; best-effort
/// gets none and the arrival mix sends it nothing.
pub const WORKERS: usize = 2;

fn admission() -> AdmissionConfig {
    let tier = |workers, queue_cap, deadline_us| TierPolicy {
        workers,
        queue_cap,
        deadline_us,
        max_attempts: 1,
    };
    AdmissionConfig {
        tiers: [
            tier(1, 256, PROD_DEADLINE_US),
            tier(1, 256, BATCH_DEADLINE_US),
            tier(0, 0, BATCH_DEADLINE_US),
        ],
        global_queue_cap: 512,
    }
}

/// Chaos off, observability on.
fn serve_config(seed: u64) -> ServeConfig {
    let admission = admission();
    ServeConfig {
        admission,
        retry: RetryPolicy::default_with_seed(seed),
        breaker_threshold: 5,
        breaker_cooloff_us: 50_000,
        chaos: ChaosConfig::off(),
        slo: SloConfig::for_admission(&admission),
        witness: WitnessConfig::on(),
        recorder: RecorderConfig::standard(),
    }
}

/// The served trace as written to disk, with the ground truth of what
/// the lossy writer did to it.
pub struct Prepared {
    /// Trace directory.
    pub dir: PathBuf,
    /// Faults injected, per table.
    pub ledger: FaultLedger,
    /// Row counts per table before corruption, in `TABLE_FILES` order.
    pub clean_rows: [usize; 4],
    /// Digest of the clean simulated trace.
    pub trace_digest: u64,
}

/// Table files in the order used by per-table arrays here.
const TABLE_FILES: [&str; 4] = [FILE_MACHINE, FILE_COLLECTION, FILE_INSTANCE, FILE_USAGE];

/// Simulates the served cell-day, corrupts it with the lossy writer and
/// writes it to `dir`. Untimed.
pub fn prepare(seed: u64, dir: &Path) -> std::io::Result<Prepared> {
    let outcome = cell_day(SERVED_MACHINES, seed, false);
    let t = &outcome.trace;
    let clean_rows = [
        t.machine_events.len(),
        t.collection_events.len(),
        t.instance_events.len(),
        t.usage.len(),
    ];
    let cfg = CorruptionConfig::lossy();
    let (corrupted, mut ledger) = corrupt_trace(t, &cfg, seed);
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    write_trace_dir_lossy(&corrupted, dir, &cfg, seed, &mut ledger)?;
    Ok(Prepared {
        dir: dir.to_path_buf(),
        ledger,
        clean_rows,
        trace_digest: trace_digest(t),
    })
}

/// One epoch load: lenient read + repair, then the query tables.
pub struct Loaded {
    /// The frozen epoch.
    pub epoch: Arc<Epoch>,
    /// What ingestion quarantined and repaired.
    pub quality: DataQuality,
    /// `(read, repair, tables)` seconds when loaded with telemetry.
    pub split: Option<(f64, f64, f64)>,
}

/// Loads the epoch the way borg-serve does (`EpochStore::load_dir`).
pub fn load(dir: &Path) -> Loaded {
    let mut store = EpochStore::new();
    let (epoch, quality) = store
        .load_dir(EPOCH, dir, &mut Telemetry::disabled())
        .expect("epoch tables build from a repaired trace");
    Loaded {
        epoch,
        quality,
        split: None,
    }
}

/// [`load`] split into its stages: the ingest and repair spans come
/// from the pipeline's own telemetry, the table build is timed here.
pub fn load_traced(dir: &Path) -> Loaded {
    let mut tel = Telemetry::enabled();
    let (trace, quality) = load_trace_dir_with(dir, &mut tel);
    let snap = tel.snapshot();
    let span = |path: &str| {
        snap.spans
            .iter()
            .find(|s| s.path == path)
            .map_or(0.0, |s| s.total_ns as f64 / 1e9)
    };
    let t = Instant::now();
    let epoch = EpochStore::new()
        .insert_trace(EPOCH, &trace)
        .expect("epoch tables build from a repaired trace");
    let tables = t.elapsed().as_secs_f64();
    Loaded {
        epoch,
        quality,
        split: Some((
            span("core.load_trace_dir/ingest"),
            span("core.load_trace_dir/repair"),
            tables,
        )),
    }
}

/// Checks that ingestion lost nothing: per table, the lines written
/// match the fault ledger, accepted plus quarantined lines equal the
/// lines written, every garbled line was quarantined, and repair
/// removed exactly the injected duplicates. Returns one message per
/// mismatch.
pub fn check_ingest(p: &Prepared, quality: &DataQuality) -> Vec<String> {
    let mut errors = Vec::new();
    let (accepted, quarantine) = read_trace_dir_lenient(&p.dir);
    let accepted_rows = [
        accepted.machine_events.len(),
        accepted.collection_events.len(),
        accepted.instance_events.len(),
        accepted.usage.len(),
    ];
    let faults = [
        p.ledger.machine_events,
        p.ledger.collection_events,
        p.ledger.instance_events,
        p.ledger.usage,
    ];
    let r = &quality.repair;
    let deduped = [
        r.machine_events.deduped,
        r.collection_events.deduped,
        r.instance_events.deduped,
        r.usage.deduped,
    ];
    for (i, file) in TABLE_FILES.iter().enumerate() {
        let written = match std::fs::read_to_string(p.dir.join(file)) {
            Ok(text) => text.lines().skip(1).filter(|l| !l.is_empty()).count() as u64,
            Err(e) => {
                errors.push(format!("{file}: {e}"));
                continue;
            }
        };
        let f = &faults[i];
        let expected = (p.clean_rows[i] as u64 + f.duplicated).checked_sub(f.dropped + f.truncated);
        let q = quarantine.count_for(file);
        if Some(written) != expected {
            errors.push(format!(
                "{file}: {written} lines written, ledger says {expected:?}"
            ));
        }
        if accepted_rows[i] as u64 + q != written {
            errors.push(format!(
                "{file}: accepted {} + quarantined {q} != written {written}",
                accepted_rows[i]
            ));
        }
        if q != f.garbled {
            errors.push(format!("{file}: quarantined {q}, garbled {}", f.garbled));
        }
        if deduped[i] != f.duplicated {
            errors.push(format!(
                "{file}: repair removed {} duplicates, {} injected",
                deduped[i], f.duplicated
            ));
        }
    }
    if quality.quarantine.total_lines() != quarantine.total_lines() {
        errors.push("epoch load and lenient read quarantined different lines".into());
    }
    errors
}

/// Execution times recorded by [`timed_job`] (ms), for the traced run.
static EXEC_MS: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// [`borg_serve::run_serve_job`] with its execution timed: the pool's
/// injectable job function.
fn timed_job(job: ServeJob) -> JobResult {
    let t = Instant::now();
    let r = borg_serve::run_serve_job(job);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    EXEC_MS.lock().expect("no panics while holding").push(ms);
    r
}

/// A pool of one worker per served tier, timed or not.
pub fn pool(traced: bool) -> ServePool {
    let run: fn(ServeJob) -> JobResult = if traced {
        timed_job
    } else {
        borg_serve::run_serve_job
    };
    EXEC_MS.lock().expect("no panics while holding").clear();
    ServePool::new(WORKERS, run)
}

/// Takes the execution times recorded since [`pool`] was built, ms.
pub fn take_exec_ms() -> Vec<f64> {
    std::mem::take(&mut *EXEC_MS.lock().expect("no panics while holding"))
}

/// Canonical result bytes per catalog plan, executed directly against
/// the epoch: the reference every served result must equal.
pub fn direct_results(epoch: &Epoch) -> Vec<(PlanSpec, Vec<u8>)> {
    plan_catalog()
        .into_iter()
        .map(|p| {
            let t = p
                .execute(epoch.table(p.table).clone(), None)
                .expect("catalog plans are valid");
            let bytes = table_bytes(&t);
            (p, bytes)
        })
        .collect()
}

/// Drives a `Service` over a `ServePool` on the wall clock, recording
/// when each query (ids `0..n`) was sent, dispatched and finished.
struct Driver<'a> {
    service: Service,
    pool: &'a mut ServePool,
    t0: Instant,
    sent_us: Vec<u64>,
    start_us: Vec<u64>,
    done_us: Vec<u64>,
    results: Vec<Option<Vec<u8>>>,
    tiers: Vec<Tier>,
    plans: Vec<Option<PlanSpec>>,
}

impl<'a> Driver<'a> {
    fn new(pool: &'a mut ServePool, epoch: &Arc<Epoch>, seed: u64, n: usize) -> Self {
        let mut d = Driver {
            service: Service::new(serve_config(seed)),
            pool,
            t0: Instant::now(),
            sent_us: vec![0; n],
            start_us: vec![0; n],
            done_us: vec![0; n],
            results: vec![None; n],
            tiers: vec![Tier::BestEffort; n],
            plans: vec![None; n],
        };
        d.service.register_epoch(0, Arc::clone(epoch));
        d
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    fn submit(&mut self, req: &QueryRequest) {
        let (i, now) = (req.id as usize, self.now_us());
        self.sent_us[i] = now;
        self.tiers[i] = req.tier;
        self.plans[i] = Some(req.plan.clone());
        self.service.submit(now, req.clone());
    }

    /// Expires overdue queries and collects finished attempts. Returns
    /// the ids that finished.
    fn collect(&mut self) -> Vec<u64> {
        self.service.on_tick(self.now_us());
        let mut finished = Vec::new();
        while let Some((id, result)) = self.pool.poll() {
            let now = self.now_us();
            self.done_us[id as usize] = now;
            let r = match result {
                JobResult::Done(bytes) => {
                    self.results[id as usize] = Some(bytes);
                    AttemptResult::Ok
                }
                JobResult::Cancelled => AttemptResult::Cancelled,
                JobResult::Panicked => AttemptResult::Panicked,
            };
            self.service.on_attempt_done(now, id, r);
            finished.push(id);
        }
        finished
    }

    /// Hands every attempt the service started to the pool.
    fn dispatch(&mut self) {
        while let Some(Action::Start(att)) = self.service.next_action() {
            self.start_us[att.id as usize] = self.now_us();
            let job = ServeJob {
                plan: att.plan,
                epoch: att.epoch,
                cancel: att.cancel,
                fault: att.fault,
            };
            // Per-tier quotas sum to the pool size, so a worker is free.
            assert!(self.pool.submit(att.id, job), "admission exceeded the pool");
        }
    }

    fn idle(&self) -> bool {
        self.service.is_idle() && self.pool.in_flight() == 0
    }

    /// Completed ids and the count of served results that differ from
    /// `reference`.
    fn completed(&self, reference: &[(PlanSpec, Vec<u8>)]) -> (Vec<usize>, u64) {
        let mut done = Vec::new();
        let mut wrong = 0;
        for &(id, outcome) in self.service.outcomes() {
            if !matches!(outcome, Outcome::Done { .. }) {
                continue;
            }
            let i = id as usize;
            let expected = reference
                .iter()
                .find(|(p, _)| Some(p) == self.plans[i].as_ref())
                .map(|(_, b)| b);
            if self.results[i].as_ref() != expected {
                wrong += 1;
            }
            done.push(i);
        }
        (done, wrong)
    }
}

/// A fixed batch served by two closed-loop clients, one per tier, each
/// sending its next query when the previous one returns.
pub struct ClosedRun {
    /// Queries sent.
    pub attempted: u64,
    /// Queries not completed.
    pub failed: u64,
    /// Served results that differ from a direct execution.
    pub wrong_results: u64,
    /// Completed queries per second.
    pub qps: f64,
    /// Rows of the queried tables, summed over completed queries, per
    /// second.
    pub rows_per_s: f64,
}

/// Serves `n` queries, the plan catalog in turn and tiers alternating,
/// with one query outstanding per tier. The batch is the same for every
/// seed, so only the served epoch differs between seeds.
pub fn closed_loop(
    pool: &mut ServePool,
    epoch: &Arc<Epoch>,
    seed: u64,
    n: usize,
    reference: &[(PlanSpec, Vec<u8>)],
) -> ClosedRun {
    let catalog = plan_catalog();
    let requests: Vec<QueryRequest> = (0..n)
        .map(|i| QueryRequest {
            id: i as u64,
            tier: if i % 2 == 0 { Tier::Prod } else { Tier::Batch },
            epoch: EPOCH.into(),
            plan: catalog[(i / 2) % catalog.len()].clone(),
        })
        .collect();
    let mut d = Driver::new(pool, epoch, seed, n);
    // The first query of each tier starts its client; each later query
    // follows its tier's previous one, two ids on.
    for req in requests.iter().take(2) {
        d.submit(req);
    }
    let give_up = Instant::now() + Duration::from_secs(120);
    while !d.idle() && Instant::now() < give_up {
        for id in d.collect() {
            if let Some(req) = requests.get(id as usize + 2) {
                d.submit(req);
            }
        }
        d.dispatch();
        std::thread::sleep(Duration::from_micros(50));
    }
    let elapsed_s = d.now_us() as f64 / 1e6;
    let (done, wrong_results) = d.completed(reference);
    let rows: usize = done
        .iter()
        .filter_map(|&i| d.plans[i].as_ref())
        .map(|p| epoch.rows(p.table))
        .sum();
    ClosedRun {
        attempted: n as u64,
        failed: n as u64 - done.len() as u64,
        wrong_results,
        qps: done.len() as f64 / elapsed_s,
        rows_per_s: rows as f64 / elapsed_s,
    }
}

/// One fixed-rate phase of the open-loop session.
pub struct RateRun {
    /// Rate label (`low`, `mid`, `high`).
    pub name: &'static str,
    /// Offered rate, queries per second.
    pub qps: f64,
    /// Latency from due time of every completed query, ms.
    pub latency_ms: Vec<f64>,
    /// The same, prod tier only.
    pub prod_latency_ms: Vec<f64>,
    /// How late the generator sent each query, ms.
    pub lag_ms: Vec<f64>,
    /// Submit → dispatch to a worker, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Queries sent.
    pub attempted: u64,
    /// Queries shed, expired or failed.
    pub failed: u64,
    /// Completed queries per second, from the first due time to the
    /// last completion.
    pub achieved_qps: f64,
    /// Whether the last query finished within one prod deadline of the
    /// last arrival (no growing backlog).
    pub drained: bool,
    /// Served results that differ from a direct execution.
    pub wrong_results: u64,
    /// Wall time of the phase, s.
    pub wall_s: f64,
}

/// Open-loop arrivals from `generate_arrivals` at each of [`RATES`],
/// `secs_per_rate` of arrivals each.
pub fn open_loop(
    pool: &mut ServePool,
    epoch: &Arc<Epoch>,
    seed: u64,
    secs_per_rate: f64,
    reference: &[(PlanSpec, Vec<u8>)],
) -> Vec<RateRun> {
    RATES
        .iter()
        .enumerate()
        .map(|(i, &(name, qps))| {
            let spec = WorkloadSpec {
                seed: seed.wrapping_mul(31).wrapping_add(i as u64),
                queries: (qps * secs_per_rate).round() as usize,
                mean_gap_us: 1e6 / qps,
                tier_mix: [0.5, 0.5, 0.0],
                epochs: vec![EPOCH.into()],
            };
            run_rate(pool, epoch, seed, &spec, reference, name, qps)
        })
        .collect()
}

fn run_rate(
    pool: &mut ServePool,
    epoch: &Arc<Epoch>,
    seed: u64,
    spec: &WorkloadSpec,
    reference: &[(PlanSpec, Vec<u8>)],
    name: &'static str,
    qps: f64,
) -> RateRun {
    let arrivals = generate_arrivals(spec);
    let n = arrivals.len();
    let mut d = Driver::new(pool, epoch, seed, n);
    let last_due = arrivals.last().map_or(0, |a| a.0);
    // A run that has not drained long after its last arrival is broken;
    // stop it and count what is left as failed.
    let give_up_us = last_due + 10 * BATCH_DEADLINE_US;
    let mut next = 0;
    loop {
        while next < n && arrivals[next].0 <= d.now_us() {
            d.submit(&arrivals[next].1);
            next += 1;
        }
        d.collect();
        d.dispatch();
        let now = d.now_us();
        if (next == n && d.idle()) || now > give_up_us {
            break;
        }
        let poll = now + POLL.as_micros() as u64;
        let wake = arrivals.get(next).map_or(poll, |a| a.0.min(poll));
        if wake > now {
            std::thread::sleep(Duration::from_micros(wake - now));
        }
    }
    let (done, wrong_results) = d.completed(reference);
    let mut run = RateRun {
        name,
        qps,
        latency_ms: Vec::new(),
        prod_latency_ms: Vec::new(),
        lag_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        attempted: n as u64,
        failed: (n - done.len()) as u64,
        achieved_qps: 0.0,
        drained: false,
        wrong_results,
        wall_s: d.now_us() as f64 / 1e6,
    };
    let mut last_done = 0;
    for &i in &done {
        let (lat, _) = latency_from_due(arrivals[i].0, d.sent_us[i], d.done_us[i]);
        run.latency_ms.push(lat as f64 / 1e3);
        if d.tiers[i] == Tier::Prod {
            run.prod_latency_ms.push(lat as f64 / 1e3);
        }
        run.queue_wait_ms
            .push(d.start_us[i].saturating_sub(d.sent_us[i]) as f64 / 1e3);
        last_done = last_done.max(d.done_us[i]);
    }
    for (i, (due, _)) in arrivals.iter().enumerate().take(next) {
        let (_, lag) = latency_from_due(*due, d.sent_us[i], d.sent_us[i]);
        run.lag_ms.push(lag as f64 / 1e3);
    }
    run.drained = next == n && last_done <= last_due + PROD_DEADLINE_US;
    let first_due = arrivals.first().map_or(0, |a| a.0);
    run.achieved_qps = done.len() as f64 * 1e6 / last_done.saturating_sub(first_due).max(1) as f64;
    run
}

/// Timed probes of single queries outside the load, ms, as medians over
/// `reps`: per plan `(table clone, execute, render)`.
pub fn probe_plans(epoch: &Epoch, reps: usize) -> Vec<(f64, f64, f64)> {
    plan_catalog()
        .iter()
        .map(|p| {
            let (mut clone, mut exec, mut render) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..reps {
                let t = Instant::now();
                let table = std::hint::black_box(epoch.table(p.table).clone());
                clone.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                let out = p.execute(table, None).expect("catalog plans are valid");
                exec.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                std::hint::black_box(table_bytes(&out));
                render.push(t.elapsed().as_secs_f64() * 1e3);
            }
            (median(&clone), median(&exec), median(&render))
        })
        .collect()
}
