//! The toolkit benchmark: one workload per run, end-to-end metrics with
//! tracing off (`--trace 0`) or per-layer metrics from a traced run
//! (`--trace 1`). Normally started through `perfbench/run.py`, which
//! builds this binary and checks its digests across runs; see
//! `perfbench/README.md`.
//!
//! A run is one session of the toolkit, on the wall clock:
//! 1. set-up: load the served epoch from a lossy trace directory;
//! 2. the workload's unit of work (the paper battery, or one big
//!    cell-day plus CSV emission);
//! 3. serving queries from the epoch: a closed-loop batch (untraced) or
//!    open-loop arrivals at three fixed rates (traced).
//!
//! The untraced run repeats all three in rounds while `--seconds` lasts,
//! cycling the unit of work through four inputs made from the seed, and
//! reports medians. The last stdout line is one JSON object with the
//! metrics, the output digests and the host context.

mod battery;
mod cellday;
mod digest;
mod host;
mod serve;
mod spans;
mod stats;

use borg_telemetry::Snapshot;
use spans::SpanTree;
use stats::{median, tail};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Share of `--seconds` given to each open-loop rate (traced run).
const RATE_SHARE: f64 = 0.15;

/// Queries in each round's closed-loop batch.
const CLOSED_QUERIES: usize = 300;

/// Repetitions of each single-query probe in the traced run.
const PROBE_REPS: usize = 9;

/// Inputs of the unit of work in an untraced run: round `i` runs input
/// `i % UNIT_INPUTS`, and the run reports the median over its rounds.
/// Seeds differ in how much work they make (the paper battery's slowest
/// of fifteen seeds took half as long again as its fastest), so a run
/// that measured one input would carry its seed's weight into the
/// spread between runs.
const UNIT_INPUTS: usize = 4;

/// Seed of input `k` of the unit of work; input 0 is the run's own seed.
fn unit_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperBattery,
    CellDay,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper_battery" => Some(Workload::PaperBattery),
            "cellday_2048" => Some(Workload::CellDay),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    rev: String,
}

const USAGE: &str = "usage: perfbench --workload paper_battery|cellday_2048 --seed N \
                     --seconds S --trace 0|1 [--work-dir DIR] [--rev REV]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 55.0;
    let mut trace = false;
    let mut work_dir = PathBuf::from("target/perfbench-work");
    let mut rev = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--work-dir" => work_dir = value.into(),
            "--rev" => rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload must be paper_battery or cellday_2048")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
        rev,
    })
}

/// Everything one run reports.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    digests: Vec<(String, u64)>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }
}

/// Span totals of the program's own telemetry summed over cells, by path.
fn span_ns(snap: &Snapshot, path: &str) -> u64 {
    snap.spans
        .iter()
        .filter(|s| s.path == path)
        .map(|s| s.total_ns)
        .sum()
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// Per-layer sim metrics from the cells' merged telemetry.
fn sim_layers(report: &mut Report, cells: &[&borg_sim::CellOutcome], sim_wall_s: f64) {
    let mut snap = Snapshot::default();
    for c in cells {
        snap.merge(&c.telemetry);
    }
    let secs = |ns: u64| ns as f64 / 1e9;
    let roots: Vec<u64> = cells
        .iter()
        .map(|c| span_ns(&c.telemetry, "sim.run_cell"))
        .collect();
    let busy = secs(roots.iter().sum());
    report.metric("sim.cells_wall_s", sim_wall_s, "s");
    report.metric("sim.cells_busy_s", busy, "s");
    report.metric(
        "sim.cells_parallel_eff",
        busy / (sim_wall_s * host::nproc() as f64),
        "frac",
    );
    report.metric(
        "sim.cell_max_s",
        secs(roots.iter().copied().max().unwrap_or(0)),
        "s",
    );
    report.metric(
        "workload.gen_s",
        secs(
            span_ns(&snap, "sim.run_cell/gen_workload")
                + span_ns(&snap, "sim.run_cell/load_workload"),
        ),
        "s",
    );
    report.metric(
        "sim.loop_s",
        secs(span_ns(&snap, "sim.run_cell/run_loop")),
        "s",
    );
    let mut events = 0;
    for s in &snap.spans {
        if s.path.starts_with("sim.run_cell/run_loop/ev.") {
            events += s.count;
        }
    }
    for kind in [
        "dispatch",
        "alloc_expire",
        "usage_tick",
        "task_interrupt",
        "job_submit",
        "job_end",
    ] {
        let ns = span_ns(&snap, &format!("sim.run_cell/run_loop/ev.{kind}"));
        report.metric(&format!("sim.ev.{kind}_s"), secs(ns), "s");
    }
    report.metric("sim.events", events as f64, "count");
    let hits = counter(&snap, "sim.index.cache_hits") as f64;
    let misses = counter(&snap, "sim.index.cache_misses") as f64;
    report.metric(
        "sim.index.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "frac",
    );
    report.metric(
        "sim.index.leaves_scanned",
        counter(&snap, "sim.index.leaves_scanned") as f64,
        "count",
    );
    let shards = cells
        .iter()
        .map(|c| counter(&c.telemetry, "sim.index.shards"))
        .max()
        .unwrap_or(0);
    report.metric("sim.index.shards", shards as f64, "count");

    // The program's span tree must reconcile too.
    let rows: Vec<(&str, u64)> = snap
        .spans
        .iter()
        .map(|s| (s.path.as_str(), s.total_ns))
        .collect();
    println!("sim telemetry (summed over {} cell(s)):", cells.len());
    for (path, ns) in &rows {
        println!("  {path:<44} {:>10.4} s", secs(*ns));
    }
    for (path, ns) in spans::agg_unattributed(&rows) {
        println!("  {path:<44} {:>10.4} s", ns as f64 / 1e9);
        report.check(ns >= 0, || format!("sim span tree: {path} is {ns} ns"));
    }
}

fn print_tree(title: &str, tree: &SpanTree, report: &mut Report) {
    println!("{title}:");
    for (path, s) in tree.rows() {
        println!("  {path:<44} {s:>10.4} s");
    }
    report.check(tree.reconciles(), || {
        format!("{title}: span tree does not reconcile")
    });
}

/// What one repetition of the unit of work leaves behind.
enum UnitOut {
    Battery(battery::Cells, String),
    CellDay(cellday::Rep),
}

impl UnitOut {
    /// Output digests, computed after the timed span.
    fn digests(&self) -> Vec<(&'static str, u64)> {
        match self {
            UnitOut::Battery(cells, text) => {
                let mut sink = digest::HashSink::default();
                for c in std::iter::once(&cells.y2011).chain(&cells.y2019) {
                    digest::emit_trace(&c.trace, &mut sink).expect("hash sink never fails");
                }
                vec![
                    ("battery_traces", sink.digest()),
                    ("battery_output", digest::digest_bytes(text.as_bytes())),
                ]
            }
            UnitOut::CellDay(rep) => vec![("cellday_trace", rep.emitted.digest())],
        }
    }
}

/// One repetition of the unit of work on `seed` inside `tree`: `unit`
/// → `simulate` then `analyses` (battery) or `emit` (cell-day).
fn unit_rep(args: &Args, seed: u64, telemetry: bool, tree: &mut SpanTree) -> UnitOut {
    match args.workload {
        Workload::PaperBattery => {
            let unit = tree.enter("unit");
            let cells = tree.time("simulate", || battery::simulate(seed, telemetry));
            let a = tree.enter("analyses");
            let text = battery::analyses(&cells, seed, tree);
            tree.exit(a);
            tree.exit(unit);
            UnitOut::Battery(cells, text)
        }
        Workload::CellDay => UnitOut::CellDay(cellday::run(seed, telemetry, tree)),
    }
}

/// Output digests of input `k`, named `<digest>.<k>`.
fn input_digests(k: usize, d: Vec<(&'static str, u64)>) -> impl Iterator<Item = (String, u64)> {
    d.into_iter()
        .map(move |(name, v)| (format!("{name}.{k}"), v))
}

/// Samples of the end-to-end metrics, one per round.
#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    closed_loop_qps: Vec<f64>,
    closed_loop_mrows: Vec<f64>,
}

/// The untraced run: rounds of set-up, unit of work and closed-loop
/// batch while `budget_s` lasts (at least one round), so that the
/// samples of every metric spread over the whole run. The unit of work
/// cycles through its [`UNIT_INPUTS`] inputs; checks that every round of
/// an input produces the same outputs.
fn run_rounds(
    args: &Args,
    report: &mut Report,
    prepared: &serve::Prepared,
    budget_s: f64,
) -> Rounds {
    let start = Instant::now();
    let mut r = Rounds::default();
    let mut first: Vec<Option<Vec<(&'static str, u64)>>> = vec![None; UNIT_INPUTS];
    let mut reference = None;
    let mut pool = serve::pool(false);
    for i in 0.. {
        let round = Instant::now();
        let loaded = serve::load(&prepared.dir);
        r.setup_s.push(round.elapsed().as_secs_f64());
        let reference = reference.get_or_insert_with(|| {
            let errors = serve::check_ingest(prepared, &loaded.quality);
            report.check(errors.is_empty(), || {
                format!("ingest: {}", errors.join("; "))
            });
            serve::direct_results(&loaded.epoch)
        });

        let mut tree = SpanTree::default();
        host::reset_peak_rss();
        let k = i % UNIT_INPUTS;
        let out = unit_rep(args, unit_seed(args.seed, k), false, &mut tree);
        r.peak_rss_mb.push(host::peak_rss_mb());
        r.wall_s.push(tree.secs_of("unit"));
        let d = out.digests();
        drop(out);
        report.check(first[k].as_ref().is_none_or(|f| *f == d), || {
            format!("unit of work: output digests of input {k} differ between rounds")
        });
        first[k].get_or_insert(d);

        let c = serve::closed_loop(
            &mut pool,
            &loaded.epoch,
            args.seed,
            CLOSED_QUERIES,
            reference,
        );
        report.attempted += c.attempted;
        report.failed += c.failed;
        report.check(c.wrong_results == 0, || {
            format!(
                "serve: {} results differ from direct execution",
                c.wrong_results
            )
        });
        r.closed_loop_qps.push(c.qps);
        r.closed_loop_mrows.push(c.rows_per_s / 1e6);
        let round_s = round.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + round_s > budget_s {
            break;
        }
    }
    for (k, d) in first.into_iter().enumerate() {
        report
            .digests
            .extend(d.into_iter().flat_map(|d| input_digests(k, d)));
    }
    r
}

/// One untraced and one traced repetition; per-layer metrics from the
/// traced one, tracing overhead from their difference.
fn run_unit_traced(args: &Args, report: &mut Report) {
    let mut tree = SpanTree::default();
    let seed = unit_seed(args.seed, 0);
    let d_untraced = unit_rep(args, seed, false, &mut tree).digests();
    let untraced = tree.secs_of("unit");
    let mut tree = SpanTree::default();
    let out = unit_rep(args, seed, true, &mut tree);
    let d = out.digests();
    report.check(d == d_untraced, || {
        "unit of work: telemetry changed the outputs".into()
    });
    report.digests.extend(input_digests(0, d));
    match &out {
        UnitOut::Battery(cells, _) => {
            let all: Vec<_> = std::iter::once(&cells.y2011).chain(&cells.y2019).collect();
            sim_layers(report, &all, tree.secs_of("simulate"));
            report.metric("trace.emit_s", 0.0, "s");
            report.metric("trace.emit_bytes", 0.0, "bytes");
        }
        UnitOut::CellDay(rep) => {
            sim_layers(report, &[&rep.outcome], tree.secs_of("simulate"));
            report.metric("trace.emit_s", tree.secs_of("emit"), "s");
            report.metric("trace.emit_bytes", rep.emitted.bytes() as f64, "bytes");
        }
    }
    let rows = tree.rows();
    for k in ["table2", "figure13", "figure11", "section73", "figures"] {
        let path = format!("unit/analyses/{k}");
        let secs: f64 = rows
            .iter()
            .filter(|(p, _)| *p == path)
            .map(|(_, s)| s)
            .sum();
        report.metric(&format!("core.analyses.{k}_s"), secs, "s");
    }
    let traced = tree.secs_of("unit");
    report.metric("unit.unattributed_s", tree.self_ns(0) as f64 / 1e9, "s");
    report.metric("telemetry.overhead_s", traced - untraced, "s");
    print_tree("unit of work (traced)", &tree, report);
    println!("unit of work untraced {untraced:.4} s, traced {traced:.4} s");
}

/// Per-layer serve metrics from the open-loop session, plus the
/// single-query probes.
fn serve_layers(report: &mut Report, epoch: &borg_serve::Epoch, rates: &[serve::RateRun]) {
    let exec_ms = serve::take_exec_ms();
    let t = |xs: &[f64]| tail(xs).map_or(f64::NAN, |t| t.value);
    let mut lines = String::new();
    let mut max_qps = 0.0;
    let mut lag = Vec::new();
    for r in rates {
        report.attempted += r.attempted;
        report.failed += r.failed;
        report.check(r.wrong_results == 0, || {
            format!(
                "serve {}: {} results differ from direct execution",
                r.name, r.wrong_results
            )
        });
        lag.extend_from_slice(&r.lag_ms);
        let tl = tail(&r.latency_ms);
        let _ = writeln!(
            lines,
            "  {:<5} {:>5} qps  sent {:>5} failed {:>3}  p50 {:>8.3} ms  p{:.1} {:>8.3} ms \
             (n={})  achieved {:.2} qps  drained {}",
            r.name,
            r.qps,
            r.attempted,
            r.failed,
            median(&r.latency_ms),
            tl.map_or(0.0, |t| t.pct),
            tl.map_or(f64::NAN, |t| t.value),
            tl.map_or(0, |t| t.n),
            r.achieved_qps,
            r.drained
        );
        let meets = tl.is_some_and(|t| t.value * 1e3 <= serve::PROD_DEADLINE_US as f64);
        if r.failed == 0 && r.drained && meets {
            max_qps = r.achieved_qps;
        }
    }
    println!(
        "open-loop session (limit {} ms):\n{lines}",
        serve::PROD_DEADLINE_US / 1000
    );
    for r in rates {
        report.metric(
            &format!("query_p50_ms.{}", r.name),
            median(&r.latency_ms),
            "ms",
        );
    }
    for r in rates {
        report.metric(&format!("query_p99_ms.{}", r.name), t(&r.latency_ms), "ms");
    }
    let high = rates.last().expect("three rates");
    report.metric("prod_p99_ms.high", t(&high.prod_latency_ms), "ms");
    report.metric("max_qps", max_qps, "1/s");
    report.metric("gen_lag_p99_ms", t(&lag), "ms");
    for (what, xs) in [
        ("prod at high", &high.prod_latency_ms),
        ("generator lag", &lag),
    ] {
        if let Some(tl) = tail(xs) {
            println!("  {what}: tail is p{:.1} of n={}", tl.pct, tl.n);
        }
    }
    let waits: Vec<f64> = rates
        .iter()
        .flat_map(|r| r.queue_wait_ms.iter().copied())
        .collect();
    report.metric("serve.queue_wait_ms.p50", median(&waits), "ms");
    report.metric("serve.queue_wait_ms.p99", t(&waits), "ms");
    report.metric("serve.exec_ms.p50", median(&exec_ms), "ms");
    report.metric("serve.exec_ms.p99", t(&exec_ms), "ms");
    let busy_ms: f64 = exec_ms.iter().sum();
    let wall_ms: f64 = rates.iter().map(|r| r.wall_s * 1e3).sum();
    report.metric(
        "serve.pool_busy_frac",
        busy_ms / (wall_ms * serve::WORKERS as f64),
        "frac",
    );
    let probes = serve::probe_plans(epoch, PROBE_REPS);
    for (i, (_, exec, _)) in probes.iter().enumerate() {
        report.metric(&format!("query.plan{i}.exec_ms"), *exec, "ms");
    }
    let mean =
        |f: fn(&(f64, f64, f64)) -> f64| probes.iter().map(f).sum::<f64>() / probes.len() as f64;
    report.metric("query.table_clone_ms", mean(|p| p.0), "ms");
    report.metric("serve.render_ms", mean(|p| p.2), "ms");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let shards = match args.workload {
        Workload::CellDay => {
            let (profile, cfg) = cellday::cell_day_config(cellday::MACHINES, args.seed, false);
            cfg.effective_shards(cfg.machine_count(&profile))
        }
        Workload::PaperBattery => battery::placement_shards(args.seed),
    };
    let pool_workers = battery::cell_pool_workers();
    println!(
        "context: workload {:?} seed {} seconds {} trace {} nproc {} rev {} \
         placement_shards {shards} cell_pool_workers {pool_workers}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host::nproc(),
        args.rev,
    );

    // The served trace (untimed).
    let prepared = match serve::prepare(args.seed, &args.work_dir.join("served_trace")) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot write the served trace: {e}");
            std::process::exit(1);
        }
    };
    report
        .digests
        .push(("served_trace".into(), prepared.trace_digest));

    if args.trace {
        // 1. Set-up, split into stages.
        let t = Instant::now();
        let loaded = serve::load_traced(&prepared.dir);
        let total = t.elapsed().as_secs_f64();
        let (read, repair, tables) = loaded.split.expect("traced load splits");
        let rest = total - read - repair - tables;
        report.metric("trace.read_s", read, "s");
        report.metric("trace.repair_s", repair, "s");
        report.metric("core.tables_s", tables, "s");
        report.metric("setup.unattributed_s", rest, "s");
        report.check(rest >= 0.0, || "set-up: stages exceed the load".into());
        println!(
            "set-up (traced): load {total:.4} s = read {read:.4} + repair {repair:.4} \
             + tables {tables:.4} + unattributed {rest:.4}"
        );
        let errors = serve::check_ingest(&prepared, &loaded.quality);
        report.check(errors.is_empty(), || {
            format!("ingest: {}", errors.join("; "))
        });
        let q = &loaded.quality;
        report.metric("trace.rows", q.rows_ingested as f64, "count");
        report.metric(
            "trace.quarantined_lines",
            q.quarantine.total_lines() as f64,
            "count",
        );
        report.metric(
            "trace.repair_actions",
            q.repair.total_actions() as f64,
            "count",
        );
        // 2. The unit of work, untraced then traced.
        run_unit_traced(&args, &mut report);
        // 3. Open-loop serving at three fixed rates.
        let reference = serve::direct_results(&loaded.epoch);
        let mut pool = serve::pool(true);
        let rates = serve::open_loop(
            &mut pool,
            &loaded.epoch,
            args.seed,
            args.seconds * RATE_SHARE,
            &reference,
        );
        drop(pool);
        serve_layers(&mut report, &loaded.epoch, &rates);
    } else {
        let r = run_rounds(&args, &mut report, &prepared, args.seconds);
        report.metric("wall_s", median(&r.wall_s), "s");
        report.metric("setup_s", median(&r.setup_s), "s");
        // Memory is not noisy like time; the first round is what a fresh
        // process uses, before the allocator retains earlier rounds' heap.
        report.metric("peak_rss_mb", r.peak_rss_mb[0], "MiB");
        report.metric(
            "closed_loop_mrows_per_s",
            median(&r.closed_loop_mrows),
            "Mrow/s",
        );
        println!("rounds: {}", r.wall_s.len());
        println!("  set-up s         {:?}", r.setup_s);
        println!("  wall s           {:?}", r.wall_s);
        println!("  peak RSS MiB     {:?}", r.peak_rss_mb);
        println!("  closed-loop qps  {:?}", r.closed_loop_qps);
        println!("  closed-loop Mrow/s {:?}", r.closed_loop_mrows);
        println!(
            "operations: {} attempted, {} failed (fail_frac {})",
            report.attempted,
            report.failed,
            report.failed as f64 / report.attempted.max(1) as f64
        );
    }
    let _ = std::fs::remove_dir_all(&prepared.dir);

    // JSON has no NaN: a value that could not be measured is a failed
    // check and is written as 0.
    let unmeasured: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.1.is_finite())
        .map(|m| m.0.clone())
        .collect();
    for name in unmeasured {
        report.check(false, || format!("{name} could not be measured"));
    }
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.errors.is_empty(),
        report.attempted,
        report.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}, \"digests\": {");
    for (i, (name, d)) in report.digests.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": \"{d:016x}\"");
    }
    let _ = write!(
        json,
        "}}, \"context\": {{\"nproc\": {}, \"rev\": \"{}\", \"seed\": {}, \
         \"placement_shards\": {shards}, \"cell_pool_workers\": {pool_workers}}}}}",
        host::nproc(),
        args.rev,
        args.seed,
    );
    println!("{json}");
}
