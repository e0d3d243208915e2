//! One big cell: a 2048-machine cell-`d` day, then CSV emission of all
//! four tables into a byte-counting sink.

use crate::digest::{emit_trace, HashSink};
use crate::spans::SpanTree;
use borg_sim::{CellOutcome, CellSim, SimConfig};
use borg_trace::time::Micros;
use borg_workload::cells::CellProfile;

/// Fleet size of the big cell: large enough that placement auto-shards
/// (K=2 on two cores) and per-machine work dominates the event loop,
/// small enough that a run fits six to eight repetitions. With two to
/// five (8192 and 4096 machines) the per-run median of the wall time
/// spread by a quarter over ten seeds on a 2-vCPU host.
pub const MACHINES: u64 = 2048;

/// The cell-day configuration (as `experiments/profile` builds it):
/// cell `d` scaled to `machines`, one day, auto-sized placement shards.
pub fn cell_day_config(machines: u64, seed: u64, telemetry: bool) -> (CellProfile, SimConfig) {
    let profile = CellProfile::cell_2019('d');
    let mut cfg = SimConfig::tiny_for_tests(seed);
    cfg.scale = (machines as f64 / profile.machine_count as f64).min(1.0);
    cfg.horizon = Micros::from_days(1);
    cfg.snapshot_at = Micros::from_hours(12);
    cfg.telemetry = telemetry;
    cfg.validate();
    (profile, cfg)
}

/// Simulates one cell-day.
pub fn cell_day(machines: u64, seed: u64, telemetry: bool) -> CellOutcome {
    let (profile, cfg) = cell_day_config(machines, seed, telemetry);
    CellSim::run_cell(&profile, &cfg)
}

/// One repetition of the unit of work.
pub struct Rep {
    /// The simulated cell (its telemetry is filled in a traced rep).
    pub outcome: CellOutcome,
    /// Digest and byte count of the emitted tables.
    pub emitted: HashSink,
}

/// Runs the unit of work inside `spans`: `unit` → `simulate`, `emit`.
pub fn run(seed: u64, telemetry: bool, spans: &mut SpanTree) -> Rep {
    let unit = spans.enter("unit");
    let outcome = spans.time("simulate", || cell_day(MACHINES, seed, telemetry));
    let emitted = spans.time("emit", || {
        let mut sink = HashSink::default();
        emit_trace(&outcome.trace, &mut sink).expect("hash sink never fails");
        sink
    });
    spans.exit(unit);
    Rep { outcome, emitted }
}
