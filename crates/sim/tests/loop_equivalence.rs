//! The event loop's determinism contract: the batched dispatch cursor,
//! generation-stamped pending queue, primed event calendar, and
//! incremental usage tick must emit a **bit-identical trace** to the
//! seed event loop (`SimConfig::legacy_event_loop`) — one `Dispatch`
//! heap round-trip per placement, aliveness re-derived from job/task
//! state, and the allocating per-tick usage walk — across seeds,
//! profiles, gang scheduling, and fault injection (DESIGN.md §13).
//!
//! The same discipline as `index_equivalence.rs`: the fast path may
//! change *how* the answer is computed, never *which* answer.

use borg_sim::{CellSim, FaultConfig, SimConfig};
use borg_trace::trace::Trace;
use borg_workload::cells::CellProfile;

/// Full bitwise comparison of every trace table.
fn assert_traces_identical(legacy: &Trace, batched: &Trace, label: &str) {
    assert_eq!(
        legacy.machine_events, batched.machine_events,
        "{label}: machine events diverge"
    );
    assert_eq!(
        legacy.collection_events, batched.collection_events,
        "{label}: collection events diverge"
    );
    assert_eq!(
        legacy.instance_events, batched.instance_events,
        "{label}: instance events diverge"
    );
    assert_eq!(
        legacy.usage, batched.usage,
        "{label}: usage records diverge"
    );
}

/// Runs the same configuration through both event loops and compares
/// the complete outcomes.
fn check_equivalence(profile: &CellProfile, cfg: &SimConfig, label: &str) {
    let mut legacy_cfg = cfg.clone();
    legacy_cfg.legacy_event_loop = true;
    let mut batched_cfg = cfg.clone();
    batched_cfg.legacy_event_loop = false;
    let legacy = CellSim::run_cell(profile, &legacy_cfg);
    let batched = CellSim::run_cell(profile, &batched_cfg);
    assert_traces_identical(&legacy.trace, &batched.trace, label);
    // Scheduler-visible metrics must agree too: bursting elides heap
    // round-trips, never placements, stalls, or evictions.
    assert_eq!(
        legacy.metrics.preemptions, batched.metrics.preemptions,
        "{label}: preemption counts diverge"
    );
    assert_eq!(
        legacy.metrics.stalls_by_tier, batched.metrics.stalls_by_tier,
        "{label}: stall counts diverge"
    );
    assert_eq!(
        legacy.metrics.evictions_by_cause, batched.metrics.evictions_by_cause,
        "{label}: eviction causes diverge"
    );
    assert_eq!(
        legacy.metrics.machine_failures, batched.metrics.machine_failures,
        "{label}: machine failures diverge"
    );
    assert_eq!(
        legacy.metrics.tasks_lost, batched.metrics.tasks_lost,
        "{label}: lost tasks diverge"
    );
}

#[test]
fn batched_loop_is_bit_identical_across_seeds() {
    for seed in [1u64, 7, 42] {
        let cfg = SimConfig::tiny_for_tests(seed);
        check_equivalence(
            &CellProfile::cell_2019('a'),
            &cfg,
            &format!("cell a, seed {seed}"),
        );
    }
}

#[test]
fn batched_loop_is_bit_identical_across_profiles() {
    for profile in [CellProfile::cell_2019('d'), CellProfile::cell_2011()] {
        let cfg = SimConfig::tiny_for_tests(11);
        check_equivalence(&profile, &cfg, &format!("profile {}", profile.name));
    }
}

#[test]
fn batched_loop_is_bit_identical_under_gang_scheduling() {
    // Gang mode is where the generation stamps earn their keep: a gang
    // stall orphans every member's queue entry at once, and a gang
    // placement starts members whose own entries are still in the heap.
    for seed in [3u64, 17, 29] {
        let mut cfg = SimConfig::tiny_for_tests(seed);
        cfg.gang_scheduling = true;
        check_equivalence(
            &CellProfile::cell_2019('b'),
            &cfg,
            &format!("gang mode, seed {seed}"),
        );
    }
}

#[test]
fn batched_loop_is_bit_identical_under_fault_injection() {
    // Machine failures kill and resubmit tasks mid-burst and mid-window:
    // the resubmissions must interleave with the dispatch cursor exactly
    // as they interleaved with per-event dispatch.
    for seed in [5u64, 23, 42] {
        let mut cfg = SimConfig::tiny_for_tests(seed);
        cfg.faults = Some(FaultConfig::default());
        check_equivalence(
            &CellProfile::cell_2019('a'),
            &cfg,
            &format!("faults, seed {seed}"),
        );
    }
}

#[test]
fn batched_loop_is_bit_identical_with_gang_and_faults() {
    for seed in [13u64, 31] {
        let mut cfg = SimConfig::tiny_for_tests(seed);
        cfg.gang_scheduling = true;
        cfg.faults = Some(FaultConfig::default());
        check_equivalence(
            &CellProfile::cell_2019('b'),
            &cfg,
            &format!("gang + faults, seed {seed}"),
        );
    }
}

/// Churn stress: dense fleet, daily sweeps, heavy eviction/retry load —
/// every path that pushes pending entries or invalidates generations.
#[test]
fn batched_loop_survives_churn_stress() {
    for seed in [5u64, 29] {
        let mut cfg = SimConfig::tiny_for_tests(seed);
        cfg.scale = 0.004;
        cfg.maintenance_per_month = 30.0;
        cfg.usage_interval = borg_trace::time::Micros::from_minutes(30);
        check_equivalence(
            &CellProfile::cell_2019('c'),
            &cfg,
            &format!("churn stress, seed {seed}"),
        );
    }
}

/// The legacy arm must remain exercised (it guards the contract) and the
/// batched arm must actually run with batching enabled by default.
#[test]
fn default_config_uses_the_batched_loop() {
    let cfg = SimConfig::tiny_for_tests(1);
    assert!(!cfg.legacy_event_loop, "batched loop must be the default");
    assert!(!SimConfig::month(1).legacy_event_loop);
}
