//! The placement index's determinism contract: the indexed scheduler
//! must choose the same machine for every placement and emit a
//! **bit-identical trace** to the naive O(machines) scan, across
//! workloads, seeds, eras, and scheduler modes.

use borg_sim::{CellSim, SimConfig};
use borg_trace::trace::Trace;
use borg_workload::cells::CellProfile;

/// Full bitwise comparison of every trace table.
fn assert_traces_identical(naive: &Trace, indexed: &Trace, label: &str) {
    assert_eq!(
        naive.machine_events, indexed.machine_events,
        "{label}: machine events diverge"
    );
    assert_eq!(
        naive.collection_events, indexed.collection_events,
        "{label}: collection events diverge"
    );
    assert_eq!(
        naive.instance_events, indexed.instance_events,
        "{label}: instance events diverge"
    );
    assert_eq!(naive.usage, indexed.usage, "{label}: usage records diverge");
}

/// Runs the same configuration with and without the index and compares
/// the complete outcomes.
fn check_equivalence(profile: &CellProfile, cfg: &SimConfig, label: &str) {
    let mut naive_cfg = cfg.clone();
    naive_cfg.use_placement_index = false;
    let mut indexed_cfg = cfg.clone();
    indexed_cfg.use_placement_index = true;
    let naive = CellSim::run_cell(profile, &naive_cfg);
    let indexed = CellSim::run_cell(profile, &indexed_cfg);
    assert_traces_identical(&naive.trace, &indexed.trace, label);
    // Scheduler-visible metrics must agree too (the index only changes
    // how the winner is found, never which winner is found).
    assert_eq!(
        naive.metrics.preemptions, indexed.metrics.preemptions,
        "{label}: preemption counts diverge"
    );
    assert_eq!(
        naive.metrics.stalls_by_tier, indexed.metrics.stalls_by_tier,
        "{label}: stall counts diverge"
    );
    assert_eq!(
        naive.metrics.evictions_by_cause, indexed.metrics.evictions_by_cause,
        "{label}: eviction causes diverge"
    );
    // And the indexed run must actually have used the index.
    let ix = indexed.metrics.index;
    assert!(
        ix.cache_hits + ix.negative_hits + ix.cache_misses > 0,
        "{label}: index never consulted"
    );
    assert_eq!(
        naive.metrics.index,
        borg_sim::index::IndexStats::default(),
        "{label}: naive run should not touch the index"
    );
}

#[test]
fn indexed_placement_is_bit_identical_across_seeds() {
    for seed in [1u64, 7, 42, 1234, 98765] {
        let cfg = SimConfig::tiny_for_tests(seed);
        check_equivalence(
            &CellProfile::cell_2019('a'),
            &cfg,
            &format!("cell a, seed {seed}"),
        );
    }
}

#[test]
fn indexed_placement_is_bit_identical_across_profiles() {
    for profile in [
        CellProfile::cell_2019('d'),
        CellProfile::cell_2019('g'),
        CellProfile::cell_2011(),
    ] {
        let cfg = SimConfig::tiny_for_tests(11);
        check_equivalence(&profile, &cfg, &format!("profile {}", profile.name));
    }
}

#[test]
fn indexed_placement_is_bit_identical_under_gang_scheduling() {
    for seed in [3u64, 17] {
        let mut cfg = SimConfig::tiny_for_tests(seed);
        cfg.gang_scheduling = true;
        check_equivalence(
            &CellProfile::cell_2019('b'),
            &cfg,
            &format!("gang mode, seed {seed}"),
        );
    }
}

/// Invalidation stress: daily maintenance sweeps, a denser fleet, and a
/// pressured cell maximize preemptions, evictions, retries, and autopilot
/// churn — every path that mutates machines behind the score cache's
/// back.
#[test]
fn indexed_placement_survives_churn_stress() {
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
        let mut cfg_2011 = cfg.clone();
        cfg_2011.seed = seed.wrapping_add(1);
        check_equivalence(
            &CellProfile::cell_2011(),
            &cfg_2011,
            &format!("churn stress 2011, seed {seed}"),
        );
    }
}

/// The churn stress must actually exercise preemption/eviction churn, or
/// the test above proves less than it claims.
#[test]
fn churn_stress_actually_churns() {
    let mut cfg = SimConfig::tiny_for_tests(5);
    cfg.scale = 0.004;
    cfg.maintenance_per_month = 30.0;
    let outcome = CellSim::run_cell(&CellProfile::cell_2019('c'), &cfg);
    let evictions: u64 = outcome.metrics.evictions_by_cause.values().sum();
    assert!(
        evictions > 20,
        "churn config produced only {evictions} evictions"
    );
}
