//! Simulator throughput: events per second of cell-month simulation at
//! several scales, plus the scheduler's placement path in isolation.

use borg_sim::{CellSim, SimConfig};
use borg_trace::time::Micros;
use borg_workload::cells::CellProfile;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_cell_day(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_cell_day");
    group.sample_size(10);
    for &(name, scale) in &[
        ("16_machines", 0.0013),
        ("24_machines", 0.002),
        ("48_machines", 0.004),
        ("512_machines", 512.0 / 12000.0),
        ("2048_machines", 2048.0 / 12000.0),
        // Paper-scale points (a 12k-machine cell is scale 1.0).
        ("4096_machines", 4096.0 / 12000.0),
        ("8192_machines", 8192.0 / 12000.0),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &scale, |b, &scale| {
            let profile = CellProfile::cell_2019('d');
            let mut cfg = SimConfig::tiny_for_tests(1);
            cfg.scale = scale;
            cfg.horizon = Micros::from_days(1);
            cfg.snapshot_at = Micros::from_hours(12);
            b.iter(|| CellSim::run_cell(&profile, &cfg));
        });
    }
    // Telemetry overhead at the profiling scale: same cell-day with
    // span/counter/timing recording on (one blessed-clock read per
    // event). BENCH_simulator.json tracks enabled-vs-disabled; disabled
    // is the default `512_machines` row above (a single branch per
    // event).
    group.bench_function("512_machines_telemetry", |b| {
        let profile = CellProfile::cell_2019('d');
        let mut cfg = SimConfig::tiny_for_tests(1);
        cfg.scale = 512.0 / 12000.0;
        cfg.horizon = Micros::from_days(1);
        cfg.snapshot_at = Micros::from_hours(12);
        cfg.telemetry = true;
        b.iter(|| CellSim::run_cell(&profile, &cfg));
    });
    // The pre-index placement path at the ≥5x acceptance scale, for the
    // before/after numbers in BENCH_simulator.json.
    group.bench_function("512_machines_naive_scan", |b| {
        let profile = CellProfile::cell_2019('d');
        let mut cfg = SimConfig::tiny_for_tests(1);
        cfg.scale = 512.0 / 12000.0;
        cfg.horizon = Micros::from_days(1);
        cfg.snapshot_at = Micros::from_hours(12);
        cfg.use_placement_index = false;
        b.iter(|| CellSim::run_cell(&profile, &cfg));
    });
    group.finish();
}

fn bench_2011_vs_2019(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_era_day");
    group.sample_size(10);
    for (name, profile) in [
        ("2011", CellProfile::cell_2011()),
        ("2019_cell_a", CellProfile::cell_2019('a')),
    ] {
        group.bench_function(name, |b| {
            let mut cfg = SimConfig::tiny_for_tests(2);
            cfg.horizon = Micros::from_days(1);
            cfg.snapshot_at = Micros::from_hours(12);
            b.iter(|| CellSim::run_cell(&profile, &cfg));
        });
    }
    group.finish();
}

fn bench_machine_fit(c: &mut Criterion) {
    use borg_sim::machine::{Machine, Occupant};
    use borg_trace::machine::MachineId;
    use borg_trace::priority::Tier;
    use borg_trace::resources::Resources;
    let mut machines: Vec<Machine> = (0..100)
        .map(|i| Machine::new(MachineId(i), Resources::new(0.5, 0.5)))
        .collect();
    for (i, m) in machines.iter_mut().enumerate() {
        for k in 0..(i % 12) {
            m.add(Occupant {
                owner: k,
                index: 0,
                is_alloc_instance: false,
                tier: Tier::BestEffortBatch,
                request: Resources::new(0.05, 0.04),
            });
        }
    }
    c.bench_function("best_fit_scan_100_machines", |b| {
        let req = Resources::new(0.08, 0.06);
        b.iter(|| {
            let mut best: Option<(usize, f64)> = None;
            for (i, m) in machines.iter().enumerate() {
                if let Some(s) = m.fit_score(req, Tier::Production) {
                    if best.is_none_or(|(_, bs)| s < bs) {
                        best = Some((i, s));
                    }
                }
            }
            best
        });
    });
}

fn bench_placement_path(c: &mut Criterion) {
    use borg_sim::machine::{Machine, Occupant};
    use borg_sim::PlacementIndex;
    use borg_trace::machine::MachineId;
    use borg_trace::priority::Tier;
    use borg_trace::resources::Resources;
    const FLEET: usize = 10_000;
    let mut machines: Vec<Machine> = (0..FLEET)
        .map(|i| Machine::new(MachineId(i as u32), Resources::new(0.5, 0.5)))
        .collect();
    for (i, m) in machines.iter_mut().enumerate() {
        for k in 0..(i % 12) {
            m.add(Occupant {
                owner: k,
                index: i,
                is_alloc_instance: false,
                tier: Tier::BestEffortBatch,
                request: Resources::new(0.05, 0.04),
            });
        }
    }
    let req = Resources::new(0.08, 0.06);
    let mut group = c.benchmark_group("placement_path");
    group.bench_function("naive_scan_10k", |b| {
        b.iter(|| {
            let mut best: Option<(usize, f64)> = None;
            for (i, m) in machines.iter().enumerate() {
                if let Some(s) = m.fit_score(req, Tier::Production) {
                    if best.is_none_or(|(_, bs)| s < bs) {
                        best = Some((i, s));
                    }
                }
            }
            best
        });
    });
    group.bench_function("indexed_miss_10k", |b| {
        // Cycling through more shapes than the cache holds evicts every
        // entry before it is asked again, so each query pays the full
        // mirror scan plus a cache store: the cold path.
        let mut index = PlacementIndex::new(&machines);
        let shapes: Vec<Resources> = (0..8192)
            .map(|i| Resources::new(0.06 + (i % 97) as f64 * 1e-6, 0.05 + (i / 97) as f64 * 1e-6))
            .collect();
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 1) % shapes.len();
            index.best_fit(&machines, shapes[k], Tier::Production)
        });
    });
    group.bench_function("indexed_churn_10k", |b| {
        // Steady churn: the winner mutates between queries, so each
        // lookup revalidates the entry against a one-record tail instead
        // of rescanning the fleet.
        let mut index = PlacementIndex::new(&machines);
        b.iter(|| {
            let hit = index.best_fit(&machines, req, Tier::Production);
            if let Some((mi, _)) = hit {
                index.on_machine_changed(mi, &machines[mi]);
            }
            hit
        });
    });
    group.bench_function("indexed_cached_10k", |b| {
        // Steady state: an unchanged fleet answers from the score cache.
        let mut index = PlacementIndex::new(&machines);
        index.best_fit(&machines, req, Tier::Production);
        b.iter(|| index.best_fit(&machines, req, Tier::Production));
    });
    group.finish();
}

/// One named configuration tweak.
type Variant = (&'static str, fn(&mut SimConfig));

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations_cell_day");
    group.sample_size(10);
    let profile = CellProfile::cell_2019('b');
    let base = {
        let mut cfg = SimConfig::tiny_for_tests(3);
        cfg.horizon = Micros::from_days(1);
        cfg.snapshot_at = Micros::from_hours(12);
        cfg
    };
    let variants: [Variant; 4] = [
        ("baseline", |_| {}),
        ("no_equivalence_classes", |c| {
            c.equivalence_class_speedup = 1.0
        }),
        ("no_batch_queue", |c| c.disable_batch_queue = true),
        ("gang_scheduling", |c| c.gang_scheduling = true),
    ];
    for (name, configure) in variants {
        let mut cfg = base.clone();
        configure(&mut cfg);
        group.bench_function(name, |b| {
            b.iter(|| CellSim::run_cell(&profile, &cfg));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cell_day,
    bench_2011_vs_2019,
    bench_machine_fit,
    bench_placement_path,
    bench_ablations
);
criterion_main!(benches);
