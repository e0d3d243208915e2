//! The paper battery: the `all` experiment at `--scale small` — the 2011
//! cell plus the eight 2019 cells, then every table and figure. The
//! calls and their order follow `crates/experiments/src/bin/all.rs`;
//! the rendered output is kept in memory for the output digest instead
//! of being printed, and the timing lines are left out of it.

use crate::spans::SpanTree;
use borg_analysis::ccdf::Ccdf;
use borg_core::analyses::utilization::{render_per_cell_bars, Dimension, Quantity};
use borg_core::analyses::{
    allocs, autoscaling, consumption, correlation, delay, machine_util, queueing, shapes,
    submission, summary, tasks_per_job, terminations, transitions,
};
use borg_core::pipeline::{simulate_both_eras, SimScale};
use borg_core::report::pct;
use borg_sim::{run_cells_parallel, CellOutcome, CellSim, SimConfig};
use borg_workload::cells::CellProfile;
use borg_workload::integral::IntegralModel;
use std::fmt::Write;

/// The battery's scale.
pub const SCALE: SimScale = SimScale::Small;

/// The cells of one battery run.
pub struct Cells {
    /// The 2011 cell.
    pub y2011: CellOutcome,
    /// The eight 2019 cells, `a` … `h`.
    pub y2019: Vec<CellOutcome>,
}

/// Simulates both eras. Without telemetry this is the program's own
/// `simulate_both_eras`; with it, the same two calls with
/// `SimConfig::telemetry` set, so every cell carries its phase spans.
pub fn simulate(seed: u64, telemetry: bool) -> Cells {
    if !telemetry {
        let (y2011, y2019) = simulate_both_eras(SCALE, seed);
        return Cells { y2011, y2019 };
    }
    let traced = |seed| SimConfig {
        telemetry: true,
        ..SCALE.config(seed)
    };
    Cells {
        y2011: CellSim::run_cell(&CellProfile::cell_2011(), &traced(seed ^ 0x2011)),
        y2019: run_cells_parallel(&CellProfile::all_2019(), &traced(seed)),
    }
}

/// Worker threads `run_cells_parallel` sizes its pool to for the eight
/// 2019 cells (the caller's thread runs one share itself).
pub fn cell_pool_workers() -> usize {
    let par = std::thread::available_parallelism().map_or(1, usize::from);
    par.saturating_sub(1).min(CellProfile::all_2019().len() - 1)
}

fn ccdf_line(out: &mut String, name: &str, ccdf: &Ccdf) {
    if ccdf.is_empty() {
        let _ = writeln!(out, "{name}: (no samples)");
        return;
    }
    let q = |p: f64| ccdf.quantile_exceeding(p).unwrap_or(f64::NAN);
    let _ = writeln!(
        out,
        "{name}: n={}  median={:.4}  p90={:.4}  p99={:.4}  max={:.4}",
        ccdf.len(),
        ccdf.median().unwrap_or(f64::NAN),
        q(0.10),
        q(0.01),
        ccdf.samples().last().copied().unwrap_or(f64::NAN),
    );
}

/// Runs every table and figure over `cells`, each group of analyses in
/// its own span under the innermost open one. Returns the rendered
/// output.
pub fn analyses(cells: &Cells, seed: u64, spans: &mut SpanTree) -> String {
    let mut out = String::new();
    let o = &mut out;
    let (y2011, y2019) = (&cells.y2011, &cells.y2019);
    let refs: Vec<&CellOutcome> = y2019.iter().collect();
    let scale = SCALE.config(seed).scale;

    spans.time("figures", || {
        let s11 = summary::summarize_era("May 2011", &[y2011]);
        let s19 = summary::summarize_era("May 2019", &refs);
        let _ = writeln!(o, "Table 1\n{}", summary::render_table1(&s11, &s19));

        let bubbles = shapes::shape_bubbles(&refs);
        let _ = writeln!(
            o,
            "Figure 1: {} shapes\n{}",
            bubbles.len(),
            shapes::render_shapes(&bubbles[..bubbles.len().min(5)])
        );

        let mut rows = vec![("2011", y2011)];
        rows.extend(y2019.iter().map(|c| (c.metrics.cell_name.as_str(), c)));
        for q in [Quantity::Usage, Quantity::Allocation] {
            for d in [Dimension::Cpu, Dimension::Memory] {
                let _ = writeln!(o, "{}", render_per_cell_bars(&rows, q, d));
            }
        }

        ccdf_line(o, "2011 machine CPU util", &machine_util::cpu_ccdf(y2011));
        for c in y2019 {
            let name = format!("2019 cell {} CPU util", c.metrics.cell_name);
            ccdf_line(o, &name, &machine_util::cpu_ccdf(c));
        }

        if let Some(g) = y2019.iter().find(|c| c.metrics.cell_name == "g") {
            let t = transitions::combined_transitions(g);
            let _ = writeln!(o, "{}", transitions::render_transitions(&t));
        }

        let c2011 = submission::job_rate_ccdf(y2011, scale);
        let agg = submission::aggregate_job_rate_ccdf(y2019, scale);
        ccdf_line(o, "job rate 2011 (jobs/hour)", &c2011);
        ccdf_line(o, "job rate 2019 aggregate", &agg);
        let (new11, all11) = submission::task_rate_ccdfs(y2011, scale);
        ccdf_line(o, "task rate 2011 new", &new11);
        ccdf_line(o, "task rate 2011 all", &all11);
        let churn19: f64 =
            y2019.iter().map(submission::churn_ratio).sum::<f64>() / y2019.len() as f64;
        let _ = writeln!(
            o,
            "reschedule:new 2011 {:.2}, 2019 {churn19:.2}",
            submission::churn_ratio(y2011)
        );

        ccdf_line(o, "delay 2011 (s)", &delay::delay_ccdf(y2011));
        ccdf_line(o, "delay 2019 pooled (s)", &delay::pooled_delay_ccdf(&refs));
        for (tier, ccdf) in delay::delay_ccdfs_by_tier(&refs) {
            ccdf_line(o, &format!("delay 2019 {tier} (s)"), &ccdf);
        }
    });

    spans.time("figure11", || {
        for (tier, ccdf) in tasks_per_job::model_ccdfs(400_000, seed) {
            let p80 = ccdf.quantile_exceeding(0.20).unwrap_or(f64::NAN);
            let p95 = ccdf.quantile_exceeding(0.05).unwrap_or(f64::NAN);
            let _ = writeln!(o, "{tier:>5}: 80%ile {p80:.0} tasks, 95%ile {p95:.0} tasks");
        }
    });

    spans.time("table2", || {
        let cols = consumption::table2(2_000_000, seed).expect("table 2 computes");
        let _ = writeln!(o, "{}", consumption::render_table2(&cols));
    });

    spans.time("figure13", || {
        let f13 = correlation::figure13(1_000_000, seed).expect("figure 13 computes");
        let _ = writeln!(o, "Figure 13 pearson {:.3}", f13.pearson);
    });

    spans.time("figures", || {
        for (mode, ccdf) in autoscaling::slack_ccdfs(&refs) {
            ccdf_line(o, &format!("slack {} (%)", mode.name()), &ccdf);
        }
        if let Some(r) = autoscaling::full_vs_manual_median_reduction(&refs) {
            let _ = writeln!(o, "median slack reduction full vs manual: {r:.1}");
        }
        let a = allocs::alloc_stats(&refs);
        for v in [
            a.alloc_set_collection_fraction,
            a.alloc_cpu_allocation_share,
            a.alloc_mem_allocation_share,
            a.jobs_in_alloc_fraction,
            a.in_alloc_prod_fraction,
            a.mem_fill_in_alloc,
            a.mem_fill_outside,
        ] {
            let _ = writeln!(o, "alloc {}", pct(v));
        }
        let t = terminations::termination_stats(&refs);
        for v in [
            t.collections_with_evictions,
            t.evicted_nonprod_fraction,
            t.prod_collections_evicted,
            t.single_eviction_fraction,
            t.kill_rate_with_parent,
            t.kill_rate_without_parent,
        ] {
            let _ = writeln!(o, "termination {}", pct(v));
        }
    });

    spans.time("section73", || {
        let (cpu19, _) = consumption::era_samples(&IntegralModel::model_2019(), 1_000_000, seed);
        for r in queueing::queueing_rows(&cpu19, &[0.3, 0.5, 0.7]).expect("valid loads") {
            let _ = writeln!(
                o,
                "rho {:.1}: full-mix delay {:.0}, mice-only {:.4}, benefit {:.0}x",
                r.rho, r.delay_full, r.delay_mice, r.benefit
            );
        }
    });
    out
}

/// Placement shards each battery cell runs with (auto-sized from the
/// fleet, so one for cells this small).
pub fn placement_shards(seed: u64) -> usize {
    let cfg = SCALE.config(seed);
    CellProfile::all_2019()
        .iter()
        .map(|p| cfg.effective_shards(cfg.machine_count(p)))
        .max()
        .unwrap_or(1)
}
