//! Regenerates the paper's **Table 2**: the number of FF pairs identified
//! in each analysis step (random simulation / implication / ATPG) and the
//! CPU time attributable to each step, aggregated over the suite.
//!
//! The paper's headline numbers — 86% of single-cycle pairs fall to
//! simulation, and more than 80% of multi-cycle pairs fall to the
//! implication procedure — are the structural reason the method beats the
//! SAT baseline; this harness reports the same percentages on the
//! synthetic suite.

use mcp_bench::{bench_artifact, secs, HarnessArgs};
use mcp_core::analyze_with;
use mcp_obs::{Counters, ObsCtx};
use serde::Serialize;
use std::time::Duration;

#[derive(Debug, Serialize)]
struct Table2 {
    single_by_sim: usize,
    single_by_implication: usize,
    single_by_atpg: usize,
    multi_by_implication: usize,
    multi_by_atpg: usize,
    unknown: usize,
    cpu_sim: f64,
    cpu_prepare: f64,
    cpu_pairs: f64,
    counters: Counters,
    lint_warnings: usize,
}

fn main() {
    let args = HarnessArgs::parse();
    let suite = args.suite();

    let mut agg = Table2 {
        single_by_sim: 0,
        single_by_implication: 0,
        single_by_atpg: 0,
        multi_by_implication: 0,
        multi_by_atpg: 0,
        unknown: 0,
        cpu_sim: 0.0,
        cpu_prepare: 0.0,
        cpu_pairs: 0.0,
        counters: Counters::default(),
        lint_warnings: 0,
    };
    let mut t_sim = Duration::ZERO;
    let mut t_prepare = Duration::ZERO;
    let mut t_pairs = Duration::ZERO;
    // One observability context across the suite: the engine counters
    // accumulate into suite-wide totals.
    let obs = ObsCtx::new();

    for nl in &suite {
        agg.lint_warnings += args.lint_warnings(nl);
        let r = analyze_with(nl, &args.mc_config(), &obs).expect("analysis succeeds");
        agg.single_by_sim += r.stats.single_by_sim;
        agg.single_by_implication += r.stats.single_by_implication;
        agg.single_by_atpg += r.stats.single_by_atpg;
        agg.multi_by_implication += r.stats.multi_by_implication;
        agg.multi_by_atpg += r.stats.multi_by_atpg;
        agg.unknown += r.stats.unknown;
        t_sim += r.stats.time_sim;
        t_prepare += r.stats.time_prepare;
        t_pairs += r.stats.time_pairs;
    }
    agg.cpu_sim = t_sim.as_secs_f64();
    agg.cpu_prepare = t_prepare.as_secs_f64();
    agg.cpu_pairs = t_pairs.as_secs_f64();
    agg.counters = obs.metrics.counters();

    let single_total = (agg.single_by_sim + agg.single_by_implication + agg.single_by_atpg).max(1);
    let multi_total = (agg.multi_by_implication + agg.multi_by_atpg).max(1);
    let pct = |n: usize, d: usize| 100.0 * n as f64 / d as f64;

    println!("Table 2: FF pairs identified and CPU time per analysis step");
    println!("{:-<76}", "");
    println!(
        "{:>14} {:>18} {:>18} {:>18}",
        "", "Sim.", "Implication", "ATPG"
    );
    println!("{:-<76}", "");
    println!(
        "{:>14} {:>10} ({:>4.1}%) {:>10} ({:>4.1}%) {:>10} ({:>4.1}%)",
        "single cycle",
        agg.single_by_sim,
        pct(agg.single_by_sim, single_total),
        agg.single_by_implication,
        pct(agg.single_by_implication, single_total),
        agg.single_by_atpg,
        pct(agg.single_by_atpg, single_total),
    );
    println!(
        "{:>14} {:>10} ({:>4.1}%) {:>10} ({:>4.1}%) {:>10} ({:>4.1}%)",
        "multi cycle",
        0,
        0.0,
        agg.multi_by_implication,
        pct(agg.multi_by_implication, multi_total),
        agg.multi_by_atpg,
        pct(agg.multi_by_atpg, multi_total),
    );
    println!(
        "{:>14} {:>18} {:>18} {:>18}",
        "CPU(sec)",
        secs(t_sim),
        secs(t_prepare),
        secs(t_pairs),
    );
    println!("{:-<76}", "");
    if agg.unknown > 0 {
        println!("unresolved (aborted) pairs: {}", agg.unknown);
    }
    println!(
        "\nShape check vs paper: sim resolves {:.0}% of single-cycle pairs (paper: 86%),",
        pct(agg.single_by_sim, single_total)
    );
    println!(
        "implication resolves {:.0}% of multi-cycle pairs (paper: >80%).",
        pct(agg.multi_by_implication, multi_total)
    );
    println!(
        "\nengine counters: {} implications, {} contradictions, {} decisions, \
         {} backtracks, {} aborts, {} sim words",
        agg.counters.implications,
        agg.counters.contradictions,
        agg.counters.atpg_decisions,
        agg.counters.atpg_backtracks,
        agg.counters.atpg_aborts,
        agg.counters.sim_words,
    );

    let artifact = bench_artifact("table2", &agg);
    args.drift_gate(artifact.as_deref());
}
