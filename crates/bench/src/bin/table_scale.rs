//! Thread-scaling curve of the shared-cursor pair loop.
//!
//! Sweeps the worker count over the quick suite (plus m5378 on full
//! runs) and reports wall-clock per circuit and thread count, the
//! speedup over the single-threaded run, and — the part that makes the
//! numbers trustworthy — a drift check: every thread count must produce
//! the *same* multi-cycle pair set, and on circuits small enough for
//! exhaustive enumeration that set must equal the brute-force oracle's.
//!
//! The run deliberately disables the random-simulation prefilter and
//! raises the backtrack limit: the point is to load the parallel pair
//! loop, not to reproduce the paper's (sim-filtered, single-threaded)
//! headline numbers.

use mcp_bench::{bench_artifact, secs, HarnessArgs};
use mcp_core::{analyze, Engine, McConfig};
use serde::Serialize;
use std::time::Instant;

/// Thread counts swept per circuit.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Oracle cross-check budget: state + 2x input bits (64 lanes at a time,
/// so 2^22 assignments stay well under a second).
const ORACLE_BITS: usize = 22;

#[derive(Debug, Serialize)]
struct Row {
    circuit: String,
    ffs: usize,
    candidate_pairs: usize,
    mc_pairs: usize,
    threads: usize,
    wall_s: f64,
    pairs_busy_s: f64,
    speedup: f64,
    oracle_checked: bool,
}

// The artifact envelope (see `bench_artifact`) pairs the curve with the
// machine's core count: a wall-clock speedup is bounded by available
// cores, so a flat curve from a single-core container must not be
// misread as a pair-loop defect.

fn main() {
    let args = HarnessArgs::parse();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut suite = mcp_gen::suite::quick_suite();
    if !args.quick {
        // m5378 is the smallest circuit where the residue pairs are
        // expensive enough for the hardest-first order to matter at 8
        // workers.
        suite.push(mcp_gen::suite::standard_suite().remove(6));
    }

    println!("Thread scaling of the pair loop ({cores} core(s))");
    println!("{:-<72}", "");
    println!(
        "{:>8} {:>5} {:>8} {:>8} | {:>3} {:>9} {:>9} {:>8}",
        "circuit", "FF", "pairs", "MC", "thr", "wall(s)", "busy(s)", "speedup"
    );
    println!("{:-<72}", "");

    let mut rows = Vec::new();
    for nl in &suite {
        let s = nl.stats();
        let cfg_for = |threads: usize| McConfig {
            engine: Engine::Implication,
            threads,
            use_sim_filter: false,
            backtrack_limit: 1024,
            ..args.mc_config()
        };

        // The oracle cross-check anchors the drift check to ground truth
        // where exhaustive enumeration is feasible.
        let bits = s.ffs + 2 * s.inputs;
        let oracle_multi = (bits <= ORACLE_BITS).then(|| {
            let (mut m, _) = mcp_gen::oracle::exhaustive_mc_pairs(nl);
            m.sort_unstable();
            m
        });

        let mut baseline: Option<(Vec<(usize, usize)>, f64)> = None;
        for threads in THREADS {
            let t = Instant::now();
            let report = analyze(nl, &cfg_for(threads)).expect("analysis succeeds");
            let wall = t.elapsed().as_secs_f64();
            let multi = report.multi_cycle_pairs();
            match &baseline {
                None => baseline = Some((multi.clone(), wall)),
                Some((expected, _)) => assert_eq!(
                    &multi,
                    expected,
                    "{}: verdicts drifted at {threads} threads",
                    nl.name()
                ),
            }
            if let Some(oracle) = &oracle_multi {
                assert_eq!(
                    &multi,
                    oracle,
                    "{}: verdicts disagree with the exhaustive oracle",
                    nl.name()
                );
            }
            let (_, wall_1) = baseline.as_ref().expect("set above");
            let speedup = wall_1 / wall.max(1e-9);
            println!(
                "{:>8} {:>5} {:>8} {:>8} | {:>3} {:>9} {:>9} {:>7.2}x",
                nl.name(),
                s.ffs,
                report.stats.candidates,
                report.stats.multi_total(),
                threads,
                secs(t.elapsed()),
                secs(report.stats.time_pairs),
                speedup
            );
            rows.push(Row {
                circuit: nl.name().to_owned(),
                ffs: s.ffs,
                candidate_pairs: report.stats.candidates,
                mc_pairs: report.stats.multi_total(),
                threads,
                wall_s: wall,
                pairs_busy_s: report.stats.time_pairs.as_secs_f64(),
                speedup,
                oracle_checked: oracle_multi.is_some(),
            });
        }
        println!("{:-<72}", "");
    }

    // Aggregate speedup: total single-threaded wall over total wall per
    // thread count (weighs big circuits more, like a real batch run).
    let total = |thr: usize| -> f64 {
        rows.iter()
            .filter(|r| r.threads == thr)
            .map(|r| r.wall_s)
            .sum()
    };
    let wall_1 = total(1);
    for threads in THREADS {
        println!(
            "total at {threads} thread(s): {:.3}s  ({:.2}x)",
            total(threads),
            wall_1 / total(threads).max(1e-9)
        );
    }
    if cores == 1 {
        println!("note: single-core machine — wall-clock speedup is bounded at 1.0x");
    }

    let artifact = bench_artifact("scale", &rows);
    args.drift_gate(artifact.as_deref());
}
