//! Sharded-verification characterization: partition balance and merge
//! fidelity over the deterministic suite.
//!
//! For each circuit and shard count the harness runs every shard
//! in-process (capturing its ledger through a `MemSink`), merges the
//! ledgers, and asserts the merged canonical report is byte-identical
//! to the single-process `--threads 1` run — the same soundness
//! contract `tests/sharding.rs` pins through the real binary, measured
//! here at suite scale. The table reports how evenly the greedy LPT
//! planner spreads the surviving pairs (`min`/`max` owned per shard)
//! and what the shard fan-out costs in wall-clock against the
//! unsharded run.

use mcp_bench::{bench_artifact, secs, HarnessArgs};
use mcp_core::{analyze_from, analyze_with, McConfig, ShardSpec, VerdictSource};
use mcp_obs::{Ledger, MemSink, ObsCtx};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Shard counts swept per circuit.
const SHARDS: [u64; 3] = [2, 4, 8];

#[derive(Debug, Serialize)]
struct Row {
    circuit: String,
    ffs: usize,
    candidate_pairs: usize,
    surviving_pairs: usize,
    shards: u64,
    /// Owned pairs of the lightest shard.
    min_owned: usize,
    /// Owned pairs of the heaviest shard.
    max_owned: usize,
    /// Summed wall-clock of the shard runs (the serialized cost; real
    /// deployments run them concurrently).
    shard_wall_s: f64,
    /// Wall-clock of the merge (validation + prefilter replay).
    merge_wall_s: f64,
    /// Wall-clock of the unsharded single-process run.
    single_wall_s: f64,
    /// The merged canonical report matched the single-process run
    /// byte for byte (asserted — recorded for the artifact trail).
    identical: bool,
}

fn capture(nl: &mcp_netlist::Netlist, cfg: &McConfig) -> Ledger {
    let sink = Arc::new(MemSink::new());
    let obs = ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
    analyze_with(nl, cfg, &obs).expect("shard analyze succeeds");
    Ledger {
        header: sink.take_header(),
        spans: sink.drain_spans(),
        events: sink.drain(),
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let suite = args.suite();

    println!("Shard partition balance and merge fidelity");
    println!("{:-<78}", "");
    println!(
        "{:>8} {:>5} {:>8} {:>8} | {:>3} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "circuit", "FF", "pairs", "surv", "N", "min", "max", "shards(s)", "merge(s)", "single(s)"
    );
    println!("{:-<78}", "");

    let mut rows = Vec::new();
    for nl in &suite {
        let s = nl.stats();
        args.lint_warnings(nl);
        let cfg = args.mc_config();

        let t = Instant::now();
        let single = analyze_with(nl, &cfg, &ObsCtx::new()).expect("single-process analyze");
        let single_wall = t.elapsed();
        let single_canonical =
            serde_json::to_string(&single.canonical()).expect("serialize single-process report");

        for count in SHARDS {
            let t = Instant::now();
            let ledgers: Vec<Ledger> = (0..count)
                .map(|index| {
                    let shard_cfg = McConfig {
                        shard: Some(ShardSpec { index, count }),
                        ..cfg.clone()
                    };
                    capture(nl, &shard_cfg)
                })
                .collect();
            let shard_wall = t.elapsed();
            // A shard journals an engine verdict for exactly the pairs it
            // owns, so its ledger is its share of the partition.
            let owned: Vec<usize> = ledgers
                .iter()
                .map(|l| l.events.iter().filter(|e| e.engine.is_some()).count())
                .collect();
            let (min_owned, max_owned) = (
                owned.iter().copied().min().unwrap_or(0),
                owned.iter().copied().max().unwrap_or(0),
            );
            let surviving: usize = owned.iter().sum();

            let t = Instant::now();
            let merged = analyze_from(nl, &cfg, &ObsCtx::new(), VerdictSource::Shards(&ledgers))
                .expect("merge succeeds")
                .report;
            let merge_wall = t.elapsed();
            let merged_canonical =
                serde_json::to_string(&merged.canonical()).expect("serialize merged report");
            assert_eq!(
                merged_canonical,
                single_canonical,
                "{}: {count}-shard merge must be byte-identical to the single run",
                nl.name()
            );

            println!(
                "{:>8} {:>5} {:>8} {:>8} | {:>3} {:>7} {:>7} {:>9} {:>9} {:>9}",
                nl.name(),
                s.ffs,
                single.stats.candidates,
                surviving,
                count,
                min_owned,
                max_owned,
                secs(shard_wall),
                secs(merge_wall),
                secs(single_wall)
            );
            rows.push(Row {
                circuit: nl.name().to_owned(),
                ffs: s.ffs,
                candidate_pairs: single.stats.candidates,
                surviving_pairs: surviving,
                shards: count,
                min_owned,
                max_owned,
                shard_wall_s: shard_wall.as_secs_f64(),
                merge_wall_s: merge_wall.as_secs_f64(),
                single_wall_s: single_wall.as_secs_f64(),
                identical: true,
            });
        }
        println!("{:-<78}", "");
    }

    let artifact = bench_artifact("shard", &rows);
    args.dump_json(&rows);
    args.drift_gate(artifact.as_deref());
}
