//! Pins the checked-in historical ledger fixtures against the ledger
//! readers:
//!
//! - `pr1_journal.ndjson`: journals written before the run header, span
//!   events, slice fields and the `resumed` flag existed must keep
//!   loading unchanged;
//! - `pr15_shard_ledger.ndjson`: shard 0 of 2 of `m298.bench`, written
//!   by the retired `shard` subcommand, whose header carries the
//!   `shard_index`, `shard_count` and `run_digest` keys.
//!
//! One case pins inline artifacts instead: metrics and journal lines
//! written while the scalar JIT emitter and its `jit_compiles` /
//! `jit_batches` counters existed.
//!
//! The in-crate unit tests cover the *shape* with synthetic lines; these
//! tests cover the *artifacts* — real multi-line fixture files that must
//! never be regenerated, so reader drift against historical journals is
//! caught even if the unit tests' literals are updated alongside the
//! code.

use mcp_obs::{
    compare_artifacts, read_ledger, read_ledger_file, CompareConfig, MetricsSnapshot,
    LEDGER_VERSION,
};
use std::path::PathBuf;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr1_journal.ndjson")
}

fn shard_fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr15_shard_ledger.ndjson")
}

#[test]
fn the_pr1_fixture_loads_as_a_journal_with_defaulted_fields() {
    let events = read_ledger_file(fixture())
        .expect("PR-1 journal parses")
        .events;
    assert_eq!(events.len(), 5);

    // Every record predates the slice/resume fields: all defaulted.
    for e in &events {
        assert_eq!(e.slice_nodes, None, "pair ({}, {})", e.src, e.dst);
        assert_eq!(e.slice_vars, None, "pair ({}, {})", e.src, e.dst);
        assert!(!e.resumed, "pair ({}, {})", e.src, e.dst);
    }

    // Spot-check the payloads survived: the self-loop implication verdict
    // with both contradiction assignments, and the sim drop word.
    assert_eq!((events[0].src, events[0].dst), (0, 0));
    assert_eq!(events[0].class, "multi");
    assert_eq!(events[0].assignments.len(), 2);
    assert!(events[0]
        .assignments
        .iter()
        .all(|a| a.outcome == "contradiction"));
    assert_eq!(events[1].step, "random_sim");
    assert_eq!(events[1].sim_word, Some(3));
    assert_eq!(events[1].engine, None);
    assert_eq!(events[3].engine.as_deref(), Some("atpg"));
    assert_eq!(events[3].micros, 840);
}

#[test]
fn the_pr1_fixture_loads_as_a_headerless_ledger() {
    let ledger = read_ledger_file(fixture()).expect("read");
    assert_eq!(ledger.header, None, "PR-1 journals carry no run header");
    assert!(ledger.spans.is_empty(), "PR-1 journals carry no spans");
    assert_eq!(ledger.events.len(), 5);
}

#[test]
fn the_pr1_fixture_feeds_the_compare_gate() {
    // `stats --compare` must accept old journals on either side: compared
    // against itself the fixture reports no drift at all.
    let text = std::fs::read_to_string(fixture()).expect("fixture readable");
    let cmp = compare_artifacts(&text, &text, CompareConfig::default()).expect("old vs old");
    assert_eq!(cmp.regressions(), 0);
    assert!(
        cmp.render().contains("no counter differences"),
        "got: {}",
        cmp.render()
    );
}

#[test]
fn the_shard_era_fixture_loads_with_its_header() {
    let ledger = read_ledger_file(shard_fixture()).expect("read");
    let header = ledger.header.expect("shard-era ledgers carry a v2 header");
    assert_eq!(header.ledger, LEDGER_VERSION);
    assert_eq!(header.circuit, "m298.bench");
    assert_eq!(header.pairs, 39, "committed to the full candidate set");
    // 26 sim drops plus the 7 survivors shard 0 verified.
    assert_eq!(ledger.events.len(), 33);
    assert_eq!(
        ledger.events.iter().filter(|e| e.engine.is_some()).count(),
        7
    );
    assert_eq!(ledger.spans.len(), 7);
}

#[test]
fn artifacts_with_the_retired_jit_counters_and_scalar_kernel_still_load() {
    // The metrics of a saved m27 report, written while `jit_compiles`
    // and `jit_batches` were counters: the decoder skips both keys.
    let old_metrics = r#"{"counters":{"implications":328,"contradictions":8,
        "learned_implications":0,"atpg_decisions":0,"atpg_backtracks":0,"atpg_aborts":0,
        "sat_decisions":0,"sat_propagations":0,"sat_conflicts":0,"sat_learned":0,
        "sat_restarts":0,"bdd_peak_nodes":0,"bdd_cache_lookups":0,"bdd_cache_hits":0,
        "sim_words":129,"sim_pairs_dropped":5,"sim_passes":33,"sim_fused_ops":594,
        "jit_compiles":1,"jit_bytes":266,"jit_batches":66,"dataflow_consts":0,
        "dataflow_iters":0,"static_resolved":0,"slice_builds":4,"slice_cache_hits":2,
        "slice_nodes":63,"slice_vars":16,"slice_nodes_peak":24,"resume_pairs_loaded":0,
        "cache_hits":0,"cache_misses":0,"cache_invalidations":0,"cache_pairs_spliced":0,
        "eco_groups_reverified":0,"eco_groups_spliced":0},"spans":{}}"#;
    let m: MetricsSnapshot = serde_json::from_str(old_metrics).expect("old metrics parse");
    assert_eq!(m.counters.implications, 328);
    assert_eq!(m.counters.sim_passes, 33);
    assert_eq!(m.counters.sim_fused_ops, 594);
    assert_eq!(m.counters.jit_bytes, 266);
    assert_eq!(m.counters.slice_nodes_peak, 24);
    let cmp =
        compare_artifacts(old_metrics, old_metrics, CompareConfig::default()).expect("old vs old");
    assert_eq!(cmp.regressions(), 0);

    // A journal whose sim drops name the retired emitter.
    let old_journal = "{\"src\":0,\"dst\":1,\"step\":\"random_sim\",\"class\":\"single\",\
        \"engine\":null,\"assignments\":[],\"micros\":0,\"sim_word\":2,\"kernel\":\"jit-scalar\"}\n";
    let ledger = read_ledger(old_journal.as_bytes()).expect("old journal parses");
    assert_eq!(ledger.events.len(), 1);
    assert_eq!(ledger.events[0].kernel.as_deref(), Some("jit-scalar"));
    assert_eq!(ledger.events[0].sim_word, Some(2));
}
