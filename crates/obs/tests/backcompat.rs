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
//! The in-crate unit tests cover the *shape* with synthetic lines; these
//! tests cover the *artifacts* — real multi-line fixture files that must
//! never be regenerated, so reader drift against historical journals is
//! caught even if the unit tests' literals are updated alongside the
//! code.

use mcp_obs::{compare_artifacts, read_ledger_file, CompareConfig, LEDGER_VERSION};
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
