//! Property-based fuzzing of ledger ingestion.
//!
//! The resume path trusts [`mcp_obs::read_ledger`] to turn
//! whatever a crashed (or hostile) process left on disk into either a
//! clean resume point or a typed error. These properties pin that
//! contract against the failure shapes killed and resumed runs actually
//! produce: truncated final lines, duplicated or interleaved events,
//! and corrupt JSON. Two things must never happen: a panic, or silent
//! loss of a verdict that was durably written before the corruption
//! point.

use mcp_obs::{read_ledger, PairEvent, RunHeader, SpanEvent, LEDGER_VERSION};
use proptest::prelude::*;

fn event(src: usize, dst: usize, resolved: bool) -> PairEvent {
    PairEvent {
        src,
        dst,
        step: if resolved {
            "implication"
        } else {
            "random_sim"
        }
        .to_owned(),
        class: if resolved { "multi" } else { "single" }.to_owned(),
        engine: resolved.then(|| "implication".to_owned()),
        assignments: Vec::new(),
        micros: 1,
        sim_word: (!resolved).then_some(0),
        slice_nodes: None,
        slice_vars: None,
        resumed: false,
        static_pass: false,
        cached: false,
        kernel: (!resolved).then(|| "tape".to_owned()),
    }
}

fn header() -> RunHeader {
    RunHeader {
        ledger: LEDGER_VERSION,
        circuit: "fuzz".to_owned(),
        netlist_hash: 7,
        config_fingerprint: 9,
        pair_digest: 13,
        pairs: 32,
    }
}

/// A syntactically valid ledger built from the generated shape: header,
/// a run of pair events (with optional duplicates), and a span line.
fn render(events: &[(usize, usize, bool)], dup_every: usize, with_span: bool) -> String {
    let mut out = serde_json::to_string(&header()).unwrap() + "\n";
    for (k, &(src, dst, resolved)) in events.iter().enumerate() {
        let line = serde_json::to_string(&event(src, dst, resolved)).unwrap();
        out.push_str(&line);
        out.push('\n');
        // A resumed-then-killed-then-resumed run re-journals restored
        // verdicts, so real ledgers contain duplicates; ingestion must
        // keep them all (last-write-wins is the resume planner's job).
        if dup_every != 0 && k % dup_every == 0 {
            out.push_str(&line);
            out.push('\n');
        }
    }
    if with_span {
        let span = SpanEvent {
            span: "analyze/pairs".to_owned(),
            tid: 1,
            start_us: 0,
            dur_us: 5,
        };
        out.push_str(&serde_json::to_string(&span).unwrap());
        out.push('\n');
    }
    out
}

fn shape_strategy() -> impl Strategy<Value = (Vec<(usize, usize, bool)>, usize, bool)> {
    (
        proptest::collection::vec((0usize..12, 0usize..12, any::<bool>()), 0..24),
        0usize..4,
        any::<bool>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn truncating_the_final_line_never_loses_a_durable_verdict(
        (events, dup_every, with_span) in shape_strategy(),
        cut in 1usize..200,
    ) {
        let full = render(&events, dup_every, with_span);
        let parsed = read_ledger(full.as_bytes()).expect("well-formed ledger parses");
        prop_assert_eq!(parsed.header.as_ref(), Some(&header()));

        // Tear the final line at an arbitrary byte offset strictly
        // inside its JSON (a cut at or past the closing brace is not a
        // torn line at all), the way a SIGKILL mid-writeln does.
        let last_start = full[..full.len() - 1].rfind('\n').map_or(0, |p| p + 1);
        let last_len = full.len() - last_start;
        let torn_len = last_start + 1 + cut % (last_len - 2);
        let torn = &full[..torn_len];

        let ledger = read_ledger(torn.as_bytes())
            .expect("a torn final line is the one corruption the reader accepts");
        // Every line that was durably completed before the tear is
        // still there: the only loss is the torn line itself.
        let durable = full[..torn_len].matches('\n').count();
        let kept = ledger.header.iter().count() + ledger.spans.len() + ledger.events.len();
        prop_assert_eq!(kept, durable, "durable lines lost during ingestion");
    }

    #[test]
    fn corrupt_interior_lines_give_a_typed_error_not_a_panic(
        (events, dup_every, with_span) in shape_strategy(),
        garbage in prop_oneof![
            Just("not json".to_owned()),
            Just("{\"src\":1}".to_owned()),
            Just("{\"ledger\":\"v2\"}".to_owned()),
            Just("[1,2,3]".to_owned()),
            Just("{\"src\":0,\"dst\":1,\"step\":3}".to_owned()),
        ],
        at in 0usize..16,
    ) {
        let full = render(&events, dup_every, with_span);
        let mut lines: Vec<&str> = full.lines().collect();
        let garbage_at = at % lines.len();
        lines.insert(garbage_at, &garbage);
        let corrupt = lines.join("\n") + "\n";
        // The reader refuses mid-file garbage with an io::Error and
        // forgives only the final line.
        if garbage_at + 1 == lines.len() {
            prop_assert!(read_ledger(corrupt.as_bytes()).is_ok());
        } else {
            let err = read_ledger(corrupt.as_bytes());
            prop_assert!(err.is_err());
            prop_assert!(
                err.unwrap_err().to_string().contains("journal line"),
                "corruption errors must name the offending line"
            );
        }
    }

    #[test]
    fn interleaved_shard_ledgers_keep_every_event(
        (events_a, dup_a, _) in shape_strategy(),
        (events_b, dup_b, _) in shape_strategy(),
        stripe in 1usize..5,
    ) {
        // Concatenating or striping two journals (as a naive collector
        // might) still yields every event: ingestion is
        // order-insensitive and duplication-tolerant. Soundness checks
        // (foreign runs, verdicts outside the candidate set) belong to
        // the resume check, which needs the full event set to make them.
        let a = render(&events_a, dup_a, false);
        let b = render(&events_b, dup_b, false);
        let la = read_ledger(a.as_bytes()).expect("parses");
        let lb = read_ledger(b.as_bytes()).expect("parses");

        let lines_a: Vec<&str> = a.lines().collect();
        let lines_b: Vec<&str> = b.lines().collect();
        let mut woven = Vec::new();
        let (mut ia, mut ib) = (0, 0);
        while ia < lines_a.len() || ib < lines_b.len() {
            for _ in 0..stripe {
                if ia < lines_a.len() {
                    woven.push(lines_a[ia]);
                    ia += 1;
                }
            }
            for _ in 0..stripe {
                if ib < lines_b.len() {
                    woven.push(lines_b[ib]);
                    ib += 1;
                }
            }
        }
        let woven = woven.join("\n") + "\n";
        let ledger = read_ledger(woven.as_bytes()).expect("interleaved ledgers parse");
        prop_assert_eq!(ledger.events.len(), la.events.len() + lb.events.len());
        // The header slot is last-write-wins; with identical headers
        // that is still the shared header.
        prop_assert!(ledger.header.is_some());
    }
}
