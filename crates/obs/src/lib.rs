//! Observability for the multi-cycle path pipeline.
//!
//! Three complementary facilities, all cheap enough to stay on by
//! default and all safe to share across the scoped worker threads of the
//! pair loop:
//!
//! - **Span log** ([`Tracer`], [`SpanGuard`]): RAII spans keyed by
//!   hierarchical `a/b/c` paths, each recorded once with its begin time,
//!   duration and thread track. The log's per-path totals
//!   ([`SpanStat`]) are the report's timings; its events close the
//!   ledger and export as Chrome trace-event JSON ([`chrome_trace`]) for
//!   Perfetto.
//! - **Engine counters** ([`Metrics`], [`Counters`]): relaxed
//!   `AtomicU64`s the pipeline flushes per-pair deltas into — decisions,
//!   backtracks, implications, SAT conflicts, BDD cache traffic, words
//!   simulated. [`Counters`] is the serializable snapshot embedded in
//!   reports.
//! - **Run ledger** ([`ObsSink`], [`RunHeader`], [`PairEvent`]): a
//!   versioned NDJSON journal. A v2 ledger opens with a [`RunHeader`]
//!   (format version plus netlist/config/pair-set digests), appends one
//!   flushed [`PairEvent`] per resolved pair — making the file a durable
//!   checkpoint that `analyze --resume` can restart from after a SIGKILL
//!   — and closes with the run's timestamped [`SpanEvent`] tree. The
//!   default [`NullSink`] reports `enabled() == false` so hot paths skip
//!   event construction entirely; [`FileSink`] writes the NDJSON ledger;
//!   [`MemSink`] buffers in memory for tests.
//!
//! [`ObsCtx`] bundles these plus an optional throttled progress meter,
//! and is what the pipeline's `analyze_with` entry point accepts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod ctx;
mod ledger;
mod metrics;
mod progress;
mod trace;

pub use compare::{
    compare_artifacts, compare_counters, flatten_artifact, parse_threshold_pct, CompareConfig,
    Comparison, CounterDiff,
};
pub use ctx::ObsCtx;
pub use ledger::{
    fnv1a, read_ledger, read_ledger_file, AssignmentEvent, FailAfter, FileSink, Ledger, MemSink,
    NullSink, ObsSink, PairEvent, RunHeader, SpanEvent, FAIL_AFTER_ENV, FAULT_EXIT_CODE,
    LEDGER_VERSION,
};
pub use metrics::{Counter, Counters, Metrics, MetricsSnapshot};
pub use trace::{
    chrome_trace, chrome_trace_from_totals, current_tid, ChromeEvent, ChromeTrace, SpanGuard,
    SpanStat, Tracer,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn span(path: &str, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            span: path.to_owned(),
            tid: 1,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn span_log_totals_fold_labels_into_their_path() {
        let log = Tracer::new();
        {
            let _root = log.span("analyze");
            for sink in [3, 7] {
                let _group = log.span(format!("analyze/pairs/sink:{sink}"));
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Spans entered and left inside the root lie inside it.
        let events = log.events();
        let (root, children) = events.split_last().unwrap();
        assert_eq!(root.span, "analyze");
        assert_eq!(
            children[1].span, "analyze/pairs/sink:7",
            "labels stay in the log"
        );
        for e in children {
            assert!(e.start_us >= root.start_us);
            assert!(e.start_us + e.dur_us <= root.start_us + root.dur_us);
        }

        log.record(span("analyze/pairs/sink:9", 0, 5));
        let totals = log.totals();
        assert_eq!(
            totals.keys().collect::<Vec<_>>(),
            ["analyze", "analyze/pairs/sink"]
        );
        assert_eq!(totals["analyze"].count, 1);
        assert_eq!(totals["analyze/pairs/sink"].count, 3);
        assert!(totals["analyze/pairs/sink"].total >= Duration::from_millis(2));
        assert_eq!(
            log.total("analyze/pairs/sink"),
            totals["analyze/pairs/sink"].total
        );
        assert!(log.total("analyze") >= Duration::from_millis(2));
        assert_eq!(log.total("never"), Duration::ZERO);
    }

    #[test]
    fn span_stop_returns_elapsed_once() {
        let log = Tracer::new();
        let g = log.span("x");
        std::thread::sleep(Duration::from_millis(1));
        let elapsed = g.stop();
        let events = log.events();
        assert_eq!(events.len(), 1, "stop records; the drop after it does not");
        assert_eq!(Duration::from_micros(events[0].dur_us), elapsed);
        let totals = log.totals();
        assert_eq!(totals["x"].count, 1);
        assert_eq!(totals["x"].total, elapsed);
        assert_eq!(totals["x"].mean(), elapsed);
    }

    #[test]
    fn counters_are_shared_across_threads() {
        let metrics = Arc::new(Metrics::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&metrics);
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.implications.add(1);
                    }
                    m.bdd_peak_nodes.raise_to(37);
                });
            }
        });
        let c = metrics.counters();
        assert_eq!(c.implications, 4000);
        assert_eq!(c.bdd_peak_nodes, 37);
        assert_eq!(c.bdd_cache_hit_rate(), 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let ctx = ObsCtx::new();
        ctx.metrics.sat_conflicts.add(7);
        ctx.timers.record(span("analyze/sim", 0, 1234));
        let snap = ctx.snapshot();
        let text = serde_json::to_string(&snap).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, snap);
        assert_eq!(back.counters.sat_conflicts, 7);
    }

    fn sample_event(k: usize) -> PairEvent {
        PairEvent {
            src: k,
            dst: k + 1,
            step: "atpg".to_owned(),
            class: "single".to_owned(),
            engine: None,
            assignments: Vec::new(),
            micros: k as u64,
            sim_word: Some(k as u64),
            slice_nodes: None,
            slice_vars: None,
            resumed: false,
            static_pass: false,
            cached: false,
            kernel: None,
        }
    }

    #[test]
    fn null_sink_is_disabled_and_mem_sink_records() {
        assert!(!NullSink.enabled());
        let sink = MemSink::new();
        assert!(sink.enabled());
        let event = PairEvent {
            src: 1,
            dst: 2,
            step: "implication".to_owned(),
            class: "multi".to_owned(),
            engine: Some("implication".to_owned()),
            assignments: vec![AssignmentEvent {
                src_value: true,
                dst_value: false,
                outcome: "contradiction".to_owned(),
            }],
            micros: 42,
            sim_word: None,
            slice_nodes: Some(12),
            slice_vars: Some(4),
            resumed: false,
            static_pass: false,
            cached: false,
            kernel: None,
        };
        sink.record(&event);
        assert_eq!(sink.drain(), vec![event]);
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn file_sink_writes_parseable_ndjson() {
        let path = std::env::temp_dir().join(format!(
            "mcp_obs_journal_test_{}.ndjson",
            std::process::id()
        ));
        let events: Vec<PairEvent> = (0..3).map(sample_event).collect();
        {
            let sink = FileSink::create(&path).expect("create");
            for e in &events {
                sink.record(e);
            }
            sink.flush().expect("flush");
        }
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(text.lines().count(), 3);
        let back = read_ledger_file(&path).expect("parse journal").events;
        assert_eq!(back, events);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_sink_writes_full_ledgers() {
        let path =
            std::env::temp_dir().join(format!("mcp_obs_ledger_test_{}.ndjson", std::process::id()));
        let header = RunHeader {
            ledger: LEDGER_VERSION,
            circuit: "s27".to_owned(),
            netlist_hash: 11,
            config_fingerprint: 22,
            pair_digest: 33,
            pairs: 2,
        };
        let span = SpanEvent {
            span: "analyze/pairs".to_owned(),
            tid: 1,
            start_us: 5,
            dur_us: 40,
        };
        {
            let sink = FileSink::create(&path).expect("create");
            sink.record_header(&header);
            sink.record(&sample_event(0));
            sink.record(&sample_event(1));
            sink.record_span(&span);
            sink.flush().expect("flush");
        }
        let ledger = read_ledger_file(&path).expect("parse ledger");
        assert_eq!(ledger.header, Some(header));
        assert_eq!(ledger.spans, vec![span]);
        assert_eq!(ledger.events.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_tolerates_only_a_torn_final_line() {
        let good = format!(
            "{}\n{}\n",
            serde_json::to_string(&sample_event(0)).unwrap(),
            serde_json::to_string(&sample_event(1)).unwrap()
        );
        let torn = format!("{good}{{\"src\":9,\"dst\":10,\"st");
        let ledger = read_ledger(torn.as_bytes()).expect("torn tail is dropped");
        assert_eq!(ledger.events.len(), 2);
        // Garbage mid-file stays an error.
        let mid = format!("not json\n{good}");
        assert!(read_ledger(mid.as_bytes()).is_err());
    }

    #[test]
    fn journal_reader_rejects_garbage() {
        let bad = "{\"src\": 1}\nnot json\n";
        assert!(read_ledger(bad.as_bytes()).is_err());
    }

    #[test]
    fn resumed_flag_is_omitted_when_false_and_round_trips_when_true() {
        let mut event = sample_event(0);
        let text = serde_json::to_string(&event).unwrap();
        assert!(!text.contains("resumed"));
        assert!(!text.contains("static_pass"));
        assert!(!text.contains("cached"));
        event.resumed = true;
        event.static_pass = true;
        event.cached = true;
        let text = serde_json::to_string(&event).unwrap();
        assert!(text.contains("\"resumed\":true"));
        assert!(text.contains("\"static_pass\":true"));
        assert!(text.contains("\"cached\":true"));
        let back: PairEvent = serde_json::from_str(&text).unwrap();
        assert!(back.resumed);
        assert!(back.static_pass);
        assert!(back.cached);
    }

    #[test]
    fn pre_slice_journals_and_snapshots_still_parse() {
        // Records written before the slice fields existed must load with
        // the fields defaulted, not error.
        let old = "{\"src\":0,\"dst\":1,\"step\":\"implication\",\"class\":\"multi\",\
                   \"engine\":\"implication\",\"assignments\":[],\"micros\":3,\
                   \"sim_word\":null}\n";
        let ledger = read_ledger(old.as_bytes()).expect("old ledger parses");
        let events = &ledger.events;
        assert_eq!(events[0].slice_nodes, None);
        assert_eq!(events[0].slice_vars, None);
        assert!(!events[0].resumed);
        assert_eq!(ledger.header, None);
        assert!(ledger.spans.is_empty());

        let old_counters = "{\"implications\":1,\"contradictions\":0,\
            \"learned_implications\":0,\"atpg_decisions\":0,\"atpg_backtracks\":0,\
            \"atpg_aborts\":0,\"sat_decisions\":0,\"sat_propagations\":0,\
            \"sat_conflicts\":0,\"sat_learned\":0,\"sat_restarts\":0,\
            \"bdd_peak_nodes\":0,\"bdd_cache_lookups\":0,\"bdd_cache_hits\":0,\
            \"sim_words\":0,\"sim_pairs_dropped\":0,\"lint_rules_run\":0,\
            \"lint_violations\":0}";
        let c: Counters = serde_json::from_str(old_counters).expect("old counters parse");
        assert_eq!(c.slice_builds, 0);
        assert_eq!(c.slice_nodes_mean(), 0.0);
        assert_eq!(c.sim_passes, 0);
        assert_eq!(c.resume_pairs_loaded, 0);
        assert_eq!(c.dataflow_consts, 0);
        assert_eq!(c.dataflow_iters, 0);
        assert_eq!(c.static_resolved, 0);
    }

    #[test]
    fn sim_throughput_derives_from_the_sim_span() {
        let ctx = ObsCtx::new();
        assert_eq!(ctx.snapshot().sim_words_per_sec(), 0.0);
        ctx.metrics.sim_words.add(500);
        ctx.timers.record(span("analyze/sim", 0, 250_000));
        let wps = ctx.snapshot().sim_words_per_sec();
        assert!((wps - 2000.0).abs() < 1e-6, "got {wps}");
    }

    #[test]
    fn fnv1a_is_stable_and_input_sensitive() {
        // Reference value for the empty string from the FNV spec.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"s27"), fnv1a(b"s28"));
        assert_eq!(fnv1a(b"s27"), fnv1a(b"s27"));
    }

    #[test]
    fn shard_era_headers_still_parse() {
        // The retired `shard` subcommand wrote three more header keys.
        let old = "{\"ledger\":2,\"circuit\":\"s27\",\"netlist_hash\":11,\
                   \"config_fingerprint\":22,\"pair_digest\":33,\"pairs\":2,\
                   \"shard_index\":1,\"shard_count\":4,\"run_digest\":44}";
        let h: RunHeader = serde_json::from_str(old).expect("shard-era header parses");
        assert_eq!(
            h,
            RunHeader {
                ledger: 2,
                circuit: "s27".to_owned(),
                netlist_hash: 11,
                config_fingerprint: 22,
                pair_digest: 33,
                pairs: 2,
            }
        );
    }

    #[test]
    fn fail_after_admits_exactly_the_budget_under_contention() {
        // The hook's whole value is determinism: no matter how worker
        // threads interleave, exactly `limit` writes get through.
        for limit in [0u64, 1, 5, 64] {
            let fault = Arc::new(FailAfter::new(limit));
            let admitted = Arc::new(Metrics::new());
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let f = Arc::clone(&fault);
                    let a = Arc::clone(&admitted);
                    s.spawn(move || {
                        for _ in 0..64 {
                            if f.admit() {
                                a.implications.add(1);
                            }
                        }
                    });
                }
            });
            assert_eq!(admitted.counters().implications, limit);
            assert_eq!(fault.admitted(), limit);
            // Once exhausted, the budget stays exhausted.
            assert!(!fault.admit());
        }
    }

    #[test]
    fn fail_after_env_values_parse_or_disarm() {
        assert_eq!(FailAfter::from_value("7").map(|f| f.admitted()), Some(0));
        let f = FailAfter::from_value(" 2 ").expect("whitespace tolerated");
        assert!(f.admit());
        assert!(f.admit());
        assert!(!f.admit());
        // Garbage disarms the hook instead of killing runs at line 0.
        assert!(FailAfter::from_value("").is_none());
        assert!(FailAfter::from_value("nope").is_none());
        assert!(FailAfter::from_value("-1").is_none());
    }

    #[test]
    fn file_sink_with_unarmed_fault_writes_everything() {
        // A budget larger than the run never trips; the sink behaves
        // exactly like an unfaulted one (the tripping path necessarily
        // exits the process, so it is exercised by the integration
        // suite's child-process tests, not here).
        let path =
            std::env::temp_dir().join(format!("mcp_obs_fault_test_{}.ndjson", std::process::id()));
        {
            let file = std::fs::File::create(&path).expect("create");
            let sink = FileSink::with_fault(file, Some(FailAfter::new(100)));
            for k in 0..3 {
                sink.record(&sample_event(k));
            }
            sink.flush().expect("flush");
        }
        let events = read_ledger_file(&path).expect("parse").events;
        assert_eq!(events.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tracer_assigns_distinct_tids_per_thread() {
        let tracer = Tracer::new();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let t = &tracer;
                s.spawn(move || {
                    let g = t.span("analyze/pairs/group");
                    std::thread::sleep(Duration::from_millis(1));
                    drop(g);
                });
            }
        });
        let spans = tracer.drain();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].tid, spans[1].tid);
        assert!(spans.iter().all(|s| s.dur_us >= 1000));
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn chrome_trace_carries_spans_with_categories() {
        let spans = vec![
            SpanEvent {
                span: "analyze/sim".to_owned(),
                tid: 1,
                start_us: 0,
                dur_us: 100,
            },
            SpanEvent {
                span: "analyze/pairs/group:n5".to_owned(),
                tid: 2,
                start_us: 100,
                dur_us: 50,
            },
        ];
        let doc = chrome_trace(&spans);
        assert_eq!(doc.displayTimeUnit, "ms");
        assert_eq!(doc.traceEvents.len(), 2);
        assert!(doc.traceEvents.iter().all(|e| e.ph == "X" && e.pid == 1));
        assert_eq!(doc.traceEvents[0].cat, "analyze");
        assert_eq!(doc.traceEvents[1].ts, 100);
        assert_eq!(doc.traceEvents[1].tid, 2);
        let text = serde_json::to_string(&doc).expect("serialize");
        assert!(text.contains("\"traceEvents\""));
        let back: ChromeTrace = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, doc);
    }

    #[test]
    fn flat_totals_degrade_to_a_sequential_trace() {
        let mut spans = std::collections::BTreeMap::new();
        spans.insert(
            "analyze/pairs".to_owned(),
            SpanStat {
                total: Duration::from_micros(300),
                count: 3,
            },
        );
        spans.insert(
            "analyze/sim".to_owned(),
            SpanStat {
                total: Duration::from_micros(200),
                count: 1,
            },
        );
        let doc = chrome_trace_from_totals(&spans);
        assert_eq!(doc.traceEvents.len(), 2);
        assert_eq!(doc.traceEvents[0].ts, 0);
        assert_eq!(doc.traceEvents[1].ts, 300);
    }

    #[test]
    fn obs_ctx_keeps_its_span_log_whatever_the_sink() {
        for ctx in [
            ObsCtx::new(),
            ObsCtx::new().with_sink(Box::new(MemSink::new())),
        ] {
            ctx.timers.span("analyze/sim").stop();
            // Reading the events (as the ledger export does) leaves the
            // log intact for the totals.
            assert_eq!(ctx.timers.events().len(), 1);
            assert_eq!(ctx.snapshot().spans["analyze/sim"].count, 1);
        }
    }

    #[test]
    fn compare_flags_only_above_threshold_increases() {
        let old = "{\"counters\":{\"implications\":100,\"sat_conflicts\":10},\
                   \"spans\":{\"analyze\":{\"total\":{\"secs\":1,\"nanos\":0},\"count\":1}},\
                   \"time_total\":{\"secs\":9,\"nanos\":0}}";
        let new = "{\"counters\":{\"implications\":103,\"sat_conflicts\":10},\
                   \"spans\":{\"analyze\":{\"total\":{\"secs\":7,\"nanos\":0},\"count\":1}},\
                   \"time_total\":{\"secs\":2,\"nanos\":0}}";
        // 3% growth: below a 5% threshold, above a 1% threshold. Span and
        // time_total changes never count.
        let lax = compare_artifacts(old, new, CompareConfig { threshold_pct: 5.0 }).unwrap();
        assert_eq!(lax.regressions(), 0);
        assert_eq!(lax.diffs.len(), 1);
        let strict = compare_artifacts(old, new, CompareConfig { threshold_pct: 1.0 }).unwrap();
        assert_eq!(strict.regressions(), 1);
        assert!(strict.render().contains("REGRESSION"));
        // Identical artifacts: no diffs at all.
        let same = compare_artifacts(old, old, CompareConfig::default()).unwrap();
        assert!(same.diffs.is_empty());
        assert!(same.render().contains("no counter differences"));
    }

    #[test]
    fn compare_accepts_ndjson_ledgers() {
        let a = format!(
            "{}\n{}\n",
            serde_json::to_string(&sample_event(0)).unwrap(),
            serde_json::to_string(&sample_event(1)).unwrap()
        );
        let b = format!("{}\n", serde_json::to_string(&sample_event(0)).unwrap());
        let cmp = compare_artifacts(&a, &b, CompareConfig::default()).unwrap();
        // One fewer single-by-atpg verdict: a difference, not a regression.
        assert_eq!(cmp.regressions(), 0);
        assert_eq!(cmp.diffs.len(), 1);
        let cmp = compare_artifacts(&b, &a, CompareConfig::default()).unwrap();
        assert_eq!(cmp.regressions(), 1);
    }

    #[test]
    fn compare_forgives_a_torn_final_ledger_line() {
        let clean = format!(
            "{}\n{}\n",
            serde_json::to_string(&sample_event(0)).unwrap(),
            serde_json::to_string(&sample_event(1)).unwrap()
        );
        let torn = format!("{clean}{{\"src\":9,\"dst\":10,\"st");
        assert_eq!(
            flatten_artifact(&torn).expect("torn ledger"),
            flatten_artifact(&clean).expect("clean ledger")
        );
        // A text whose only line fails to parse is no ledger: a one-line
        // JSON document keeps its counters, and a lone torn line is an
        // error rather than an empty ledger.
        let doc = flatten_artifact("{\"counters\":{\"implications\":7}}").expect("JSON");
        assert_eq!(doc.get("counters/implications"), Some(&7));
        assert!(flatten_artifact("{\"src\":9,\"dst\":10,\"st").is_err());
        assert!(flatten_artifact("").expect("empty ledger").is_empty());
    }

    #[test]
    fn obs_ctx_is_sync_and_sendable() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<ObsCtx>();
        assert_sync::<Metrics>();
        assert_sync::<Tracer>();
    }
}
