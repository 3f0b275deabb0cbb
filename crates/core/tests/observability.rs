//! Integration checks for the observability surface of the pipeline:
//! `StepStats` totals cover the structural pair count, the embedded
//! `MetricsSnapshot` has non-zero counters for every step that resolved
//! pairs, the NDJSON journal carries one record per analyzed pair, the
//! report and the ledger carry the same spans, and two same-seed runs
//! produce identical counter snapshots.

use mcp_core::{analyze, analyze_with, Engine, McConfig, McReport};
use mcp_gen::{circuits, suite};
use mcp_obs::{read_ledger_file, FileSink, MemSink, ObsCtx};
use std::collections::BTreeMap;
use std::sync::Arc;

#[test]
fn fig1_step_totals_cover_every_structural_pair() {
    let nl = circuits::fig1();
    let report = analyze(&nl, &McConfig::default()).expect("analyze");
    let s = &report.stats;
    assert_eq!(s.candidates, 9, "Fig.1 has 9 connected FF pairs");
    assert_eq!(
        s.single_total() + s.multi_total() + s.unknown,
        s.candidates,
        "every candidate pair is attributed to exactly one step"
    );
    assert_eq!(report.pairs.len(), s.candidates);
}

#[test]
fn fig1_counters_are_nonzero_for_every_resolving_step() {
    let nl = circuits::fig1();
    let report = analyze(&nl, &McConfig::default()).expect("analyze");
    let s = &report.stats;
    let c = &report.metrics.counters;

    // The sim prefilter resolved pairs, so its counters must show work.
    assert!(s.single_by_sim > 0, "paper walkthrough: sim drops 4 pairs");
    assert!(c.sim_words > 0);
    assert_eq!(c.sim_pairs_dropped, s.single_by_sim as u64);

    // The implication step resolved pairs, so the engine must have
    // placed implications on the trail.
    assert!(s.multi_by_implication > 0);
    assert!(c.implications > 0);

    // Search effort is only counted when the search ran.
    if s.multi_by_atpg + s.single_by_atpg + s.unknown == 0 {
        assert_eq!(c.atpg_aborts, 0);
    }

    // The span log covered the phases, and the nested spans cannot
    // exceed the root (single-threaded run).
    let spans = &report.metrics.spans;
    for key in ["analyze", "analyze/sim", "analyze/prepare", "analyze/pairs"] {
        assert!(spans.contains_key(key), "missing span `{key}`");
    }
    assert!(spans["analyze"].total >= spans["analyze/pairs"].total);
}

/// The canonical report carries only what was decided: its JSON has no
/// metrics (so adding an effort counter leaves its bytes alone), and it
/// still loads back as a report. The full report keeps its metrics.
#[test]
fn canonical_json_has_no_metrics_and_loads_back() {
    let nl = circuits::fig1();
    let report = analyze(&nl, &McConfig::default()).expect("analyze");
    let json = serde_json::to_string(&report.canonical()).expect("serialize");
    for key in ["\"metrics\"", "\"counters\"", "\"spans\""] {
        assert!(!json.contains(key), "canonical JSON has {key}: {json}");
    }
    let back: McReport = serde_json::from_str(&json).expect("canonical report loads");
    assert!(back.metrics.is_empty());
    assert_eq!(back.pairs, report.canonical().pairs);
    assert_eq!(back.stats.single_by_sim, report.stats.single_by_sim);

    let full = serde_json::to_string(&report).expect("serialize");
    assert!(full.contains("\"metrics\""), "{full}");
}

#[test]
fn ndjson_journal_has_one_record_per_pair() {
    let nl = circuits::fig1();
    let dir = std::env::temp_dir().join("mcp-core-obs-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("fig1.ndjson");
    let sink = FileSink::create(&path).expect("create journal");
    let obs = ObsCtx::new().with_sink(Box::new(sink));
    let report = analyze_with(&nl, &McConfig::default(), &obs).expect("analyze");

    let events = read_ledger_file(&path).expect("journal parses").events;
    assert_eq!(events.len(), report.stats.candidates);

    // Every candidate pair appears exactly once.
    let mut seen: Vec<(usize, usize)> = events.iter().map(|e| (e.src, e.dst)).collect();
    seen.sort_unstable();
    let mut expected: Vec<(usize, usize)> = report.pairs.iter().map(|p| (p.src, p.dst)).collect();
    expected.sort_unstable();
    assert_eq!(seen, expected);

    for e in &events {
        assert!(
            ["structural", "random_sim", "implication", "atpg"].contains(&e.step.as_str()),
            "unexpected step `{}`",
            e.step
        );
        assert!(["multi", "single", "unknown"].contains(&e.class.as_str()));
    }
    // Pairs that reached the implication step carry per-assignment
    // outcomes.
    assert!(events.iter().any(|e| !e.assignments.is_empty()));
}

#[test]
fn same_seed_runs_produce_identical_counter_snapshots() {
    let nl = circuits::fig1();
    for threads in [1usize, 2] {
        let cfg = McConfig {
            threads,
            ..McConfig::default()
        };
        let a = analyze(&nl, &cfg).expect("analyze");
        let b = analyze(&nl, &cfg).expect("analyze");
        assert_eq!(
            a.metrics.counters, b.metrics.counters,
            "counters must be deterministic at threads={threads}"
        );
        assert_eq!(a.multi_cycle_pairs(), b.multi_cycle_pairs());
    }
}

/// The tentpole determinism guarantee: the serialized canonical report —
/// verdicts and per-step stats — is byte-identical whether the pair
/// loop ran on 1 worker or 8, **with cone slicing on or off**, for both
/// parallel engines. Only wall-clock, spans and engine effort (all
/// projected out by `canonical()`) may differ between runs.
#[test]
fn reports_are_byte_identical_across_thread_counts_and_slice_modes() {
    let nl = suite::quick_suite().remove(1); // m298: survivors for every step
    for engine in [Engine::Implication, Engine::Sat] {
        for static_learning in [false, true] {
            if static_learning && engine != Engine::Implication {
                continue; // learning feeds only the implication engine
            }
            let mk = |threads: usize, slice: bool| {
                let cfg = McConfig {
                    engine,
                    threads,
                    static_learning,
                    slice,
                    backtrack_limit: 1024,
                    ..McConfig::default()
                };
                let report = analyze(&nl, &cfg).expect("analyze");
                serde_json::to_string(&report.canonical()).expect("serialize")
            };
            let baseline = mk(1, true);
            for slice in [true, false] {
                for threads in [1usize, 2, 8] {
                    assert_eq!(
                        mk(threads, slice),
                        baseline,
                        "{engine:?} (learning={static_learning}) drifted at \
                         threads={threads} slice={slice}"
                    );
                }
            }
        }
    }
}

/// Within a fixed slice mode the *full* counter snapshot — engine effort
/// included, nothing projected out — must not depend on the thread
/// count. (Across slice modes effort legitimately differs; that is
/// exactly what `canonical()` projects away above.) Static learning
/// covers the per-group engine built on the whole-circuit learned set.
#[test]
fn full_counter_snapshots_are_thread_independent_within_a_slice_mode() {
    let nl = suite::quick_suite().remove(1); // m298
    for (engine, static_learning) in [
        (Engine::Implication, false),
        (Engine::Implication, true),
        (Engine::Sat, false),
    ] {
        for slice in [true, false] {
            let run = |threads: usize| {
                let cfg = McConfig {
                    engine,
                    threads,
                    slice,
                    static_learning,
                    backtrack_limit: 1024,
                    ..McConfig::default()
                };
                analyze(&nl, &cfg).expect("analyze").metrics.counters
            };
            let baseline = run(1);
            if slice {
                assert!(baseline.slice_builds > 0, "{engine:?}: slicing ran");
                assert!(baseline.slice_nodes_peak > 0);
            } else {
                assert_eq!(baseline.slice_builds, 0, "{engine:?}: slicing was off");
            }
            assert_eq!(
                baseline.learned_implications > 0,
                static_learning,
                "{engine:?} slice={slice}: learning ran iff asked"
            );
            for threads in [2usize, 8] {
                assert_eq!(
                    run(threads),
                    baseline,
                    "{engine:?} (learning={static_learning}) slice={slice} \
                     counters drifted at threads={threads}"
                );
            }
        }
    }
}

/// The prefilter's kernel is an implementation detail: the canonical
/// report is byte-identical at every supported lane width, at every
/// thread count. The kernel-effort counters (`sim_passes`,
/// `sim_fused_ops`, `jit_*`) are the only observable difference, and
/// `canonical()` projects them out.
#[test]
fn reports_are_byte_identical_across_lane_widths_and_threads() {
    let nl = suite::quick_suite().remove(1); // m298: sim drops + survivors
    let mk = |lanes: u32, threads: usize| {
        let mut cfg = McConfig {
            threads,
            ..McConfig::default()
        };
        cfg.sim.lanes = lanes;
        let report = analyze(&nl, &cfg).expect("analyze");
        let canon = serde_json::to_string(&report.canonical()).expect("serialize");
        (canon, report.metrics.counters)
    };
    let (baseline, _) = mk(64, 1);
    for lanes in [64u32, 128, 256, 512] {
        for threads in [1usize, 2, 8] {
            let (canon, counters) = mk(lanes, threads);
            assert_eq!(
                canon, baseline,
                "canonical report drifted at lanes={lanes} threads={threads}"
            );
            assert!(counters.sim_passes > 0, "the kernel counts its passes");
            assert!(counters.sim_fused_ops > 0, "the kernel counts its ops");
        }
    }
}

/// NDJSON verdict events carry the slice dimensions exactly when the
/// pair went through a sliced engine: populated for engine-classified
/// pairs with slicing on, absent for sim-dropped pairs and for every
/// event of a `--no-slice` run.
#[test]
fn journal_events_carry_slice_sizes_only_when_sliced() {
    let nl = circuits::fig1();
    let dir = std::env::temp_dir().join("mcp-core-obs-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    for slice in [true, false] {
        let path = dir.join(format!("fig1-slice-{slice}.ndjson"));
        let sink = FileSink::create(&path).expect("create journal");
        let obs = ObsCtx::new().with_sink(Box::new(sink));
        let cfg = McConfig {
            slice,
            ..McConfig::default()
        };
        analyze_with(&nl, &cfg, &obs).expect("analyze");
        let events = read_ledger_file(&path).expect("journal parses").events;
        assert!(!events.is_empty());
        for e in &events {
            if e.step == "random_sim" || !slice {
                assert_eq!(
                    e.slice_nodes, None,
                    "({}, {}) slice={slice}: unsliced event must omit slice_nodes",
                    e.src, e.dst
                );
                assert_eq!(e.slice_vars, None);
            } else {
                assert!(
                    e.slice_nodes.is_some_and(|n| n > 0),
                    "({}, {}) engine event missing slice_nodes",
                    e.src,
                    e.dst
                );
                assert!(e.slice_vars.is_some_and(|v| v > 0));
            }
        }
    }
}

/// An FF-free circuit exercises the empty-pair edge through the public
/// API: the pair loop must no-op (no spans, no engine counters) instead
/// of clamping to zero-size chunks.
#[test]
fn empty_survivor_set_leaves_no_pair_loop_trace() {
    use mcp_netlist::bench;
    let nl = bench::parse("comb", "INPUT(a)\nOUTPUT(b)\nb = NOT(a)").expect("parse");
    let obs = ObsCtx::new();
    let report = analyze_with(
        &nl,
        &McConfig {
            threads: 8,
            ..McConfig::default()
        },
        &obs,
    )
    .expect("analyze");
    assert!(report.pairs.is_empty());
    assert!(
        !report.metrics.spans.contains_key("analyze/pairs"),
        "no worker ran, so no pair-loop span may exist"
    );
    assert_eq!(report.metrics.counters.implications, 0);
    assert_eq!(report.metrics.counters.atpg_decisions, 0);
}

/// The report's span totals and the ledger's span lines come from one
/// log: every report key is a ledger span path (its `:label` suffix
/// folded away), each key's total is the ledger's summed `dur_us`, and
/// every `analyze/...` span lies inside the `analyze` span — lint
/// included.
#[test]
fn report_and_ledger_hold_the_same_spans() {
    let nl = suite::quick_suite().remove(1); // m298: every step runs
    let bdd = Engine::Bdd {
        node_limit: 1 << 22,
        reachability: false,
    };
    for (engine, threads) in [
        (Engine::Implication, 1usize),
        (Engine::Implication, 2),
        (Engine::Sat, 1),
        (bdd, 1),
    ] {
        let run = format!("{engine:?} threads={threads}");
        let sink = Arc::new(MemSink::new());
        let obs = ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
        let cfg = McConfig {
            engine,
            threads,
            ..McConfig::default()
        };
        let report = analyze_with(&nl, &cfg, &obs).expect("analyze");
        let spans = sink.drain_spans();

        let mut ledger: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &spans {
            let path = s.span.split_once(':').map_or(s.span.as_str(), |(p, _)| p);
            let (dur, count) = ledger.entry(path).or_default();
            *dur += s.dur_us;
            *count += 1;
        }
        for (path, stat) in &report.metrics.spans {
            let Some(&(dur_us, count)) = ledger.get(path.as_str()) else {
                panic!("{run}: report span `{path}` is not in the ledger");
            };
            assert_eq!(stat.count, count, "{run}: `{path}` entries");
            let total_us = stat.total.as_micros() as u64;
            assert!(
                total_us.abs_diff(dur_us) <= count,
                "{run}: `{path}` totals {total_us}us in the report, {dur_us}us in the ledger"
            );
        }
        for path in [
            "analyze",
            "analyze/lint",
            "analyze/sim",
            "analyze/prepare",
            "analyze/pairs",
        ] {
            assert!(
                report.metrics.spans.contains_key(path),
                "{run}: no `{path}`"
            );
        }
        // Every engine runs in the one group loop, BDD on one worker.
        let workers = ledger.get("analyze/pairs/worker").map_or(0, |&(_, n)| n);
        assert_eq!(workers, threads as u64, "{run}: one worker span per worker");

        let roots: Vec<_> = spans.iter().filter(|s| s.span == "analyze").collect();
        assert_eq!(roots.len(), 1, "{run}: one root span");
        let root = roots[0];
        for s in spans.iter().filter(|s| s.span.starts_with("analyze/")) {
            assert!(
                s.start_us >= root.start_us && s.start_us + s.dur_us <= root.start_us + root.dur_us,
                "{run}: `{}` [{}, +{}] outside `analyze` [{}, +{}]",
                s.span,
                s.start_us,
                s.dur_us,
                root.start_us,
                root.dur_us
            );
        }
        // Exporting to the ledger leaves the log whole.
        assert_eq!(
            obs.timers.total("analyze"),
            report.metrics.spans["analyze"].total
        );
    }
}
