//! End-to-end checks of sharded multi-process verification through the
//! real `mcpath` binary, plus an in-process merge-determinism matrix.
//!
//! The contract under test: splitting a run over N independent OS
//! processes (`mcpath shard`), killing any of them at an arbitrary
//! journal write (via the deterministic `MCPATH_FAIL_AFTER_EVENTS`
//! fault hook), resuming the victim from its own ledger, and merging
//! (`mcpath merge`) always reproduces the single-process
//! `--threads 1` canonical report byte for byte — with zero verdicts
//! lost and zero pairs re-verified.

use mcp_obs::{read_ledger_resilient_file, FAIL_AFTER_ENV, FAULT_EXIT_CODE};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn mcpath() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcpath"))
}

/// A per-test scratch directory, wiped at creation so reruns start clean.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcpath-shard-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn gen_bench(dir: &Path, circuit: &str) -> PathBuf {
    let out = mcpath()
        .args(["gen", circuit])
        .output()
        .expect("run mcpath gen");
    assert!(out.status.success(), "gen {circuit} failed");
    let path = dir.join(format!("{circuit}.bench"));
    std::fs::write(&path, &out.stdout).expect("write bench");
    path
}

fn run_ok(args: &[&str]) -> String {
    let out = mcpath().args(args).output().expect("run mcpath");
    assert!(
        out.status.success(),
        "mcpath {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn run_err(args: &[&str]) -> String {
    let out = mcpath().args(args).output().expect("run mcpath");
    assert!(!out.status.success(), "mcpath {args:?} unexpectedly passed");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Every circuit checked into `data/`: a 4-shard multi-process run
/// (all shards live concurrently) merges byte-identical to the
/// single-process `--threads 1` run.
#[test]
fn four_shard_processes_merge_byte_identical_on_every_data_circuit() {
    let dir = scratch("data");
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("data");
    let mut circuits: Vec<PathBuf> = std::fs::read_dir(&data)
        .expect("data dir")
        .filter_map(|e| {
            let p = e.expect("entry").path();
            p.extension().is_some_and(|x| x == "bench").then_some(p)
        })
        .collect();
    circuits.sort();
    assert!(!circuits.is_empty(), "data/ must hold at least one circuit");

    for bench in &circuits {
        let bench_s = bench.to_str().expect("utf8 path");
        let name = bench.file_stem().unwrap().to_string_lossy();
        let baseline = dir.join(format!("{name}-baseline.json"));
        run_ok(&[
            "analyze",
            bench_s,
            "--threads",
            "1",
            "--json",
            baseline.to_str().unwrap(),
            "--canonical",
            "--quiet",
        ]);
        let baseline_bytes = std::fs::read(&baseline).expect("baseline json");

        // Four concurrent shard processes, one ledger each.
        let mut children = Vec::new();
        let mut ledgers: Vec<String> = Vec::new();
        for index in 0..4 {
            let ledger = dir.join(format!("{name}-shard-{index}.ndjson"));
            let spec = format!("{index}/4");
            let child = mcpath()
                .args([
                    "shard",
                    bench_s,
                    "--shard",
                    &spec,
                    "--trace-out",
                    ledger.to_str().unwrap(),
                    "--quiet",
                ])
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn shard");
            children.push((index, child));
            ledgers.push(ledger.to_str().unwrap().to_owned());
        }
        for (index, mut child) in children {
            let status = child.wait().expect("wait for shard");
            assert!(status.success(), "{name} shard {index}/4 failed: {status}");
        }

        let merged = dir.join(format!("{name}-merged.json"));
        let mut args = vec!["merge", bench_s];
        args.extend(ledgers.iter().map(String::as_str));
        args.extend(["--json", merged.to_str().unwrap(), "--canonical", "--quiet"]);
        let stdout = run_ok(&args);
        assert!(stdout.contains("merged: 4 shard ledgers"), "{stdout}");
        assert_eq!(
            baseline_bytes,
            std::fs::read(&merged).expect("merged json"),
            "{name}: 4-shard merge must be byte-identical to --threads 1"
        );

        // A subset of the shard ledgers is refused, not silently merged.
        let err = run_err(&["merge", bench_s, &ledgers[0], &ledgers[2]]);
        assert!(err.contains("missing shard"), "{name}: {err}");
    }
}

/// The fault-injection tier: a shard killed by the deterministic
/// `MCPATH_FAIL_AFTER_EVENTS` hook dies with the dedicated exit code
/// after exactly the admitted number of durable journal lines; `merge`
/// refuses the incomplete shard; resuming it re-verifies none of the
/// restored pairs and loses none; and the post-resume merge is
/// byte-identical to the uninterrupted single-process run.
#[test]
fn fault_injected_kill_is_deterministic_and_resume_loses_nothing() {
    let dir = scratch("fault");
    let bench = gen_bench(&dir, "m820");
    let bench_s = bench.to_str().expect("utf8 path");

    // Single-process canonical baseline.
    let baseline = dir.join("baseline.json");
    run_ok(&[
        "analyze",
        bench_s,
        "--threads",
        "1",
        "--json",
        baseline.to_str().unwrap(),
        "--canonical",
        "--quiet",
    ]);

    // Shard 1/2 runs to completion untouched.
    let shard1 = dir.join("shard-1.ndjson");
    run_ok(&[
        "shard",
        bench_s,
        "--shard",
        "1/2",
        "--trace-out",
        shard1.to_str().unwrap(),
        "--quiet",
    ]);

    // A clean run of shard 0/2 tells us where its engine verdicts sit in
    // the journal, so the kill point can land deterministically halfway
    // through them.
    let full0 = dir.join("shard-0-full.ndjson");
    run_ok(&[
        "shard",
        bench_s,
        "--shard",
        "0/2",
        "--trace-out",
        full0.to_str().unwrap(),
        "--quiet",
    ]);
    let full_text = std::fs::read_to_string(&full0).expect("read full shard ledger");
    let engine_lines: Vec<usize> = full_text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("\"engine\":\"") || l.contains("\"engine\": \""))
        .map(|(k, _)| k)
        .collect();
    assert!(
        engine_lines.len() >= 2,
        "shard 0 must own at least two engine-verified pairs"
    );
    // Budget = every line up to and including the middle engine verdict.
    let budget = engine_lines[engine_lines.len() / 2] + 1;

    // Arm the hook: the process must die with the dedicated exit code
    // after exactly `budget` durable lines.
    let killed = dir.join("shard-0-killed.ndjson");
    let out = mcpath()
        .args([
            "shard",
            bench_s,
            "--shard",
            "0/2",
            "--trace-out",
            killed.to_str().unwrap(),
            "--quiet",
        ])
        .env(FAIL_AFTER_ENV, budget.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .expect("run armed shard");
    assert_eq!(
        out.status.code(),
        Some(FAULT_EXIT_CODE),
        "the fault hook must abort with its dedicated exit code"
    );
    let killed_text = std::fs::read_to_string(&killed).expect("read killed ledger");
    assert_eq!(
        killed_text.lines().count(),
        budget,
        "exactly the admitted write budget must be durable"
    );
    // Determinism: the surviving events are the clean run's prefix —
    // same pairs, same verdicts, same order (wall-clock micros aside).
    let identity = |l: &mcp_obs::Ledger| -> Vec<(usize, usize, String, Option<String>)> {
        l.events
            .iter()
            .map(|e| (e.src, e.dst, e.class.clone(), e.engine.clone()))
            .collect()
    };
    let clean = read_ledger_resilient_file(&full0).expect("clean ledger readable");
    let survived = read_ledger_resilient_file(&killed).expect("killed ledger readable");
    assert_eq!(survived.header, clean.header, "same run identity");
    let (survived_ids, clean_ids) = (identity(&survived), identity(&clean));
    assert_eq!(
        survived_ids[..],
        clean_ids[..survived_ids.len()],
        "the killed journal must be an event-prefix of the clean journal"
    );

    // Merging the incomplete shard is refused with a typed message.
    let err = run_err(&[
        "merge",
        bench_s,
        killed.to_str().unwrap(),
        shard1.to_str().unwrap(),
    ]);
    assert!(err.contains("shard 0 is incomplete"), "{err}");

    // Resume the victim. Zero lost: every durable verdict replays.
    // Zero re-verified: no fresh engine event touches a restored pair.
    let partial = read_ledger_resilient_file(&killed).expect("killed ledger readable");
    let restorable: BTreeSet<(usize, usize)> = partial
        .events
        .iter()
        .filter(|e| e.engine.is_some())
        .map(|e| (e.src, e.dst))
        .collect();
    assert!(!restorable.is_empty(), "kill landed after engine verdicts");
    let resumed = dir.join("shard-0-resumed.ndjson");
    let stdout = run_ok(&[
        "shard",
        bench_s,
        "--shard",
        "0/2",
        "--resume",
        killed.to_str().unwrap(),
        "--trace-out",
        resumed.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        stdout.contains(&format!("resumed: {} verdicts", restorable.len())),
        "stdout must report the restored count:\n{stdout}"
    );
    let replay = read_ledger_resilient_file(&resumed).expect("resumed ledger readable");
    let replayed: BTreeSet<(usize, usize)> = replay
        .events
        .iter()
        .filter(|e| e.resumed)
        .map(|e| (e.src, e.dst))
        .collect();
    assert_eq!(replayed, restorable, "restored set must replay verbatim");
    for e in replay.events.iter().filter(|e| !e.resumed) {
        if e.engine.is_some() {
            assert!(
                !restorable.contains(&(e.src, e.dst)),
                "pair ({}, {}) was restored yet ran an engine again",
                e.src,
                e.dst
            );
        }
    }
    assert!(
        replay
            .events
            .iter()
            .any(|e| !e.resumed && e.engine.is_some()),
        "a mid-run kill must leave fresh work for the resume to finish"
    );

    // The post-resume merge reproduces the uninterrupted baseline.
    let merged = dir.join("merged.json");
    run_ok(&[
        "merge",
        bench_s,
        resumed.to_str().unwrap(),
        shard1.to_str().unwrap(),
        "--json",
        merged.to_str().unwrap(),
        "--canonical",
        "--quiet",
    ]);
    assert_eq!(
        std::fs::read(&baseline).expect("baseline json"),
        std::fs::read(&merged).expect("merged json"),
        "post-resume merge must be byte-identical to the baseline"
    );
}

/// The in-process determinism matrix: shard counts {1, 2, 4, 7} × a
/// seeded random kill-and-resume of one shard, at 2 threads, all merge
/// to the `--threads 1` canonical report.
#[test]
fn merge_matrix_with_random_kills_matches_threads_1() {
    use mcp_core::{analyze_from, analyze_with, McConfig, ShardSpec, VerdictSource};
    use mcp_obs::{Ledger, MemSink, ObsCtx};
    use std::sync::Arc;

    let nl = mcp_gen::suite::quick_suite().remove(2);
    let base = McConfig {
        threads: 1,
        ..McConfig::default()
    };
    let baseline = serde_json::to_string(
        &analyze_with(&nl, &base, &ObsCtx::new())
            .expect("baseline analyze")
            .canonical(),
    )
    .expect("serialize baseline");

    let capture = |cfg: &McConfig| -> Ledger {
        let sink = Arc::new(MemSink::new());
        let obs = ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
        analyze_with(&nl, cfg, &obs).expect("shard analyze");
        Ledger {
            header: sink.take_header(),
            spans: sink.drain_spans(),
            events: sink.drain(),
        }
    };

    // Seeded xorshift so the kill points are arbitrary but reproducible.
    let mut rng_state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next_rand = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };

    for count in [1u64, 2, 4, 7] {
        let cfg = McConfig {
            threads: 2,
            ..McConfig::default()
        };
        let mut ledgers: Vec<Ledger> = (0..count)
            .map(|index| {
                let shard_cfg = McConfig {
                    shard: Some(ShardSpec { index, count }),
                    ..cfg.clone()
                };
                capture(&shard_cfg)
            })
            .collect();

        // Kill one shard at a random durable event, then resume it.
        let victim = (next_rand() % count) as usize;
        let events = ledgers[victim].events.len();
        if events > 0 {
            let keep = (next_rand() as usize) % events;
            let mut truncated = ledgers[victim].clone();
            truncated.events.truncate(keep);
            truncated.spans.clear(); // spans are end-of-run only
            let shard_cfg = McConfig {
                shard: Some(ShardSpec {
                    index: victim as u64,
                    count,
                }),
                ..cfg.clone()
            };
            let sink = Arc::new(MemSink::new());
            let obs = ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
            analyze_from(&nl, &shard_cfg, &obs, VerdictSource::Ledger(&truncated))
                .expect("resume killed shard");
            ledgers[victim] = Ledger {
                header: sink.take_header(),
                spans: sink.drain_spans(),
                events: sink.drain(),
            };
        }

        let merged = analyze_from(&nl, &base, &ObsCtx::new(), VerdictSource::Shards(&ledgers))
            .expect("merge")
            .report;
        assert_eq!(
            serde_json::to_string(&merged.canonical()).expect("serialize"),
            baseline,
            "{count} shards (victim {victim}) must merge \
             byte-identical to --threads 1"
        );
    }
}
