//! End-to-end checks of the run-ledger contract through the real
//! `mcpath` binary: a SIGKILL mid-analysis, or a deterministic crash
//! from the `MCPATH_FAIL_AFTER_EVENTS` fault hook, must lose no
//! completed verdict; `--resume` must reproduce the uninterrupted run's
//! canonical report byte for byte without re-running any restored pair,
//! including from ledgers written by the retired `shard` subcommand; and
//! the `trace` exporter must emit valid Chrome trace-event JSON with one
//! track per worker thread.

use mcp_obs::{read_ledger_file, ChromeTrace, Ledger, FAIL_AFTER_ENV, FAULT_EXIT_CODE};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn mcpath() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcpath"))
}

/// A per-test scratch directory under the target-adjacent temp root,
/// wiped at creation so reruns start clean.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcpath-resume-{test}-{}", std::process::id()));
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
    run_ok_in(Path::new("."), args)
}

/// [`run_ok`] from working directory `dir`.
fn run_ok_in(dir: &Path, args: &[&str]) -> String {
    let out = mcpath()
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run mcpath");
    assert!(
        out.status.success(),
        "mcpath {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The pairs a ledger restores on resume: its engine-resolved events
/// (sim drops are recomputed).
fn engine_pairs(ledger: &Ledger) -> BTreeSet<(usize, usize)> {
    ledger
        .events
        .iter()
        .filter(|e| e.engine.is_some())
        .map(|e| (e.src, e.dst))
        .collect()
}

/// Checks a resumed run's ledger against the pairs it restored: the
/// `resumed`-flagged records are exactly `restored`, no fresh engine
/// verdict touches a restored pair, and the fresh engine verdicts are
/// returned.
fn assert_replayed_verbatim(
    resumed: &Ledger,
    restored: &BTreeSet<(usize, usize)>,
) -> BTreeSet<(usize, usize)> {
    let replayed: BTreeSet<(usize, usize)> = resumed
        .events
        .iter()
        .filter(|e| e.resumed)
        .map(|e| (e.src, e.dst))
        .collect();
    assert_eq!(&replayed, restored, "restored set must replay verbatim");
    let fresh: BTreeSet<(usize, usize)> = resumed
        .events
        .iter()
        .filter(|e| !e.resumed && e.engine.is_some())
        .map(|e| (e.src, e.dst))
        .collect();
    for pair in &fresh {
        assert!(
            !restored.contains(pair),
            "pair {pair:?} was restored yet ran an engine again"
        );
    }
    fresh
}

#[test]
fn sigkill_mid_run_loses_no_verdicts_and_resume_is_byte_identical() {
    let dir = scratch("kill");
    let bench = gen_bench(&dir, "m38584");
    let bench = bench.to_str().expect("utf8 path");
    let ledger = dir.join("run.ndjson");
    let ledger_s = ledger.to_str().expect("utf8 path");

    // Uninterrupted baseline, canonical form.
    let baseline_json = dir.join("baseline.json");
    run_ok(&[
        "analyze",
        bench,
        "--json",
        baseline_json.to_str().unwrap(),
        "--canonical",
        "--quiet",
    ]);

    // Launch the same analysis with a ledger, and SIGKILL it once the
    // pair loop is demonstrably in flight (several thousand records past
    // the header and the bulk sim-drop burst).
    let mut child = mcpath()
        .args(["analyze", bench, "--trace-out", ledger_s, "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn analyze");
    let deadline = Instant::now() + Duration::from_secs(60);
    let killed_mid_run = loop {
        if child.try_wait().expect("try_wait").is_some() {
            break false; // finished before we could kill it — still resumable
        }
        let lines = std::fs::read_to_string(&ledger)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if lines >= 5000 {
            child.kill().expect("SIGKILL the run"); // Child::kill is SIGKILL on unix
            child.wait().expect("reap");
            break true;
        }
        assert!(
            Instant::now() < deadline,
            "analyze never reached the pair loop"
        );
        std::thread::sleep(Duration::from_millis(2));
    };

    // What survived the kill: the restorable verdicts are exactly the
    // engine-resolved events (sim drops are recomputed on resume).
    let partial = read_ledger_file(&ledger).expect("partial ledger readable");
    assert!(partial.header.is_some(), "header must be written up front");
    let restorable = engine_pairs(&partial);
    assert!(
        !restorable.is_empty(),
        "kill landed before any engine verdict was flushed"
    );

    // Resume into a fresh ledger and compare canonical bytes.
    let resumed_json = dir.join("resumed.json");
    let ledger2 = dir.join("resumed.ndjson");
    let stdout = run_ok(&[
        "analyze",
        bench,
        "--resume",
        ledger_s,
        "--trace-out",
        ledger2.to_str().unwrap(),
        "--json",
        resumed_json.to_str().unwrap(),
        "--canonical",
        "--quiet",
    ]);
    assert!(
        stdout.contains(&format!("resumed: {} verdicts", restorable.len())),
        "stdout must report the restored count:\n{stdout}"
    );

    let baseline = std::fs::read(&baseline_json).expect("baseline json");
    let resumed = std::fs::read(&resumed_json).expect("resumed json");
    assert!(
        baseline == resumed,
        "resumed canonical report must be byte-identical to the baseline"
    );

    // Zero re-verified pairs: in the resumed run's ledger, the restored
    // set is exactly the `resumed`-flagged records, and every freshly
    // computed engine verdict lies outside it.
    let replay = read_ledger_file(&ledger2).expect("resumed ledger readable");
    let fresh = assert_replayed_verbatim(&replay, &restorable);
    if killed_mid_run {
        assert!(
            !fresh.is_empty(),
            "a mid-run kill must leave fresh work for the resume to finish"
        );
    }
}

/// The deterministic crash point: armed with `MCPATH_FAIL_AFTER_EVENTS`,
/// `analyze` dies with the dedicated exit code after exactly the
/// admitted number of durable journal lines, which are a prefix of the
/// clean run's journal. `--resume` then restores exactly the durable
/// engine verdicts, re-verifies none of them, and reproduces the
/// uninterrupted canonical report byte for byte.
#[test]
fn fault_injected_kill_is_deterministic_and_resume_loses_nothing() {
    let dir = scratch("fault");
    let bench = gen_bench(&dir, "m38584");
    let bench = bench.to_str().expect("utf8 path");

    // Uninterrupted baseline. Its journal tells us where the engine
    // verdicts sit, so the kill point can land halfway through them.
    let baseline = dir.join("baseline.json");
    let clean = dir.join("clean.ndjson");
    run_ok(&[
        "analyze",
        bench,
        "--trace-out",
        clean.to_str().unwrap(),
        "--json",
        baseline.to_str().unwrap(),
        "--canonical",
        "--quiet",
    ]);
    let clean_text = std::fs::read_to_string(&clean).expect("read clean ledger");
    let engine_lines: Vec<usize> = clean_text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("\"engine\":\""))
        .map(|(k, _)| k)
        .collect();
    assert!(
        engine_lines.len() >= 2,
        "the run must verify at least two pairs with an engine"
    );
    // Budget = every line up to and including the middle engine verdict.
    let budget = engine_lines[engine_lines.len() / 2] + 1;

    // Arm the hook: the process must die with the dedicated exit code
    // after exactly `budget` durable lines.
    let killed = dir.join("killed.ndjson");
    let out = mcpath()
        .args([
            "analyze",
            bench,
            "--trace-out",
            killed.to_str().unwrap(),
            "--quiet",
        ])
        .env(FAIL_AFTER_ENV, budget.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .expect("run armed analyze");
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
    let identity = |l: &Ledger| -> Vec<(usize, usize, String, Option<String>)> {
        l.events
            .iter()
            .map(|e| (e.src, e.dst, e.class.clone(), e.engine.clone()))
            .collect()
    };
    let clean = read_ledger_file(&clean).expect("clean ledger readable");
    let survived = read_ledger_file(&killed).expect("killed ledger readable");
    assert_eq!(survived.header, clean.header, "same run identity");
    let (survived_ids, clean_ids) = (identity(&survived), identity(&clean));
    assert_eq!(
        survived_ids[..],
        clean_ids[..survived_ids.len()],
        "the killed journal must be an event-prefix of the clean journal"
    );

    // Resume. Zero lost: every durable verdict replays. Zero
    // re-verified: no fresh engine event touches a restored pair.
    let restorable = engine_pairs(&survived);
    assert_eq!(
        restorable.len(),
        engine_lines.len() / 2 + 1,
        "the kill landed on the middle engine verdict"
    );
    let resumed_json = dir.join("resumed.json");
    let resumed = dir.join("resumed.ndjson");
    let stdout = run_ok(&[
        "analyze",
        bench,
        "--resume",
        killed.to_str().unwrap(),
        "--trace-out",
        resumed.to_str().unwrap(),
        "--json",
        resumed_json.to_str().unwrap(),
        "--canonical",
        "--quiet",
    ]);
    assert!(
        stdout.contains(&format!("resumed: {} verdicts", restorable.len())),
        "stdout must report the restored count:\n{stdout}"
    );
    let replay = read_ledger_file(&resumed).expect("resumed ledger readable");
    let fresh = assert_replayed_verbatim(&replay, &restorable);
    assert!(
        !fresh.is_empty(),
        "a mid-run kill must leave fresh work for the resume to finish"
    );
    assert!(
        std::fs::read(&baseline).expect("baseline json")
            == std::fs::read(&resumed_json).expect("resumed json"),
        "resumed canonical report must be byte-identical to the baseline"
    );
}

/// Seeded random kill points: a `--threads 2` ledger cut at arbitrary
/// durable event counts resumes, at 1 and at 8 threads, to the
/// `--threads 1` canonical report.
#[test]
fn random_kills_resume_to_the_threads_1_report() {
    use mcp_core::{analyze_from, analyze_with, McConfig, VerdictSource};
    use mcp_obs::{MemSink, ObsCtx};
    use std::sync::Arc;

    let nl = mcp_gen::suite::quick_suite().remove(2);
    let threads = |threads| McConfig {
        threads,
        ..McConfig::default()
    };
    let canonical = |cfg: &McConfig, ledger: Option<&Ledger>| {
        let source = ledger.map_or(VerdictSource::Fresh, VerdictSource::Ledger);
        let analysis = analyze_from(&nl, cfg, &ObsCtx::new(), source).expect("analyze");
        serde_json::to_string(&analysis.report.canonical()).expect("serialize")
    };
    let baseline = canonical(&threads(1), None);

    let sink = Arc::new(MemSink::new());
    let obs = ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
    analyze_with(&nl, &threads(2), &obs).expect("ledger run");
    // Spans are written at end of run only, so a killed ledger has none.
    let full = Ledger {
        header: sink.take_header(),
        spans: Vec::new(),
        events: sink.drain(),
    };
    assert!(
        !engine_pairs(&full).is_empty(),
        "the run must verify pairs with an engine"
    );

    // Seeded xorshift so the kill points are arbitrary but reproducible.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..6 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let keep = (state % (full.events.len() as u64 + 1)) as usize;
        let mut killed = full.clone();
        killed.events.truncate(keep);
        for t in [1, 8] {
            assert_eq!(
                canonical(&threads(t), Some(&killed)),
                baseline,
                "killed after {keep} events, resumed at --threads {t}"
            );
        }
    }
}

/// A ledger written by the retired `shard` subcommand (shard 0 of 2 of
/// m298, checked in and never regenerated) still loads in `stats`,
/// `trace` and `stats --compare`, and resumes as a partial ledger: its
/// 7 engine verdicts are restored, the other 6 survivors are verified,
/// and the report is the cold run's.
#[test]
fn shard_era_ledger_loads_and_resumes_as_a_partial_ledger() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/obs/tests/fixtures/pr15_shard_ledger.ndjson");
    let f = fixture.to_str().expect("utf8 path");

    let out = run_ok(&["stats", f]);
    assert!(out.contains("trace journal: 33 pair events"), "{out}");
    let trace: ChromeTrace = serde_json::from_str(&run_ok(&["trace", f])).expect("trace JSON");
    assert_eq!(trace.traceEvents.len(), 7, "one event per journaled span");
    let out = run_ok(&["stats", "--compare", f, f]);
    assert!(out.contains("no counter differences"), "{out}");

    // The netlist hash covers the circuit name, which the CLI takes from
    // the path as typed, so run from the directory the fixture was
    // written in, with the same relative path.
    let dir = scratch("shard-era");
    gen_bench(&dir, "m298");
    let cold = run_ok_in(
        &dir,
        &[
            "analyze",
            "m298.bench",
            "--json",
            "cold.json",
            "--canonical",
            "--quiet",
        ],
    );
    assert!(cold.contains("39 candidate pairs"), "{cold}");
    let stdout = run_ok_in(
        &dir,
        &[
            "analyze",
            "m298.bench",
            "--resume",
            f,
            "--trace-out",
            "resumed.ndjson",
            "--json",
            "resumed.json",
            "--canonical",
            "--quiet",
        ],
    );
    assert!(stdout.contains("resumed: 7 verdicts"), "{stdout}");
    let restored = engine_pairs(&read_ledger_file(&fixture).expect("fixture"));
    assert_eq!(restored.len(), 7);
    let replay = read_ledger_file(dir.join("resumed.ndjson")).expect("resumed ledger readable");
    let fresh = assert_replayed_verbatim(&replay, &restored);
    assert_eq!(fresh.len(), 6, "the other shard's survivors are verified");
    assert!(
        std::fs::read(dir.join("cold.json")).expect("cold json")
            == std::fs::read(dir.join("resumed.json")).expect("resumed json"),
        "a shard-era resume must land on the cold canonical bytes"
    );
}

#[test]
fn stats_accepts_a_pr1_era_journal() {
    // The checked-in fixture predates the run header, spans, slice
    // fields and the `resumed` flag; `stats` must still render it.
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/obs/tests/fixtures/pr1_journal.ndjson");
    let out = run_ok(&["stats", fixture.to_str().unwrap()]);
    assert!(
        out.contains("trace journal: 5 pair events"),
        "stats must render the old journal:\n{out}"
    );
    assert!(out.contains("implication"));
    assert!(out.contains("contradiction=2"));
}

#[test]
fn trace_export_is_valid_chrome_json_with_a_track_per_worker() {
    let dir = scratch("trace");
    let bench = gen_bench(&dir, "m820");
    let ledger = dir.join("run.ndjson");
    run_ok(&[
        "analyze",
        bench.to_str().unwrap(),
        "--threads",
        "2",
        "--trace-out",
        ledger.to_str().unwrap(),
        "--quiet",
    ]);

    let stdout = run_ok(&["trace", ledger.to_str().unwrap()]);
    let trace: ChromeTrace = serde_json::from_str(&stdout).expect("valid trace-event JSON");
    assert_eq!(trace.displayTimeUnit, "ms");
    assert!(!trace.traceEvents.is_empty());
    for e in &trace.traceEvents {
        assert_eq!(e.ph, "X", "complete events only");
        assert_eq!(e.pid, 1);
        assert!(!e.name.is_empty() && !e.cat.is_empty());
        assert_eq!(e.cat, e.name.split('/').next().unwrap());
    }

    // At `--threads 2` the pair loop spawns two workers, each stamping
    // its spans with its own thread-local track id.
    let worker_tids: BTreeSet<u64> = trace
        .traceEvents
        .iter()
        .filter(|e| e.name.ends_with("/worker"))
        .map(|e| e.tid)
        .collect();
    assert!(
        worker_tids.len() >= 2,
        "expected at least two worker tracks, got {worker_tids:?}"
    );
}
