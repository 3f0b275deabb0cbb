use super::render::render_snapshot;
use super::*;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

#[test]
fn parses_analyze_with_options() {
    let cmd = parse_args(argv(
        "analyze foo.bench --engine sat --cycles 3 --backtracks 99 --threads 4 --quiet",
    ))
    .expect("parse");
    assert_eq!(cmd.action, Action::Analyze("foo.bench".into()));
    assert_eq!(cmd.cfg.engine, Engine::Sat);
    assert_eq!(cmd.cfg.cycles, 3);
    assert_eq!(cmd.cfg.backtrack_limit, 99);
    assert_eq!(cmd.cfg.threads, 4);
    assert!(cmd.quiet);
    // Without flags the config is the library's default.
    let cmd = parse_args(argv("hazard foo.bench")).expect("parse");
    assert_eq!(cmd.cfg, McConfig::default());
}

#[test]
fn scheduler_flag_is_gone() {
    // The pair loop has one policy; no flag can choose another.
    for flag in ["scheduler static", "scheduler steal"] {
        let err = parse_args(argv(&format!("analyze f.bench --{flag}"))).unwrap_err();
        assert!(err.to_string().contains("unknown option"), "{flag}: {err}");
    }
}

#[test]
fn shards_driver_flag_is_gone() {
    // One process runs the pair loop; `analyze` no longer forks shard
    // processes that each replay the prefilter.
    let err = parse_args(argv("analyze f.bench --shards 4")).unwrap_err();
    assert!(err.to_string().contains("unknown option"), "{err}");
}

#[test]
fn shard_and_merge_are_gone() {
    // The process-level shard path is retired; crash safety is
    // `analyze --resume`.
    for args in ["shard f.bench", "merge f.bench a.ndjson"] {
        let err = parse_args(argv(args)).unwrap_err();
        assert!(
            err.to_string().contains("unknown subcommand"),
            "{args}: {err}"
        );
    }
    let err = parse_args(argv("analyze f.bench --shard 0/2")).unwrap_err();
    assert!(err.to_string().contains("unknown option"), "{err}");
}

/// Tries every flag with every subcommand: the combinations the table
/// lists parse, and every other one is refused with a message naming
/// both the flag and the subcommand.
#[test]
fn every_flag_parses_only_with_the_subcommands_that_read_it() {
    const ANALYSIS: [&str; 6] = ["analyze", "hazard", "deps", "kcycle", "sdc", "serve"];
    // Each flag with a sample value, and the subcommands that read it.
    let table: [(&str, &[&str]); 27] = [
        ("--engine sat", &ANALYSIS),
        ("--cycles 3", &ANALYSIS),
        ("--backtracks 9", &ANALYSIS),
        ("--learn", &ANALYSIS),
        ("--threads 2", &ANALYSIS),
        ("--no-sim", &ANALYSIS),
        ("--no-self-pairs", &ANALYSIS),
        ("--no-slice", &ANALYSIS),
        (
            "--cache-dir /tmp/c",
            &["analyze", "serve", "cache stats", "cache gc"],
        ),
        ("--eco old.bench --cache-dir /tmp/c", &["analyze"]),
        ("--resume l.ndjson", &["analyze"]),
        ("--json j.json", &["analyze", "deps"]),
        // `analyze` reads `--canonical` only together with `--json`.
        ("--canonical --json j.json", &["analyze"]),
        ("--canonical", &[]),
        ("--metrics", &["analyze"]),
        ("--trace-out t.ndjson", &["analyze"]),
        ("--progress", &["analyze"]),
        ("--quiet", &["analyze", "hazard", "deps"]),
        ("--max-k 3", &["kcycle"]),
        ("--robust sens", &["sdc"]),
        ("--deny comb-cycle", &["lint"]),
        ("--allow comb-cycle", &["lint"]),
        ("--max-diags 5", &["lint"]),
        ("--format json", &["lint"]),
        ("--max-bytes 9", &["cache gc"]),
        ("--compare a.json b.json", &["stats --compare"]),
        ("--threshold 5", &["stats --compare"]),
    ];
    // Each subcommand with its positional arguments and required flags.
    let subcommands = [
        ("analyze", "analyze f.bench"),
        ("hazard", "hazard f.bench"),
        ("deps", "deps f.bench"),
        ("kcycle", "kcycle f.bench --max-k 3"),
        ("sdc", "sdc f.bench"),
        ("serve", "serve s.sock --cache-dir /tmp/c"),
        ("lint", "lint f.bench"),
        ("cache stats", "cache stats --cache-dir /tmp/c"),
        ("cache gc", "cache gc --cache-dir /tmp/c --max-bytes 0"),
        ("stats", "stats f.bench"),
        ("stats --compare", "stats --compare a.json b.json"),
        ("trace", "trace t.ndjson"),
        ("gen", "gen m27"),
        ("sweep", "sweep f.bench"),
        ("dot", "dot f.bench"),
        ("glitch", "glitch f.bench a b out.vcd"),
        ("help", "help"),
    ];
    for (sub, base) in subcommands {
        assert!(parse_args(argv(base)).is_ok(), "{base} alone must parse");
        for (flag, readers) in table {
            let args = format!("{base} {flag}");
            match parse_args(argv(&args)) {
                Ok(_) => assert!(readers.contains(&sub), "{args}: must be refused"),
                Err(err) => {
                    assert!(!readers.contains(&sub), "{args}: {err}");
                    let name = flag.split_whitespace().next().unwrap();
                    let msg = err.to_string();
                    assert!(
                        msg.contains(name) && msg.contains(sub),
                        "{args}: the refusal must name {name} and {sub}: {msg}"
                    );
                }
            }
        }
    }
}

#[test]
fn rejects_unknown_flags_and_engines() {
    assert!(parse_args(argv("analyze f.bench --frobnicate")).is_err());
    assert!(parse_args(argv("analyze f.bench --engine quantum")).is_err());
    assert!(parse_args(argv("kcycle f.bench")).is_err(), "needs --max-k");
    assert!(parse_args(argv("teleport f.bench")).is_err());
    assert!(parse_args(Vec::<String>::new()).is_err());
}

#[test]
fn gen_emits_parseable_bench() {
    let cmd = parse_args(argv("gen m27")).expect("parse");
    let text = run(&cmd).expect("run");
    let nl = bench::parse("m27", &text).expect("generated bench parses");
    assert!(nl.num_ffs() >= 3);
}

#[test]
fn gen_rejects_unknown_circuit() {
    let cmd = parse_args(argv("gen s99999")).expect("parse");
    assert!(run(&cmd).is_err());
}

#[test]
fn analyze_runs_on_a_generated_file() {
    let dir = std::env::temp_dir().join("mcpath-cli-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&path, text).expect("write");

    let cmd = parse_args(argv(&format!("analyze {}", path.display()))).expect("parse");
    let out = run(&cmd).expect("analyze");
    assert!(out.contains("multi-cycle"), "{out}");

    let cmd = parse_args(argv(&format!("hazard {} --quiet", path.display()))).expect("parse");
    let out = run(&cmd).expect("hazard");
    assert!(out.contains("Sensitization"), "{out}");

    let cmd = parse_args(argv(&format!("kcycle {} --max-k 4", path.display()))).expect("parse");
    let out = run(&cmd).expect("kcycle");
    assert!(out.contains("cycles"), "{out}");
    // The budget sweep is deterministic at any thread count.
    let cmd = parse_args(argv(&format!(
        "kcycle {} --max-k 4 --threads 8",
        path.display()
    )))
    .expect("parse");
    assert_eq!(run(&cmd).expect("kcycle parallel"), out);

    let cmd = parse_args(argv(&format!("sdc {}", path.display()))).expect("parse");
    let out = run(&cmd).expect("sdc");
    assert!(out.contains("set_multicycle_path"), "{out}");
    let cmd = parse_args(argv(&format!("sdc {} --robust cosens", path.display()))).expect("parse");
    let out = run(&cmd).expect("sdc robust");
    assert!(out.contains("hazard-robust"), "{out}");

    let cmd = parse_args(argv(&format!("deps {}", path.display()))).expect("parse");
    let out = run(&cmd).expect("deps");
    assert!(out.contains("sensitization-robust"), "{out}");

    let cmd = parse_args(argv(&format!("stats {}", path.display()))).expect("parse");
    let out = run(&cmd).expect("stats");
    assert!(out.contains("ff_pairs"), "{out}");
}

#[test]
fn hazard_checks_refuse_budgets_beyond_two_cycles() {
    let dir = std::env::temp_dir().join("mcpath-cli-cycles");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&path, text).expect("write");

    // The hazard checks read one capture edge: a 3-cycle relaxation
    // is refused at run time (exit 1), not checked on that one edge.
    for (sub, what) in [
        ("hazard", "hazard"),
        ("deps", "deps"),
        ("sdc --robust cosens", "sdc --robust"),
    ] {
        let cmd = parse_args(argv(&format!("{sub} {} --cycles 3", path.display())))
            .expect("the flags parse");
        let err = run(&cmd).unwrap_err();
        assert_eq!(
            err,
            format!("`{what}` checks the 2-cycle condition only, got --cycles 3")
        );
    }
    // Plain `sdc` emits only pairs the 3-cycle MC condition verified.
    let cmd = parse_args(argv(&format!("sdc {} --cycles 3", path.display()))).expect("parse");
    let out = run(&cmd).expect("sdc at 3 cycles");
    assert!(out.contains("# multi-cycle constraints"), "{out}");
}

#[test]
fn dot_and_glitch_subcommands_work() {
    let dir = std::env::temp_dir().join("mcpath-cli-test2");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("fig3.bench");
    let nl = mcp_gen::circuits::fig3();
    std::fs::write(&path, bench::to_bench(&nl)).expect("write");

    let cmd = parse_args(argv(&format!("sweep {}", path.display()))).expect("parse");
    let out = run(&cmd).expect("sweep");
    let swept = bench::parse("swept", &out).expect("swept output parses");
    assert_eq!(swept.num_ffs(), nl.num_ffs());

    let cmd = parse_args(argv(&format!("dot {}", path.display()))).expect("parse");
    let out = run(&cmd).expect("dot");
    assert!(out.starts_with("digraph"), "{out}");

    let vcd = dir.join("glitch.vcd");
    let cmd = parse_args(argv(&format!(
        "glitch {} FF3 FF2 {}",
        path.display(),
        vcd.display()
    )))
    .expect("parse");
    let out = run(&cmd).expect("glitch");
    assert!(out.contains("glitch found"), "{out}");
    let text = std::fs::read_to_string(&vcd).expect("vcd written");
    assert!(text.contains("$enddefinitions"));

    // A non-FF name is a clean error.
    let cmd = parse_args(argv(&format!(
        "glitch {} EN2 FF2 {}",
        path.display(),
        vcd.display()
    )))
    .expect("parse");
    assert!(run(&cmd).is_err());
}

#[test]
fn glitch_ends_when_the_source_never_toggles() {
    // `q` holds its value forever, so no sampled edge toggles it: the
    // hunt must run out of words instead of looping. A watchdog turns a
    // regression into a failure rather than a hung suite.
    let dir = std::env::temp_dir().join("mcpath-cli-glitch-hold");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("hold.bench");
    std::fs::write(&path, "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = BUFF(q)\n").expect("write");
    let vcd = dir.join("out.vcd");
    let _ = std::fs::remove_file(&vcd);
    let cmd = parse_args(argv(&format!(
        "glitch {} q q {}",
        path.display(),
        vcd.display()
    )))
    .expect("parse");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run(&cmd));
    });
    let out = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("`glitch` on a source that never toggles must terminate")
        .expect("glitch");
    assert!(
        out.contains("no dynamic glitch found at q's D input in 0 sampled edges"),
        "{out}"
    );
    assert!(!vcd.exists(), "no glitch, no waveform");
}

#[test]
fn lint_subcommand_reports_and_gates() {
    let dir = std::env::temp_dir().join("mcpath-cli-lint");
    std::fs::create_dir_all(&dir).expect("tmp dir");

    // A clean generated circuit lints without findings.
    let clean = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&clean, text).expect("write");
    let out = run(&parse_args(argv(&format!("lint {}", clean.display()))).expect("parse"))
        .expect("lint clean");
    assert!(out.contains("0 error(s)"), "{out}");

    // JSON format is machine-parseable.
    let out =
        run(&parse_args(argv(&format!("lint {} --format json", clean.display()))).expect("parse"))
            .expect("lint json");
    assert!(
        serde_json::from_str::<mcp_lint::Diagnostics>(&out).is_ok(),
        "{out}"
    );
    assert!(parse_args(argv("lint f.bench --format yaml")).is_err());

    // A combinational cycle lints (permissive parse) and fails the
    // command with an error-level diagnostic...
    let cyclic = dir.join("cyclic.bench");
    std::fs::write(&cyclic, "OUTPUT(a)\na = NOT(b)\nb = NOT(a)\n").expect("write");
    let err =
        run(&parse_args(argv(&format!("lint {}", cyclic.display()))).expect("parse")).unwrap_err();
    assert!(err.contains("comb-cycle"), "{err}");

    // ...while `analyze` refuses the same file already at load time,
    // at the line of a gate on the cycle.
    let err = run(&parse_args(argv(&format!("analyze {}", cyclic.display()))).expect("parse"))
        .unwrap_err();
    assert!(
        err.contains("line 2: combinational cycle through node `a`"),
        "{err}"
    );
}

#[test]
fn lint_and_analyze_both_refuse_an_undefined_output() {
    let dir = std::env::temp_dir().join("mcpath-cli-typo");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let typo = dir.join("typo.bench");
    std::fs::write(
        &typo,
        "INPUT(x)\nOUTPUT(c)\nOUTPUT(typo)\nq = DFF(c)\nc = AND(q, x)\n",
    )
    .expect("write");
    for sub in ["lint", "analyze"] {
        let err = run(&parse_args(argv(&format!("{sub} {}", typo.display()))).expect("parse"))
            .unwrap_err();
        assert!(
            err.contains("line 3: signal `typo` is undefined"),
            "{sub}: {err}"
        );
    }
}

#[test]
fn no_lint_flag_is_gone() {
    // Every CLI netlist comes from the strict parser, which refuses each
    // defect the admission gate checks for, so the switch moved nothing.
    let err = parse_args(argv("analyze f.bench --no-lint")).unwrap_err();
    assert!(err.to_string().contains("unknown option"), "{err}");
    let cmd = parse_args(argv("analyze f.bench")).expect("parse");
    assert!(cmd.cfg.lint, "the gate is always on");
}

#[test]
fn lint_deny_allow_and_max_diags() {
    let dir = std::env::temp_dir().join("mcpath-cli-lint-flags");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    // A dangling FF (never marked as an output) is a Warn-level
    // finding by default.
    let dangling = dir.join("dangling.bench");
    std::fs::write(
        &dangling,
        "INPUT(a)\nINPUT(b)\nOUTPUT(o)\nq = DFF(g)\ng = NOT(a)\no = AND(a, b)\n",
    )
    .expect("write");

    // Warnings pass by default...
    let out = run(&parse_args(argv(&format!("lint {}", dangling.display()))).expect("parse"))
        .expect("lint warns only");
    assert!(out.contains("dangling-ff"), "{out}");
    assert!(out.contains("0 error(s)"), "{out}");

    // ...but `--deny` escalates the rule to a gating error...
    let err = run(&parse_args(argv(&format!(
        "lint {} --deny dangling-ff",
        dangling.display()
    )))
    .expect("parse"))
    .unwrap_err();
    assert!(err.contains("error[dangling-ff]"), "{err}");

    // ...and `--allow` suppresses it entirely.
    let out = run(&parse_args(argv(&format!(
        "lint {} --allow dangling-ff",
        dangling.display()
    )))
    .expect("parse"))
    .expect("lint allowed");
    assert!(!out.contains("dangling-ff"), "{out}");

    // `--max-diags 0` truncates the listing but keeps the total note.
    let out = run(
        &parse_args(argv(&format!("lint {} --max-diags 0", dangling.display()))).expect("parse"),
    )
    .expect("lint capped");
    assert!(!out.contains("dangling-ff"), "{out}");
    assert!(out.contains("showing 0 of"), "{out}");

    // The cap must not mask the error gate: a comb cycle still fails
    // even when its finding is cut from the listing.
    let cyclic = dir.join("cyclic.bench");
    std::fs::write(&cyclic, "OUTPUT(a)\na = NOT(b)\nb = NOT(a)\n").expect("write");
    let err =
        run(&parse_args(argv(&format!("lint {} --max-diags 0", cyclic.display()))).expect("parse"))
            .unwrap_err();
    assert!(err.contains("showing 0 of"), "{err}");

    // Typos in rule names are clean errors, not silent no-ops.
    for flag in ["--deny", "--allow"] {
        let err = run(&parse_args(argv(&format!(
            "lint {} {flag} no-such-rule",
            dangling.display()
        )))
        .expect("parse"))
        .unwrap_err();
        assert!(err.contains("unknown lint rule"), "{err}");
    }
    assert!(parse_args(argv("lint f.bench --max-diags abc")).is_err());
    assert!(parse_args(argv("lint f.bench --deny")).is_err());
}

#[test]
fn no_slice_flag_reaches_the_config() {
    let cmd = parse_args(argv("analyze f.bench --no-slice")).expect("parse");
    assert!(!cmd.cfg.slice);
    let cmd = parse_args(argv("analyze f.bench")).expect("parse");
    assert!(cmd.cfg.slice, "on by default");
}

#[test]
fn no_static_classify_flag_is_gone() {
    // The static pre-pass is verdict-neutral, and
    // `static_classification_keeps_the_canonical_report_byte_identical`
    // pins that; no flag A/Bs it any more, so it is always on.
    let err = parse_args(argv("analyze f.bench --no-static-classify")).unwrap_err();
    assert!(err.to_string().contains("unknown option"), "{err}");
    let cmd = parse_args(argv("analyze f.bench")).expect("parse");
    assert!(cmd.cfg.static_classify, "on by default");
}

#[test]
fn sim_lanes_flag_is_gone() {
    // The lane width is verdict-neutral, and
    // `lane_width_does_not_change_the_canonical_report` pins that; no flag
    // sets it, so the library default applies.
    for flag in ["sim-lanes 128", "sim-lanes"] {
        let err = parse_args(argv(&format!("analyze f.bench --{flag}"))).unwrap_err();
        assert!(err.to_string().contains("unknown option"), "{flag}: {err}");
    }
    let cmd = parse_args(argv("analyze f.bench")).expect("parse");
    assert_eq!(cmd.cfg.sim, mcp_sim::FilterConfig::default());
    assert_eq!(cmd.cfg.sim.lanes, 256);
}

#[test]
fn chrome_format_is_gone() {
    // `trace` always writes Chrome trace-event JSON; `--format` is
    // `lint`'s, with two values.
    let err = parse_args(argv("trace t.ndjson --format chrome")).unwrap_err();
    assert!(err.to_string().contains("chrome"), "{err}");
    let err = parse_args(argv("lint f.bench --format chrome")).unwrap_err();
    assert!(err.to_string().contains("unknown format"), "{err}");
}

#[test]
fn kernel_selection_flags_are_gone() {
    // The host picks the prefilter kernel; no flag can choose one.
    for flag in ["sim-kernel fused", "no-jit", "no-tape"] {
        let err = parse_args(argv(&format!("analyze f.bench --{flag}"))).unwrap_err();
        assert!(err.to_string().contains("unknown option"), "{flag}: {err}");
    }
}

#[test]
fn unsupported_lane_width_is_a_clean_analyze_error() {
    // No flag sets the lane width, but a library caller that builds the
    // `Command` can. `analyze` rejects 96 (the same check covers every
    // library entry point, so the CLI does not pre-validate).
    let dir = std::env::temp_dir().join("mcpath-cli-test-lanes");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let mut cmd =
        parse_args(argv(&format!("analyze {} --quiet", bench_path.display()))).expect("parse");
    cmd.cfg.sim.lanes = 96;
    let err = run(&cmd).unwrap_err();
    assert!(err.contains("sim lanes"), "{err}");
    assert!(err.contains("96"), "{err}");
}

#[test]
fn parses_observability_flags() {
    let cmd = parse_args(argv(
        "analyze foo.bench --metrics --trace-out t.ndjson --progress",
    ))
    .expect("parse");
    assert!(cmd.metrics);
    assert_eq!(cmd.trace_out.as_deref(), Some("t.ndjson"));
    assert!(cmd.progress);
    assert!(parse_args(argv("analyze f.bench --trace-out")).is_err());
}

#[test]
fn stats_loads_reports_saved_with_retired_kernels() {
    // Older binaries could run the prefilter on the tape interpreter or
    // the reference simulator, and counted tape instructions. Their
    // saved reports must still load: the kernel tag decodes and the
    // retired counter key is skipped.
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, tag) in [
        ("pr10_report_tape_kernel.json", "[tape]"),
        ("pr10_report_reference_kernel.json", "[reference]"),
    ] {
        let path = fixtures.join(file);
        let out = run(&parse_args(argv(&format!("stats {}", path.display()))).expect("parse"))
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(out.contains("saved report with 11 pairs"), "{file}:\n{out}");
        assert!(out.contains(tag), "{file} must show its kernel tag:\n{out}");
    }
}

#[test]
fn metrics_trace_and_stats_round_trip() {
    let dir = std::env::temp_dir().join("mcpath-cli-test3");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let json = dir.join("report.json");
    let trace = dir.join("trace.ndjson");

    let cmd = parse_args(argv(&format!(
        "analyze {} --metrics --json {} --trace-out {} --quiet",
        bench_path.display(),
        json.display(),
        trace.display()
    )))
    .expect("parse");
    let out = run(&cmd).expect("analyze");
    assert!(out.contains("engine counters:"), "{out}");
    assert!(out.contains("implications"), "{out}");
    assert!(out.contains("per-step resolution"), "{out}");
    assert!(out.contains("throughput"), "{out}");
    assert!(out.contains("sim_words_per_sec"), "{out}");
    // The step table's throughput cell names the kernel tier that ran
    // (the exact tag is host-dependent: jit-avx2, jit-scalar or fused).
    assert!(
        ["[jit-avx2]", "[jit-scalar]", "[fused]"]
            .iter()
            .any(|tag| out.contains(tag)),
        "{out}"
    );
    // The kernel is named once, there: no span copies the sim time
    // under the kernel's name.
    assert!(!out.contains("sim_kernels"), "{out}");
    let saved: mcp_core::McReport =
        serde_json::from_str(&std::fs::read_to_string(&json).expect("read")).expect("report");
    assert!(saved.metrics.spans.contains_key("analyze/sim"));
    assert!(
        !saved
            .metrics
            .spans
            .keys()
            .any(|k| k.starts_with("analyze/sim/")),
        "{:?}",
        saved.metrics.spans.keys()
    );

    // `stats` on the NDJSON journal aggregates the per-pair events.
    let cmd = parse_args(argv(&format!("stats {}", trace.display()))).expect("parse");
    let out = run(&cmd).expect("stats journal");
    assert!(out.contains("trace journal:"), "{out}");
    assert!(out.contains("total"), "{out}");

    // `stats` on the saved JSON report prints the same tables.
    let cmd = parse_args(argv(&format!("stats {}", json.display()))).expect("parse");
    let out = run(&cmd).expect("stats report");
    assert!(out.contains("saved report"), "{out}");
    assert!(out.contains("engine counters:"), "{out}");

    // A JSON file that is neither is a clean error.
    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, "[1, 2, 3]").expect("write");
    let cmd = parse_args(argv(&format!("stats {}", bogus.display()))).expect("parse");
    assert!(run(&cmd).is_err());
}

#[test]
fn parses_resume_compare_and_canonical_flags() {
    let cmd = parse_args(argv(
        "analyze f.bench --resume old.ndjson --canonical --json r.json",
    ))
    .expect("parse");
    assert_eq!(cmd.resume.as_deref(), Some("old.ndjson"));
    assert!(cmd.canonical);

    let cmd = parse_args(argv("stats --compare a.json b.json --threshold 5")).expect("parse");
    assert_eq!(
        cmd.action,
        Action::Compare {
            old: "a.json".into(),
            new: "b.json".into()
        }
    );
    assert!((cmd.threshold - 5.0).abs() < 1e-9);
    assert!(parse_args(argv("stats --compare a.json")).is_err());
    assert!(parse_args(argv("stats x.bench --compare a.json b.json")).is_err());
    assert!(parse_args(argv("stats --compare a.json b.json --threshold abc")).is_err());
}

#[test]
fn compare_threshold_must_be_finite_and_non_negative() {
    // NaN or infinity would silently turn the gate off; a negative
    // tolerance has no meaning.
    for bad in ["nan", "NaN", "inf", "-inf", "infinity", "-1", "-0.5"] {
        let err = parse_args(argv(&format!(
            "stats --compare a.json b.json --threshold {bad}"
        )))
        .unwrap_err();
        assert!(err.to_string().contains("--threshold"), "{bad}: {err}");
    }
    for good in ["0", "2.5", "100"] {
        let cmd = parse_args(argv(&format!(
            "stats --compare a.json b.json --threshold {good}"
        )))
        .expect(good);
        assert_eq!(cmd.threshold, good.parse::<f64>().unwrap());
    }

    let cmd = parse_args(argv("trace t.ndjson")).expect("parse");
    assert_eq!(cmd.action, Action::Trace("t.ndjson".into()));
    assert!(parse_args(argv("trace")).is_err());
}

#[test]
fn resume_trace_and_compare_round_trip() {
    let dir = std::env::temp_dir().join("mcpath-cli-ledger");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let full = dir.join("full.ndjson");
    let report = dir.join("report.json");
    let c1 = dir.join("c1.json");
    let c2 = dir.join("c2.json");

    // Uninterrupted run: full ledger + plain and canonical reports.
    let out = run(&parse_args(argv(&format!(
        "analyze {} --trace-out {} --json {} --quiet",
        bench_path.display(),
        full.display(),
        report.display()
    )))
    .expect("parse"))
    .expect("analyze");
    assert!(!out.contains("resumed:"), "{out}");
    run(&parse_args(argv(&format!(
        "analyze {} --json {} --canonical --quiet",
        bench_path.display(),
        c1.display()
    )))
    .expect("parse"))
    .expect("analyze canonical");
    // The canonical report carries no metrics, and `stats` and `trace`
    // still load it.
    let canonical = std::fs::read_to_string(&c1).expect("read c1");
    assert!(!canonical.contains("\"metrics\""), "{canonical}");
    for sub in ["stats", "trace"] {
        run(&parse_args(argv(&format!("{sub} {}", c1.display()))).expect("parse")).expect(sub);
    }

    // `trace` exports the ledger's span tree as Chrome trace JSON.
    let out = run(&parse_args(argv(&format!("trace {}", full.display()))).expect("parse"))
        .expect("trace ledger");
    let doc: mcp_obs::ChromeTrace = serde_json::from_str(&out).expect("chrome JSON");
    assert!(!doc.traceEvents.is_empty());
    assert!(doc
        .traceEvents
        .iter()
        .any(|e| e.name.starts_with("analyze")));
    // ...and a saved report degrades to span totals.
    let out = run(&parse_args(argv(&format!("trace {}", report.display()))).expect("parse"))
        .expect("trace report");
    let doc: mcp_obs::ChromeTrace = serde_json::from_str(&out).expect("chrome JSON");
    assert!(!doc.traceEvents.is_empty());

    // Simulate a mid-run kill: keep the header and half the events.
    let ledger_text = std::fs::read_to_string(&full).expect("read ledger");
    let lines: Vec<&str> = ledger_text.lines().collect();
    let keep = (lines.len() / 2).max(2);
    let truncated = dir.join("killed.ndjson");
    std::fs::write(&truncated, format!("{}\n", lines[..keep].join("\n"))).expect("write");

    // Resume completes the run; the canonical report is byte-identical.
    let out = run(&parse_args(argv(&format!(
        "analyze {} --resume {} --json {} --canonical --quiet",
        bench_path.display(),
        truncated.display(),
        c2.display()
    )))
    .expect("parse"))
    .expect("resume");
    assert!(out.contains("resumed:"), "{out}");
    assert_eq!(
        std::fs::read(&c1).expect("read c1"),
        std::fs::read(&c2).expect("read c2"),
        "resumed canonical report must be byte-identical"
    );

    // Identical artifacts compare clean; a ledger that gained events
    // relative to its baseline is a regression (exit code 1).
    let out = run(&parse_args(argv(&format!(
        "stats --compare {} {}",
        c1.display(),
        c2.display()
    )))
    .expect("parse"))
    .expect("compare identical");
    assert!(out.contains("no counter differences"), "{out}");
    let err = run(&parse_args(argv(&format!(
        "stats --compare {} {}",
        truncated.display(),
        full.display()
    )))
    .expect("parse"))
    .unwrap_err();
    assert!(err.contains("regression"), "{err}");

    // Resuming against a different circuit is a clean mismatch error
    // that names both digests.
    let fig3 = dir.join("fig3.bench");
    std::fs::write(&fig3, bench::to_bench(&mcp_gen::circuits::fig3())).expect("write");
    let err = run(&parse_args(argv(&format!(
        "analyze {} --resume {} --quiet",
        fig3.display(),
        full.display()
    )))
    .expect("parse"))
    .unwrap_err();
    assert!(err.contains("netlist mismatch"), "{err}");
    assert!(err.contains("ledger digest"), "{err}");
}

#[test]
fn span_table_renders_as_an_indented_hierarchy() {
    let mut snap = mcp_obs::MetricsSnapshot::default();
    snap.spans.insert(
        "analyze".to_owned(),
        mcp_obs::SpanStat {
            total: Duration::from_millis(10),
            count: 1,
        },
    );
    snap.spans.insert(
        "analyze/pairs".to_owned(),
        mcp_obs::SpanStat {
            total: Duration::from_millis(8),
            count: 4,
        },
    );
    snap.spans.insert(
        "orphan/child".to_owned(),
        mcp_obs::SpanStat {
            total: Duration::from_millis(1),
            count: 1,
        },
    );
    let out = render_snapshot(&snap);
    assert!(out.contains("\n  analyze "), "{out}");
    assert!(out.contains("\n    pairs"), "indented child:\n{out}");
    assert!(out.contains("mean 2.00ms"), "per-entry mean:\n{out}");
    assert!(out.contains("  orphan/\n"), "ancestor header:\n{out}");
    assert!(out.contains("\n    child"), "{out}");
}

#[test]
fn every_counter_renders_when_non_zero() {
    // A snapshot whose counters are all 1, built from their own
    // serialization so the test lists no field by hand.
    let names: Vec<String> = serde::Serialize::to_content(&mcp_obs::Counters::default())
        .as_map()
        .expect("counters serialize as a map")
        .iter()
        .map(|(name, _)| name.clone())
        .collect();
    let ones: Vec<String> = names.iter().map(|n| format!("\"{n}\":1")).collect();
    let snap = mcp_obs::MetricsSnapshot {
        counters: serde_json::from_str(&format!("{{{}}}", ones.join(","))).expect("counters"),
        ..Default::default()
    };
    assert!(names.iter().any(|n| n == "resume_pairs_loaded"));
    let out = render_snapshot(&snap);
    let mut at = 0;
    for name in &names {
        let row = format!("\n  {name:<24} 1\n");
        let pos = out[at..]
            .find(&row)
            .unwrap_or_else(|| panic!("no `{name}` row after byte {at}:\n{out}"));
        at += pos + 1;
    }
}

#[test]
fn stats_reads_a_ledger_whose_last_line_was_torn() {
    let dir = std::env::temp_dir().join("mcpath-cli-torn");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let clean = dir.join("clean.ndjson");
    let report = dir.join("report.json");
    run(&parse_args(argv(&format!(
        "analyze {} --trace-out {} --json {} --quiet",
        bench_path.display(),
        clean.display(),
        report.display()
    )))
    .expect("parse"))
    .expect("analyze");

    // A SIGKILL mid-write leaves a partial final line.
    let torn = dir.join("torn.ndjson");
    let clean_text = std::fs::read_to_string(&clean).expect("read ledger");
    std::fs::write(&torn, format!("{clean_text}{{\"src\":0,\"ds")).expect("write");
    let stats = |path: &std::path::Path| {
        run(&parse_args(argv(&format!("stats {}", path.display()))).expect("parse"))
    };
    assert_eq!(stats(&torn), stats(&clean), "the torn line is dropped");
    let out = run(&parse_args(argv(&format!(
        "stats --compare {} {}",
        clean.display(),
        torn.display()
    )))
    .expect("parse"))
    .expect("compare a torn ledger");
    assert!(out.contains("no counter differences"), "{out}");

    // A report compacted onto one line is still a JSON document, not a
    // ledger whose only line is torn: its counters are compared.
    let saved: mcp_core::McReport =
        serde_json::from_str(&std::fs::read_to_string(&report).expect("read")).expect("report");
    let one_line = dir.join("one-line.json");
    std::fs::write(&one_line, serde_json::to_string(&saved).expect("json")).expect("write");
    let grown = dir.join("grown.json");
    let mut more = saved.clone();
    more.metrics.counters.implications += 1;
    std::fs::write(&grown, serde_json::to_string(&more).expect("json")).expect("write");
    let err = run(&parse_args(argv(&format!(
        "stats --compare {} {}",
        one_line.display(),
        grown.display()
    )))
    .expect("parse"))
    .unwrap_err();
    assert!(err.contains("implications"), "{err}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let cmd = parse_args(argv("analyze /no/such/file.bench")).expect("parse");
    let err = run(&cmd).unwrap_err();
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn help_prints_usage() {
    let out = run(&parse_args(argv("help")).expect("parse")).expect("run");
    assert!(out.contains("USAGE"));
}

#[test]
fn parses_cache_and_eco_flags() {
    let cmd = parse_args(argv("analyze f.bench --cache-dir /tmp/c")).expect("parse");
    assert_eq!(cmd.cfg.cache_dir, Some(std::path::PathBuf::from("/tmp/c")));

    let cmd =
        parse_args(argv("analyze f.bench --eco old.bench --cache-dir /tmp/c")).expect("parse");
    assert_eq!(cmd.eco.as_deref(), Some("old.bench"));

    // `--eco` belongs to `analyze`, needs a cache, and refuses
    // `--resume` (each owns the restored-pair journal).
    assert!(parse_args(argv("hazard f.bench --eco old.bench --cache-dir /tmp/c")).is_err());
    if std::env::var_os("MCPATH_CACHE_DIR").is_none() {
        assert!(parse_args(argv("analyze f.bench --eco old.bench")).is_err());
    }
    let err = parse_args(argv(
        "analyze f.bench --eco old.bench --cache-dir /tmp/c --resume l.ndjson",
    ))
    .unwrap_err();
    assert!(err.to_string().contains("--resume"), "{err}");

    // `serve` requires the resident store.
    let cmd = parse_args(argv("serve /tmp/s.sock --cache-dir /tmp/c")).expect("parse");
    assert_eq!(cmd.action, Action::Serve("/tmp/s.sock".into()));
    if std::env::var_os("MCPATH_CACHE_DIR").is_none() {
        assert!(parse_args(argv("serve /tmp/s.sock")).is_err());
    }
}

/// A run reads one verdict source: an explicit `--cache-dir` next to
/// `--resume` is a parse error (exit 2), naming both flags.
#[test]
fn cache_dir_is_refused_with_resume() {
    let args = "analyze f.bench --resume l.ndjson";
    let err = parse_args(argv(&format!("{args} --cache-dir /tmp/c"))).unwrap_err();
    assert!(err.to_string().contains("--cache-dir"), "{err}");
    assert!(err.to_string().contains("--resume"), "{err}");
    assert!(parse_args(argv(args)).is_ok(), "{args} alone must parse");
}

#[test]
fn warm_cache_rerun_is_byte_identical_with_zero_engine_events() {
    let dir = std::env::temp_dir().join("mcpath-cli-cache");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let cache = dir.join("cache");
    let cold = dir.join("cold.json");
    let warm = dir.join("warm.json");
    let journal = dir.join("warm.ndjson");

    let out = run(&parse_args(argv(&format!(
        "analyze {} --cache-dir {} --json {} --canonical --quiet",
        bench_path.display(),
        cache.display(),
        cold.display()
    )))
    .expect("parse"))
    .expect("cold run");
    assert!(out.contains("cache: miss"), "{out}");

    let out = run(&parse_args(argv(&format!(
        "analyze {} --cache-dir {} --json {} --canonical --trace-out {} --quiet",
        bench_path.display(),
        cache.display(),
        warm.display(),
        journal.display()
    )))
    .expect("parse"))
    .expect("warm run");
    assert!(out.contains("cache: hit"), "{out}");
    assert_eq!(
        std::fs::read(&cold).expect("read cold"),
        std::fs::read(&warm).expect("read warm"),
        "warm canonical report must be byte-identical"
    );

    // The warm journal shows zero engine-tagged events: every verdict
    // was spliced from the verdicts artifact.
    let events = mcp_obs::read_ledger_file(&journal)
        .expect("read journal")
        .events;
    assert!(
        events.iter().all(|e| e.engine.is_none()),
        "warm rerun must perform zero engine verifications"
    );
    assert!(events.iter().any(|e| e.cached), "spliced events are tagged");
}

#[test]
fn eco_cli_run_matches_a_cold_full_run() {
    let dir = std::env::temp_dir().join("mcpath-cli-eco");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let old_path = dir.join("old.bench");
    let old_text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&old_path, &old_text).expect("write");
    // One-gate edit: the first AND becomes an OR.
    let new_text = old_text.replacen("= AND(", "= OR(", 1);
    assert_ne!(old_text, new_text, "the suite circuit must contain an AND");
    let new_path = dir.join("new.bench");
    std::fs::write(&new_path, new_text).expect("write");

    let cache = dir.join("cache");
    let eco_json = dir.join("eco.json");
    let cold_json = dir.join("cold.json");

    // Seed the store with the baseline's artifacts.
    run(&parse_args(argv(&format!(
        "analyze {} --cache-dir {} --quiet",
        old_path.display(),
        cache.display()
    )))
    .expect("parse"))
    .expect("baseline run");

    let out = run(&parse_args(argv(&format!(
        "analyze {} --eco {} --cache-dir {} --json {} --canonical --quiet",
        new_path.display(),
        old_path.display(),
        cache.display(),
        eco_json.display()
    )))
    .expect("parse"))
    .expect("eco run");
    assert!(out.contains("eco: "), "{out}");
    assert!(!out.contains("ran the full analysis"), "{out}");

    // Cold full run of the new netlist, no cache involved.
    run(&parse_args(argv(&format!(
        "analyze {} --json {} --canonical --quiet",
        new_path.display(),
        cold_json.display()
    )))
    .expect("parse"))
    .expect("cold run");
    assert_eq!(
        std::fs::read(&eco_json).expect("read eco"),
        std::fs::read(&cold_json).expect("read cold"),
        "ECO report must be byte-identical to the cold full run"
    );
}

#[test]
fn cache_stats_and_gc_subcommands_manage_the_store() {
    let dir = std::env::temp_dir().join("mcpath-cli-cache-gc");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let cache = dir.join("cache");

    // Parse-level contracts first.
    assert!(parse_args(argv("cache")).is_err(), "needs an operation");
    assert!(
        parse_args(argv("cache gc --cache-dir /tmp/c")).is_err(),
        "gc needs --max-bytes"
    );
    assert!(parse_args(argv("cache gc --cache-dir /tmp/c --max-bytes abc")).is_err());
    if std::env::var_os("MCPATH_CACHE_DIR").is_none() {
        assert!(parse_args(argv("cache stats")).is_err(), "needs a dir");
    }

    // Fill the store, then inspect it.
    run(&parse_args(argv(&format!(
        "analyze {} --cache-dir {} --quiet",
        bench_path.display(),
        cache.display()
    )))
    .expect("parse"))
    .expect("seed the store");
    let out = run(&parse_args(argv(&format!(
        "cache stats --cache-dir {}",
        cache.display()
    )))
    .expect("parse"))
    .expect("stats");
    assert!(out.contains("entries:"), "{out}");
    assert!(out.contains("verdicts"), "{out}");
    assert!(out.contains("locked by: nobody"), "{out}");

    // A generous budget evicts nothing; a zero budget empties the store.
    let out = run(&parse_args(argv(&format!(
        "cache gc --cache-dir {} --max-bytes 100000000",
        cache.display()
    )))
    .expect("parse"))
    .expect("gc noop");
    assert!(out.contains("evicted 0 file(s)"), "{out}");
    let out = run(&parse_args(argv(&format!(
        "cache gc --cache-dir {} --max-bytes 0",
        cache.display()
    )))
    .expect("parse"))
    .expect("gc all");
    assert!(out.contains("kept 0 entries"), "{out}");

    // The next analyze is a cold miss again — eviction is safe, never
    // corrupting (missing entries are plain misses).
    let out = run(&parse_args(argv(&format!(
        "analyze {} --cache-dir {} --quiet",
        bench_path.display(),
        cache.display()
    )))
    .expect("parse"))
    .expect("re-seed");
    assert!(out.contains("cache: miss"), "{out}");

    // A live lock holder blocks eviction with a typed refusal.
    let store = mcp_core::CasStore::open(&cache).expect("open");
    let lock = mcp_core::CasLock::acquire(&store).expect("lock");
    let err = run(&parse_args(argv(&format!(
        "cache gc --cache-dir {} --max-bytes 0",
        cache.display()
    )))
    .expect("parse"))
    .unwrap_err();
    assert!(err.contains("locked by live process"), "{err}");
    drop(lock);
}

#[test]
fn serve_answers_ndjson_requests_over_the_socket() {
    use std::io::{BufRead, BufReader, Write as _};

    let dir = std::env::temp_dir().join("mcpath-cli-serve");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bench_path = dir.join("m27.bench");
    let text = run(&parse_args(argv("gen m27")).expect("parse")).expect("gen");
    std::fs::write(&bench_path, text).expect("write");
    let socket = dir.join("mcpath.sock");
    let cache = dir.join("cache");

    let cmd = parse_args(argv(&format!(
        "serve {} --cache-dir {}",
        socket.display(),
        cache.display()
    )))
    .expect("parse");
    let server = std::thread::spawn(move || run(&cmd));

    // Wait for the socket to appear.
    let mut stream = None;
    for _ in 0..200 {
        match std::os::unix::net::UnixStream::connect(&socket) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let mut stream = stream.expect("server came up");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut send = |req: String| -> String {
        stream.write_all(req.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send newline");
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        line
    };

    // First request is a cold miss, the repeat is a warm hit; both carry
    // the canonical report inline.
    let r1 = send(format!(
        "{{\"op\":\"analyze\",\"path\":\"{}\"}}",
        bench_path.display()
    ));
    assert!(r1.contains("\"ok\":true"), "{r1}");
    assert!(r1.contains("\"cache_hit\":false"), "{r1}");
    assert!(r1.contains("m27.bench"), "{r1}");
    assert!(r1.contains("\"report\":{"), "{r1}");
    let r2 = send(format!(
        "{{\"op\":\"analyze\",\"path\":\"{}\"}}",
        bench_path.display()
    ));
    assert!(r2.contains("\"cache_hit\":true"), "{r2}");

    // Malformed requests are per-line errors, not connection drops.
    let r3 = send("{\"op\":\"analyze\"}".to_owned());
    assert!(r3.contains("\"ok\":false"), "{r3}");
    let r4 = send("not json".to_owned());
    assert!(r4.contains("\"ok\":false"), "{r4}");

    let r5 = send("{\"op\":\"shutdown\"}".to_owned());
    assert!(r5.contains("\"ok\":true"), "{r5}");
    let out = server.join().expect("join").expect("serve ok");
    assert!(out.contains("served 5 request(s)"), "{out}");
}
