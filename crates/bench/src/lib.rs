//! Shared harness utilities for the table-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation section on the deterministic synthetic suite:
//!
//! | binary         | paper artifact |
//! |----------------|----------------|
//! | `table1`       | Table 1 — per-circuit MC pairs & CPU, ours vs SAT \[9\] (and optional BDD \[8\]) |
//! | `table2`       | Table 2 — pairs resolved and CPU per analysis step |
//! | `table3`       | Table 3 — MC pairs before/after static-hazard checking |
//! | `table_kcycle` | Section 4.1 extension — k-cycle detection vs counter period |
//! | `table_reach`  | Section 3.1 remark — reachability-restricted BDD analysis vs all states |
//! | `table_glitch` | Section 5 extension — sampled dynamic glitches vs the static hazard checks |
//! | `table_scale`  | Pair-loop scaling over worker threads |
//!
//! Run with `--release`; pass `--quick` to restrict to the smaller half of
//! the suite. Every binary writes its rows to `BENCH_<name>.json` in the
//! current directory ([`bench_artifact`]); `--baseline <BENCH.json>`
//! diffs that artifact against an earlier run's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mcp_core::McConfig;
use mcp_netlist::Netlist;

/// Command-line options shared by the table binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Use the abbreviated suite.
    pub quick: bool,
    /// Lint every suite circuit before benchmarking it, failing the run
    /// on error-level findings and propagating warning counts into the
    /// bench artifact.
    pub lint: bool,
    /// Worker threads for the pair loop (default 1: the paper's numbers
    /// are single-threaded, so parallelism is opt-in per run).
    pub threads: usize,
    /// Optional baseline `BENCH_*.json` to diff this run's artifact
    /// against; above-threshold counter growth fails the run.
    pub baseline: Option<String>,
    /// Counter growth (percent) tolerated by the `--baseline` gate.
    pub threshold: f64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            quick: false,
            lint: false,
            threads: 1,
            baseline: None,
            threshold: 0.0,
        }
    }
}

impl HarnessArgs {
    /// Parses `--quick`, `--lint`, `--threads <N>`, `--baseline <path>`
    /// and `--threshold <pct>` from `std::env::args`, exiting with
    /// status 2 on unknown arguments (a typo must not silently produce
    /// wrong-config numbers).
    pub fn parse() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(out) => out,
            Err(e) => {
                eprintln!(
                    "error: {e}\nusage: [--quick] [--lint] [--threads <N>] \
                     [--baseline <BENCH.json>] [--threshold <pct>]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (testable core of [`parse`](Self::parse)).
    ///
    /// # Errors
    ///
    /// Returns a message on an unknown argument, a `--baseline` without a
    /// path, a `--threshold` that is not a finite, non-negative
    /// number, or a non-numeric / zero `--threads`.
    pub fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = HarnessArgs::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--lint" => out.lint = true,
                "--baseline" => {
                    out.baseline = Some(args.next().ok_or("`--baseline` needs a path")?);
                }
                "--threshold" => {
                    let v = args.next().ok_or("`--threshold` needs a percentage")?;
                    out.threshold = mcp_obs::parse_threshold_pct(&v)?;
                }
                "--threads" => {
                    let v = args.next().ok_or("`--threads` needs a count")?;
                    out.threads = v.parse().map_err(|e| format!("bad `--threads {v}`: {e}"))?;
                    if out.threads == 0 {
                        return Err("`--threads` must be at least 1".into());
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }

    /// Diffs this run's serialized artifact against the `--baseline`
    /// artifact over the deterministic counters (wall-clock, `cores` and
    /// `peak_rss_kb` fields are excluded as machine-dependent noise).
    ///
    /// Returns `Ok(None)` without `--baseline`, and the rendered diff
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns the rendered diff when it contains above-threshold
    /// counter growth, or a message when either artifact is unreadable.
    pub fn drift_check(&self, current: &str) -> Result<Option<String>, String> {
        let Some(path) = &self.baseline else {
            return Ok(None);
        };
        let old =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let cmp = mcp_obs::compare_artifacts(
            &old,
            current,
            mcp_obs::CompareConfig {
                threshold_pct: self.threshold,
            },
        )
        .map_err(|e| e.to_string())?;
        let rendered = cmp.render();
        if cmp.regressions() > 0 {
            return Err(format!("counter drift against `{path}`:\n{rendered}"));
        }
        Ok(Some(rendered))
    }

    /// Exit-on-drift wrapper around [`drift_check`](Self::drift_check)
    /// for the table binaries: prints the comparison, exits with status
    /// 1 on regressions.
    pub fn drift_gate(&self, current: Option<&str>) {
        let Some(current) = current else {
            if self.baseline.is_some() {
                eprintln!("error: no artifact was written, nothing to compare");
                std::process::exit(1);
            }
            return;
        };
        match self.drift_check(current) {
            Ok(None) => {}
            Ok(Some(rendered)) => eprint!("# baseline comparison:\n{rendered}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    /// The baseline analysis configuration for this run: defaults plus
    /// the harness-level `--threads` knob. Table binaries layer their
    /// engine/option overrides on top with struct update syntax.
    pub fn mc_config(&self) -> McConfig {
        McConfig {
            threads: self.threads,
            ..McConfig::default()
        }
    }

    /// Runs the full `mcp-lint` rule set on a suite circuit when `--lint`
    /// was given, and returns the number of warning-or-worse findings
    /// (always 0 without `--lint`). Exits with status 1 on error-level
    /// findings: a benchmark number measured on a corrupt netlist is
    /// worse than no number.
    pub fn lint_warnings(&self, nl: &Netlist) -> usize {
        match self.lint_warnings_checked(nl) {
            Ok(n) => n,
            Err(report) => {
                eprintln!("{report}");
                std::process::exit(1);
            }
        }
    }

    /// Testable core of [`lint_warnings`](Self::lint_warnings).
    ///
    /// # Errors
    ///
    /// Returns the rendered report when it contains error-level findings.
    pub fn lint_warnings_checked(&self, nl: &Netlist) -> Result<usize, String> {
        if !self.lint {
            return Ok(0);
        }
        let report =
            mcp_lint::Registry::with_default_rules().run(nl, &mcp_lint::LintConfig::default());
        if report.has_errors() {
            return Err(report.render_text(nl.name()));
        }
        Ok(report
            .iter()
            .filter(|d| d.severity >= mcp_lint::Severity::Warn)
            .count())
    }

    /// The suite selected by the flags.
    pub fn suite(&self) -> Vec<Netlist> {
        if self.quick {
            mcp_gen::suite::quick_suite()
        } else {
            mcp_gen::suite::standard_suite()
        }
    }
}

/// Formats a duration in seconds with millisecond resolution, the way the
/// paper's CPU columns read.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Peak resident set size of this process in kilobytes, read from
/// `/proc/self/status` (`VmHWM`, the RSS high-water mark). Returns 0 on
/// platforms without procfs — callers treat 0 as "not measured".
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Writes `rows` to `BENCH_<name>.json` in the current directory — the
/// machine-readable perf artifact each table binary leaves behind so
/// successive runs accumulate a benchmark trajectory — and returns the
/// written text (for the `--baseline` drift gate), or `None` when the
/// artifact could not be produced.
///
/// The rows are wrapped in a machine envelope recording the core count
/// and peak RSS: wall-clock columns are only comparable at equal
/// `cores`, and a memory blow-up is a regression the timing columns
/// cannot show. The envelope is assembled textually so it works for any
/// row type without a generic `Serialize` impl.
pub fn bench_artifact<T: serde::Serialize>(name: &str, rows: &T) -> Option<String> {
    let path = format!("BENCH_{name}.json");
    let body = match serde_json::to_string_pretty(rows) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot serialize {path}: {e}");
            return None;
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let doc = format!(
        "{{\n  \"cores\": {cores},\n  \"peak_rss_kb\": {},\n  \"rows\": {body}\n}}",
        peak_rss_kb()
    );
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("cannot write {path}: {e}");
    } else {
        eprintln!("# wrote {path}");
    }
    Some(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_formats_milliseconds() {
        assert_eq!(secs(std::time::Duration::from_millis(1234)), "1.234");
        assert_eq!(secs(std::time::Duration::ZERO), "0.000");
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let args = HarnessArgs::try_parse(argv("--quick")).expect("parse");
        assert!(args.quick);
        assert!(HarnessArgs::try_parse(argv("--qiuck")).is_err());
        // Every binary writes its `BENCH_<name>.json`; there is no
        // second JSON dump to ask for.
        assert!(HarnessArgs::try_parse(argv("--json out.json")).is_err());
    }

    #[test]
    fn threads_knob_parses_and_reaches_the_config() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let args = HarnessArgs::try_parse(argv("")).expect("parse");
        assert_eq!(args.threads, 1, "single-threaded by default");
        assert_eq!(args.mc_config().threads, 1);
        let args = HarnessArgs::try_parse(argv("--threads 8")).expect("parse");
        assert_eq!(args.threads, 8);
        assert_eq!(args.mc_config().threads, 8);
        assert!(HarnessArgs::try_parse(argv("--threads")).is_err());
        assert!(HarnessArgs::try_parse(argv("--threads nope")).is_err());
        assert!(HarnessArgs::try_parse(argv("--threads 0")).is_err());
    }

    #[test]
    fn lint_gate_is_quiet_on_the_suite_and_off_by_default() {
        let nl = mcp_gen::suite::quick_suite().remove(0);
        let off = HarnessArgs::default();
        assert_eq!(off.lint_warnings_checked(&nl).expect("off"), 0);
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let on = HarnessArgs::try_parse(argv("--lint")).expect("parse");
        assert!(on.lint);
        // The generated suite is lint-clean: no warnings, no errors.
        assert_eq!(on.lint_warnings_checked(&nl).expect("clean"), 0);
    }

    #[test]
    fn peak_rss_is_measured_where_procfs_exists() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(
                peak_rss_kb() > 0,
                "VmHWM should be nonzero for a live process"
            );
        } else {
            assert_eq!(peak_rss_kb(), 0);
        }
    }

    #[test]
    fn baseline_drift_gate_flags_counter_growth_only() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let dir = std::env::temp_dir().join("mcp-bench-drift");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let baseline = dir.join("BENCH_base.json");
        std::fs::write(
            &baseline,
            "{\n  \"cores\": 8,\n  \"peak_rss_kb\": 1000,\n  \"rows\": [{\"pairs\": 100}]\n}",
        )
        .expect("write");

        let args = HarnessArgs::try_parse(argv(&format!(
            "--baseline {} --threshold 10",
            baseline.display()
        )))
        .expect("parse");
        assert!((args.threshold - 10.0).abs() < 1e-9);

        // Within threshold — and machine-dependent fields never count.
        let ok = "{\n  \"cores\": 1,\n  \"peak_rss_kb\": 99999,\n  \"rows\": [{\"pairs\": 105}]\n}";
        let rendered = args.drift_check(ok).expect("within threshold").unwrap();
        assert!(rendered.contains("differing"), "{rendered}");

        // Above threshold: a drift error carrying the diff table.
        let bad = "{\n  \"cores\": 8,\n  \"peak_rss_kb\": 1000,\n  \"rows\": [{\"pairs\": 200}]\n}";
        let err = args.drift_check(bad).unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");

        // Without --baseline the gate is inert.
        assert_eq!(HarnessArgs::default().drift_check(bad).expect("off"), None);
        assert!(HarnessArgs::try_parse(argv("--baseline")).is_err());
        assert!(HarnessArgs::try_parse(argv("--threshold x")).is_err());
    }

    #[test]
    fn baseline_threshold_must_be_finite_and_non_negative() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        // NaN or infinity would silently turn the drift gate off.
        for bad in ["nan", "inf", "-inf", "-1"] {
            let err = HarnessArgs::try_parse(argv(&format!("--threshold {bad}"))).unwrap_err();
            assert!(err.contains("--threshold"), "{bad}: {err}");
        }
        let args = HarnessArgs::try_parse(argv("--threshold 0")).expect("zero is a threshold");
        assert_eq!(args.threshold, 0.0);
    }

    #[test]
    fn default_args_select_full_suite() {
        let args = HarnessArgs::default();
        assert_eq!(args.suite().len(), 12);
        let quick = HarnessArgs {
            quick: true,
            ..HarnessArgs::default()
        };
        assert_eq!(quick.suite().len(), 6);
    }
}
