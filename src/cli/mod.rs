//! Command-line front end logic (shared by the `mcpath` binary and its
//! tests).
//!
//! Subcommands (one module per group under `src/cli/`):
//!
//! * `analyze <file.bench>` — run the multi-cycle FF-pair analysis and
//!   print the verdict list plus per-step statistics; `--cache-dir`
//!   persists the staged artifacts so a warm rerun answers from cache,
//!   `--eco <old.bench>` re-verifies only the sink groups touched by
//!   the edit, splicing cached verdicts for the rest, and `--resume
//!   <ledger>` restarts a killed run from its `--trace-out` journal;
//! * `hazard <file.bench>` — analyze, then validate the multi-cycle pairs
//!   against static hazards with both criteria;
//! * `kcycle <file.bench> --max-k <K>` — sweep the cycle budget and report
//!   each pair's maximal verified budget;
//! * `stats <file>` — for a `.bench` file, parse and print structural
//!   statistics; for a saved JSON report or an NDJSON run ledger,
//!   pretty-print the observability data as a Table-2-style per-step
//!   table;
//! * `stats --compare <old> <new> [--threshold <pct>]` — diff the
//!   deterministic counters of two artifacts (reports, ledgers, metrics
//!   snapshots or BENCH tables) and exit non-zero on regressions;
//! * `trace <ledger.ndjson|report.json>` — export the captured span tree
//!   as Chrome trace-event JSON (Perfetto / `chrome://tracing`);
//! * `gen <suite-name>` — emit a synthetic suite circuit as `.bench` text
//!   (so external tools can consume the benchmark suite);
//! * `serve <socket>` — answer NDJSON analyze requests over a Unix
//!   socket, keeping the artifact store resident between requests;
//! * `lint <file.bench> [--format text|json]` — run the full `mcp-lint`
//!   rule set (parsing permissively, so corrupt netlists are diagnosed
//!   rather than rejected) and exit non-zero on error-level findings;
//!   `--deny`/`--allow` escalate or disable individual rules, and
//!   `--max-diags` caps the rendered finding list.
//!
//! Options: `--engine implication|sat|bdd`, `--cycles K`, `--backtracks N`,
//! `--learn`, `--threads N`, `--no-sim`, `--sim-lanes 64|128|256|512`,
//! `--no-self-pairs`, `--no-lint`, `--no-slice`, `--no-static-classify`,
//! `--deny <rule>`, `--allow <rule>`, `--max-diags <n>`, `--json <path>`,
//! `--canonical`, `--cache-dir <dir>`, `--eco <old.bench>`,
//! `--resume <ledger>`, `--format text|json|chrome`, `--metrics`, `--trace-out <path>`,
//! `--progress`, `--quiet`, `--compare <old> <new>`, `--threshold <pct>`.
//! `--eco`, `--resume`, `--trace-out`, `--progress` and `--metrics` only
//! apply to `analyze`; any other subcommand refuses them.

mod analyze;
mod cache;
mod glitch;
mod misc;
mod render;
mod serve;
#[cfg(test)]
mod tests;

use mcp_core::{Engine, HazardCheck, McConfig};
use mcp_netlist::{bench, Netlist};
use mcp_obs::{FailAfter, FileSink, ObsCtx, FAIL_AFTER_ENV};
use std::time::Duration;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// The subcommand and its positional payload.
    pub action: Action,
    /// Engine selection.
    pub engine: Engine,
    /// Cycle budget.
    pub cycles: u32,
    /// ATPG backtrack limit.
    pub backtracks: u64,
    /// Enable static learning.
    pub learn: bool,
    /// Worker threads.
    pub threads: usize,
    /// Disable the random-simulation prefilter.
    pub no_sim: bool,
    /// Simulation lane width of the prefilter's compiled kernel
    /// (64, 128, 256 or 512); `None` keeps the default (256).
    pub sim_lanes: Option<u32>,
    /// Exclude self pairs.
    pub no_self_pairs: bool,
    /// Skip the pre-analysis structural lint gate.
    pub no_lint: bool,
    /// Run the engines on the whole-circuit expansion instead of per
    /// sink-group cone slices (the whole-circuit baseline; verdicts are
    /// identical).
    pub no_slice: bool,
    /// Skip the dataflow pre-pass that statically classifies pairs whose
    /// sink FF is provably frozen (A/B escape hatch; the canonical report
    /// is byte-identical either way).
    pub no_static_classify: bool,
    /// Lint rule ids escalated to error severity (`--deny`, repeatable).
    pub deny: Vec<String>,
    /// Lint rule ids disabled entirely (`--allow`, repeatable).
    pub allow: Vec<String>,
    /// Cap on the findings the `lint` subcommand renders (`--max-diags`).
    pub max_diags: Option<usize>,
    /// Output format of the `lint` and `trace` subcommands.
    pub format: OutputFormat,
    /// Optional JSON report path.
    pub json: Option<String>,
    /// Write the `--json` report in canonical form (wall-clock and
    /// machine-dependent fields projected out) for byte comparison.
    pub canonical: bool,
    /// Persist the staged pipeline artifacts under this directory
    /// (`--cache-dir`; overrides the `MCPATH_CACHE_DIR` env var).
    pub cache_dir: Option<String>,
    /// Baseline netlist for ECO-incremental re-analysis
    /// (`analyze --eco <old.bench>`; needs `--cache-dir`).
    pub eco: Option<String>,
    /// Resume `analyze` from a prior run's NDJSON ledger.
    pub resume: Option<String>,
    /// Print engine counters and span timings after the analysis.
    pub metrics: bool,
    /// Optional NDJSON run-ledger path.
    pub trace_out: Option<String>,
    /// Report pair-loop progress on stderr while analyzing.
    pub progress: bool,
    /// Regression threshold (percent) for `stats --compare`.
    pub threshold: f64,
    /// Suppress the pair listing.
    pub quiet: bool,
}

/// Output format of the `lint` and `trace` subcommands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OutputFormat {
    /// One line per finding plus a summary line (`lint` only).
    #[default]
    Text,
    /// Machine-readable JSON ([`mcp_lint::Diagnostics`] for `lint`).
    Json,
    /// Chrome trace-event JSON (`trace` only).
    Chrome,
}

/// What to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Analyze a `.bench` file.
    Analyze(String),
    /// Analyze + hazard-check a `.bench` file.
    Hazard(String),
    /// Analyze + report the cross-pair dependencies of the
    /// sensitization-validated multi-cycle pairs.
    Deps(String),
    /// Cycle-budget sweep on a `.bench` file up to the given `k`.
    Kcycle(String, u32),
    /// Print structural statistics of a `.bench` file.
    Stats(String),
    /// Diff the deterministic counters of two artifacts.
    Compare {
        /// Baseline artifact path.
        old: String,
        /// Candidate artifact path.
        new: String,
    },
    /// Export an artifact's span tree as Chrome trace-event JSON.
    Trace(String),
    /// Emit a synthetic suite circuit as `.bench`.
    Gen(String),
    /// Simplify a `.bench` file (constant sweep, CSE, dead logic) and
    /// emit the result.
    Sweep(String),
    /// Render a `.bench` file as Graphviz DOT.
    Dot(String),
    /// Run the static-analysis rules on a `.bench` file.
    Lint(String),
    /// Analyze and emit SDC `set_multicycle_path` constraints.
    Sdc {
        /// The `.bench` file.
        path: String,
        /// Constrain only hazard-robust pairs (using this criterion).
        robust: Option<HazardCheck>,
    },
    /// Hunt for a dynamic glitch on a specific pair and dump a VCD.
    Glitch {
        /// The `.bench` file.
        path: String,
        /// Source and sink FF names.
        src: String,
        /// Sink FF name.
        dst: String,
        /// VCD output path.
        out: String,
    },
    /// Answer NDJSON analyze requests over a Unix socket.
    Serve(String),
    /// Inspect or shrink the `--cache-dir` artifact store.
    Cache(CacheOp),
    /// Print usage.
    Help,
}

/// What the `cache` subcommand does to the artifact store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// Report per-stage entry counts and byte totals.
    Stats,
    /// Evict least-recently-touched entries down to a byte budget.
    Gc {
        /// The byte budget the store must fit after eviction.
        max_bytes: u64,
    },
}

/// Error from command-line parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCliError(pub String);

impl std::fmt::Display for ParseCliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseCliError {}

/// Usage text.
pub const USAGE: &str = "\
mcpath — implication-based multi-cycle FF-pair detection (DAC 2002)

USAGE:
  mcpath analyze <file.bench> [options]
  mcpath hazard  <file.bench> [options]
  mcpath deps    <file.bench> [options]
  mcpath kcycle  <file.bench> --max-k <K> [options]
  mcpath stats   <file.bench|report.json|ledger.ndjson>
  mcpath stats   --compare <old> <new> [--threshold <pct>]
  mcpath trace   <ledger.ndjson|report.json> [--format chrome]
  mcpath gen     <m27|m298|...|m38584>
  mcpath dot     <file.bench>
  mcpath sweep   <file.bench>
  mcpath sdc     <file.bench> [--robust sens|cosens] [options]
  mcpath glitch  <file.bench> <srcFF> <dstFF> <out.vcd>
  mcpath serve   <socket> --cache-dir <dir> [options]
  mcpath cache   stats --cache-dir <dir>
  mcpath cache   gc --cache-dir <dir> --max-bytes <N>
  mcpath lint    <file.bench> [--format text|json] [--deny <rule>]
                 [--allow <rule>] [--max-diags <n>]

OPTIONS:
  --engine implication|sat|bdd   decision engine (default: implication)
  --cycles <K>                   cycle budget (default: 2)
  --backtracks <N>               ATPG backtrack limit (default: 50)
  --learn                        enable SOCRATES-style static learning
  --threads <N>                  parallel pair workers (default: 1)
  --no-sim                       skip the random-simulation prefilter
  --sim-lanes 64|128|256|512     prefilter patterns per pass (default: 256);
                                 the outcome is identical at every width
  --max-bytes <N>                byte budget for `cache gc` (entries are
                                 evicted least-recently-touched first)
  --no-self-pairs                exclude (FFi, FFi) pairs ([9]'s convention)
  --no-lint                      analyze even if structural lints fail
  --no-slice                     engines run on the whole-circuit expansion
                                 instead of per-sink-group cone slices
  --no-static-classify           skip the dataflow pre-pass that resolves
                                 pairs with provably frozen sink FFs
  --deny <rule>                  escalate a lint rule to error severity
                                 (repeatable; `lint` only)
  --allow <rule>                 disable a lint rule entirely
                                 (repeatable; `lint` only)
  --max-diags <n>                cap the findings `lint` renders
  --format text|json|chrome      lint/trace output format
  --json <path>                  dump the report as JSON
  --canonical                    write the --json report in canonical form
                                 (timings zeroed; byte-comparable)
  --cache-dir <dir>              persist the staged pipeline artifacts so a
                                 warm rerun answers from cache (also via the
                                 MCPATH_CACHE_DIR env var); refused with
                                 --resume, which ignores MCPATH_CACHE_DIR
  --eco <old.bench>              re-verify only the sink groups touched by
                                 the edit old -> new, splicing the cached
                                 verdicts of the rest (needs --cache-dir)
  --resume <ledger.ndjson>       restart analyze from a prior run's ledger,
                                 re-verifying only the unresolved pairs
  --metrics                      print engine counters and span timings
  --trace-out <path>             write the NDJSON run ledger (header, one
                                 record per pair, timestamped span tree)
  --progress                     report pair-loop progress on stderr
                                 (--eco, --resume, --metrics, --trace-out
                                 and --progress apply to `analyze` only)
  --compare <old> <new>          diff two artifacts' deterministic counters
  --threshold <pct>              counter growth tolerated by --compare
                                 before it counts as a regression (default 0)
  --quiet                        omit the per-pair listing
";

/// Parses raw arguments (without the program name).
///
/// # Errors
///
/// Returns [`ParseCliError`] with a human-readable message on malformed
/// input.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, ParseCliError> {
    let mut args = args.into_iter().peekable();
    let sub = args
        .next()
        .ok_or_else(|| ParseCliError("missing subcommand (try `mcpath help`)".into()))?;

    let mut positional: Vec<String> = Vec::new();
    let mut engine = Engine::Implication;
    let mut cycles = 2u32;
    let mut backtracks = 50u64;
    let mut learn = false;
    let mut threads = 1usize;
    let mut no_sim = false;
    let mut sim_lanes: Option<u32> = None;
    let mut max_bytes: Option<u64> = None;
    let mut no_self_pairs = false;
    let mut no_lint = false;
    let mut no_slice = false;
    let mut no_static_classify = false;
    let mut deny: Vec<String> = Vec::new();
    let mut allow: Vec<String> = Vec::new();
    let mut max_diags: Option<usize> = None;
    let mut format: Option<OutputFormat> = None;
    let mut json = None;
    let mut canonical = false;
    let mut cache_dir = None;
    let mut eco = None;
    let mut resume = None;
    let mut metrics = false;
    let mut trace_out = None;
    let mut progress = false;
    let mut threshold = 0.0f64;
    let mut compare: Option<(String, String)> = None;
    let mut quiet = false;
    let mut max_k: Option<u32> = None;
    let mut robust_check: Option<HazardCheck> = None;

    let take_value = |args: &mut std::iter::Peekable<I::IntoIter>,
                      flag: &str|
     -> Result<String, ParseCliError> {
        args.next()
            .ok_or_else(|| ParseCliError(format!("`{flag}` needs a value")))
    };

    while let Some(a) = args.next() {
        match a.as_str() {
            "--engine" => {
                engine = match take_value(&mut args, "--engine")?.as_str() {
                    "implication" => Engine::Implication,
                    "sat" => Engine::Sat,
                    "bdd" => Engine::Bdd {
                        node_limit: 1 << 22,
                        reachability: false,
                    },
                    other => {
                        return Err(ParseCliError(format!("unknown engine `{other}`")));
                    }
                }
            }
            "--cycles" => {
                cycles = take_value(&mut args, "--cycles")?
                    .parse()
                    .map_err(|e| ParseCliError(format!("bad --cycles: {e}")))?;
            }
            "--backtracks" => {
                backtracks = take_value(&mut args, "--backtracks")?
                    .parse()
                    .map_err(|e| ParseCliError(format!("bad --backtracks: {e}")))?;
            }
            "--max-k" => {
                max_k = Some(
                    take_value(&mut args, "--max-k")?
                        .parse()
                        .map_err(|e| ParseCliError(format!("bad --max-k: {e}")))?,
                );
            }
            "--threads" => {
                threads = take_value(&mut args, "--threads")?
                    .parse()
                    .map_err(|e| ParseCliError(format!("bad --threads: {e}")))?;
            }
            "--json" => json = Some(take_value(&mut args, "--json")?),
            "--format" => {
                format = Some(match take_value(&mut args, "--format")?.as_str() {
                    "text" => OutputFormat::Text,
                    "json" => OutputFormat::Json,
                    "chrome" => OutputFormat::Chrome,
                    other => {
                        return Err(ParseCliError(format!("unknown format `{other}`")));
                    }
                })
            }
            "--trace-out" => trace_out = Some(take_value(&mut args, "--trace-out")?),
            "--cache-dir" => cache_dir = Some(take_value(&mut args, "--cache-dir")?),
            "--eco" => eco = Some(take_value(&mut args, "--eco")?),
            "--resume" => resume = Some(take_value(&mut args, "--resume")?),
            "--compare" => {
                let old = take_value(&mut args, "--compare")?;
                let new = args
                    .next()
                    .ok_or_else(|| ParseCliError("`--compare` needs two artifact paths".into()))?;
                compare = Some((old, new));
            }
            "--threshold" => {
                threshold = mcp_obs::parse_threshold_pct(&take_value(&mut args, "--threshold")?)
                    .map_err(ParseCliError)?;
            }
            "--robust" => {
                robust_check = Some(match take_value(&mut args, "--robust")?.as_str() {
                    "sensitization" | "sens" => HazardCheck::Sensitization,
                    "co-sensitization" | "cosens" => HazardCheck::CoSensitization,
                    other => {
                        return Err(ParseCliError(format!("unknown criterion `{other}`")));
                    }
                })
            }
            "--sim-lanes" => {
                sim_lanes = Some(
                    take_value(&mut args, "--sim-lanes")?
                        .parse()
                        .map_err(|e| ParseCliError(format!("bad --sim-lanes: {e}")))?,
                );
            }
            "--max-bytes" => {
                max_bytes = Some(
                    take_value(&mut args, "--max-bytes")?
                        .parse()
                        .map_err(|e| ParseCliError(format!("bad --max-bytes: {e}")))?,
                );
            }
            "--learn" => learn = true,
            "--canonical" => canonical = true,
            "--metrics" => metrics = true,
            "--progress" => progress = true,
            "--no-sim" => no_sim = true,
            "--no-self-pairs" => no_self_pairs = true,
            "--no-lint" => no_lint = true,
            "--no-slice" => no_slice = true,
            "--no-static-classify" => no_static_classify = true,
            "--deny" => deny.push(take_value(&mut args, "--deny")?),
            "--allow" => allow.push(take_value(&mut args, "--allow")?),
            "--max-diags" => {
                max_diags = Some(
                    take_value(&mut args, "--max-diags")?
                        .parse()
                        .map_err(|e| ParseCliError(format!("bad --max-diags: {e}")))?,
                );
            }
            "--quiet" => quiet = true,
            other if other.starts_with("--") => {
                return Err(ParseCliError(format!("unknown option `{other}`")));
            }
            _ => positional.push(a),
        }
    }

    let one_positional = |what: &str| -> Result<String, ParseCliError> {
        match positional.as_slice() {
            [p] => Ok(p.clone()),
            [] => Err(ParseCliError(format!("`{sub}` needs {what}"))),
            _ => Err(ParseCliError(format!("`{sub}` takes exactly one {what}"))),
        }
    };

    let action = match sub.as_str() {
        "analyze" => Action::Analyze(one_positional("a .bench file")?),
        "hazard" => Action::Hazard(one_positional("a .bench file")?),
        "deps" => Action::Deps(one_positional("a .bench file")?),
        "kcycle" => Action::Kcycle(
            one_positional("a .bench file")?,
            max_k.ok_or_else(|| ParseCliError("`kcycle` needs --max-k <K>".into()))?,
        ),
        "stats" => match &compare {
            Some((old, new)) => {
                if !positional.is_empty() {
                    return Err(ParseCliError(
                        "`stats --compare` takes no positional file".into(),
                    ));
                }
                Action::Compare {
                    old: old.clone(),
                    new: new.clone(),
                }
            }
            None => Action::Stats(one_positional("a .bench file")?),
        },
        "trace" => Action::Trace(one_positional("a ledger or report file")?),
        "gen" => Action::Gen(one_positional("a suite circuit name")?),
        "sweep" => Action::Sweep(one_positional("a .bench file")?),
        "dot" => Action::Dot(one_positional("a .bench file")?),
        "lint" => Action::Lint(one_positional("a .bench file")?),
        "sdc" => Action::Sdc {
            path: one_positional("a .bench file")?,
            robust: robust_check,
        },
        "glitch" => match positional.as_slice() {
            [path, src, dst, out] => Action::Glitch {
                path: path.clone(),
                src: src.clone(),
                dst: dst.clone(),
                out: out.clone(),
            },
            _ => {
                return Err(ParseCliError(
                    "`glitch` needs: <file.bench> <srcFF> <dstFF> <out.vcd>".into(),
                ))
            }
        },
        "serve" => {
            if cache_dir.is_none() {
                return Err(ParseCliError(
                    "`serve` needs --cache-dir <dir>: the resident artifact store \
                     is what makes repeat requests warm"
                        .into(),
                ));
            }
            Action::Serve(one_positional("a socket path")?)
        }
        "cache" => {
            let op = match positional.as_slice() {
                [op] if op == "stats" => CacheOp::Stats,
                [op] if op == "gc" => CacheOp::Gc {
                    max_bytes: max_bytes
                        .ok_or_else(|| ParseCliError("`cache gc` needs --max-bytes <N>".into()))?,
                },
                _ => {
                    return Err(ParseCliError(
                        "`cache` needs an operation: `stats` or `gc --max-bytes <N>`".into(),
                    ))
                }
            };
            Action::Cache(op)
        }
        "help" | "--help" | "-h" => Action::Help,
        other => return Err(ParseCliError(format!("unknown subcommand `{other}`"))),
    };

    // Only `analyze` reads these; any other subcommand would silently
    // ignore them.
    if !matches!(action, Action::Analyze(_)) {
        let analyze_only = [
            ("--eco", eco.is_some()),
            ("--resume", resume.is_some()),
            ("--trace-out", trace_out.is_some()),
            ("--progress", progress),
            ("--metrics", metrics),
        ];
        if let Some((flag, _)) = analyze_only.iter().find(|(_, given)| *given) {
            return Err(ParseCliError(format!("`{flag}` only applies to `analyze`")));
        }
    }
    // A run reads exactly one verdict source. ECO splicing and resume
    // each own the verdict journal, so combining them would
    // double-restore pairs; a resume never touches the store, so an
    // explicit one would be ignored.
    if resume.is_some() {
        if eco.is_some() {
            return Err(ParseCliError(
                "`--eco` cannot be combined with `--resume`".into(),
            ));
        }
        if cache_dir.is_some() {
            return Err(ParseCliError(
                "`--cache-dir` cannot be combined with `--resume`: that mode never \
                 reads or writes the artifact store"
                    .into(),
            ));
        }
    }

    // `trace` defaults to the only format it supports; everything else
    // keeps the historical text default.
    let format = format.unwrap_or(match action {
        Action::Trace(_) => OutputFormat::Chrome,
        _ => OutputFormat::Text,
    });

    let cmd = Command {
        action,
        engine,
        cycles,
        backtracks,
        learn,
        threads,
        no_sim,
        sim_lanes,
        no_self_pairs,
        no_lint,
        no_slice,
        no_static_classify,
        deny,
        allow,
        max_diags,
        format,
        json,
        canonical,
        cache_dir,
        eco,
        resume,
        metrics,
        trace_out,
        progress,
        threshold,
        quiet,
    };
    // Both modes need a store; `config()` folds in MCPATH_CACHE_DIR.
    if cmd.config().cache_dir.is_none() {
        if matches!(cmd.action, Action::Cache(_)) {
            return Err(ParseCliError(
                "`cache` needs --cache-dir <dir> (or MCPATH_CACHE_DIR)".into(),
            ));
        }
        if cmd.eco.is_some() {
            return Err(ParseCliError(
                "`--eco` needs --cache-dir <dir>: the baseline's verdicts are \
                 spliced from the artifact store"
                    .into(),
            ));
        }
    }
    Ok(cmd)
}

impl Command {
    /// Builds the observability context requested by `--trace-out` /
    /// `--progress`. The ledger arms the deterministic crash hook when
    /// `MCPATH_FAIL_AFTER_EVENTS` holds a journal-line budget.
    fn obs(&self) -> Result<ObsCtx, String> {
        let mut obs = ObsCtx::new();
        if let Some(p) = &self.trace_out {
            let file = std::fs::File::create(p).map_err(|e| format!("create `{p}`: {e}"))?;
            let fault = std::env::var(FAIL_AFTER_ENV)
                .ok()
                .and_then(|v| FailAfter::from_value(&v));
            obs = obs.with_sink(Box::new(FileSink::with_fault(file, fault)));
        }
        if self.progress {
            obs = obs.with_progress(Duration::from_millis(200));
        }
        Ok(obs)
    }

    fn config(&self) -> McConfig {
        let defaults = McConfig::default();
        let mut sim = defaults.sim;
        if let Some(lanes) = self.sim_lanes {
            // Validation happens in `analyze` (AnalyzeError::InvalidSimLanes)
            // so library callers get the same diagnostics.
            sim.lanes = lanes;
        }
        McConfig {
            sim,
            engine: self.engine,
            cycles: self.cycles,
            backtrack_limit: self.backtracks,
            static_learning: self.learn,
            threads: self.threads,
            use_sim_filter: !self.no_sim,
            include_self_pairs: !self.no_self_pairs,
            lint: !self.no_lint,
            slice: !self.no_slice,
            static_classify: !self.no_static_classify,
            // A store location is a path, so the environment may supply
            // it; the flag wins over the MCPATH_CACHE_DIR env var.
            cache_dir: self
                .cache_dir
                .as_ref()
                .map(std::path::PathBuf::from)
                .or_else(|| std::env::var_os("MCPATH_CACHE_DIR").map(std::path::PathBuf::from)),
            ..defaults
        }
    }
}

pub(crate) fn load(path: &str) -> Result<Netlist, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    bench::parse(path, &text).map_err(|e| e.to_string())
}

pub(crate) fn pair_name(nl: &Netlist, i: usize, j: usize) -> String {
    format!(
        "({}, {})",
        nl.node(nl.dffs()[i]).name(),
        nl.node(nl.dffs()[j]).name()
    )
}

/// Executes a parsed command, writing human-readable output into a string
/// (returned on success; errors are returned as strings for the binary to
/// print to stderr).
///
/// # Errors
///
/// Returns a message when the input file cannot be read or parsed, or the
/// configuration is invalid.
pub fn run(cmd: &Command) -> Result<String, String> {
    let mut out = String::new();
    match &cmd.action {
        Action::Help => out.push_str(USAGE),
        Action::Stats(path) => misc::stats(cmd, path, &mut out)?,
        Action::Compare { old, new } => misc::compare(cmd, old, new, &mut out)?,
        Action::Trace(path) => misc::trace(cmd, path, &mut out)?,
        Action::Gen(name) => misc::gen(name, &mut out)?,
        Action::Analyze(path) => analyze::analyze(cmd, path, &mut out)?,
        Action::Hazard(path) => misc::hazard(cmd, path, &mut out)?,
        Action::Sweep(path) => misc::sweep(path, &mut out)?,
        Action::Dot(path) => misc::dot(path, &mut out)?,
        Action::Lint(path) => misc::lint(cmd, path, &mut out)?,
        Action::Glitch {
            path,
            src,
            dst,
            out: vcd_path,
        } => glitch::glitch(path, src, dst, vcd_path, &mut out)?,
        Action::Sdc { path, robust } => misc::sdc(cmd, path, *robust, &mut out)?,
        Action::Deps(path) => misc::deps(cmd, path, &mut out)?,
        Action::Kcycle(path, max_k) => misc::kcycle(cmd, path, *max_k, &mut out)?,
        Action::Serve(socket) => serve::serve(cmd, socket, &mut out)?,
        Action::Cache(op) => cache::cache(cmd, op, &mut out)?,
    }
    Ok(out)
}
