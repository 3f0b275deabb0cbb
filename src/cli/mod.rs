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
//! Flags parse straight into the library's [`McConfig`] ([`Command::cfg`]):
//! the analysis options `--engine implication|sat|bdd`, `--cycles K`,
//! `--backtracks N`, `--learn`, `--threads N`, `--no-sim`,
//! `--no-self-pairs` and `--no-slice` each write one field, and
//! `--cache-dir <dir>` (or the `MCPATH_CACHE_DIR` env var) writes its
//! store directory. The other flags pick outputs and modes: `--json
//! <path>`, `--canonical`, `--eco <old.bench>`, `--resume <ledger>`,
//! `--metrics`, `--trace-out <path>`, `--progress`, `--quiet`, `--max-k
//! <K>`, `--robust sens|cosens`, `--deny <rule>`, `--allow <rule>`,
//! `--max-diags <n>`, `--format text|json`, `--max-bytes <N>`,
//! `--compare <old> <new>` and `--threshold <pct>`. One table says which
//! flags each subcommand reads; [`parse_args`] refuses every other flag,
//! naming it and the subcommand.

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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Command {
    /// The subcommand and its positional payload.
    pub action: Action,
    /// The analysis configuration: [`McConfig::default()`] with each
    /// analysis flag written into its field, and the `--cache-dir` (or
    /// `MCPATH_CACHE_DIR`) store directory in `cache_dir`.
    pub cfg: McConfig,
    /// Lint rule ids escalated to error severity (`--deny`, repeatable).
    pub deny: Vec<String>,
    /// Lint rule ids disabled entirely (`--allow`, repeatable).
    pub allow: Vec<String>,
    /// Cap on the findings the `lint` subcommand renders (`--max-diags`).
    pub max_diags: Option<usize>,
    /// Output format of the `lint` subcommand.
    pub format: OutputFormat,
    /// Optional JSON report path.
    pub json: Option<String>,
    /// Write the `--json` report in canonical form (wall-clock,
    /// machine-dependent fields and the metrics projected out) for byte
    /// comparison.
    pub canonical: bool,
    /// Baseline netlist for ECO-incremental re-analysis
    /// (`analyze --eco <old.bench>`; needs a store).
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

/// Output format of the `lint` subcommand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OutputFormat {
    /// One line per finding plus a summary line.
    #[default]
    Text,
    /// Machine-readable [`mcp_lint::Diagnostics`] JSON.
    Json,
}

/// What to do.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    #[default]
    Help,
}

/// The analysis options: each writes one [`McConfig`] field.
const ANALYSIS: [&str; 8] = [
    "--engine",
    "--cycles",
    "--backtracks",
    "--learn",
    "--threads",
    "--no-sim",
    "--no-self-pairs",
    "--no-slice",
];

impl Action {
    /// The subcommand as typed and the flags it reads: the analysis
    /// options when the `bool` is set, plus the listed ones. This is the
    /// one table of which flags go where; [`parse_args`] refuses every
    /// flag a subcommand does not read.
    fn reads(&self) -> (&'static str, bool, &'static [&'static str]) {
        match self {
            Action::Analyze(_) => (
                "analyze",
                true,
                &[
                    "--cache-dir",
                    "--eco",
                    "--resume",
                    "--json",
                    "--canonical",
                    "--metrics",
                    "--trace-out",
                    "--progress",
                    "--quiet",
                ],
            ),
            Action::Hazard(_) => ("hazard", true, &["--quiet"]),
            Action::Deps(_) => ("deps", true, &["--json", "--quiet"]),
            Action::Kcycle(..) => ("kcycle", true, &["--max-k"]),
            Action::Sdc { .. } => ("sdc", true, &["--robust"]),
            Action::Serve(_) => ("serve", true, &["--cache-dir"]),
            Action::Lint(_) => (
                "lint",
                false,
                &["--deny", "--allow", "--max-diags", "--format"],
            ),
            Action::Cache(CacheOp::Stats) => ("cache stats", false, &["--cache-dir"]),
            Action::Cache(CacheOp::Gc { .. }) => {
                ("cache gc", false, &["--cache-dir", "--max-bytes"])
            }
            Action::Compare { .. } => ("stats --compare", false, &["--compare", "--threshold"]),
            Action::Stats(_) => ("stats", false, &[]),
            Action::Trace(_) => ("trace", false, &[]),
            Action::Gen(_) => ("gen", false, &[]),
            Action::Sweep(_) => ("sweep", false, &[]),
            Action::Dot(_) => ("dot", false, &[]),
            Action::Glitch { .. } => ("glitch", false, &[]),
            Action::Help => ("help", false, &[]),
        }
    }
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

/// The `--engine` names.
const ENGINES: [(&str, Engine); 3] = [
    ("implication", Engine::Implication),
    ("sat", Engine::Sat),
    (
        "bdd",
        Engine::Bdd {
            node_limit: 1 << 22,
            reachability: false,
        },
    ),
];

/// Usage text. The analysis defaults it states are read from
/// [`McConfig::default()`].
pub fn usage() -> String {
    let d = McConfig::default();
    let engine = ENGINES
        .iter()
        .find(|(_, e)| *e == d.engine)
        .map_or("?", |(name, _)| name);
    format!(
        "\
mcpath — implication-based multi-cycle FF-pair detection (DAC 2002)

USAGE:
  mcpath analyze <file.bench> [analysis options] [--json <path> [--canonical]]
                 [--cache-dir <dir>] [--eco <old.bench>] [--resume <ledger>]
                 [--metrics] [--trace-out <path>] [--progress] [--quiet]
  mcpath hazard  <file.bench> [analysis options] [--quiet]
  mcpath deps    <file.bench> [analysis options] [--json <path>] [--quiet]
  mcpath kcycle  <file.bench> --max-k <K> [analysis options]
  mcpath sdc     <file.bench> [--robust sens|cosens] [analysis options]
  mcpath serve   <socket> --cache-dir <dir> [analysis options]
  mcpath lint    <file.bench> [--format text|json] [--deny <rule>]
                 [--allow <rule>] [--max-diags <n>]
  mcpath cache   stats --cache-dir <dir>
  mcpath cache   gc --cache-dir <dir> --max-bytes <N>
  mcpath stats   <file.bench|report.json|ledger.ndjson>
  mcpath stats   --compare <old> <new> [--threshold <pct>]
  mcpath trace   <ledger.ndjson|report.json>
  mcpath gen     <m27|m298|...|m38584>
  mcpath dot     <file.bench>
  mcpath sweep   <file.bench>
  mcpath glitch  <file.bench> <srcFF> <dstFF> <out.vcd>

Each subcommand refuses the flags its line does not name.

ANALYSIS OPTIONS:
  --engine implication|sat|bdd   decision engine (default: {engine})
  --cycles <K>                   cycle budget (default: {cycles})
  --backtracks <N>               ATPG backtrack limit (default: {backtracks})
  --learn                        enable SOCRATES-style static learning
  --threads <N>                  parallel pair workers (default: {threads})
  --no-sim                       skip the random-simulation prefilter
  --no-self-pairs                exclude (FFi, FFi) pairs ([9]'s convention)
  --no-slice                     engines run on the whole-circuit expansion
                                 instead of per-sink-group cone slices

OTHER OPTIONS:
  --json <path>                  dump the report (`deps`: the dependencies)
                                 as JSON
  --canonical                    write the --json report in canonical form
                                 (verdicts and per-step counts only: timings
                                 zeroed, no metrics; byte-comparable)
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
  --quiet                        omit the per-pair listing
  --max-k <K>                    largest cycle budget `kcycle` tries
  --robust sens|cosens           constrain only the pairs that pass this
                                 hazard check
  --format text|json             lint output format
  --deny <rule>                  escalate a lint rule to error severity
                                 (repeatable)
  --allow <rule>                 disable a lint rule entirely (repeatable)
  --max-diags <n>                cap the findings `lint` renders
  --max-bytes <N>                byte budget for `cache gc` (entries are
                                 evicted least-recently-touched first)
  --compare <old> <new>          diff two artifacts' deterministic counters
  --threshold <pct>              counter growth tolerated by --compare
                                 before it counts as a regression (default 0)
",
        cycles = d.cycles,
        backtracks = d.backtrack_limit,
        threads = d.threads,
    )
}

/// The value after `flag`.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, ParseCliError> {
    args.next()
        .ok_or_else(|| ParseCliError(format!("`{flag}` needs a value")))
}

/// The value after `flag`, parsed as a number.
fn number<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, ParseCliError>
where
    T::Err: std::fmt::Display,
{
    value(args, flag)?
        .parse()
        .map_err(|e| ParseCliError(format!("bad {flag}: {e}")))
}

/// Parses raw arguments (without the program name).
///
/// # Errors
///
/// Returns [`ParseCliError`] with a human-readable message on malformed
/// input, and for any flag the subcommand does not read.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, ParseCliError> {
    let mut args = args.into_iter();
    let sub = args
        .next()
        .ok_or_else(|| ParseCliError("missing subcommand (try `mcpath help`)".into()))?;

    let mut cmd = Command::default();
    let mut positional: Vec<String> = Vec::new();
    // Every flag as given, checked against the subcommand's table below.
    let mut given: Vec<String> = Vec::new();
    let mut max_k: Option<u32> = None;
    let mut robust: Option<HazardCheck> = None;
    let mut max_bytes: Option<u64> = None;
    let mut compare: Option<(String, String)> = None;

    while let Some(flag) = args.next() {
        if !flag.starts_with("--") {
            positional.push(flag);
            continue;
        }
        let cfg = &mut cmd.cfg;
        match flag.as_str() {
            "--engine" => {
                let name = value(&mut args, &flag)?;
                cfg.engine = ENGINES
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, engine)| engine)
                    .ok_or_else(|| ParseCliError(format!("unknown engine `{name}`")))?;
            }
            "--cycles" => cfg.cycles = number(&mut args, &flag)?,
            "--backtracks" => cfg.backtrack_limit = number(&mut args, &flag)?,
            "--learn" => cfg.static_learning = true,
            "--threads" => cfg.threads = number(&mut args, &flag)?,
            "--no-sim" => cfg.use_sim_filter = false,
            "--no-self-pairs" => cfg.include_self_pairs = false,
            "--no-slice" => cfg.slice = false,
            "--cache-dir" => cfg.cache_dir = Some(value(&mut args, &flag)?.into()),
            "--json" => cmd.json = Some(value(&mut args, &flag)?),
            "--canonical" => cmd.canonical = true,
            "--eco" => cmd.eco = Some(value(&mut args, &flag)?),
            "--resume" => cmd.resume = Some(value(&mut args, &flag)?),
            "--metrics" => cmd.metrics = true,
            "--trace-out" => cmd.trace_out = Some(value(&mut args, &flag)?),
            "--progress" => cmd.progress = true,
            "--quiet" => cmd.quiet = true,
            "--max-k" => max_k = Some(number(&mut args, &flag)?),
            "--robust" => {
                robust = Some(match value(&mut args, &flag)?.as_str() {
                    "sensitization" | "sens" => HazardCheck::Sensitization,
                    "co-sensitization" | "cosens" => HazardCheck::CoSensitization,
                    other => {
                        return Err(ParseCliError(format!("unknown criterion `{other}`")));
                    }
                })
            }
            "--format" => {
                cmd.format = match value(&mut args, &flag)?.as_str() {
                    "text" => OutputFormat::Text,
                    "json" => OutputFormat::Json,
                    other => {
                        return Err(ParseCliError(format!("unknown format `{other}`")));
                    }
                }
            }
            "--deny" => cmd.deny.push(value(&mut args, &flag)?),
            "--allow" => cmd.allow.push(value(&mut args, &flag)?),
            "--max-diags" => cmd.max_diags = Some(number(&mut args, &flag)?),
            "--max-bytes" => max_bytes = Some(number(&mut args, &flag)?),
            "--compare" => {
                let old = value(&mut args, &flag)?;
                let new = args
                    .next()
                    .ok_or_else(|| ParseCliError("`--compare` needs two artifact paths".into()))?;
                compare = Some((old, new));
            }
            "--threshold" => {
                cmd.threshold = mcp_obs::parse_threshold_pct(&value(&mut args, &flag)?)
                    .map_err(ParseCliError)?;
            }
            _ => return Err(ParseCliError(format!("unknown option `{flag}`"))),
        }
        given.push(flag);
    }

    let one_positional = |what: &str| -> Result<String, ParseCliError> {
        match positional.as_slice() {
            [p] => Ok(p.clone()),
            [] => Err(ParseCliError(format!("`{sub}` needs {what}"))),
            _ => Err(ParseCliError(format!("`{sub}` takes exactly one {what}"))),
        }
    };

    cmd.action = match sub.as_str() {
        "analyze" => Action::Analyze(one_positional("a .bench file")?),
        "hazard" => Action::Hazard(one_positional("a .bench file")?),
        "deps" => Action::Deps(one_positional("a .bench file")?),
        "kcycle" => Action::Kcycle(
            one_positional("a .bench file")?,
            max_k.ok_or_else(|| ParseCliError("`kcycle` needs --max-k <K>".into()))?,
        ),
        "stats" => match compare {
            Some((old, new)) => {
                if !positional.is_empty() {
                    return Err(ParseCliError(
                        "`stats --compare` takes no positional file".into(),
                    ));
                }
                Action::Compare { old, new }
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
            robust,
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
        "serve" => Action::Serve(one_positional("a socket path")?),
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

    // A flag the subcommand does not read would be dropped without a
    // word.
    let (name, analysis, reads) = cmd.action.reads();
    let read = |flag: &str| analysis && ANALYSIS.contains(&flag) || reads.contains(&flag);
    if let Some(flag) = given.iter().find(|flag| !read(flag)) {
        return Err(ParseCliError(format!(
            "`{flag}` does not apply to `{name}`"
        )));
    }
    if cmd.canonical && cmd.json.is_none() {
        return Err(ParseCliError(
            "`--canonical` only applies to `analyze --json`".into(),
        ));
    }
    // A run reads exactly one verdict source. ECO splicing and resume
    // each own the verdict journal, so combining them would
    // double-restore pairs; a resume never touches the store, so an
    // explicit one would be ignored.
    if cmd.resume.is_some() {
        if cmd.eco.is_some() {
            return Err(ParseCliError(
                "`--eco` cannot be combined with `--resume`".into(),
            ));
        }
        if cmd.cfg.cache_dir.is_some() {
            return Err(ParseCliError(
                "`--cache-dir` cannot be combined with `--resume`: that mode never \
                 reads or writes the artifact store"
                    .into(),
            ));
        }
    } else if read("--cache-dir") && cmd.cfg.cache_dir.is_none() {
        // MCPATH_CACHE_DIR is the env form of `--cache-dir`; the flag
        // wins, and a resume ignores both.
        cmd.cfg.cache_dir = std::env::var_os("MCPATH_CACHE_DIR").map(Into::into);
    }
    if cmd.cfg.cache_dir.is_none() {
        let needs_store = match cmd.action {
            Action::Serve(_) => Some(
                "`serve` needs --cache-dir <dir> (or MCPATH_CACHE_DIR): the resident \
                 artifact store is what makes repeat requests warm",
            ),
            Action::Cache(_) => Some("`cache` needs --cache-dir <dir> (or MCPATH_CACHE_DIR)"),
            _ if cmd.eco.is_some() => Some(
                "`--eco` needs --cache-dir <dir>: the baseline's verdicts are spliced \
                 from the artifact store",
            ),
            _ => None,
        };
        if let Some(msg) = needs_store {
            return Err(ParseCliError(msg.into()));
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
        Action::Help => out.push_str(&usage()),
        Action::Stats(path) => misc::stats(path, &mut out)?,
        Action::Compare { old, new } => misc::compare(cmd, old, new, &mut out)?,
        Action::Trace(path) => misc::trace(path, &mut out)?,
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
