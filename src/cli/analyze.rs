//! The `analyze` subcommand: the full pipeline in its fresh, cached,
//! ECO-incremental and resumed shapes. All of them funnel through
//! [`append_report`] so the rendered report is identical regardless of
//! how it was produced.

use super::render::{render_snapshot, render_step_table};
use super::{load, pair_name, Command};
use mcp_core::{analyze_from, CasStore, McReport, PairClass, Step, VerdictSource};
use mcp_netlist::Netlist;
use mcp_obs::{read_ledger_file, Ledger};
use std::fmt::Write as _;

/// Opens the artifact store named by `--cache-dir` / `MCPATH_CACHE_DIR`.
/// Returns `Ok(None)` when no cache directory is configured.
pub(crate) fn open_store(cmd: &Command) -> Result<Option<CasStore>, String> {
    cmd.cfg
        .cache_dir
        .as_ref()
        .map(CasStore::open)
        .transpose()
        .map_err(|e| e.to_string())
}

/// Reads a ledger resiliently, so a final line torn by a SIGKILL does
/// not block a restart.
fn read_ledger(p: &str) -> Result<Ledger, String> {
    read_ledger_file(p).map_err(|e| format!("cannot read ledger `{p}`: {e}"))
}

/// `analyze`: single-process, `--resume` replay, `--cache-dir` warm
/// rerun or `--eco` incremental re-analysis. Each run reads exactly one
/// verdict source.
pub(crate) fn analyze(cmd: &Command, path: &str, out: &mut String) -> Result<(), String> {
    let nl = load(path)?;
    let old = cmd.eco.as_deref().map(load).transpose()?;
    // Read the resume ledger *before* `obs()` opens `--trace-out`:
    // resuming a run onto its own ledger path is the natural CLI usage,
    // and opening the ledger truncates it.
    let ledger = cmd.resume.as_deref().map(read_ledger).transpose()?;
    // `parse_args` leaves a resume without a store, not even an
    // MCPATH_CACHE_DIR one.
    let store = open_store(cmd)?;
    let source = match (&old, &ledger, &store) {
        (Some(old), _, Some(store)) => VerdictSource::Eco { old, store },
        (Some(_), _, None) => return Err("`--eco` needs --cache-dir (or MCPATH_CACHE_DIR)".into()),
        (None, Some(ledger), _) => VerdictSource::Ledger(ledger),
        (None, None, Some(store)) => VerdictSource::Store(store),
        (None, None, None) => VerdictSource::Fresh,
    };
    let obs = cmd.obs()?;
    let analysis = analyze_from(&nl, &cmd.cfg, &obs, source).map_err(|e| e.to_string())?;
    let counters = obs.snapshot().counters;
    match (source, analysis.eco) {
        (_, Some(summary)) if summary.full_run => {
            let _ = writeln!(
                out,
                "eco: no usable baseline artifact for `{}`; ran the full analysis",
                cmd.eco.as_deref().unwrap_or_default()
            );
        }
        (_, Some(summary)) => {
            let _ = writeln!(
                out,
                "eco: {} changed / {} removed nodes; {} of {} sink groups re-verified, \
                 {} spliced ({} pairs re-verified, {} spliced)",
                summary.changed_nodes,
                summary.removed_nodes,
                summary.groups_reverified,
                summary.groups_total,
                summary.groups_spliced,
                summary.pairs_reverified,
                summary.pairs_spliced
            );
        }
        (VerdictSource::Store(_), None) if counters.cache_hits > 0 => {
            let _ = writeln!(
                out,
                "cache: hit — {} verdicts spliced, zero engine work",
                counters.cache_pairs_spliced
            );
        }
        (VerdictSource::Store(_), None) => {
            let _ = writeln!(out, "cache: miss — verdicts persisted for the next run");
        }
        (VerdictSource::Ledger(_), None) => {
            let _ = writeln!(
                out,
                "resumed: {} verdicts restored from the ledger",
                counters.resume_pairs_loaded
            );
        }
        _ => {}
    }
    append_report(out, cmd, &nl, &analysis.report)
}

/// Appends the standard `analyze`-style report output: the optional
/// `--json` dump, the summary lines, the per-pair listing (unless
/// `--quiet`), and the `--metrics` tables.
fn append_report(
    out: &mut String,
    cmd: &Command,
    nl: &Netlist,
    report: &McReport,
) -> Result<(), String> {
    if let Some(p) = &cmd.json {
        let text = if cmd.canonical {
            serde_json::to_string_pretty(&report.canonical())
        } else {
            serde_json::to_string_pretty(report)
        }
        .map_err(|e| format!("serialize: {e}"))?;
        std::fs::write(p, text).map_err(|e| format!("write `{p}`: {e}"))?;
    }
    let _ = writeln!(
        out,
        "{}: {} candidate pairs; {} multi-cycle, {} single-cycle, {} unknown",
        nl.name(),
        report.stats.candidates,
        report.stats.multi_total(),
        report.stats.single_total(),
        report.stats.unknown
    );
    let _ = writeln!(
        out,
        "steps: static resolved {} | sim dropped {} ({} words) | implication proved {} | search: {} single / {} multi",
        report.stats.multi_by_static,
        report.stats.single_by_sim,
        report.stats.sim_words,
        report.stats.multi_by_implication,
        report.stats.single_by_atpg,
        report.stats.multi_by_atpg
    );
    if !cmd.quiet {
        for p in &report.pairs {
            let verdict = match p.class {
                PairClass::MultiCycle { .. } => "multi-cycle ",
                PairClass::SingleCycle { .. } => "single-cycle",
                PairClass::Unknown => "UNKNOWN     ",
            };
            let step = match p.class {
                PairClass::MultiCycle { by } | PairClass::SingleCycle { by } => match by {
                    Step::RandomSim => "sim",
                    Step::Implication => "implication",
                    Step::Atpg => "search",
                    Step::Structural => "structural",
                },
                PairClass::Unknown => "aborted",
            };
            let _ = writeln!(
                out,
                "  {verdict} {:<24} [{step}]",
                pair_name(nl, p.src, p.dst)
            );
        }
    }
    if cmd.metrics {
        out.push('\n');
        out.push_str(&render_step_table(&report.stats));
        out.push('\n');
        out.push_str(&render_snapshot(&report.metrics));
    }
    Ok(())
}
