//! The smaller subcommands: `stats`, `stats --compare`, `trace`, `gen`,
//! `hazard`, `sweep`, `dot`, `lint`, `sdc`, `deps` and `kcycle`.

use super::render::{render_journal, render_saved_report};
use super::{load, pair_name, Command, OutputFormat};
use mcp_core::{
    analyze, check_hazards, max_cycle_budgets, sensitization_dependencies, to_sdc, CycleBudget,
    HazardCheck, McReport, SdcOptions,
};
use mcp_netlist::bench;
use mcp_obs::{
    chrome_trace, chrome_trace_from_totals, compare_artifacts, read_ledger_file, CompareConfig,
    MetricsSnapshot,
};
use std::fmt::Write as _;

/// `stats`: structural statistics of a `.bench` file, or the
/// pretty-printed observability data of a saved JSON / NDJSON artifact.
pub(crate) fn stats(path: &str, out: &mut String) -> Result<(), String> {
    if path.ends_with(".ndjson") {
        // Like `trace` and `--resume`, tolerate the final line a SIGKILL
        // tore.
        let ledger =
            read_ledger_file(path).map_err(|e| format!("cannot read journal `{path}`: {e}"))?;
        out.push_str(&render_journal(&ledger.events));
    } else if path.ends_with(".json") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        out.push_str(&render_saved_report(path, &text)?);
    } else {
        let nl = load(path)?;
        let s = nl.stats();
        let _ = writeln!(
            out,
            "{}: inputs={} outputs={} ffs={} gates={} depth={} ff_pairs={}",
            nl.name(),
            s.inputs,
            s.outputs,
            s.ffs,
            s.gates,
            nl.depth(),
            s.ff_pairs
        );
    }
    Ok(())
}

/// `stats --compare`: diff the deterministic counters of two artifacts.
pub(crate) fn compare(cmd: &Command, old: &str, new: &str, out: &mut String) -> Result<(), String> {
    let old_text = std::fs::read_to_string(old).map_err(|e| format!("cannot read `{old}`: {e}"))?;
    let new_text = std::fs::read_to_string(new).map_err(|e| format!("cannot read `{new}`: {e}"))?;
    let cmp = compare_artifacts(
        &old_text,
        &new_text,
        CompareConfig {
            threshold_pct: cmd.threshold,
        },
    )
    .map_err(|e| e.to_string())?;
    let rendered = cmp.render();
    // Regressions fail the command (exit code 1) so CI can gate
    // directly on `mcpath stats --compare`.
    if cmp.regressions() > 0 {
        return Err(format!("counter regression(s) detected:\n{rendered}"));
    }
    out.push_str(&rendered);
    Ok(())
}

/// `trace`: export an artifact's span tree as Chrome trace-event JSON.
pub(crate) fn trace(path: &str, out: &mut String) -> Result<(), String> {
    let doc = if path.ends_with(".ndjson") {
        let ledger =
            read_ledger_file(path).map_err(|e| format!("cannot read ledger `{path}`: {e}"))?;
        if ledger.spans.is_empty() {
            return Err(format!(
                "`{path}` carries no span events — the span tree is written \
                 when the run completes (re-run `analyze --trace-out` to the \
                 end, or `trace` the saved report for span totals)"
            ));
        }
        chrome_trace(&ledger.spans)
    } else {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        // Saved artifacts carry only span *totals*; degrade to a
        // proportional single-track layout.
        if let Ok(report) = serde_json::from_str::<McReport>(&text) {
            chrome_trace_from_totals(&report.metrics.spans)
        } else if let Ok(snap) = serde_json::from_str::<MetricsSnapshot>(&text) {
            chrome_trace_from_totals(&snap.spans)
        } else {
            return Err(format!(
                "`{path}` is neither an NDJSON ledger, a saved analyze \
                 report, nor a metrics snapshot"
            ));
        }
    };
    let text = serde_json::to_string_pretty(&doc).map_err(|e| format!("serialize: {e}"))?;
    out.push_str(&text);
    out.push('\n');
    Ok(())
}

/// `gen`: emit a synthetic suite circuit as `.bench` text.
pub(crate) fn gen(name: &str, out: &mut String) -> Result<(), String> {
    let nl = mcp_gen::suite::standard_suite()
        .into_iter()
        .find(|n| n.name() == name)
        .ok_or_else(|| format!("unknown suite circuit `{name}` (try m27..m38584)"))?;
    out.push_str(&bench::to_bench(&nl));
    Ok(())
}

/// Refuses a cycle budget above 2, which the hazard checks do not cover
/// (see `check_hazards_with`): vouching for k-cycle pairs on one capture
/// edge's check would hide a hazard on the others behind an exemption.
fn two_cycle_hazards_only(what: &str, cmd: &Command) -> Result<(), String> {
    let k = cmd.cfg.cycles;
    if k > 2 {
        return Err(format!(
            "`{what}` checks the 2-cycle condition only, got --cycles {k}"
        ));
    }
    Ok(())
}

/// `hazard`: analyze, then validate the multi-cycle pairs against static
/// hazards with both criteria.
pub(crate) fn hazard(cmd: &Command, path: &str, out: &mut String) -> Result<(), String> {
    two_cycle_hazards_only("hazard", cmd)?;
    let nl = load(path)?;
    let report = analyze(&nl, &cmd.cfg).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "{}: {} multi-cycle pairs by the MC condition",
        nl.name(),
        report.stats.multi_total()
    );
    for check in [HazardCheck::Sensitization, HazardCheck::CoSensitization] {
        let hz = check_hazards(&nl, &report, check);
        let _ = writeln!(
            out,
            "{check:?}: {} robust, {} potentially hazardous",
            hz.robust.len(),
            hz.demoted.len()
        );
        if !cmd.quiet {
            for &(i, j) in &hz.demoted {
                let _ = writeln!(out, "  demoted {}", pair_name(&nl, i, j));
            }
        }
    }
    Ok(())
}

/// `sweep`: simplify a `.bench` file and emit the result.
pub(crate) fn sweep(path: &str, out: &mut String) -> Result<(), String> {
    let nl = load(path)?;
    let (swept, stats) = mcp_netlist::sweep(&nl);
    eprintln!(
        "# sweep: {} -> {} gates ({} const-folded, {} wires elided, \
         {} duplicates merged, {} dead dropped)",
        stats.gates_before,
        stats.gates_after,
        stats.folded_constant,
        stats.elided_wire,
        stats.merged_duplicate,
        stats.dropped_dead
    );
    out.push_str(&bench::to_bench(&swept));
    Ok(())
}

/// `dot`: render a `.bench` file as Graphviz DOT.
pub(crate) fn dot(path: &str, out: &mut String) -> Result<(), String> {
    let nl = load(path)?;
    out.push_str(&mcp_netlist::dot::to_dot(
        &nl,
        &mcp_netlist::dot::DotOptions::default(),
    ));
    Ok(())
}

/// `lint`: run the full rule set and gate on error-level findings.
pub(crate) fn lint(cmd: &Command, path: &str, out: &mut String) -> Result<(), String> {
    // Parse permissively: the whole point of `lint` is to report on
    // netlists the strict loader would reject.
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let nl = bench::parse_unchecked(path, &text).map_err(|e| e.to_string())?;
    let registry = mcp_lint::Registry::with_default_rules();
    // `--deny`/`--allow` must name real rules — a typo silently doing
    // nothing would defeat the point of a CI gate.
    for rule in cmd.deny.iter().chain(&cmd.allow) {
        if !registry.rules().iter().any(|r| r.id == rule) {
            return Err(format!("unknown lint rule `{rule}`"));
        }
    }
    let mut lint_cfg = mcp_lint::LintConfig::default();
    for rule in &cmd.deny {
        lint_cfg = lint_cfg.deny(rule);
    }
    for rule in &cmd.allow {
        lint_cfg = lint_cfg.disable(rule);
    }
    let mut report = registry.run(&nl, &lint_cfg);
    // Error-level findings fail the command (exit code 1), judged on the
    // *full* report: a cap on the rendered list must not let errors
    // beyond it slip through the gate.
    let gate_failed = report.has_errors();
    let total = report.len();
    if let Some(cap) = cmd.max_diags {
        report.diagnostics.truncate(cap);
    }
    let rendered = match cmd.format {
        OutputFormat::Text => {
            let mut text = report.render_text(nl.name());
            if report.len() < total {
                let _ = writeln!(
                    text,
                    "(showing {} of {total} findings; raise --max-diags for the rest)",
                    report.len()
                );
            }
            text
        }
        OutputFormat::Json => report.render_json(),
    };
    if gate_failed {
        return Err(rendered);
    }
    out.push_str(&rendered);
    Ok(())
}

/// `sdc`: analyze and emit SDC `set_multicycle_path` constraints.
pub(crate) fn sdc(
    cmd: &Command,
    path: &str,
    robust: Option<HazardCheck>,
    out: &mut String,
) -> Result<(), String> {
    if robust.is_some() {
        two_cycle_hazards_only("sdc --robust", cmd)?;
    }
    let nl = load(path)?;
    let report = analyze(&nl, &cmd.cfg).map_err(|e| e.to_string())?;
    let robust_only = robust.map(|check| check_hazards(&nl, &report, check));
    let text = to_sdc(
        &nl,
        &report,
        &SdcOptions {
            robust_only,
            cycles: cmd.cfg.cycles,
        },
    );
    // Round-trip the emitted constraints through the validator before
    // handing them to the user: every `-from`/`-to` must name a real FF,
    // lie on a combinational path, and appear in the verified pair list.
    // A failure here is an internal emitter/report mismatch, never user
    // error.
    let check = mcp_lint::validate_sdc(&nl, &report.multi_cycle_pairs(), &text);
    if check.has_errors() {
        return Err(format!(
            "emitted SDC failed self-validation (internal error):\n{}",
            check.render_text(path)
        ));
    }
    out.push_str(&text);
    Ok(())
}

/// `deps`: report the cross-pair dependencies of the
/// sensitization-validated multi-cycle pairs.
pub(crate) fn deps(cmd: &Command, path: &str, out: &mut String) -> Result<(), String> {
    two_cycle_hazards_only("deps", cmd)?;
    let nl = load(path)?;
    let report = analyze(&nl, &cmd.cfg).map_err(|e| e.to_string())?;
    let deps = sensitization_dependencies(&nl, &report);
    if let Some(p) = &cmd.json {
        let text = serde_json::to_string_pretty(&deps).map_err(|e| format!("serialize: {e}"))?;
        std::fs::write(p, text).map_err(|e| format!("write `{p}`: {e}"))?;
    }
    let conditional = deps.deps.iter().filter(|(_, d)| !d.is_empty()).count();
    let _ = writeln!(
        out,
        "{}: {} sensitization-robust pairs, {} with cross-pair dependencies",
        nl.name(),
        deps.deps.len(),
        conditional
    );
    if !cmd.quiet {
        for ((i, j), d) in &deps.deps {
            if d.is_empty() {
                continue;
            }
            let list: Vec<String> = d.iter().map(|&(k, l)| pair_name(&nl, k, l)).collect();
            let _ = writeln!(
                out,
                "  {} depends on {}",
                pair_name(&nl, *i, *j),
                list.join(", ")
            );
        }
    }
    Ok(())
}

/// `kcycle`: sweep the cycle budget of every multi-cycle pair.
pub(crate) fn kcycle(
    cmd: &Command,
    path: &str,
    max_k: u32,
    out: &mut String,
) -> Result<(), String> {
    let nl = load(path)?;
    if max_k < 2 {
        return Err("--max-k must be at least 2".into());
    }
    // Classic 2-cycle analysis selects the multi-cycle pairs; the budget
    // computation then brackets each pair's maximum.
    let report = analyze(&nl, &cmd.cfg).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "{}: cycle budgets of the {} multi-cycle pairs (limit {max_k}):",
        nl.name(),
        report.stats.multi_total()
    );
    // One shared expansion, pair sweeps distributed over `--threads`
    // workers; results come back sorted by pair.
    let budgets = max_cycle_budgets(&nl, &report.multi_cycle_pairs(), max_k, &cmd.cfg)
        .map_err(|e| e.to_string())?;
    for ((i, j), budget) in budgets {
        let desc = match budget {
            CycleBudget::SingleCycle => "single-cycle (!)".to_owned(),
            CycleBudget::Exact { verified } => format!("exactly {verified} cycles"),
            CycleBudget::AtLeast { at_least } => format!("{at_least}+ cycles"),
            CycleBudget::Unknown => "unknown (search aborted)".to_owned(),
        };
        let _ = writeln!(out, "  {:<24} {desc}", pair_name(&nl, i, j));
    }
    Ok(())
}
