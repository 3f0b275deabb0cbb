//! Validation of emitted `set_multicycle_path` constraints.
//!
//! `core::sdc::to_sdc` renders the analysis result as SDC text; this
//! module closes the loop by parsing that text back and cross-checking it
//! against the netlist and the verified pair list. The check catches an
//! entire class of pipeline bugs — stale reports applied to a different
//! netlist, renamed FFs, report/emitter index mismatches — before the
//! constraints reach a timing tool that would silently mis-apply them.
//!
//! Rules (all findings carry the 1-based line number):
//!
//! | id | severity | finding |
//! |----|----------|---------|
//! | `sdc-syntax` | Error | line is not a well-formed multicycle command |
//! | `sdc-unknown-cell` | Error | `-from`/`-to` names no FF in the netlist |
//! | `sdc-no-path` | Error | constrained pair has no combinational path |
//! | `sdc-unverified-pair` | Error | setup pair absent from the verified list |
//! | `sdc-hold-mismatch` | Warn | setup/hold companions disagree or miss |

use crate::{Diagnostic, Diagnostics, Severity};
use mcp_netlist::Netlist;
use std::collections::BTreeMap;

/// One parsed `set_multicycle_path` command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdcConstraint {
    /// 1-based line number in the source text.
    pub line: usize,
    /// The path multiplier.
    pub cycles: u32,
    /// `true` for `-setup`, `false` for `-hold`.
    pub setup: bool,
    /// Cell name in the `-from [get_cells {...}]` clause.
    pub from: String,
    /// Cell name in the `-to [get_cells {...}]` clause.
    pub to: String,
}

/// Parses SDC text of the shape `to_sdc` emits.
///
/// Comment (`#`) and blank lines are skipped. Every other line must be a
/// `set_multicycle_path` command; malformed lines become `sdc-syntax`
/// diagnostics instead of constraints.
pub fn parse_sdc(text: &str) -> (Vec<SdcConstraint>, Vec<Diagnostic>) {
    let mut constraints = Vec::new();
    let mut diags = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match parse_line(trimmed) {
            Ok((cycles, setup, from, to)) => constraints.push(SdcConstraint {
                line,
                cycles,
                setup,
                from,
                to,
            }),
            Err(why) => diags.push(Diagnostic::at_line(
                "sdc-syntax",
                Severity::Error,
                line,
                format!("{why}: `{trimmed}`"),
            )),
        }
    }
    (constraints, diags)
}

fn parse_line(line: &str) -> Result<(u32, bool, String, String), String> {
    let mut toks = line.split_whitespace();
    if toks.next() != Some("set_multicycle_path") {
        return Err("expected `set_multicycle_path`".to_owned());
    }
    let cycles: u32 = toks
        .next()
        .ok_or_else(|| "missing path multiplier".to_owned())?
        .parse()
        .map_err(|_| "path multiplier is not a number".to_owned())?;
    let setup = match toks.next() {
        Some("-setup") => true,
        Some("-hold") => false,
        _ => return Err("expected `-setup` or `-hold`".to_owned()),
    };
    let from = parse_cell(&mut toks, "-from")?;
    let to = parse_cell(&mut toks, "-to")?;
    if let Some(extra) = toks.next() {
        return Err(format!("trailing token `{extra}`"));
    }
    Ok((cycles, setup, from, to))
}

/// Parses `<flag> [get_cells {NAME}]` from the token stream.
fn parse_cell<'a>(toks: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<String, String> {
    if toks.next() != Some(flag) {
        return Err(format!("expected `{flag}`"));
    }
    if toks.next() != Some("[get_cells") {
        return Err(format!("expected `[get_cells` after `{flag}`"));
    }
    let cell = toks
        .next()
        .ok_or_else(|| format!("missing cell after `{flag} [get_cells`"))?;
    cell.strip_prefix('{')
        .and_then(|c| c.strip_suffix("}]"))
        .filter(|c| !c.is_empty())
        .map(str::to_owned)
        .ok_or_else(|| format!("malformed cell `{cell}` (expected `{{name}}]`)"))
}

/// Validates SDC text against the netlist it constrains and the verified
/// multi-cycle pair list of the report that produced it.
///
/// `verified_pairs` holds `(src_ff_index, dst_ff_index)` pairs the
/// analysis proved multi-cycle (e.g. `McReport::multi_cycle_pairs()`, or
/// a hazard-robust subset — any superset of the emitted pairs is valid).
pub fn validate_sdc(
    netlist: &Netlist,
    verified_pairs: &[(usize, usize)],
    text: &str,
) -> Diagnostics {
    let (constraints, syntax) = parse_sdc(text);
    let mut report = Diagnostics {
        diagnostics: syntax,
    };

    // Resolve each constraint to FF indices; report unknown cells once
    // per offending line.
    let mut resolved: Vec<(usize, (usize, usize), u32, bool)> = Vec::new();
    for c in &constraints {
        let src = resolve_ff(netlist, &c.from, c.line, "-from", &mut report);
        let dst = resolve_ff(netlist, &c.to, c.line, "-to", &mut report);
        if let (Some(i), Some(j)) = (src, dst) {
            resolved.push((c.line, (i, j), c.cycles, c.setup));
        }
    }

    for &(line, (i, j), _, setup) in &resolved {
        if !netlist.ffs_connected(i, j) {
            report.push(Diagnostic::at_line(
                "sdc-no-path",
                Severity::Error,
                line,
                format!(
                    "no combinational path from `{}` to `{}`",
                    netlist.node(netlist.dffs()[i]).name(),
                    netlist.node(netlist.dffs()[j]).name()
                ),
            ));
        }
        if setup && !verified_pairs.contains(&(i, j)) {
            report.push(Diagnostic::at_line(
                "sdc-unverified-pair",
                Severity::Error,
                line,
                format!(
                    "pair `{}` -> `{}` is not in the verified multi-cycle set",
                    netlist.node(netlist.dffs()[i]).name(),
                    netlist.node(netlist.dffs()[j]).name()
                ),
            ));
        }
    }

    // Setup/hold companionship: every setup k should have a hold k-1 on
    // the same pair, and no hold should appear alone.
    let mut setups: BTreeMap<(usize, usize), (usize, u32)> = BTreeMap::new();
    let mut holds: BTreeMap<(usize, usize), (usize, u32)> = BTreeMap::new();
    for &(line, pair, cycles, setup) in &resolved {
        let slot = if setup { &mut setups } else { &mut holds };
        if let Some(&(first_line, _)) = slot.get(&pair) {
            report.push(Diagnostic::at_line(
                "sdc-hold-mismatch",
                Severity::Warn,
                line,
                format!(
                    "duplicate {} constraint for this pair (first at line {first_line})",
                    if setup { "-setup" } else { "-hold" }
                ),
            ));
        } else {
            slot.insert(pair, (line, cycles));
        }
    }
    for (pair, &(line, k)) in &setups {
        // Multipliers are untrusted `u32`s: compare in `i64`, where
        // `k - 1` can neither wrap nor overflow.
        let expected = i64::from(k) - 1;
        match holds.get(pair) {
            None => report.push(Diagnostic::at_line(
                "sdc-hold-mismatch",
                Severity::Warn,
                line,
                format!("-setup {k} has no companion -hold {expected}"),
            )),
            Some(&(hold_line, h)) if i64::from(h) != expected => report.push(Diagnostic::at_line(
                "sdc-hold-mismatch",
                Severity::Warn,
                hold_line,
                format!("-hold {h} does not match -setup {k} (expected {expected})"),
            )),
            Some(_) => {}
        }
    }
    for (pair, &(line, h)) in &holds {
        if !setups.contains_key(pair) {
            report.push(Diagnostic::at_line(
                "sdc-hold-mismatch",
                Severity::Warn,
                line,
                format!("-hold {h} has no companion -setup"),
            ));
        }
    }

    report
}

/// Looks a cell name up as a DFF; pushes `sdc-unknown-cell` on failure.
fn resolve_ff(
    netlist: &Netlist,
    name: &str,
    line: usize,
    flag: &str,
    report: &mut Diagnostics,
) -> Option<usize> {
    match netlist.find_node(name).and_then(|id| netlist.ff_index(id)) {
        Some(k) => Some(k),
        None => {
            report.push(Diagnostic::at_line(
                "sdc-unknown-cell",
                Severity::Error,
                line,
                format!(
                    "{flag} cell `{name}` is not a flip-flop of `{}`",
                    netlist.name()
                ),
            ));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcp_logic::GateKind;
    use mcp_netlist::NetlistBuilder;

    /// FF1 -> (XOR) -> FF2, FF3 isolated; pairs: (0,1) connected.
    fn tri() -> Netlist {
        let mut b = NetlistBuilder::new("tri");
        let a = b.input("a");
        let ff1 = b.dff("FF1");
        let ff2 = b.dff("FF2");
        let ff3 = b.dff("FF3");
        let g = b.gate("g", GateKind::Xor, [ff1, a]).unwrap();
        b.set_dff_input(ff1, a).unwrap();
        b.set_dff_input(ff2, g).unwrap();
        b.set_dff_input(ff3, a).unwrap();
        b.mark_output(ff2);
        b.mark_output(ff3);
        b.finish().unwrap()
    }

    fn pair_text(k: u32, from: &str, to: &str) -> String {
        format!(
            "set_multicycle_path {k} -setup -from [get_cells {{{from}}}] -to [get_cells {{{to}}}]\n\
             set_multicycle_path {} -hold  -from [get_cells {{{from}}}] -to [get_cells {{{to}}}]\n",
            k - 1
        )
    }

    #[test]
    fn well_formed_text_validates_cleanly() {
        let nl = tri();
        let text = format!("# header comment\n\n{}", pair_text(2, "FF1", "FF2"));
        let report = validate_sdc(&nl, &[(0, 1)], &text);
        assert!(report.is_empty(), "{report:?}");
    }

    #[test]
    fn parser_extracts_fields_and_line_numbers() {
        let (cs, diags) = parse_sdc(&format!("# c\n{}", pair_text(3, "FF1", "FF2")));
        assert!(diags.is_empty());
        assert_eq!(cs.len(), 2);
        assert_eq!(
            cs[0],
            SdcConstraint {
                line: 2,
                cycles: 3,
                setup: true,
                from: "FF1".to_owned(),
                to: "FF2".to_owned(),
            }
        );
        assert!(!cs[1].setup);
        assert_eq!(cs[1].cycles, 2);
    }

    #[test]
    fn garbage_lines_are_syntax_errors() {
        let nl = tri();
        for bad in [
            "set_multicycle_path two -setup -from [get_cells {FF1}] -to [get_cells {FF2}]",
            "set_multicycle_path 2 -both -from [get_cells {FF1}] -to [get_cells {FF2}]",
            "set_multicycle_path 2 -setup -from [get_cells FF1] -to [get_cells {FF2}]",
            "set_multicycle_path 2 -setup -from [get_cells {FF1}]",
            "set_multicycle_path 2 -setup -from [get_cells {FF1}] -to [get_cells {FF2}] extra",
            "create_clock -period 10",
        ] {
            let report = validate_sdc(&nl, &[(0, 1)], bad);
            assert_eq!(report.len(), 1, "{bad}: {report:?}");
            let d = report.iter().next().unwrap();
            assert_eq!(d.rule, "sdc-syntax", "{bad}");
            assert_eq!(d.line, Some(1));
            assert_eq!(d.severity, Severity::Error);
        }
    }

    #[test]
    fn unknown_cells_are_reported_per_clause() {
        let nl = tri();
        // `a` exists but is not an FF; `nope` does not exist at all.
        let text = pair_text(2, "a", "nope");
        let report = validate_sdc(&nl, &[(0, 1)], &text);
        let unknown: Vec<_> = report
            .iter()
            .filter(|d| d.rule == "sdc-unknown-cell")
            .collect();
        assert_eq!(unknown.len(), 4); // 2 clauses x setup+hold lines
        assert!(unknown[0].message.contains("`a`"));
    }

    #[test]
    fn pairs_without_a_path_are_errors() {
        let nl = tri();
        // FF3 has no combinational path to FF2.
        let text = pair_text(2, "FF3", "FF2");
        let report = validate_sdc(&nl, &[(2, 1)], &text);
        assert!(report.iter().any(|d| d.rule == "sdc-no-path"));
    }

    #[test]
    fn unverified_pairs_are_errors() {
        let nl = tri();
        let text = pair_text(2, "FF1", "FF2");
        let report = validate_sdc(&nl, &[], &text);
        let unverified: Vec<_> = report
            .iter()
            .filter(|d| d.rule == "sdc-unverified-pair")
            .collect();
        // Only the -setup line carries the verification obligation.
        assert_eq!(unverified.len(), 1);
        assert_eq!(unverified[0].line, Some(1));
    }

    #[test]
    fn hold_companions_are_cross_checked() {
        let nl = tri();
        let setup_only =
            "set_multicycle_path 2 -setup -from [get_cells {FF1}] -to [get_cells {FF2}]";
        let report = validate_sdc(&nl, &[(0, 1)], setup_only);
        assert!(report
            .iter()
            .any(|d| d.rule == "sdc-hold-mismatch" && d.severity == Severity::Warn));

        let hold_only = "set_multicycle_path 1 -hold -from [get_cells {FF1}] -to [get_cells {FF2}]";
        let report = validate_sdc(&nl, &[(0, 1)], hold_only);
        assert!(report.iter().any(|d| d.rule == "sdc-hold-mismatch"));

        let wrong_k =
            "set_multicycle_path 3 -setup -from [get_cells {FF1}] -to [get_cells {FF2}]\n\
             set_multicycle_path 1 -hold -from [get_cells {FF1}] -to [get_cells {FF2}]";
        let report = validate_sdc(&nl, &[(0, 1)], wrong_k);
        let d = report
            .iter()
            .find(|d| d.rule == "sdc-hold-mismatch")
            .expect("mismatch");
        assert!(d.message.contains("does not match"), "{d:?}");
        assert_eq!(d.line, Some(2));
    }

    /// The companion check at the `u32` edges, where `h + 1` or `k - 1`
    /// would overflow: each input must yield exactly one typed mismatch
    /// on the `-hold` line.
    fn edge_mismatch(setup: u32, hold: u32) {
        let nl = tri();
        let text = format!(
            "set_multicycle_path {setup} -setup -from [get_cells {{FF1}}] -to [get_cells {{FF2}}]\n\
             set_multicycle_path {hold} -hold -from [get_cells {{FF1}}] -to [get_cells {{FF2}}]"
        );
        let report = validate_sdc(&nl, &[(0, 1)], &text);
        let mismatches: Vec<_> = report
            .iter()
            .filter(|d| d.rule == "sdc-hold-mismatch")
            .collect();
        assert_eq!(mismatches.len(), 1, "{report:?}");
        assert_eq!(mismatches[0].line, Some(2));
        assert!(mismatches[0].message.contains("does not match"));
    }

    #[test]
    fn setup_zero_with_a_hold_is_a_mismatch_not_a_panic() {
        edge_mismatch(0, 0);
        edge_mismatch(0, 1);
    }

    #[test]
    fn hold_at_u32_max_is_a_mismatch_not_a_panic() {
        // `u32::MAX + 1` must not wrap to 0 and pass as the companion
        // of `-setup 0`.
        edge_mismatch(0, u32::MAX);
        edge_mismatch(2, u32::MAX);
    }

    #[test]
    fn duplicate_constraints_are_flagged() {
        let nl = tri();
        let text = format!(
            "{}{}",
            pair_text(2, "FF1", "FF2"),
            pair_text(2, "FF1", "FF2")
        );
        let report = validate_sdc(&nl, &[(0, 1)], &text);
        let dups: Vec<_> = report
            .iter()
            .filter(|d| d.message.contains("duplicate"))
            .collect();
        assert_eq!(dups.len(), 2); // one per repeated setup + repeated hold
    }
}
