//! The built-in lint rules: the [`RULES`] table and one check function
//! per rule.
//!
//! | id | severity | finding |
//! |----|----------|---------|
//! | `comb-cycle` | Error | combinational cycle (SCC over the gate graph) |
//! | `zero-width-gate` | Error | gate with an empty fanin list |
//! | `bad-arity` | Error | NOT/BUF gate with more than one fanin |
//! | `unconnected-dff` | Error | DFF whose D input was never connected |
//! | `multi-driven-dff` | Error | DFF with more than one D driver |
//! | `duplicate-name` | Error | two nodes sharing one name |
//! | `floating-net` | Warn | gate that nothing reads and no output marks |
//! | `unreachable-logic` | Warn | gates with no path to any FF or output |
//! | `constant-dff` | Warn | DFF fed by a provably constant D input |
//! | `dangling-ff` | Warn | DFF that nothing reads and no output marks |
//! | `unobservable-logic` | Warn | live gates hidden behind fixpoint constants |
//! | `const-implied-net` | Warn | nets constant only through the sequential fixpoint |
//! | `const-foldable` | Info | gates computing a provable constant |
//! | `self-loop-dff` | Info | FF structurally feeding its own D input |
//! | `x-prop-to-dff` | Info | FF forever dependent on its power-up X |
//! | `domain-mixing` | Info | FF pair crossing different inferred enable domains |
//!
//! The Error rules report the structural defects [`Netlist::defects`]
//! lists, one finding per defect: the check `NetlistBuilder::finish`
//! refuses with and the pipeline's admission gate runs. The defects can
//! only occur in netlists from `finish_unchecked` or external
//! deserializers, and they make analysis results meaningless.
//! The Warn rules flag hygiene problems that a [`sweep`] would remove or
//! that the dataflow analysis proves semantically dead. The Info rules
//! mark structure the multi-cycle analysis treats specially (constant
//! cones shrink, self-loops become `(i, i)` pairs in the frame
//! expansion, enable-domain crossings are where multi-cycle transfers
//! live).
//!
//! Every check reads its facts from the shared [`AnalysisIndex`] the
//! registry computes once per run (see [`crate::dataflow`]); none of
//! them traverses the netlist graph beyond a linear node scan.
//!
//! [`sweep`]: mod@mcp_netlist::sweep

use crate::{AnalysisIndex, Diagnostics, Finding, LintConfig, Registry, Rule, Severity};
use mcp_netlist::{Defect, Netlist, NodeId};

/// The built-in rules, in report order: Error, then Warn, then Info.
pub const RULES: [Rule; 16] = [
    rule("comb-cycle", Severity::Error, comb_cycle),
    rule("zero-width-gate", Severity::Error, zero_width_gate),
    rule("bad-arity", Severity::Error, bad_arity),
    rule("unconnected-dff", Severity::Error, unconnected_dff),
    rule("multi-driven-dff", Severity::Error, multi_driven_dff),
    rule("duplicate-name", Severity::Error, duplicate_name),
    rule("floating-net", Severity::Warn, floating_net),
    rule("unreachable-logic", Severity::Warn, unreachable_logic),
    rule("constant-dff", Severity::Warn, constant_dff),
    rule("dangling-ff", Severity::Warn, dangling_ff),
    rule("unobservable-logic", Severity::Warn, unobservable_logic),
    rule("const-implied-net", Severity::Warn, const_implied_net),
    rule("const-foldable", Severity::Info, const_foldable),
    rule("self-loop-dff", Severity::Info, self_loop_dff),
    rule("x-prop-to-dff", Severity::Info, x_prop_to_dff),
    rule("domain-mixing", Severity::Info, domain_mixing),
];

const fn rule(
    id: &'static str,
    severity: Severity,
    check: fn(&Netlist, &AnalysisIndex, &mut Vec<Finding>),
) -> Rule {
    Rule {
        id,
        severity,
        check,
    }
}

/// Formats up to `cap` node names for a message, eliding the rest.
fn name_list(netlist: &Netlist, nodes: &[NodeId], cap: usize) -> String {
    let mut names: Vec<&str> = nodes
        .iter()
        .take(cap)
        .map(|&id| netlist.node(id).name())
        .collect();
    if nodes.len() > cap {
        names.push("...");
    }
    names.join(", ")
}

/// Pushes one finding for all of `nodes`, when there are any: their
/// count, `what` they are, and the first eight names.
fn aggregate(netlist: &Netlist, nodes: Vec<NodeId>, what: &str, out: &mut Vec<Finding>) {
    if !nodes.is_empty() {
        let message = format!("{} {what}: {}", nodes.len(), name_list(netlist, &nodes, 8));
        out.push((nodes, message));
    }
}

// ---------------------------------------------------------------------
// Error rules
// ---------------------------------------------------------------------
//
// Each reports one class of the netlist's structural defects
// ([`Netlist::defects`], read from the shared index), one finding per
// defect. The 2-frame expansion and every engine assume the
// combinational part is a DAG, that every gate has a fanin count its
// kind allows (the evaluators panic otherwise), and that every FF has
// exactly one D driver (`Netlist::ff_d_input` panics on an unconnected
// one). Two nodes with one name make name-based lookups (`find_node`,
// SDC `-from`/`-to` cells) ambiguous.

fn comb_cycle(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    for defect in index.defects() {
        if let Defect::CombinationalCycle(gates) = defect {
            let message = format!(
                "combinational cycle through {} gate(s): {}",
                gates.len(),
                name_list(netlist, gates, 8)
            );
            out.push((gates.clone(), message));
        }
    }
}

/// The gates of the netlist's arity defects that have no fanins
/// (`zero`) or some.
fn arity_defects<'a>(
    netlist: &'a Netlist,
    index: &'a AnalysisIndex,
    zero: bool,
) -> impl Iterator<Item = NodeId> + 'a {
    index
        .defects()
        .iter()
        .filter_map(move |defect| match *defect {
            Defect::BadArity(id) if netlist.node(id).fanins().is_empty() == zero => Some(id),
            _ => None,
        })
}

fn zero_width_gate(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    for id in arity_defects(netlist, index, true) {
        out.push((
            vec![id],
            format!("gate `{}` has no fanins", netlist.node(id).name()),
        ));
    }
}

fn bad_arity(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    for id in arity_defects(netlist, index, false) {
        let node = netlist.node(id);
        let message = format!(
            "gate `{}` of kind {} cannot take {} inputs",
            node.name(),
            node.kind().gate_kind().expect("arity defects are gates"),
            node.fanins().len()
        );
        out.push((vec![id], message));
    }
}

fn unconnected_dff(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    for defect in index.defects() {
        if let Defect::UnconnectedDff(id) = *defect {
            out.push((
                vec![id],
                format!("DFF `{}` has no D input", netlist.node(id).name()),
            ));
        }
    }
}

fn multi_driven_dff(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    for defect in index.defects() {
        if let Defect::MultiDrivenDff(id) = *defect {
            let node = netlist.node(id);
            let message = format!(
                "DFF `{}` has {} D drivers",
                node.name(),
                node.fanins().len()
            );
            out.push((vec![id], message));
        }
    }
}

fn duplicate_name(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    for defect in index.defects() {
        if let Defect::DuplicateName(ids) = defect {
            let message = format!(
                "{} nodes named `{}`",
                ids.len(),
                netlist.node(ids[0]).name()
            );
            out.push((ids.clone(), message));
        }
    }
}

/// The Error findings for a netlist's structural `defects`, in rule
/// order: the findings the registry reports for them, and the report the
/// pipeline's admission gate refuses a corrupt netlist with. Only the
/// Error rules run, on an index that holds nothing but `defects`.
pub fn structural_report(netlist: &Netlist, defects: &[Defect]) -> Diagnostics {
    let index = AnalysisIndex::of_defects(defects.to_vec());
    Registry.run_on(netlist, &index, &LintConfig::errors_only())
}

// ---------------------------------------------------------------------
// Warn rules
// ---------------------------------------------------------------------

/// A gate nothing reads and no output marks drives nothing observable —
/// usually a netlist extraction bug.
fn floating_net(netlist: &Netlist, _index: &AnalysisIndex, out: &mut Vec<Finding>) {
    for (id, node) in netlist.nodes() {
        if node.kind().is_gate()
            && netlist.fanouts(id).is_empty()
            && !netlist.outputs().contains(&id)
        {
            out.push((vec![id], format!("gate `{}` drives nothing", node.name())));
        }
    }
}

/// Gates outside every observable cone (backward from primary outputs
/// and FF D inputs). They cost analysis time and usually indicate an
/// incomplete extraction; `sweep` would drop them.
fn unreachable_logic(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    let dead = netlist
        .nodes()
        .filter(|(id, node)| node.kind().is_gate() && !index.is_live(*id))
        .map(|(id, _)| id)
        .collect();
    aggregate(
        netlist,
        dead,
        "gate(s) unreachable from any output or FF",
        out,
    );
}

/// A DFF fed a provably constant D value settles after one clock and
/// never transitions again — its FF pairs are trivially multi-cycle for
/// the wrong reason (dead source), which usually means a tied-off mode
/// pin rather than a real register.
fn constant_dff(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    for (id, node) in netlist.nodes() {
        if !node.kind().is_dff() || node.fanins().len() != 1 {
            continue;
        }
        let d = node.fanins()[0];
        if let Some(v) = index.base_value(d).to_bool() {
            let message = format!(
                "DFF `{}` is fed constant {} by `{}`",
                node.name(),
                u8::from(v),
                netlist.node(d).name()
            );
            out.push((vec![id], message));
        }
    }
}

/// A DFF nothing reads and no output marks; its state is unobservable,
/// so every pair ending in it is wasted analysis work.
fn dangling_ff(netlist: &Netlist, _index: &AnalysisIndex, out: &mut Vec<Finding>) {
    for (id, node) in netlist.nodes() {
        if node.kind().is_dff()
            && netlist.fanouts(id).is_empty()
            && !netlist.outputs().contains(&id)
        {
            out.push((vec![id], format!("DFF `{}` is never read", node.name())));
        }
    }
}

/// Gates that *structurally* reach an output or FF but whose every path
/// runs through a fixpoint-constant gate — they can never influence
/// anything observable. Strictly stronger than `unreachable-logic`
/// (which these gates pass) and disjoint from the constant rules (the
/// gates themselves are not constant).
fn unobservable_logic(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    let dark = netlist
        .nodes()
        .filter(|(id, node)| {
            node.kind().is_gate()
                && index.is_live(*id)
                && !index.is_observable(*id)
                && !index.fix_value(*id).is_definite()
        })
        .map(|(id, _)| id)
        .collect();
    aggregate(
        netlist,
        dark,
        "live gate(s) shadowed by constants, unable to influence any output or FF",
        out,
    );
}

/// Nets that are **not** combinationally constant but settle to a
/// constant once the sequential fixpoint is reached — e.g. a register
/// ladder seeded by a tied-off pin. The first frames after power-up may
/// still differ, which is exactly why these are surfaced separately from
/// `const-foldable`.
fn const_implied_net(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    let implied = netlist
        .nodes()
        .filter(|(id, node)| {
            (node.kind().is_gate() || node.kind().is_dff())
                && index.fix_value(*id).is_definite()
                && !index.base_value(*id).is_definite()
        })
        .map(|(id, _)| id)
        .collect();
    let what = format!(
        "net(s) become constant after {} clock edge(s)",
        index.lattice().iterations
    );
    aggregate(netlist, implied, &what, out);
}

// ---------------------------------------------------------------------
// Info rules
// ---------------------------------------------------------------------

/// Gates whose output is a provable constant under ternary propagation
/// from `CONST` drivers. One aggregate finding — cross-checked against
/// `sweep`'s `folded_constant` in tests.
fn const_foldable(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    let foldable = netlist
        .nodes()
        .filter(|(id, node)| node.kind().is_gate() && index.base_value(*id).is_definite())
        .map(|(id, _)| id)
        .collect();
    aggregate(netlist, foldable, "gate(s) fold to constants", out);
}

/// An FF in its own D cone becomes a self pair `(i, i)` in the frame
/// expansion — legitimate for hold multiplexers, but worth surfacing
/// because such pairs dominate `include_self_pairs` runs.
fn self_loop_dff(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    for (j, &ff) in netlist.dffs().iter().enumerate() {
        if netlist.node(ff).fanins().len() != 1 {
            continue; // unconnected/multi-driven: their own Error rules
        }
        if index.cone_ffs(j).binary_search(&j).is_ok() {
            out.push((
                vec![ff],
                format!("DFF `{}` feeds its own D input", netlist.node(ff).name()),
            ));
        }
    }
}

/// FFs that no primary input can ever influence, even transitively, and
/// that the fixpoint cannot prove constant — their power-up X persists
/// for the life of the machine. Free-running counters and ring state
/// machines are the legitimate shape; an X-fed datapath register is the
/// bug this surfaces.
fn x_prop_to_dff(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    let stuck = netlist
        .dffs()
        .iter()
        .enumerate()
        .filter(|&(j, &ff)| {
            !netlist.node(ff).fanins().is_empty()
                && !index.seq_has_pi(j)
                && !index.fix_value(ff).is_definite()
        })
        .map(|(_, &ff)| ff)
        .collect();
    aggregate(
        netlist,
        stuck,
        "FF(s) unreachable from any primary input; power-up X persists",
        out,
    );
}

/// FF pairs whose source and sink carry *different* inferred load-enable
/// domains. On a single-clock netlist this marks the enable-domain
/// crossings where multi-cycle transfers live; once the model grows real
/// multiple clocks the same rule will flag clock domain crossings, hence
/// Info for now.
fn domain_mixing(netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Finding>) {
    let mut crossings = 0usize;
    let mut involved: Vec<NodeId> = Vec::new();
    let mut samples: Vec<String> = Vec::new();
    for j in 0..netlist.num_ffs() {
        for &i in index.cone_ffs(j) {
            if i == j {
                continue;
            }
            let (src, dst) = (index.domain(i), index.domain(j));
            // Only a crossing when both ends are provably gated —
            // "ungated feeds gated" is ordinary datapath structure.
            let gated = src.enable.is_some() && dst.enable.is_some();
            if gated && !src.same_domain(dst) {
                crossings += 1;
                involved.push(netlist.dffs()[i]);
                involved.push(netlist.dffs()[j]);
                if samples.len() < 4 {
                    samples.push(format!(
                        "{} -> {}",
                        netlist.node(netlist.dffs()[i]).name(),
                        netlist.node(netlist.dffs()[j]).name()
                    ));
                }
            }
        }
    }
    if crossings > 0 {
        involved.sort_unstable();
        involved.dedup();
        let mut message = format!(
            "{crossings} FF pair(s) cross different enable domains: {}",
            samples.join(", ")
        );
        if crossings > samples.len() {
            message.push_str(", ...");
        }
        out.push((involved, message));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcp_logic::GateKind;
    use mcp_netlist::NetlistBuilder;
    use std::collections::BTreeSet;

    #[test]
    fn rule_ids_are_unique() {
        let ids: BTreeSet<&str> = RULES.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), RULES.len());
    }

    /// The Error entries come first, and they are exactly the rules
    /// `structural_report` emits, in table order.
    #[test]
    fn error_rules_lead_the_table_and_are_the_structural_report() {
        let errors = RULES
            .iter()
            .take_while(|r| r.severity == Severity::Error)
            .count();
        assert!(RULES[errors..].iter().all(|r| r.severity < Severity::Error));

        // One defect of every class: a 2-gate cycle, a zero-width gate,
        // a NOT with two fanins, an unconnected and a multi-driven DFF,
        // and a duplicated name.
        let mut b = NetlistBuilder::new("every-defect");
        let a = b.input("a");
        let g1 = b.gate("g1", GateKind::And, [a, a]).unwrap();
        let g2 = b.gate("g2", GateKind::Buf, [g1]).unwrap();
        b.rewire_fanin(g1, 1, g2).unwrap();
        b.raw_node("zw", mcp_netlist::NodeKind::Gate(GateKind::And), Vec::new());
        b.raw_node(
            "wide",
            mcp_netlist::NodeKind::Gate(GateKind::Not),
            vec![a, a],
        );
        let open = b.dff("open");
        let multi = b.raw_node("multi", mcp_netlist::NodeKind::Dff, vec![a, g2]);
        b.raw_node("a", mcp_netlist::NodeKind::Gate(GateKind::Not), vec![a]);
        b.mark_output(open);
        b.mark_output(multi);
        let nl = b.finish_unchecked();

        let report = structural_report(&nl, &nl.defects());
        let emitted: Vec<&str> = report.iter().map(|d| d.rule.as_str()).collect();
        let error_ids: Vec<&str> = RULES[..errors].iter().map(|r| r.id).collect();
        assert_eq!(emitted, error_ids);
        assert!(report.iter().all(|d| d.severity == Severity::Error));
    }
}
