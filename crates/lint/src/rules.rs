//! The built-in lint rules.
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
//! Every rule reads its facts from the shared [`AnalysisIndex`] the
//! registry computes once per run (see [`crate::dataflow`]); none of
//! them traverses the netlist graph beyond a linear node scan.
//!
//! [`sweep`]: mod@mcp_netlist::sweep

use crate::{AnalysisIndex, Diagnostic, Diagnostics, LintRule, Severity};
use mcp_netlist::{Defect, Netlist, NodeId};

/// All built-in rules, Error rules first.
pub fn default_rules() -> Vec<Box<dyn LintRule>> {
    let hygiene: [Box<dyn LintRule>; 10] = [
        Box::new(FloatingNet),
        Box::new(UnreachableLogic),
        Box::new(ConstantDff),
        Box::new(DanglingFf),
        Box::new(UnobservableLogic),
        Box::new(ConstImpliedNet),
        Box::new(ConstFoldable),
        Box::new(SelfLoopDff),
        Box::new(XPropToDff),
        Box::new(DomainMixing),
    ];
    STRUCTURAL
        .into_iter()
        .map(|(id, description)| Box::new(Structural { id, description }) as Box<dyn LintRule>)
        .chain(hygiene)
        .collect()
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

// ---------------------------------------------------------------------
// Error rules
// ---------------------------------------------------------------------

/// An Error rule: reports one class of the netlist's structural defects
/// ([`Netlist::defects`], read from the shared index), one finding per
/// defect.
///
/// The 2-frame expansion and every engine assume the combinational part
/// is a DAG, that every gate has a fanin count its kind allows (the
/// evaluators panic otherwise), and that every FF has exactly one D
/// driver (`Netlist::ff_d_input` panics on an unconnected one). Two
/// nodes with one name make name-based lookups (`find_node`, SDC
/// `-from`/`-to` cells) ambiguous.
struct Structural {
    id: &'static str,
    description: &'static str,
}

/// The Error rules, in report order: `(id, description)`.
const STRUCTURAL: [(&str, &str); 6] = [
    ("comb-cycle", "combinational cycle in the gate graph"),
    ("zero-width-gate", "gate with an empty fanin list"),
    ("bad-arity", "NOT/BUF gate with more than one fanin"),
    ("unconnected-dff", "DFF whose D input was never connected"),
    ("multi-driven-dff", "DFF with more than one D driver"),
    ("duplicate-name", "two nodes sharing one name"),
];

/// The id of the Error rule that reports `defect`.
fn rule_of(netlist: &Netlist, defect: &Defect) -> &'static str {
    match defect {
        Defect::CombinationalCycle(_) => "comb-cycle",
        Defect::BadArity(id) if netlist.node(*id).fanins().is_empty() => "zero-width-gate",
        Defect::BadArity(_) => "bad-arity",
        Defect::UnconnectedDff(_) => "unconnected-dff",
        Defect::MultiDrivenDff(_) => "multi-driven-dff",
        Defect::DuplicateName(_) => "duplicate-name",
    }
}

/// Pushes one finding for each of `defects` that `rule` reports.
fn push_findings(
    rule: &'static str,
    netlist: &Netlist,
    defects: &[Defect],
    out: &mut Vec<Diagnostic>,
) {
    let name = |id: NodeId| netlist.node(id).name();
    for defect in defects.iter().filter(|d| rule_of(netlist, d) == rule) {
        let (nodes, message) = match *defect {
            Defect::CombinationalCycle(ref gates) => (
                gates.clone(),
                format!(
                    "combinational cycle through {} gate(s): {}",
                    gates.len(),
                    name_list(netlist, gates, 8)
                ),
            ),
            Defect::BadArity(id) => {
                let node = netlist.node(id);
                let message = match node.fanins().len() {
                    0 => format!("gate `{}` has no fanins", node.name()),
                    got => format!(
                        "gate `{}` of kind {} cannot take {got} inputs",
                        node.name(),
                        node.kind().gate_kind().expect("arity defects are gates")
                    ),
                };
                (vec![id], message)
            }
            Defect::UnconnectedDff(id) => (vec![id], format!("DFF `{}` has no D input", name(id))),
            Defect::MultiDrivenDff(id) => {
                let drivers = netlist.node(id).fanins().len();
                (
                    vec![id],
                    format!("DFF `{}` has {drivers} D drivers", name(id)),
                )
            }
            Defect::DuplicateName(ref ids) => (
                ids.clone(),
                format!("{} nodes named `{}`", ids.len(), name(ids[0])),
            ),
        };
        out.push(Diagnostic::new(rule, Severity::Error, nodes, message));
    }
}

impl LintRule for Structural {
    fn id(&self) -> &'static str {
        self.id
    }
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn check(&self, netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Diagnostic>) {
        push_findings(self.id, netlist, index.defects(), out);
    }
}

/// The Error findings for a netlist's structural `defects`, in rule
/// order: the findings the default registry reports for them, and the
/// report the pipeline's admission gate refuses a corrupt netlist with.
pub fn structural_report(netlist: &Netlist, defects: &[Defect]) -> Diagnostics {
    let mut report = Diagnostics::default();
    for (rule, _) in STRUCTURAL {
        push_findings(rule, netlist, defects, &mut report.diagnostics);
    }
    report
}

// ---------------------------------------------------------------------
// Warn rules
// ---------------------------------------------------------------------

/// `floating-net`: a gate nothing reads and no output marks drives
/// nothing observable — usually a netlist extraction bug.
pub struct FloatingNet;

impl LintRule for FloatingNet {
    fn id(&self) -> &'static str {
        "floating-net"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "gate with no readers that is not a primary output"
    }
    fn check(&self, netlist: &Netlist, _index: &AnalysisIndex, out: &mut Vec<Diagnostic>) {
        for (id, node) in netlist.nodes() {
            if node.kind().is_gate()
                && netlist.fanouts(id).is_empty()
                && !netlist.outputs().contains(&id)
            {
                out.push(Diagnostic::new(
                    self.id(),
                    self.default_severity(),
                    [id],
                    format!("gate `{}` drives nothing", node.name()),
                ));
            }
        }
    }
}

/// `unreachable-logic`: gates outside every observable cone (backward
/// from primary outputs and FF D inputs). They cost analysis time and
/// usually indicate an incomplete extraction; `sweep` would drop them.
pub struct UnreachableLogic;

impl LintRule for UnreachableLogic {
    fn id(&self) -> &'static str {
        "unreachable-logic"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "gates with no path to any output or FF"
    }
    fn check(&self, netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Diagnostic>) {
        let dead: Vec<NodeId> = netlist
            .nodes()
            .filter(|(id, node)| node.kind().is_gate() && !index.is_live(*id))
            .map(|(id, _)| id)
            .collect();
        if !dead.is_empty() {
            let msg = format!(
                "{} gate(s) unreachable from any output or FF: {}",
                dead.len(),
                name_list(netlist, &dead, 8)
            );
            out.push(Diagnostic::new(
                self.id(),
                self.default_severity(),
                dead,
                msg,
            ));
        }
    }
}

/// `constant-dff`: a DFF fed a provably constant D value settles after
/// one clock and never transitions again — its FF pairs are trivially
/// multi-cycle for the wrong reason (dead source), which usually means a
/// tied-off mode pin rather than a real register.
pub struct ConstantDff;

impl LintRule for ConstantDff {
    fn id(&self) -> &'static str {
        "constant-dff"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "DFF whose D input is a provable constant"
    }
    fn check(&self, netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Diagnostic>) {
        for (id, node) in netlist.nodes() {
            if !node.kind().is_dff() || node.fanins().len() != 1 {
                continue;
            }
            let d = node.fanins()[0];
            if let Some(v) = index.base_value(d).to_bool() {
                out.push(Diagnostic::new(
                    self.id(),
                    self.default_severity(),
                    [id],
                    format!(
                        "DFF `{}` is fed constant {} by `{}`",
                        node.name(),
                        u8::from(v),
                        netlist.node(d).name()
                    ),
                ));
            }
        }
    }
}

/// `dangling-ff`: a DFF nothing reads and no output marks; its state is
/// unobservable, so every pair ending in it is wasted analysis work.
pub struct DanglingFf;

impl LintRule for DanglingFf {
    fn id(&self) -> &'static str {
        "dangling-ff"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "DFF with no readers that is not a primary output"
    }
    fn check(&self, netlist: &Netlist, _index: &AnalysisIndex, out: &mut Vec<Diagnostic>) {
        for (id, node) in netlist.nodes() {
            if node.kind().is_dff()
                && netlist.fanouts(id).is_empty()
                && !netlist.outputs().contains(&id)
            {
                out.push(Diagnostic::new(
                    self.id(),
                    self.default_severity(),
                    [id],
                    format!("DFF `{}` is never read", node.name()),
                ));
            }
        }
    }
}

/// `unobservable-logic`: gates that *structurally* reach an output or FF
/// but whose every path runs through a fixpoint-constant gate — they can
/// never influence anything observable. Strictly stronger than
/// `unreachable-logic` (which these gates pass) and disjoint from the
/// constant rules (the gates themselves are not constant).
pub struct UnobservableLogic;

impl LintRule for UnobservableLogic {
    fn id(&self) -> &'static str {
        "unobservable-logic"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "live gates that only feed fixpoint-constant logic"
    }
    fn check(&self, netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Diagnostic>) {
        let dark: Vec<NodeId> = netlist
            .nodes()
            .filter(|(id, node)| {
                node.kind().is_gate()
                    && index.is_live(*id)
                    && !index.is_observable(*id)
                    && !index.fix_value(*id).is_definite()
            })
            .map(|(id, _)| id)
            .collect();
        if !dark.is_empty() {
            let msg = format!(
                "{} live gate(s) shadowed by constants, unable to influence any output or FF: {}",
                dark.len(),
                name_list(netlist, &dark, 8)
            );
            out.push(Diagnostic::new(
                self.id(),
                self.default_severity(),
                dark,
                msg,
            ));
        }
    }
}

/// `const-implied-net`: nets that are **not** combinationally constant
/// but settle to a constant once the sequential fixpoint is reached —
/// e.g. a register ladder seeded by a tied-off pin. The first frames
/// after power-up may still differ, which is exactly why these are
/// surfaced separately from `const-foldable`.
pub struct ConstImpliedNet;

impl LintRule for ConstImpliedNet {
    fn id(&self) -> &'static str {
        "const-implied-net"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "nets constant only through the sequential fixpoint"
    }
    fn check(&self, netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Diagnostic>) {
        let implied: Vec<NodeId> = netlist
            .nodes()
            .filter(|(id, node)| {
                (node.kind().is_gate() || node.kind().is_dff())
                    && index.fix_value(*id).is_definite()
                    && !index.base_value(*id).is_definite()
            })
            .map(|(id, _)| id)
            .collect();
        if !implied.is_empty() {
            let msg = format!(
                "{} net(s) become constant after {} clock edge(s): {}",
                implied.len(),
                index.lattice().iterations,
                name_list(netlist, &implied, 8)
            );
            out.push(Diagnostic::new(
                self.id(),
                self.default_severity(),
                implied,
                msg,
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Info rules
// ---------------------------------------------------------------------

/// `const-foldable`: gates whose output is a provable constant under
/// ternary propagation from `CONST` drivers. One aggregate finding —
/// cross-checked against `sweep`'s `folded_constant` in tests.
pub struct ConstFoldable;

impl LintRule for ConstFoldable {
    fn id(&self) -> &'static str {
        "const-foldable"
    }
    fn default_severity(&self) -> Severity {
        Severity::Info
    }
    fn description(&self) -> &'static str {
        "gates computing a provable constant"
    }
    fn check(&self, netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Diagnostic>) {
        let foldable: Vec<NodeId> = netlist
            .nodes()
            .filter(|(id, node)| node.kind().is_gate() && index.base_value(*id).is_definite())
            .map(|(id, _)| id)
            .collect();
        if !foldable.is_empty() {
            let msg = format!(
                "{} gate(s) fold to constants: {}",
                foldable.len(),
                name_list(netlist, &foldable, 8)
            );
            out.push(Diagnostic::new(
                self.id(),
                self.default_severity(),
                foldable,
                msg,
            ));
        }
    }
}

/// `self-loop-dff`: an FF in its own D cone becomes a self pair `(i, i)`
/// in the frame expansion — legitimate for hold multiplexers, but worth
/// surfacing because such pairs dominate `include_self_pairs` runs.
pub struct SelfLoopDff;

impl LintRule for SelfLoopDff {
    fn id(&self) -> &'static str {
        "self-loop-dff"
    }
    fn default_severity(&self) -> Severity {
        Severity::Info
    }
    fn description(&self) -> &'static str {
        "FF structurally feeding its own D input"
    }
    fn check(&self, netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Diagnostic>) {
        for (j, &ff) in netlist.dffs().iter().enumerate() {
            if netlist.node(ff).fanins().len() != 1 {
                continue; // unconnected/multi-driven: their own Error rules
            }
            if index.cone_ffs(j).binary_search(&j).is_ok() {
                out.push(Diagnostic::new(
                    self.id(),
                    self.default_severity(),
                    [ff],
                    format!("DFF `{}` feeds its own D input", netlist.node(ff).name()),
                ));
            }
        }
    }
}

/// `x-prop-to-dff`: FFs that no primary input can ever influence, even
/// transitively, and that the fixpoint cannot prove constant — their
/// power-up X persists for the life of the machine. Free-running
/// counters and ring state machines are the legitimate shape; an X-fed
/// datapath register is the bug this surfaces.
pub struct XPropToDff;

impl LintRule for XPropToDff {
    fn id(&self) -> &'static str {
        "x-prop-to-dff"
    }
    fn default_severity(&self) -> Severity {
        Severity::Info
    }
    fn description(&self) -> &'static str {
        "FF whose power-up X can persist forever"
    }
    fn check(&self, netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Diagnostic>) {
        let stuck: Vec<NodeId> = netlist
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
        if !stuck.is_empty() {
            let msg = format!(
                "{} FF(s) unreachable from any primary input; power-up X persists: {}",
                stuck.len(),
                name_list(netlist, &stuck, 8)
            );
            out.push(Diagnostic::new(
                self.id(),
                self.default_severity(),
                stuck,
                msg,
            ));
        }
    }
}

/// `domain-mixing`: FF pairs whose source and sink carry *different*
/// inferred load-enable domains. On a single-clock netlist this marks
/// the enable-domain crossings where multi-cycle transfers live; once
/// the model grows real multiple clocks the same rule will flag clock
/// domain crossings, hence Info for now.
pub struct DomainMixing;

impl LintRule for DomainMixing {
    fn id(&self) -> &'static str {
        "domain-mixing"
    }
    fn default_severity(&self) -> Severity {
        Severity::Info
    }
    fn description(&self) -> &'static str {
        "FF pair crossing different inferred enable domains"
    }
    fn check(&self, netlist: &Netlist, index: &AnalysisIndex, out: &mut Vec<Diagnostic>) {
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
            let mut msg = format!(
                "{crossings} FF pair(s) cross different enable domains: {}",
                samples.join(", ")
            );
            if crossings > samples.len() {
                msg.push_str(", ...");
            }
            out.push(Diagnostic::new(
                self.id(),
                self.default_severity(),
                involved,
                msg,
            ));
        }
    }
}
