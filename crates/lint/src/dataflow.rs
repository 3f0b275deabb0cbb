//! Shared fixed-point dataflow analysis over a [`Netlist`].
//!
//! Every semantic lint rule used to re-derive its own facts — constant
//! propagation three times, two backward reachability walks, one cone
//! walk per FF. This module computes all of it **once** per netlist into
//! an [`AnalysisIndex`] that the rule registry hands to every rule, next
//! to the netlist's structural defects ([`Netlist::defects`]), and
//! exposes the constant lattice standalone ([`const_lattice`]) for the
//! pipeline's static pair pre-classification.
//!
//! # The ternary constant lattice
//!
//! Abstract values are [`V3`]: `X` (unknown) below the definite values
//! `0` and `1` in the information order (`X ⊑ 0`, `X ⊑ 1`; `0` and `1`
//! incomparable). The forward interpreter starts from the **all-X
//! state** — `CONST` drivers definite, every PI and FF output `X` — and
//! evaluates the combinational gates in topological order with
//! [`GateKind::eval_v3`](mcp_logic::GateKind::eval_v3), which exploits
//! controlling values (`AND(0, X) = 0`). That first iterate is
//! [`ConstLattice::base`].
//!
//! FF state is then widened across clock edges to a fixpoint: each round
//! replaces every FF's abstract value by its D driver's value from the
//! previous round and re-evaluates the gates. Because the all-X start is
//! below every concrete state and ternary evaluation is monotone in the
//! information order, the iterate chain only ever moves `X → definite`,
//! so it converges in at most `#FFs` rounds ([`ConstLattice::iterations`]
//! counts them). The result is [`ConstLattice::fix`].
//!
//! # Soundness
//!
//! * `base[n] = c` ⟹ node `n` evaluates to `c` at **every** time step of
//!   **every** concrete run, regardless of the power-up state (the all-X
//!   state abstracts any state, and the state at time `m` is abstracted
//!   by the `m`-th iterate, which is above the first).
//! * `fix[n] = c` ⟹ `n` evaluates to `c` at every time `≥ iterations`
//!   (the chain is stationary from there on). The value in the first few
//!   frames may still depend on the power-up state.
//!
//! This asymmetry is why the pipeline's static pair classification only
//! trusts `base`: a pair verdict quantifies over frame 1, where only the
//! first iterate is valid.

use mcp_logic::V3;
use mcp_netlist::{Defect, Netlist, NodeId, NodeKind};

/// Candidate control nets probed per FF during domain inference; bounds
/// the per-FF probing cost on cones with many sources.
const MAX_DOMAIN_CANDIDATES: usize = 8;

// ---------------------------------------------------------------------
// The forward constant/X interpreter
// ---------------------------------------------------------------------

/// The forward ternary constant analysis: first iterate, fixpoint, and
/// how many widening rounds the fixpoint took.
#[derive(Debug, Clone)]
pub struct ConstLattice {
    /// Per-node value of the first Kleene iterate (all FFs/PIs `X`):
    /// definite entries hold at **every** time step from any state.
    pub base: Vec<V3>,
    /// Per-node fixpoint value after widening FF state across clock
    /// edges: definite entries hold at every time `≥ iterations`.
    pub fix: Vec<V3>,
    /// Clock-edge widening rounds until the FF state stabilized.
    pub iterations: u32,
}

impl ConstLattice {
    /// Nodes definite in the first iterate.
    pub fn num_definite_base(&self) -> usize {
        self.base.iter().filter(|v| v.is_definite()).count()
    }

    /// Nodes definite at the fixpoint (always ≥ the base count).
    pub fn num_definite_fix(&self) -> usize {
        self.fix.iter().filter(|v| v.is_definite()).count()
    }
}

/// Runs the forward constant/X interpreter standalone.
///
/// This is the entry point for the pipeline's static pair pre-pass,
/// which needs the lattice but none of the index's backward passes.
pub fn const_lattice(netlist: &Netlist) -> ConstLattice {
    let mut values = vec![V3::X; netlist.num_nodes()];
    for (id, node) in netlist.nodes() {
        if let NodeKind::Const(v) = node.kind() {
            values[id.index()] = V3::from(v);
        }
    }
    eval_gates(netlist, &mut values);
    let base = values.clone();
    let mut iterations = 0u32;
    loop {
        // Clock edge: FF value := D driver value. The chain is monotone
        // from the all-X start (ternary eval is monotone, so the next
        // iterate of a definite FF equals it); the X-only guard keeps
        // the loop trivially terminating even on corrupt netlists.
        let mut changed = false;
        for &ff in netlist.dffs() {
            let node = netlist.node(ff);
            let Some(&d) = node.fanins().first() else {
                continue; // unconnected DFF: its own Error rule
            };
            let next = values[d.index()];
            if values[ff.index()] == V3::X && next != V3::X {
                values[ff.index()] = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        iterations += 1;
        eval_gates(netlist, &mut values);
    }
    ConstLattice {
        base,
        fix: values,
        iterations,
    }
}

/// One topological evaluation sweep over the gates. Gates of a wrong
/// arity (an Error defect) and gates outside the topological order
/// (cyclic, unchecked netlists) keep their current value.
fn eval_gates(netlist: &Netlist, values: &mut [V3]) {
    for &g in netlist.topo_gates() {
        if let Some(v) = eval(netlist, g, values) {
            values[g.index()] = v;
        }
    }
}

/// Ternary-evaluates gate `g` over `values`, or `None` when its fanin
/// count is one its kind does not allow: such a gate reads X.
fn eval(netlist: &Netlist, g: NodeId, values: &[V3]) -> Option<V3> {
    let node = netlist.node(g);
    let kind = node.kind().gate_kind().expect("evaluated nodes are gates");
    kind.takes(node.fanins().len())
        .then(|| kind.eval_v3(node.fanins().iter().map(|f| values[f.index()])))
}

// ---------------------------------------------------------------------
// Structural passes shared by the rules
// ---------------------------------------------------------------------

/// Backward reachability from the primary outputs and every FF D input.
/// With `fix` given, the walk is *semantic*: it does not descend through
/// gates whose fixpoint value is definite — a constant gate transmits no
/// information, so its cone cannot influence anything through it.
fn backward_reach(netlist: &Netlist, fix: Option<&[V3]>) -> Vec<bool> {
    let mut reached = vec![false; netlist.num_nodes()];
    let mut stack: Vec<NodeId> = Vec::new();
    let mark = |id: NodeId, reached: &mut Vec<bool>, stack: &mut Vec<NodeId>| {
        if !reached[id.index()] {
            reached[id.index()] = true;
            stack.push(id);
        }
    };
    for &po in netlist.outputs() {
        mark(po, &mut reached, &mut stack);
    }
    for &ff in netlist.dffs() {
        // Unconnected DFFs (their own Error) simply seed nothing.
        for &d in netlist.node(ff).fanins() {
            mark(d, &mut reached, &mut stack);
        }
    }
    while let Some(n) = stack.pop() {
        if !netlist.node(n).kind().is_gate() {
            continue;
        }
        if fix.is_some_and(|f| f[n.index()].is_definite()) {
            continue; // constant output: fanins cannot act through it
        }
        for &f in netlist.node(n).fanins() {
            mark(f, &mut reached, &mut stack);
        }
    }
    reached
}

// ---------------------------------------------------------------------
// Per-FF cones and domain inference
// ---------------------------------------------------------------------

/// The combinational fan-in cone of one FF's D input.
#[derive(Debug, Clone, Default)]
struct FfCone {
    /// Cone gates in topological (evaluation) order.
    gates: Vec<NodeId>,
    /// Every cone node: gates plus the source/constant frontier.
    all: Vec<NodeId>,
    /// FF and PI source nodes, in node-id order.
    srcs: Vec<NodeId>,
    /// Source FF indices, sorted.
    ffs: Vec<usize>,
    /// Whether any primary input reaches the cone.
    has_pi: bool,
}

/// The clock/reset/enable domain inferred for one FF.
///
/// Inference pins one candidate control net at a time to a constant and
/// ternary-evaluates the FF's D cone, so every tag is a *sound necessary
/// condition* (the net provably forces the behavior), not a complete
/// controllability analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FfDomain {
    /// Clock index of the FF. The netlist model is single-clock today,
    /// so this is always 0; the field exists so multi-clock support
    /// changes data, not shape.
    pub clock: u32,
    /// Load enable: `(net, active_level)` — with the net at the
    /// *opposite* level the FF provably holds its own value
    /// (`D(Q=0) = 0` and `D(Q=1) = 1`), so it can only load new data
    /// while `net == active_level`.
    pub enable: Option<(NodeId, bool)>,
    /// Synchronous reset: `(net, active_level, value)` — whenever
    /// `net == active_level`, the D input is forced to `value`
    /// regardless of every other cone source.
    pub reset: Option<(NodeId, bool, bool)>,
}

impl FfDomain {
    /// `true` when two FFs sit in the same inferred domain: same clock
    /// and the same (or no) load-enable condition.
    pub fn same_domain(&self, other: &FfDomain) -> bool {
        self.clock == other.clock && self.enable == other.enable
    }
}

fn build_cones(netlist: &Netlist) -> Vec<FfCone> {
    // Topological position of each gate, for sorting cone gates into
    // evaluation order.
    let mut topo_pos = vec![u32::MAX; netlist.num_nodes()];
    for (pos, &g) in netlist.topo_gates().iter().enumerate() {
        topo_pos[g.index()] = pos as u32;
    }
    let mut cones = Vec::with_capacity(netlist.num_ffs());
    let mut seen = vec![false; netlist.num_nodes()];
    for &ff in netlist.dffs() {
        let mut cone = FfCone::default();
        let Some(&d) = netlist.node(ff).fanins().first() else {
            cones.push(cone);
            continue; // unconnected DFF
        };
        let mut stack = vec![d];
        seen[d.index()] = true;
        while let Some(id) = stack.pop() {
            cone.all.push(id);
            let node = netlist.node(id);
            match node.kind() {
                NodeKind::Dff => {
                    cone.srcs.push(id);
                    cone.ffs
                        .push(netlist.ff_index(id).expect("dff has ff index"));
                }
                NodeKind::Input => {
                    cone.srcs.push(id);
                    cone.has_pi = true;
                }
                NodeKind::Const(_) => {}
                NodeKind::Gate(_) => {
                    cone.gates.push(id);
                    for &f in node.fanins() {
                        if !seen[f.index()] {
                            seen[f.index()] = true;
                            stack.push(f);
                        }
                    }
                }
            }
        }
        for &id in &cone.all {
            seen[id.index()] = false; // reset the scratch for the next FF
        }
        cone.gates.sort_unstable_by_key(|g| topo_pos[g.index()]);
        cone.srcs.sort_unstable();
        cone.ffs.sort_unstable();
        cones.push(cone);
    }
    cones
}

/// Ternary-evaluates one FF cone with some sources pinned to constants;
/// returns the D input's value. `scratch` must be `num_nodes` long and is
/// fully re-initialized over the cone, so it can be reused across calls.
fn eval_cone(
    netlist: &Netlist,
    cone: &FfCone,
    d: NodeId,
    pins: &[(NodeId, V3)],
    scratch: &mut [V3],
) -> V3 {
    for &id in &cone.all {
        scratch[id.index()] = match netlist.node(id).kind() {
            NodeKind::Const(v) => V3::from(v),
            _ => V3::X,
        };
    }
    for &(id, v) in pins {
        scratch[id.index()] = v;
    }
    for &g in &cone.gates {
        // A cyclic cone (unchecked netlist) evaluates in discovery order;
        // unresolved fanins read X, which is sound.
        if let Some(v) = eval(netlist, g, scratch) {
            scratch[g.index()] = v;
        }
    }
    scratch[d.index()]
}

fn infer_domains(netlist: &Netlist, cones: &[FfCone]) -> Vec<FfDomain> {
    let mut scratch = vec![V3::X; netlist.num_nodes()];
    let mut domains = Vec::with_capacity(cones.len());
    for (j, cone) in cones.iter().enumerate() {
        let mut dom = FfDomain::default();
        let q = netlist.dffs()[j];
        let Some(&d) = netlist.node(q).fanins().first() else {
            domains.push(dom);
            continue;
        };
        // Candidate control nets: FF/PI sources of the cone, excluding
        // the FF's own output (that is the held data, not a control) and
        // the D driver itself (pinning the whole data function is not
        // control inference). First match in node-id order wins per
        // category — a controlling data pin of an AND-shaped cone is
        // genuinely indistinguishable from a sync reset at this level,
        // so the tag is a deterministic representative, not an oracle.
        let candidates: Vec<NodeId> = cone
            .srcs
            .iter()
            .copied()
            .filter(|&c| c != q && c != d)
            .take(MAX_DOMAIN_CANDIDATES)
            .collect();
        let q_in_cone = cone.srcs.contains(&q);
        for &c in &candidates {
            if dom.reset.is_some() {
                break;
            }
            for v in [false, true] {
                let forced = eval_cone(netlist, cone, d, &[(c, V3::from(v))], &mut scratch);
                if let Some(value) = forced.to_bool() {
                    dom.reset = Some((c, v, value));
                    break;
                }
            }
        }
        if q_in_cone {
            'enable: for &c in &candidates {
                for v in [false, true] {
                    let pin = (c, V3::from(v));
                    let d0 = eval_cone(netlist, cone, d, &[pin, (q, V3::Zero)], &mut scratch);
                    let d1 = eval_cone(netlist, cone, d, &[pin, (q, V3::One)], &mut scratch);
                    if d0 == V3::Zero && d1 == V3::One {
                        // Holds while `c == v`: loads only at the other level.
                        dom.enable = Some((c, !v));
                        break 'enable;
                    }
                }
            }
        }
        domains.push(dom);
    }
    domains
}

// ---------------------------------------------------------------------
// The shared index
// ---------------------------------------------------------------------

/// Everything the lint rules need to know about a netlist, computed once
/// per [`Registry::run`](crate::Registry::run) instead of once per rule.
///
/// Holds the netlist's structural defects, the forward constant lattice,
/// structural liveness and semantic observability, per-FF D cones with
/// their source FF/PI frontiers, the transitive PI-influence closure over
/// the FF graph, and each FF's inferred clock/reset/enable domain.
#[derive(Debug, Clone)]
pub struct AnalysisIndex {
    defects: Vec<Defect>,
    lattice: ConstLattice,
    live: Vec<bool>,
    observable: Vec<bool>,
    cones: Vec<FfCone>,
    seq_has_pi: Vec<bool>,
    domains: Vec<FfDomain>,
}

impl AnalysisIndex {
    /// Builds the index. Safe on corrupt (`finish_unchecked`) netlists:
    /// cyclic gates and gates of a wrong arity simply stay `X`,
    /// unconnected DFFs contribute empty cones.
    pub fn build(netlist: &Netlist) -> AnalysisIndex {
        let lattice = const_lattice(netlist);
        let live = backward_reach(netlist, None);
        let observable = backward_reach(netlist, Some(&lattice.fix));
        let cones = build_cones(netlist);

        // Transitive closure of PI influence over the FF graph: an FF is
        // PI-driven if a PI reaches its own cone or any source FF is.
        let mut seq_has_pi: Vec<bool> = cones.iter().map(|c| c.has_pi).collect();
        loop {
            let mut changed = false;
            for j in 0..cones.len() {
                if !seq_has_pi[j] && cones[j].ffs.iter().any(|&i| seq_has_pi[i]) {
                    seq_has_pi[j] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let domains = infer_domains(netlist, &cones);
        AnalysisIndex {
            defects: netlist.defects(),
            lattice,
            live,
            observable,
            cones,
            seq_has_pi,
            domains,
        }
    }

    /// An index that holds only `defects`, for running the Error rules
    /// alone ([`structural_report`](crate::structural_report)): they read
    /// nothing else, and every other accessor panics on it.
    pub(crate) fn of_defects(defects: Vec<Defect>) -> AnalysisIndex {
        AnalysisIndex {
            defects,
            lattice: ConstLattice {
                base: Vec::new(),
                fix: Vec::new(),
                iterations: 0,
            },
            live: Vec::new(),
            observable: Vec::new(),
            cones: Vec::new(),
            seq_has_pi: Vec::new(),
            domains: Vec::new(),
        }
    }

    /// The netlist's structural defects ([`Netlist::defects`]), which the
    /// Error rules report.
    pub fn defects(&self) -> &[Defect] {
        &self.defects
    }

    /// The forward constant lattice.
    pub fn lattice(&self) -> &ConstLattice {
        &self.lattice
    }

    /// First-iterate value of a node (holds at every time step).
    pub fn base_value(&self, id: NodeId) -> V3 {
        self.lattice.base[id.index()]
    }

    /// Fixpoint value of a node (holds once the widening settles).
    pub fn fix_value(&self, id: NodeId) -> V3 {
        self.lattice.fix[id.index()]
    }

    /// Whether a node has a structural backward path from an output or
    /// an FF D input.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.live[id.index()]
    }

    /// Whether a node can *semantically* influence an output or FF D
    /// input — the backward walk does not pass through fixpoint-constant
    /// gates.
    pub fn is_observable(&self, id: NodeId) -> bool {
        self.observable[id.index()]
    }

    /// Source FF indices in the D cone of FF `j`, sorted.
    pub fn cone_ffs(&self, j: usize) -> &[usize] {
        &self.cones[j].ffs
    }

    /// Whether a primary input reaches FF `j`'s D cone directly.
    pub fn cone_has_pi(&self, j: usize) -> bool {
        self.cones[j].has_pi
    }

    /// Whether a primary input can ever influence FF `j`, through any
    /// number of sequential levels.
    pub fn seq_has_pi(&self, j: usize) -> bool {
        self.seq_has_pi[j]
    }

    /// The inferred clock/reset/enable domain of FF `j`.
    pub fn domain(&self, j: usize) -> &FfDomain {
        &self.domains[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcp_logic::GateKind;
    use mcp_netlist::NetlistBuilder;

    /// d = AND(a, 0) cascading into NOT and an XOR kept alive by `a`;
    /// plus an FF ladder seeded by a constant through the fixpoint.
    fn const_ladder() -> Netlist {
        let mut b = NetlistBuilder::new("ladder");
        let a = b.input("a");
        let one = b.constant("one", true);
        let q1 = b.dff("q1");
        let q2 = b.dff("q2");
        let live = b.dff("live");
        // q1.D = OR(a, 1) — constant at the first iterate.
        let g1 = b.gate("g1", GateKind::Or, [a, one]).unwrap();
        b.set_dff_input(q1, g1).unwrap();
        // q2.D = BUF(q1) — constant only at the fixpoint (one edge later).
        let g2 = b.gate("g2", GateKind::Buf, [q1]).unwrap();
        b.set_dff_input(q2, g2).unwrap();
        // live.D = XOR(q2, a) — never constant, PI-driven.
        let g3 = b.gate("g3", GateKind::Xor, [q2, a]).unwrap();
        b.set_dff_input(live, g3).unwrap();
        b.mark_output(live);
        b.finish().unwrap()
    }

    #[test]
    fn base_is_the_first_iterate_and_fix_widens_across_edges() {
        let nl = const_ladder();
        let lat = const_lattice(&nl);
        let g1 = nl.find_node("g1").unwrap();
        let g2 = nl.find_node("g2").unwrap();
        let q1 = nl.find_node("q1").unwrap();
        let q2 = nl.find_node("q2").unwrap();
        // First iterate: only the combinationally-forced constant.
        assert_eq!(lat.base[g1.index()], V3::One);
        assert_eq!(lat.base[q1.index()], V3::X);
        assert_eq!(lat.base[g2.index()], V3::X);
        // Fixpoint: the constant crossed two FF stages.
        assert_eq!(lat.fix[q1.index()], V3::One);
        assert_eq!(lat.fix[g2.index()], V3::One);
        assert_eq!(lat.fix[q2.index()], V3::One);
        assert_eq!(lat.iterations, 2);
        assert!(lat.num_definite_fix() > lat.num_definite_base());
    }

    #[test]
    fn fixpoint_is_all_x_without_const_drivers() {
        let nl = mcp_gen::circuits::fig1();
        let lat = const_lattice(&nl);
        assert_eq!(lat.num_definite_base(), 0);
        assert_eq!(lat.num_definite_fix(), 0);
        assert_eq!(lat.iterations, 0);
    }

    #[test]
    fn observability_stops_at_fixpoint_constants() {
        let nl = const_ladder();
        let idx = AnalysisIndex::build(&nl);
        let g1 = nl.find_node("g1").unwrap();
        let a = nl.find_node("a").unwrap();
        // g1 is live and observable (it is a D input) but constant; its
        // PI fanin `a` stays observable through g3's XOR path.
        assert!(idx.is_live(g1));
        assert!(idx.is_observable(g1));
        assert!(idx.is_observable(a));
        // q2's value is fixpoint-constant, so g3 still reads it — but a
        // gate feeding only g2 (behind the constant) would be dark. Add
        // one: rebuild with a NOT feeding nothing else.
        let mut b = NetlistBuilder::new("dark");
        let a = b.input("a");
        let one = b.constant("one", true);
        let q = b.dff("q");
        let live = b.dff("live");
        // dead = NOT(a) feeds forced = OR(dead, 1); forced is constant,
        // so `dead` is live but unobservable.
        let dead = b.gate("dead", GateKind::Not, [a]).unwrap();
        let forced = b.gate("forced", GateKind::Or, [dead, one]).unwrap();
        b.set_dff_input(q, forced).unwrap();
        let g3 = b.gate("g3", GateKind::Xor, [q, a]).unwrap();
        b.set_dff_input(live, g3).unwrap();
        b.mark_output(live);
        let nl = b.finish().unwrap();
        let idx = AnalysisIndex::build(&nl);
        let dead = nl.find_node("dead").unwrap();
        assert!(idx.is_live(dead));
        assert!(!idx.is_observable(dead));
    }

    #[test]
    fn seq_has_pi_is_transitive() {
        let nl = const_ladder();
        let idx = AnalysisIndex::build(&nl);
        // q1 ← OR(a, 1): PI in cone. q2 ← q1: PI only transitively.
        assert!(idx.cone_has_pi(0));
        assert!(!idx.cone_has_pi(1));
        assert!(idx.seq_has_pi(1));
        assert!(idx.seq_has_pi(2));
    }

    #[test]
    fn pi_free_counter_has_no_seq_pi() {
        let nl = mcp_gen::circuits::fig1();
        let idx = AnalysisIndex::build(&nl);
        // FF3/FF4 form a closed gray-code counter: no PI influence ever.
        assert!(!idx.seq_has_pi(2));
        assert!(!idx.seq_has_pi(3));
        // FF1 loads IN: PI-driven directly.
        assert!(idx.cone_has_pi(0));
        assert!(idx.seq_has_pi(1), "FF2 captures FF1, hence PI transitively");
    }

    #[test]
    fn domains_of_the_fig1_datapath() {
        let nl = mcp_gen::circuits::fig1();
        let idx = AnalysisIndex::build(&nl);
        // FF1 holds unless the counter selects a load: an enable domain.
        let d1 = idx.domain(0);
        assert!(d1.enable.is_some(), "FF1 is load-enabled: {d1:?}");
        // The counter FFs have no hold path: no enable.
        assert!(idx.domain(2).enable.is_none());
        assert!(idx.domain(3).enable.is_none());
        // Same-domain grouping: FF1 and FF2 are gated differently.
        assert!(!idx.domain(0).same_domain(idx.domain(1)));
        assert_eq!(idx.domain(0).clock, 0);
    }

    #[test]
    fn sync_reset_is_inferred() {
        // q.D = AND(data, NOT rst): rst=1 forces D=0. With one FF a
        // controlling data pin is indistinguishable from a sync reset
        // (pinning data=0 also forces D=0), so the first controlling
        // source in id order wins — declare rst first.
        let mut b = NetlistBuilder::new("rst");
        let rst = b.input("rst");
        let data = b.input("data");
        let q = b.dff("q");
        let n = b.gate("n", GateKind::Not, [rst]).unwrap();
        let g = b.gate("g", GateKind::And, [data, n]).unwrap();
        b.set_dff_input(q, g).unwrap();
        b.mark_output(q);
        let nl = b.finish().unwrap();
        let idx = AnalysisIndex::build(&nl);
        let rst_id = nl.find_node("rst").unwrap();
        assert_eq!(idx.domain(0).reset, Some((rst_id, true, false)));
        assert!(idx.domain(0).enable.is_none());
    }

    #[test]
    fn index_survives_corrupt_netlists() {
        // A combinational cycle plus an unconnected DFF.
        let mut b = NetlistBuilder::new("corrupt");
        let a = b.input("a");
        let q = b.dff("q"); // never connected
        let g1 = b.gate("g1", GateKind::And, [a, a]).unwrap();
        let g2 = b.gate("g2", GateKind::Buf, [g1]).unwrap();
        b.rewire_fanin(g1, 1, g2).unwrap();
        b.mark_output(q);
        let nl = b.finish_unchecked();
        let idx = AnalysisIndex::build(&nl);
        assert_eq!(idx.defects().len(), 2, "{:?}", idx.defects());
        assert_eq!(idx.base_value(g1), V3::X);
        assert!(idx.cone_ffs(0).is_empty());
    }

    #[test]
    fn wrong_arity_gates_read_x() {
        // g = NOT(a, q) feeds q's D input; the evaluators must not panic
        // on it, and it stays X however its fanins settle.
        let src = "INPUT(a)\nOUTPUT(q)\nk = CONST(1)\nq = DFF(g)\ng = NOT(k, q)\n";
        let nl = mcp_netlist::bench::parse_unchecked("arity", src).unwrap();
        let idx = AnalysisIndex::build(&nl);
        let g = nl.find_node("g").unwrap();
        assert_eq!(idx.defects(), &[Defect::BadArity(g)]);
        assert_eq!(idx.fix_value(g), V3::X);
        assert!(idx.domain(0).reset.is_none());
    }
}
