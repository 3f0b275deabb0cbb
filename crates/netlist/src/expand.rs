//! Time-frame expansion of a sequential circuit.
//!
//! The multi-cycle condition `FFi(t) != FFi(t+1)  ⇒  FFj(t+1) == FFj(t+2)`
//! talks about flip-flop values at three consecutive clock ticks. To reason
//! about it combinationally, the logic part is *expanded* into `F` copies
//! ("frames"): frame `f` computes the circuit's combinational functions of
//! the FF state at time `t+f` and the primary inputs at time `t+f`. The FF
//! state at time `t+f+1` is, by the D-FF semantics, the D-input value
//! computed inside frame `f`.
//!
//! The resulting [`Expanded`] model is a plain combinational DAG over free
//! variables — initial FF state plus per-frame primary inputs — shared by
//! the implication engine, the ATPG search and the SAT encoder, which
//! guarantees all three answer exactly the same question.

use crate::model::{Netlist, NodeId, NodeKind};
use mcp_logic::{GateKind, V3};
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a node in an [`Expanded`] model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XId(u32);

impl XId {
    /// Dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for XId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Where a free variable of the expanded model comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarOrigin {
    /// Primary input `pi` (by input index) during frame `frame`.
    Pi {
        /// Frame index in `0..frames`.
        frame: u32,
        /// Primary-input index.
        pi: u32,
    },
    /// The state of flip-flop `ff` (by FF index) at time `t` (frame 0).
    ///
    /// Following the paper (and the SAT baseline \[9\]), the initial state is
    /// unconstrained: every state is assumed reachable.
    InitialState {
        /// Flip-flop index.
        ff: u32,
    },
}

/// A node of the expanded combinational model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XKind {
    /// A free variable (pseudo primary input).
    Var(VarOrigin),
    /// A constant.
    Const(bool),
    /// A combinational gate.
    Gate(GateKind),
}

/// One node of the expanded model: kind plus fanins.
#[derive(Debug, Clone)]
pub struct XNode {
    kind: XKind,
    fanins: Vec<XId>,
    /// The original netlist node this expansion copy computes, with its
    /// frame — `None` for free variables that stand for FF initial state.
    origin: Option<(u32, NodeId)>,
}

impl XNode {
    /// The node kind.
    #[inline]
    pub fn kind(&self) -> XKind {
        self.kind
    }

    /// Fanins in input order (empty for variables and constants).
    #[inline]
    pub fn fanins(&self) -> &[XId] {
        &self.fanins
    }

    /// The `(frame, original node)` this copy computes, when applicable.
    #[inline]
    pub fn origin(&self) -> Option<(u32, NodeId)> {
        self.origin
    }
}

/// A sequential circuit expanded into `F` combinational time frames.
///
/// # Example
///
/// ```
/// use mcp_netlist::{Expanded, NetlistBuilder};
/// use mcp_logic::GateKind;
///
/// let mut b = NetlistBuilder::new("toggle");
/// let q = b.dff("Q");
/// let d = b.gate("D", GateKind::Not, [q])?;
/// b.set_dff_input(q, d)?;
/// let netlist = b.finish()?;
///
/// let x = Expanded::build(&netlist, 2);
/// // Q at time t is a free variable; Q at t+1 and t+2 are gate outputs.
/// assert_ne!(x.ff_at(0, 0), x.ff_at(0, 1));
/// assert_ne!(x.ff_at(0, 1), x.ff_at(0, 2));
/// # Ok::<(), mcp_netlist::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Expanded {
    nodes: Vec<XNode>,
    frames: u32,
    num_pis: usize,
    num_ffs: usize,
    /// The frame/FF/PI lookup tables, in whole-model ids: a model and
    /// every slice cut from it share one copy.
    lookup: Arc<Lookup>,
    /// On a slice, the whole-model id of every node, ascending: lookups
    /// translate their whole-model answer through it. `None` on a whole
    /// model.
    whole_ids: Option<Arc<[XId]>>,
    fanouts: Vec<Vec<XId>>,
    /// All gate nodes in topological order.
    topo: Vec<XId>,
    /// All free variables, in id order.
    vars: Vec<XId>,
    level: Vec<u32>,
}

/// The lookup tables of a whole expansion.
#[derive(Debug)]
struct Lookup {
    /// `value_in_frame[f][orig.index()]`: the expanded node computing the
    /// original node's value during frame `f`.
    value_in_frame: Vec<Vec<XId>>,
    /// D-input node id per FF in the original netlist.
    d_inputs: Vec<NodeId>,
    /// `pi_vars[f * num_pis + pi]`: the variable for PI `pi` in frame `f`.
    pi_vars: Vec<XId>,
    /// `state_vars[ff]`: the initial-state variable of FF `ff`.
    state_vars: Vec<XId>,
}

/// The id a lookup answers for a node outside a slice's cone.
const UNSET: XId = XId(u32::MAX);

impl Expanded {
    /// Expands `netlist` into `frames` combinational frames (`frames ≥ 1`).
    ///
    /// With `F` frames, FF values at times `t ..= t+F` are available via
    /// [`ff_at`](Self::ff_at) — the paper's 2-frame expansion (`F = 2`)
    /// exposes `FF(t)`, `FF(t+1)`, `FF(t+2)`.
    ///
    /// # Panics
    ///
    /// Panics if `frames == 0`.
    pub fn build(netlist: &Netlist, frames: u32) -> Expanded {
        assert!(frames >= 1, "expansion needs at least one frame");
        let n = netlist.num_nodes();
        let mut nodes: Vec<XNode> = Vec::with_capacity(n * frames as usize);
        let mut pi_vars = Vec::new();
        let mut state_vars = Vec::new();
        let mut value_in_frame: Vec<Vec<XId>> = Vec::with_capacity(frames as usize);

        let push = |nodes: &mut Vec<XNode>, node: XNode| -> XId {
            let id = XId(nodes.len() as u32);
            nodes.push(node);
            id
        };

        let d_inputs: Vec<NodeId> = (0..netlist.num_ffs())
            .map(|k| netlist.ff_d_input(k))
            .collect();

        for f in 0..frames {
            let mut map = vec![UNSET; n];
            // Sources first: PIs are fresh variables each frame; FF outputs
            // are fresh variables in frame 0 and aliases of the previous
            // frame's D-input values afterwards; constants are shared per
            // frame (cheap enough).
            for (pi_idx, &pi) in netlist.inputs().iter().enumerate() {
                let id = push(
                    &mut nodes,
                    XNode {
                        kind: XKind::Var(VarOrigin::Pi {
                            frame: f,
                            pi: pi_idx as u32,
                        }),
                        fanins: Vec::new(),
                        origin: Some((f, pi)),
                    },
                );
                pi_vars.push(id);
                map[pi.index()] = id;
            }
            for (ff_idx, &ff) in netlist.dffs().iter().enumerate() {
                if f == 0 {
                    let id = push(
                        &mut nodes,
                        XNode {
                            kind: XKind::Var(VarOrigin::InitialState { ff: ff_idx as u32 }),
                            fanins: Vec::new(),
                            origin: Some((0, ff)),
                        },
                    );
                    state_vars.push(id);
                    map[ff.index()] = id;
                } else {
                    // Alias: FF output in frame f = D input value in f-1.
                    map[ff.index()] = value_in_frame[f as usize - 1][d_inputs[ff_idx].index()];
                }
            }
            for (id, node) in netlist.nodes() {
                if let NodeKind::Const(v) = node.kind() {
                    let x = push(
                        &mut nodes,
                        XNode {
                            kind: XKind::Const(v),
                            fanins: Vec::new(),
                            origin: Some((f, id)),
                        },
                    );
                    map[id.index()] = x;
                }
            }
            for &g in netlist.topo_gates() {
                let node = netlist.node(g);
                let kind = node.kind().gate_kind().expect("topo contains gates");
                let fanins: Vec<XId> = node.fanins().iter().map(|x| map[x.index()]).collect();
                debug_assert!(fanins.iter().all(|&x| x != UNSET));
                let x = push(
                    &mut nodes,
                    XNode {
                        kind: XKind::Gate(kind),
                        fanins,
                        origin: Some((f, g)),
                    },
                );
                map[g.index()] = x;
            }
            value_in_frame.push(map);
        }

        let lookup = Lookup {
            value_in_frame,
            d_inputs,
            pi_vars,
            state_vars,
        };
        Expanded::from_nodes(
            nodes,
            frames,
            netlist.num_inputs(),
            netlist.num_ffs(),
            Arc::new(lookup),
            None,
        )
    }

    /// Assembles a model over `nodes` (in topological id order), deriving
    /// its fanouts, gate order, variable list and levels.
    fn from_nodes(
        nodes: Vec<XNode>,
        frames: u32,
        num_pis: usize,
        num_ffs: usize,
        lookup: Arc<Lookup>,
        whole_ids: Option<Arc<[XId]>>,
    ) -> Expanded {
        let mut fanouts: Vec<Vec<XId>> = vec![Vec::new(); nodes.len()];
        let mut topo = Vec::new();
        let mut vars = Vec::new();
        let mut level = vec![0u32; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            let id = XId(i as u32);
            match node.kind {
                // Creation order is topological.
                XKind::Gate(_) => {
                    topo.push(id);
                    level[i] = 1 + node
                        .fanins
                        .iter()
                        .map(|f| level[f.index()])
                        .max()
                        .unwrap_or(0);
                }
                XKind::Var(_) => vars.push(id),
                XKind::Const(_) => {}
            }
            for &f in &node.fanins {
                fanouts[f.index()].push(id);
            }
        }
        Expanded {
            nodes,
            frames,
            num_pis,
            num_ffs,
            lookup,
            whole_ids,
            fanouts,
            topo,
            vars,
            level,
        }
    }

    /// The local id of whole-model node `whole`: itself on a whole
    /// model; on a slice, its slice id, or the unmapped sentinel when it
    /// lies outside the cone.
    #[inline]
    fn local(&self, whole: XId) -> XId {
        match &self.whole_ids {
            None => whole,
            Some(ids) => ids.binary_search(&whole).map_or(UNSET, |i| XId(i as u32)),
        }
    }

    /// Number of frames `F` in the expansion.
    #[inline]
    pub fn frames(&self) -> u32 {
        self.frames
    }

    /// Number of nodes in the expanded model.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of flip-flops in the underlying netlist.
    #[inline]
    pub fn num_ffs(&self) -> usize {
        self.num_ffs
    }

    /// Number of primary inputs in the underlying netlist.
    #[inline]
    pub fn num_pis(&self) -> usize {
        self.num_pis
    }

    /// Access a node.
    #[inline]
    pub fn node(&self, id: XId) -> &XNode {
        &self.nodes[id.index()]
    }

    /// All nodes in id order (which is topological).
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (XId, &XNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (XId(i as u32), n))
    }

    /// The expanded node giving the value of flip-flop `ff` at time `t +
    /// time` (`time ≤ frames`).
    ///
    /// `time == 0` is the free initial-state variable; `time == k ≥ 1` is
    /// the FF's D-input value computed in frame `k-1`.
    ///
    /// # Panics
    ///
    /// Panics if `ff` or `time` is out of range.
    pub fn ff_at(&self, ff: usize, time: u32) -> XId {
        assert!(
            time <= self.frames,
            "time {time} exceeds frames {}",
            self.frames
        );
        let t = &self.lookup;
        self.local(if time == 0 {
            t.state_vars[ff]
        } else {
            t.value_in_frame[time as usize - 1][t.d_inputs[ff].index()]
        })
    }

    /// The expanded node giving the value of primary input `pi` during
    /// frame `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `pi` or `frame` is out of range.
    pub fn pi_at(&self, pi: usize, frame: u32) -> XId {
        assert!(frame < self.frames && pi < self.num_pis);
        self.local(self.lookup.pi_vars[frame as usize * self.num_pis + pi])
    }

    /// The expanded node computing original node `orig` during frame
    /// `frame`.
    ///
    /// For a DFF node this is its *output* value during that frame (the
    /// state at time `t+frame`).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    #[inline]
    pub fn value_of(&self, frame: u32, orig: NodeId) -> XId {
        self.local(self.lookup.value_in_frame[frame as usize][orig.index()])
    }

    /// Readers of a node.
    #[inline]
    pub fn fanouts(&self, id: XId) -> &[XId] {
        &self.fanouts[id.index()]
    }

    /// Gate nodes in topological order.
    #[inline]
    pub fn topo_gates(&self) -> &[XId] {
        &self.topo
    }

    /// All free variables in id order (per-frame PIs then initial FF state
    /// for frame 0, then later frames' PIs).
    #[inline]
    pub fn vars(&self) -> &[XId] {
        &self.vars
    }

    /// Structural level (0 for variables/constants).
    #[inline]
    pub fn level(&self, id: XId) -> u32 {
        self.level[id.index()]
    }

    /// Evaluates the whole model over the ternary domain given an
    /// assignment to (some of) the free variables.
    ///
    /// Mostly a reference implementation for tests and for witness
    /// verification: returns the value of every node, computed in
    /// topological order with [`GateKind::eval_v3`].
    pub fn eval_v3(&self, var_values: &[(XId, V3)]) -> Vec<V3> {
        let mut val = vec![V3::X; self.nodes.len()];
        for &(id, v) in var_values {
            val[id.index()] = v;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            match node.kind {
                XKind::Const(b) => val[i] = V3::from(b),
                XKind::Gate(kind) => {
                    val[i] = kind.eval_v3(node.fanins.iter().map(|f| val[f.index()]));
                }
                XKind::Var(_) => {}
            }
        }
        val
    }

    /// The fanin closure (cone of influence) of `roots`, as an ascending
    /// list of node ids. Ascending id order is topological, so the cone is
    /// directly usable as a dense sub-model node order.
    ///
    /// Costs O(|cone| log |cone|) and allocates nothing sized to the
    /// whole model: the walk pops the largest pending id first, and since
    /// every fanin has a smaller id than its reader, all pending copies of
    /// a node are popped back to back, so the heap is the visited set.
    pub fn cone_of(&self, roots: &[XId]) -> Vec<XId> {
        let mut pending: BinaryHeap<XId> = roots.iter().copied().collect();
        let mut cone: Vec<XId> = Vec::new();
        while let Some(id) = pending.pop() {
            if cone.last() != Some(&id) {
                cone.push(id);
                pending.extend(self.nodes[id.index()].fanins.iter().copied());
            }
        }
        cone.reverse();
        cone
    }

    /// Builds the cone-of-influence [`Slice`] rooted at `roots`: a dense
    /// sub-model containing exactly [`cone_of`](Self::cone_of)`(roots)`,
    /// renumbered in ascending (hence still topological) order.
    ///
    /// The slice's nested [`Expanded`] keeps the *original* netlist's FF
    /// and PI indexing — [`ff_at`](Self::ff_at), [`pi_at`](Self::pi_at)
    /// and [`value_of`](Self::value_of) answer with slice-local ids for
    /// any node inside the cone, so every engine built against `Expanded`
    /// runs on a slice unchanged. They answer through the whole model's
    /// lookup tables, shared rather than copied, translating by binary
    /// search on the cone, so a slice costs O(|cone| log |cone|) however
    /// large the circuit. Asking for a node *outside* the cone returns an
    /// unmapped sentinel and will panic on use; callers scope their
    /// queries to the roots they sliced for.
    pub fn build_slice(&self, roots: &[XId]) -> Slice {
        let from_slice: Arc<[XId]> = self.cone_of(roots).into();
        let remap = |id: &XId| {
            XId(from_slice
                .binary_search(id)
                .expect("the cone is fanin-closed") as u32)
        };
        let nodes: Vec<XNode> = from_slice
            .iter()
            .map(|&wid| {
                let w = &self.nodes[wid.index()];
                XNode {
                    kind: w.kind,
                    fanins: w.fanins.iter().map(remap).collect(),
                    origin: w.origin,
                }
            })
            .collect();
        // The lookups answer in the root model's ids, so a slice of a
        // slice translates from those.
        let whole_ids = match &self.whole_ids {
            None => Arc::clone(&from_slice),
            Some(ids) => from_slice.iter().map(|&id| ids[id.index()]).collect(),
        };
        Slice {
            model: Expanded::from_nodes(
                nodes,
                self.frames,
                self.num_pis,
                self.num_ffs,
                Arc::clone(&self.lookup),
                Some(whole_ids),
            ),
            from_slice,
        }
    }
}

/// A cone-of-influence slice of an [`Expanded`] model.
///
/// Built by [`Expanded::build_slice`]: the fanin closure of a set of root
/// nodes (typically the FF-transition nodes of one sink group's multi-cycle
/// query), densely renumbered so per-pair engine work is O(|cone|) instead
/// of O(|circuit|). The nested [`model`](Self::model) is a genuine
/// [`Expanded`] — implication, ATPG and SAT engines consume it unchanged —
/// and [`to_whole`](Self::to_whole)/[`to_slice`](Self::to_slice) translate
/// between slice-local and whole-model ids (each slice node also keeps its
/// `(frame, NodeId)` origin).
#[derive(Debug, Clone)]
pub struct Slice {
    model: Expanded,
    /// `from_slice[slice_id] = whole_id`, ascending.
    from_slice: Arc<[XId]>,
}

impl Slice {
    /// The dense sliced model.
    #[inline]
    pub fn model(&self) -> &Expanded {
        &self.model
    }

    /// Number of nodes in the slice.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.model.nodes.len()
    }

    /// Number of free variables inside the cone.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.model.vars.len()
    }

    /// The whole-model id a slice node came from.
    #[inline]
    pub fn to_whole(&self, slice_id: XId) -> XId {
        self.from_slice[slice_id.index()]
    }

    /// The slice id of a whole-model node, if it is inside the cone.
    ///
    /// O(log n) — ids are kept sorted rather than carrying a full-width
    /// reverse map per slice.
    pub fn to_slice(&self, whole_id: XId) -> Option<XId> {
        self.from_slice
            .binary_search(&whole_id)
            .ok()
            .map(|i| XId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    /// q1 toggles; q2.D = AND(q1, in).
    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("sample");
        let input = b.input("IN");
        let q1 = b.dff("Q1");
        let q2 = b.dff("Q2");
        let n = b.gate("N", GateKind::Not, [q1]).unwrap();
        let a = b.gate("A", GateKind::And, [q1, input]).unwrap();
        b.set_dff_input(q1, n).unwrap();
        b.set_dff_input(q2, a).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn sizes_scale_with_frames() {
        let nl = sample();
        let x1 = Expanded::build(&nl, 1);
        let x3 = Expanded::build(&nl, 3);
        // per frame: 1 PI var + 2 gates; frame 0 additionally 2 state vars
        assert_eq!(x1.num_nodes(), 1 + 2 + 2);
        assert_eq!(x3.num_nodes(), 2 + 3 * (1 + 2));
        assert_eq!(x3.vars().len(), 2 + 3);
        assert_eq!(x3.topo_gates().len(), 6);
    }

    #[test]
    fn ff_at_aliases_previous_frame_d_input() {
        let nl = sample();
        let x = Expanded::build(&nl, 2);
        let q1 = nl.find_node("Q1").unwrap();
        let n = nl.find_node("N").unwrap();
        // Q1 at time 1 is N evaluated in frame 0, which is also Q1's value
        // during frame 1.
        assert_eq!(x.ff_at(0, 1), x.value_of(0, n));
        assert_eq!(x.ff_at(0, 1), x.value_of(1, q1));
        // Q1 at time 2 is N in frame 1.
        assert_eq!(x.ff_at(0, 2), x.value_of(1, n));
    }

    #[test]
    fn eval_v3_computes_sequential_semantics() {
        let nl = sample();
        let x = Expanded::build(&nl, 2);
        // Q1(t)=1, Q2(t)=0, IN(t)=1, IN(t+1)=1.
        let assign = vec![
            (x.ff_at(0, 0), V3::One),
            (x.ff_at(1, 0), V3::Zero),
            (x.pi_at(0, 0), V3::One),
            (x.pi_at(0, 1), V3::One),
        ];
        let val = x.eval_v3(&assign);
        // Q1 toggles: 1 -> 0 -> 1. Q2(t+1) = AND(Q1(t), IN(t)) = 1;
        // Q2(t+2) = AND(Q1(t+1), IN(t+1)) = 0.
        assert_eq!(val[x.ff_at(0, 1).index()], V3::Zero);
        assert_eq!(val[x.ff_at(0, 2).index()], V3::One);
        assert_eq!(val[x.ff_at(1, 1).index()], V3::One);
        assert_eq!(val[x.ff_at(1, 2).index()], V3::Zero);
    }

    #[test]
    fn pi_at_finds_each_frame_variable() {
        let nl = sample();
        let x = Expanded::build(&nl, 3);
        for f in 0..3 {
            let id = x.pi_at(0, f);
            match x.node(id).kind() {
                XKind::Var(VarOrigin::Pi { frame, pi }) => {
                    assert_eq!(frame, f);
                    assert_eq!(pi, 0);
                }
                other => panic!("expected PI var, got {other:?}"),
            }
        }
    }

    #[test]
    fn origins_point_back_to_netlist() {
        let nl = sample();
        let x = Expanded::build(&nl, 2);
        let a = nl.find_node("A").unwrap();
        for f in 0..2 {
            let xa = x.value_of(f, a);
            assert_eq!(x.node(xa).origin(), Some((f, a)));
        }
    }

    #[test]
    fn slice_restricts_the_model_to_the_cone() {
        let nl = sample();
        let x = Expanded::build(&nl, 2);
        // Cone of Q1's self pair: the toggle loop only — IN and the AND
        // gate feeding Q2 are outside it.
        let roots = vec![x.ff_at(0, 0), x.ff_at(0, 1), x.ff_at(0, 2)];
        let s = x.build_slice(&roots);
        // Q1(t) var + NOT per frame = 3 nodes; the whole model has 8.
        assert_eq!(s.num_nodes(), 3);
        assert_eq!(s.num_vars(), 1);
        assert!(s.num_nodes() < x.num_nodes());
        // FF indexing survives: the slice answers ff_at with its own ids.
        let sm = s.model();
        assert_eq!(sm.frames(), 2);
        for t in 0..=2 {
            let sid = sm.ff_at(0, t);
            assert_eq!(s.to_whole(sid), x.ff_at(0, t));
            assert_eq!(s.to_slice(x.ff_at(0, t)), Some(sid));
        }
        // Structure, origin and level match the whole model in-cone.
        for (sid, node) in sm.nodes() {
            let wid = s.to_whole(sid);
            let w = x.node(wid);
            assert_eq!(node.kind(), w.kind());
            assert_eq!(node.origin(), w.origin());
            assert_eq!(sm.level(sid), x.level(wid));
            let wf: Vec<XId> = node.fanins().iter().map(|&f| s.to_whole(f)).collect();
            assert_eq!(wf, w.fanins());
        }
    }

    #[test]
    fn slice_evaluation_matches_the_whole_model() {
        let nl = sample();
        let x = Expanded::build(&nl, 2);
        // Slice for the (Q1 -> Q2) pair: Q1 transition at t, Q2 at t+1.
        let roots = vec![x.ff_at(0, 0), x.ff_at(0, 1), x.ff_at(1, 1), x.ff_at(1, 2)];
        let s = x.build_slice(&roots);
        let sm = s.model();
        for a in 0u32..16 {
            let bit = |k: u32| V3::from(a >> k & 1 == 1);
            let whole = x.eval_v3(&[
                (x.ff_at(0, 0), bit(0)),
                (x.ff_at(1, 0), bit(1)),
                (x.pi_at(0, 0), bit(2)),
                (x.pi_at(0, 1), bit(3)),
            ]);
            let sliced_assign: Vec<_> = [
                (x.ff_at(0, 0), bit(0)),
                (x.ff_at(1, 0), bit(1)),
                (x.pi_at(0, 0), bit(2)),
                (x.pi_at(0, 1), bit(3)),
            ]
            .iter()
            .filter_map(|&(wid, v)| s.to_slice(wid).map(|sid| (sid, v)))
            .collect();
            let sliced = sm.eval_v3(&sliced_assign);
            for (sid, _) in sm.nodes() {
                assert_eq!(sliced[sid.index()], whole[s.to_whole(sid).index()]);
            }
        }
    }

    #[test]
    fn cone_of_is_fanin_closed_and_sorted() {
        let nl = sample();
        let x = Expanded::build(&nl, 3);
        let cone = x.cone_of(&[x.ff_at(1, 3)]);
        assert!(cone.windows(2).all(|w| w[0] < w[1]));
        for &id in &cone {
            for &f in x.node(id).fanins() {
                assert!(cone.binary_search(&f).is_ok(), "cone not fanin-closed");
            }
        }
    }

    #[test]
    fn fanouts_are_consistent() {
        let nl = sample();
        let x = Expanded::build(&nl, 2);
        for (id, node) in x.nodes() {
            for &f in node.fanins() {
                assert!(x.fanouts(f).contains(&id));
            }
        }
    }

    use mcp_logic::GateKind;
}
