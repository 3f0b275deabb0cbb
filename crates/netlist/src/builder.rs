//! Netlist construction with validation.

use crate::check::Defect;
use crate::model::{Netlist, Node, NodeId, NodeKind};
use mcp_logic::GateKind;
use std::collections::HashMap;
use std::fmt;

/// Error produced while building a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Two nodes were created with the same name.
    DuplicateName(String),
    /// A gate was created with an input count its kind does not allow.
    BadArity {
        /// The offending gate's name.
        name: String,
        /// Its function.
        kind: GateKind,
        /// The number of fanins supplied.
        got: usize,
    },
    /// `finish` found a flip-flop whose D input was never connected.
    UnconnectedDff(String),
    /// `finish` found a flip-flop with more than one D driver.
    MultiDrivenDff(String),
    /// `finish` found a combinational cycle (a cycle not broken by a DFF).
    CombinationalCycle {
        /// Name of one node on the cycle.
        on: String,
    },
    /// A node id from a different builder was used.
    ForeignNode,
    /// `set_dff_input` was called on a node that is not a DFF.
    NotADff(String),
}

impl BuildError {
    /// The error `finish` (and `bench::parse`) reports for a structural
    /// defect of `netlist`.
    pub(crate) fn of(netlist: &Netlist, defect: &Defect) -> BuildError {
        let name = |id: NodeId| netlist.node(id).name().to_owned();
        match defect {
            Defect::CombinationalCycle(gates) => {
                BuildError::CombinationalCycle { on: name(gates[0]) }
            }
            &Defect::BadArity(id) => BuildError::BadArity {
                name: name(id),
                kind: netlist
                    .node(id)
                    .kind()
                    .gate_kind()
                    .expect("arity defects are gates"),
                got: netlist.node(id).fanins().len(),
            },
            &Defect::UnconnectedDff(id) => BuildError::UnconnectedDff(name(id)),
            &Defect::MultiDrivenDff(id) => BuildError::MultiDrivenDff(name(id)),
            Defect::DuplicateName(ids) => BuildError::DuplicateName(name(ids[0])),
        }
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            BuildError::BadArity { name, kind, got } => {
                write!(f, "gate `{name}` of kind {kind} cannot take {got} inputs")
            }
            BuildError::UnconnectedDff(n) => {
                write!(f, "flip-flop `{n}` has no D input connected")
            }
            BuildError::MultiDrivenDff(n) => {
                write!(f, "flip-flop `{n}` has more than one D driver")
            }
            BuildError::CombinationalCycle { on } => {
                write!(f, "combinational cycle through node `{on}`")
            }
            BuildError::ForeignNode => write!(f, "node id does not belong to this builder"),
            BuildError::NotADff(n) => write!(f, "node `{n}` is not a flip-flop"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder for [`Netlist`].
///
/// Nodes are created with [`input`](Self::input), [`dff`](Self::dff),
/// [`constant`](Self::constant) and [`gate`](Self::gate) (or the
/// convenience helpers). Flip-flop D inputs may be connected after the
/// driving logic exists via [`set_dff_input`](Self::set_dff_input), which
/// is what makes sequential loops expressible. [`finish`](Self::finish)
/// computes the derived structures and validates the whole circuit with
/// [`Netlist::defects`].
///
/// # Example
///
/// ```
/// use mcp_logic::GateKind;
/// use mcp_netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("counter-bit");
/// let en = b.input("EN");
/// let q = b.dff("Q");
/// let d = b.gate("D", GateKind::Xor, [q, en])?;
/// b.set_dff_input(q, d)?;
/// b.mark_output(q);
/// let netlist = b.finish()?;
/// assert_eq!(netlist.stats().gates, 1);
/// # Ok::<(), mcp_netlist::BuildError>(())
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    dffs: Vec<NodeId>,
    name_index: HashMap<String, NodeId>,
    auto_counter: u64,
}

impl NetlistBuilder {
    /// Creates an empty builder for a circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            dffs: Vec::new(),
            name_index: HashMap::new(),
            auto_counter: 0,
        }
    }

    fn add_node(&mut self, name: String, kind: NodeKind, fanins: Vec<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.name_index.insert(name.clone(), id);
        self.nodes.push(Node { name, kind, fanins });
        id
    }

    /// Generates a fresh unique name with the given prefix.
    pub fn fresh_name(&mut self, prefix: &str) -> String {
        loop {
            let candidate = format!("{prefix}{}", self.auto_counter);
            self.auto_counter += 1;
            if !self.name_index.contains_key(&candidate) {
                return candidate;
            }
        }
    }

    /// Adds a primary input.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.add_node(name.into(), NodeKind::Input, Vec::new());
        self.inputs.push(id);
        id
    }

    /// Adds a constant driver.
    pub fn constant(&mut self, name: impl Into<String>, value: bool) -> NodeId {
        self.add_node(name.into(), NodeKind::Const(value), Vec::new())
    }

    /// Adds a flip-flop with an as-yet-unconnected D input.
    ///
    /// Connect it later with [`set_dff_input`](Self::set_dff_input);
    /// [`finish`](Self::finish) reports FFs left unconnected.
    pub fn dff(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.add_node(name.into(), NodeKind::Dff, Vec::new());
        self.dffs.push(id);
        id
    }

    /// Adds a flip-flop whose D input is already known.
    ///
    /// A `d` that does not belong to this builder is a
    /// [`BuildError::ForeignNode`] reported by [`finish`](Self::finish).
    pub fn dff_with_input(&mut self, name: impl Into<String>, d: NodeId) -> NodeId {
        let id = self.dff(name);
        self.nodes[id.index()].fanins = vec![d];
        id
    }

    /// Connects (or reconnects) a flip-flop's D input.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::NotADff`] if `ff` is not a flip-flop node and
    /// [`BuildError::ForeignNode`] if either id is out of range.
    pub fn set_dff_input(&mut self, ff: NodeId, d: NodeId) -> Result<(), BuildError> {
        if ff.index() >= self.nodes.len() || d.index() >= self.nodes.len() {
            return Err(BuildError::ForeignNode);
        }
        if !self.nodes[ff.index()].kind.is_dff() {
            return Err(BuildError::NotADff(self.nodes[ff.index()].name.clone()));
        }
        self.nodes[ff.index()].fanins = vec![d];
        Ok(())
    }

    /// Adds a combinational gate.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::BadArity`] when the fanin count is not allowed
    /// for `kind` (NOT/BUF take exactly one input, the n-ary gates at least
    /// one) and [`BuildError::ForeignNode`] when a fanin id is out of
    /// range.
    pub fn gate<I>(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanins: I,
    ) -> Result<NodeId, BuildError>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let name = name.into();
        let fanins: Vec<NodeId> = fanins.into_iter().collect();
        if !kind.takes(fanins.len()) {
            return Err(BuildError::BadArity {
                name,
                kind,
                got: fanins.len(),
            });
        }
        if fanins.iter().any(|f| f.index() >= self.nodes.len()) {
            return Err(BuildError::ForeignNode);
        }
        Ok(self.add_node(name, NodeKind::Gate(kind), fanins))
    }

    /// Adds a gate with a generated name (`prefix` + counter).
    ///
    /// # Errors
    ///
    /// Same as [`gate`](Self::gate).
    pub fn gate_auto<I>(&mut self, kind: GateKind, fanins: I) -> Result<NodeId, BuildError>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let name = self.fresh_name("n");
        self.gate(name, kind, fanins)
    }

    /// Convenience: a NOT gate with a generated name.
    ///
    /// # Errors
    ///
    /// Same as [`gate`](Self::gate).
    pub fn not(&mut self, a: NodeId) -> Result<NodeId, BuildError> {
        self.gate_auto(GateKind::Not, [a])
    }

    /// Convenience: an AND gate with a generated name.
    ///
    /// # Errors
    ///
    /// Same as [`gate`](Self::gate).
    pub fn and<I: IntoIterator<Item = NodeId>>(&mut self, ins: I) -> Result<NodeId, BuildError> {
        self.gate_auto(GateKind::And, ins)
    }

    /// Convenience: an OR gate with a generated name.
    ///
    /// # Errors
    ///
    /// Same as [`gate`](Self::gate).
    pub fn or<I: IntoIterator<Item = NodeId>>(&mut self, ins: I) -> Result<NodeId, BuildError> {
        self.gate_auto(GateKind::Or, ins)
    }

    /// Convenience: a 2-to-1 multiplexer built from AND/OR/NOT gates, as a
    /// technology mapper would decompose it.
    ///
    /// Returns the output node of `sel ? when_one : when_zero`. Four gates
    /// named `<prefix>_SELB`, `<prefix>_A0`, `<prefix>_A1`, `<prefix>_OR`
    /// are created — the same shape as the paper's Fig.3 mapping.
    ///
    /// # Errors
    ///
    /// Same as [`gate`](Self::gate) (duplicate prefix names surface at
    /// [`finish`](Self::finish)).
    pub fn mux(
        &mut self,
        prefix: &str,
        sel: NodeId,
        when_zero: NodeId,
        when_one: NodeId,
    ) -> Result<NodeId, BuildError> {
        let selb = self.gate(format!("{prefix}_SELB"), GateKind::Not, [sel])?;
        let a0 = self.gate(format!("{prefix}_A0"), GateKind::And, [selb, when_zero])?;
        let a1 = self.gate(format!("{prefix}_A1"), GateKind::And, [sel, when_one])?;
        self.gate(format!("{prefix}_OR"), GateKind::Or, [a0, a1])
    }

    /// Appends a node exactly as given, with no checks — the entry point
    /// for deserializers reconstructing a netlist from external data.
    ///
    /// The usual invariants (gate arity, single DFF driver, unique names)
    /// are **not** enforced here; [`finish`](Self::finish) validates them
    /// all at the end, and [`finish_unchecked`](Self::finish_unchecked)
    /// leaves them to [`Netlist::defects`].
    ///
    /// Inputs and flip-flops are registered in declaration order, exactly
    /// like [`input`](Self::input) and [`dff`](Self::dff).
    pub fn raw_node(
        &mut self,
        name: impl Into<String>,
        kind: NodeKind,
        fanins: Vec<NodeId>,
    ) -> NodeId {
        let id = self.add_node(name.into(), kind, fanins);
        match kind {
            NodeKind::Input => self.inputs.push(id),
            NodeKind::Dff => self.dffs.push(id),
            NodeKind::Const(_) | NodeKind::Gate(_) => {}
        }
        id
    }

    /// Replaces fanin `position` of an existing gate — netlist surgery for
    /// deserializers, rewriters and the lint-rule test corpus.
    ///
    /// Unlike gate creation, rewiring can introduce combinational cycles;
    /// [`finish`](Self::finish) rejects them, while
    /// [`finish_unchecked`](Self::finish_unchecked) lets them through for
    /// `mcp-lint` to diagnose.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::ForeignNode`] if either id is out of range,
    /// `node` is not a combinational gate (DFF inputs are reconnected with
    /// [`set_dff_input`](Self::set_dff_input)), or `position` is not one of
    /// its fanin slots.
    pub fn rewire_fanin(
        &mut self,
        node: NodeId,
        position: usize,
        new_fanin: NodeId,
    ) -> Result<(), BuildError> {
        if node.index() >= self.nodes.len() || new_fanin.index() >= self.nodes.len() {
            return Err(BuildError::ForeignNode);
        }
        let target = &mut self.nodes[node.index()];
        if !target.kind.is_gate() || position >= target.fanins.len() {
            return Err(BuildError::ForeignNode);
        }
        target.fanins[position] = new_fanin;
        Ok(())
    }

    /// Marks a node as a primary output. A node may be marked repeatedly;
    /// marks are deduplicated.
    pub fn mark_output(&mut self, id: NodeId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Validates the circuit and produces the immutable [`Netlist`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::ForeignNode`] if a fanin id (one given to
    /// [`dff_with_input`](Self::dff_with_input) included) does not belong
    /// to this builder, and otherwise the first of the netlist's
    /// structural defects ([`Netlist::defects`]): a
    /// [`BuildError::CombinationalCycle`], a [`BuildError::BadArity`]
    /// (only [`raw_node`](Self::raw_node) can create one), a
    /// [`BuildError::UnconnectedDff`] (a flip-flop whose D input was never
    /// connected via [`set_dff_input`](Self::set_dff_input) or
    /// [`dff_with_input`](Self::dff_with_input)), a
    /// [`BuildError::MultiDrivenDff`] (a [`raw_node`](Self::raw_node)
    /// flip-flop with several fanins) or a
    /// [`BuildError::DuplicateName`].
    pub fn finish(self) -> Result<Netlist, BuildError> {
        if !self.fanins_in_range() {
            return Err(BuildError::ForeignNode);
        }
        let netlist = self.into_netlist();
        match netlist.defects().first() {
            None => Ok(netlist),
            Some(defect) => Err(BuildError::of(&netlist, defect)),
        }
    }

    /// Produces a [`Netlist`] **without validating it**.
    ///
    /// Duplicate names, wrong gate arities, unconnected or multi-driven
    /// flip-flops and combinational cycles are all let through; the
    /// derived structures are computed best-effort (gates on or
    /// downstream of a combinational cycle are missing from the
    /// topological order and keep level 0).
    ///
    /// This is the entry point for layers that must represent a circuit
    /// *before* judging it — deserializers, repair flows, and above all the
    /// `mcp-lint` static-analysis pass, whose negative-test corpus is built
    /// of exactly the malformed circuits [`finish`](Self::finish) rejects.
    /// Check [`Netlist::defects`] (or run the lint rules) before trusting
    /// any analysis on the result.
    ///
    /// # Panics
    ///
    /// Panics if any fanin id is out of range (a foreign [`NodeId`] cannot
    /// be represented even permissively).
    pub fn finish_unchecked(self) -> Netlist {
        assert!(
            self.fanins_in_range(),
            "finish_unchecked: fanin id out of range"
        );
        self.into_netlist()
    }

    fn fanins_in_range(&self) -> bool {
        let n = self.nodes.len();
        self.nodes
            .iter()
            .all(|node| node.fanins.iter().all(|f| f.index() < n))
    }

    fn into_netlist(self) -> Netlist {
        let (fanouts, topo, level) = derive_structures(&self.nodes);
        let ff_index_of = self
            .dffs
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        Netlist {
            name: self.name,
            nodes: self.nodes,
            inputs: self.inputs,
            outputs: self.outputs,
            dffs: self.dffs,
            name_index: self.name_index,
            fanouts,
            topo,
            level,
            ff_index_of,
        }
    }
}

/// Computes fanouts, the combinational topological order and per-node
/// levels. On a combinational cycle the order covers only the acyclic
/// portion, and the gates on or fed by the cycle keep level 0.
fn derive_structures(nodes: &[Node]) -> (Vec<Vec<NodeId>>, Vec<NodeId>, Vec<u32>) {
    let n = nodes.len();

    // Kahn's algorithm over combinational gates. DFF outputs, inputs and
    // constants are sources; DFF D-inputs are sinks (the DFF edge does
    // not propagate within a cycle).
    let mut indeg = vec![0usize; n];
    for (i, node) in nodes.iter().enumerate() {
        if node.kind.is_gate() {
            indeg[i] = node
                .fanins
                .iter()
                .filter(|f| nodes[f.index()].kind.is_gate())
                .count();
        }
    }
    // gate-to-gate adjacency via fanouts computed below; do a simple
    // worklist instead to avoid building it twice.
    let mut fanouts: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (i, node) in nodes.iter().enumerate() {
        for &f in &node.fanins {
            fanouts[f.index()].push(NodeId(i as u32));
        }
    }

    let mut topo: Vec<NodeId> = Vec::with_capacity(n);
    let mut ready: Vec<NodeId> = (0..n)
        .filter(|&i| nodes[i].kind.is_gate() && indeg[i] == 0)
        .map(|i| NodeId(i as u32))
        .collect();
    while let Some(g) = ready.pop() {
        topo.push(g);
        for &out in &fanouts[g.index()] {
            if nodes[out.index()].kind.is_gate() {
                indeg[out.index()] -= 1;
                if indeg[out.index()] == 0 {
                    ready.push(out);
                }
            }
        }
    }

    let mut level = vec![0u32; n];
    for &g in &topo {
        level[g.index()] = 1 + nodes[g.index()]
            .fanins
            .iter()
            .map(|f| level[f.index()])
            .max()
            .unwrap_or(0);
    }

    (fanouts, topo, level)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_names_are_reported_at_finish() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.input("A");
        let _ = b.gate("A", GateKind::Not, [a]).unwrap();
        assert!(matches!(b.finish(), Err(BuildError::DuplicateName(n)) if n == "A"));
    }

    #[test]
    fn bad_arity_is_immediate() {
        let mut b = NetlistBuilder::new("arity");
        let a = b.input("A");
        let c = b.input("B");
        let err = b.gate("N", GateKind::Not, [a, c]).unwrap_err();
        assert!(matches!(err, BuildError::BadArity { got: 2, .. }));
        let err = b.gate("E", GateKind::And, []).unwrap_err();
        assert!(matches!(err, BuildError::BadArity { got: 0, .. }));
    }

    #[test]
    fn unconnected_dff_is_rejected() {
        let mut b = NetlistBuilder::new("open");
        let _ = b.dff("Q");
        assert!(matches!(b.finish(), Err(BuildError::UnconnectedDff(n)) if n == "Q"));
    }

    #[test]
    fn combinational_cycle_is_rejected() {
        // A cycle through a DFF is fine — the FF boundary breaks it.
        let mut b = NetlistBuilder::new("loop");
        let q = b.dff("Q");
        let g = b.gate("G", GateKind::Not, [q]).unwrap();
        b.set_dff_input(q, g).unwrap();
        assert!(b.finish().is_ok());

        // g1 = NOT(g2); g2 = BUF(g1): a DFF-free cycle, expressible only
        // through rewiring, is rejected at finish.
        let mut b = NetlistBuilder::new("comb-loop");
        let a = b.input("A");
        let g1 = b.gate("G1", GateKind::Not, [a]).unwrap();
        let g2 = b.gate("G2", GateKind::Buf, [g1]).unwrap();
        b.rewire_fanin(g1, 0, g2).unwrap();
        assert!(matches!(
            b.finish(),
            Err(BuildError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn rewire_fanin_validates_its_target() {
        let mut b = NetlistBuilder::new("rw");
        let a = b.input("A");
        let q = b.dff("Q");
        let g = b.gate("G", GateKind::Not, [a]).unwrap();
        b.set_dff_input(q, g).unwrap();
        assert!(matches!(
            b.rewire_fanin(q, 0, a),
            Err(BuildError::ForeignNode)
        ));
        assert!(matches!(
            b.rewire_fanin(g, 1, a),
            Err(BuildError::ForeignNode)
        ));
        assert!(matches!(
            b.rewire_fanin(g, 0, NodeId::from_index(99)),
            Err(BuildError::ForeignNode)
        ));
        b.rewire_fanin(g, 0, q).unwrap();
        assert!(b.finish().is_ok());
    }

    #[test]
    fn dff_breaks_cycles_and_levels_are_computed() {
        let mut b = NetlistBuilder::new("lv");
        let q = b.dff("Q");
        let n1 = b.gate("N1", GateKind::Not, [q]).unwrap();
        let n2 = b.gate("N2", GateKind::Not, [n1]).unwrap();
        b.set_dff_input(q, n2).unwrap();
        let nl = b.finish().unwrap();
        assert_eq!(nl.level(nl.find_node("N1").unwrap()), 1);
        assert_eq!(nl.level(nl.find_node("N2").unwrap()), 2);
        assert_eq!(nl.depth(), 2);
    }

    #[test]
    fn mux_decomposes_into_four_gates() {
        let mut b = NetlistBuilder::new("mux");
        let s = b.input("S");
        let x = b.input("X");
        let y = b.input("Y");
        let m = b.mux("M", s, x, y).unwrap();
        b.mark_output(m);
        let nl = b.finish().unwrap();
        assert_eq!(nl.num_gates(), 4);
        assert!(nl.find_node("M_SELB").is_some());
        assert!(nl.find_node("M_OR").is_some());
    }

    #[test]
    fn fresh_names_never_collide() {
        let mut b = NetlistBuilder::new("fresh");
        let a = b.input("n0"); // occupy the first auto name
        let g = b.gate_auto(GateKind::Not, [a]).unwrap();
        assert_ne!(b.finish().unwrap().node(g).name(), "n0");
    }

    #[test]
    fn dff_with_input_rejects_foreign_nodes_at_finish() {
        let mut b = NetlistBuilder::new("foreign");
        let bogus = NodeId::from_index(7); // no such node in this builder
        let _ = b.dff_with_input("Q", bogus);
        assert!(matches!(b.finish(), Err(BuildError::ForeignNode)));
    }

    #[test]
    fn finish_unchecked_permits_what_finish_rejects() {
        // Unconnected DFF.
        let mut b = NetlistBuilder::new("open");
        let q = b.dff("Q");
        let nl = b.finish_unchecked();
        assert!(nl.node(q).fanins().is_empty());
        assert_eq!(nl.num_ffs(), 1);

        // Duplicate names.
        let mut b = NetlistBuilder::new("dup");
        let a = b.input("A");
        let g = b.gate("A", GateKind::Not, [a]).unwrap();
        let nl = b.finish_unchecked();
        assert_eq!(nl.node(g).name(), nl.node(a).name());

        // A combinational cycle (forged through a reconnected "DFF" slot is
        // impossible; forge it by building the netlist by hand below in the
        // lint crate — here just check the derived structures stay sane
        // when a gate is stranded).
        let mut b = NetlistBuilder::new("lv");
        let q = b.dff("Q");
        let n1 = b.gate("N1", GateKind::Not, [q]).unwrap();
        b.set_dff_input(q, n1).unwrap();
        let nl = b.finish_unchecked();
        assert_eq!(nl.num_gates(), 1);
        assert_eq!(nl.level(n1), 1);
    }

    #[test]
    fn raw_node_defers_validation_to_finish() {
        let mut b = NetlistBuilder::new("raw");
        let a = b.raw_node("a", NodeKind::Input, Vec::new());
        let q = b.raw_node("q", NodeKind::Dff, vec![a]);
        let _zw = b.raw_node("zw", NodeKind::Gate(GateKind::And), Vec::new());
        b.mark_output(q);
        assert!(matches!(
            b.finish(),
            Err(BuildError::BadArity { got: 0, .. })
        ));

        let mut b = NetlistBuilder::new("raw-ok");
        let a = b.raw_node("a", NodeKind::Input, Vec::new());
        let g = b.raw_node("g", NodeKind::Gate(GateKind::Not), vec![a]);
        let q = b.raw_node("q", NodeKind::Dff, vec![g]);
        b.mark_output(q);
        let nl = b.finish().unwrap();
        assert_eq!(nl.num_inputs(), 1);
        assert_eq!(nl.num_ffs(), 1);
        assert_eq!(nl.ff_d_input(0), g);
    }

    #[test]
    fn multi_driven_dff_is_rejected_at_finish() {
        let mut b = NetlistBuilder::new("md");
        let a = b.input("A");
        let c = b.input("B");
        let q = b.raw_node("Q", NodeKind::Dff, vec![a, c]);
        assert!(matches!(
            b.rewire_fanin(q, 0, a),
            Err(BuildError::ForeignNode)
        ));
        assert!(matches!(b.finish(), Err(BuildError::MultiDrivenDff(n)) if n == "Q"));
    }

    #[test]
    fn set_dff_input_validates() {
        let mut b = NetlistBuilder::new("v");
        let a = b.input("A");
        let q = b.dff("Q");
        assert!(matches!(
            b.set_dff_input(a, q),
            Err(BuildError::NotADff(n)) if n == "A"
        ));
        assert!(b.set_dff_input(q, a).is_ok());
    }
}
