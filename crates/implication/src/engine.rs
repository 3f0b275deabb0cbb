//! Direct implication with trail-based backtracking.

use crate::learn::LearnedImplications;
use mcp_logic::{GateKind, V3};
use mcp_netlist::{Expanded, XId, XKind};
use std::collections::VecDeque;
use std::fmt;

/// A contradiction found during assignment or propagation.
///
/// The engine state after a conflict is a partially propagated trail; the
/// caller must [`backtrack`](ImpEngine::backtrack) to a checkpoint before
/// continuing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// The node at which inconsistent values met.
    pub node: XId,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conflicting implications at node {}", self.node)
    }
}

impl std::error::Error for Conflict {}

/// A snapshot of the engine's trail, returned by
/// [`ImpEngine::checkpoint`] and consumed by [`ImpEngine::backtrack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint(usize);

/// The implication engine: a ternary value store over an expanded model
/// with exhaustive direct implications and cheap backtracking.
///
/// Direct implications at a gate `g = OP(f1 .. fk)`:
///
/// * **forward** — if the fanin values determine the output under the
///   ternary evaluation, the output is implied;
/// * **backward** — if the output is assigned:
///   * a *non-controlled* output (e.g. AND = 1) forces every input to the
///     non-controlling value;
///   * a *controlled* output (e.g. AND = 0) with exactly one unassigned
///     input and all other inputs non-controlling forces that input to the
///     controlling value (unique justification);
///   * NOT/BUF force their single input; XOR/XNOR with one unassigned
///     input force it to the required parity.
///
/// A [`LearnedImplications`] store can be attached with
/// [`with_learned`](Self::with_learned) to additionally replay global
/// implications on every assignment.
#[derive(Debug)]
pub struct ImpEngine<'a> {
    x: &'a Expanded,
    val: Vec<V3>,
    trail: Vec<XId>,
    queue: VecDeque<XId>,
    in_queue: Vec<bool>,
    learned: Option<&'a LearnedImplications>,
    /// Definite values placed on the trail so far (instrumentation).
    implications: u64,
    /// Conflicts discovered so far (instrumentation).
    contradictions: u64,
}

impl<'a> ImpEngine<'a> {
    /// Creates an engine over `x` with every variable and gate unassigned
    /// (constants are pre-assigned and never appear on the trail).
    pub fn new(x: &'a Expanded) -> Self {
        let mut val = vec![V3::X; x.num_nodes()];
        for (id, node) in x.nodes() {
            if let XKind::Const(b) = node.kind() {
                val[id.index()] = V3::from(b);
            }
        }
        ImpEngine {
            x,
            val,
            trail: Vec::new(),
            queue: VecDeque::new(),
            in_queue: vec![false; x.num_nodes()],
            learned: None,
            implications: 0,
            contradictions: 0,
        }
    }

    /// Attaches a static-learning store; its implications are replayed on
    /// every assignment from now on.
    pub fn with_learned(mut self, learned: &'a LearnedImplications) -> Self {
        self.learned = Some(learned);
        self
    }

    /// The expanded model this engine works on.
    #[inline]
    pub fn expanded(&self) -> &'a Expanded {
        self.x
    }

    /// Current value of a node.
    #[inline]
    pub fn value(&self, id: XId) -> V3 {
        self.val[id.index()]
    }

    /// Number of assigned (non-`X`) nodes currently on the trail.
    #[inline]
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }

    /// Definite values placed on the trail so far, counting both asserted
    /// objectives and derived implications (instrumentation).
    #[inline]
    pub fn implications(&self) -> u64 {
        self.implications
    }

    /// Conflicts discovered so far by [`assign`](Self::assign) or
    /// [`propagate`](Self::propagate) (instrumentation).
    #[inline]
    pub fn contradictions(&self) -> u64 {
        self.contradictions
    }

    /// The node assigned at trail position `k` (`k < trail_len()`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn trail_at(&self, k: usize) -> XId {
        self.trail[k]
    }

    /// Takes a checkpoint of the current trail.
    #[inline]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.trail.len())
    }

    /// Undoes every assignment made after `cp` and clears pending work.
    pub fn backtrack(&mut self, cp: Checkpoint) {
        while self.trail.len() > cp.0 {
            let id = self.trail.pop().expect("trail non-empty");
            self.val[id.index()] = V3::X;
        }
        while let Some(g) = self.queue.pop_front() {
            self.in_queue[g.index()] = false;
        }
    }

    fn schedule(&mut self, g: XId) {
        if !self.in_queue[g.index()] {
            self.in_queue[g.index()] = true;
            self.queue.push_back(g);
        }
    }

    /// Schedules the gates whose pins involve `id`: its fanouts, and itself
    /// when it is a gate (for backward implications).
    fn schedule_around(&mut self, id: XId) {
        if matches!(self.x.node(id).kind(), XKind::Gate(_)) {
            self.schedule(id);
        }
        let n_fanouts = self.x.fanouts(id).len();
        for k in 0..n_fanouts {
            let out = self.x.fanouts(id)[k];
            self.schedule(out);
        }
    }

    /// Assigns `id := v`, scheduling implications (run
    /// [`propagate`](Self::propagate) to perform them).
    ///
    /// # Errors
    ///
    /// Returns [`Conflict`] if `id` already holds the opposite value. An
    /// assignment equal to the current value is a no-op.
    pub fn assign(&mut self, id: XId, v: bool) -> Result<(), Conflict> {
        match self.val[id.index()] {
            V3::X => {
                self.val[id.index()] = V3::from(v);
                self.trail.push(id);
                self.implications += 1;
                self.schedule_around(id);
                if let Some(learned) = self.learned {
                    // Replay learned binary implications for this literal.
                    for &(m, w) in learned.implied_by(id, v) {
                        self.assign(m, w)?;
                    }
                }
                Ok(())
            }
            cur if cur == V3::from(v) => Ok(()),
            _ => {
                self.contradictions += 1;
                Err(Conflict { node: id })
            }
        }
    }

    /// Runs direct implications to fixpoint.
    ///
    /// # Errors
    ///
    /// Returns the first [`Conflict`] discovered. The engine then holds a
    /// partially propagated state; backtrack before reuse.
    pub fn propagate(&mut self) -> Result<(), Conflict> {
        while let Some(g) = self.queue.pop_front() {
            self.in_queue[g.index()] = false;
            self.examine(g)?;
        }
        Ok(())
    }

    /// Performs all direct implications available at gate `g`.
    fn examine(&mut self, g: XId) -> Result<(), Conflict> {
        let node = self.x.node(g);
        let kind = match node.kind() {
            XKind::Gate(k) => k,
            _ => return Ok(()),
        };
        // Forward: does the fanin picture determine the output?
        let fanins = node.fanins();
        let fwd = kind.eval_v3(fanins.iter().map(|f| self.val[f.index()]));
        let out = self.val[g.index()];
        match (out, fwd) {
            (V3::X, V3::X) => return Ok(()), // nothing known yet
            (V3::X, _) => {
                let v = fwd.to_bool().expect("definite");
                return self.assign(g, v);
            }
            (_, V3::X) => {} // fall through to backward rules
            (o, f) if o == f => {
                // Output already justified; for gates with controlling
                // values a *controlled* output may still imply the last
                // free input when all assigned inputs are non-controlling —
                // but if forward eval is definite the inputs are all
                // assigned, so nothing remains.
                return Ok(());
            }
            _ => {
                self.contradictions += 1;
                return Err(Conflict { node: g });
            }
        }

        // Backward: output definite, inputs not yet determining it.
        let out_v = out.to_bool().expect("checked definite");
        match kind {
            GateKind::Not | GateKind::Buf => {
                let want = out_v ^ kind.output_inversion();
                let f0 = fanins[0];
                self.assign(f0, want)
            }
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let c = kind.controlling_value().expect("and/or family");
                let controlled = kind.controlled_output().expect("and/or family");
                if out_v != controlled {
                    // Non-controlled output: every input non-controlling.
                    for k in 0..fanins.len() {
                        let f = self.x.node(g).fanins()[k];
                        self.assign(f, !c)?;
                    }
                    Ok(())
                } else {
                    // Controlled output: if some input already carries the
                    // controlling value we are justified; otherwise, if
                    // exactly one input is unassigned it must carry it.
                    let mut unassigned = None;
                    let mut count_x = 0usize;
                    for &f in fanins {
                        match self.val[f.index()].to_bool() {
                            Some(v) if v == c => return Ok(()), // justified
                            Some(_) => {}
                            None => {
                                count_x += 1;
                                unassigned = Some(f);
                            }
                        }
                    }
                    match count_x {
                        0 => {
                            // All inputs non-controlling but controlled out.
                            self.contradictions += 1;
                            Err(Conflict { node: g })
                        }
                        1 => self.assign(unassigned.expect("one unassigned"), c),
                        _ => Ok(()), // undetermined: an unjustified gate (J-frontier)
                    }
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                // Parity: with exactly one unassigned input, it is implied.
                let mut unassigned = None;
                let mut count_x = 0usize;
                let mut parity = out_v ^ kind.output_inversion();
                for &f in fanins {
                    match self.val[f.index()].to_bool() {
                        Some(v) => parity ^= v,
                        None => {
                            count_x += 1;
                            unassigned = Some(f);
                        }
                    }
                }
                match count_x {
                    0 => {
                        // Fully assigned; forward eval would have caught a
                        // mismatch, but be safe.
                        if parity {
                            self.contradictions += 1;
                            Err(Conflict { node: g })
                        } else {
                            Ok(())
                        }
                    }
                    1 => self.assign(unassigned.expect("one unassigned"), parity),
                    _ => Ok(()),
                }
            }
        }
    }

    /// Returns the gates whose output is assigned a *controlled* value that
    /// no input justifies yet — the classic **J-frontier** the ATPG search
    /// branches on.
    ///
    /// XOR/XNOR gates count as unjustified when their output is assigned
    /// and at least two inputs are unassigned.
    pub fn unjustified_gates(&self) -> Vec<XId> {
        let mut res = Vec::new();
        for &g in self.x.topo_gates() {
            if self.is_unjustified(g) {
                res.push(g);
            }
        }
        res
    }

    /// Whether gate `g` is currently unjustified (see
    /// [`unjustified_gates`](Self::unjustified_gates)).
    pub fn is_unjustified(&self, g: XId) -> bool {
        let node = self.x.node(g);
        let kind = match node.kind() {
            XKind::Gate(k) => k,
            _ => return false,
        };
        let out = match self.val[g.index()].to_bool() {
            Some(v) => v,
            None => return false,
        };
        match kind {
            GateKind::Not | GateKind::Buf => false, // always implied through
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let c = kind.controlling_value().expect("and/or family");
                let controlled = kind.controlled_output().expect("and/or family");
                if out != controlled {
                    return false; // backward rule assigns all inputs
                }
                let mut count_x = 0usize;
                for &f in node.fanins() {
                    match self.val[f.index()].to_bool() {
                        Some(v) if v == c => return false, // justified
                        Some(_) => {}
                        None => count_x += 1,
                    }
                }
                count_x >= 2 // 0 → conflict, 1 → implied; both handled in examine
            }
            GateKind::Xor | GateKind::Xnor => {
                node.fanins()
                    .iter()
                    .filter(|f| self.val[f.index()] == V3::X)
                    .count()
                    >= 2
            }
        }
    }

    /// Finds one unjustified gate, or `None` when the current assignment is
    /// fully justified.
    ///
    /// Scans the trail oldest-first: every unjustified gate has a definite
    /// output, so it must be on the trail, and the oldest entries are the
    /// caller's asserted objectives — branching near them keeps the search
    /// goal-directed. This is O(trail) rather than O(model).
    pub fn find_unjustified(&self) -> Option<XId> {
        self.trail
            .iter()
            .copied()
            .find(|&id| self.is_unjustified(id))
    }

    /// Extracts the current assignment of the model's free variables.
    ///
    /// Unassigned variables are reported as `X`; the caller decides how to
    /// complete them (any completion is consistent once propagation has
    /// settled and no gate is unjustified).
    pub fn var_assignment(&self) -> Vec<(XId, V3)> {
        self.x
            .vars()
            .iter()
            .map(|&v| (v, self.val[v.index()]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcp_netlist::{bench, NetlistBuilder};

    fn expand(src: &str) -> (mcp_netlist::Netlist, Expanded) {
        let nl = bench::parse("t", src).expect("parse");
        let x = Expanded::build(&nl, 1);
        (nl, x)
    }

    #[test]
    fn forward_implication_through_chain() {
        let (nl, x) = expand("INPUT(a)\nq = DFF(y)\ny = NOT(b)\nb = NOT(a)");
        let a = x.pi_at(0, 0);
        let y = x.value_of(0, nl.find_node("y").unwrap());
        let mut eng = ImpEngine::new(&x);
        eng.assign(a, true).unwrap();
        eng.propagate().unwrap();
        assert_eq!(eng.value(y), V3::One);
    }

    #[test]
    fn backward_noncontrolled_output_forces_all_inputs() {
        let (nl, x) = expand("INPUT(a)\nINPUT(b)\nq = DFF(y)\ny = NOR(a, b)");
        let y = x.value_of(0, nl.find_node("y").unwrap());
        let mut eng = ImpEngine::new(&x);
        eng.assign(y, true).unwrap(); // NOR=1 -> both inputs 0
        eng.propagate().unwrap();
        assert_eq!(eng.value(x.pi_at(0, 0)), V3::Zero);
        assert_eq!(eng.value(x.pi_at(1, 0)), V3::Zero);
    }

    #[test]
    fn backward_unique_justification() {
        let (nl, x) = expand("INPUT(a)\nINPUT(b)\nq = DFF(y)\ny = AND(a, b)");
        let y = x.value_of(0, nl.find_node("y").unwrap());
        let a = x.pi_at(0, 0);
        let b = x.pi_at(1, 0);
        let mut eng = ImpEngine::new(&x);
        eng.assign(y, false).unwrap();
        eng.assign(a, true).unwrap(); // a non-controlling -> b must justify
        eng.propagate().unwrap();
        assert_eq!(eng.value(b), V3::Zero);
    }

    #[test]
    fn xor_parity_implication() {
        let (nl, x) = expand("INPUT(a)\nINPUT(b)\nINPUT(c)\nq = DFF(y)\ny = XOR(a, b, c)");
        let y = x.value_of(0, nl.find_node("y").unwrap());
        let mut eng = ImpEngine::new(&x);
        eng.assign(y, true).unwrap();
        eng.assign(x.pi_at(0, 0), true).unwrap();
        eng.assign(x.pi_at(1, 0), false).unwrap();
        eng.propagate().unwrap();
        assert_eq!(eng.value(x.pi_at(2, 0)), V3::Zero); // 1^0^c = 1 -> c=0
    }

    #[test]
    fn conflict_on_inconsistent_structure() {
        // y = AND(a, na); na = NOT(a). y=1 is impossible.
        let (nl, x) = expand("INPUT(a)\nq = DFF(y)\nna = NOT(a)\ny = AND(a, na)");
        let y = x.value_of(0, nl.find_node("y").unwrap());
        let mut eng = ImpEngine::new(&x);
        let cp = eng.checkpoint();
        let r = eng.assign(y, true).and_then(|()| eng.propagate());
        assert!(r.is_err());
        eng.backtrack(cp);
        assert_eq!(eng.value(y), V3::X);
        // After backtracking, the consistent branch works.
        eng.assign(y, false).unwrap();
        eng.propagate().unwrap();
    }

    #[test]
    fn checkpoints_nest() {
        let (_, x) = expand("INPUT(a)\nINPUT(b)\nq = DFF(y)\ny = AND(a, b)");
        let a = x.pi_at(0, 0);
        let b = x.pi_at(1, 0);
        let mut eng = ImpEngine::new(&x);
        let cp0 = eng.checkpoint();
        eng.assign(a, true).unwrap();
        let cp1 = eng.checkpoint();
        eng.assign(b, true).unwrap();
        eng.propagate().unwrap();
        assert_eq!(eng.trail_len(), 3); // a, b, y
        eng.backtrack(cp1);
        assert_eq!(eng.value(b), V3::X);
        assert_eq!(eng.value(a), V3::One);
        eng.backtrack(cp0);
        assert_eq!(eng.value(a), V3::X);
    }

    #[test]
    fn unjustified_gates_form_j_frontier() {
        let (nl, x) = expand("INPUT(a)\nINPUT(b)\nq = DFF(y)\ny = AND(a, b)");
        let y = x.value_of(0, nl.find_node("y").unwrap());
        let mut eng = ImpEngine::new(&x);
        eng.assign(y, false).unwrap();
        eng.propagate().unwrap();
        assert_eq!(eng.unjustified_gates(), vec![y]);
        // Justify it: a = 0.
        eng.assign(x.pi_at(0, 0), false).unwrap();
        eng.propagate().unwrap();
        assert!(eng.unjustified_gates().is_empty());
    }

    #[test]
    fn cross_frame_implication_through_aliases() {
        // q' = NOT(q). In a 2-frame expansion, asserting q(t+1)=1 implies
        // q(t)=0 (backward through frame 0) and q(t+2)=0 (forward through
        // frame 1) — the paper's Fig.2-style flow.
        let mut b = NetlistBuilder::new("toggle");
        let q = b.dff("Q");
        let n = b.gate("N", mcp_logic::GateKind::Not, [q]).unwrap();
        b.set_dff_input(q, n).unwrap();
        let nl = b.finish().unwrap();
        let x = Expanded::build(&nl, 2);
        let mut eng = ImpEngine::new(&x);
        eng.assign(x.ff_at(0, 1), true).unwrap();
        eng.propagate().unwrap();
        assert_eq!(eng.value(x.ff_at(0, 0)), V3::Zero);
        assert_eq!(eng.value(x.ff_at(0, 2)), V3::Zero);
    }

    #[test]
    fn assigning_same_value_twice_is_noop() {
        let (_, x) = expand("INPUT(a)\nq = DFF(y)\ny = BUFF(a)");
        let a = x.pi_at(0, 0);
        let mut eng = ImpEngine::new(&x);
        eng.assign(a, true).unwrap();
        let len = eng.trail_len();
        eng.assign(a, true).unwrap();
        assert_eq!(eng.trail_len(), len);
        assert!(eng.assign(a, false).is_err());
    }

    #[test]
    fn constants_are_preassigned_and_survive_backtrack() {
        let (nl, x) = expand("OUTPUT(y)\nc1 = CONST(1)\nq = DFF(y)\ny = BUFF(c1)");
        let y = x.value_of(0, nl.find_node("y").unwrap());
        let mut eng = ImpEngine::new(&x);
        let cp = eng.checkpoint();
        eng.propagate().unwrap();
        eng.backtrack(cp);
        // The constant itself is still known even after backtracking.
        let c1 = x.value_of(0, nl.find_node("c1").unwrap());
        assert_eq!(eng.value(c1), V3::One);
        // And asserting y=0 now conflicts.
        let r = eng.assign(y, false).and_then(|()| eng.propagate());
        assert!(r.is_err());
    }
}
