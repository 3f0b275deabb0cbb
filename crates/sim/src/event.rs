//! Event-driven three-valued simulation.

use mcp_logic::V3;
use mcp_netlist::{Netlist, NodeId, NodeKind};
use std::collections::VecDeque;

/// An event-driven three-valued simulator over a [`Netlist`].
///
/// Unlike [`ParallelSim`](crate::ParallelSim), this simulator works in the
/// ternary domain (unset inputs read `X`) and only re-evaluates gates whose
/// fanins changed, making incremental what-if probing cheap. It is the
/// workhorse of the examples and of cross-validation tests; the production
/// filter uses the bit-parallel simulator.
///
/// # Example
///
/// ```
/// use mcp_logic::V3;
/// use mcp_netlist::bench;
/// use mcp_sim::EventSim;
///
/// let nl = bench::parse("t", "INPUT(A)\nOUTPUT(Y)\nY = AND(A, B)\nB = NOT(A)")?;
/// let mut sim = EventSim::new(&nl);
/// // With A unknown, Y is unknown (the simulator does not detect the
/// // A & !A tautology — that is the implication engine's job).
/// assert_eq!(sim.value(nl.find_node("Y").unwrap()), V3::X);
/// sim.set_input(0, V3::One);
/// sim.propagate();
/// assert_eq!(sim.value(nl.find_node("Y").unwrap()), V3::Zero);
/// # Ok::<(), mcp_netlist::bench::ParseBenchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EventSim<'a> {
    netlist: &'a Netlist,
    values: Vec<V3>,
    dirty: Vec<bool>,
    queue: VecDeque<NodeId>,
    /// Gate evaluations performed since construction (for instrumentation).
    evals: u64,
}

impl<'a> EventSim<'a> {
    /// Creates a simulator with every input and FF at `X` and constants at
    /// their values; combinational nodes are consistent (all `X` unless
    /// constants force them).
    pub fn new(netlist: &'a Netlist) -> Self {
        let mut sim = EventSim {
            netlist,
            values: vec![V3::X; netlist.num_nodes()],
            dirty: vec![false; netlist.num_nodes()],
            queue: VecDeque::new(),
            evals: 0,
        };
        for (id, node) in netlist.nodes() {
            if let NodeKind::Const(v) = node.kind() {
                sim.values[id.index()] = V3::from(v);
                sim.schedule_fanouts(id);
            }
        }
        sim.propagate();
        sim
    }

    fn schedule_fanouts(&mut self, id: NodeId) {
        for &out in self.netlist.fanouts(id) {
            if self.netlist.node(out).kind().is_gate() && !self.dirty[out.index()] {
                self.dirty[out.index()] = true;
                self.queue.push_back(out);
            }
        }
    }

    /// Sets primary input `pi` and schedules affected gates.
    ///
    /// Call [`propagate`](Self::propagate) to settle the circuit.
    ///
    /// # Panics
    ///
    /// Panics if `pi` is out of range.
    pub fn set_input(&mut self, pi: usize, v: V3) {
        let id = self.netlist.inputs()[pi];
        if self.values[id.index()] != v {
            self.values[id.index()] = v;
            self.schedule_fanouts(id);
        }
    }

    /// Sets flip-flop `ff`'s present state and schedules affected gates.
    ///
    /// # Panics
    ///
    /// Panics if `ff` is out of range.
    pub fn set_state(&mut self, ff: usize, v: V3) {
        let id = self.netlist.dffs()[ff];
        if self.values[id.index()] != v {
            self.values[id.index()] = v;
            self.schedule_fanouts(id);
        }
    }

    /// Propagates pending events until the circuit settles.
    pub fn propagate(&mut self) {
        while let Some(g) = self.queue.pop_front() {
            self.dirty[g.index()] = false;
            let node = self.netlist.node(g);
            let kind = node.kind().gate_kind().expect("only gates scheduled");
            self.evals += 1;
            let v = kind.eval_v3(node.fanins().iter().map(|f| self.values[f.index()]));
            if v != self.values[g.index()] {
                self.values[g.index()] = v;
                self.schedule_fanouts(g);
            }
        }
    }

    /// Latches every FF's D-input value (positive clock edge) and settles
    /// the next cycle's combinational values.
    pub fn clock(&mut self) {
        let next: Vec<V3> = (0..self.netlist.num_ffs())
            .map(|k| self.values[self.netlist.ff_d_input(k).index()])
            .collect();
        for (k, v) in next.into_iter().enumerate() {
            self.set_state(k, v);
        }
        self.propagate();
    }

    /// The settled value of a node (valid after
    /// [`propagate`](Self::propagate)).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the netlist.
    #[inline]
    pub fn value(&self, node: NodeId) -> V3 {
        self.values[node.index()]
    }

    /// Present state of flip-flop `ff`.
    ///
    /// # Panics
    ///
    /// Panics if `ff` is out of range.
    #[inline]
    pub fn state(&self, ff: usize) -> V3 {
        self.values[self.netlist.dffs()[ff].index()]
    }

    /// Number of gate evaluations performed so far (instrumentation for
    /// benches).
    #[inline]
    pub fn evals(&self) -> u64 {
        self.evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParallelSim;
    use mcp_logic::GateKind;
    use mcp_netlist::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_netlist(seed: u64, n_gates: usize) -> Netlist {
        // Random combinational DAG over 4 PIs and 2 FFs with random D hookup.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new("rand");
        let mut pool: Vec<NodeId> = (0..4).map(|i| b.input(format!("I{i}"))).collect();
        let ffs: Vec<NodeId> = (0..2).map(|i| b.dff(format!("F{i}"))).collect();
        pool.extend(&ffs);
        let kinds = [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ];
        for _ in 0..n_gates {
            let kind = kinds[rng.random_range(0..kinds.len())];
            let arity = kind.fixed_arity().unwrap_or(rng.random_range(1..=3));
            let ins: Vec<NodeId> = (0..arity)
                .map(|_| pool[rng.random_range(0..pool.len())])
                .collect();
            let g = b.gate_auto(kind, ins).unwrap();
            pool.push(g);
        }
        for &ff in &ffs {
            let d = pool[rng.random_range(0..pool.len())];
            b.set_dff_input(ff, d).unwrap();
        }
        b.mark_output(*pool.last().unwrap());
        b.finish().unwrap()
    }

    #[test]
    fn agrees_with_parallel_sim_on_definite_values() {
        for seed in 0..20 {
            let nl = rand_netlist(seed, 25);
            let mut esim = EventSim::new(&nl);
            let mut psim = ParallelSim::new(&nl);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            for pi in 0..nl.num_inputs() {
                let bit: bool = rng.random();
                esim.set_input(pi, V3::from(bit));
                psim.set_input(pi, if bit { u64::MAX } else { 0 });
            }
            for ff in 0..nl.num_ffs() {
                let bit: bool = rng.random();
                esim.set_state(ff, V3::from(bit));
                psim.set_state(ff, if bit { u64::MAX } else { 0 });
            }
            esim.propagate();
            psim.eval();
            for (id, _) in nl.nodes() {
                let pv = psim.value(id) & 1 == 1;
                assert_eq!(
                    esim.value(id),
                    V3::from(pv),
                    "node {} in seed {seed}",
                    nl.node(id).name()
                );
            }
        }
    }

    #[test]
    fn unknown_inputs_yield_x_unless_controlled() {
        let mut b = NetlistBuilder::new("x");
        let a = b.input("A");
        let c = b.input("B");
        let g = b.gate("G", GateKind::And, [a, c]).unwrap();
        b.mark_output(g);
        let nl = b.finish().unwrap();
        let mut sim = EventSim::new(&nl);
        assert_eq!(sim.value(g), V3::X);
        sim.set_input(0, V3::Zero);
        sim.propagate();
        assert_eq!(sim.value(g), V3::Zero); // controlled by A=0
    }

    #[test]
    fn clock_advances_ff_state() {
        let mut b = NetlistBuilder::new("t");
        let q = b.dff("Q");
        let n = b.gate("N", GateKind::Not, [q]).unwrap();
        b.set_dff_input(q, n).unwrap();
        let nl = b.finish().unwrap();
        let mut sim = EventSim::new(&nl);
        sim.set_state(0, V3::Zero);
        sim.propagate();
        sim.clock();
        assert_eq!(sim.state(0), V3::One);
        sim.clock();
        assert_eq!(sim.state(0), V3::Zero);
    }

    #[test]
    fn event_counting_is_incremental() {
        let nl = rand_netlist(3, 30);
        let mut sim = EventSim::new(&nl);
        for pi in 0..nl.num_inputs() {
            sim.set_input(pi, V3::Zero);
        }
        sim.propagate();
        let full = sim.evals();
        // Re-setting the same value schedules nothing.
        sim.set_input(0, V3::Zero);
        sim.propagate();
        assert_eq!(sim.evals(), full);
    }
}
