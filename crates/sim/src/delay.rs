//! Transport-delay timing simulation for dynamic glitch observation.
//!
//! The static hazard checks of the analysis are delay-*independent*; this
//! simulator is the delay-*dependent* ground they are validated against:
//! assign a concrete delay to every gate, switch the flip-flop outputs and
//! primary inputs simultaneously (a clock edge), and watch whether a node
//! transitions more than once before settling — a **dynamic glitch**, the
//! event the paper's Section 5 worries may cross a relaxed cycle boundary.
//!
//! The model is the transport-delay model: a gate re-evaluates whenever an
//! input changes and schedules its new output value `delay` time units
//! later whenever it differs from the last value already scheduled.
//! Opposite changes in flight are both delivered, which is exactly what
//! makes static hazards visible (an inertial model would swallow narrow
//! pulses).

use crate::ParallelSim;
use mcp_netlist::{Netlist, NodeId, NodeKind};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of simulating one clock edge: per-node transition counts, plus
/// the full event trace when waveform recording is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeReport {
    transitions: Vec<u32>,
    settle_time: u64,
    /// `(time, node, new_value)` in firing order; empty unless
    /// [`DelaySim::record_waveforms`] was enabled.
    events: Vec<(u64, NodeId, bool)>,
}

impl EdgeReport {
    /// How many times `node` changed value while the logic settled.
    ///
    /// For a node whose initial and final values are equal, any nonzero
    /// count is even and means a **glitch** (a static hazard realized).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the simulated netlist.
    #[inline]
    pub fn transitions(&self, node: NodeId) -> u32 {
        self.transitions[node.index()]
    }

    /// Whether `node` glitched: it transitioned at least twice (its
    /// settled value may or may not equal its initial value; two or more
    /// transitions always mean a non-monotonic waveform).
    #[inline]
    pub fn glitched(&self, node: NodeId) -> bool {
        self.transitions[node.index()] >= 2
    }

    /// The time at which the last event fired.
    #[inline]
    pub fn settle_time(&self) -> u64 {
        self.settle_time
    }

    /// The recorded `(time, node, new_value)` events in firing order
    /// (empty unless [`DelaySim::record_waveforms`] was enabled).
    #[inline]
    pub fn events(&self) -> &[(u64, NodeId, bool)] {
        &self.events
    }
}

/// A two-valued transport-delay simulator (see [module docs](self)).
///
/// # Example
///
/// ```
/// use mcp_netlist::bench;
/// use mcp_sim::DelaySim;
///
/// // y = OR(a, NOT a): a falling input produces the classic static-1
/// // hazard at y when the inverter is slow.
/// let nl = bench::parse("hz", "INPUT(a)\nOUTPUT(y)\nq = DFF(y)\nna = NOT(a)\ny = OR(a, na)")?;
/// let mut sim = DelaySim::new(&nl);
/// sim.set_delay(nl.find_node("na").unwrap(), 3);
/// sim.init(&[true], &[false]);
/// let report = sim.edge(&[false], &[false]); // a: 1 -> 0
/// assert!(report.glitched(nl.find_node("y").unwrap()));
/// # Ok::<(), mcp_netlist::bench::ParseBenchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DelaySim<'a> {
    netlist: &'a Netlist,
    delay: Vec<u64>,
    val: Vec<bool>,
    /// The value each node will hold after all pending events fire.
    projected: Vec<bool>,
    record: bool,
}

impl<'a> DelaySim<'a> {
    /// Creates a simulator with every gate at delay 1 (sources at 0).
    pub fn new(netlist: &'a Netlist) -> Self {
        let delay = netlist
            .nodes()
            .map(|(_, n)| u64::from(n.kind().is_gate()))
            .collect();
        DelaySim {
            netlist,
            delay,
            val: vec![false; netlist.num_nodes()],
            projected: vec![false; netlist.num_nodes()],
            record: false,
        }
    }

    /// Enables (or disables) waveform recording: subsequent
    /// [`edge`](Self::edge) calls populate [`EdgeReport::events`].
    pub fn record_waveforms(&mut self, on: bool) {
        self.record = on;
    }

    /// Sets the propagation delay of a gate (ignored for sources).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the netlist.
    pub fn set_delay(&mut self, node: NodeId, delay: u64) {
        self.delay[node.index()] = delay;
    }

    /// Establishes a stable pre-edge state: primary inputs and FF outputs
    /// take the given values and the combinational logic is settled
    /// statically (delays play no role before the edge).
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match the input/FF counts.
    pub fn init(&mut self, pis: &[bool], ffs: &[bool]) {
        assert_eq!(pis.len(), self.netlist.num_inputs(), "pi count");
        assert_eq!(ffs.len(), self.netlist.num_ffs(), "ff count");
        for (k, &pi) in self.netlist.inputs().iter().enumerate() {
            self.val[pi.index()] = pis[k];
        }
        for (k, &ff) in self.netlist.dffs().iter().enumerate() {
            self.val[ff.index()] = ffs[k];
        }
        for (id, node) in self.netlist.nodes() {
            if let NodeKind::Const(v) = node.kind() {
                self.val[id.index()] = v;
            }
        }
        for &g in self.netlist.topo_gates() {
            let node = self.netlist.node(g);
            let kind = node.kind().gate_kind().expect("gate");
            self.val[g.index()] = kind.eval_bool(node.fanins().iter().map(|f| self.val[f.index()]));
        }
        self.projected.copy_from_slice(&self.val);
    }

    /// Simulates one clock edge: at time 0 the primary inputs and FF
    /// outputs switch (simultaneously) to the given values; events then
    /// propagate under the configured delays until the logic settles.
    ///
    /// Returns the per-node transition counts. The simulator's state ends
    /// at the settled post-edge values, so consecutive [`edge`](Self::edge)
    /// calls walk through a clock sequence.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match the input/FF counts, or called
    /// before [`init`](Self::init).
    pub fn edge(&mut self, pis: &[bool], ffs: &[bool]) -> EdgeReport {
        assert_eq!(pis.len(), self.netlist.num_inputs(), "pi count");
        assert_eq!(ffs.len(), self.netlist.num_ffs(), "ff count");

        let mut transitions = vec![0u32; self.netlist.num_nodes()];
        let mut events: Vec<(u64, NodeId, bool)> = Vec::new();
        // (time, seq, node, value) min-heap; seq keeps ordering deterministic.
        let mut heap: BinaryHeap<Reverse<(u64, u64, u32, bool)>> = BinaryHeap::new();
        let mut seq = 0u64;

        let push = |heap: &mut BinaryHeap<Reverse<(u64, u64, u32, bool)>>,
                    seq: &mut u64,
                    t: u64,
                    node: NodeId,
                    v: bool| {
            heap.push(Reverse((t, *seq, node.index() as u32, v)));
            *seq += 1;
        };

        // Source switches at t = 0.
        for (k, &pi) in self.netlist.inputs().iter().enumerate() {
            if self.val[pi.index()] != pis[k] {
                push(&mut heap, &mut seq, 0, pi, pis[k]);
                self.projected[pi.index()] = pis[k];
            }
        }
        for (k, &ff) in self.netlist.dffs().iter().enumerate() {
            if self.val[ff.index()] != ffs[k] {
                push(&mut heap, &mut seq, 0, ff, ffs[k]);
                self.projected[ff.index()] = ffs[k];
            }
        }

        let mut settle_time = 0;
        while let Some(Reverse((t, _, idx, v))) = heap.pop() {
            let node = NodeId::from_index(idx as usize);
            if self.val[idx as usize] == v {
                continue; // superseded event
            }
            self.val[idx as usize] = v;
            transitions[idx as usize] += 1;
            settle_time = t;
            if self.record {
                events.push((t, node, v));
            }

            for &g in self.netlist.fanouts(node) {
                let gnode = self.netlist.node(g);
                let Some(kind) = gnode.kind().gate_kind() else {
                    continue; // DFF D pins don't propagate within the cycle
                };
                let new = kind.eval_bool(gnode.fanins().iter().map(|f| self.val[f.index()]));
                if new != self.projected[g.index()] {
                    self.projected[g.index()] = new;
                    push(&mut heap, &mut seq, t + self.delay[g.index()], g, new);
                }
            }
        }

        EdgeReport {
            transitions,
            settle_time,
            events,
        }
    }

    /// The settled value of a node (valid after [`init`](Self::init) /
    /// [`edge`](Self::edge)).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the netlist.
    #[inline]
    pub fn value(&self, node: NodeId) -> bool {
        self.val[node.index()]
    }
}

/// A dynamic glitch [`sample_glitch`] observed at a sink's D input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Glitch {
    /// Every node's settled value before the edge, indexed by node id.
    pub initial: Vec<bool>,
    /// The edge's `(time, node, new_value)` events in firing order.
    pub events: Vec<(u64, NodeId, bool)>,
    /// How many times the sink's D input transitioned.
    pub transitions: u32,
}

/// Samples clock edges on which flip-flop `src` toggles, under random
/// transport delays 1..16, until flip-flop `dst`'s D input glitches.
///
/// Each of at most `words` random 64-lane [`ParallelSim`] words yields
/// the edges of the lanes where `src` toggles. Each such edge is one
/// trial, up to `trials` in all, with fresh random post-edge inputs and
/// gate delays. The word budget ends the search for a source that never
/// toggles. Returns the first glitch, or the number of trials run
/// without one.
pub fn sample_glitch<R: Rng + ?Sized>(
    nl: &Netlist,
    src: usize,
    dst: usize,
    trials: usize,
    words: usize,
    rng: &mut R,
) -> Result<Glitch, usize> {
    let d_input = nl.ff_d_input(dst);
    let mut psim = ParallelSim::new(nl);
    let mut done = 0usize;
    for _ in 0..words {
        if done >= trials {
            break;
        }
        psim.randomize_state(rng);
        psim.randomize_inputs(rng);
        let s0: Vec<u64> = (0..nl.num_ffs()).map(|k| psim.state(k)).collect();
        psim.eval();
        let in0: Vec<u64> = nl.inputs().iter().map(|&pi| psim.value(pi)).collect();
        let s1: Vec<u64> = (0..nl.num_ffs()).map(|k| psim.next_state(k)).collect();
        let toggles = s0[src] ^ s1[src];
        for lane in (0..64).filter(|lane| toggles >> lane & 1 == 1) {
            if done >= trials {
                break;
            }
            done += 1;
            let bit = |w: u64| w >> lane & 1 == 1;
            let pis0: Vec<bool> = in0.iter().map(|&w| bit(w)).collect();
            let ffs0: Vec<bool> = s0.iter().map(|&w| bit(w)).collect();
            let ffs1: Vec<bool> = s1.iter().map(|&w| bit(w)).collect();
            // Post-edge inputs switch with the edge, like the FF outputs.
            let pis1: Vec<bool> = (0..nl.num_inputs()).map(|_| rng.random()).collect();
            let mut sim = DelaySim::new(nl);
            for &g in nl.topo_gates() {
                sim.set_delay(g, rng.random_range(1..16));
            }
            sim.record_waveforms(true);
            sim.init(&pis0, &ffs0);
            let report = sim.edge(&pis1, &ffs1);
            if report.glitched(d_input) {
                // Every transition flips its node, so a node's pre-edge
                // value is its settled one flipped once per transition.
                let initial = nl
                    .nodes()
                    .map(|(id, _)| sim.value(id) ^ (report.transitions(id) % 2 == 1))
                    .collect();
                return Ok(Glitch {
                    initial,
                    events: report.events().to_vec(),
                    transitions: report.transitions(d_input),
                });
            }
        }
    }
    Err(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcp_netlist::bench;

    fn hazard_or() -> Netlist {
        bench::parse(
            "hz",
            "INPUT(a)\nOUTPUT(y)\nq = DFF(y)\nna = NOT(a)\ny = OR(a, na)",
        )
        .expect("parse")
    }

    #[test]
    fn static_one_hazard_appears_when_the_inverter_is_slow() {
        let nl = hazard_or();
        let y = nl.find_node("y").unwrap();
        let na = nl.find_node("na").unwrap();
        let mut sim = DelaySim::new(&nl);
        sim.set_delay(na, 3);
        sim.init(&[true], &[false]);
        assert!(sim.value(y));
        let report = sim.edge(&[false], &[false]);
        // y: 1 -> 0 (at t=1, a already low, na still low) -> 1 (na catches
        // up at t=3, y recovers at t=4).
        assert_eq!(report.transitions(y), 2);
        assert!(report.glitched(y));
        assert!(sim.value(y), "settled back to 1");
        assert_eq!(report.settle_time(), 4);
    }

    #[test]
    fn no_glitch_with_balanced_delays_on_rising_input() {
        let nl = hazard_or();
        let y = nl.find_node("y").unwrap();
        let mut sim = DelaySim::new(&nl);
        sim.init(&[false], &[false]);
        // a rising: OR output goes 1 via the direct input before the
        // inverter can pull it down — no glitch on this edge direction
        // with unit delays (y is already 1 when na falls).
        let report = sim.edge(&[true], &[false]);
        assert_eq!(report.transitions(y), 0);
        assert!(sim.value(y));
    }

    #[test]
    fn settled_values_match_static_evaluation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // After every edge, the settled values must equal a plain static
        // evaluation of the new inputs — for random circuits and random
        // delays.
        for seed in 0..20u64 {
            let nl = mcp_gen::random::random_netlist(
                seed,
                &mcp_gen::random::RandomCircuitConfig::default(),
            );
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
            let mut sim = DelaySim::new(&nl);
            for &g in nl.topo_gates() {
                sim.set_delay(g, rng.random_range(1..8));
            }
            let r: &mut StdRng = &mut rng;
            let pis0: Vec<bool> = (0..nl.num_inputs()).map(|_| r.random()).collect();
            let ffs0: Vec<bool> = (0..nl.num_ffs()).map(|_| r.random()).collect();
            sim.init(&pis0, &ffs0);
            for _ in 0..5 {
                let pis: Vec<bool> = (0..nl.num_inputs()).map(|_| r.random()).collect();
                let ffs: Vec<bool> = (0..nl.num_ffs()).map(|_| r.random()).collect();
                sim.edge(&pis, &ffs);
                let mut check = DelaySim::new(&nl);
                check.init(&pis, &ffs);
                for (id, _) in nl.nodes() {
                    assert_eq!(
                        sim.value(id),
                        check.value(id),
                        "seed {seed}, node {}",
                        nl.node(id).name()
                    );
                }
            }
        }
    }

    #[test]
    fn transition_counts_have_consistent_parity() {
        // A node whose initial and settled values are equal must have an
        // even transition count; otherwise odd.
        let nl = hazard_or();
        let mut sim = DelaySim::new(&nl);
        sim.init(&[true], &[false]);
        let before: Vec<bool> = nl.nodes().map(|(id, _)| sim.value(id)).collect();
        let report = sim.edge(&[false], &[true]);
        for (k, (id, _)) in nl.nodes().enumerate() {
            let parity_change = before[k] != sim.value(id);
            assert_eq!(
                report.transitions(id) % 2 == 1,
                parity_change,
                "node {}",
                nl.node(id).name()
            );
        }
    }

    #[test]
    fn unchanged_edge_produces_no_events() {
        let nl = hazard_or();
        let mut sim = DelaySim::new(&nl);
        sim.init(&[true], &[true]);
        let report = sim.edge(&[true], &[true]);
        for (id, _) in nl.nodes() {
            assert_eq!(report.transitions(id), 0);
        }
        assert_eq!(report.settle_time(), 0);
    }

    #[test]
    fn a_sampled_glitch_replays_from_its_initial_values() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // `q`'s D input is `y`, the static-1 hazard, and `q` toggles
        // whenever it starts at 0.
        let nl = hazard_or();
        let mut rng = StdRng::seed_from_u64(7);
        let glitch = sample_glitch(&nl, 0, 0, 64, 64, &mut rng).expect("a glitch");
        let y = nl.find_node("y").unwrap();
        assert_eq!(glitch.transitions, 2);
        assert_eq!(glitch.initial.len(), nl.num_nodes());
        assert!(glitch.initial[y.index()], "y is 1 before the edge");
        // Every event flips its node, starting from the initial values.
        let mut values = glitch.initial.clone();
        for &(_, node, v) in &glitch.events {
            assert_ne!(values[node.index()], v, "{node:?} did not change");
            values[node.index()] = v;
        }
        assert_eq!(glitch.events.iter().filter(|e| e.1 == y).count(), 2);
        // The word budget ends the hunt when no sampled lane toggles.
        assert_eq!(sample_glitch(&nl, 0, 0, 64, 0, &mut rng), Err(0));
    }
}
