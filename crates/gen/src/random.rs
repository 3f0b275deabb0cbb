//! Seeded random circuit generation for property-based testing.
//!
//! Random netlists exercise gate/arity combinations no structured
//! generator produces; the analysis crates use them (as dev-dependencies)
//! to cross-validate engines against brute force.

use mcp_logic::GateKind;
use mcp_netlist::{Netlist, NetlistBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a [`random_netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomCircuitConfig {
    /// Number of flip-flops.
    pub ffs: usize,
    /// Number of primary inputs.
    pub pis: usize,
    /// Number of combinational gates.
    pub gates: usize,
    /// Maximum fanin of the n-ary gates (≥ 1).
    pub max_arity: usize,
}

impl Default for RandomCircuitConfig {
    fn default() -> Self {
        RandomCircuitConfig {
            ffs: 3,
            pis: 2,
            gates: 20,
            max_arity: 3,
        }
    }
}

/// Builds a random synchronous circuit: a random combinational DAG over
/// the inputs and FF outputs, with every FF's D input wired to a random
/// node. Construction is fully deterministic per `(seed, cfg)`.
///
/// The result always validates (gates only read already-created nodes, so
/// no combinational cycles are possible), every FF is driven, and the last
/// node is marked as a primary output.
///
/// # Panics
///
/// Panics if `cfg.ffs == 0 && cfg.pis == 0` (no sources to build from) or
/// `cfg.max_arity == 0`.
pub fn random_netlist(seed: u64, cfg: &RandomCircuitConfig) -> Netlist {
    assert!(cfg.ffs + cfg.pis > 0, "need at least one source");
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
    build(format!("rand{seed}"), seed, cfg, &kinds, false)
}

/// [`random_netlist`] biased toward what constant folding and NOT fusion
/// exercise, which `random_netlist` never does: a `CONST` 0 and a
/// `CONST` 1 join the sources every gate draws from, and `NOT`/`BUF` are
/// drawn twice as often, so constant cascades, alias chains and inverter
/// stacks appear.
///
/// # Panics
///
/// Panics if `cfg.max_arity == 0`.
pub fn constant_heavy_netlist(seed: u64, cfg: &RandomCircuitConfig) -> Netlist {
    let kinds = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Buf,
    ];
    build(format!("fold{seed}"), seed, cfg, &kinds, true)
}

fn build(
    name: String,
    seed: u64,
    cfg: &RandomCircuitConfig,
    kinds: &[GateKind],
    consts: bool,
) -> Netlist {
    assert!(cfg.max_arity >= 1, "arity must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(name);
    let mut pool: Vec<NodeId> = (0..cfg.pis).map(|i| b.input(format!("I{i}"))).collect();
    let ffs: Vec<NodeId> = (0..cfg.ffs).map(|i| b.dff(format!("F{i}"))).collect();
    pool.extend(&ffs);
    if consts {
        pool.push(b.constant("c0", false));
        pool.push(b.constant("c1", true));
    }

    for _ in 0..cfg.gates {
        let kind = kinds[rng.random_range(0..kinds.len())];
        let arity = kind
            .fixed_arity()
            .unwrap_or_else(|| rng.random_range(1..=cfg.max_arity));
        let ins: Vec<NodeId> = (0..arity)
            .map(|_| pool[rng.random_range(0..pool.len())])
            .collect();
        let g = b.gate_auto(kind, ins).expect("valid arity");
        pool.push(g);
    }
    for &ff in &ffs {
        let d = pool[rng.random_range(0..pool.len())];
        b.set_dff_input(ff, d).expect("valid dff");
    }
    b.mark_output(*pool.last().expect("non-empty pool"));
    b.finish().expect("random circuit is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let cfg = RandomCircuitConfig::default();
        let a = random_netlist(5, &cfg);
        let b = random_netlist(5, &cfg);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.connected_ff_pairs(), b.connected_ff_pairs());
    }

    #[test]
    fn respects_requested_shape() {
        let cfg = RandomCircuitConfig {
            ffs: 4,
            pis: 3,
            gates: 15,
            max_arity: 4,
        };
        let nl = random_netlist(99, &cfg);
        assert_eq!(nl.num_ffs(), 4);
        assert_eq!(nl.num_inputs(), 3);
        assert_eq!(nl.num_gates(), 15);
        for (_, node) in nl.nodes() {
            assert!(node.fanins().len() <= 4);
        }
    }

    #[test]
    fn many_seeds_build_valid_circuits() {
        for seed in 0..100 {
            let nl = random_netlist(seed, &RandomCircuitConfig::default());
            // Validation ran inside finish(); spot check the topo order.
            let mut pos = vec![usize::MAX; nl.num_nodes()];
            for (k, &g) in nl.topo_gates().iter().enumerate() {
                pos[g.index()] = k;
            }
            for &g in nl.topo_gates() {
                for &f in nl.node(g).fanins() {
                    if nl.node(f).kind().is_gate() {
                        assert!(pos[f.index()] < pos[g.index()], "seed {seed}");
                    }
                }
            }
        }
    }
}
