//! Differential property tests for the prefilter kernel.
//!
//! Three oracles pin the compiled kernel down from independent
//! directions:
//!
//! * **Whole-filter equality** — the graph-walking reference loop
//!   ([`mc_filter_reference`]) fixes the entire [`FilterOutcome`]
//!   (survivor set, drop order, witness words, toggle counts). Both
//!   kernels must reproduce it at every lane width: the host path
//!   (native code where the emitter targets the host) and the fused
//!   interpreter, forced here through the crate-private loop so it runs
//!   even on hosts that have native code. Each leg asserts which kernel
//!   actually ran.
//! * **Per-node lowering equality** — with dead-slot elimination off
//!   ([`FusedTape::lower_keep_all`]) every netlist node stays readable,
//!   so a 1-word [`FusedSim`] must carry the same word as
//!   [`ParallelSim`] on every node, across evaluation and clocking.
//! * **Folding soundness** — the three-valued [`EventSim`] evaluates the
//!   netlist *without* any compile-time folding, so agreement on
//!   netlists dense with constants and buffer chains shows the
//!   compiler's folding and NOT fusion preserve semantics.
//!
//! `random_netlist` never emits `Const` nodes or long buffer chains, so
//! the folding checks draw from `constant_heavy_netlist`.

use crate::filter::{filter_on_lanes, mc_filter_reference};
use crate::{mc_filter_stats, EventSim, FilterConfig, FusedSim, FusedTape, ParallelSim, Tape};
use mcp_gen::random::{constant_heavy_netlist, random_netlist, RandomCircuitConfig};
use mcp_logic::{GateKind, V3};
use mcp_netlist::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg_strategy() -> impl Strategy<Value = (u64, RandomCircuitConfig)> {
    (0u64..100_000, 1usize..6, 0usize..4, 1usize..40, 1usize..5).prop_map(
        |(seed, ffs, pis, gates, max_arity)| {
            (
                seed,
                RandomCircuitConfig {
                    ffs,
                    pis,
                    gates,
                    max_arity,
                },
            )
        },
    )
}

/// The kernel the production path must report at `lanes` on this host:
/// the AVX2 emitter needs whole 256-bit chunks, so it fires at 256 and
/// 512 lanes when the CPU has AVX2; 64 and 128 lanes, and every other
/// host, run the fused interpreter.
fn host_kernel(lanes: u32) -> &'static str {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        if lanes.is_multiple_of(256) && std::is_x86_feature_detected!("avx2") {
            return "jit-avx2";
        }
    }
    let _ = lanes;
    "fused"
}

/// Node `id`'s value in lane word 0 of a keep-all lowering of `tape`,
/// which keeps every slot in place.
fn node_word(sim: &FusedSim<'_, 1>, tape: &Tape, id: NodeId) -> u64 {
    sim.resolve(tape.slot_of(id))[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The prefilter's outcome is byte-identical between the reference
    /// loop and both kernels at every tested lane width. Small drawn
    /// `idle_words` and `max_words` keep runs short and land each of
    /// the replay's three stop reasons (no pair alive, the idle limit,
    /// the word cap) at every word offset of a 4- and an 8-word batch.
    #[test]
    fn host_and_fused_kernels_match_reference_at_every_lane_width(
        (seed, cfg) in cfg_strategy(),
        filter_seed in any::<u64>(),
        idle_words in 1u32..10,
        max_words in 1u64..48,
    ) {
        let nl = random_netlist(seed, &cfg);
        let pairs = nl.connected_ff_pairs();
        let reference_cfg = FilterConfig {
            seed: filter_seed,
            idle_words,
            max_words,
            lanes: 64,
        };
        let reference = mc_filter_reference(&nl, &pairs, &reference_cfg);
        for lanes in [64u32, 256, 512] {
            let cfg = FilterConfig { lanes, ..reference_cfg };
            let (host, host_stats) = mc_filter_stats(&nl, &pairs, &cfg);
            prop_assert_eq!(host_stats.kernel, host_kernel(lanes));
            prop_assert_eq!(
                &host, &reference,
                "{} diverged at {} lanes (netlist seed {})", host_stats.kernel, lanes, seed
            );
            let (fused, fused_stats) = filter_on_lanes(&nl, &pairs, &cfg, &[], false);
            prop_assert_eq!(fused_stats.kernel, "fused");
            prop_assert_eq!(
                &fused, &reference,
                "fused diverged at {} lanes (netlist seed {})", lanes, seed
            );
        }
    }

    /// Per-node values: with every compiled slot kept live, a 1-word
    /// `FusedSim` tracks `ParallelSim` on every netlist node of
    /// folding-heavy netlists, across evaluation and clocking — so the
    /// folding, fusion and polarity rules are semantics-preserving per
    /// node, not just per filter outcome.
    #[test]
    fn keep_all_lowering_matches_parallel_sim_per_node(
        (seed, cfg) in cfg_strategy(),
        stimulus in any::<u64>(),
    ) {
        let nl = constant_heavy_netlist(seed, &cfg);
        let tape = Tape::compile(&nl);
        let fused = FusedTape::lower_keep_all(&tape);
        let mut fsim = FusedSim::<1>::new(&fused);
        let mut psim = ParallelSim::new(&nl);

        let mut rng = StdRng::seed_from_u64(stimulus);
        for ff in 0..nl.num_ffs() {
            let w: u64 = rng.random();
            fsim.set_state(ff, [w]);
            psim.set_state(ff, w);
        }
        for cycle in 0..3 {
            for pi in 0..nl.num_inputs() {
                let w: u64 = rng.random();
                fsim.set_input(pi, [w]);
                psim.set_input(pi, w);
            }
            fsim.eval();
            psim.eval();
            for (id, _) in nl.nodes() {
                prop_assert_eq!(
                    node_word(&fsim, &tape, id),
                    psim.value(id),
                    "node {:?} diverged in cycle {} (netlist seed {})", id, cycle, seed
                );
            }
            for ff in 0..nl.num_ffs() {
                prop_assert_eq!(fsim.next_state(ff)[0], psim.next_state(ff));
            }
            fsim.clock();
            psim.clock();
            for ff in 0..nl.num_ffs() {
                prop_assert_eq!(fsim.state(ff)[0], psim.state(ff));
            }
        }
    }

    /// Const folding preserves semantics: the fused kernel agrees with
    /// the three-valued event simulator (which performs no folding at
    /// all) on every node of constant-dense netlists, and folding never
    /// *adds* tape instructions relative to the gate count.
    #[test]
    fn fused_matches_event_sim_on_constant_dense_netlists(
        (seed, cfg) in cfg_strategy(),
        stimulus in any::<u64>(),
    ) {
        let nl = constant_heavy_netlist(seed, &cfg);
        let tape = Tape::compile(&nl);
        // An n-input gate decomposes into at most n-1 binary
        // instructions (0 for NOT and BUF); folding only shrinks it.
        let bound: usize = nl
            .nodes()
            .filter_map(|(_, n)| {
                n.kind().gate_kind().map(|k| match k {
                    GateKind::Buf | GateKind::Not => 0,
                    _ => n.fanins().len().saturating_sub(1).max(1),
                })
            })
            .sum();
        prop_assert!(
            tape.num_ops() <= bound,
            "folding must not add instructions: {} ops for a bound of {}",
            tape.num_ops(),
            bound
        );

        let fused = FusedTape::lower_keep_all(&tape);
        let mut fsim = FusedSim::<1>::new(&fused);
        let mut esim = EventSim::new(&nl);
        let mut bits = stimulus;
        let mut next_bit = || {
            bits = bits
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            bits >> 63 == 1
        };
        for ff in 0..nl.num_ffs() {
            let v = next_bit();
            fsim.set_state(ff, [if v { u64::MAX } else { 0 }]);
            esim.set_state(ff, V3::from(v));
        }
        for _ in 0..2 {
            for pi in 0..nl.num_inputs() {
                let v = next_bit();
                fsim.set_input(pi, [if v { u64::MAX } else { 0 }]);
                esim.set_input(pi, V3::from(v));
            }
            fsim.eval();
            esim.propagate();
            for (id, _) in nl.nodes() {
                let lane0 = node_word(&fsim, &tape, id) & 1 == 1;
                prop_assert_eq!(
                    V3::from(lane0),
                    esim.value(id),
                    "node {:?} diverged (netlist seed {})", id, seed
                );
            }
            fsim.clock();
            esim.clock();
        }
    }
}
