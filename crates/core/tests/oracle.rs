//! A brute-force multi-cycle oracle, independent of every engine under
//! test, and the agreement checks built on it.
//!
//! The oracle enumerates **all** assignments of the free bits of a
//! k+1-frame window — initial state plus `k` input vectors, at most 20
//! bits — and evaluates the netlist directly with scalar Boolean gate
//! evaluation. A pair `(i, j)` is multi-cycle iff *no* assignment
//! produces `FFi(t) != FFi(t+1)` together with `FFj(t+m) != FFj(t+m+1)`
//! for some `m ∈ 1..k` (the paper's MC condition, checked literally;
//! `k = 2` is the paper's default).
//!
//! This is deliberately a *second, simpler implementation* of the same
//! ground truth as `mcp_gen::oracle::exhaustive_mc_pairs` (which
//! enumerates 64 lanes at a time): scalar evaluation, no bit tricks, no
//! shared code with the engines — so a bug in the shared evaluation
//! substrate cannot hide by agreeing with itself. The tests assert that
//! both oracles and all four engine configurations (implication,
//! implication+ATPG with learning, SAT, BDD) agree on the paper's
//! figures and on the real ISCAS s27 — with cone slicing on *and* off,
//! and (for the brute-force oracle, which generalizes) at cycle budgets
//! beyond the paper's `k = 2`.

use mcp_core::{analyze, Engine, McConfig};
use mcp_gen::random::{random_netlist, RandomCircuitConfig};
use mcp_gen::{circuits, oracle};
use mcp_netlist::{bench, Expanded, Netlist, NodeKind, XId};
use proptest::prelude::*;

/// Evaluates one clock frame: given the FF states and primary-input
/// values, returns the next FF states.
fn step(nl: &Netlist, state: &[bool], inputs: &[bool]) -> Vec<bool> {
    let mut val = vec![false; nl.num_nodes()];
    for (k, &id) in nl.inputs().iter().enumerate() {
        val[id.index()] = inputs[k];
    }
    for (k, &id) in nl.dffs().iter().enumerate() {
        val[id.index()] = state[k];
    }
    for (id, node) in nl.nodes() {
        if let NodeKind::Const(b) = node.kind() {
            val[id.index()] = b;
        }
    }
    for &id in nl.topo_gates() {
        let node = &nl.nodes().nth(id.index()).expect("dense ids").1;
        let NodeKind::Gate(kind) = node.kind() else {
            panic!("topo_gates yielded a non-gate");
        };
        let ins = node.fanins().iter().map(|f| val[f.index()]);
        val[id.index()] = kind.eval_bool(ins);
    }
    (0..nl.num_ffs())
        .map(|k| val[nl.ff_d_input(k).index()])
        .collect()
}

/// The oracle's verdict: (multi-cycle pairs, single-cycle pairs), each
/// sorted.
type PairSets = (Vec<(usize, usize)>, Vec<(usize, usize)>);

/// Brute-force `k`-frame enumeration of the MC condition over every
/// topologically connected FF pair (self pairs included): a pair is
/// violated when some assignment transitions the source at `t+1` AND
/// the sink at some `t+m+1`, `m ∈ 1..k`. Panics above 20 free bits —
/// the oracle is for small circuits only.
fn brute_force_mc_pairs_k(nl: &Netlist, k: u32) -> PairSets {
    let nffs = nl.num_ffs();
    let npis = nl.num_inputs();
    let frames = k as usize;
    let bits = nffs + frames * npis;
    assert!(
        bits <= 20,
        "{}: {bits} free bits exceed the brute-force budget",
        nl.name()
    );
    let pairs = nl.connected_ff_pairs();
    let mut violated = vec![false; pairs.len()];
    for a in 0u64..(1u64 << bits) {
        let bit = |q: usize| (a >> q) & 1 == 1;
        let mut states: Vec<Vec<bool>> = vec![(0..nffs).map(bit).collect()];
        for f in 0..frames {
            let inputs: Vec<bool> = (0..npis).map(|q| bit(nffs + f * npis + q)).collect();
            let next = step(nl, states.last().expect("seeded"), &inputs);
            states.push(next);
        }
        for (p, &(i, j)) in pairs.iter().enumerate() {
            if states[0][i] != states[1][i] && (1..frames).any(|m| states[m][j] != states[m + 1][j])
            {
                violated[p] = true;
            }
        }
    }
    let mut multi: Vec<(usize, usize)> = Vec::new();
    let mut single: Vec<(usize, usize)> = Vec::new();
    for (p, &pair) in pairs.iter().enumerate() {
        if violated[p] {
            single.push(pair);
        } else {
            multi.push(pair);
        }
    }
    multi.sort_unstable();
    single.sort_unstable();
    (multi, single)
}

/// The classic 2-cycle oracle.
fn brute_force_mc_pairs(nl: &Netlist) -> PairSets {
    brute_force_mc_pairs_k(nl, 2)
}

/// The engine configurations whose verdicts must all equal the oracle:
/// implication (+ATPG search), the same with static learning, the SAT
/// baseline, and the BDD baseline.
fn engine_configs() -> Vec<McConfig> {
    let base = McConfig {
        backtrack_limit: 100_000,
        ..McConfig::default()
    };
    vec![
        McConfig {
            engine: Engine::Implication,
            ..base.clone()
        },
        McConfig {
            engine: Engine::Implication,
            static_learning: true,
            ..base.clone()
        },
        McConfig {
            engine: Engine::Sat,
            ..base.clone()
        },
        McConfig {
            engine: Engine::Bdd {
                node_limit: 1 << 22,
                reachability: false,
            },
            ..base
        },
    ]
}

fn assert_engines_match_oracle(nl: &Netlist) {
    let (multi, single) = brute_force_mc_pairs(nl);

    // The two independent oracle implementations must agree first.
    let (gen_multi, gen_single) = oracle::exhaustive_mc_pairs(nl);
    let mut gen_multi = gen_multi;
    let mut gen_single = gen_single;
    gen_multi.sort_unstable();
    gen_single.sort_unstable();
    assert_eq!(multi, gen_multi, "{}: oracles disagree (multi)", nl.name());
    assert_eq!(
        single,
        gen_single,
        "{}: oracles disagree (single)",
        nl.name()
    );

    for cfg in engine_configs() {
        for slice in [true, false] {
            let report = analyze(
                nl,
                &McConfig {
                    slice,
                    ..cfg.clone()
                },
            )
            .expect("analyze");
            assert_eq!(
                report.multi_cycle_pairs(),
                multi,
                "{}: engine {:?} slice={slice} disagrees with the brute-force oracle",
                nl.name(),
                cfg.engine
            );
            assert_eq!(
                report.single_cycle_pairs(),
                single,
                "{}: engine {:?} slice={slice} single-cycle set drifted",
                nl.name(),
                cfg.engine
            );
            assert!(
                report.unknown_pairs().is_empty(),
                "{}: engine {:?} slice={slice} left unknowns at a 100k backtrack budget",
                nl.name(),
                cfg.engine
            );
        }
    }
}

#[test]
fn all_engines_agree_with_the_oracle_on_fig1() {
    assert_engines_match_oracle(&circuits::fig1());
}

#[test]
fn all_engines_agree_with_the_oracle_on_fig3() {
    assert_engines_match_oracle(&circuits::fig3());
}

#[test]
fn all_engines_agree_with_the_oracle_on_fig4_fragment() {
    assert_engines_match_oracle(&circuits::fig4_fragment());
}

#[test]
fn all_engines_agree_with_the_oracle_on_s27() {
    let src = include_str!("../../../data/s27.bench");
    let nl = bench::parse("s27", src).expect("bundled s27 parses");
    assert_engines_match_oracle(&nl);
}

/// The oracle itself must reproduce the paper's Fig.1 walkthrough — a
/// sanity anchor so the differential tests aren't comparing two wrong
/// answers.
#[test]
fn brute_force_oracle_reproduces_the_fig1_walkthrough() {
    let nl = circuits::fig1();
    let (multi, single) = brute_force_mc_pairs(&nl);
    assert_eq!(multi, vec![(0, 0), (0, 1), (1, 1), (2, 1), (3, 0)]);
    assert_eq!(multi.len() + single.len(), 9);
}

/// A shrink-friendly strategy for oracle-sized random circuits: each
/// dimension is an independent integer range, so a failing case reduces
/// toward the smallest seed/shape that still fails.
fn small_cfg_strategy() -> impl Strategy<Value = (u64, RandomCircuitConfig)> {
    (0u64..100_000, 1usize..6, 0usize..4, 2usize..25).prop_map(|(seed, ffs, pis, gates)| {
        (
            seed,
            RandomCircuitConfig {
                ffs,
                pis,
                gates,
                max_arity: 3,
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The differential property: on random small netlists, *every*
    /// engine configuration at *every* thread count, with cone slicing
    /// on *and* off, at cycle budgets `k ∈ {2, 3}`, returns exactly the
    /// brute-force oracle's verdict set, with no unknowns. (The BDD
    /// baseline only encodes the paper's 2-cycle condition and is
    /// skipped at `k = 3`.)
    #[test]
    fn random_netlists_every_engine_every_thread_count_equals_the_oracle(
        (seed, rc) in small_cfg_strategy(),
    ) {
        let nl = random_netlist(seed, &rc);
        for k in [2u32, 3] {
            let (multi, single) = brute_force_mc_pairs_k(&nl, k);
            for cfg in engine_configs() {
                if k != 2 && matches!(cfg.engine, Engine::Bdd { .. }) {
                    continue;
                }
                for slice in [true, false] {
                    for threads in [1usize, 2, 8] {
                        let report = analyze(
                            &nl,
                            &McConfig {
                                cycles: k,
                                slice,
                                threads,
                                ..cfg.clone()
                            },
                        )
                        .expect("analyze");
                        prop_assert_eq!(
                            report.multi_cycle_pairs(),
                            multi.clone(),
                            "seed={} k={} {:?} slice={} threads={} learning={}",
                            seed, k, cfg.engine, slice, threads, cfg.static_learning
                        );
                        prop_assert_eq!(
                            report.single_cycle_pairs(),
                            single.clone(),
                            "seed={} k={} {:?} slice={} single set",
                            seed, k, cfg.engine, slice
                        );
                        prop_assert!(
                            report.unknown_pairs().is_empty(),
                            "seed={} k={} {:?} slice={} left unknowns",
                            seed, k, cfg.engine, slice
                        );
                    }
                }
            }
        }
    }

    /// `Expanded::build_slice` must be *exactly* the whole-circuit
    /// expansion restricted to the cone of influence: same node kinds,
    /// origins, levels and fanin wiring (modulo the dense renumbering),
    /// and the slice's free variables are the whole model's free
    /// variables filtered to the cone, in the same canonical order.
    /// Checked for every connected pair's root set at `k ∈ {2, 3}`.
    #[test]
    fn build_slice_equals_the_whole_expansion_restricted_to_the_cone(
        (seed, rc) in small_cfg_strategy(),
    ) {
        let nl = random_netlist(seed, &rc);
        for k in [2u32, 3] {
            let x = Expanded::build(&nl, k);
            for (i, j) in nl.connected_ff_pairs() {
                let mut roots: Vec<XId> = vec![x.ff_at(i, 0), x.ff_at(i, 1)];
                for m in 1..=k {
                    roots.push(x.ff_at(j, m));
                }
                roots.sort_unstable();
                roots.dedup();
                let mut cone = x.cone_of(&roots);
                cone.sort_unstable();
                let slice = x.build_slice(&roots);
                let sx = slice.model();

                prop_assert_eq!(slice.num_nodes(), cone.len(), "seed={seed} k={k}");
                for (sid, snode) in sx.nodes() {
                    let wid = slice.to_whole(sid);
                    prop_assert_eq!(slice.to_slice(wid), Some(sid));
                    let wnode = x.node(wid);
                    prop_assert_eq!(snode.kind(), wnode.kind(), "seed={seed}");
                    prop_assert_eq!(snode.origin(), wnode.origin(), "seed={seed}");
                    prop_assert_eq!(sx.level(sid), x.level(wid), "seed={seed}");
                    let mapped: Vec<XId> =
                        snode.fanins().iter().map(|&f| slice.to_whole(f)).collect();
                    prop_assert_eq!(&mapped[..], wnode.fanins(), "seed={seed} fanins");
                }
                // Dense ascending renumbering: slice node s maps to cone[s].
                let back: Vec<XId> =
                    (0..slice.num_nodes()).map(|s| slice.to_whole(sx.nodes().nth(s).expect("dense").0)).collect();
                prop_assert_eq!(&back, &cone, "seed={seed} node order");

                let sliced_vars: Vec<XId> =
                    sx.vars().iter().map(|&v| slice.to_whole(v)).collect();
                let cone_vars: Vec<XId> = x
                    .vars()
                    .iter()
                    .copied()
                    .filter(|v| slice.to_slice(*v).is_some())
                    .collect();
                prop_assert_eq!(&sliced_vars, &cone_vars, "seed={seed} var order");

                // The FF lookups the engines rely on survive the remap.
                prop_assert_eq!(slice.to_whole(sx.ff_at(i, 0)), x.ff_at(i, 0));
                prop_assert_eq!(slice.to_whole(sx.ff_at(i, 1)), x.ff_at(i, 1));
                for m in 1..=k {
                    prop_assert_eq!(slice.to_whole(sx.ff_at(j, m)), x.ff_at(j, m));
                }
            }
        }
    }
}

/// Thread count must never change a verdict: every engine, at 1/2/8
/// threads, equals the oracle on the paper's Fig.1 circuit.
#[test]
fn verdicts_match_the_oracle_at_any_thread_count() {
    let nl = circuits::fig1();
    let (multi, _) = brute_force_mc_pairs(&nl);
    for cfg in engine_configs() {
        for threads in [1usize, 2, 8] {
            let report = analyze(
                &nl,
                &McConfig {
                    threads,
                    ..cfg.clone()
                },
            )
            .expect("analyze");
            assert_eq!(
                report.multi_cycle_pairs(),
                multi,
                "{:?} at threads={threads}",
                cfg.engine
            );
        }
    }
}
