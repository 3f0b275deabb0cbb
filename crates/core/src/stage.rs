//! The pipeline's stage implementations and its one stored artifact.
//!
//! The cheap deterministic stages — parse, lint, expansion, the
//! prefilters and sink-group planning — are recomputed on every run:
//! they are seed-deterministic and faster than deserializing. The
//! expensive stage is the engines', and its result is the one artifact
//! the content-addressed store ([`CasStore`](crate::CasStore)) holds:
//! [`VerdictsArtifact`], keyed by the netlist content hash crossed with
//! the verdict-affecting [`McConfig::fingerprint`] ([`stage_key_for`]).
//! It carries every engine verdict keyed both by FF index and FF *name*,
//! which is what lets a warm rerun splice all engine work from the store
//! and lets ECO re-analysis map surviving verdicts across a netlist
//! edit.
//!
//! This module also owns the stage *implementations* the pipeline runs
//! once per analysis: the deterministic prefilters (`run_prefilters`)
//! and the sink-group planning (`plan_sink_groups`). That one plan is
//! every engine's work list, hardest group first, and ECO dirtiness
//! reads it too, so neither can drift from the run.

use crate::config::McConfig;
use crate::report::{PairClass, PairResult, SimKernelTier, Step, StepStats};
use mcp_netlist::{Expanded, Netlist, XId};
use mcp_obs::{ObsCtx, PairEvent};
use mcp_sim::mc_filter_stats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Stage name: the engine verdicts — the replayable artifact.
pub const STAGE_VERDICTS: &str = "verdicts";

/// Content key of one stage artifact: the stage name crossed with the
/// netlist content hash and the config slice the stage reads.
pub fn stage_key(stage: &str, netlist_hash: u64, config_slice: u64) -> u64 {
    mcp_obs::fnv1a(format!("{stage}:{netlist_hash:016x}:{config_slice:016x}").as_bytes())
}

/// [`stage_key`] with the verdict-affecting [`McConfig::fingerprint`]
/// as the config slice. Verdict-*neutral* knobs (threads, slicing,
/// lanes, the static pre-pass, `cache_dir` itself) never enter the key,
/// mirroring the fingerprint's own exclusions.
pub fn stage_key_for(stage: &str, netlist_hash: u64, cfg: &McConfig) -> u64 {
    stage_key(stage, netlist_hash, cfg.fingerprint())
}

/// One engine verdict of the `Verdicts` artifact.
///
/// Pairs are recorded both by FF index (exact replay on the identical
/// netlist) and by FF *name* (the stable key ECO re-analysis maps
/// across a netlist edit, where indices may shift).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictRecord {
    /// Source FF index.
    pub src: usize,
    /// Sink FF index.
    pub dst: usize,
    /// Source FF node name.
    pub src_name: String,
    /// Sink FF node name.
    pub dst_name: String,
    /// Resolving step, by its journal name (`implication` or `atpg`).
    pub step: String,
    /// Verdict class: `multi`, `single` or `unknown`.
    pub class: String,
}

/// `Verdicts` artifact: every engine verdict of a completed run, plus
/// the run-identity digests a replay validates before splicing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictsArtifact {
    /// Circuit name.
    pub circuit: String,
    /// Netlist content hash the verdicts belong to.
    pub netlist_hash: u64,
    /// Verdict-affecting config fingerprint.
    pub config_fingerprint: u64,
    /// Candidate pair-set digest.
    pub pair_digest: u64,
    /// Engine verdicts, sorted by `(src, dst)`.
    pub verdicts: Vec<VerdictRecord>,
}

/// Outcome of the deterministic prefilter stages.
pub(crate) struct Prefiltered {
    /// Candidate pairs no prefilter could resolve, in candidate order.
    pub(crate) survivors: Vec<(usize, usize)>,
    /// Per-FF toggle activity from the sim filter (`None` when the
    /// filter was off) — the cost hint's hardness boost.
    pub(crate) ff_toggles: Option<Vec<u64>>,
}

/// Steps 1.5–2 of the pipeline: static pre-classification followed by
/// the random-pattern simulation prefilter. Resolved pairs land in
/// `results` (and the journal), the stages' times and word counts in
/// `stats`; the survivors come back.
///
/// ECO dirtiness is defined over the prefiltered survivors, and every
/// verdict source splices onto them, so every run must derive the same
/// set. Both stages are deterministic for a fixed netlist and
/// fingerprint-covered config — the static pass is a pure dataflow
/// fixpoint, and the sim filter draws from a fixed seed
/// word-slot-major, independent of thread count.
pub(crate) fn run_prefilters(
    netlist: &Netlist,
    cfg: &McConfig,
    obs: &ObsCtx,
    stats: &mut StepStats,
    results: &mut Vec<PairResult>,
    mut candidates: Vec<(usize, usize)>,
) -> Prefiltered {
    // Step 1.5: static pre-classification. The forward ternary lattice
    // (`mcp_lint::const_lattice`) evaluated at its *first* Kleene
    // iterate — every FF output X — under-approximates every concrete
    // state, so a node it calls definite holds that value at every time
    // frame, from any initial state, under any stimulus. A sink FF whose
    // D input is such a node ("frozen sink") therefore never transitions:
    // the pair is multi-cycle for every cycle budget and backtrack limit,
    // and the sim prefilter can never produce a violation witness for it
    // either — which is why removing these pairs before the filter leaves
    // the drop set over the remaining pairs untouched (the filter's RNG
    // draws word-slot-major, independent of the pair list), keeping the
    // canonical report byte-identical with the pass on or off. Only the
    // first iterate is sound here: fixpoint-only constants hold *after*
    // the widening horizon, not at frame 0, and feed the lint rules
    // instead. Without a CONST node the lattice has no seeds, so the
    // whole pass is skipped as a no-op.
    let has_consts = netlist
        .nodes()
        .any(|(_, n)| matches!(n.kind(), mcp_netlist::NodeKind::Const(_)));
    if cfg.static_classify && !candidates.is_empty() && has_consts {
        let t_static = obs.timers.span("analyze/static");
        let lattice = mcp_lint::const_lattice(netlist);
        obs.metrics
            .dataflow_consts
            .add(lattice.num_definite_base() as u64);
        obs.metrics.dataflow_iters.add(lattice.iterations as u64);
        let frozen: Vec<bool> = (0..netlist.num_ffs())
            .map(|j| lattice.base[netlist.ff_d_input(j).index()].is_definite())
            .collect();
        candidates.retain(|&(i, j)| {
            if !frozen[j] {
                return true;
            }
            let r = PairResult {
                src: i,
                dst: j,
                class: PairClass::MultiCycle {
                    by: Step::Structural,
                },
            };
            obs.metrics.static_resolved.add(1);
            if obs.sink().enabled() {
                // Resolved before any engine ran: no engine tag, no
                // attributable per-pair time. `--resume` recomputes
                // these (the pass is cheap and deterministic), exactly
                // like sim-prefilter drops.
                obs.sink().record(&PairEvent {
                    static_pass: true,
                    ..r.event()
                });
            }
            results.push(r);
            false
        });
        stats.time_static = t_static.stop();
    }

    // Step 2: random-pattern simulation, unchanged for any cycle budget
    // k ≥ 2: the k-cycle condition constrains every sink time the
    // 2-cycle condition does, so a 2-frame violation witness is also a
    // k-frame witness.
    let mut ff_toggles: Option<Vec<u64>> = None;
    let survivors: Vec<(usize, usize)> = if cfg.use_sim_filter {
        let t_sim = obs.timers.span("analyze/sim");
        // The kernel compiler folds every constant the static pass's
        // base lattice proves, so a seed would change nothing.
        let (out, sim_stats) = mc_filter_stats(netlist, &candidates, &cfg.sim);
        stats.time_sim = t_sim.stop();
        stats.sim_words = out.words_simulated;
        stats.sim_kernel = SimKernelTier::from_tag(sim_stats.kernel);
        obs.metrics.sim_words.add(out.words_simulated);
        obs.metrics.sim_pairs_dropped.add(out.dropped() as u64);
        obs.metrics.sim_passes.add(sim_stats.passes);
        obs.metrics.sim_fused_ops.add(sim_stats.fused_ops);
        obs.metrics.jit_bytes.add(sim_stats.jit_bytes);
        for d in &out.drops {
            let r = PairResult {
                src: d.src,
                dst: d.dst,
                class: PairClass::SingleCycle {
                    by: Step::RandomSim,
                },
            };
            if obs.sink().enabled() {
                // Simulation kills pairs in bulk; elapsed time is not
                // attributable per pair (reported as 0), but the word
                // whose lane witnessed the violation is.
                obs.sink().record(&PairEvent {
                    sim_word: Some(d.word),
                    kernel: Some(sim_stats.kernel.to_owned()),
                    ..r.event()
                });
            }
            results.push(r);
        }
        ff_toggles = Some(out.ff_toggles);
        out.survivors
    } else {
        candidates
    };
    Prefiltered {
        survivors,
        ff_toggles,
    }
}

/// One unit of engine work: every surviving pair sharing a sink FF.
///
/// Grouping by sink maximizes slice reuse: the `k`-frame sink cone
/// dominates the slice, and every source of the sink already lies inside
/// it (the pair is topologically connected), so one slice — and the
/// engine state built on it — serves the whole group.
pub(crate) struct SinkGroup {
    /// Sink FF index (the `j` of every pair in the group).
    pub(crate) sink: usize,
    /// Source FF indices, ascending — the in-group classification order.
    pub(crate) sources: Vec<usize>,
    /// Scheduling cost hint: the exact node count of the group's cone
    /// slice (from [`Expanded::cone_of`]), boosted by sim-filter source
    /// activity.
    pub(crate) cost: u64,
}

/// The expansion nodes a sink group's engines inspect: source transition
/// boundary (`t`, `t+1`) for every source, sink values at `t+1 ..= t+k`.
/// Their fanin cone is exactly the logic any of the group's per-pair
/// queries can touch.
pub(crate) fn group_roots(x: &Expanded, sink: usize, sources: &[usize], cycles: u32) -> Vec<XId> {
    let mut roots = Vec::with_capacity(2 * sources.len() + cycles as usize);
    for &i in sources {
        roots.push(x.ff_at(i, 0));
        roots.push(x.ff_at(i, 1));
    }
    for m in 1..=cycles {
        roots.push(x.ff_at(sink, m));
    }
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// Groups `survivors` by sink FF and orders the groups hardest-first.
///
/// The cost hint combines two signals available before any engine runs:
///
/// - **Exact slice size** (the node count of the group's cone of
///   influence in the `k`-frame expansion) — the work both the slice
///   build and every per-pair query scale with. This replaces the older
///   netlist-level fanin-cone proxy, which ignored cone overlap and gate
///   depth entirely.
/// - **Sim-filter source activity** ([`mcp_sim::FilterOutcome::ff_toggles`],
///   when the filter ran): a pair that survived *despite* a
///   frequently-toggling source resisted that many concrete premise
///   witnesses, so its refutation (if any) is unlikely to be easy —
///   boost its group ahead of groups whose sources barely toggled.
///
/// Ties break on the sink index, keeping the group order (and thus the
/// pair loop's claim order) fully deterministic.
pub(crate) fn plan_sink_groups(
    x: &Expanded,
    survivors: &[(usize, usize)],
    ff_toggles: Option<&[u64]>,
    cycles: u32,
) -> Vec<SinkGroup> {
    let mut by_sink: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &(i, j) in survivors {
        by_sink.entry(j).or_default().push(i);
    }
    let mut groups: Vec<SinkGroup> = by_sink
        .into_iter()
        .map(|(sink, mut sources)| {
            sources.sort_unstable();
            sources.dedup();
            let slice_nodes = x.cone_of(&group_roots(x, sink, &sources, cycles)).len() as u64;
            // Saturating at 7 keeps the boost bounded: beyond ~7 toggling
            // lanes the premise is plainly easy to excite and tells us
            // nothing more about hardness.
            let boost = match ff_toggles {
                Some(t) => 1 + sources.iter().map(|&i| t[i]).max().unwrap_or(0).min(7),
                None => 1,
            };
            SinkGroup {
                sink,
                sources,
                cost: slice_nodes * boost,
            }
        })
        .collect();
    groups.sort_unstable_by_key(|g| (std::cmp::Reverse(g.cost), g.sink));
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Engine;

    #[test]
    fn stage_keys_separate_stages_netlists_and_config_slices() {
        let k = stage_key(STAGE_VERDICTS, 1, 2);
        assert_eq!(stage_key(STAGE_VERDICTS, 1, 2), k);
        assert_ne!(stage_key("report", 1, 2), k);
        assert_ne!(stage_key(STAGE_VERDICTS, 3, 2), k);
        assert_ne!(stage_key(STAGE_VERDICTS, 1, 3), k);
    }

    #[test]
    fn verdicts_key_follows_the_fingerprint_only() {
        // Existing stores must keep hitting: the key is the stage name
        // crossed with the netlist hash and the fingerprint.
        let base = McConfig::default();
        let key = stage_key_for(STAGE_VERDICTS, 7, &base);
        assert_eq!(key, stage_key("verdicts", 7, base.fingerprint()));
        // Verdict-affecting knobs move the key...
        let mut sat = base.clone();
        sat.engine = Engine::Sat;
        assert_ne!(stage_key_for(STAGE_VERDICTS, 7, &sat), key);
        let mut k3 = base.clone();
        k3.cycles = 3;
        assert_ne!(stage_key_for(STAGE_VERDICTS, 7, &k3), key);
        // ...verdict-neutral ones never do.
        let mut neutral = base.clone();
        neutral.threads = 8;
        neutral.slice = !neutral.slice;
        neutral.static_classify = !neutral.static_classify;
        neutral.sim.lanes = 64;
        assert_eq!(stage_key_for(STAGE_VERDICTS, 7, &neutral), key);
    }

    #[test]
    fn group_slice_sizes_are_exact_cone_sizes() {
        let nl = mcp_gen::suite::quick_suite().remove(1); // m298
        for cycles in [2, 3] {
            let x = Expanded::build(&nl, cycles);
            // Without a toggle hint the cost is the bare slice size.
            let groups = plan_sink_groups(&x, &nl.connected_ff_pairs(), None, cycles);
            assert!(groups.len() > 1);
            for g in &groups {
                let cone = x.cone_of(&group_roots(&x, g.sink, &g.sources, cycles));
                assert_eq!(g.cost, cone.len() as u64, "sink {}", g.sink);
            }
        }
    }

    #[test]
    fn the_plan_partitions_the_pairs_hardest_group_first() {
        let nl = mcp_gen::suite::quick_suite().remove(1); // m298
        let x = Expanded::build(&nl, 2);
        let pairs = nl.connected_ff_pairs();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        let toggles: Vec<u64> = (0..nl.num_ffs() as u64).map(|i| i % 9).collect();
        let layout = |groups: &[SinkGroup]| -> Vec<(usize, Vec<usize>, u64)> {
            groups
                .iter()
                .map(|g| (g.sink, g.sources.clone(), g.cost))
                .collect()
        };
        for hint in [Some(&toggles[..]), None] {
            let groups = plan_sink_groups(&x, &pairs, hint, 2);
            assert!(
                groups.windows(2).all(|w| w[0].cost >= w[1].cost),
                "group costs must be non-increasing (toggles: {})",
                hint.is_some()
            );
            // One group per sink, and every pair in exactly one group.
            let mut sinks: Vec<usize> = groups.iter().map(|g| g.sink).collect();
            sinks.sort_unstable();
            sinks.dedup();
            assert_eq!(sinks.len(), groups.len());
            let mut planned: Vec<(usize, usize)> = groups
                .iter()
                .flat_map(|g| g.sources.iter().map(move |&i| (i, g.sink)))
                .collect();
            planned.sort_unstable();
            assert_eq!(planned, sorted, "the groups must partition the pairs");
            // A re-plan claims in the identical order.
            let again = plan_sink_groups(&x, &pairs, hint, 2);
            assert_eq!(layout(&again), layout(&groups));
        }
    }

    #[test]
    fn verdicts_artifact_round_trips_through_json() {
        let v = VerdictsArtifact {
            circuit: "c".to_owned(),
            netlist_hash: 7,
            config_fingerprint: 8,
            pair_digest: 9,
            verdicts: vec![VerdictRecord {
                src: 0,
                dst: 1,
                src_name: "a".to_owned(),
                dst_name: "b".to_owned(),
                step: "implication".to_owned(),
                class: "multi".to_owned(),
            }],
        };
        let text = serde_json::to_string(&v).expect("serialize");
        let back: VerdictsArtifact = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, v);
    }
}
