//! ECO-incremental re-analysis: re-verify only what a netlist edit can
//! have touched.
//!
//! An engineering change order (ECO) edits a handful of gates in an
//! otherwise unchanged circuit. Re-running the full analysis discards
//! almost everything the previous run proved; [`analyze_eco_with`]
//! ([`VerdictSource::Eco`]) instead:
//!
//! 1. loads the **old** revision's `Verdicts` artifact from the store,
//! 2. computes the name-keyed structural delta with [`mcp_netlist::diff()`],
//! 3. takes the **new** revision's sink groups from the run's one plan,
//!    and
//! 4. marks a group *dirty* exactly when its cone of influence in the
//!    new time-frame expansion contains an expansion node that carries a
//!    changed node's value: the node's copy in every frame and, for a
//!    flip-flop, its value after the last frame. Dirty groups are
//!    re-verified by the engines; every clean group's pairs splice their
//!    old verdicts (matched by FF *name* — indices may shift across the
//!    edit), and pairs with no old verdict (newly created) are
//!    re-verified too.
//!
//! **Soundness.** An engine verdict for a sink group depends only on the
//! group's cone: the slice/no-slice canonical-identity contract
//! guarantees classifying on the cone slice equals classifying on the
//! whole circuit. A clean group's cone is name-and-structure identical
//! in both revisions (any node whose kind or fanin wiring changed is in
//! the delta, and a node reading a *removed* node has changed fanins, so
//! removals can never hide inside a clean cone) — hence the old verdict
//! is the verdict the engine would recompute. Two configurations break
//! the cone-locality argument and fall back to a full run: the BDD
//! engine (whole-circuit symbolic FSM) and whole-circuit static learning
//! (`static_learning` without `slice`), whose learned implications can
//! couple a group to logic outside its cone and shift step attribution.
//!
//! The prefilters and lint still run fresh on the new netlist — they are
//! whole-circuit stages, and their surviving counters must reflect the
//! new revision — so the final canonical report is **byte-identical** to
//! a cold full analysis of the new netlist.
//!
//! [`VerdictSource::Eco`]: crate::VerdictSource::Eco

use crate::cache::{cached_event, check_verdicts_identity};
use crate::cas::CasStore;
use crate::config::{Engine, McConfig};
use crate::pipeline::{
    analyze_from, candidate_pairs, pair_digest, AnalyzeError, KnownVerdicts, RunIdentity,
    VerdictSource,
};
use crate::report::McReport;
use crate::stage::{group_roots, stage_key_for, SinkGroup, VerdictsArtifact, STAGE_VERDICTS};
use mcp_netlist::{Expanded, Netlist};
use mcp_obs::ObsCtx;
use std::collections::{BTreeMap, BTreeSet};

/// What an ECO re-analysis actually did, for reporting and CI assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EcoSummary {
    /// `true` when no old verdicts could be spliced at all (no artifact
    /// for the old revision, or a config that breaks cone locality) and
    /// the analysis degenerated to a full cold run.
    pub full_run: bool,
    /// Changed or added node names in the delta.
    pub changed_nodes: usize,
    /// Removed node names in the delta.
    pub removed_nodes: usize,
    /// Sink groups in the new revision's plan.
    pub groups_total: usize,
    /// Groups whose cone intersects the delta (re-verified).
    pub groups_reverified: usize,
    /// Groups spliced entirely from the old revision's verdicts.
    pub groups_spliced: usize,
    /// Pairs answered from the old verdicts.
    pub pairs_spliced: usize,
    /// Pairs handed to the engines (dirty groups + newly created pairs).
    pub pairs_reverified: usize,
}

/// Analyzes the `new` revision, splicing verdicts from the `old`
/// revision's cached run for every sink group the edit provably cannot
/// have affected, and re-verifying the rest. The canonical report is
/// byte-identical to a cold full analysis of `new`; on success the
/// store is populated with the new revision's verdicts, so subsequent
/// warm or ECO runs chain off this one.
///
/// # Errors
///
/// Everything [`analyze`](crate::analyze) can return, plus
/// [`AnalyzeError::CacheCorrupt`] / [`AnalyzeError::CacheIo`] for
/// damaged or unwritable cache entries.
pub fn analyze_eco_with(
    old: &Netlist,
    new: &Netlist,
    cfg: &McConfig,
    obs: &ObsCtx,
    store: &CasStore,
) -> Result<(McReport, EcoSummary), AnalyzeError> {
    analyze_from(new, cfg, obs, VerdictSource::Eco { old, store })
        .map(|a| (a.report, a.eco.unwrap_or_default()))
}

/// The `old` revision's stored verdicts, re-keyed by FF name to `new`'s
/// indices; `None` when there is nothing to splice from (no artifact, or
/// a config that breaks cone locality).
pub(crate) fn old_verdicts(
    old: &Netlist,
    new: &Netlist,
    cfg: &McConfig,
    obs: &ObsCtx,
    store: &CasStore,
) -> Result<Option<KnownVerdicts>, AnalyzeError> {
    // The cone-locality argument needs per-group engine verdicts:
    // whole-circuit symbolic FSMs (BDD) and whole-circuit learned
    // implication sets couple groups to logic outside their cones.
    let cone_local =
        !matches!(cfg.engine, Engine::Bdd { .. }) && (cfg.slice || !cfg.static_learning);
    if !cone_local {
        return Ok(None);
    }
    let old_hash = old.content_hash();
    let key = stage_key_for(STAGE_VERDICTS, old_hash, cfg);
    let Some(art) = store.get::<VerdictsArtifact>(STAGE_VERDICTS, key)? else {
        return Ok(None);
    };
    check_verdicts_identity(
        &art,
        &RunIdentity {
            netlist_hash: old_hash,
            fingerprint: cfg.fingerprint(),
            pair_digest: pair_digest(&candidate_pairs(old, cfg)),
        },
    )?;
    obs.metrics.cache_hits.add(1);
    // Indices can shift when the edit inserts or deletes flip-flops,
    // names cannot.
    let index: BTreeMap<&str, usize> = new
        .dffs()
        .iter()
        .enumerate()
        .map(|(i, &id)| (new.node(id).name(), i))
        .collect();
    Ok(Some(
        art.verdicts
            .iter()
            .filter_map(|r| {
                let pair = (
                    *index.get(r.src_name.as_str())?,
                    *index.get(r.dst_name.as_str())?,
                );
                Some((pair, cached_event(r, pair)))
            })
            .collect(),
    ))
}

/// Drops from `verdicts` every pair of a group whose cone meets
/// `changed`, filling in the group and pair counts of `summary`.
/// Returns the number of old verdicts the edit invalidated.
///
/// A changed node is resolved to every expansion node that carries its
/// value: its copy in each frame, plus, for a flip-flop, its value after
/// the last frame. Node origins alone would miss a flip-flop's later
/// values, which are the nodes of its D input: a group reading a
/// rewired flip-flop at `t+1` only ever meets the new D input's nodes.
pub(crate) fn drop_dirty(
    new: &Netlist,
    x: &Expanded,
    groups: &[SinkGroup],
    cycles: u32,
    changed: &BTreeSet<String>,
    verdicts: &mut KnownVerdicts,
    summary: &mut EcoSummary,
) -> u64 {
    summary.groups_total = groups.len();
    let mut touched = vec![false; x.num_nodes()];
    for n in changed.iter().filter_map(|name| new.find_node(name)) {
        for f in 0..x.frames() {
            touched[x.value_of(f, n).index()] = true;
        }
        if let Some(k) = new.ff_index(n) {
            touched[x.ff_at(k, x.frames()).index()] = true;
        }
    }
    let mut invalidated = 0;
    for group in groups {
        let dirty = !changed.is_empty()
            && x.cone_of(&group_roots(x, group.sink, &group.sources, cycles))
                .iter()
                .any(|id| touched[id.index()]);
        if dirty {
            summary.groups_reverified += 1;
            summary.pairs_reverified += group.sources.len();
            for &i in &group.sources {
                // An old verdict the edit invalidated.
                if verdicts.remove(&(i, group.sink)).is_some() {
                    invalidated += 1;
                }
            }
            continue;
        }
        summary.groups_spliced += 1;
        for &i in &group.sources {
            // A pair the old run never classified (e.g. newly connected
            // through an unchanged cone — possible when the edit rewired
            // logic *outside* this cone that used to block the
            // prefilters) is re-verified.
            if verdicts.contains_key(&(i, group.sink)) {
                summary.pairs_spliced += 1;
            } else {
                summary.pairs_reverified += 1;
            }
        }
    }
    invalidated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::analyze_cached_with;
    use crate::cas::CasStore;
    use crate::pipeline::analyze_with;
    use mcp_gen::suite;
    use mcp_netlist::bench;
    use mcp_obs::MemSink;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mcpath-eco-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn canon(report: &McReport) -> String {
        serde_json::to_string(&report.canonical()).expect("serialize")
    }

    /// One-gate edit to m27: flips an AND to an OR through the bench
    /// text, exactly what an ECO does.
    fn edited(nl: &Netlist) -> Netlist {
        let text = bench::to_bench(nl);
        let mut done = false;
        let patched: Vec<String> = text
            .lines()
            .map(|l| {
                if !done && l.contains("= AND(") {
                    done = true;
                    l.replace("= AND(", "= OR(")
                } else {
                    l.to_owned()
                }
            })
            .collect();
        assert!(done, "no AND gate to edit in {}", nl.name());
        bench::parse(nl.name(), &patched.join("\n")).expect("parse edited")
    }

    #[test]
    fn eco_equals_cold_full_run_and_splices_clean_groups() {
        let dir = tempdir("basic");
        let store = CasStore::open(&dir).expect("open");
        let old = suite::quick_suite().remove(1); // m298
        let new = edited(&old);
        let cfg = McConfig::default();
        analyze_cached_with(&old, &cfg, &ObsCtx::new(), &store).expect("seed old");

        let sink = Arc::new(MemSink::new());
        let obs = ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
        let (eco, summary) = analyze_eco_with(&old, &new, &cfg, &obs, &store).expect("eco");
        let cold = analyze_with(&new, &cfg, &ObsCtx::new()).expect("cold");
        assert_eq!(canon(&eco), canon(&cold), "ECO must equal the cold run");

        assert!(!summary.full_run);
        assert_eq!(summary.changed_nodes, 1, "{summary:?}");
        assert!(summary.groups_spliced > 0, "{summary:?}");
        assert!(summary.groups_reverified > 0, "{summary:?}");
        assert!(summary.pairs_spliced > 0);
        // The journal separates spliced from re-verified work.
        let events = sink.drain();
        let cached = events.iter().filter(|e| e.cached).count();
        let engine = events.iter().filter(|e| e.engine.is_some()).count();
        assert_eq!(cached, summary.pairs_spliced);
        assert_eq!(engine, summary.pairs_reverified);
        let c = obs.snapshot().counters;
        assert_eq!(c.eco_groups_spliced, summary.groups_spliced as u64);
        assert_eq!(c.eco_groups_reverified, summary.groups_reverified as u64);
        assert!(c.cache_invalidations > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identical_revisions_splice_everything() {
        let dir = tempdir("noop");
        let store = CasStore::open(&dir).expect("open");
        let nl = suite::quick_suite().remove(0); // m27
        let cfg = McConfig::default();
        let seeded = analyze_cached_with(&nl, &cfg, &ObsCtx::new(), &store).expect("seed");
        let obs = ObsCtx::new();
        let (eco, summary) = analyze_eco_with(&nl, &nl, &cfg, &obs, &store).expect("eco");
        assert_eq!(canon(&eco), canon(&seeded));
        assert_eq!(summary.groups_reverified, 0, "{summary:?}");
        assert_eq!(summary.pairs_reverified, 0, "{summary:?}");
        assert_eq!(summary.changed_nodes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_old_artifact_falls_back_to_a_full_run() {
        let dir = tempdir("fallback");
        let store = CasStore::open(&dir).expect("open");
        let old = suite::quick_suite().remove(0);
        let new = edited(&old);
        let cfg = McConfig::default();
        // No seed run for `old`: ECO must degrade to a (correct) full run.
        let (eco, summary) =
            analyze_eco_with(&old, &new, &cfg, &ObsCtx::new(), &store).expect("eco");
        assert!(summary.full_run);
        let cold = analyze_with(&new, &cfg, &ObsCtx::new()).expect("cold");
        assert_eq!(canon(&eco), canon(&cold));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cone_coupling_configs_refuse_to_splice() {
        // Whole-circuit static learning (no slice) breaks cone locality;
        // the ECO path must fall back to a full run rather than splice.
        let dir = tempdir("guard");
        let store = CasStore::open(&dir).expect("open");
        let old = suite::quick_suite().remove(0);
        let new = edited(&old);
        let cfg = McConfig {
            static_learning: true,
            slice: false,
            ..McConfig::default()
        };
        analyze_cached_with(&old, &cfg, &ObsCtx::new(), &store).expect("seed");
        let (eco, summary) =
            analyze_eco_with(&old, &new, &cfg, &ObsCtx::new(), &store).expect("eco");
        assert!(summary.full_run, "{summary:?}");
        let cold = analyze_with(&new, &cfg, &ObsCtx::new()).expect("cold");
        assert_eq!(canon(&eco), canon(&cold));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An old/new pair that differs only in the D input of `q`: `n1` is
    /// constant 0, so `(s, q)` is multi-cycle in the old revision; `n2`
    /// is a 31-input AND no random pattern excites, so the new
    /// revision's single-cycle verdict comes from the search.
    fn rewired_dff_pair() -> (Netlist, Netlist) {
        let ands: Vec<String> = (1..=30).map(|k| format!("a{k}")).collect();
        let text = |q_input: &str| {
            let mut lines = vec!["INPUT(a)".to_owned()];
            lines.extend(ands.iter().map(|a| format!("INPUT({a})")));
            lines.extend([
                "s = DFF(a)".to_owned(),
                "ns = NOT(s)".to_owned(),
                "n1 = AND(s, ns)".to_owned(),
                format!("n2 = AND(s, {})", ands.join(", ")),
                format!("q = DFF({q_input})"),
                "r1 = DFF(n1)".to_owned(),
                "r2 = DFF(n2)".to_owned(),
            ]);
            lines.join("\n")
        };
        let parse = |t: String| bench::parse("rewire", &t).expect("parse");
        (parse(text("n1")), parse(text("n2")))
    }

    #[test]
    fn rewiring_a_dff_input_dirties_the_groups_that_read_it() {
        // The group of sink `q` reads q(t+1) and q(t+2), which are `n2`'s
        // nodes: no node of its cone has `q` as origin, yet the edit
        // changes its verdict.
        let dir = tempdir("rewire");
        let store = CasStore::open(&dir).expect("open");
        let (old, new) = rewired_dff_pair();
        let cfg = McConfig::default();
        analyze_cached_with(&old, &cfg, &ObsCtx::new(), &store).expect("seed old");
        let (eco, summary) =
            analyze_eco_with(&old, &new, &cfg, &ObsCtx::new(), &store).expect("eco");
        let cold = analyze_with(&new, &cfg, &ObsCtx::new()).expect("cold");
        assert_eq!(canon(&eco), canon(&cold), "ECO must equal the cold run");
        assert_eq!(summary.changed_nodes, 1, "{summary:?}");
        assert!(summary.groups_reverified > 0, "{summary:?}");
        // A later warm query answers from what the ECO stored.
        let warm = analyze_cached_with(&new, &cfg, &ObsCtx::new(), &store).expect("warm");
        assert_eq!(canon(&warm), canon(&cold));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eco_matches_cold_across_threads() {
        // The acceptance matrix: ECO equality must hold under any
        // verdict-neutral execution shape.
        let dir = tempdir("matrix");
        let store = CasStore::open(&dir).expect("open");
        let old = suite::quick_suite().remove(0); // m27
        let new = edited(&old);
        analyze_cached_with(&old, &McConfig::default(), &ObsCtx::new(), &store).expect("seed");
        let cold = analyze_with(&new, &McConfig::default(), &ObsCtx::new()).expect("cold");
        let baseline = canon(&cold);
        for threads in [1usize, 2, 8] {
            let cfg = McConfig {
                threads,
                ..McConfig::default()
            };
            let (eco, _) = analyze_eco_with(&old, &new, &cfg, &ObsCtx::new(), &store).expect("eco");
            assert_eq!(canon(&eco), baseline, "t={threads}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
