//! The end-to-end analysis pipeline (paper Section 4.1).

use crate::cache::{cached_event, check_verdicts_identity, persist_verdicts, verdict_records};
use crate::cas::CasStore;
use crate::config::{Engine, McConfig};
use crate::eco::{self, EcoSummary};
use crate::engines::{
    classify_pair_bdd, classify_pair_implication_probed, classify_pair_sat, PairProbe, Verdict,
};
use crate::report::{McReport, PairClass, PairResult, StepStats};
use crate::resume;
use crate::schedule::run_items;
use crate::stage::{
    group_roots, plan_sink_groups, run_prefilters, stage_key_for, Prefiltered, SinkGroup,
    VerdictsArtifact, STAGE_VERDICTS,
};
use mcp_atpg::SearchConfig;
use mcp_bdd::{InitStates, Ref, SymbolicFsm};
use mcp_implication::{learn, ImpEngine, LearnConfig, LearnedImplications};
use mcp_netlist::{Expanded, Netlist, Slice};
use mcp_obs::{Ledger, ObsCtx, PairEvent, RunHeader, LEDGER_VERSION};
use mcp_sat::CircuitCnf;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Error produced by [`analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// `cycles` must be at least 2 (a "1-cycle pair" is vacuous).
    InvalidCycles {
        /// The rejected value.
        got: u32,
    },
    /// The BDD engine only supports the classic 2-cycle check.
    BddNeedsTwoCycles {
        /// The rejected value.
        got: u32,
    },
    /// The simulation lane width is not one of the supported values
    /// (64, 128, 256, 512). Only library callers can reach it, through
    /// `McConfig::sim`; the CLI always runs the default width.
    InvalidSimLanes {
        /// The rejected value.
        got: u32,
    },
    /// The admission gate found structural defects
    /// ([`Netlist::defects`]: combinational cycles, unconnected DFFs,
    /// ...). Engine verdicts on such a netlist would be meaningless; fix
    /// the netlist or disable the gate with [`McConfig::lint`]` = false`.
    CorruptNetlist {
        /// One Error finding per defect, as `mcp-lint` reports them.
        report: mcp_lint::Diagnostics,
    },
    /// `--resume` was handed a ledger that does not belong to this run:
    /// no run header, a different format version, a different candidate
    /// pair set, or a verdict outside that set. Splicing verdicts across
    /// any of those boundaries would corrupt the report, so the resume
    /// is refused; rerun without `--resume` instead. (Netlist and config
    /// drift get the dedicated [`AnalyzeError::DigestMismatch`].)
    ResumeMismatch {
        /// What specifically failed to match.
        reason: String,
    },
    /// A resume ledger carries a different run-identity digest
    /// than the current invocation. Verdicts spliced across a netlist or
    /// verdict-affecting-config boundary would be meaningless, so the
    /// operation is refused — naming both digests so the two runs can be
    /// told apart.
    DigestMismatch {
        /// Which digest disagreed.
        what: DigestKind,
        /// The digest recorded in the ledger header.
        ledger: u64,
        /// The digest of the current netlist / config.
        current: u64,
    },
    /// A cache entry exists under the expected key but is unreadable or
    /// fails its integrity check (truncated or hand-edited JSON, a
    /// payload digest that no longer matches, or an envelope naming a
    /// different stage/key than its filename). Splicing from such an
    /// entry could silently corrupt the report, so the run refuses —
    /// delete the offending file (or the whole cache directory) and
    /// rerun cold.
    CacheCorrupt {
        /// The stage whose entry is damaged.
        stage: String,
        /// What specifically failed to check out.
        reason: String,
    },
    /// The artifact cache directory could not be created, read or
    /// written.
    CacheIo {
        /// The underlying I/O failure.
        reason: String,
    },
}

/// Which run-identity digest disagreed in
/// [`AnalyzeError::DigestMismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestKind {
    /// The netlist content hash (the ledger belongs to a different
    /// circuit, or the circuit changed on disk).
    Netlist,
    /// The verdict-affecting config fingerprint
    /// ([`McConfig::fingerprint`]).
    Config,
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::InvalidCycles { got } => {
                write!(f, "cycle budget must be ≥ 2, got {got}")
            }
            AnalyzeError::BddNeedsTwoCycles { got } => {
                write!(f, "the BDD engine supports cycles = 2 only, got {got}")
            }
            AnalyzeError::InvalidSimLanes { got } => {
                write!(f, "sim lanes must be one of 64, 128, 256, 512, got {got}")
            }
            AnalyzeError::CorruptNetlist { report } => {
                write!(
                    f,
                    "netlist fails structural lint with {} error(s); \
                     rerun with linting disabled to analyze anyway",
                    report.len()
                )?;
                for d in report.iter() {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            AnalyzeError::ResumeMismatch { reason } => {
                write!(f, "cannot resume from this ledger: {reason}")
            }
            AnalyzeError::DigestMismatch {
                what,
                ledger,
                current,
            } => {
                let (kind, hint) = match what {
                    DigestKind::Netlist => {
                        ("netlist", "the ledger was written for a different circuit")
                    }
                    DigestKind::Config => (
                        "config",
                        "a verdict-affecting option — engine, cycles, sim filter/seed, \
                         backtracks, learning, self pairs — changed",
                    ),
                };
                write!(
                    f,
                    "{kind} mismatch: ledger digest {ledger:016x}, current {current:016x} \
                     ({hint})"
                )
            }
            AnalyzeError::CacheCorrupt { stage, reason } => {
                write!(
                    f,
                    "corrupt artifact store entry for stage `{stage}`: {reason}; \
                     delete the entry (or the cache directory) and rerun cold"
                )
            }
            AnalyzeError::CacheIo { reason } => {
                write!(f, "cache directory I/O error: {reason}")
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Runs the full multi-cycle FF-pair analysis on a circuit.
///
/// The flow is the paper's: structural filter → random-pattern simulation →
/// time-frame expansion (+ optional static learning) → per-pair
/// classification with the configured [`Engine`]. Every topologically
/// connected FF pair receives a [`PairClass`] verdict; the report also
/// carries the per-step counters of the paper's Table 2.
///
/// # Errors
///
/// Returns [`AnalyzeError`] for invalid cycle budgets (see [`McConfig`]).
/// Engine resource exhaustion is **not** an error: affected pairs are
/// reported [`PairClass::Unknown`].
pub fn analyze(netlist: &Netlist, cfg: &McConfig) -> Result<McReport, AnalyzeError> {
    analyze_with(netlist, cfg, &ObsCtx::new())
}

/// [`analyze`] with an explicit observability context: spans and
/// engine counters accumulate into `obs`, per-pair events go to its sink,
/// and the returned report embeds the final
/// [`MetricsSnapshot`](mcp_obs::MetricsSnapshot).
///
/// # Errors
///
/// Returns [`AnalyzeError`] for invalid cycle budgets (see [`McConfig`]).
pub fn analyze_with(
    netlist: &Netlist,
    cfg: &McConfig,
    obs: &ObsCtx,
) -> Result<McReport, AnalyzeError> {
    analyze_from(netlist, cfg, obs, VerdictSource::Fresh).map(|a| a.report)
}

/// Where a run's already-known verdicts come from.
///
/// Every source feeds the same pipeline: the prefilters, the expansion
/// and the sink-group plan run once on the current netlist, and one
/// splice step then answers each surviving pair from the source where
/// it can. The engines see only the rest. Because the canonical report
/// is a function of the verdicts alone, every source yields the bytes
/// of a cold [`VerdictSource::Fresh`] run.
#[derive(Debug, Clone, Copy)]
pub enum VerdictSource<'a> {
    /// Nothing known: every prefilter survivor goes to the engines.
    Fresh,
    /// A prior run's ledger (`--resume`). Its engine verdicts are
    /// restored and re-journaled with `resumed` set. The header must
    /// match this run's netlist, config and candidate set.
    Ledger(&'a Ledger),
    /// The artifact store (`--cache-dir`). A stored `Verdicts` artifact
    /// for this netlist and config is spliced with `cached` set; on a
    /// miss the run computes everything and persists its artifacts.
    Store(&'a CasStore),
    /// An older revision's stored verdicts (`--eco`). Sink groups whose
    /// cone meets the edit are re-verified; every other group splices
    /// its old verdicts by FF name. Without a usable old artifact this
    /// is [`VerdictSource::Store`].
    Eco {
        /// The revision whose verdicts the store holds.
        old: &'a Netlist,
        /// The store holding them, which also receives this run's.
        store: &'a CasStore,
    },
}

/// What [`analyze_from`] produced.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The report, identical to a [`VerdictSource::Fresh`] run's after
    /// [`McReport::canonical`].
    pub report: McReport,
    /// What an ECO run re-verified and spliced; `None` for every other
    /// source.
    pub eco: Option<EcoSummary>,
}

/// The structural candidate pair set the pipeline commits to: every
/// topologically connected FF pair, minus self pairs when excluded.
/// Ledger headers and store entries are checked against its digest.
pub(crate) fn candidate_pairs(netlist: &Netlist, cfg: &McConfig) -> Vec<(usize, usize)> {
    let mut candidates = netlist.connected_ff_pairs();
    if !cfg.include_self_pairs {
        candidates.retain(|&(i, j)| i != j);
    }
    candidates
}

/// Order-independent digest of a candidate pair set, written into the
/// run-ledger header and checked on resume.
pub(crate) fn pair_digest(pairs: &[(usize, usize)]) -> u64 {
    let mut sorted = pairs.to_vec();
    sorted.sort_unstable();
    let mut bytes = Vec::with_capacity(sorted.len() * 16);
    for (i, j) in sorted {
        bytes.extend_from_slice(&(i as u64).to_le_bytes());
        bytes.extend_from_slice(&(j as u64).to_le_bytes());
    }
    mcp_obs::fnv1a(&bytes)
}

/// Verdicts a source already knows, as journal events keyed by
/// `(src, dst)` FF pair.
pub(crate) type KnownVerdicts = BTreeMap<(usize, usize), PairEvent>;

/// The identity a ledger header or store entry must share with the
/// current run before its verdicts may be spliced.
pub(crate) struct RunIdentity {
    /// [`Netlist::content_hash`].
    pub(crate) netlist_hash: u64,
    /// [`McConfig::fingerprint`].
    pub(crate) fingerprint: u64,
    /// [`pair_digest`] of the candidate set.
    pub(crate) pair_digest: u64,
}

/// A [`VerdictSource`] after its up-front checks. Everything that can
/// refuse a source without the plan (headers, digests, store entries)
/// has refused by the time one of these exists.
#[derive(Default)]
struct Known<'a> {
    /// Verdicts by pair, spliced wherever the pair survives the
    /// prefilters (and, under ECO, its sink group is clean).
    verdicts: KnownVerdicts,
    /// Journal provenance of spliced verdicts: `cached` for the store
    /// and ECO sources, `resumed` for the ledger source.
    cached: bool,
    /// ECO: the changed node names; groups whose cone meets one of them
    /// are re-verified.
    changed: Option<BTreeSet<String>>,
    /// ECO bookkeeping, filled in by the splice step.
    eco: Option<EcoSummary>,
    /// Store that receives this run's `Verdicts` artifact (a cold store
    /// miss, or an ECO splice).
    persist: Option<&'a CasStore>,
}

/// Checks `source` against the current run and loads what it knows.
/// This is the only place a [`VerdictSource`] is taken apart.
fn load_source<'a>(
    netlist: &Netlist,
    cfg: &McConfig,
    obs: &ObsCtx,
    source: VerdictSource<'a>,
    id: &RunIdentity,
    candidates: &[(usize, usize)],
) -> Result<Known<'a>, AnalyzeError> {
    let mut known = Known {
        cached: matches!(source, VerdictSource::Store(_) | VerdictSource::Eco { .. }),
        ..Known::default()
    };
    match source {
        VerdictSource::Fresh => {}
        VerdictSource::Ledger(ledger) => {
            known.verdicts = resume::ledger_verdicts(ledger, id, candidates)?;
        }
        VerdictSource::Store(store) => {
            let key = stage_key_for(STAGE_VERDICTS, id.netlist_hash, cfg);
            match store.get::<VerdictsArtifact>(STAGE_VERDICTS, key)? {
                Some(art) => {
                    check_verdicts_identity(&art, id)?;
                    obs.metrics.cache_hits.add(1);
                    known.verdicts = art
                        .verdicts
                        .iter()
                        .map(|r| ((r.src, r.dst), cached_event(r, (r.src, r.dst))))
                        .collect();
                }
                None => {
                    obs.metrics.cache_misses.add(1);
                    known.persist = Some(store);
                }
            }
        }
        VerdictSource::Eco { old, store } => {
            let delta = mcp_netlist::diff(old, netlist);
            let summary = EcoSummary {
                changed_nodes: delta.changed.len(),
                removed_nodes: delta.removed.len(),
                ..EcoSummary::default()
            };
            match eco::old_verdicts(old, netlist, cfg, obs, store)? {
                Some(verdicts) => {
                    known.verdicts = verdicts;
                    known.changed = Some(delta.changed);
                    known.persist = Some(store);
                    known.eco = Some(summary);
                }
                None => {
                    // Nothing to splice from: a plain store run of the
                    // new revision, which also populates the store.
                    known = load_source(
                        netlist,
                        cfg,
                        obs,
                        VerdictSource::Store(store),
                        id,
                        candidates,
                    )?;
                    known.eco = Some(EcoSummary {
                        full_run: true,
                        ..summary
                    });
                }
            }
        }
    }
    Ok(known)
}

/// [`analyze_with`], answering what it can from `source`.
///
/// The pipeline runs the admission gate, the prefilters, the expansion
/// and the sink-group plan over all survivors once. One splice step then
/// applies the plan: ECO dirtiness from each group's cone, and the
/// source's verdicts for every pair it may answer. The engines verify
/// the rest. Spliced verdicts are journaled with `resumed` set (the
/// ledger source) or `cached` set (store and ECO sources).
///
/// # Errors
///
/// Everything [`analyze`] can return, plus the source's refusals:
/// [`AnalyzeError::ResumeMismatch`] / [`AnalyzeError::DigestMismatch`]
/// for a ledger that belongs to another run, and
/// [`AnalyzeError::CacheCorrupt`] / [`AnalyzeError::CacheIo`] for a
/// damaged or unwritable store. Header, digest and store refusals fire
/// before anything is journaled.
pub fn analyze_from(
    netlist: &Netlist,
    cfg: &McConfig,
    obs: &ObsCtx,
    source: VerdictSource<'_>,
) -> Result<Analysis, AnalyzeError> {
    if cfg.cycles < 2 {
        return Err(AnalyzeError::InvalidCycles { got: cfg.cycles });
    }
    if matches!(cfg.engine, Engine::Bdd { .. }) && cfg.cycles != 2 {
        return Err(AnalyzeError::BddNeedsTwoCycles { got: cfg.cycles });
    }
    // Validated even when the filter is off: a bad lane width is a
    // config error either way, and catching it here keeps `mc_filter`
    // panic-free in pipeline use.
    if cfg.sim.lane_words().is_none() {
        return Err(AnalyzeError::InvalidSimLanes { got: cfg.sim.lanes });
    }
    // The run's root span: every other `analyze/...` span, lint
    // included, lies inside it.
    let t_total = obs.timers.span("analyze");

    // Step 0: admission. A structural defect (a combinational cycle, a
    // gate of the wrong arity, an unconnected or multi-driven DFF, a
    // duplicated name) voids every assumption the rest of the pipeline
    // makes about the netlist, candidate enumeration included, so refuse
    // outright.
    if cfg.lint {
        let t_lint = obs.timers.span("analyze/lint");
        let defects = netlist.defects();
        t_lint.stop();
        if !defects.is_empty() {
            let report = mcp_lint::structural_report(netlist, &defects);
            return Err(AnalyzeError::CorruptNetlist { report });
        }
    }

    // Step 1: structural candidates. A source is checked against their
    // digest, and refused, before anything is journaled. The run
    // identity is hashed only when something reads it: a source to
    // check, or a ledger header.
    let candidates = candidate_pairs(netlist, cfg);
    let id =
        (!matches!(source, VerdictSource::Fresh) || obs.sink().enabled()).then(|| RunIdentity {
            netlist_hash: netlist.content_hash(),
            fingerprint: cfg.fingerprint(),
            pair_digest: pair_digest(&candidates),
        });
    let mut known = match &id {
        Some(id) => load_source(netlist, cfg, obs, source, id, &candidates)?,
        None => Known::default(),
    };

    let mut stats = StepStats::default();
    let mut results: Vec<PairResult> = Vec::new();
    stats.candidates = candidates.len();

    // Open the ledger with the run's identity, before any event can be
    // appended: format version plus the digests `--resume` will check.
    if let (true, Some(id)) = (obs.sink().enabled(), &id) {
        obs.sink().record_header(&RunHeader {
            ledger: LEDGER_VERSION,
            circuit: netlist.name().to_owned(),
            netlist_hash: id.netlist_hash,
            config_fingerprint: id.fingerprint,
            pair_digest: id.pair_digest,
            pairs: candidates.len() as u64,
        });
    }

    // Steps 1.5–2: the deterministic prefilters (static
    // pre-classification + random-pattern simulation).
    let Prefiltered {
        mut survivors,
        ff_toggles,
    } = run_prefilters(netlist, cfg, obs, &mut stats, &mut results, candidates);

    let t_prepare = obs.timers.span("analyze/prepare");
    let x = Expanded::build(netlist, cfg.cycles);

    // Sink-group planning over every survivor: survivors sharing a sink
    // FF form one work unit, so a single cone slice (and the per-group
    // engine state built on it) serves every source of that sink. The
    // groups also carry the hardest-first cost hints: the pair loop's
    // workers claim groups from the front of the list, so front-loading
    // the expensive groups keeps the tail of the run short. This one
    // plan also fixes ECO dirtiness.
    let mut groups = plan_sink_groups(&x, &survivors, ff_toggles.as_deref(), cfg.cycles);

    let restored = splice(
        netlist,
        cfg,
        obs,
        &x,
        &mut groups,
        &mut survivors,
        &mut known,
    );

    // Steps 3-4: the engines. The sink groups are every engine's work
    // list, hardest group first, and one group loop runs all three:
    // implication and SAT build their engine state per group on
    // `cfg.threads` workers; BDD's one worker builds one symbolic FSM of
    // the whole circuit and walks the groups in the same order. Every
    // verdict leaves through `finish`, which journals it, ticks the
    // progress meter and collects it. The meter extrapolates its ETA
    // over the groups' cost hints, not pair counts: groups run
    // hardest-first, so count-based extrapolation would wildly
    // overestimate early in the run.
    let done = AtomicUsize::new(0);
    let done_cost = AtomicU64::new(0);
    let total = survivors.len();
    let total_cost: u64 = groups.iter().map(|g| g.cost).sum();
    let tick = |group: &SinkGroup| {
        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
        let share = group.cost / group.sources.len() as u64;
        let c = done_cost.fetch_add(share, Ordering::Relaxed) + share;
        obs.progress_with_cost("pairs", d, total, (c, total_cost));
    };
    let bdd = matches!(cfg.engine, Engine::Bdd { .. });
    let sat = cfg.engine == Engine::Sat;
    // Without slicing every group's model is the whole expansion, so
    // what the engines derive from it alone is built once, here, and
    // billed to `prepare`: the implication engine's learned set, or
    // SAT's template with every pair's difference literals created in
    // canonical (sorted-pair) order.
    let whole_learned = (cfg.engine == Engine::Implication && !cfg.slice && cfg.static_learning)
        .then(|| learn_counted(&x, cfg, obs));
    let template = (!cfg.slice && sat).then(|| {
        let mut cnf = CircuitCnf::new(&x);
        let mut sorted = survivors.clone();
        sorted.sort_unstable();
        for (i, j) in sorted {
            add_diff_lits(&mut cnf, &x, &[i], j, cfg.cycles);
        }
        cnf
    });
    stats.time_prepare = t_prepare.stop();
    let search_cfg = SearchConfig {
        backtrack_limit: cfg.backtrack_limit,
    };
    let threads = if bdd { 1 } else { cfg.threads };
    let (verdicts, busy) = run_items(&groups, threads, obs, "analyze/pairs", |feed, out| {
        // BDD's engine state: the FSM and the states it checks pairs
        // under. A model or reachable set that blows the node budget
        // leaves every pair unknown.
        let mut fsm = None;
        let mut reached = None;
        if let Engine::Bdd {
            node_limit,
            reachability,
        } = cfg.engine
        {
            fsm = SymbolicFsm::build(netlist, node_limit).ok();
            reached = match fsm.as_mut() {
                Some(fsm) if reachability => fsm.reachable(InitStates::Zero).ok(),
                Some(_) => Some(Ref::TRUE),
                None => None,
            };
        }
        for group in feed {
            let _group = obs
                .timers
                .span(format!("analyze/pairs/sink:{}", group.sink));
            let mut finish = |i,
                              v: Verdict,
                              engine: &str,
                              assignments,
                              t_pair: Instant,
                              sizes: Option<(u64, u64)>| {
                let r = PairResult {
                    src: i,
                    dst: group.sink,
                    class: v.into(),
                };
                if obs.sink().enabled() {
                    obs.sink().record(&PairEvent {
                        engine: Some(engine.to_owned()),
                        assignments,
                        micros: t_pair.elapsed().as_micros() as u64,
                        slice_nodes: sizes.map(|(n, _)| n),
                        slice_vars: sizes.map(|(_, v)| v),
                        ..r.event()
                    });
                }
                tick(group);
                out.push(r);
            };
            if bdd {
                for &i in &group.sources {
                    let t_pair = Instant::now();
                    let v = match (fsm.as_mut(), reached) {
                        (Some(fsm), Some(r)) => classify_pair_bdd(fsm, i, group.sink, r),
                        _ => Verdict::Unknown,
                    };
                    finish(i, v, "bdd", Vec::new(), t_pair, None);
                }
                continue;
            }
            let slice = cfg
                .slice
                .then(|| x.build_slice(&group_roots(&x, group.sink, &group.sources, cfg.cycles)));
            let model = slice.as_ref().map_or(&x, Slice::model);
            if sat {
                // One incremental solver per group, queried in
                // ascending-source order: its variable numbering,
                // decisions and learnt clauses do not depend on the
                // worker that runs the group, and the group's queries
                // share learnt clauses.
                let mut cnf = match &template {
                    Some(t) => t.clone(),
                    None => {
                        let mut cnf = CircuitCnf::new(model);
                        add_diff_lits(&mut cnf, model, &group.sources, group.sink, cfg.cycles);
                        cnf
                    }
                };
                let sizes = slice
                    .as_ref()
                    .map(|s| (s.num_nodes() as u64, cnf.solver().num_vars() as u64));
                if let Some(sizes) = sizes {
                    note_slice_build(obs, sizes, group.sources.len());
                }
                for &i in &group.sources {
                    let t_pair = Instant::now();
                    let v = classify_pair_sat(&mut cnf, model, i, group.sink, cfg.cycles);
                    finish(i, v, "sat", Vec::new(), t_pair, sizes);
                }
                // A fresh solver, or a clone of the template (whose
                // stats are zero: building it only adds clauses), so its
                // totals are the group's deltas.
                flush_sat_stats(obs, &cnf);
            } else {
                let sizes = slice
                    .as_ref()
                    .map(|s| (s.num_nodes() as u64, s.num_vars() as u64));
                if let Some(sizes) = sizes {
                    note_slice_build(obs, sizes, group.sources.len());
                }
                // On a slice, learning is slice-local: the learned set
                // is sound on slice and whole circuit alike, but only the
                // slice's share is worth paying for here.
                let slice_learned;
                let learned = match (&slice, cfg.static_learning) {
                    (_, false) => None,
                    (Some(_), true) => {
                        slice_learned = learn_counted(model, cfg, obs);
                        Some(&slice_learned)
                    }
                    (None, true) => whole_learned.as_ref(),
                };
                let mut eng = new_engine(model, learned);
                // Engine construction itself propagates (the learned
                // forced literals); subtract that baseline so the
                // flushed totals are pure per-group deltas.
                let base_implications = eng.implications();
                let base_contradictions = eng.contradictions();
                for &i in &group.sources {
                    let t_pair = Instant::now();
                    let mut probe = if obs.sink().enabled() {
                        PairProbe::traced()
                    } else {
                        PairProbe::default()
                    };
                    let v = classify_pair_implication_probed(
                        &mut eng,
                        i,
                        group.sink,
                        cfg.cycles,
                        &search_cfg,
                        &mut probe,
                    );
                    obs.metrics.atpg_decisions.add(probe.decisions);
                    obs.metrics.atpg_backtracks.add(probe.backtracks);
                    obs.metrics.atpg_aborts.add(probe.aborts);
                    finish(i, v, "implication", probe.assignments, t_pair, sizes);
                }
                obs.metrics
                    .implications
                    .add(eng.implications() - base_implications);
                obs.metrics
                    .contradictions
                    .add(eng.contradictions() - base_contradictions);
            }
        }
        if let Some(fsm) = &fsm {
            obs.metrics
                .bdd_peak_nodes
                .raise_to(fsm.bdd().num_nodes() as u64);
            obs.metrics.bdd_cache_lookups.add(fsm.bdd().cache_lookups());
            obs.metrics.bdd_cache_hits.add(fsm.bdd().cache_hits());
        }
    });
    stats.time_pairs = busy;

    // Merge the engines' verdicts with the spliced ones; the sort below
    // makes the interleaving irrelevant. A run that persists to the
    // store records each of these engine verdicts for its Verdicts
    // artifact.
    let engine_start = results.len();
    results.extend(verdicts.into_iter().chain(restored));
    let persist = known.persist.zip(id.as_ref()).map(|(store, id)| {
        (
            store,
            id,
            verdict_records(netlist, &results[engine_start..]),
        )
    });

    results.sort_unstable_by_key(|p| (p.src, p.dst));
    stats.count_pairs(&results);
    stats.time_total = t_total.stop();
    // Close the ledger with the run's span log (pair verdicts are
    // already durable — they were flushed as they landed). The log
    // stays whole for the report's totals.
    if obs.sink().enabled() {
        for span in obs.timers.events() {
            obs.sink().record_span(&span);
        }
    }
    let _ = obs.sink().flush();
    let report = McReport::new(netlist.name().to_owned(), results, stats, obs.snapshot());
    // Persisted only after the run succeeded, so a crash mid-persist can
    // only lose store entries, never report correctness.
    if let Some((store, id, records)) = persist {
        persist_verdicts(store, id, cfg, netlist.name(), records)?;
    }
    Ok(Analysis {
        report,
        eco: known.eco,
    })
}

/// The splice step: applies the source's knowledge to the run's one
/// sink-group plan and returns the spliced verdicts. On return
/// `survivors` and `groups` hold only the pairs the engines must verify;
/// `groups`, hardest first, is the engines' work list.
///
/// The order matters: ECO dirtiness comes first, over the plan of
/// *all* prefilter survivors, then the splice itself. The prefilters
/// re-ran on this netlist, so their drops are recomputed rather than
/// spliced; only engine work is saved.
fn splice(
    netlist: &Netlist,
    cfg: &McConfig,
    obs: &ObsCtx,
    x: &Expanded,
    groups: &mut Vec<SinkGroup>,
    survivors: &mut Vec<(usize, usize)>,
    known: &mut Known<'_>,
) -> Vec<PairResult> {
    let planned = survivors.len();
    if let (Some(changed), Some(summary)) = (&known.changed, known.eco.as_mut()) {
        let invalidated = eco::drop_dirty(
            netlist,
            x,
            groups,
            cfg.cycles,
            changed,
            &mut known.verdicts,
            summary,
        );
        obs.metrics
            .eco_groups_reverified
            .add(summary.groups_reverified as u64);
        obs.metrics
            .eco_groups_spliced
            .add(summary.groups_spliced as u64);
        obs.metrics.cache_invalidations.add(invalidated);
    }

    // Known pairs skip the pair loop entirely: their verdicts are
    // restored verbatim and re-journaled, so the new ledger is itself
    // complete. A cache splice is not a crash recovery: its events say
    // `cached` and carry no engine tag, so a warm run's ledger shows
    // zero engine work. Known verdicts for pairs outside the survivors
    // (pairs the prefilters now resolve) stay unused.
    let mut restored = Vec::new();
    survivors.retain(|&(src, dst)| match known.verdicts.get(&(src, dst)) {
        Some(event) => {
            let class = PairClass::from_tags(&event.step, &event.class);
            restored.push(PairResult { src, dst, class });
            if obs.sink().enabled() {
                let mut replay = event.clone();
                if known.cached {
                    replay.cached = true;
                } else {
                    replay.resumed = true;
                }
                obs.sink().record(&replay);
            }
            false
        }
        None => true,
    });
    if known.cached {
        obs.metrics.cache_pairs_spliced.add(restored.len() as u64);
    } else {
        obs.metrics.resume_pairs_loaded.add(restored.len() as u64);
    }

    // The engines' work list is the plan cut down to the residue. Cost
    // hints stay those of the full groups: they only order the queue,
    // and verdicts are order-independent.
    if survivors.len() < planned {
        let residue: BTreeSet<(usize, usize)> = survivors.iter().copied().collect();
        groups.retain_mut(|g| {
            g.sources.retain(|&i| residue.contains(&(i, g.sink)));
            !g.sources.is_empty()
        });
    }
    restored
}

/// An implication engine over `x`, with `learned`'s globally forced
/// literals asserted up front when a learned set is given.
fn new_engine<'a>(x: &'a Expanded, learned: Option<&'a LearnedImplications>) -> ImpEngine<'a> {
    let Some(learned) = learned else {
        return ImpEngine::new(x);
    };
    let mut eng = ImpEngine::new(x).with_learned(learned);
    // A conflict here would mean the circuit has no consistent
    // assignment at all, which cannot happen for well-formed netlists.
    for &(id, v) in learned.forced() {
        let _ = eng.assign(id, v);
    }
    let _ = eng.propagate();
    eng
}

/// Runs static learning on `x` under the configured budget and counts
/// the learned implications.
fn learn_counted(x: &Expanded, cfg: &McConfig, obs: &ObsCtx) -> LearnedImplications {
    let learned = learn(
        x,
        &LearnConfig {
            max_implications: cfg.learn_budget,
        },
    );
    obs.metrics.learned_implications.add(learned.len() as u64);
    learned
}

/// Creates the difference literals of `sources` × `sink` on `x` in
/// canonical order: each source's transition, then the sink's
/// boundaries `t+m`/`t+m+1` for `m` in `1..cycles`.
fn add_diff_lits(cnf: &mut CircuitCnf, x: &Expanded, sources: &[usize], sink: usize, cycles: u32) {
    for &i in sources {
        cnf.diff_lit(x.ff_at(i, 0), x.ff_at(i, 1));
    }
    for m in 1..cycles {
        cnf.diff_lit(x.ff_at(sink, m), x.ff_at(sink, m + 1));
    }
}

/// Accounts one slice construction of `(nodes, vars)` size that serves a
/// `group_size`-pair sink group: every pair after the first is a reuse
/// ("cache hit") that would have been a fresh build under per-pair
/// slicing.
fn note_slice_build(obs: &ObsCtx, (nodes, vars): (u64, u64), group_size: usize) {
    obs.metrics.slice_builds.add(1);
    obs.metrics.slice_cache_hits.add(group_size as u64 - 1);
    obs.metrics.slice_nodes.add(nodes);
    obs.metrics.slice_vars.add(vars);
    obs.metrics.slice_nodes_peak.raise_to(nodes);
}

/// Adds a solver's lifetime totals to the SAT effort counters. Callers
/// must hand over a solver whose totals are pure deltas for the work
/// being flushed (fresh per group, or cloned from a zero-stats template).
fn flush_sat_stats(obs: &ObsCtx, cnf: &CircuitCnf) {
    let s = cnf.solver().stats();
    obs.metrics.sat_decisions.add(s.decisions);
    obs.metrics.sat_propagations.add(s.propagations);
    obs.metrics.sat_conflicts.add(s.conflicts);
    obs.metrics.sat_learned.add(s.learnt);
    obs.metrics.sat_restarts.add(s.restarts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Step;
    use mcp_gen::{circuits, generators, oracle, suite};
    use std::time::Duration;

    #[test]
    fn fig1_reproduces_the_papers_walkthrough() {
        let nl = circuits::fig1();
        let report = analyze(&nl, &McConfig::default()).expect("analyze");
        // 9 candidates, 4 dropped by simulation, 5 multi-cycle — the
        // paper's Section 4.2 numbers.
        assert_eq!(report.stats.candidates, 9);
        assert_eq!(
            report.multi_cycle_pairs(),
            vec![(0, 0), (0, 1), (1, 1), (2, 1), (3, 0)]
        );
        assert_eq!(report.stats.single_total(), 4);
        assert!(report.unknown_pairs().is_empty());
    }

    #[test]
    fn all_three_engines_agree_with_the_oracle() {
        let circuits: Vec<Netlist> = vec![
            circuits::fig1(),
            circuits::fig4_fragment(),
            generators::gated_datapath(&generators::DatapathConfig::default()),
            generators::lfsr(4, 1),
        ];
        for nl in &circuits {
            let (multi, _single) = oracle::exhaustive_mc_pairs(nl);
            for engine in [
                Engine::Implication,
                Engine::Sat,
                Engine::Bdd {
                    node_limit: 1 << 22,
                    reachability: false,
                },
            ] {
                let cfg = McConfig {
                    engine,
                    backtrack_limit: 100_000,
                    ..McConfig::default()
                };
                let report = analyze(nl, &cfg).expect("analyze");
                assert_eq!(
                    report.multi_cycle_pairs(),
                    multi,
                    "engine {engine:?} on {}",
                    nl.name()
                );
                assert!(report.unknown_pairs().is_empty());
            }
        }
    }

    #[test]
    fn sim_filter_off_gives_same_verdicts() {
        let nl = circuits::fig1();
        let with = analyze(&nl, &McConfig::default()).expect("analyze");
        let without = analyze(
            &nl,
            &McConfig {
                use_sim_filter: false,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        assert_eq!(with.multi_cycle_pairs(), without.multi_cycle_pairs());
        assert_eq!(
            with.single_cycle_pairs().len(),
            without.single_cycle_pairs().len()
        );
        // Without the filter everything is attributed to step 4.
        assert_eq!(without.stats.single_by_sim, 0);
    }

    #[test]
    fn static_learning_does_not_change_verdicts() {
        let nl = suite::quick_suite().remove(1); // m298
        let base = analyze(&nl, &McConfig::default()).expect("analyze");
        let learned = analyze(
            &nl,
            &McConfig {
                static_learning: true,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        assert_eq!(base.multi_cycle_pairs(), learned.multi_cycle_pairs());
        assert_eq!(
            base.single_cycle_pairs().len(),
            learned.single_cycle_pairs().len()
        );
    }

    #[test]
    fn parallel_equals_sequential() {
        // Stronger than verdict equality: the canonical (wall-clock-free)
        // serialized report must be byte-identical for any thread count.
        let nl = suite::quick_suite().remove(2); // m526
        let baseline = serde_json::to_string(
            &analyze(&nl, &McConfig::default())
                .expect("analyze")
                .canonical(),
        )
        .expect("serialize");
        for threads in [1usize, 2, 8] {
            let par = analyze(
                &nl,
                &McConfig {
                    threads,
                    ..McConfig::default()
                },
            )
            .expect("analyze");
            let bytes = serde_json::to_string(&par.canonical()).expect("serialize");
            assert_eq!(
                bytes, baseline,
                "canonical report drifted at threads={threads}"
            );
        }
    }

    #[test]
    fn empty_pair_loop_no_ops_cleanly_at_any_thread_count() {
        use mcp_netlist::bench;
        // No FFs at all: the candidate set (and thus the survivor set) is
        // empty, and the pair loop must no-op without clamp underflow or
        // spurious engine construction.
        let nl = bench::parse("comb", "INPUT(a)\nOUTPUT(b)\nb = NOT(a)").expect("parse");
        for engine in [Engine::Implication, Engine::Sat] {
            for threads in [0usize, 1, 8] {
                let report = analyze(
                    &nl,
                    &McConfig {
                        engine,
                        threads,
                        ..McConfig::default()
                    },
                )
                .expect("analyze");
                assert!(report.pairs.is_empty());
                assert_eq!(report.stats.candidates, 0);
                assert_eq!(report.stats.time_pairs, Duration::ZERO);
            }
        }
    }

    #[test]
    fn slicing_does_not_change_the_canonical_report() {
        // The slice-mode determinism contract: the canonical report is
        // byte-identical with slicing on and off, for every engine that
        // honors the flag.
        let nl = suite::quick_suite().remove(2); // m526
        for engine in [Engine::Implication, Engine::Sat] {
            let on = analyze(
                &nl,
                &McConfig {
                    engine,
                    slice: true,
                    ..McConfig::default()
                },
            )
            .expect("analyze");
            let off = analyze(
                &nl,
                &McConfig {
                    engine,
                    slice: false,
                    ..McConfig::default()
                },
            )
            .expect("analyze");
            assert_eq!(
                serde_json::to_string(&on.canonical()).expect("serialize"),
                serde_json::to_string(&off.canonical()).expect("serialize"),
                "canonical report drifted between slice modes under {engine:?}"
            );
        }
    }

    #[test]
    fn excluding_self_pairs_matches_the_sat_baseline_convention() {
        let nl = circuits::fig1();
        let report = analyze(
            &nl,
            &McConfig {
                include_self_pairs: false,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        assert!(report.pairs.iter().all(|p| p.src != p.dst));
        assert_eq!(report.stats.candidates, 7); // 9 minus (FF1,FF1),(FF2,FF2)
    }

    #[test]
    fn corrupt_netlists_are_refused_unless_lint_is_off() {
        use mcp_logic::GateKind;
        use mcp_netlist::NetlistBuilder;
        // g1 = AND(a, g2), g2 = NOT(g1): a combinational cycle that only
        // `finish_unchecked` lets through.
        let mut b = NetlistBuilder::new("cyclic");
        let a = b.input("a");
        let g1 = b.gate("g1", GateKind::And, [a, a]).unwrap();
        let g2 = b.gate("g2", GateKind::Not, [g1]).unwrap();
        b.rewire_fanin(g1, 1, g2).unwrap();
        b.mark_output(g2);
        let nl = b.finish_unchecked();

        let err = analyze(&nl, &McConfig::default()).unwrap_err();
        match &err {
            AnalyzeError::CorruptNetlist { report } => {
                assert!(report.iter().any(|d| d.rule == "comb-cycle"), "{report:?}");
            }
            other => panic!("expected CorruptNetlist, got {other:?}"),
        }
        assert!(err.to_string().contains("comb-cycle"));

        // With the gate disabled the (FF-free) netlist analyzes trivially.
        let report = analyze(
            &nl,
            &McConfig {
                lint: false,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        assert!(report.pairs.is_empty());

        // A NOT or BUFF with two inputs, feeding a DFF: refused with a
        // typed error naming the rule, where the evaluators would panic.
        for kind in ["NOT", "BUFF"] {
            let src = format!("INPUT(a)\nOUTPUT(q)\nq = DFF(g)\ng = {kind}(a, q)\n");
            let nl = mcp_netlist::bench::parse_unchecked("arity", &src).expect("parse");
            match analyze(&nl, &McConfig::default()) {
                Err(AnalyzeError::CorruptNetlist { report }) => {
                    assert_eq!(report.len(), 1, "{report:?}");
                    assert_eq!(report.diagnostics[0].rule, "bad-arity");
                }
                other => panic!("expected CorruptNetlist, got {other:?}"),
            }
        }
    }

    #[test]
    fn lint_gate_admits_clean_netlists_inside_its_span() {
        let nl = circuits::fig1();
        let obs = mcp_obs::ObsCtx::new();
        analyze_with(&nl, &McConfig::default(), &obs).expect("analyze");
        let spans = obs.snapshot().spans;
        assert_eq!(spans["analyze/lint"].count, 1);
        assert!(spans["analyze/lint"].total <= spans["analyze"].total);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let nl = circuits::fig1();
        assert!(matches!(
            analyze(
                &nl,
                &McConfig {
                    cycles: 1,
                    ..McConfig::default()
                }
            ),
            Err(AnalyzeError::InvalidCycles { got: 1 })
        ));
        assert!(matches!(
            analyze(
                &nl,
                &McConfig {
                    cycles: 3,
                    engine: Engine::Bdd {
                        node_limit: 1000,
                        reachability: false
                    },
                    ..McConfig::default()
                }
            ),
            Err(AnalyzeError::BddNeedsTwoCycles { got: 3 })
        ));
        let mut bad_lanes = McConfig::default();
        bad_lanes.sim.lanes = 96;
        let err = analyze(&nl, &bad_lanes).unwrap_err();
        assert!(matches!(err, AnalyzeError::InvalidSimLanes { got: 96 }));
        assert!(err.to_string().contains("96"));
        // Rejected even when the filter is off: the config is wrong
        // regardless of whether anything would consume it.
        bad_lanes.use_sim_filter = false;
        assert!(matches!(
            analyze(&nl, &bad_lanes),
            Err(AnalyzeError::InvalidSimLanes { got: 96 })
        ));
    }

    #[test]
    fn lane_width_does_not_change_the_canonical_report() {
        let nl = suite::quick_suite().remove(2); // m526
        let baseline = serde_json::to_string(
            &analyze(&nl, &McConfig::default())
                .expect("analyze")
                .canonical(),
        )
        .expect("serialize");
        for lanes in mcp_sim::filter::SUPPORTED_LANES {
            let mut cfg = McConfig::default();
            cfg.sim.lanes = lanes;
            let bytes = serde_json::to_string(&analyze(&nl, &cfg).expect("analyze").canonical())
                .expect("serialize");
            assert_eq!(
                bytes, baseline,
                "canonical report drifted at {lanes} sim lanes"
            );
        }
    }

    #[test]
    fn bdd_overflow_reports_unknown_not_panic() {
        use mcp_obs::MemSink;
        use std::sync::Arc;
        let nl = generators::gated_datapath(&generators::DatapathConfig::default());
        let sink = Arc::new(MemSink::new());
        let obs = mcp_obs::ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
        let report = analyze_with(
            &nl,
            &McConfig {
                engine: Engine::Bdd {
                    node_limit: 8,
                    reachability: false,
                },
                use_sim_filter: false,
                ..McConfig::default()
            },
            &obs,
        )
        .expect("analyze");
        assert!(!report.pairs.is_empty());
        assert_eq!(report.unknown_pairs().len(), report.pairs.len());
        // Every overflowed pair is journaled like any engine verdict: a
        // resource limit shows up as a counted `Unknown`, never as a gap
        // in the ledger.
        let mut journaled: Vec<(usize, usize)> = sink
            .drain()
            .iter()
            .filter(|e| e.engine.as_deref() == Some("bdd") && e.class == "unknown")
            .map(|e| (e.src, e.dst))
            .collect();
        journaled.sort_unstable();
        assert_eq!(journaled, report.unknown_pairs());
    }

    #[test]
    fn bdd_runs_in_the_shared_group_loop_after_prepare() {
        let nl = suite::quick_suite().remove(1); // m298
        let obs = mcp_obs::ObsCtx::new();
        let cfg = McConfig {
            engine: Engine::Bdd {
                node_limit: 1 << 22,
                reachability: true,
            },
            ..McConfig::default()
        };
        let report = analyze_with(&nl, &cfg, &obs).expect("analyze");
        assert!(report.unknown_pairs().is_empty());
        let spans = obs.timers.events();
        let only = |path: &str| {
            let found: Vec<_> = spans.iter().filter(|s| s.span == path).collect();
            assert_eq!(found.len(), 1, "one `{path}` span");
            found[0].clone()
        };
        // The FSM build and reachability belong to the pair loop's one
        // worker, not to `prepare`: the two spans do not overlap.
        let prepare = only("analyze/prepare");
        let pairs = only("analyze/pairs");
        assert!(
            prepare.start_us + prepare.dur_us <= pairs.start_us,
            "prepare {prepare:?} overlaps pairs {pairs:?}"
        );
        only("analyze/pairs/worker");
        assert!(spans
            .iter()
            .any(|s| s.span.starts_with("analyze/pairs/sink:")));
        assert!(obs.snapshot().counters.bdd_peak_nodes > 0);
    }

    #[test]
    fn frozen_sinks_are_resolved_before_sim_or_engines() {
        let nl = generators::frozen_sink_demo(4);
        let obs = mcp_obs::ObsCtx::new();
        let on = analyze_with(&nl, &McConfig::default(), &obs).expect("analyze");
        // Every (core, debug) pair is frozen-sink: 4 debug sinks fed by
        // a tied-off AND, one core source each.
        assert_eq!(on.stats.multi_by_static, 4);
        assert_eq!(on.stats.multi_total(), 4);
        let c = obs.snapshot().counters;
        assert_eq!(c.static_resolved, on.stats.multi_by_static as u64);
        assert!(c.dataflow_consts > 0, "the tie-off must prove constants");
        assert!(c.dataflow_iters >= 1);
        // Every structural-step verdict names a debug sink (FF indices
        // 3.. in declaration order: CORE0-2 then DBG0-3).
        for p in &on.pairs {
            let is_static = p.class
                == PairClass::MultiCycle {
                    by: Step::Structural,
                };
            assert_eq!(is_static, p.dst >= 3, "pair ({}, {})", p.src, p.dst);
        }

        let off = analyze(
            &nl,
            &McConfig {
                static_classify: false,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        assert_eq!(off.stats.multi_by_static, 0);
        assert_eq!(
            serde_json::to_string(&on.canonical()).expect("serialize"),
            serde_json::to_string(&off.canonical()).expect("serialize"),
            "canonical report must not see the pre-pass"
        );
        // The frozen pairs are undroppable by simulation, so with the
        // pass off the filter grinds to its idle-words stop; with them
        // gone it stops the moment the core pairs die.
        assert!(
            on.stats.sim_words < off.stats.sim_words,
            "pre-pass must shrink simulated words: {} vs {}",
            on.stats.sim_words,
            off.stats.sim_words
        );
    }

    #[test]
    fn static_pre_pass_is_inert_without_const_nodes() {
        // No CONST node → no lattice seeds → the pass must not run (and
        // must not bill dataflow counters).
        let nl = circuits::fig1();
        let obs = mcp_obs::ObsCtx::new();
        let report = analyze_with(&nl, &McConfig::default(), &obs).expect("analyze");
        assert_eq!(report.stats.multi_by_static, 0);
        assert_eq!(report.stats.time_static, Duration::ZERO);
        let c = obs.snapshot().counters;
        assert_eq!(c.static_resolved, 0);
        assert_eq!(c.dataflow_consts, 0);
        assert_eq!(c.dataflow_iters, 0);
    }

    #[test]
    fn static_events_are_journaled_without_an_engine_tag() {
        use mcp_obs::MemSink;
        use std::sync::Arc;
        let nl = generators::frozen_sink_demo(3);
        let sink = Arc::new(MemSink::new());
        let obs = mcp_obs::ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
        let report = analyze_with(&nl, &McConfig::default(), &obs).expect("analyze");
        let events = sink.drain();
        let statics: Vec<_> = events.iter().filter(|e| e.static_pass).collect();
        assert_eq!(statics.len(), report.stats.multi_by_static);
        for e in &statics {
            assert_eq!(e.step, "structural");
            assert_eq!(e.class, "multi");
            assert_eq!(e.engine, None, "no engine ran for a static verdict");
            assert_eq!(e.micros, 0);
        }
        // Engine verdicts and sim drops never carry the flag.
        assert!(events.iter().all(|e| !e.static_pass || e.engine.is_none()));
    }

    #[test]
    fn static_classification_keeps_the_canonical_report_byte_identical() {
        // The acceptance matrix: engines × threads {1,2,8}
        // × slice modes, pre-pass on vs off, all byte-identical.
        let nl = generators::frozen_sink_demo(5);
        let mut baseline: Option<String> = None;
        for engine in [Engine::Implication, Engine::Sat] {
            for threads in [1usize, 2, 8] {
                for slice in [true, false] {
                    for static_classify in [true, false] {
                        let report = analyze(
                            &nl,
                            &McConfig {
                                engine,
                                threads,
                                slice,
                                static_classify,
                                ..McConfig::default()
                            },
                        )
                        .expect("analyze");
                        let bytes = serde_json::to_string(&report.canonical()).expect("serialize");
                        match &baseline {
                            None => baseline = Some(bytes),
                            Some(b) => assert_eq!(
                                &bytes, b,
                                "canonical report drifted: {engine:?} \
                                 threads={threads} slice={slice} static={static_classify}"
                            ),
                        }
                    }
                }
            }
        }
        // The BDD engine ignores threads and slicing; its canonical
        // report must still match the baseline at both pre-pass settings.
        for static_classify in [true, false] {
            let report = analyze(
                &nl,
                &McConfig {
                    engine: Engine::Bdd {
                        node_limit: 1 << 20,
                        reachability: false,
                    },
                    static_classify,
                    ..McConfig::default()
                },
            )
            .expect("analyze");
            let bytes = serde_json::to_string(&report.canonical()).expect("serialize");
            assert_eq!(
                Some(bytes),
                baseline,
                "BDD drifted at static={static_classify}"
            );
        }
    }

    #[test]
    fn table2_shape_holds_on_the_quick_suite() {
        // The paper's Table 2 headline: most single-cycle pairs die in
        // simulation; most multi-cycle pairs are proven by implication.
        let mut single_sim = 0usize;
        let mut single_other = 0usize;
        let mut multi_imp = 0usize;
        let mut multi_atpg = 0usize;
        // A raised backtrack limit keeps every pair resolvable; the
        // paper's default of 50 leaves a handful of m820 pairs aborted,
        // which would say nothing about the step shape under test.
        let cfg = McConfig {
            backtrack_limit: 1024,
            ..McConfig::default()
        };
        for nl in suite::quick_suite() {
            let r = analyze(&nl, &cfg).expect("analyze");
            single_sim += r.stats.single_by_sim;
            single_other += r.stats.single_by_implication + r.stats.single_by_atpg;
            multi_imp += r.stats.multi_by_implication;
            multi_atpg += r.stats.multi_by_atpg;
            assert_eq!(r.stats.unknown, 0, "{} has unknowns", nl.name());
        }
        assert!(
            single_sim > 5 * single_other.max(1),
            "simulation should dominate single-cycle detection: {single_sim} vs {single_other}"
        );
        assert!(
            multi_imp > multi_atpg,
            "implication should dominate multi-cycle proofs: {multi_imp} vs {multi_atpg}"
        );
    }
}
