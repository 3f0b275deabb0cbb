//! Warm-cache analysis: replay a prior run's verdicts from the
//! content-addressed store.
//!
//! [`analyze_cached_with`] ([`VerdictSource::Store`]) is `analyze_with`
//! plus a [`CasStore`]: a *cold* run (no usable `Verdicts` artifact)
//! analyzes normally while collecting every verdict, then persists them
//! as the one `Verdicts` artifact; a *warm* rerun of the same netlist ×
//! verdict-affecting config finds the `Verdicts` artifact under its
//! stage key, validates its identity digests, and
//! splices every verdict into the pipeline without constructing a
//! single engine. The cheap deterministic stages — the admission check,
//! expansion, the prefilters — still run fresh on the warm path, which
//! is what keeps the canonical report *byte-identical* to a cold run:
//! the prefilters' verdicts (the static pre-pass's multi-cycle pairs,
//! the simulation's `single_by_sim` drops) are recomputed rather than
//! stored, and the spliced verdicts preserve the exact step attribution
//! the engines produced.
//!
//! Spliced pairs are journaled with `cached: true` and **no engine
//! tag**, so a warm run's ledger provably contains zero engine events —
//! the acceptance check CI enforces.

use crate::cas::{CasError, CasStore};
use crate::config::McConfig;
use crate::pipeline::{analyze_from, AnalyzeError, DigestKind, RunIdentity, VerdictSource};
use crate::report::{McReport, PairClass, PairResult};
use crate::stage::{stage_key_for, VerdictRecord, VerdictsArtifact, STAGE_VERDICTS};
use mcp_netlist::Netlist;
use mcp_obs::{ObsCtx, PairEvent};

impl From<CasError> for AnalyzeError {
    fn from(e: CasError) -> Self {
        match e {
            CasError::Io { reason } => AnalyzeError::CacheIo { reason },
            CasError::Corrupt {
                stage,
                path,
                reason,
            } => AnalyzeError::CacheCorrupt {
                stage,
                reason: format!("{reason} ({})", path.display()),
            },
            // Analysis never takes the store lock (reads and atomic
            // puts are safe under a resident holder); a Locked error
            // reaching here is an I/O-level refusal.
            CasError::Locked { path, pid } => AnalyzeError::CacheIo {
                reason: format!("store locked by process {pid} ({})", path.display()),
            },
        }
    }
}

/// The splice event for one stored verdict, under the current netlist's
/// indices `(src, dst)` of its pair: `cached` set and nothing else — no
/// engine tag, no attributable time, and no kernel tag (a splice
/// simulates zero words, and untagged events are exactly what per-tier
/// throughput attribution skips).
pub(crate) fn cached_event(r: &VerdictRecord, (src, dst): (usize, usize)) -> PairEvent {
    let class = PairClass::from_tags(&r.step, &r.class);
    PairEvent {
        cached: true,
        ..PairResult { src, dst, class }.event()
    }
}

/// Validates a `Verdicts` artifact against the current run identity.
/// The stage key already encodes netlist hash and fingerprint, so a
/// mismatch here means a corrupted or hand-moved entry — but the check
/// costs nothing and turns a silent wrong-report into a typed refusal.
pub(crate) fn check_verdicts_identity(
    art: &VerdictsArtifact,
    id: &RunIdentity,
) -> Result<(), AnalyzeError> {
    if art.netlist_hash != id.netlist_hash {
        return Err(AnalyzeError::DigestMismatch {
            what: DigestKind::Netlist,
            ledger: art.netlist_hash,
            current: id.netlist_hash,
        });
    }
    if art.config_fingerprint != id.fingerprint {
        return Err(AnalyzeError::DigestMismatch {
            what: DigestKind::Config,
            ledger: art.config_fingerprint,
            current: id.fingerprint,
        });
    }
    if art.pair_digest != id.pair_digest {
        return Err(AnalyzeError::CacheCorrupt {
            stage: STAGE_VERDICTS.to_owned(),
            reason: format!(
                "pair digest {:016x} does not match the current candidate set {:016x}",
                art.pair_digest, id.pair_digest
            ),
        });
    }
    Ok(())
}

/// The `Verdicts` artifact's records of a run's engine verdicts: each
/// pair by FF index and by FF name, the key ECO re-analysis maps across
/// a netlist edit.
pub(crate) fn verdict_records(netlist: &Netlist, verdicts: &[PairResult]) -> Vec<VerdictRecord> {
    let names: Vec<&str> = netlist
        .dffs()
        .iter()
        .map(|&id| netlist.node(id).name())
        .collect();
    verdicts
        .iter()
        .map(|r| {
            let (step, class) = r.class.tags();
            VerdictRecord {
                src: r.src,
                dst: r.dst,
                src_name: names[r.src].to_owned(),
                dst_name: names[r.dst].to_owned(),
                step: step.to_owned(),
                class: class.to_owned(),
            }
        })
        .collect()
}

/// Persists a completed run's verdicts as the `Verdicts` artifact under
/// `id`'s stage key.
pub(crate) fn persist_verdicts(
    store: &CasStore,
    id: &RunIdentity,
    cfg: &McConfig,
    circuit: &str,
    mut verdicts: Vec<VerdictRecord>,
) -> Result<(), AnalyzeError> {
    verdicts.sort_unstable_by_key(|r| (r.src, r.dst));
    let art = VerdictsArtifact {
        circuit: circuit.to_owned(),
        netlist_hash: id.netlist_hash,
        config_fingerprint: id.fingerprint,
        pair_digest: id.pair_digest,
        verdicts,
    };
    let key = stage_key_for(STAGE_VERDICTS, id.netlist_hash, cfg);
    store.put(STAGE_VERDICTS, key, &art)?;
    Ok(())
}

/// Analyzes `netlist`, answering from `store` when a prior run of the
/// identical netlist × verdict-affecting config already persisted its
/// verdicts, and populating the store otherwise
/// ([`VerdictSource::Store`]).
///
/// Warm path: zero engine constructions, `cache_hits` counts the
/// artifact lookup, `cache_pairs_spliced` the replayed verdicts, and
/// every spliced journal event carries `cached: true` with no engine
/// tag. Cold path: a normal run plus `cache_misses`, with its
/// `Verdicts` artifact persisted on success. The canonical report is
/// byte-identical between the two paths.
///
/// # Errors
///
/// Everything [`analyze`](crate::analyze) can return, plus
/// [`AnalyzeError::CacheCorrupt`] / [`AnalyzeError::CacheIo`].
pub fn analyze_cached_with(
    netlist: &Netlist,
    cfg: &McConfig,
    obs: &ObsCtx,
    store: &CasStore,
) -> Result<McReport, AnalyzeError> {
    analyze_from(netlist, cfg, obs, VerdictSource::Store(store)).map(|a| a.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Engine;
    use crate::pipeline::analyze_with;
    use mcp_gen::{circuits, suite};
    use mcp_obs::MemSink;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mcpath-cache-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn canon(report: &McReport) -> String {
        serde_json::to_string(&report.canonical()).expect("serialize")
    }

    #[test]
    fn warm_rerun_is_byte_identical_with_zero_engine_events() {
        let dir = tempdir("warm");
        let store = CasStore::open(&dir).expect("open");
        let nl = suite::quick_suite().remove(0); // m27
        let bdd = Engine::Bdd {
            node_limit: 1 << 22,
            reachability: false,
        };
        for engine in [Engine::Implication, bdd] {
            let cfg = McConfig {
                engine,
                ..McConfig::default()
            };
            let cold_obs = ObsCtx::new();
            let cold = analyze_cached_with(&nl, &cfg, &cold_obs, &store).expect("cold");
            assert_eq!(cold_obs.snapshot().counters.cache_misses, 1);

            let sink = Arc::new(MemSink::new());
            let warm_obs = ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
            let warm = analyze_cached_with(&nl, &cfg, &warm_obs, &store).expect("warm");
            assert_eq!(canon(&warm), canon(&cold), "warm must equal cold");
            // Zero engine work: every journaled event is prefilter- or
            // cache-attributed, and no engine was even built.
            let events = sink.drain();
            assert!(!events.is_empty());
            assert!(
                events.iter().all(|e| e.engine.is_none()),
                "a warm {engine:?} run must journal no engine-tagged events"
            );
            assert!(events.iter().any(|e| e.cached));
            let c = warm_obs.snapshot().counters;
            assert_eq!(c.cache_hits, 1);
            assert!(c.cache_pairs_spliced > 0);
            assert_eq!(c.bdd_peak_nodes, 0, "a warm {engine:?} run built a BDD");
            assert!(
                !warm_obs.timers.totals().contains_key("analyze/pairs"),
                "a warm {engine:?} run entered the pair loop"
            );
            // And the plain (storeless) run agrees too.
            let plain = analyze_with(&nl, &cfg, &ObsCtx::new()).expect("plain");
            assert_eq!(canon(&plain), canon(&cold));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_cold_run_stores_only_the_verdicts_artifact() {
        let dir = tempdir("one-stage");
        let store = CasStore::open(&dir).expect("open");
        let nl = suite::quick_suite().remove(1); // m298
        analyze_cached_with(&nl, &McConfig::default(), &ObsCtx::new(), &store).expect("cold");
        let stats = store.stats().expect("stats");
        let stages: Vec<(&str, usize)> = stats
            .stages
            .iter()
            .map(|s| (s.stage.as_str(), s.entries))
            .collect();
        assert_eq!(stages, vec![("verdicts", 1)]);
        assert_eq!(stats.entries, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_fingerprint_changes_miss_instead_of_splicing() {
        let dir = tempdir("fp");
        let store = CasStore::open(&dir).expect("open");
        let nl = circuits::fig1();
        analyze_cached_with(&nl, &McConfig::default(), &ObsCtx::new(), &store).expect("cold");
        // A different cycle budget lands on a different stage key: a
        // miss (and a second cold run), never a cross-config splice.
        let obs = ObsCtx::new();
        let k3 = McConfig {
            cycles: 3,
            ..McConfig::default()
        };
        analyze_cached_with(&nl, &k3, &obs, &store).expect("k3");
        assert_eq!(obs.snapshot().counters.cache_misses, 1);
        assert_eq!(obs.snapshot().counters.cache_hits, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_verdicts_entry_is_refused_with_a_typed_error() {
        let dir = tempdir("corrupt");
        let store = CasStore::open(&dir).expect("open");
        let nl = circuits::fig1();
        let cfg = McConfig::default();
        analyze_cached_with(&nl, &cfg, &ObsCtx::new(), &store).expect("cold");
        let key = stage_key_for(crate::stage::STAGE_VERDICTS, nl.content_hash(), &cfg);
        let path = dir.join(format!("verdicts-{key:016x}.json"));
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, text.replace("multi", "singl")).expect("corrupt");
        match analyze_cached_with(&nl, &cfg, &ObsCtx::new(), &store) {
            Err(e @ AnalyzeError::CacheCorrupt { .. }) => {
                // The CLI prints this message; CI greps for its prefix.
                assert!(
                    e.to_string()
                        .starts_with("corrupt artifact store entry for stage `verdicts`"),
                    "{e}"
                );
            }
            other => panic!("expected CacheCorrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_runs_replay_across_thread_counts() {
        // A cache written sequentially must splice identically under any
        // verdict-neutral execution shape (the fingerprint ignores them).
        let dir = tempdir("shape");
        let store = CasStore::open(&dir).expect("open");
        let nl = suite::quick_suite().remove(0);
        let cold =
            analyze_cached_with(&nl, &McConfig::default(), &ObsCtx::new(), &store).expect("cold");
        for threads in [1usize, 2, 8] {
            let cfg = McConfig {
                threads,
                ..McConfig::default()
            };
            let obs = ObsCtx::new();
            let warm = analyze_cached_with(&nl, &cfg, &obs, &store).expect("warm");
            assert_eq!(canon(&warm), canon(&cold), "t={threads}");
            assert_eq!(obs.snapshot().counters.cache_hits, 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
