//! Sharded multi-process verification: the crash-safe ledger merge.
//!
//! The pair set is embarrassingly distributable — every verdict is
//! per-pair deterministic — so a run can be split over N independent
//! OS processes, each journaling its own ledger-v2 file, and merged
//! back into *the* canonical report. Three properties make the merge
//! sound, all pinned by the test suite:
//!
//! - **Deterministic ownership.** The pipeline partitions the plan of
//!   all prefiltered survivors sink-group-whole via greedy LPT over the
//!   deterministic hardest-first group order
//!   (`stage::assign_shards`). Every process — each shard, a resume of
//!   a killed shard, and the merge — derives the identical partition
//!   from the netlist and config alone, so ownership never depends on
//!   which shards happen to have run.
//! - **Digest-checked identity.** Every shard header carries the
//!   netlist/config/pair-set digests plus its shard coordinates and the
//!   parent [run digest](mcp_obs::run_digest). A merge refuses missing,
//!   duplicate, foreign, or incomplete shards with typed
//!   [`AnalyzeError`]s instead of producing a silently short report.
//! - **Merge is resume-from-union.** [`VerdictSource::Shards`] feeds
//!   the union of the shards' engine verdicts to the ordinary pipeline,
//!   which re-runs the deterministic prefilters, restores every
//!   surviving pair's verdict, and leaves the engines nothing to do.
//!   The merged canonical report is byte-identical to a single-process
//!   `--threads 1` run because it *is* that run, with the engine work
//!   pre-supplied.
//!
//! [`VerdictSource::Shards`]: crate::VerdictSource::Shards

use crate::pipeline::{AnalyzeError, KnownVerdicts, RunIdentity};
use crate::resume::{check_run_header, engine_verdicts};
use mcp_obs::Ledger;
use std::collections::{BTreeMap, BTreeSet};

/// Validates the ledgers of one sharded run and returns each shard's
/// engine verdicts, indexed by shard.
///
/// Every ledger must carry a v2 header whose netlist/config/pair
/// digests match the current run and whose recorded run digest is
/// self-consistent; the shard counts must agree and the indices form
/// exactly `{0, …, count-1}` (no shard missing, duplicated, or out of
/// range); and every engine verdict must be a candidate pair.
///
/// # Errors
///
/// [`AnalyzeError::ShardMerge`] for structural unsoundness and
/// [`AnalyzeError::DigestMismatch`] for netlist/config drift.
pub(crate) fn shard_verdicts(
    ledgers: &[Ledger],
    id: &RunIdentity,
    candidates: &[(usize, usize)],
) -> Result<Vec<KnownVerdicts>, AnalyzeError> {
    let merge_err = |reason: String| AnalyzeError::ShardMerge { reason };
    if ledgers.is_empty() {
        return Err(merge_err("no shard ledgers given".to_owned()));
    }
    let candidates: BTreeSet<(usize, usize)> = candidates.iter().copied().collect();
    let mut count = 0u64;
    let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
    for (k, ledger) in ledgers.iter().enumerate() {
        let header = check_run_header(ledger.header.as_ref(), id, &candidates, |r| {
            merge_err(format!("ledger #{k}: {r}"))
        })?;
        if header.run_digest != header.expected_run_digest() {
            return Err(merge_err(format!(
                "ledger #{k} records run digest {:016x} but its identity fields imply \
                 {:016x} — a foreign or doctored journal",
                header.run_digest,
                header.expected_run_digest()
            )));
        }
        if header.shard_count == 0 {
            return Err(merge_err(format!(
                "ledger #{k} is not a shard ledger (it was written by an unsharded run, \
                 which already is the full report)"
            )));
        }
        if count == 0 {
            count = header.shard_count;
        } else if header.shard_count != count {
            return Err(merge_err(format!(
                "shard count disagreement: ledger #{k} says {} shards, earlier ledgers \
                 say {count}",
                header.shard_count
            )));
        }
        if header.shard_index >= header.shard_count {
            return Err(merge_err(format!(
                "ledger #{k} claims shard {}/{}, which is out of range",
                header.shard_index, header.shard_count
            )));
        }
        if let Some(prev) = seen.insert(header.shard_index, k) {
            return Err(merge_err(format!(
                "duplicate shard {}/{count} (ledgers #{prev} and #{k})",
                header.shard_index
            )));
        }
    }
    if seen.len() as u64 != count {
        let missing: Vec<String> = (0..count)
            .filter(|i| !seen.contains_key(i))
            .map(|i| i.to_string())
            .collect();
        return Err(merge_err(format!(
            "missing shard(s) {} of {count}",
            missing.join(", ")
        )));
    }
    // `seen` iterates in shard-index order, which is the order returned.
    seen.into_iter()
        .map(|(index, k)| {
            engine_verdicts(&ledgers[k], &candidates, |r| {
                merge_err(format!("shard {index} carries {r}"))
            })
        })
        .collect()
}

/// Unions the shards' verdicts under the run's partition `owners`
/// (pair sets by shard index, from the one plan).
///
/// A verdict owned by another shard is refused: the ledgers come from
/// a different partition. A verdict no shard owns is skipped: this
/// run's prefilters resolve that pair themselves (e.g. the shards ran
/// with `--no-static-classify` and the merge without it), so it is
/// recomputed, exactly as prefilter events are on resume.
///
/// # Errors
///
/// [`AnalyzeError::ShardMerge`] for a verdict owned by another shard,
/// [`AnalyzeError::ShardIncomplete`] for a shard killed before
/// finishing (resume it, then merge again).
pub(crate) fn owned_verdicts(
    shards: Vec<KnownVerdicts>,
    owners: &[Vec<(usize, usize)>],
) -> Result<KnownVerdicts, AnalyzeError> {
    let owner_of: BTreeMap<(usize, usize), usize> = owners
        .iter()
        .enumerate()
        .flat_map(|(s, pairs)| pairs.iter().map(move |&p| (p, s)))
        .collect();
    let mut union = BTreeMap::new();
    for (index, verdicts) in shards.into_iter().enumerate() {
        for (pair, event) in verdicts {
            match owner_of.get(&pair) {
                Some(&owner) if owner == index => {
                    union.insert(pair, event);
                }
                Some(&owner) => {
                    return Err(AnalyzeError::ShardMerge {
                        reason: format!(
                            "shard {index} carries a verdict for pair ({}, {}), which is \
                             owned by shard {owner} — ledgers from different partitions \
                             cannot be merged",
                            pair.0, pair.1
                        ),
                    });
                }
                None => {}
            }
        }
        let missing = owners[index]
            .iter()
            .filter(|p| !union.contains_key(p))
            .count();
        if missing > 0 {
            return Err(AnalyzeError::ShardIncomplete {
                index: index as u64,
                missing,
            });
        }
    }
    Ok(union)
}

#[cfg(test)]
mod tests {
    use crate::config::{McConfig, ShardSpec};
    use crate::pipeline::{analyze_from, analyze_with, AnalyzeError, DigestKind};
    use crate::report::McReport;
    use crate::VerdictSource;
    use mcp_gen::{circuits, generators, suite};
    use mcp_netlist::Netlist;
    use mcp_obs::{Ledger, MemSink, ObsCtx};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn capture(nl: &Netlist, cfg: &McConfig) -> (McReport, Ledger) {
        let sink = Arc::new(MemSink::new());
        let obs = ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
        let report = analyze_with(nl, cfg, &obs).expect("analyze");
        let ledger = Ledger {
            header: sink.take_header(),
            spans: sink.drain_spans(),
            events: sink.drain(),
        };
        (report, ledger)
    }

    fn shard_ledgers(nl: &Netlist, cfg: &McConfig, count: u64) -> Vec<Ledger> {
        (0..count)
            .map(|index| {
                let mut shard_cfg = cfg.clone();
                shard_cfg.shard = Some(ShardSpec { index, count });
                capture(nl, &shard_cfg).1
            })
            .collect()
    }

    /// Merges `ledgers` on a silent context.
    fn merge(nl: &Netlist, cfg: &McConfig, ledgers: &[Ledger]) -> Result<McReport, AnalyzeError> {
        analyze_from(nl, cfg, &ObsCtx::new(), VerdictSource::Shards(ledgers)).map(|a| a.report)
    }

    /// The pairs each shard verified: its ledger's engine-tagged events.
    fn owned(ledgers: &[Ledger]) -> Vec<BTreeSet<(usize, usize)>> {
        ledgers
            .iter()
            .map(|l| {
                l.events
                    .iter()
                    .filter(|e| e.engine.is_some())
                    .map(|e| (e.src, e.dst))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn partition_is_disjoint_complete_and_deterministic() {
        let nl = suite::quick_suite().remove(1);
        let cfg = McConfig::default();
        let (_, whole) = capture(&nl, &cfg);
        let survivors = owned(std::slice::from_ref(&whole)).remove(0);
        for count in [1u64, 2, 4, 7] {
            let plan = owned(&shard_ledgers(&nl, &cfg, count));
            assert_eq!(plan.len() as u64, count);
            let again = owned(&shard_ledgers(&nl, &cfg, count));
            assert_eq!(plan, again, "partition must be stable");
            // Disjoint and covering: the union has no duplicates and
            // is exactly the unsharded run's engine work.
            let mut all: Vec<(usize, usize)> = plan.iter().flatten().copied().collect();
            let total = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), total, "shards must be disjoint");
            assert_eq!(all, survivors.iter().copied().collect::<Vec<_>>());
        }
        // Different counts really partition differently (not all-in-one).
        let plan = owned(&shard_ledgers(&nl, &cfg, 4));
        if survivors.len() >= 4 {
            assert!(
                plan.iter().filter(|s| !s.is_empty()).count() > 1,
                "LPT must spread non-trivial work over shards"
            );
        }
        let zero = McConfig {
            shard: Some(ShardSpec { index: 0, count: 0 }),
            ..cfg
        };
        assert!(analyze_with(&nl, &zero, &ObsCtx::new()).is_err());
    }

    #[test]
    fn merging_shards_reproduces_the_single_process_report() {
        let nl = suite::quick_suite().remove(1);
        let cfg = McConfig::default();
        let (baseline, _) = capture(&nl, &cfg);
        let canonical = serde_json::to_string(&baseline.canonical()).expect("serialize");
        for count in [1u64, 2, 4, 7] {
            let ledgers = shard_ledgers(&nl, &cfg, count);
            // Every shard header carries its coordinates and run digest.
            for (i, l) in ledgers.iter().enumerate() {
                let h = l.header.as_ref().expect("header");
                assert_eq!((h.shard_index, h.shard_count), (i as u64, count));
                assert_eq!(h.run_digest, h.expected_run_digest());
            }
            let merged = merge(&nl, &cfg, &ledgers).expect("merge");
            assert_eq!(
                serde_json::to_string(&merged.canonical()).expect("serialize"),
                canonical,
                "{count}-shard merge must be byte-identical to one process"
            );
        }
    }

    #[test]
    fn merge_refuses_missing_duplicate_and_foreign_shards() {
        let nl = circuits::fig1();
        let cfg = McConfig::default();
        let ledgers = shard_ledgers(&nl, &cfg, 2);

        let err = merge(&nl, &cfg, &[]).unwrap_err();
        assert!(matches!(err, AnalyzeError::ShardMerge { .. }), "{err}");

        let err = merge(&nl, &cfg, &ledgers[..1]).unwrap_err();
        assert!(err.to_string().contains("missing shard"), "{err}");

        let dup = vec![ledgers[0].clone(), ledgers[0].clone()];
        let err = merge(&nl, &cfg, &dup).unwrap_err();
        assert!(err.to_string().contains("duplicate shard"), "{err}");

        // An unsharded ledger is not mergeable.
        let (_, unsharded) = capture(&nl, &cfg);
        let err = merge(&nl, &cfg, &[unsharded]).unwrap_err();
        assert!(err.to_string().contains("not a shard ledger"), "{err}");

        // A doctored run digest is caught even when everything else fits.
        let mut doctored = ledgers.clone();
        doctored[1].header.as_mut().unwrap().run_digest ^= 1;
        let err = merge(&nl, &cfg, &doctored).unwrap_err();
        assert!(err.to_string().contains("run digest"), "{err}");

        // A different circuit's shards refuse with the typed digest error.
        let other = circuits::fig4_fragment();
        let err = merge(&other, &cfg, &ledgers).unwrap_err();
        assert!(
            matches!(
                err,
                AnalyzeError::DigestMismatch {
                    what: DigestKind::Netlist,
                    ..
                }
            ),
            "{err}"
        );

        // A config change likewise.
        let mut recfg = cfg.clone();
        recfg.cycles = 3;
        let err = merge(&nl, &recfg, &ledgers).unwrap_err();
        assert!(
            matches!(
                err,
                AnalyzeError::DigestMismatch {
                    what: DigestKind::Config,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn merge_refuses_an_incomplete_shard_and_accepts_its_resumed_ledger() {
        let nl = suite::quick_suite().remove(1);
        let cfg = McConfig::default();
        let mut ledgers = shard_ledgers(&nl, &cfg, 2);

        // Kill shard 1 retroactively: drop its last engine verdict.
        let full = ledgers[1].clone();
        let last_engine = ledgers[1]
            .events
            .iter()
            .rposition(|e| e.engine.is_some())
            .expect("shard 1 has engine verdicts");
        ledgers[1].events.truncate(last_engine);
        let err = merge(&nl, &cfg, &ledgers).unwrap_err();
        match err {
            AnalyzeError::ShardIncomplete { index, missing } => {
                assert_eq!(index, 1);
                assert!(missing >= 1);
            }
            other => panic!("expected ShardIncomplete, got {other}"),
        }

        // Resume the killed shard from its truncated ledger, then merge.
        let truncated = ledgers[1].clone();
        let mut shard_cfg = cfg.clone();
        shard_cfg.shard = Some(ShardSpec { index: 1, count: 2 });
        let sink = Arc::new(MemSink::new());
        let obs = ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
        analyze_from(&nl, &shard_cfg, &obs, VerdictSource::Ledger(&truncated)).expect("resume");
        ledgers[1] = Ledger {
            header: sink.take_header(),
            spans: sink.drain_spans(),
            events: sink.drain(),
        };
        let merged = merge(&nl, &cfg, &ledgers).expect("merge after resume");

        // Identical to the merge of the never-killed ledgers.
        ledgers[1] = full;
        let clean = merge(&nl, &cfg, &ledgers).expect("clean merge");
        assert_eq!(
            serde_json::to_string(&merged.canonical()).unwrap(),
            serde_json::to_string(&clean.canonical()).unwrap()
        );
    }

    #[test]
    fn merge_across_a_static_classify_mismatch_is_exact_or_refused() {
        // `static_classify` is fingerprint-neutral, so shards and merge
        // may disagree on it. Pairs the merge's pre-pass resolves are
        // simply not spliced; pairs only the merge sends to the engines
        // have no shard verdict and refuse the merge.
        let nl = generators::frozen_sink_demo(4);
        let on = McConfig::default();
        let off = McConfig {
            static_classify: false,
            ..McConfig::default()
        };
        let cold =
            serde_json::to_string(&analyze_with(&nl, &on, &ObsCtx::new()).unwrap().canonical())
                .expect("serialize");

        let merged = merge(&nl, &on, &shard_ledgers(&nl, &off, 2)).expect("merge");
        assert_eq!(
            serde_json::to_string(&merged.canonical()).expect("serialize"),
            cold,
            "shards without the pre-pass must merge to the cold report"
        );

        let err = merge(&nl, &off, &shard_ledgers(&nl, &on, 2)).unwrap_err();
        assert!(
            matches!(
                err,
                AnalyzeError::ShardMerge { .. } | AnalyzeError::ShardIncomplete { .. }
            ),
            "{err}"
        );
    }
}
