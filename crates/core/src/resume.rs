//! Checkpoint/resume from a run ledger (`analyze --resume`).
//!
//! A v2 ledger (see [`mcp_obs::RunHeader`]) is a durable checkpoint:
//! every engine verdict was flushed the moment it landed, so a run
//! killed mid-flight leaves behind exactly the pairs it completed. This
//! module validates that a ledger belongs to the run being restarted —
//! same format version, same netlist content, same verdict-affecting
//! config, same candidate pair set — and extracts its completed
//! verdicts, which [`VerdictSource::Ledger`](crate::VerdictSource)
//! splices into the pipeline so only the unresolved pairs reach the
//! pair loop.
//!
//! The resumed result is *byte-identical* to an uninterrupted run's
//! canonical report: verdicts are deterministic per pair, the sim
//! prefilter and lint gate re-run from the same seed and config, and
//! everything wall-clock-dependent is projected out by
//! [`McReport::canonical`](crate::McReport::canonical). Ledgers written
//! by the retired `shard` subcommand commit to the full candidate set
//! under the same digests, so they resume as partial ledgers: their
//! engine verdicts are spliced and every other pair is verified.

use crate::pipeline::{AnalyzeError, DigestKind, KnownVerdicts, RunIdentity};
use mcp_obs::{Ledger, LEDGER_VERSION};
use std::collections::{BTreeMap, BTreeSet};

/// Validates a resume ledger against the current run and returns its
/// restorable engine verdicts by pair.
///
/// Sim-prefilter and static events (no engine tag) are skipped — the
/// prefilters are deterministic and cheap, so the pipeline recomputes
/// them — as are span lines. Last write wins: duplicates only arise
/// from a ledger that was itself resumed, where the replayed and
/// original verdicts are identical.
///
/// # Errors
///
/// [`AnalyzeError::DigestMismatch`] when the netlist content hash or the
/// verdict-affecting config fingerprint disagrees (naming both digests);
/// [`AnalyzeError::ResumeMismatch`] when the ledger has no v2 header, a
/// different format version, a different candidate pair set (digest or
/// count), or a verdict outside the candidate set.
pub(crate) fn ledger_verdicts(
    ledger: &Ledger,
    id: &RunIdentity,
    candidates: &[(usize, usize)],
) -> Result<KnownVerdicts, AnalyzeError> {
    let mismatch = |reason: String| AnalyzeError::ResumeMismatch { reason };
    let header = ledger.header.as_ref().ok_or_else(|| {
        mismatch("no run header (pre-v2 journal, or the run died before writing one)".to_owned())
    })?;
    if header.ledger != LEDGER_VERSION {
        return Err(mismatch(format!(
            "ledger format v{} (this build reads v{LEDGER_VERSION})",
            header.ledger
        )));
    }
    if header.netlist_hash != id.netlist_hash {
        return Err(AnalyzeError::DigestMismatch {
            what: DigestKind::Netlist,
            ledger: header.netlist_hash,
            current: id.netlist_hash,
        });
    }
    if header.config_fingerprint != id.fingerprint {
        return Err(AnalyzeError::DigestMismatch {
            what: DigestKind::Config,
            ledger: header.config_fingerprint,
            current: id.fingerprint,
        });
    }
    let candidates: BTreeSet<(usize, usize)> = candidates.iter().copied().collect();
    if header.pair_digest != id.pair_digest || header.pairs != candidates.len() as u64 {
        return Err(mismatch(format!(
            "candidate pair set mismatch: ledger committed to {} pairs (digest {:016x}), \
             this run has {} (digest {:016x})",
            header.pairs,
            header.pair_digest,
            candidates.len(),
            id.pair_digest
        )));
    }
    let mut verdicts = BTreeMap::new();
    for event in ledger.events.iter().filter(|e| e.engine.is_some()) {
        let pair = (event.src, event.dst);
        if !candidates.contains(&pair) {
            return Err(mismatch(format!(
                "ledger carries a verdict for pair ({}, {}) outside the candidate set",
                event.src, event.dst
            )));
        }
        verdicts.insert(pair, event.clone());
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use crate::config::McConfig;
    use crate::pipeline::{analyze_from, analyze_with, Analysis, AnalyzeError, DigestKind};
    use crate::VerdictSource;
    use mcp_gen::{circuits, suite};
    use mcp_netlist::Netlist;
    use mcp_obs::{Ledger, MemSink, ObsCtx, LEDGER_VERSION};
    use std::sync::Arc;

    /// Runs `analyze_with` while capturing its ledger through a shared
    /// `MemSink`, returning the canonical report JSON and the ledger.
    fn run_with_ledger(nl: &Netlist, cfg: &McConfig) -> (String, Ledger) {
        let sink = Arc::new(MemSink::new());
        let obs = ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
        let report = analyze_with(nl, cfg, &obs).expect("analyze");
        let canonical = serde_json::to_string(&report.canonical()).expect("serialize");
        let ledger = Ledger {
            header: sink.take_header(),
            spans: sink.drain_spans(),
            events: sink.drain(),
        };
        (canonical, ledger)
    }

    /// Resumes from `ledger` on a silent context.
    fn resume(nl: &Netlist, cfg: &McConfig, ledger: &Ledger) -> Result<Analysis, AnalyzeError> {
        analyze_from(nl, cfg, &ObsCtx::new(), VerdictSource::Ledger(ledger))
    }

    #[test]
    fn resume_from_a_complete_ledger_reverifies_nothing() {
        let nl = circuits::fig1();
        let cfg = McConfig::default();
        let (baseline, ledger) = run_with_ledger(&nl, &cfg);
        assert!(ledger.header.is_some(), "run must write a header");
        let engine_verdicts = ledger.events.iter().filter(|e| e.engine.is_some()).count();
        assert!(engine_verdicts > 0, "fig1 resolves pairs via the engines");

        let obs = ObsCtx::new();
        let resumed = analyze_from(&nl, &cfg, &obs, VerdictSource::Ledger(&ledger))
            .expect("resume")
            .report;
        assert_eq!(
            serde_json::to_string(&resumed.canonical()).expect("serialize"),
            baseline,
            "resumed report must be byte-identical"
        );
        let c = obs.snapshot().counters;
        assert_eq!(c.resume_pairs_loaded, engine_verdicts as u64);
        assert_eq!(c.implications, 0, "no engine re-runs on a full resume");
        assert_eq!(c.atpg_decisions, 0);
        assert_eq!(c.atpg_backtracks, 0);
    }

    #[test]
    fn resume_from_a_truncated_ledger_is_byte_identical() {
        let nl = suite::quick_suite().remove(0);
        let cfg = McConfig::default();
        let (baseline, mut ledger) = run_with_ledger(&nl, &cfg);
        let engine_total = ledger.events.iter().filter(|e| e.engine.is_some()).count();
        assert!(engine_total > 1, "need enough verdicts to truncate");
        // A SIGKILL mid-run leaves the header plus a prefix of the
        // events; model it by dropping the back half.
        ledger.events.truncate(ledger.events.len() / 2);
        let kept = ledger.events.iter().filter(|e| e.engine.is_some()).count();

        // Capture the resumed run's own ledger too: replayed verdicts
        // must be re-recorded (marked resumed) so it is itself complete.
        let sink = Arc::new(MemSink::new());
        let obs = ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
        let resumed = analyze_from(&nl, &cfg, &obs, VerdictSource::Ledger(&ledger))
            .expect("resume")
            .report;
        assert_eq!(
            serde_json::to_string(&resumed.canonical()).expect("serialize"),
            baseline,
            "partial resume must converge to the uninterrupted report"
        );
        assert_eq!(obs.snapshot().counters.resume_pairs_loaded, kept as u64);
        let replayed = sink.drain();
        assert_eq!(
            replayed.iter().filter(|e| e.engine.is_some()).count(),
            engine_total,
            "resumed ledger must carry every engine verdict (replayed + new)"
        );
        assert_eq!(replayed.iter().filter(|e| e.resumed).count(), kept);
    }

    #[test]
    fn resume_rejects_headerless_ledgers() {
        let nl = circuits::fig1();
        let cfg = McConfig::default();
        let err = resume(&nl, &cfg, &Ledger::default()).unwrap_err();
        assert!(err.to_string().contains("no run header"), "{err}");
    }

    #[test]
    fn resume_rejects_version_netlist_and_config_drift() {
        let nl = circuits::fig1();
        let cfg = McConfig::default();
        let (_, ledger) = run_with_ledger(&nl, &cfg);

        // Foreign format version.
        let mut wrong_version = ledger.clone();
        wrong_version.header.as_mut().unwrap().ledger = LEDGER_VERSION + 1;
        let err = resume(&nl, &cfg, &wrong_version).unwrap_err();
        assert!(err.to_string().contains("format"), "{err}");

        // Different circuit: the dedicated variant names both digests.
        let other = circuits::fig4_fragment();
        let err = resume(&other, &cfg, &ledger).unwrap_err();
        assert_eq!(
            err,
            AnalyzeError::DigestMismatch {
                what: DigestKind::Netlist,
                ledger: nl.content_hash(),
                current: other.content_hash(),
            }
        );
        assert!(err.to_string().contains("netlist mismatch"), "{err}");
        assert!(
            err.to_string()
                .contains(&format!("{:016x}", nl.content_hash())),
            "error must name the ledger digest: {err}"
        );
        assert!(
            err.to_string()
                .contains(&format!("{:016x}", other.content_hash())),
            "error must name the current digest: {err}"
        );

        // Verdict-affecting config change: same story for fingerprints.
        let mut recfg = cfg.clone();
        recfg.cycles = 3;
        let err = resume(&nl, &recfg, &ledger).unwrap_err();
        assert_eq!(
            err,
            AnalyzeError::DigestMismatch {
                what: DigestKind::Config,
                ledger: cfg.fingerprint(),
                current: recfg.fingerprint(),
            }
        );
        assert!(err.to_string().contains("config mismatch"), "{err}");
        assert!(
            err.to_string()
                .contains(&format!("{:016x}", recfg.fingerprint())),
            "error must name the current fingerprint: {err}"
        );

        // Verdict-neutral config change still resumes.
        let mut neutral = cfg.clone();
        neutral.threads = 2;
        neutral.slice = !neutral.slice;
        neutral.static_classify = !neutral.static_classify;
        assert!(resume(&nl, &neutral, &ledger).is_ok());
    }

    #[test]
    fn resume_rejects_verdicts_outside_the_candidate_set() {
        let nl = circuits::fig1();
        let cfg = McConfig::default();
        let (_, mut ledger) = run_with_ledger(&nl, &cfg);
        let mut rogue = ledger
            .events
            .iter()
            .find(|e| e.engine.is_some())
            .expect("engine verdict")
            .clone();
        rogue.src = 9_999;
        ledger.events.push(rogue);
        let err = resume(&nl, &cfg, &ledger).unwrap_err();
        assert!(
            err.to_string().contains("outside the candidate set"),
            "{err}"
        );
    }
}
