//! Relaxed atomic engine counters and their serializable snapshots.

use crate::trace::SpanStat;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One relaxed atomic counter.
///
/// Relaxed ordering is deliberate: counters are statistics, each update
/// is a single atomic RMW, and no other memory is published through
/// them.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raises the counter to `n` if it is currently lower (for peak
    /// gauges like the BDD unique-table size).
    pub fn raise_to(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared live counters for every engine in the pipeline.
///
/// The pipeline flushes per-pair deltas in here from worker threads;
/// [`Metrics::counters`] takes the plain-integer snapshot.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Implication engine: definite values derived by propagation.
    pub implications: Counter,
    /// Implication engine: propagations that ended in a contradiction.
    pub contradictions: Counter,
    /// Implication engine: learned implications added by static learning.
    pub learned_implications: Counter,
    /// ATPG: decisions taken by the backtrack search.
    pub atpg_decisions: Counter,
    /// ATPG: backtracks performed.
    pub atpg_backtracks: Counter,
    /// ATPG: searches that hit the backtrack limit and aborted.
    pub atpg_aborts: Counter,
    /// SAT: decisions.
    pub sat_decisions: Counter,
    /// SAT: unit propagations.
    pub sat_propagations: Counter,
    /// SAT: conflicts.
    pub sat_conflicts: Counter,
    /// SAT: clauses learned from conflicts.
    pub sat_learned: Counter,
    /// SAT: restarts.
    pub sat_restarts: Counter,
    /// BDD: peak unique-table size over all per-pair managers.
    pub bdd_peak_nodes: Counter,
    /// BDD: apply/ITE cache lookups.
    pub bdd_cache_lookups: Counter,
    /// BDD: apply/ITE cache hits.
    pub bdd_cache_hits: Counter,
    /// Random simulation: 64-pattern words simulated.
    pub sim_words: Counter,
    /// Random simulation: candidate pairs dropped by the prefilter.
    pub sim_pairs_dropped: Counter,
    /// Random simulation: wide evaluation passes of the compiled kernel
    /// (each pass covers `lanes / 64` words).
    pub sim_passes: Counter,
    /// Random simulation: fused instructions executed (after NOT fusion
    /// and dead-slot elimination): instructions per eval × evals.
    pub sim_fused_ops: Counter,
    /// JIT kernel: bytes of machine code emitted.
    pub jit_bytes: Counter,
    /// Dataflow: nodes the ternary interpreter proved constant at its
    /// first iterate (every FF output X), the only constants the static
    /// pre-classification may use.
    pub dataflow_consts: Counter,
    /// Dataflow: Kleene rounds the FF widening needed to converge.
    pub dataflow_iters: Counter,
    /// Static pre-classification: candidate pairs resolved by the
    /// dataflow pass before any engine or the sim prefilter ran.
    pub static_resolved: Counter,
    /// Slicing: cone slices built (one per sink group in slice mode).
    pub slice_builds: Counter,
    /// Slicing: pairs served by an already-built sink-group slice
    /// (group size minus one, summed over groups).
    pub slice_cache_hits: Counter,
    /// Slicing: total nodes across all built slices (mean slice size =
    /// `slice_nodes / slice_builds`).
    pub slice_nodes: Counter,
    /// Slicing: total per-slice variables across all built slices — free
    /// variables for the implication engine, encoded CNF variables for
    /// the SAT engine.
    pub slice_vars: Counter,
    /// Slicing: largest slice built (node count).
    pub slice_nodes_peak: Counter,
    /// Resume: completed verdicts restored from a prior run's ledger
    /// instead of being re-verified. Zero on an uninterrupted run.
    pub resume_pairs_loaded: Counter,
    /// Artifact cache: store lookups that found a usable entry.
    pub cache_hits: Counter,
    /// Artifact cache: store lookups that found nothing (cold runs).
    pub cache_misses: Counter,
    /// Artifact cache: cached verdicts discarded because a netlist delta
    /// dirtied their sink group (ECO re-analysis). Zero on warm reruns.
    pub cache_invalidations: Counter,
    /// Artifact cache: engine verdicts answered from the store instead
    /// of being re-verified (warm reruns and clean ECO groups).
    pub cache_pairs_spliced: Counter,
    /// ECO re-analysis: sink groups whose cone intersected the netlist
    /// delta and were re-verified from scratch.
    pub eco_groups_reverified: Counter,
    /// ECO re-analysis: sink groups untouched by the netlist delta whose
    /// verdicts were spliced from the store.
    pub eco_groups_spliced: Counter,
}

impl Metrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plain-integer snapshot of every counter.
    pub fn counters(&self) -> Counters {
        Counters {
            implications: self.implications.get(),
            contradictions: self.contradictions.get(),
            learned_implications: self.learned_implications.get(),
            atpg_decisions: self.atpg_decisions.get(),
            atpg_backtracks: self.atpg_backtracks.get(),
            atpg_aborts: self.atpg_aborts.get(),
            sat_decisions: self.sat_decisions.get(),
            sat_propagations: self.sat_propagations.get(),
            sat_conflicts: self.sat_conflicts.get(),
            sat_learned: self.sat_learned.get(),
            sat_restarts: self.sat_restarts.get(),
            bdd_peak_nodes: self.bdd_peak_nodes.get(),
            bdd_cache_lookups: self.bdd_cache_lookups.get(),
            bdd_cache_hits: self.bdd_cache_hits.get(),
            sim_words: self.sim_words.get(),
            sim_pairs_dropped: self.sim_pairs_dropped.get(),
            sim_passes: self.sim_passes.get(),
            sim_fused_ops: self.sim_fused_ops.get(),
            jit_bytes: self.jit_bytes.get(),
            dataflow_consts: self.dataflow_consts.get(),
            dataflow_iters: self.dataflow_iters.get(),
            static_resolved: self.static_resolved.get(),
            slice_builds: self.slice_builds.get(),
            slice_cache_hits: self.slice_cache_hits.get(),
            slice_nodes: self.slice_nodes.get(),
            slice_vars: self.slice_vars.get(),
            slice_nodes_peak: self.slice_nodes_peak.get(),
            resume_pairs_loaded: self.resume_pairs_loaded.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_invalidations: self.cache_invalidations.get(),
            cache_pairs_spliced: self.cache_pairs_spliced.get(),
            eco_groups_reverified: self.eco_groups_reverified.get(),
            eco_groups_spliced: self.eco_groups_spliced.get(),
        }
    }
}

/// Serializable snapshot of [`Metrics`] — same fields, plain `u64`s.
///
/// Counter totals are sums of deterministic per-pair deltas, so two
/// runs with the same seed and config produce identical `Counters`
/// regardless of worker scheduling (span *timings* do not share this
/// property, which is why they live outside this struct).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // field meanings documented on `Metrics`
pub struct Counters {
    pub implications: u64,
    pub contradictions: u64,
    pub learned_implications: u64,
    pub atpg_decisions: u64,
    pub atpg_backtracks: u64,
    pub atpg_aborts: u64,
    pub sat_decisions: u64,
    pub sat_propagations: u64,
    pub sat_conflicts: u64,
    pub sat_learned: u64,
    pub sat_restarts: u64,
    pub bdd_peak_nodes: u64,
    pub bdd_cache_lookups: u64,
    pub bdd_cache_hits: u64,
    pub sim_words: u64,
    pub sim_pairs_dropped: u64,
    // Compiled-kernel counters arrived after the first report format;
    // `default` keeps old saved reports parseable, and the decoder
    // skips the keys of retired counters those reports may carry.
    #[serde(default)]
    pub sim_passes: u64,
    #[serde(default)]
    pub sim_fused_ops: u64,
    #[serde(default)]
    pub jit_bytes: u64,
    // Dataflow-analysis counters arrived with the static pre-pass;
    // `default` keeps old saved reports parseable.
    #[serde(default)]
    pub dataflow_consts: u64,
    #[serde(default)]
    pub dataflow_iters: u64,
    #[serde(default)]
    pub static_resolved: u64,
    // Slice counters arrived after the first journal/report format;
    // `default` keeps old saved reports parseable.
    #[serde(default)]
    pub slice_builds: u64,
    #[serde(default)]
    pub slice_cache_hits: u64,
    #[serde(default)]
    pub slice_nodes: u64,
    #[serde(default)]
    pub slice_vars: u64,
    #[serde(default)]
    pub slice_nodes_peak: u64,
    // Resume support (ledger format 2) arrived after the slice fields.
    #[serde(default)]
    pub resume_pairs_loaded: u64,
    // Cache/ECO counters arrived with the staged artifact store.
    #[serde(default)]
    pub cache_hits: u64,
    #[serde(default)]
    pub cache_misses: u64,
    #[serde(default)]
    pub cache_invalidations: u64,
    #[serde(default)]
    pub cache_pairs_spliced: u64,
    #[serde(default)]
    pub eco_groups_reverified: u64,
    #[serde(default)]
    pub eco_groups_spliced: u64,
}

impl Counters {
    /// Fraction of BDD cache lookups that hit, or 0.0 with no lookups.
    pub fn bdd_cache_hit_rate(&self) -> f64 {
        if self.bdd_cache_lookups == 0 {
            0.0
        } else {
            self.bdd_cache_hits as f64 / self.bdd_cache_lookups as f64
        }
    }

    /// Mean node count of built slices, or 0.0 when no slice was built.
    pub fn slice_nodes_mean(&self) -> f64 {
        if self.slice_builds == 0 {
            0.0
        } else {
            self.slice_nodes as f64 / self.slice_builds as f64
        }
    }

    /// Mean per-slice variable count, or 0.0 when no slice was built.
    pub fn slice_vars_mean(&self) -> f64 {
        if self.slice_builds == 0 {
            0.0
        } else {
            self.slice_vars as f64 / self.slice_builds as f64
        }
    }
}

/// Full observability snapshot: counters plus span timings.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Engine counters (deterministic for a fixed seed/config).
    pub counters: Counters,
    /// Span totals by path, from the run's span log (wall-clock, not
    /// deterministic).
    pub spans: BTreeMap<String, SpanStat>,
}

impl MetricsSnapshot {
    /// No counter moved and no span was recorded: the snapshot of a
    /// canonical report, which its JSON leaves out.
    pub fn is_empty(&self) -> bool {
        self.counters == Counters::default() && self.spans.is_empty()
    }

    /// Random-simulation throughput: 64-pattern words per wall-clock
    /// second of the `analyze/sim` span, or 0.0 when no sim time was
    /// recorded. Wall-clock-derived, so (unlike the counters) not
    /// deterministic across runs.
    pub fn sim_words_per_sec(&self) -> f64 {
        let secs = self
            .spans
            .get("analyze/sim")
            .map_or(0.0, |s| s.total.as_secs_f64());
        if secs > 0.0 {
            self.counters.sim_words as f64 / secs
        } else {
            0.0
        }
    }
}
