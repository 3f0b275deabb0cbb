//! Analysis results and per-step statistics.

use crate::engines::Verdict;
use mcp_obs::{MetricsSnapshot, PairEvent};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The analysis step that settled a pair's classification — the paper's
/// Table 2 attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Step {
    /// Step 1: no combinational path exists (only possible for pairs never
    /// in the candidate set; present for completeness of reports).
    Structural,
    /// Step 2: random-pattern simulation found a concrete violation.
    RandomSim,
    /// Step 4 (implication): the implication procedure alone decided every
    /// assignment.
    Implication,
    /// Step 4 (search): at least one assignment needed the backtrack
    /// search (or, for the baseline engines, the SAT/BDD query).
    Atpg,
}

/// Classification of one FF pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairClass {
    /// A violating pattern exists (or was simulated): some path must make
    /// the hop in a single cycle.
    SingleCycle {
        /// The step that found the violation.
        by: Step,
    },
    /// Proven: whenever the source transitions, the sink provably holds
    /// through the configured cycle budget.
    MultiCycle {
        /// The step that completed the proof.
        by: Step,
    },
    /// The engine gave up within its resource limits (backtrack limit, BDD
    /// node budget). Treat as single-cycle for timing safety.
    Unknown,
}

impl PairClass {
    /// Whether this pair is proven multi-cycle.
    pub fn is_multi(&self) -> bool {
        matches!(self, PairClass::MultiCycle { .. })
    }

    /// The journal's `(step, class)` names of this verdict, as ledgers
    /// and the store's `Verdicts` artifact spell them. An `Unknown` is
    /// billed to the search (`atpg`), the step that gave up.
    pub(crate) fn tags(self) -> (&'static str, &'static str) {
        let step = |by| match by {
            Step::Structural => "structural",
            Step::RandomSim => "random_sim",
            Step::Implication => "implication",
            Step::Atpg => "atpg",
        };
        match self {
            PairClass::MultiCycle { by } => (step(by), "multi"),
            PairClass::SingleCycle { by } => (step(by), "single"),
            PairClass::Unknown => ("atpg", "unknown"),
        }
    }

    /// The inverse of [`tags`](Self::tags): an unrecognized step reads as
    /// `atpg`, an unrecognized class as `unknown`.
    pub(crate) fn from_tags(step: &str, class: &str) -> PairClass {
        let by = match step {
            "structural" => Step::Structural,
            "random_sim" => Step::RandomSim,
            "implication" => Step::Implication,
            _ => Step::Atpg,
        };
        match class {
            "multi" => PairClass::MultiCycle { by },
            "single" => PairClass::SingleCycle { by },
            _ => PairClass::Unknown,
        }
    }
}

impl From<Verdict> for PairClass {
    fn from(v: Verdict) -> PairClass {
        match v {
            Verdict::Multi { by } => PairClass::MultiCycle { by },
            Verdict::Single { by } => PairClass::SingleCycle { by },
            Verdict::Unknown => PairClass::Unknown,
        }
    }
}

/// The kernel that ran the random-pattern prefilter, recorded in
/// [`StepStats::sim_kernel`] and the `stats` table. The host decides it:
/// native AVX2 code where the JIT targets the host, the fused
/// interpreter elsewhere. `JitScalar`, `Tape` and `Reference` are never
/// produced any more; they stay decodable so reports saved by older
/// binaries, which could run those kernels, still load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimKernelTier {
    /// Native code from the AVX2 emitter.
    JitAvx2,
    /// Native code from the retired scalar-`u64` emitter (older reports
    /// only).
    JitScalar,
    /// The fused-tape interpreter.
    Fused,
    /// The unfused tape interpreter (older reports only).
    Tape,
    /// The graph-walking 64-lane reference simulator (older reports
    /// only).
    Reference,
}

impl SimKernelTier {
    /// Maps a `FilterStats::kernel` tag to the tier, `None` for an
    /// unrecognized tag (future tiers in old binaries).
    pub fn from_tag(tag: &str) -> Option<SimKernelTier> {
        match tag {
            "jit-avx2" => Some(SimKernelTier::JitAvx2),
            "jit-scalar" => Some(SimKernelTier::JitScalar),
            "fused" => Some(SimKernelTier::Fused),
            "tape" => Some(SimKernelTier::Tape),
            "reference" => Some(SimKernelTier::Reference),
            _ => None,
        }
    }

    /// The canonical tag, inverse of [`from_tag`](Self::from_tag).
    pub fn tag(self) -> &'static str {
        match self {
            SimKernelTier::JitAvx2 => "jit-avx2",
            SimKernelTier::JitScalar => "jit-scalar",
            SimKernelTier::Fused => "fused",
            SimKernelTier::Tape => "tape",
            SimKernelTier::Reference => "reference",
        }
    }
}

/// One classified pair: FF indices plus verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairResult {
    /// Source FF index.
    pub src: usize,
    /// Sink FF index.
    pub dst: usize,
    /// Verdict.
    pub class: PairClass,
}

impl PairResult {
    /// The journal record of this verdict with every provenance field
    /// empty: no engine, no time, no flags. Each producer (the static
    /// pass, a sim drop, an engine verdict, a store splice) fills in its
    /// own fields with struct update.
    pub(crate) fn event(&self) -> PairEvent {
        let (step, class) = self.class.tags();
        PairEvent {
            src: self.src,
            dst: self.dst,
            step: step.to_owned(),
            class: class.to_owned(),
            engine: None,
            assignments: Vec::new(),
            micros: 0,
            sim_word: None,
            slice_nodes: None,
            slice_vars: None,
            resumed: false,
            static_pass: false,
            cached: false,
            kernel: None,
        }
    }
}

/// Counters for the paper's Table 2: pairs resolved and time spent per
/// step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StepStats {
    /// Topologically connected pairs (Table 1 `FF-pair`).
    pub candidates: usize,
    /// Multi-cycle pairs resolved by the static dataflow pre-pass (the
    /// sink's D input is provably constant, so it can never transition).
    #[serde(default)]
    pub multi_by_static: usize,
    /// Single-cycle pairs disproven by random simulation.
    pub single_by_sim: usize,
    /// Single-cycle pairs found by the implication procedure (an implied
    /// violation, confirmed justifiable).
    pub single_by_implication: usize,
    /// Single-cycle pairs found by the backtrack search / baseline query.
    pub single_by_atpg: usize,
    /// Multi-cycle pairs proven by implication alone.
    pub multi_by_implication: usize,
    /// Multi-cycle pairs needing the search / baseline query.
    pub multi_by_atpg: usize,
    /// Pairs the engine could not settle.
    pub unknown: usize,
    /// 64-pattern words simulated by the prefilter.
    pub sim_words: u64,
    /// Kernel that ran the prefilter, `None` when the sim filter was off
    /// (or in reports from before kernels were recorded).
    /// Host-dependent (hosts without native code run `Fused`), so
    /// [`McReport::canonical`] clears it.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sim_kernel: Option<SimKernelTier>,
    /// Wall-clock spent in the static dataflow pre-pass.
    #[serde(default)]
    pub time_static: Duration,
    /// Wall-clock spent in the simulation prefilter.
    pub time_sim: Duration,
    /// Wall-clock spent in expansion + static learning.
    pub time_prepare: Duration,
    /// Wall-clock spent in the pair loop (implication + search), summed
    /// across worker threads.
    pub time_pairs: Duration,
    /// End-to-end wall-clock.
    pub time_total: Duration,
}

impl StepStats {
    /// Tallies a run's verdicts into the per-step pair counts: every pair
    /// lands in the bucket of its class and resolving step. The pipeline
    /// calls it once, on the final results; nothing else writes these
    /// seven counts.
    pub(crate) fn count_pairs(&mut self, pairs: &[PairResult]) {
        for p in pairs {
            let (multi, by) = match p.class {
                PairClass::MultiCycle { by } => (true, by),
                PairClass::SingleCycle { by } => (false, by),
                PairClass::Unknown => {
                    self.unknown += 1;
                    continue;
                }
            };
            let bucket = match (multi, by) {
                (true, Step::Structural) => &mut self.multi_by_static,
                (true, Step::Implication) => &mut self.multi_by_implication,
                (true, _) => &mut self.multi_by_atpg,
                (false, Step::RandomSim) => &mut self.single_by_sim,
                (false, Step::Implication) => &mut self.single_by_implication,
                (false, _) => &mut self.single_by_atpg,
            };
            *bucket += 1;
        }
    }

    /// Total multi-cycle pairs.
    pub fn multi_total(&self) -> usize {
        self.multi_by_static + self.multi_by_implication + self.multi_by_atpg
    }

    /// Total single-cycle pairs.
    pub fn single_total(&self) -> usize {
        self.single_by_sim + self.single_by_implication + self.single_by_atpg
    }
}

/// The result of [`analyze`](crate::analyze): per-pair verdicts plus
/// aggregated statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct McReport {
    /// Circuit name the report describes.
    pub circuit: String,
    /// Per-pair verdicts for every topologically connected pair analyzed.
    pub pairs: Vec<PairResult>,
    /// Aggregated per-step statistics.
    pub stats: StepStats,
    /// Observability snapshot at the end of the run: engine counters plus
    /// span timings (see [`mcp_obs`]). Empty, and left out of the JSON,
    /// in the [`canonical`](Self::canonical) form.
    #[serde(default, skip_serializing_if = "MetricsSnapshot::is_empty")]
    pub metrics: MetricsSnapshot,
}

impl McReport {
    pub(crate) fn new(
        circuit: String,
        pairs: Vec<PairResult>,
        stats: StepStats,
        metrics: MetricsSnapshot,
    ) -> Self {
        McReport {
            circuit,
            pairs,
            stats,
            metrics,
        }
    }

    /// The strategy-independent projection of the report: a copy with
    /// every wall-clock field zeroed, the simulated word count and the
    /// kernel tier cleared, [`metrics`](Self::metrics) emptied (so its
    /// JSON has no `metrics` member), and multi-cycle attribution folded
    /// into a single bucket.
    ///
    /// Everything that remains — verdicts and per-step pair counts, the
    /// prefilter's drop count among them as [`StepStats::single_by_sim`]
    /// — describes *what was decided about the circuit*, not *how hard
    /// the engine worked for it*, so two runs differing only in thread
    /// count, cone slicing (`McConfig::slice`), or the static dataflow
    /// pre-pass (`McConfig::static_classify`) serialize to
    /// **byte-identical** JSON, and adding or removing an effort counter
    /// leaves that JSON as it was. Effort counters cannot share that
    /// property across slice modes (a sliced engine examines fewer nodes
    /// by design), and word counts cannot share it across static modes
    /// (statically resolved pairs let the prefilter's alive set drain
    /// sooner); they remain available — and still deterministic for a
    /// fixed config — in the full report's [`McReport::metrics`].
    ///
    /// Multi-cycle verdicts are attribution-folded (`by` rewritten to
    /// [`Step::Atpg`], the per-step multi counts summed into one) because
    /// the *verdict* is mode-independent but the resolving step is not:
    /// a provably frozen sink is `multi_by_static` with the pre-pass on
    /// and `multi_by_implication`/`multi_by_atpg` with it off. Single
    /// attribution needs no folding — the pre-pass only ever proves
    /// multi.
    pub fn canonical(&self) -> McReport {
        let mut r = self.clone();
        r.stats.time_static = Duration::ZERO;
        r.stats.time_sim = Duration::ZERO;
        r.stats.time_prepare = Duration::ZERO;
        r.stats.time_pairs = Duration::ZERO;
        r.stats.time_total = Duration::ZERO;
        r.stats.sim_words = 0;
        // The kernel is a host fact, not a circuit fact: the same run
        // jits on one machine and falls back to `fused` on another.
        r.stats.sim_kernel = None;
        r.stats.multi_by_atpg = r.stats.multi_total();
        r.stats.multi_by_static = 0;
        r.stats.multi_by_implication = 0;
        for p in &mut r.pairs {
            if let PairClass::MultiCycle { by } = &mut p.class {
                *by = Step::Atpg;
            }
        }
        r.metrics = MetricsSnapshot::default();
        r
    }

    /// The verdict for `(src, dst)`, or `None` when the pair is not
    /// topologically connected (hence trivially multi-cycle / vacuous).
    pub fn class_of(&self, src: usize, dst: usize) -> Option<PairClass> {
        self.pairs
            .iter()
            .find(|p| p.src == src && p.dst == dst)
            .map(|p| p.class)
    }

    /// All proven multi-cycle pairs, sorted.
    pub fn multi_cycle_pairs(&self) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = self
            .pairs
            .iter()
            .filter(|p| p.class.is_multi())
            .map(|p| (p.src, p.dst))
            .collect();
        v.sort_unstable();
        v
    }

    /// All single-cycle pairs, sorted.
    pub fn single_cycle_pairs(&self) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = self
            .pairs
            .iter()
            .filter(|p| matches!(p.class, PairClass::SingleCycle { .. }))
            .map(|p| (p.src, p.dst))
            .collect();
        v.sort_unstable();
        v
    }

    /// All unknown pairs, sorted.
    pub fn unknown_pairs(&self) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = self
            .pairs
            .iter()
            .filter(|p| matches!(p.class, PairClass::Unknown))
            .map(|p| (p.src, p.dst))
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> McReport {
        McReport::new(
            "c".to_owned(),
            vec![
                PairResult {
                    src: 0,
                    dst: 1,
                    class: PairClass::MultiCycle {
                        by: Step::Implication,
                    },
                },
                PairResult {
                    src: 1,
                    dst: 0,
                    class: PairClass::SingleCycle {
                        by: Step::RandomSim,
                    },
                },
                PairResult {
                    src: 2,
                    dst: 2,
                    class: PairClass::Unknown,
                },
            ],
            StepStats::default(),
            MetricsSnapshot::default(),
        )
    }

    #[test]
    fn lookup_and_partitions() {
        let r = sample();
        assert!(r.class_of(0, 1).unwrap().is_multi());
        assert_eq!(r.class_of(9, 9), None);
        assert_eq!(r.multi_cycle_pairs(), vec![(0, 1)]);
        assert_eq!(r.single_cycle_pairs(), vec![(1, 0)]);
        assert_eq!(r.unknown_pairs(), vec![(2, 2)]);
    }

    #[test]
    fn serde_round_trip_rebuilds_index() {
        let r = sample();
        let json = serde_json::to_string(&r).expect("serialize");
        let back: McReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.pairs.len(), 3);
        assert_eq!(back.multi_cycle_pairs(), r.multi_cycle_pairs());
        assert_eq!(back.class_of(1, 0), r.class_of(1, 0));
    }

    #[test]
    fn canonical_zeroes_clocks_spans_and_effort_counters() {
        let mut r = sample();
        r.stats.time_total = Duration::from_millis(5);
        r.stats.time_pairs = Duration::from_millis(3);
        r.metrics.spans.insert(
            "analyze".to_owned(),
            mcp_obs::SpanStat {
                total: Duration::from_millis(5),
                count: 1,
            },
        );
        r.metrics.counters.implications = 42;
        r.metrics.counters.slice_builds = 7;
        r.metrics.counters.sim_words = 9;
        r.metrics.counters.static_resolved = 2;
        r.metrics.counters.sim_fused_ops = 11;
        r.metrics.counters.jit_bytes = 640;
        r.stats.sim_words = 9;
        r.stats.sim_kernel = Some(SimKernelTier::JitAvx2);
        r.stats.multi_by_implication = 1;
        r.stats.multi_by_static = 2;
        let c = r.canonical();
        assert_eq!(c.stats.time_total, Duration::ZERO);
        assert_eq!(c.stats.time_pairs, Duration::ZERO);
        assert!(c.metrics.spans.is_empty());
        // Engine effort varies with the slicing strategy, word counts
        // with the static pre-pass: projected out.
        assert_eq!(c.metrics.counters.implications, 0);
        assert_eq!(c.metrics.counters.slice_builds, 0);
        assert_eq!(c.metrics.counters.sim_words, 0);
        assert_eq!(c.metrics.counters.static_resolved, 0);
        assert_eq!(c.stats.sim_words, 0);
        // The kernel tier and its effort counters are host facts (the
        // jit falls back per host): projected out.
        assert_eq!(c.stats.sim_kernel, None);
        assert_eq!(c.metrics.counters.sim_fused_ops, 0);
        assert_eq!(c.metrics.counters.jit_bytes, 0);
        // Multi attribution folds into one bucket; the verdict survives.
        assert_eq!(c.stats.multi_by_atpg, 3);
        assert_eq!(c.stats.multi_by_static, 0);
        assert_eq!(c.stats.multi_by_implication, 0);
        assert_eq!(c.stats.multi_total(), r.stats.multi_total());
        assert_eq!(
            c.class_of(0, 1),
            Some(PairClass::MultiCycle { by: Step::Atpg }),
            "multi `by` folds to one representative"
        );
        assert_eq!(c.class_of(1, 0), r.class_of(1, 0), "single `by` survives");
        assert_eq!(c.multi_cycle_pairs(), r.multi_cycle_pairs());
        assert_eq!(c.circuit, r.circuit);
    }

    #[test]
    fn journal_tags_round_trip_every_class() {
        for by in [
            Step::Structural,
            Step::RandomSim,
            Step::Implication,
            Step::Atpg,
        ] {
            for class in [PairClass::MultiCycle { by }, PairClass::SingleCycle { by }] {
                let (step, name) = class.tags();
                assert_eq!(PairClass::from_tags(step, name), class);
            }
        }
        assert_eq!(PairClass::Unknown.tags(), ("atpg", "unknown"));
        assert_eq!(PairClass::from_tags("atpg", "unknown"), PairClass::Unknown);
    }

    #[test]
    fn step_totals() {
        // Every pair lands in the bucket of its class and step.
        let pair = |class| PairResult {
            src: 0,
            dst: 0,
            class,
        };
        let mut s = StepStats::default();
        s.count_pairs(&[
            pair(PairClass::MultiCycle {
                by: Step::Structural,
            }),
            pair(PairClass::MultiCycle {
                by: Step::Implication,
            }),
            pair(PairClass::MultiCycle { by: Step::Atpg }),
            pair(PairClass::SingleCycle {
                by: Step::RandomSim,
            }),
            pair(PairClass::SingleCycle {
                by: Step::Implication,
            }),
            pair(PairClass::SingleCycle { by: Step::Atpg }),
            pair(PairClass::SingleCycle { by: Step::Atpg }),
            pair(PairClass::Unknown),
        ]);
        let counts = [
            s.multi_by_static,
            s.multi_by_implication,
            s.multi_by_atpg,
            s.single_by_sim,
            s.single_by_implication,
            s.single_by_atpg,
            s.unknown,
        ];
        assert_eq!(counts, [1, 1, 1, 1, 1, 2, 1]);
        assert_eq!(s.single_total(), 4);
        assert_eq!(s.multi_total(), 3);
    }
}
