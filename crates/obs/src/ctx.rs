//! The per-run observability context bundling the span log, counters,
//! sink, and progress meter.

use crate::ledger::{ObsSink, PairEvent};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::progress::ProgressMeter;
use crate::trace::Tracer;
use crate::NullSink;
use std::time::Duration;

/// Everything the pipeline needs to observe one run: the span log,
/// counters, a ledger sink, and an optional progress meter. Shared by
/// reference across the pair-loop worker threads.
pub struct ObsCtx {
    /// The run's span log: every timed layer, timestamped. Its totals
    /// are the report's `metrics.spans`; an enabled sink receives its
    /// events at the end of the run.
    pub timers: Tracer,
    /// Engine counters.
    pub metrics: Metrics,
    sink: Box<dyn ObsSink>,
    progress: Option<ProgressMeter>,
}

impl Default for ObsCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ObsCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsCtx")
            .field("timers", &self.timers)
            .field("metrics", &self.metrics)
            .field("sink_enabled", &self.sink.enabled())
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl ObsCtx {
    /// A context with a [`NullSink`] and no progress meter.
    pub fn new() -> Self {
        ObsCtx {
            timers: Tracer::new(),
            metrics: Metrics::new(),
            sink: Box::new(NullSink),
            progress: None,
        }
    }

    /// Replaces the ledger sink.
    pub fn with_sink(mut self, sink: Box<dyn ObsSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Enables progress lines on stderr, at most one per `every`.
    pub fn with_progress(mut self, every: Duration) -> Self {
        self.progress = Some(ProgressMeter::new(every));
        self
    }

    /// The ledger sink.
    pub fn sink(&self) -> &dyn ObsSink {
        &*self.sink
    }

    /// Records one pair event through the sink (no-op when disabled).
    pub fn record(&self, event: &PairEvent) {
        self.sink.record(event);
    }

    /// Emits a progress line if a meter is attached and the throttle
    /// allows it, with work-weighted cost totals for an ETA estimate
    /// (`(completed_cost, total_cost)` in the scheduler's slice-node cost
    /// units).
    pub fn progress_with_cost(&self, label: &str, done: usize, total: usize, cost: (u64, u64)) {
        if let Some(meter) = &self.progress {
            meter.tick(label, done, total, cost);
        }
    }

    /// Counters-plus-span-totals snapshot of the run so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.metrics.counters(),
            spans: self.timers.totals(),
        }
    }
}
