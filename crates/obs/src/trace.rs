//! Timestamped span capture and Chrome trace-event export.
//!
//! [`Timers`](crate::Timers) answers "how much total time went where";
//! this module answers "when, and on which thread". The pipeline runs a
//! [`Tracer`] alongside the timers, collecting one [`SpanEvent`] per
//! entered span with begin/end timestamps relative to the tracer's
//! epoch and a per-thread track id. `mcpath trace --format chrome`
//! turns those into trace-event JSON loadable in Perfetto or
//! `chrome://tracing`.

use crate::ledger::SpanEvent;
use crate::timers::SpanStat;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TRACE_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's trace track id.
///
/// Ids are handed out process-wide in first-use order, so the main
/// thread and every scoped pair-loop worker get distinct tracks — which
/// is exactly what makes the pair loop's schedule visible in a trace
/// viewer. They are *not* OS thread ids; they are stable only within a
/// process lifetime.
pub fn current_tid() -> u64 {
    TRACE_TID.with(|t| *t)
}

/// Collector of timestamped spans, shared by reference across worker
/// threads. All timestamps are microseconds since the tracer's
/// construction (its *epoch*), so the resulting events are
/// self-contained without wall-clock anchoring.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanEvent>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Creates a tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Enters a timestamped span at `path` on the calling thread's
    /// track; the returned guard records the span when dropped.
    pub fn span(&self, path: impl Into<String>) -> TraceGuard<'_> {
        TraceGuard {
            tracer: self,
            path: path.into(),
            start: Instant::now(),
            done: false,
        }
    }

    /// Records a finished span directly.
    pub fn record(&self, span: SpanEvent) {
        self.spans.lock().expect("tracer poisoned").push(span);
    }

    /// Takes every span recorded so far, leaving the tracer empty.
    pub fn drain(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.spans.lock().expect("tracer poisoned"))
    }

    fn finish(&self, path: &str, start: Instant) {
        let start_us = start.duration_since(self.epoch).as_micros() as u64;
        let dur_us = start.elapsed().as_micros() as u64;
        self.record(SpanEvent {
            span: path.to_owned(),
            tid: current_tid(),
            start_us,
            dur_us,
        });
    }
}

/// RAII guard of one entered trace span; see [`Tracer::span`].
#[must_use = "dropping the guard immediately records a ~zero-length span"]
#[derive(Debug)]
pub struct TraceGuard<'t> {
    tracer: &'t Tracer,
    path: String,
    start: Instant,
    done: bool,
}

impl TraceGuard<'_> {
    /// Ends the span now.
    pub fn stop(mut self) {
        self.tracer.finish(&self.path, self.start);
        self.done = true;
    }
}

impl Drop for TraceGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.tracer.finish(&self.path, self.start);
        }
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

/// One complete (`ph: "X"`) event of the Chrome trace-event format.
///
/// Field names are dictated by the format, hence the non-snake-case
/// idents (the vendored serde stand-in has no `rename`, so the Rust
/// field name *is* the JSON key).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChromeEvent {
    /// Event name — the full span path.
    pub name: String,
    /// Category — the span path's first segment, used by viewers for
    /// filtering and coloring.
    pub cat: String,
    /// Phase; always `"X"` (complete event with explicit duration).
    pub ph: String,
    /// Begin timestamp in microseconds.
    pub ts: u64,
    /// Duration in microseconds.
    pub dur: u64,
    /// Process id; always 1 (the analysis is single-process).
    pub pid: u64,
    /// Thread track id (see [`current_tid`]).
    pub tid: u64,
}

/// A Chrome trace-event JSON document (the "JSON object format").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[allow(non_snake_case)] // field names dictated by the trace-event format
pub struct ChromeTrace {
    /// The events, one per captured span.
    pub traceEvents: Vec<ChromeEvent>,
    /// Display unit hint for viewers; always `"ms"`.
    pub displayTimeUnit: String,
}

fn category_of(path: &str) -> String {
    path.split('/').next().unwrap_or(path).to_owned()
}

/// Converts captured timestamped spans into a Chrome trace document.
pub fn chrome_trace(spans: &[SpanEvent]) -> ChromeTrace {
    let events = spans
        .iter()
        .map(|s| ChromeEvent {
            name: s.span.clone(),
            cat: category_of(&s.span),
            ph: "X".to_owned(),
            ts: s.start_us,
            dur: s.dur_us,
            pid: 1,
            tid: s.tid,
        })
        .collect();
    ChromeTrace {
        traceEvents: events,
        displayTimeUnit: "ms".to_owned(),
    }
}

/// Degraded export for artifacts that only carry flat span *totals*
/// (saved reports, pre-v2 snapshots): synthesizes one event per span
/// path, laid out back-to-back on a single track in path order. Real
/// begin times are gone, so this shows proportions, not schedule.
pub fn chrome_trace_from_totals(spans: &BTreeMap<String, SpanStat>) -> ChromeTrace {
    let mut events = Vec::with_capacity(spans.len());
    let mut ts = 0u64;
    for (path, stat) in spans {
        let dur = stat.total.as_micros() as u64;
        events.push(ChromeEvent {
            name: path.clone(),
            cat: category_of(path),
            ph: "X".to_owned(),
            ts,
            dur,
            pid: 1,
            tid: 0,
        });
        ts += dur;
    }
    ChromeTrace {
        traceEvents: events,
        displayTimeUnit: "ms".to_owned(),
    }
}
