//! The run's span log, and its Chrome trace-event export.
//!
//! A [`Tracer`] collects one [`SpanEvent`] per entered span, with
//! begin/end timestamps relative to the tracer's epoch and a per-thread
//! track id. The same log answers "how much total time went where"
//! ([`Tracer::totals`], the report's `metrics.spans`) and "when, and on
//! which thread" (the ledger's span lines, which `mcpath trace` turns
//! into trace-event JSON loadable in Perfetto or `chrome://tracing`).

use crate::ledger::SpanEvent;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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

/// Accumulated wall-clock total and entry count of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanStat {
    /// Total time spent inside the span, summed over entries.
    pub total: Duration,
    /// Number of times the span was entered.
    pub count: u64,
}

impl SpanStat {
    /// Mean time per entry, or zero when the span was never entered.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count as u32
        }
    }
}

/// The path a span's time is totalled under: `path` without its
/// `:label` suffix (everything from the first `:`), which names one
/// instance — `analyze/pairs/sink:42` counts towards `analyze/pairs/sink`.
fn total_key(path: &str) -> &str {
    path.split_once(':').map_or(path, |(key, _)| key)
}

/// The span log of one run, shared by reference across worker threads.
///
/// Spans are keyed by `/`-separated paths (`"analyze/pairs/worker"`);
/// the hierarchy is by naming convention, so a [`totals`](Self::totals)
/// map sorts parents directly above their children. Timestamps are
/// whole microseconds since the tracer's construction (its *epoch*), so
/// the events are self-contained without wall-clock anchoring.
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
    /// Creates an empty log whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Enters a span at `path` on the calling thread's track; the
    /// returned guard records it when stopped or dropped.
    pub fn span(&self, path: impl Into<String>) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            path: path.into(),
            start_us: self.now_us(),
            done: false,
        }
    }

    /// Records a finished span directly.
    pub fn record(&self, span: SpanEvent) {
        self.spans.lock().expect("tracer poisoned").push(span);
    }

    /// A copy of every span recorded so far, in the order they ended.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.spans.lock().expect("tracer poisoned").clone()
    }

    /// Takes every span recorded so far, leaving the log empty.
    pub fn drain(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.spans.lock().expect("tracer poisoned"))
    }

    /// Total recorded so far under `path` (zero if never entered);
    /// labelled instances count towards their unlabelled path.
    pub fn total(&self, path: &str) -> Duration {
        let spans = self.spans.lock().expect("tracer poisoned");
        let us = spans
            .iter()
            .filter(|s| total_key(&s.span) == path)
            .map(|s| s.dur_us)
            .sum();
        Duration::from_micros(us)
    }

    /// Every path's total and entry count; labelled instances fold into
    /// their unlabelled path.
    pub fn totals(&self) -> BTreeMap<String, SpanStat> {
        let mut out: BTreeMap<String, SpanStat> = BTreeMap::new();
        for s in self.spans.lock().expect("tracer poisoned").iter() {
            let stat = out.entry(total_key(&s.span).to_owned()).or_default();
            stat.total += Duration::from_micros(s.dur_us);
            stat.count += 1;
        }
        out
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// RAII guard of one entered span; see [`Tracer::span`].
///
/// Begin and end are both read as whole microseconds since the epoch,
/// so a span entered and left inside another one lies inside it in the
/// log too.
#[must_use = "dropping the guard immediately records a ~zero-length span"]
#[derive(Debug)]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    path: String,
    start_us: u64,
    done: bool,
}

impl SpanGuard<'_> {
    /// Ends the span now and returns its recorded duration.
    pub fn stop(mut self) -> Duration {
        self.done = true;
        self.finish()
    }

    fn finish(&mut self) -> Duration {
        let dur_us = self.tracer.now_us().saturating_sub(self.start_us);
        self.tracer.record(SpanEvent {
            span: std::mem::take(&mut self.path),
            tid: current_tid(),
            start_us: self.start_us,
            dur_us,
        });
        Duration::from_micros(dur_us)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.finish();
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
