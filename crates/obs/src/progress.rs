//! Throttled stderr progress reporting with cost-weighted ETA.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Throttled progress reporter writing single lines to stderr.
#[derive(Debug)]
pub(crate) struct ProgressMeter {
    every: Duration,
    started: Instant,
    last: Mutex<Instant>,
}

impl ProgressMeter {
    pub(crate) fn new(every: Duration) -> Self {
        let now = Instant::now();
        ProgressMeter {
            every,
            started: now,
            last: Mutex::new(now - every),
        }
    }

    /// Emits one line if the throttle allows. `cost` carries the
    /// scheduler's work-weighted progress as `(completed_cost,
    /// total_cost)`: the ETA extrapolates elapsed time over *cost*
    /// rather than pair counts — sink groups are sorted hardest-first,
    /// so count-based extrapolation would overestimate badly early in a
    /// run.
    pub(crate) fn tick(&self, label: &str, done: usize, total: usize, cost: (u64, u64)) {
        // Never block a worker on the progress lock.
        let Ok(mut last) = self.last.try_lock() else {
            return;
        };
        if last.elapsed() < self.every && done != total {
            return;
        }
        *last = Instant::now();
        let pct = if total == 0 {
            100.0
        } else {
            done as f64 * 100.0 / total as f64
        };
        let elapsed = self.started.elapsed().as_secs_f64();
        let (done_cost, total_cost) = cost;
        let eta = if done_cost > 0 && total_cost > done_cost {
            let remaining = elapsed * (total_cost - done_cost) as f64 / done_cost as f64;
            format!(", eta {remaining:.1}s")
        } else {
            String::new()
        };
        eprintln!("[mcpath] {label}: {done}/{total} ({pct:.1}%) after {elapsed:.1}s{eta}");
    }
}
