//! Work distribution for the per-pair engine loop.
//!
//! The surviving FF pairs form an embarrassingly parallel workload with a
//! brutally skewed cost profile: per Table 2, most pairs fall to the
//! implication procedure in microseconds while the ATPG/SAT residue pairs
//! each cost orders of magnitude more. [`run_items`] handles the skew with
//! one rule: the caller lists its items hardest-first (see the pipeline's
//! cost hints), and whichever worker is free claims the next unclaimed
//! item from one shared cursor. The expensive items start first, and the
//! cheap tail fills in around them.
//!
//! Determinism contract: the loop changes only *which worker* processes
//! an item and *when* — callers' work closures must make each item's
//! outcome and flushed counter deltas independent of that (fresh or
//! fully-restored engine state per item). Under that contract the merged
//! output, re-sorted by pair, is byte-identical for any thread count.

use mcp_obs::ObsCtx;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// One worker's view of a [`run_items`] list: yields, in list order, the
/// items no other worker has claimed yet, until the list runs out.
pub(crate) struct Feed<'a, T> {
    items: &'a [T],
    cursor: &'a AtomicUsize,
}

impl<'a, T> Iterator for Feed<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        // `Relaxed` suffices: the cursor publishes no data. The items are
        // read-only and shared before any worker starts; `fetch_add`
        // alone makes every claimed index unique.
        self.items.get(self.cursor.fetch_add(1, Ordering::Relaxed))
    }
}

/// Runs `work` over `items` on `threads` workers, returning all produced
/// results (in arbitrary order — callers sort) plus the summed per-worker
/// busy time.
///
/// Every worker gets a [`Feed`] over one shared cursor, so each item is
/// claimed exactly once, in list order. At `threads == 1` the single
/// worker runs on the calling thread. The output element type `O` is
/// independent of the item type `T`: a closure fed sink groups can still
/// emit one keyed record per pair inside the group. The loop is one
/// `span_path` span of `obs`, and each worker's busy time one
/// `{span_path}/worker` span inside it. An empty `items` returns
/// immediately without invoking `work` or opening a span (so callers'
/// engine setup is never spent on a no-op), and `threads` is clamped to
/// `1..=items.len()`.
pub(crate) fn run_items<T, O, F>(
    items: &[T],
    threads: usize,
    obs: &ObsCtx,
    span_path: &str,
    work: F,
) -> (Vec<O>, Duration)
where
    T: Sync,
    O: Send,
    F: Fn(Feed<'_, T>, &mut Vec<O>) + Sync,
{
    if items.is_empty() {
        return (Vec::new(), Duration::ZERO);
    }
    let _loop = obs.timers.span(span_path);
    let worker_path = format!("{span_path}/worker");
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let span = obs.timers.span(worker_path.as_str());
        let mut out = Vec::new();
        work(
            Feed {
                items,
                cursor: &cursor,
            },
            &mut out,
        );
        (out, span.stop())
    };
    let threads = threads.clamp(1, items.len());
    if threads == 1 {
        return worker();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        let mut all = Vec::with_capacity(items.len());
        let mut busy = Duration::ZERO;
        for h in handles {
            let (out, dt) = h.join().expect("worker panicked");
            all.extend(out);
            busy += dt;
        }
        (all, busy)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: usize) -> Vec<(usize, usize)> {
        (0..n).map(|i| (i, i + 1)).collect()
    }

    fn run_sorted(items: &[(usize, usize)], threads: usize) -> Vec<((usize, usize), usize)> {
        let obs = ObsCtx::new();
        let (mut out, _) = run_items(items, threads, &obs, "test/pairs", |feed, out| {
            for &(i, j) in feed {
                out.push(((i, j), i * 100 + j));
            }
        });
        out.sort_unstable_by_key(|&(p, _)| p);
        out
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let items = items(237);
        let expected = run_sorted(&items, 1);
        for threads in [2, 3, 8, 500] {
            assert_eq!(run_sorted(&items, threads), expected, "{threads} threads");
        }
    }

    #[test]
    fn each_worker_claims_items_in_list_order() {
        // The caller's list is hardest-first, so no worker may run any
        // part of it backwards: every worker's claims must be strictly
        // increasing list indices, and together the workers must claim
        // every index exactly once.
        let n = 500;
        let ids: Vec<usize> = (0..n).collect();
        for threads in [1, 2, 8] {
            let obs = ObsCtx::new();
            let (claims, _) = run_items(&ids, threads, &obs, "test/pairs", |feed, out| {
                let mine: Vec<usize> = feed.copied().collect();
                out.push(mine);
            });
            for mine in &claims {
                assert!(
                    mine.windows(2).all(|w| w[0] < w[1]),
                    "claims out of list order at {threads} threads: {mine:?}"
                );
            }
            let mut all: Vec<usize> = claims.concat();
            all.sort_unstable();
            assert_eq!(all, ids, "every item exactly once at {threads} threads");
        }
    }

    #[test]
    fn empty_items_never_invoke_work() {
        let obs = ObsCtx::new();
        for threads in [0, 1, 8] {
            let (out, busy) = run_items::<(usize, usize), (), _>(
                &[],
                threads,
                &obs,
                "test/pairs",
                |_feed, _out| panic!("work must not run on an empty item set"),
            );
            assert!(out.is_empty());
            assert_eq!(busy, Duration::ZERO);
        }
        assert!(
            obs.timers.events().is_empty(),
            "no span entries for no-op runs"
        );
    }

    #[test]
    fn threads_are_clamped_to_the_item_count() {
        // 3 items, 8 threads: at most 3 workers run, and every result
        // still comes back.
        let items = items(3);
        assert_eq!(run_sorted(&items, 8).len(), 3);
        let obs = ObsCtx::new();
        run_items(&items, 8, &obs, "test/pairs", |feed, out| {
            out.extend(feed.map(|_| ()));
        });
        let totals = obs.timers.totals();
        assert_eq!(totals["test/pairs"].count, 1, "one span around the loop");
        assert_eq!(totals["test/pairs/worker"].count, 3);
    }

    #[test]
    fn a_skewed_workload_spreads_over_workers() {
        // One expensive item at the front, many cheap ones behind it. A
        // worker stuck on the expensive item must not strand the rest:
        // the other workers drain them meanwhile. The expensive item
        // blocks until every cheap one is done (bounded, so a broken
        // loop fails instead of hanging), which forces that interleaving
        // without relying on timing.
        let items = items(64);
        let cheap_done = AtomicUsize::new(0);
        let stuck_worker_items = AtomicUsize::new(0);
        let obs = ObsCtx::new();
        let (out, _) = run_items(&items, 4, &obs, "test/pairs", |feed, out| {
            let mut mine = 0usize;
            let mut stuck = false;
            for &(i, j) in feed {
                if i == 0 {
                    stuck = true;
                    let deadline = std::time::Instant::now() + Duration::from_secs(10);
                    while cheap_done.load(Ordering::Relaxed) < items.len() - 1
                        && std::time::Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                } else {
                    cheap_done.fetch_add(1, Ordering::Relaxed);
                }
                mine += 1;
                out.push(((i, j), ()));
            }
            if stuck {
                stuck_worker_items.store(mine, Ordering::Relaxed);
            }
        });
        assert_eq!(out.len(), items.len());
        assert_eq!(
            stuck_worker_items.load(Ordering::Relaxed),
            1,
            "the other workers should drain every cheap item"
        );
    }

    #[test]
    fn busy_time_sums_every_worker() {
        let items = items(8);
        let obs = ObsCtx::new();
        let (_, busy) = run_items(&items, 4, &obs, "test/pairs", |feed, out| {
            for &p in feed {
                std::thread::sleep(Duration::from_millis(2));
                out.push((p, ()));
            }
        });
        // 8 items × 2ms each ≥ 16ms of busy time regardless of threads.
        assert!(busy >= Duration::from_millis(16), "busy = {busy:?}");
        let totals = obs.timers.totals();
        assert_eq!(totals["test/pairs/worker"].count, 4, "one span per worker");
        assert_eq!(totals["test/pairs/worker"].total, busy);
    }
}
