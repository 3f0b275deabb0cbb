//! The `cache` subcommand: maintenance of the `--cache-dir` artifact
//! store without touching any netlist.
//!
//! * `cache stats` — per-stage entry counts and byte totals, plus any
//!   recorded lock holder and non-entry disk usage (tmp debris).
//! * `cache gc --max-bytes N` — evict least-recently-touched entries
//!   until the store fits the budget. Refuses (exit error) while a live
//!   process — a running `mcpath serve` — holds the store's lock.

use super::analyze::open_store;
use super::{CacheOp, Command};

pub(crate) fn cache(cmd: &Command, op: &CacheOp, out: &mut String) -> Result<(), String> {
    let store = open_store(cmd)?
        .ok_or_else(|| "`cache` needs --cache-dir <dir> (or MCPATH_CACHE_DIR)".to_owned())?;
    match op {
        CacheOp::Stats => {
            let stats = store.stats().map_err(|e| e.to_string())?;
            out.push_str(&format!("cache {}\n", store.root().display()));
            out.push_str(&format!(
                "  entries: {} ({} bytes)\n",
                stats.entries, stats.entry_bytes
            ));
            for s in &stats.stages {
                out.push_str(&format!(
                    "    {:<14} {:>6} entries  {:>10} bytes\n",
                    s.stage, s.entries, s.bytes
                ));
            }
            if stats.other_bytes > 0 {
                out.push_str(&format!(
                    "  other files: {} bytes (lock/tmp/foreign)\n",
                    stats.other_bytes
                ));
            }
            match stats.locked_by {
                Some(pid) => out.push_str(&format!("  locked by: pid {pid}\n")),
                None => out.push_str("  locked by: nobody\n"),
            }
        }
        CacheOp::Gc { max_bytes } => {
            let outcome = store.gc(*max_bytes).map_err(|e| e.to_string())?;
            out.push_str(&format!(
                "cache gc {}: evicted {} file(s) ({} bytes), kept {} entries ({} bytes <= budget {})\n",
                store.root().display(),
                outcome.evicted,
                outcome.freed_bytes,
                outcome.kept,
                outcome.kept_bytes,
                max_bytes
            ));
        }
    }
    Ok(())
}
