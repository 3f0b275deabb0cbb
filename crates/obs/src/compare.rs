//! Regression-aware artifact comparison for `mcpath stats --compare`.
//!
//! Wall-clock numbers are noise on shared or single-core CI runners, but
//! the pipeline's *counters* (implications, SAT conflicts, kernel ops,
//! slice sizes) are deterministic for a fixed seed and config. This
//! module flattens two artifacts — saved `McReport`s, `MetricsSnapshot`s,
//! `BENCH_*.json` files, or NDJSON ledgers — down to their integer
//! counters, diffs them, and flags increases above a configurable
//! threshold as regressions, giving CI a drift gate that works where
//! timing comparisons cannot.

use crate::ledger::{read_ledger, Ledger};
use serde::Content;
use std::collections::BTreeMap;
use std::io;

/// Keys whose values are wall-clock derived, machine-dependent, or
/// otherwise non-deterministic — excluded from comparison wholesale.
/// `spans` subtrees are skipped entirely; the rest match individual
/// path segments.
fn is_noise_key(key: &str) -> bool {
    matches!(
        key,
        "micros"
            | "secs"
            | "nanos"
            | "start_us"
            | "dur_us"
            | "ts"
            | "dur"
            | "tid"
            | "cores"
            | "peak_rss_kb"
            | "words_per_sec"
            | "pairs_per_sec"
    ) || key.starts_with("time")
}

fn flatten_content(prefix: &str, value: &Content, out: &mut BTreeMap<String, u64>) {
    match value {
        Content::U64(n) => {
            out.insert(prefix.to_owned(), *n);
        }
        Content::I64(_) | Content::F64(_) => {
            // Negative integers and floats are not counters; skip.
        }
        Content::Map(entries) => {
            for (key, child) in entries {
                if key == "spans" || is_noise_key(key) {
                    continue;
                }
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}/{key}")
                };
                flatten_content(&path, child, out);
            }
        }
        Content::Seq(items) => {
            // Arrays of rows (BENCH artifacts, pair lists) are order-
            // and content-deterministic; index into them.
            for (i, item) in items.iter().enumerate() {
                let path = if prefix.is_empty() {
                    format!("{i}")
                } else {
                    format!("{prefix}/{i}")
                };
                flatten_content(&path, item, out);
            }
        }
        Content::Null | Content::Bool(_) | Content::Str(_) => {}
    }
}

/// Aggregates an NDJSON ledger into deterministic counters: verdict
/// counts keyed by resolving step and class, total assignment outcomes,
/// and summed slice sizes. Per-event order and timing are discarded —
/// with several workers the append order depends on which worker
/// finished first, but these aggregates do not.
fn flatten_ledger(ledger: &Ledger, out: &mut BTreeMap<String, u64>) {
    if let Some(h) = &ledger.header {
        out.insert("header/pairs".to_owned(), h.pairs);
    }
    for event in &ledger.events {
        *out.entry(format!("pairs/{}/{}", event.step, event.class))
            .or_insert(0) += 1;
        *out.entry("assignments".to_owned()).or_insert(0) += event.assignments.len() as u64;
        if let Some(n) = event.slice_nodes {
            *out.entry("slice_nodes".to_owned()).or_insert(0) += n;
        }
        if let Some(v) = event.slice_vars {
            *out.entry("slice_vars".to_owned()).or_insert(0) += v;
        }
    }
}

/// Flattens one artifact's text into its deterministic integer counters.
///
/// The text is tried as an NDJSON ledger first — every ledger line type
/// has required fields no other artifact has at top level, so a one-line
/// journal and a multi-line journal take the same (aggregating) path —
/// then as a single JSON document (saved report, metrics snapshot,
/// BENCH artifact). Anything parseable as neither is an error. Ledgers
/// are read like `--resume` reads them, so a final line torn by a
/// SIGKILL is dropped; a text whose only line fails to parse is no
/// ledger, though, which keeps a one-line JSON document on the JSON path.
pub fn flatten_artifact(text: &str) -> io::Result<BTreeMap<String, u64>> {
    let mut out = BTreeMap::new();
    match read_ledger(text.as_bytes()) {
        Ok(ledger) if ledger != Ledger::default() || text.trim().is_empty() => {
            flatten_ledger(&ledger, &mut out);
            Ok(out)
        }
        ledger => {
            let content = serde_json::from_str_content(text).map_err(|e| {
                let ledger_err = ledger.map_or_else(
                    |le| le.to_string(),
                    |_| "its only line is no ledger record".to_owned(),
                );
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "artifact is neither an NDJSON ledger ({ledger_err}) \
                         nor a JSON document ({e})"
                    ),
                )
            })?;
            flatten_content("", &content, &mut out);
            Ok(out)
        }
    }
}

/// Comparison thresholds.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// A counter increase strictly above this percentage of the old
    /// value is a regression (decreases and new/removed counters never
    /// are). `0.0` flags any strict increase.
    pub threshold_pct: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        // Counters are deterministic, so the default tolerates nothing.
        CompareConfig { threshold_pct: 0.0 }
    }
}

/// Parses a `--threshold <pct>` value for [`CompareConfig::threshold_pct`].
///
/// # Errors
///
/// Returns a message unless the text is a finite, non-negative number.
/// NaN fails every growth comparison and infinity passes none, so either
/// would turn the gate off without a word.
pub fn parse_threshold_pct(text: &str) -> Result<f64, String> {
    let pct: f64 = text
        .parse()
        .map_err(|e| format!("bad --threshold `{text}`: {e}"))?;
    if pct.is_finite() && pct >= 0.0 {
        Ok(pct)
    } else {
        Err(format!(
            "bad --threshold `{text}`: must be a finite, non-negative percentage"
        ))
    }
}

/// One counter that differs between the two artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDiff {
    /// Flattened counter key (`/`-joined path).
    pub key: String,
    /// Value in the old artifact (`None` if the counter is new).
    pub old: Option<u64>,
    /// Value in the new artifact (`None` if the counter was removed).
    pub new: Option<u64>,
    /// Whether this difference is an above-threshold increase.
    pub regression: bool,
}

/// Result of comparing two artifacts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Every differing counter, sorted by key.
    pub diffs: Vec<CounterDiff>,
    /// Counters present and equal in both artifacts.
    pub unchanged: usize,
}

impl Comparison {
    /// Number of above-threshold regressions.
    pub fn regressions(&self) -> usize {
        self.diffs.iter().filter(|d| d.regression).count()
    }

    /// Human-readable table of the differences.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.diffs.is_empty() {
            out.push_str(&format!(
                "no counter differences ({} counters compared)\n",
                self.unchanged
            ));
            return out;
        }
        out.push_str(&format!(
            "{:<40} {:>14} {:>14} {:>9}\n",
            "counter", "old", "new", "delta"
        ));
        for d in &self.diffs {
            let old = d.old.map_or("-".to_owned(), |v| v.to_string());
            let new = d.new.map_or("-".to_owned(), |v| v.to_string());
            let delta = match (d.old, d.new) {
                (Some(o), Some(n)) => {
                    let signed = n as i128 - o as i128;
                    if o > 0 {
                        format!("{:+.1}%", signed as f64 * 100.0 / o as f64)
                    } else {
                        format!("{signed:+}")
                    }
                }
                _ => "-".to_owned(),
            };
            let mark = if d.regression { "  REGRESSION" } else { "" };
            out.push_str(&format!(
                "{:<40} {old:>14} {new:>14} {delta:>9}{mark}\n",
                d.key
            ));
        }
        out.push_str(&format!(
            "{} differing, {} unchanged, {} regression(s)\n",
            self.diffs.len(),
            self.unchanged,
            self.regressions()
        ));
        out
    }
}

/// Compares two flattened artifacts.
pub fn compare_counters(
    old: &BTreeMap<String, u64>,
    new: &BTreeMap<String, u64>,
    config: CompareConfig,
) -> Comparison {
    let mut result = Comparison::default();
    let keys: std::collections::BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    for key in keys {
        let o = old.get(key).copied();
        let n = new.get(key).copied();
        if o == n {
            result.unchanged += 1;
            continue;
        }
        let regression = match (o, n) {
            (Some(o), Some(n)) if n > o => {
                let growth_pct = (n - o) as f64 * 100.0 / (o.max(1)) as f64;
                growth_pct > config.threshold_pct
            }
            // A counter appearing from nothing is unbounded growth.
            (None, Some(n)) => n > 0,
            _ => false,
        };
        result.diffs.push(CounterDiff {
            key: key.clone(),
            old: o,
            new: n,
            regression,
        });
    }
    result
}

/// Parses and compares two artifact texts; see [`flatten_artifact`] and
/// [`compare_counters`].
pub fn compare_artifacts(
    old_text: &str,
    new_text: &str,
    config: CompareConfig,
) -> io::Result<Comparison> {
    let old = flatten_artifact(old_text)?;
    let new = flatten_artifact(new_text)?;
    Ok(compare_counters(&old, &new, config))
}
