//! Table renderers shared by the report-producing subcommands: the
//! Table-2-style per-step breakdown, the engine-counter / span-timing
//! snapshot, the NDJSON journal aggregation and saved-report
//! pretty-printing.

use mcp_core::{McReport, StepStats};
use mcp_obs::{MetricsSnapshot, PairEvent};
use serde::{Content, Serialize as _};
use std::fmt::Write as _;
use std::time::Duration;

/// Formats a duration compactly for table cells.
pub(crate) fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{}us", d.as_micros())
    }
}

/// Renders [`StepStats`] as the paper's Table-2 layout: pairs resolved
/// and wall-clock per step. The pair-loop time covers implication and
/// search together (they interleave per pair), so it sits on the
/// `search` row.
pub(crate) fn render_step_table(s: &StepStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "per-step resolution ({} candidate pairs):",
        s.candidates
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>7} {:>8} {:>10} {:>12}",
        "step", "multi", "single", "unknown", "time", "throughput"
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>7} {:>8} {:>10} {:>12}",
        "structural",
        s.multi_by_static,
        0,
        0,
        fmt_dur(s.time_static),
        "-"
    );
    // The throughput cell names the kernel tier that produced it —
    // words/sec across tiers (jit vs interpreter) are not comparable.
    let sim_throughput = match s.sim_kernel {
        Some(k) => format!(
            "{} [{}]",
            fmt_words_per_sec(s.sim_words, s.time_sim),
            k.tag()
        ),
        None => fmt_words_per_sec(s.sim_words, s.time_sim),
    };
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>7} {:>8} {:>10} {:>12}",
        "random_sim",
        0,
        s.single_by_sim,
        0,
        fmt_dur(s.time_sim),
        sim_throughput
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>7} {:>8} {:>10} {:>12}",
        "implication", s.multi_by_implication, s.single_by_implication, 0, "-", "-"
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>7} {:>8} {:>10} {:>12}",
        "search",
        s.multi_by_atpg,
        s.single_by_atpg,
        s.unknown,
        fmt_dur(s.time_pairs),
        "-"
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>7} {:>8} {:>10} {:>12}",
        "prepare",
        "",
        "",
        "",
        fmt_dur(s.time_prepare),
        "-"
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>7} {:>8} {:>10} {:>12}",
        "total",
        s.multi_total(),
        s.single_total(),
        s.unknown,
        fmt_dur(s.time_total),
        "-"
    );
    out
}

/// `words` 64-pattern simulation words over `t` as a human unit
/// (`"1.2Mw/s"`), or `"-"` when either side is zero.
fn fmt_words_per_sec(words: u64, t: Duration) -> String {
    let secs = t.as_secs_f64();
    if words == 0 || secs <= 0.0 {
        return "-".to_string();
    }
    let wps = words as f64 / secs;
    if wps >= 1e6 {
        format!("{:.1}Mw/s", wps / 1e6)
    } else if wps >= 1e3 {
        format!("{:.1}kw/s", wps / 1e3)
    } else {
        format!("{wps:.0}w/s")
    }
}

/// Renders a [`MetricsSnapshot`]: the non-zero engine counters followed
/// by accumulated span timings.
pub(crate) fn render_snapshot(m: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let c = &m.counters;
    let _ = writeln!(out, "engine counters:");
    // The rows are the counters' own serialization, in field order, so a
    // counter added later cannot be left out.
    for (name, v) in c.to_content().as_map().unwrap_or_default() {
        if let Content::U64(v @ 1..) = v {
            let _ = writeln!(out, "  {name:<24} {v}");
        }
    }
    if c.bdd_cache_lookups != 0 {
        let _ = writeln!(
            out,
            "  {:<24} {:.1}%",
            "bdd_cache_hit_rate",
            c.bdd_cache_hit_rate() * 100.0
        );
    }
    if c.slice_builds != 0 {
        let _ = writeln!(
            out,
            "  {:<24} {:.1}",
            "slice_nodes_mean",
            c.slice_nodes_mean()
        );
    }
    let wps = m.sim_words_per_sec();
    if wps > 0.0 {
        let _ = writeln!(out, "  {:<24} {wps:.0}", "sim_words_per_sec");
    }
    if !m.spans.is_empty() {
        let _ = writeln!(out, "spans:");
        // The BTreeMap's lexicographic order visits parents before their
        // children, so the `/`-separated paths render as an indented
        // tree: each entry prints its final segment at a depth matching
        // its ancestry, with bare `name/` lines for ancestors that have
        // no span of their own.
        let mut prev: Vec<&str> = Vec::new();
        for (path, st) in &m.spans {
            let segs: Vec<&str> = path.split('/').collect();
            let shared = prev.iter().zip(&segs).take_while(|(a, b)| a == b).count();
            let ancestors = segs.iter().enumerate().take(segs.len() - 1).skip(shared);
            for (depth, seg) in ancestors {
                let _ = writeln!(out, "  {:pad$}{seg}/", "", pad = depth * 2);
            }
            let depth = segs.len() - 1;
            let mean = if st.count > 1 {
                format!("  mean {}", fmt_dur(st.mean()))
            } else {
                String::new()
            };
            let label = format!("{:pad$}{}", "", segs[depth], pad = depth * 2);
            let _ = writeln!(
                out,
                "  {label:<24} {:>10}  x{}{mean}",
                fmt_dur(st.total),
                st.count
            );
            prev = segs;
        }
    }
    out
}

/// Aggregates an NDJSON trace journal into a Table-2-style per-step
/// table plus an assignment-outcome histogram.
pub(crate) fn render_journal(events: &[PairEvent]) -> String {
    use std::collections::BTreeMap;
    #[derive(Default, Clone, Copy)]
    struct Row {
        multi: u64,
        single: u64,
        unknown: u64,
        micros: u64,
        /// Summed `slice_nodes` over the events that carried one.
        slice_nodes: u64,
        sliced_events: u64,
    }
    impl Row {
        /// Mean slice size over the sliced events, rendered `-` when the
        /// step never ran on a slice.
        fn slice_mean(&self) -> String {
            if self.sliced_events == 0 {
                "-".to_owned()
            } else {
                format!("{:.0}", self.slice_nodes as f64 / self.sliced_events as f64)
            }
        }
    }
    let mut steps: BTreeMap<&str, Row> = BTreeMap::new();
    let mut outcomes: BTreeMap<&str, u64> = BTreeMap::new();
    let mut kernels: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events {
        if let Some(k) = &e.kernel {
            *kernels.entry(k.as_str()).or_default() += 1;
        }
        let entry = steps.entry(e.step.as_str()).or_default();
        match e.class.as_str() {
            "multi" => entry.multi += 1,
            "single" => entry.single += 1,
            _ => entry.unknown += 1,
        }
        entry.micros += e.micros;
        if let Some(n) = e.slice_nodes {
            entry.slice_nodes += n;
            entry.sliced_events += 1;
        }
        for a in &e.assignments {
            *outcomes.entry(a.outcome.as_str()).or_default() += 1;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "trace journal: {} pair events", events.len());
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>7} {:>8} {:>10} {:>9}",
        "step", "multi", "single", "unknown", "time", "slice"
    );
    // Pipeline order first, then anything unexpected.
    let known = ["structural", "random_sim", "implication", "atpg"];
    let ordered = known
        .iter()
        .filter_map(|&k| steps.get_key_value(k))
        .chain(steps.iter().filter(|(k, _)| !known.contains(k)));
    let mut total = Row::default();
    for (step, &r) in ordered {
        total.multi += r.multi;
        total.single += r.single;
        total.unknown += r.unknown;
        total.micros += r.micros;
        total.slice_nodes += r.slice_nodes;
        total.sliced_events += r.sliced_events;
        let _ = writeln!(
            out,
            "  {:<12} {:>7} {:>7} {:>8} {:>10} {:>9}",
            step,
            r.multi,
            r.single,
            r.unknown,
            fmt_dur(Duration::from_micros(r.micros)),
            r.slice_mean()
        );
    }
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>7} {:>8} {:>10} {:>9}",
        "total",
        total.multi,
        total.single,
        total.unknown,
        fmt_dur(Duration::from_micros(total.micros)),
        total.slice_mean()
    );
    if !kernels.is_empty() {
        // Only sim-resolved events carry a kernel tag; cached splices
        // and structural verdicts stay untagged by design.
        let list: Vec<String> = kernels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "sim kernels: {}", list.join(" "));
    }
    if !outcomes.is_empty() {
        let list: Vec<String> = outcomes.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "assignment outcomes: {}", list.join(" "));
    }
    out
}

/// Pretty-prints a saved JSON artifact: either a full [`McReport`] (as
/// written by `--json`) or a bare [`MetricsSnapshot`].
pub(crate) fn render_saved_report(path: &str, text: &str) -> Result<String, String> {
    if let Ok(report) = serde_json::from_str::<McReport>(text) {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: saved report with {} pairs",
            report.circuit,
            report.pairs.len()
        );
        out.push_str(&render_step_table(&report.stats));
        out.push('\n');
        out.push_str(&render_snapshot(&report.metrics));
        Ok(out)
    } else if let Ok(snap) = serde_json::from_str::<MetricsSnapshot>(text) {
        Ok(render_snapshot(&snap))
    } else {
        Err(format!(
            "`{path}` is neither a saved analyze report nor a metrics snapshot"
        ))
    }
}
