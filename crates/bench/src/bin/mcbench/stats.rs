//! The metric catalogue and the sample statistics behind it.

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]` only.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a larger value is an improvement.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for ungated
    /// per-layer metrics.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// End-to-end metrics, reported by untraced runs. Must match
/// `BENCHMARK.json` (checked by a test).
///
/// The op tail is printed beside them but not gated: every op of a class
/// repeats identical work, so how far its slowest ops sit above the
/// median is set by the shared host's slow spells, not by the program
/// (see README.md).
pub const END_TO_END: &[Metric] = &[
    gated("op_p50_s", "s", false, 0.25),
    gated("pairs_per_s", "pairs/s", true, 0.25),
    gated("peak_rss_mb", "MB", false, 0.10),
    gated("setup_s", "s", false, 0.25),
];

/// Per-layer metrics, reported by traced runs. Each is a mean per
/// traced op (or a ratio of run totals); layers an op never enters read
/// 0. Must match `BENCHMARK.json` (checked by a test).
pub const PER_LAYER: &[Metric] = &[
    layer("netlist.parse_s", "s", false),
    layer("netlist.candidates_s", "s", false),
    layer("netlist.expand_s", "s", false),
    layer("netlist.slice_s", "s", false),
    layer("netlist.slice_builds", "count", false),
    layer("netlist.slice_nodes_mean", "count", false),
    layer("lint.admission_s", "s", false),
    layer("lint.static_s", "s", false),
    layer("sim.prefilter_s", "s", false),
    layer("sim.compile_s", "s", false),
    layer("sim.kernel_s", "s", false),
    layer("sim.residual_s", "s", false),
    layer("sim.words", "count", false),
    layer("sim.passes", "count", false),
    layer("sim.fused_ops", "count", false),
    layer("sim.drop_frac", "ratio", true),
    layer("core.group_s", "s", false),
    layer("core.groups", "count", false),
    layer("implication.engine_s", "s", false),
    layer("implication.classify_s", "s", false),
    layer("atpg.classify_s", "s", false),
    layer("atpg.search_frac", "ratio", false),
    layer("implication.implications", "count", false),
    layer("atpg.decisions", "count", false),
    layer("atpg.backtracks", "count", false),
    layer("atpg.aborts", "count", false),
    layer("schedule.balance", "ratio", true),
    layer("report.canonical_s", "s", false),
    layer("report.bytes", "bytes", false),
    layer("hazard.sens_s", "s", false),
    layer("hazard.cosens_s", "s", false),
    layer("hazard.sens_robust_frac", "ratio", true),
    layer("hazard.cosens_robust_frac", "ratio", true),
    layer("sdc.emit_s", "s", false),
    layer("eco.op_s", "s", false),
    layer("cache.warm_op_s", "s", false),
    layer("cas.get_s", "s", false),
    layer("cas.bytes", "bytes", false),
    layer("eco.reverified_frac", "ratio", false),
    layer("cache.prefilter_share", "ratio", false),
    layer("trace.unattributed_frac", "ratio", false),
    layer("trace.replay_gap_frac", "ratio", false),
];

/// Whether `name` is a legal metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive `values`; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// A tail sample: the highest percentile that still has `beyond`
/// samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Share of the samples at or below it, in percent.
    pub percentile: f64,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// Samples a tail estimate must have above it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `values` with at least [`TAIL_BEYOND`]
/// samples beyond it. With [`TAIL_BEYOND`] samples or fewer no
/// percentile qualifies; the maximum stands in, with `beyond` 0 so the
/// printout shows how little it rests on.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: v.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            beyond: 0,
        };
    }
    let rank = n - TAIL_BEYOND - 1;
    Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        beyond: TAIL_BEYOND,
    }
}

/// Relative change from `a` to `b`, as a share of `a`.
pub fn rel_change(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_the_rank_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(tail(&r), t);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 990.0);
        assert!((t.percentile - 99.0).abs() < 1e-9);
    }

    #[test]
    fn tail_with_few_samples() {
        // 11 samples: the minimum is the only rank with ten above it.
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.beyond), (0.0, 10));
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-9);
        // Ten or fewer: no percentile qualifies, the maximum stands in.
        for n in [1usize, 2, 10] {
            let v: Vec<f64> = (0..n).map(|k| k as f64).collect();
            let t = tail(&v);
            assert_eq!(t.value, (n - 1) as f64);
            assert_eq!(t.beyond, 0);
        }
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_weighs_every_value_alike() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5]) - 0.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        for bad in ["", "a b", "x/y", ".lead", "é", &"n".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be refused");
        }
        assert!(valid_name("sim.prefilter_s") && valid_name("0-x_y.z"));
    }

    #[test]
    fn end_to_end_bounds_are_within_the_contract() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics are gated");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
            assert!(
                b <= setup.bound.unwrap_or(0.0),
                "setup_s has the largest bound"
            );
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn relative_change_is_signed() {
        assert!((rel_change(2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((rel_change(2.0, 1.8) + 0.1).abs() < 1e-12);
        assert_eq!(rel_change(0.0, 0.0), 0.0);
    }
}
