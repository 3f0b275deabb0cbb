//! `mcbench`: the end-to-end and per-layer benchmark of multi-cycle path
//! analysis. Four seeded workloads (`suite`, `large`, `signoff`,
//! `incremental`) run from one process; every op's output is checked,
//! and every metric prints as `workload metric value unit`, followed by
//! one JSON line with the same numbers. See README.md beside this file.

mod check;
mod inputs;
mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::{Kind, Outcome, RunConfig, Sizing};

/// Measuring time per workload run, as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage: mcbench [--workload suite|large|signoff|incremental|all] \
                     [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH] [--sets 1|2]";

#[derive(Debug)]
struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    sets: u32,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        kinds: Kind::ALL.to_vec(),
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        sets: 1,
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.kinds = match v.as_str() {
                    "all" => Kind::ALL.to_vec(),
                    name => vec![Kind::parse(name).ok_or(format!("unknown workload `{name}`"))?],
                };
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|e| format!("bad `--seed {v}`: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad `--seconds {v}`"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad `--trace {v}`: expected 0 or 1")),
                };
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--sets" => {
                args.sets = match value()?.as_str() {
                    "1" => 1,
                    "2" => 2,
                    v => return Err(format!("bad `--sets {v}`: expected 1 or 2")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.trace_out.is_some() && !args.trace {
        return Err("`--trace-out` needs `--trace 1`".to_owned());
    }
    Ok(args)
}

/// The first `MCPATH_*` variable set in the environment, if any:
/// library defaults read several, and a benchmark run must not depend
/// on them.
fn mcpath_env() -> Option<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("MCPATH_"))
}

fn print_outcome(kind: Kind, out: &Outcome, args: &Args, cores: usize) {
    println!(
        "# workload={} seed={} cores={cores} threads={} sim_kernel={} trace={}",
        kind.name(),
        args.seed,
        out.threads,
        out.sim_kernel,
        u8::from(args.trace)
    );
    for (name, value, unit) in &out.metrics {
        println!("{} {name} {value} {unit}", kind.name());
    }
    for (name, value, unit) in &out.notes {
        println!("{} {name} {value} {unit}", kind.name());
    }
    for e in &out.errors {
        eprintln!("# FAIL {}: {e}", kind.name());
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Compares two sets' values of every metric; prints each pair with its
/// spread and returns how many gated metrics moved by more than their
/// bound.
///
/// With several workloads in one process, `peak_rss_mb` includes heap
/// that earlier workloads left allocated, so it depends on the order the
/// sets run in (reversed for the second) and is not compared.
fn stability(first: &[(Kind, Outcome)], second: &[(Kind, Outcome)]) -> usize {
    let mut disagreements = 0;
    for (kind, a) in first {
        let Some((_, b)) = second.iter().find(|(k, _)| k == kind) else {
            continue;
        };
        for ((name, v1, unit), (_, v2, _)) in a.metrics.iter().zip(&b.metrics) {
            let spread = stats::rel_change(*v1, *v2).abs();
            let metric = stats::END_TO_END.iter().find(|m| m.name == *name);
            let order_dependent = *name == "peak_rss_mb" && first.len() > 1;
            let verdict = match metric.and_then(|m| m.bound) {
                _ if order_dependent => "order-dependent",
                Some(b) if spread > b => {
                    disagreements += 1;
                    "DISAGREE"
                }
                Some(_) => "ok",
                None => "ungated",
            };
            let second = match metric {
                Some(_) if v2 == v1 => "same",
                Some(m) if (v2 > v1) == m.higher_is_better => "better",
                Some(_) => "worse",
                None => "-",
            };
            println!(
                "stability {} {name} {v1} {v2} {unit} spread {spread:.4} bound {} second-set {second} {verdict}",
                kind.name(),
                metric.and_then(|m| m.bound).map_or("-".to_owned(), |b| b.to_string())
            );
        }
    }
    disagreements
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = mcpath_env() {
        eprintln!(
            "error: {var} is set; the analysis library reads MCPATH_* variables \
             for its defaults, so unset them before benchmarking"
        );
        return ExitCode::from(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let rc = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizing: Sizing::Full,
        cores,
    };

    let mut sets: Vec<Vec<(Kind, Outcome)>> = Vec::new();
    for set in 0..args.sets {
        let mut order = args.kinds.clone();
        if set % 2 == 1 {
            order.reverse();
        }
        let mut results = Vec::new();
        for kind in order {
            let out = workloads::run(kind, &rc);
            print_outcome(kind, &out, &args, cores);
            results.push((kind, out));
        }
        sets.push(results);
    }

    let mut correct = true;
    if let [first, second] = &sets[..] {
        let disagreements = stability(first, second);
        if disagreements > 0 {
            eprintln!("# {disagreements} gated metric(s) disagree between the two sets");
            correct = false;
        }
    }
    if let Some(path) = &args.trace_out {
        let spans: Vec<_> = sets
            .iter()
            .flatten()
            .flat_map(|(_, o)| o.spans.clone())
            .collect();
        let written = serde_json::to_string(&mcp_obs::chrome_trace(&spans))
            .map_err(|e| e.to_string())
            .and_then(|text| std::fs::write(path, text).map_err(|e| e.to_string()));
        match written {
            Ok(()) => eprintln!("# wrote {} spans to {path}", spans.len()),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                correct = false;
            }
        }
    }

    let all = sets.iter().flatten();
    let attempted = all.clone().map(|(_, o)| o.attempted).sum();
    let failed: u64 = all.map(|(_, o)| o.failed).sum();
    correct &= failed == 0;
    let last = sets.last().map(Vec::as_slice).unwrap_or(&[]);
    let single = last.len() == 1;
    let metrics: Vec<(String, f64, &str)> = last
        .iter()
        .flat_map(|(kind, o)| {
            o.metrics.iter().map(move |(name, value, unit)| {
                let key = if single {
                    (*name).to_owned()
                } else {
                    format!("{}.{name}", kind.name())
                };
                (key, *value, *unit)
            })
        })
        .collect();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcp_core::analyze_with;
    use mcp_obs::ObsCtx;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_reject_typos() {
        let a = parse_args(argv("--workload large --seed 7 --seconds 3 --trace 1")).expect("parse");
        assert_eq!(a.kinds, vec![Kind::Large]);
        assert_eq!((a.seed, a.seconds, a.trace, a.sets), (7, 3.0, true, 1));
        let a = parse_args(argv("")).expect("defaults");
        assert_eq!(a.kinds, Kind::ALL.to_vec());
        assert_eq!(a.seconds, DEFAULT_SECONDS);
        for bad in [
            "--workload nope",
            "--seed",
            "--seconds -1",
            "--trace 2",
            "--sets 3",
            "--trace-out t.json",
            "--bogus",
        ] {
            assert!(parse_args(argv(bad)).is_err(), "{bad} must be refused");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 0, 0, &[("op_p50_s".to_owned(), 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"op_p50_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(serde_json::from_str_content(&line).is_ok());
    }

    fn field<'a>(map: &'a [(String, serde::Content)], key: &str) -> &'a serde::Content {
        &map.iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no `{key}`"))
            .1
    }

    fn text(c: &serde::Content) -> &str {
        match c {
            serde::Content::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn number(c: &serde::Content) -> f64 {
        match c {
            serde::Content::U64(n) => *n as f64,
            serde::Content::F64(x) => *x,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let doc = serde_json::from_str_content(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let root = doc.as_map().expect("an object");
        let keys: Vec<&str> = root.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(number(field(root, "run_seconds")), DEFAULT_SECONDS);
        let workloads: Vec<&str> = field(root, "workloads")
            .as_seq()
            .expect("a list")
            .iter()
            .map(|w| text(field(w.as_map().expect("an object"), "name")))
            .collect();
        let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, ours);
        for (key, table) in [
            ("end_to_end", stats::END_TO_END),
            ("per_layer", stats::PER_LAYER),
        ] {
            let listed = field(root, key).as_seq().expect("a list");
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, m) in listed.iter().zip(table) {
                let e = entry.as_map().expect("an object");
                assert_eq!(text(field(e, "name")), m.name);
                assert_eq!(text(field(e, "unit")), m.unit, "{}", m.name);
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(text(field(e, "better")), better, "{}", m.name);
                match m.bound {
                    Some(b) => assert_eq!(number(field(e, "bound")), b, "{}", m.name),
                    None => assert!(e.iter().all(|(k, _)| k != "bound"), "{}", m.name),
                }
            }
        }
    }

    fn smoke(kind: Kind, trace: bool) -> Outcome {
        let rc = RunConfig {
            seed: 1,
            seconds: 0.0,
            trace,
            sizing: Sizing::Tiny,
            cores: 2,
        };
        let out = workloads::run(kind, &rc);
        assert_eq!(out.failed, 0, "{}: {:?}", kind.name(), out.errors);
        assert!(out.attempted > 0);
        let table = if trace {
            stats::PER_LAYER
        } else {
            stats::END_TO_END
        };
        let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = table.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{}", kind.name());
        for (name, value, _) in &out.metrics {
            assert!(value.is_finite(), "{} {name} = {value}", kind.name());
        }
        out
    }

    fn metric(out: &Outcome, name: &str) -> f64 {
        out.metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .expect("metric")
    }

    #[test]
    fn every_workload_runs_tiny_ops_untraced() {
        for kind in Kind::ALL {
            let out = smoke(kind, false);
            for name in ["op_p50_s", "pairs_per_s", "setup_s"] {
                assert!(metric(&out, name) > 0.0, "{} {name}", kind.name());
            }
        }
    }

    #[test]
    fn every_workload_runs_tiny_ops_traced() {
        for kind in Kind::ALL {
            let out = smoke(kind, true);
            assert!(!out.spans.is_empty(), "{}", kind.name());
            let unattributed = metric(&out, "trace.unattributed_frac");
            assert!(
                (0.0..=0.1).contains(&unattributed),
                "{} {unattributed}",
                kind.name()
            );
        }
        let signoff = smoke(Kind::Signoff, true);
        assert!(metric(&signoff, "hazard.sens_s") > 0.0);
        let inc = smoke(Kind::Incremental, true);
        assert!(metric(&inc, "eco.op_s") > 0.0 && metric(&inc, "cache.warm_op_s") > 0.0);
    }

    #[test]
    fn replay_verdicts_equal_analyze_with_and_self_times_sum_to_wall() {
        let cfg = workloads::config(1);
        let mut trace = layers::Trace::new();
        for c in inputs::suite(&["m27", "m298", "m526", "m820", "m1238", "m1423"], 0) {
            let report = analyze_with(&c.netlist, &cfg, &ObsCtx::new()).expect("analyze");
            let path = trace.next_path("test");
            let totals = &mut trace.totals;
            let (verdicts, fin) = layers::traced_op(&trace.tracer, path.clone(), |op| {
                layers::replay_analysis(op, totals, &c.netlist, &cfg)
            });
            assert!(fin.wall > 0.0);
            trace.end(fin);
            assert_eq!(verdicts.expect("replay"), report.pairs, "{}", c.name);
            // Every span of the op sits under its root span.
            let mine = trace
                .kept
                .iter()
                .filter(|s| s.span.starts_with(&path))
                .count();
            assert!(mine > 1, "{}", c.name);
        }
        assert!(trace.kept.iter().all(|s| s.span.starts_with("test/op")));
        // Layer self-times add up to the ops' wall time within 5%. (A
        // microsecond-scale op alone can miss that by its fixed gaps.)
        let (gap, wall) = (trace.totals.get("_unattributed"), trace.totals.get("_wall"));
        assert!(
            gap >= 0.0 && gap <= 0.05 * wall,
            "{gap} of {wall} s unattributed"
        );
    }
}
