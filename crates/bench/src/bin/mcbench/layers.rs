//! Per-layer tracing: a replay of `analyze_with`'s stage order through
//! public calls, with one span around each call.
//!
//! Spans are named `<workload>/op<N>/<layer>`, so the path gives the
//! parent and the op id, and go to an `mcp_obs::Tracer` that keeps them
//! in memory until the run writes them out. Layer times are measured
//! beside the spans; whatever part of an op's wall time no layer claims
//! is reported as `trace.unattributed_frac`.

use mcp_atpg::SearchConfig;
use mcp_core::engines::{classify_pair_implication_probed, PairProbe, Verdict};
use mcp_core::{analyze_with, McConfig, PairClass, PairResult, Step};
use mcp_implication::ImpEngine;
use mcp_netlist::{Expanded, Netlist, NodeKind, XId};
use mcp_obs::{MemSink, ObsCtx, SpanEvent, Tracer};
use mcp_sim::{mc_filter_stats_seeded, FusedSim, FusedTape, JitKernel, JitSim, Tape};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Run-wide sums from which the per-layer metrics are derived. Keys are
/// metric names, or `_`-prefixed helper totals (denominators).
#[derive(Debug, Default)]
pub struct Totals(BTreeMap<&'static str, f64>);

impl Totals {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_default() += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// A traced run's state: the tracer, the totals, and the spans kept for
/// the Chrome trace (the first round's only, to bound memory).
pub struct Trace {
    pub tracer: Tracer,
    pub totals: Totals,
    pub kept: Vec<SpanEvent>,
    pub keep: bool,
    next_op: u64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            tracer: Tracer::new(),
            totals: Totals::default(),
            kept: Vec::new(),
            keep: true,
            next_op: 0,
        }
    }

    /// The span path of the next traced op of `workload`; pass it to
    /// [`traced_op`] with this trace's tracer.
    pub fn next_path(&mut self, workload: &str) -> String {
        self.next_op += 1;
        format!("{workload}/op{}", self.next_op)
    }

    /// Folds a finished op into the totals and collects its spans.
    pub fn end(&mut self, op: Finished) {
        for (name, secs) in op.layers {
            self.totals.add(name, secs);
        }
        self.totals.add("_wall", op.wall);
        self.totals.add("_unattributed", op.wall - op.attributed);
        let spans = self.tracer.drain();
        if self.keep {
            self.kept.extend(spans);
        }
    }
}

/// A finished op: its wall time and layer times.
pub struct Finished {
    pub wall: f64,
    layers: Vec<(&'static str, f64)>,
    attributed: f64,
}

impl Finished {
    /// Seconds the op spent in layer `name`.
    pub fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }
}

/// Runs `f` as one traced op under a root span at `path` (from
/// [`Trace::next_path`]); fold the result into the trace with
/// [`Trace::end`].
pub fn traced_op<T>(
    tracer: &Tracer,
    path: String,
    f: impl FnOnce(&mut OpTrace<'_>) -> T,
) -> (T, Finished) {
    let root = tracer.span(path.clone());
    let mut op = OpTrace {
        tracer,
        path,
        start: Instant::now(),
        layers: Vec::new(),
        attributed: 0.0,
    };
    let out = f(&mut op);
    let wall = op.start.elapsed().as_secs_f64();
    root.stop();
    let fin = Finished {
        wall,
        layers: op.layers,
        attributed: op.attributed,
    };
    (out, fin)
}

/// One traced op in progress.
pub struct OpTrace<'t> {
    tracer: &'t Tracer,
    path: String,
    start: Instant,
    layers: Vec<(&'static str, f64)>,
    attributed: f64,
}

impl OpTrace<'_> {
    /// Runs `f` as layer `name` (a metric name ending in `_s`).
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = self.span(name.trim_end_matches("_s"), f);
        self.attribute(name, secs);
        out
    }

    /// Runs `f` under a span that no layer owns; its time is claimed
    /// through [`attribute`](Self::attribute) by measurements taken
    /// inside it.
    pub fn container<T>(&mut self, label: &str, f: impl FnOnce() -> T) -> T {
        self.span(label, f).0
    }

    /// Credits `secs` measured inside a container to layer `name`.
    pub fn attribute(&mut self, name: &'static str, secs: f64) {
        self.layers.push((name, secs));
        self.attributed += secs;
    }

    /// Runs `f` under a span; the returned seconds include the span's own
    /// bookkeeping, so tracing cost lands in the layer it traces rather
    /// than in the gaps (`trace.replay_gap_frac` reports it as a whole).
    fn span<T>(&mut self, label: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let guard = self.tracer.span(format!("{}/{label}", self.path));
        let out = f();
        guard.stop();
        (out, t.elapsed().as_secs_f64())
    }
}

fn has_consts(nl: &Netlist) -> bool {
    nl.nodes()
        .any(|(_, n)| matches!(n.kind(), NodeKind::Const(_)))
}

/// A sink group: the survivors sharing one sink FF.
struct Group {
    sink: usize,
    sources: Vec<usize>,
    cost: u64,
}

fn group_roots(x: &Expanded, g: &Group, cycles: u32) -> Vec<XId> {
    let mut roots: Vec<XId> = g
        .sources
        .iter()
        .flat_map(|&i| [x.ff_at(i, 0), x.ff_at(i, 1)])
        .chain((1..=cycles).map(|m| x.ff_at(g.sink, m)))
        .collect();
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// The pipeline's sink-group plan: group by sink, cost each group by
/// its cone size boosted by source toggle activity, hardest first.
fn plan_groups(
    x: &Expanded,
    survivors: &[(usize, usize)],
    toggles: &[u64],
    cycles: u32,
) -> Vec<Group> {
    let mut by_sink: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &(i, j) in survivors {
        by_sink.entry(j).or_default().push(i);
    }
    let mut groups: Vec<Group> = by_sink
        .into_iter()
        .map(|(sink, mut sources)| {
            sources.sort_unstable();
            sources.dedup();
            let mut g = Group {
                sink,
                sources,
                cost: 0,
            };
            let cone = x.cone_of(&group_roots(x, &g, cycles)).len() as u64;
            let busiest = g.sources.iter().map(|&i| toggles[i]).max().unwrap_or(0);
            g.cost = cone * (1 + busiest.min(7));
            g
        })
        .collect();
    groups.sort_unstable_by_key(|g| (std::cmp::Reverse(g.cost), g.sink));
    groups
}

fn class_of(v: Verdict) -> PairClass {
    match v {
        Verdict::Multi { by } => PairClass::MultiCycle { by },
        Verdict::Single { by } => PairClass::SingleCycle { by },
        Verdict::Unknown => PairClass::Unknown,
    }
}

/// Replays `analyze_with(nl, cfg)` at one thread, stage by stage, and
/// returns its verdicts sorted by pair. The caller compares them with
/// the untraced run's.
pub fn replay_analysis(
    op: &mut OpTrace<'_>,
    totals: &mut Totals,
    nl: &Netlist,
    cfg: &McConfig,
) -> Result<Vec<PairResult>, String> {
    let lint = op.layer("lint.admission_s", || {
        mcp_lint::Registry::with_default_rules().run(nl, &mcp_lint::LintConfig::errors_only())
    });
    if lint.has_errors() {
        return Err(format!("{}: replay lint found errors", nl.name()));
    }
    let mut candidates = op.layer("netlist.candidates_s", || {
        let mut c = nl.connected_ff_pairs();
        if !cfg.include_self_pairs {
            c.retain(|&(i, j)| i != j);
        }
        c
    });
    let mut structural: Vec<PairResult> = Vec::new();
    let mut consts = Vec::new();
    if cfg.static_classify && !candidates.is_empty() && has_consts(nl) {
        consts = op.layer("lint.static_s", || {
            let lattice = mcp_lint::const_lattice(nl);
            let frozen: Vec<bool> = (0..nl.num_ffs())
                .map(|j| lattice.base[nl.ff_d_input(j).index()].is_definite())
                .collect();
            candidates.retain(|&(i, j)| {
                if frozen[j] {
                    structural.push(PairResult {
                        src: i,
                        dst: j,
                        class: PairClass::MultiCycle {
                            by: Step::Structural,
                        },
                    });
                }
                !frozen[j]
            });
            lattice.base
        });
    }
    let (out, fstats) = op.layer("sim.prefilter_s", || {
        mc_filter_stats_seeded(nl, &candidates, &cfg.sim, &consts)
    });
    totals.add("sim.words", out.words_simulated as f64);
    totals.add("sim.passes", fstats.passes as f64);
    totals.add("sim.fused_ops", fstats.fused_ops as f64);
    totals.add("_sim_in", candidates.len() as f64);
    totals.add("_sim_dropped", out.drops.len() as f64);

    let x = op.layer("netlist.expand_s", || Expanded::build(nl, cfg.cycles));
    let groups = op.layer("core.group_s", || {
        plan_groups(&x, &out.survivors, &out.ff_toggles, cfg.cycles)
    });
    totals.add("core.groups", groups.len() as f64);
    let mut verdicts = Vec::with_capacity(out.survivors.len());
    let mut work = EngineWork::start(cfg.backtrack_limit);
    for g in &groups {
        let label = format!("engine.group/sink{}", g.sink);
        op.container(&label, || work.run_group(&x, g, cfg.cycles, &mut verdicts));
    }
    work.finish(op, totals);

    // Freeing is part of each stage's cost: credit it to the stage that
    // allocated, not to the gaps between layers.
    op.layer("netlist.expand_s", || drop(x));
    op.layer("core.group_s", || drop(groups));
    op.layer("netlist.candidates_s", || drop(candidates));
    let drops = op.layer("sim.prefilter_s", || {
        let drops = out.drops;
        drop((out.survivors, out.ff_toggles, consts));
        drops
    });
    Ok(op.layer("report.canonical_s", || {
        let mut results = structural;
        results.extend(drops.iter().map(|d| PairResult {
            src: d.src,
            dst: d.dst,
            class: PairClass::SingleCycle {
                by: Step::RandomSim,
            },
        }));
        results.extend(verdicts);
        results.sort_unstable_by_key(|p| (p.src, p.dst));
        results
    }))
}

/// Engine work of one op's sink groups, timed back to back from one
/// instant to the next, so that every moment from the first group's slice
/// to the last verdict (span bookkeeping included) is credited to a layer.
struct EngineWork {
    search: SearchConfig,
    last: Instant,
    slice_s: f64,
    engine_s: f64,
    implication_s: f64,
    atpg_s: f64,
    slices: u64,
    slice_nodes: u64,
    engine_pairs: u64,
    search_pairs: u64,
    decisions: u64,
    backtracks: u64,
    aborts: u64,
    implications: u64,
}

impl EngineWork {
    fn start(backtrack_limit: u64) -> EngineWork {
        EngineWork {
            search: SearchConfig { backtrack_limit },
            last: Instant::now(),
            slice_s: 0.0,
            engine_s: 0.0,
            implication_s: 0.0,
            atpg_s: 0.0,
            slices: 0,
            slice_nodes: 0,
            engine_pairs: 0,
            search_pairs: 0,
            decisions: 0,
            backtracks: 0,
            aborts: 0,
            implications: 0,
        }
    }

    /// Seconds since the previous mark.
    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let secs = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        secs
    }

    /// The pipeline's per-group engine step: slice, engine, then each
    /// source through implication (and the search where needed). A pair
    /// that made any search decision is credited to ATPG.
    fn run_group(&mut self, x: &Expanded, g: &Group, cycles: u32, out: &mut Vec<PairResult>) {
        let slice = x.build_slice(&group_roots(x, g, cycles));
        self.slice_s += self.lap();
        let mut eng = ImpEngine::new(slice.model());
        let base = eng.implications();
        self.engine_s += self.lap();
        self.slices += 1;
        self.slice_nodes += slice.num_nodes() as u64;
        for &i in &g.sources {
            let mut probe = PairProbe::default();
            let v = classify_pair_implication_probed(
                &mut eng,
                i,
                g.sink,
                cycles,
                &self.search,
                &mut probe,
            );
            out.push(PairResult {
                src: i,
                dst: g.sink,
                class: class_of(v),
            });
            if probe.decisions > 0 {
                self.atpg_s += self.lap();
                self.search_pairs += 1;
            } else {
                self.implication_s += self.lap();
            }
            self.engine_pairs += 1;
            self.decisions += probe.decisions;
            self.backtracks += probe.backtracks;
            self.aborts += probe.aborts;
        }
        self.implications += eng.implications() - base;
        drop(eng);
        drop(slice);
        self.engine_s += self.lap();
    }

    fn finish(mut self, op: &mut OpTrace<'_>, totals: &mut Totals) {
        self.engine_s += self.lap();
        op.attribute("netlist.slice_s", self.slice_s);
        op.attribute("implication.engine_s", self.engine_s);
        op.attribute("implication.classify_s", self.implication_s);
        op.attribute("atpg.classify_s", self.atpg_s);
        for (key, n) in [
            ("netlist.slice_builds", self.slices),
            ("_slice_nodes", self.slice_nodes),
            ("_engine_pairs", self.engine_pairs),
            ("_search_pairs", self.search_pairs),
            ("atpg.decisions", self.decisions),
            ("atpg.backtracks", self.backtracks),
            ("atpg.aborts", self.aborts),
            ("implication.implications", self.implications),
        ] {
            totals.add(key, n as f64);
        }
    }
}

/// Splits the prefilter's kernel work out of its wall time: the compile
/// chain (tape, lowering, native code) timed once, and `passes` replays
/// of the 256-lane kernel's eval/clock/eval, outside any traced op.
/// Returns `(compile_s, kernel_s)`.
pub fn sim_split(nl: &Netlist, cfg: &McConfig, passes: u64) -> (f64, f64) {
    assert_eq!(cfg.sim.lanes, 256, "the kernel replay runs 4-word batches");
    let lattice = (cfg.static_classify && has_consts(nl)).then(|| mcp_lint::const_lattice(nl));
    let consts = lattice.as_ref().map_or(&[][..], |l| &l.base[..]);
    let t = Instant::now();
    let tape = Tape::compile_with_consts(nl, consts);
    let fused = FusedTape::lower(&tape);
    let kernel = JitKernel::compile::<4>(&fused);
    let compile_s = t.elapsed().as_secs_f64();
    drop(kernel);
    let kernel_s = match JitSim::<4>::new(&fused) {
        Some(mut sim) => time_passes(passes, || {
            sim.eval();
            sim.clock();
            sim.eval();
        }),
        None => {
            let mut sim = FusedSim::<4>::new(&fused);
            time_passes(passes, || {
                sim.eval();
                sim.clock();
                sim.eval();
            })
        }
    };
    (compile_s, kernel_s)
}

fn time_passes(passes: u64, mut pass: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..passes {
        pass();
    }
    t.elapsed().as_secs_f64()
}

/// Minimum over maximum worker busy time of one `analyze_with` run at
/// `cfg.threads`, from the pipeline's own `analyze/pairs/worker` spans.
pub fn balance(nl: &Netlist, cfg: &McConfig) -> Result<f64, String> {
    let sink = Arc::new(MemSink::new());
    let obs = ObsCtx::new().with_sink(Box::new(Arc::clone(&sink)));
    analyze_with(nl, cfg, &obs).map_err(|e| format!("{}: {e}", nl.name()))?;
    let busy: Vec<u64> = sink
        .drain_spans()
        .iter()
        .filter(|s| s.span == "analyze/pairs/worker")
        .map(|s| s.dur_us.max(1))
        .collect();
    let (Some(lo), Some(hi)) = (busy.iter().min(), busy.iter().max()) else {
        return Ok(1.0);
    };
    Ok(*lo as f64 / *hi as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run of `ops` ops.
pub fn per_layer(t: &Totals, ops: f64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for metric in crate::stats::PER_LAYER {
        let v = match metric.name {
            "netlist.slice_nodes_mean" => {
                ratio(t.get("_slice_nodes"), t.get("netlist.slice_builds"))
            }
            "sim.residual_s" => ratio(
                (t.get("_split_prefilter") - t.get("sim.compile_s") - t.get("sim.kernel_s"))
                    .max(0.0),
                ops,
            ),
            "sim.drop_frac" => ratio(t.get("_sim_dropped"), t.get("_sim_in")),
            "atpg.search_frac" => ratio(t.get("_search_pairs"), t.get("_engine_pairs")),
            "schedule.balance" => {
                if t.get("_balance_runs") > 0.0 {
                    t.get("_balance") / t.get("_balance_runs")
                } else {
                    1.0
                }
            }
            "hazard.sens_robust_frac" => ratio(t.get("_sens_robust"), t.get("_hazard_multi")),
            "hazard.cosens_robust_frac" => ratio(t.get("_cosens_robust"), t.get("_hazard_multi")),
            "eco.op_s" | "cas.bytes" => ratio(t.get(metric.name), t.get("_eco_ops")),
            "cache.warm_op_s" => ratio(t.get(metric.name), t.get("_warm_ops")),
            "cas.get_s" => ratio(t.get(metric.name), t.get("_gets")),
            "eco.reverified_frac" => ratio(
                t.get("_eco_reverified"),
                t.get("_eco_reverified") + t.get("_eco_spliced"),
            ),
            "cache.prefilter_share" => ratio(t.get("_warm_sim"), t.get("_warm_wall")),
            "trace.unattributed_frac" => ratio(t.get("_unattributed"), t.get("_wall")),
            "trace.replay_gap_frac" => ratio(
                t.get("_replay_wall") - t.get("_untraced_wall"),
                t.get("_untraced_wall"),
            ),
            name => ratio(t.get(name), ops),
        };
        m.insert(metric.name, v);
    }
    m
}
