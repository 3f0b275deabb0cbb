//! Regenerates the paper's **Table 1**: per-circuit detection of
//! multi-cycle FF pairs without hazard checking — the implication-based
//! method ("ours") versus the conventional SAT-based method \[9\], plus an
//! optional BDD column (the method of \[8\]) on the circuits where it
//! completes within its node budget.
//!
//! Columns mirror the paper: `In`, `FF`, `FF-pair` (topologically
//! connected pairs), `MC-pair` and `CPU(sec)` per engine. Unlike the
//! paper, both engines run on the *same* machine and the same prefilters,
//! so the speed ratio is apples-to-apples.

use mcp_bench::{bench_artifact, secs, HarnessArgs};
use mcp_core::{analyze, Engine, McConfig};
use mcp_netlist::Expanded;
use mcp_obs::Tracer;
use mcp_sat::CircuitCnf;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    circuit: String,
    inputs: usize,
    ffs: usize,
    ff_pairs: usize,
    mc_pairs_ours: usize,
    cpu_ours: f64,
    mc_pairs_sat: usize,
    cpu_sat: f64,
    mc_pairs_bdd: Option<usize>,
    cpu_bdd: Option<f64>,
    unknown_ours: usize,
    lint_warnings: usize,
    /// Mean cone-slice size (expanded nodes) over the sink groups the SAT
    /// run encoded; 0 when slicing is off or nothing survived the filter.
    slice_nodes_mean: f64,
    /// Largest single slice the run built.
    slice_nodes_max: u64,
    /// CNF variables of the *whole-circuit* Tseitin template — what every
    /// pair paid per encode before cone slicing.
    sat_vars_template: usize,
    /// Mean CNF variables actually encoded per sink group with slicing.
    sat_vars_sliced_mean: f64,
    /// Pairs the dataflow pre-pass resolved before any simulation ran
    /// (sink FF provably frozen).
    static_resolved: usize,
    /// Prefilter word count with the pre-pass on / off — populated on the
    /// frozen-sink contrast row only; the paper-suite circuits run once,
    /// with the pass at its default (on).
    sim_words_static_on: Option<u64>,
    sim_words_static_off: Option<u64>,
}

fn main() {
    let args = HarnessArgs::parse();
    let suite = args.suite();

    println!("Table 1: multi-cycle FF pair detection (no hazard checking)");
    println!("{:-<100}", "");
    println!(
        "{:>8} {:>5} {:>5} {:>8} | {:>8} {:>9} | {:>8} {:>9} | {:>8} {:>9}",
        "circuit",
        "In",
        "FF",
        "FF-pair",
        "ours MC",
        "CPU(s)",
        "SAT MC",
        "CPU(s)",
        "BDD MC",
        "CPU(s)"
    );
    println!("{:-<100}", "");

    let mut rows = Vec::new();
    let mut total_pairs = 0usize;
    let mut total_mc = 0usize;
    // Per-engine wall-clock accumulates in a span log; `stop()` returns
    // each circuit's slice for the table row.
    let timers = Tracer::new();

    for nl in &suite {
        let s = nl.stats();
        let lint_warnings = args.lint_warnings(nl);

        let t = timers.span("ours");
        let ours = analyze(nl, &args.mc_config()).expect("analysis succeeds");
        let cpu_ours = t.stop();

        let t = timers.span("sat");
        let sat = analyze(
            nl,
            &McConfig {
                engine: Engine::Sat,
                ..args.mc_config()
            },
        )
        .expect("analysis succeeds");
        let cpu_sat = t.stop();

        // BDD baseline: only attempted on the smaller circuits; a modest
        // node budget reproduces the paper's observation that symbolic
        // traversal does not scale.
        let bdd = if s.ffs <= 80 {
            let t = timers.span("bdd");
            let r = analyze(
                nl,
                &McConfig {
                    engine: Engine::Bdd {
                        node_limit: 1 << 22,
                        reachability: false,
                    },
                    ..args.mc_config()
                },
            )
            .expect("analysis succeeds");
            let dt = t.stop();
            if r.stats.unknown == 0 {
                Some((r.stats.multi_total(), dt))
            } else {
                None // budget exceeded: "did not complete"
            }
        } else {
            None
        };

        assert_eq!(
            ours.multi_cycle_pairs(),
            sat.multi_cycle_pairs(),
            "{}: engines disagree",
            nl.name()
        );

        // Encode-work accounting: whole-circuit template cost vs the mean
        // sliced cost the SAT run actually paid (ISSUE 4 acceptance:
        // per-pair encoded vars drop ≥ 5x on the largest circuit).
        let cfg = args.mc_config();
        let sat_vars_template = CircuitCnf::new(&Expanded::build(nl, cfg.cycles))
            .solver()
            .num_vars();
        let sc = &sat.metrics.counters;

        total_pairs += s.ff_pairs;
        total_mc += ours.stats.multi_total();

        println!(
            "{:>8} {:>5} {:>5} {:>8} | {:>8} {:>9} | {:>8} {:>9} | {:>8} {:>9}",
            nl.name(),
            s.inputs,
            s.ffs,
            s.ff_pairs,
            ours.stats.multi_total(),
            secs(cpu_ours),
            sat.stats.multi_total(),
            secs(cpu_sat),
            bdd.map_or("-".to_owned(), |(mc, _)| mc.to_string()),
            bdd.map_or("-".to_owned(), |(_, dt)| secs(dt)),
        );

        rows.push(Row {
            circuit: nl.name().to_owned(),
            inputs: s.inputs,
            ffs: s.ffs,
            ff_pairs: s.ff_pairs,
            mc_pairs_ours: ours.stats.multi_total(),
            cpu_ours: cpu_ours.as_secs_f64(),
            mc_pairs_sat: sat.stats.multi_total(),
            cpu_sat: cpu_sat.as_secs_f64(),
            mc_pairs_bdd: bdd.map(|(mc, _)| mc),
            cpu_bdd: bdd.map(|(_, dt)| dt.as_secs_f64()),
            unknown_ours: ours.stats.unknown,
            lint_warnings,
            slice_nodes_mean: sc.slice_nodes_mean(),
            slice_nodes_max: sc.slice_nodes_peak,
            sat_vars_template,
            sat_vars_sliced_mean: sc.slice_vars_mean(),
            static_resolved: ours.stats.multi_by_static,
            sim_words_static_on: None,
            sim_words_static_off: None,
        });
    }

    let total_ours = timers.total("ours");
    let total_sat = timers.total("sat");
    println!("{:-<100}", "");
    println!(
        "{:>8} {:>5} {:>5} {:>8} | {:>8} {:>9} | {:>8} {:>9} |",
        "Total",
        "",
        "",
        total_pairs,
        total_mc,
        secs(total_ours),
        "",
        secs(total_sat),
    );
    println!(
        "\nMC-pair fraction: {:.1}% of connected pairs; SAT/ours CPU ratio: {:.1}x",
        100.0 * total_mc as f64 / total_pairs.max(1) as f64,
        total_sat.as_secs_f64() / total_ours.as_secs_f64().max(1e-9),
    );
    if let Some(r) = rows
        .iter()
        .filter(|r| r.sat_vars_sliced_mean > 0.0)
        .max_by_key(|r| r.ffs)
    {
        println!(
            "Slicing on {}: mean slice {:.0} nodes (max {}), SAT encode \
             {:.0} vars/group vs {} whole-circuit ({:.1}x reduction)",
            r.circuit,
            r.slice_nodes_mean,
            r.slice_nodes_max,
            r.sat_vars_sliced_mean,
            r.sat_vars_template,
            r.sat_vars_template as f64 / r.sat_vars_sliced_mean.max(1.0),
        );
    }

    // Static-classification contrast: a circuit with a tied-off debug
    // block whose capture FFs are provably frozen. The dataflow pre-pass
    // resolves every (core, debug) pair before a single pattern is
    // simulated; with the pass off those pairs can never be dropped, so
    // the prefilter only stops on its idle-words budget. The canonical
    // verdicts must be byte-identical either way — only the work differs.
    let demo = mcp_gen::generators::frozen_sink_demo(64);
    let s = demo.stats();
    let t = timers.span("static_demo");
    let on = analyze(&demo, &args.mc_config()).expect("analysis succeeds");
    let cpu_on = t.stop();
    let off = analyze(
        &demo,
        &McConfig {
            static_classify: false,
            ..args.mc_config()
        },
    )
    .expect("analysis succeeds");
    assert_eq!(
        serde_json::to_string(&on.canonical()).expect("serialize"),
        serde_json::to_string(&off.canonical()).expect("serialize"),
        "{}: static pre-pass changed the canonical report",
        demo.name()
    );
    assert!(
        on.stats.sim_words < off.stats.sim_words,
        "{}: expected the pre-pass to reduce prefilter words ({} vs {})",
        demo.name(),
        on.stats.sim_words,
        off.stats.sim_words
    );
    println!(
        "\nStatic pre-pass on {}: {} of {} pairs resolved before simulation; \
         prefilter words {} vs {} with the pass off ({:.1}x reduction)",
        demo.name(),
        on.stats.multi_by_static,
        on.stats.candidates,
        on.stats.sim_words,
        off.stats.sim_words,
        off.stats.sim_words as f64 / (on.stats.sim_words as f64).max(1.0),
    );
    rows.push(Row {
        circuit: demo.name().to_owned(),
        inputs: s.inputs,
        ffs: s.ffs,
        ff_pairs: s.ff_pairs,
        mc_pairs_ours: on.stats.multi_total(),
        cpu_ours: cpu_on.as_secs_f64(),
        mc_pairs_sat: off.stats.multi_total(),
        cpu_sat: 0.0,
        mc_pairs_bdd: None,
        cpu_bdd: None,
        unknown_ours: on.stats.unknown,
        lint_warnings: args.lint_warnings(&demo),
        slice_nodes_mean: 0.0,
        slice_nodes_max: 0,
        sat_vars_template: 0,
        sat_vars_sliced_mean: 0.0,
        static_resolved: on.stats.multi_by_static,
        sim_words_static_on: Some(on.stats.sim_words),
        sim_words_static_off: Some(off.stats.sim_words),
    });

    let artifact = bench_artifact("table1", &rows);
    args.drift_gate(artifact.as_deref());
}
