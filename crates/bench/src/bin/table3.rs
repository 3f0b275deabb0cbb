//! Regenerates the paper's **Table 3**: the number of multi-cycle FF pairs
//! before static-hazard checking and after validation by the static
//! sensitization and static co-sensitization criteria, with the CPU time
//! of each check.
//!
//! The paper's qualitative finding: a noticeable fraction of MC-condition
//! pairs may carry hazards (co-sensitization keeps the fewest pairs, being
//! the safe upper-bound criterion; sensitization keeps more but its
//! survivors may depend on one another).

use mcp_bench::{bench_artifact, secs, HarnessArgs};
use mcp_core::{analyze, check_hazards, HazardCheck};
use serde::Serialize;
use std::time::Duration;

#[derive(Debug, Serialize)]
struct Table3 {
    mc_before: usize,
    mc_after_sensitize: usize,
    cpu_sensitize: f64,
    mc_after_cosensitize: usize,
    cpu_cosensitize: f64,
    lint_warnings: usize,
}

fn main() {
    let args = HarnessArgs::parse();
    let suite = args.suite();

    let mut before = 0usize;
    let mut after_sens = 0usize;
    let mut after_cosens = 0usize;
    let mut t_sens = Duration::ZERO;
    let mut t_cosens = Duration::ZERO;
    let mut lint_warnings = 0usize;

    for nl in &suite {
        lint_warnings += args.lint_warnings(nl);
        let report = analyze(nl, &args.mc_config()).expect("analysis succeeds");
        before += report.stats.multi_total();

        let sens = check_hazards(nl, &report, HazardCheck::Sensitization);
        after_sens += sens.robust.len();
        t_sens += sens.elapsed;

        let cosens = check_hazards(nl, &report, HazardCheck::CoSensitization);
        after_cosens += cosens.robust.len();
        t_cosens += cosens.elapsed;

        // Invariant from the theory: every sensitization-demoted pair is
        // also co-sensitization-demoted.
        assert!(
            after_cosens <= after_sens,
            "{}: co-sensitization must be at least as strict",
            nl.name()
        );
    }

    println!("Table 3: static hazard checking of detected multi-cycle pairs");
    println!("{:-<52}", "");
    println!("{:>14} {:>10} {:>12}", "", "MC-pair", "CPU(sec)");
    println!("{:-<52}", "");
    println!("{:>14} {:>10} {:>12}", "before", before, "-");
    println!(
        "{:>14} {:>10} {:>12}",
        "sensitize",
        after_sens,
        secs(t_sens)
    );
    println!(
        "{:>14} {:>10} {:>12}",
        "co-sensitize",
        after_cosens,
        secs(t_cosens)
    );
    println!("{:-<52}", "");
    println!(
        "\nsensitization keeps {:.0}% of MC pairs; co-sensitization keeps {:.0}%",
        100.0 * after_sens as f64 / before.max(1) as f64,
        100.0 * after_cosens as f64 / before.max(1) as f64,
    );
    println!("(paper, ISCAS89 totals: 9,065 -> 8,063 -> 5,712)");

    let rows = Table3 {
        mc_before: before,
        mc_after_sensitize: after_sens,
        cpu_sensitize: t_sens.as_secs_f64(),
        mc_after_cosensitize: after_cosens,
        cpu_cosensitize: t_cosens.as_secs_f64(),
        lint_warnings,
    };
    let artifact = bench_artifact("table3", &rows);
    args.drift_gate(artifact.as_deref());
}
