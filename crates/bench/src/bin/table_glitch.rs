//! Empirical validation of the static hazard checks (an extension beyond
//! the paper's evaluation): for every detected multi-cycle pair, sample
//! random scenarios and random gate-delay assignments in the
//! transport-delay simulator and observe whether the sink's D input
//! **dynamically glitches** across the clock edge.
//!
//! The theory predicts a strict ordering:
//!
//! * pairs kept by the **co-sensitization** check are robust under *any*
//!   delay assignment — observing a glitch on one would falsify the
//!   implementation (the harness exits non-zero);
//! * pairs demoted by the **sensitization** check have a demonstrably
//!   sensitizable glitch path — they should glitch readily under sampling;
//! * pairs in between (kept by sensitization, demoted by co-sensitization)
//!   may or may not glitch: sensitization is optimistic, co-sensitization
//!   conservative. The observed rate measures how loose each bound is on
//!   this workload.

use mcp_bench::{bench_artifact, HarnessArgs};
use mcp_core::{analyze, check_hazards, HazardCheck, McConfig};
use mcp_sim::sample_glitch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

const TRIALS_PER_PAIR: usize = 24;
const SAMPLE_WORDS: usize = 64;

#[derive(Debug, Serialize)]
struct GroupRow {
    group: &'static str,
    pairs: usize,
    pairs_with_observed_glitch: usize,
}

fn main() {
    let args = HarnessArgs::parse();
    // Fixed-seed sampling; the quick suite keeps the run short.
    let suite = if args.quick {
        mcp_gen::suite::quick_suite()
    } else {
        let mut s = mcp_gen::suite::quick_suite();
        s.push(mcp_gen::generators::composite(
            "m5378",
            &mcp_gen::generators::CompositeConfig {
                seed: 5378,
                datapaths: vec![(16, 3, 0, 6), (8, 4, 0, 9), (8, 2, 1, 2)],
                pipelines: vec![(8, 8), (4, 6)],
                glue_gates: 400,
                glue_regs: 20,
                ..Default::default()
            },
        ));
        s
    };

    let mut demoted_sens = (0usize, 0usize); // (pairs, glitched)
    let mut between = (0usize, 0usize);
    let mut robust = (0usize, 0usize);
    let mut violation = false;

    for nl in &suite {
        let report = analyze(nl, &McConfig::default()).expect("analysis succeeds");
        let sens = check_hazards(nl, &report, HazardCheck::Sensitization);
        let cosens = check_hazards(nl, &report, HazardCheck::CoSensitization);
        let mut rng = StdRng::seed_from_u64(0x611c_4a5e);
        for (i, j) in report.multi_cycle_pairs() {
            let glitched = sample_glitch(nl, i, j, TRIALS_PER_PAIR, SAMPLE_WORDS, &mut rng).is_ok();
            let group = if sens.demoted.contains(&(i, j)) {
                &mut demoted_sens
            } else if cosens.demoted.contains(&(i, j)) {
                &mut between
            } else {
                &mut robust
            };
            group.0 += 1;
            group.1 += usize::from(glitched);
            if glitched && cosens.robust.contains(&(i, j)) {
                eprintln!(
                    "VIOLATION: co-sensitization-robust pair ({i},{j}) in {} glitched",
                    nl.name()
                );
                violation = true;
            }
        }
    }

    println!("Dynamic glitch sampling vs static hazard verdicts");
    println!(
        "({} trials/pair, random transport delays 1..16)",
        TRIALS_PER_PAIR
    );
    println!("{:-<64}", "");
    println!("{:>34} {:>8} {:>12}", "group", "pairs", "glitched");
    println!("{:-<64}", "");
    let rows = [
        ("demoted by sensitization", demoted_sens),
        ("kept by sens, demoted by co-sens", between),
        ("robust under co-sensitization", robust),
    ];
    let mut json_rows = Vec::new();
    for (name, (pairs, glitched)) in rows {
        println!("{name:>34} {pairs:>8} {glitched:>12}");
        json_rows.push(GroupRow {
            group: name,
            pairs,
            pairs_with_observed_glitch: glitched,
        });
    }
    println!("{:-<64}", "");
    println!(
        "upper-bound check: {} (co-sensitization survivors must never glitch)",
        if violation { "FAILED" } else { "HOLDS" }
    );
    let artifact = bench_artifact("table_glitch", &json_rows);
    args.drift_gate(artifact.as_deref());
    if violation {
        std::process::exit(1);
    }
}
