//! Quantifies the paper's Section 3.1 remark: *"Note that while \[8\] takes
//! into account reachable states, \[9\] and our method assume that all the
//! states can be reachable. \[8\] may detect more multi-cycle paths than \[9\]
//! and ours."*
//!
//! For the circuits small enough for the symbolic engine, this harness
//! compares the multi-cycle pair count under the all-states assumption
//! (what the implication and SAT engines prove) against the count
//! restricted to states reachable from the all-zero reset — the extra
//! pairs are those whose violating scenarios are unreachable.

use mcp_bench::{bench_artifact, HarnessArgs};
use mcp_core::{analyze, Engine, McConfig};
use mcp_netlist::Netlist;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    circuit: String,
    ffs: usize,
    ff_pairs: usize,
    mc_all_states: usize,
    mc_reachable: usize,
    gained: usize,
}

/// Sized to the rows that are kept: the largest of their runs, m526's
/// all-states one, peaks at 716,191 nodes. m820 overflows even at
/// `1 << 22` and its row is skipped, so a larger limit only spends time
/// and memory on that overflow.
fn bdd_config(reachability: bool) -> McConfig {
    McConfig {
        engine: Engine::Bdd {
            node_limit: 1 << 20,
            reachability,
        },
        // The random-sim prefilter assumes all states reachable, so it
        // must be off for the reachability-restricted run; keep both runs
        // symmetric.
        use_sim_filter: false,
        ..McConfig::default()
    }
}

fn main() {
    let args = HarnessArgs::parse();

    // Small suite circuits plus controller-style machines where
    // reachability famously matters (one-hot rings, gated counters).
    let mut circuits: Vec<Netlist> = mcp_gen::suite::quick_suite().into_iter().take(4).collect();
    circuits.push(
        mcp_netlist::bench::parse(
            "ring4",
            "OUTPUT(R0)\nR0 = DFF(R3)\nR1 = DFF(R0)\nR2 = DFF(R1)\nR3 = DFF(R2)",
        )
        .expect("ring parses"),
    );
    circuits.push(mcp_gen::circuits::fig1());

    println!("Reachability-restricted symbolic analysis ([8]) vs all-states");
    println!("{:-<74}", "");
    println!(
        "{:>8} {:>5} {:>8} {:>14} {:>13} {:>8}",
        "circuit", "FF", "FF-pair", "MC(all states)", "MC(reachable)", "gained"
    );
    println!("{:-<74}", "");

    let mut rows = Vec::new();
    for nl in &circuits {
        let s = nl.stats();
        let all = analyze(nl, &bdd_config(false)).expect("analysis succeeds");
        // A row needs both runs complete, so the restricted run is
        // skipped once the all-states one has overflowed.
        let reach = (all.stats.unknown == 0)
            .then(|| analyze(nl, &bdd_config(true)).expect("analysis succeeds"))
            .filter(|reach| reach.stats.unknown == 0);
        let Some(reach) = reach else {
            println!("{:>8}  (BDD budget exceeded — skipped)", nl.name());
            continue;
        };
        // Soundness direction: restriction can only add multi-cycle pairs.
        for pair in all.multi_cycle_pairs() {
            assert!(
                reach.multi_cycle_pairs().contains(&pair),
                "{}: {pair:?} lost under restriction",
                nl.name()
            );
        }
        let gained = reach.stats.multi_total() - all.stats.multi_total();
        println!(
            "{:>8} {:>5} {:>8} {:>14} {:>13} {:>8}",
            nl.name(),
            s.ffs,
            all.pairs.len(),
            all.stats.multi_total(),
            reach.stats.multi_total(),
            gained,
        );
        rows.push(Row {
            circuit: nl.name().to_owned(),
            ffs: s.ffs,
            ff_pairs: all.pairs.len(),
            mc_all_states: all.stats.multi_total(),
            mc_reachable: reach.stats.multi_total(),
            gained,
        });
    }
    println!("{:-<74}", "");
    println!(
        "reachability restriction detects ⊇ pairs, at symbolic-traversal cost —\n\
         the trade the paper describes for [8]."
    );
    let artifact = bench_artifact("table_reach", &rows);
    args.drift_gate(artifact.as_deref());
}
