//! Regenerates the paper's Section 4.1 **k-cycle extension** experiment:
//! "this algorithm ... can be easily extended to detect k-cycle FF pairs
//! (k = 3, 4, ...) by increasing the number of time frames".
//!
//! For counter-gated datapaths with known transfer latency `L` (load phase
//! to capture phase), the source→sink pairs must be classified k-cycle for
//! every `k ≤ L` and single-cycle-at-k for `k > L` — a sharp, fully
//! predictable staircase that validates the multi-frame expansion, plus
//! timing to show the cost of extra frames.

use mcp_bench::{bench_artifact, secs, HarnessArgs};
use mcp_core::{analyze, McConfig};
use mcp_gen::generators::{gated_datapath, DatapathConfig};
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Row {
    latency: u64,
    k: u32,
    expected_multi: bool,
    observed_multi: bool,
    cpu: f64,
}

fn main() {
    let args = HarnessArgs::parse();

    println!("k-cycle detection vs datapath transfer latency");
    println!("{:-<64}", "");
    println!(
        "{:>8} {:>4} {:>16} {:>16} {:>10}",
        "latency", "k", "expected", "observed", "CPU(s)"
    );
    println!("{:-<64}", "");

    let mut rows = Vec::new();
    let mut all_ok = true;

    for latency in [2u64, 3, 5, 7] {
        // An 8-phase counter, load at 0, capture at `latency`.
        let nl = gated_datapath(&DatapathConfig {
            width: 4,
            counter_bits: 3,
            load_phase: 0,
            capture_phase: latency,
        });
        let a0 = nl
            .ff_index(nl.find_node("D0_A0").expect("node"))
            .expect("ff");
        let b0 = nl
            .ff_index(nl.find_node("D0_B0").expect("node"))
            .expect("ff");

        for k in 2..=(latency as u32 + 1) {
            let t = Instant::now();
            let report = analyze(
                &nl,
                &McConfig {
                    cycles: k,
                    backtrack_limit: 100_000,
                    ..McConfig::default()
                },
            )
            .expect("analysis succeeds");
            let cpu = t.elapsed();
            let observed = report
                .class_of(a0, b0)
                .map(|c| c.is_multi())
                .unwrap_or(false);
            let expected = u64::from(k) <= latency;
            all_ok &= observed == expected;

            println!(
                "{:>8} {:>4} {:>16} {:>16} {:>10}",
                latency,
                k,
                if expected { "k-cycle" } else { "violating" },
                if observed { "k-cycle" } else { "violating" },
                secs(cpu),
            );
            rows.push(Row {
                latency,
                k,
                expected_multi: expected,
                observed_multi: observed,
                cpu: cpu.as_secs_f64(),
            });
        }
        println!();
    }

    println!("{:-<64}", "");
    println!(
        "staircase {}",
        if all_ok { "REPRODUCED" } else { "MISMATCH" }
    );
    let artifact = bench_artifact("table_kcycle", &rows);
    args.drift_gate(artifact.as_deref());
    if !all_ok {
        std::process::exit(1);
    }
}
