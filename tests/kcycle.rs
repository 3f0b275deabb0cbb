//! Integration tests for the k-cycle extension (Section 4.1).

use mcpath::core::{analyze, max_cycle_budgets, CycleBudget, Engine, McConfig};
use mcpath::gen::generators::{gated_datapath, DatapathConfig};

fn datapath_pair(latency: u64, counter_bits: usize) -> (mcpath::netlist::Netlist, usize, usize) {
    let nl = gated_datapath(&DatapathConfig {
        width: 2,
        counter_bits,
        load_phase: 0,
        capture_phase: latency,
    });
    let a = nl
        .ff_index(nl.find_node("D0_A0").expect("node"))
        .expect("ff");
    let b = nl
        .ff_index(nl.find_node("D0_B0").expect("node"))
        .expect("ff");
    (nl, a, b)
}

#[test]
fn staircase_for_latency_three() {
    let (nl, a, b) = datapath_pair(3, 2);
    for (k, expect) in [(2u32, true), (3, true), (4, false)] {
        let r = analyze(
            &nl,
            &McConfig {
                cycles: k,
                backtrack_limit: 100_000,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        assert_eq!(
            r.class_of(a, b).map(|c| c.is_multi()),
            Some(expect),
            "k={k}"
        );
    }
}

#[test]
fn staircase_for_latency_six_with_eight_phase_counter() {
    let (nl, a, b) = datapath_pair(6, 3);
    for k in 2..=7u32 {
        let r = analyze(
            &nl,
            &McConfig {
                cycles: k,
                backtrack_limit: 100_000,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        assert_eq!(
            r.class_of(a, b).map(|c| c.is_multi()),
            Some(u64::from(k) <= 6),
            "k={k}"
        );
    }
}

#[test]
fn sat_engine_agrees_on_k_cycle_verdicts() {
    let (nl, a, b) = datapath_pair(5, 3);
    for k in 2..=6u32 {
        let imp = analyze(
            &nl,
            &McConfig {
                cycles: k,
                backtrack_limit: 100_000,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        let sat = analyze(
            &nl,
            &McConfig {
                cycles: k,
                engine: Engine::Sat,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        assert_eq!(
            imp.class_of(a, b).map(|c| c.is_multi()),
            sat.class_of(a, b).map(|c| c.is_multi()),
            "k={k}"
        );
        assert_eq!(imp.multi_cycle_pairs(), sat.multi_cycle_pairs(), "k={k}");
    }
}

#[test]
fn larger_budgets_only_shrink_the_multicycle_set() {
    // A k-cycle pair is also a (k-1)-cycle pair: the verified sets must be
    // monotonically shrinking in k.
    let (nl, _, _) = datapath_pair(3, 2);
    let mut prev: Option<Vec<(usize, usize)>> = None;
    for k in 2..=5u32 {
        let r = analyze(
            &nl,
            &McConfig {
                cycles: k,
                backtrack_limit: 100_000,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        let multi = r.multi_cycle_pairs();
        if let Some(prev) = &prev {
            for pair in &multi {
                assert!(
                    prev.contains(pair),
                    "pair {pair:?} multi at k={k} but not at k={}",
                    k - 1
                );
            }
        }
        prev = Some(multi);
    }
}

#[test]
fn self_hold_pairs_are_k_cycle_for_every_k() {
    // A register that only ever holds is k-cycle for any budget.
    let nl = mcpath::netlist::bench::parse("hold", "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = BUFF(q)")
        .expect("parse");
    for k in 2..=6u32 {
        let r = analyze(
            &nl,
            &McConfig {
                cycles: k,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        assert!(r.class_of(0, 0).expect("pair exists").is_multi(), "k={k}");
    }
}

#[test]
fn verified_budgets_hold_in_analyze_at_the_same_backtrack_limit() {
    // At a starved backtrack limit some searches abort. A budget verified
    // through `v` must then still be proved: the pair is multi-cycle in
    // `analyze`, at the same limit, for every `k <= v`.
    let nl = mcpath::gen::suite::quick_suite()
        .into_iter()
        .find(|nl| nl.name() == "m820")
        .expect("m820 is in the quick suite");
    for backtrack_limit in [1u64, 5] {
        let cfg = |cycles| McConfig {
            cycles,
            backtrack_limit,
            ..McConfig::default()
        };
        let reports: Vec<_> = (2..=5u32)
            .map(|k| analyze(&nl, &cfg(k)).expect("analyze"))
            .collect();
        let budgets = max_cycle_budgets(&nl, &reports[0].multi_cycle_pairs(), 5, &cfg(2))
            .expect("valid limit");
        for ((i, j), budget) in budgets {
            let verified = match budget {
                CycleBudget::Exact { verified } => verified,
                CycleBudget::AtLeast { at_least } => at_least,
                CycleBudget::SingleCycle | CycleBudget::Unknown => continue,
            };
            for k in 2..=verified {
                let class = reports[k as usize - 2].class_of(i, j);
                assert!(
                    class.is_some_and(|c| c.is_multi()),
                    "backtracks {backtrack_limit}: ({i}, {j}) verified through {verified}, \
                     but {class:?} at k={k}"
                );
            }
        }
    }
}
