//! Per-pair maximal cycle-budget computation.
//!
//! The k-cycle extension (paper Section 4.1) asks a per-`k` question; a
//! timing flow usually wants the answer the other way around: *how many
//! cycles can this pair be given?* [`max_cycle_budgets`] answers it
//! with one expansion at the limit and one scenario sweep per pair,
//! finding for each `(FFi(t), FFj(t+1))` assignment the earliest sink
//! time that can differ and taking the minimum — instead of re-running
//! the whole analysis per `k` as a naive sweep would.

use crate::config::McConfig;
use crate::pipeline::AnalyzeError;
use crate::schedule::run_items;
use mcp_atpg::{search, SearchConfig, SearchOutcome};
use mcp_implication::ImpEngine;
use mcp_netlist::{Expanded, Netlist};
use mcp_obs::ObsCtx;

/// The verified cycle budget of one FF pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleBudget {
    /// The pair is single-cycle: some pattern needs the hop in one cycle.
    SingleCycle,
    /// The sink provably holds for `verified` cycles after a source
    /// transition, and a violating pattern exists at `verified + 1`.
    Exact {
        /// The maximal verified budget (≥ 2).
        verified: u32,
    },
    /// The sink provably holds through the search limit; the true budget
    /// is `at_least` or more (possibly unbounded, e.g. hold registers).
    AtLeast {
        /// The limit up to which the budget was verified.
        at_least: u32,
    },
    /// A search hit its backtrack limit at a sink time below the earliest
    /// violation (or with none found), so no budget is verified.
    Unknown,
}

/// A pair list with each pair's verified budget, sorted by pair.
pub type PairBudgets = Vec<((usize, usize), CycleBudget)>;

/// Computes the maximal verified cycle budget of each pair of a list,
/// searching sink times up to `limit` (the expansion uses `limit`
/// frames): one shared expansion, and the per-pair sweeps distributed
/// over `cfg.threads` workers in list order (each worker owns an
/// engine; the sweep fully restores engine state between pairs, so
/// results are independent of which worker handles which pair).
/// Results come back sorted by pair, making the output deterministic
/// for any thread count.
///
/// # Errors
///
/// Returns [`AnalyzeError::InvalidCycles`] when `limit < 2`.
///
/// # Panics
///
/// Panics if any pair index is out of range for `netlist`.
pub fn max_cycle_budgets(
    netlist: &Netlist,
    pairs: &[(usize, usize)],
    limit: u32,
    cfg: &McConfig,
) -> Result<PairBudgets, AnalyzeError> {
    if limit < 2 {
        return Err(AnalyzeError::InvalidCycles { got: limit });
    }
    let x = Expanded::build(netlist, limit);
    let search_cfg = SearchConfig {
        backtrack_limit: cfg.backtrack_limit,
    };
    let obs = ObsCtx::new();
    let (mut out, _busy) = run_items(pairs, cfg.threads, &obs, "kcycle/pairs", |feed, out| {
        let mut eng = ImpEngine::new(&x);
        for &(i, j) in feed {
            out.push((
                (i, j),
                budget_for_pair(&mut eng, &x, i, j, limit, &search_cfg),
            ));
        }
    });
    out.sort_unstable_by_key(|&(p, _)| p);
    Ok(out)
}

/// The scenario sweep for one pair on a caller-provided engine over a
/// caller-provided expansion. The engine is checkpointed and fully
/// restored, so repeated calls (in any order) are independent.
fn budget_for_pair(
    eng: &mut ImpEngine<'_>,
    x: &Expanded,
    i: usize,
    j: usize,
    limit: u32,
    search_cfg: &SearchConfig,
) -> CycleBudget {
    // For each scenario, the earliest m in 2..=limit where the sink can
    // differ from FFj(t+1); the pair's budget is (min over scenarios) - 1,
    // verified only if no search aborted below that m.
    let mut earliest_violation: Option<u32> = None;
    let mut earliest_abort: Option<u32> = None;

    for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
        let cp = eng.checkpoint();
        let premise_ok = eng
            .assign(x.ff_at(i, 0), a)
            .and_then(|()| eng.assign(x.ff_at(i, 1), !a))
            .and_then(|()| eng.assign(x.ff_at(j, 1), b))
            .and_then(|()| eng.propagate())
            .is_ok();
        if !premise_ok {
            eng.backtrack(cp);
            continue;
        }
        // Sink times past a violation or an abort cannot change the verdict.
        let scan_to = earliest_violation
            .into_iter()
            .chain(earliest_abort)
            .fold(limit, u32::min);
        for m in 2..=scan_to {
            let cp2 = eng.checkpoint();
            let ok = eng
                .assign(x.ff_at(j, m), !b)
                .and_then(|()| eng.propagate())
                .is_ok();
            if !ok {
                eng.backtrack(cp2);
                continue;
            }
            let (outcome, _) = search(eng, search_cfg);
            eng.backtrack(cp2);
            match outcome {
                SearchOutcome::Sat(_) => {
                    earliest_violation = Some(m);
                    break; // later m in this scenario cannot improve the min
                }
                SearchOutcome::Unsat => {}
                SearchOutcome::Aborted => {
                    earliest_abort = Some(m);
                    break;
                }
            }
        }
        eng.backtrack(cp);
        if earliest_violation == Some(2) {
            break; // cannot get worse
        }
    }

    match (earliest_violation, earliest_abort) {
        (Some(2), _) => CycleBudget::SingleCycle,
        (Some(m), abort) if abort.is_none_or(|a| a >= m) => CycleBudget::Exact { verified: m - 1 },
        (None, None) => CycleBudget::AtLeast { at_least: limit },
        _ => CycleBudget::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcp_gen::generators::{gated_datapath, DatapathConfig};

    fn cfg() -> McConfig {
        McConfig {
            backtrack_limit: 100_000,
            ..McConfig::default()
        }
    }

    /// The budget of one pair, through the batch entry point.
    fn max_cycle_budget(nl: &Netlist, i: usize, j: usize, limit: u32) -> CycleBudget {
        let budgets = max_cycle_budgets(nl, &[(i, j)], limit, &cfg()).expect("valid limit");
        budgets[0].1
    }

    #[test]
    fn datapath_budgets_equal_their_latency() {
        for latency in [2u64, 3, 5, 6] {
            let nl = gated_datapath(&DatapathConfig {
                width: 1,
                counter_bits: 3,
                load_phase: 0,
                capture_phase: latency,
            });
            let a = nl.ff_index(nl.find_node("D0_A0").unwrap()).unwrap();
            let b = nl.ff_index(nl.find_node("D0_B0").unwrap()).unwrap();
            let budget = max_cycle_budget(&nl, a, b, 8);
            assert_eq!(
                budget,
                CycleBudget::Exact {
                    verified: latency as u32
                },
                "latency {latency}"
            );
        }
    }

    #[test]
    fn hold_register_budget_is_unbounded() {
        let nl = mcp_netlist::bench::parse("hold", "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = BUFF(q)")
            .expect("parse");
        let budget = max_cycle_budget(&nl, 0, 0, 6);
        assert_eq!(budget, CycleBudget::AtLeast { at_least: 6 });
    }

    #[test]
    fn toggle_register_is_single_cycle() {
        let nl = mcp_netlist::bench::parse("toggle", "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = NOT(q)")
            .expect("parse");
        let budget = max_cycle_budget(&nl, 0, 0, 4);
        assert_eq!(budget, CycleBudget::SingleCycle);
    }

    #[test]
    fn budget_agrees_with_per_k_analysis() {
        use crate::{analyze, McConfig};
        let nl = gated_datapath(&DatapathConfig {
            width: 2,
            counter_bits: 2,
            load_phase: 1,
            capture_phase: 0,
        });
        let a = nl.ff_index(nl.find_node("D0_A0").unwrap()).unwrap();
        let b = nl.ff_index(nl.find_node("D0_B0").unwrap()).unwrap();
        let budget = max_cycle_budget(&nl, a, b, 6);
        let CycleBudget::Exact { verified } = budget else {
            panic!("expected exact budget, got {budget:?}");
        };
        for k in 2..=verified + 1 {
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
                Some(k <= verified),
                "k={k}"
            );
        }
    }

    #[test]
    fn invalid_limit_is_rejected() {
        let nl = mcp_gen::circuits::fig1();
        assert!(max_cycle_budgets(&nl, &[(0, 1)], 1, &cfg()).is_err());
    }

    #[test]
    fn batch_budgets_match_single_pair_calls_at_any_thread_count() {
        let nl = mcp_gen::circuits::fig1();
        let pairs = nl.connected_ff_pairs();
        let mut expected: Vec<((usize, usize), CycleBudget)> = pairs
            .iter()
            .map(|&(i, j)| ((i, j), max_cycle_budget(&nl, i, j, 6)))
            .collect();
        expected.sort_unstable_by_key(|&(p, _)| p);
        for threads in [1usize, 2, 8] {
            let got = max_cycle_budgets(&nl, &pairs, 6, &McConfig { threads, ..cfg() })
                .expect("valid limit");
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn batch_budgets_on_no_pairs_is_a_clean_no_op() {
        let nl = mcp_gen::circuits::fig1();
        let got = max_cycle_budgets(
            &nl,
            &[],
            6,
            &McConfig {
                threads: 8,
                ..cfg()
            },
        )
        .expect("valid limit");
        assert!(got.is_empty());
    }
}
