//! Property: ECO-incremental re-analysis is indistinguishable from a
//! cold full analysis of the edited netlist.
//!
//! Random circuits get a random single edit — a gate-op swap inside the
//! {AND, OR, NAND, NOR} family, a flip-flop whose D input moves to
//! another node, a dangling tap that touches zero sink groups, or no
//! edit at all — and the spliced ECO report must be byte-identical
//! (canonical form) to a cold analysis of the edited netlist.

use mcp_core::{analyze_cached_with, analyze_eco_with, analyze_with, CasStore, McConfig};
use mcp_gen::random::{random_netlist, RandomCircuitConfig};
use mcp_netlist::{bench, Netlist};
use mcp_obs::ObsCtx;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tempdir(case: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mcpath-eco-props-{}-{case}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

static CASE: AtomicUsize = AtomicUsize::new(0);

/// The edit shapes the property exercises.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// Swap one gate's op within {AND, OR, NAND, NOR}.
    SwapGate,
    /// Point one flip-flop's D input at another node: the flip-flop's
    /// values after `t` become the new D input's expansion nodes.
    RewireDff,
    /// Append `eco_tap = NOT(<node>)` + `OUTPUT(eco_tap)`: a real netlist
    /// change that intersects zero flip-flop cones.
    DanglingTap,
    /// No change: every group must splice.
    Identity,
}

const SWAPS: [(&str, &str); 4] = [
    ("= AND(", "= OR("),
    ("= OR(", "= AND("),
    ("= NAND(", "= NOR("),
    ("= NOR(", "= NAND("),
];

/// Applies `edit` to `old` through the bench text, the way an ECO lands
/// on disk. Falls back to `DanglingTap` when no gate is swappable.
fn apply_edit(old: &Netlist, edit: Edit, pick: usize) -> (Netlist, Edit) {
    let text = bench::to_bench(old);
    match edit {
        Edit::Identity => (reparse(old, &text), Edit::Identity),
        Edit::SwapGate => {
            let lines: Vec<&str> = text.lines().collect();
            let candidates: Vec<usize> = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| SWAPS.iter().any(|(from, _)| l.contains(from)))
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                return apply_edit(old, Edit::DanglingTap, pick);
            }
            let target = candidates[pick % candidates.len()];
            let patched: Vec<String> = lines
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    if i == target {
                        let (from, to) = SWAPS
                            .iter()
                            .find(|(from, _)| l.contains(from))
                            .expect("candidate line has a swappable op");
                        l.replace(from, to)
                    } else {
                        (*l).to_owned()
                    }
                })
                .collect();
            (reparse(old, &patched.join("\n")), Edit::SwapGate)
        }
        Edit::RewireDff => {
            let lines: Vec<&str> = text.lines().collect();
            let dffs: Vec<usize> = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.contains(" = DFF("))
                .map(|(i, _)| i)
                .collect();
            if dffs.is_empty() {
                return apply_edit(old, Edit::DanglingTap, pick);
            }
            let target = dffs[pick % dffs.len()];
            let (ff, rest) = lines[target].split_once(" = DFF(").expect("a DFF line");
            let d_input = rest.trim_end_matches(')');
            let names: Vec<&str> = old
                .nodes()
                .map(|(_, n)| n.name())
                .filter(|&n| n != d_input)
                .collect();
            let rewired = format!("{ff} = DFF({})", names[pick % names.len()]);
            let mut patched: Vec<&str> = lines.clone();
            patched[target] = &rewired;
            (reparse(old, &patched.join("\n")), Edit::RewireDff)
        }
        Edit::DanglingTap => {
            let source = text
                .lines()
                .find_map(|l| l.split(" = ").next().filter(|_| l.contains(" = ")))
                .map(str::trim)
                .expect("circuit has at least one driven node")
                .to_owned();
            let patched = format!("{text}\neco_tap = NOT({source})\nOUTPUT(eco_tap)\n");
            (reparse(old, &patched), Edit::DanglingTap)
        }
    }
}

fn reparse(old: &Netlist, text: &str) -> Netlist {
    bench::parse(old.name(), text).expect("edited bench text parses")
}

fn canon(report: &mcp_core::McReport) -> String {
    serde_json::to_string(&report.canonical()).expect("serialize")
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    (0usize..4).prop_map(|n| match n {
        0 => Edit::SwapGate,
        1 => Edit::RewireDff,
        2 => Edit::DanglingTap,
        _ => Edit::Identity,
    })
}

fn cfg_strategy() -> impl Strategy<Value = (u64, RandomCircuitConfig)> {
    (0u64..100_000, 1usize..5, 0usize..4, 4usize..28).prop_map(|(seed, ffs, pis, gates)| {
        (
            seed,
            RandomCircuitConfig {
                ffs,
                pis,
                gates,
                max_arity: 3,
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eco_reanalysis_equals_cold_full_analysis(
        (seed, gen_cfg) in cfg_strategy(),
        edit in edit_strategy(),
        pick in 0usize..64,
        sim in 0usize..2,
    ) {
        let old = random_netlist(seed, &gen_cfg);
        let (new, applied) = apply_edit(&old, edit, pick);
        // Without the prefilter every pair reaches the engines, so a
        // stale spliced engine verdict cannot hide behind a fresh drop.
        let cfg = McConfig {
            backtrack_limit: 100_000,
            use_sim_filter: sim == 1,
            ..McConfig::default()
        };

        let dir = tempdir(CASE.fetch_add(1, Ordering::Relaxed));
        std::fs::remove_dir_all(&dir).ok();
        let store = CasStore::open(&dir).expect("open store");
        analyze_cached_with(&old, &cfg, &ObsCtx::new(), &store).expect("seed baseline");

        let (eco, summary) =
            analyze_eco_with(&old, &new, &cfg, &ObsCtx::new(), &store).expect("eco");
        let cold = analyze_with(&new, &cfg, &ObsCtx::new()).expect("cold");
        prop_assert_eq!(
            canon(&eco),
            canon(&cold),
            "ECO splice diverged from the cold run ({:?})",
            applied
        );

        prop_assert!(!summary.full_run, "default config must splice: {:?}", summary);
        match applied {
            // A dangling tap intersects no flip-flop cone: nothing to
            // re-verify, every group splices.
            Edit::DanglingTap => {
                prop_assert!(summary.changed_nodes > 0, "{:?}", summary);
                prop_assert_eq!(summary.groups_reverified, 0, "{:?}", summary);
                prop_assert_eq!(summary.pairs_reverified, 0, "{:?}", summary);
            }
            Edit::Identity => {
                prop_assert_eq!(summary.changed_nodes, 0, "{:?}", summary);
                prop_assert_eq!(summary.removed_nodes, 0, "{:?}", summary);
                prop_assert_eq!(summary.groups_reverified, 0, "{:?}", summary);
            }
            Edit::SwapGate | Edit::RewireDff => {
                prop_assert!(summary.changed_nodes > 0, "{:?}", summary);
            }
        }
        prop_assert_eq!(
            summary.groups_total,
            summary.groups_reverified + summary.groups_spliced,
            "{:?}",
            summary
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
