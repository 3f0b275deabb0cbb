//! Property-based invariants of the pipeline and the hazard checks on
//! random circuits.

use mcp_core::{analyze, check_hazards, AnalyzeError, HazardCheck, McConfig};
use mcp_gen::random::{constant_heavy_netlist, random_netlist, RandomCircuitConfig};
use mcp_lint::{LintConfig, Registry};
use mcp_netlist::{bench, Netlist};
use mcp_sim::{mc_filter_stats, mc_filter_stats_seeded, FilterConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg_strategy() -> impl Strategy<Value = (u64, RandomCircuitConfig)> {
    (0u64..100_000, 1usize..6, 0usize..4, 2usize..35).prop_map(|(seed, ffs, pis, gates)| {
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

/// `.bench` text with its gate statements permuted among their own
/// lines; inputs, outputs, flip-flops and constants stay put.
fn shuffle_gates(text: &str, seed: u64) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let slots: Vec<usize> = (0..lines.len())
        .filter(|&i| {
            let l = lines[i];
            l.contains(" = ") && !l.contains("= DFF(") && !l.contains("= CONST(")
        })
        .collect();
    let mut gates: Vec<&str> = slots.iter().map(|&i| lines[i]).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..gates.len()).rev() {
        gates.swap(i, rng.random_range(0..=i));
    }
    for (&slot, gate) in slots.iter().zip(gates) {
        lines[slot] = gate;
    }
    lines.join("\n")
}

/// Seeding the kernel compiler with the constant lattice's base iterate
/// changes neither the prefilter's outcome nor its kernel: the
/// compiler's own folder derives every constant that iterate proves.
fn seed_is_a_no_op(nl: &Netlist) -> Result<(), proptest::test_runner::TestCaseError> {
    let pairs = nl.connected_ff_pairs();
    let cfg = FilterConfig::default();
    let base = mcp_lint::const_lattice(nl).base;
    let (plain, plain_stats) = mc_filter_stats(nl, &pairs, &cfg);
    let (seeded, seeded_stats) = mc_filter_stats_seeded(nl, &pairs, &cfg, &base);
    prop_assert_eq!(&seeded, &plain, "{}: outcome", nl.name());
    prop_assert_eq!(
        seeded_stats.fused_ops,
        plain_stats.fused_ops,
        "{}",
        nl.name()
    );
    Ok(())
}

#[test]
fn lattice_seed_changes_no_filter_run_on_the_suite_and_frozen_sinks() {
    let demos = [1, 4, 16, 64].map(mcp_gen::generators::frozen_sink_demo);
    for nl in mcp_gen::suite::standard_suite().iter().chain(&demos) {
        seed_is_a_no_op(nl).unwrap();
    }
}

/// The production prefilter on each suite circuit, in suite order,
/// pinned from the per-word pair scan that the once-per-pass scan
/// replaced: `(words_simulated, drops, survivors, passes, fused_ops,
/// digest)`. The digest is FNV-1a over every drop's `(src, dst, word)`,
/// every survivor and `ff_toggles`, in order, as little-endian `u64`s.
const SUITE_FILTER_PINS: [(u64, usize, usize, u64, u64, u64); 12] = [
    (129, 5, 6, 33, 594, 2186181457321952863),          // m27
    (129, 26, 13, 33, 2376, 17209465142600171287),      // m298
    (130, 54, 40, 33, 5082, 1571418902071583914),       // m526
    (373, 136, 74, 94, 32900, 13502446608737395810),    // m820
    (661, 159, 119, 166, 79348, 15089591525030213129),  // m1238
    (808, 206, 145, 202, 112716, 58553938391415070),    // m1423
    (1000, 615, 326, 250, 362500, 1187374087211151858), // m5378
    (625, 898, 499, 157, 315256, 8692736250255076311),  // m9234
    (2275, 1308, 742, 569, 1644410, 12831007394267275345), // m13207
    (1865, 1488, 874, 467, 1547638, 3308094735309159220), // m15850
    (2748, 3844, 1517, 687, 5126394, 9111541918076261908), // m35932
    (2206, 4494, 1948, 552, 4874160, 621263091316567004), // m38584
];

#[test]
fn production_prefilter_matches_its_pins_on_the_suite() {
    let suite = mcp_gen::suite::standard_suite();
    assert_eq!(suite.len(), SUITE_FILTER_PINS.len());
    for (nl, pin) in suite.iter().zip(SUITE_FILTER_PINS) {
        let pairs = nl.connected_ff_pairs();
        let (out, stats) = mc_filter_stats(nl, &pairs, &FilterConfig::default());
        let drops = out
            .drops
            .iter()
            .flat_map(|d| [d.src as u64, d.dst as u64, d.word]);
        let survivors = out
            .survivors
            .iter()
            .flat_map(|&(i, j)| [i as u64, j as u64]);
        let bytes: Vec<u8> = drops
            .chain(survivors)
            .chain(out.ff_toggles.iter().copied())
            .flat_map(u64::to_le_bytes)
            .collect();
        let got = (
            out.words_simulated,
            out.dropped(),
            out.survivors.len(),
            stats.passes,
            stats.fused_ops,
            mcp_obs::fnv1a(&bytes),
        );
        assert_eq!(got, pin, "{}", nl.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn lattice_seed_changes_no_filter_run_on_constant_heavy_netlists(
        (seed, cfg) in cfg_strategy(),
    ) {
        seed_is_a_no_op(&constant_heavy_netlist(seed, &cfg))?;
    }

    /// Gate ids follow the file, not the dependency order, and neither
    /// reader nor analysis depends on which.
    #[test]
    fn gate_statement_order_changes_no_reader_and_no_report(
        (seed, cfg) in cfg_strategy(),
        shuffle in any::<u64>(),
    ) {
        let nl = random_netlist(seed, &cfg);
        let ordered = bench::to_bench(&nl);
        let shuffled = shuffle_gates(&ordered, shuffle);
        let strict = bench::parse(nl.name(), &shuffled).expect("shuffled text parses");
        let loose = bench::parse_unchecked(nl.name(), &shuffled).expect("shuffled text reads");
        prop_assert_eq!(bench::to_bench(&strict), bench::to_bench(&loose));

        // At this limit nothing aborts, so every verdict is exact.
        let cfg = McConfig {
            backtrack_limit: 100_000,
            ..McConfig::default()
        };
        let canonical = |nl: &mcp_netlist::Netlist| {
            let report = analyze(nl, &cfg).expect("analyze");
            serde_json::to_string(&report.canonical()).expect("report serializes")
        };
        let dependency_ordered = bench::parse(nl.name(), &ordered).expect("ordered text parses");
        prop_assert_eq!(canonical(&strict), canonical(&dependency_ordered));
    }

    #[test]
    fn hazard_checks_partition_and_nest(
        (seed, cfg) in cfg_strategy(),
    ) {
        let nl = random_netlist(seed, &cfg);
        let report = analyze(
            &nl,
            &McConfig {
                backtrack_limit: 100_000,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        let mc = report.multi_cycle_pairs();
        let sens = check_hazards(&nl, &report, HazardCheck::Sensitization);
        let cosens = check_hazards(&nl, &report, HazardCheck::CoSensitization);

        for hz in [&sens, &cosens] {
            let mut union: Vec<_> = hz.robust.iter().chain(hz.demoted.iter()).copied().collect();
            union.sort_unstable();
            prop_assert_eq!(&union, &mc, "partition");
        }
        // Sensitization demotions nest inside co-sensitization demotions
        // (statically sensitizable ⇒ statically co-sensitizable).
        for pair in &sens.demoted {
            prop_assert!(
                cosens.demoted.contains(pair),
                "{:?} demoted by sens only",
                pair
            );
        }
    }

    #[test]
    fn analysis_is_deterministic(
        (seed, cfg) in cfg_strategy(),
    ) {
        let nl = random_netlist(seed, &cfg);
        let a = analyze(&nl, &McConfig::default()).expect("analyze");
        let b = analyze(&nl, &McConfig::default()).expect("analyze");
        prop_assert_eq!(a.pairs, b.pairs);
    }

    #[test]
    fn report_partitions_the_candidates(
        (seed, cfg) in cfg_strategy(),
    ) {
        let nl = random_netlist(seed, &cfg);
        let report = analyze(&nl, &McConfig::default()).expect("analyze");
        let mut all: Vec<(usize, usize)> = report
            .multi_cycle_pairs()
            .into_iter()
            .chain(report.single_cycle_pairs())
            .chain(report.unknown_pairs())
            .collect();
        all.sort_unstable();
        prop_assert_eq!(all, nl.connected_ff_pairs());
        prop_assert_eq!(report.stats.candidates, report.pairs.len());
        prop_assert_eq!(
            report.stats.multi_total()
                + report.stats.single_total()
                + report.stats.unknown,
            report.pairs.len()
        );
    }

    #[test]
    fn unknowns_never_contradict_the_sat_engine(
        (seed, cfg) in cfg_strategy(),
    ) {
        // With a starved backtrack budget the implication engine may give
        // up — but wherever it *does* answer, the complete SAT engine must
        // agree.
        let nl = random_netlist(seed, &cfg);
        let starved = analyze(
            &nl,
            &McConfig {
                backtrack_limit: 0,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        let sat = analyze(
            &nl,
            &McConfig {
                engine: mcp_core::Engine::Sat,
                ..McConfig::default()
            },
        )
        .expect("analyze");
        for p in &starved.pairs {
            let sat_class = sat.class_of(p.src, p.dst).expect("same candidates");
            match p.class {
                mcp_core::PairClass::Unknown => {}
                mcp_core::PairClass::MultiCycle { .. } => {
                    prop_assert!(sat_class.is_multi(), "({}, {})", p.src, p.dst);
                }
                mcp_core::PairClass::SingleCycle { .. } => {
                    prop_assert!(!sat_class.is_multi(), "({}, {})", p.src, p.dst);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Untrusted `.bench` text reaches the library through the permissive
    /// parser too. Statement soups — the parser fuzzer's token mix, plus
    /// lines over a small alphabet (inputs `a`, `b`; signals `c`..`f`)
    /// with wrong-arity NOT/BUFF/DFF lines, empty argument lists and
    /// stray CONST values — give every structural defect: lint must
    /// report it and `analyze` must refuse it with a typed error, never a
    /// panic.
    #[test]
    fn analyze_refuses_exactly_what_lint_reports_as_an_error(
        (noise, lines) in (
            proptest::collection::vec(
                prop_oneof![
                    "[A-Za-z][A-Za-z0-9]{0,4}",
                    "INPUT\\([A-Za-z][A-Za-z0-9]{0,3}\\)",
                    "OUTPUT\\([A-Za-z][A-Za-z0-9]{0,3}\\)",
                    "[A-Za-z][0-9]? = (AND|OR|NAND|NOR|XOR|NOT|BUFF|DFF|CONST)\\([A-Za-z0-9, ]{0,12}\\)",
                    "# [ -~]{0,20}",
                ],
                0..2,
            ),
            proptest::collection::vec(
                prop_oneof![
                    "OUTPUT\\([a-f]\\)",
                    "[c-f] = DFF\\([a-f]\\)",
                    "[c-f] = (AND|NAND|OR|NOR|XOR|XNOR|NOT|BUFF)\\([a-f]\\)",
                    "[c-f] = (AND|NAND|OR|NOR|XOR|XNOR)\\([a-f], [a-f]\\)",
                    "[c-f] = (NOT|BUFF|DFF)\\([a-f], [a-f]\\)",
                    "[c-f] = (AND|NOT|BUFF|DFF)\\(\\)",
                    "[c-f] = CONST\\([0-9]\\)",
                ],
                1..8,
            ),
        )
    ) {
        let src = ["INPUT(a)", "INPUT(b)"]
            .into_iter()
            .map(str::to_owned)
            .chain(lines)
            .chain(noise)
            .collect::<Vec<_>>()
            .join("\n");
        let Ok(nl) = bench::parse_unchecked("soup", &src) else {
            return Ok(());
        };
        let lint = Registry::with_default_rules().run(&nl, &LintConfig::default());
        match analyze(&nl, &McConfig::default()) {
            Err(AnalyzeError::CorruptNetlist { report }) => {
                prop_assert!(lint.has_errors(), "refused a netlist lint passes: {}", src);
                let errors = Registry::with_default_rules().run(&nl, &LintConfig::errors_only());
                prop_assert_eq!(report, errors);
            }
            Err(e) => prop_assert!(false, "{}: {}", src, e),
            Ok(_) => prop_assert!(!lint.has_errors(), "analyzed a netlist lint refuses: {}", src),
        }
    }
}

#[test]
fn circuits_without_ffs_produce_empty_reports() {
    let nl = bench::parse("comb", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)").expect("parse");
    let report = analyze(&nl, &McConfig::default()).expect("analyze");
    assert!(report.pairs.is_empty());
    assert_eq!(report.stats.candidates, 0);
    for check in [HazardCheck::Sensitization, HazardCheck::CoSensitization] {
        let hz = check_hazards(&nl, &report, check);
        assert!(hz.robust.is_empty() && hz.demoted.is_empty());
    }
}

#[test]
fn constant_driven_ffs_are_handled() {
    // An FF fed by a constant never changes: its self pair (if any) and
    // incoming pairs are trivially multi-cycle; an FF watching it can
    // never see a transition.
    let nl = bench::parse(
        "const",
        "OUTPUT(q2)\nc1 = CONST(1)\nq1 = DFF(c1)\nn = NOT(q1)\nq2 = DFF(n)",
    )
    .expect("parse");
    let report = analyze(&nl, &McConfig::default()).expect("analyze");
    // (q1, q2) is connected; q1 only transitions on the (unmodelled) first
    // cycle out of an arbitrary initial state — under the all-states
    // assumption q1 CAN hold 0 at t and 1 at t+1, after which q2 captures
    // the inverted value one cycle later: single-cycle.
    assert_eq!(report.class_of(0, 1).map(|c| c.is_multi()), Some(false));
}

#[test]
fn single_ff_self_loop_through_xor_constant() {
    // q = DFF(XOR(q, CONST(0))) is a hold register in disguise.
    let nl = bench::parse(
        "xor-hold",
        "OUTPUT(q)\nz = CONST(0)\nd = XOR(q, z)\nq = DFF(d)",
    )
    .expect("parse");
    let report = analyze(&nl, &McConfig::default()).expect("analyze");
    assert!(report.class_of(0, 0).expect("self pair").is_multi());
}
