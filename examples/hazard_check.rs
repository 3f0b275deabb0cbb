//! Static-hazard validation: the paper's Section 5 on Fig.3 and Fig.4.
//!
//! Shows that the MC condition alone can be optimistic: pair `(FF3, FF2)`
//! of the technology-mapped circuit satisfies the condition, yet the `EN2`
//! transition can glitch through the two legs of the decomposed
//! multiplexer and reach `FF2`'s D input — if one AND is slow, the relaxed
//! timing constraint is violated. Both delay-independent checks (static
//! sensitization and static co-sensitization) demote the pair; the Fig.4
//! fragment then shows where the two criteria disagree.
//!
//! Run with: `cargo run --release --example hazard_check`

use mcpath::core::{analyze, check_hazards, HazardCheck, McConfig};
use mcpath::gen::circuits;
use mcpath::logic::V3;

fn main() {
    let netlist = circuits::fig3();
    let name_of = |ff: usize| netlist.node(netlist.dffs()[ff]).name().to_owned();

    let report = analyze(&netlist, &McConfig::default()).expect("fig3 analysis succeeds");
    println!(
        "`{}`: {} multi-cycle pairs by the MC condition:",
        netlist.name(),
        report.multi_cycle_pairs().len()
    );
    for (i, j) in report.multi_cycle_pairs() {
        println!("  ({}, {})", name_of(i), name_of(j));
    }

    for check in [HazardCheck::Sensitization, HazardCheck::CoSensitization] {
        let hz = check_hazards(&netlist, &report, check);
        println!("\n{check:?} check:");
        println!(
            "  robust  : {:?}",
            hz.robust
                .iter()
                .map(|&(i, j)| format!("({},{})", name_of(i), name_of(j)))
                .collect::<Vec<_>>()
        );
        println!(
            "  demoted : {:?}",
            hz.demoted
                .iter()
                .map(|&(i, j)| format!("({},{})", name_of(i), name_of(j)))
                .collect::<Vec<_>>()
        );
        assert!(
            hz.demoted.contains(&(2, 1)),
            "(FF3, FF2) must be demoted — the paper's Fig.3 hazard"
        );
    }
    println!(
        "\n(FF3, FF2) satisfies the MC condition but is demoted by both \
         checks: a glitch\nfrom the EN2 transition can race through MUX2's \
         AND legs into FF2 — exactly\nthe paper's Fig.3 scenario. ✓"
    );

    // Fig.4: where the two criteria part ways.
    let frag = circuits::fig4_fragment();
    let mut v1 = vec![V3::X; frag.num_nodes()];
    // A falls to 0; side input B settles at the AND's controlling 0.
    for name in ["QA", "QB", "C"] {
        v1[frag.find_node(name).expect("node").index()] = V3::Zero;
    }

    let qa = frag
        .ff_index(frag.find_node("QA").expect("node"))
        .expect("ff");
    let qc = frag
        .ff_index(frag.find_node("QC").expect("node"))
        .expect("ff");
    let sens =
        mcpath::core::hazard::glitch_path_exists(&frag, qa, qc, &v1, HazardCheck::Sensitization);
    let cosens =
        mcpath::core::hazard::glitch_path_exists(&frag, qa, qc, &v1, HazardCheck::CoSensitization);
    println!(
        "\nFig.4 fragment (A transitions, side input B settled controlling):\n  \
         statically sensitizable path: {sens}\n  statically co-sensitizable path: {cosens}"
    );
    assert!(!sens && cosens);
    println!(
        "sensitization misses the hazard (B blocks it — but only if B's own \
         timing\nconstraint stays tight: the dependency problem); \
         co-sensitization flags it. ✓"
    );
}
