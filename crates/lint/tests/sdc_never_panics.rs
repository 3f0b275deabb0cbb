//! Property: SDC validation never panics, whatever the text.
//!
//! SDC is an untrusted input: a hand-edited or foreign constraint file
//! must come back as typed diagnostics, never as a crash. Each case
//! validates a few `set_multicycle_path` lines against a small netlist:
//! multipliers at the `u32` edges (0, 1, 2, `u32::MAX`) or anywhere in
//! between, `-setup` and `-hold`, cell names that are FFs, non-FF nodes
//! or unknown, and lines with a token dropped or duplicated. Names come
//! from a small pool so setup/hold pairs collide often enough to reach
//! the companion and duplicate checks.

use mcp_gen::circuits;
use mcp_lint::validate_sdc;
use proptest::prelude::*;

/// Every rule `validate_sdc` may report.
const RULES: [&str; 5] = [
    "sdc-syntax",
    "sdc-unknown-cell",
    "sdc-no-path",
    "sdc-unverified-pair",
    "sdc-hold-mismatch",
];

/// One generated line: multiplier, setup or hold, `-from`/`-to` name
/// picks, and a token edit `(kind, position)` — 0 keeps the line intact,
/// 1 drops the token at `position`, 2 duplicates it.
type LineSpec = ((u8, u32), bool, usize, usize, (u8, usize));

fn line_strategy() -> impl Strategy<Value = LineSpec> {
    (
        (0u8..5, any::<u32>()),
        any::<bool>(),
        0usize..4,
        0usize..4,
        (0u8..3, 0usize..9),
    )
}

fn multiplier((pick, any): (u8, u32)) -> u32 {
    match pick {
        0 => 0,
        1 => 1,
        2 => 2,
        3 => u32::MAX,
        _ => any,
    }
}

fn render(spec: &LineSpec, names: &[String]) -> String {
    let &(mult, setup, from, to, (edit, at)) = spec;
    let mult = multiplier(mult).to_string();
    let from = format!("{{{}}}]", names[from]);
    let to = format!("{{{}}}]", names[to]);
    let mut toks = vec![
        "set_multicycle_path",
        &mult,
        if setup { "-setup" } else { "-hold" },
        "-from",
        "[get_cells",
        &from,
        "-to",
        "[get_cells",
        &to,
    ];
    match edit {
        1 => {
            toks.remove(at);
        }
        2 => toks.insert(at, toks[at]),
        _ => {}
    }
    toks.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn validate_sdc_never_panics(specs in proptest::collection::vec(line_strategy(), 1..9)) {
        let nl = circuits::fig1();
        let ffs: Vec<&str> = nl.dffs().iter().map(|&id| nl.node(id).name()).collect();
        let not_an_ff = nl
            .nodes()
            .map(|(_, n)| n.name())
            .find(|name| !ffs.contains(name))
            .expect("fig1 has combinational nodes");
        let names = [ffs[0], ffs[1], not_an_ff, "no_such_cell"].map(str::to_owned);
        let text: Vec<String> = specs.iter().map(|s| render(s, &names)).collect();
        let report = validate_sdc(&nl, &nl.connected_ff_pairs(), &text.join("\n"));
        for d in report.iter() {
            prop_assert!(RULES.contains(&d.rule.as_str()), "unexpected rule {}", d.rule);
            prop_assert!(
                d.line.is_some_and(|l| (1..=text.len()).contains(&l)),
                "{} diagnostic without a valid line: {:?}",
                d.rule,
                d.line
            );
        }
    }
}
