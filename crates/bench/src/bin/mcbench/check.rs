//! Output checks: independent cross-checks of every input's verdicts,
//! and the verdict digests pinned for seed 0.

use mcp_core::{analyze_with, Engine, McConfig, McReport, PairClass};
use mcp_netlist::Netlist;
use mcp_obs::ObsCtx;

/// Free bits (`FFs + 2 × inputs`) up to which the brute-force oracle
/// runs in well under a second.
const ORACLE_MAX_BITS: usize = 22;

fn class_name(c: PairClass) -> &'static str {
    match c {
        PairClass::MultiCycle { .. } => "multi",
        PairClass::SingleCycle { .. } => "single",
        PairClass::Unknown => "unknown",
    }
}

/// Digest of what was decided about each pair: `(src, dst, class)` with
/// the resolving step left out, so it pins verdicts and nothing about
/// how hard the engines worked or how the report is laid out.
pub fn verdict_digest(report: &McReport) -> u64 {
    let mut text = String::with_capacity(report.pairs.len() * 16);
    for p in &report.pairs {
        text.push_str(&format!("{},{},{}\n", p.src, p.dst, class_name(p.class)));
    }
    mcp_obs::fnv1a(text.as_bytes())
}

/// Pairs with a verdict other than `Unknown`.
pub fn decided(report: &McReport) -> u64 {
    report
        .pairs
        .iter()
        .filter(|p| p.class != PairClass::Unknown)
        .count() as u64
}

/// Checks `report` (the benchmark config's run on `nl`) against a
/// sliced SAT-engine run and, for circuits within its reach, against the
/// brute-force oracle. `Unknown` verdicts are skipped: they claim
/// nothing. Both engines share the expansion and slicing code, so the
/// SAT run guards the engines, not that code; the oracle guards both
/// where it reaches.
pub fn cross_check(nl: &Netlist, cfg: &McConfig, report: &McReport) -> Result<(), String> {
    let sat_cfg = McConfig {
        engine: Engine::Sat,
        threads: 1,
        ..cfg.clone()
    };
    let sat = analyze_with(nl, &sat_cfg, &ObsCtx::new())
        .map_err(|e| format!("{}: SAT cross-check failed to run: {e}", nl.name()))?;
    if sat.pairs.len() != report.pairs.len() {
        return Err(format!(
            "{}: SAT run has {} pairs, the benchmark run {}",
            nl.name(),
            sat.pairs.len(),
            report.pairs.len()
        ));
    }
    for (ours, theirs) in report.pairs.iter().zip(&sat.pairs) {
        let same_pair = (ours.src, ours.dst) == (theirs.src, theirs.dst);
        if !same_pair
            || (ours.class != PairClass::Unknown
                && class_name(ours.class) != class_name(theirs.class))
        {
            return Err(format!(
                "{}: pair ({}, {}) is {} but SAT says ({}, {}) is {}",
                nl.name(),
                ours.src,
                ours.dst,
                class_name(ours.class),
                theirs.src,
                theirs.dst,
                class_name(theirs.class)
            ));
        }
    }
    if nl.num_ffs() + 2 * nl.num_inputs() <= ORACLE_MAX_BITS {
        let (multi, _) = mcp_gen::oracle::exhaustive_mc_pairs(nl);
        for p in &report.pairs {
            let truth = multi.binary_search(&(p.src, p.dst)).is_ok();
            if p.class != PairClass::Unknown && p.class.is_multi() != truth {
                return Err(format!(
                    "{}: pair ({}, {}) is {} but the oracle says {}",
                    nl.name(),
                    p.src,
                    p.dst,
                    class_name(p.class),
                    if truth { "multi" } else { "single" }
                ));
            }
        }
    }
    Ok(())
}

/// ECO revisions pinned per seed-0 run (`<circuit>@r1` ..).
pub const PINNED_REVISIONS: usize = 3;

/// Seed-0 pins: input name → (pairs, decided pairs, verdict digest).
/// m820's 5 undecided pairs are aborted searches at the paper's
/// backtrack limit of 50.
const PINS: &[(&str, u64, u64, u64)] = &[
    ("m27", 11, 11, 0x1a26_4dc7_747a_379e),
    ("m298", 39, 39, 0x11fa_f2b2_bd11_4e2e),
    ("m526", 94, 94, 0xe6b9_6ede_742d_97bf),
    ("m820", 210, 205, 0x8864_43dd_8e1f_5087),
    ("m1238", 278, 278, 0x692e_3e30_339b_1dc9),
    ("m1423", 351, 351, 0xd702_668b_f99e_5ccf),
    ("m5378", 941, 941, 0xc570_07b1_cb89_8953),
    ("m9234", 1397, 1397, 0x217f_3a05_10b8_e99d),
    ("m13207", 2050, 2050, 0xd396_83b3_c931_87aa),
    ("m15850", 2362, 2362, 0x251f_c161_af88_b424),
    ("m35932", 5361, 5361, 0x0619_eeaa_fb4b_10df),
    ("m38584", 6442, 6442, 0xfd28_db4f_ecd3_14e2),
    ("m38584x4", 25810, 25810, 0xb8f4_1a93_9985_c25d),
    // The first three seed-0 edits leave every verdict as it was.
    ("m38584@r1", 6442, 6442, 0xfd28_db4f_ecd3_14e2),
    ("m38584@r2", 6442, 6442, 0xfd28_db4f_ecd3_14e2),
    ("m38584@r3", 6442, 6442, 0xfd28_db4f_ecd3_14e2),
];

/// Checks a seed-0 input's verdicts against its pin.
pub fn pin(input: &str, report: &McReport) -> Result<(), String> {
    let Some(&(_, pairs, decided_pairs, digest)) = PINS.iter().find(|p| p.0 == input) else {
        return Err(format!(
            "{input}: no seed-0 pin (pairs/decided/digest {}/{}/{:016x})",
            report.pairs.len(),
            decided(report),
            verdict_digest(report)
        ));
    };
    let got = (
        report.pairs.len() as u64,
        decided(report),
        verdict_digest(report),
    );
    if got != (pairs, decided_pairs, digest) {
        return Err(format!(
            "{input}: seed-0 verdicts drifted: pairs/decided/digest {}/{}/{:016x}, \
             pinned {pairs}/{decided_pairs}/{digest:016x}",
            got.0, got.1, got.2
        ));
    }
    Ok(())
}
