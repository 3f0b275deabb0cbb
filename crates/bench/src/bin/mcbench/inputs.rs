//! Seeded inputs: the standard suite circuits, the ×4 composite, and the
//! ECO edit chain.
//!
//! `--seed` picks the ECO edits and prefixes every signal name with a
//! seed token. It does not re-draw the circuits' glue logic: the
//! prefilter stops after a run of idle words, so a circuit's cost is
//! heavy-tailed in its generator seed (m38584's warm op took 0.126 s at
//! one glue seed and 0.186 s at another), which would put the seed-to-seed
//! spread of every timing far above its regression bound. Renaming keeps
//! line order, name lengths, node numbering and FF order, so the work of
//! an op is the same for every seed while its input bytes differ.

#![allow(clippy::needless_update)]

use mcp_gen::generators::{composite, CompositeConfig};
use mcp_netlist::{bench, Netlist};

/// One generated circuit: the `.bench` text an op parses, and the
/// netlist parsed from it (so every check indexes FFs the way ops do).
pub struct Circuit {
    pub name: String,
    pub netlist: Netlist,
    pub text: String,
}

impl Circuit {
    /// The circuit as the benchmark's inputs carry it: `generated` with
    /// every signal renamed for `seed`.
    pub fn new(generated: &Netlist, seed: u64) -> Circuit {
        let text = rename(&bench::to_bench(generated), seed);
        Circuit::parse(generated.name(), text).expect("serialized netlists parse back")
    }

    fn parse(name: &str, text: String) -> Result<Circuit, String> {
        let netlist = bench::parse(name, &text).map_err(|e| e.to_string())?;
        Ok(Circuit {
            name: name.to_owned(),
            netlist,
            text,
        })
    }
}

fn is_delimiter(c: char) -> bool {
    matches!(c, '(' | ')' | ',' | '=' | ' ' | '\t')
}

/// Prefixes every signal name in `.bench` text with a fixed-width seed
/// token; keywords (an identifier followed by `(`) and `CONST` values
/// stay as they are.
fn rename(text: &str, seed: u64) -> String {
    let tag = format!("s{:04x}_", seed & 0xffff);
    let mut out = String::with_capacity(text.len() + text.len() / 2);
    for line in text.lines() {
        if line.starts_with('#') {
            out.push_str(line);
        } else {
            let mut keyword = "";
            let mut rest = line;
            while let Some(start) = rest.find(|c| !is_delimiter(c)) {
                out.push_str(&rest[..start]);
                let len = rest[start..]
                    .find(is_delimiter)
                    .unwrap_or(rest.len() - start);
                let (token, after) = rest[start..].split_at(len);
                if after.starts_with('(') {
                    keyword = token;
                } else if keyword != "CONST" {
                    out.push_str(&tag);
                }
                out.push_str(token);
                rest = after;
            }
            out.push_str(rest);
        }
        out.push('\n');
    }
    out
}

/// The twelve recipes of `mcp_gen::suite::standard_suite()`, which keeps
/// them private; a test pins this copy to the library's circuits.
fn suite_recipes() -> Vec<(&'static str, CompositeConfig)> {
    vec![
        (
            "m27",
            CompositeConfig {
                seed: 27,
                datapaths: vec![(1, 2, 0, 3)],
                glue_gates: 4,
                glue_regs: 1,
                ..CompositeConfig::default()
            },
        ),
        (
            "m298",
            CompositeConfig {
                seed: 298,
                datapaths: vec![(3, 2, 0, 2)],
                pipelines: vec![(2, 3)],
                glue_gates: 20,
                glue_regs: 3,
                ..CompositeConfig::default()
            },
        ),
        (
            "m526",
            CompositeConfig {
                seed: 526,
                datapaths: vec![(4, 2, 1, 3), (2, 3, 0, 5)],
                pipelines: vec![(3, 3)],
                glue_gates: 40,
                glue_regs: 4,
                ..CompositeConfig::default()
            },
        ),
        (
            "m820",
            CompositeConfig {
                seed: 820,
                dual_datapaths: vec![(3, 3, 0, 2, 5)],
                pinned_chains: 2,
                rare_chains: 2,
                datapaths: vec![(6, 3, 0, 4)],
                pipelines: vec![(4, 4)],
                glue_gates: 60,
                glue_regs: 5,
            },
        ),
        (
            "m1238",
            CompositeConfig {
                seed: 1238,
                dual_datapaths: vec![(4, 2, 0, 1, 3)],
                pinned_chains: 3,
                rare_chains: 3,
                datapaths: vec![(8, 2, 0, 3), (4, 3, 2, 6)],
                pipelines: vec![(4, 4), (3, 2)],
                glue_gates: 90,
                glue_regs: 6,
            },
        ),
        (
            "m1423",
            CompositeConfig {
                seed: 1423,
                dual_datapaths: vec![(4, 3, 1, 4, 7)],
                pinned_chains: 4,
                rare_chains: 4,
                datapaths: vec![(10, 3, 1, 5)],
                pipelines: vec![(6, 6)],
                glue_gates: 120,
                glue_regs: 8,
            },
        ),
        (
            "m5378",
            CompositeConfig {
                seed: 5378,
                dual_datapaths: vec![(8, 3, 0, 2, 5), (4, 3, 1, 3, 6)],
                pinned_chains: 10,
                rare_chains: 8,
                datapaths: vec![(16, 3, 0, 6), (8, 4, 0, 9), (8, 2, 1, 2)],
                pipelines: vec![(8, 8), (4, 6)],
                glue_gates: 400,
                glue_regs: 20,
            },
        ),
        (
            "m9234",
            CompositeConfig {
                seed: 9234,
                dual_datapaths: vec![(12, 4, 0, 3, 8)],
                pinned_chains: 16,
                rare_chains: 12,
                datapaths: vec![(24, 4, 2, 11), (16, 3, 0, 5)],
                pipelines: vec![(10, 10), (6, 8)],
                glue_gates: 700,
                glue_regs: 30,
            },
        ),
        (
            "m13207",
            CompositeConfig {
                seed: 13207,
                dual_datapaths: vec![(16, 4, 1, 5, 10), (8, 3, 0, 2, 5)],
                pinned_chains: 24,
                rare_chains: 16,
                datapaths: vec![(32, 4, 0, 7), (16, 4, 3, 12), (8, 2, 0, 3)],
                pipelines: vec![(12, 12), (8, 8)],
                glue_gates: 1000,
                glue_regs: 40,
            },
        ),
        (
            "m15850",
            CompositeConfig {
                seed: 15850,
                dual_datapaths: vec![(16, 4, 0, 6, 11)],
                pinned_chains: 28,
                rare_chains: 20,
                datapaths: vec![(32, 4, 1, 9), (24, 3, 0, 4), (16, 4, 5, 13)],
                pipelines: vec![(14, 12), (10, 8)],
                glue_gates: 1200,
                glue_regs: 48,
            },
        ),
        (
            "m35932",
            CompositeConfig {
                seed: 35932,
                dual_datapaths: vec![(24, 4, 0, 4, 9), (16, 3, 1, 3, 6)],
                pinned_chains: 60,
                rare_chains: 40,
                datapaths: vec![(64, 4, 0, 11), (48, 3, 2, 6), (32, 4, 4, 12)],
                pipelines: vec![(16, 20), (12, 16), (8, 12)],
                glue_gates: 3200,
                glue_regs: 160,
            },
        ),
        (
            "m38584",
            CompositeConfig {
                seed: 38584,
                dual_datapaths: vec![(32, 4, 2, 6, 12), (16, 4, 0, 5, 10)],
                pinned_chains: 72,
                rare_chains: 48,
                datapaths: vec![(64, 4, 3, 10), (64, 3, 0, 5), (32, 5, 0, 17)],
                pipelines: vec![(20, 20), (14, 16), (10, 12)],
                glue_gates: 4000,
                glue_regs: 200,
            },
        ),
    ]
}

fn recipe(name: &str) -> CompositeConfig {
    suite_recipes()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, cfg)| cfg)
        .unwrap_or_else(|| panic!("no suite recipe named {name}"))
}

/// The suite circuit `name`, as `seed`'s input.
pub fn suite_circuit(name: &str, seed: u64) -> Circuit {
    Circuit::new(&composite(name, &recipe(name)), seed)
}

/// The named suite circuits (all twelve for an empty list), in suite
/// order, as `seed`'s inputs.
pub fn suite(names: &[&str], seed: u64) -> Vec<Circuit> {
    suite_recipes()
        .into_iter()
        .filter(|(n, _)| names.is_empty() || names.contains(n))
        .map(|(n, cfg)| Circuit::new(&composite(n, &cfg), seed))
        .collect()
}

/// Suite circuit `name`'s recipe with every block, chain and glue count
/// multiplied by `factor`: one circuit `factor` times the size, whose
/// glue logic couples the copies.
pub fn scaled(name: &str, factor: usize, seed: u64) -> Circuit {
    let base = recipe(name);
    let cfg = CompositeConfig {
        seed: base.seed,
        datapaths: base.datapaths.repeat(factor),
        dual_datapaths: base.dual_datapaths.repeat(factor),
        pipelines: base.pipelines.repeat(factor),
        rare_chains: base.rare_chains * factor,
        pinned_chains: base.pinned_chains * factor,
        glue_gates: base.glue_gates * factor,
        glue_regs: base.glue_regs * factor,
        ..CompositeConfig::default()
    };
    Circuit::new(&composite(&format!("{name}x{factor}"), &cfg), seed)
}

/// SplitMix64: a tiny seeded generator for the edit chain.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A chain of ECO revisions: each revision is the previous one with a
/// single seeded gate edit, AND↔OR or NAND↔NOR, which keeps every node
/// name, arity and connection (so the structural diff is exactly one
/// changed node and the netlist stays lint-clean).
pub struct EditChain {
    name: String,
    lines: Vec<String>,
    rng: u64,
    revision: usize,
}

const SWAPS: [(&str, &str); 4] = [
    ("= AND(", "= OR("),
    ("= OR(", "= AND("),
    ("= NAND(", "= NOR("),
    ("= NOR(", "= NAND("),
];

impl EditChain {
    pub fn new(base: &Circuit, seed: u64) -> EditChain {
        EditChain {
            name: base.name.clone(),
            lines: base.text.lines().map(str::to_owned).collect(),
            rng: seed ^ 0x00ec_0c4a_1a5e_ed00,
            revision: 0,
        }
    }

    /// The next revision, with a description of its edit.
    pub fn next_revision(&mut self) -> Result<(Circuit, String), String> {
        let editable: Vec<usize> = self
            .lines
            .iter()
            .enumerate()
            .filter(|(_, l)| SWAPS.iter().any(|(from, _)| l.contains(from)))
            .map(|(k, _)| k)
            .collect();
        if editable.is_empty() {
            return Err(format!("{} has no AND/OR/NAND/NOR gate to edit", self.name));
        }
        let k = editable[(splitmix(&mut self.rng) % editable.len() as u64) as usize];
        let line = &self.lines[k];
        let (from, to) = SWAPS
            .iter()
            .find(|(from, _)| line.contains(from))
            .expect("editable lines contain a swappable gate");
        let edited = line.replacen(from, to, 1);
        let what = format!("{} -> {}", line.trim(), edited.trim());
        self.lines[k] = edited;
        self.revision += 1;
        let mut text = self.lines.join("\n");
        text.push('\n');
        let circuit = Circuit::parse(&self.name, text)
            .map_err(|e| format!("revision {} does not parse: {e}", self.revision))?;
        Ok((circuit, what))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_the_standard_suite_renamed() {
        let ours = suite(&[], 5);
        let lib = mcp_gen::suite::standard_suite();
        assert_eq!(ours.len(), lib.len());
        for (a, b) in ours.iter().zip(&lib) {
            assert_eq!(a.name, b.name());
            assert_eq!(a.netlist.stats(), b.stats(), "{}", a.name);
            assert_eq!(a.netlist.connected_ff_pairs(), b.connected_ff_pairs());
            let first_ff = |nl: &Netlist| nl.node(nl.dffs()[0]).name().to_owned();
            assert_eq!(first_ff(&a.netlist), format!("s0005_{}", first_ff(b)));
        }
        // Same structure, different bytes, for every seed.
        let other = suite(&["m298"], 6);
        assert_eq!(other[0].text.len(), ours[1].text.len());
        assert!(other[0].text != ours[1].text);
    }

    #[test]
    fn rename_keeps_keywords_and_constants() {
        let text = "# t\nINPUT(a)\nOUTPUT(q)\nk = CONST(1)\nq = DFF(d)\nd = AND(a, k)\n";
        assert_eq!(
            rename(text, 0x1f),
            "# t\nINPUT(s001f_a)\nOUTPUT(s001f_q)\ns001f_k = CONST(1)\n\
             s001f_q = DFF(s001f_d)\ns001f_d = AND(s001f_a, s001f_k)\n"
        );
    }

    #[test]
    fn scaled_circuit_grows_every_block() {
        let one = suite_circuit("m298", 0);
        let four = scaled("m298", 4, 0);
        assert_eq!(four.netlist.num_ffs(), 4 * one.netlist.num_ffs());
        assert!(four.netlist.num_gates() > 3 * one.netlist.num_gates());
    }

    #[test]
    fn edit_chain_is_deterministic_and_lint_clean() {
        let base = suite_circuit("m298", 3);
        let mut a = EditChain::new(&base, 3);
        let mut b = EditChain::new(&base, 3);
        let mut prev = base.netlist.clone();
        for _ in 0..6 {
            let (ra, what) = a.next_revision().expect("revision");
            let (rb, _) = b.next_revision().expect("revision");
            assert_eq!(
                ra.netlist.content_hash(),
                rb.netlist.content_hash(),
                "{what}"
            );
            assert_eq!(ra.text, rb.text);
            let d = mcp_netlist::diff(&prev, &ra.netlist);
            assert!(
                d.changed.len() <= 1 && d.removed.is_empty(),
                "{what}: {d:?}"
            );
            let lint = mcp_lint::Registry::with_default_rules()
                .run(&ra.netlist, &mcp_lint::LintConfig::default());
            assert!(
                lint.iter().all(|d| d.severity < mcp_lint::Severity::Warn),
                "{what}: {}",
                lint.render_text(&ra.name)
            );
            prev = ra.netlist;
        }
        // Another seed walks another chain.
        let mut c = EditChain::new(&base, 4);
        let firsts: Vec<u64> = (0..3)
            .map(|_| {
                c.next_revision()
                    .expect("revision")
                    .0
                    .netlist
                    .content_hash()
            })
            .collect();
        let mut a = EditChain::new(&base, 3);
        let seconds: Vec<u64> = (0..3)
            .map(|_| {
                a.next_revision()
                    .expect("revision")
                    .0
                    .netlist
                    .content_hash()
            })
            .collect();
        assert_ne!(firsts, seconds);
    }
}
