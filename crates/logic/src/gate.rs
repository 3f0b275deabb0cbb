//! Combinational gate functions and their structural properties.

use crate::V3;
use std::fmt;
use std::str::FromStr;

/// The combinational gate functions of the netlist model.
///
/// This is the ISCAS89 gate set. Every gate is characterized by two
/// structural properties that the implication engine, the ATPG search and
/// the path-sensitization checks rely on:
///
/// * the **controlling value** — the input value that determines the gate
///   output regardless of the other inputs (`0` for AND/NAND, `1` for
///   OR/NOR, none for XOR/XNOR/NOT/BUF), see [`GateKind::controlling_value`];
/// * the **output inversion** — whether the gate output is the complement
///   of the corresponding non-inverting function, see
///   [`GateKind::output_inversion`].
///
/// # Example
///
/// ```
/// use mcp_logic::GateKind;
///
/// assert_eq!(GateKind::Nor.controlling_value(), Some(true));
/// assert_eq!(GateKind::Nor.controlled_output(), Some(false));
/// assert_eq!("NAND".parse::<GateKind>()?, GateKind::Nand);
/// # Ok::<(), mcp_logic::gate::ParseGateKindError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// n-ary conjunction.
    And,
    /// n-ary negated conjunction.
    Nand,
    /// n-ary disjunction.
    Or,
    /// n-ary negated disjunction.
    Nor,
    /// n-ary parity (odd number of ones).
    Xor,
    /// n-ary negated parity.
    Xnor,
    /// Unary inverter.
    Not,
    /// Unary buffer.
    Buf,
}

/// All gate kinds, in a fixed order (useful for exhaustive tests and
/// generators).
pub const ALL_GATE_KINDS: [GateKind; 8] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Not,
    GateKind::Buf,
];

impl GateKind {
    /// The input value that alone determines the output, if the gate has
    /// one: `Some(false)` for AND/NAND, `Some(true)` for OR/NOR, `None` for
    /// the parity gates and the unary gates.
    #[inline]
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            GateKind::Xor | GateKind::Xnor | GateKind::Not | GateKind::Buf => None,
        }
    }

    /// The output value produced when some input carries the controlling
    /// value (the *controlled* output), when the gate has a controlling
    /// value.
    #[inline]
    pub fn controlled_output(self) -> Option<bool> {
        self.controlling_value()
            .map(|c| c ^ self.output_inversion())
    }

    /// Whether the gate output is inverted relative to its non-inverting
    /// base function (NAND, NOR, XNOR, NOT are inverting).
    #[inline]
    pub fn output_inversion(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// The number of inputs the gate requires: `Some(1)` for NOT/BUF,
    /// `None` (meaning "one or more") for the n-ary gates.
    #[inline]
    pub fn fixed_arity(self) -> Option<usize> {
        match self {
            GateKind::Not | GateKind::Buf => Some(1),
            _ => None,
        }
    }

    /// Whether the gate accepts `inputs` fanins: exactly its
    /// [`fixed_arity`](Self::fixed_arity), or at least one for the n-ary
    /// gates. The `eval_*` functions panic on any other count.
    #[inline]
    pub fn takes(self, inputs: usize) -> bool {
        match self.fixed_arity() {
            Some(n) => inputs == n,
            None => inputs > 0,
        }
    }

    /// Evaluates the gate over Booleans.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, or has length ≠ 1 for NOT/BUF.
    pub fn eval_bool<I>(self, inputs: I) -> bool
    where
        I: IntoIterator<Item = bool>,
    {
        let mut it = inputs.into_iter();
        let first = it.next().expect("gate must have at least one input");
        let base = match self {
            GateKind::And | GateKind::Nand => it.fold(first, |acc, b| acc & b),
            GateKind::Or | GateKind::Nor => it.fold(first, |acc, b| acc | b),
            GateKind::Xor | GateKind::Xnor => it.fold(first, |acc, b| acc ^ b),
            GateKind::Not | GateKind::Buf => {
                assert!(it.next().is_none(), "NOT/BUF take exactly one input");
                first
            }
        };
        base ^ self.output_inversion()
    }

    /// Evaluates the gate over the ternary domain, producing a definite
    /// value whenever the definite inputs alone determine it.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, or has length ≠ 1 for NOT/BUF.
    pub fn eval_v3<I>(self, inputs: I) -> V3
    where
        I: IntoIterator<Item = V3>,
    {
        let mut it = inputs.into_iter();
        let first = it.next().expect("gate must have at least one input");
        let base = match self {
            GateKind::And | GateKind::Nand => it.fold(first, |acc, b| acc.and(b)),
            GateKind::Or | GateKind::Nor => it.fold(first, |acc, b| acc.or(b)),
            GateKind::Xor | GateKind::Xnor => it.fold(first, |acc, b| acc.xor(b)),
            GateKind::Not | GateKind::Buf => {
                assert!(it.next().is_none(), "NOT/BUF take exactly one input");
                first
            }
        };
        base.invert_if(self.output_inversion())
    }

    /// Evaluates the gate over 64 parallel Boolean lanes packed in `u64`
    /// words (bit `i` of every word belongs to lane `i`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, or has length ≠ 1 for NOT/BUF.
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        let (&first, rest) = inputs
            .split_first()
            .expect("gate must have at least one input");
        let base = match self {
            GateKind::And | GateKind::Nand => rest.iter().fold(first, |acc, &b| acc & b),
            GateKind::Or | GateKind::Nor => rest.iter().fold(first, |acc, &b| acc | b),
            GateKind::Xor | GateKind::Xnor => rest.iter().fold(first, |acc, &b| acc ^ b),
            GateKind::Not | GateKind::Buf => {
                assert!(rest.is_empty(), "NOT/BUF take exactly one input");
                first
            }
        };
        if self.output_inversion() {
            !base
        } else {
            base
        }
    }

    /// The ISCAS89 `.bench` keyword for this gate.
    pub fn bench_keyword(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUFF",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_keyword())
    }
}

/// Error returned when parsing an unknown gate keyword.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGateKindError {
    keyword: String,
}

impl fmt::Display for ParseGateKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gate keyword `{}`", self.keyword)
    }
}

impl std::error::Error for ParseGateKindError {}

impl FromStr for GateKind {
    type Err = ParseGateKindError;

    /// Parses an ISCAS89 keyword, case-insensitively. Both `BUF` and `BUFF`
    /// are accepted for the buffer.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "AND" => Ok(GateKind::And),
            "NAND" => Ok(GateKind::Nand),
            "OR" => Ok(GateKind::Or),
            "NOR" => Ok(GateKind::Nor),
            "XOR" => Ok(GateKind::Xor),
            "XNOR" => Ok(GateKind::Xnor),
            "NOT" | "INV" => Ok(GateKind::Not),
            "BUF" | "BUFF" => Ok(GateKind::Buf),
            other => Err(ParseGateKindError {
                keyword: other.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert_eq!(GateKind::Not.controlling_value(), None);
    }

    #[test]
    fn takes_matches_the_arity_contract() {
        for kind in ALL_GATE_KINDS {
            assert!(!kind.takes(0), "{kind}");
            assert!(kind.takes(1), "{kind}");
            assert_eq!(kind.takes(2), kind.fixed_arity().is_none(), "{kind}");
        }
    }

    #[test]
    fn controlled_outputs() {
        // AND with a 0 input outputs 0; NAND outputs 1; OR with a 1 outputs
        // 1; NOR outputs 0.
        assert_eq!(GateKind::And.controlled_output(), Some(false));
        assert_eq!(GateKind::Nand.controlled_output(), Some(true));
        assert_eq!(GateKind::Or.controlled_output(), Some(true));
        assert_eq!(GateKind::Nor.controlled_output(), Some(false));
        assert_eq!(GateKind::Xor.controlled_output(), None);
    }

    #[test]
    fn eval_bool_matches_truth_tables() {
        for kind in ALL_GATE_KINDS {
            if kind.fixed_arity() == Some(1) {
                for a in [false, true] {
                    let expect = a ^ kind.output_inversion();
                    assert_eq!(kind.eval_bool([a]), expect, "{kind}({a})");
                }
                continue;
            }
            for a in [false, true] {
                for b in [false, true] {
                    let expect = match kind {
                        GateKind::And => a & b,
                        GateKind::Nand => !(a & b),
                        GateKind::Or => a | b,
                        GateKind::Nor => !(a | b),
                        GateKind::Xor => a ^ b,
                        GateKind::Xnor => !(a ^ b),
                        _ => unreachable!(),
                    };
                    assert_eq!(kind.eval_bool([a, b]), expect, "{kind}({a},{b})");
                }
            }
        }
    }

    #[test]
    fn eval_v3_refines_eval_bool() {
        // On definite inputs the ternary evaluation matches the Boolean one,
        // for all kinds and arities 1..=3.
        for kind in ALL_GATE_KINDS {
            let arities: &[usize] = match kind.fixed_arity() {
                Some(1) => &[1],
                _ => &[1, 2, 3],
            };
            for &n in arities {
                for bits in 0..(1u32 << n) {
                    let bools: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                    let v3s: Vec<V3> = bools.iter().map(|&b| V3::from(b)).collect();
                    assert_eq!(
                        kind.eval_v3(v3s).to_bool(),
                        Some(kind.eval_bool(bools.iter().copied())),
                        "{kind} arity {n} bits {bits:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn eval_v3_uses_controlling_values() {
        assert_eq!(GateKind::And.eval_v3([V3::Zero, V3::X, V3::X]), V3::Zero);
        assert_eq!(GateKind::Nand.eval_v3([V3::Zero, V3::X]), V3::One);
        assert_eq!(GateKind::Or.eval_v3([V3::X, V3::One]), V3::One);
        assert_eq!(GateKind::Nor.eval_v3([V3::X, V3::One]), V3::Zero);
        assert_eq!(GateKind::Xor.eval_v3([V3::One, V3::X]), V3::X);
    }

    #[test]
    fn eval_word_is_lanewise_eval_bool() {
        // Each bit lane of the word evaluation must equal the scalar
        // Boolean evaluation of that lane.
        let a = 0b1100u64;
        let b = 0b1010u64;
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            let w = kind.eval_word(&[a, b]);
            for lane in 0..4 {
                let la = a >> lane & 1 == 1;
                let lb = b >> lane & 1 == 1;
                assert_eq!(
                    w >> lane & 1 == 1,
                    kind.eval_bool([la, lb]),
                    "{kind} lane {lane}"
                );
            }
        }
        assert_eq!(GateKind::Not.eval_word(&[a]) & 0xF, !a & 0xF);
        assert_eq!(GateKind::Buf.eval_word(&[a]), a);
    }

    #[test]
    fn keyword_round_trip() {
        for kind in ALL_GATE_KINDS {
            let parsed: GateKind = kind.bench_keyword().parse().expect("round trip");
            assert_eq!(parsed, kind);
        }
        assert_eq!("nand".parse::<GateKind>(), Ok(GateKind::Nand));
        assert_eq!("BUF".parse::<GateKind>(), Ok(GateKind::Buf));
        assert!("MAJ".parse::<GateKind>().is_err());
    }

    #[test]
    #[should_panic(expected = "exactly one input")]
    fn not_rejects_two_inputs() {
        GateKind::Not.eval_bool([true, false]);
    }
}
