//! ISCAS89 `.bench` format parser and writer.
//!
//! The `.bench` format is the distribution format of the ISCAS89 benchmark
//! suite the paper evaluates on:
//!
//! ```text
//! # s-era comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G10 = DFF(G14)
//! G11 = NOT(G5)
//! G14 = AND(G0, G11)
//! ```
//!
//! [`parse`] accepts the full suite syntax (case-insensitive keywords,
//! forward references, `BUF`/`BUFF` spellings) plus a `CONST(0|1)`
//! extension so every [`Netlist`] round-trips through [`to_bench`].
//!
//! One reader turns the statements into a netlist built exactly as
//! written; [`parse_unchecked`] returns it, and [`parse`] refuses its
//! first structural defect ([`Netlist::defects`]) at the line of the
//! statement that defines the defect's node.
//!
//! # Example
//!
//! ```
//! use mcp_netlist::bench;
//!
//! let src = "
//!     INPUT(A)
//!     OUTPUT(Q)
//!     Q = DFF(D)
//!     D = XOR(Q, A)
//! ";
//! let netlist = bench::parse("toggle", src)?;
//! assert_eq!(netlist.num_ffs(), 1);
//! let round = bench::parse("again", &bench::to_bench(&netlist))?;
//! assert_eq!(round.stats(), netlist.stats());
//! # Ok::<(), bench::ParseBenchError>(())
//! ```

use crate::builder::{BuildError, NetlistBuilder};
use crate::check::Defect;
use crate::model::{Netlist, NodeId, NodeKind};
use mcp_logic::GateKind;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Error produced while parsing a `.bench` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchError {
    /// 1-based line number of the statement at fault.
    pub line: usize,
    /// Explanation of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bench parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseBenchError {}

#[derive(Debug)]
enum Stmt<'a> {
    Input(&'a str),
    Output(&'a str),
    Def {
        name: &'a str,
        func: &'a str,
        args: Vec<&'a str>,
    },
}

fn lex(src: &str) -> Result<Vec<(usize, Stmt<'_>)>, ParseBenchError> {
    let mut stmts = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| ParseBenchError {
            line: lineno,
            message,
        };
        if let Some(rest) = strip_call(line, "INPUT") {
            stmts.push((lineno, Stmt::Input(rest.trim())));
        } else if let Some(rest) = strip_call(line, "OUTPUT") {
            stmts.push((lineno, Stmt::Output(rest.trim())));
        } else if let Some(eq) = line.find('=') {
            let name = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| err(format!("expected `FUNC(args)` after `=`, got `{rhs}`")))?;
            if !rhs.ends_with(')') {
                return Err(err(format!("missing `)` in `{rhs}`")));
            }
            let func = rhs[..open].trim();
            let args: Vec<&str> = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .collect();
            if name.is_empty() {
                return Err(err("empty signal name on left of `=`".to_owned()));
            }
            stmts.push((lineno, Stmt::Def { name, func, args }));
        } else {
            return Err(err(format!("unrecognized statement `{line}`")));
        }
    }
    Ok(stmts)
}

/// The value of a `CONST(0|1)` definition at `line`.
fn const_value(line: usize, args: &[&str]) -> Result<bool, ParseBenchError> {
    match args {
        ["0"] => Ok(false),
        ["1"] => Ok(true),
        _ => Err(ParseBenchError {
            line,
            message: "CONST takes a single 0 or 1".to_owned(),
        }),
    }
}

fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    if !line.get(..keyword.len())?.eq_ignore_ascii_case(keyword) {
        return None;
    }
    let rest = line[keyword.len()..].trim();
    rest.strip_prefix('(')?.strip_suffix(')')
}

/// Reads the statements into a netlist built exactly as written, with
/// the line of the statement that defines each node, indexed by node id.
///
/// Inputs, flip-flops and constants take ids in file order, then the
/// gates in file order. Every argument of a gate or a `DFF` becomes a
/// fanin, and a name resolves to the lowest id defining it. Structure is
/// left to [`Netlist::defects`].
fn read(name: &str, src: &str) -> Result<(Netlist, Vec<usize>), ParseBenchError> {
    let stmts = lex(src)?;
    let mut defs: Vec<(usize, &str, NodeKind, &[&str])> = Vec::with_capacity(stmts.len());
    let mut gates = Vec::new();
    let mut outputs = Vec::new();
    for &(line, ref stmt) in &stmts {
        match stmt {
            Stmt::Input(sig) => defs.push((line, sig, NodeKind::Input, &[])),
            Stmt::Output(sig) => outputs.push((line, *sig)),
            Stmt::Def { name, func, args } => match func.to_ascii_uppercase().as_str() {
                "DFF" => defs.push((line, name, NodeKind::Dff, args)),
                "CONST" => defs.push((line, name, NodeKind::Const(const_value(line, args)?), &[])),
                keyword => {
                    let kind: GateKind = keyword.parse().map_err(|e| ParseBenchError {
                        line,
                        message: format!("{e}"),
                    })?;
                    gates.push((line, *name, NodeKind::Gate(kind), args.as_slice()));
                }
            },
        }
    }
    defs.append(&mut gates);

    let mut ids: HashMap<&str, NodeId> = HashMap::with_capacity(defs.len());
    for (i, &(_, name, _, _)) in defs.iter().enumerate() {
        ids.entry(name).or_insert(NodeId::from_index(i));
    }
    let resolve = |line: usize, sig: &str| {
        ids.get(sig).copied().ok_or_else(|| ParseBenchError {
            line,
            message: format!("signal `{sig}` is undefined"),
        })
    };
    let mut b = NetlistBuilder::new(name);
    let mut lines = Vec::with_capacity(defs.len());
    for &(line, name, kind, args) in &defs {
        let fanins = args
            .iter()
            .map(|a| resolve(line, a))
            .collect::<Result<Vec<NodeId>, ParseBenchError>>()?;
        b.raw_node(name, kind, fanins);
        lines.push(line);
    }
    for (line, sig) in outputs {
        b.mark_output(resolve(line, sig)?);
    }
    Ok((b.finish_unchecked(), lines))
}

/// Parses a `.bench` source into a [`Netlist`].
///
/// Signals may be referenced before their definition. Keywords are
/// case-insensitive. The non-standard `CONST(0)` / `CONST(1)` definition
/// is accepted for round-tripping constant drivers. Node ids follow
/// [`parse_unchecked`]'s order (inputs, flip-flops and constants, then
/// gates, each in file order), so [`to_bench`] output parses back to the
/// netlist it was written from, up to that ordering of sources before
/// gates.
///
/// # Errors
///
/// Returns [`ParseBenchError`] on everything [`parse_unchecked`] refuses,
/// and otherwise on the netlist's first structural defect
/// ([`Netlist::defects`]: a combinational cycle, a wrong gate arity, an
/// unconnected or multi-driven flip-flop, a duplicated name), with
/// [`BuildError`]'s message, at the line that defines the defect's node:
/// the first gate of the cycle, the second definition of the name.
pub fn parse(name: &str, src: &str) -> Result<Netlist, ParseBenchError> {
    let (netlist, lines) = read(name, src)?;
    let Some(defect) = netlist.defects().into_iter().next() else {
        return Ok(netlist);
    };
    let line = match &defect {
        Defect::CombinationalCycle(ids) => lines[ids[0].index()],
        Defect::DuplicateName(ids) => {
            let mut at: Vec<usize> = ids.iter().map(|id| lines[id.index()]).collect();
            at.sort_unstable();
            at[1]
        }
        &Defect::BadArity(id) | &Defect::UnconnectedDff(id) | &Defect::MultiDrivenDff(id) => {
            lines[id.index()]
        }
    };
    Err(ParseBenchError {
        line,
        message: BuildError::of(&netlist, &defect).to_string(),
    })
}

/// Parses a `.bench` source **permissively**: the netlist is built as
/// written, and its structure is left to [`Netlist::defects`] and the
/// `mcp-lint` rules, so a linter can *report* what [`parse`] refuses.
///
/// Permissive readings of input [`parse`] refuses:
///
/// * cyclic gate definitions are wired as written (gates take ids in
///   file order after every input, flip-flop and constant, so any gate
///   may read any other, itself included);
/// * a gate keeps every argument, whatever its kind allows;
/// * a duplicated signal name creates a second node; references resolve
///   to the node of that name with the lowest id;
/// * a `DFF` is driven by each of its arguments: one with several is
///   multi-driven, `DFF()` stays unconnected.
///
/// # Errors
///
/// Returns [`ParseBenchError`] at the line at fault on a syntax error, an
/// unknown gate keyword, a `CONST` other than `CONST(0)`/`CONST(1)`, or a
/// signal that a gate, a `DFF` or an `OUTPUT` reads but no statement
/// defines.
pub fn parse_unchecked(name: &str, src: &str) -> Result<Netlist, ParseBenchError> {
    read(name, src).map(|(netlist, _)| netlist)
}

/// Serializes a netlist to `.bench` source.
///
/// The output parses back (see [`parse`]) to a netlist with identical
/// structure. Constant drivers use the `CONST(0|1)` extension.
pub fn to_bench(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", netlist.name());
    for &pi in netlist.inputs() {
        let _ = writeln!(out, "INPUT({})", netlist.node(pi).name());
    }
    for &po in netlist.outputs() {
        let _ = writeln!(out, "OUTPUT({})", netlist.node(po).name());
    }
    for (_, node) in netlist.nodes() {
        match node.kind() {
            NodeKind::Input => {}
            NodeKind::Const(v) => {
                let _ = writeln!(out, "{} = CONST({})", node.name(), u8::from(v));
            }
            NodeKind::Dff => {
                let d = netlist.node(node.fanins()[0]).name();
                let _ = writeln!(out, "{} = DFF({})", node.name(), d);
            }
            NodeKind::Gate(kind) => {
                let args: Vec<&str> = node
                    .fanins()
                    .iter()
                    .map(|&f| netlist.node(f).name())
                    .collect();
                let _ = writeln!(
                    out,
                    "{} = {}({})",
                    node.name(),
                    kind.bench_keyword(),
                    args.join(", ")
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const S27ISH: &str = "
        # a small s27-flavoured circuit
        INPUT(G0)
        INPUT(G1)
        INPUT(G2)
        INPUT(G3)
        OUTPUT(G17)
        G5 = DFF(G10)
        G6 = DFF(G11)
        G7 = DFF(G13)
        G14 = NOT(G0)
        G8 = AND(G14, G6)
        G15 = OR(G12, G8)
        G16 = OR(G3, G8)
        G9 = NAND(G16, G15)
        G10 = NOR(G14, G11)
        G11 = OR(G5, G9)
        G12 = NOR(G1, G7)
        G13 = NAND(G2, G12)
        G17 = NOT(G11)
    ";

    #[test]
    fn parses_forward_references() {
        let nl = parse("s27ish", S27ISH).expect("parse");
        assert_eq!(nl.num_inputs(), 4);
        assert_eq!(nl.num_ffs(), 3);
        assert_eq!(nl.outputs().len(), 1);
        assert_eq!(nl.num_gates(), 10);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let nl = parse("s27ish", S27ISH).expect("parse");
        let text = to_bench(&nl);
        let again = parse("s27ish", &text).expect("reparse");
        assert_eq!(again.stats(), nl.stats());
        assert_eq!(again.connected_ff_pairs(), nl.connected_ff_pairs());
        // names survive
        for (_, node) in nl.nodes() {
            assert!(again.find_node(node.name()).is_some(), "{}", node.name());
        }
    }

    #[test]
    fn case_insensitive_keywords_and_buf_spellings() {
        let nl = parse("c", "input(a)\noutput(y)\ny = buff(b)\nb = nand(a, a)\n").expect("parse");
        assert_eq!(nl.num_gates(), 2);
    }

    #[test]
    fn const_extension_round_trips() {
        let nl = parse("c", "OUTPUT(y)\none = CONST(1)\ny = BUFF(one)\n").expect("parse");
        let again = parse("c", &to_bench(&nl)).expect("reparse");
        assert_eq!(again.stats(), nl.stats());
    }

    #[test]
    fn undefined_signal_is_an_error() {
        // Whatever reads it, a gate, an OUTPUT or a DFF, in both readers.
        let gate = "OUTPUT(y)\ny = AND(a, b)\n";
        let typo = "INPUT(x)\nOUTPUT(c)\nOUTPUT(typo)\nq = DFF(c)\nc = AND(q, x)\n";
        let ghost = "INPUT(x)\nOUTPUT(q)\nq = DFF(ghost)\n";
        for (src, line, sig) in [(gate, 2, "a"), (typo, 3, "typo"), (ghost, 3, "ghost")] {
            let err = parse_unchecked("bad", src).unwrap_err();
            assert_eq!(err.line, line, "{err}");
            assert_eq!(err.message, format!("signal `{sig}` is undefined"));
            assert_eq!(parse("bad", src).unwrap_err(), err);
        }
    }

    #[test]
    fn duplicate_definition_is_an_error() {
        // Refused at the second definition in the file, whichever kind of
        // node takes the lower id.
        let gates = "INPUT(x)\nOUTPUT(c)\nq = DFF(c)\nc = AND(q, x)\nc = OR(q, x)\n";
        for (src, line, sig) in [
            ("INPUT(a)\na = NOT(a)\n", 2, "a"),
            (gates, 5, "c"),
            ("INPUT(x)\nOUTPUT(a)\na = NOT(x)\nINPUT(a)\n", 4, "a"),
        ] {
            let err = parse("bad", src).unwrap_err();
            assert_eq!(err.line, line, "{err}");
            assert_eq!(err.message, format!("duplicate node name `{sig}`"));
        }
    }

    #[test]
    fn combinational_cycle_is_an_error() {
        // Refused at a gate on the cycle, not at `c`, which only reads it.
        let reader_above = "INPUT(x)\nOUTPUT(c)\nc = AND(a, x)\na = NOT(b)\nb = NOT(a)\n";
        for (src, line) in [
            ("OUTPUT(a)\na = NOT(b)\nb = NOT(a)\n", 2),
            (reader_above, 4),
        ] {
            let err = parse("bad", src).unwrap_err();
            assert_eq!(err.line, line, "{err}");
            assert_eq!(err.message, "combinational cycle through node `a`");
        }
    }

    #[test]
    fn dff_arity_is_checked() {
        let err = parse("bad", "INPUT(a)\nINPUT(b)\nq = DFF(a, b)\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.message, "flip-flop `q` has more than one D driver");
        let err = parse("bad", "INPUT(a)\nOUTPUT(q)\nq = DFF()\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.message, "flip-flop `q` has no D input connected");
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse("bad", "INPUT(a)\nwhat is this\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn parse_unchecked_accepts_what_parse_rejects() {
        // A combinational cycle: `parse` refuses, the permissive path
        // reconstructs it as written for mcp-lint to judge.
        let src = "OUTPUT(a)\na = NOT(b)\nb = NOT(a)\n";
        assert!(parse("bad", src).is_err());
        let nl = parse_unchecked("bad", src).expect("permissive parse");
        // Cyclic gates exist as nodes but are absent from the topological
        // order, so count raw nodes here.
        assert_eq!(nl.num_nodes(), 2);
        let a = nl.find_node("a").expect("a");
        let b = nl.find_node("b").expect("b");
        assert_eq!(nl.node(a).fanins(), &[b]);
        assert_eq!(nl.node(b).fanins(), &[a]);

        // An unconnected DFF stays unconnected instead of erroring.
        let nl = parse_unchecked("bad", "OUTPUT(q)\nq = DFF()\n").expect("parse");
        assert_eq!(nl.num_ffs(), 1);
        assert!(nl.node(nl.dffs()[0]).fanins().is_empty());

        // Every DFF argument becomes a driver, and gates keep every
        // argument: both are defects for `Netlist::defects` to list.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a, b)\ng = NOT(a, q)\n";
        assert!(parse("bad", src).is_err());
        let nl = parse_unchecked("bad", src).expect("parse");
        assert_eq!(nl.node(nl.dffs()[0]).fanins().len(), 2);
        assert_eq!(nl.defects().len(), 2);

        // Truly undefined gate fanins and malformed constants are still
        // hard errors, with the strict parser's message.
        assert!(parse_unchecked("bad", "OUTPUT(g)\ng = NOT(ghost)\n").is_err());
        let err = parse_unchecked("bad", "OUTPUT(k)\nk = CONST(7)\n").unwrap_err();
        assert_eq!(err, parse("bad", "OUTPUT(k)\nk = CONST(7)\n").unwrap_err());
    }

    #[test]
    fn parse_unchecked_matches_parse_on_well_formed_input() {
        let src = "
            INPUT(A)
            OUTPUT(Q)
            Q = DFF(D)
            D = XOR(Q, A)
        ";
        let strict = parse("t", src).expect("strict");
        let loose = parse_unchecked("t", src).expect("loose");
        assert_eq!(strict.stats(), loose.stats());
        assert_eq!(to_bench(&strict), to_bench(&loose));
    }
}
