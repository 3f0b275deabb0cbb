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
use crate::model::{Netlist, NodeId, NodeKind};
use mcp_logic::GateKind;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Error produced while parsing a `.bench` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchError {
    /// 1-based line number of the offending line (0 when the error is
    /// global, e.g. an undefined signal discovered at link time).
    pub line: usize,
    /// Explanation of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "bench parse error: {}", self.message)
        } else {
            write!(
                f,
                "bench parse error at line {}: {}",
                self.line, self.message
            )
        }
    }
}

impl std::error::Error for ParseBenchError {}

impl From<BuildError> for ParseBenchError {
    fn from(e: BuildError) -> Self {
        ParseBenchError {
            line: 0,
            message: e.to_string(),
        }
    }
}

#[derive(Debug)]
enum Stmt {
    Input(String),
    Output(String),
    Def {
        name: String,
        func: String,
        args: Vec<String>,
    },
}

fn lex(src: &str) -> Result<Vec<(usize, Stmt)>, ParseBenchError> {
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
            stmts.push((lineno, Stmt::Input(rest.trim().to_owned())));
        } else if let Some(rest) = strip_call(line, "OUTPUT") {
            stmts.push((lineno, Stmt::Output(rest.trim().to_owned())));
        } else if let Some(eq) = line.find('=') {
            let name = line[..eq].trim().to_owned();
            let rhs = line[eq + 1..].trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| err(format!("expected `FUNC(args)` after `=`, got `{rhs}`")))?;
            if !rhs.ends_with(')') {
                return Err(err(format!("missing `)` in `{rhs}`")));
            }
            let func = rhs[..open].trim().to_owned();
            let args: Vec<String> = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(|a| a.trim().to_owned())
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
fn const_value(line: usize, args: &[String]) -> Result<bool, ParseBenchError> {
    match args {
        [a] if a == "0" => Ok(false),
        [a] if a == "1" => Ok(true),
        _ => Err(ParseBenchError {
            line,
            message: "CONST takes a single 0 or 1".to_owned(),
        }),
    }
}

fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let upper = line.to_ascii_uppercase();
    if upper.starts_with(keyword) {
        let rest = line[keyword.len()..].trim();
        rest.strip_prefix('(')?.strip_suffix(')')
    } else {
        None
    }
}

/// Parses a `.bench` source into a [`Netlist`].
///
/// Signals referenced before (or without) a definition are resolved in a
/// second pass; a referenced but never-defined, never-declared signal is an
/// error. Keywords are case-insensitive. The non-standard `CONST(0)` /
/// `CONST(1)` definition is accepted for round-tripping constant drivers.
///
/// # Errors
///
/// Returns [`ParseBenchError`] on syntax errors, unknown gate keywords,
/// undefined signals, duplicate definitions, or any structural
/// [`BuildError`] (bad arity, combinational cycle, ...).
pub fn parse(name: &str, src: &str) -> Result<Netlist, ParseBenchError> {
    let stmts = lex(src)?;
    let mut b = NetlistBuilder::new(name);
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    let mut dff_inputs: Vec<(usize, NodeId, String)> = Vec::new();
    let mut gate_defs: Vec<(usize, String, GateKind, Vec<String>)> = Vec::new();
    let mut outputs: Vec<(usize, String)> = Vec::new();

    // Pass 1: create all named nodes (inputs, FFs, constants); record gate
    // definitions for pass 2 so forward references work.
    for (line, stmt) in &stmts {
        match stmt {
            Stmt::Input(sig) => {
                if ids.contains_key(sig) {
                    return Err(ParseBenchError {
                        line: *line,
                        message: format!("signal `{sig}` defined twice"),
                    });
                }
                ids.insert(sig.clone(), b.input(sig.clone()));
            }
            Stmt::Output(sig) => outputs.push((*line, sig.clone())),
            Stmt::Def { name, func, args } => {
                if ids.contains_key(name) {
                    return Err(ParseBenchError {
                        line: *line,
                        message: format!("signal `{name}` defined twice"),
                    });
                }
                let fu = func.to_ascii_uppercase();
                if fu == "DFF" {
                    if args.len() != 1 {
                        return Err(ParseBenchError {
                            line: *line,
                            message: format!("DFF takes one input, got {}", args.len()),
                        });
                    }
                    let id = b.dff(name.clone());
                    ids.insert(name.clone(), id);
                    dff_inputs.push((*line, id, args[0].clone()));
                } else if fu == "CONST" {
                    let v = const_value(*line, args)?;
                    ids.insert(name.clone(), b.constant(name.clone(), v));
                } else {
                    let kind: GateKind = fu.parse().map_err(|e| ParseBenchError {
                        line: *line,
                        message: format!("{e}"),
                    })?;
                    gate_defs.push((*line, name.clone(), kind, args.clone()));
                }
            }
        }
    }

    // Pass 2: create gates in dependency order (iterate until fixpoint;
    // gates whose fanins are all known can be created). `.bench` files may
    // list definitions in any order.
    let mut remaining = gate_defs;
    while !remaining.is_empty() {
        let before = remaining.len();
        let mut next = Vec::new();
        for (line, gname, kind, args) in remaining {
            if args.iter().all(|a| ids.contains_key(a)) {
                let fanins: Vec<NodeId> = args.iter().map(|a| ids[a]).collect();
                let id = b
                    .gate(gname.clone(), kind, fanins)
                    .map_err(|e| ParseBenchError {
                        line,
                        message: e.to_string(),
                    })?;
                ids.insert(gname, id);
            } else {
                next.push((line, gname, kind, args));
            }
        }
        remaining = next;
        if remaining.len() == before {
            // No progress: an undefined signal or a combinational cycle.
            let (line, gname, _, args) = &remaining[0];
            let missing: Vec<&str> = args
                .iter()
                .filter(|a| !ids.contains_key(a.as_str()))
                .map(String::as_str)
                .collect();
            return Err(ParseBenchError {
                line: *line,
                message: format!(
                    "cannot resolve inputs of `{gname}`: undefined or cyclic signal(s) {}",
                    missing.join(", ")
                ),
            });
        }
    }

    for (line, id, d) in dff_inputs {
        let d_id = *ids.get(&d).ok_or_else(|| ParseBenchError {
            line,
            message: format!("DFF input `{d}` is undefined"),
        })?;
        b.set_dff_input(id, d_id)?;
    }
    for (line, sig) in outputs {
        let id = *ids.get(&sig).ok_or_else(|| ParseBenchError {
            line,
            message: format!("OUTPUT signal `{sig}` is undefined"),
        })?;
        b.mark_output(id);
    }
    Ok(b.finish()?)
}

/// Parses a `.bench` source **permissively**, deferring structural
/// judgement to [`Netlist::defects`] and the `mcp-lint` rules.
///
/// Where [`parse`] rejects combinational cycles, wrong gate arities,
/// unconnected or multi-driven flip-flops and duplicate definitions
/// outright, this variant reconstructs the netlist exactly as written
/// (via [`NetlistBuilder::raw_node`]/[`NetlistBuilder::finish_unchecked`])
/// so a linter can *report* the defects instead. Lexical errors, unknown
/// gate keywords and malformed `CONST`s are still hard errors — there is
/// no netlist to lint without a parse.
///
/// Permissive readings of otherwise-rejected input:
///
/// * cyclic gate definitions are wired as written (gates are assigned ids
///   in textual order, so any gate may reference any other);
/// * a gate keeps every argument, whatever its kind allows;
/// * a duplicated signal name creates a second node; references resolve
///   to the first definition;
/// * a `DFF` is driven by each of its arguments that names a signal: one
///   with several is multi-driven, one with none stays unconnected;
/// * an `OUTPUT` naming an undefined signal is dropped.
///
/// # Errors
///
/// Returns [`ParseBenchError`] on syntax errors, unknown gate keywords,
/// a `CONST` other than `CONST(0)`/`CONST(1)`, or gate fanins that no
/// statement defines.
pub fn parse_unchecked(name: &str, src: &str) -> Result<Netlist, ParseBenchError> {
    let stmts = lex(src)?;
    let mut b = NetlistBuilder::new(name);
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    let mut dff_inputs: Vec<(NodeId, &[String])> = Vec::new();
    let mut gate_defs: Vec<(usize, String, GateKind, Vec<String>)> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut created = 0usize;

    for (line, stmt) in &stmts {
        match stmt {
            Stmt::Input(sig) => {
                let id = b.input(sig.clone());
                created += 1;
                ids.entry(sig.clone()).or_insert(id);
            }
            Stmt::Output(sig) => outputs.push(sig.clone()),
            Stmt::Def { name, func, args } => {
                let fu = func.to_ascii_uppercase();
                if fu == "DFF" {
                    let id = b.dff(name.clone());
                    created += 1;
                    ids.entry(name.clone()).or_insert(id);
                    dff_inputs.push((id, args));
                } else if fu == "CONST" {
                    let v = const_value(*line, args)?;
                    let id = b.constant(name.clone(), v);
                    created += 1;
                    ids.entry(name.clone()).or_insert(id);
                } else {
                    let kind: GateKind = fu.parse().map_err(|e| ParseBenchError {
                        line: *line,
                        message: format!("{e}"),
                    })?;
                    gate_defs.push((*line, name.clone(), kind, args.clone()));
                }
            }
        }
    }

    // Gates receive the next ids in textual order. Precomputing the
    // name→id map up front lets a gate reference any other gate —
    // including itself — so cyclic definitions parse.
    for (i, (_, gname, _, _)) in gate_defs.iter().enumerate() {
        ids.entry(gname.clone())
            .or_insert_with(|| NodeId::from_index(created + i));
    }
    for (line, gname, kind, args) in gate_defs {
        let fanins = args
            .iter()
            .map(|a| {
                ids.get(a).copied().ok_or_else(|| ParseBenchError {
                    line,
                    message: format!("signal `{a}` is undefined"),
                })
            })
            .collect::<Result<Vec<NodeId>, ParseBenchError>>()?;
        b.raw_node(gname, NodeKind::Gate(kind), fanins);
    }
    for (id, args) in dff_inputs {
        for d in args {
            if let Some(&d_id) = ids.get(d) {
                b.add_dff_driver(id, d_id)?;
            }
        }
    }
    for sig in outputs {
        if let Some(&id) = ids.get(&sig) {
            b.mark_output(id);
        }
    }
    Ok(b.finish_unchecked())
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
        let err = parse("bad", "OUTPUT(y)\ny = AND(a, b)\n").unwrap_err();
        assert!(err.message.contains("cannot resolve"), "{err}");
    }

    #[test]
    fn duplicate_definition_is_an_error() {
        let err = parse("bad", "INPUT(a)\na = NOT(a)\n").unwrap_err();
        assert!(err.message.contains("defined twice"), "{err}");
    }

    #[test]
    fn combinational_cycle_is_an_error() {
        let err = parse("bad", "OUTPUT(a)\na = NOT(b)\nb = NOT(a)\n").unwrap_err();
        assert!(
            err.message.contains("cyclic") || err.message.contains("cycle"),
            "{err}"
        );
    }

    #[test]
    fn dff_arity_is_checked() {
        let err = parse("bad", "INPUT(a)\nINPUT(b)\nq = DFF(a, b)\n").unwrap_err();
        assert!(err.message.contains("DFF takes one input"), "{err}");
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
        let nl = parse_unchecked("bad", "OUTPUT(q)\nq = DFF(ghost)\n").expect("parse");
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
