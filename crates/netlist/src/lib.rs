//! Gate-level synchronous sequential netlists.
//!
//! This crate provides the circuit substrate the whole workspace is built
//! on: an arena-based netlist model for synchronous sequential circuits
//! (combinational gates + single-clock positive-edge D flip-flops, no
//! direct FF-to-FF feedback through latches), exactly the circuit class of
//! the reproduced paper.
//!
//! Main entry points:
//!
//! * [`NetlistBuilder`] — programmatic construction with full validation
//!   (arity checks, combinational-cycle detection, dangling D inputs).
//! * [`Netlist::defects`] — the one structural check behind that
//!   validation, `mcp-lint`'s Error rules and the pipeline's admission
//!   gate: every [`Defect`] of a netlist, however it was built.
//! * [`mod bench`](mod@bench) — ISCAS89 `.bench` format parser and writer, so the real
//!   benchmark suite can be analyzed when the files are available.
//! * [`Netlist`] — the immutable circuit with precomputed topological
//!   order, levels and fanouts, plus the structural analyses the paper's
//!   step 1 needs ([`Netlist::connected_ff_pairs`]).
//! * [`expand::Expanded`] — the time-frame expansion used by the
//!   implication engine, the ATPG search and the SAT encoding: `F`
//!   combinational copies of the logic connected through the FF boundary,
//!   exposing the value of any flip-flop at times `t .. t+F`.
//! * [`expand::Slice`] — the cone-of-influence slice of an expansion
//!   ([`expand::Expanded::build_slice`]): per-pair engine work scales with
//!   the pair's cone instead of the whole circuit.
//! * [`diff()`] — the name-keyed structural delta between two revisions of
//!   a circuit, feeding ECO-style incremental re-analysis.
//!
//! # Example
//!
//! ```
//! use mcp_logic::GateKind;
//! use mcp_netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new("toggle");
//! let ff = b.dff("Q");
//! let nq = b.gate("NQ", GateKind::Not, [ff])?;
//! b.set_dff_input(ff, nq)?;
//! b.mark_output(ff);
//! let netlist = b.finish()?;
//!
//! assert_eq!(netlist.num_ffs(), 1);
//! assert_eq!(netlist.connected_ff_pairs(), vec![(0, 0)]);
//! # Ok::<(), mcp_netlist::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod builder;
pub mod check;
pub mod diff;
pub mod dot;
pub mod expand;
pub mod graph;
pub mod model;
pub mod sweep;

pub use builder::{BuildError, NetlistBuilder};
pub use check::Defect;
pub use diff::{diff, NetlistDiff};
pub use expand::{Expanded, Slice, VarOrigin, XId, XKind};
pub use model::{Netlist, Node, NodeId, NodeKind, Stats};
pub use sweep::{sweep, SweepStats};
