//! # mcpath — implication-based multi-cycle path detection
//!
//! Facade crate for the `mcpath` workspace, a from-scratch Rust
//! reproduction of H. Higuchi, *"An Implication-based Method to Detect
//! Multi-Cycle Paths in Large Sequential Circuits"*, DAC 2002.
//!
//! The workspace determines, for every ordered flip-flop pair `(FFi, FFj)`
//! of a synchronous sequential circuit, whether *all* combinational paths
//! between them are multi-cycle paths — i.e. whether a transition launched
//! at `FFi` provably never needs to be captured by `FFj` within one clock
//! cycle. It further validates detected pairs against static hazards using
//! static (co-)sensitization, which the paper shows conventional
//! non-path-based methods overlook.
//!
//! This crate re-exports the member crates under stable names:
//!
//! * [`logic`] — ternary logic and gate semantics
//! * [`netlist`] — sequential netlists, `.bench` I/O, time-frame expansion
//! * [`sim`] — bit-parallel and event-driven simulation
//! * [`implication`] — the implication engine with static learning
//! * [`atpg`] — bounded D-algorithm-style backtrack search
//! * [`sat`] — CDCL SAT solver and CNF encoding (baseline engine)
//! * [`bdd`] — BDD package and symbolic reachability (baseline engine)
//! * [`gen`] — paper circuits and synthetic benchmark generators
//! * [`lint`] — structural netlist lints and the SDC constraint validator
//! * [`core`] — the multi-cycle analysis pipeline and hazard checks
//!
//! # Quickstart
//!
//! ```
//! use mcpath::core::{analyze, McConfig, PairClass};
//! use mcpath::gen::circuits;
//!
//! // The paper's Fig.1 circuit: a gray-code counter gating two registers.
//! let netlist = circuits::fig1();
//! let report = analyze(&netlist, &McConfig::default())?;
//!
//! // (FF1, FF2) is a 3-cycle pair: the counter needs 3 cycles to travel
//! // from the state that loads FF1 to the state that captures into FF2.
//! let ff1 = netlist.ff_index(netlist.find_node("FF1").unwrap()).unwrap();
//! let ff2 = netlist.ff_index(netlist.find_node("FF2").unwrap()).unwrap();
//! assert!(matches!(report.class_of(ff1, ff2), Some(PairClass::MultiCycle { .. })));
//! # Ok::<(), mcpath::core::AnalyzeError>(())
//! ```

#![forbid(unsafe_code)]

pub mod cli;

pub use mcp_atpg as atpg;
pub use mcp_bdd as bdd;
pub use mcp_core as core;
pub use mcp_gen as gen;
pub use mcp_implication as implication;
pub use mcp_lint as lint;
pub use mcp_logic as logic;
pub use mcp_netlist as netlist;
pub use mcp_sat as sat;
pub use mcp_sim as sim;
