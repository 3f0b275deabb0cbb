//! Multi-valued logic for gate-level analysis.
//!
//! This crate is the semantic foundation of the workspace: it defines the
//! value domains and gate functions every other crate (simulation,
//! implication, ATPG, SAT encoding, BDD construction) agrees on.
//!
//! Two domains are provided:
//!
//! * [`V3`] — the classic ternary domain `{0, 1, X}` used by the implication
//!   engine, the event-driven simulator and the hazard checks (which read
//!   frame-1 values). `X` means *unassigned / unknown*, and all operations
//!   are the strongest monotone extensions of the Boolean functions (e.g.
//!   `AND(0, X) = 0`).
//! * Bit-parallel 64-lane Boolean words (`u64`), evaluated by
//!   [`GateKind::eval_word`], used by the random-pattern simulator.
//!
//! [`GateKind`] enumerates the combinational gate functions of the netlist
//! model (the ISCAS89 gate set) together with their structural properties:
//! controlling value, output inversion, and evaluation over each domain.
//!
//! # Example
//!
//! ```
//! use mcp_logic::{GateKind, V3};
//!
//! // A controlling 0 on an AND input decides the output even when the
//! // other input is unknown.
//! let out = GateKind::And.eval_v3([V3::Zero, V3::X]);
//! assert_eq!(out, V3::Zero);
//!
//! // NAND inverts, and its controlling value is 0.
//! assert_eq!(GateKind::Nand.controlling_value(), Some(false));
//! assert!(GateKind::Nand.output_inversion());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod v3;

pub use gate::GateKind;
pub use v3::V3;
