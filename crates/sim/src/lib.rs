//! Simulation engines for sequential netlists.
//!
//! Simulators, each matched to a phase of the paper's flow:
//!
//! * [`ParallelSim`] — 64-lane bit-parallel two-valued simulation. One
//!   `u64` word per node carries 64 independent Boolean patterns, so a
//!   single pass over the levelized gates simulates 64 input vectors.
//!   This is the paper's "parallel pattern simulation", and the
//!   graph-walking oracle the compiled kernel is tested against.
//! * The compiled kernel: [`Tape::compile`] lowers the netlist in one
//!   topological sweep into a flat, levelized stream of fused binary
//!   instructions (constants folded, buffers chained away, NOTs riding
//!   on operand polarity bits); [`FusedTape::lower`] drops the
//!   instructions that cannot reach an FF and renumbers the rest;
//!   [`JitKernel::compile`] emits native x86-64 AVX2 code for that
//!   stream, run by [`JitSim`]. Everywhere the emitter does not target
//!   — no AVX2, or fewer than 256 lanes — [`FusedSim`] interprets the
//!   same stream. A const-generic `[u64; W]` word evaluates `64 × W`
//!   patterns per pass.
//! * [`filter::mc_filter`] — the paper's step 2: repeated 2-clock random
//!   simulation that *disproves* the multi-cycle condition for most
//!   single-cycle FF pairs cheaply, stopping once no pair has been dropped
//!   for a configurable number of consecutive words (32 in the paper).
//!   Runs on the compiled kernel the host supports (`FilterConfig::lanes`
//!   selects the width) with a lane-width determinism contract: the
//!   outcome is byte-identical to the 64-lane reference at every
//!   supported width.
//! * [`EventSim`] — an event-driven three-valued simulator over the
//!   original netlist, used by tests and the examples for cycle-accurate
//!   inspection of small circuits.
//! * [`DelaySim`] — a two-valued transport-delay simulator that makes
//!   **dynamic glitches** observable, the delay-dependent ground truth the
//!   static hazard checks are validated against; [`sample_glitch`] hunts
//!   one down on a flip-flop pair under random edges and delays.
//!
//! # Example
//!
//! ```
//! use mcp_netlist::bench;
//! use mcp_sim::ParallelSim;
//!
//! let nl = bench::parse("t", "INPUT(A)\nOUTPUT(Q)\nQ = DFF(D)\nD = XOR(Q, A)")?;
//! let mut sim = ParallelSim::new(&nl);
//! sim.set_state(0, 0);              // Q = 0 in every lane
//! sim.set_input(0, u64::MAX);       // A = 1 in every lane
//! sim.eval();
//! assert_eq!(sim.next_state(0), u64::MAX); // Q toggles to 1 everywhere
//! # Ok::<(), mcp_netlist::bench::ParseBenchError>(())
//! ```

// `deny` rather than `forbid`: the JIT's mmap/emit module (`jit`) is the
// one audited exception and opts back in with a module-level allow;
// `forbid` would make that override impossible.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod event;
pub mod filter;
pub mod jit;
#[cfg(test)]
mod kernel_diff;
pub mod lower;
pub mod parallel;
pub mod tape;
pub mod vcd;

pub use delay::{sample_glitch, DelaySim, EdgeReport, Glitch};
pub use event::EventSim;
pub use filter::{
    mc_filter, mc_filter_stats, mc_filter_stats_seeded, FilterConfig, FilterOutcome, FilterStats,
    PairDrop,
};
pub use jit::{JitKernel, JitSim};
pub use lower::{FusedOp, FusedRef, FusedSim, FusedTape};
pub use parallel::ParallelSim;
pub use tape::Tape;
