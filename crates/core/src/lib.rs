//! Multi-cycle FF-pair analysis — the paper's contribution.
//!
//! This crate assembles the workspace's substrates into the analysis flow
//! of *"An Implication-based Method to Detect Multi-Cycle Paths in Large
//! Sequential Circuits"* (Higuchi, DAC 2002):
//!
//! 1. **Structural filter** — keep only topologically connected FF pairs
//!    ([`mcp_netlist::Netlist::connected_ff_pairs`]).
//! 2. **Random-pattern simulation** — disprove most single-cycle pairs
//!    cheaply ([`mcp_sim::mc_filter`]).
//! 3. **Time-frame expansion** — 2 frames (or `k` for k-cycle detection),
//!    optionally with SOCRATES-style static learning.
//! 4. **Per-pair, per-assignment implication + bounded ATPG** — prove the
//!    remaining candidates multi-cycle or exhibit a violating pattern.
//!
//! The same prefilters can drive the two baseline engines for comparison:
//! the SAT formulation of \[9\] ([`Engine::Sat`]) and the BDD-based
//! symbolic formulation of \[8\] ([`Engine::Bdd`]).
//!
//! Finally, [`hazard`] implements the paper's Section 5: validating
//! detected multi-cycle pairs against **static hazards** using static
//! sensitization and static co-sensitization, which plain MC-condition
//! methods (including the baselines) silently ignore.
//!
//! # Quickstart
//!
//! ```
//! use mcp_core::{analyze, McConfig, PairClass};
//! use mcp_netlist::bench;
//!
//! // A register with a hold loop: its self pair is multi-cycle.
//! let nl = bench::parse("hold", "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = BUFF(q)")?;
//! let report = analyze(&nl, &McConfig::default())?;
//! assert!(matches!(
//!     report.class_of(0, 0),
//!     Some(PairClass::MultiCycle { .. })
//! ));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod borrowing;
pub mod budget;
pub mod cache;
pub mod cas;
pub mod config;
pub mod eco;
pub mod engines;
pub mod hazard;
pub mod pipeline;
pub mod report;
pub mod resume;
mod schedule;
pub mod sdc;
pub mod stage;

pub use borrowing::condition2_candidates;
pub use budget::{max_cycle_budgets, CycleBudget, PairBudgets};
pub use cache::analyze_cached_with;
pub use cas::{CacheStats, CasError, CasLock, CasStore, GcOutcome, StageUsage};
pub use config::{Engine, McConfig};
pub use eco::{analyze_eco_with, EcoSummary};
pub use hazard::{
    check_hazards, check_hazards_with, sensitization_dependencies, HazardCheck, HazardReport,
    SensitizationDependencies,
};
pub use pipeline::{
    analyze, analyze_from, analyze_with, Analysis, AnalyzeError, DigestKind, VerdictSource,
};
pub use report::{McReport, PairClass, PairResult, Step, StepStats};
pub use sdc::{to_sdc, SdcOptions};
pub use stage::{stage_key, stage_key_for, VerdictRecord, VerdictsArtifact};
