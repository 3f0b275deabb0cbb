//! Rule-based static analysis of [`Netlist`]s, plus validation of the SDC
//! constraints the pipeline emits.
//!
//! The multi-cycle analysis is only sound on well-formed circuits: a
//! combinational cycle breaks the 2-frame expansion, an unconnected DFF
//! has no next-state function, and a duplicated name makes `-from`/`-to`
//! constraints ambiguous. Those defects are what [`Netlist::defects`]
//! lists; this crate's Error rules report them, one finding each, and the
//! pipeline refuses a corrupt netlist with the same findings
//! ([`structural_report`]) rather than silently producing wrong answers.
//!
//! # Architecture
//!
//! * [`RULES`] — the one table of built-in rules. Each [`Rule`] is an
//!   id, a default severity and a plain check function over a
//!   [`Netlist`] and the shared [`AnalysisIndex`].
//! * [`Registry`] — runs the table: [`Registry::run`] applies a
//!   [`LintConfig`] (per-rule enable/deny, severity floor) and gives
//!   each finding its rule id and severity.
//! * [`Diagnostics`] — the report: renderable as text or JSON, with
//!   severity roll-ups.
//! * [`sdc`] — parses `set_multicycle_path` constraint text back and
//!   cross-checks it against the netlist and the verified pair list.
//!
//! Netlists that went through `NetlistBuilder::finish` are already
//! guaranteed free of the Error-level defects (the builder rejects them
//! with the same check); the lint pass exists for netlists from other
//! sources — `finish_unchecked`, deserializers, external tools — and for
//! the Warn/Info hygiene rules the builder deliberately permits.
//!
//! ```
//! use mcp_lint::{LintConfig, Registry, Severity};
//! use mcp_netlist::NetlistBuilder;
//! use mcp_logic::GateKind;
//!
//! let mut b = NetlistBuilder::new("demo");
//! let a = b.input("a");
//! let q = b.dff("q");
//! let g = b.gate("g", GateKind::Not, [a]).unwrap();
//! b.set_dff_input(q, g).unwrap();
//! // note: q is never marked as an output — a dangling FF
//! let nl = b.finish().unwrap();
//!
//! let report = Registry::with_default_rules().run(&nl, &LintConfig::default());
//! assert!(report.iter().any(|d| d.rule == "dangling-ff"));
//! assert_eq!(report.max_severity(), Some(Severity::Warn));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mcp_netlist::{Netlist, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

pub mod dataflow;
pub mod rules;
pub mod sdc;

pub use dataflow::{const_lattice, AnalysisIndex, ConstLattice, FfDomain};
pub use rules::{structural_report, RULES};
pub use sdc::{parse_sdc, validate_sdc, SdcConstraint};

// ---------------------------------------------------------------------
// Severity and diagnostics
// ---------------------------------------------------------------------

/// How bad a finding is.
///
/// Ordering is by badness: `Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Noteworthy structure, no action needed (e.g. self-loop DFFs).
    Info,
    /// Suspicious but analyzable (e.g. dead logic, dangling FFs).
    Warn,
    /// The netlist is corrupt; analysis results would be meaningless.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding: which rule fired, where, and why.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule identifier (e.g. `comb-cycle`).
    pub rule: String,
    /// Severity after any [`LintConfig`] override.
    pub severity: Severity,
    /// Dense node indices the finding is anchored to (empty for
    /// netlist-global or SDC-text findings). Convert back with
    /// [`NodeId::from_index`].
    pub nodes: Vec<usize>,
    /// Human-readable explanation, with node names resolved.
    pub message: String,
    /// 1-based line in the validated SDC text, for [`sdc`] findings.
    pub line: Option<usize>,
}

impl Diagnostic {
    /// Builds a diagnostic anchored to netlist nodes.
    pub fn new(
        rule: &str,
        severity: Severity,
        nodes: impl IntoIterator<Item = NodeId>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule: rule.to_owned(),
            severity,
            nodes: nodes.into_iter().map(NodeId::index).collect(),
            message: message.into(),
            line: None,
        }
    }

    /// Builds a diagnostic anchored to a line of SDC text.
    pub fn at_line(
        rule: &str,
        severity: Severity,
        line: usize,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule: rule.to_owned(),
            severity,
            nodes: Vec::new(),
            message: message.into(),
            line: Some(line),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.rule, self.message)?;
        if let Some(line) = self.line {
            write!(f, " (line {line})")?;
        }
        if !self.nodes.is_empty() {
            write!(f, " (nodes:")?;
            for n in &self.nodes {
                write!(f, " n{n}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A lint report: the findings of one run ([`Registry::run`] lists them
/// in [`RULES`] order).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostics {
    /// Every finding of the run, in report order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Diagnostics {
    /// No findings at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Iterates over the findings.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter()
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// `true` if any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// The worst severity present, or `None` for a clean report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends all findings of another report.
    pub fn extend(&mut self, other: Diagnostics) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Renders the report as one line per finding plus a summary line.
    pub fn render_text(&self, subject: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "{subject}: {} error(s), {} warning(s), {} note(s)",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        );
        out
    }

    /// Renders the report as machine-readable JSON.
    ///
    /// # Panics
    ///
    /// Never — the report is always serializable.
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("diagnostics serialize")
    }
}

// ---------------------------------------------------------------------
// Rules and registry
// ---------------------------------------------------------------------

/// One finding of a rule's check: the nodes it is anchored to and a
/// message with node names resolved. [`Registry::run`] gives it the
/// rule's id and severity.
pub(crate) type Finding = (Vec<NodeId>, String);

/// One built-in lint rule: an entry of [`RULES`].
///
/// A check is pure: it reads only the netlist and the [`AnalysisIndex`]
/// the registry computes once per run (structural defects, constant
/// lattice, liveness/observability, per-FF cones, FF domains), so it
/// finds the same whether other rules run or not.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case identifier, used in config and output.
    pub id: &'static str,
    /// Severity of the rule's findings unless [`LintConfig`] overrides it.
    pub(crate) severity: Severity,
    /// Pushes one [`Finding`] per finding.
    pub(crate) check: fn(&Netlist, &AnalysisIndex, &mut Vec<Finding>),
}

/// Per-run lint configuration: which rules run and how their findings are
/// classified.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    /// Rule ids that do not run at all.
    pub disabled: BTreeSet<String>,
    /// Rule id → severity replacing the rule's default (a `deny` list is
    /// a set of overrides to [`Severity::Error`]).
    pub severity_overrides: BTreeMap<String, Severity>,
    /// Rules whose severity is strictly below this do not run. `None`
    /// runs every rule.
    pub min_severity: Option<Severity>,
}

impl LintConfig {
    /// Runs only the [`Severity::Error`] rules: the structural defects,
    /// as [`structural_report`] lists them for the pipeline's admission
    /// gate; hygiene warnings must not block analysis.
    pub fn errors_only() -> LintConfig {
        LintConfig {
            min_severity: Some(Severity::Error),
            ..LintConfig::default()
        }
    }

    /// Disables a rule.
    pub fn disable(mut self, rule: &str) -> LintConfig {
        self.disabled.insert(rule.to_owned());
        self
    }

    /// Escalates a rule's findings to [`Severity::Error`].
    pub fn deny(mut self, rule: &str) -> LintConfig {
        self.severity_overrides
            .insert(rule.to_owned(), Severity::Error);
        self
    }
}

/// The rule set: the [`RULES`] table.
#[derive(Debug, Clone, Copy, Default)]
pub struct Registry;

impl Registry {
    /// The built-in rule set, [`RULES`].
    pub fn with_default_rules() -> Registry {
        Registry
    }

    /// The rules, in report order.
    pub fn rules(&self) -> &'static [Rule] {
        &RULES
    }

    /// Runs every enabled rule at or above the severity floor and
    /// collects the findings, in table order.
    pub fn run(&self, netlist: &Netlist, cfg: &LintConfig) -> Diagnostics {
        // One shared analysis per run; every rule reads from it instead
        // of re-traversing the graph.
        self.run_on(netlist, &AnalysisIndex::build(netlist), cfg)
    }

    /// [`run`](Self::run) over a given index, and the one place a finding
    /// gets its rule id and severity. A disabled rule, or one whose
    /// severity after overrides is below the floor, does not run.
    pub(crate) fn run_on(
        &self,
        netlist: &Netlist,
        index: &AnalysisIndex,
        cfg: &LintConfig,
    ) -> Diagnostics {
        let mut report = Diagnostics::default();
        let mut found = Vec::new();
        for rule in self.rules() {
            let severity = cfg
                .severity_overrides
                .get(rule.id)
                .copied()
                .unwrap_or(rule.severity);
            if cfg.disabled.contains(rule.id) || cfg.min_severity.is_some_and(|min| severity < min)
            {
                continue;
            }
            (rule.check)(netlist, index, &mut found);
            for (nodes, message) in found.drain(..) {
                report.push(Diagnostic::new(rule.id, severity, nodes, message));
            }
        }
        report
    }
}
