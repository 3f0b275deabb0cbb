//! The four workloads. Each is a closed loop with one client: the next
//! op starts only after the previous op and its check have finished.

use crate::check;
use crate::inputs::{self, Circuit, EditChain};
use crate::layers::{self, Trace};
use crate::stats;
use mcp_core::{
    analyze_cached_with, analyze_eco_with, analyze_with, check_hazards_with, stage_key_for, to_sdc,
    CasStore, Engine, HazardCheck, HazardReport, McConfig, McReport, SdcOptions, VerdictsArtifact,
};
use mcp_netlist::{bench, Netlist};
use mcp_obs::{ObsCtx, SpanEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Set-up passes per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Hard stop for the measuring loop, so a run ends well within three
/// minutes whatever `--seconds` asks for.
const MAX_LOOP_S: f64 = 120.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Suite,
    Large,
    Signoff,
    Incremental,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Suite, Kind::Large, Kind::Signoff, Kind::Incremental];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Suite => "suite",
            Kind::Large => "large",
            Kind::Signoff => "signoff",
            Kind::Incremental => "incremental",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Pair-loop worker threads: `large` is the one workload big enough
    /// for the parallel pair loop to matter.
    pub fn threads(self, cores: usize) -> usize {
        match self {
            Kind::Large => cores.clamp(1, 2),
            _ => 1,
        }
    }
}

/// Input sizes: the benchmark's own, or tiny stand-ins that let the
/// harness tests run every workload in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizing {
    Full,
    Tiny,
}

/// The analysis configuration every op runs. Every field that decides
/// verdicts or the pipeline's shape is set here rather than left to
/// library defaults: the paper's implication engine, 2 cycles, backtrack
/// limit 50, 256-lane prefilter, cone slicing, no store. The rest
/// (prefilter seed and kernel tier, scheduler, learning budget) are the
/// defaults of an environment without `MCPATH_*` variables.
pub fn config(threads: usize) -> McConfig {
    let base = McConfig::default();
    let mut sim = base.sim;
    sim.lanes = 256;
    McConfig {
        engine: Engine::Implication,
        cycles: 2,
        use_sim_filter: true,
        sim,
        backtrack_limit: 50,
        static_learning: false,
        include_self_pairs: true,
        lint: true,
        slice: true,
        static_classify: true,
        threads,
        cache_dir: None,
        ..base
    }
}

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizing: Sizing,
    pub cores: usize,
}

/// Everything one workload run reports.
pub struct Outcome {
    pub threads: usize,
    pub sim_kernel: String,
    /// Gated metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ungated context printed beside them.
    pub notes: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub spans: Vec<SpanEvent>,
}

/// Op samples and check outcomes of one run.
#[derive(Default)]
struct Samples {
    by_class: BTreeMap<String, Vec<f64>>,
    /// Pairs given a verdict per second of op time, one value per round.
    rates: Vec<f64>,
    round_busy: f64,
    round_pairs: u64,
    pairs: u64,
    decided: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Samples {
    /// Records one op of `class` (its input or kind) and its check.
    fn op(&mut self, class: &str, secs: f64, report: Option<&McReport>, check: Result<(), String>) {
        self.attempted += 1;
        self.by_class
            .entry(class.to_owned())
            .or_default()
            .push(secs);
        self.round_busy += secs;
        if let Some(r) = report {
            self.round_pairs += r.pairs.len() as u64;
            self.pairs += r.pairs.len() as u64;
            self.decided += check::decided(r);
        }
        if let Err(e) = check {
            self.fail(e);
        }
    }

    fn end_round(&mut self) {
        if self.round_busy > 0.0 {
            self.rates.push(self.round_pairs as f64 / self.round_busy);
        }
        self.round_busy = 0.0;
        self.round_pairs = 0;
    }

    /// A failed check outside any timed op.
    fn refuse(&mut self, e: String) {
        self.attempted += 1;
        self.fail(e);
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(e);
        }
    }
}

fn canonical(report: &McReport) -> Result<String, String> {
    serde_json::to_string(&report.canonical()).map_err(|e| format!("serializing the report: {e}"))
}

fn same(what: &str, got: &str, want: Option<&String>) -> Result<(), String> {
    match want {
        Some(w) if w == got => Ok(()),
        Some(_) => Err(format!("{what}: output differs from its reference")),
        None => Err(format!("{what}: no reference output")),
    }
}

/// One workload's inputs and references.
trait Workload {
    /// One cold pass over the distinct inputs. Returns its seconds,
    /// checks excluded; the first pass records the references.
    fn setup(&mut self, first: bool) -> Result<f64, String>;
    /// Cross-checks the references (and seed-0 pins); returns failures.
    fn verify(&mut self) -> Vec<String>;
    fn round(&mut self, s: &mut Samples);
    fn traced_round(&mut self, t: &mut Trace, s: &mut Samples);
    /// The prefilter kernel tag the references ran on.
    fn sim_kernel(&self) -> String;
    /// Untimed work done inside rounds (generation, reference runs).
    fn overhead(&self) -> f64 {
        0.0
    }
}

fn kernel_tag(report: Option<&McReport>) -> String {
    report
        .and_then(|r| r.stats.sim_kernel)
        .map_or("none", |k| k.tag())
        .to_owned()
}

/// The op of `suite` and `large`: parse, analyze, canonical report.
fn analyze_op(c: &Circuit, cfg: &McConfig) -> Result<(McReport, String), String> {
    let nl = bench::parse(&c.name, &c.text).map_err(|e| format!("{}: {e}", c.name))?;
    let report = analyze_with(&nl, cfg, &ObsCtx::new()).map_err(|e| format!("{}: {e}", c.name))?;
    let json = canonical(&report)?;
    Ok((report, json))
}

struct Analyze {
    label: &'static str,
    inputs: Vec<Circuit>,
    cfg: McConfig,
    pinned: bool,
    refs: Vec<String>,
    cold: Vec<McReport>,
}

impl Workload for Analyze {
    fn setup(&mut self, first: bool) -> Result<f64, String> {
        let mut secs = 0.0;
        for (k, c) in self.inputs.iter().enumerate() {
            let t = Instant::now();
            let (report, json) = analyze_op(c, &self.cfg)?;
            secs += t.elapsed().as_secs_f64();
            if first {
                self.refs.push(json);
                self.cold.push(report);
            } else {
                same(&c.name, &json, self.refs.get(k))?;
            }
        }
        Ok(secs)
    }

    fn verify(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        for (c, r) in self.inputs.iter().zip(&self.cold) {
            errors.extend(check::cross_check(&c.netlist, &self.cfg, r).err());
            if self.pinned {
                errors.extend(check::pin(&c.name, r).err());
            }
        }
        errors
    }

    fn round(&mut self, s: &mut Samples) {
        for (k, c) in self.inputs.iter().enumerate() {
            let t = Instant::now();
            let out = analyze_op(c, &self.cfg);
            let secs = t.elapsed().as_secs_f64();
            match out {
                Ok((r, json)) => s.op(
                    &c.name,
                    secs,
                    Some(&r),
                    same(&c.name, &json, self.refs.get(k)),
                ),
                Err(e) => s.op(&c.name, secs, None, Err(e)),
            }
        }
    }

    fn traced_round(&mut self, t: &mut Trace, s: &mut Samples) {
        let cfg1 = McConfig {
            threads: 1,
            ..self.cfg.clone()
        };
        for (k, c) in self.inputs.iter().enumerate() {
            let t0 = Instant::now();
            let out = analyze_op(c, &cfg1);
            let untraced = t0.elapsed().as_secs_f64();
            let (report, json) = match out {
                Ok(v) => v,
                Err(e) => {
                    s.op(&c.name, untraced, None, Err(e));
                    continue;
                }
            };
            s.op(
                &c.name,
                untraced,
                Some(&report),
                same(&c.name, &json, self.refs.get(k)),
            );

            let path = t.next_path(self.label);
            let totals = &mut t.totals;
            let ((replay, bytes), fin) = layers::traced_op(&t.tracer, path, |op| {
                let replay = op
                    .layer("netlist.parse_s", || bench::parse(&c.name, &c.text))
                    .map_err(|e| format!("{}: {e}", c.name))
                    .and_then(|nl| {
                        let verdicts = layers::replay_analysis(op, totals, &nl, &cfg1);
                        op.layer("netlist.parse_s", || drop(nl));
                        verdicts
                    });
                (
                    replay,
                    op.layer("report.canonical_s", || canonical(&report)),
                )
            });
            let prefilter = fin.layer("sim.prefilter_s");
            t.totals.add("_replay_wall", fin.wall);
            t.end(fin);
            t.totals.add("_untraced_wall", untraced);
            t.totals.add("_ops", 1.0);
            match replay {
                Ok(v) if v == report.pairs => {}
                Ok(_) => s.fail(format!(
                    "{}: replay verdicts differ from analyze_with",
                    c.name
                )),
                Err(e) => s.fail(e),
            }
            match bytes {
                Ok(b) => t.totals.add("report.bytes", b.len() as f64),
                Err(e) => s.fail(e),
            }

            let (compile, kernel) =
                layers::sim_split(&c.netlist, &cfg1, report.metrics.counters.sim_passes);
            t.totals.add("sim.compile_s", compile);
            t.totals.add("sim.kernel_s", kernel);
            t.totals.add("_split_prefilter", prefilter);
            if self.cfg.threads > 1 {
                match layers::balance(&c.netlist, &self.cfg) {
                    Ok(b) => {
                        t.totals.add("_balance", b);
                        t.totals.add("_balance_runs", 1.0);
                    }
                    Err(e) => s.fail(e),
                }
            }
        }
    }

    fn sim_kernel(&self) -> String {
        kernel_tag(self.cold.first())
    }
}

/// Reference outputs of one `signoff` input.
struct SignoffRef {
    canonical: String,
    sens: Vec<(usize, usize)>,
    cosens: Vec<(usize, usize)>,
    sdc: String,
}

/// The op of `signoff` (the paper's Table 3 flow): analyze, both hazard
/// checks, and the SDC of the co-sensitization survivors.
fn signoff_op(
    nl: &Netlist,
    cfg: &McConfig,
) -> Result<(McReport, HazardReport, HazardReport, String), String> {
    let report =
        analyze_with(nl, cfg, &ObsCtx::new()).map_err(|e| format!("{}: {e}", nl.name()))?;
    let sens = check_hazards_with(nl, &report, HazardCheck::Sensitization, &ObsCtx::new());
    let cosens = check_hazards_with(nl, &report, HazardCheck::CoSensitization, &ObsCtx::new());
    let sdc = to_sdc(
        nl,
        &report,
        &SdcOptions {
            robust_only: Some(cosens.clone()),
            cycles: cfg.cycles,
        },
    );
    Ok((report, sens, cosens, sdc))
}

/// Checks one signoff op's outputs on their own terms, and against the
/// reference when one is given; returns the outputs as a reference.
fn signoff_check(
    nl: &Netlist,
    report: &McReport,
    sens: &HazardReport,
    cosens: &HazardReport,
    sdc: &str,
    reference: Option<&SignoffRef>,
) -> Result<SignoffRef, String> {
    let name = nl.name();
    let sens_set: BTreeSet<&(usize, usize)> = sens.robust.iter().collect();
    if let Some(p) = cosens.robust.iter().find(|p| !sens_set.contains(p)) {
        return Err(format!(
            "{name}: pair {p:?} is co-sensitization robust but not sensitization robust"
        ));
    }
    let diags = mcp_lint::validate_sdc(nl, &report.multi_cycle_pairs(), sdc);
    if diags.has_errors() {
        return Err(format!(
            "{name}: SDC fails validation: {}",
            diags.render_text(name)
        ));
    }
    let out = SignoffRef {
        canonical: canonical(report)?,
        sens: sens.robust.clone(),
        cosens: cosens.robust.clone(),
        sdc: sdc.to_owned(),
    };
    if let Some(r) = reference {
        if (&out.canonical, &out.sens, &out.cosens, &out.sdc)
            != (&r.canonical, &r.sens, &r.cosens, &r.sdc)
        {
            return Err(format!(
                "{name}: signoff outputs differ from their reference"
            ));
        }
    }
    Ok(out)
}

struct Signoff {
    inputs: Vec<Circuit>,
    cfg: McConfig,
    pinned: bool,
    refs: Vec<SignoffRef>,
    cold: Vec<McReport>,
}

impl Signoff {
    /// Checks input `k`'s op outputs against its reference.
    fn check(
        &self,
        k: usize,
        report: &McReport,
        sens: &HazardReport,
        cosens: &HazardReport,
        sdc: &str,
    ) -> Result<(), String> {
        let nl = &self.inputs[k].netlist;
        let reference = self
            .refs
            .get(k)
            .ok_or_else(|| format!("{}: no reference output", nl.name()))?;
        signoff_check(nl, report, sens, cosens, sdc, Some(reference)).map(|_| ())
    }
}

impl Workload for Signoff {
    fn setup(&mut self, first: bool) -> Result<f64, String> {
        let mut secs = 0.0;
        for (k, c) in self.inputs.iter().enumerate() {
            let t = Instant::now();
            let (report, sens, cosens, sdc) = signoff_op(&c.netlist, &self.cfg)?;
            secs += t.elapsed().as_secs_f64();
            let reference = if first { None } else { self.refs.get(k) };
            let out = signoff_check(&c.netlist, &report, &sens, &cosens, &sdc, reference)?;
            if first {
                self.refs.push(out);
                self.cold.push(report);
            }
        }
        Ok(secs)
    }

    fn verify(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        for (c, r) in self.inputs.iter().zip(&self.cold) {
            errors.extend(check::cross_check(&c.netlist, &self.cfg, r).err());
            if self.pinned {
                errors.extend(check::pin(&c.name, r).err());
            }
        }
        errors
    }

    fn round(&mut self, s: &mut Samples) {
        for (k, c) in self.inputs.iter().enumerate() {
            let t = Instant::now();
            let out = signoff_op(&c.netlist, &self.cfg);
            let secs = t.elapsed().as_secs_f64();
            match out {
                Ok((r, sens, cosens, sdc)) => {
                    let check = self.check(k, &r, &sens, &cosens, &sdc);
                    s.op(&c.name, secs, Some(&r), check);
                }
                Err(e) => s.op(&c.name, secs, None, Err(e)),
            }
        }
    }

    fn traced_round(&mut self, t: &mut Trace, s: &mut Samples) {
        for (k, c) in self.inputs.iter().enumerate() {
            let nl = &c.netlist;
            let t0 = Instant::now();
            let out = signoff_op(nl, &self.cfg);
            let untraced = t0.elapsed().as_secs_f64();
            let (report, sens, cosens, sdc) = match out {
                Ok(v) => v,
                Err(e) => {
                    s.op(&c.name, untraced, None, Err(e));
                    continue;
                }
            };
            let check = self.check(k, &report, &sens, &cosens, &sdc);
            s.op(&c.name, untraced, Some(&report), check);

            let path = t.next_path("signoff");
            let totals = &mut t.totals;
            let ((replay, sens, cosens, traced_sdc), fin) =
                layers::traced_op(&t.tracer, path, |op| {
                    let replay = layers::replay_analysis(op, totals, nl, &self.cfg);
                    let sens = op.layer("hazard.sens_s", || {
                        check_hazards_with(nl, &report, HazardCheck::Sensitization, &ObsCtx::new())
                    });
                    let cosens = op.layer("hazard.cosens_s", || {
                        check_hazards_with(
                            nl,
                            &report,
                            HazardCheck::CoSensitization,
                            &ObsCtx::new(),
                        )
                    });
                    let sdc = op.layer("sdc.emit_s", || {
                        to_sdc(
                            nl,
                            &report,
                            &SdcOptions {
                                robust_only: Some(cosens.clone()),
                                cycles: self.cfg.cycles,
                            },
                        )
                    });
                    (replay, sens, cosens, sdc)
                });
            let prefilter = fin.layer("sim.prefilter_s");
            t.totals.add("_replay_wall", fin.wall);
            t.end(fin);
            t.totals.add("_untraced_wall", untraced);
            t.totals.add("_ops", 1.0);
            t.totals
                .add("_hazard_multi", report.stats.multi_total() as f64);
            t.totals.add("_sens_robust", sens.robust.len() as f64);
            t.totals.add("_cosens_robust", cosens.robust.len() as f64);
            match replay {
                Ok(v) if v == report.pairs => {}
                Ok(_) => s.fail(format!(
                    "{}: replay verdicts differ from analyze_with",
                    c.name
                )),
                Err(e) => s.fail(e),
            }
            if traced_sdc != sdc {
                s.fail(format!(
                    "{}: traced SDC differs from the untraced op's",
                    c.name
                ));
            }
            let (compile, kernel) =
                layers::sim_split(nl, &self.cfg, report.metrics.counters.sim_passes);
            t.totals.add("sim.compile_s", compile);
            t.totals.add("sim.kernel_s", kernel);
            t.totals.add("_split_prefilter", prefilter);
        }
    }

    fn sim_kernel(&self) -> String {
        kernel_tag(self.cold.first())
    }
}

/// `incremental`: a chain of one-gate ECO revisions against one store.
struct Incremental {
    base: Circuit,
    cfg: McConfig,
    pinned: bool,
    dir: PathBuf,
    store: Option<CasStore>,
    chain: EditChain,
    head: Netlist,
    revision: usize,
    base_ref: Option<(McReport, String)>,
    overhead: f64,
}

/// A revision's cold run: the reference its ECO and warm ops must equal.
struct Revision {
    circuit: Circuit,
    json: String,
}

impl Incremental {
    /// Generates the next revision and its checked reference, counting
    /// the time as overhead.
    fn next_revision(&mut self) -> Result<Revision, String> {
        let t = Instant::now();
        let out = self.generate_revision();
        self.overhead += t.elapsed().as_secs_f64();
        out
    }

    fn generate_revision(&mut self) -> Result<Revision, String> {
        let (circuit, what) = self.chain.next_revision()?;
        self.revision += 1;
        let label = format!("{}@r{}", circuit.name, self.revision);
        let cold = analyze_with(&circuit.netlist, &self.cfg, &ObsCtx::new())
            .map_err(|e| format!("{label} ({what}): {e}"))?;
        check::cross_check(&circuit.netlist, &self.cfg, &cold)
            .map_err(|e| format!("{label} ({what}): {e}"))?;
        if self.pinned && self.revision <= check::PINNED_REVISIONS {
            check::pin(&label, &cold)?;
        }
        let json = canonical(&cold)?;
        Ok(Revision { circuit, json })
    }

    fn store(&self) -> Result<&CasStore, String> {
        self.store
            .as_ref()
            .ok_or_else(|| "no store: set-up failed".to_owned())
    }

    /// The ECO op: re-analyze `rev` against the head revision's stored
    /// verdicts.
    fn eco(&self, rev: &Netlist, obs: &ObsCtx) -> Result<Answer, String> {
        let (report, summary) = analyze_eco_with(&self.head, rev, &self.cfg, obs, self.store()?)
            .map_err(|e| format!("eco: {e}"))?;
        let json = canonical(&report)?;
        Ok(Answer {
            report,
            json,
            eco: (summary.pairs_reverified, summary.pairs_spliced),
        })
    }

    /// The warm op: answer `rev` from the store.
    fn warm(&self, rev: &Netlist, obs: &ObsCtx) -> Result<Answer, String> {
        let report = analyze_cached_with(rev, &self.cfg, obs, self.store()?)
            .map_err(|e| format!("warm: {e}"))?;
        let json = canonical(&report)?;
        Ok(Answer {
            report,
            json,
            eco: (0, 0),
        })
    }
}

/// One ECO or warm op's outputs.
struct Answer {
    report: McReport,
    json: String,
    /// `(pairs re-verified, pairs spliced)` of an ECO op.
    eco: (usize, usize),
}

impl Drop for Incremental {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
        if let Some(parent) = self.dir.parent() {
            // Removed only when empty: another run may share it.
            std::fs::remove_dir(parent).ok();
        }
    }
}

fn check_eq(what: &str, got: &Result<Answer, String>, want: &str) -> Result<(), String> {
    match got {
        Ok(a) if a.json == want => Ok(()),
        Ok(_) => Err(format!("{what}: output differs from its reference")),
        Err(e) => Err(e.clone()),
    }
}

impl Workload for Incremental {
    fn setup(&mut self, first: bool) -> Result<f64, String> {
        self.store = None;
        std::fs::remove_dir_all(&self.dir).ok();
        let store = CasStore::open(&self.dir).map_err(|e| format!("opening the store: {e}"))?;
        let t = Instant::now();
        let report = analyze_cached_with(&self.base.netlist, &self.cfg, &ObsCtx::new(), &store)
            .map_err(|e| format!("{}: cold store fill: {e}", self.base.name))?;
        let json = canonical(&report)?;
        let secs = t.elapsed().as_secs_f64();
        self.store = Some(store);
        match &self.base_ref {
            None if first => self.base_ref = Some((report, json)),
            Some((_, want)) if *want == json => {}
            _ => return Err(format!("{}: cold store fill differs", self.base.name)),
        }
        Ok(secs)
    }

    fn verify(&mut self) -> Vec<String> {
        let Some((report, json)) = &self.base_ref else {
            return vec!["incremental: no base reference".to_owned()];
        };
        let mut errors = Vec::new();
        errors.extend(check::cross_check(&self.base.netlist, &self.cfg, report).err());
        match analyze_with(&self.base.netlist, &self.cfg, &ObsCtx::new()).map(|r| canonical(&r)) {
            Ok(Ok(plain)) if plain == *json => {}
            _ => errors.push(format!(
                "{}: store fill differs from a plain run",
                self.base.name
            )),
        }
        if self.pinned {
            errors.extend(check::pin(&self.base.name, report).err());
        }
        errors
    }

    fn round(&mut self, s: &mut Samples) {
        let rev = match self.next_revision() {
            Ok(r) => r,
            Err(e) => return s.refuse(e),
        };
        let nl = &rev.circuit.netlist;
        let t = Instant::now();
        let eco = self.eco(nl, &ObsCtx::new());
        let secs = t.elapsed().as_secs_f64();
        s.op(
            "eco",
            secs,
            eco.as_ref().ok().map(|a| &a.report),
            check_eq("eco", &eco, &rev.json),
        );
        let eco_json = eco.map_or(rev.json.clone(), |a| a.json);
        for _ in 0..2 {
            let t = Instant::now();
            let warm = self.warm(nl, &ObsCtx::new());
            let secs = t.elapsed().as_secs_f64();
            s.op(
                "warm",
                secs,
                warm.as_ref().ok().map(|a| &a.report),
                check_eq("warm", &warm, &eco_json),
            );
        }
        self.head = rev.circuit.netlist;
    }

    fn traced_round(&mut self, t: &mut Trace, s: &mut Samples) {
        let rev = match self.next_revision() {
            Ok(r) => r,
            Err(e) => return s.refuse(e),
        };
        let nl = &rev.circuit.netlist;
        let store = match self.store() {
            Ok(store) => store.clone(),
            Err(e) => return s.refuse(e),
        };
        let bytes = || store.stats().map_or(0.0, |st| st.entry_bytes as f64);
        let before = bytes();
        let eco_obs = ObsCtx::new();
        let warm_obs = [ObsCtx::new(), ObsCtx::new()];
        let key = stage_key_for("verdicts", nl.content_hash(), &self.cfg);

        let path = t.next_path("incremental");
        let ((eco, warm, got), fin) = layers::traced_op(&t.tracer, path, |op| {
            let eco = op.layer("eco.op_s", || self.eco(nl, &eco_obs));
            let warm: Vec<_> = warm_obs
                .iter()
                .map(|obs| op.layer("cache.warm_op_s", || self.warm(nl, obs)))
                .collect();
            let got = op.layer("cas.get_s", || {
                store.get::<VerdictsArtifact>("verdicts", key)
            });
            (eco, warm, got)
        });
        let (wall, get_s, warm_s) = (
            fin.wall,
            fin.layer("cas.get_s"),
            fin.layer("cache.warm_op_s"),
        );
        t.end(fin);
        t.totals.add("cas.bytes", bytes() - before);
        for e in std::iter::once(check_eq("eco", &eco, &rev.json))
            .chain(warm.iter().map(|w| check_eq("warm", w, &rev.json)))
            .filter_map(Result::err)
        {
            s.fail(e);
        }
        match got {
            Ok(Some(_)) => {}
            Ok(None) => s.fail("cas.get: the revision's verdicts are not in the store".to_owned()),
            Err(e) => s.fail(format!("cas.get: {e}")),
        }

        // The same three ops untraced, for the tracing overhead.
        let t0 = Instant::now();
        let again = self.eco(nl, &ObsCtx::new());
        let mut untraced = t0.elapsed().as_secs_f64();
        s.op(
            "eco",
            untraced,
            again.as_ref().ok().map(|a| &a.report),
            check_eq("eco", &again, &rev.json),
        );
        for _ in 0..2 {
            let t0 = Instant::now();
            let w = self.warm(nl, &ObsCtx::new());
            let secs = t0.elapsed().as_secs_f64();
            untraced += secs;
            s.op(
                "warm",
                secs,
                w.as_ref().ok().map(|a| &a.report),
                check_eq("warm", &w, &rev.json),
            );
        }

        if let Ok(a) = &eco {
            t.totals.add("_eco_reverified", a.eco.0 as f64);
            t.totals.add("_eco_spliced", a.eco.1 as f64);
        }
        for obs in std::iter::once(&eco_obs).chain(&warm_obs) {
            let span = |path: &str| obs.timers.total(path).as_secs_f64();
            t.totals.add("sim.prefilter_s", span("analyze/sim"));
            t.totals.add("lint.admission_s", span("analyze/lint"));
            t.totals.add("lint.static_s", span("analyze/static"));
            let c = obs.metrics.counters();
            t.totals.add("sim.words", c.sim_words as f64);
            t.totals.add("sim.passes", c.sim_passes as f64);
            t.totals.add("sim.fused_ops", c.sim_fused_ops as f64);
            t.totals.add("_sim_dropped", c.sim_pairs_dropped as f64);
            t.totals.add("netlist.slice_builds", c.slice_builds as f64);
            t.totals.add("_slice_nodes", c.slice_nodes as f64);
            t.totals
                .add("implication.implications", c.implications as f64);
            t.totals.add("atpg.decisions", c.atpg_decisions as f64);
            t.totals.add("atpg.backtracks", c.atpg_backtracks as f64);
            t.totals.add("atpg.aborts", c.atpg_aborts as f64);
        }
        for a in eco.iter().chain(warm.iter().flatten()) {
            let st = &a.report.stats;
            t.totals
                .add("_sim_in", (st.candidates - st.multi_by_static) as f64);
        }
        for obs in &warm_obs {
            t.totals
                .add("_warm_sim", obs.timers.total("analyze/sim").as_secs_f64());
        }
        t.totals.add("_warm_wall", warm_s);
        t.totals.add("_replay_wall", wall - get_s);
        t.totals.add("_untraced_wall", untraced);
        t.totals.add("_ops", 3.0);
        t.totals.add("_eco_ops", 1.0);
        t.totals.add("_warm_ops", 2.0);
        t.totals.add("_gets", 1.0);
        self.head = rev.circuit.netlist;
    }

    fn sim_kernel(&self) -> String {
        kernel_tag(self.base_ref.as_ref().map(|(r, _)| r))
    }

    fn overhead(&self) -> f64 {
        self.overhead
    }
}

fn build(kind: Kind, rc: &RunConfig, threads: usize) -> Box<dyn Workload> {
    let tiny = rc.sizing == Sizing::Tiny;
    let pinned = rc.seed == 0 && !tiny;
    let cfg = config(threads);
    match kind {
        Kind::Suite | Kind::Large => Box::new(Analyze {
            label: kind.name(),
            inputs: match (kind, tiny) {
                (Kind::Suite, false) => inputs::suite(&[], rc.seed),
                (Kind::Suite, true) => inputs::suite(&["m27", "m298"], rc.seed),
                (_, false) => vec![inputs::scaled("m38584", 4, rc.seed)],
                (_, true) => vec![inputs::scaled("m298", 4, rc.seed)],
            },
            cfg,
            pinned,
            refs: Vec::new(),
            cold: Vec::new(),
        }),
        Kind::Signoff => Box::new(Signoff {
            inputs: inputs::suite(
                if tiny {
                    &["m298", "m526"]
                } else {
                    &["m35932", "m38584"]
                },
                rc.seed,
            ),
            cfg,
            pinned,
            refs: Vec::new(),
            cold: Vec::new(),
        }),
        Kind::Incremental => {
            static STORES: AtomicU64 = AtomicU64::new(0);
            let base = inputs::suite_circuit(if tiny { "m298" } else { "m38584" }, rc.seed);
            let dir = PathBuf::from(".mcbench-work").join(format!(
                "cas-{}-{}",
                std::process::id(),
                STORES.fetch_add(1, Ordering::Relaxed)
            ));
            Box::new(Incremental {
                chain: EditChain::new(&base, rc.seed),
                head: base.netlist.clone(),
                base,
                cfg,
                pinned,
                dir,
                store: None,
                revision: 0,
                base_ref: None,
                overhead: 0.0,
            })
        }
    }
}

/// Resets the peak-RSS high-water mark (`VmHWM`), so the next reading
/// covers only what follows. Returns whether the kernel accepted it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak RSS since the last reset, in MB (0 without procfs).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload: generate inputs, set up [`SETUP_REPS`] times and
/// cross-check the references, then measure rounds of ops for
/// `rc.seconds` (traced or not).
pub fn run(kind: Kind, rc: &RunConfig) -> Outcome {
    let threads = kind.threads(rc.cores);
    let t_gen = Instant::now();
    let mut w = build(kind, rc, threads);
    let mut overhead = t_gen.elapsed().as_secs_f64();
    let mut s = Samples::default();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        match w.setup(rep == 0) {
            Ok(secs) => setups.push(secs),
            Err(e) => s.refuse(e),
        }
    }
    let t_verify = Instant::now();
    for e in w.verify() {
        s.refuse(e);
    }
    overhead += t_verify.elapsed().as_secs_f64();

    let rss_reset = reset_peak_rss();
    let mut trace = rc.trace.then(Trace::new);
    let start = Instant::now();
    let mut rounds = 0u64;
    loop {
        match trace.as_mut() {
            Some(t) => {
                w.traced_round(t, &mut s);
                t.keep = false;
            }
            None => w.round(&mut s),
        }
        s.end_round();
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        let enough = trace.is_some() || s.by_class.values().all(|v| v.len() > stats::TAIL_BEYOND);
        if (elapsed >= rc.seconds && enough) || elapsed >= MAX_LOOP_S {
            break;
        }
    }
    overhead += w.overhead();

    let mut notes = vec![
        ("rounds".to_owned(), rounds as f64, "count"),
        ("ops".to_owned(), s.attempted as f64, "count"),
        (
            "decided_frac".to_owned(),
            s.decided as f64 / s.pairs.max(1) as f64,
            "ratio",
        ),
        (
            "fail_frac".to_owned(),
            s.failed as f64 / s.attempted.max(1) as f64,
            "ratio",
        ),
        ("bench.overhead_s".to_owned(), overhead, "s"),
    ];
    let (metrics, spans) = match trace {
        Some(t) => {
            let values = layers::per_layer(&t.totals, t.totals.get("_ops"));
            let metrics = stats::PER_LAYER
                .iter()
                .map(|m| (m.name, values[m.name], m.unit))
                .collect();
            (metrics, t.kept)
        }
        None => {
            // Per class (input, or op kind), then combined across classes
            // by geometric mean: every class weighs the same whatever its
            // size, and the result cannot jump between two classes' modes
            // as the op count shifts.
            let mut medians = Vec::new();
            let mut tails = Vec::new();
            for (class, v) in &s.by_class {
                let (p50, tail) = (stats::median(v), stats::tail(v));
                notes.push((format!("op_p50_s.{class}"), p50, "s"));
                notes.push((format!("op_tail_s.{class}"), tail.value, "s"));
                notes.push((
                    format!("op_tail_s.{class}.percentile"),
                    tail.percentile,
                    "%",
                ));
                notes.push((format!("ops.{class}"), v.len() as f64, "count"));
                medians.push(p50);
                tails.push(tail.value);
            }
            notes.push((
                "peak_rss_reset".to_owned(),
                f64::from(u8::from(rss_reset)),
                "bool",
            ));
            notes.push(("op_tail_s".to_owned(), stats::geomean(&tails), "s"));
            let metrics = vec![
                ("op_p50_s", stats::geomean(&medians), "s"),
                ("pairs_per_s", stats::median(&s.rates), "pairs/s"),
                ("peak_rss_mb", peak_rss_mb(), "MB"),
                ("setup_s", stats::median(&setups), "s"),
            ];
            (metrics, Vec::new())
        }
    };
    Outcome {
        threads,
        sim_kernel: w.sim_kernel(),
        metrics,
        notes,
        attempted: s.attempted,
        failed: s.failed,
        errors: s.errors,
        spans,
    }
}
