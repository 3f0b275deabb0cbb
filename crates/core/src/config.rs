//! Analysis configuration.

use mcp_sim::FilterConfig;

/// Which decision engine classifies the pairs that survive the prefilters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The paper's engine: implication procedure + bounded D-algorithm
    /// search on the time-frame expansion.
    Implication,
    /// The conventional SAT-based method \[9\]: one incremental CDCL query
    /// per pair over the Tseitin encoding of the same expansion.
    Sat,
    /// The symbolic method in the spirit of \[8\]: BDD transition relation,
    /// optionally restricted to the reachable states.
    Bdd {
        /// Node budget; exceeding it classifies remaining pairs
        /// [`Unknown`](crate::PairClass::Unknown) (the "does not scale"
        /// outcome).
        node_limit: usize,
        /// Restrict the check to states reachable from the all-zero reset
        /// state. `false` assumes all states reachable, like the other
        /// engines — useful for cross-validation.
        reachability: bool,
    },
}

/// Configuration of [`analyze`](crate::analyze).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McConfig {
    /// Decision engine (default: the paper's implication engine).
    pub engine: Engine,
    /// Cycle budget `k` to verify: a pair is reported multi-cycle when the
    /// sink provably holds its value through `t+1 .. t+k` whenever the
    /// source transitions at `t+1`. The paper's default is `k = 2`
    /// (detecting "not single-cycle"); larger `k` uses `k` time frames.
    pub cycles: u32,
    /// Run the random-pattern prefilter (paper step 2). Disable to measure
    /// engine performance in isolation.
    pub use_sim_filter: bool,
    /// Random-pattern filter settings.
    pub sim: FilterConfig,
    /// ATPG backtrack limit (paper: 50, raised for hard circuits).
    pub backtrack_limit: u64,
    /// Enable SOCRATES-style static learning before the pair loop (the
    /// paper enables it for its hardest circuits).
    pub static_learning: bool,
    /// Cap on stored learned implications.
    pub learn_budget: usize,
    /// Analyze self pairs `(i, i)` (the paper reports them; the SAT
    /// baseline \[9\] excluded them).
    pub include_self_pairs: bool,
    /// Check the netlist's structure ([`Netlist::defects`]) before
    /// anything else runs and refuse a corrupt one with
    /// `AnalyzeError::CorruptNetlist` (default: on). The CLI has no
    /// switch: its strict parser refuses the same defects. Turn it off
    /// only for a netlist already known to be free of them.
    ///
    /// [`Netlist::defects`]: mcp_netlist::Netlist::defects
    pub lint: bool,
    /// Scope per-pair engine work to the pair's cone of influence: the
    /// survivors are grouped by sink FF and each group is classified on a
    /// [`Slice`](mcp_netlist::Slice) of the time-frame expansion instead
    /// of the whole circuit (default: on). Verdicts — and the canonical
    /// report — are identical either way; only engine effort differs.
    /// With slicing off (`--no-slice`) the whole expansion is every
    /// group's model; under [`Engine::Sat`] that is the whole-circuit
    /// SAT baseline \[9\].
    pub slice: bool,
    /// Statically classify pairs whose sink D input the dataflow
    /// analysis proves constant at the first Kleene iterate, before the
    /// sim prefilter or any engine runs (default: on). A frozen sink
    /// never transitions, so such pairs are multi-cycle for every `k`;
    /// the engines would reach the same verdict the expensive way.
    /// Verdicts — and the canonical report — are identical either way,
    /// so the CLI has no switch for it; a library caller may turn it off
    /// to A/B-measure the saving.
    pub static_classify: bool,
    /// Worker threads for the pair loop (pairs are independent). `1` =
    /// sequential. The BDD engine is inherently sequential and ignores
    /// this.
    pub threads: usize,
    /// Root of a content-addressed stage-artifact store
    /// ([`CasStore`](crate::CasStore)). No library function reads this
    /// field: a run uses a store only through the
    /// [`VerdictSource`](crate::VerdictSource) it is handed. The CLI
    /// keeps its `--cache-dir` (or `MCPATH_CACHE_DIR`) directory here and
    /// opens the store from it; the library default, `None`, never reads
    /// the environment. Where the artifacts *live* never affects what
    /// they *say*, so this field is excluded from
    /// [`McConfig::fingerprint`] and from every stage key.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            engine: Engine::Implication,
            cycles: 2,
            use_sim_filter: true,
            sim: FilterConfig::default(),
            backtrack_limit: 50,
            static_learning: false,
            learn_budget: 8_000_000,
            include_self_pairs: true,
            lint: true,
            slice: true,
            static_classify: true,
            threads: 1,
            cache_dir: None,
        }
    }
}

impl McConfig {
    /// Fingerprint of the *verdict-affecting* configuration, written
    /// into the run-ledger header and checked by `analyze --resume`.
    ///
    /// Covers everything that can change a pair's classification or the
    /// step that resolves it: the engine (with its BDD parameters), the
    /// cycle budget, the sim prefilter's on/off state and its seed and
    /// stopping rules, the ATPG backtrack limit, static learning and its
    /// budget (learning moves pairs between the implication and ATPG
    /// steps), and self-pair inclusion. Deliberately *excludes* knobs
    /// proven verdict-neutral by the determinism test suite — threads,
    /// slicing, sim lane width, the static pre-classification pass (it
    /// resolves pairs the engines would classify identically) — and the
    /// lint gate, so a resumed run may change any of those.
    pub fn fingerprint(&self) -> u64 {
        let engine = match self.engine {
            Engine::Implication => "implication".to_owned(),
            Engine::Sat => "sat".to_owned(),
            Engine::Bdd {
                node_limit,
                reachability,
            } => format!("bdd:{node_limit}:{reachability}"),
        };
        let text = format!(
            "engine={engine};cycles={};sim={};seed={};idle={};max={};\
             backtracks={};learning={};learn_budget={};self_pairs={}",
            self.cycles,
            self.use_sim_filter,
            self.sim.seed,
            self.sim.idle_words,
            self.sim.max_words,
            self.backtrack_limit,
            self.static_learning,
            self.learn_budget,
            self.include_self_pairs,
        );
        mcp_obs::fnv1a(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_paper() {
        let cfg = McConfig::default();
        assert_eq!(cfg.engine, Engine::Implication);
        assert_eq!(cfg.cycles, 2);
        assert_eq!(cfg.backtrack_limit, 50);
        assert_eq!(cfg.sim.idle_words, 128);
        assert!(cfg.include_self_pairs);
        assert!(cfg.lint);
        assert!(cfg.slice, "slicing defaults to on");
        assert!(cfg.static_classify, "static pre-pass defaults to on");
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.sim.lanes, 256, "lane width defaults to 256");
        assert_eq!(cfg.cache_dir, None, "no store unless the caller names one");
    }

    #[test]
    fn fingerprint_tracks_verdict_affecting_knobs_only() {
        let base = McConfig::default();
        let fp = base.fingerprint();
        assert_eq!(fp, McConfig::default().fingerprint());

        // Verdict-neutral knobs leave the fingerprint alone.
        let mut neutral = base.clone();
        neutral.threads = 8;
        neutral.slice = !neutral.slice;
        neutral.lint = !neutral.lint;
        neutral.sim.lanes = 64;
        neutral.static_classify = !neutral.static_classify;
        neutral.cache_dir = Some(std::path::PathBuf::from("/tmp/mcpath-cache"));
        assert_eq!(neutral.fingerprint(), fp);

        // Verdict-affecting knobs each change it.
        let mut cycles = base.clone();
        cycles.cycles = 3;
        assert_ne!(cycles.fingerprint(), fp);
        let mut seed = base.clone();
        seed.sim.seed ^= 1;
        assert_ne!(seed.fingerprint(), fp);
        let mut learning = base.clone();
        learning.static_learning = !learning.static_learning;
        assert_ne!(learning.fingerprint(), fp);
        let mut engine = base.clone();
        engine.engine = Engine::Sat;
        assert_ne!(engine.fingerprint(), fp);
    }
}
