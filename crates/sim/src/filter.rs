//! Random-pattern filtering of single-cycle FF pairs (paper step 2).
//!
//! The filter runs on exactly one kernel per host and lane width, chosen
//! by the platform alone: the netlist is compiled to a [`Tape`] of fused
//! instructions in one sweep, dead-slot-eliminated into a [`FusedTape`],
//! and compiled to native AVX2 code by [`JitKernel`](crate::JitKernel).
//! Where [`JitSim::new`] returns `None` — a host without x86-64 Linux
//! and AVX2, a batch narrower than one 256-bit chunk (64 or 128 lanes),
//! or a failed `mmap` — the same fused stream runs on the [`FusedSim`]
//! interpreter instead. [`FilterStats::kernel`] records which one ran.
//!
//! Both kernels drive one generic batch/replay loop (`KernelExec`), so
//! the determinism contract below holds by construction. The crate's
//! differential suite pins the jit and the fused kernel against the
//! graph-walking [`ParallelSim`](crate::ParallelSim) loop, which no
//! configuration can select.
//!
//! ## Lane-width determinism contract
//!
//! The wide path draws the RNG stream in 64-bit words in exactly the
//! reference order (per word: FF states, first-cycle inputs,
//! second-cycle inputs) and evaluates a `W`-word batch at once. One scan
//! per pass then finds each alive pair's *first* violating word of the
//! batch, and the batch is *replayed* word by word from those hits under
//! the reference stop condition. The reference drops a pair at exactly
//! that word, since the pair is alive and unviolated until then; a pair
//! whose first hit lies past the stop point stays alive, and
//! `ff_toggles` counts only the words the replay observed. Drops,
//! witness word indices, survivor order, `words_simulated`, and
//! `ff_toggles` are therefore byte-identical to the 64-lane reference
//! for the same seed at every supported lane width **and on either
//! kernel** — RNG words drawn past the stop point are simply never
//! observed.

use crate::lower::FusedTape;
use crate::{FusedSim, JitSim, Tape};
use mcp_logic::V3;
use mcp_netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lane widths the compiled kernels support (one to eight 64-bit words).
pub const SUPPORTED_LANES: [u32; 4] = [64, 128, 256, 512];

/// Configuration of the random-pattern multi-cycle filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    /// PRNG seed; fixed seeds make runs reproducible.
    pub seed: u64,
    /// Stop after this many consecutive 64-pattern words dropped no pair.
    /// The paper stops after 32 idle words; the default here is 128, which
    /// reproduces the paper's Table 2 kill rate (~86% of single-cycle
    /// pairs dead in simulation) on the synthetic suite.
    pub idle_words: u32,
    /// Hard cap on simulated words, a safety net for degenerate circuits.
    pub max_words: u64,
    /// Simulation lanes per pass of the compiled kernel: one of
    /// [`SUPPORTED_LANES`] (64, 128, 256 or 512 — i.e. 1, 2, 4 or 8
    /// `u64` words). The outcome is identical at every width; wider
    /// lanes amortize per-instruction overhead over more patterns.
    /// Defaults to 256. Invalid values are rejected by `analyze` with
    /// `AnalyzeError::InvalidSimLanes`.
    pub lanes: u32,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            seed: 0x5eed_cafe,
            idle_words: 128,
            max_words: 1 << 16,
            lanes: 256,
        }
    }
}

impl FilterConfig {
    /// The number of `u64` words per pass for the configured lane width,
    /// or `None` if `lanes` is not one of [`SUPPORTED_LANES`].
    pub fn lane_words(&self) -> Option<usize> {
        match self.lanes {
            64 => Some(1),
            128 => Some(2),
            256 => Some(4),
            512 => Some(8),
            _ => None,
        }
    }
}

/// One pair disproven by simulation, with its drop cause: the 0-based
/// index of the 64-pattern word whose lane witnessed the violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairDrop {
    /// Source FF index of the dropped pair.
    pub src: usize,
    /// Destination FF index of the dropped pair.
    pub dst: usize,
    /// 0-based index of the simulated word that killed the pair.
    pub word: u64,
}

/// Result of the random-pattern filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterOutcome {
    /// Pairs that survived (not yet disproven), in the input order.
    pub survivors: Vec<(usize, usize)>,
    /// Pairs dropped as proven single-cycle, in drop order, each with the
    /// word index that witnessed the violation.
    pub drops: Vec<PairDrop>,
    /// Number of 64-pattern words simulated (each word costs two clock
    /// cycles of evaluation).
    pub words_simulated: u64,
    /// Per-FF source activity: `ff_toggles[k]` counts the simulated lanes
    /// (across all words) in which FF `k` transitioned between `t` and
    /// `t+1`. A pair that survived despite a busy source resisted many
    /// concrete premise attempts — a cheap hardness signal the pipeline's
    /// scheduler uses to order the engine queue hardest-first.
    pub ff_toggles: Vec<u64>,
}

impl FilterOutcome {
    /// Number of pairs dropped as proven single-cycle.
    pub fn dropped(&self) -> usize {
        self.drops.len()
    }
}

/// Execution-cost counters of one filter run. Deliberately **not** part
/// of [`FilterOutcome`]: the outcome is pinned byte-identical across
/// lane widths and kernels, while these counters describe how the
/// kernel got there (they vary with `lanes` and the host).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterStats {
    /// Wide evaluation passes of the kernel (each pass simulates up to
    /// `lanes / 64` words, two clock cycles each).
    pub passes: u64,
    /// Fused instructions executed (after NOT fusion and dead-slot
    /// elimination): instructions per eval × evals.
    pub fused_ops: u64,
    /// Bytes of machine code emitted by the JIT (0 on the interpreter).
    pub jit_bytes: u64,
    /// Which kernel ran: `"jit-avx2"`, or `"fused"` where native code is
    /// unavailable.
    pub kernel: &'static str,
}

/// Runs the paper's step 2: 2-clock random parallel-pattern simulation.
///
/// Each 64-lane word draws a random initial state and random inputs for two
/// cycles, producing `FF(t)`, `FF(t+1)`, `FF(t+2)` per lane. A pair
/// `(i, j)` with a lane where
///
/// ```text
/// FFi(t) != FFi(t+1)  &&  FFj(t+1) != FFj(t+2)
/// ```
///
/// violates the multi-cycle condition and is dropped: it is a **proven**
/// single-cycle pair (the lane is a concrete witness — no delay model
/// involved). Simulation continues until `idle_words` consecutive words
/// drop nothing or `max_words` is reached.
///
/// The surviving pairs are only *candidates*: the implication/ATPG (or
/// SAT/BDD) engines must still prove them.
///
/// # Panics
///
/// Panics if a pair names an FF index out of range, or if `cfg.lanes`
/// is not one of [`SUPPORTED_LANES`] (the pipeline validates lanes up
/// front and reports `AnalyzeError::InvalidSimLanes` instead).
pub fn mc_filter(netlist: &Netlist, pairs: &[(usize, usize)], cfg: &FilterConfig) -> FilterOutcome {
    mc_filter_stats(netlist, pairs, cfg).0
}

/// [`mc_filter`] plus the kernel's [`FilterStats`].
///
/// # Panics
///
/// As [`mc_filter`].
pub fn mc_filter_stats(
    netlist: &Netlist,
    pairs: &[(usize, usize)],
    cfg: &FilterConfig,
) -> (FilterOutcome, FilterStats) {
    mc_filter_stats_seeded(netlist, pairs, cfg, &[])
}

/// [`mc_filter_stats`] with externally proven per-node constants handed
/// to the compiler via [`Tape::compile_with_consts`], which pins every
/// definite gate to a compile-time constant. A sound seed holds under
/// every stimulus, so the [`FilterOutcome`] is identical to the unseeded
/// run. For the base iterate of `mcp-lint`'s constant lattice the seed
/// changes nothing at all: the compiler's own folder derives every
/// constant that iterate proves, so the kernel and its op counters are
/// those of the unseeded run too. An empty slice is the plain unseeded
/// filter.
///
/// # Panics
///
/// As [`mc_filter`], plus a non-empty `consts` shorter than the node
/// count.
pub fn mc_filter_stats_seeded(
    netlist: &Netlist,
    pairs: &[(usize, usize)],
    cfg: &FilterConfig,
    consts: &[V3],
) -> (FilterOutcome, FilterStats) {
    filter_on_lanes(netlist, pairs, cfg, consts, true)
}

/// Validates the pairs and dispatches on the lane width. `jit` is
/// `false` only in the crate's own tests, which force the fused
/// interpreter on hosts that have native code.
pub(crate) fn filter_on_lanes(
    netlist: &Netlist,
    pairs: &[(usize, usize)],
    cfg: &FilterConfig,
    consts: &[V3],
    jit: bool,
) -> (FilterOutcome, FilterStats) {
    let nffs = netlist.num_ffs();
    for &(i, j) in pairs {
        assert!(i < nffs && j < nffs, "FF index out of range in pair list");
    }
    match cfg.lane_words() {
        Some(1) => mc_filter_wide::<1>(netlist, pairs, cfg, consts, jit),
        Some(2) => mc_filter_wide::<2>(netlist, pairs, cfg, consts, jit),
        Some(4) => mc_filter_wide::<4>(netlist, pairs, cfg, consts, jit),
        Some(8) => mc_filter_wide::<8>(netlist, pairs, cfg, consts, jit),
        _ => panic!(
            "sim lanes {} out of range: supported widths are 64, 128, 256, 512",
            cfg.lanes
        ),
    }
}

/// The original graph-walking loop over
/// [`ParallelSim`](crate::ParallelSim), one 64-lane word per pass. Kept
/// verbatim as the differential oracle for the compiled kernels; no
/// configuration reaches it.
#[cfg(test)]
pub(crate) fn mc_filter_reference(
    netlist: &Netlist,
    pairs: &[(usize, usize)],
    cfg: &FilterConfig,
) -> FilterOutcome {
    let nffs = netlist.num_ffs();
    let mut alive: Vec<(usize, usize)> = pairs.to_vec();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut sim = crate::ParallelSim::new(netlist);

    let mut s0 = vec![0u64; nffs];
    let mut s1 = vec![0u64; nffs];
    let mut s2 = vec![0u64; nffs];

    let mut words = 0u64;
    let mut idle = 0u32;
    let mut drops: Vec<PairDrop> = Vec::new();
    let mut ff_toggles = vec![0u64; nffs];

    while !alive.is_empty() && idle < cfg.idle_words && words < cfg.max_words {
        sim.randomize_state(&mut rng);
        sim.randomize_inputs(&mut rng);
        for (k, s) in s0.iter_mut().enumerate() {
            *s = sim.state(k);
        }
        sim.eval();
        for (k, s) in s1.iter_mut().enumerate() {
            *s = sim.next_state(k);
        }
        sim.clock();
        sim.randomize_inputs(&mut rng);
        sim.eval();
        for (k, s) in s2.iter_mut().enumerate() {
            *s = sim.next_state(k);
        }
        words += 1;
        for k in 0..nffs {
            ff_toggles[k] += u64::from((s0[k] ^ s1[k]).count_ones());
        }

        let word = words - 1;
        let before = drops.len();
        alive.retain(|&(i, j)| {
            let violated = (s0[i] ^ s1[i]) & (s1[j] ^ s2[j]) != 0;
            if violated {
                drops.push(PairDrop {
                    src: i,
                    dst: j,
                    word,
                });
            }
            !violated
        });
        if drops.len() == before {
            idle += 1;
        } else {
            idle = 0;
        }
    }

    FilterOutcome {
        survivors: alive,
        drops,
        words_simulated: words,
        ff_toggles,
    }
}

/// The uniform surface the two kernels expose to the shared
/// batch/replay loop. One implementation per kernel keeps the loop —
/// and therefore the determinism contract — literally identical across
/// them.
trait KernelExec<const W: usize> {
    /// Sets the `64 × W` lanes of primary input `pi`.
    fn set_input(&mut self, pi: usize, words: [u64; W]);
    /// Sets the `64 × W` lanes of FF `ff`'s state.
    fn set_state(&mut self, ff: usize, words: [u64; W]);
    /// Evaluates the combinational logic for the current inputs/state.
    fn eval(&mut self);
    /// FF `ff`'s D-input value from the most recent `eval`.
    fn next_state(&self, ff: usize) -> [u64; W];
    /// Instructions executed per `eval`, for the op counters.
    fn ops_per_eval(&self) -> u64;
}

impl<const W: usize> KernelExec<W> for FusedSim<'_, W> {
    fn set_input(&mut self, pi: usize, words: [u64; W]) {
        FusedSim::set_input(self, pi, words);
    }
    fn set_state(&mut self, ff: usize, words: [u64; W]) {
        FusedSim::set_state(self, ff, words);
    }
    fn eval(&mut self) {
        FusedSim::eval(self);
    }
    fn next_state(&self, ff: usize) -> [u64; W] {
        FusedSim::next_state(self, ff)
    }
    fn ops_per_eval(&self) -> u64 {
        self.fused().num_ops() as u64
    }
}

impl<const W: usize> KernelExec<W> for JitSim<'_, W> {
    fn set_input(&mut self, pi: usize, words: [u64; W]) {
        JitSim::set_input(self, pi, words);
    }
    fn set_state(&mut self, ff: usize, words: [u64; W]) {
        JitSim::set_state(self, ff, words);
    }
    fn eval(&mut self) {
        JitSim::eval(self);
    }
    fn next_state(&self, ff: usize) -> [u64; W] {
        JitSim::next_state(self, ff)
    }
    fn ops_per_eval(&self) -> u64 {
        self.fused().num_ops() as u64
    }
}

/// Alive pairs sharing one source FF. A batch in which the source never
/// toggled between `t` and `t+1`, in any of its words, cannot violate
/// any pair of the group — the whole group is skipped with one compare
/// per word. A group leaves the scan once its last pair is dropped.
struct SourceGroup {
    src: usize,
    /// `(input position, destination FF)` of each alive pair.
    pairs: Vec<(usize, usize)>,
}

/// One wide filter run: compile the tape, drop its dead slots, run
/// native code when `jit` is set and the host can execute it at this
/// width, and the fused interpreter otherwise; then tag the stats with
/// the kernel that ran.
fn mc_filter_wide<const W: usize>(
    netlist: &Netlist,
    pairs: &[(usize, usize)],
    cfg: &FilterConfig,
    consts: &[V3],
    jit: bool,
) -> (FilterOutcome, FilterStats) {
    let fused = FusedTape::lower(&Tape::compile_with_consts(netlist, consts));
    let native = if jit { JitSim::<W>::new(&fused) } else { None };
    if let Some(mut sim) = native {
        let jit_bytes = sim.kernel().code_bytes() as u64;
        let kernel = sim.kernel().tag();
        let (out, passes, ops) = filter_batch(&mut sim, netlist, pairs, cfg);
        let stats = FilterStats {
            passes,
            fused_ops: ops,
            jit_bytes,
            kernel,
        };
        return (out, stats);
    }
    let mut sim = FusedSim::<W>::new(&fused);
    let (out, passes, ops) = filter_batch(&mut sim, netlist, pairs, cfg);
    let stats = FilterStats {
        passes,
        fused_ops: ops,
        jit_bytes: 0,
        kernel: "fused",
    };
    (out, stats)
}

/// The shared wide path: simulate `W` words per pass on the given
/// kernel, find each alive pair's first violating word of the batch in
/// one scan, then replay the batch word by word from those hits under
/// the reference stop condition. Returns the outcome plus
/// `(passes, ops_executed)`. See the module docs for the determinism
/// contract.
fn filter_batch<const W: usize, K: KernelExec<W>>(
    sim: &mut K,
    netlist: &Netlist,
    pairs: &[(usize, usize)],
    cfg: &FilterConfig,
) -> (FilterOutcome, u64, u64) {
    let nffs = netlist.num_ffs();
    let npis = netlist.num_inputs();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Group alive pairs by source FF; `dropped` marks pairs by input
    // position, so survivors come out in input order.
    let mut group_of: Vec<Option<usize>> = vec![None; nffs];
    let mut groups: Vec<SourceGroup> = Vec::new();
    for (pos, &(i, j)) in pairs.iter().enumerate() {
        let g = *group_of[i].get_or_insert_with(|| {
            groups.push(SourceGroup {
                src: i,
                pairs: Vec::new(),
            });
            groups.len() - 1
        });
        groups[g].pairs.push((pos, j));
    }
    let mut alive_count = pairs.len();
    let mut dropped = vec![false; pairs.len()];

    // Per-pass random draws and captured FF transitions, one `[u64; W]`
    // per FF / PI. `launch` holds the drawn `FF(t)` until the first eval
    // turns it into `FF(t) ^ FF(t+1)`; `capture` holds `FF(t+1)` until
    // the second eval turns it into `FF(t+1) ^ FF(t+2)`.
    let mut launch = vec![[0u64; W]; nffs];
    let mut in0 = vec![[0u64; W]; npis];
    let mut in1 = vec![[0u64; W]; npis];
    let mut capture = vec![[0u64; W]; nffs];

    let mut words = 0u64;
    let mut idle = 0u32;
    let mut drops: Vec<PairDrop> = Vec::new();
    let mut ff_toggles = vec![0u64; nffs];
    let mut passes = 0u64;
    let mut ops = 0u64;
    // `(word of the batch, input position, src, dst)` of each alive
    // pair's first violation in the pass, sorted into drop order.
    let mut hits: Vec<(usize, usize, usize, usize)> = Vec::new();
    let running = |alive: usize, idle: u32, words: u64| {
        alive > 0 && idle < cfg.idle_words && words < cfg.max_words
    };

    while running(alive_count, idle, words) {
        // Draw the RNG stream word-slot-major in the reference order:
        // per word, FF states, then cycle-1 inputs, then cycle-2 inputs.
        for w in 0..W {
            for s in launch.iter_mut() {
                s[w] = rng.random();
            }
            for i in in0.iter_mut() {
                i[w] = rng.random();
            }
            for i in in1.iter_mut() {
                i[w] = rng.random();
            }
        }
        for (k, s) in launch.iter().enumerate() {
            sim.set_state(k, *s);
        }
        for (p, i) in in0.iter().enumerate() {
            sim.set_input(p, *i);
        }
        sim.eval();
        for (k, (l, c)) in launch.iter_mut().zip(capture.iter_mut()).enumerate() {
            *c = sim.next_state(k);
            xor_into(l, c);
        }
        // Latch `FF(t+1)`. Every D value was read above before any state
        // slot is written, so a D ref aliasing another FF's state slot
        // latches exactly as through the kernels' `clock`.
        for (k, c) in capture.iter().enumerate() {
            sim.set_state(k, *c);
        }
        for (p, i) in in1.iter().enumerate() {
            sim.set_input(p, *i);
        }
        sim.eval();
        for (k, c) in capture.iter_mut().enumerate() {
            xor_into(c, &sim.next_state(k));
        }
        passes += 1;
        ops += 2 * sim.ops_per_eval();

        hits.clear();
        for group in &groups {
            let l = &launch[group.src];
            if *l == [0; W] {
                continue;
            }
            for &(pos, dst) in &group.pairs {
                let hit: [u64; W] = std::array::from_fn(|w| l[w] & capture[dst][w]);
                // One wide compare settles the common case of no hit.
                if hit != [0; W] {
                    let w = hit.iter().take_while(|&&m| m == 0).count();
                    hits.push((w, pos, group.src, dst));
                }
            }
        }
        hits.sort_unstable_by_key(|&(w, pos, _, _)| (w, pos));

        // Replay the batch word by word under the reference stop
        // condition; words past the stop point are never observed, and
        // a pair whose first hit lies there stays alive.
        let mut seen = 0;
        let mut taken = 0;
        while seen < W && running(alive_count, idle, words) {
            let n = hits[taken..].iter().take_while(|h| h.0 == seen).count();
            for &(_, _, src, dst) in &hits[taken..taken + n] {
                drops.push(PairDrop {
                    src,
                    dst,
                    word: words,
                });
            }
            idle = if n == 0 { idle + 1 } else { 0 };
            alive_count -= n;
            words += 1;
            taken += n;
            seen += 1;
        }
        // Unobserved words count no toggles. Masking them, rather than
        // slicing, keeps the count fixed-width, which vectorizes.
        let observed: [u64; W] = std::array::from_fn(|w| if w < seen { !0 } else { 0 });
        for (t, l) in ff_toggles.iter_mut().zip(&launch) {
            *t += (0..W)
                .map(|w| u64::from((l[w] & observed[w]).count_ones()))
                .sum::<u64>();
        }
        if taken > 0 {
            for &(_, pos, _, _) in &hits[..taken] {
                dropped[pos] = true;
            }
            for group in groups.iter_mut() {
                group.pairs.retain(|&(pos, _)| !dropped[pos]);
            }
            groups.retain(|g| !g.pairs.is_empty());
        }
    }

    let survivors = pairs
        .iter()
        .zip(&dropped)
        .filter(|&(_, &d)| !d)
        .map(|(&pair, _)| pair)
        .collect();
    (
        FilterOutcome {
            survivors,
            drops,
            words_simulated: words,
            ff_toggles,
        },
        passes,
        ops,
    )
}

/// `acc ^= v`, lane word by lane word.
fn xor_into<const W: usize>(acc: &mut [u64; W], v: &[u64; W]) {
    for (a, b) in acc.iter_mut().zip(v) {
        *a ^= b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcp_logic::GateKind;
    use mcp_netlist::NetlistBuilder;

    /// B.D = A: a plain pipeline stage — obviously single-cycle.
    /// C.D = C (hold): a degenerate always-multi-cycle self pair.
    fn mixed() -> Netlist {
        let mut b = NetlistBuilder::new("mixed");
        let input = b.input("IN");
        let a = b.dff("A");
        let q = b.dff("B");
        let c = b.dff("C");
        b.set_dff_input(a, input).unwrap();
        let buf = b.gate("BUFA", GateKind::Buf, [a]).unwrap();
        b.set_dff_input(q, buf).unwrap();
        let hold = b.gate("HOLD", GateKind::Buf, [c]).unwrap();
        b.set_dff_input(c, hold).unwrap();
        b.mark_output(q);
        b.finish().unwrap()
    }

    fn cfg_with_lanes(lanes: u32) -> FilterConfig {
        FilterConfig {
            lanes,
            ..FilterConfig::default()
        }
    }

    #[test]
    fn drops_obvious_single_cycle_pairs() {
        let nl = mixed();
        let pairs = nl.connected_ff_pairs();
        assert!(pairs.contains(&(0, 1)));
        let out = mc_filter(&nl, &pairs, &FilterConfig::default());
        // (A,B) must be disproven: A toggles freely from IN and B follows.
        assert!(!out.survivors.contains(&(0, 1)));
        assert!(out.dropped() >= 1);
        // The drop record names the pair and a word that was simulated.
        let drop = out
            .drops
            .iter()
            .find(|d| (d.src, d.dst) == (0, 1))
            .expect("(A,B) has a drop record");
        assert!(drop.word < out.words_simulated);
        // (C,C) can never be dropped: C never changes, so the premise of
        // the violation (a transition at the source) never occurs.
        assert!(out.survivors.contains(&(2, 2)));
    }

    #[test]
    fn stops_after_idle_words() {
        let nl = mixed();
        // Only the undroppable pair: the run should end at idle_words.
        let cfg = FilterConfig {
            idle_words: 5,
            ..FilterConfig::default()
        };
        let out = mc_filter(&nl, &[(2, 2)], &cfg);
        assert_eq!(out.words_simulated, 5);
        assert_eq!(out.survivors, vec![(2, 2)]);
        assert_eq!(out.dropped(), 0);
    }

    #[test]
    fn a_stop_inside_a_batch_observes_no_later_word() {
        let nl = mixed();
        let pairs = nl.connected_ff_pairs();
        // The undroppable (C,C) keeps the run alive until `max_words`,
        // which falls on the second word of the second 4-word pass.
        let cfg = FilterConfig {
            max_words: 5,
            ..cfg_with_lanes(256)
        };
        let (out, stats) = mc_filter_stats(&nl, &pairs, &cfg);
        assert_eq!(out.words_simulated, 5);
        assert_eq!(stats.passes, 2);
        assert_eq!(out, mc_filter_reference(&nl, &pairs, &cfg));
    }

    #[test]
    fn empty_pair_list_short_circuits() {
        let nl = mixed();
        let out = mc_filter(&nl, &[], &FilterConfig::default());
        assert_eq!(out.words_simulated, 0);
        assert!(out.survivors.is_empty());
    }

    #[test]
    fn toggle_activity_separates_busy_from_held_ffs() {
        let nl = mixed();
        let pairs = nl.connected_ff_pairs();
        let out = mc_filter(&nl, &pairs, &FilterConfig::default());
        assert_eq!(out.ff_toggles.len(), nl.num_ffs());
        // A (fed by a free input) toggles in ~half the lanes; C (a hold
        // register) starts from a random state but never changes.
        assert!(out.ff_toggles[0] > 0, "A must show toggle activity");
        assert_eq!(out.ff_toggles[2], 0, "C never transitions");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let nl = mixed();
        let pairs = nl.connected_ff_pairs();
        let a = mc_filter(&nl, &pairs, &FilterConfig::default());
        let b = mc_filter(&nl, &pairs, &FilterConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn host_kernel_reports_passes_ops_and_compile_stats() {
        let nl = mixed();
        let pairs = nl.connected_ff_pairs();
        let (out, stats) = mc_filter_stats(&nl, &pairs, &cfg_with_lanes(256));
        assert!(stats.passes > 0);
        // 4 words per pass: the word count never exceeds 4 × passes.
        assert!(out.words_simulated <= 4 * stats.passes);
        assert!(out.words_simulated > 4 * (stats.passes - 1));
        // The invariant is ops = 2·passes·num_ops.
        assert_eq!(stats.fused_ops % (2 * stats.passes), 0);
        if stats.kernel == "jit-avx2" {
            assert!(stats.jit_bytes > 0);
        } else {
            // A host without native code runs the fused interpreter.
            assert_eq!(stats.kernel, "fused");
            assert_eq!(stats.jit_bytes, 0);
        }
        assert_eq!(
            out,
            mc_filter_reference(&nl, &pairs, &FilterConfig::default())
        );
    }

    #[test]
    fn fused_interpreter_reports_no_jit_stats() {
        let nl = mixed();
        let pairs = nl.connected_ff_pairs();
        let cfg = cfg_with_lanes(256);
        let (out, stats) = filter_on_lanes(&nl, &pairs, &cfg, &[], false);
        assert_eq!(stats.kernel, "fused");
        assert!(stats.passes > 0);
        assert_eq!(stats.jit_bytes, 0);
        assert_eq!(out, mc_filter(&nl, &pairs, &cfg));
    }

    #[test]
    fn lane_words_maps_supported_widths() {
        for (lanes, words) in [(64u32, 1usize), (128, 2), (256, 4), (512, 8)] {
            let cfg = cfg_with_lanes(lanes);
            assert_eq!(cfg.lane_words(), Some(words));
        }
        assert_eq!(cfg_with_lanes(0).lane_words(), None);
        assert_eq!(cfg_with_lanes(96).lane_words(), None);
        assert_eq!(cfg_with_lanes(1024).lane_words(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unsupported_lane_width() {
        let nl = mixed();
        mc_filter(&nl, &[(0, 1)], &cfg_with_lanes(96));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_foreign_pairs() {
        let nl = mixed();
        mc_filter(&nl, &[(0, 99)], &FilterConfig::default());
    }
}
