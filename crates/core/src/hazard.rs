//! Static-hazard validation of multi-cycle pairs (paper Section 5).
//!
//! The MC condition only constrains *settled* values: `FFj(t+1) ==
//! FFj(t+2)`. Between the clock edges, the combinational logic may still
//! glitch — a **static hazard** — and if the glitch originates at the
//! transitioning source FF and reaches the sink's D input near the clock
//! edge, relaxing the pair's timing constraint is unsafe (the paper's
//! Fig.3: slowing one AND of a decomposed multiplexer lets the `EN2`
//! transition race through both MUX legs into `FF2`).
//!
//! Exact hazard analysis is delay-dependent; the paper instead offers two
//! delay-independent structural checks built on path sensitization theory:
//!
//! * **static sensitization** (a *lower bound* on true sensitization):
//!   flag a hazard when some source→sink path has every side input
//!   possibly settled at a non-controlling value. Cheap and close to
//!   exact, but optimistic — and pairs it validates may *depend on each
//!   other's* timing constraints (Fig.4), so validated sets must be
//!   applied together with care.
//! * **static co-sensitization** (an *upper bound*): flag a hazard when
//!   some path is possibly co-sensitized — every gate whose settled output
//!   is a controlled value receives a controlling value from the on-path
//!   edge. Pairs surviving this check are robustly multi-cycle under any
//!   delay assignment, with no cross-pair dependences.
//!
//! Both checks run per surviving `(FFi(t), FFj(t+1))` scenario, on the
//! values implied for the *settled* second frame; first-cycle values are
//! treated as unknown, mirroring the paper's Fig.4 where the first cycle
//! is all `X` ("because we should take into account static hazards").
//! Unknown (`X`) settled values never block a path — they are treated as
//! possibly-hazardous, the conservative direction.

use crate::report::McReport;
use crate::stage::group_roots;
use mcp_implication::ImpEngine;
use mcp_logic::V3;
use mcp_netlist::{Expanded, Netlist, NodeId, NodeKind};
use mcp_obs::ObsCtx;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Which delay-independent hazard criterion to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HazardCheck {
    /// Static sensitization (lower bound; keeps more pairs, may introduce
    /// dependences between validated pairs).
    Sensitization,
    /// Static co-sensitization (upper bound; fully safe survivors).
    CoSensitization,
}

/// Result of [`check_hazards`]: the partition of multi-cycle pairs into
/// hazard-free and potentially-hazardous — the paper's Table 3 rows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HazardReport {
    /// The criterion applied.
    pub check: HazardCheck,
    /// Pairs with no potentially hazardous path in any scenario: their
    /// timing constraints may be relaxed.
    pub robust: Vec<(usize, usize)>,
    /// Pairs with a potentially hazardous path: the MC condition holds but
    /// a glitch may still cross the cycle boundary.
    pub demoted: Vec<(usize, usize)>,
    /// Wall-clock spent checking.
    #[serde(skip)]
    pub elapsed: Duration,
}

/// Validates every multi-cycle pair of `report` against static hazards.
///
/// For each pair and each of the four `(FFi(t), FFj(t+1))` assignments that
/// is consistent (premise + MC conclusion `FFj(t+2) = FFj(t+1)` asserted,
/// as the paper does in Fig.3), the implied two-frame values feed a
/// glitch-path search from the source FF to the sink's D input. Any
/// reachable scenario demotes the pair.
pub fn check_hazards(netlist: &Netlist, report: &McReport, check: HazardCheck) -> HazardReport {
    check_hazards_with(netlist, report, check, &ObsCtx::new())
}

/// [`check_hazards`] with an explicit observability context: the check's
/// wall-clock lands in the `hazard/check` span and the implication work
/// it performs is flushed into the shared counters.
///
/// The check covers the 2-cycle relaxation only: it builds a 2-frame
/// expansion and reads the settled values of frame 1, the one capture
/// edge a 2-cycle relaxation leaves between launch and capture. A
/// k-cycle relaxation has k − 1 such edges, and the other k − 2 go
/// unchecked, so a report analyzed at [`McConfig::cycles`] above 2 gets
/// no hazard guarantee from it (the CLI refuses that combination).
///
/// [`McConfig::cycles`]: crate::McConfig::cycles
pub fn check_hazards_with(
    netlist: &Netlist,
    report: &McReport,
    check: HazardCheck,
    obs: &ObsCtx,
) -> HazardReport {
    let span = obs.timers.span("hazard/check");
    let walk = walk_sinks(netlist, report, check, false, obs);
    HazardReport {
        check,
        robust: walk.robust,
        demoted: walk.demoted,
        elapsed: span.stop(),
    }
}

/// What one walk over a report's multi-cycle pairs found, each list
/// sorted by pair.
#[derive(Default)]
struct Walk {
    robust: Vec<(usize, usize)>,
    demoted: Vec<(usize, usize)>,
    /// The dependencies of every robust pair, when the walk collects them.
    deps: Vec<PairDependencies>,
}

/// The `(FFi(t), FFj(t+1))` assignments of a pair's four scenarios.
const SCENARIOS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

/// The one walk behind [`check_hazards_with`] and
/// [`sensitization_dependencies`]: the multi-cycle pairs grouped by sink,
/// every scenario of a sink's pairs run on that sink's slice.
///
/// A sink's slice is cut at [`group_roots`], which are exactly the nodes
/// a scenario asserts, and carries one slice-local implication engine.
/// Direct implication restricted to a fanin-closed cone that holds every
/// asserted node derives the same values inside that cone as on the
/// whole circuit (DESIGN §11). Every source→sink glitch path lies inside
/// the sink's fanin cone, whose frame-1 values the slice holds, so the
/// searches read those values straight from the engine. No per-sink
/// step touches anything sized to the whole circuit.
fn walk_sinks(
    netlist: &Netlist,
    report: &McReport,
    check: HazardCheck,
    with_deps: bool,
    obs: &ObsCtx,
) -> Walk {
    let x = Expanded::build(netlist, 2);
    let mut by_sink: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, j) in report.multi_cycle_pairs() {
        by_sink.entry(j).or_default().push(i);
    }
    let mut cone = SinkCone::new(netlist);
    let mut out = Walk::default();
    for (&j, sources) in &by_sink {
        let slice = x.build_slice(&group_roots(&x, j, sources, 2));
        let sx = slice.model();
        let mut eng = ImpEngine::new(sx);
        cone.enter_sink(netlist, j);
        for &i in sources {
            let mut hazardous = false;
            let mut sides = Vec::new();
            let on_path = with_deps && cone.enter_pair(netlist, i);
            for (a, b) in SCENARIOS {
                let cp = eng.checkpoint();
                let consistent = eng
                    .assign(sx.ff_at(i, 0), a)
                    .and_then(|()| eng.assign(sx.ff_at(i, 1), !a))
                    .and_then(|()| eng.assign(sx.ff_at(j, 1), b))
                    // The pair satisfies the MC condition, so the sink holds:
                    .and_then(|()| eng.assign(sx.ff_at(j, 2), b))
                    .and_then(|()| eng.propagate())
                    .is_ok();
                if consistent {
                    let v1 = |n: NodeId| eng.value(sx.value_of(1, n));
                    hazardous = cone.glitch_path(netlist, i, &v1, check);
                    if on_path && !hazardous {
                        cone.blocking_sides(netlist, &v1, &mut sides);
                    }
                }
                eng.backtrack(cp);
                if hazardous {
                    break;
                }
            }
            if hazardous {
                out.demoted.push((i, j));
                continue;
            }
            out.robust.push((i, j));
            if with_deps {
                let deps = cone
                    .feeding_ffs(netlist, &sides)
                    .into_iter()
                    .filter(|&k| k != i && sources.binary_search(&k).is_ok())
                    .map(|k| (k, j))
                    .collect();
                out.deps.push(((i, j), deps));
            }
        }
        obs.metrics.implications.add(eng.implications());
        obs.metrics.contradictions.add(eng.contradictions());
    }
    out.robust.sort_unstable();
    out.demoted.sort_unstable();
    out.deps.sort_unstable_by_key(|&(pair, _)| pair);
    out
}

/// A node set over the netlist, allocated once and emptied in O(1): a
/// node is in the set when its stamp equals the current epoch.
struct Stamps {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Stamps {
    fn new(num_nodes: usize) -> Self {
        Stamps {
            stamp: vec![0; num_nodes],
            epoch: 1,
        }
    }

    fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Adds `id`; `false` when it was already in.
    fn insert(&mut self, id: NodeId) -> bool {
        std::mem::replace(&mut self.stamp[id.index()], self.epoch) != self.epoch
    }

    fn contains(&self, id: NodeId) -> bool {
        self.stamp[id.index()] == self.epoch
    }
}

/// One sink's fanin cone and the searches run inside it. Allocated once
/// per walk; re-aiming it at a sink or a pair costs only that cone.
struct SinkCone {
    /// The sink's D-input node.
    dst: NodeId,
    /// The gates of the sink's combinational fanin cone.
    gates: Stamps,
    /// The current pair's path cone: its source, and the cone's gates
    /// the source reaches.
    path: Stamps,
    /// The path cone's gates, in discovery order.
    path_gates: Vec<NodeId>,
    /// Visit marks of one search.
    seen: Stamps,
    queue: VecDeque<NodeId>,
}

impl SinkCone {
    fn new(netlist: &Netlist) -> Self {
        let n = netlist.num_nodes();
        SinkCone {
            dst: NodeId::from_index(0),
            gates: Stamps::new(n),
            path: Stamps::new(n),
            path_gates: Vec::new(),
            seen: Stamps::new(n),
            queue: VecDeque::new(),
        }
    }

    /// Aims the cone at sink FF `j`.
    fn enter_sink(&mut self, netlist: &Netlist, j: usize) {
        self.dst = netlist.ff_d_input(j);
        self.gates.clear();
        self.queue.clear();
        self.queue.push_back(self.dst);
        while let Some(n) = self.queue.pop_front() {
            let node = netlist.node(n);
            if node.kind().is_gate() && self.gates.insert(n) {
                self.queue.extend(node.fanins());
            }
        }
    }

    /// Whether a glitch can travel from FF `i`'s output to the sink's D
    /// input under the settled frame-1 values `v1`: plain BFS over the
    /// traversable edges (see [`glitch_path_exists`]), inside the cone.
    fn glitch_path(
        &mut self,
        netlist: &Netlist,
        i: usize,
        v1: &impl Fn(NodeId) -> V3,
        check: HazardCheck,
    ) -> bool {
        let src = netlist.dffs()[i];
        if src == self.dst {
            // A direct wire: the source transition arrives unfiltered.
            return true;
        }
        self.seen.clear();
        self.queue.clear();
        self.queue.push_back(src);
        while let Some(f) = self.queue.pop_front() {
            for &g in netlist.fanouts(f) {
                if !self.gates.contains(g) || self.seen.contains(g) {
                    continue;
                }
                if edge_traversable(netlist, f, g, v1, check) {
                    if g == self.dst {
                        return true;
                    }
                    self.seen.insert(g);
                    self.queue.push_back(g);
                }
            }
        }
        false
    }

    /// Marks the path cone of FF `i` to the sink — the nodes on at least
    /// one source→sink path, `Netlist::path_cone` restricted to the sink's
    /// cone, where all of it lies. `false` when no path exists.
    fn enter_pair(&mut self, netlist: &Netlist, i: usize) -> bool {
        let src = netlist.dffs()[i];
        self.path.clear();
        self.path_gates.clear();
        self.path.insert(src);
        self.queue.clear();
        self.queue.push_back(src);
        while let Some(f) = self.queue.pop_front() {
            for &g in netlist.fanouts(f) {
                if self.gates.contains(g) && self.path.insert(g) {
                    self.path_gates.push(g);
                    self.queue.push_back(g);
                }
            }
        }
        self.path.contains(self.dst)
    }

    /// Records every potential side input of the path cone that is
    /// provably settled at its gate's controlling value. Conservative:
    /// every gate on *some* structural path is examined, whether or not
    /// the glitch provably reaches it — the report is a superset of the
    /// load-bearing blockades, which is the safe direction for a "these
    /// constraints interact" warning.
    fn blocking_sides(&self, netlist: &Netlist, v1: &impl Fn(NodeId) -> V3, out: &mut Vec<NodeId>) {
        for &g in &self.path_gates {
            let node = netlist.node(g);
            let Some(c) = node.kind().gate_kind().and_then(|k| k.controlling_value()) else {
                continue;
            };
            for (pos, &side) in node.fanins().iter().enumerate() {
                // `side` is a potential side input iff some *other* fanin
                // of this gate lies on a path.
                let has_on_path_sibling = node
                    .fanins()
                    .iter()
                    .enumerate()
                    .any(|(k, &f)| k != pos && self.path.contains(f));
                if has_on_path_sibling && v1(side) == V3::from(c) {
                    out.push(side);
                }
            }
        }
    }

    /// The FFs in the combinational fanin cones of `sides`, ascending —
    /// `Netlist::cone_sources` of each, walked once.
    fn feeding_ffs(&mut self, netlist: &Netlist, sides: &[NodeId]) -> Vec<usize> {
        let mut ffs = Vec::new();
        self.seen.clear();
        self.queue.clear();
        self.queue.extend(sides);
        while let Some(n) = self.queue.pop_front() {
            if !self.seen.insert(n) {
                continue;
            }
            let node = netlist.node(n);
            match node.kind() {
                NodeKind::Dff => ffs.extend(netlist.ff_index(n)),
                NodeKind::Gate(_) => self.queue.extend(node.fanins()),
                NodeKind::Input | NodeKind::Const(_) => {}
            }
        }
        ffs.sort_unstable();
        ffs
    }
}

/// Searches for a potentially hazardous path from FF `i`'s output to FF
/// `j`'s D input, given the settled node values `v1` of the cycle after
/// the transition edge (indexed by [`NodeId::index`]). First-cycle values
/// are unknown by construction (see the module docs), so they are not an
/// input.
///
/// The two criteria sit on opposite sides of the exact (delay-dependent)
/// hazard condition. An edge `f → g` is traversable when:
///
/// * **Sensitization** — every side input of `g` is *provably* implied to
///   settle at the non-controlling value (frame-1 value definite and
///   non-controlling). A side whose settled value is unknown blocks: the
///   criterion demotes only pairs with a demonstrably statically
///   sensitized path, which is why it is a lower bound that can miss real
///   hazards (the paper's Fig.4 caveat — the unknown first-cycle values
///   mean a "blocked" side may in fact let a glitch through when some
///   other relaxed pair perturbs it).
/// * **Co-sensitization** — blocked only when `g`'s settled output is
///   provably the controlled value while the on-path edge provably
///   settles non-controlling (the path edge then cannot be the
///   co-sensitizing one). Side-input values are deliberately ignored —
///   the paper's Fig.4 path stays co-sensitizable even though a side
///   input carries a controlling value. Unknowns never block — the
///   conservative upper bound.
///
/// XOR/XNOR/NOT/BUF gates have no controlling value and never block either
/// criterion. Since traversability of an edge does not depend on the path
/// taken to reach it, existence of a fully traversable path is plain BFS
/// reachability — linear, no path enumeration — and every path to the
/// sink lies in its combinational fanin cone, so the search never leaves
/// that cone.
pub fn glitch_path_exists(
    netlist: &Netlist,
    i: usize,
    j: usize,
    v1: &[V3],
    check: HazardCheck,
) -> bool {
    let mut cone = SinkCone::new(netlist);
    cone.enter_sink(netlist, j);
    cone.glitch_path(netlist, i, &|n: NodeId| v1[n.index()], check)
}

fn edge_traversable(
    netlist: &Netlist,
    f: NodeId,
    g: NodeId,
    v1: &impl Fn(NodeId) -> V3,
    check: HazardCheck,
) -> bool {
    let node = netlist.node(g);
    let kind = node.kind().gate_kind().expect("checked gate");
    let Some(c) = kind.controlling_value() else {
        return true; // parity/unary gates never block either criterion
    };
    let controlled = kind.controlled_output().expect("and/or family");
    match check {
        HazardCheck::Sensitization => {
            // Provable static sensitization: every side input implied to
            // settle at the non-controlling value. An unknown side cannot
            // be *shown* non-controlling, so it blocks — this is what
            // makes the criterion a lower bound that can miss hazards.
            node.fanins()
                .iter()
                .filter(|&&s| s != f)
                .all(|&s| v1(s) == V3::from(!c))
        }
        HazardCheck::CoSensitization => {
            // Pure co-sensitization (side values deliberately ignored — the
            // paper's Fig.4 keeps the path co-sensitizable even though a
            // side input carries a controlling value): a gate whose settled
            // output is the controlled value must receive the controlling
            // value from the on-path edge.
            !(v1(g) == V3::from(controlled) && v1(f) == V3::from(!c))
        }
    }
}

/// The dependency report of the sensitization check (the paper's Section
/// 5.2 caveat, formalized).
///
/// A pair validated by static sensitization is only safe *conditionally*:
/// each blocked path relies on some side input holding its implied
/// controlling value in time. If the flip-flops driving that side input
/// reach the same sink through their own multi-cycle pairs and those
/// constraints are relaxed too, the blockade may arrive late and the
/// hazard can materialize — the paper's Fig.4 scenario. Survivors of the
/// co-sensitization check carry no such conditions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SensitizationDependencies {
    /// For each sensitization-robust pair `(i, j)`, the other multi-cycle
    /// pairs `(k, j)` whose relaxation could invalidate its robustness
    /// (the `k` are FFs feeding a provably-controlling blocking side
    /// input on some otherwise-reachable path). Pairs with an empty list
    /// are unconditionally robust under the sensitization criterion.
    pub deps: Vec<PairDependencies>,
}

/// A robust pair together with the pairs its robustness depends on.
pub type PairDependencies = ((usize, usize), Vec<(usize, usize)>);

/// Computes, for every sensitization-robust multi-cycle pair, the set of
/// other multi-cycle pairs its robustness depends on (see
/// [`SensitizationDependencies`]).
///
/// For each robust pair and each consistent scenario, the pair's path
/// cone (every gate on some source→sink path) is scanned for side inputs
/// whose settled value is *provably controlling*, and the FFs in those
/// sides' fan-in cones are recorded. A recorded FF `k` contributes a
/// dependency edge to `(k, j)` when `(k, j)` is itself a multi-cycle pair
/// of the report — exactly the "if a path from B to C is also detected as
/// a multi-cycle path" condition of the paper.
pub fn sensitization_dependencies(
    netlist: &Netlist,
    report: &McReport,
) -> SensitizationDependencies {
    let walk = walk_sinks(
        netlist,
        report,
        HazardCheck::Sensitization,
        true,
        &ObsCtx::new(),
    );
    SensitizationDependencies { deps: walk.deps }
}

/// The original whole-circuit, per-pair walk: one engine over the whole
/// expansion, every node's frame-1 value copied per consistent scenario,
/// an unrestricted glitch BFS, and `path_cone`/`cone_sources` on the
/// whole netlist. Kept as the differential oracle for [`walk_sinks`]; no
/// configuration reaches it.
#[cfg(test)]
fn reference_walk(netlist: &Netlist, report: &McReport, check: HazardCheck) -> Walk {
    let x = Expanded::build(netlist, 2);
    let mut eng = ImpEngine::new(&x);
    let mc: std::collections::HashSet<(usize, usize)> =
        report.multi_cycle_pairs().into_iter().collect();
    let mut v1 = vec![V3::X; netlist.num_nodes()];
    let mut walk = Walk::default();
    for (i, j) in report.multi_cycle_pairs() {
        let mut hazardous = false;
        let mut blocking_ffs: Vec<usize> = Vec::new();
        for (a, b) in SCENARIOS {
            let cp = eng.checkpoint();
            let consistent = eng
                .assign(x.ff_at(i, 0), a)
                .and_then(|()| eng.assign(x.ff_at(i, 1), !a))
                .and_then(|()| eng.assign(x.ff_at(j, 1), b))
                .and_then(|()| eng.assign(x.ff_at(j, 2), b))
                .and_then(|()| eng.propagate())
                .is_ok();
            if consistent {
                for (id, _) in netlist.nodes() {
                    v1[id.index()] = eng.value(x.value_of(1, id));
                }
                hazardous = reference_glitch_path(netlist, i, j, &v1, check);
                if !hazardous && check == HazardCheck::Sensitization {
                    reference_blocking_sides(netlist, i, j, &v1, &mut blocking_ffs);
                }
            }
            eng.backtrack(cp);
            if hazardous {
                break;
            }
        }
        if hazardous {
            walk.demoted.push((i, j));
            continue;
        }
        walk.robust.push((i, j));
        if check == HazardCheck::Sensitization {
            blocking_ffs.sort_unstable();
            blocking_ffs.dedup();
            let deps = blocking_ffs
                .into_iter()
                .filter(|&k| k != i && mc.contains(&(k, j)))
                .map(|k| (k, j))
                .collect();
            walk.deps.push(((i, j), deps));
        }
    }
    walk
}

/// The original glitch BFS over the source's whole forward cone.
#[cfg(test)]
fn reference_glitch_path(
    netlist: &Netlist,
    i: usize,
    j: usize,
    v1: &[V3],
    check: HazardCheck,
) -> bool {
    let src = netlist.dffs()[i];
    let dst = netlist.ff_d_input(j);
    if src == dst {
        return true;
    }
    let mut reached = vec![false; netlist.num_nodes()];
    let mut queue = VecDeque::new();
    reached[src.index()] = true;
    queue.push_back(src);
    while let Some(f) = queue.pop_front() {
        for &g in netlist.fanouts(f) {
            if !netlist.node(g).kind().is_gate() || reached[g.index()] {
                continue;
            }
            if edge_traversable(netlist, f, g, &|n: NodeId| v1[n.index()], check) {
                if g == dst {
                    return true;
                }
                reached[g.index()] = true;
                queue.push_back(g);
            }
        }
    }
    false
}

/// The original blocking-side scan: `path_cone` and `cone_sources` on
/// the whole netlist, per scenario.
#[cfg(test)]
fn reference_blocking_sides(
    netlist: &Netlist,
    i: usize,
    j: usize,
    v1: &[V3],
    out: &mut Vec<usize>,
) {
    let cone = netlist.path_cone(i, j);
    let mut in_cone = vec![false; netlist.num_nodes()];
    for &n in &cone {
        in_cone[n.index()] = true;
    }
    for &g in &cone {
        let node = netlist.node(g);
        let Some(kind) = node.kind().gate_kind() else {
            continue;
        };
        let Some(c) = kind.controlling_value() else {
            continue;
        };
        for (pos, &side) in node.fanins().iter().enumerate() {
            let has_on_path_sibling = node
                .fanins()
                .iter()
                .enumerate()
                .any(|(k, &f)| k != pos && in_cone[f.index()]);
            if has_on_path_sibling && v1[side.index()] == V3::from(c) {
                let (ffs, _) = netlist.cone_sources(side);
                out.extend(ffs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, McConfig};
    use mcp_gen::circuits;

    #[test]
    fn fig3_pair_ff3_ff2_is_demoted_by_both_checks() {
        // The paper's Section 5.1 example: (FF3, FF2) satisfies the MC
        // condition but the EN2 transition can glitch through the
        // decomposed MUX2 into FF2.
        let nl = circuits::fig3();
        let report = analyze(&nl, &McConfig::default()).expect("analyze");
        assert!(
            report.multi_cycle_pairs().contains(&(2, 1)),
            "(FF3,FF2) must be MC before hazard checking"
        );

        for check in [HazardCheck::Sensitization, HazardCheck::CoSensitization] {
            let hz = check_hazards(&nl, &report, check);
            assert!(
                hz.demoted.contains(&(2, 1)),
                "{check:?} must demote (FF3,FF2): demoted={:?}",
                hz.demoted
            );
        }
    }

    #[test]
    fn hazard_report_partitions_mc_pairs() {
        let nl = circuits::fig3();
        let report = analyze(&nl, &McConfig::default()).expect("analyze");
        let mc = report.multi_cycle_pairs();
        for check in [HazardCheck::Sensitization, HazardCheck::CoSensitization] {
            let hz = check_hazards(&nl, &report, check);
            let mut all: Vec<_> = hz.robust.iter().chain(hz.demoted.iter()).copied().collect();
            all.sort_unstable();
            assert_eq!(all, mc, "{check:?} must partition the MC pairs");
        }
    }

    #[test]
    fn cosensitization_demotes_at_least_as_much_as_sensitization() {
        // Co-sensitization is an upper bound on sensitization: every
        // sensitizable path is co-sensitizable, so the co-sens check flags
        // a superset of hazards (Table 3's ordering).
        for nl in [circuits::fig1(), circuits::fig3()] {
            let report = analyze(&nl, &McConfig::default()).expect("analyze");
            let sens = check_hazards(&nl, &report, HazardCheck::Sensitization);
            let cosens = check_hazards(&nl, &report, HazardCheck::CoSensitization);
            for pair in &sens.demoted {
                assert!(
                    cosens.demoted.contains(pair),
                    "{pair:?} demoted by sens but not co-sens"
                );
            }
            assert!(cosens.robust.len() <= sens.robust.len());
        }
    }

    #[test]
    fn fig4_distinguishes_the_two_criteria() {
        // The paper's Fig.4: a transitioning A through N = NOT(A) into
        // C = AND(N, B) with B settled at the controlling value 0. The
        // path is NOT statically sensitizable (B blocks it) but IS
        // statically co-sensitizable (C is controlled and N can present
        // the controlling value).
        let nl = circuits::fig4_fragment();
        let mut v1 = vec![V3::X; nl.num_nodes()];
        let qa = nl.find_node("QA").unwrap();
        let qb = nl.find_node("QB").unwrap();
        let c = nl.find_node("C").unwrap();
        // A falls to 0; B and C settle at 0.
        v1[qa.index()] = V3::Zero;
        v1[qb.index()] = V3::Zero;
        v1[c.index()] = V3::Zero;

        let i = nl.ff_index(qa).unwrap();
        let j = nl.ff_index(nl.find_node("QC").unwrap()).unwrap();
        assert!(!glitch_path_exists(
            &nl,
            i,
            j,
            &v1,
            HazardCheck::Sensitization
        ));
        assert!(glitch_path_exists(
            &nl,
            i,
            j,
            &v1,
            HazardCheck::CoSensitization
        ));
    }

    #[test]
    fn side_input_settling_noncontrolling_sensitizes() {
        let nl = circuits::fig4_fragment();
        let mut v1 = vec![V3::X; nl.num_nodes()];
        let qb = nl.find_node("QB").unwrap();
        // B settles at the non-controlling 1 (its first-cycle value is
        // unknown, as the paper treats it): the A-path is statically
        // sensitizable, so both criteria flag a hazard.
        v1[qb.index()] = V3::One;
        let i = nl.ff_index(nl.find_node("QA").unwrap()).unwrap();
        let j = nl.ff_index(nl.find_node("QC").unwrap()).unwrap();
        assert!(glitch_path_exists(
            &nl,
            i,
            j,
            &v1,
            HazardCheck::Sensitization
        ));
        assert!(glitch_path_exists(
            &nl,
            i,
            j,
            &v1,
            HazardCheck::CoSensitization
        ));
    }

    /// A Fig.4-style circuit where a robust pair's blockade depends on
    /// another multi-cycle pair: QC's capture is gated by CP =
    /// decode(counter == 3); QA and QB load at phase 0 and reconverge at
    /// QC's data. C1 toggles only into counter states 2 and 0, so (C1, QC)
    /// is itself multi-cycle — and it is exactly the FF whose implied
    /// value blocks (QA, QC)'s glitch paths.
    fn dependency_circuit() -> mcp_netlist::Netlist {
        use mcp_logic::GateKind;
        use mcp_netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("deps");
        let c0 = b.dff("C0");
        let c1 = b.dff("C1");
        let t0 = b.gate("T0", GateKind::Not, [c0]).unwrap();
        let t1 = b.gate("T1", GateKind::Xor, [c1, c0]).unwrap();
        b.set_dff_input(c0, t0).unwrap();
        b.set_dff_input(c1, t1).unwrap();
        let n0 = b.gate("N0", GateKind::Not, [c0]).unwrap();
        let n1 = b.gate("N1", GateKind::Not, [c1]).unwrap();
        let ld = b.gate("LD", GateKind::And, [n0, n1]).unwrap(); // counter == 0
        let cp = b.gate("CP", GateKind::And, [c0, c1]).unwrap(); // counter == 3

        let ina = b.input("INA");
        let inb = b.input("INB");
        let qa = b.dff("QA");
        let ma = b.mux("MA", ld, qa, ina).unwrap();
        b.set_dff_input(qa, ma).unwrap();
        let qb = b.dff("QB");
        let mb = b.mux("MB", ld, qb, inb).unwrap();
        b.set_dff_input(qb, mb).unwrap();

        let na = b.gate("NA", GateKind::Not, [qa]).unwrap();
        let data = b.gate("DATA", GateKind::And, [na, qb]).unwrap();
        let qc = b.dff("QC");
        let mc = b.mux("MC", cp, qc, data).unwrap();
        b.set_dff_input(qc, mc).unwrap();
        b.mark_output(qc);
        b.finish().unwrap()
    }

    #[test]
    fn dependencies_identify_the_load_bearing_mc_pair() {
        let nl = dependency_circuit();
        let report = analyze(&nl, &McConfig::default()).expect("analyze");
        let ff = |name: &str| nl.ff_index(nl.find_node(name).unwrap()).unwrap();
        let (c0, c1, qa, qb, qc) = (ff("C0"), ff("C1"), ff("QA"), ff("QB"), ff("QC"));

        // Ground truth: (QA,QC), (QB,QC) and (C1,QC) are multi-cycle;
        // (C0,QC) is not (C0 toggles into the capture state 3).
        let mc = report.multi_cycle_pairs();
        assert!(mc.contains(&(qa, qc)), "mc = {mc:?}");
        assert!(mc.contains(&(qb, qc)));
        assert!(mc.contains(&(c1, qc)));
        assert!(!mc.contains(&(c0, qc)));

        let deps = sensitization_dependencies(&nl, &report);
        let of = |pair: (usize, usize)| -> Option<&Vec<(usize, usize)>> {
            deps.deps.iter().find(|(p, _)| *p == pair).map(|(_, d)| d)
        };
        // (QA, QC) must be sensitization-robust (its paths are blocked by
        // CP = 0 and the unknown QB), and its robustness must be recorded
        // as depending on (C1, QC) — the Fig.4 dependency.
        let qa_deps = of((qa, qc)).expect("(QA,QC) robust");
        assert!(
            qa_deps.contains(&(c1, qc)),
            "(QA,QC) should depend on (C1,QC): {qa_deps:?}"
        );
        assert!(
            !qa_deps.contains(&(c0, qc)),
            "(C0,QC) is single-cycle, not a dependency"
        );
    }

    #[test]
    fn pinned_chain_dependencies_point_only_at_the_shared_counter() {
        // The pinned-transfer structure's blockades are the counter-decoded
        // enables: any recorded dependency must be a counter-to-sink pair.
        let nl = mcp_gen::generators::composite(
            "pinned",
            &mcp_gen::generators::CompositeConfig {
                seed: 3,
                pinned_chains: 2,
                ..Default::default()
            },
        );
        let report = analyze(&nl, &McConfig::default()).expect("analyze");
        let deps = sensitization_dependencies(&nl, &report);
        for r in 0..2 {
            let s = nl
                .ff_index(nl.find_node(&format!("PN{r}_S")).unwrap())
                .unwrap();
            let t = nl
                .ff_index(nl.find_node(&format!("PN{r}_T")).unwrap())
                .unwrap();
            let entry = deps.deps.iter().find(|(p, _)| *p == (s, t));
            let entry = entry.expect("pinned pair is robust").1.clone();
            for &(k, sink) in &entry {
                assert_eq!(sink, t);
                assert!(
                    nl.node(nl.dffs()[k]).name().starts_with("PN_CTR_"),
                    "unexpected dependency FF {}",
                    nl.node(nl.dffs()[k]).name()
                );
            }
        }
    }

    #[test]
    fn all_x_values_split_the_criteria() {
        // With nothing implied, sensitization cannot *prove* any path
        // sensitized (unknown sides block), while co-sensitization cannot
        // prove any path blocked (unknowns traverse) — the two bounds at
        // their widest.
        let nl = circuits::fig4_fragment();
        let v1 = vec![V3::X; nl.num_nodes()];
        let i = nl.ff_index(nl.find_node("QA").unwrap()).unwrap();
        let j = nl.ff_index(nl.find_node("QC").unwrap()).unwrap();
        assert!(!glitch_path_exists(
            &nl,
            i,
            j,
            &v1,
            HazardCheck::Sensitization
        ));
        assert!(glitch_path_exists(
            &nl,
            i,
            j,
            &v1,
            HazardCheck::CoSensitization
        ));
    }

    /// Both checks and the dependency report must equal the whole-circuit
    /// reference walk, pair for pair.
    fn assert_matches_reference(nl: &Netlist, report: &McReport) {
        for check in [HazardCheck::Sensitization, HazardCheck::CoSensitization] {
            let reference = reference_walk(nl, report, check);
            let hz = check_hazards(nl, report, check);
            assert_eq!(hz.robust, reference.robust, "{}: {check:?}", nl.name());
            assert_eq!(hz.demoted, reference.demoted, "{}: {check:?}", nl.name());
            if check == HazardCheck::Sensitization {
                let deps = sensitization_dependencies(nl, report);
                assert_eq!(deps.deps, reference.deps, "{}", nl.name());
            }
        }
    }

    #[test]
    fn sink_walk_matches_the_reference_on_the_paper_circuits() {
        for nl in [
            circuits::fig1(),
            circuits::fig3(),
            circuits::fig4_fragment(),
            dependency_circuit(),
        ] {
            let report = analyze(&nl, &McConfig::default()).expect("analyze");
            assert_matches_reference(&nl, &report);
        }
    }

    #[test]
    fn sink_walk_matches_the_reference_on_the_quick_suite() {
        for nl in mcp_gen::suite::quick_suite() {
            let report = analyze(&nl, &McConfig::default()).expect("analyze");
            assert!(!report.multi_cycle_pairs().is_empty(), "{}", nl.name());
            assert_matches_reference(&nl, &report);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        #[test]
        fn sink_walk_matches_the_reference_on_random_circuits(
            seed in 0u64..100_000,
            ffs in 1usize..6,
            pis in 0usize..4,
            gates in 2usize..35,
        ) {
            let cfg = mcp_gen::random::RandomCircuitConfig {
                ffs,
                pis,
                gates,
                max_arity: 3,
            };
            let nl = mcp_gen::random::random_netlist(seed, &cfg);
            let report = analyze(
                &nl,
                &McConfig {
                    backtrack_limit: 100_000,
                    ..McConfig::default()
                },
            )
            .expect("analyze");
            assert_matches_reference(&nl, &report);
        }
    }
}
