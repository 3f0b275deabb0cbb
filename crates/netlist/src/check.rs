//! The structural check: every defect that voids the circuit model.
//!
//! The analyses assume the paper's circuit class: the combinational part
//! is a DAG, every flip-flop has exactly one D driver, every gate has a
//! fanin count its kind allows, and names are unique. [`Netlist::defects`]
//! lists every violation. It is the one implementation of these checks:
//! [`NetlistBuilder::finish`](crate::NetlistBuilder::finish) refuses the
//! first defect, `mcp-lint` reports each one as an Error finding, and the
//! analysis pipeline's admission gate refuses a netlist that has any.

use crate::model::{Netlist, NodeId};
use std::collections::HashMap;

/// One structural defect of a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Defect {
    /// A combinational cycle: the gates of one strongly connected
    /// component of the gate graph (several gates, or one reading
    /// itself), sorted by id.
    CombinationalCycle(Vec<NodeId>),
    /// A gate whose fanin count its kind does not allow (none at all, or
    /// not exactly one for NOT/BUF).
    BadArity(NodeId),
    /// A flip-flop with no D driver.
    UnconnectedDff(NodeId),
    /// A flip-flop with more than one D driver.
    MultiDrivenDff(NodeId),
    /// Several nodes sharing one name, in id order.
    DuplicateName(Vec<NodeId>),
}

impl Netlist {
    /// Every structural defect of the netlist: combinational cycles, then
    /// gates of a wrong arity, unconnected and multi-driven flip-flops,
    /// and duplicated names, each kind in node order. Empty for every
    /// netlist [`NetlistBuilder::finish`](crate::NetlistBuilder::finish)
    /// accepts.
    ///
    /// One node scan plus two size comparisons on a well-formed netlist.
    /// Cycles are searched (Tarjan's SCC algorithm) only when the
    /// topological order is short of the gate count, and names are
    /// grouped only when the name index is short of the node count.
    pub fn defects(&self) -> Vec<Defect> {
        let mut arity = Vec::new();
        let mut unconnected = Vec::new();
        let mut multi_driven = Vec::new();
        let mut gates = 0;
        for (id, node) in self.nodes() {
            match node.kind.gate_kind() {
                Some(kind) => {
                    gates += 1;
                    if !kind.takes(node.fanins.len()) {
                        arity.push(Defect::BadArity(id));
                    }
                }
                None if node.kind.is_dff() => match node.fanins.len() {
                    0 => unconnected.push(Defect::UnconnectedDff(id)),
                    1 => {}
                    _ => multi_driven.push(Defect::MultiDrivenDff(id)),
                },
                None => {}
            }
        }
        let mut defects: Vec<Defect> = if self.topo.len() < gates {
            self.cyclic_gate_sccs()
                .into_iter()
                .map(Defect::CombinationalCycle)
                .collect()
        } else {
            Vec::new()
        };
        defects.extend(arity);
        defects.extend(unconnected);
        defects.extend(multi_driven);
        if self.name_index.len() < self.num_nodes() {
            defects.extend(
                self.duplicate_names()
                    .into_iter()
                    .map(Defect::DuplicateName),
            );
        }
        defects
    }

    /// Tarjan's SCC algorithm (iterative) over the gate-only subgraph,
    /// with edges gate → gate-fanin. Returns the components that contain
    /// a cycle — more than one node, or a single gate reading itself —
    /// each sorted by node id, in the order the search closes them.
    fn cyclic_gate_sccs(&self) -> Vec<Vec<NodeId>> {
        const UNVISITED: u32 = u32::MAX;
        let n = self.num_nodes();
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0u32;
        let mut sccs: Vec<Vec<NodeId>> = Vec::new();

        // Explicit DFS state: (node, next fanin position to visit).
        let mut work: Vec<(usize, usize)> = Vec::new();

        for (root, node) in self.nodes() {
            if !node.kind.is_gate() || index[root.index()] != UNVISITED {
                continue;
            }
            work.push((root.index(), 0));
            while let Some(&mut (v, ref mut fi)) = work.last_mut() {
                if *fi == 0 {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                let fanins = &self.nodes[v].fanins;
                let mut descended = false;
                while *fi < fanins.len() {
                    let w = fanins[*fi].index();
                    *fi += 1;
                    if !self.nodes[w].kind.is_gate() {
                        continue;
                    }
                    if index[w] == UNVISITED {
                        work.push((w, 0));
                        descended = true;
                        break;
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                }
                if descended {
                    continue;
                }
                // v is finished: pop, close its SCC if it is a root, and
                // propagate its lowlink to the parent.
                work.pop();
                if lowlink[v] == index[v] {
                    let mut comp: Vec<NodeId> = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack non-empty");
                        on_stack[w] = false;
                        comp.push(NodeId::from_index(w));
                        if w == v {
                            break;
                        }
                    }
                    let self_loop = comp.len() == 1 && self.nodes[v].fanins.contains(&comp[0]);
                    if comp.len() > 1 || self_loop {
                        comp.sort_unstable();
                        sccs.push(comp);
                    }
                }
                if let Some(&mut (p, _)) = work.last_mut() {
                    lowlink[p] = lowlink[p].min(lowlink[v]);
                }
            }
        }
        sccs
    }

    /// The groups of nodes sharing a name, each in id order, ordered by
    /// their first node.
    fn duplicate_names(&self) -> Vec<Vec<NodeId>> {
        let mut by_name: HashMap<&str, Vec<NodeId>> = HashMap::new();
        for (id, node) in self.nodes() {
            by_name.entry(node.name()).or_default().push(id);
        }
        let mut dups: Vec<Vec<NodeId>> =
            by_name.into_values().filter(|ids| ids.len() > 1).collect();
        dups.sort_unstable_by_key(|ids| ids[0]);
        dups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench, NetlistBuilder, NodeKind};
    use mcp_logic::GateKind;

    #[test]
    fn well_formed_netlists_have_no_defects() {
        let src = "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = XOR(q, a)\n";
        assert!(bench::parse("ok", src).unwrap().defects().is_empty());
    }

    #[test]
    fn every_defect_is_listed_in_kind_order() {
        let src = "INPUT(a)\nOUTPUT(q)\nq = DFF(a, b)\nu = DFF()\n\
                   b = NOT(a, a)\nz = AND()\nc1 = NOT(c2)\nc2 = BUFF(c1)\nq = BUFF(a)\n";
        let nl = bench::parse_unchecked("all", src).unwrap();
        let id = |i: usize| NodeId::from_index(i);
        // Nodes: a0 q1 u2, then the gates in text order: b3 z4 c1=5 c2=6 q7.
        assert_eq!(
            nl.defects(),
            vec![
                Defect::CombinationalCycle(vec![id(5), id(6)]),
                Defect::BadArity(id(3)),
                Defect::BadArity(id(4)),
                Defect::UnconnectedDff(id(2)),
                Defect::MultiDrivenDff(id(1)),
                Defect::DuplicateName(vec![id(1), id(7)]),
            ]
        );
    }

    #[test]
    fn a_gate_reading_itself_is_a_cycle_but_its_readers_are_not() {
        let mut b = NetlistBuilder::new("self");
        let a = b.input("a");
        let g = b.raw_node("g", NodeKind::Gate(GateKind::And), vec![a, a]);
        let h = b.raw_node("h", NodeKind::Gate(GateKind::Not), vec![g]);
        b.rewire_fanin(g, 1, g).unwrap();
        b.mark_output(h);
        let nl = b.finish_unchecked();
        assert_eq!(nl.defects(), vec![Defect::CombinationalCycle(vec![g])]);
    }
}
