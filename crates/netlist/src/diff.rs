//! Structural netlist diff for ECO-style incremental re-analysis.
//!
//! An engineering change order (ECO) edits a handful of gates in an
//! otherwise unchanged circuit. [`diff`] computes the name-keyed
//! structural delta between two netlists: the set of nodes that are new
//! or changed in the new revision, plus the nodes that disappeared.
//! Downstream, `mcp-core`'s ECO splice maps the changed names through
//! the sink-group cones of the new revision and re-verifies only the
//! groups whose cone of influence intersects the delta — every other
//! group's cached verdict is provably still valid, because an engine
//! verdict depends only on the group's cone (the slice/no-slice
//! identity) and every node of an untouched cone is name-and-structure
//! identical in both revisions.
//!
//! Nodes are matched **by name**: a node counts as changed when it is
//! absent from the old revision, its [`NodeKind`](crate::NodeKind)
//! differs, or its fanin *name* list differs (order-sensitive — gate
//! inputs are positional). A node present only in the old revision is
//! *removed*; removed nodes never appear in the new revision's cones, so
//! they only matter indirectly (whoever read them must have changed
//! fanins, landing in the changed set).

use crate::model::Netlist;
use std::collections::BTreeSet;

/// The name-keyed structural delta between two netlist revisions.
///
/// Produced by [`diff`]; all sets are sorted for deterministic
/// iteration and reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetlistDiff {
    /// Names of nodes that are new in — or structurally changed between
    /// — the two revisions, resolved against the *new* netlist.
    pub changed: BTreeSet<String>,
    /// Names of nodes present only in the *old* netlist.
    pub removed: BTreeSet<String>,
}

impl NetlistDiff {
    /// Whether the two revisions are structurally identical (same nodes
    /// by name, kind and fanin wiring).
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.removed.is_empty()
    }

    /// Total number of touched names (changed + removed).
    pub fn touched(&self) -> usize {
        self.changed.len() + self.removed.len()
    }
}

/// Computes the structural delta from `old` to `new`.
///
/// `O(nodes × fanins)` with one hash lookup per node: each node of
/// `new` is matched by name against `old` and compared by kind and
/// ordered fanin names; each node of `old` missing from `new` is
/// recorded as removed. Output markings are ignored — they do not
/// affect FF-pair verdicts or their cones.
pub fn diff(old: &Netlist, new: &Netlist) -> NetlistDiff {
    let mut delta = NetlistDiff::default();
    for (_, node) in new.nodes() {
        let same = old.find_node(node.name()).is_some_and(|old_id| {
            let old_node = old.node(old_id);
            old_node.kind() == node.kind()
                && old_node.fanins().len() == node.fanins().len()
                && old_node
                    .fanins()
                    .iter()
                    .zip(node.fanins())
                    .all(|(&a, &b)| old.node(a).name() == new.node(b).name())
        });
        if !same {
            delta.changed.insert(node.name().to_owned());
        }
    }
    for (_, node) in old.nodes() {
        if new.find_node(node.name()).is_none() {
            delta.removed.insert(node.name().to_owned());
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;

    const BASE: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(q)\n\
                        q = DFF(g1)\ng1 = AND(a, b)";

    fn parse(name: &str, src: &str) -> Netlist {
        bench::parse(name, src).expect("parse")
    }

    #[test]
    fn identical_netlists_diff_empty() {
        let old = parse("c", BASE);
        let new = parse("c", BASE);
        let d = diff(&old, &new);
        assert!(d.is_empty());
        assert_eq!(d.touched(), 0);
    }

    #[test]
    fn gate_kind_change_is_detected() {
        let old = parse("c", BASE);
        let new = parse("c", &BASE.replace("AND(a, b)", "OR(a, b)"));
        let d = diff(&old, &new);
        assert_eq!(d.changed.iter().collect::<Vec<_>>(), ["g1"]);
        assert!(d.removed.is_empty());
        // Direction matters for resolution, not membership.
        assert_eq!(diff(&new, &old).changed, d.changed);
    }

    #[test]
    fn fanin_rewire_and_order_are_detected() {
        let old = parse("c", BASE);
        let rewired = parse("c", &BASE.replace("AND(a, b)", "AND(a, a)"));
        assert_eq!(
            diff(&old, &rewired).changed.iter().collect::<Vec<_>>(),
            ["g1"]
        );
        // Fanin order is positional, so a swap is a change.
        let swapped = parse("c", &BASE.replace("AND(a, b)", "AND(b, a)"));
        assert_eq!(
            diff(&old, &swapped).changed.iter().collect::<Vec<_>>(),
            ["g1"]
        );
    }

    #[test]
    fn added_and_removed_nodes_are_partitioned() {
        let old = parse("c", BASE);
        let new = parse(
            "c",
            "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nOUTPUT(t)\n\
             q = DFF(g1)\ng1 = AND(a, b)\nt = NOT(a)",
        );
        let d = diff(&old, &new);
        assert_eq!(d.changed.iter().collect::<Vec<_>>(), ["t"]);
        assert!(d.removed.is_empty());
        let back = diff(&new, &old);
        assert!(back.changed.is_empty());
        assert_eq!(back.removed.iter().collect::<Vec<_>>(), ["t"]);
        assert_eq!(back.touched(), 1);
    }
}
