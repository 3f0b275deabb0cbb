//! The compiled netlist IR.
//!
//! [`ParallelSim`](crate::ParallelSim) walks the netlist graph on every
//! pass: per-gate enum dispatch, a fanin-id indirection per input, and a
//! scratch copy of every fanin word. That is fine for a handful of
//! passes, but the random-pattern prefilter (paper step 2) runs hundreds
//! of passes over the whole circuit.
//!
//! [`Tape`] lowers the netlist **once** into a flat, levelized
//! instruction tape of pure **binary** operations in structure-of-arrays
//! layout (opcode / left slot / right slot), folding constants and
//! chaining buffers away at compile time:
//!
//! * `Const` drivers never occupy a runtime slot — readers fold them
//!   into the instruction (a controlling constant folds the whole gate,
//!   non-controlling constants are dropped from the fanin list, XOR
//!   parity constants flip the opcode between XOR and XNOR);
//! * `BUF` gates (and single-input AND/OR after folding) emit no
//!   instruction at all — their readers alias the source slot;
//! * a gate whose folded fanin list becomes empty is itself a constant,
//!   and the fold cascades through its readers;
//! * an `n`-input gate decomposes into a chain of `n - 1` binary
//!   instructions (the inversion of NAND/NOR/XNOR lands on the last
//!   link), and `NOT(a)` becomes `NAND(a, a)` — so every instruction is
//!   a single load–load–op–store with no per-instruction fanin
//!   iteration, no arity dispatch, and an output slot that is implicit
//!   in the instruction index.
//!
//! The tape is not executed directly: [`FusedTape::lower`](crate::FusedTape::lower)
//! consumes it, and the fused stream runs on native code or the
//! [`FusedSim`](crate::FusedSim) interpreter. Every original node's
//! value — including folded and aliased ones — stays recoverable through
//! [`Tape::slot_of`] and [`FusedTape::tape_ref`](crate::FusedTape::tape_ref).

use mcp_logic::{GateKind, V3};
use mcp_netlist::{Netlist, NodeId, NodeKind};

/// Where a node's value lives after compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRef {
    /// The value is computed into (or set on) a runtime slot.
    Slot(u32),
    /// The value folded to a compile-time constant.
    Const(bool),
}

/// Binary tape opcodes. `Buf` never appears (aliased away) and `Not`
/// has no opcode of its own (`NAND(a, a)`); the inverting opcodes close
/// a decomposed n-ary chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    And,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
}

/// A netlist compiled into a flat, levelized instruction tape.
///
/// Slot layout: slots `0 .. num_inputs` are the primary inputs (in
/// declaration order), slots `num_inputs .. num_inputs + num_ffs` are
/// the flip-flop states (in FF-index order), and instruction `i` writes
/// slot `num_inputs + num_ffs + i` — the output slot is implicit in the
/// instruction index. Instructions are in the netlist's topological
/// gate order, so a single forward sweep evaluates the combinational
/// logic, and every instruction only reads slots below its own.
#[derive(Debug, Clone)]
pub struct Tape {
    num_slots: usize,
    num_inputs: usize,
    num_ffs: usize,
    /// SoA instruction stream: one entry per emitted binary instruction.
    /// Crate-visible so the fusing lowering pass (`crate::lower`) can
    /// walk the stream without re-deriving it from the netlist.
    pub(crate) opcode: Vec<Op>,
    /// Left operand slot of instruction `i`.
    pub(crate) lhs: Vec<u32>,
    /// Right operand slot of instruction `i` (`lhs[i]` again for NOT).
    pub(crate) rhs: Vec<u32>,
    /// Resolved location of every original node's value, by node index.
    node_ref: Vec<SlotRef>,
    /// Resolved location of every FF's D-input value, by FF index.
    pub(crate) ff_d: Vec<SlotRef>,
}

impl Tape {
    /// Compiles `netlist` into a tape. One-time cost, linear in the
    /// netlist size.
    pub fn compile(netlist: &Netlist) -> Tape {
        Tape::compile_with_consts(netlist, &[])
    }

    /// [`compile`](Self::compile) with externally proven constants:
    /// `consts[id]` is a ternary value per node (typically the first
    /// Kleene iterate of `mcp-lint`'s constant lattice), and every
    /// *gate* with a definite entry is pinned to [`SlotRef::Const`]
    /// before instruction emission — it emits nothing, and the fold
    /// cascades through its readers exactly like a native `Const`
    /// driver. An empty slice disables pinning (plain `compile`).
    ///
    /// Soundness is the caller's burden: a pinned gate must actually
    /// hold its value under every stimulus the tape will see. The
    /// tape's own cascade folder derives the same fold set from native
    /// `Const` drivers (both are correlation-blind forward ternary
    /// propagation with X at every PI and FF), so for the lattice's
    /// base iterate the pinned compile is pinned *identical* — see
    /// `seeded_compile_matches_the_cascade_folder` — and the seeding
    /// exists to keep that equivalence enforced rather than assumed.
    ///
    /// # Panics
    ///
    /// Panics if `consts` is non-empty and shorter than the node count.
    pub fn compile_with_consts(netlist: &Netlist, consts: &[V3]) -> Tape {
        let num_inputs = netlist.num_inputs();
        let num_ffs = netlist.num_ffs();
        let mut node_ref = vec![SlotRef::Const(false); netlist.num_nodes()];
        for (i, &pi) in netlist.inputs().iter().enumerate() {
            node_ref[pi.index()] = SlotRef::Slot(i as u32);
        }
        for (k, &ff) in netlist.dffs().iter().enumerate() {
            node_ref[ff.index()] = SlotRef::Slot((num_inputs + k) as u32);
        }
        for (id, node) in netlist.nodes() {
            if let NodeKind::Const(v) = node.kind() {
                node_ref[id.index()] = SlotRef::Const(v);
            }
        }
        let mut pinned = vec![false; netlist.num_nodes()];
        if !consts.is_empty() {
            assert!(
                consts.len() >= netlist.num_nodes(),
                "const seed slice shorter than the node count"
            );
            for (id, node) in netlist.nodes() {
                if node.kind().gate_kind().is_some() {
                    if let Some(v) = consts[id.index()].to_bool() {
                        node_ref[id.index()] = SlotRef::Const(v);
                        pinned[id.index()] = true;
                    }
                }
            }
        }

        let mut tape = Tape {
            num_slots: num_inputs + num_ffs,
            num_inputs,
            num_ffs,
            opcode: Vec::new(),
            lhs: Vec::new(),
            rhs: Vec::new(),
            node_ref: Vec::new(),
            ff_d: Vec::new(),
        };

        let mut slots: Vec<u32> = Vec::with_capacity(8);
        for &g in netlist.topo_gates() {
            if pinned[g.index()] {
                continue;
            }
            let node = netlist.node(g);
            let kind = node.kind().gate_kind().expect("topo holds gates");
            let fanins = node.fanins();
            let r = match kind {
                GateKind::Buf => node_ref[fanins[0].index()],
                GateKind::Not => match node_ref[fanins[0].index()] {
                    SlotRef::Const(v) => SlotRef::Const(!v),
                    SlotRef::Slot(s) => tape.emit_not(s),
                },
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let ctrl = kind.controlling_value().expect("AND/OR family");
                    let mut controlled = false;
                    slots.clear();
                    for &f in fanins {
                        match node_ref[f.index()] {
                            SlotRef::Const(v) if v == ctrl => {
                                controlled = true;
                                break;
                            }
                            // A non-controlling constant is the identity
                            // of the base function — drop it.
                            SlotRef::Const(_) => {}
                            SlotRef::Slot(s) => slots.push(s),
                        }
                    }
                    if controlled {
                        SlotRef::Const(kind.controlled_output().expect("AND/OR family"))
                    } else if slots.is_empty() {
                        // All inputs were the identity constant.
                        SlotRef::Const(!ctrl ^ kind.output_inversion())
                    } else {
                        let (base, inv) = match kind {
                            GateKind::And | GateKind::Nand => (Op::And, Op::Nand),
                            _ => (Op::Or, Op::Nor),
                        };
                        tape.emit_or_alias(base, inv, kind.output_inversion(), &slots)
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Constant inputs fold into the output parity.
                    let mut parity = kind.output_inversion();
                    slots.clear();
                    for &f in fanins {
                        match node_ref[f.index()] {
                            SlotRef::Const(v) => parity ^= v,
                            SlotRef::Slot(s) => slots.push(s),
                        }
                    }
                    if slots.is_empty() {
                        SlotRef::Const(parity)
                    } else {
                        tape.emit_or_alias(Op::Xor, Op::Xnor, parity, &slots)
                    }
                }
            };
            node_ref[g.index()] = r;
        }

        tape.ff_d = (0..num_ffs)
            .map(|k| node_ref[netlist.ff_d_input(k).index()])
            .collect();
        tape.node_ref = node_ref;
        tape
    }

    /// Emits the binary chain for an n-ary gate, or — for a single
    /// surviving fanin — aliases (non-inverting) or emits a NOT
    /// (inverting) instead, so degenerate gates cost nothing extra at
    /// runtime. An n-input gate becomes `n - 1` instructions of `base`
    /// with the output inversion folded into a final `inv` link.
    fn emit_or_alias(&mut self, base: Op, inv: Op, inverting: bool, slots: &[u32]) -> SlotRef {
        if slots.len() == 1 {
            return if inverting {
                self.emit_not(slots[0])
            } else {
                SlotRef::Slot(slots[0])
            };
        }
        let mut acc = slots[0];
        for &s in &slots[1..slots.len() - 1] {
            let SlotRef::Slot(next) = self.emit2(base, acc, s) else {
                unreachable!("emit2 always yields a slot");
            };
            acc = next;
        }
        let last = slots[slots.len() - 1];
        self.emit2(if inverting { inv } else { base }, acc, last)
    }

    /// `NOT(a)` as the binary instruction `NAND(a, a)`.
    fn emit_not(&mut self, a: u32) -> SlotRef {
        self.emit2(Op::Nand, a, a)
    }

    fn emit2(&mut self, op: Op, a: u32, b: u32) -> SlotRef {
        let out = u32::try_from(self.num_slots).expect("slot count exceeds u32");
        self.num_slots += 1;
        self.opcode.push(op);
        self.lhs.push(a);
        self.rhs.push(b);
        SlotRef::Slot(out)
    }

    /// Number of runtime value slots (inputs + FF states + instruction
    /// outputs).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Number of emitted binary instructions — the per-pass work. An
    /// n-input gate contributes at most `n - 1`; folding and aliasing
    /// only shrink the total relative to that bound.
    #[inline]
    pub fn num_ops(&self) -> usize {
        self.opcode.len()
    }

    /// Total fanin references across all instructions (the tape's
    /// memory-traffic proxy) — two per binary instruction.
    #[inline]
    pub fn num_fanin_refs(&self) -> usize {
        2 * self.opcode.len()
    }

    /// Number of primary inputs of the compiled netlist.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of flip-flops of the compiled netlist.
    #[inline]
    pub fn num_ffs(&self) -> usize {
        self.num_ffs
    }

    /// Where the value of original node `id` lives. Aliased (buffer) and
    /// folded (constant) nodes resolve here without occupying a slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the compiled netlist.
    #[inline]
    pub fn slot_of(&self, id: NodeId) -> SlotRef {
        self.node_ref[id.index()]
    }

    /// Where FF `ff`'s D-input value lives after an eval pass.
    ///
    /// # Panics
    ///
    /// Panics if `ff` is out of range.
    #[inline]
    pub fn ff_d(&self, ff: usize) -> SlotRef {
        self.ff_d[ff]
    }

    /// The runtime slot of primary input `pi`.
    #[inline]
    pub fn pi_slot(&self, pi: usize) -> usize {
        debug_assert!(pi < self.num_inputs);
        pi
    }

    /// The runtime slot holding FF `ff`'s state.
    #[inline]
    pub fn ff_slot(&self, ff: usize) -> usize {
        debug_assert!(ff < self.num_ffs);
        self.num_inputs + ff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FusedSim, FusedTape, ParallelSim};
    use mcp_netlist::NetlistBuilder;

    /// Node `id`'s value after the most recent eval of a simulator over a
    /// keep-all lowering of `tape`.
    fn value<const W: usize>(sim: &FusedSim<'_, W>, tape: &Tape, id: NodeId) -> [u64; W] {
        let r = sim.fused().tape_ref(tape.slot_of(id));
        sim.resolve(r.expect("keep-all lowering maps every slot"))
    }

    fn gray2() -> Netlist {
        let mut b = NetlistBuilder::new("gray2");
        let f3 = b.dff("F3");
        let f4 = b.dff("F4");
        let nf3 = b.gate("NF3", GateKind::Not, [f3]).unwrap();
        b.set_dff_input(f3, f4).unwrap();
        b.set_dff_input(f4, nf3).unwrap();
        b.mark_output(f3);
        b.finish().unwrap()
    }

    #[test]
    fn gray_counter_matches_parallel_sim() {
        let nl = gray2();
        let tape = Tape::compile(&nl);
        let fused = FusedTape::lower_keep_all(&tape);
        let mut sim = FusedSim::<2>::new(&fused);
        let mut reference = ParallelSim::new(&nl);
        sim.set_state(0, [0b10, 0b01]);
        sim.set_state(1, [0b10, 0b11]);
        reference.set_state(0, 0b10);
        reference.set_state(1, 0b10);
        sim.eval();
        reference.eval();
        // Word 0 tracks the reference lane-for-lane.
        assert_eq!(sim.next_state(0)[0], reference.next_state(0));
        assert_eq!(sim.next_state(1)[0], reference.next_state(1));
        sim.clock();
        reference.clock();
        assert_eq!(sim.state(0)[0], reference.state(0));
        assert_eq!(sim.state(1)[0], reference.state(1));
        // Words are independent: word 1 evolved its own state.
        assert_eq!(sim.state(0)[1], 0b11);
        assert_eq!(sim.state(1)[1], !0b01);
    }

    #[test]
    fn constants_fold_away_entirely() {
        let mut b = NetlistBuilder::new("c");
        let one = b.constant("ONE", true);
        let zero = b.constant("ZERO", false);
        let input = b.input("IN");
        // a = AND(ONE, ZERO) -> const 0;  o = OR(ONE, ZERO) -> const 1
        let a = b.gate("A", GateKind::And, [one, zero]).unwrap();
        let o = b.gate("O", GateKind::Or, [one, zero]).unwrap();
        // g = AND(IN, ONE) -> alias of IN;  n = NOR(IN, ZERO) -> NOT(IN)
        let g = b.gate("G", GateKind::And, [input, one]).unwrap();
        let n = b.gate("N", GateKind::Nor, [input, zero]).unwrap();
        // x = XOR(IN, ONE) -> NOT(IN);  y = XNOR(ONE, ZERO) -> const 0
        let x = b.gate("X", GateKind::Xor, [input, one]).unwrap();
        let y = b.gate("Y", GateKind::Xnor, [one, zero]).unwrap();
        for id in [a, o, g, n, x, y] {
            b.mark_output(id);
        }
        let nl = b.finish().unwrap();
        let tape = Tape::compile(&nl);
        // Only the two NOTs survive as instructions.
        assert_eq!(tape.num_ops(), 2);
        assert_eq!(tape.slot_of(a), SlotRef::Const(false));
        assert_eq!(tape.slot_of(o), SlotRef::Const(true));
        assert_eq!(tape.slot_of(g), tape.slot_of(input));
        assert_eq!(tape.slot_of(y), SlotRef::Const(false));

        let fused = FusedTape::lower_keep_all(&tape);
        let mut sim = FusedSim::<1>::new(&fused);
        sim.set_input(0, [0b01]);
        sim.eval();
        assert_eq!(value(&sim, &tape, a), [0]);
        assert_eq!(value(&sim, &tape, o), [u64::MAX]);
        assert_eq!(value(&sim, &tape, g), [0b01]);
        assert_eq!(value(&sim, &tape, n), [!0b01]);
        assert_eq!(value(&sim, &tape, x), [!0b01]);
        assert_eq!(value(&sim, &tape, y), [0]);
    }

    #[test]
    fn buffer_chains_alias_to_the_source_slot() {
        let mut b = NetlistBuilder::new("bufs");
        let input = b.input("IN");
        let b1 = b.gate("B1", GateKind::Buf, [input]).unwrap();
        let b2 = b.gate("B2", GateKind::Buf, [b1]).unwrap();
        let b3 = b.gate("B3", GateKind::Buf, [b2]).unwrap();
        let ff = b.dff("FF");
        b.set_dff_input(ff, b3).unwrap();
        b.mark_output(ff);
        let nl = b.finish().unwrap();
        let tape = Tape::compile(&nl);
        assert_eq!(tape.num_ops(), 0, "buffer chains emit no instructions");
        assert_eq!(tape.slot_of(b3), tape.slot_of(input));
        assert_eq!(tape.ff_d(0), tape.slot_of(input));

        let fused = FusedTape::lower_keep_all(&tape);
        let mut sim = FusedSim::<1>::new(&fused);
        sim.set_input(0, [0xABCD]);
        sim.eval();
        assert_eq!(sim.next_state(0), [0xABCD]);
        sim.clock();
        assert_eq!(sim.state(0), [0xABCD]);
    }

    #[test]
    fn constant_fed_ff_latches_the_constant() {
        let mut b = NetlistBuilder::new("constff");
        let one = b.constant("ONE", true);
        let ff = b.dff("FF");
        b.set_dff_input(ff, one).unwrap();
        b.mark_output(ff);
        let nl = b.finish().unwrap();
        let tape = Tape::compile(&nl);
        assert_eq!(tape.ff_d(0), SlotRef::Const(true));
        let fused = FusedTape::lower_keep_all(&tape);
        let mut sim = FusedSim::<2>::new(&fused);
        sim.set_state(0, [0, 0]);
        sim.eval();
        assert_eq!(sim.next_state(0), [u64::MAX; 2]);
        sim.clock();
        assert_eq!(sim.state(0), [u64::MAX; 2]);
    }

    #[test]
    fn clock_reads_all_d_values_before_latching() {
        // FF shift pair where each D aliases the *other* FF's state slot:
        // a naive in-place latch would corrupt the second read.
        let mut b = NetlistBuilder::new("swap");
        let f0 = b.dff("F0");
        let f1 = b.dff("F1");
        let b0 = b.gate("B0", GateKind::Buf, [f1]).unwrap();
        let b1 = b.gate("B1", GateKind::Buf, [f0]).unwrap();
        b.set_dff_input(f0, b0).unwrap();
        b.set_dff_input(f1, b1).unwrap();
        b.mark_output(f0);
        let nl = b.finish().unwrap();
        let tape = Tape::compile(&nl);
        assert_eq!(tape.num_ops(), 0);
        let fused = FusedTape::lower_keep_all(&tape);
        let mut sim = FusedSim::<1>::new(&fused);
        sim.set_state(0, [0xAAAA]);
        sim.set_state(1, [0x5555]);
        sim.eval();
        sim.clock();
        assert_eq!(sim.state(0), [0x5555]);
        assert_eq!(sim.state(1), [0xAAAA]);
    }

    #[test]
    fn cascaded_folding_reaches_downstream_gates() {
        // NOT(AND(ONE, ZERO)) = NOT(0) = 1, then AND(IN, that) aliases IN.
        let mut b = NetlistBuilder::new("cascade");
        let one = b.constant("ONE", true);
        let zero = b.constant("ZERO", false);
        let input = b.input("IN");
        let a = b.gate("A", GateKind::And, [one, zero]).unwrap();
        let n = b.gate("N", GateKind::Not, [a]).unwrap();
        let g = b.gate("G", GateKind::And, [input, n]).unwrap();
        b.mark_output(g);
        let nl = b.finish().unwrap();
        let tape = Tape::compile(&nl);
        assert_eq!(tape.num_ops(), 0);
        assert_eq!(tape.slot_of(n), SlotRef::Const(true));
        assert_eq!(tape.slot_of(g), tape.slot_of(input));
    }

    #[test]
    fn seeded_compile_matches_the_cascade_folder() {
        // The tape's syntactic cascade folder and a forward ternary
        // lattice over the same netlist are both correlation-blind
        // constant propagation from CONST drivers with X at every PI
        // and FF — so seeding the compiler with exactly the constants
        // its own folder would derive must reproduce the instruction
        // stream bit for bit. (A seed the folder *can't* derive would
        // shrink the tape; the pipeline's seed never is, and this test
        // keeps the equivalence enforced rather than assumed.)
        let mut b = NetlistBuilder::new("seeded");
        let one = b.constant("ONE", true);
        let zero = b.constant("ZERO", false);
        let input = b.input("IN");
        let ff = b.dff("FF");
        let dead = b.gate("DEAD", GateKind::And, [input, zero]).unwrap();
        let n = b.gate("N", GateKind::Not, [dead]).unwrap();
        let live = b.gate("LIVE", GateKind::Xor, [input, ff]).unwrap();
        let mix = b.gate("MIX", GateKind::Or, [live, dead]).unwrap();
        let keep = b.gate("KEEP", GateKind::And, [mix, n, one]).unwrap();
        b.set_dff_input(ff, keep).unwrap();
        b.mark_output(keep);
        let nl = b.finish().unwrap();

        let plain = Tape::compile(&nl);
        // Recover the folder's own constant set through `slot_of`, feed
        // it back as the seed.
        let consts: Vec<V3> = (0..nl.num_nodes())
            .map(|i| match plain.slot_of(NodeId::from_index(i)) {
                SlotRef::Const(v) => V3::from(v),
                SlotRef::Slot(_) => V3::X,
            })
            .collect();
        let seeded = Tape::compile_with_consts(&nl, &consts);
        assert_eq!(seeded.num_ops(), plain.num_ops());
        assert_eq!(seeded.opcode, plain.opcode);
        assert_eq!(seeded.lhs, plain.lhs);
        assert_eq!(seeded.rhs, plain.rhs);
        assert_eq!(seeded.node_ref, plain.node_ref);
        assert_eq!(seeded.ff_d, plain.ff_d);

        // An empty seed is the plain compile.
        let unseeded = Tape::compile_with_consts(&nl, &[]);
        assert_eq!(unseeded.num_ops(), plain.num_ops());
        assert_eq!(unseeded.node_ref, plain.node_ref);
    }
}
