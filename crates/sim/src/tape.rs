//! The kernel compiler.
//!
//! [`ParallelSim`](crate::ParallelSim) walks the netlist graph on every
//! pass: per-gate enum dispatch, a fanin-id indirection per input, and a
//! scratch copy of every fanin word. That is fine for a handful of
//! passes, but the random-pattern prefilter (paper step 2) runs hundreds
//! of passes over the whole circuit.
//!
//! [`Tape`] compiles the netlist **once**, in one topological sweep, into
//! a flat, levelized stream of fused binary instructions ([`FusedOp`]),
//! folding constants, chaining buffers away and fusing inverters as it
//! goes:
//!
//! * `Const` drivers never occupy a runtime slot — readers fold them
//!   into the instruction (a controlling constant folds the whole gate,
//!   non-controlling constants are dropped from the fanin list, XOR
//!   parity constants flip the output polarity);
//! * `BUF` gates (and single-input AND/OR after folding) emit no
//!   instruction at all — their readers alias the source;
//! * `NOT` emits nothing either: it flips the polarity bit of the
//!   reference ([`FusedRef`]), and the consuming instruction's opcode
//!   absorbs it (`AND(¬a, b)` is one `ANDN`, x86 `vpandn`). A polarity no
//!   instruction absorbs — an inverter feeding an FF D input — rides the
//!   D reference and is applied at readout, never in the hot loop;
//! * a gate whose folded fanin list becomes empty is itself a constant,
//!   and the fold cascades through its readers;
//! * an `n`-input gate chains `n - 1` binary instructions through one
//!   folder (the inversion of NAND/NOR/XNOR lands on the last link), and
//!   operands on the same slot fold there too (`XOR(a, a) = 0`,
//!   `AND(a, ¬a) = 0`) — so every instruction is a single
//!   load–load–op–store with no per-instruction fanin iteration, no arity
//!   dispatch, and an output slot that is implicit in the instruction
//!   index.
//!
//! [`FusedTape::lower`](crate::FusedTape::lower) then drops the
//! instructions no FF D input reads and renumbers the rest, and the
//! stream runs on native code or the [`FusedSim`](crate::FusedSim)
//! interpreter. Every original node's value — including folded and
//! aliased ones — stays readable through [`Tape::slot_of`] on a
//! [`FusedTape::lower_keep_all`](crate::FusedTape::lower_keep_all)
//! lowering, which keeps every slot in place.

use crate::lower::{FusedOp, FusedRef};
use mcp_logic::{GateKind, V3};
use mcp_netlist::{Netlist, NodeId, NodeKind};

/// A netlist compiled into a flat, levelized fused instruction stream.
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
    pub(crate) num_inputs: usize,
    pub(crate) num_ffs: usize,
    /// Instruction `i` as `(opcode, left slot, right slot)`.
    pub(crate) ops: Vec<(FusedOp, u32, u32)>,
    /// Resolved location of every original node's value, by node index.
    node_ref: Vec<FusedRef>,
    /// Resolved location of every FF's D-input value, by FF index.
    pub(crate) ff_d: Vec<FusedRef>,
}

/// The base Boolean function of a gate family, with its output polarity
/// split off so the fused opcode can absorb it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Base {
    And,
    Or,
    Xor,
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
    /// *gate* with a definite entry is pinned to [`FusedRef::Const`]
    /// before instruction emission — it emits nothing, and the fold
    /// cascades through its readers exactly like a native `Const`
    /// driver. An empty slice disables pinning (plain `compile`).
    ///
    /// Soundness is the caller's burden: a pinned gate must actually
    /// hold its value under every stimulus the tape will see. The
    /// compiler's own folder derives every constant the lattice's base
    /// iterate proves (both propagate constants forward from native
    /// `Const` drivers with X at every PI and FF; the folder also folds
    /// same-slot operand pairs), so for that iterate the pinned compile
    /// is identical to the plain one — see
    /// `seeded_compile_matches_the_cascade_folder`.
    ///
    /// # Panics
    ///
    /// Panics if `consts` is non-empty and shorter than the node count.
    pub fn compile_with_consts(netlist: &Netlist, consts: &[V3]) -> Tape {
        let num_inputs = netlist.num_inputs();
        let num_ffs = netlist.num_ffs();
        let first_op_slot = u32::try_from(num_inputs + num_ffs).expect("slot count exceeds u32");
        let slot = |s: usize| FusedRef::Slot {
            slot: s as u32,
            inv: false,
        };
        let mut node_ref = vec![FusedRef::Const(false); netlist.num_nodes()];
        for (i, &pi) in netlist.inputs().iter().enumerate() {
            node_ref[pi.index()] = slot(i);
        }
        for (k, &ff) in netlist.dffs().iter().enumerate() {
            node_ref[ff.index()] = slot(num_inputs + k);
        }
        for (id, node) in netlist.nodes() {
            if let NodeKind::Const(v) = node.kind() {
                node_ref[id.index()] = FusedRef::Const(v);
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
                        node_ref[id.index()] = FusedRef::Const(v);
                        pinned[id.index()] = true;
                    }
                }
            }
        }

        let mut ops = Vec::new();
        let mut refs: Vec<FusedRef> = Vec::with_capacity(8);
        for &g in netlist.topo_gates() {
            if pinned[g.index()] {
                continue;
            }
            let node = netlist.node(g);
            let kind = node.kind().gate_kind().expect("topo holds gates");
            let fanins = node.fanins();
            let r = match kind {
                GateKind::Buf => node_ref[fanins[0].index()],
                GateKind::Not => node_ref[fanins[0].index()].invert(),
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let ctrl = kind.controlling_value().expect("AND/OR family");
                    let mut controlled = false;
                    refs.clear();
                    for &f in fanins {
                        match node_ref[f.index()] {
                            FusedRef::Const(v) if v == ctrl => {
                                controlled = true;
                                break;
                            }
                            // A non-controlling constant is the identity
                            // of the base function — drop it.
                            FusedRef::Const(_) => {}
                            r => refs.push(r),
                        }
                    }
                    if controlled {
                        FusedRef::Const(kind.controlled_output().expect("AND/OR family"))
                    } else if refs.is_empty() {
                        // All inputs were the identity constant.
                        FusedRef::Const(!ctrl ^ kind.output_inversion())
                    } else {
                        let base = if ctrl { Base::Or } else { Base::And };
                        chain(
                            &mut ops,
                            first_op_slot,
                            base,
                            kind.output_inversion(),
                            &refs,
                        )
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Constant inputs fold into the output parity.
                    let mut parity = kind.output_inversion();
                    refs.clear();
                    for &f in fanins {
                        match node_ref[f.index()] {
                            FusedRef::Const(v) => parity ^= v,
                            r => refs.push(r),
                        }
                    }
                    if refs.is_empty() {
                        FusedRef::Const(parity)
                    } else {
                        chain(&mut ops, first_op_slot, Base::Xor, parity, &refs)
                    }
                }
            };
            node_ref[g.index()] = r;
        }

        let ff_d = (0..num_ffs)
            .map(|k| node_ref[netlist.ff_d_input(k).index()])
            .collect();
        Tape {
            num_inputs,
            num_ffs,
            ops,
            node_ref,
            ff_d,
        }
    }

    /// Number of compiled instructions, before dead-slot elimination.
    /// An n-input gate contributes at most `n - 1`, a `NOT` or `BUF`
    /// none; folding only shrinks the total relative to that bound.
    #[inline]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Where the value of original node `id` lives. Aliased (buffer),
    /// inverted (`NOT`) and folded (constant) nodes resolve here without
    /// occupying a slot of their own.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the compiled netlist.
    #[inline]
    pub fn slot_of(&self, id: NodeId) -> FusedRef {
        self.node_ref[id.index()]
    }

    /// Where FF `ff`'s D-input value lives after an eval pass.
    ///
    /// # Panics
    ///
    /// Panics if `ff` is out of range.
    #[inline]
    pub fn ff_d(&self, ff: usize) -> FusedRef {
        self.ff_d[ff]
    }
}

/// Emits the chain for an n-ary gate of base function `base` over its
/// non-constant operands: `n - 1` links through [`lower_bin`] with the
/// output inversion on the last. A single operand aliases, or inverts,
/// and costs nothing at runtime.
fn chain(
    ops: &mut Vec<(FusedOp, u32, u32)>,
    first_op_slot: u32,
    base: Base,
    inverting: bool,
    refs: &[FusedRef],
) -> FusedRef {
    let (&last, init) = refs.split_last().expect("a chain has operands");
    let Some((&first, mid)) = init.split_first() else {
        return if inverting { last.invert() } else { last };
    };
    let acc = mid.iter().fold(first, |acc, &r| {
        lower_bin(ops, first_op_slot, base, false, acc, r)
    });
    lower_bin(ops, first_op_slot, base, inverting, acc, last)
}

/// Folds or emits one binary instruction of base function `base_fn`
/// with output polarity `out_inv` over resolved operands. Constants and
/// same-slot operand pairs fold; everything else emits exactly one
/// fused instruction whose opcode absorbs all three polarities.
fn lower_bin(
    ops: &mut Vec<(FusedOp, u32, u32)>,
    first_op_slot: u32,
    base_fn: Base,
    out_inv: bool,
    ra: FusedRef,
    rb: FusedRef,
) -> FusedRef {
    use FusedRef::{Const, Slot};
    let apply_out = |r: FusedRef| if out_inv { r.invert() } else { r };
    let folded = match (base_fn, ra, rb) {
        (Base::And, Const(a), Const(b)) => Some(Const(a && b)),
        (Base::And, Const(false), _) | (Base::And, _, Const(false)) => Some(Const(false)),
        (Base::And, Const(true), x) | (Base::And, x, Const(true)) => Some(x),
        (Base::Or, Const(a), Const(b)) => Some(Const(a || b)),
        (Base::Or, Const(true), _) | (Base::Or, _, Const(true)) => Some(Const(true)),
        (Base::Or, Const(false), x) | (Base::Or, x, Const(false)) => Some(x),
        (Base::Xor, Const(a), Const(b)) => Some(Const(a ^ b)),
        (Base::Xor, Const(c), x) | (Base::Xor, x, Const(c)) => Some(if c { x.invert() } else { x }),
        (_, Slot { slot: a, inv: ia }, Slot { slot: b, inv: ib }) if a == b => {
            Some(match base_fn {
                // AND(x, x) = x; AND(x, ¬x) = 0.
                Base::And => {
                    if ia == ib {
                        ra
                    } else {
                        Const(false)
                    }
                }
                Base::Or => {
                    if ia == ib {
                        ra
                    } else {
                        Const(true)
                    }
                }
                Base::Xor => Const(ia != ib),
            })
        }
        _ => None,
    };
    if let Some(r) = folded {
        return apply_out(r);
    }
    let (Slot { slot: a, inv: ia }, Slot { slot: b, inv: ib }) = (ra, rb) else {
        unreachable!("const operands fold above");
    };
    // Every (input polarity, input polarity, output polarity)
    // combination of the And/Or families maps to one fused opcode; XOR
    // polarities collapse into the output parity.
    let (op, a, b) = match base_fn {
        Base::And => match (ia, ib, out_inv) {
            (false, false, false) => (FusedOp::And, a, b),
            (false, false, true) => (FusedOp::Nand, a, b),
            (true, false, false) => (FusedOp::AndN, a, b),
            (true, false, true) => (FusedOp::OrN, b, a), // ¬(¬a∧b) = ¬b∨a
            (false, true, false) => (FusedOp::AndN, b, a),
            (false, true, true) => (FusedOp::OrN, a, b), // ¬(a∧¬b) = ¬a∨b
            (true, true, false) => (FusedOp::Nor, a, b), // ¬a∧¬b
            (true, true, true) => (FusedOp::Or, a, b),
        },
        Base::Or => match (ia, ib, out_inv) {
            (false, false, false) => (FusedOp::Or, a, b),
            (false, false, true) => (FusedOp::Nor, a, b),
            (true, false, false) => (FusedOp::OrN, a, b),
            (true, false, true) => (FusedOp::AndN, b, a), // ¬(¬a∨b) = ¬b∧a
            (false, true, false) => (FusedOp::OrN, b, a),
            (false, true, true) => (FusedOp::AndN, a, b), // ¬(a∨¬b) = ¬a∧b
            (true, true, false) => (FusedOp::Nand, a, b), // ¬a∨¬b
            (true, true, true) => (FusedOp::And, a, b),
        },
        Base::Xor => {
            if out_inv ^ ia ^ ib {
                (FusedOp::Xnor, a, b)
            } else {
                (FusedOp::Xor, a, b)
            }
        }
    };
    let out = u32::try_from(ops.len())
        .ok()
        .and_then(|i| first_op_slot.checked_add(i))
        .expect("slot count exceeds u32");
    ops.push((op, a, b));
    Slot {
        slot: out,
        inv: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FusedSim, FusedTape, ParallelSim};
    use mcp_netlist::NetlistBuilder;

    /// Node `id`'s value after the most recent eval of a simulator over a
    /// keep-all lowering of `tape`, which keeps every slot in place.
    fn value<const W: usize>(sim: &FusedSim<'_, W>, tape: &Tape, id: NodeId) -> [u64; W] {
        sim.resolve(tape.slot_of(id))
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
        // The two NOTs are polarity flips: no instruction survives.
        assert_eq!(tape.num_ops(), 0);
        assert_eq!(tape.slot_of(a), FusedRef::Const(false));
        assert_eq!(tape.slot_of(o), FusedRef::Const(true));
        assert_eq!(tape.slot_of(g), tape.slot_of(input));
        assert_eq!(tape.slot_of(n), tape.slot_of(input).invert());
        assert_eq!(tape.slot_of(x), tape.slot_of(input).invert());
        assert_eq!(tape.slot_of(y), FusedRef::Const(false));

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
        assert_eq!(tape.ff_d(0), FusedRef::Const(true));
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
        assert_eq!(tape.slot_of(n), FusedRef::Const(true));
        assert_eq!(tape.slot_of(g), tape.slot_of(input));
    }

    #[test]
    fn seeded_compile_matches_the_cascade_folder() {
        // The compiler's syntactic cascade folder and a forward ternary
        // lattice over the same netlist are both correlation-blind
        // constant propagation from CONST drivers with X at every PI
        // and FF — so seeding the compiler with exactly the constants
        // its own folder would derive must reproduce the instruction
        // stream bit for bit. (A seed the folder *can't* derive would
        // shrink the stream.)
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
                FusedRef::Const(v) => V3::from(v),
                FusedRef::Slot { .. } => V3::X,
            })
            .collect();
        let seeded = Tape::compile_with_consts(&nl, &consts);
        assert_eq!(plain.num_ops(), 1, "only the XOR survives");
        assert_eq!(seeded.ops, plain.ops);
        assert_eq!(seeded.node_ref, plain.node_ref);
        assert_eq!(seeded.ff_d, plain.ff_d);

        // An empty seed is the plain compile.
        let unseeded = Tape::compile_with_consts(&nl, &[]);
        assert_eq!(unseeded.ops, plain.ops);
        assert_eq!(unseeded.node_ref, plain.node_ref);
    }
}
