//! Fusing/vectorizing lowering tier over the compiled [`Tape`].
//!
//! The tape is already a flat three-address stream of binary ops, but it
//! still spends instructions on artifacts of gate-level decomposition:
//! every `NOT` is a `NAND(a, a)` occupying a slot, and inverters feeding
//! inverting gates chain two instructions where the target ISA (and the
//! wide interpreter) can express the composition in one. [`FusedTape`]
//! lowers the tape **once more**, at compile time:
//!
//! * **NOT fusion** — `NAND(a, a)` emits nothing; the inversion rides on
//!   the operand reference as a polarity bit and is folded into the
//!   *consuming* instruction's opcode. The fused opcode set
//!   ([`FusedOp`]) is closed under operand and output negation (De
//!   Morgan), so any combination of input/output polarities lowers to
//!   exactly one fused instruction — `AND(¬a, b)` becomes `ANDN`
//!   (x86 `vpandn`), `¬(a ∨ ¬b)` becomes `ANDN` with swapped operands,
//!   XOR polarities fold into the XOR/XNOR parity, and so on.
//! * **Constant/degenerate cascade** — operand constants (and
//!   same-slot operand pairs like `XOR(a, a)`) fold exactly as the
//!   tape's own compile-time folder does, and the fold cascades through
//!   downstream references.
//! * **Dead-slot elimination** — instructions not reachable backward
//!   from any FF D input are dropped, and the surviving slots are
//!   densely renumbered so `[u64; W]` batches form one straight-line,
//!   gap-free block (the layout the JIT emitter and the
//!   autovectorizer both want). [`FusedTape::lower_keep_all`] keeps
//!   every slot live instead, for per-node differential tests.
//!
//! [`FusedSim`] interprets the fused stream; the JIT (`crate::jit`)
//! emits native code for the same stream. Both read their FF D values
//! through [`FusedRef`]s, whose polarity bit applies any residual output
//! inversion at readout — never during the hot loop.

use crate::tape::{Op, SlotRef, Tape};

/// Fused binary opcodes. The set is the And/Or/Xor families closed
/// under operand and output negation: `AndN(a, b) = ¬a ∧ b` and
/// `OrN(a, b) = ¬a ∨ b` absorb mixed-polarity operands (x86:
/// `vpandn`, resp. `vpandn` + complement), the inverting family
/// members absorb output negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedOp {
    /// `a ∧ b`
    And,
    /// `¬(a ∧ b)`
    Nand,
    /// `a ∨ b`
    Or,
    /// `¬(a ∨ b)`
    Nor,
    /// `a ⊕ b`
    Xor,
    /// `¬(a ⊕ b)`
    Xnor,
    /// `¬a ∧ b`
    AndN,
    /// `¬a ∨ b`
    OrN,
}

/// Where a value lives after fusion: a compile-time constant, or a
/// fused slot read with an optional polarity flip (the residue of a
/// fused trailing NOT that no downstream instruction absorbed — e.g. an
/// inverter feeding an FF D input directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedRef {
    /// The value folded to a compile-time constant.
    Const(bool),
    /// The value lives in a fused slot, complemented when `inv` is set.
    Slot {
        /// Fused slot index.
        slot: u32,
        /// Whether the reader complements the slot value.
        inv: bool,
    },
}

impl FusedRef {
    fn invert(self) -> FusedRef {
        match self {
            FusedRef::Const(v) => FusedRef::Const(!v),
            FusedRef::Slot { slot, inv } => FusedRef::Slot { slot, inv: !inv },
        }
    }
}

/// The base Boolean function of a tape opcode, with its output polarity
/// split off so fusion can re-fold it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Base {
    And,
    Or,
    Xor,
}

/// A [`Tape`] lowered through NOT fusion, constant cascading and
/// dead-slot elimination. Slot layout matches the tape's convention:
/// slots `0 .. num_inputs` are the primary inputs, slots
/// `num_inputs .. num_inputs + num_ffs` the FF states, and fused
/// instruction `i` writes slot `num_inputs + num_ffs + i`.
#[derive(Debug, Clone)]
pub struct FusedTape {
    num_slots: usize,
    num_inputs: usize,
    num_ffs: usize,
    /// SoA fused instruction stream. Crate-visible for the interpreter
    /// and the JIT emitter.
    pub(crate) opcode: Vec<FusedOp>,
    pub(crate) lhs: Vec<u32>,
    pub(crate) rhs: Vec<u32>,
    /// Resolved location of every FF's D-input value, by FF index.
    pub(crate) ff_d: Vec<FusedRef>,
    /// Resolved location of every original *tape* slot, or `None` for a
    /// slot whose instruction dead-slot elimination removed. Fully
    /// populated under [`lower_keep_all`](Self::lower_keep_all).
    slot_map: Vec<Option<FusedRef>>,
}

impl FusedTape {
    /// Lowers `tape` with dead-slot elimination rooted at the FF D
    /// inputs — the production configuration: only logic that can reach
    /// sequential state survives.
    pub fn lower(tape: &Tape) -> FusedTape {
        Self::lower_with(tape, false)
    }

    /// Lowers `tape` keeping **every** tape slot live (no dead-slot
    /// elimination), so the value of any original node remains
    /// recoverable through [`tape_ref`](Self::tape_ref). Used by the
    /// per-node differential tests; the production path uses
    /// [`lower`](Self::lower).
    pub fn lower_keep_all(tape: &Tape) -> FusedTape {
        Self::lower_with(tape, true)
    }

    fn lower_with(tape: &Tape, keep_all: bool) -> FusedTape {
        let base = tape.num_inputs() + tape.num_ffs();
        // Resolution of every tape slot into the *pre-liveness* fused
        // value space: ids `0 .. base` are the base slots, id `base + j`
        // is pre-liveness fused instruction `j`.
        let mut res: Vec<FusedRef> = (0..base as u32)
            .map(|s| FusedRef::Slot {
                slot: s,
                inv: false,
            })
            .collect();
        let mut ops: Vec<(FusedOp, u32, u32)> = Vec::with_capacity(tape.num_ops());

        for i in 0..tape.num_ops() {
            let (op, a, b) = (tape.opcode[i], tape.lhs[i], tape.rhs[i]);
            let ra = res[a as usize];
            let rb = res[b as usize];
            // The tape spells NOT as NAND(a, a): fuse it into a
            // polarity flip on the operand reference.
            let r = if op == Op::Nand && a == b {
                ra.invert()
            } else {
                let (base_fn, out_inv) = match op {
                    Op::And => (Base::And, false),
                    Op::Nand => (Base::And, true),
                    Op::Or => (Base::Or, false),
                    Op::Nor => (Base::Or, true),
                    Op::Xor => (Base::Xor, false),
                    Op::Xnor => (Base::Xor, true),
                };
                lower_bin(&mut ops, base as u32, base_fn, out_inv, ra, rb)
            };
            res.push(r);
        }

        // Liveness, rooted at the FF D inputs (or everywhere in
        // keep-all mode). Operand ids are always smaller than the
        // instruction's own id, so one reverse sweep propagates.
        let mut live = vec![false; ops.len()];
        let mark = |r: FusedRef, live: &mut Vec<bool>| {
            if let FusedRef::Slot { slot, .. } = r {
                if slot as usize >= base {
                    live[slot as usize - base] = true;
                }
            }
        };
        for ff in 0..tape.num_ffs() {
            mark(resolve_tape_ref(&res, tape.ff_d[ff]), &mut live);
        }
        if keep_all {
            for &r in &res {
                mark(r, &mut live);
            }
        }
        for j in (0..ops.len()).rev() {
            if live[j] {
                let (_, a, b) = ops[j];
                if a as usize >= base {
                    live[a as usize - base] = true;
                }
                if b as usize >= base {
                    live[b as usize - base] = true;
                }
            }
        }

        // Dense renumbering of the survivors.
        let mut new_slot = vec![u32::MAX; ops.len()];
        let mut next = base as u32;
        for (j, &alive) in live.iter().enumerate() {
            if alive {
                new_slot[j] = next;
                next += 1;
            }
        }
        let renumber = |id: u32| -> u32 {
            if (id as usize) < base {
                id
            } else {
                new_slot[id as usize - base]
            }
        };
        let remap = |r: FusedRef| -> Option<FusedRef> {
            match r {
                FusedRef::Const(v) => Some(FusedRef::Const(v)),
                FusedRef::Slot { slot, inv } => {
                    if (slot as usize) < base {
                        Some(FusedRef::Slot { slot, inv })
                    } else if live[slot as usize - base] {
                        Some(FusedRef::Slot {
                            slot: new_slot[slot as usize - base],
                            inv,
                        })
                    } else {
                        None
                    }
                }
            }
        };

        let mut opcode = Vec::with_capacity(next as usize - base);
        let mut lhs = Vec::with_capacity(opcode.capacity());
        let mut rhs = Vec::with_capacity(opcode.capacity());
        for (j, &(op, a, b)) in ops.iter().enumerate() {
            if live[j] {
                opcode.push(op);
                lhs.push(renumber(a));
                rhs.push(renumber(b));
            }
        }
        let ff_d: Vec<FusedRef> = (0..tape.num_ffs())
            .map(|ff| {
                remap(resolve_tape_ref(&res, tape.ff_d[ff]))
                    .expect("FF D inputs root the liveness sweep")
            })
            .collect();
        let slot_map: Vec<Option<FusedRef>> = (0..tape.num_slots())
            .map(|s| {
                remap(if s < base {
                    FusedRef::Slot {
                        slot: s as u32,
                        inv: false,
                    }
                } else {
                    res[s]
                })
            })
            .collect();

        FusedTape {
            num_slots: next as usize,
            num_inputs: tape.num_inputs(),
            num_ffs: tape.num_ffs(),
            opcode,
            lhs,
            rhs,
            ff_d,
            slot_map,
        }
    }

    /// Number of runtime value slots (inputs + FF states + fused
    /// instruction outputs).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Number of fused instructions — the per-pass work of the fused
    /// interpreter and the JIT. Never more than the unfused
    /// [`Tape::num_ops`]; NOT fusion and dead-slot elimination only
    /// shrink it.
    #[inline]
    pub fn num_ops(&self) -> usize {
        self.opcode.len()
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of flip-flops.
    #[inline]
    pub fn num_ffs(&self) -> usize {
        self.num_ffs
    }

    /// The runtime slot of primary input `pi` (same layout as the tape).
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

    /// Where FF `ff`'s D-input value lives after an eval pass.
    #[inline]
    pub fn ff_d(&self, ff: usize) -> FusedRef {
        self.ff_d[ff]
    }

    /// Maps an original tape [`SlotRef`] into the fused value space, or
    /// `None` when the referenced slot was dead-slot-eliminated (never
    /// under [`lower_keep_all`](Self::lower_keep_all)).
    pub fn tape_ref(&self, r: SlotRef) -> Option<FusedRef> {
        match r {
            SlotRef::Const(v) => Some(FusedRef::Const(v)),
            SlotRef::Slot(s) => self.slot_map[s as usize],
        }
    }
}

/// Maps a tape-level [`SlotRef`] through the per-slot resolution table.
fn resolve_tape_ref(res: &[FusedRef], r: SlotRef) -> FusedRef {
    match r {
        SlotRef::Const(v) => FusedRef::Const(v),
        SlotRef::Slot(s) => res[s as usize],
    }
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
    let out = first_op_slot + ops.len() as u32;
    ops.push((op, a, b));
    Slot {
        slot: out,
        inv: false,
    }
}

/// Wide-word interpreter over a [`FusedTape`] — the prefilter's kernel
/// on hosts the JIT cannot target.
///
/// Each slot holds `[u64; W]`: bit `l` of word `w` is one independent
/// simulation lane, `64 × W` lanes per pass. `W` is a compile-time
/// constant, so the per-instruction inner loop unrolls into
/// straight-line word ops with no lane branching. The protocol mirrors
/// [`ParallelSim`](crate::ParallelSim): set inputs and state,
/// [`eval`](Self::eval), read [`next_state`](Self::next_state), then
/// [`clock`](Self::clock) to latch.
#[derive(Debug, Clone)]
pub struct FusedSim<'f, const W: usize> {
    fused: &'f FusedTape,
    slots: Vec<[u64; W]>,
    /// Clock-latch scratch: D values are read out completely before any
    /// state slot is overwritten, because a D ref may alias another
    /// FF's state slot (e.g. `Q2.D = BUF(Q1)` chains to Q1's slot).
    latch: Vec<[u64; W]>,
}

impl<'f, const W: usize> FusedSim<'f, W> {
    /// Creates an evaluator with all inputs and state zero.
    pub fn new(fused: &'f FusedTape) -> Self {
        FusedSim {
            fused,
            slots: vec![[0; W]; fused.num_slots()],
            latch: vec![[0; W]; fused.num_ffs()],
        }
    }

    /// The fused tape this evaluator runs.
    #[inline]
    pub fn fused(&self) -> &'f FusedTape {
        self.fused
    }

    /// Sets the `64 × W` lanes of primary input `pi`.
    #[inline]
    pub fn set_input(&mut self, pi: usize, words: [u64; W]) {
        assert!(pi < self.fused.num_inputs, "primary input out of range");
        self.slots[self.fused.pi_slot(pi)] = words;
    }

    /// Sets the `64 × W` lanes of FF `ff`'s state.
    #[inline]
    pub fn set_state(&mut self, ff: usize, words: [u64; W]) {
        assert!(ff < self.fused.num_ffs, "flip-flop out of range");
        self.slots[self.fused.ff_slot(ff)] = words;
    }

    /// Current state of FF `ff`.
    #[inline]
    pub fn state(&self, ff: usize) -> [u64; W] {
        assert!(ff < self.fused.num_ffs, "flip-flop out of range");
        self.slots[self.fused.ff_slot(ff)]
    }

    /// Runs the fused instruction stream: one forward sweep evaluates
    /// the combinational logic for the current inputs and state.
    pub fn eval(&mut self) {
        let f = self.fused;
        let base = f.num_inputs + f.num_ffs;
        for (out, ((&op, &a), &b)) in
            (base..).zip(f.opcode.iter().zip(f.lhs.iter()).zip(f.rhs.iter()))
        {
            let va = self.slots[a as usize];
            let vb = self.slots[b as usize];
            let mut v = [0u64; W];
            match op {
                FusedOp::And => {
                    for l in 0..W {
                        v[l] = va[l] & vb[l];
                    }
                }
                FusedOp::Nand => {
                    for l in 0..W {
                        v[l] = !(va[l] & vb[l]);
                    }
                }
                FusedOp::Or => {
                    for l in 0..W {
                        v[l] = va[l] | vb[l];
                    }
                }
                FusedOp::Nor => {
                    for l in 0..W {
                        v[l] = !(va[l] | vb[l]);
                    }
                }
                FusedOp::Xor => {
                    for l in 0..W {
                        v[l] = va[l] ^ vb[l];
                    }
                }
                FusedOp::Xnor => {
                    for l in 0..W {
                        v[l] = !(va[l] ^ vb[l]);
                    }
                }
                FusedOp::AndN => {
                    for l in 0..W {
                        v[l] = !va[l] & vb[l];
                    }
                }
                FusedOp::OrN => {
                    for l in 0..W {
                        v[l] = !va[l] | vb[l];
                    }
                }
            }
            self.slots[out] = v;
        }
    }

    /// Resolves a [`FusedRef`] against the current slot values,
    /// applying its polarity bit.
    #[inline]
    pub fn resolve(&self, r: FusedRef) -> [u64; W] {
        match r {
            FusedRef::Const(true) => [u64::MAX; W],
            FusedRef::Const(false) => [0; W],
            FusedRef::Slot { slot, inv } => {
                let mut v = self.slots[slot as usize];
                if inv {
                    for l in v.iter_mut() {
                        *l = !*l;
                    }
                }
                v
            }
        }
    }

    /// FF `ff`'s D-input value from the most recent `eval`.
    #[inline]
    pub fn next_state(&self, ff: usize) -> [u64; W] {
        self.resolve(self.fused.ff_d[ff])
    }

    /// Latches every FF's D-input value (positive clock edge).
    pub fn clock(&mut self) {
        for ff in 0..self.fused.num_ffs {
            self.latch[ff] = self.resolve(self.fused.ff_d[ff]);
        }
        for ff in 0..self.fused.num_ffs {
            self.slots[self.fused.ff_slot(ff)] = self.latch[ff];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcp_logic::GateKind;
    use mcp_netlist::{Netlist, NetlistBuilder};

    /// D = NOT(AND(NOT(a), NOT(b))) — an OR spelled with three
    /// inverters, the canonical NOT-fusion workload.
    fn de_morgan() -> Netlist {
        let mut b = NetlistBuilder::new("dm");
        let a = b.input("A");
        let c = b.input("B");
        let na = b.gate("NA", GateKind::Not, [a]).unwrap();
        let nb = b.gate("NB", GateKind::Not, [c]).unwrap();
        let and = b.gate("AND", GateKind::And, [na, nb]).unwrap();
        let nand = b.gate("OUT", GateKind::Not, [and]).unwrap();
        let ff = b.dff("FF");
        b.set_dff_input(ff, nand).unwrap();
        b.mark_output(ff);
        b.finish().unwrap()
    }

    #[test]
    fn not_chains_fuse_to_a_single_instruction() {
        let nl = de_morgan();
        let tape = Tape::compile(&nl);
        // Unfused: NOT, NOT, AND, NOT = 4 instructions.
        assert_eq!(tape.num_ops(), 4);
        let fused = FusedTape::lower(&tape);
        // Fused: the two input inverters fold into the AND's opcode
        // (¬a ∧ ¬b = NOR), and the trailing inverter rides the FF D
        // reference's polarity bit — one instruction total.
        assert_eq!(fused.num_ops(), 1);
        assert_eq!(fused.opcode[0], FusedOp::Nor);
        assert!(
            matches!(fused.ff_d(0), FusedRef::Slot { inv: true, .. }),
            "the output inverter fuses into the D ref"
        );

        let mut sim = FusedSim::<1>::new(&fused);
        sim.set_input(0, [0b0011]);
        sim.set_input(1, [0b0101]);
        sim.eval();
        assert_eq!(sim.next_state(0), [0b0111]);
    }

    #[test]
    fn trailing_inverter_rides_the_ff_d_polarity_bit() {
        let mut b = NetlistBuilder::new("inv");
        let a = b.input("A");
        let n = b.gate("N", GateKind::Not, [a]).unwrap();
        let ff = b.dff("FF");
        b.set_dff_input(ff, n).unwrap();
        b.mark_output(ff);
        let nl = b.finish().unwrap();
        let tape = Tape::compile(&nl);
        assert_eq!(tape.num_ops(), 1, "the unfused tape spends a NAND");
        let fused = FusedTape::lower(&tape);
        assert_eq!(fused.num_ops(), 0, "the inversion fuses into the D ref");
        assert_eq!(
            fused.ff_d(0),
            FusedRef::Slot { slot: 0, inv: true },
            "D reads the input slot complemented"
        );
        let mut sim = FusedSim::<1>::new(&fused);
        sim.set_input(0, [0xF0F0]);
        sim.eval();
        assert_eq!(sim.next_state(0), [!0xF0F0]);
        sim.clock();
        assert_eq!(sim.state(0), [!0xF0F0]);
    }

    #[test]
    fn dead_logic_is_eliminated_unless_kept() {
        let mut b = NetlistBuilder::new("dead");
        let a = b.input("A");
        let c = b.input("B");
        // Dead: feeds only a primary output, never an FF.
        let dead = b.gate("DEAD", GateKind::Xor, [a, c]).unwrap();
        b.mark_output(dead);
        let live = b.gate("LIVE", GateKind::And, [a, c]).unwrap();
        let ff = b.dff("FF");
        b.set_dff_input(ff, live).unwrap();
        let nl = b.finish().unwrap();
        let tape = Tape::compile(&nl);
        assert_eq!(tape.num_ops(), 2);

        let pruned = FusedTape::lower(&tape);
        assert_eq!(pruned.num_ops(), 1, "the XOR cannot reach any FF");
        assert_eq!(
            pruned.tape_ref(tape.slot_of(dead)),
            None,
            "eliminated slots resolve to None"
        );
        assert!(pruned.tape_ref(tape.slot_of(live)).is_some());

        let kept = FusedTape::lower_keep_all(&tape);
        assert_eq!(kept.num_ops(), 2);
        let r = kept.tape_ref(tape.slot_of(dead)).expect("kept alive");
        let mut sim = FusedSim::<1>::new(&kept);
        sim.set_input(0, [0b0011]);
        sim.set_input(1, [0b0101]);
        sim.eval();
        assert_eq!(sim.resolve(r), [0b0110]);
    }

    #[test]
    fn mixed_polarity_gates_lower_to_one_fused_op_each() {
        // NOT(a) AND b  →  ANDN;  NOT(NOT(a) OR b)  →  ANDN swapped.
        let mut b = NetlistBuilder::new("pol");
        let a = b.input("A");
        let c = b.input("B");
        let na = b.gate("NA", GateKind::Not, [a]).unwrap();
        let andn = b.gate("ANDN", GateKind::And, [na, c]).unwrap();
        let orn = b.gate("NOR2", GateKind::Nor, [na, c]).unwrap();
        let f0 = b.dff("F0");
        let f1 = b.dff("F1");
        b.set_dff_input(f0, andn).unwrap();
        b.set_dff_input(f1, orn).unwrap();
        b.mark_output(f0);
        let nl = b.finish().unwrap();
        let tape = Tape::compile(&nl);
        let fused = FusedTape::lower(&tape);
        assert_eq!(fused.num_ops(), 2, "one fused op per gate, NOT absorbed");
        assert!(fused.opcode.contains(&FusedOp::AndN));

        let mut sim = FusedSim::<2>::new(&fused);
        let (a, c) = ([0xAAu64, 0x0F], [0xCCu64, 0x33]);
        sim.set_input(0, a);
        sim.set_input(1, c);
        sim.eval();
        // F0.D = ¬A ∧ B and F1.D = ¬(¬A ∨ B) = A ∧ ¬B, word by word.
        assert_eq!(sim.next_state(0), [!a[0] & c[0], !a[1] & c[1]]);
        assert_eq!(sim.next_state(1), [a[0] & !c[0], a[1] & !c[1]]);
    }

    #[test]
    fn fused_never_exceeds_unfused_op_count_on_the_suite() {
        for nl in mcp_gen::suite::quick_suite() {
            let tape = Tape::compile(&nl);
            let fused = FusedTape::lower(&tape);
            assert!(
                fused.num_ops() <= tape.num_ops(),
                "{}: fused {} > unfused {}",
                nl.name(),
                fused.num_ops(),
                tape.num_ops()
            );
        }
    }
}
