//! Dead-slot elimination over the compiled [`Tape`], and the fused
//! instruction set both back ends run.
//!
//! [`Tape::compile`] already emits fused instructions: NOTs ride on
//! operand references as polarity bits ([`FusedRef`]), and the fused
//! opcode set ([`FusedOp`]) is closed under operand and output negation
//! (De Morgan), so any combination of input/output polarities is exactly
//! one instruction — `AND(¬a, b)` is `ANDN` (x86 `vpandn`), `¬(a ∨ ¬b)`
//! is `ANDN` with swapped operands, XOR polarities fold into the
//! XOR/XNOR parity, and so on. [`FusedTape::lower`] only drops the
//! instructions not reachable backward from any FF D input and densely
//! renumbers the survivors, so `[u64; W]` batches form one
//! straight-line, gap-free block (the layout the JIT emitter and the
//! autovectorizer both want). [`FusedTape::lower_keep_all`] keeps every
//! slot in place instead, for per-node differential tests.
//!
//! [`FusedSim`] interprets the fused stream; the JIT (`crate::jit`)
//! emits native code for the same stream. Both read their FF D values
//! through [`FusedRef`]s, whose polarity bit applies any residual output
//! inversion at readout — never during the hot loop.

use crate::tape::Tape;

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

/// Where a value lives: a compile-time constant, or a slot read with an
/// optional polarity flip (the residue of a `NOT` that no downstream
/// instruction absorbed — e.g. an inverter feeding an FF D input
/// directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedRef {
    /// The value folded to a compile-time constant.
    Const(bool),
    /// The value lives in a slot, complemented when `inv` is set.
    Slot {
        /// Slot index.
        slot: u32,
        /// Whether the reader complements the slot value.
        inv: bool,
    },
}

impl FusedRef {
    pub(crate) fn invert(self) -> FusedRef {
        match self {
            FusedRef::Const(v) => FusedRef::Const(!v),
            FusedRef::Slot { slot, inv } => FusedRef::Slot { slot, inv: !inv },
        }
    }
}

/// A [`Tape`] after dead-slot elimination. Slot layout matches the
/// tape's convention: slots `0 .. num_inputs` are the primary inputs,
/// slots `num_inputs .. num_inputs + num_ffs` the FF states, and
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
}

impl FusedTape {
    /// Lowers `tape` with dead-slot elimination rooted at the FF D
    /// inputs — the production configuration: only logic that can reach
    /// sequential state survives.
    pub fn lower(tape: &Tape) -> FusedTape {
        Self::lower_with(tape, false)
    }

    /// Lowers `tape` keeping **every** instruction in its slot (no
    /// dead-slot elimination), so the value of any original node stays
    /// readable through [`Tape::slot_of`]. Used by the per-node
    /// differential tests; the production path uses
    /// [`lower`](Self::lower).
    pub fn lower_keep_all(tape: &Tape) -> FusedTape {
        Self::lower_with(tape, true)
    }

    fn lower_with(tape: &Tape, keep_all: bool) -> FusedTape {
        let base = tape.num_inputs + tape.num_ffs;
        let ops = &tape.ops;
        // Liveness, rooted at the FF D inputs (or everywhere in
        // keep-all mode). Operand slots are always below the
        // instruction's own, so one reverse sweep propagates.
        let mut live = vec![keep_all; ops.len()];
        let mark = |slot: u32, live: &mut [bool]| {
            if let Some(j) = (slot as usize).checked_sub(base) {
                live[j] = true;
            }
        };
        for &r in &tape.ff_d {
            if let FusedRef::Slot { slot, .. } = r {
                mark(slot, &mut live);
            }
        }
        for j in (0..ops.len()).rev() {
            if live[j] {
                let (_, a, b) = ops[j];
                mark(a, &mut live);
                mark(b, &mut live);
            }
        }

        // Dense renumbering of the survivors.
        let mut new_slot = vec![u32::MAX; ops.len()];
        let survivors = live.iter().filter(|&&l| l).count();
        let mut opcode = Vec::with_capacity(survivors);
        let mut lhs = Vec::with_capacity(survivors);
        let mut rhs = Vec::with_capacity(survivors);
        let renumber = |s: u32, new_slot: &[u32]| match (s as usize).checked_sub(base) {
            Some(j) => new_slot[j],
            None => s,
        };
        for (j, &(op, a, b)) in ops.iter().enumerate() {
            if live[j] {
                new_slot[j] = (base + opcode.len()) as u32;
                opcode.push(op);
                lhs.push(renumber(a, &new_slot));
                rhs.push(renumber(b, &new_slot));
            }
        }
        let ff_d = tape
            .ff_d
            .iter()
            .map(|&r| match r {
                FusedRef::Slot { slot, inv } => FusedRef::Slot {
                    slot: renumber(slot, &new_slot),
                    inv,
                },
                r => r,
            })
            .collect();

        FusedTape {
            num_slots: base + opcode.len(),
            num_inputs: tape.num_inputs,
            num_ffs: tape.num_ffs,
            opcode,
            lhs,
            rhs,
            ff_d,
        }
    }

    /// Number of runtime value slots (inputs + FF states + instruction
    /// outputs).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Number of fused instructions — the per-pass work of the fused
    /// interpreter and the JIT. Never more than [`Tape::num_ops`]:
    /// dead-slot elimination only shrinks it.
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
        // The compile sweep fuses as it goes: the two input inverters
        // fold into the AND's opcode (¬a ∧ ¬b = NOR), and the trailing
        // inverter rides the FF D reference's polarity bit — one
        // instruction total, where NOT, NOT, AND, NOT spell four gates.
        assert_eq!(tape.num_ops(), 1);
        let fused = FusedTape::lower(&tape);
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
        assert_eq!(tape.num_ops(), 0, "a NOT compiles to no instruction");
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
        assert_eq!(pruned.opcode, [FusedOp::And], "only the live AND survives");
        assert_eq!(
            pruned.ff_d(0),
            FusedRef::Slot {
                slot: 3,
                inv: false
            },
            "the survivor is renumbered to the first instruction slot"
        );

        let kept = FusedTape::lower_keep_all(&tape);
        assert_eq!(kept.num_ops(), 2);
        let mut sim = FusedSim::<1>::new(&kept);
        sim.set_input(0, [0b0011]);
        sim.set_input(1, [0b0101]);
        sim.eval();
        assert_eq!(sim.resolve(tape.slot_of(dead)), [0b0110]);
        assert_eq!(sim.next_state(0), [0b0001]);
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
    fn dead_slot_elimination_never_adds_instructions_on_the_suite() {
        for nl in mcp_gen::suite::quick_suite() {
            let tape = Tape::compile(&nl);
            let fused = FusedTape::lower(&tape);
            assert!(
                fused.num_ops() <= tape.num_ops(),
                "{}: lowered {} > compiled {}",
                nl.name(),
                fused.num_ops(),
                tape.num_ops()
            );
        }
    }
}
