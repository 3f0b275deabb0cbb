//! Native-code kernel: a self-contained x86-64 AVX2 emitter over the
//! fused tape.
//!
//! [`JitKernel::compile`] turns a [`FusedTape`] into one flat machine
//! code function with the C ABI `fn(*mut u64)` — the single argument
//! (`rdi` on the SysV ABI) points at the slot buffer, laid out exactly
//! as [`JitSim`] stores it: `num_slots` consecutive `[u64; W]` batches,
//! so slot `s` lane-word `l` lives at byte offset `(s*W + l) * 8`. Each
//! fused instruction becomes a load/load/logic-op/store group per
//! 256-bit chunk of four lane words (`vpand`/`vpor`/`vpxor`/`vpandn`,
//! with `ymm15` holding all-ones for the complementing opcodes); at the
//! default 256 lanes (`W = 4`) one chunk covers the whole batch. There
//! is no register allocation beyond two scratch registers because the
//! slot buffer *is* the register file — the fused tape's dense
//! renumbering already guarantees a gap-free straight-line block.
//!
//! # The `unsafe` audit boundary
//!
//! This module is the **only** place in `mcp-sim` (and the workspace's
//! analysis path) that uses `unsafe`; the crate root carries
//! `#![deny(unsafe_code)]` and this module alone opts back in. The
//! unsafe surface is exactly three things, each W^X-disciplined:
//!
//! 1. `extern "C"` declarations of `mmap`/`mprotect`/`munmap` (we link
//!    against the platform libc the Rust std already links; no crate
//!    dependency).
//! 2. `ExecBuf`: maps an anonymous private buffer `PROT_READ |
//!    PROT_WRITE`, copies the code in, then flips it to `PROT_READ |
//!    PROT_EXEC` — the buffer is never writable and executable at the
//!    same time — and unmaps on drop.
//! 3. The call itself: transmuting the mapped address to
//!    `extern "C" fn(*mut u64)` and invoking it. [`JitKernel::run`]
//!    guards the contract the emitted code assumes (slot buffer at
//!    least `num_slots * W` words) with a hard assert.
//!
//! Everywhere else — a non-x86-64 or non-Linux host, a CPU without
//! AVX2, a batch that is not whole 256-bit chunks (`W % 4 != 0`), or a
//! refused `mmap` — [`JitKernel::compile`] returns `None` and the filter
//! runs the same fused stream on the [`FusedSim`](crate::FusedSim)
//! interpreter.

// The one audited exception to the crate-level `#![deny(unsafe_code)]`.
#![allow(unsafe_code)]

use crate::lower::{FusedOp, FusedRef, FusedTape};

/// Largest code group the emitter writes per fused instruction and
/// 256-bit chunk: two 8-byte loads, a 4-byte logic op, a 5-byte
/// complement and an 8-byte store. Sizes the code buffer up front.
const MAX_GROUP_BYTES: usize = 33;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod exec {
    //! The mmap/mprotect shim and the W^X executable buffer.
    use core::ffi::c_void;

    // Raw libc bindings: std already links libc on this target, so the
    // symbols resolve without any crate dependency. Constants are the
    // Linux x86-64 ABI values.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, length: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, length: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const PROT_EXEC: i32 = 4;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    /// An anonymous executable mapping holding one compiled kernel.
    ///
    /// W^X discipline: the pages are writable only between `mmap` and
    /// the `mprotect` inside [`ExecBuf::new`], and never writable again.
    pub(super) struct ExecBuf {
        addr: *mut c_void,
        len: usize,
    }

    // The mapping is immutable (RX) after construction and the kernel
    // function it holds is pure over its argument, so sharing/sending
    // the buffer across threads is sound.
    unsafe impl Send for ExecBuf {}
    unsafe impl Sync for ExecBuf {}

    impl ExecBuf {
        /// Maps `code` into fresh executable pages. Returns `None` if
        /// the kernel refuses the mapping (e.g. W^X-restricted
        /// environments without exec permission).
        pub(super) fn new(code: &[u8]) -> Option<ExecBuf> {
            if code.is_empty() {
                return None;
            }
            // SAFETY: anonymous private mapping with a null hint; the
            // arguments are the documented Linux calling convention.
            let addr = unsafe {
                mmap(
                    core::ptr::null_mut(),
                    code.len(),
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if addr == MAP_FAILED || addr.is_null() {
                return None;
            }
            // SAFETY: `addr` is a fresh RW mapping of at least
            // `code.len()` bytes owned exclusively by us.
            unsafe {
                core::ptr::copy_nonoverlapping(code.as_ptr(), addr as *mut u8, code.len());
            }
            // SAFETY: flips our own mapping RW → RX (never RWX).
            if unsafe { mprotect(addr, code.len(), PROT_READ | PROT_EXEC) } != 0 {
                // SAFETY: unmaps the mapping we just created.
                unsafe { munmap(addr, code.len()) };
                return None;
            }
            Some(ExecBuf {
                addr,
                len: code.len(),
            })
        }

        /// Calls the mapped code as `extern "C" fn(*mut u64)`.
        ///
        /// # Safety contract (upheld by [`super::JitKernel::run`])
        ///
        /// `slots` must point at a buffer of at least the word count the
        /// code was emitted for; the emitted code reads and writes only
        /// within that extent and clobbers no callee-saved state.
        pub(super) fn call(&self, slots: *mut u64) {
            // SAFETY: the mapping holds a complete function emitted by
            // this module (prologue..ret) following the SysV C ABI; the
            // caller guarantees the buffer extent.
            let f: extern "C" fn(*mut u64) = unsafe { core::mem::transmute(self.addr) };
            f(slots);
        }
    }

    impl Drop for ExecBuf {
        fn drop(&mut self) {
            // SAFETY: unmapping the mapping this struct exclusively owns.
            unsafe { munmap(self.addr, self.len) };
        }
    }
}

/// A fused tape compiled to native machine code.
///
/// Holds the executable mapping plus the contract metadata
/// ([`required_words`](Self::required_words)) the call-site assert
/// checks. Construction is fallible: `None` means "this host cannot run
/// jitted code at this width" (wrong arch/OS, no AVX2, `W % 4 != 0`,
/// mapping refused, or an offset overflowed the addressing mode) and the
/// caller falls back to [`FusedSim`].
///
/// [`FusedSim`]: crate::FusedSim
pub struct JitKernel {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    buf: exec::ExecBuf,
    required_words: usize,
    code_bytes: usize,
}

impl core::fmt::Debug for JitKernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("JitKernel")
            .field("code_bytes", &self.code_bytes)
            .field("required_words", &self.required_words)
            .finish()
    }
}

impl JitKernel {
    /// Compiles `fused` for batches of `W` lane words, or `None` unless
    /// the host is x86-64 Linux with AVX2 and `W % 4 == 0` (the caller
    /// then uses the fused interpreter).
    pub fn compile<const W: usize>(fused: &FusedTape) -> Option<JitKernel> {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            if !W.is_multiple_of(4) || !std::is_x86_feature_detected!("avx2") {
                return None;
            }
            let code = emit_avx2::<W>(fused)?;
            let code_bytes = code.len();
            let buf = exec::ExecBuf::new(&code)?;
            Some(JitKernel {
                buf,
                required_words: fused.num_slots() * W,
                code_bytes,
            })
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            let _ = fused;
            None
        }
    }

    /// Runs one eval pass over `slots` (the flat
    /// `num_slots × W`-word buffer).
    #[inline]
    pub fn run(&self, slots: &mut [u64]) {
        assert!(
            slots.len() >= self.required_words,
            "slot buffer too small for jitted kernel: {} < {}",
            slots.len(),
            self.required_words
        );
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        self.buf.call(slots.as_mut_ptr());
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        unreachable!("compile() never constructs a JitKernel off-target");
    }

    /// Size of the emitted machine code in bytes.
    #[inline]
    pub fn code_bytes(&self) -> usize {
        self.code_bytes
    }

    /// Word count the slot buffer must provide (`num_slots × W`).
    #[inline]
    pub fn required_words(&self) -> usize {
        self.required_words
    }

    /// The kernel tag filter stats and journals record: `"jit-avx2"`.
    #[inline]
    pub fn tag(&self) -> &'static str {
        "jit-avx2"
    }
}

/// Byte offset of slot `s`, lane word `l` in the flat buffer, checked
/// against the disp32 addressing-mode limit.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn disp32<const W: usize>(slot: u32, lane_word: usize) -> Option<i32> {
    let byte = (slot as usize).checked_mul(W)?.checked_add(lane_word)? * 8;
    i32::try_from(byte).ok()
}

/// Emits the AVX2 kernel: 256-bit chunks of four lane words per group,
/// `ymm15` pinned to all-ones for the complementing opcodes. Requires
/// `W % 4 == 0` (checked by the caller).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn emit_avx2<const W: usize>(fused: &FusedTape) -> Option<Vec<u8>> {
    debug_assert_eq!(W % 4, 0);
    let chunks = W / 4;
    let base = (fused.num_inputs() + fused.num_ffs()) as u32;
    let mut code = Vec::with_capacity(fused.num_ops() * chunks * MAX_GROUP_BYTES + 16);

    // vpcmpeqd ymm15, ymm15, ymm15 — all-ones, 3-byte VEX because the
    // destination/source are ymm8+ (needs R/B extension bits).
    code.extend_from_slice(&[0xC4, 0x41, 0x05, 0x76, 0xFF]);

    // vmovdqu ymm{0,1}, [rdi + d] — 2-byte VEX C5 FE 6F, modrm /r with
    // rm=111 (rdi), mod=10 (disp32): 0x87 for ymm0, 0x8F for ymm1.
    let load = |code: &mut Vec<u8>, reg_modrm: u8, d: i32| {
        code.extend_from_slice(&[0xC5, 0xFE, 0x6F, reg_modrm]);
        code.extend_from_slice(&d.to_le_bytes());
    };
    // ymm0 = ymm0 <op> ymm1 — 2-byte VEX, vvvv=ymm0 (0xFD), modrm C1.
    // opc: DB=vpand, EB=vpor, EF=vpxor, DF=vpandn (dst = ~vvvv & rm).
    let op_y0_y0_y1 = |code: &mut Vec<u8>, opc: u8| {
        code.extend_from_slice(&[0xC5, 0xFD, opc, 0xC1]);
    };
    // ymm0 = ~ymm1 & ymm0 — vpandn with vvvv=ymm1 (0xF5), rm=ymm0 (C0).
    let andn_y0_y1_y0 = |code: &mut Vec<u8>| {
        code.extend_from_slice(&[0xC5, 0xF5, 0xDF, 0xC0]);
    };
    // ymm0 ^= ymm15 (complement) — 3-byte VEX C4 C1 7D EF C7: rm is
    // ymm15 so the B bit lives in the 3-byte form's second byte.
    let not_y0 = |code: &mut Vec<u8>| {
        code.extend_from_slice(&[0xC4, 0xC1, 0x7D, 0xEF, 0xC7]);
    };
    // vmovdqu [rdi + d], ymm0 — store form, opcode 7F.
    let store = |code: &mut Vec<u8>, d: i32| {
        code.extend_from_slice(&[0xC5, 0xFE, 0x7F, 0x87]);
        code.extend_from_slice(&d.to_le_bytes());
    };

    for i in 0..fused.num_ops() {
        let (op, a, b) = (fused.opcode[i], fused.lhs[i], fused.rhs[i]);
        let out = base + i as u32;
        for c in 0..chunks {
            let da = disp32::<W>(a, c * 4)?;
            let db = disp32::<W>(b, c * 4)?;
            let dout = disp32::<W>(out, c * 4)?;
            load(&mut code, 0x87, da); // ymm0 ← a
            load(&mut code, 0x8F, db); // ymm1 ← b
            match op {
                FusedOp::And => op_y0_y0_y1(&mut code, 0xDB),
                FusedOp::Nand => {
                    op_y0_y0_y1(&mut code, 0xDB);
                    not_y0(&mut code);
                }
                FusedOp::Or => op_y0_y0_y1(&mut code, 0xEB),
                FusedOp::Nor => {
                    op_y0_y0_y1(&mut code, 0xEB);
                    not_y0(&mut code);
                }
                FusedOp::Xor => op_y0_y0_y1(&mut code, 0xEF),
                FusedOp::Xnor => {
                    op_y0_y0_y1(&mut code, 0xEF);
                    not_y0(&mut code);
                }
                // AndN(a, b) = ~a & b: vpandn dst, vvvv, rm computes
                // ~vvvv & rm, so vvvv=ymm0 (a), rm=ymm1 (b).
                FusedOp::AndN => op_y0_y0_y1(&mut code, 0xDF),
                // OrN(a, b) = ~a | b = ~(a & ~b): vpandn ymm0, ymm1,
                // ymm0 gives ~b & a = a & ~b, then complement.
                FusedOp::OrN => {
                    andn_y0_y1_y0(&mut code);
                    not_y0(&mut code);
                }
            }
            store(&mut code, dout);
        }
    }
    code.extend_from_slice(&[0xC5, 0xF8, 0x77]); // vzeroupper
    code.push(0xC3); // ret
    Some(code)
}

/// Wide-word evaluator driving a [`JitKernel`] — protocol-compatible
/// with [`FusedSim`](crate::FusedSim), with
/// the slot batches held in one flat contiguous buffer (the layout the
/// emitted code addresses).
pub struct JitSim<'f, const W: usize> {
    fused: &'f FusedTape,
    kernel: JitKernel,
    /// Flat `num_slots × W` buffer; slot `s` occupies
    /// `slots[s*W .. (s+1)*W]`.
    slots: Vec<u64>,
    latch: Vec<[u64; W]>,
}

impl<'f, const W: usize> JitSim<'f, W> {
    /// Compiles `fused` and wraps it in an evaluator, or `None` when
    /// the host cannot run jitted code.
    pub fn new(fused: &'f FusedTape) -> Option<Self> {
        let kernel = JitKernel::compile::<W>(fused)?;
        Some(JitSim {
            fused,
            kernel,
            slots: vec![0; fused.num_slots() * W],
            latch: vec![[0; W]; fused.num_ffs()],
        })
    }

    /// The compiled kernel (for stats: code size, emitter tag).
    #[inline]
    pub fn kernel(&self) -> &JitKernel {
        &self.kernel
    }

    /// The fused tape the kernel was compiled from.
    #[inline]
    pub fn fused(&self) -> &'f FusedTape {
        self.fused
    }

    #[inline]
    fn read(&self, slot: usize) -> [u64; W] {
        let mut v = [0u64; W];
        v.copy_from_slice(&self.slots[slot * W..slot * W + W]);
        v
    }

    #[inline]
    fn write(&mut self, slot: usize, words: [u64; W]) {
        self.slots[slot * W..slot * W + W].copy_from_slice(&words);
    }

    /// Sets the `64 × W` lanes of primary input `pi`.
    #[inline]
    pub fn set_input(&mut self, pi: usize, words: [u64; W]) {
        assert!(pi < self.fused.num_inputs(), "primary input out of range");
        self.write(self.fused.pi_slot(pi), words);
    }

    /// Sets the `64 × W` lanes of FF `ff`'s state.
    #[inline]
    pub fn set_state(&mut self, ff: usize, words: [u64; W]) {
        assert!(ff < self.fused.num_ffs(), "flip-flop out of range");
        self.write(self.fused.ff_slot(ff), words);
    }

    /// Current state of FF `ff`.
    #[inline]
    pub fn state(&self, ff: usize) -> [u64; W] {
        assert!(ff < self.fused.num_ffs(), "flip-flop out of range");
        self.read(self.fused.ff_slot(ff))
    }

    /// Runs the compiled kernel: one call evaluates the whole fused
    /// stream for the current inputs and state.
    #[inline]
    pub fn eval(&mut self) {
        self.kernel.run(&mut self.slots);
    }

    /// Resolves a [`FusedRef`] against the current slot values.
    #[inline]
    pub fn resolve(&self, r: FusedRef) -> [u64; W] {
        match r {
            FusedRef::Const(true) => [u64::MAX; W],
            FusedRef::Const(false) => [0; W],
            FusedRef::Slot { slot, inv } => {
                let mut v = self.read(slot as usize);
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
        self.resolve(self.fused.ff_d(ff))
    }

    /// Latches every FF's D-input value (positive clock edge).
    pub fn clock(&mut self) {
        for ff in 0..self.fused.num_ffs() {
            self.latch[ff] = self.resolve(self.fused.ff_d(ff));
        }
        for ff in 0..self.fused.num_ffs() {
            self.write(self.fused.ff_slot(ff), self.latch[ff]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::FusedSim;
    use mcp_logic::GateKind;
    use mcp_netlist::{Netlist, NetlistBuilder};

    fn alu_ish() -> Netlist {
        let mut b = NetlistBuilder::new("alu");
        let x = b.input("X");
        let y = b.input("Y");
        let f0 = b.dff("F0");
        let f1 = b.dff("F1");
        let nx = b.gate("NX", GateKind::Not, [x]).unwrap();
        let g1 = b.gate("G1", GateKind::And, [nx, f0]).unwrap();
        let g2 = b.gate("G2", GateKind::Nor, [g1, y]).unwrap();
        let g3 = b.gate("G3", GateKind::Xor, [g2, f1]).unwrap();
        let g4 = b.gate("G4", GateKind::Nand, [g3, x]).unwrap();
        let g5 = b.gate("G5", GateKind::Xnor, [g4, g1]).unwrap();
        b.set_dff_input(f0, g5).unwrap();
        b.set_dff_input(f1, g3).unwrap();
        b.mark_output(f0);
        b.finish().unwrap()
    }

    /// Whether this host runs the AVX2 emitter (at whole 256-bit
    /// chunks).
    fn avx2_host() -> bool {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            std::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            false
        }
    }

    fn diff_against_fused<const W: usize>(nl: &Netlist) {
        let tape = Tape::compile(nl);
        let fused = FusedTape::lower(&tape);
        let Some(mut jit) = JitSim::<W>::new(&fused) else {
            // No AVX2 code here: the filter runs the fused interpreter.
            return;
        };
        let mut int = FusedSim::<W>::new(&fused);
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed
        };
        for _ in 0..8 {
            for pi in 0..fused.num_inputs() {
                let mut w = [0u64; W];
                for l in w.iter_mut() {
                    *l = next();
                }
                jit.set_input(pi, w);
                int.set_input(pi, w);
            }
            jit.eval();
            int.eval();
            for ff in 0..fused.num_ffs() {
                assert_eq!(jit.next_state(ff), int.next_state(ff), "ff {ff}");
            }
            jit.clock();
            int.clock();
            for ff in 0..fused.num_ffs() {
                assert_eq!(jit.state(ff), int.state(ff), "ff {ff} post-clock");
            }
        }
    }

    #[test]
    fn batches_narrower_than_one_avx2_chunk_never_compile() {
        // 64 and 128 lanes are not whole 256-bit chunks: there is no
        // emitter for them on any host, so the filter runs `FusedSim`.
        let fused = FusedTape::lower(&Tape::compile(&alu_ish()));
        assert!(JitKernel::compile::<1>(&fused).is_none());
        assert!(JitKernel::compile::<2>(&fused).is_none());
        assert!(JitSim::<1>::new(&fused).is_none());
        assert!(JitSim::<2>::new(&fused).is_none());
    }

    #[test]
    fn jit_matches_fused_interpreter_at_w4_and_w8() {
        diff_against_fused::<4>(&alu_ish());
        diff_against_fused::<8>(&alu_ish());
    }

    #[test]
    fn jit_matches_fused_on_the_quick_suite() {
        for nl in mcp_gen::suite::quick_suite() {
            diff_against_fused::<4>(&nl);
        }
    }

    #[test]
    fn compile_reports_code_size_and_tag() {
        let tape = Tape::compile(&alu_ish());
        let fused = FusedTape::lower(&tape);
        if let Some(k) = JitKernel::compile::<4>(&fused) {
            assert!(k.code_bytes() > 0);
            assert_eq!(k.tag(), "jit-avx2");
            assert_eq!(k.required_words(), fused.num_slots() * 4);
        } else if avx2_host() {
            panic!("compile() must succeed on x86-64 Linux with AVX2");
        }
    }

    #[test]
    fn run_rejects_short_slot_buffers() {
        let tape = Tape::compile(&alu_ish());
        let fused = FusedTape::lower(&tape);
        let Some(k) = JitKernel::compile::<4>(&fused) else {
            return;
        };
        let mut short = vec![0u64; k.required_words() - 1];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k.run(&mut short);
        }));
        assert!(r.is_err(), "short buffer must be rejected");
    }

    /// The graceful-fallback contract: off x86-64 Linux, or on a CPU
    /// without AVX2, `compile` returns `None` rather than emitting
    /// anything — this is what the filter's fused fallback relies on. On
    /// the JIT's own target this asserts the inverse.
    #[test]
    fn non_native_hosts_fall_back_gracefully() {
        let tape = Tape::compile(&alu_ish());
        let fused = FusedTape::lower(&tape);
        for compiled in [
            JitKernel::compile::<4>(&fused).is_some(),
            JitKernel::compile::<8>(&fused).is_some(),
        ] {
            assert_eq!(
                compiled,
                avx2_host(),
                "JIT availability must exactly track the supported target"
            );
        }
    }
}
