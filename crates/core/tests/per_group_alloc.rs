//! No per-sink-group step costs O(`num_nodes`).
//!
//! The bytes allocated by `cone_of` and `build_slice` for one sink
//! group, and by one sink's hazard step, must not change when 100,000
//! gates that no root reaches join the circuit. A sink's hazard step is
//! measured as the difference between checking a report with and
//! without that sink's pairs, which cancels the per-call setup (the
//! expansion and the walk's visit marks) that is allowed to scale.
//!
//! This is its own test binary because the counting allocator it
//! installs is process-wide; it counts per thread, so the harness's
//! other threads cannot disturb a measurement.

use mcp_core::{analyze, check_hazards, sensitization_dependencies, HazardCheck, McConfig};
use mcp_core::{McReport, PairClass};
use mcp_netlist::{bench, Expanded, Netlist, XId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes each thread requests.
struct Counting;

fn count(bytes: usize) {
    BYTES.with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// counting only touches a const-initialized thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes `f` allocates on this thread.
fn allocated<T>(f: impl FnOnce() -> T) -> u64 {
    let before = BYTES.with(Cell::get);
    let out = f();
    let after = BYTES.with(Cell::get);
    drop(out);
    after - before
}

/// `netlist` plus `extra` inverters on a fresh input that feed nothing:
/// no flip-flop's cone reaches them.
fn padded(netlist: &Netlist, extra: usize) -> Netlist {
    let mut text = bench::to_bench(netlist);
    text.push_str("\nINPUT(pad_in)\n");
    for k in 0..extra {
        text.push_str(&format!("pad{k} = NOT(pad_in)\n"));
    }
    bench::parse(netlist.name(), &text).expect("padded netlist parses")
}

/// The pipeline's sink-group roots at two frames: every source's `t` and
/// `t+1` values and the sink's `t+1` and `t+2` values.
fn group_roots(x: &Expanded, sink: usize, sources: &[usize]) -> Vec<XId> {
    let mut roots: Vec<XId> = sources
        .iter()
        .flat_map(|&i| [x.ff_at(i, 0), x.ff_at(i, 1)])
        .chain([x.ff_at(sink, 1), x.ff_at(sink, 2)])
        .collect();
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// Bytes of one sink group's per-group steps on `netlist`:
/// `[cone_of, build_slice, sensitization step, co-sensitization step,
/// dependency step]`.
fn per_group_bytes(netlist: &Netlist, report: &McReport, sink: usize) -> [u64; 5] {
    let sources: Vec<usize> = report
        .multi_cycle_pairs()
        .into_iter()
        .filter(|&(_, j)| j == sink)
        .map(|(i, _)| i)
        .collect();
    let x = Expanded::build(netlist, 2);
    let roots = group_roots(&x, sink, &sources);
    let mut without = report.clone();
    without.pairs.retain(|p| p.dst != sink);
    let step = |check| {
        allocated(|| check_hazards(netlist, report, check))
            - allocated(|| check_hazards(netlist, &without, check))
    };
    [
        allocated(|| x.cone_of(&roots)),
        allocated(|| x.build_slice(&roots)),
        step(HazardCheck::Sensitization),
        step(HazardCheck::CoSensitization),
        allocated(|| sensitization_dependencies(netlist, report))
            - allocated(|| sensitization_dependencies(netlist, &without)),
    ]
}

#[test]
fn per_group_steps_allocate_nothing_sized_to_the_circuit() {
    let small = mcp_gen::suite::quick_suite().remove(1); // m298
    let big = padded(&small, 100_000);
    assert!(big.num_nodes() > small.num_nodes() + 100_000);
    assert_eq!(big.num_ffs(), small.num_ffs());

    // Flip-flop indices survive the padding, so one report serves both.
    let report = analyze(&small, &McConfig::default()).expect("analyze");
    // The sink with the most multi-cycle sources. Other sinks keep their
    // pairs in both reports, so a difference is one step inside a walk.
    let mc = report.multi_cycle_pairs();
    let sink = (0..small.num_ffs())
        .max_by_key(|&j| mc.iter().filter(|p| p.1 == j).count())
        .expect("flip-flops");
    assert!(mc.iter().filter(|p| p.1 == sink).count() > 1);
    assert!(report
        .pairs
        .iter()
        .any(|p| p.dst != sink && matches!(p.class, PairClass::MultiCycle { .. })));

    let at_small = per_group_bytes(&small, &report, sink);
    let at_big = per_group_bytes(&big, &report, sink);
    assert!(at_small.iter().all(|&b| b > 0), "{at_small:?}");
    assert_eq!(
        at_small, at_big,
        "[cone_of, build_slice, sens, cosens, deps] bytes moved with the circuit size"
    );
}
