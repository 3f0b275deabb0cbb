//! Property: a damaged store entry never panics and never changes the
//! report.
//!
//! A cold run seeds the store, then random bytes of its `Verdicts`
//! entry are flipped, truncated away or inserted. The warm rerun must
//! either answer with the cold run's canonical bytes (the damage missed
//! everything the envelope checks, e.g. inserted whitespace) or refuse
//! with a typed store error.

use mcp_core::{analyze_cached_with, AnalyzeError, CasStore, McConfig};
use mcp_gen::{circuits, suite};
use mcp_netlist::Netlist;
use mcp_obs::ObsCtx;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tempdir(case: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mcpath-store-fuzz-{}-{case}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// How the entry is damaged.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// XOR the bytes at the position with the (non-zero) noise.
    Flip,
    /// Cut the file at the position.
    Truncate,
    /// Insert the noise bytes at the position.
    Insert,
}

fn damage(bytes: &mut Vec<u8>, how: Damage, at: usize, noise: &[u8]) {
    let last = bytes.len() - 1;
    let at = at % (last + 2);
    match how {
        Damage::Flip => {
            for (b, n) in bytes[at.min(last)..].iter_mut().zip(noise) {
                *b ^= (*n).max(1);
            }
        }
        Damage::Truncate => bytes.truncate(at.min(last)),
        Damage::Insert => {
            bytes.splice(at..at, noise.iter().copied());
        }
    }
}

/// The one `verdicts-*.json` entry a cold run of one netlist writes.
fn verdicts_entry(dir: &Path) -> PathBuf {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("verdicts-") && n.ends_with(".json"))
        })
        .collect();
    assert_eq!(found.len(), 1, "one verdicts entry expected: {found:?}");
    found.remove(0)
}

fn canon(report: &mcp_core::McReport) -> String {
    serde_json::to_string(&report.canonical()).expect("serialize")
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    (0usize..3).prop_map(|n| match n {
        0 => Damage::Flip,
        1 => Damage::Truncate,
        _ => Damage::Insert,
    })
}

proptest! {
    // Most damage breaks the JSON or the envelope; the cases that slip a
    // valid-looking change past the parser are rare, and it takes this
    // many for a store without its payload-digest check to fail here.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_verdicts_entries_are_refused_or_harmless(
        m27 in any::<bool>(),
        how in damage_strategy(),
        at in 0usize..1_000_000,
        noise in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let nl: Netlist = if m27 { suite::quick_suite().remove(0) } else { circuits::fig1() };
        let cfg = McConfig::default();
        let dir = tempdir(CASE.fetch_add(1, Ordering::Relaxed));
        std::fs::remove_dir_all(&dir).ok();
        let store = CasStore::open(&dir).expect("open store");
        let cold = analyze_cached_with(&nl, &cfg, &ObsCtx::new(), &store).expect("cold run");

        let entry = verdicts_entry(&dir);
        let mut bytes = std::fs::read(&entry).expect("read entry");
        damage(&mut bytes, how, at, &noise);
        std::fs::write(&entry, &bytes).expect("write damaged entry");

        match analyze_cached_with(&nl, &cfg, &ObsCtx::new(), &store) {
            Ok(warm) => prop_assert_eq!(
                canon(&warm),
                canon(&cold),
                "{:?} at {} went unnoticed but changed the report",
                how,
                at
            ),
            Err(AnalyzeError::CacheCorrupt { .. } | AnalyzeError::CacheIo { .. }) => {}
            Err(other) => prop_assert!(false, "{:?} at {}: untyped refusal {}", how, at, other),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
