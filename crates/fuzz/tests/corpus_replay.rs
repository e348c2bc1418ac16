//! Tier-1 regression corpus: every `.kdsl` file under `crates/fuzz/corpus/`
//! — minimized reproducers from past campaigns plus the hand-written edge
//! cases — must replay clean through the full differential oracle.

use gpucmp_fuzz::oracle::Oracle;
use gpucmp_fuzz::runner::{corpus_files, replay_file};
use gpucmp_sim::FaultKind;
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

#[test]
fn every_corpus_case_replays_clean() {
    let files = corpus_files(&corpus_dir());
    assert!(
        files.len() >= 11,
        "corpus shrank to {} file(s) — the hand-written edge cases are missing",
        files.len()
    );
    let oracle = Oracle::new();
    for f in &files {
        match replay_file(&oracle, f) {
            Ok(None) => {}
            Ok(Some(d)) => panic!("{}: DIVERGENCE on {}\n{}", f.display(), d.axis, d.detail),
            Err(e) => panic!("{}: broken case: {e}", f.display()),
        }
    }
}

/// The fault-model corpus cases must actually *fault* (identically on
/// every path — `every_corpus_case_replays_clean` checks the agreement;
/// this checks they don't silently degenerate into no-op kernels), and
/// the clean cases must actually complete.
#[test]
fn corpus_cases_have_their_documented_outcomes() {
    type OutcomeCheck = fn(&Result<(), gpucmp_sim::DeviceFault>) -> bool;
    let oracle = Oracle::new();
    let expect: &[(&str, OutcomeCheck)] = &[
        (
            "barrier-divergence.kdsl",
            |o| matches!(o, Err(f) if f.kind == FaultKind::BarrierDeadlock),
        ),
        (
            "watchdog-boundary.kdsl",
            |o| matches!(o, Err(f) if matches!(f.kind, FaultKind::Watchdog { budget: 64 })),
        ),
        (
            "oob-store.kdsl",
            |o| matches!(o, Err(f) if matches!(f.kind, FaultKind::OutOfBounds { .. })),
        ),
        ("fl-corruption.kdsl", |o| o.is_ok()),
        ("shared-rotate.kdsl", |o| o.is_ok()),
        ("atomic-histogram.kdsl", |o| o.is_ok()),
        ("downward-unroll.kdsl", |o| o.is_ok()),
        ("select-shr-signed.kdsl", |o| o.is_ok()),
        ("nan-sign-lane.kdsl", |o| o.is_ok()),
        ("nan-sign-warp-width.kdsl", |o| o.is_ok()),
        ("nan-fma-lanes.kdsl", |o| o.is_ok()),
    ];
    for (file, outcome_ok) in expect {
        let path = corpus_dir().join(file);
        let src =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let case =
            gpucmp_fuzz::load_case(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let snap = oracle
            .reference_snapshot(&case)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            outcome_ok(&snap.outcome),
            "{file}: unexpected reference outcome {:?}",
            snap.outcome
        );
    }
}

/// The clean shared-memory and regression cases must compute their
/// documented values, not merely agree on *something*.
#[test]
fn corpus_reference_values_are_right() {
    let oracle = Oracle::new();

    // downward-unroll: every slot holds 3 * (7+6+...+1) = 84.
    let case = load("downward-unroll.kdsl");
    let snap = oracle.reference_snapshot(&case).unwrap();
    let words = as_i32(&snap.mems[0]);
    assert!(words.iter().all(|&w| w == 84), "{words:?}");

    // select-shr-signed: shr(-5, 3) is arithmetic, so the comparison
    // picks the 111 arm in every slot.
    let case = load("select-shr-signed.kdsl");
    let snap = oracle.reference_snapshot(&case).unwrap();
    let words = as_i32(&snap.mems[0]);
    assert!(words.iter().all(|&w| w == 111), "{words:?}");

    // atomic-histogram: 64 threads over 4 bins — 16 increments each on
    // top of the seeded initial contents.
    let case = load("atomic-histogram.kdsl");
    let snap = oracle.reference_snapshot(&case).unwrap();
    let bins = as_i32(&snap.mems[1]);
    let initial = as_i32(&case.bufs[1].data());
    let expect: Vec<i32> = initial.iter().map(|v| v + 16).collect();
    assert_eq!(bins, expect);

    // nan-fma-lanes: threads 3 and 40 store four NaNs each, every other
    // thread four finite values.
    let case = load("nan-fma-lanes.kdsl");
    let snap = oracle.reference_snapshot(&case).unwrap();
    let out: Vec<f32> = snap.mems[0]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    for (tid, slots) in out.chunks_exact(4).enumerate() {
        let hot = tid % 37 == 3;
        assert!(
            slots
                .iter()
                .all(|x| x.is_nan() == hot && (hot || x.is_finite())),
            "thread {tid}: {slots:?}"
        );
    }
}

fn load(file: &str) -> gpucmp_fuzz::FuzzCase {
    let path = corpus_dir().join(file);
    let src = std::fs::read_to_string(&path).unwrap();
    gpucmp_fuzz::load_case(&src).unwrap()
}

fn as_i32(bytes: &[u8]) -> Vec<i32> {
    bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}
