//! Tier-1 smoke campaign: a small deterministic slice of the fuzzer runs
//! on every `cargo test`, so a semantics regression in either front-end,
//! any execution tier, or any device model fails CI even before the
//! dedicated fuzz jobs run. The full campaigns (200 per-PR, 20k nightly)
//! live in the workflow files.

use gpucmp_fuzz::kdsl;
use gpucmp_fuzz::oracle::{MutateMode, Oracle};
use gpucmp_fuzz::runner::{campaign, CampaignOutcome};

#[test]
fn deterministic_smoke_campaign_is_clean() {
    // Seed 8 is the acceptance seed; 50 cases keep the debug-build run
    // in the low seconds.
    let outcome = campaign(&Oracle::new(), 8, 50, None, |_, _| {});
    match outcome {
        CampaignOutcome::Clean { cases } => assert_eq!(cases, 50),
        CampaignOutcome::Diverged {
            index,
            case_seed,
            divergence,
            ..
        } => panic!(
            "case {index} (seed {case_seed:#018x}) diverged on {}:\n{}",
            divergence.axis, divergence.detail
        ),
        CampaignOutcome::Broken {
            index,
            case_seed,
            error,
        } => panic!("case {index} (seed {case_seed:#018x}) broke the harness: {error}"),
    }
}

/// End-to-end mutation acceptance: an injected decoded-tier bit flip is
/// caught, minimized to a handful of statements, and the minimized case
/// round-trips through the `.kdsl` serializer to the same divergence.
#[test]
fn injected_tier_divergence_is_caught_minimized_and_replayable() {
    let oracle = Oracle::with_mutation(MutateMode::TierXor);
    let outcome = campaign(&oracle, 21, 3, None, |_, _| {});
    let CampaignOutcome::Diverged {
        divergence,
        minimized,
        ..
    } = outcome
    else {
        panic!("mutated oracle failed to flag a divergence: {outcome:?}");
    };
    assert_eq!(divergence.axis, "tier:cuda/decoded/8t");
    assert!(
        minimized.stmt_count() <= 10,
        "reducer left {} statements",
        minimized.stmt_count()
    );

    // Serialize, re-parse, re-check: the corpus format preserves the bug.
    let text = kdsl::write_case(&minimized);
    let back = kdsl::load_case(&text).expect("minimized case parses");
    let replayed = oracle
        .check(&back)
        .expect("replay runs")
        .expect("replay still diverges");
    assert_eq!(replayed.axis, divergence.axis);
}
