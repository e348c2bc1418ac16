//! Campaign driver: generate → check → (on divergence) reduce → write the
//! reproducer, plus single-file replay for `--replay` and the
//! `corpus_replay` test.

use crate::gen::{generate, FuzzCase};
use crate::kdsl;
use crate::oracle::{Divergence, Oracle};
use crate::reduce::reduce;
use crate::rng::case_seed;
use std::path::{Path, PathBuf};

/// Result of a campaign.
#[derive(Clone, Debug)]
pub enum CampaignOutcome {
    /// All cases agreed on every axis.
    Clean {
        /// Number of cases run.
        cases: u64,
    },
    /// A case diverged; it was minimized and (when `out_dir` was given)
    /// written to disk.
    Diverged {
        /// Index of the failing case within the campaign.
        index: u64,
        /// The per-case seed (regenerates the unreduced kernel).
        case_seed: u64,
        /// The minimized reproducer (boxed: it dwarfs the other variants).
        minimized: Box<FuzzCase>,
        /// The divergence it reproduces.
        divergence: Divergence,
        /// Where the `.kdsl` reproducer was written, if anywhere.
        written: Option<PathBuf>,
    },
    /// A case broke the harness itself (compile/setup error): a generator
    /// bug, reported with its seed so it is reproducible too.
    Broken {
        /// Index of the failing case.
        index: u64,
        /// The per-case seed.
        case_seed: u64,
        /// The harness error.
        error: String,
    },
}

/// Run `cases` generated cases derived from `seed`. On the first
/// divergence, minimize and (if `out_dir` is set) write the reproducer as
/// `repro-<case_seed>.kdsl`. `progress` is called every few hundred cases
/// with (done, total).
pub fn campaign(
    oracle: &Oracle,
    seed: u64,
    cases: u64,
    out_dir: Option<&Path>,
    mut progress: impl FnMut(u64, u64),
) -> CampaignOutcome {
    for i in 0..cases {
        if i % 250 == 0 {
            progress(i, cases);
        }
        let cs = case_seed(seed, i);
        let case = generate(cs);
        match oracle.check(&case) {
            Ok(None) => {}
            Ok(Some(d)) => {
                let red = reduce(oracle, &case, &d);
                let written = out_dir.map(|dir| {
                    let path = dir.join(format!("repro-{cs:016x}.kdsl"));
                    let text = kdsl::write_case(&red.case);
                    // Best-effort: failing to persist must not mask the
                    // divergence itself.
                    let _ = std::fs::create_dir_all(dir);
                    let _ = std::fs::write(&path, text);
                    path
                });
                return CampaignOutcome::Diverged {
                    index: i,
                    case_seed: cs,
                    minimized: Box::new(red.case),
                    divergence: red.divergence,
                    written,
                };
            }
            Err(e) => {
                return CampaignOutcome::Broken {
                    index: i,
                    case_seed: cs,
                    error: e,
                };
            }
        }
    }
    progress(cases, cases);
    CampaignOutcome::Clean { cases }
}

/// Replay one `.kdsl` file through the full oracle. `Ok(None)` = clean.
pub fn replay_file(oracle: &Oracle, path: &Path) -> Result<Option<Divergence>, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let case = kdsl::load_case(&src).map_err(|e| format!("{}: {e}", path.display()))?;
    oracle.check(&case)
}

/// All `.kdsl` files under a directory, sorted for stable ordering.
pub fn corpus_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "kdsl"))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::MutateMode;

    #[test]
    fn small_campaign_is_clean() {
        let outcome = campaign(&Oracle::new(), 8, 4, None, |_, _| {});
        assert!(matches!(outcome, CampaignOutcome::Clean { cases: 4 }));
    }

    #[test]
    fn mutated_campaign_diverges_and_writes_repro() {
        let dir = std::env::temp_dir().join(format!("gpucmp-fuzz-test-{}", std::process::id()));
        let oracle = Oracle::with_mutation(MutateMode::TierXor);
        let outcome = campaign(&oracle, 8, 4, Some(&dir), |_, _| {});
        match outcome {
            CampaignOutcome::Diverged {
                divergence,
                written,
                minimized,
                ..
            } => {
                assert_eq!(divergence.axis, "tier:cuda/decoded/8t");
                let path = written.expect("repro written");
                // The written reproducer replays to the same axis.
                let replayed = replay_file(&oracle, &path)
                    .expect("replay runs")
                    .expect("replay diverges");
                assert_eq!(replayed.axis, divergence.axis);
                assert!(minimized.stmt_count() <= 10);
                let _ = std::fs::remove_dir_all(&dir);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }
}
