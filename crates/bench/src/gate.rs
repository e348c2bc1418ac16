//! CI gate over a `BENCH_<timestamp>.json` report.
//!
//! ```text
//! cargo run -p gpucmp-bench --bin gate -- BENCH_1700000000.json
//! ```
//!
//! Parses the report emitted by `examples/reproduce_paper` and fails
//! (exit 1) if any *paper-shape invariant* regressed — the qualitative
//! results of Fang et al. that must survive any simulator or benchmark
//! change, at either problem scale:
//!
//! - the full 21 x {GTX280, GTX480} x {CUDA, OpenCL} matrix (the 16
//!   paper benchmarks plus the three explicit-stream variants and the
//!   two fuzz-corpus micro-workloads) ran and every run verified against
//!   its CPU reference;
//! - Sobel on the GTX280 has PR > 1 (the unmodified OpenCL version uses
//!   constant memory, the CUDA one does not — Fig. 8);
//! - BFS has PR < 1 on both devices (OpenCL's higher kernel-launch
//!   overhead, Section IV-B-4);
//! - MD and SPMV have PR < 1 on both devices (the CUDA dialects read
//!   via texture memory — Figs. 4/5);
//! - the synthetic peak benchmarks are API-neutral (PR within 15 % of
//!   1 — Figs. 1/2);
//! - every run carries a populated hardware-counter set.
//!
//! # Fault-skipped runs vs regressions
//!
//! A report produced under a seeded fault-injection campaign (its
//! `fault_seed` field is set) may contain `fault-skipped` runs: triples
//! whose injected fault survived the retry budget. Those are *not*
//! regressions — the campaign degraded gracefully and said so. The gate
//! distinguishes the three outcomes by exit code:
//!
//! | exit | meaning                                                    |
//! |------|------------------------------------------------------------|
//! | 0    | complete report, all invariants hold                       |
//! | 2    | partial report: fault-skips only, every surviving run and  |
//! |      | every checkable invariant holds                            |
//! | 1    | a real regression (bad value, lost invariant, skip without |
//! |      | a declared injection campaign, malformed matrix)           |
//!
//! A PR invariant whose constituent run was fault-skipped is downgraded
//! to a skip note; the same invariant missing with both runs healthy is
//! a regression.

use gpucmp_trace::BenchReport;
use std::process::ExitCode;

/// Expected campaign shape: the 16 paper benchmarks plus the three
/// explicit-stream variants (BFS, MxM, FDTD) and the two fuzz-corpus
/// micro-workloads (AtomHist, SharedRot).
const BENCHES: usize = 21;
const DEVICES: [&str; 2] = ["GTX280", "GTX480"];
const APIS: [&str; 2] = ["CUDA", "OpenCL"];

/// What the gate concluded about a report: hard regressions and
/// acceptable fault-skips, separately.
#[derive(Debug, Default)]
pub struct GateResult {
    /// Paper-shape regressions; any entry fails the gate (exit 1).
    pub errors: Vec<String>,
    /// Runs/invariants missing because of a declared injected fault;
    /// acceptable, but the report is partial (exit 2).
    pub skips: Vec<String>,
}

impl GateResult {
    /// Exit code under the gate's protocol: 0 clean, 2 partial, 1
    /// regressed.
    pub fn exit_code(&self) -> u8 {
        if !self.errors.is_empty() {
            1
        } else if !self.skips.is_empty() {
            2
        } else {
            0
        }
    }
}

/// Whether `bench`/`device`/`api` is recorded as fault-skipped.
fn is_fault_skip(report: &BenchReport, bench: &str, device: &str, api: &str) -> bool {
    report.run(bench, device, api).is_some_and(|r| !r.is_ok())
}

/// Whether either side of the (bench, device) pair was fault-skipped,
/// which excuses a missing PR entry.
fn pair_has_skip(report: &BenchReport, bench: &str, device: &str) -> bool {
    APIS.iter()
        .any(|api| is_fault_skip(report, bench, device, api))
}

/// Check every paper-shape invariant of `report`, splitting failures
/// into regressions and acceptable fault-skips.
pub fn check(report: &BenchReport) -> GateResult {
    let mut res = GateResult::default();

    let want_runs = BENCHES * DEVICES.len() * APIS.len();
    if report.runs.len() != want_runs {
        res.errors.push(format!(
            "expected {want_runs} runs (21 benchmarks x 2 devices x 2 APIs), found {}",
            report.runs.len()
        ));
    }

    for r in &report.runs {
        let id = format!("{}/{}/{}", r.bench, r.device, r.api);
        if !r.is_ok() {
            // A fault-skip is only acceptable when the report declares
            // the injection campaign that caused it; a skip appearing in
            // a fault-free campaign is a real failure.
            let why = r.fault.as_deref().unwrap_or("<no fault recorded>");
            if report.fault_seed.is_some() {
                res.skips.push(format!(
                    "{id}: skipped after {} attempt(s): {why}",
                    r.attempts
                ));
            } else {
                res.errors.push(format!(
                    "{id}: fault-skipped without a declared fault-injection campaign: {why}"
                ));
            }
            continue;
        }
        if !r.verified {
            res.errors.push(format!("{id}: failed output verification"));
        }
        if !(r.value.is_finite() && r.value > 0.0) {
            res.errors
                .push(format!("{id}: non-positive metric value {}", r.value));
        }
        if r.counters.is_empty() || r.counters.get("warp_instructions").unwrap_or(0.0) <= 0.0 {
            res.errors
                .push(format!("{id}: empty or zeroed counter set"));
        }
        if r.launches == 0 {
            res.errors
                .push(format!("{id}: no kernel launches recorded"));
        }
    }

    // Every healthy (bench, device) pair must have its PR entry; pairs
    // with a skipped side are allowed to miss it.
    let want_prs = BENCHES * DEVICES.len();
    let excused = report
        .runs
        .iter()
        .filter(|r| r.api == "CUDA")
        .filter(|r| pair_has_skip(report, &r.bench, &r.device))
        .count();
    if report.prs.len() + excused < want_prs {
        res.errors.push(format!(
            "expected {} PR entries ({} excused by fault-skips), found {}",
            want_prs,
            excused,
            report.prs.len()
        ));
    }

    for p in &report.prs {
        if !(p.pr.is_finite() && p.pr > 0.0) {
            res.errors
                .push(format!("{}/{}: degenerate PR {}", p.bench, p.device, p.pr));
        }
    }
    let pr_of =
        |bench: &str, device: &str| -> Option<f64> { report.pr(bench, device).map(|p| p.pr) };
    // A missing PR is a skip iff one of the pair's runs was
    // fault-skipped under a declared campaign; otherwise a regression.
    let missing_pr = |res: &mut GateResult, bench: &str, device: &str| {
        if report.fault_seed.is_some() && pair_has_skip(report, bench, device) {
            res.skips.push(format!(
                "{bench}/{device}: PR unchecked (run fault-skipped)"
            ));
        } else {
            res.errors
                .push(format!("{bench}/{device}: PR entry missing"));
        }
    };

    // Fig. 8 shape: unmodified Sobel favours OpenCL on the GT200 because
    // only the OpenCL dialect places the filter in constant memory.
    match pr_of("Sobel", "GTX280") {
        Some(pr) if pr > 1.0 => {}
        Some(pr) => res.errors.push(format!(
            "Sobel/GTX280: PR {pr:.3} <= 1 (const-mem win lost)"
        )),
        None => missing_pr(&mut res, "Sobel", "GTX280"),
    }

    // Section IV-B-4 shape: BFS's many tiny launches make OpenCL slower.
    // Figs. 4/5 shape: the CUDA texture path keeps MD and SPMV ahead.
    for bench in ["BFS", "MD", "SPMV"] {
        for device in DEVICES {
            match pr_of(bench, device) {
                Some(pr) if pr < 1.0 => {}
                Some(pr) => res.errors.push(format!(
                    "{bench}/{device}: PR {pr:.3} >= 1 (CUDA advantage lost)"
                )),
                None => missing_pr(&mut res, bench, device),
            }
        }
    }

    // Figs. 1/2 shape: the synthetic peaks are API-neutral.
    for bench in ["MaxFlops", "DeviceMemory"] {
        for device in DEVICES {
            match pr_of(bench, device) {
                Some(pr) if (pr - 1.0).abs() <= 0.15 => {}
                Some(pr) => res.errors.push(format!(
                    "{bench}/{device}: PR {pr:.3} outside the 15 % peak band"
                )),
                None => missing_pr(&mut res, bench, device),
            }
        }
    }

    res
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: gate <BENCH_*.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gate: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match BenchReport::from_text(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gate: {path} is not a valid bench report: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let res = check(&report);
    for s in &res.skips {
        eprintln!("gate: SKIP — {s}");
    }
    match res.exit_code() {
        0 => {
            println!(
                "gate: PASS — {} runs at scale '{}', all paper-shape invariants hold",
                report.runs.len(),
                report.scale
            );
            ExitCode::SUCCESS
        }
        2 => {
            let skipped_runs = report.runs.iter().filter(|r| !r.is_ok()).count();
            println!(
                "gate: PARTIAL — {skipped_runs} of {} runs fault-skipped under seed {}; \
                 every surviving invariant holds",
                report.runs.len(),
                report.fault_seed.unwrap_or(0)
            );
            ExitCode::from(2)
        }
        _ => {
            for e in &res.errors {
                eprintln!("gate: FAIL — {e}");
            }
            eprintln!(
                "gate: {} invariant(s) regressed in {path}",
                res.errors.len()
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_trace::{BenchRun, PrEntry, RUN_FAULT_SKIPPED, RUN_OK};

    fn passing_report() -> BenchReport {
        let benches = [
            "BFS",
            "Sobel",
            "TranP",
            "Reduce",
            "FFT",
            "MD",
            "SPMV",
            "St2D",
            "DXTC",
            "RdxS",
            "Scan",
            "STNW",
            "MxM",
            "FDTD",
            "MaxFlops",
            "DeviceMemory",
            "BFS+streams",
            "MxM+streams",
            "FDTD+streams",
            "AtomHist",
            "SharedRot",
        ];
        let mut report = BenchReport {
            scale: "quick".into(),
            ..Default::default()
        };
        for bench in benches {
            for device in DEVICES {
                for api in APIS {
                    let mut counters = gpucmp_sim::CounterSet::new();
                    counters.push("warp_instructions", 1000.0);
                    report.runs.push(BenchRun {
                        bench: bench.into(),
                        device: device.into(),
                        api: api.into(),
                        value: 1.0,
                        unit: "sec".into(),
                        verified: true,
                        wall_ns: 1e6,
                        kernel_ns: 9e5,
                        launches: 3,
                        sim_cycles: 1e5,
                        counters,
                        status: RUN_OK.into(),
                        fault: None,
                        attempts: 1,
                    });
                }
                let pr = match bench {
                    "BFS" | "MD" | "SPMV" => 0.8,
                    "Sobel" => {
                        if device == "GTX280" {
                            4.0
                        } else {
                            1.0
                        }
                    }
                    _ => 0.95,
                };
                report.prs.push(PrEntry {
                    bench: bench.into(),
                    device: device.into(),
                    pr,
                    dominant_counter: "comparable".into(),
                });
            }
        }
        report
    }

    /// Turn one run into a fault-skip and drop the now-unpaired PR, the
    /// way `bench_report_with` records an unrecoverable injected fault.
    fn skip_run(report: &mut BenchReport, bench: &str, device: &str, api: &str) {
        let r = report
            .runs
            .iter_mut()
            .find(|r| r.bench == bench && r.device == device && r.api == api)
            .unwrap();
        r.status = RUN_FAULT_SKIPPED.into();
        r.fault = Some("injected failure of malloc #1".into());
        r.verified = false;
        r.value = 0.0;
        r.launches = 0;
        r.counters = gpucmp_sim::CounterSet::new();
        r.attempts = 1;
        report
            .prs
            .retain(|p| !(p.bench == bench && p.device == device));
    }

    #[test]
    fn well_shaped_report_passes() {
        let res = check(&passing_report());
        assert!(res.errors.is_empty(), "{:?}", res.errors);
        assert!(res.skips.is_empty());
        assert_eq!(res.exit_code(), 0);
    }

    #[test]
    fn regressions_are_caught() {
        // Sobel const-mem win lost
        let mut r = passing_report();
        r.prs
            .iter_mut()
            .find(|p| p.bench == "Sobel" && p.device == "GTX280")
            .unwrap()
            .pr = 0.9;
        assert!(check(&r).errors.iter().any(|e| e.contains("Sobel/GTX280")));

        // BFS faster under OpenCL would contradict the launch-overhead model
        let mut r = passing_report();
        r.prs
            .iter_mut()
            .find(|p| p.bench == "BFS" && p.device == "GTX480")
            .unwrap()
            .pr = 1.2;
        assert!(check(&r).errors.iter().any(|e| e.contains("BFS/GTX480")));

        // a verification failure anywhere fails the gate
        let mut r = passing_report();
        r.runs[5].verified = false;
        assert!(check(&r).errors.iter().any(|e| e.contains("verification")));

        // an incomplete matrix fails the gate
        let mut r = passing_report();
        r.runs.pop();
        assert!(check(&r)
            .errors
            .iter()
            .any(|e| e.contains("expected 84 runs")));
    }

    #[test]
    fn declared_fault_skips_are_partial_not_regressed() {
        let mut r = passing_report();
        r.fault_seed = Some(42);
        // Skip an invariant-bearing run and an ordinary one.
        skip_run(&mut r, "BFS", "GTX480", "OpenCL");
        skip_run(&mut r, "Scan", "GTX280", "CUDA");
        let res = check(&r);
        assert!(res.errors.is_empty(), "{:?}", res.errors);
        assert_eq!(
            res.skips.len(),
            3,
            "2 runs + 1 unchecked invariant: {:?}",
            res.skips
        );
        assert!(res
            .skips
            .iter()
            .any(|s| s.contains("BFS/GTX480: PR unchecked")));
        assert_eq!(res.exit_code(), 2);
    }

    #[test]
    fn skips_without_a_declared_campaign_are_regressions() {
        let mut r = passing_report();
        assert_eq!(r.fault_seed, None);
        skip_run(&mut r, "MxM", "GTX480", "CUDA");
        let res = check(&r);
        assert_eq!(res.exit_code(), 1);
        assert!(res
            .errors
            .iter()
            .any(|e| e.contains("without a declared fault-injection campaign")));
    }

    #[test]
    fn a_missing_pr_with_healthy_runs_is_still_a_regression() {
        let mut r = passing_report();
        r.fault_seed = Some(42); // campaign declared, but the runs are fine
        r.prs.retain(|p| !(p.bench == "MD" && p.device == "GTX280"));
        let res = check(&r);
        assert_eq!(res.exit_code(), 1);
        assert!(res
            .errors
            .iter()
            .any(|e| e.contains("MD/GTX280: PR entry missing")));
    }
}
