//! Differential tests of the execution tiers over the full benchmark
//! suite: the interpreter and the warp-wide decoded tier must produce
//! bit-identical run outputs — metric values, virtual times,
//! merged counters — at any host thread count, under seeded fault
//! injection, and with the memcheck sanitizer on. These are the
//! campaign-level teeth of the per-kernel parity tests in
//! `crates/sim/tests/tiers.rs`.

use gpucmp_benchmarks::{Benchmark, Scale};
use gpucmp_compiler::Api;
use gpucmp_core::experiments::run_with;
use gpucmp_runtime::{Cuda, FaultPlan, Gpu, SessionEvent};
use gpucmp_sim::{DeviceSpec, ExecOptions, ExecStats, ExecTier};

const TIERS: [ExecTier; 2] = [ExecTier::Interp, ExecTier::Decoded];

fn all_benches() -> Vec<Box<dyn Benchmark>> {
    let mut v = gpucmp_benchmarks::real_world(Scale::Quick);
    v.extend(gpucmp_benchmarks::synthetic(Scale::Quick));
    v.extend(gpucmp_benchmarks::streamed_variants(Scale::Quick));
    v
}

fn opts(tier: ExecTier, threads: usize) -> ExecOptions {
    ExecOptions::with_threads(threads).tier(tier)
}

/// Everything a run reports, in a bit-comparable form.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    value: u64,
    kernel_ns: u64,
    wall_ns: u64,
    launches: u64,
    verified: bool,
    stats: ExecStats,
}

fn fingerprint(out: &gpucmp_benchmarks::RunOutput) -> Fingerprint {
    Fingerprint {
        value: out.value.to_bits(),
        kernel_ns: out.kernel_ns.to_bits(),
        wall_ns: out.wall_ns.to_bits(),
        launches: out.launches,
        verified: out.verify.is_pass(),
        stats: out.stats.clone(),
    }
}

#[test]
fn every_benchmark_is_bit_identical_across_tiers_and_thread_counts() {
    let device = DeviceSpec::gtx480();
    for bench in all_benches() {
        let base = run_with(
            Api::Cuda,
            bench.as_ref(),
            &device,
            None,
            opts(ExecTier::Interp, 1),
        )
        .expect("interp baseline");
        assert!(base.verify.is_pass(), "{} baseline verifies", bench.name());
        let want = fingerprint(&base);
        for tier in TIERS {
            for threads in [1usize, 8] {
                if tier == ExecTier::Interp && threads == 1 {
                    continue; // that is the baseline
                }
                let out = run_with(
                    Api::Cuda,
                    bench.as_ref(),
                    &device,
                    None,
                    opts(tier, threads),
                )
                .expect("tier run");
                assert_eq!(
                    fingerprint(&out),
                    want,
                    "{} under {}@{threads} diverged from the interpreter",
                    bench.name(),
                    tier.name(),
                );
            }
        }
    }
}

/// Outcome of a run under fault injection, in a tier-comparable form:
/// either the full fingerprint or the exact error text.
fn faulted_outcome(
    bench: &dyn Benchmark,
    device: &DeviceSpec,
    plan: &FaultPlan,
    tier: ExecTier,
) -> Result<Fingerprint, String> {
    run_with(Api::Cuda, bench, device, Some(plan.clone()), opts(tier, 1))
        .map(|out| fingerprint(&out))
        .map_err(|e| e.to_string())
}

#[test]
fn fault_injection_outcomes_are_tier_invariant() {
    let device = DeviceSpec::gtx480();
    // A handful of seeds x the whole suite would take minutes; the
    // per-kernel fault-site parity is already pinned by the sim-level
    // tests, so a representative slice of benchmarks suffices here.
    for bench in all_benches().iter().take(6) {
        for seed in [7u64, 42] {
            let case = format!("{}/GTX480/CUDA", bench.name());
            let plan = FaultPlan::for_case(seed, &case, 0);
            let base = faulted_outcome(bench.as_ref(), &device, &plan, ExecTier::Interp);
            let got = faulted_outcome(bench.as_ref(), &device, &plan, ExecTier::Decoded);
            assert_eq!(
                got, base,
                "{case} seed {seed}: decoded tier disagrees with the interpreter"
            );
        }
    }
}

/// The memcheck sanitizer changes the dispatch path (faults are recorded
/// instead of aborting); both tiers must walk it identically, down to
/// the recorded fault events on the virtual timeline.
#[test]
fn memcheck_runs_are_tier_invariant() {
    let device = DeviceSpec::gtx480();
    for bench in all_benches().iter().take(4) {
        let run_tier = |tier: ExecTier| -> (Fingerprint, Vec<String>) {
            let mut gpu = Cuda::new(device.clone()).expect("NVIDIA device");
            gpu.set_exec_options(opts(tier, 1));
            gpu.set_memcheck(true);
            gpu.set_tracing(true);
            let out = bench.run(&mut gpu).expect("memcheck run");
            let faults = gpu
                .trace_events()
                .iter()
                .filter_map(|e| match e {
                    SessionEvent::Fault { .. } => Some(format!("{e:?}")),
                    _ => None,
                })
                .collect();
            (fingerprint(&out), faults)
        };
        let base = run_tier(ExecTier::Interp);
        assert_eq!(
            run_tier(ExecTier::Decoded),
            base,
            "{} memcheck run diverged under decoded",
            bench.name()
        );
    }
}
