//! Shared benchmark infrastructure: metrics, results, verification and
//! deterministic input generation.

use gpucmp_runtime::RtError;
use gpucmp_sim::ExecStats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Performance metric unit, per the paper's Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Elapsed seconds (lower is better).
    Seconds,
    /// Gigabytes per second.
    GBPerSec,
    /// GFlops per second.
    GFlopsPerSec,
    /// Megapixels per second.
    MPixelsPerSec,
    /// Millions of elements per second.
    MElementsPerSec,
}

impl Metric {
    /// Display unit.
    pub const fn unit(self) -> &'static str {
        match self {
            Metric::Seconds => "sec",
            Metric::GBPerSec => "GB/sec",
            Metric::GFlopsPerSec => "GFlops/sec",
            Metric::MPixelsPerSec => "MPixels/sec",
            Metric::MElementsPerSec => "MElements/sec",
        }
    }

    /// Whether a larger value means better performance.
    pub const fn higher_is_better(self) -> bool {
        !matches!(self, Metric::Seconds)
    }
}

/// Verification outcome of one run.
#[derive(Clone, Debug, PartialEq)]
pub enum Verify {
    /// Device output matched the CPU reference.
    Pass,
    /// Device output was wrong — the paper's "FL" (e.g. the warp-size-32
    /// radix sort on 64-wide wavefront devices).
    Fail(String),
}

impl Verify {
    /// True when verification passed.
    pub fn is_pass(&self) -> bool {
        matches!(self, Verify::Pass)
    }
}

/// Output of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Metric value (in the benchmark's [`Metric`] units).
    pub value: f64,
    /// Metric unit.
    pub metric: Metric,
    /// Verification result.
    pub verify: Verify,
    /// Total in-kernel virtual time, ns.
    pub kernel_ns: f64,
    /// Wall (virtual) time of the measured window, ns (includes launch
    /// overheads and any mid-measurement transfers).
    pub wall_ns: f64,
    /// Kernel launches in the measured window.
    pub launches: u64,
    /// Merged execution statistics of the measured window.
    pub stats: ExecStats,
}

impl RunOutput {
    /// Normalised "performance" — the quantity whose ratio defines the
    /// paper's PR metric (Eq. 1). For time-valued metrics this is `1/t`.
    pub fn performance(&self) -> f64 {
        if self.metric.higher_is_better() {
            self.value
        } else {
            1.0 / self.value
        }
    }
}

/// Problem-size scale: `Quick` for unit tests (debug builds), `Paper` for
/// the experiment harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Small inputs, fast in debug builds.
    Quick,
    /// Paper-like inputs for the harness.
    Paper,
}

/// A benchmark runnable on any [`gpucmp_runtime::Gpu`].
pub trait Benchmark {
    /// Short name as in the paper's Table II.
    fn name(&self) -> &'static str;
    /// Metric unit.
    fn metric(&self) -> Metric;
    /// Run on the given runtime; dialect-specific defaults (texture use,
    /// constant memory, pragmas) key off `gpu.api()` unless overridden.
    fn run(&self, gpu: &mut dyn gpucmp_runtime::Gpu) -> Result<RunOutput, RtError>;
}

/// Deterministic RNG for benchmark inputs.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// `n` uniform f32 values in `[lo, hi)`.
pub fn rand_f32(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range(lo..hi)).collect()
}

/// `n` uniform u32 values.
pub fn rand_u32(seed: u64, n: usize) -> Vec<u32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen()).collect()
}

/// Compare two f32 slices with relative tolerance; `Err` describes the
/// first mismatch.
pub fn check_f32(got: &[f32], want: &[f32], rel_tol: f32) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = w.abs().max(g.abs()).max(1.0);
        if (g - w).abs() > rel_tol * scale {
            return Err(format!("element {i}: got {g}, want {w}"));
        }
    }
    Ok(())
}

/// Exact comparison of u32 slices.
pub fn check_u32(got: &[u32], want: &[u32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(format!("element {i}: got {g}, want {w}"));
        }
    }
    Ok(())
}

/// Exact comparison of i32 slices.
pub fn check_i32(got: &[i32], want: &[i32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(format!("element {i}: got {g}, want {w}"));
        }
    }
    Ok(())
}

/// Build a [`Verify`] from a check result.
pub fn verdict(r: Result<(), String>) -> Verify {
    match r {
        Ok(()) => Verify::Pass,
        Err(m) => Verify::Fail(m),
    }
}

/// Measurement window helper: captures clock/launch/kernel-time deltas
/// around the timed region of a benchmark.
pub struct Window {
    t0: f64,
    launches0: u64,
    kernel0: f64,
}

impl Window {
    /// Open a window at the runtime's current state.
    pub fn open(gpu: &dyn gpucmp_runtime::Gpu) -> Self {
        Window {
            t0: gpu.now_ns(),
            launches0: gpu.session().launches(),
            kernel0: gpu.session().kernel_ns_total(),
        }
    }

    /// Close the window: (wall_ns, kernel_ns, launches).
    pub fn close(&self, gpu: &dyn gpucmp_runtime::Gpu) -> (f64, f64, u64) {
        (
            gpu.now_ns() - self.t0,
            gpu.session().kernel_ns_total() - self.kernel0,
            gpu.session().launches() - self.launches0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_orientation() {
        assert!(!Metric::Seconds.higher_is_better());
        assert!(Metric::GBPerSec.higher_is_better());
        assert_eq!(Metric::GFlopsPerSec.unit(), "GFlops/sec");
    }

    #[test]
    fn performance_inverts_seconds() {
        let mk = |metric, value| RunOutput {
            value,
            metric,
            verify: Verify::Pass,
            kernel_ns: 0.0,
            wall_ns: 0.0,
            launches: 0,
            stats: ExecStats::default(),
        };
        assert_eq!(mk(Metric::Seconds, 0.5).performance(), 2.0);
        assert_eq!(mk(Metric::GBPerSec, 80.0).performance(), 80.0);
    }

    #[test]
    fn deterministic_inputs() {
        assert_eq!(rand_f32(7, 10, 0.0, 1.0), rand_f32(7, 10, 0.0, 1.0));
        assert_ne!(rand_u32(1, 10), rand_u32(2, 10));
    }

    #[test]
    fn check_f32_tolerances() {
        assert!(check_f32(&[1.0, 2.0], &[1.0, 2.0 + 1e-5], 1e-4).is_ok());
        assert!(check_f32(&[1.0], &[1.1], 1e-4).is_err());
        assert!(check_f32(&[1.0], &[1.0, 2.0], 1e-4).is_err());
    }

    #[test]
    fn check_exact() {
        assert!(check_u32(&[1, 2], &[1, 2]).is_ok());
        assert!(check_u32(&[1, 2], &[2, 1]).is_err());
        assert!(check_i32(&[-1], &[-1]).is_ok());
    }
}
