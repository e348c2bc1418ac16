//! The differential oracle: run one case across every pair of paths the
//! reproduction claims are equivalent, and report the first divergence.
//!
//! The comparison matrix (REF = CUDA front-end, interp tier, 1 sim thread,
//! GTX 480):
//!
//! | axis        | runs compared against REF                   | equality |
//! |-------------|---------------------------------------------|----------|
//! | sim threads | cuda/interp/8 threads                       | full     |
//! | exec tier   | cuda/decoded/1t, cuda/decoded/8t            | full     |
//! | front-end   | ocl/interp/1t (OREF)                        | memory bit-equal when both complete; fault *kind* when both fault |
//! | front-end×tier | ocl/decoded/8t vs OREF                   | full     |
//! | memcheck    | cuda/interp/1t+mc vs cuda/decoded/8t+mc     | full + recorded fault list |
//! | device      | gtx280/hd5870/intel920/cellbe, cuda/interp/1t | memory when Ok; fault kind when faulting |
//!
//! "Full" equality = bit-equal buffer contents, `ExecStats` equal, and
//! fault kind + site equal. On every axis, a completed run whose counters
//! break a conservation law (`ExecStats::check_conservation`) is a
//! divergence too. The front-end axis is looser by design: the
//! two compilers emit different instruction schedules, so `ExecStats`
//! and fault sites legitimately differ — but completed results must be
//! bit-equal (the generator's guard rails exclude the documented
//! fold/fuse asymmetries; see `gen`).
//!
//! The device axis only runs for [`FuzzCase::device_portable`] cases:
//! kernels reading warp-layout builtins or running under an instruction
//! budget legitimately differ across warp widths — the documented
//! FL-corruption exemption (paper Table VI).
//!
//! On a hard fault the simulator aborts mid-launch, so partially-mutated
//! memory is schedule-dependent; faulting runs compare the fault only,
//! never memory.

use crate::gen::{FuzzCase, ScalarSpec};
use gpucmp_compiler::{compile_with_style, cuda_style, opencl_style, CodegenStyle, Compiled};
use gpucmp_ptx::kernel::ResolvedKernel;
use gpucmp_sim::{
    launch_with, DeviceFault, DeviceSpec, ExecOptions, ExecStats, ExecTier, GlobalMemory,
    LaunchConfig, SimError,
};

/// Extra slack behind the buffers so in-bounds accesses never trip the
/// capacity check while the deliberate-OOB index (~4 MiB past the end)
/// always does.
const GMEM_SLACK: u64 = 64 * 1024;

/// A deliberate result perturbation for mutation-testing the oracle
/// itself: proves an injected divergence is caught, minimized and
/// replayed (the acceptance criterion's "injected tier-divergence").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutateMode {
    /// Flip the low bit of byte 0 of buffer 0 in the cuda/decoded/8-thread
    /// snapshot — a synthetic decoded-tier miscompile.
    TierXor,
}

/// One divergence between two runs that must agree.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Which comparison failed, e.g. `tier:cuda/decoded/8t`. The reducer's
    /// predicate keys on this string staying the same while shrinking.
    pub axis: String,
    /// Human-readable detail of the first difference.
    pub detail: String,
}

/// The observable outcome of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// `Ok` for a completed launch, `Err` with the fault that aborted it.
    pub outcome: Result<(), DeviceFault>,
    /// Final buffer contents (only meaningful when `outcome` is `Ok`).
    pub mems: Vec<Vec<u8>>,
    /// Execution statistics (only when `outcome` is `Ok`).
    pub stats: Option<ExecStats>,
    /// Memcheck-recorded faults (empty when memcheck was off).
    pub recorded: Vec<DeviceFault>,
    /// The counter conservation law `stats` break, if any.
    pub broken_law: Option<String>,
}

/// The differential oracle.
#[derive(Clone, Copy, Debug, Default)]
pub struct Oracle {
    /// Optional result perturbation (mutation testing).
    pub mutate: Option<MutateMode>,
}

/// One run configuration on the matrix.
#[derive(Clone, Copy)]
struct RunCfg {
    tier: ExecTier,
    threads: usize,
    memcheck: bool,
}

impl RunCfg {
    const fn new(tier: ExecTier, threads: usize) -> Self {
        RunCfg {
            tier,
            threads,
            memcheck: false,
        }
    }

    const fn mc(mut self) -> Self {
        self.memcheck = true;
        self
    }
}

impl Oracle {
    /// Oracle with no perturbation.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Oracle that injects `mode` (mutation testing).
    pub fn with_mutation(mode: MutateMode) -> Self {
        Oracle { mutate: Some(mode) }
    }

    /// Run `case` across the full matrix. `Ok(None)` = all paths agree;
    /// `Ok(Some(d))` = a divergence; `Err` = the case itself is broken
    /// (compile or launch-setup error — a generator bug, not a sim bug).
    pub fn check(&self, case: &FuzzCase) -> Result<Option<Divergence>, String> {
        let gtx480 = DeviceSpec::gtx480();
        let cuda = compile(case, &cuda_style(), &gtx480)?;
        let ocl = compile(case, &opencl_style(), &gtx480)?;

        // REF: the fixed point everything on the CUDA side compares to.
        let reference = run(case, &cuda, &gtx480, RunCfg::new(ExecTier::Interp, 1))?;

        // --- sim-thread and tier axes (full equality) -------------------
        let full_axes: [(&str, RunCfg); 3] = [
            ("threads:cuda/interp/8t", RunCfg::new(ExecTier::Interp, 8)),
            ("tier:cuda/decoded/1t", RunCfg::new(ExecTier::Decoded, 1)),
            ("tier:cuda/decoded/8t", RunCfg::new(ExecTier::Decoded, 8)),
        ];
        for (axis, cfg) in full_axes {
            let mut snap = run(case, &cuda, &gtx480, cfg)?;
            if self.mutate == Some(MutateMode::TierXor) && axis == "tier:cuda/decoded/8t" {
                if let Some(b) = snap.mems.first_mut().and_then(|m| m.first_mut()) {
                    *b ^= 1;
                }
            }
            if let Some(d) = compare_full(axis, &reference, &snap) {
                return Ok(Some(d));
            }
        }

        // --- front-end axis (loose: schedules differ by design) ---------
        let oref = run(case, &ocl, &gtx480, RunCfg::new(ExecTier::Interp, 1))?;
        if let Some(d) = compare_frontend("frontend:ocl/interp/1t", &reference, &oref) {
            return Ok(Some(d));
        }
        // The OpenCL build must itself be tier/thread-stable (full equality
        // against its own reference).
        let osnap = run(case, &ocl, &gtx480, RunCfg::new(ExecTier::Decoded, 8))?;
        if let Some(d) = compare_full("tier:ocl/decoded/8t", &oref, &osnap) {
            return Ok(Some(d));
        }

        // --- memcheck axis ----------------------------------------------
        let mc_ref = run(case, &cuda, &gtx480, RunCfg::new(ExecTier::Interp, 1).mc())?;
        let mc_decoded = run(case, &cuda, &gtx480, RunCfg::new(ExecTier::Decoded, 8).mc())?;
        if let Some(d) = compare_full("memcheck:cuda/decoded/8t", &mc_ref, &mc_decoded) {
            return Ok(Some(d));
        }

        // --- device axis (portable cases only) --------------------------
        if case.device_portable() {
            for dev in [
                DeviceSpec::gtx280(),
                DeviceSpec::hd5870(),
                DeviceSpec::intel920(),
                DeviceSpec::cellbe(),
            ] {
                // Recompile at the device's own register cap: spilling
                // differs, results must not.
                let built = compile(case, &cuda_style(), &dev)?;
                let snap = run(case, &built, &dev, RunCfg::new(ExecTier::Interp, 1))?;
                let axis = format!("device:{}", dev.name);
                if let Some(d) = compare_frontend(&axis, &reference, &snap) {
                    return Ok(Some(d));
                }
            }
        }

        Ok(None)
    }

    /// The REF run (cuda/interp/1t on the GTX 480) on its own — lets a
    /// corpus test assert *what* a case does (completes, or faults with
    /// a specific kind) on top of `check`'s all-paths-agree verdict.
    pub fn reference_snapshot(&self, case: &FuzzCase) -> Result<Snapshot, String> {
        let gtx480 = DeviceSpec::gtx480();
        let cuda = compile(case, &cuda_style(), &gtx480)?;
        run(case, &cuda, &gtx480, RunCfg::new(ExecTier::Interp, 1))
    }
}

/// Compile `case` for `device` with `style` — through the full front-end
/// pipeline, which validates both the PTX and the post-ptxas executable
/// form of every generated kernel.
fn compile(case: &FuzzCase, style: &CodegenStyle, device: &DeviceSpec) -> Result<Compiled, String> {
    compile_with_style(&case.def, style, device.max_regs_per_thread)
        .map_err(|e| format!("{} compile failed: {}", style.name, e.0))
}

/// Execute one run and snapshot everything observable.
fn run(
    case: &FuzzCase,
    built: &Compiled,
    device: &DeviceSpec,
    rc: RunCfg,
) -> Result<Snapshot, String> {
    let resolved: ResolvedKernel = built
        .exec
        .resolve()
        .map_err(|e| format!("kernel failed to resolve: {e}"))?;

    let total: u64 = case.bufs.iter().map(|b| b.bytes()).sum();
    let mut gmem = GlobalMemory::new(total + GMEM_SLACK);
    let mut ptrs = Vec::new();
    for b in &case.bufs {
        let p = gmem
            .alloc(b.bytes())
            .map_err(|e| format!("alloc failed: {e:?}"))?;
        gmem.copy_in(p, &b.data())
            .map_err(|e| format!("copy_in failed: {e:?}"))?;
        ptrs.push(p);
    }

    let mut cfg = LaunchConfig::new(case.grid, case.block);
    for p in &ptrs {
        cfg = cfg.arg_ptr(*p);
    }
    for s in &case.scalars {
        cfg = match s {
            ScalarSpec::I32(v) => cfg.arg_i32(*v),
            ScalarSpec::F32(v) => cfg.arg_f32(*v),
        };
    }
    if let Some(b) = case.inst_budget {
        cfg.inst_budget = b;
    }

    let opts = ExecOptions::with_threads(rc.threads)
        .tier(rc.tier)
        .memcheck(rc.memcheck);

    match launch_with(
        device,
        &resolved,
        &mut gmem,
        &case.def.const_data,
        &cfg,
        &opts,
    ) {
        Ok(report) => {
            let mut mems = Vec::new();
            for (b, p) in case.bufs.iter().zip(&ptrs) {
                let mut out = vec![0u8; b.bytes() as usize];
                gmem.copy_out(*p, &mut out)
                    .map_err(|e| format!("copy_out failed: {e:?}"))?;
                mems.push(out);
            }
            Ok(Snapshot {
                outcome: Ok(()),
                mems,
                broken_law: report.stats.check_conservation(device.warp_width).err(),
                stats: Some(report.stats),
                recorded: report.faults,
            })
        }
        Err(SimError::Fault(f)) => Ok(Snapshot {
            outcome: Err(f),
            mems: Vec::new(),
            stats: None,
            recorded: Vec::new(),
            broken_law: None,
        }),
        Err(e) => Err(format!("launch setup failed: {e:?}")),
    }
}

/// Full equality: outcome (incl. fault site), memory, stats, and the
/// memcheck-recorded fault list.
fn compare_full(axis: &str, a: &Snapshot, b: &Snapshot) -> Option<Divergence> {
    let diverge = |detail: String| {
        Some(Divergence {
            axis: axis.to_string(),
            detail,
        })
    };
    if let Some(law) = broken_law(a, b) {
        return diverge(law);
    }
    match (&a.outcome, &b.outcome) {
        (Ok(()), Ok(())) => {
            if let Some(d) = first_mem_diff(a, b) {
                return diverge(d);
            }
            if a.stats != b.stats {
                return diverge(format!(
                    "ExecStats differ:\n  ref: {:?}\n  got: {:?}",
                    a.stats, b.stats
                ));
            }
            if a.recorded != b.recorded {
                return diverge(format!(
                    "memcheck fault lists differ: ref {:?} vs got {:?}",
                    a.recorded, b.recorded
                ));
            }
            None
        }
        (Err(fa), Err(fb)) => {
            // On abort, memory is partially mutated in schedule order —
            // only the fault itself is comparable, but it must match
            // exactly (kind + site).
            if fa != fb {
                return diverge(format!("faults differ: ref {fa:?} vs got {fb:?}"));
            }
            None
        }
        (Ok(()), Err(f)) => diverge(format!("ref completed but run faulted: {f:?}")),
        (Err(f), Ok(())) => diverge(format!("ref faulted ({f:?}) but run completed")),
    }
}

/// Front-end / device equality: bit-equal memory when both complete, same
/// fault *kind* when both fault. Stats, sites and recorded lists
/// legitimately differ (different instruction schedules).
fn compare_frontend(axis: &str, a: &Snapshot, b: &Snapshot) -> Option<Divergence> {
    let diverge = |detail: String| {
        Some(Divergence {
            axis: axis.to_string(),
            detail,
        })
    };
    if let Some(law) = broken_law(a, b) {
        return diverge(law);
    }
    match (&a.outcome, &b.outcome) {
        (Ok(()), Ok(())) => first_mem_diff(a, b).and_then(diverge),
        (Err(fa), Err(fb)) => {
            if std::mem::discriminant(&fa.kind) != std::mem::discriminant(&fb.kind) {
                return diverge(format!(
                    "fault kinds differ: ref {:?} vs got {:?}",
                    fa.kind, fb.kind
                ));
            }
            None
        }
        (Ok(()), Err(f)) => diverge(format!("ref completed but run faulted: {f:?}")),
        (Err(f), Ok(())) => diverge(format!("ref faulted ({f:?}) but run completed")),
    }
}

/// The conservation law either run's counters break. Every run of the
/// matrix is one side of some comparison, so every run is checked.
fn broken_law(a: &Snapshot, b: &Snapshot) -> Option<String> {
    a.broken_law.clone().or_else(|| b.broken_law.clone())
}

/// First byte-level difference between two completed snapshots.
fn first_mem_diff(a: &Snapshot, b: &Snapshot) -> Option<String> {
    for (bi, (ma, mb)) in a.mems.iter().zip(&b.mems).enumerate() {
        if ma != mb {
            let off = ma.iter().zip(mb).position(|(x, y)| x != y).unwrap_or(0);
            return Some(format!(
                "buffer {bi} differs at byte {off}: ref {:02x?} vs got {:02x?}",
                &ma[off..(off + 4).min(ma.len())],
                &mb[off..(off + 4).min(mb.len())],
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::rng::case_seed;

    #[test]
    fn small_generated_batch_is_clean() {
        let oracle = Oracle::new();
        for i in 0..8 {
            let case = generate(case_seed(8, i));
            let verdict = oracle.check(&case).unwrap_or_else(|e| {
                panic!("case {i} broke the oracle: {e}");
            });
            assert!(verdict.is_none(), "case {i} diverged: {verdict:?}");
        }
    }

    #[test]
    fn mutation_is_caught_on_the_tier_axis() {
        let oracle = Oracle::with_mutation(MutateMode::TierXor);
        // Any case that completes will do; seed 8 case 0 completes.
        let case = generate(case_seed(8, 0));
        let verdict = oracle.check(&case).expect("oracle should run");
        let d = verdict.expect("mutation must be detected");
        assert_eq!(d.axis, "tier:cuda/decoded/8t");
    }

    #[test]
    fn a_broken_counter_law_is_a_divergence_on_every_axis() {
        let case = generate(case_seed(8, 0));
        let snap = Oracle::new().reference_snapshot(&case).unwrap();
        assert_eq!(snap.broken_law, None);
        let broken = Snapshot {
            broken_law: Some("counter law broken: test".into()),
            ..snap.clone()
        };
        for (a, b) in [(&snap, &broken), (&broken, &snap)] {
            let d = compare_full("full", a, b).expect("full equality checks the laws");
            assert_eq!(d.detail, "counter law broken: test");
            let d = compare_frontend("front", a, b).expect("loose equality checks the laws");
            assert_eq!(d.axis, "front");
        }
    }
}
