//! The two front-ends and the full compilation pipeline.
//!
//! The knob settings encode the maturity differences the paper diagnoses in
//! Section IV-B-4 and Table V:
//!
//! | knob | CUDA (`nvopencc`) | OpenCL front-end | paper evidence |
//! |---|---|---|---|
//! | constant folding | aggressive (compares, selects, math) | basic int only | Table V: CUDA 220 vs OpenCL 521 arithmetic, 4 vs 188 flow-control |
//! | strength reduction to bit ops | no (keeps `mul`) | yes (`shl`/`shr`/`and`) | Table V: CUDA 1 vs OpenCL 163 logic+shift |
//! | immediates | materialised via `mov` | inline | Table V: CUDA 687 vs OpenCL 88 `mov` |
//! | mad/fma fusion | left to `ptxas` | at the front-end | Table V: CUDA 2 mad/0 fma vs OpenCL 22 mad/37 fma |
//! | virtual spill budget | 40 (deep unrolling spills) | 64 | Table V: CUDA 250 vs OpenCL 78 `st.local` |
//! | load hoisting in partially unrolled loops | no | yes (read-only global loads to the body top) | Fig. 7: `OpenCL_{a,b}` FDTD register-pressure collapse |
//! | carried-scalar demotion in unrolled bodies over 300 statements | no | yes (to `local` memory) | Fig. 7: `OpenCL_{a,b}` FDTD collapse on GT200 |
//!
//! Both front-ends honour `#pragma unroll` (the paper's FDTD experiments
//! change the *source* pragmas, not the compilers). Both also share
//! address CSE, so it is not a knob (`Lowerer::address` says why).

use crate::ast::KernelDef;
use crate::fold::FoldLevel;
use crate::lower::{lower, CodegenStyle};
use crate::ptxas;
use gpucmp_ptx::{validate_kernel, InstStats, Kernel};

/// Which programming model an application build targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Api {
    /// CUDA 3.2-era toolchain.
    Cuda,
    /// OpenCL 1.1-era toolchain.
    OpenCl,
}

impl Api {
    /// The front-end style for this API.
    pub fn style(self) -> CodegenStyle {
        match self {
            Api::Cuda => cuda_style(),
            Api::OpenCl => opencl_style(),
        }
    }

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            Api::Cuda => "CUDA",
            Api::OpenCl => "OpenCL",
        }
    }

    /// Both APIs, CUDA first.
    pub const fn both() -> [Api; 2] {
        [Api::Cuda, Api::OpenCl]
    }
}

/// The mature NVOPENCC-style front-end.
pub fn cuda_style() -> CodegenStyle {
    CodegenStyle {
        name: "nvopencc",
        fold: FoldLevel::Aggressive,
        strength_reduce_bitops: false,
        imm_via_mov: true,
        fuse_mad: false,
        spill_budget: 40,
        hoist_unrolled_loads: false,
        demote_carried_vars: false,
    }
}

/// The younger OpenCL front-end.
pub fn opencl_style() -> CodegenStyle {
    CodegenStyle {
        name: "oclc",
        fold: FoldLevel::Basic,
        strength_reduce_bitops: true,
        imm_via_mov: false,
        fuse_mad: true,
        spill_budget: 64,
        hoist_unrolled_loads: true,
        demote_carried_vars: true,
    }
}

/// A fully compiled kernel.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The front-end output ("PTX"): the artefact Table V tallies.
    pub ptx: Kernel,
    /// The executable kernel after the `ptxas` backend.
    pub exec: Kernel,
    /// Static statistics of the PTX form.
    pub ptx_stats: InstStats,
    /// Backend report.
    pub ptxas: ptxas::PtxasReport,
}

/// Compilation error.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileError(pub String);

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// Compile a kernel definition with an explicit style and device register
/// cap.
pub fn compile_with_style(
    def: &KernelDef,
    style: &CodegenStyle,
    max_regs_per_thread: u32,
) -> Result<Compiled, CompileError> {
    let ptx = lower(def, style);
    validate_kernel(&ptx).map_err(|e| CompileError(format!("front-end output invalid: {e}")))?;
    let ptx_stats = InstStats::of_kernel(&ptx);
    let mut exec = ptx.clone();
    let report = ptxas::run(&mut exec, max_regs_per_thread);
    validate_kernel(&exec).map_err(|e| CompileError(format!("ptxas output invalid: {e}")))?;
    Ok(Compiled {
        ptx,
        exec,
        ptx_stats,
        ptxas: report,
    })
}

/// Compile for an API with a device register cap.
pub fn compile(
    def: &KernelDef,
    api: Api,
    max_regs_per_thread: u32,
) -> Result<Compiled, CompileError> {
    compile_with_style(def, &api.style(), max_regs_per_thread)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{global_id_x, DslKernel, Expr, Unroll};
    use gpucmp_ptx::{InstClass, Ty};

    /// A kernel with foldable structure: unrolled loop with per-iteration
    /// conditionals and constant math — a miniature of the FFT situation.
    #[allow(clippy::approx_constant)] // deliberately a literal, like source code would have
    fn foldable_kernel() -> KernelDef {
        let mut k = DslKernel::new("mini_fft");
        let out = k.param_ptr("out");
        let gid = k.let_(Ty::S32, global_id_x());
        k.for_(0i64, 8i64, 1, Unroll::Full, |k, i| {
            // sign flip decided by a comparison on the (constant after
            // unrolling) loop index
            let sign = crate::ast::select(i.clone().lt(4i32), 1.0f32, -1.0f32);
            let angle = i.clone().cast(Ty::F32) * 0.785398f32;
            let tw = angle.cos();
            let idx = Expr::from(gid) * 8i32 + i.clone();
            // index arithmetic with power-of-two structure
            let swizzled = (idx.clone() % 8i32) * 64i32 + idx.clone() / 8i32;
            let _ = swizzled.clone();
            k.st_global(out.clone(), swizzled, Ty::F32, sign * tw);
        });
        k.finish()
    }

    #[test]
    fn cuda_folds_opencl_does_not() {
        let def = foldable_kernel();
        let c = compile(&def, Api::Cuda, 124).unwrap();
        let o = compile(&def, Api::OpenCl, 124).unwrap();
        // CUDA folded the selects/compares away; OpenCL kept flow control.
        assert!(
            c.ptx_stats.class_total(InstClass::FlowControl)
                < o.ptx_stats.class_total(InstClass::FlowControl),
            "CUDA fc={} OpenCL fc={}",
            c.ptx_stats.class_total(InstClass::FlowControl),
            o.ptx_stats.class_total(InstClass::FlowControl)
        );
        // OpenCL strength-reduced to logic/shift ops; CUDA has none.
        let o_bits =
            o.ptx_stats.class_total(InstClass::Logic) + o.ptx_stats.class_total(InstClass::Shift);
        let c_bits =
            c.ptx_stats.class_total(InstClass::Logic) + c.ptx_stats.class_total(InstClass::Shift);
        assert!(o_bits > c_bits, "OpenCL bits={o_bits} CUDA bits={c_bits}");
        // CUDA is mov-heavy in PTX form.
        assert!(
            c.ptx_stats.count("mov") > o.ptx_stats.count("mov"),
            "CUDA mov={} OpenCL mov={}",
            c.ptx_stats.count("mov"),
            o.ptx_stats.count("mov")
        );
        // identical global traffic instructions
        assert_eq!(c.ptx_stats.st_global(), o.ptx_stats.st_global());
    }

    #[test]
    fn ptxas_shrinks_cuda_ptx() {
        let def = foldable_kernel();
        let c = compile(&def, Api::Cuda, 124).unwrap();
        let exec_stats = InstStats::of_kernel(&c.exec);
        assert!(
            exec_stats.total() < c.ptx_stats.total(),
            "exec {} >= ptx {}",
            exec_stats.total(),
            c.ptx_stats.total()
        );
        // executable form keeps the stores
        assert_eq!(exec_stats.st_global(), c.ptx_stats.st_global());
    }

    #[test]
    fn compiled_kernels_have_physical_resources() {
        let def = foldable_kernel();
        for api in Api::both() {
            let k = compile(&def, api, 63).unwrap();
            assert!(k.exec.phys_regs >= 2);
            assert!(k.exec.phys_regs <= 63);
        }
    }

    #[test]
    fn api_metadata() {
        assert_eq!(Api::Cuda.name(), "CUDA");
        assert_eq!(Api::OpenCl.name(), "OpenCL");
        assert_eq!(Api::Cuda.style().name, "nvopencc");
        assert_ne!(Api::Cuda.style(), Api::OpenCl.style());
    }
}
