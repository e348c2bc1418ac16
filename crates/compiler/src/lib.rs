//! # gpucmp-compiler — the kernel DSL and the two front-end compilers
//!
//! Implements steps 3-6 of the paper's eight-step development flow:
//!
//! - [`ast`] — the "native kernel" source form, in which each benchmark is
//!   written once;
//! - [`unroll`] — `#pragma unroll` handling (paper Figs. 6-7);
//! - [`fold`] — constant folding at two maturity levels;
//! - [`lower`] — code generation with a per-front-end [`lower::CodegenStyle`];
//! - [`frontend`] — the CUDA (`nvopencc`-style) and OpenCL front-end presets
//!   and the full `compile` pipeline (the per-knob rationale, with pointers
//!   to the paper's Table V evidence, is documented there);
//! - [`ptxas`] — the backend: propagation, fusion, DCE, device-cap
//!   spilling, physical register accounting;
//! - `regalloc` (crate-private) — the one register analysis (control-flow
//!   graph, liveness, pressure) and spilling, shared by the front-ends'
//!   budget check and `ptxas`.
//!
//! The same kernel definition compiled through the two front-ends produces
//! functionally identical but statically different code — the code-quality
//! gap the paper measures.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod ast;
pub mod fold;
pub mod frontend;
pub mod lower;
pub mod ptxas;
mod regalloc;
pub mod unroll;

pub use ast::{
    global_id_x, global_id_y, global_size_x, ld_global, select, tex1d, Builtin, ConstArray,
    DslKernel, Expr, KernelDef, SharedArray, Stmt, Unroll, Var,
};
pub use fold::FoldLevel;
pub use frontend::{
    compile, compile_with_style, cuda_style, opencl_style, Api, CompileError, Compiled,
};
pub use lower::CodegenStyle;
