//! # gpucmp — CUDA vs. OpenCL performance comparison, reproduced in Rust
//!
//! Umbrella crate re-exporting the whole workspace. See the individual crates:
//!
//! - [`ptx`] — the PTX-like virtual ISA,
//! - [`sim`] — the deterministic SIMT architecture simulator,
//! - [`compiler`] — the kernel DSL and the two front-ends,
//! - [`runtime`] — the CUDA-flavoured and OpenCL-flavoured host APIs,
//! - [`benchmarks`] — the 16 benchmarks of the paper,
//! - [`core`] — the comparison methodology (PR metric, fair comparison,
//!   experiment registry),
//! - [`tuner`] — the auto-tuner the paper proposes as future work.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub use gpucmp_benchmarks as benchmarks;
pub use gpucmp_compiler as compiler;
pub use gpucmp_core as core;
pub use gpucmp_ptx as ptx;
pub use gpucmp_runtime as runtime;
pub use gpucmp_sim as sim;
pub use gpucmp_trace as trace;
pub use gpucmp_tuner as tuner;
