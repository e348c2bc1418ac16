//! # gpucmp-sim — a deterministic SIMT architecture simulator
//!
//! This crate stands in for the physical hardware of the paper's three
//! testbeds (Saturn/GTX480, Dutijc/GTX280, Jupiter/HD5870, plus the
//! Intel i7-920 and Cell/BE OpenCL devices). It executes kernels expressed
//! in the [`gpucmp_ptx`] virtual ISA both *functionally* (every thread's
//! arithmetic and memory effects are interpreted, so benchmark outputs can
//! be verified against CPU references) and *temporally* (an analytic timing
//! model turns the observed execution trace into virtual nanoseconds).
//!
//! ## Architecture model
//!
//! - [`device`] — the device catalogue with datasheet-derived specifications
//!   (paper Table IV) and the occupancy calculator.
//! - [`exec`] — the lockstep SIMT interpreter and block scheduler: warps
//!   execute in lockstep with a divergence stack (`ssy`/`sync`
//!   reconvergence), barriers synchronize warps within a block, and
//!   independent blocks are simulated in parallel across host threads
//!   ([`ExecOptions`]) with per-block write overlays and stat buffers
//!   merged in ascending block order — bit-identical at every thread
//!   count.
//! - [`mem`] — flat global memory with a bump allocator and the
//!   copy-on-write write overlay every block writes through.
//! - `cost` and [`cache`] — the memory cost model, behind one entry point:
//!   coalescing into DRAM transactions, set-associative
//!   L1/L2/texture/constant caches, shared-memory bank conflicts, DRAM
//!   partitions.
//! - [`timing`] — the roofline-style cost model: compute cycles vs. DRAM
//!   bytes vs. latency-hiding limits, modulated by occupancy.
//!
//! Determinism: there is no wall-clock or host-machine dependence anywhere;
//! identical inputs produce bit-identical memory contents, statistics, and
//! virtual times on every run.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

mod alu;
pub mod cache;
mod cost;
pub mod decode;
pub mod device;
mod dispatch;
pub mod error;
pub mod exec;
pub mod launch;
pub mod mem;
pub mod stats;
pub mod timing;

pub use cache::Cache;
pub use decode::{decode_kernel, DecodedKernel, ExecTier};
pub use device::{Arch, DeviceKind, DeviceSpec};
pub use error::{DeviceFault, FaultKind, FaultSite, SimError};
pub use exec::{ExecOptions, ExecProfile};
pub use launch::{
    launch, launch_with, launch_with_code, Dim3, LaunchConfig, LaunchReport, TexBinding,
};
pub use mem::{DevPtr, GlobalMemory, WriteOverlay};
pub use stats::{CounterSet, ExecStats};
pub use timing::{ScheduledOp, TimelineOp, TimelineResource, TimelineState};
