//! # gpucmp-ptx — a PTX-like virtual ISA
//!
//! This crate defines the intermediate representation that the two front-end
//! compilers of `gpucmp-compiler` lower kernels into, and that the SIMT
//! interpreter of `gpucmp-sim` executes. It plays the role that NVIDIA's
//! PTX ("Parallel Thread Execution") virtual machine and ISA play in the
//! paper's development flow (step 5 of the eight-step fair-comparison model).
//!
//! The ISA is deliberately close to PTX 2.x in spirit:
//!
//! - typed virtual registers ([`Reg`]) in an unbounded register file,
//! - state spaces (`global`, `shared`, `local`, `const`, `param`) on loads
//!   and stores,
//! - the same instruction classes the paper's Table V tallies: arithmetic
//!   (`add`, `sub`, `mul`, `div`, `fma`, `mad`, `neg`, ...), logic (`and`,
//!   `or`, `xor`, `not`), shifts (`shl`, `shr`), data movement (`mov`, `cvt`,
//!   `ld.*`, `st.*`), flow control (`setp`, `selp`, `bra`) and
//!   synchronization (`bar.sync`),
//! - special registers (`%tid`, `%ntid`, `%ctaid`, `%nctaid`, `%laneid`,
//!   `%warpid`) read through `mov`,
//! - texture fetches (`tex`) against texture references bound by the host
//!   runtime.
//!
//! One deviation from real PTX: because all our kernels are produced from a
//! structured AST, divergence is expressed with explicit reconvergence
//! markers — [`Inst::Ssy`] pushes a reconvergence point and [`Inst::SyncPoint`]
//! reconverges — mirroring the `SSY`/`.S` mechanism of NVIDIA's SASS rather
//! than leaving reconvergence analysis to the simulator.
//!
//! The [`stats`] module computes the per-opcode static instruction counts
//! used to regenerate the paper's Table V.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod builder;
pub mod display;
pub mod hash;
pub mod inst;
pub mod kernel;
pub mod reg;
pub mod stats;
pub mod ty;
pub mod validate;

pub use builder::KernelBuilder;
pub use hash::kernel_hash;
pub use inst::{Address, AtomOp, CmpOp, Inst, Op1, Op2, Op3, TexRef};
pub use kernel::{ConstSegment, Kernel, LabelId, Module, Param, ResolvedKernel};
pub use reg::{Operand, Reg, Special};
pub use stats::{classify, InstClass, InstStats};
pub use ty::{Space, Ty};
pub use validate::{validate_kernel, ValidateError};
