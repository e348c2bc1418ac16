//! # gpucmp-fuzz — differential kernel fuzzing
//!
//! The confidence harness behind the reproduction's central claim: that the
//! CUDA-style and OpenCL-style paths through the system compute the *same
//! thing*, differing only in performance. A seeded generator ([`gen`])
//! emits random-but-well-formed kernels over the `gpucmp-compiler` AST;
//! the differential oracle ([`oracle`]) lowers each through both
//! front-ends and runs the result across execution tiers, simulator thread
//! counts, memcheck modes and device models, asserting bit-equal memory,
//! consistent `ExecStats`, and identical fault kind/site. On a mismatch
//! the reducer ([`reduce`](mod@reduce)) shrinks the case to a minimal reproducer and
//! the runner ([`runner`]) writes it to `corpus/` as a replayable
//! [`kdsl`] file.
//!
//! Entry points: the `fuzz` binary (`--cases N --seed S --replay <file>`),
//! [`runner::campaign`] and [`runner::replay_file`].

pub mod gen;
pub mod kdsl;
pub mod oracle;
pub mod reduce;
pub mod rng;
pub mod runner;

pub use gen::{generate, BufferSpec, FuzzCase, ScalarSpec};
pub use kdsl::{load_case, write_case};
pub use oracle::{Divergence, MutateMode, Oracle};
pub use reduce::reduce;
pub use rng::{case_seed, Rng};
