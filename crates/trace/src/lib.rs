//! # gpucmp-trace — observability exports for the simulator
//!
//! Two serialisation targets for a profiled run, both built on a small
//! dependency-free JSON module ([`json`]):
//!
//! - [`chrome::chrome_trace`] turns a traced [`gpucmp_runtime::Session`]
//!   (see `Gpu::set_tracing`) into a Chrome Trace Event Format document
//!   that opens directly in `ui.perfetto.dev` — one track per compute
//!   unit, plus PCIe, API-overhead and counter tracks.
//! - [`report::BenchReport`] is the flat `BENCH_<timestamp>.json` file
//!   `examples/reproduce_paper` emits: one row per (benchmark, device,
//!   API) with the full hardware-counter set, plus per-pair PRs with a
//!   machine-derived *dominant counter* attribution. The CI gate parses
//!   this file and fails on paper-shape regressions.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod chrome;
pub mod json;
pub mod report;

pub use chrome::{chrome_trace, chrome_trace_multi};
pub use json::{parse, Json, JsonError};
pub use report::{
    dominant_counter, BenchReport, BenchRun, PrEntry, RUN_FAULT_SKIPPED, RUN_OK, SCHEMA_VERSION,
};
