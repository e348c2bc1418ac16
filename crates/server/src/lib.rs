//! `gpucmp-server` — a multi-tenant session service over the virtual
//! GPUs.
//!
//! The simulator's sessions already have CUDA's sticky-fault semantics
//! (one faulting kernel poisons *its* context and nothing else); this
//! crate puts a server in front of them and makes the isolation story a
//! service contract:
//!
//! - [`pool`] — a wasmtime-style **pooling allocator**: every session
//!   slot and its device-memory arena is allocated at startup and
//!   recycled on session close. Steady state never allocates, and the
//!   pool size is the hard ceiling behind `Busy` backpressure.
//! - [`service`] — **admission control and per-tenant quotas** (open
//!   sessions, resident device bytes, in-flight launches, and a
//!   per-launch instruction budget enforced by the device watchdog),
//!   all violations surfacing as *typed* errors, never hangs.
//! - [`protocol`] — a dependency-free length-prefixed wire protocol
//!   with typed error classes; only [`protocol::ErrorKind::Busy`] is
//!   retryable.
//! - [`server`] — a thread-per-connection TCP front end.
//! - [`client`] — a blocking client with deadline-aware, *seeded*
//!   exponential-backoff retry (deterministic under a fixed seed).
//! - [`kernels`] — the server-side kernel registry: tenants launch
//!   vetted kernels by name; `spin` and `oob` exist as chaos vectors
//!   for watchdog and fault-isolation testing.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod client;
pub mod kernels;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::{Client, RetryPolicy};
pub use protocol::{ErrorKind, Request, Response, ServerStats};
pub use server::{serve, serve_local, ClientError, ServerHandle};
pub use service::{ServerConfig, SessionService, TenantQuota, TenantTrace};
