//! # fgh-serve — partition-as-a-service daemon
//!
//! A long-running decomposition service over the `fgh-core` engine:
//! clients submit jobs (a catalog matrix name or inline Matrix Market
//! text, plus model/K/ε/seed) over a length-prefixed JSON protocol on
//! TCP or a unix socket, and get back partitions or *typed* errors —
//! never a hung connection, never a crashed daemon.
//!
//! Built deliberately on threads (no async runtime): decomposition jobs
//! are CPU-bound and worth milliseconds to seconds each, so a bounded
//! queue + worker pool is the honest architecture and the whole daemon
//! stays dependency-free.
//!
//! ## Resilience machinery
//!
//! * **Admission control** ([`queue`]): a bounded queue; a full queue is
//!   a typed `overloaded` rejection with a `retry_after_ms` hint, not
//!   invisible latency. Per-request wall/byte budgets are clamped under
//!   the server's ceiling ([`fgh_core::Budget::intersect`]).
//! * **Cooperative cancellation** ([`fgh_core::CancelToken`]): a client
//!   that disconnects mid-request has its job cancelled at the engine's
//!   next multilevel checkpoint; the drain deadline cancels stragglers
//!   the same way.
//! * **Supervision** ([`worker`]): every job runs under `catch_unwind`;
//!   a panic produces a typed `worker-panic` response, quarantines the
//!   shared arena pool (drops its idle arenas), and the worker keeps
//!   serving. A worker thread lost outright is respawned.
//! * **Shared cores** ([`server::ServeConfig`]): every job runs under
//!   the daemon's budget ceiling, inside one fork-join pool as wide as
//!   the daemon's thread budget (all cores by default). A job forks its
//!   recursion subtrees onto the cores the other workers leave idle, so
//!   a lone miss decomposes on every core while a full house runs one
//!   thread per worker; partitions are bit-identical either way.
//! * **Graceful shutdown** ([`server`]): SIGTERM (or
//!   [`server::ServerHandle::shutdown`]) stops admission, drains queued
//!   and in-flight jobs under a deadline, and flushes a final
//!   [`metrics::ServeSnapshot`] report (`fgh-serve-metrics/1`).
//! * **Plan cache** ([`cache`]): keyed by a 128-bit SipHash digest of
//!   the request's matrix source and parameters under keys drawn per
//!   daemon, LRU under a byte cap. A hit answers without building the
//!   matrix, and its plan is first checked, matrix-free, against the
//!   order and nonzero count recorded with it and the request's K — a
//!   corrupt entry is quarantined, not returned.
//!
//! The crate also ships the load generator ([`client::run_load`]) that
//! CI's smoke job uses to prove all of the above under concurrent
//! hostile traffic.

// Robustness contract: the daemon faces untrusted clients and must not
// panic outside tests. Sites that are provably infallible carry a
// narrowly scoped `allow` with a justification.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod client;
pub mod metrics;
pub mod net;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod signal;
pub mod worker;

pub use cache::PlanCache;
pub use client::{run_load, LoadConfig, LoadReport, ServeClient};
pub use metrics::{
    validate_serve_metrics_value, ServeCounters, ServeSnapshot, SERVE_METRICS_SCHEMA,
};
pub use net::Listen;
pub use protocol::{codes, MAX_FRAME_BYTES};
pub use queue::BoundedQueue;
pub use server::{ServeConfig, Server, ServerHandle};
