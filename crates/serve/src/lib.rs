//! `lhmm-serve`: an online map-matching service over the LHMM engine,
//! built entirely on `std`.
//!
//! The serving stack (ISSUE 4 tentpole) has three load-bearing pieces:
//!
//! * **Micro-batch scheduler** ([`scheduler`]): one-shot requests enter a
//!   bounded admission queue and are coalesced into size-or-deadline
//!   batches dispatched onto a worker pool. Each worker owns a private
//!   [`HmmEngine`](lhmm_core::viterbi::HmmEngine) whose scratch arenas and
//!   shortest-path cache recycle across requests — results are
//!   byte-identical to serial offline matching (cache state never changes
//!   answers, only speed).
//! * **Session manager** ([`session`]): multi-tenant fixed-lag streaming
//!   sessions keyed by client id, with idle-timeout sweeping and LRU
//!   eviction at the cap; every session ends through one reason-taking
//!   call.
//! * **Admission control** ([`admission`]): when the service cannot take
//!   more work it says so immediately with a typed [`RejectReason`] —
//!   queue full, session limit, shutting down, oversized — instead of
//!   queueing unboundedly.
//!
//! The wire protocol ([`protocol`]) is a length-prefixed binary framing
//! over TCP; [`client`] is the blocking in-crate client. [`server`] ties
//! it together and guarantees graceful drain: stop admissions, flush every
//! admitted request, end open sessions, join all threads, report metrics
//! ([`metrics`]).
//!
//! Model versioning (ISSUE 9): every server runs against a
//! [`ModelRegistry`](lhmm_core::registry::ModelRegistry). Work is pinned
//! to the active version at admission; hot swaps only affect later
//! admissions, shadow mode mirrors a fraction of one-shots through a
//! candidate version, and reports slice latency by version
//! ([`lhmm_eval::versioned`]).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

pub mod admission;
pub mod client;
pub mod cluster;
pub mod metrics;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod session;

pub use admission::{BoundedQueue, PushError, RejectReason};
pub use client::{ClientError, ModelsReply, RouteReply, ServeClient};
pub use cluster::{ClusterConfig, ClusterHandle, ClusterReport, ClusterTopology};
pub use metrics::{ServeMetrics, ServeReport};
pub use protocol::{Request, Response, WireError, WireMatchError, MAX_FRAME};
pub use scheduler::{BatchPolicy, MatchReply, MicroBatcher, ServeCtx};
pub use server::{ServeConfig, ServerHandle};
pub use session::{EndReason, SessionFinish, SessionManager, SessionPolicy};
