//! A thread-based message-passing runtime with virtual time.
//!
//! The paper executes SummaGen with Intel MPI, mapping one MPI process to
//! one *abstract processor* (a CPU socket group, a GPU plus its host core,
//! or a Xeon Phi plus its host core). This crate reproduces the MPI
//! machinery SummaGen needs — ranks, communicators, sub-communicators
//! from a known member list (the paper's `get_subp_comm` builds
//! row/column communicators), point-to-point send/receive, broadcast,
//! gather and barrier — on top of OS threads and an in-crate channel
//! implementation (or loopback TCP).
//!
//! Three things distinguish it from a plain channel wrapper:
//!
//! * **Virtual clocks.** Every rank carries a [`VirtualClock`]. Communication
//!   operations advance clocks according to a pluggable [`CostModel`] — the
//!   Hockney model `α + β·m` the paper cites — and computation advances them
//!   via [`Communicator::advance_compute`]. This lets the same algorithm
//!   execute with *simulated* heterogeneous-platform timing while the data
//!   movement itself is performed for real between threads.
//! * **Phantom payloads.** For paper-scale problem sizes (N up to 38 416 ⇒
//!   tens of gigabytes) a message can carry only its element count. The cost
//!   model and traffic accounting see the same byte counts either way, so
//!   timed experiments and numeric correctness runs share one code path.
//! * **Fault tolerance.** Every operation has one fallible `try_` form
//!   returning [`CommResult`] (`send`, `recv` and `bcast` also keep a
//!   panicking form for the wall-clock benchmark); a deterministic
//!   [`FaultPlan`] can kill ranks, drop or delay messages, and slow clocks
//!   at seeded trigger points; and [`Universe::try_run`] catches per-rank panics, runs a
//!   death-notice protocol that unblocks the victim's peers within
//!   milliseconds, and reports the aggregate [`RankFailure`].
//!
//! The runtime can additionally report every send, receive, collective,
//! GEMM, stage, and rank death as a typed [`SpanRecord`] to an
//! [`EventSink`] installed with [`Universe::with_event_sink`] — see the
//! [`span`] module and the `summagen-trace` crate, which turns the stream
//! into Perfetto timelines and critical-path reports. Orthogonally, a
//! [`RuntimeMetrics`] bundle installed with [`Universe::with_metrics`]
//! aggregates the same activity into wait-free counters and latency
//! histograms (`summagen-metrics`), exportable as Prometheus text.

pub mod clock;
pub mod comm;
pub mod error;
pub mod fault;
pub mod message;
pub mod span;
pub mod universe;

mod chan;
mod sync;
mod tcp;
mod transport;

pub use clock::{ClockSnapshot, CostModel, HockneyModel, TwoLevelTopology, VirtualClock, ZeroCost};
pub use comm::{BcastAlgorithm, Communicator, TrafficStats};
pub use error::{CommError, CommResult, FailedRank, FailureCause, RankFailure};
pub use fault::{
    BlockCorrupt, FaultPlan, HangSpec, InjectedHang, InjectedKill, KillSpec, LinkPlan, MsgCorrupt,
    MsgFault,
};
pub use message::Payload;
pub use span::{AbftLabel, CollectiveOp, EventSink, MsgOutcome, SpanKind, SpanRecord, StageLabel};
pub use transport::Backend;
pub use universe::{Universe, DEFAULT_RECV_TIMEOUT};

// Aggregate metrics live below comm (same layering as the span
// vocabulary): re-export the bundle type `Universe::with_metrics` takes so
// callers need not name the metrics crate separately.
pub use summagen_metrics::RuntimeMetrics;
