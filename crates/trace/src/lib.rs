//! Structured tracing for the SummaGen runtime: record, aggregate,
//! export.
//!
//! The paper's argument is about *execution shape* — where each
//! processor's time goes between communication and computation under
//! different partition geometries. End-to-end virtual times cannot show
//! that; this crate turns the runtime's span stream (see
//! `summagen_comm::span`) into things that can:
//!
//! * [`TraceRecorder`] — the canonical `EventSink`: one bounded ring
//!   buffer per rank behind its own lock, wall-clock stamping, no
//!   contention between ranks. Install with
//!   `Universe::with_event_sink`, extract a [`RecordedTrace`] with
//!   [`TraceRecorder::finish`] after the run.
//! * [`metrics`] — per-rank busy/idle/comm fractions and per-link byte
//!   volumes ([`TraceMetrics`]).
//! * [`critical_path`] — the chain of leaf events through the
//!   happens-before DAG (program order within a rank, matched
//!   `(sender, seq)` edges across ranks) that bounds the makespan
//!   ([`CriticalPath`]); its end time equals the executor's reported
//!   virtual time.
//! * [`replay`](crate::replay::replay) — causal what-if replay: rescale
//!   the demand of a span class, link, or device ([`Intervention`]) and
//!   re-time the trace through the same happens-before DAG, so "comm
//!   free" or "device 2 twice as fast" get concrete makespans.
//! * [`perfetto_json`] — Chrome/Perfetto trace-event export on the
//!   virtual-clock timebase, two tracks per rank (ops and enclosing
//!   phases).
//! * [`folded_stacks`] — folded-stack flamegraph export (one line per
//!   unique `rank;stage;collective;op` stack, weighted in virtual
//!   nanoseconds) for `flamegraph.pl`, inferno, or speedscope.
//!
//! Clock domains: every span interval is **virtual** time (the Hockney
//! cost model's schedule); each recorded span additionally carries a
//! **wall-clock** stamp ([`TraceSpan::wall_ns`]) for debugging the host
//! run itself. Wall time is excluded from
//! [`RecordedTrace::canonical_bytes`], which is the determinism witness:
//! same shape + same seed ⇒ byte-identical canonical stream.

pub mod analysis;
pub mod flamegraph;
pub mod perfetto;
pub mod recorder;
pub mod replay;
mod ring;

pub use analysis::{
    critical_path, metrics, CpSegment, CriticalPath, LinkVolume, RankMetrics, TraceMetrics,
};
pub use flamegraph::folded_stacks;
pub use perfetto::perfetto_json;
pub use recorder::{RecordedTrace, TraceRecorder, TraceSpan, DEFAULT_RING_CAPACITY};
pub use replay::{replay, Intervention, Replay, Target};
