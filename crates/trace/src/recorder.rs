//! The [`TraceRecorder`]: the canonical [`EventSink`] — one bounded
//! ring per rank, wall-clock stamping, and extraction into a
//! [`RecordedTrace`] once the run has finished.
//!
//! In a threaded run each rank's thread writes its own ring; in a hosted
//! run (`Universe::host`) the hosting thread writes every ring. Each ring
//! sits behind its own lock, so any other interleaving — two threads on
//! one rank, a read while a run is going — stays sound; it just waits.

use std::sync::Arc;
use std::time::Instant;

use summagen_comm::span::{EventSink, SpanKind, SpanRecord};

use crate::ring::RingBuffer;

/// Default per-rank capacity: 64Ki spans ≈ a few MB per rank, far above
/// what any paper-shape run emits.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One recorded span plus its wall-clock stamp.
///
/// The virtual interval lives in [`TraceSpan::record`]; `wall_ns` is when
/// (in real nanoseconds since the recorder was created) the event was
/// *recorded*. Wall time is inherently nondeterministic, which is why it
/// is kept beside — not inside — the canonical event data and excluded
/// from [`RecordedTrace::canonical_bytes`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// The virtual-time event as reported by the runtime.
    pub record: SpanRecord,
    /// Wall-clock nanoseconds since the recorder's epoch.
    pub wall_ns: u64,
}

/// Collects every span of a run into per-rank ring buffers.
///
/// Install with `Universe::with_event_sink(recorder.clone())`, run, then
/// call [`TraceRecorder::finish`]. The record path is one uncontended lock
/// and a slot store per event: ranks never contend because each rank has
/// its own ring. Rings grow with what they record, so a recorder for a
/// thousand ranks costs nothing until spans arrive.
pub struct TraceRecorder {
    rings: Vec<RingBuffer<TraceSpan>>,
    epoch: Instant,
}

impl TraceRecorder {
    /// Recorder for `nranks` ranks with the default per-rank capacity.
    pub fn new(nranks: usize) -> Arc<Self> {
        Self::with_capacity(nranks, DEFAULT_RING_CAPACITY)
    }

    /// Recorder with an explicit per-rank ring capacity. When a rank
    /// emits more spans than fit, the oldest are overwritten and counted
    /// in [`RecordedTrace::dropped`].
    pub(crate) fn with_capacity(nranks: usize, capacity: usize) -> Arc<Self> {
        assert!(nranks > 0, "recorder needs at least one rank");
        Arc::new(Self {
            rings: (0..nranks).map(|_| RingBuffer::new(capacity)).collect(),
            epoch: Instant::now(),
        })
    }

    /// Number of ranks this recorder covers.
    pub fn nranks(&self) -> usize {
        self.rings.len()
    }

    /// Extracts everything recorded so far into a [`RecordedTrace`].
    ///
    /// Call after the traced run has returned (`Universe::run` / `try_run`
    /// join every rank thread and `Universe::host` runs on the caller) to
    /// see every span; an earlier call sees the spans recorded so far.
    pub fn finish(&self) -> RecordedTrace {
        let spans: Vec<Vec<TraceSpan>> = self.rings.iter().map(|r| r.snapshot()).collect();
        let dropped = self.rings.iter().map(|r| r.dropped()).sum();
        RecordedTrace {
            nranks: self.rings.len(),
            spans,
            dropped,
        }
    }
}

impl EventSink for TraceRecorder {
    fn record(&self, span: SpanRecord) {
        let wall_ns = self.epoch.elapsed().as_nanos() as u64;
        let rank = span.rank;
        assert!(
            rank < self.rings.len(),
            "span from rank {rank} but recorder covers {} ranks",
            self.rings.len()
        );
        self.rings[rank].push(TraceSpan {
            record: span,
            wall_ns,
        });
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("nranks", &self.rings.len())
            .finish()
    }
}

/// A finished trace: per-rank span lists in program order.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    /// Number of ranks in the traced universe.
    pub nranks: usize,
    /// `spans[r]` is rank `r`'s events in the order it emitted them
    /// (each span is recorded at its end, so end times are
    /// non-decreasing within a rank).
    pub spans: Vec<Vec<TraceSpan>>,
    /// Spans lost to ring-buffer overwrite, summed over ranks.
    pub dropped: u64,
}

impl RecordedTrace {
    /// Total spans across all ranks.
    pub fn len(&self) -> usize {
        self.spans.iter().map(Vec::len).sum()
    }

    /// Whether no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.iter().all(Vec::is_empty)
    }

    /// Iterates all spans, rank by rank in program order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceSpan> {
        self.spans.iter().flatten()
    }

    /// The canonical byte serialization of the *deterministic* part of
    /// the trace: rank, virtual start/end (exact `f64` bits), and every
    /// event field except the wall-clock domain (`wall_ns`, and a GEMM's
    /// measured `kernel_ns`). Two runs with the same shape, seed, and
    /// cost model must produce byte-identical output — the determinism
    /// guarantee the fault-injection replay machinery relies on.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 * self.len() + 16);
        push_u64(&mut out, self.nranks as u64);
        for rank_spans in &self.spans {
            push_u64(&mut out, rank_spans.len() as u64);
            for ts in rank_spans {
                let r = &ts.record;
                push_u64(&mut out, r.rank as u64);
                push_u64(&mut out, r.start.to_bits());
                push_u64(&mut out, r.end.to_bits());
                push_kind(&mut out, &r.kind);
            }
        }
        out
    }
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_kind(out: &mut Vec<u8>, kind: &SpanKind) {
    match kind {
        SpanKind::Send {
            dst,
            tag,
            bytes,
            seq,
            outcome,
        } => {
            out.push(0);
            push_u64(out, *dst as u64);
            push_u64(out, *tag);
            push_u64(out, *bytes);
            push_u64(out, *seq);
            out.extend_from_slice(outcome.label().as_bytes());
        }
        SpanKind::Recv {
            src,
            tag,
            bytes,
            seq,
        } => {
            out.push(1);
            push_u64(out, *src as u64);
            push_u64(out, *tag);
            push_u64(out, *bytes);
            push_u64(out, *seq);
        }
        SpanKind::Collective {
            op,
            root,
            comm_size,
        } => {
            out.push(2);
            out.extend_from_slice(op.label().as_bytes());
            push_u64(out, *root as u64);
            push_u64(out, *comm_size as u64);
        }
        // kernel_ns is wall-clock domain: deliberately excluded.
        SpanKind::Gemm { m, n, k, flops, .. } => {
            out.push(3);
            push_u64(out, *m as u64);
            push_u64(out, *n as u64);
            push_u64(out, *k as u64);
            push_u64(out, flops.to_bits());
        }
        SpanKind::Stage { stage } => {
            out.push(4);
            out.extend_from_slice(stage.label().as_bytes());
        }
        SpanKind::RankDeath { cause } => {
            out.push(5);
            out.extend_from_slice(cause.as_bytes());
        }
        SpanKind::Abft { op, step, elems } => {
            out.push(6);
            out.extend_from_slice(op.label().as_bytes());
            push_u64(out, *step);
            push_u64(out, *elems);
        }
        SpanKind::Retransmit {
            dst,
            tag,
            seq,
            attempt,
        } => {
            out.push(7);
            push_u64(out, *dst as u64);
            push_u64(out, *tag);
            push_u64(out, *seq);
            push_u64(out, u64::from(*attempt));
        }
        // Heartbeats are wall-clock-paced: their *presence* is
        // deterministic only in aggregate, so only the sequence number
        // participates; traces meant for byte-identical replay should
        // run without a heartbeat detector.
        SpanKind::Heartbeat { seq } => {
            out.push(8);
            push_u64(out, *seq);
        }
        SpanKind::Sched {
            job,
            n,
            batch,
            jobs,
            policy,
        } => {
            out.push(9);
            push_u64(out, *job);
            push_u64(out, *n);
            push_u64(out, *batch);
            push_u64(out, *jobs);
            out.extend_from_slice(policy.as_bytes());
        }
        SpanKind::Quarantine { failures, opens } => {
            out.push(10);
            push_u64(out, *failures);
            push_u64(out, *opens);
        }
        SpanKind::SloAlert {
            tenant,
            slo,
            burn_fast,
            burn_slow,
        } => {
            out.push(11);
            push_u64(out, *tenant);
            out.extend_from_slice(slo.as_bytes());
            push_u64(out, burn_fast.to_bits());
            push_u64(out, burn_slow.to_bits());
        }
        SpanKind::Recover {
            epoch,
            records,
            recovered_jobs,
            torn_bytes,
        } => {
            out.push(12);
            push_u64(out, *epoch);
            push_u64(out, *records);
            push_u64(out, *recovered_jobs);
            push_u64(out, *torn_bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_comm::span::MsgOutcome;

    fn send_span(rank: usize, start: f64, end: f64, seq: u64) -> SpanRecord {
        SpanRecord {
            rank,
            start,
            end,
            kind: SpanKind::Send {
                dst: 1,
                tag: 0,
                bytes: 80,
                seq,
                outcome: MsgOutcome::Delivered,
            },
        }
    }

    #[test]
    fn records_land_in_the_right_rank_ring() {
        let rec = TraceRecorder::new(3);
        rec.record(send_span(2, 0.0, 1.0, 0));
        rec.record(send_span(0, 0.0, 0.5, 0));
        let trace = rec.finish();
        assert_eq!(trace.spans[0].len(), 1);
        assert_eq!(trace.spans[1].len(), 0);
        assert_eq!(trace.spans[2].len(), 1);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn canonical_bytes_ignore_wall_clock() {
        let a = TraceRecorder::new(1);
        a.record(send_span(0, 0.0, 1.0, 0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = TraceRecorder::new(1);
        b.record(send_span(0, 0.0, 1.0, 0));
        let (ta, tb) = (a.finish(), b.finish());
        assert_ne!(ta.spans[0][0].wall_ns, 0);
        assert_eq!(ta.canonical_bytes(), tb.canonical_bytes());
    }

    #[test]
    fn canonical_bytes_distinguish_different_events() {
        let a = TraceRecorder::new(1);
        a.record(send_span(0, 0.0, 1.0, 0));
        let b = TraceRecorder::new(1);
        b.record(send_span(0, 0.0, 1.0, 1)); // different seq
        assert_ne!(a.finish().canonical_bytes(), b.finish().canonical_bytes());
    }

    #[test]
    fn canonical_bytes_ignore_gemm_kernel_ns() {
        let gemm = |kernel_ns| SpanRecord {
            rank: 0,
            start: 0.0,
            end: 1.0,
            kind: SpanKind::Gemm {
                m: 4,
                n: 4,
                k: 4,
                flops: 128.0,
                kernel_ns,
            },
        };
        let a = TraceRecorder::new(1);
        a.record(gemm(123));
        let b = TraceRecorder::new(1);
        b.record(gemm(456));
        assert_eq!(a.finish().canonical_bytes(), b.finish().canonical_bytes());
    }

    #[test]
    fn canonical_bytes_cover_abft_spans() {
        use summagen_comm::span::AbftLabel;
        let abft = |op, step| SpanRecord {
            rank: 0,
            start: 0.0,
            end: 1.0,
            kind: SpanKind::Abft {
                op,
                step,
                elems: 64,
            },
        };
        let a = TraceRecorder::new(1);
        a.record(abft(AbftLabel::Verify, 2));
        let b = TraceRecorder::new(1);
        b.record(abft(AbftLabel::Verify, 2));
        assert_eq!(a.finish().canonical_bytes(), b.finish().canonical_bytes());
        let c = TraceRecorder::new(1);
        c.record(abft(AbftLabel::Checkpoint, 2));
        assert_ne!(a.finish().canonical_bytes(), c.finish().canonical_bytes());
        let d = TraceRecorder::new(1);
        d.record(abft(AbftLabel::Verify, 3)); // different step
        assert_ne!(a.finish().canonical_bytes(), d.finish().canonical_bytes());
    }

    #[test]
    fn overflow_is_counted() {
        let rec = TraceRecorder::with_capacity(1, 4);
        for i in 0..10 {
            rec.record(send_span(0, i as f64, i as f64 + 1.0, i));
        }
        let trace = rec.finish();
        assert_eq!(trace.spans[0].len(), 4);
        assert_eq!(trace.dropped, 6);
    }

    #[test]
    fn wrapped_recorder_keeps_newest_spans_in_program_order() {
        // Fill a rank's ring 25× past capacity: the surviving window must
        // be the most recent spans, still in emit order, and the trace
        // must remain exportable (canonical bytes, len, iter).
        let rec = TraceRecorder::with_capacity(2, 4);
        for i in 0..103 {
            rec.record(send_span(0, i as f64, i as f64 + 1.0, i));
        }
        rec.record(send_span(1, 0.0, 1.0, 0)); // rank 1 untouched by the wrap
        let trace = rec.finish();
        assert_eq!(trace.dropped, 99);
        assert_eq!(trace.spans[0].len(), 4);
        assert_eq!(trace.spans[1].len(), 1);
        let seqs: Vec<u64> = trace.spans[0]
            .iter()
            .map(|ts| match ts.record.kind {
                SpanKind::Send { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![99, 100, 101, 102]);
        assert_eq!(trace.len(), 5);
        assert!(!trace.canonical_bytes().is_empty());
    }
}
