//! Aggregation over a [`RecordedTrace`]: per-rank busy/idle/comm
//! fractions, per-link byte volumes, and the critical path through the
//! happens-before DAG.
//!
//! Only *leaf* spans (`Send`, `Recv`, `Gemm` — see
//! [`SpanKind::is_leaf`]) enter the accounting; `Collective` and `Stage`
//! spans enclose leaves and would double-count. The happens-before
//! edges are (a) program order within a rank (spans are recorded in
//! order, each at its end time) and (b) the cross-rank edge from each
//! `Send` to the `Recv` carrying the same `(src, seq)`.

use std::collections::BTreeMap;

use summagen_comm::span::{SpanKind, SpanRecord};

use crate::recorder::RecordedTrace;

/// Time accounting for one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct RankMetrics {
    /// Universe-global rank.
    pub rank: usize,
    /// Virtual seconds in GEMM leaf spans.
    pub comp_time: f64,
    /// Virtual seconds in send/recv leaf spans.
    pub comm_time: f64,
    /// Virtual seconds in ABFT leaf spans (verify/correct/checkpoint/
    /// rollback) — the per-rank resilience overhead.
    pub abft_time: f64,
    /// `makespan − comp − comm − abft`, clamped at zero.
    pub idle_time: f64,
    /// Total floating-point operations across the rank's GEMM spans.
    pub gemm_flops: f64,
    /// Number of leaf spans recorded for the rank.
    pub leaf_spans: usize,
}

impl RankMetrics {
    /// Fraction of the makespan spent computing (0 when makespan is 0).
    pub fn comp_fraction(&self, makespan: f64) -> f64 {
        if makespan > 0.0 {
            self.comp_time / makespan
        } else {
            0.0
        }
    }
}

/// Traffic on one directed rank-to-rank link, summed over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkVolume {
    /// Sending global rank.
    pub src: usize,
    /// Receiving global rank.
    pub dst: usize,
    /// Total wire bytes pushed onto the link (dropped messages
    /// included — the sender paid for them).
    pub bytes: u64,
    /// Message count.
    pub msgs: u64,
}

/// The aggregate view of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMetrics {
    /// Latest leaf end time over all ranks (0 for an empty trace).
    pub makespan: f64,
    /// Per-rank accounting, indexed by rank.
    pub per_rank: Vec<RankMetrics>,
    /// Per-link volumes, sorted by `(src, dst)`.
    pub links: Vec<LinkVolume>,
    /// Spans lost to ring-buffer overwrite (non-zero means the
    /// accounting below is a lower bound).
    pub dropped: u64,
}

/// Computes per-rank and per-link metrics from a finished trace.
pub fn metrics(trace: &RecordedTrace) -> TraceMetrics {
    let makespan = trace
        .iter()
        .filter(|ts| ts.record.kind.is_leaf())
        .map(|ts| ts.record.end)
        .fold(0.0_f64, f64::max);
    let mut links: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
    let mut per_rank = Vec::with_capacity(trace.nranks);
    for (rank, spans) in trace.spans.iter().enumerate() {
        let mut m = RankMetrics {
            rank,
            comp_time: 0.0,
            comm_time: 0.0,
            abft_time: 0.0,
            idle_time: 0.0,
            gemm_flops: 0.0,
            leaf_spans: 0,
        };
        for ts in spans {
            let r = &ts.record;
            match &r.kind {
                SpanKind::Send { dst, bytes, .. } => {
                    m.comm_time += r.duration();
                    m.leaf_spans += 1;
                    let e = links.entry((r.rank, *dst)).or_insert((0, 0));
                    e.0 += bytes;
                    e.1 += 1;
                }
                SpanKind::Recv { .. } => {
                    m.comm_time += r.duration();
                    m.leaf_spans += 1;
                }
                SpanKind::Gemm { flops, .. } => {
                    m.comp_time += r.duration();
                    m.gemm_flops += flops;
                    m.leaf_spans += 1;
                }
                SpanKind::Abft { .. } => {
                    m.abft_time += r.duration();
                    m.leaf_spans += 1;
                }
                // Retransmissions are extra wire time on the sender:
                // they count as communication but carry no payload bytes
                // (the link table tracks logical traffic, not ARQ
                // overhead).
                SpanKind::Retransmit { .. } => {
                    m.comm_time += r.duration();
                    m.leaf_spans += 1;
                }
                // On a schedule timeline each "rank" is a pool device and
                // Sched spans are its dispatched occupancy, so they count
                // as compute: idle_time then reads as device idleness.
                SpanKind::Sched { .. } => {
                    m.comp_time += r.duration();
                    m.leaf_spans += 1;
                }
                _ => {}
            }
        }
        m.idle_time = (makespan - m.comp_time - m.comm_time - m.abft_time).max(0.0);
        per_rank.push(m);
    }
    TraceMetrics {
        makespan,
        per_rank,
        links: links
            .into_iter()
            .map(|((src, dst), (bytes, msgs))| LinkVolume {
                src,
                dst,
                bytes,
                msgs,
            })
            .collect(),
        dropped: trace.dropped,
    }
}

/// One link of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CpSegment {
    /// Rank the event ran on.
    pub rank: usize,
    /// Virtual start.
    pub start: f64,
    /// Virtual end.
    pub end: f64,
    /// Event class: `"send"`, `"recv"`, or `"gemm"`.
    pub kind: &'static str,
    /// Human-readable description of the event.
    pub detail: String,
}

/// The chain of leaf events bounding the makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// End time of the last event — the schedule's makespan.
    pub makespan: f64,
    /// The chain, earliest first.
    pub segments: Vec<CpSegment>,
    /// Non-overlapping virtual seconds of the path spent in GEMMs.
    pub comp_time: f64,
    /// Non-overlapping virtual seconds spent in sends/recvs.
    pub comm_time: f64,
    /// Makespan not covered by any path segment.
    pub idle_time: f64,
}

impl CriticalPath {
    /// Renders the path as a fixed-width table (for the `reproduce
    /// trace` report).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "critical path: {} segments, makespan {:.6}s (comp {:.6}s, comm {:.6}s, idle {:.6}s)\n",
            self.segments.len(),
            self.makespan,
            self.comp_time,
            self.comm_time,
            self.idle_time,
        ));
        out.push_str(&format!(
            "{:>6} {:>5} {:>14} {:>14} {:>12}  {}\n",
            "#", "rank", "start(s)", "end(s)", "dur(ms)", "event"
        ));
        for (i, seg) in self.segments.iter().enumerate() {
            out.push_str(&format!(
                "{:>6} {:>5} {:>14.9} {:>14.9} {:>12.6}  {}\n",
                i,
                seg.rank,
                seg.start,
                seg.end,
                (seg.end - seg.start) * 1e3,
                seg.detail,
            ));
        }
        out
    }
}

fn describe(record: &SpanRecord) -> (&'static str, String) {
    match &record.kind {
        SpanKind::Send {
            dst, bytes, seq, ..
        } => ("send", format!("send -> r{dst} ({bytes} B, seq {seq})")),
        SpanKind::Recv {
            src, bytes, seq, ..
        } => ("recv", format!("recv <- r{src} ({bytes} B, seq {seq})")),
        SpanKind::Gemm { m, n, k, .. } => ("gemm", format!("gemm {m}x{n}x{k}")),
        SpanKind::Abft { op, step, elems } => (
            "abft",
            format!("{} step {step} ({elems} elems)", op.label()),
        ),
        other => ("other", other.label().to_string()),
    }
}

/// The happens-before DAG of a trace's leaf events, which the critical path
/// and the what-if [`crate::replay`] both walk.
pub(crate) struct HappensBefore<'a> {
    /// Leaf events per rank, program order (end times non-decreasing).
    pub leaves: Vec<Vec<&'a SpanRecord>>,
    /// (sender rank, seq) -> program-order index of the Send.
    send_at: BTreeMap<(usize, u64), usize>,
}

impl<'a> HappensBefore<'a> {
    pub fn new(trace: &'a RecordedTrace) -> Self {
        let leaves: Vec<Vec<&SpanRecord>> = trace
            .spans
            .iter()
            .map(|spans| {
                spans
                    .iter()
                    .map(|ts| &ts.record)
                    .filter(|r| r.kind.is_leaf())
                    .collect()
            })
            .collect();
        let mut send_at = BTreeMap::new();
        for (rank, rank_leaves) in leaves.iter().enumerate() {
            for (i, r) in rank_leaves.iter().enumerate() {
                if let SpanKind::Send { seq, .. } = r.kind {
                    send_at.insert((rank, seq), i);
                }
            }
        }
        Self { leaves, send_at }
    }

    /// `(rank, index)` of the `Send` that `leaf` received, when `leaf` is a
    /// `Recv` whose send is in the trace.
    pub fn matching_send(&self, leaf: &SpanRecord) -> Option<(usize, usize)> {
        match leaf.kind {
            SpanKind::Recv { src, seq, .. } => self.send_at.get(&(src, seq)).map(|&si| (src, si)),
            _ => None,
        }
    }
}

/// Extracts the critical path: starting from the globally latest-ending
/// leaf event, repeatedly walk to the *binding* predecessor — for a
/// `Recv`, the matching `Send` when it finished after the receiver's own
/// previous event (i.e. the wait was for the wire, not for local work);
/// otherwise the rank-local predecessor. Deterministic for a
/// deterministic trace: all tie-breaks use fixed scan orders.
pub fn critical_path(trace: &RecordedTrace) -> CriticalPath {
    let hb = HappensBefore::new(trace);
    let leaves = &hb.leaves;

    // The path's last event: latest end; ties go to the highest rank's
    // latest event, so a Recv beats the Send that fed it (the Recv is
    // later in happens-before even when virtual ends coincide).
    let mut cursor: Option<(usize, usize)> = None;
    let mut makespan = 0.0_f64;
    for (rank, rank_leaves) in leaves.iter().enumerate() {
        for (i, r) in rank_leaves.iter().enumerate() {
            if cursor.is_none() || r.end >= makespan {
                makespan = r.end;
                cursor = Some((rank, i));
            }
        }
    }

    let mut chain: Vec<(usize, usize)> = Vec::new();
    let total_leaves: usize = leaves.iter().map(Vec::len).sum();
    while let Some((rank, i)) = cursor {
        chain.push((rank, i));
        if chain.len() > total_leaves {
            // A cycle is impossible in a well-formed trace (edges only
            // point backwards in time); bail out rather than spin if the
            // ring dropped the spans that would close the walk.
            break;
        }
        let here = leaves[rank][i];
        let prev_local = i.checked_sub(1).map(|j| (rank, j));
        cursor = match hb.matching_send(here) {
            Some((src, si)) => {
                let sender_end = leaves[src][si].end;
                match prev_local {
                    // The wait was bounded by the sender, not by our own
                    // previous event: cross the rank edge.
                    Some((pr, pj)) if leaves[pr][pj].end >= sender_end => Some((pr, pj)),
                    Some(_) | None => Some((src, si)),
                }
            }
            // Not a Recv, or its send fell off the ring (or predates
            // tracing).
            None => prev_local,
        };
    }
    chain.reverse();

    let segments: Vec<CpSegment> = chain
        .iter()
        .map(|&(rank, i)| {
            let r = leaves[rank][i];
            let (kind, detail) = describe(r);
            CpSegment {
                rank,
                start: r.start,
                end: r.end,
                kind,
                detail,
            }
        })
        .collect();

    // Decompose the makespan along the path: each segment contributes
    // its non-overlapping part (cross-rank sends overlap the recv wait
    // they feed), gaps count as idle.
    let mut t = 0.0_f64;
    let mut comp = 0.0;
    let mut comm = 0.0;
    let mut idle = 0.0;
    for seg in &segments {
        if seg.start > t {
            idle += seg.start - t;
        }
        let contrib = (seg.end - seg.start.max(t)).max(0.0);
        match seg.kind {
            // ABFT work is rank-local busy time, so it counts with
            // computation rather than the wire.
            "gemm" | "abft" => comp += contrib,
            _ => comm += contrib,
        }
        t = t.max(seg.end);
    }
    idle += (makespan - t).max(0.0);

    CriticalPath {
        makespan,
        segments,
        comp_time: comp,
        comm_time: comm,
        idle_time: idle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceRecorder;
    use summagen_comm::span::{EventSink, MsgOutcome};

    fn rec(nranks: usize) -> std::sync::Arc<TraceRecorder> {
        TraceRecorder::new(nranks)
    }

    fn send(rank: usize, dst: usize, start: f64, end: f64, seq: u64) -> SpanRecord {
        SpanRecord {
            rank,
            start,
            end,
            kind: SpanKind::Send {
                dst,
                tag: 0,
                bytes: ((end - start) * 1e9) as u64,
                seq,
                outcome: MsgOutcome::Delivered,
            },
        }
    }

    fn recv(rank: usize, src: usize, start: f64, end: f64, seq: u64) -> SpanRecord {
        SpanRecord {
            rank,
            start,
            end,
            kind: SpanKind::Recv {
                src,
                tag: 0,
                bytes: 8,
                seq,
            },
        }
    }

    fn gemm(rank: usize, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            rank,
            start,
            end,
            kind: SpanKind::Gemm {
                m: 8,
                n: 8,
                k: 8,
                flops: 1024.0,
                kernel_ns: 0,
            },
        }
    }

    fn abft(rank: usize, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            rank,
            start,
            end,
            kind: SpanKind::Abft {
                op: summagen_comm::span::AbftLabel::Verify,
                step: 0,
                elems: 64,
            },
        }
    }

    #[test]
    fn metrics_accumulate_per_rank_and_link() {
        let r = rec(2);
        r.record(send(0, 1, 0.0, 1.0, 0));
        r.record(recv(1, 0, 0.0, 1.0, 0));
        r.record(gemm(1, 1.0, 3.0));
        let m = metrics(&r.finish());
        assert_eq!(m.makespan, 3.0);
        assert_eq!(m.per_rank[0].comm_time, 1.0);
        assert_eq!(m.per_rank[0].idle_time, 2.0);
        assert_eq!(m.per_rank[1].comp_time, 2.0);
        assert_eq!(m.per_rank[1].gemm_flops, 1024.0);
        assert_eq!(m.links.len(), 1);
        assert_eq!((m.links[0].src, m.links[0].dst, m.links[0].msgs), (0, 1, 1));
    }

    #[test]
    fn abft_spans_count_as_resilience_time_not_idle() {
        let r = rec(1);
        r.record(gemm(0, 0.0, 2.0));
        r.record(abft(0, 2.0, 2.5));
        let m = metrics(&r.finish());
        assert_eq!(m.makespan, 2.5);
        assert_eq!(m.per_rank[0].comp_time, 2.0);
        assert_eq!(m.per_rank[0].abft_time, 0.5);
        assert_eq!(m.per_rank[0].idle_time, 0.0);
        assert_eq!(m.per_rank[0].leaf_spans, 2);
        // And on the critical path it contributes busy time, not comm.
        let cp = critical_path(&r.finish());
        assert_eq!(cp.makespan, 2.5);
        let kinds: Vec<_> = cp.segments.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec!["gemm", "abft"]);
        assert!((cp.comp_time - 2.5).abs() < 1e-12);
        assert!(cp.segments[1].detail.contains("abft-verify"));
    }

    #[test]
    fn critical_path_crosses_ranks_through_the_send() {
        // Rank 0: long send feeding rank 1's recv; rank 1 then computes.
        // The path must be send(r0) -> recv(r1) -> gemm(r1).
        let r = rec(2);
        r.record(send(0, 1, 0.0, 2.0, 0));
        r.record(recv(1, 0, 0.0, 2.0, 0));
        r.record(gemm(1, 2.0, 5.0));
        let cp = critical_path(&r.finish());
        assert_eq!(cp.makespan, 5.0);
        let kinds: Vec<_> = cp.segments.iter().map(|s| (s.rank, s.kind)).collect();
        assert_eq!(kinds, vec![(0, "send"), (1, "recv"), (1, "gemm")]);
        // Send occupies [0,2]; the recv wait overlaps it entirely, so
        // comm is 2s (not 4), comp 3s, idle 0.
        assert!((cp.comm_time - 2.0).abs() < 1e-12);
        assert!((cp.comp_time - 3.0).abs() < 1e-12);
        assert!(cp.idle_time.abs() < 1e-12);
        assert!((cp.comp_time + cp.comm_time + cp.idle_time - cp.makespan).abs() < 1e-9);
    }

    #[test]
    fn critical_path_stays_local_when_local_work_dominates() {
        // Rank 1 computes past the sender's finish before receiving: the
        // binding predecessor of its recv is its own gemm.
        let r = rec(2);
        r.record(send(0, 1, 0.0, 1.0, 0));
        r.record(gemm(1, 0.0, 4.0));
        r.record(recv(1, 0, 4.0, 4.0, 0));
        r.record(gemm(1, 4.0, 6.0));
        let cp = critical_path(&r.finish());
        let kinds: Vec<_> = cp.segments.iter().map(|s| (s.rank, s.kind)).collect();
        assert_eq!(
            kinds,
            vec![(1, "gemm"), (1, "recv"), (1, "gemm")],
            "path must not detour through rank 0"
        );
        assert_eq!(cp.makespan, 6.0);
    }

    #[test]
    fn empty_trace_yields_empty_path() {
        let cp = critical_path(&rec(2).finish());
        assert_eq!(cp.makespan, 0.0);
        assert!(cp.segments.is_empty());
        let m = metrics(&rec(2).finish());
        assert_eq!(m.makespan, 0.0);
        assert!(m.links.is_empty());
    }

    #[test]
    fn path_table_mentions_every_segment() {
        let r = rec(2);
        r.record(send(0, 1, 0.0, 2.0, 0));
        r.record(recv(1, 0, 0.0, 2.0, 0));
        let cp = critical_path(&r.finish());
        let table = cp.table();
        assert!(table.contains("critical path"));
        assert!(table.contains("send -> r1"));
        assert!(table.contains("recv <- r0"));
    }
}
