//! Causal what-if replay: re-time a recorded trace under virtual
//! interventions and see what the makespan would have been.
//!
//! The critical path (see [`crate::critical_path`]) explains where the
//! time *went*; this module answers the counterfactual — what if
//! communication were free, or device 2 twice as fast? An
//! [`Intervention`] rescales the *service demand* of every matching leaf
//! span, and [`replay`] re-schedules the whole trace through the same
//! happens-before DAG the critical-path pass walks: program order within
//! a rank, plus the cross-rank edge from each `Send` to the `Recv`
//! carrying the same `(src, seq)`.
//!
//! Demand semantics: a leaf's demand is the part of its duration that is
//! *work*, not waiting. For every leaf except `Recv` that is its full
//! duration. A `Recv` span covers the receiver's blocked wait, which is
//! emergent — in the replay the wait is reproduced by the dependency
//! edge (`recv` cannot finish before the matching `send`), so the
//! recv's own demand is only the tail of its interval past the sender's
//! original finish (delivery/reassembly plus any injected delay).
//! Replaying with no interventions therefore reproduces the recorded
//! schedule: waits re-emerge from the edges, work re-occupies its
//! measured demand.

use summagen_comm::span::{SpanKind, SpanRecord};

use crate::analysis::HappensBefore;
use crate::recorder::RecordedTrace;

/// Which leaf spans an intervention rescales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    /// Every communication leaf: sends, receives, retransmissions.
    Comm,
    /// Every compute leaf: GEMMs (and `Sched` occupancy on schedule
    /// timelines).
    Compute,
    /// Every ABFT resilience leaf.
    Abft,
    /// Communication on one directed link: the `src` rank's sends and
    /// retransmits to `dst`, and the `dst` rank's receives from `src`.
    Link {
        /// Sending global rank.
        src: usize,
        /// Receiving global rank.
        dst: usize,
    },
    /// GEMM spans on one rank — "what if this device were faster".
    DeviceGemm {
        /// The device's global rank.
        rank: usize,
    },
}

impl Target {
    /// Whether `record` is a leaf this target rescales.
    pub fn matches(&self, record: &SpanRecord) -> bool {
        match (self, &record.kind) {
            (Target::Comm, SpanKind::Send { .. })
            | (Target::Comm, SpanKind::Recv { .. })
            | (Target::Comm, SpanKind::Retransmit { .. })
            | (Target::Compute, SpanKind::Gemm { .. })
            | (Target::Compute, SpanKind::Sched { .. })
            | (Target::Abft, SpanKind::Abft { .. }) => true,
            (Target::Link { src, dst }, SpanKind::Send { dst: d, .. })
            | (Target::Link { src, dst }, SpanKind::Retransmit { dst: d, .. }) => {
                record.rank == *src && d == dst
            }
            (Target::Link { src, dst }, SpanKind::Recv { src: s, .. }) => {
                record.rank == *dst && s == src
            }
            (Target::DeviceGemm { rank }, SpanKind::Gemm { .. }) => record.rank == *rank,
            _ => false,
        }
    }

    /// Short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Target::Comm => "communication".to_string(),
            Target::Compute => "computation".to_string(),
            Target::Abft => "abft".to_string(),
            Target::Link { src, dst } => format!("link {src}->{dst}"),
            Target::DeviceGemm { rank } => format!("device {rank} gemm"),
        }
    }
}

/// One virtual intervention: multiply the service demand of every leaf
/// matching `target` by `factor` (`0` = free, `0.5` = twice as fast,
/// `2` = twice as slow).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Intervention {
    /// Which spans to rescale.
    pub target: Target,
    /// Demand multiplier (must be finite and non-negative).
    pub factor: f64,
}

impl Intervention {
    /// The intervention that makes `target` cost nothing.
    pub fn free(target: Target) -> Self {
        Self {
            target,
            factor: 0.0,
        }
    }

    /// The intervention that makes `target` `speedup`× faster.
    pub fn speedup(target: Target, speedup: f64) -> Self {
        assert!(speedup > 0.0, "speedup must be positive");
        Self {
            target,
            factor: 1.0 / speedup,
        }
    }
}

/// The re-timed schedule a [`replay`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Latest re-timed leaf end over all ranks (0 for an empty trace).
    pub makespan: f64,
    /// Per-rank end of the last leaf after re-timing.
    pub per_rank_end: Vec<f64>,
    /// Leaves whose demand at least one intervention rescaled.
    pub scaled_leaves: usize,
    /// Total leaves replayed.
    pub leaves: usize,
}

impl Replay {
    /// Fractional makespan reduction versus `baseline` (negative when
    /// the intervention made things worse).
    pub fn reduction_vs(&self, baseline: f64) -> f64 {
        if baseline > 0.0 {
            1.0 - self.makespan / baseline
        } else {
            0.0
        }
    }
}

/// Re-times `trace` with every leaf's demand rescaled by the matching
/// `interventions` (factors compose multiplicatively when several match
/// one leaf), propagating the new times through the happens-before DAG.
///
/// Each rank's leaves keep their program order; a leaf starts at its
/// rank's previous finish (the first leaf keeps its original start, so
/// untraced setup offsets survive), a `Recv` additionally cannot finish
/// before the matching `Send`'s re-timed end plus the recv's own scaled
/// demand. Deterministic: the worklist visits ranks in index order.
pub fn replay(trace: &RecordedTrace, interventions: &[Intervention]) -> Replay {
    for iv in interventions {
        assert!(
            iv.factor.is_finite() && iv.factor >= 0.0,
            "intervention factor must be finite and non-negative, got {}",
            iv.factor
        );
    }
    let hb = HappensBefore::new(trace);
    let leaves = &hb.leaves;

    // Scaled demand per leaf. A recv's raw demand excludes the wait the
    // dependency edge will reproduce: everything past the matching
    // send's *original* end (or its own start, whichever is later).
    let mut scaled_leaves = 0usize;
    let demands: Vec<Vec<f64>> = leaves
        .iter()
        .map(|rank_leaves| {
            rank_leaves
                .iter()
                .map(|r| {
                    let raw = match hb.matching_send(r) {
                        Some((src, si)) => (r.end - r.start.max(leaves[src][si].end)).max(0.0),
                        None => r.duration(),
                    };
                    let mut factor = 1.0;
                    let mut scaled = false;
                    for iv in interventions {
                        if iv.target.matches(r) {
                            factor *= iv.factor;
                            scaled = true;
                        }
                    }
                    if scaled {
                        scaled_leaves += 1;
                    }
                    raw * factor
                })
                .collect()
        })
        .collect();

    // Forward worklist pass: advance each rank while its next leaf's
    // dependency (if any) is already re-timed.
    let nranks = leaves.len();
    let mut new_end: Vec<Vec<f64>> = leaves.iter().map(|l| vec![0.0; l.len()]).collect();
    let mut ptr = vec![0usize; nranks];
    let mut ready: Vec<f64> = leaves
        .iter()
        .map(|l| l.first().map_or(0.0, |r| r.start))
        .collect();
    let total: usize = leaves.iter().map(Vec::len).sum();
    let mut done = 0usize;
    while done < total {
        let mut progressed = false;
        for r in 0..nranks {
            while ptr[r] < leaves[r].len() {
                let i = ptr[r];
                let dep_end = match hb.matching_send(leaves[r][i]) {
                    Some((src, si)) if si < ptr[src] => Some(new_end[src][si]),
                    Some(_) => break, // sender not re-timed yet: wait
                    None => None,
                };
                let start = dep_end.map_or(ready[r], |e| ready[r].max(e));
                let end = start + demands[r][i];
                new_end[r][i] = end;
                ready[r] = end;
                ptr[r] = i + 1;
                done += 1;
                progressed = true;
            }
        }
        if !progressed {
            // A cyclic wait is impossible in a well-formed trace (edges
            // only point backwards in time); it can appear when the ring
            // dropped the matching send. Resolve the first stuck recv
            // without its cross edge rather than spin.
            let r = (0..nranks)
                .find(|&r| ptr[r] < leaves[r].len())
                .expect("stuck worklist must have a pending rank");
            let i = ptr[r];
            let end = ready[r] + demands[r][i];
            new_end[r][i] = end;
            ready[r] = end;
            ptr[r] = i + 1;
            done += 1;
        }
    }

    let per_rank_end: Vec<f64> = new_end
        .iter()
        .map(|ends| ends.last().copied().unwrap_or(0.0))
        .collect();
    Replay {
        makespan: per_rank_end.iter().fold(0.0_f64, |a, &b| a.max(b)),
        per_rank_end,
        scaled_leaves,
        leaves: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{critical_path, metrics};
    use crate::recorder::TraceRecorder;
    use summagen_comm::span::{EventSink, MsgOutcome};

    fn send(rank: usize, dst: usize, start: f64, end: f64, seq: u64) -> SpanRecord {
        SpanRecord {
            rank,
            start,
            end,
            kind: SpanKind::Send {
                dst,
                tag: 0,
                bytes: 64,
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
                bytes: 64,
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

    /// send(r0) feeds recv(r1) which gates a gemm(r1).
    fn pipeline() -> RecordedTrace {
        let r = TraceRecorder::new(2);
        r.record(send(0, 1, 0.0, 2.0, 0));
        r.record(recv(1, 0, 0.0, 2.0, 0));
        r.record(gemm(1, 2.0, 5.0));
        r.finish()
    }

    #[test]
    fn identity_replay_reproduces_the_recorded_schedule() {
        let trace = pipeline();
        let base = replay(&trace, &[]);
        assert_eq!(base.makespan, metrics(&trace).makespan);
        assert_eq!(base.per_rank_end, vec![2.0, 5.0]);
        assert_eq!(base.leaves, 3);
        assert_eq!(base.scaled_leaves, 0);
    }

    #[test]
    fn comm_free_collapses_to_the_compute_chain() {
        let trace = pipeline();
        let free = replay(&trace, &[Intervention::free(Target::Comm)]);
        // Send and recv cost nothing; the gemm's 3 s remain.
        assert!((free.makespan - 3.0).abs() < 1e-12, "{}", free.makespan);
        assert_eq!(free.scaled_leaves, 2);
        // And it agrees with the critical path's compute content.
        let cp = critical_path(&trace);
        assert!((free.makespan - cp.comp_time).abs() < 1e-12);
    }

    #[test]
    fn comm_scaling_shrinks_the_wire_but_keeps_the_edge() {
        let trace = pipeline();
        let half = replay(&trace, &[Intervention::speedup(Target::Comm, 2.0)]);
        // Send takes 1 s; recv's demand was fully wait, so it finishes
        // with the send; gemm appends its 3 s.
        assert!((half.makespan - 4.0).abs() < 1e-12, "{}", half.makespan);
    }

    #[test]
    fn device_speedup_targets_one_rank_only() {
        let r = TraceRecorder::new(2);
        r.record(gemm(0, 0.0, 4.0));
        r.record(gemm(1, 0.0, 2.0));
        let trace = r.finish();
        let faster = replay(
            &trace,
            &[Intervention::speedup(Target::DeviceGemm { rank: 0 }, 2.0)],
        );
        assert_eq!(faster.per_rank_end, vec![2.0, 2.0]);
        assert_eq!(faster.scaled_leaves, 1);
    }

    #[test]
    fn link_target_matches_both_endpoints() {
        let trace = pipeline();
        let free = replay(
            &trace,
            &[Intervention::free(Target::Link { src: 0, dst: 1 })],
        );
        assert!((free.makespan - 3.0).abs() < 1e-12);
        assert_eq!(free.scaled_leaves, 2);
        // The reverse link matches nothing here.
        let noop = replay(
            &trace,
            &[Intervention::free(Target::Link { src: 1, dst: 0 })],
        );
        assert_eq!(noop.scaled_leaves, 0);
        assert_eq!(noop.makespan, 5.0);
    }

    #[test]
    fn slower_interventions_stretch_the_makespan() {
        let trace = pipeline();
        let slow = replay(
            &trace,
            &[Intervention {
                target: Target::Compute,
                factor: 2.0,
            }],
        );
        assert!((slow.makespan - 8.0).abs() < 1e-12, "{}", slow.makespan);
        assert!(slow.reduction_vs(5.0) < 0.0);
    }

    #[test]
    fn recv_without_matching_send_keeps_its_full_demand() {
        let r = TraceRecorder::new(1);
        // A recv whose send predates tracing: demand is its whole span.
        r.record(recv(0, 0, 1.0, 2.0, 99));
        let trace = r.finish();
        let base = replay(&trace, &[]);
        assert_eq!(base.makespan, 2.0);
    }

    #[test]
    fn empty_trace_replays_to_zero() {
        let trace = TraceRecorder::new(3).finish();
        let base = replay(&trace, &[]);
        assert_eq!(base.makespan, 0.0);
        assert_eq!(base.leaves, 0);
    }

    #[test]
    fn untraced_startup_offset_survives() {
        let r = TraceRecorder::new(1);
        r.record(gemm(0, 1.5, 3.0));
        let trace = r.finish();
        let base = replay(&trace, &[]);
        assert_eq!(base.makespan, 3.0);
    }
}
