//! Structured span events and the [`EventSink`] hook the runtime reports
//! them through.
//!
//! This is the *vocabulary* of the tracing subsystem: the comm layer (and
//! the algorithm layers above it) describe what happened — a send, a
//! receive, a collective, a GEMM, a SummaGen stage, a rank death — as
//! [`SpanRecord`]s stamped with virtual-clock start/end times, and hand
//! them to whatever [`EventSink`] the universe was built with
//! (`Universe::with_event_sink`). The default is *no* sink: every hook is
//! a single `Option` check, so an untraced run pays nothing.
//!
//! The recorder itself (per-rank bounded ring buffers), the aggregation
//! pass, and the Perfetto/JSON exporters live in the `summagen-trace`
//! crate; keeping only the vocabulary here means `summagen-comm` stays
//! dependency-free and the trace crate depends on comm, not vice versa.

/// What a recorded span represents.
///
/// `Send`/`Recv`/`Gemm` are the *leaf* events that tile a rank's busy
/// time; `Collective` and `Stage` are enclosing annotations (their
/// intervals contain leaf events) and are excluded from time accounting
/// and the happens-before DAG; `RankDeath` marks the instant a rank left
/// the computation abnormally.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanKind {
    /// A point-to-point send (including those inside collectives). The
    /// interval covers the sender-side link occupation.
    Send {
        /// Destination global rank.
        dst: usize,
        /// Message tag (collective tags are above `1 << 48`).
        tag: u64,
        /// Wire bytes.
        bytes: u64,
        /// Per-sender message sequence number — the receiver's matching
        /// `Recv` span carries the same `(src, seq)`, which is how the
        /// critical-path pass reconstructs cross-rank edges.
        seq: u64,
        /// What fault injection did to the message.
        outcome: MsgOutcome,
    },
    /// A point-to-point receive. The interval covers the time the
    /// receiver was blocked waiting for the message (zero-length when the
    /// message had already arrived).
    Recv {
        /// Source global rank.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Wire bytes.
        bytes: u64,
        /// The sender's sequence number for this message.
        seq: u64,
    },
    /// An enclosing collective operation on some communicator.
    Collective {
        /// Which collective.
        op: CollectiveOp,
        /// Root rank (communicator-local); 0 for rootless ops.
        root: usize,
        /// Communicator size.
        comm_size: usize,
    },
    /// One local GEMM kernel invocation (or its phantom stand-in).
    Gemm {
        /// Rows of the local `C` block.
        m: usize,
        /// Columns of the local `C` block.
        n: usize,
        /// Inner dimension.
        k: usize,
        /// Floating-point operations (`2·m·n·k`).
        flops: f64,
        /// Wall-clock nanoseconds the real kernel took (0 in phantom
        /// mode, where no kernel runs).
        kernel_ns: u64,
    },
    /// An enclosing SummaGen algorithm stage.
    Stage {
        /// Which stage.
        stage: StageLabel,
    },
    /// One ABFT resilience operation: checksum verification, in-place
    /// correction, checkpoint write, or rollback to a checkpoint. A leaf
    /// event — resilience time tiles the rank's busy time alongside
    /// communication and GEMMs, which is exactly what the overhead
    /// accounting needs to see.
    Abft {
        /// Which resilience operation.
        op: AbftLabel,
        /// Zero-based panel step the operation belongs to.
        step: u64,
        /// Elements touched: verified elements for a verify, corrected
        /// elements for a correct, snapshot elements for a
        /// checkpoint/rollback.
        elems: u64,
    },
    /// One retransmission attempt of a point-to-point message the link
    /// plan dropped. A leaf event: the interval covers the backoff the
    /// sender waited (on the virtual clock) before re-offering the
    /// packet, so retransmits visibly widen makespans.
    Retransmit {
        /// Destination global rank.
        dst: usize,
        /// Message tag.
        tag: u64,
        /// Per-link transport sequence number of the packet.
        seq: u64,
        /// One-based retransmission attempt (1 = first retry).
        attempt: u32,
    },
    /// A heartbeat the rank emitted to the failure detector at this
    /// instant. Zero-duration annotation: excluded from time accounting
    /// and the happens-before DAG, but visible on the timeline so gaps
    /// before a suspicion are inspectable.
    Heartbeat {
        /// Monotone per-rank heartbeat number.
        seq: u64,
    },
    /// The rank left the computation abnormally at this instant.
    RankDeath {
        /// Classified cause: `"injected-kill"`, `"panic"`, or `"error"`.
        cause: &'static str,
    },
    /// One scheduler dispatch onto a shared device: the interval covers
    /// the device's occupancy by the dispatched batch, and `rank` is the
    /// device's pool index. A leaf event — on a schedule timeline, Sched
    /// spans tile each device's busy time exactly as Gemm spans tile a
    /// rank's.
    Sched {
        /// Service-global id of the batch's seed job.
        job: u64,
        /// Problem size of the batch's jobs.
        n: u64,
        /// Dense per-run batch id.
        batch: u64,
        /// Jobs dispatched in the batch.
        jobs: u64,
        /// Scheduling policy that made the decision.
        policy: &'static str,
    },
    /// A device-quarantine interval: the scheduler's circuit breaker for
    /// this device (`rank` = pool index) was open from `start` to `end`
    /// and no work was placed on it. An enclosing annotation, not a
    /// leaf — a quarantined device is *idle*, and quarantine time must
    /// not tile against its busy time.
    Quarantine {
        /// Consecutive blamed failures that opened the breaker.
        failures: u64,
        /// How many times this device's breaker has opened so far
        /// (1-based; backoff doubles with each open).
        opens: u64,
    },
    /// A tenant's SLO burn-rate alert was open over this interval: both
    /// the fast and slow burn windows exceeded the fire threshold at
    /// `start`, and the fast window recovered (or the run ended) at
    /// `end`. An enclosing annotation, not a leaf — an alert describes
    /// the schedule, it does not occupy a device.
    SloAlert {
        /// Tenant whose objective burned.
        tenant: u64,
        /// Stable SLO kind label: `"latency-p95"`,
        /// `"deadline-hit-rate"`, or `"availability"`.
        slo: &'static str,
        /// Fast-window burn rate at fire time.
        burn_fast: f64,
        /// Slow-window burn rate at fire time.
        burn_slow: f64,
    },
    /// A crash-restart recovery interval: the service came back up at
    /// `start` (the crash epoch's last durable instant), replayed
    /// `records` journal records, and resumed serving at `end`. An
    /// enclosing annotation, not a leaf — recovery is downtime on the
    /// service timeline, it does not occupy a device.
    Recover {
        /// Restart epoch (1 = first recovery).
        epoch: u64,
        /// Journal records replayed.
        records: u64,
        /// Jobs rebuilt into the queue / in-flight set.
        recovered_jobs: u64,
        /// Torn or corrupt tail bytes the replay discarded.
        torn_bytes: u64,
    },
}

impl SpanKind {
    /// Short label for display and export.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Send { .. } => "send",
            SpanKind::Recv { .. } => "recv",
            SpanKind::Collective { op, .. } => op.label(),
            SpanKind::Gemm { .. } => "gemm",
            SpanKind::Stage { stage } => stage.label(),
            SpanKind::Abft { op, .. } => op.label(),
            SpanKind::Retransmit { .. } => "retransmit",
            SpanKind::Heartbeat { .. } => "heartbeat",
            SpanKind::RankDeath { .. } => "rank-death",
            SpanKind::Sched { .. } => "sched",
            SpanKind::Quarantine { .. } => "quarantine",
            SpanKind::SloAlert { .. } => "slo-alert",
            SpanKind::Recover { .. } => "recover",
        }
    }

    /// Whether this span is a leaf event (tiles busy time and joins the
    /// happens-before DAG) rather than an enclosing annotation.
    pub fn is_leaf(&self) -> bool {
        matches!(
            self,
            SpanKind::Send { .. }
                | SpanKind::Recv { .. }
                | SpanKind::Gemm { .. }
                | SpanKind::Abft { .. }
                | SpanKind::Retransmit { .. }
                | SpanKind::Sched { .. }
        )
    }
}

/// The collective operations the runtime annotates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveOp {
    /// Broadcast (flat or binomial).
    Bcast,
    /// Gather to root.
    Gather,
    /// Barrier (gather + bcast of empty messages).
    Barrier,
}

impl CollectiveOp {
    /// Short label for display and export.
    pub fn label(&self) -> &'static str {
        match self {
            CollectiveOp::Bcast => "bcast",
            CollectiveOp::Gather => "gather",
            CollectiveOp::Barrier => "barrier",
        }
    }
}

/// What fault injection did to a sent message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgOutcome {
    /// Delivered normally.
    Delivered,
    /// Silently dropped by the fault plan (the sender still paid for it).
    Dropped,
    /// Delivered late by the fault plan.
    Delayed,
    /// Delivered with an element silently perturbed by the fault plan.
    /// Only the trace knows — the receiver sees a plausible payload.
    Corrupted,
}

impl MsgOutcome {
    /// Short label for display and export.
    pub fn label(&self) -> &'static str {
        match self {
            MsgOutcome::Delivered => "delivered",
            MsgOutcome::Dropped => "dropped",
            MsgOutcome::Delayed => "delayed",
            MsgOutcome::Corrupted => "corrupted",
        }
    }
}

/// The ABFT resilience operations that emit [`SpanKind::Abft`] spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbftLabel {
    /// Checksum-residual verification of a panel-step `C` update.
    Verify,
    /// In-place correction of a located single-element error.
    Correct,
    /// Panel-boundary snapshot of the verified `C` accumulator.
    Checkpoint,
    /// Restoring the `C` accumulator from the last checkpoint.
    Rollback,
}

impl AbftLabel {
    /// Short label for display and export.
    pub fn label(&self) -> &'static str {
        match self {
            AbftLabel::Verify => "abft-verify",
            AbftLabel::Correct => "abft-correct",
            AbftLabel::Checkpoint => "abft-checkpoint",
            AbftLabel::Rollback => "abft-rollback",
        }
    }
}

/// The SummaGen stages that emit enclosing [`SpanKind::Stage`] spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageLabel {
    /// Stage 1: horizontal communications of `A`.
    HorizontalA,
    /// Stage 2: vertical communications of `B`.
    VerticalB,
    /// Stage 3: local computations.
    LocalCompute,
}

impl StageLabel {
    /// Short label for display and export.
    pub fn label(&self) -> &'static str {
        match self {
            StageLabel::HorizontalA => "horizontal-a",
            StageLabel::VerticalB => "vertical-b",
            StageLabel::LocalCompute => "local-compute",
        }
    }
}

/// One recorded span: what happened on which rank over which virtual
/// interval. Wall-clock stamping is the recorder's job (it is
/// nondeterministic and must stay out of the canonical event stream).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Universe-global rank the event happened on.
    pub rank: usize,
    /// Virtual-clock start (seconds).
    pub start: f64,
    /// Virtual-clock end (seconds); `end == start` for instantaneous
    /// events.
    pub end: f64,
    /// What happened.
    pub kind: SpanKind,
}

impl SpanRecord {
    /// Interval length in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Where the runtime delivers [`SpanRecord`]s.
///
/// Implementations must be cheap and wait-free on the record path:
/// [`EventSink::record`] is called from inside the communication hot path.
/// `summagen-trace`'s `TraceRecorder` (one uncontended ring buffer per
/// rank) is the canonical implementation.
///
/// # Threading contract
///
/// *One producer per rank at a time, reads after the run returns.* For a
/// given `SpanRecord::rank`, `record` is only ever called by the one thread
/// driving that rank — the rank's own thread under `Universe::run` /
/// `try_run` (so calls for *different* ranks are concurrent), the hosting
/// thread under `Universe::host` (which is then the single producer for
/// every rank). Per-rank storage therefore needs no writer-side
/// synchronization; what was recorded may be read once the run has
/// returned.
pub trait EventSink: Send + Sync {
    /// Delivers one span. Called from the thread driving `span.rank`.
    fn record(&self, span: SpanRecord);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_classification() {
        assert!(SpanKind::Send {
            dst: 1,
            tag: 0,
            bytes: 8,
            seq: 0,
            outcome: MsgOutcome::Delivered
        }
        .is_leaf());
        assert!(SpanKind::Recv {
            src: 0,
            tag: 0,
            bytes: 8,
            seq: 0
        }
        .is_leaf());
        assert!(SpanKind::Gemm {
            m: 1,
            n: 1,
            k: 1,
            flops: 2.0,
            kernel_ns: 0
        }
        .is_leaf());
        assert!(!SpanKind::Collective {
            op: CollectiveOp::Bcast,
            root: 0,
            comm_size: 3
        }
        .is_leaf());
        assert!(!SpanKind::Stage {
            stage: StageLabel::HorizontalA
        }
        .is_leaf());
        assert!(SpanKind::Abft {
            op: AbftLabel::Verify,
            step: 0,
            elems: 16
        }
        .is_leaf());
        assert!(!SpanKind::RankDeath { cause: "panic" }.is_leaf());
        assert!(SpanKind::Retransmit {
            dst: 1,
            tag: 0,
            seq: 3,
            attempt: 1
        }
        .is_leaf());
        assert!(!SpanKind::Heartbeat { seq: 0 }.is_leaf());
        assert!(SpanKind::Sched {
            job: 1,
            n: 512,
            batch: 0,
            jobs: 2,
            policy: "fpm-aware"
        }
        .is_leaf());
        assert!(!SpanKind::Quarantine {
            failures: 3,
            opens: 1
        }
        .is_leaf());
        assert!(!SpanKind::SloAlert {
            tenant: 0,
            slo: "latency-p95",
            burn_fast: 3.0,
            burn_slow: 2.5
        }
        .is_leaf());
        assert!(!SpanKind::Recover {
            epoch: 1,
            records: 12,
            recovered_jobs: 3,
            torn_bytes: 5
        }
        .is_leaf());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CollectiveOp::Barrier.label(), "barrier");
        assert_eq!(StageLabel::VerticalB.label(), "vertical-b");
        assert_eq!(MsgOutcome::Dropped.label(), "dropped");
        assert_eq!(MsgOutcome::Corrupted.label(), "corrupted");
        assert_eq!(AbftLabel::Verify.label(), "abft-verify");
        assert_eq!(
            SpanKind::Retransmit {
                dst: 0,
                tag: 0,
                seq: 0,
                attempt: 2
            }
            .label(),
            "retransmit"
        );
        assert_eq!(SpanKind::Heartbeat { seq: 5 }.label(), "heartbeat");
        assert_eq!(
            SpanKind::Sched {
                job: 0,
                n: 256,
                batch: 3,
                jobs: 1,
                policy: "fifo"
            }
            .label(),
            "sched"
        );
        assert_eq!(
            SpanKind::Quarantine {
                failures: 2,
                opens: 1
            }
            .label(),
            "quarantine"
        );
        assert_eq!(
            SpanKind::SloAlert {
                tenant: 1,
                slo: "availability",
                burn_fast: 2.0,
                burn_slow: 2.0
            }
            .label(),
            "slo-alert"
        );
        assert_eq!(
            SpanKind::Recover {
                epoch: 1,
                records: 0,
                recovered_jobs: 0,
                torn_bytes: 0
            }
            .label(),
            "recover"
        );
        assert_eq!(AbftLabel::Correct.label(), "abft-correct");
        assert_eq!(AbftLabel::Checkpoint.label(), "abft-checkpoint");
        assert_eq!(AbftLabel::Rollback.label(), "abft-rollback");
        assert_eq!(
            SpanKind::Stage {
                stage: StageLabel::LocalCompute
            }
            .label(),
            "local-compute"
        );
        assert_eq!(
            SpanKind::Abft {
                op: AbftLabel::Checkpoint,
                step: 2,
                elems: 64
            }
            .label(),
            "abft-checkpoint"
        );
    }

    #[test]
    fn duration_is_end_minus_start() {
        let s = SpanRecord {
            rank: 0,
            start: 1.5,
            end: 2.0,
            kind: SpanKind::RankDeath { cause: "error" },
        };
        assert!((s.duration() - 0.5).abs() < 1e-15);
    }
}
