//! The conventional metric bundle the SummaGen runtime is instrumented
//! with.
//!
//! [`RuntimeMetrics`] pre-registers every hot-path handle once so the
//! comm layer, the GEMM kernels, and the ABFT executor record through
//! plain `Arc` field accesses — the registry lock is never touched after
//! construction. Install it with `Universe::with_metrics`; layers above
//! comm reach it through `Communicator::metrics()`.

use std::sync::Arc;

use crate::registry::{Counter, Gauge, Histogram, MetricsRegistry};

/// GEMM telemetry in both clock domains: the *virtual* (cost-model) side
/// every simulated or real run advances, and the *wall-clock* side only a
/// real kernel invocation produces.
pub struct GemmTelemetry {
    /// Kernel invocations (or phantom stand-ins).
    pub ops: Arc<Counter>,
    /// Total floating-point operations (`2·m·n·k` per GEMM).
    pub flops: Arc<Counter>,
    /// Per-GEMM virtual duration, seconds.
    pub virtual_seconds: Arc<Histogram>,
    /// Per-GEMM virtual throughput, GFLOP/s.
    pub virtual_gflops: Arc<Histogram>,
    /// Per-GEMM wall-clock kernel duration, seconds (real runs only).
    pub kernel_seconds: Arc<Histogram>,
    /// Per-GEMM wall-clock throughput, GFLOP/s (real runs only).
    pub kernel_gflops: Arc<Histogram>,
}

impl GemmTelemetry {
    fn register(reg: &MetricsRegistry) -> Self {
        Self {
            ops: reg.counter(
                "summagen_gemm_ops_total",
                "GEMM kernel invocations (including phantom stand-ins).",
            ),
            flops: reg.counter(
                "summagen_gemm_flops_total",
                "Floating-point operations performed (2*m*n*k per GEMM).",
            ),
            virtual_seconds: reg.histogram(
                "summagen_gemm_virtual_seconds",
                "Per-GEMM duration on the virtual (cost-model) clock.",
            ),
            virtual_gflops: reg.histogram(
                "summagen_gemm_virtual_gflops",
                "Per-GEMM throughput on the virtual clock, GFLOP/s.",
            ),
            kernel_seconds: reg.histogram(
                "summagen_gemm_kernel_seconds",
                "Per-GEMM wall-clock kernel duration (real runs only).",
            ),
            kernel_gflops: reg.histogram(
                "summagen_gemm_kernel_gflops",
                "Per-GEMM wall-clock throughput, GFLOP/s (real runs only).",
            ),
        }
    }

    /// Records one GEMM's virtual-clock cost: bumps `ops`/`flops` and the
    /// virtual duration/throughput distributions.
    pub fn record_virtual(&self, flops: f64, seconds: f64) {
        self.ops.inc();
        self.flops.add(flops as u64);
        self.virtual_seconds.observe(seconds);
        if seconds > 0.0 {
            self.virtual_gflops.observe(flops / seconds / 1e9);
        }
    }

    /// Records one real kernel invocation's wall-clock duration. The
    /// `summagen-matrix` crate implements its `GemmObserver` trait for
    /// this type, so a telemetry handle can be passed straight to
    /// `GemmKernel::run_observed`.
    pub fn record_kernel(&self, m: usize, n: usize, k: usize, elapsed_ns: u64) {
        self.kernel_seconds.observe(elapsed_ns as f64 / 1e9);
        if elapsed_ns > 0 {
            let flops = 2.0 * m as f64 * n as f64 * k as f64;
            self.kernel_gflops.observe(flops / elapsed_ns as f64);
        }
    }
}

/// Pre-registered handles for every runtime hot path. All fields are
/// public: instrumentation sites record directly, tests and exporters
/// read directly.
pub struct RuntimeMetrics {
    registry: Arc<MetricsRegistry>,

    /// Point-to-point messages sent (including inside collectives).
    pub send_msgs: Arc<Counter>,
    /// Wire bytes pushed by sends.
    pub send_bytes: Arc<Counter>,
    /// Sender-side link occupation per message, virtual seconds.
    pub send_seconds: Arc<Histogram>,

    /// Point-to-point messages received.
    pub recv_msgs: Arc<Counter>,
    /// Wire bytes received.
    pub recv_bytes: Arc<Counter>,
    /// Receiver-side blocked time per message, virtual seconds.
    pub recv_wait_seconds: Arc<Histogram>,

    /// Completed broadcasts (per participating rank).
    pub bcast_ops: Arc<Counter>,
    /// Payload bytes delivered by broadcasts (per participating rank).
    pub bcast_bytes: Arc<Counter>,
    /// Broadcast duration per participant, virtual seconds.
    pub bcast_seconds: Arc<Histogram>,
    /// Completed gathers (per participating rank).
    pub gather_ops: Arc<Counter>,
    /// Gather duration per participant, virtual seconds.
    pub gather_seconds: Arc<Histogram>,
    /// Completed barriers (per participating rank).
    pub barrier_ops: Arc<Counter>,
    /// Barrier duration per participant, virtual seconds.
    pub barrier_seconds: Arc<Histogram>,

    /// Wire packets delivered by the lossy-link transport (first copies
    /// only; duplicates are counted separately).
    pub transport_delivered: Arc<Counter>,
    /// Retransmissions performed after a wire-level drop.
    pub transport_retransmits: Arc<Counter>,
    /// Extra copies injected by wire-level duplication.
    pub transport_duplicates: Arc<Counter>,
    /// Duplicate packets suppressed by the receiver's sequence cursor.
    pub transport_dup_dropped: Arc<Counter>,
    /// TCP backend: connections successfully established.
    pub tcp_connects: Arc<Counter>,
    /// TCP backend: connect attempts retried under backoff (refused or
    /// transiently failing dials).
    pub tcp_connect_retries: Arc<Counter>,
    /// TCP backend: transparent reconnects after a dropped connection
    /// (each includes one frame resend).
    pub tcp_reconnects: Arc<Counter>,
    /// TCP backend: injected mid-stream connection resets.
    pub tcp_resets: Arc<Counter>,
    /// TCP backend: injected socket stalls.
    pub tcp_stalls: Arc<Counter>,

    /// Heartbeats emitted by live ranks.
    pub heartbeats: Arc<Counter>,
    /// Ranks declared dead by the failure detector (vs announced deaths).
    pub suspicions: Arc<Counter>,
    /// Silence observed at suspicion time, wall-clock seconds (the
    /// detector's detection latency).
    pub detection_seconds: Arc<Histogram>,

    /// SUMMA panel steps executed (per rank per panel).
    pub panel_steps: Arc<Counter>,
    /// GEMM telemetry, both clock domains.
    pub gemm: GemmTelemetry,

    /// ABFT checksum verification scans.
    pub abft_verifies: Arc<Counter>,
    /// Single-element corrections applied.
    pub abft_corrections: Arc<Counter>,
    /// Checkpoints written at panel boundaries.
    pub abft_checkpoints: Arc<Counter>,
    /// Checkpoint restores (rollbacks) performed.
    pub abft_rollbacks: Arc<Counter>,
    /// Host bytes currently held by retained checkpoint snapshots
    /// (complete snapshots plus pending per-rank deposits).
    pub checkpoint_bytes: Arc<Gauge>,
}

impl RuntimeMetrics {
    /// Registers the full bundle in `registry` and returns a shared
    /// handle. Idempotent per registry: registering twice yields handles
    /// to the same underlying metrics.
    pub fn register(registry: &Arc<MetricsRegistry>) -> Arc<Self> {
        let reg = registry.as_ref();
        let coll_ops = |op: &str| {
            reg.counter_with(
                "summagen_comm_collectives_total",
                "Completed collective operations per participating rank.",
                &[("op", op)],
            )
        };
        Arc::new(Self {
            send_msgs: reg.counter(
                "summagen_comm_sends_total",
                "Point-to-point messages sent (including inside collectives).",
            ),
            send_bytes: reg.counter(
                "summagen_comm_send_bytes_total",
                "Wire bytes pushed by point-to-point sends.",
            ),
            send_seconds: reg.histogram(
                "summagen_comm_send_seconds",
                "Sender-side link occupation per message, virtual seconds.",
            ),
            recv_msgs: reg.counter(
                "summagen_comm_recvs_total",
                "Point-to-point messages received.",
            ),
            recv_bytes: reg.counter("summagen_comm_recv_bytes_total", "Wire bytes received."),
            recv_wait_seconds: reg.histogram(
                "summagen_comm_recv_wait_seconds",
                "Receiver-side blocked time per message, virtual seconds.",
            ),
            bcast_ops: coll_ops("bcast"),
            bcast_bytes: reg.counter(
                "summagen_comm_bcast_bytes_total",
                "Payload bytes delivered by broadcasts, per participating rank.",
            ),
            bcast_seconds: reg.histogram_with(
                "summagen_comm_collective_seconds",
                "Collective duration per participating rank, virtual seconds.",
                &[("op", "bcast")],
            ),
            gather_ops: coll_ops("gather"),
            gather_seconds: reg.histogram_with(
                "summagen_comm_collective_seconds",
                "Collective duration per participating rank, virtual seconds.",
                &[("op", "gather")],
            ),
            barrier_ops: coll_ops("barrier"),
            barrier_seconds: reg.histogram_with(
                "summagen_comm_collective_seconds",
                "Collective duration per participating rank, virtual seconds.",
                &[("op", "barrier")],
            ),
            transport_delivered: reg.counter(
                "summagen_transport_delivered_total",
                "Wire packets delivered by the lossy-link transport (first copies).",
            ),
            transport_retransmits: reg.counter(
                "summagen_transport_retransmits_total",
                "Retransmissions performed after a wire-level drop.",
            ),
            transport_duplicates: reg.counter(
                "summagen_transport_duplicates_total",
                "Extra packet copies injected by wire-level duplication.",
            ),
            transport_dup_dropped: reg.counter(
                "summagen_transport_dup_dropped_total",
                "Duplicate packets suppressed by the receiver's sequence cursor.",
            ),
            tcp_connects: reg.counter(
                "summagen_tcp_connects_total",
                "TCP backend connections successfully established.",
            ),
            tcp_connect_retries: reg.counter(
                "summagen_tcp_connect_retries_total",
                "TCP backend connect attempts retried under backoff.",
            ),
            tcp_reconnects: reg.counter(
                "summagen_tcp_reconnects_total",
                "TCP backend transparent reconnects after a dropped connection.",
            ),
            tcp_resets: reg.counter(
                "summagen_tcp_resets_total",
                "Injected mid-stream TCP connection resets.",
            ),
            tcp_stalls: reg.counter("summagen_tcp_stalls_total", "Injected TCP socket stalls."),
            heartbeats: reg.counter(
                "summagen_heartbeats_total",
                "Heartbeats emitted by live ranks.",
            ),
            suspicions: reg.counter(
                "summagen_suspicions_total",
                "Ranks declared dead by the heartbeat failure detector.",
            ),
            detection_seconds: reg.histogram(
                "summagen_detection_seconds",
                "Silence observed at suspicion time (detection latency), wall seconds.",
            ),
            panel_steps: reg.counter(
                "summagen_core_panel_steps_total",
                "SUMMA panel steps executed, per rank per panel.",
            ),
            gemm: GemmTelemetry::register(reg),
            abft_verifies: reg.counter(
                "summagen_abft_verifies_total",
                "ABFT checksum verification scans.",
            ),
            abft_corrections: reg.counter(
                "summagen_abft_corrections_total",
                "ABFT single-element corrections applied.",
            ),
            abft_checkpoints: reg.counter(
                "summagen_abft_checkpoints_total",
                "ABFT checkpoints written at panel boundaries.",
            ),
            abft_rollbacks: reg.counter(
                "summagen_abft_rollbacks_total",
                "ABFT checkpoint restores (rollbacks) performed.",
            ),
            checkpoint_bytes: reg.gauge(
                "summagen_abft_checkpoint_bytes",
                "Host bytes held by retained checkpoint snapshots.",
            ),
            registry: Arc::clone(registry),
        })
    }

    /// A bundle on a private fresh registry — the common case for a
    /// single instrumented run.
    pub fn fresh() -> Arc<Self> {
        Self::register(&Arc::new(MetricsRegistry::new()))
    }

    /// The registry this bundle records into (for export or for
    /// registering additional metrics alongside).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The (ops counter, duration histogram) pair for a collective,
    /// keyed by its lower-case label (`"bcast"`, `"gather"`, `"barrier"`).
    pub fn collective(&self, label: &str) -> Option<(&Counter, &Histogram)> {
        match label {
            "bcast" => Some((&self.bcast_ops, &self.bcast_seconds)),
            "gather" => Some((&self.gather_ops, &self.gather_seconds)),
            "barrier" => Some((&self.barrier_ops, &self.barrier_seconds)),
            _ => None,
        }
    }

    /// Renders the backing registry as Prometheus text exposition.
    pub fn render_prometheus(&self) -> String {
        crate::prometheus::render(&self.registry)
    }
}

impl std::fmt::Debug for RuntimeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeMetrics")
            .field("send_msgs", &self.send_msgs.get())
            .field("recv_msgs", &self.recv_msgs.get())
            .field("panel_steps", &self.panel_steps.get())
            .field("gemm_ops", &self.gemm.ops.get())
            .field("abft_verifies", &self.abft_verifies.get())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_per_registry() {
        let reg = Arc::new(MetricsRegistry::new());
        let a = RuntimeMetrics::register(&reg);
        let b = RuntimeMetrics::register(&reg);
        a.send_msgs.add(3);
        b.send_msgs.add(4);
        assert_eq!(a.send_msgs.get(), 7);
    }

    #[test]
    fn collective_lookup_covers_all_ops() {
        let m = RuntimeMetrics::fresh();
        for op in ["bcast", "gather", "barrier"] {
            let (ops, secs) = m.collective(op).expect(op);
            ops.inc();
            secs.observe(0.25);
        }
        assert!(m.collective("allreduce").is_none());
        assert_eq!(m.bcast_ops.get(), 1);
        assert_eq!(m.barrier_seconds.count(), 1);
    }

    #[test]
    fn gemm_virtual_and_kernel_domains_are_separate() {
        let m = RuntimeMetrics::fresh();
        m.gemm.record_virtual(2.0e9, 1.0);
        m.gemm.record_kernel(100, 100, 100, 1_000_000);
        assert_eq!(m.gemm.ops.get(), 1); // kernel recording does not double-count ops
        assert_eq!(m.gemm.flops.get(), 2_000_000_000);
        assert_eq!(m.gemm.virtual_seconds.count(), 1);
        assert_eq!(m.gemm.kernel_seconds.count(), 1);
        // 2e6 flops in 1e6 ns = 2 GFLOP/s.
        assert!(m.gemm.kernel_gflops.quantile(0.5) >= 2.0);
    }

    #[test]
    fn prometheus_render_includes_runtime_families() {
        let m = RuntimeMetrics::fresh();
        m.send_msgs.inc();
        m.send_seconds.observe(1e-4);
        let text = m.render_prometheus();
        assert!(text.contains("summagen_comm_sends_total 1"));
        assert!(text.contains("# TYPE summagen_comm_send_seconds histogram"));
        assert!(text.contains("summagen_comm_collectives_total{op=\"bcast\"} 0"));
    }
}
