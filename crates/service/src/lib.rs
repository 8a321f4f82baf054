//! Multi-tenant GEMM service: a long-lived front-end over the SummaGen
//! execution stack that accepts a stream of multiply jobs from competing
//! tenants and runs them on a shared, heterogeneous device pool.
//!
//! The crate decomposes the service the way the data flows:
//!
//! * [`job`] — the vocabulary: [`JobSpec`]s in, typed [`Rejection`]s or
//!   [`JobRecord`]s out.
//! * [`queue`] — bounded admission: queue capacity, per-tenant quotas,
//!   and a size ceiling, each with its own deterministic rejection.
//! * [`scheduler`] — the device pool and the three placement policies:
//!   FIFO and round-robin baselines, and the FPM-aware planner that
//!   costs every device subset (and, for three-device subsets, every
//!   paper partition shape) with the pool's functional performance
//!   models — once per problem size and eligible-device set, into the
//!   pool's placement table — and places each job from that table.
//! * [`loadgen`] — seeded Poisson tenant mixes, so load is reproducible
//!   to the byte.
//! * [`service`] — the virtual-clock event loop tying it together:
//!   admission, batching, dispatch-when-a-device-is-free, seeded
//!   shrink-and-retry fault handling, per-tenant metrics, and Sched
//!   trace spans.
//! * [`metrics`] — per-tenant counters/histograms on a
//!   `summagen-metrics` registry, Prometheus-renderable.
//! * [`degrade`] — graceful degradation under overload and device
//!   failure: deadline-aware admission, checkpoint preemption at panel
//!   boundaries, per-device circuit-breaker quarantine, and brownout
//!   load shedding — armed together by one switch, all deterministic.
//!
//! Durable runs ([`GemmService::run_durable`] / [`GemmService::recover`])
//! additionally write every job-lifecycle event ahead to a
//! `summagen-durable` journal and rebuild the full service state from it
//! after a crash, completing every admitted job exactly once.
//!
//! The whole service runs on the repo's virtual clock: a run is a pure
//! function of (job stream, config), asserted by the report's schedule
//! digest. The FPM-aware policy's win over FIFO on the heterogeneous
//! mixes is the service-level restatement of the paper's claim that
//! speed-function-aware partitioning beats homogeneous splits.

pub mod degrade;
pub mod job;
pub mod loadgen;
pub mod metrics;
pub mod queue;
pub mod scheduler;
pub mod service;

pub use degrade::{
    CircuitBreaker, CircuitState, DegradeConfig, QuarantineConfig, QuarantineEvent,
    QuarantineTransition, WaitWindow,
};
pub use job::{DeadlineVerdict, JobId, JobOutcome, JobRecord, JobSpec, Rejection};
pub use loadgen::{generate, hetero_mix, mix_by_name, small_mix, LoadMix, TenantProfile};
pub use metrics::ServiceMetrics;
pub use queue::{AdmissionConfig, JobQueue};
pub use scheduler::{commit, plan, service_time, DevicePool, Placement, Policy, PoolDevice};
pub use service::{
    CrashedRun, DurableReport, DurableRun, FaultProfile, GemmService, RecoveryStats,
    ServiceBackend, ServiceConfig, ServiceReport, TenantSummary,
};
