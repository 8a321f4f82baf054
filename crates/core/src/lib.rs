//! SummaGen — parallel matrix-matrix multiplication over non-rectangular
//! partitions, the paper's core contribution.
//!
//! Like SUMMA, the algorithm has three stages (Section IV):
//!
//! 1. **Horizontal communications of `A`** — every processor obtains all
//!    sub-partition rows of `A` in which it owns at least one
//!    sub-partition (broadcasts within per-row communicators; rows wholly
//!    owned by one processor need no communication). The paper copies
//!    them into a working matrix `WA`; here a received block stays in the
//!    shared buffer it arrived in and is indexed by grid cell.
//! 2. **Vertical communications of `B`** — symmetric (the paper's `WB`),
//!    over per-column communicators.
//! 3. **Local computations** — one DGEMM per owned sub-partition
//!    (`height × n` by `n × width`, run as a chain of kernel calls over
//!    the blocks where they lie), accumulating exactly the processor's
//!    own partition of `C`; computing per sub-partition avoids the
//!    redundant work a blanket `WA × WB` would do.
//!
//! Two execution modes share this code path:
//!
//! * [`ExecutionMode::Real`] — matrices are materialized and multiplied
//!   with the kernels from `summagen-matrix`; the result is verified
//!   against a sequential reference in the tests.
//! * [`ExecutionMode::Simulated`] — payloads are phantom (size-only) and
//!   local DGEMM advances the rank's virtual clock by the device-model
//!   time from `summagen-platform`. This is how the paper-scale
//!   experiments (N up to 38 416) run.

pub mod abft;
pub mod caps;
pub mod commopt;
pub mod cyclic;
pub mod executor;
pub mod panelled;
pub mod rankdata;
pub mod simulate;
pub mod stages;
pub mod summa;

pub use abft::{
    multiply_abft, multiply_abft_observed, multiply_abft_prefix, multiply_abft_traced,
    panel_boundaries, AbftOptions, AbftReport, AbftRunResult, PanelCheckpoint,
};
pub use caps::{caps_multiply, caps_multiply_with_cost, CapsResult};
pub use commopt::{
    cannon_multiply, cannon_multiply_with_cost, summa25d_multiply, summa25d_multiply_with_cost,
    GridRunResult,
};
pub use cyclic::{summa_cyclic_multiply, summa_cyclic_multiply_with_cost, BlockCyclic};
pub use executor::{
    multiply, multiply_traced, multiply_with_cost, multiply_with_recovery, ExecutionMode,
    RecoveryError, RecoveryOptions, RecoveryReport, RunResult,
};
pub use panelled::{
    multiply_panelled, multiply_panelled_with_cost, peak_workspace_elems, simulate_panelled,
};
pub use rankdata::{assemble, distribute, RankMatrices, SharedBlock};
pub use simulate::{
    metered_energy_from_timelines, simulate, simulate_instrumented, simulate_observed,
    simulate_observed_on, simulate_traced, simulate_with_energy, SimReport,
};
pub use summa::{
    summa_multiply, summa_multiply_with_cost, summa_simulate, summa_simulate_instrumented,
    SummaResult,
};
