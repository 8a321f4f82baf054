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
//! # One engine
//!
//! Every run goes through one private engine: it builds the rank universe
//! from a [`RunOptions`] (receive timeout, link plan, heartbeat, metrics,
//! transport, event sink), drives the ranks through the three
//! stages, folds the per-rank clocks into `exec/comp/comm_time`, and — for
//! the recovering entry points — drives the shrink-and-retry loop. The
//! stages are one walk over a list of k-windows ([`stages`]), taking *the
//! ranks one thread hosts*; what those ranks carry decides the kind of run,
//! and with it who hosts them:
//!
//! * **real** ([`multiply_with_options`] → [`RunResult`]) — matrices are
//!   materialized and multiplied with the kernel an [`ExecutionMode`]
//!   names; local computation advances the virtual clock by zero. One
//!   thread per rank. The result is verified against a sequential
//!   reference in the tests.
//! * **phantom** ([`simulate_with_options`] → [`SimReport`]) — payloads are
//!   size-only and a local DGEMM advances the rank's virtual clock by the
//!   device-model time from `summagen-platform`. No threads: the caller
//!   hosts every rank and issues the same calls in one global order. This
//!   is how the paper-scale experiments (N up to 38 416) run.
//!
//! [`multiply`], [`multiply_with_cost`], [`multiply_traced`],
//! [`simulate()`] and [`simulate_instrumented`] are those two with default
//! options and one value set. [`multiply_with_recovery`] restarts the real
//! run over the surviving devices when ranks die. All of these walk one
//! window, the whole of `k`. The same walk over one window per grid column
//! of `A` is [`multiply_panelled`]; padded with checksums, verified and
//! checkpointed it is [`multiply_abft`], which recovers like
//! [`multiply_with_recovery`] but resumes from its newest checkpoint
//! ([`multiply_abft_prefix`] is its preemption primitive).
//! Energy is a function of a finished report: [`SimReport::with_energy`].
//!
//! One baseline remains: classic SUMMA ([`summa`]), the algorithm SummaGen
//! generalises and the one `reproduce summa` compares against — a third
//! rank program on the same launcher, over the [`uniform_grid`] partition.
//! Cannon, 2.5D, block-cyclic SUMMA and parallel Strassen appear in the
//! paper's Section III as citations only and are not reproduced.

pub mod abft;
mod engine;
pub mod executor;
pub mod rankdata;
pub mod simulate;
pub mod stages;
pub mod summa;

pub use abft::{
    multiply_abft, multiply_abft_prefix, panel_boundaries, AbftOptions, AbftReport, AbftRunResult,
    PanelCheckpoint,
};
pub use executor::{
    multiply, multiply_panelled, multiply_traced, multiply_with_cost, multiply_with_options,
    multiply_with_recovery, ExecutionMode, RecoveryError, RecoveryOptions, RecoveryReport,
    RunOptions, RunResult,
};
pub use rankdata::{assemble, distribute, RankMatrices, SharedBlock};
pub use simulate::{simulate, simulate_instrumented, simulate_with_options, SimReport};
pub use summa::{summa_multiply, summa_simulate, uniform_grid};
