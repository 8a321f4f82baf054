//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section (see `EXPERIMENTS.md` at the workspace root for the
//! paper-vs-measured record).
//!
//! The heavy lifting lives in [`experiments`]; the `reproduce` binary is a
//! thin wrapper over it. Its times are virtual; wall-clock ones are `perf/`'s.

pub mod benchcmd;
pub mod experiments;
pub mod harness;
pub mod insightcmd;
pub mod json;
pub mod resilience;
pub mod scenario;
pub mod soak;
pub mod tracecmd;

pub use experiments::*;
