//! Facade crate for the SummaGen reproduction: re-exports the public API
//! of every workspace crate under one roof, so downstream users can depend
//! on a single crate.
//!
//! ```
//! use summagen_repro::prelude::*;
//!
//! let n = 64;
//! let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
//! let spec = Shape::SquareCorner.build(n, &areas);
//! let a = random_matrix(n, n, 1);
//! let b = random_matrix(n, n, 2);
//! let result = multiply(&spec, &a, &b, ExecutionMode::Real);
//! assert_eq!(result.c.rows(), n);
//! ```

pub use summagen_comm as comm;
pub use summagen_core as core;
pub use summagen_matrix as matrix;
pub use summagen_partition as partition;
pub use summagen_platform as platform;
pub use summagen_trace as trace;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use summagen_comm::{
        CommError, CommResult, Communicator, EventSink, FaultPlan, HockneyModel, Payload,
        RankFailure, SpanKind, SpanRecord, Universe, ZeroCost,
    };
    pub use summagen_core::{
        multiply, multiply_abft, multiply_traced, multiply_with_cost, multiply_with_options,
        multiply_with_recovery, simulate, simulate_instrumented, simulate_with_options,
        AbftOptions, AbftReport, AbftRunResult, ExecutionMode, RecoveryOptions, RecoveryReport,
        RunOptions, RunResult, SimReport,
    };
    pub use summagen_matrix::{random_matrix, DenseMatrix, GemmKernel};
    pub use summagen_partition::{
        beaumont_column_layout, load_imbalancing_areas, proportional_areas, DiscreteFpm,
        PartitionSpec, Shape, ALL_FOUR_SHAPES,
    };
    pub use summagen_platform::profile::hclserver1;
    pub use summagen_platform::{AbstractProcessor, Platform};
    pub use summagen_trace::{
        critical_path, metrics, perfetto_json, CriticalPath, RecordedTrace, TraceMetrics,
        TraceRecorder,
    };
}
