//! Matrix partitioning for SummaGen.
//!
//! This crate owns everything about *who computes which part of `C`*:
//!
//! * [`spec`] — the [`PartitionSpec`] type: the paper's
//!   `{subp, subph, subpw}` arrays describing an arbitrary grid of
//!   sub-partitions and their owners, with validation, per-processor block
//!   enumeration, areas and covering rectangles.
//! * [`shapes`] — the Section V constructors for the four shapes proven
//!   optimal for three processors (square corner, square rectangle, block
//!   2D rectangular, traditional 1D rectangular), plus extension shapes
//!   from the DeFlumere six-candidate family.
//! * [`distribution`] — workload distribution: proportional areas for
//!   constant performance models, a balanced FPM partitioner, and the
//!   load-imbalancing partitioner over non-smooth discrete FPMs of
//!   Khaleghzadeh et al. that Section VI-B uses.
//! * [`cost`] — the analytic model of Section II: computation time
//!   `max a_i / s_i(a_i)`, communication volume as sums of half-perimeters
//!   of covering rectangles, and the communication lower bound.
//! * [`columns`] — the Beaumont et al. column-based rectangular
//!   partitioning (the baseline thread of related work), for arbitrary `p`.

pub mod auto;
pub mod columns;
pub mod cost;
pub mod distribution;
pub mod energy_opt;
pub mod exact;
pub mod nrrp;
pub mod refine;
pub mod shapes;
pub mod spec;
pub mod two_proc;

pub use auto::auto_layout;
pub use columns::beaumont_column_layout;
pub use cost::{comm_volume_elements, comp_times, half_perimeter_lower_bound, CostSummary};
pub use distribution::{
    balanced_fpm_areas, load_imbalancing_areas, proportional_areas, DiscreteFpm,
};
pub use energy_opt::energy_optimal_areas;
pub use exact::{exact_three_processor_optimum, ExactResult};
pub use nrrp::nrrp_layout;
pub use refine::{push_optimize, PushResult};
pub use shapes::{Shape, ALL_FOUR_SHAPES};
pub use spec::{PartitionSpec, ProcBlock, SpecError};
