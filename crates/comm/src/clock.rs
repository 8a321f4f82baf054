//! Virtual time: per-rank clocks and communication cost models.

/// A communication cost model mapping message size to transfer time.
pub trait CostModel: Send + Sync + 'static {
    /// Time in seconds to move `bytes` bytes across one link.
    fn transfer_time(&self, bytes: usize) -> f64;

    /// Time to move `bytes` from global rank `src` to global rank `dst`.
    /// Defaults to the topology-oblivious [`CostModel::transfer_time`];
    /// topology-aware models (e.g. [`TwoLevelTopology`]) override it.
    fn transfer_time_between(&self, _src: usize, _dst: usize, bytes: usize) -> f64 {
        self.transfer_time(bytes)
    }
}

/// A two-level cluster topology: ranks are grouped into nodes; intra-node
/// links use one Hockney model, inter-node links another (slower) one.
/// This models the paper's stated future-work target — "the efficiency of
/// SummaGen for distributed-memory nodes and large clusters".
#[derive(Debug, Clone)]
pub struct TwoLevelTopology {
    /// Node id of each global rank.
    pub node_of: Vec<usize>,
    /// Link model within a node.
    pub intra: HockneyModel,
    /// Link model between nodes.
    pub inter: HockneyModel,
}

impl TwoLevelTopology {
    /// Creates a topology with `ranks_per_node` consecutive ranks per
    /// node.
    pub fn uniform(
        nranks: usize,
        ranks_per_node: usize,
        intra: HockneyModel,
        inter: HockneyModel,
    ) -> Self {
        assert!(ranks_per_node > 0, "empty nodes");
        Self {
            node_of: (0..nranks).map(|r| r / ranks_per_node).collect(),
            intra,
            inter,
        }
    }
}

impl CostModel for TwoLevelTopology {
    fn transfer_time(&self, bytes: usize) -> f64 {
        // Topology-oblivious fallback: the slower link (conservative).
        self.inter.transfer_time(bytes)
    }

    fn transfer_time_between(&self, src: usize, dst: usize, bytes: usize) -> f64 {
        let (s, d) = (
            self.node_of.get(src).copied().unwrap_or(usize::MAX),
            self.node_of.get(dst).copied().unwrap_or(usize::MAX),
        );
        if s == d {
            self.intra.transfer_time(bytes)
        } else {
            self.inter.transfer_time(bytes)
        }
    }
}

/// The Hockney model the paper uses for communication cost analysis:
/// `t(m) = α + β·m`, where `α` is the link latency and `β` the reciprocal
/// bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HockneyModel {
    /// Latency in seconds.
    pub alpha: f64,
    /// Reciprocal bandwidth in seconds per byte.
    pub beta: f64,
}

impl HockneyModel {
    /// Creates a Hockney model from latency (seconds) and bandwidth
    /// (bytes per second).
    pub fn from_latency_bandwidth(latency_s: f64, bandwidth_bytes_per_s: f64) -> Self {
        assert!(latency_s >= 0.0, "negative latency");
        assert!(bandwidth_bytes_per_s > 0.0, "non-positive bandwidth");
        Self {
            alpha: latency_s,
            beta: 1.0 / bandwidth_bytes_per_s,
        }
    }

    /// A model resembling the intra-node links of the paper's testbed:
    /// microsecond-scale latency and a few GB/s of effective bandwidth
    /// (shared-memory MPI transport between abstract processors on one
    /// NUMA node, under the memory contention the paper describes).
    pub fn intra_node() -> Self {
        Self::from_latency_bandwidth(1e-5, 2.5e9)
    }
}

impl CostModel for HockneyModel {
    fn transfer_time(&self, bytes: usize) -> f64 {
        self.alpha + self.beta * bytes as f64
    }
}

/// A free-communication model: useful for isolating computation time in
/// ablation studies and for pure-correctness tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroCost;

impl CostModel for ZeroCost {
    fn transfer_time(&self, _bytes: usize) -> f64 {
        0.0
    }
}

/// Per-rank virtual clock with attributed time categories.
///
/// `now` is the rank's position on the virtual timeline. Time advances are
/// attributed to computation (`advance_compute`) or communication
/// (`advance_comm` / `wait_until`), mirroring how the paper separates
/// Figures 6b/7b (computation) from 6c/7c (communication).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VirtualClock {
    now: f64,
    comp_time: f64,
    comm_time: f64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the clock by `dt` seconds of computation.
    pub fn advance_compute(&mut self, dt: f64) {
        assert!(dt >= 0.0 && dt.is_finite(), "invalid compute advance {dt}");
        self.now += dt;
        self.comp_time += dt;
    }

    /// Advances the clock by `dt` seconds of communication work (e.g. the
    /// sender side of a transfer).
    pub fn advance_comm(&mut self, dt: f64) {
        assert!(dt >= 0.0 && dt.is_finite(), "invalid comm advance {dt}");
        self.now += dt;
        self.comm_time += dt;
    }

    /// Moves the clock forward to `t` if `t` is in the future, attributing
    /// the wait to communication (a receiver blocked in `MPI_Recv`/`Bcast`).
    /// Returns the waited duration (zero when `t` is in the past).
    pub fn wait_until(&mut self, t: f64) -> f64 {
        if t > self.now {
            let waited = t - self.now;
            self.comm_time += waited;
            self.now = t;
            waited
        } else {
            0.0
        }
    }

    /// Snapshot of the attributed times.
    pub fn snapshot(&self) -> ClockSnapshot {
        ClockSnapshot {
            now: self.now,
            comp_time: self.comp_time,
            comm_time: self.comm_time,
        }
    }
}

/// An immutable copy of a rank's clock state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClockSnapshot {
    /// Virtual time at which the rank finished.
    pub now: f64,
    /// Total time attributed to computation.
    pub comp_time: f64,
    /// Total time attributed to communication (transfers plus waiting).
    pub comm_time: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hockney_linear_in_size() {
        let m = HockneyModel {
            alpha: 1e-6,
            beta: 1e-9,
        };
        assert!((m.transfer_time(0) - 1e-6).abs() < 1e-18);
        let t1 = m.transfer_time(1000);
        let t2 = m.transfer_time(2000);
        assert!((t2 - t1 - 1e-6).abs() < 1e-15); // slope = beta * 1000
    }

    #[test]
    fn hockney_from_latency_bandwidth() {
        let m = HockneyModel::from_latency_bandwidth(2e-6, 1e9);
        assert_eq!(m.alpha, 2e-6);
        assert!((m.transfer_time(1_000_000_000) - (2e-6 + 1.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-positive bandwidth")]
    fn hockney_rejects_zero_bandwidth() {
        HockneyModel::from_latency_bandwidth(0.0, 0.0);
    }

    #[test]
    fn zero_cost_is_free() {
        assert_eq!(ZeroCost.transfer_time(1 << 30), 0.0);
    }

    #[test]
    fn clock_attributes_compute_and_comm() {
        let mut c = VirtualClock::new();
        c.advance_compute(2.0);
        c.advance_comm(0.5);
        let s = c.snapshot();
        assert_eq!(s.now, 2.5);
        assert_eq!(s.comp_time, 2.0);
        assert_eq!(s.comm_time, 0.5);
    }

    #[test]
    fn wait_until_only_moves_forward() {
        let mut c = VirtualClock::new();
        c.advance_compute(5.0);
        assert_eq!(c.wait_until(3.0), 0.0);
        assert_eq!(c.now(), 5.0);
        assert_eq!(c.wait_until(7.5), 2.5);
        assert_eq!(c.now(), 7.5);
        assert_eq!(c.snapshot().comm_time, 2.5);
    }

    #[test]
    #[should_panic(expected = "invalid compute advance")]
    fn rejects_negative_advance() {
        VirtualClock::new().advance_compute(-1.0);
    }
}
