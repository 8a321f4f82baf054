//! Placement: which devices a job runs on, under which partition shape,
//! and when — the seat of the FPM-aware scheduling the service exists to
//! demonstrate.
//!
//! Three policies share one planning interface:
//!
//! * **FIFO** — every job takes the whole pool in arrival order, split
//!   into *equal* areas (the CPM assumption: all devices alike). The
//!   naive baseline: heterogeneity hurts it twice, once because the
//!   slowest device gates every job and once because jobs serialize.
//! * **Round-robin** — each job runs whole on one device, cycling
//!   through the pool. Parallel across jobs but speed- and size-blind: a
//!   large job landing on the slowest device stalls its whole lane.
//! * **FPM-aware** — for each job, every device subset is costed with
//!   the pool's functional performance models: areas proportional to
//!   speed-at-assigned-area, per-device compute time `2·a_i·n/s_i(a_i)`,
//!   Hockney broadcast cost from the partition's half-perimeters, and
//!   the subset's current availability. The placement minimizing the
//!   predicted completion instant wins; three-device subsets also pick
//!   the best of the paper's partition shapes. Everything but the
//!   availability is a function of `(n, eligible devices)`, so the pool
//!   costs each such pair once, into its placement table, and a plan is
//!   one pass over a table row.

use std::collections::BTreeMap;
use std::str::FromStr;
use std::sync::Arc;

use summagen_partition::{
    beaumont_column_layout, proportional_areas, CostSummary, PartitionSpec, Shape, ALL_FOUR_SHAPES,
};
use summagen_platform::{Platform, SpeedFunction};

use crate::job::JobSpec;

/// Scheduling policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Whole pool, equal split, arrival order.
    Fifo,
    /// One device per job, cycling.
    RoundRobin,
    /// Speed-function-aware subset + shape selection.
    #[default]
    FpmAware,
}

impl Policy {
    /// Stable label for artifacts, metrics, and span records.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::RoundRobin => "round-robin",
            Policy::FpmAware => "fpm-aware",
        }
    }

    /// The three policies in comparison order (baselines first).
    pub const ALL: [Policy; 3] = [Policy::Fifo, Policy::RoundRobin, Policy::FpmAware];
}

impl FromStr for Policy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fifo" => Ok(Policy::Fifo),
            "rr" | "round-robin" => Ok(Policy::RoundRobin),
            "fpm" | "fpm-aware" => Ok(Policy::FpmAware),
            other => Err(format!(
                "unknown policy '{other}'; expected fifo, rr, or fpm"
            )),
        }
    }
}

/// One device of the shared pool, with its availability horizon.
pub struct PoolDevice {
    /// Human-readable name (from the platform's device spec).
    pub name: &'static str,
    /// The device's functional performance model.
    pub speed: Arc<dyn SpeedFunction>,
    /// Virtual instant the device finishes everything dispatched to it.
    pub busy_until: f64,
    /// Total virtual seconds of dispatched occupancy, for utilization.
    pub busy_seconds: f64,
}

/// The shared device pool every job is placed onto.
pub struct DevicePool {
    devices: Vec<PoolDevice>,
    alpha: f64,
    beta: f64,
    rr_cursor: usize,
    /// The schedulable devices as a bit mask, set by the quarantine layer
    /// before each dispatch round: all of them without quarantine, and
    /// also when quarantine holds every one (see `eligible_devices`).
    eligible: u32,
    /// The placement table: `(n, device bit mask)` → every FPM candidate
    /// over those devices, in tie-break order, with `start` left at zero
    /// (availability is applied at lookup). Filled on first use and
    /// never invalidated — a row depends only on its key and on the
    /// speed functions, `alpha` and `beta`, all fixed at construction.
    table: BTreeMap<(usize, u32), Vec<Placement>>,
}

impl DevicePool {
    /// Builds a pool of at most 16 devices (the planner costs every subset)
    /// from a platform's abstract processors and a Hockney link model.
    pub fn from_platform(platform: &Platform, alpha: f64, beta: f64) -> Self {
        let devices: Vec<PoolDevice> = platform
            .processors
            .iter()
            .map(|p| PoolDevice {
                name: p.spec.name,
                speed: Arc::clone(&p.speed),
                busy_until: 0.0,
                busy_seconds: 0.0,
            })
            .collect();
        assert!(
            devices.len() <= 16,
            "a pool holds at most 16 devices: the planner costs every subset"
        );
        let eligible = (1 << devices.len()) - 1;
        Self {
            devices,
            alpha,
            beta,
            rr_cursor: 0,
            eligible,
            table: BTreeMap::new(),
        }
    }

    /// Hockney latency of the pool's links, seconds.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Hockney reciprocal bandwidth, seconds/byte.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the pool is empty (it never is — platforms require at
    /// least one processor).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The devices, in pool order.
    pub fn devices(&self) -> &[PoolDevice] {
        &self.devices
    }

    /// The earliest instant all devices of `subset` are free.
    pub fn available_at(&self, subset: &[usize]) -> f64 {
        subset
            .iter()
            .map(|&d| self.devices[d].busy_until)
            .fold(0.0, f64::max)
    }

    /// Marks `subset` occupied until `finish`, accounting the busy time.
    pub fn occupy(&mut self, subset: &[usize], start: f64, finish: f64) {
        for &d in subset {
            self.devices[d].busy_until = finish;
            self.devices[d].busy_seconds += finish - start;
        }
    }

    /// Truncates a previous occupancy of `subset` from `old_finish` back
    /// to `new_finish` — the preemption path freeing devices at a panel
    /// boundary. The busy accounting gives back the unexecuted tail.
    pub fn release(&mut self, subset: &[usize], new_finish: f64, old_finish: f64) {
        debug_assert!(new_finish <= old_finish);
        for &d in subset {
            if self.devices[d].busy_until == old_finish {
                self.devices[d].busy_until = new_finish;
            }
            self.devices[d].busy_seconds -= old_finish - new_finish;
        }
    }

    /// Sets the per-device schedulability mask (quarantine). The mask
    /// length must equal the pool size.
    pub fn set_eligible(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.devices.len());
        let bits = (0..mask.len())
            .filter(|&d| mask[d])
            .fold(0, |m, d| m | 1 << d);
        self.eligible = Some(bits)
            .filter(|&b| b != 0)
            .unwrap_or((1 << mask.len()) - 1);
    }

    /// Whether a schedulable device is free at `t`. If none is, no
    /// placement of any policy can start by `t`.
    pub(crate) fn any_free(&self, t: f64) -> bool {
        (0..self.len()).any(|d| self.eligible >> d & 1 == 1 && self.devices[d].busy_until <= t)
    }

    /// The schedulable device indices. Fail-open: if quarantine has
    /// opened every breaker at once, the whole pool is offered — a
    /// scheduler with zero devices would deadlock the event loop, and a
    /// uniformly-failing pool has nothing better to offer anyway.
    pub fn eligible_devices(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|d| self.eligible >> d & 1 == 1)
            .collect()
    }

    /// Costs the table row of `n` over `devices` (ascending pool indices)
    /// if this is its first use, and returns its key.
    fn cost(&mut self, n: usize, devices: &[usize]) -> (usize, u32) {
        let key = (n, devices.iter().fold(0, |mask, &d| mask | 1 << d));
        if !self.table.contains_key(&key) {
            let row = fpm_candidates(self, devices, n);
            self.table.insert(key, row);
        }
        key
    }

    /// The placement an FPM [`Pick`] stands for.
    pub(crate) fn placement(&self, pick: Pick) -> Placement {
        Placement {
            start: pick.start,
            ..self.table[&pick.key][pick.index].clone()
        }
    }

    /// Speeds of a subset evaluated at the given areas.
    fn speeds_at(&self, subset: &[usize], areas: &[f64]) -> Vec<f64> {
        subset
            .iter()
            .zip(areas)
            .map(|(&d, &a)| self.devices[d].speed.flops(a))
            .collect()
    }
}

/// A planned placement: where and when a job (or batch) would run.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Pool indices of the chosen devices.
    pub devices: Vec<usize>,
    /// Partition shape of the placement.
    pub shape: Shape,
    /// Relative speeds of the chosen devices at their assigned areas —
    /// what the real executor re-partitions from on recovery.
    pub rel_speeds: Vec<f64>,
    /// Earliest start (max of `now` and the subset's availability).
    pub start: f64,
    /// Estimated service time of one job of the planned size, seconds.
    pub duration: f64,
}

impl Placement {
    /// Predicted completion instant of a single job.
    pub fn finish(&self) -> f64 {
        self.start + self.duration
    }
}

/// Estimated service time of an `n × n` multiply on `subset` with the
/// given per-device areas: max per-device compute time plus the Hockney
/// broadcast estimate of the partition — `CostSummary::analyze` on the
/// exact spec the placement would use.
fn estimate(pool: &DevicePool, spec: &PartitionSpec, subset: &[usize]) -> f64 {
    let speeds: Vec<&dyn SpeedFunction> = subset
        .iter()
        .map(|&d| pool.devices[d].speed.as_ref())
        .collect();
    CostSummary::analyze(spec, &speeds, pool.alpha, pool.beta).est_total_time
}

/// Builds the partition spec a subset would run under: the requested
/// paper shape for three devices (the shapes are three-processor
/// constructions), Beaumont's column layout otherwise.
fn subset_spec(shape: Shape, n: usize, areas: &[f64]) -> PartitionSpec {
    if areas.len() == 3 {
        shape.build(n, areas)
    } else {
        beaumont_column_layout(n, &areas.iter().map(|&a| a.max(1.0)).collect::<Vec<_>>())
    }
}

/// FPM-proportional areas for `subset`: speeds are evaluated at an equal
/// split first, then areas are made proportional to those speeds and the
/// speeds re-evaluated once at the assigned areas — one fixed-point
/// refinement, deterministic and close enough for placement ranking.
fn fpm_areas(pool: &DevicePool, subset: &[usize], n: usize) -> Vec<f64> {
    let equal = vec![(n * n) as f64 / subset.len() as f64; subset.len()];
    let s0 = pool.speeds_at(subset, &equal);
    let a1 = proportional_areas(n, &s0);
    let s1 = pool.speeds_at(subset, &a1);
    proportional_areas(n, &s1)
}

/// Estimated service time of an `n × n` job on the device set `subset`
/// (ascending pool indices) under FPM-proportional areas — what the fault
/// model re-costs a shrink-and-retry attempt with after a device drops
/// out of a placement, and what deadline admission drains its backlog at.
/// Read from the placement table: the column-layout candidate over the
/// whole of `subset` in the row `subset` keys.
pub fn service_time(pool: &mut DevicePool, subset: &[usize], n: usize) -> f64 {
    let key = pool.cost(n, subset);
    pool.table[&key]
        .iter()
        .find(|c| c.devices.len() == subset.len() && c.shape == Shape::OneDRectangular)
        .expect("the whole subset has a column-layout candidate")
        .duration
}

/// Plans where the next job would run under `policy`, *without* occupying
/// the pool (the only thing it may write is a placement-table row).
/// `now` is the scheduler's current virtual instant.
pub fn plan(policy: Policy, pool: &mut DevicePool, job: &JobSpec, now: f64) -> Placement {
    match policy {
        Policy::Fifo => plan_fifo(pool, job, now),
        Policy::RoundRobin => plan_round_robin(pool, job, now),
        Policy::FpmAware => {
            let pick = fpm_pick(pool, job.n, now);
            pool.placement(pick)
        }
    }
}

/// Commits a placement: advances the round-robin cursor. (Pool occupancy
/// is committed separately once the batch size is known.)
pub fn commit(policy: Policy, pool: &mut DevicePool) {
    if policy == Policy::RoundRobin {
        pool.rr_cursor = (pool.rr_cursor + 1) % pool.devices.len();
    }
}

fn plan_fifo(pool: &DevicePool, job: &JobSpec, now: f64) -> Placement {
    let subset: Vec<usize> = pool.eligible_devices();
    let n = job.n;
    let equal = vec![(n * n) as f64 / subset.len() as f64; subset.len()];
    let shape = Shape::OneDRectangular;
    let spec = subset_spec(shape, n, &equal);
    let duration = estimate(pool, &spec, &subset);
    let rel_speeds = vec![1.0; subset.len()];
    Placement {
        start: pool.available_at(&subset).max(now),
        devices: subset,
        shape,
        rel_speeds,
        duration,
    }
}

fn plan_round_robin(pool: &DevicePool, job: &JobSpec, now: f64) -> Placement {
    // First eligible device at or after the cursor — quarantined lanes
    // are skipped but the cursor still advances one step per commit, so
    // the cycling order is stable when devices return.
    let len = pool.devices.len();
    let d = (0..len)
        .map(|i| (pool.rr_cursor + i) % len)
        .find(|&d| pool.eligible >> d & 1 == 1)
        .unwrap_or(pool.rr_cursor % len);
    let n = job.n;
    let area = (n * n) as f64;
    let spec = subset_spec(Shape::OneDRectangular, n, &[area]);
    let duration = estimate(pool, &spec, &[d]);
    Placement {
        start: pool.available_at(&[d]).max(now),
        devices: vec![d],
        shape: Shape::OneDRectangular,
        rel_speeds: vec![1.0],
        duration,
    }
}

/// Every non-empty subset of `0..len`, singletons first, then by size —
/// the candidate order also serves as the deterministic tie-break.
fn subsets(len: usize) -> Vec<Vec<usize>> {
    let mut all: Vec<Vec<usize>> = (1u32..(1 << len))
        .map(|mask| (0..len).filter(|d| mask & (1 << d) != 0).collect())
        .collect();
    all.sort_by_key(|s| (s.len(), s.clone()));
    all
}

/// Every FPM candidate over the devices of `eligible`: each subset in
/// [`subsets`] order, under the four paper layouts for three devices and
/// the column layout otherwise (it covers any count). The order is the
/// planner's tie-break, so it is part of the schedule.
fn fpm_candidates(pool: &DevicePool, eligible: &[usize], n: usize) -> Vec<Placement> {
    let mut row = Vec::new();
    for positions in subsets(eligible.len()) {
        let subset: Vec<usize> = positions.iter().map(|&p| eligible[p]).collect();
        let areas = fpm_areas(pool, &subset, n);
        let speeds = pool.speeds_at(&subset, &areas);
        let shapes: &[Shape] = if subset.len() == 3 {
            &ALL_FOUR_SHAPES
        } else {
            &[Shape::OneDRectangular]
        };
        for &shape in shapes {
            let spec = subset_spec(shape, n, &areas);
            row.push(Placement {
                duration: estimate(pool, &spec, &subset),
                devices: subset.clone(),
                shape,
                rel_speeds: speeds.clone(),
                start: 0.0,
            });
        }
    }
    row
}

/// An FPM plan before it becomes a [`Placement`]: a table row's winning
/// candidate and its start. Only a plan that dispatches clones it.
#[derive(Clone, Copy)]
pub(crate) struct Pick {
    key: (usize, u32),
    index: usize,
    pub(crate) start: f64,
}

/// Plans a job of size `n` FPM-aware over the schedulable devices: one
/// table lookup (costing the row on its first use) and one scan of it.
pub(crate) fn fpm_pick(pool: &mut DevicePool, n: usize, now: f64) -> Pick {
    let key = (n, pool.eligible);
    let row = match pool.table.get(&key) {
        Some(row) => row,
        None => {
            pool.cost(n, &pool.eligible_devices());
            &pool.table[&key]
        }
    };
    let mut best: Option<(f64, Pick)> = None;
    for (index, cand) in row.iter().enumerate() {
        let start = pool.available_at(&cand.devices).max(now);
        let finish = start + cand.duration;
        // Strictly-less comparison keeps the first (smallest-subset,
        // lexicographically-first, earliest-shape) candidate on ties
        // — fully deterministic.
        if best.is_none_or(|(best_finish, _)| finish < best_finish) {
            best = Some((finish, Pick { key, index, start }));
        }
    }
    best.expect("pool has at least one device").1
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use summagen_platform::device::HASWELL_E5_2670V3;
    use summagen_platform::profile::hclserver1;
    use summagen_platform::{AbstractProcessor, ConstantSpeed, TabulatedSpeed};

    fn pool() -> DevicePool {
        // hclserver1: AbsCPU (0.575 TF), AbsGPU (1.15 TF), AbsPhi
        // (0.5175 TF) — heterogeneity factor ~2.2.
        DevicePool::from_platform(&hclserver1(), 1e-5, 4e-10)
    }

    fn job(n: usize) -> JobSpec {
        JobSpec {
            id: 0,
            tenant: 0,
            n,
            priority: 0,
            deadline: None,
            submit_time: 0.0,
        }
    }

    #[test]
    fn policy_parses_and_names_round_trip() {
        for p in Policy::ALL {
            assert_eq!(Policy::from_str(p.name()).unwrap(), p);
        }
        assert_eq!(Policy::from_str("rr").unwrap(), Policy::RoundRobin);
        assert_eq!(Policy::from_str("fpm").unwrap(), Policy::FpmAware);
        assert!(Policy::from_str("lifo").is_err());
    }

    #[test]
    fn fifo_takes_the_whole_pool() {
        let mut p = pool();
        let placement = plan(Policy::Fifo, &mut p, &job(1024), 0.0);
        assert_eq!(placement.devices, vec![0, 1, 2]);
        assert!(placement.duration > 0.0);
    }

    #[test]
    fn round_robin_cycles_devices() {
        let mut p = pool();
        let a = plan(Policy::RoundRobin, &mut p, &job(512), 0.0);
        commit(Policy::RoundRobin, &mut p);
        let b = plan(Policy::RoundRobin, &mut p, &job(512), 0.0);
        commit(Policy::RoundRobin, &mut p);
        let c = plan(Policy::RoundRobin, &mut p, &job(512), 0.0);
        commit(Policy::RoundRobin, &mut p);
        let d = plan(Policy::RoundRobin, &mut p, &job(512), 0.0);
        assert_eq!(a.devices, vec![0]);
        assert_eq!(b.devices, vec![1]);
        assert_eq!(c.devices, vec![2]);
        assert_eq!(d.devices, vec![0]);
    }

    #[test]
    fn fpm_beats_fifo_on_service_time_for_large_jobs() {
        // With an empty pool, the FPM placement of a large job must be at
        // least as fast as FIFO's equal split: proportional areas cannot
        // lose to equal areas under the same model.
        let mut p = pool();
        let fifo = plan(Policy::Fifo, &mut p, &job(8192), 0.0);
        let fpm = plan(Policy::FpmAware, &mut p, &job(8192), 0.0);
        assert!(
            fpm.finish() <= fifo.finish() + 1e-12,
            "fpm {} vs fifo {}",
            fpm.finish(),
            fifo.finish()
        );
    }

    #[test]
    fn fpm_prefers_a_busy_fast_device_over_an_idle_slow_one_when_worth_it() {
        let mut p = pool();
        // Occupy the slow devices far into the future; the GPU frees soon.
        p.occupy(&[0], 0.0, 50.0);
        p.occupy(&[2], 0.0, 50.0);
        p.occupy(&[1], 0.0, 0.001);
        let placement = plan(Policy::FpmAware, &mut p, &job(4096), 0.0);
        assert_eq!(placement.devices, vec![1], "expected the lone GPU");
        assert!(placement.start >= 0.001);
    }

    #[test]
    fn fpm_placement_is_deterministic() {
        let mut p1 = pool();
        let mut p2 = pool();
        let a = plan(Policy::FpmAware, &mut p1, &job(2048), 0.0);
        let b = plan(Policy::FpmAware, &mut p2, &job(2048), 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn subsets_enumerates_all_and_orders_by_size() {
        let s = subsets(3);
        assert_eq!(s.len(), 7);
        assert_eq!(s[0], vec![0]);
        assert_eq!(s[6], vec![0, 1, 2]);
        assert!(s.windows(2).all(|w| w[0].len() <= w[1].len()));
    }

    #[test]
    fn occupy_accounts_busy_time() {
        let mut p = pool();
        p.occupy(&[0, 1], 1.0, 3.5);
        assert_eq!(p.available_at(&[0]), 3.5);
        assert_eq!(p.available_at(&[2]), 0.0);
        assert_eq!(p.devices()[0].busy_seconds, 2.5);
    }

    #[test]
    fn release_gives_back_the_unexecuted_tail() {
        let mut p = pool();
        p.occupy(&[0, 1], 0.0, 10.0);
        p.release(&[0, 1], 4.0, 10.0);
        assert_eq!(p.available_at(&[0, 1]), 4.0);
        assert_eq!(p.devices()[0].busy_seconds, 4.0);
        assert_eq!(p.devices()[1].busy_seconds, 4.0);
    }

    #[test]
    fn quarantined_devices_are_skipped_by_every_policy() {
        let mut p = pool();
        p.set_eligible(&[true, false, true]);
        let fifo = plan(Policy::Fifo, &mut p, &job(1024), 0.0);
        assert_eq!(fifo.devices, vec![0, 2]);
        let fpm = plan(Policy::FpmAware, &mut p, &job(4096), 0.0);
        assert!(!fpm.devices.contains(&1), "fpm placed on quarantined GPU");
        // Round-robin cursor 0 → device 0; advancing past the
        // quarantined device 1 lands on 2.
        let a = plan(Policy::RoundRobin, &mut p, &job(512), 0.0);
        commit(Policy::RoundRobin, &mut p);
        let b = plan(Policy::RoundRobin, &mut p, &job(512), 0.0);
        assert_eq!(a.devices, vec![0]);
        assert_eq!(b.devices, vec![2]);
    }

    #[test]
    fn all_quarantined_fails_open_to_the_whole_pool() {
        let mut p = pool();
        p.set_eligible(&[false, false, false]);
        assert_eq!(p.eligible_devices(), vec![0, 1, 2]);
        let fifo = plan(Policy::Fifo, &mut p, &job(1024), 0.0);
        assert_eq!(fifo.devices, vec![0, 1, 2]);
        // ... and keys the placement table as the whole pool does.
        let open = plan(Policy::FpmAware, &mut p, &job(1024), 0.0);
        p.set_eligible(&[true, true, true]);
        assert_eq!(plan(Policy::FpmAware, &mut p, &job(1024), 0.0), open);
        assert_eq!(p.table.keys().collect::<Vec<_>>(), [&(1024, 0b111)]);
    }

    /// The dispatch pass's precheck counts the schedulable devices only,
    /// and the whole pool when quarantine has closed every one.
    #[test]
    fn any_free_counts_only_schedulable_devices() {
        let mut p = pool();
        p.occupy(&[0, 2], 0.0, 5.0);
        assert!(p.any_free(1.0));
        p.set_eligible(&[true, false, true]);
        assert!(!p.any_free(1.0), "the free device 1 is quarantined");
        assert!(p.any_free(5.0));
        p.set_eligible(&[false, false, false]);
        assert!(p.any_free(1.0), "fail-open offers device 1 again");
    }

    // ---- The placement table against the direct costing it replaced ----

    /// The planner as it was before the table: every subset × shape
    /// costed on the spot. The reference the table is proptested against.
    fn plan_fpm_direct(pool: &DevicePool, n: usize, now: f64) -> Placement {
        let eligible = pool.eligible_devices();
        let mut best: Option<Placement> = None;
        for positions in subsets(eligible.len()) {
            let subset: Vec<usize> = positions.iter().map(|&p| eligible[p]).collect();
            let areas = fpm_areas(pool, &subset, n);
            let speeds = pool.speeds_at(&subset, &areas);
            let shapes: &[Shape] = if subset.len() == 3 {
                &ALL_FOUR_SHAPES
            } else {
                &[Shape::OneDRectangular]
            };
            let start = pool.available_at(&subset).max(now);
            for &shape in shapes {
                let spec = subset_spec(shape, n, &areas);
                let duration = estimate(pool, &spec, &subset);
                let cand = Placement {
                    devices: subset.clone(),
                    shape,
                    rel_speeds: speeds.clone(),
                    start,
                    duration,
                };
                if best.as_ref().is_none_or(|b| cand.finish() < b.finish()) {
                    best = Some(cand);
                }
            }
        }
        best.expect("pool has at least one device")
    }

    /// `service_time` as it was before the table.
    fn service_time_direct(pool: &DevicePool, subset: &[usize], n: usize) -> f64 {
        let areas = fpm_areas(pool, subset, n);
        let spec = subset_spec(Shape::OneDRectangular, n, &areas);
        estimate(pool, &spec, subset)
    }

    /// A placement with its floats as bit patterns: equality is exact.
    fn bits(p: &Placement) -> (&[usize], Shape, Vec<u64>, u64, u64) {
        (
            &p.devices,
            p.shape,
            p.rel_speeds.iter().map(|s| s.to_bits()).collect(),
            p.start.to_bits(),
            p.duration.to_bits(),
        )
    }

    /// The two mixes' sizes plus odd ones no mix uses.
    const SIZES: [usize; 12] = [
        256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 257, 333, 1001,
    ];

    /// A pool of constant-speed and tabulated (discrete-FPM) devices.
    /// Speeds come from a small grid so identical devices — equal
    /// durations, the tie-break's case — are common.
    pub(crate) fn random_pool(devices: &[(u32, u32, u32)]) -> DevicePool {
        let processors = devices
            .iter()
            .map(|&(kind, half_tf, drop_pct)| {
                let peak = 0.5e12 * f64::from(half_tf);
                let speed: Arc<dyn SpeedFunction> = if kind == 0 {
                    Arc::new(ConstantSpeed::new(peak))
                } else {
                    // Full speed up to a 1024² partition, then a cliff.
                    let knee = 1024.0 * 1024.0;
                    Arc::new(TabulatedSpeed::new(vec![
                        (0.0, peak),
                        (knee, peak),
                        (2.0 * knee, peak * f64::from(drop_pct) / 100.0),
                    ]))
                };
                AbstractProcessor::new(HASWELL_E5_2670V3, speed)
            })
            .collect();
        DevicePool::from_platform(&Platform::new(processors, 0.0), 1e-5, 4e-10)
    }

    /// The planner enumerates every subset of the pool, so a pool it
    /// cannot plan for is refused when it is built, not on the first plan.
    #[test]
    #[should_panic(expected = "a pool holds at most 16 devices")]
    fn a_pool_of_seventeen_devices_is_refused() {
        random_pool(&[(0, 1, 100); 17]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One pool, a sequence of plans with the horizons, the clock
        /// and the eligibility mask changing in between: the table must
        /// return, bit for bit, what costing from scratch returns — for
        /// `plan` and for `service_time` on every subset.
        #[test]
        fn table_matches_direct_costing(
            devices in proptest::collection::vec((0u32..2, 1u32..4, 10u32..100), 1..5),
            steps in proptest::collection::vec(
                (0usize..SIZES.len(), 0u32..16, 0u32..300, 0u64..u64::MAX),
                1..10,
            ),
        ) {
            let mut pool = random_pool(&devices);
            let len = pool.len();
            for (size, mask, now, horizons) in steps {
                let (n, now) = (SIZES[size], f64::from(now) * 0.01);
                // Every mask of the pool, all-false (fail-open) included.
                let mask: Vec<bool> = (0..len).map(|d| mask & (1 << d) != 0).collect();
                pool.set_eligible(&mask);
                for d in 0..len {
                    // 10 ms grid: equal horizons, hence tied starts, are common.
                    let finish = ((horizons >> (8 * d)) & 0xff) as f64 * 0.01;
                    pool.occupy(&[d], 0.0, finish);
                }
                let want = plan_fpm_direct(&pool, n, now);
                let got = plan(Policy::FpmAware, &mut pool, &job(n), now);
                prop_assert_eq!(bits(&got), bits(&want), "n {} mask {:?}", n, mask);
                for subset in subsets(len) {
                    let want = service_time_direct(&pool, &subset, n);
                    let got = service_time(&mut pool, &subset, n);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "n {} on {:?}", n, subset);
                }
            }
        }
    }
}
