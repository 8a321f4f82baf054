//! Bounded admission: the job queue, its capacity and per-tenant quotas,
//! and the typed backpressure it pushes back on submitters.
//!
//! The queue is the *only* buffer in the service — a job is either
//! rejected at the door with a [`Rejection`], sitting here, or running on
//! the device pool. Admission is checked in a fixed order (size, then
//! tenant quota, then capacity), so a given job always bounces for the
//! same reason regardless of what else is queued.

use std::collections::VecDeque;

use crate::job::{JobSpec, Rejection};

/// Admission-control bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum jobs queued at once (running jobs do not count).
    pub queue_capacity: usize,
    /// Maximum queued jobs per tenant.
    pub per_tenant_quota: usize,
    /// Largest accepted problem size.
    pub max_n: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            per_tenant_quota: 64,
            max_n: 16_384,
        }
    }
}

/// The bounded multi-tenant job queue.
#[derive(Debug)]
pub struct JobQueue {
    config: AdmissionConfig,
    jobs: VecDeque<JobSpec>,
    /// Queued-job count per tenant index (grown on demand).
    tenant_counts: Vec<usize>,
    /// High-water mark of the queue depth, for the gauge.
    peak_depth: usize,
}

impl JobQueue {
    /// An empty queue under the given bounds.
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            jobs: VecDeque::new(),
            tenant_counts: Vec::new(),
            peak_depth: 0,
        }
    }

    /// The admission bounds.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Deepest the queue has ever been.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Queued jobs of one tenant.
    pub fn tenant_depth(&self, tenant: usize) -> usize {
        self.tenant_counts.get(tenant).copied().unwrap_or(0)
    }

    /// Admits a job or rejects it with the typed reason. Checks are
    /// ordered size → quota → capacity, so the reported reason is
    /// deterministic.
    pub fn offer(&mut self, job: JobSpec) -> Result<(), Rejection> {
        if job.n > self.config.max_n {
            return Err(Rejection::TooLarge {
                max_n: self.config.max_n,
            });
        }
        if self.tenant_depth(job.tenant) >= self.config.per_tenant_quota {
            return Err(Rejection::QuotaExceeded {
                quota: self.config.per_tenant_quota,
            });
        }
        if self.jobs.len() >= self.config.queue_capacity {
            return Err(Rejection::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        if self.tenant_counts.len() <= job.tenant {
            self.tenant_counts.resize(job.tenant + 1, 0);
        }
        self.tenant_counts[job.tenant] += 1;
        self.jobs.push_back(job);
        self.peak_depth = self.peak_depth.max(self.jobs.len());
        Ok(())
    }

    /// Removes and returns the job at `index` (0 = head / oldest).
    ///
    /// # Panics
    /// Panics if `index` is out of bounds — the scheduler only asks for
    /// indices it just observed.
    pub fn take(&mut self, index: usize) -> JobSpec {
        let job = self.jobs.remove(index).expect("queue index in bounds");
        self.tenant_counts[job.tenant] -= 1;
        job
    }

    /// Returns a *preempted* job to the head of the queue, bypassing the
    /// admission bounds. A preempted job was already admitted once — a
    /// second admission check could reject it, and the conservation
    /// invariant (every accepted job completes, fails, or is explicitly
    /// rejected, exactly once) forbids losing it to its own preemption.
    /// The quota slot is re-held so the tenant's queue depth stays
    /// truthful; the capacity bound may transiently overshoot, which the
    /// peak-depth gauge deliberately records.
    pub fn requeue_front(&mut self, job: JobSpec) {
        if self.tenant_counts.len() <= job.tenant {
            self.tenant_counts.resize(job.tenant + 1, 0);
        }
        self.tenant_counts[job.tenant] += 1;
        self.jobs.push_front(job);
        self.peak_depth = self.peak_depth.max(self.jobs.len());
    }

    /// Re-enters a *recovered* job at the tail of the queue, bypassing
    /// the admission bounds. Crash recovery replays jobs the journal
    /// proves were admitted before the crash — re-running admission
    /// could reject them (the restart order differs from the arrival
    /// order), and the exactly-once invariant forbids losing a job to
    /// its own recovery. The quota slot is re-held so tenant depths
    /// stay truthful.
    pub fn preload_back(&mut self, job: JobSpec) {
        if self.tenant_counts.len() <= job.tenant {
            self.tenant_counts.resize(job.tenant + 1, 0);
        }
        self.tenant_counts[job.tenant] += 1;
        self.jobs.push_back(job);
        self.peak_depth = self.peak_depth.max(self.jobs.len());
    }

    /// Removes and returns every queued job `pred` matches, preserving
    /// order — the brownout's shed sweep. Quota slots are released.
    pub fn drain_matching(&mut self, pred: impl Fn(&JobSpec) -> bool) -> Vec<JobSpec> {
        let mut kept = VecDeque::with_capacity(self.jobs.len());
        let mut shed = Vec::new();
        for job in self.jobs.drain(..) {
            if pred(&job) {
                self.tenant_counts[job.tenant] -= 1;
                shed.push(job);
            } else {
                kept.push_back(job);
            }
        }
        self.jobs = kept;
        shed
    }

    /// The queued jobs in arrival order, for the scheduler to inspect.
    pub fn iter(&self) -> impl Iterator<Item = &JobSpec> {
        self.jobs.iter()
    }

    /// The queued job at `index` (0 = head / oldest), if there is one.
    pub fn get(&self, index: usize) -> Option<&JobSpec> {
        self.jobs.get(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, tenant: usize, n: usize) -> JobSpec {
        JobSpec {
            id,
            tenant,
            n,
            priority: 0,
            deadline: None,
            submit_time: id as f64,
        }
    }

    fn small_config() -> AdmissionConfig {
        AdmissionConfig {
            queue_capacity: 3,
            per_tenant_quota: 2,
            max_n: 100,
        }
    }

    #[test]
    fn admits_until_capacity_then_backpressures() {
        let mut q = JobQueue::new(small_config());
        assert!(q.offer(job(0, 0, 10)).is_ok());
        assert!(q.offer(job(1, 1, 10)).is_ok());
        assert!(q.offer(job(2, 2, 10)).is_ok());
        assert_eq!(
            q.offer(job(3, 3, 10)),
            Err(Rejection::QueueFull { capacity: 3 })
        );
        assert_eq!(q.len(), 3);
        assert_eq!(q.peak_depth(), 3);
    }

    #[test]
    fn enforces_per_tenant_quota_before_capacity() {
        let mut q = JobQueue::new(small_config());
        assert!(q.offer(job(0, 0, 10)).is_ok());
        assert!(q.offer(job(1, 0, 10)).is_ok());
        // Tenant 0 is at quota even though the queue has room.
        assert_eq!(
            q.offer(job(2, 0, 10)),
            Err(Rejection::QuotaExceeded { quota: 2 })
        );
        // Another tenant still fits.
        assert!(q.offer(job(3, 1, 10)).is_ok());
    }

    #[test]
    fn rejects_oversized_jobs_first() {
        let mut q = JobQueue::new(small_config());
        // Size is checked before quota/capacity: even an empty queue
        // bounces an oversized job as TooLarge.
        assert_eq!(
            q.offer(job(0, 0, 101)),
            Err(Rejection::TooLarge { max_n: 100 })
        );
        assert!(q.is_empty());
    }

    #[test]
    fn take_releases_quota() {
        let mut q = JobQueue::new(small_config());
        q.offer(job(0, 0, 10)).unwrap();
        q.offer(job(1, 0, 10)).unwrap();
        let taken = q.take(0);
        assert_eq!(taken.id, 0);
        assert_eq!(q.tenant_depth(0), 1);
        // Quota freed: tenant 0 fits again.
        assert!(q.offer(job(2, 0, 10)).is_ok());
    }

    #[test]
    fn requeue_front_bypasses_bounds_and_goes_first() {
        let mut q = JobQueue::new(small_config());
        q.offer(job(0, 0, 10)).unwrap();
        q.offer(job(1, 0, 10)).unwrap();
        // Tenant 0 is at quota; a preempted job still goes back in, at
        // the head.
        q.requeue_front(job(9, 0, 10));
        assert_eq!(q.len(), 3);
        assert_eq!(q.tenant_depth(0), 3);
        assert_eq!(q.iter().next().unwrap().id, 9);
        assert_eq!(q.take(0).id, 9);
        assert_eq!(q.tenant_depth(0), 2);
    }

    #[test]
    fn preload_back_bypasses_bounds_and_keeps_order() {
        let mut q = JobQueue::new(small_config());
        q.offer(job(0, 0, 10)).unwrap();
        q.offer(job(1, 0, 10)).unwrap();
        // Tenant 0 is at quota; a recovered job still re-enters, at the
        // tail (recovery preserves admission order).
        q.preload_back(job(9, 0, 10));
        assert_eq!(q.len(), 3);
        assert_eq!(q.tenant_depth(0), 3);
        assert_eq!(q.iter().last().unwrap().id, 9);
    }

    #[test]
    fn drain_matching_releases_quota_and_preserves_order() {
        let mut q = JobQueue::new(AdmissionConfig::default());
        q.offer(job(0, 0, 10)).unwrap();
        q.offer(job(1, 1, 10)).unwrap();
        q.offer(job(2, 0, 10)).unwrap();
        let shed = q.drain_matching(|j| j.tenant == 0);
        assert_eq!(shed.iter().map(|j| j.id).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.tenant_depth(0), 0);
        assert_eq!(q.tenant_depth(1), 1);
    }
}
