//! A bounded ring buffer for span records.
//!
//! Each rank of a run has its own ring (see
//! [`crate::recorder::TraceRecorder`]) and a rank's spans are emitted by
//! whichever thread drives that rank, so a ring's lock is uncontended in
//! practice. The lock is what makes the ring sound for any caller: two
//! threads pushing into one ring, or a reader racing a writer, serialize
//! instead of corrupting the slot vector. When the ring fills it
//! overwrites the *oldest* entries and counts how many were lost, so a
//! bounded recorder degrades to "most recent window" instead of failing.
//!
//! Storage grows on demand up to the capacity: a recorder costs what it
//! records, not what it could hold.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Bounded overwrite-oldest ring, safe to share between threads.
pub(crate) struct RingBuffer<T> {
    slots: Mutex<Slots<T>>,
    capacity: usize,
}

struct Slots<T> {
    /// The first `min(written, capacity)` slots, in index order; grown by
    /// `push` until it holds `capacity` of them, never beyond.
    values: Vec<T>,
    /// Total values ever pushed (not an index); `written % capacity` is
    /// the next slot, and once the ring is full also the oldest one.
    written: u64,
}

impl<T> RingBuffer<T> {
    /// Creates a ring holding at most `capacity` values. Allocates
    /// nothing until the first push.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        Self {
            slots: Mutex::new(Slots {
                values: Vec::new(),
                written: 0,
            }),
            capacity,
        }
    }

    /// The slots, even if a thread panicked while holding them: every
    /// update leaves them consistent, so a poisoned lock loses nothing.
    fn lock(&self) -> MutexGuard<'_, Slots<T>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends a value, overwriting the oldest entry when full.
    pub(crate) fn push(&self, value: T) {
        let mut slots = self.lock();
        let idx = (slots.written % self.capacity as u64) as usize;
        match slots.values.get_mut(idx) {
            Some(slot) => *slot = value,
            // Still growing: slots fill in index order, so this is the
            // next one (`idx == values.len() < capacity`).
            None => slots.values.push(value),
        }
        slots.written += 1;
    }

    /// Total values ever pushed, including any that were overwritten.
    pub(crate) fn pushed(&self) -> u64 {
        self.lock().written
    }

    /// How many values were lost to overwriting.
    pub(crate) fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.capacity as u64)
    }

    /// Clones out the surviving values, oldest first, without consuming
    /// them.
    pub(crate) fn snapshot(&self) -> Vec<T>
    where
        T: Clone,
    {
        let slots = self.lock();
        // Below capacity this is `values.len()`, so the whole vector comes
        // out in index order; once full it is the oldest survivor.
        let oldest = (slots.written % self.capacity as u64) as usize;
        let (newer, older) = slots.values.split_at(oldest);
        older.iter().chain(newer).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_then_snapshot_in_order() {
        let ring = RingBuffer::new(8);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.pushed(), 5);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.snapshot(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_keeps_most_recent_window() {
        let ring = RingBuffer::new(4);
        for i in 0..10 {
            ring.push(i);
        }
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.snapshot(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn snapshot_does_not_consume() {
        let ring = RingBuffer::new(4);
        ring.push(7);
        ring.push(8);
        assert_eq!(ring.snapshot(), vec![7, 8]);
        assert_eq!(ring.snapshot(), vec![7, 8]);
    }

    #[test]
    fn exact_fill_drops_nothing() {
        let ring = RingBuffer::new(3);
        for i in 0..3 {
            ring.push(i);
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.snapshot(), vec![0, 1, 2]);
    }

    #[test]
    fn many_full_wraps_keep_newest_window() {
        // 25 complete revolutions plus a partial one: the survivors must
        // be exactly the last `capacity` values, in push order, with the
        // drop counter accounting for everything else.
        let ring = RingBuffer::new(4);
        for i in 0..103 {
            ring.push(i);
        }
        assert_eq!(ring.pushed(), 103);
        assert_eq!(ring.dropped(), 99);
        assert_eq!(ring.snapshot(), vec![99, 100, 101, 102]);
    }

    #[test]
    fn snapshot_is_stable_across_wraps() {
        let ring = RingBuffer::new(3);
        for i in 0..7 {
            ring.push(i);
            // After every push the snapshot is the newest ≤3 values.
            let expect: Vec<i32> = ((i - 2).max(0)..=i).collect();
            assert_eq!(ring.snapshot(), expect, "after push {i}");
        }
    }

    #[test]
    fn storage_follows_what_was_pushed_not_the_capacity() {
        // A capacity no allocation could back: only the pushes cost.
        let ring = RingBuffer::new(usize::MAX / 2);
        for i in 0..1000u32 {
            ring.push(i);
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.snapshot(), (0..1000).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        RingBuffer::<i32>::new(0);
    }

    #[test]
    fn cross_thread_visibility_after_join() {
        let ring = Arc::new(RingBuffer::new(1024));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..1000 {
                    ring.push(i);
                }
            })
        };
        producer.join().unwrap();
        assert_eq!(ring.snapshot().len(), 1000);
    }

    #[test]
    fn concurrent_pushers_share_one_ring_soundly() {
        // Two producers on one ring: every push is counted, the survivors
        // fill the ring, and each survivor is a value that was pushed.
        const PER_THREAD: u64 = 10_000;
        let ring = Arc::new(RingBuffer::new(4096));
        let producers: Vec<_> = (0..2u64)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        ring.push(t * PER_THREAD + i);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(ring.pushed(), 20_000);
        assert_eq!(ring.dropped(), 15_904);
        let kept = ring.snapshot();
        assert_eq!(kept.len(), 4096);
        assert!(kept.iter().all(|&v| v < 2 * PER_THREAD));
        let mut distinct = kept.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), kept.len(), "a value survived twice");
    }
}
