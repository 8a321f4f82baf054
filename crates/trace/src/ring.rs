//! A lock-free single-producer ring buffer for span records.
//!
//! **Producer contract: one producer per ring at a time, reads after the
//! run returns.** Each rank of a run has exactly one ring (see
//! [`crate::recorder::TraceRecorder`]) and a rank's spans are emitted by
//! whichever thread drives that rank — its own thread in a threaded run,
//! the hosting thread (the single producer of *every* ring) in a hosted
//! one. Either way nobody else writes that ring while it does, so the
//! write path is a plain slot store plus one atomic counter bump — no CAS
//! loops, no locks, nothing that could perturb the schedule being
//! measured. When the ring fills it overwrites the *oldest* entries and
//! counts how many were lost, so a bounded recorder degrades to "most
//! recent window" instead of failing.
//!
//! Readers (`snapshot`, `drain`) run only after the run has returned — the
//! rank threads joined, or the host back in its caller; the `Release`
//! store on the write counter paired with the reader's `Acquire` load —
//! and, in practice, the stronger happens-before edge a thread join (or
//! plain program order on the hosting thread) provides — makes every
//! written slot visible.
//!
//! Storage grows on demand up to the capacity: a recorder costs what it
//! records, not what it could hold.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bounded overwrite-oldest ring written by one producer at a time.
///
/// `Sync` is asserted manually: the safety argument is the single-producer
/// discipline documented on [`RingBuffer::push`] plus reads that happen
/// only once the producer is done ([`RingBuffer::drain`]).
pub struct RingBuffer<T> {
    /// The first `min(written, capacity)` slots, in index order; grown by
    /// `push` until it holds `capacity` of them, never beyond.
    slots: UnsafeCell<Vec<Option<T>>>,
    capacity: usize,
    /// Total values ever pushed (not an index); `written % capacity` is
    /// the next slot. Stored with `Release` so a reader that `Acquire`s
    /// it sees every slot the count covers.
    written: AtomicU64,
}

// SAFETY: `push` is documented to have a single producer per ring at any
// time, and `snapshot`/`drain` to run only after that producer has stopped
// (its run has returned). Under that protocol neither the slot vector nor
// any slot is accessed concurrently; values of `T` cross threads, hence
// `T: Send`.
unsafe impl<T: Send> Sync for RingBuffer<T> {}

impl<T> RingBuffer<T> {
    /// Creates a ring holding at most `capacity` values. Allocates
    /// nothing until the first push.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        Self {
            slots: UnsafeCell::new(Vec::new()),
            capacity,
            written: AtomicU64::new(0),
        }
    }

    /// Maximum number of values kept.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a value, overwriting the oldest entry when full.
    ///
    /// # Safety contract (enforced by the caller, not the compiler)
    /// One producer per ring at a time, and no reader until it is done —
    /// the recorder gives each rank its own ring, and the comm layer emits
    /// a rank's spans only from the one thread driving that rank (its own,
    /// or the thread hosting it).
    pub fn push(&self, value: T) {
        let n = self.written.load(Ordering::Relaxed);
        let idx = (n % self.capacity as u64) as usize;
        // SAFETY: single-producer discipline (see above) means no other
        // thread reads or writes the vector or this slot until after we
        // bump `written` and the producer's run has returned.
        let slots = unsafe { &mut *self.slots.get() };
        match slots.get_mut(idx) {
            Some(slot) => *slot = Some(value),
            // Still growing: slots fill in index order, so this is the
            // next one (`idx == slots.len() < capacity`).
            None => slots.push(Some(value)),
        }
        self.written.store(n + 1, Ordering::Release);
    }

    /// Total values ever pushed, including any that were overwritten.
    pub fn pushed(&self) -> u64 {
        self.written.load(Ordering::Acquire)
    }

    /// How many values were lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.capacity as u64)
    }

    /// Clones out the surviving values, oldest first, without consuming
    /// them.
    ///
    /// # Safety contract (enforced by the caller, not the compiler)
    /// Must only be called after the producer has stopped pushing (the
    /// recorder reads traces only after the traced run has returned:
    /// `Universe::run`/`try_run` join every rank thread, `Universe::host`
    /// runs on the reader's own thread).
    pub fn snapshot(&self) -> Vec<T>
    where
        T: Clone,
    {
        let n = self.written.load(Ordering::Acquire);
        let cap = self.capacity as u64;
        let kept = n.min(cap);
        // SAFETY: quiescence contract above — no concurrent writer.
        let slots = unsafe { &*self.slots.get() };
        let mut out = Vec::with_capacity(kept as usize);
        for i in 0..kept {
            // Below capacity the survivors are slots `0..n`, all present.
            let idx = ((n - kept + i) % cap) as usize;
            if let Some(v) = slots[idx].clone() {
                out.push(v);
            }
        }
        out
    }

    /// Removes and returns the surviving values, oldest first.
    ///
    /// Requires exclusive access (`&mut self`), which a caller can obtain
    /// only once no producer holds the ring any more — that hand-over is
    /// the synchronization point making all writes visible here.
    pub fn drain(&mut self) -> Vec<T> {
        let n = self.written.load(Ordering::Acquire);
        let cap = self.capacity as u64;
        let kept = n.min(cap);
        let slots = self.slots.get_mut();
        let mut out = Vec::with_capacity(kept as usize);
        for i in 0..kept {
            // Oldest surviving entry is at `n - kept`, then in push order.
            let idx = ((n - kept + i) % cap) as usize;
            if let Some(v) = slots[idx].take() {
                out.push(v);
            }
        }
        out
    }
}

impl<T> std::fmt::Debug for RingBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingBuffer")
            .field("capacity", &self.capacity())
            .field("pushed", &self.pushed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_then_drain_in_order() {
        let mut ring = RingBuffer::new(8);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.pushed(), 5);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.drain(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_keeps_most_recent_window() {
        let mut ring = RingBuffer::new(4);
        for i in 0..10 {
            ring.push(i);
        }
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.drain(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn snapshot_does_not_consume() {
        let mut ring = RingBuffer::new(4);
        ring.push(7);
        ring.push(8);
        assert_eq!(ring.snapshot(), vec![7, 8]);
        assert_eq!(ring.snapshot(), vec![7, 8]);
        assert_eq!(ring.drain(), vec![7, 8]);
    }

    #[test]
    fn drain_empties_the_ring() {
        let mut ring = RingBuffer::new(4);
        ring.push(1);
        assert_eq!(ring.drain(), vec![1]);
        assert_eq!(ring.drain(), Vec::<i32>::new());
    }

    #[test]
    fn exact_fill_drops_nothing() {
        let mut ring = RingBuffer::new(3);
        for i in 0..3 {
            ring.push(i);
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.drain(), vec![0, 1, 2]);
    }

    #[test]
    fn many_full_wraps_keep_newest_window() {
        // 25 complete revolutions plus a partial one: the survivors must
        // be exactly the last `capacity` values, in push order, with the
        // drop counter accounting for everything else.
        let mut ring = RingBuffer::new(4);
        for i in 0..103 {
            ring.push(i);
        }
        assert_eq!(ring.pushed(), 103);
        assert_eq!(ring.dropped(), 99);
        assert_eq!(ring.snapshot(), vec![99, 100, 101, 102]);
        assert_eq!(ring.drain(), vec![99, 100, 101, 102]);
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
        let mut ring = RingBuffer::new(usize::MAX / 2);
        assert_eq!(ring.capacity(), usize::MAX / 2);
        for i in 0..1000u32 {
            ring.push(i);
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.snapshot().len(), 1000);
        assert_eq!(ring.drain(), (0..1000).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        RingBuffer::<i32>::new(0);
    }

    #[test]
    fn cross_thread_visibility_after_join() {
        let ring = std::sync::Arc::new(RingBuffer::new(1024));
        let producer = {
            let ring = std::sync::Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..1000 {
                    ring.push(i);
                }
            })
        };
        producer.join().unwrap();
        let mut ring = std::sync::Arc::try_unwrap(ring).unwrap();
        assert_eq!(ring.drain().len(), 1000);
    }
}
