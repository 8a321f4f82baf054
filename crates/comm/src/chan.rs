//! An unbounded MPSC channel with explicit close semantics.
//!
//! The runtime previously used crossbeam channels, but fault tolerance
//! needs two things they do not provide in this shape: the ability to
//! *close* a dead rank's inbox from outside (so senders fail fast instead
//! of queueing into the void), and freedom from external dependencies (the
//! build environment is offline). The implementation is a `VecDeque`
//! behind a mutex/condvar pair.
//!
//! Messages are coarse (whole matrix panels), but the queue's fixed cost
//! per message still matters: hosted phantom runs send hundreds of
//! thousands of them a second through one thread, and a condvar notify is
//! a `FUTEX_WAKE` syscall even when nobody waits (≈ 210–250 ns on a
//! 2-vCPU x86-64 VM, ten times an uncontended lock and unlock). So `State`
//! counts the receivers parked in [`Receiver::recv_deadline`] and
//! [`Sender::send`] notifies only when one is. No wake-up is lost: a receiver registers
//! under the mutex before it waits, and the sender reads the count under
//! the same mutex after it pushes.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use crate::sync::{Condvar, Mutex};

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TryRecvError {
    /// No message queued right now.
    Empty,
    /// The channel is closed and drained.
    Closed,
}

/// Error returned by [`Receiver::recv_deadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecvError {
    /// The deadline passed with no message.
    Timeout,
    /// The channel is closed and drained.
    Closed,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// Receivers inside `wait_timeout` right now.
    waiting: usize,
}

/// Sending endpoint. Cloneable; also carries the close capability, which
/// the universe uses to shut a dead rank's inbox.
pub(crate) struct Sender<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Receiving endpoint (one per rank).
pub(crate) struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Creates a connected `(Sender, Receiver)` pair.
pub(crate) fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            closed: false,
            waiting: 0,
        }),
        cv: Condvar::new(),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueues a message; returns it back if the channel is closed. Wakes
    /// a receiver only if one is waiting.
    pub(crate) fn send(&self, value: T) -> Result<(), T> {
        let mut st = self.inner.state.lock();
        if st.closed {
            return Err(value);
        }
        st.queue.push_back(value);
        let wake = st.waiting > 0;
        drop(st);
        if wake {
            self.inner.cv.notify_one();
        }
        Ok(())
    }

    /// Closes the channel: pending messages are discarded, future sends
    /// fail, and blocked receivers wake with [`RecvError::Closed`].
    pub(crate) fn close(&self) {
        let mut st = self.inner.state.lock();
        st.closed = true;
        st.queue.clear();
        drop(st);
        self.inner.cv.notify_all();
    }

    /// Whether [`Sender::close`] has been called.
    #[cfg(test)]
    pub(crate) fn is_closed(&self) -> bool {
        self.inner.state.lock().closed
    }
}

impl<T> Receiver<T> {
    /// Non-blocking receive.
    pub(crate) fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.inner.state.lock();
        match st.queue.pop_front() {
            Some(v) => Ok(v),
            None if st.closed => Err(TryRecvError::Closed),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Blocking receive with an absolute deadline.
    pub(crate) fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvError> {
        let mut st = self.inner.state.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if st.closed {
                return Err(RecvError::Closed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::Timeout);
            }
            st.waiting += 1;
            let (guard, _timed_out) = self.inner.cv.wait_timeout(st, deadline - now);
            st = guard;
            st.waiting -= 1;
        }
    }

    /// Receivers currently parked in [`Receiver::recv_deadline`].
    #[cfg(test)]
    fn waiting(&self) -> usize {
        self.inner.state.lock().waiting
    }

    /// Blocking receive with a relative timeout.
    #[cfg(test)]
    pub(crate) fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvError> {
        self.recv_deadline(Instant::now() + timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn send_then_recv() {
        let (tx, rx) = channel();
        tx.send(7u64).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn recv_timeout_expires_without_sender() {
        let (_tx, rx) = channel::<u64>();
        let t0 = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        let (tx, rx) = channel::<u64>();
        let tx2 = tx.clone();
        let handle = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(10));
        tx2.close();
        assert_eq!(handle.join().unwrap(), Err(RecvError::Closed));
        assert!(tx.is_closed());
        assert_eq!(tx.send(1), Err(1));
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            tx.send(42u64).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
    }

    /// A receiver that is already parked when the message is sent must be
    /// woken. Round `i` sends only once the receiver has taken message
    /// `i - 1` and registered as waiting again. A lost wake-up would leave
    /// it asleep until its 5 s deadline (then it finds the message, so the
    /// lateness itself is what is checked).
    #[test]
    fn parked_receiver_is_woken_by_a_later_send() {
        const ROUNDS: u64 = 1_000;
        let (tx, rx) = channel::<u64>();
        let rx = Arc::new(rx);
        let taken = Arc::new(AtomicU64::new(0));
        let receiver = {
            let (rx, taken) = (Arc::clone(&rx), Arc::clone(&taken));
            std::thread::spawn(move || {
                (0..ROUNDS)
                    .map(|_| {
                        let deadline = Instant::now() + Duration::from_secs(5);
                        let got = rx.recv_deadline(deadline);
                        taken.fetch_add(1, Ordering::SeqCst);
                        (got, Instant::now() < deadline)
                    })
                    .collect::<Vec<_>>()
            })
        };
        for i in 0..ROUNDS {
            let t0 = Instant::now();
            while taken.load(Ordering::SeqCst) < i || rx.waiting() == 0 {
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "round {i}: never parked"
                );
                std::thread::yield_now();
            }
            tx.send(i).unwrap();
        }
        let got = receiver.join().unwrap();
        assert_eq!(got, (0..ROUNDS).map(|i| (Ok(i), true)).collect::<Vec<_>>());
        assert_eq!(rx.waiting(), 0);
    }

    #[test]
    fn timed_out_wait_unregisters_and_the_next_send_delivers() {
        let (tx, rx) = channel::<u64>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvError::Timeout)
        );
        assert_eq!(rx.waiting(), 0);
        tx.send(9).unwrap();
        assert_eq!(rx.try_recv(), Ok(9));
    }
}
