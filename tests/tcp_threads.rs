//! A TCP universe's IO threads — one acceptor per rank, blocked in
//! `accept`, and one reader per connection — are all joined when its run
//! ends, whether the run put frames on the wire or not. Counted from
//! `/proc/self/task`, so this file holds one test and no harness thread
//! races it.

use std::fs;
use std::thread::sleep;
use std::time::{Duration, Instant};

use summagen_comm::{Backend, Payload, Universe, ZeroCost};

/// Live threads of this process.
fn live_threads() -> usize {
    fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

/// Live threads once the count falls to `want`, or after `deadline` if it
/// never does. A joined thread's `/proc/self/task` entry can outlive its
/// `pthread_join` for a moment (the kernel clears the tid before it reaps
/// the task), so a count taken right after the join may still see it.
fn settled_threads(want: usize, deadline: Duration) -> usize {
    let start = Instant::now();
    loop {
        let live = live_threads();
        if live <= want || start.elapsed() >= deadline {
            return live;
        }
        sleep(Duration::from_millis(5));
    }
}

#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "reads /proc/self/task")]
fn tcp_universes_join_every_io_thread() {
    let before = live_threads();
    for run in 0..50u64 {
        let universe = Universe::new(3, ZeroCost).with_backend(Backend::Tcp);
        let got = universe.run(|mut comm| {
            // Half the runs broadcast (every link the root dials gets a
            // reader); the other half never touch the wire.
            if run % 2 == 0 {
                let mine = Payload::F64(vec![run as f64; 64]);
                comm.bcast((run % 3) as usize, mine).into_f64()[63]
            } else {
                run as f64
            }
        });
        assert_eq!(got, vec![run as f64; 3], "run {run}");
    }
    let after = settled_threads(before, Duration::from_secs(2));
    assert_eq!(after, before, "threads left behind by 50 runs");
}
