//! The parallel GEMM kernel runs on one process-wide pool of parked
//! workers: it starts once, holds one thread fewer than the hardware has
//! (the caller is the last), and neither kernel calls nor whole runs add a
//! thread. Counted from `/proc/self/task`, so this file holds one test and
//! no harness thread races it.

use std::fs;

use summagen_comm::ZeroCost;
use summagen_core::{multiply, multiply_abft, AbftOptions, ExecutionMode, RunOptions};
use summagen_matrix::{gemm_parallel, random_matrix, GemmKernel};
use summagen_partition::{proportional_areas, Shape};

/// The comm name of every live thread of this process.
fn task_names() -> Vec<String> {
    fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .map(|task| {
            let comm = task.expect("task entry").path().join("comm");
            fs::read_to_string(comm)
                .expect("task comm")
                .trim_end()
                .to_string()
        })
        .collect()
}

/// (live threads, of which pool workers).
fn census() -> (usize, usize) {
    let names = task_names();
    let workers = names.iter().filter(|n| n.starts_with("gemm-pool-")).count();
    (names.len(), workers)
}

#[test]
#[cfg_attr(not(target_os = "linux"), ignore = "reads /proc/self/task")]
fn the_kernel_pool_starts_once_and_no_call_adds_a_thread() {
    // The pool's size: what `rayon::current_num_threads` reads, minus the
    // calling thread.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
    let n = 256;
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let mut c = vec![0.0; n * n];
    let mut gemm = || {
        let (a, b) = (a.as_slice(), b.as_slice());
        gemm_parallel(n, n, n, 1.0, a, n, b, n, 0.0, &mut c, n);
    };

    gemm();
    let after_one = census();
    assert_eq!(after_one.1, workers, "pool workers after the first call");
    for _ in 0..40 {
        gemm();
    }
    assert_eq!(census(), after_one, "threads after 40 more calls");

    let speeds = [1.0, 2.0, 0.9];
    let spec = Shape::SquareCorner.build(n, &proportional_areas(n, &speeds));
    let mode = ExecutionMode::RealWith(GemmKernel::Parallel);
    multiply(&spec, &a, &b, mode);
    assert_eq!(census(), after_one, "threads after a multiply");
    let opts = RunOptions::default();
    let abft = AbftOptions::default();
    multiply_abft(
        Shape::SquareCorner,
        &speeds,
        &a,
        &b,
        mode,
        ZeroCost,
        &[],
        &opts,
        &abft,
    )
    .expect("fault-free protected run");
    assert_eq!(census(), after_one, "threads after a multiply_abft");
    println!(
        "live threads {}, of which pool workers {}",
        after_one.0, after_one.1
    );
}
