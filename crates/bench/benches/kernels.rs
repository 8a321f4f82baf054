//! Micro-benchmarks of the GEMM kernels backing SummaGen's local
//! computations (the substrate the paper obtains from MKL/CUBLAS).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use summagen_matrix::{gemm_blocked, gemm_naive, gemm_parallel, random_matrix, DenseMatrix};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_kernels");
    group.sample_size(10);
    for &n in &[64usize, 128, 256, 512, 1024, 2048] {
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        // The reference kernel takes seconds per run beyond this.
        if n <= 256 {
            group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
                bch.iter(|| {
                    let mut cm = DenseMatrix::zeros(n, n);
                    gemm_naive(
                        n,
                        n,
                        n,
                        1.0,
                        a.as_slice(),
                        n,
                        b.as_slice(),
                        n,
                        0.0,
                        cm.as_mut_slice(),
                        n,
                    );
                    cm
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bch, _| {
            bch.iter(|| {
                let mut cm = DenseMatrix::zeros(n, n);
                gemm_blocked(
                    n,
                    n,
                    n,
                    1.0,
                    a.as_slice(),
                    n,
                    b.as_slice(),
                    n,
                    0.0,
                    cm.as_mut_slice(),
                    n,
                );
                cm
            })
        });
        group.bench_with_input(BenchmarkId::new("parallel", n), &n, |bch, _| {
            bch.iter(|| {
                let mut cm = DenseMatrix::zeros(n, n);
                gemm_parallel(
                    n,
                    n,
                    n,
                    1.0,
                    a.as_slice(),
                    n,
                    b.as_slice(),
                    n,
                    0.0,
                    cm.as_mut_slice(),
                    n,
                );
                cm
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
