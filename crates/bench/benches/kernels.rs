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

fn bench_fast_and_ooc(c: &mut Criterion) {
    use summagen_matrix::{ooc_gemm, strassen_multiply};
    let mut group = c.benchmark_group("strassen_and_ooc");
    group.sample_size(10);
    // Against `gemm_kernels/blocked/<n>`: the crossover data behind
    // `STRASSEN_CUTOFF` (EXPERIMENTS.md). 2048 is the first size where the
    // shipped cutoff recurses at all.
    for n in [192usize, 256, 512, 1024, 2048] {
        let a = random_matrix(n, n, 5);
        let b = random_matrix(n, n, 6);
        group.bench_function(format!("strassen_{n}"), |bch| {
            bch.iter(|| strassen_multiply(&a, &b))
        });
    }
    let n = 192;
    let a = random_matrix(n, n, 5);
    let b = random_matrix(n, n, 6);
    group.bench_function("ooc_gemm_192_tight", |bch| {
        bch.iter(|| {
            let mut cm = vec![0.0; n * n];
            ooc_gemm(n, a.as_slice(), b.as_slice(), &mut cm, 3 * 32 * 32)
        })
    });
    group.bench_function("ooc_gemm_192_roomy", |bch| {
        bch.iter(|| {
            let mut cm = vec![0.0; n * n];
            ooc_gemm(n, a.as_slice(), b.as_slice(), &mut cm, 3 * 128 * 128)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_fast_and_ooc);
criterion_main!(benches);
