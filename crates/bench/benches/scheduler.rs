//! Micro-benchmarks of the service's placement layer: `plan` + `commit`
//! per policy — cold (a fresh pool, so the FPM-aware policy fills one
//! placement-table row per problem size) and warm (rows already costed)
//! — and one whole 20 000-job FPM-aware `run` on the virtual backend.
//! The wall-clock benchmark in `perf/` measures the same layer end to
//! end; this one needs nothing outside the workspace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use summagen_bench::servecmd::{SERVE_ALPHA, SERVE_BETA};
use summagen_platform::profile::hclserver1;
use summagen_service::{
    commit, generate, hetero_mix, plan, DevicePool, GemmService, JobSpec, Policy, ServiceConfig,
};

fn plan_all(policy: Policy, pool: &mut DevicePool, jobs: &[JobSpec]) {
    for job in jobs {
        criterion::black_box(plan(policy, pool, job, job.submit_time));
        commit(policy, pool);
    }
}

fn bench_scheduler(c: &mut Criterion) {
    let platform = hclserver1();
    let mut mix = hetero_mix();
    mix.jobs = 20_000;
    let stream = generate(&mix);
    let sample = &stream[..2_000];
    // The first job of each of the mix's eight sizes: eight cold plans.
    let mut firsts: Vec<JobSpec> = Vec::new();
    for job in &stream {
        if firsts.iter().all(|f| f.n != job.n) {
            firsts.push(job.clone());
        }
    }

    let mut group = c.benchmark_group("scheduler_plan");
    group.sample_size(20);
    for policy in Policy::ALL {
        group.throughput(Throughput::Elements(firsts.len() as u64));
        group.bench_function(BenchmarkId::new("cold", policy.name()), |b| {
            b.iter(|| {
                let mut pool = DevicePool::from_platform(&platform, SERVE_ALPHA, SERVE_BETA);
                plan_all(policy, &mut pool, &firsts);
            })
        });
        group.throughput(Throughput::Elements(sample.len() as u64));
        let mut pool = DevicePool::from_platform(&platform, SERVE_ALPHA, SERVE_BETA);
        group.bench_function(BenchmarkId::new("warm", policy.name()), |b| {
            b.iter(|| plan_all(policy, &mut pool, sample))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("scheduler_run");
    group.sample_size(10);
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function(BenchmarkId::new("fpm-aware", stream.len()), |b| {
        b.iter(|| {
            let pool = DevicePool::from_platform(&platform, SERVE_ALPHA, SERVE_BETA);
            let config = ServiceConfig {
                policy: Policy::FpmAware,
                ..ServiceConfig::default()
            };
            GemmService::new(pool, config).run(stream.clone())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
