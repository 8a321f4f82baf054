//! Ablation benches for the design choices called out in DESIGN.md:
//! shape construction, the column-based baseline, balanced vs
//! load-imbalancing partitioning, real SummaGen execution, and the
//! crossover analysis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use summagen_bench::crossover_series;
use summagen_core::{multiply, ExecutionMode};
use summagen_matrix::random_matrix;
use summagen_partition::{
    balanced_fpm_areas, beaumont_column_layout, load_imbalancing_areas, proportional_areas,
    DiscreteFpm, Shape, ALL_FOUR_SHAPES,
};
use summagen_platform::profile::hclserver1;

fn bench_shape_builders(c: &mut Criterion) {
    let mut group = c.benchmark_group("shape_builders");
    let n = 16_384;
    let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
    for shape in ALL_FOUR_SHAPES
        .iter()
        .chain(&[Shape::RectangleCorner, Shape::LRectangle])
    {
        group.bench_with_input(
            BenchmarkId::from_parameter(shape.name()),
            shape,
            |b, shape| b.iter(|| shape.build(n, &areas)),
        );
    }
    group.finish();
}

fn bench_baseline_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("beaumont_columns");
    for &p in &[3usize, 8, 16] {
        let speeds: Vec<f64> = (1..=p).map(|i| 0.5 + i as f64 * 0.3).collect();
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, _| {
            b.iter(|| beaumont_column_layout(4_096, &speeds))
        });
    }
    group.finish();
}

fn bench_partitioners(c: &mut Criterion) {
    let mut group = c.benchmark_group("partitioner_ablation");
    group.sample_size(20);
    let platform = hclserver1();
    let n = 12_288;
    let speeds: Vec<&dyn summagen_platform::speed::SpeedFunction> = platform
        .processors
        .iter()
        .map(|p| p.speed.as_ref())
        .collect();
    group.bench_function("balanced_bisection", |b| {
        b.iter(|| balanced_fpm_areas(n, &speeds))
    });
    let fpms: Vec<DiscreteFpm> = platform
        .processors
        .iter()
        .map(|p| DiscreteFpm::from_speed(p.speed.as_ref(), n, 192))
        .collect();
    group.bench_function("load_imbalancing_dp", |b| {
        b.iter(|| load_imbalancing_areas(n, &fpms))
    });
    group.finish();
}

fn bench_real_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("real_summagen");
    group.sample_size(10);
    let n = 192;
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
    for shape in ALL_FOUR_SHAPES {
        let spec = shape.build(n, &areas);
        group.bench_with_input(
            BenchmarkId::from_parameter(shape.name()),
            &spec,
            |bch, spec| bch.iter(|| multiply(spec, &a, &b, ExecutionMode::Real)),
        );
    }
    group.finish();
}

fn bench_crossover(c: &mut Criterion) {
    c.bench_function("crossover_series_4096", |b| {
        b.iter(|| crossover_series(4_096))
    });
}

fn bench_bcast_algorithms(c: &mut Criterion) {
    use summagen_comm::{BcastAlgorithm, Payload, Universe, ZeroCost};
    let mut group = c.benchmark_group("bcast_algorithms");
    group.sample_size(10);
    for (name, algo) in [
        ("flat", BcastAlgorithm::Flat),
        ("binomial", BcastAlgorithm::Binomial),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                Universe::new(8, ZeroCost).run(|mut comm| {
                    for _ in 0..16 {
                        comm.try_bcast_with(0, Payload::F64(vec![1.0; 1024]), algo)
                            .expect("bcast");
                    }
                    comm.rank()
                })
            })
        });
    }
    group.finish();
}

fn bench_baseline_algorithms(c: &mut Criterion) {
    use summagen_comm::ZeroCost;
    use summagen_core::summa_multiply;
    let n = 96;
    let a = random_matrix(n, n, 1);
    let b = random_matrix(n, n, 2);
    let mut group = c.benchmark_group("baseline_algorithms");
    group.sample_size(10);
    group.bench_function("classic_summa_2x2", |bch| {
        bch.iter(|| summa_multiply(&a, &b, 2, 2, 16, ZeroCost))
    });
    group.finish();
}

fn bench_exact_search(c: &mut Criterion) {
    use summagen_partition::exact_three_processor_optimum;
    use summagen_platform::speed::{ConstantSpeed, SpeedFunction};
    let sp = [
        ConstantSpeed::new(1.0e9),
        ConstantSpeed::new(2.0e9),
        ConstantSpeed::new(0.9e9),
    ];
    let speeds: Vec<&dyn SpeedFunction> = sp.iter().map(|s| s as _).collect();
    c.bench_function("exact_search_n24", |b| {
        b.iter(|| exact_three_processor_optimum(24, &speeds, 1e-6, 1e-9))
    });
}

criterion_group!(
    benches,
    bench_shape_builders,
    bench_baseline_layout,
    bench_partitioners,
    bench_real_execution,
    bench_crossover,
    bench_bcast_algorithms,
    bench_baseline_algorithms,
    bench_exact_search
);
criterion_main!(benches);
