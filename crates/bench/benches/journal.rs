//! Micro-benchmarks of the journal's byte path on the hetero control
//! journal (20 000 jobs run crash-free through `run_durable`): `crc32`
//! at three sizes, the frame scan, the replay fold, the append + group
//! commit that wrote the journal, and one whole cold `recover` with the
//! stream resubmitted. The wall-clock benchmark in `perf/` measures the
//! same layer end to end (`restart-hetero`, `durable-hetero`); this one
//! needs nothing outside the workspace.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use summagen_bench::servecmd::{SERVE_ALPHA, SERVE_BETA};
use summagen_durable::{crc32, decode_frames, replay, GroupCommitConfig, Journal, JournalRecord};
use summagen_platform::profile::hclserver1;
use summagen_service::{
    generate, hetero_mix, AdmissionConfig, DevicePool, DurableRun, GemmService, JobSpec, Policy,
    ServiceConfig,
};

/// The service `perf/` journals its control run with: FPM-aware, with
/// admission bounds no job of the stream trips.
fn service() -> GemmService {
    let pool = DevicePool::from_platform(&hclserver1(), SERVE_ALPHA, SERVE_BETA);
    let config = ServiceConfig {
        policy: Policy::FpmAware,
        admission: AdmissionConfig {
            queue_capacity: 1 << 20,
            per_tenant_quota: 1 << 20,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    };
    GemmService::new(pool, config)
}

fn control_journal(stream: &[JobSpec]) -> Vec<u8> {
    let cfg = GroupCommitConfig::default();
    match service().run_durable(stream.to_vec(), Journal::new(cfg), None) {
        DurableRun::Finished(rep) => rep.journal.into_durable().0,
        DurableRun::Crashed(_) => panic!("the crash-free control run crashed"),
    }
}

fn bench_journal(c: &mut Criterion) {
    let mut mix = hetero_mix();
    mix.jobs = 20_000;
    let stream = generate(&mix);
    let bytes = control_journal(&stream);
    let cfg = GroupCommitConfig::default();

    let mut group = c.benchmark_group("journal_crc32");
    group.sample_size(20);
    // One sample checksums 1 MiB of the journal in slices of `len` (a
    // single 64-byte call is shorter than the timer's own overhead).
    let mib = &bytes[..1 << 20];
    for len in [64usize, 4 << 10, 1 << 20] {
        group.throughput(Throughput::Bytes(mib.len() as u64));
        group.bench_function(BenchmarkId::new("slice_bytes", len), |b| {
            b.iter(|| {
                mib.chunks_exact(len)
                    .fold(0u32, |acc, s| acc ^ crc32(black_box(s)))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("journal_scan");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("decode_frames", |b| b.iter(|| decode_frames(&bytes)));
    group.bench_function("replay", |b| b.iter(|| replay(&bytes)));
    group.finish();

    let records: Vec<JournalRecord> = decode_frames(&bytes)
        .payloads
        .iter()
        .filter_map(|p| JournalRecord::decode(p))
        .collect();
    let mut group = c.benchmark_group("journal_write");
    group.sample_size(20);
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("append_commit", |b| {
        b.iter(|| {
            let mut journal = Journal::new(cfg);
            for (i, rec) in records.iter().enumerate() {
                let now = rec.instant();
                journal.append(now, rec);
                if i % cfg.max_batch == cfg.max_batch - 1 {
                    journal.commit(now);
                }
            }
            journal.commit(f64::INFINITY);
            journal.durable_bytes()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("journal_restart");
    group.sample_size(10);
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("recover_suppress_all", |b| {
        b.iter(|| {
            let raw = bytes.clone();
            let valid = decode_frames(&raw).valid_bytes;
            let journal = Journal::reopen(raw, valid, cfg);
            service().recover(journal, stream.clone(), None)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_journal);
criterion_main!(benches);
