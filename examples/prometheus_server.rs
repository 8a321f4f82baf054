//! Metrics demo: fill a registry with an instrumented SummaGen run and
//! expose it in Prometheus text format — either printed once or served
//! over HTTP so a real Prometheus (or `curl`) can scrape it.
//!
//! Two sources:
//!
//! * default — one metered paper-shape multiplication: comm volume and
//!   latency histograms, per-block GEMM throughput, panel counters.
//! * `--service [MIX]` — a full multi-tenant service load run (default
//!   mix `small`) under the FPM-aware scheduler: per-tenant job/latency/
//!   rejection series, queue depth gauges, per-device busy time.
//!
//! ```sh
//! cargo run --example prometheus_server -- --once            # print and exit
//! cargo run --example prometheus_server -- --service --once  # service series
//! cargo run --example prometheus_server [N] [ADDR]           # serve /metrics
//! cargo run --example prometheus_server -- --service hetero  # serve load run
//! curl http://127.0.0.1:9184/metrics
//! ```
//!
//! The server is a deliberately tiny `std::net::TcpListener` loop — no
//! dependencies, one thread per connection — because the interesting
//! part is the exposition text, not the plumbing. Scrapes are served
//! concurrently: each connection renders on its own thread from shared
//! atomics, so overlapping scrapes (Prometheus retrying while a curl is
//! mid-read) never block or tear each other.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;

use summagen_comm::{HockneyModel, RuntimeMetrics};
use summagen_core::{simulate_with_options, RunOptions};
use summagen_metrics::MetricsRegistry;
use summagen_partition::{proportional_areas, Shape};
use summagen_platform::profile::hclserver1;
use summagen_service::{
    generate, mix_by_name, DevicePool, GemmService, Policy, ServiceConfig, ServiceMetrics,
};

/// Renders the exposition text on demand; shared across scrape threads.
type Renderer = Arc<dyn Fn() -> String + Send + Sync>;

/// One metered paper-shape run; the renderer reads its live atomics.
fn kernel_renderer(n: usize) -> Renderer {
    let platform = hclserver1();
    let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
    let spec = Shape::SquareCorner.build(n, &areas);
    let metrics = RuntimeMetrics::fresh();
    let report = simulate_with_options(
        &spec,
        &platform,
        HockneyModel::intra_node(),
        &RunOptions {
            metrics: Some(metrics.clone()),
            ..RunOptions::default()
        },
    );
    eprintln!(
        "SummaGen / square corner, N = {n}: exec {:.4} s, {} sends / {} bytes metered",
        report.exec_time,
        metrics.send_msgs.get(),
        metrics.send_bytes.get()
    );
    Arc::new(move || metrics.render_prometheus())
}

/// One FPM-aware service load run; the renderer serves the per-tenant
/// series its registry accumulated.
fn service_renderer(mix_name: &str) -> Renderer {
    let mix = mix_by_name(mix_name).unwrap_or_else(|| {
        eprintln!("unknown mix '{mix_name}'; expected small or hetero");
        std::process::exit(2);
    });
    let pool = DevicePool::from_platform(&hclserver1(), 1e-5, 4e-10);
    let tenant_names = mix.tenant_names();
    let device_names: Vec<&'static str> = pool.devices().iter().map(|d| d.name).collect();
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = ServiceMetrics::register(&registry, &tenant_names, &device_names);
    let mut service = GemmService::new(
        pool,
        ServiceConfig {
            policy: Policy::FpmAware,
            ..ServiceConfig::default()
        },
    )
    .with_metrics(metrics);
    let report = service.run(generate(&mix));
    eprintln!(
        "service / {} mix, fpm-aware: {} completed, {} failed, {} rejected, makespan {:.3} s",
        mix.name,
        report.completed(),
        report.failed(),
        report.rejections.len(),
        report.makespan
    );
    Arc::new(move || summagen_metrics::prometheus::render(&registry))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let once = args.iter().any(|a| a == "--once");
    let service = args.iter().any(|a| a == "--service");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let render: Renderer = if service {
        let mix = positional.first().map(|s| s.as_str()).unwrap_or("small");
        service_renderer(mix)
    } else {
        let n: usize = positional
            .first()
            .and_then(|s| s.parse().ok())
            .unwrap_or(8_192);
        kernel_renderer(n)
    };
    let addr = positional
        .get(1)
        .map(|s| s.as_str())
        .unwrap_or("127.0.0.1:9184");

    if once {
        print!("{}", render());
        return;
    }

    let listener = TcpListener::bind(addr).expect("bind scrape endpoint");
    eprintln!("serving Prometheus metrics on http://{addr}/metrics (Ctrl-C to stop)");
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        let render = render.clone();
        // One thread per scrape: counters and histograms are read with
        // atomic loads, so concurrent renders are safe and a slow reader
        // never holds up the accept loop.
        thread::spawn(move || {
            // Drain the request line; the path doesn't matter — every
            // path answers with the exposition, which is what curl and
            // Prometheus both expect from a metrics endpoint.
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let body = render();
            let response = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(response.as_bytes());
        });
    }
}
