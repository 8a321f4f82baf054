//! Timeline view: run a paper-scale simulated SummaGen multiplication
//! with event tracing and render an ASCII Gantt chart of what each
//! abstract processor was doing — plus the exact (timeline-sampled)
//! dynamic energy next to the paper's Equation 5.
//!
//! ```sh
//! cargo run --example timeline [N]
//! ```

use summagen_comm::{HockneyModel, TraceKind};
use summagen_core::{simulate_with_options, RunOptions};
use summagen_partition::{proportional_areas, Shape};
use summagen_platform::energy::hclserver1_power_model;
use summagen_platform::profile::hclserver1;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(25_600);

    let platform = hclserver1();
    let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
    let spec = Shape::SquareCorner.build(n, &areas);
    let report = simulate_with_options(
        &spec,
        &platform,
        HockneyModel::intra_node(),
        &RunOptions {
            timelines: true,
            ..RunOptions::default()
        },
    );
    let timelines = report.timelines.as_ref().expect("timelines were asked for");

    println!(
        "SummaGen / square corner, N = {n}: exec {:.2} s (comp {:.2} s, comm {:.2} s)\n",
        report.exec_time, report.comp_time, report.comm_time
    );

    // ASCII Gantt: 100 columns spanning [0, exec_time].
    const WIDTH: usize = 100;
    let names = ["AbsCPU", "AbsGPU", "AbsPhi"];
    println!(
        "legend: #=compute  -=comm  .=wait   ({WIDTH} cols = {:.2} s)",
        report.exec_time
    );
    for (rank, tl) in timelines.iter().enumerate() {
        let mut row = vec![' '; WIDTH];
        for e in tl {
            let c0 = ((e.start / report.exec_time) * WIDTH as f64) as usize;
            let c1 = (((e.end / report.exec_time) * WIDTH as f64).ceil() as usize).min(WIDTH);
            let ch = match e.kind {
                TraceKind::Compute => '#',
                TraceKind::Comm => '-',
                TraceKind::Wait => '.',
            };
            for cell in row.iter_mut().take(c1).skip(c0.min(WIDTH)) {
                *cell = ch;
            }
        }
        println!(
            "{:>7} |{}|",
            names.get(rank).unwrap_or(&"rank"),
            row.iter().collect::<String>()
        );
    }

    let power = hclserver1_power_model();
    let exact = report
        .timeline_energy(&power)
        .expect("timelines were asked for");
    println!(
        "\ndynamic energy (timeline-sampled, 1 Hz WattsUp model): {:.0} J",
        exact.dynamic_energy_j
    );
    println!(
        "total energy incl. {} W static draw: {:.0} J over {:.1} s",
        power.static_power_w, exact.total_energy_j, exact.exec_time_s
    );
}
