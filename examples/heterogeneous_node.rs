//! The paper's headline experiment at one problem size: run all four
//! partition shapes on the modelled HCLServer1 node (Haswell CPU + K40c
//! GPU + Xeon Phi 3120P) in simulated time and compare execution,
//! computation and communication times plus dynamic energy.
//!
//! ```sh
//! cargo run --example heterogeneous_node [N]
//! ```

use summagen_comm::HockneyModel;
use summagen_core::simulate;
use summagen_partition::{proportional_areas, ALL_FOUR_SHAPES};
use summagen_platform::energy::hclserver1_power_model;
use summagen_platform::profile::hclserver1;
use summagen_platform::stats::percent_spread;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_720);

    let platform = hclserver1();
    let power = hclserver1_power_model();
    let link = HockneyModel::intra_node();
    // Section VI-A: constant relative speeds {1.0, 2.0, 0.9}.
    let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);

    println!(
        "HCLServer1 model: {} abstract processors, theoretical peak {:.2} TFLOPs",
        platform.len(),
        platform.theoretical_peak_flops() / 1e12
    );
    println!("problem size N = {n}\n");
    println!(
        "{:<20}{:>10}{:>10}{:>10}{:>12}{:>10}",
        "shape", "exec (s)", "comp (s)", "comm (s)", "energy (J)", "TFLOPs"
    );

    let mut times = Vec::new();
    for shape in ALL_FOUR_SHAPES {
        let spec = shape.build(n, &areas);
        let r = simulate(&spec, &platform, link).with_energy(&power);
        println!(
            "{:<20}{:>10.2}{:>10.2}{:>10.2}{:>12.0}{:>10.2}",
            shape.name(),
            r.exec_time,
            r.comp_time,
            r.comm_time,
            r.energy.as_ref().unwrap().dynamic_energy_j,
            r.achieved_flops() / 1e12,
        );
        times.push(r.exec_time);
    }
    println!(
        "\nshape spread: {:.1}% (the paper reports an average of 8% over its range)",
        percent_spread(&times)
    );
}
