//! Energy study (Section VI-C): dynamic energy of the four shapes under
//! the constant performance model, measured with the simulated WattsUp
//! meter (1 Hz sampling, Equation 5).
//!
//! ```sh
//! cargo run --example energy_study
//! ```

use summagen_comm::HockneyModel;
use summagen_core::simulate;
use summagen_partition::{proportional_areas, ALL_FOUR_SHAPES};
use summagen_platform::energy::hclserver1_power_model;
use summagen_platform::profile::hclserver1;
use summagen_platform::stats::percent_spread;

fn main() {
    let platform = hclserver1();
    let power = hclserver1_power_model();
    let link = HockneyModel::intra_node();

    println!(
        "static platform power: {} W (fans pinned at full speed)",
        power.static_power_w
    );
    println!("dynamic device powers: {:?} W\n", power.compute_power_w);

    println!(
        "{:>8}{:>18}{:>18}{:>18}{:>18}{:>10}",
        "N", "square corner", "square rect", "block rect", "1D rect", "spread"
    );
    for k in 0..=5 {
        let n = 25_600 + k * 2_048;
        let areas = proportional_areas(n, &[1.0, 2.0, 0.9]);
        let mut row = format!("{n:>8}");
        let mut energies = Vec::new();
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            let r = simulate(&spec, &platform, link).with_energy(&power);
            let e = r.energy.unwrap().dynamic_energy_j;
            energies.push(e);
            row.push_str(&format!("{e:>18.0}"));
        }
        println!("{row}{:>9.1}%", percent_spread(&energies));
    }
    println!("\n(paper: the four shapes exhibit equal dynamic energy consumptions)");
}
