//! The paper's cost model held against what the runtime moves.
//!
//! SummaGen chooses its shapes by communication volume (Section II, Eq. 4):
//! a processor that covers `h` rows and `w` columns of the partition moves
//! `(h + w)·n` elements of `A` and `B` through the broadcasts, less the
//! `2·a_i` it owns. `partition::comm_volume_elements` computes that per
//! rank; these tests require every rank of a real `multiply` to receive
//! exactly that many elements, over both wires.

use summagen_comm::{Backend, ZeroCost};
use summagen_core::{multiply_with_options, ExecutionMode, RunOptions};
use summagen_matrix::random_matrix;
use summagen_partition::{comm_volume_elements, proportional_areas, ALL_FOUR_SHAPES};

const SPEEDS: [f64; 3] = [1.0, 2.0, 0.9];

/// Plain path: elements received per rank = `comm_volume_elements`, on the
/// four paper shapes at a non-divisible and a larger `n`, over channels and
/// over loopback TCP (where every element crosses a framed socket).
#[test]
fn received_elements_are_the_papers_volume_on_both_wires() {
    for n in [97, 500] {
        let a = random_matrix(n, n, 11 + n as u64);
        let b = random_matrix(n, n, 12 + n as u64);
        let areas = proportional_areas(n, &SPEEDS);
        for shape in ALL_FOUR_SHAPES {
            let spec = shape.build(n, &areas);
            let want = comm_volume_elements(&spec);
            for backend in [Backend::Channel, Backend::Tcp] {
                let opts = RunOptions {
                    backend,
                    ..RunOptions::default()
                };
                let run =
                    multiply_with_options(&spec, &a, &b, ExecutionMode::Real, ZeroCost, &opts)
                        .unwrap_or_else(|e| panic!("{} n={n} {backend:?}: {e}", shape.name()));
                let got: Vec<usize> = run
                    .traffic
                    .iter()
                    .map(|t| (t.bytes_recv / 8) as usize)
                    .collect();
                assert_eq!(got, want, "{} n={n} {backend:?}", shape.name());
            }
        }
    }
}
