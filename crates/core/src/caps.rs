//! Parallel Strassen à la CAPS (Ballard et al., reference \[23\] of the
//! paper's related work): a **BFS step** distributes Strassen's seven
//! half-size products over seven processor groups, each of which solves
//! its product sequentially (a **DFS step** — here the sequential
//! Strassen from `summagen-matrix`); the quadrants of `C` are then
//! combined from the seven results.
//!
//! This implementation supports `p = 7` ranks (one BFS level), which is
//! enough to exercise the communication pattern the paper cites: unlike
//! SUMMA-family algorithms, processors are arranged in a *hierarchy*, not
//! a grid, and no assumptions are made about the network topology.

use summagen_comm::{ClockSnapshot, CostModel, Payload, TrafficStats, Universe};
use summagen_matrix::{strassen_multiply, DenseMatrix};

/// Result of a CAPS-style parallel Strassen run.
#[derive(Debug, Clone)]
pub struct CapsResult {
    /// The product.
    pub c: DenseMatrix,
    /// Per-rank clocks.
    pub clocks: Vec<ClockSnapshot>,
    /// Per-rank traffic.
    pub traffic: Vec<TrafficStats>,
}

fn quad(m: &DenseMatrix, qi: usize, qj: usize) -> DenseMatrix {
    let h = m.rows() / 2;
    m.submatrix(qi * h, qj * h, h, h)
}

fn madd(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    summagen_matrix::add(a, b)
}

fn msub(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    summagen_matrix::sub(a, b)
}

/// Multiplies `A × B` with one BFS level of parallel Strassen over 7
/// ranks. Rank 0 holds the inputs, scatters the seven operand pairs,
/// gathers the seven products and assembles `C`.
///
/// # Panics
/// Panics unless the matrices are square with even size ≥ 2.
pub fn caps_multiply(a: &DenseMatrix, b: &DenseMatrix, cost: impl CostModel) -> CapsResult {
    let n = a.rows();
    assert_eq!((a.rows(), a.cols()), (n, n), "A must be square");
    assert_eq!((b.rows(), b.cols()), (n, n), "B must be square");
    assert!(n >= 2 && n.is_multiple_of(2), "need even n >= 2 (got {n})");
    let h = n / 2;

    let universe = Universe::new(7, cost);
    let results = universe.run(|comm| {
        let rank = comm.rank();
        // Rank 0 prepares the seven (L_i, R_i) operand pairs.
        let (l, r) = if rank == 0 {
            let a11 = quad(a, 0, 0);
            let a12 = quad(a, 0, 1);
            let a21 = quad(a, 1, 0);
            let a22 = quad(a, 1, 1);
            let b11 = quad(b, 0, 0);
            let b12 = quad(b, 0, 1);
            let b21 = quad(b, 1, 0);
            let b22 = quad(b, 1, 1);
            let pairs: Vec<(DenseMatrix, DenseMatrix)> = vec![
                (madd(&a11, &a22), madd(&b11, &b22)), // M1
                (madd(&a21, &a22), b11.clone()),      // M2
                (a11.clone(), msub(&b12, &b22)),      // M3
                (a22.clone(), msub(&b21, &b11)),      // M4
                (madd(&a11, &a12), b22.clone()),      // M5
                (msub(&a21, &a11), madd(&b11, &b12)), // M6
                (msub(&a12, &a22), madd(&b21, &b22)), // M7
            ];
            // Keep pair 0 locally; ship the rest.
            for (i, (li, ri)) in pairs.iter().enumerate().skip(1) {
                comm.send(i, 100, Payload::F64(li.as_slice().to_vec()));
                comm.send(i, 101, Payload::F64(ri.as_slice().to_vec()));
            }
            (pairs[0].0.clone(), pairs[0].1.clone())
        } else {
            let l = DenseMatrix::from_vec(h, h, comm.recv(0, 100).into_f64());
            let r = DenseMatrix::from_vec(h, h, comm.recv(0, 101).into_f64());
            (l, r)
        };

        // DFS step: sequential Strassen on the half-size product.
        let m = strassen_multiply(&l, &r);

        // Gather the products at rank 0.
        if rank != 0 {
            comm.send(0, 102, Payload::F64(m.as_slice().to_vec()));
            (None, comm.clock_snapshot(), comm.traffic())
        } else {
            let mut ms = vec![m];
            for i in 1..7 {
                ms.push(DenseMatrix::from_vec(h, h, comm.recv(i, 102).into_f64()));
            }
            let c11 = madd(&msub(&madd(&ms[0], &ms[3]), &ms[4]), &ms[6]);
            let c12 = madd(&ms[2], &ms[4]);
            let c21 = madd(&ms[1], &ms[3]);
            let c22 = madd(&madd(&msub(&ms[0], &ms[1]), &ms[2]), &ms[5]);
            let mut c = DenseMatrix::zeros(n, n);
            c.set_submatrix(0, 0, &c11);
            c.set_submatrix(0, h, &c12);
            c.set_submatrix(h, 0, &c21);
            c.set_submatrix(h, h, &c22);
            (Some(c), comm.clock_snapshot(), comm.traffic())
        }
    });

    let mut c = None;
    let mut clocks = Vec::with_capacity(7);
    let mut traffic = Vec::with_capacity(7);
    for (cm, clk, tr) in results {
        if let Some(cm) = cm {
            c = Some(cm);
        }
        clocks.push(clk);
        traffic.push(tr);
    }
    CapsResult {
        c: c.expect("rank 0 produced no result"),
        clocks,
        traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_comm::{HockneyModel, ZeroCost};
    use summagen_matrix::{approx_eq, gemm_naive, gemm_tolerance, random_matrix};

    fn reference(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let n = a.rows();
        let mut c = DenseMatrix::zeros(n, n);
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
            c.as_mut_slice(),
            n,
        );
        c
    }

    #[test]
    fn caps_correct_on_various_sizes() {
        for n in [2usize, 16, 50, 128] {
            let a = random_matrix(n, n, 1);
            let b = random_matrix(n, n, 2);
            let r = caps_multiply(&a, &b, ZeroCost);
            assert!(
                approx_eq(&r.c, &reference(&a, &b), gemm_tolerance(n) * 1e4),
                "n = {n}"
            );
        }
    }

    #[test]
    fn each_worker_ships_one_quadrant_product() {
        let n = 64;
        let a = random_matrix(n, n, 3);
        let b = random_matrix(n, n, 4);
        let r = caps_multiply(&a, &b, ZeroCost);
        let quad_bytes = (n / 2 * n / 2 * 8) as u64;
        for rank in 1..7 {
            assert_eq!(r.traffic[rank].bytes_sent, quad_bytes, "rank {rank}");
            assert_eq!(r.traffic[rank].bytes_recv, 2 * quad_bytes);
        }
        // Root sends 6 operand pairs.
        assert_eq!(r.traffic[0].bytes_sent, 12 * quad_bytes);
    }

    #[test]
    #[should_panic(expected = "even n")]
    fn caps_rejects_odd_sizes() {
        let a = random_matrix(7, 7, 1);
        caps_multiply(&a, &a, ZeroCost);
    }

    #[test]
    fn caps_with_cost_model_produces_times() {
        let n = 32;
        let a = random_matrix(n, n, 5);
        let b = random_matrix(n, n, 6);
        let r = caps_multiply(&a, &b, HockneyModel::intra_node());
        assert!(r.clocks.iter().all(|c| c.comm_time > 0.0));
        assert!(approx_eq(&r.c, &reference(&a, &b), gemm_tolerance(n) * 1e4));
    }
}
