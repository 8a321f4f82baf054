//! Communication-optimal baselines from the paper's related work
//! (Section III-D): Cannon's algorithm on a 2D torus and the 2.5D
//! algorithm of Solomonik & Demmel with `c`-fold replication.
//!
//! Both assume a *homogeneous* processor grid — exactly the assumption
//! SummaGen's heterogeneity-aware partitions drop — so they serve as the
//! baselines against which the non-rectangular layouts are compared on
//! the simulated heterogeneous node.

use summagen_comm::{ClockSnapshot, CostModel, Payload, TrafficStats, Universe};
use summagen_matrix::{gemm_blocked, DenseMatrix};

/// Result of a Cannon or 2.5D run.
#[derive(Debug, Clone)]
pub struct GridRunResult {
    /// The assembled product.
    pub c: DenseMatrix,
    /// Per-rank clock snapshots.
    pub clocks: Vec<ClockSnapshot>,
    /// Per-rank traffic.
    pub traffic: Vec<TrafficStats>,
    /// Max over ranks of final virtual time.
    pub exec_time: f64,
}

/// Cannon's algorithm on a `q × q` torus.
///
/// # Panics
/// Panics unless `A`/`B` are square `n × n` with `q | n` and `q ≥ 1`.
pub fn cannon_multiply(
    a: &DenseMatrix,
    b: &DenseMatrix,
    q: usize,
    cost: impl CostModel,
) -> GridRunResult {
    let n = a.rows();
    assert_eq!((a.rows(), a.cols()), (n, n), "A must be square");
    assert_eq!((b.rows(), b.cols()), (n, n), "B must be square");
    assert!(q >= 1, "grid must be non-empty");
    assert_eq!(n % q, 0, "Cannon needs q | n (n = {n}, q = {q})");
    let nb = n / q;
    let p = q * q;
    let universe = Universe::new(p, cost);

    let results = universe.run(|comm| {
        let rank = comm.rank();
        let (i, j) = (rank / q, rank % q);
        // Initial alignment: this rank starts with A_{i,(j+i) mod q} and
        // B_{(i+j) mod q, j} — fetched locally from the global inputs
        // (the skew communication is folded into the distribution, as in
        // most Cannon formulations).
        let mut a_blk = a.submatrix(i * nb, ((j + i) % q) * nb, nb, nb);
        let mut b_blk = b.submatrix(((i + j) % q) * nb, j * nb, nb, nb);
        let mut c_blk = DenseMatrix::zeros(nb, nb);

        for step in 0..q {
            gemm_blocked(
                nb,
                nb,
                nb,
                1.0,
                a_blk.as_slice(),
                nb,
                b_blk.as_slice(),
                nb,
                1.0,
                c_blk.as_mut_slice(),
                nb,
            );
            if step + 1 == q || q == 1 {
                break;
            }
            // Shift A left along the row, B up along the column.
            let left = i * q + (j + q - 1) % q;
            let right = i * q + (j + 1) % q;
            let up = ((i + q - 1) % q) * q + j;
            let down = ((i + 1) % q) * q + j;
            let tag_a = 10_000 + step as u64;
            let tag_b = 20_000 + step as u64;
            comm.send(left, tag_a, Payload::F64(a_blk.as_slice().to_vec()));
            comm.send(up, tag_b, Payload::F64(b_blk.as_slice().to_vec()));
            a_blk = DenseMatrix::from_vec(nb, nb, comm.recv(right, tag_a).into_f64());
            b_blk = DenseMatrix::from_vec(nb, nb, comm.recv(down, tag_b).into_f64());
        }
        ((i, j, c_blk), comm.clock_snapshot(), comm.traffic())
    });

    assemble_grid(n, nb, results)
}

fn assemble_grid(
    n: usize,
    nb: usize,
    results: Vec<((usize, usize, DenseMatrix), ClockSnapshot, TrafficStats)>,
) -> GridRunResult {
    let mut c = DenseMatrix::zeros(n, n);
    let mut clocks = Vec::with_capacity(results.len());
    let mut traffic = Vec::with_capacity(results.len());
    for ((i, j, blk), clk, tr) in results {
        c.set_submatrix(i * nb, j * nb, &blk);
        clocks.push(clk);
        traffic.push(tr);
    }
    let exec_time = clocks.iter().map(|c| c.now).fold(0.0, f64::max);
    GridRunResult {
        c,
        clocks,
        traffic,
        exec_time,
    }
}

/// The 2.5D algorithm: `c` replicated layers of a `q × q` grid
/// (`p = c·q²` ranks). Each layer performs `q/c` Cannon steps from a
/// layer-specific starting skew; partial `C` blocks are summed across
/// layers at the end. `c = 1` degenerates to Cannon.
///
/// # Panics
/// Panics unless `q | n`, `c | q` (each layer gets an equal share of the
/// steps) and `c ≥ 1`.
pub fn summa25d_multiply(
    a: &DenseMatrix,
    b: &DenseMatrix,
    q: usize,
    c: usize,
    cost: impl CostModel,
) -> GridRunResult {
    let n = a.rows();
    assert_eq!((a.rows(), a.cols()), (n, n), "A must be square");
    assert_eq!((b.rows(), b.cols()), (n, n), "B must be square");
    assert!(q >= 1 && c >= 1, "bad grid");
    assert_eq!(n % q, 0, "2.5D needs q | n");
    assert_eq!(q % c, 0, "2.5D needs c | q");
    let nb = n / q;
    let steps_per_layer = q / c;
    let p = c * q * q;
    let universe = Universe::new(p, cost);

    let results = universe.run(|comm| {
        let rank = comm.rank();
        let k = rank / (q * q);
        let i = (rank / q) % q;
        let j = rank % q;

        // Layer 0 owns the inputs; it broadcasts A_ij and B_ij through the
        // replication fibre (all ranks with the same (i, j)).
        let fibre: Vec<usize> = (0..c).map(|l| l * q * q + i * q + j).collect();
        let (mut a_blk, mut b_blk);
        if c > 1 {
            let mut fibre_comm = comm
                .subgroup(&fibre, 5_000 + (i * q + j) as u64)
                .expect("rank missing from its fibre");
            let a_payload = if k == 0 {
                Payload::F64(a.submatrix(i * nb, j * nb, nb, nb).as_slice().to_vec())
            } else {
                Payload::F64(Vec::new())
            };
            let b_payload = if k == 0 {
                Payload::F64(b.submatrix(i * nb, j * nb, nb, nb).as_slice().to_vec())
            } else {
                Payload::F64(Vec::new())
            };
            let a_data = fibre_comm.bcast(0, a_payload).into_f64();
            let b_data = fibre_comm.bcast(0, b_payload).into_f64();
            a_blk = DenseMatrix::from_vec(nb, nb, a_data);
            b_blk = DenseMatrix::from_vec(nb, nb, b_data);
        } else {
            a_blk = a.submatrix(i * nb, j * nb, nb, nb);
            b_blk = b.submatrix(i * nb, j * nb, nb, nb);
        }

        // Layer-local skew to this layer's starting offset: rotate A left
        // within the row by `(i + k·q/c) mod q` and B up within the
        // column by `(j + k·q/c) mod q`, so step `s` of this layer
        // multiplies `A_{i,t} B_{t,j}` with `t = i + j + k·q/c + s`.
        let shift_a = (i + k * steps_per_layer) % q;
        if shift_a != 0 {
            let dst_a = k * q * q + i * q + (j + q - shift_a) % q;
            let src_a = k * q * q + i * q + (j + shift_a) % q;
            comm.send(dst_a, 30_000, Payload::F64(a_blk.as_slice().to_vec()));
            a_blk = DenseMatrix::from_vec(nb, nb, comm.recv(src_a, 30_000).into_f64());
        }
        let shift_b = (j + k * steps_per_layer) % q;
        if shift_b != 0 {
            let dst_b = k * q * q + ((i + q - shift_b) % q) * q + j;
            let src_b = k * q * q + ((i + shift_b) % q) * q + j;
            comm.send(dst_b, 31_000, Payload::F64(b_blk.as_slice().to_vec()));
            b_blk = DenseMatrix::from_vec(nb, nb, comm.recv(src_b, 31_000).into_f64());
        }

        let mut c_blk = DenseMatrix::zeros(nb, nb);
        for step in 0..steps_per_layer {
            gemm_blocked(
                nb,
                nb,
                nb,
                1.0,
                a_blk.as_slice(),
                nb,
                b_blk.as_slice(),
                nb,
                1.0,
                c_blk.as_mut_slice(),
                nb,
            );
            if step + 1 == steps_per_layer || q == 1 {
                break;
            }
            let left = k * q * q + i * q + (j + q - 1) % q;
            let right = k * q * q + i * q + (j + 1) % q;
            let up = k * q * q + ((i + q - 1) % q) * q + j;
            let down = k * q * q + ((i + 1) % q) * q + j;
            let tag_a = 40_000 + step as u64;
            let tag_b = 50_000 + step as u64;
            comm.send(left, tag_a, Payload::F64(a_blk.as_slice().to_vec()));
            comm.send(up, tag_b, Payload::F64(b_blk.as_slice().to_vec()));
            a_blk = DenseMatrix::from_vec(nb, nb, comm.recv(right, tag_a).into_f64());
            b_blk = DenseMatrix::from_vec(nb, nb, comm.recv(down, tag_b).into_f64());
        }

        // Sum partial C blocks across the fibre onto layer 0.
        if c > 1 {
            let mut fibre_comm = comm
                .subgroup(&fibre, 6_000 + (i * q + j) as u64)
                .expect("rank missing from its fibre");
            let gathered = fibre_comm.gather(0, Payload::F64(c_blk.as_slice().to_vec()));
            if let Some(parts) = gathered {
                let mut acc = vec![0.0; nb * nb];
                for part in parts {
                    for (x, y) in acc.iter_mut().zip(part.into_f64()) {
                        *x += y;
                    }
                }
                c_blk = DenseMatrix::from_vec(nb, nb, acc);
            }
        }
        (
            (
                i,
                j,
                if k == 0 {
                    c_blk
                } else {
                    DenseMatrix::zeros(0, 0)
                },
            ),
            comm.clock_snapshot(),
            comm.traffic(),
        )
    });

    // Only layer-0 blocks carry data.
    let mut c_mat = DenseMatrix::zeros(n, n);
    let mut clocks = Vec::with_capacity(p);
    let mut traffic = Vec::with_capacity(p);
    for ((i, j, blk), clk, tr) in results {
        if blk.rows() == nb {
            c_mat.set_submatrix(i * nb, j * nb, &blk);
        }
        clocks.push(clk);
        traffic.push(tr);
    }
    let exec_time = clocks.iter().map(|c| c.now).fold(0.0, f64::max);
    GridRunResult {
        c: c_mat,
        clocks,
        traffic,
        exec_time,
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
    fn cannon_correct_on_various_grids() {
        for (n, q) in [(24usize, 1), (24, 2), (24, 3), (32, 4), (30, 5)] {
            let a = random_matrix(n, n, 1);
            let b = random_matrix(n, n, 2);
            let r = cannon_multiply(&a, &b, q, ZeroCost);
            assert!(
                approx_eq(&r.c, &reference(&a, &b), gemm_tolerance(n) * 100.0),
                "n={n} q={q}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "q | n")]
    fn cannon_rejects_indivisible_size() {
        let a = random_matrix(10, 10, 1);
        cannon_multiply(&a, &a, 3, ZeroCost);
    }

    #[test]
    fn cannon_traffic_is_balanced() {
        let n = 32;
        let a = random_matrix(n, n, 3);
        let b = random_matrix(n, n, 4);
        let r = cannon_multiply(&a, &b, 4, ZeroCost);
        let bytes: Vec<u64> = r.traffic.iter().map(|t| t.bytes_sent).collect();
        let max = *bytes.iter().max().unwrap();
        let min = *bytes.iter().min().unwrap();
        assert_eq!(
            max, min,
            "Cannon load should be perfectly balanced: {bytes:?}"
        );
        // Each rank ships 2 blocks per step for q-1 steps.
        assert_eq!(max, (2 * (4 - 1) * 8 * 8 * 8) as u64);
    }

    #[test]
    fn two_five_d_matches_cannon_when_c_is_one() {
        let n = 24;
        let a = random_matrix(n, n, 5);
        let b = random_matrix(n, n, 6);
        let r1 = cannon_multiply(&a, &b, 3, ZeroCost);
        let r2 = summa25d_multiply(&a, &b, 3, 1, ZeroCost);
        assert!(approx_eq(&r1.c, &r2.c, 1e-10));
    }

    #[test]
    fn two_five_d_correct_with_replication() {
        for (n, q, c) in [(16usize, 2, 2), (24, 4, 2), (32, 4, 4), (36, 6, 3)] {
            let a = random_matrix(n, n, 7);
            let b = random_matrix(n, n, 8);
            let r = summa25d_multiply(&a, &b, q, c, ZeroCost);
            assert!(
                approx_eq(&r.c, &reference(&a, &b), gemm_tolerance(n) * 100.0),
                "n={n} q={q} c={c}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "c | q")]
    fn two_five_d_rejects_bad_replication() {
        let a = random_matrix(12, 12, 1);
        summa25d_multiply(&a, &a, 2, 4, ZeroCost);
    }

    #[test]
    fn replication_reduces_average_traffic_per_rank() {
        // Same q: with c = 2, each layer does half the Cannon steps, so
        // the average per-rank traffic drops (the classic 2.5D bandwidth
        // saving), at the price of the initial broadcast and the final
        // reduction and of using c times more processors.
        let n = 48;
        let a = random_matrix(n, n, 9);
        let b = random_matrix(n, n, 10);
        let cannon = cannon_multiply(&a, &b, 4, ZeroCost);
        let rep = summa25d_multiply(&a, &b, 4, 2, ZeroCost);
        let avg_sent = |r: &GridRunResult| {
            r.traffic.iter().map(|t| t.bytes_sent).sum::<u64>() as f64 / r.traffic.len() as f64
        };
        assert!(
            avg_sent(&rep) < avg_sent(&cannon),
            "2.5D {} vs Cannon {}",
            avg_sent(&rep),
            avg_sent(&cannon)
        );
    }

    #[test]
    fn hockney_costs_produce_time_profile() {
        let n = 24;
        let a = random_matrix(n, n, 11);
        let b = random_matrix(n, n, 12);
        let r = cannon_multiply(&a, &b, 2, HockneyModel::intra_node());
        assert!(r.exec_time > 0.0);
        assert!(r.clocks.iter().all(|c| c.comm_time > 0.0));
    }
}
