//! An actual out-of-core DGEMM with bounded workspace — the structural
//! analogue of the paper's ZZGemmOOC / XeonPhiOOC packages
//! (reference \[27\]).
//!
//! The "device" can only hold `workspace_elems` f64 values at once. The
//! multiply proceeds tile-by-tile: a `t × t` tile of `C` stays resident
//! while `t × kb` panels of `A` and `kb × t` panels of `B` are staged in
//! from "host" memory (here: the input slices), exactly the schedule the
//! out-of-core cost model in `summagen-platform` prices. The staging
//! traffic is counted so tests (and the model) can check it.

use crate::gemm::gemm_blocked;

/// Statistics of an out-of-core multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OocStats {
    /// Elements staged from host to device (A and B panels, C tiles in).
    pub elems_in: u64,
    /// Elements written back (C tiles out).
    pub elems_out: u64,
    /// Peak device workspace used, in elements.
    pub peak_workspace: usize,
    /// Number of C tiles processed.
    pub tiles: usize,
}

/// Computes `C = A · B` (all `n × n`, row-major) while never holding more
/// than `workspace_elems` f64 values in "device" buffers.
///
/// Returns staging statistics.
///
/// # Panics
/// Panics if the workspace cannot hold even a 1×1 tile with its panels
/// (`workspace_elems < 3`), or if slice lengths are inconsistent.
pub fn ooc_gemm(n: usize, a: &[f64], b: &[f64], c: &mut [f64], workspace_elems: usize) -> OocStats {
    assert_eq!(a.len(), n * n, "A length");
    assert_eq!(b.len(), n * n, "B length");
    assert_eq!(c.len(), n * n, "C length");
    assert!(workspace_elems >= 3, "workspace too small");

    // Choose the largest square tile t with room for the C tile plus an
    // A panel (t × kb) and B panel (kb × t); take kb = t for simplicity:
    // 3·t² <= workspace.
    let t = (((workspace_elems / 3) as f64).sqrt().floor() as usize)
        .max(1)
        .min(n.max(1));
    let kb = t;

    let mut stats = OocStats {
        elems_in: 0,
        elems_out: 0,
        peak_workspace: 0,
        tiles: 0,
    };
    if n == 0 {
        return stats;
    }

    // Device buffers ("on-card" memory).
    let mut c_tile = vec![0.0f64; t * t];
    let mut a_panel = vec![0.0f64; t * kb];
    let mut b_panel = vec![0.0f64; kb * t];
    stats.peak_workspace = c_tile.len() + a_panel.len() + b_panel.len();
    assert!(
        stats.peak_workspace <= workspace_elems,
        "internal: workspace overflow"
    );

    for i0 in (0..n).step_by(t) {
        let th = t.min(n - i0);
        for j0 in (0..n).step_by(t) {
            let tw = t.min(n - j0);
            stats.tiles += 1;
            // C tile starts at zero on the device.
            c_tile[..th * tw].iter_mut().for_each(|x| *x = 0.0);
            for k0 in (0..n).step_by(kb) {
                let kw = kb.min(n - k0);
                // Stage A panel (th × kw) and B panel (kw × tw).
                for i in 0..th {
                    a_panel[i * kw..(i + 1) * kw]
                        .copy_from_slice(&a[(i0 + i) * n + k0..(i0 + i) * n + k0 + kw]);
                }
                for k in 0..kw {
                    b_panel[k * tw..(k + 1) * tw]
                        .copy_from_slice(&b[(k0 + k) * n + j0..(k0 + k) * n + j0 + tw]);
                }
                stats.elems_in += (th * kw + kw * tw) as u64;
                gemm_blocked(
                    th,
                    tw,
                    kw,
                    1.0,
                    &a_panel,
                    kw.max(1),
                    &b_panel,
                    tw.max(1),
                    1.0,
                    &mut c_tile,
                    tw.max(1),
                );
            }
            // Write the finished tile back to host C.
            for i in 0..th {
                c[(i0 + i) * n + j0..(i0 + i) * n + j0 + tw]
                    .copy_from_slice(&c_tile[i * tw..(i + 1) * tw]);
            }
            stats.elems_out += (th * tw) as u64;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, gemm_naive, gemm_tolerance, random_matrix, DenseMatrix};

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
    fn correct_under_tight_workspace() {
        let n = 48;
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        // Whole problem is 3·48² = 6912 elements; give the device room
        // for only ~8x8 tiles.
        for ws in [3 * 8 * 8, 3 * 16 * 16, 3 * 64 * 64] {
            let mut c = DenseMatrix::zeros(n, n);
            let stats = ooc_gemm(n, a.as_slice(), b.as_slice(), c.as_mut_slice(), ws);
            assert!(
                approx_eq(&c, &reference(&a, &b), gemm_tolerance(n) * 100.0),
                "ws = {ws}"
            );
            assert!(stats.peak_workspace <= ws, "ws = {ws}");
        }
    }

    #[test]
    fn staging_traffic_grows_as_workspace_shrinks() {
        let n = 64;
        let a = random_matrix(n, n, 3);
        let b = random_matrix(n, n, 4);
        let traffic = |ws: usize| {
            let mut c = DenseMatrix::zeros(n, n);
            ooc_gemm(n, a.as_slice(), b.as_slice(), c.as_mut_slice(), ws).elems_in
        };
        let small = traffic(3 * 8 * 8);
        let large = traffic(3 * 32 * 32);
        // Panel traffic ~ 2·n³/t: tile edge 8 vs 32 -> 4x more traffic.
        assert!(
            small > 3 * large,
            "small-tile traffic {small} vs large-tile {large}"
        );
    }

    #[test]
    fn traffic_matches_cost_model_formula() {
        // elems_in = (x/t)² tiles × Σ_k (t·kb + kb·t) = 2·x³/t for t | x.
        let n = 64;
        let a = random_matrix(n, n, 5);
        let b = random_matrix(n, n, 6);
        let mut c = DenseMatrix::zeros(n, n);
        let ws = 3 * 16 * 16;
        let stats = ooc_gemm(n, a.as_slice(), b.as_slice(), c.as_mut_slice(), ws);
        let t = 16u64;
        let expect = 2 * (n as u64).pow(3) / t;
        assert_eq!(stats.elems_in, expect);
        assert_eq!(stats.elems_out, (n * n) as u64);
        assert_eq!(stats.tiles, (n / 16) * (n / 16));
    }

    #[test]
    fn in_core_problems_stage_each_operand_once_per_tile_row() {
        // Workspace bigger than the problem: one tile, panels = whole
        // matrices.
        let n = 16;
        let a = random_matrix(n, n, 7);
        let b = random_matrix(n, n, 8);
        let mut c = DenseMatrix::zeros(n, n);
        let stats = ooc_gemm(n, a.as_slice(), b.as_slice(), c.as_mut_slice(), 10_000);
        assert_eq!(stats.tiles, 1);
        assert_eq!(stats.elems_in, 2 * (n * n) as u64);
        assert!(approx_eq(&c, &reference(&a, &b), 1e-10));
    }

    #[test]
    fn odd_sizes_and_ragged_tiles() {
        let n = 37;
        let a = random_matrix(n, n, 9);
        let b = random_matrix(n, n, 10);
        let mut c = DenseMatrix::zeros(n, n);
        ooc_gemm(n, a.as_slice(), b.as_slice(), c.as_mut_slice(), 3 * 10 * 10);
        assert!(approx_eq(&c, &reference(&a, &b), gemm_tolerance(n) * 100.0));
    }

    #[test]
    #[should_panic(expected = "workspace too small")]
    fn rejects_zero_workspace() {
        let mut c = [0.0; 1];
        ooc_gemm(1, &[1.0], &[1.0], &mut c, 2);
    }
}
