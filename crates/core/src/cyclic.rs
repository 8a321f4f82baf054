//! Block-cyclic distribution and SUMMA over it — the Elemental-style
//! baseline from the paper's related work (Section III-E: "support for
//! different matrix distributions including block-cyclic distribution").
//!
//! The matrix is tiled into `nb × nb` blocks; block `(bi, bj)` lives on
//! processor `(bi mod pr, bj mod pc)` of a `pr × pc` grid. Each rank
//! stores its blocks packed into one contiguous local matrix.

use summagen_comm::{ClockSnapshot, CostModel, Payload, TrafficStats, Universe};
use summagen_matrix::{gemm_blocked, DenseMatrix};

/// A 2D block-cyclic distribution descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCyclic {
    /// Block (tile) edge.
    pub nb: usize,
    /// Process grid rows.
    pub pr: usize,
    /// Process grid columns.
    pub pc: usize,
}

impl BlockCyclic {
    /// Creates a descriptor.
    ///
    /// # Panics
    /// Panics if any parameter is zero.
    pub fn new(nb: usize, pr: usize, pc: usize) -> Self {
        assert!(nb > 0 && pr > 0 && pc > 0, "invalid descriptor");
        Self { nb, pr, pc }
    }

    /// Number of processes.
    pub fn nprocs(&self) -> usize {
        self.pr * self.pc
    }

    /// Owner of tile `(bi, bj)`.
    pub fn owner(&self, bi: usize, bj: usize) -> usize {
        (bi % self.pr) * self.pc + (bj % self.pc)
    }

    /// Number of tile rows/columns for an `n × n` matrix.
    pub fn tiles(&self, n: usize) -> usize {
        n.div_ceil(self.nb)
    }

    /// Size (rows or cols) of tile index `t` for matrix size `n`.
    pub fn tile_extent(&self, n: usize, t: usize) -> usize {
        let start = t * self.nb;
        self.nb.min(n - start)
    }

    /// Global tile indices along one dimension owned by grid coordinate
    /// `g` out of `parts`.
    fn owned_tiles(&self, n: usize, g: usize, parts: usize) -> Vec<usize> {
        (0..self.tiles(n)).filter(|t| t % parts == g).collect()
    }

    /// Local matrix shape of processor `proc` for an `n × n` matrix.
    pub fn local_shape(&self, n: usize, proc: usize) -> (usize, usize) {
        let (pi, pj) = (proc / self.pc, proc % self.pc);
        let rows: usize = self
            .owned_tiles(n, pi, self.pr)
            .iter()
            .map(|&t| self.tile_extent(n, t))
            .sum();
        let cols: usize = self
            .owned_tiles(n, pj, self.pc)
            .iter()
            .map(|&t| self.tile_extent(n, t))
            .sum();
        (rows, cols)
    }

    /// Packs the blocks of `m` owned by `proc` into one contiguous local
    /// matrix (tiles concatenated in global order).
    pub fn local_part(&self, m: &DenseMatrix, proc: usize) -> DenseMatrix {
        let n = m.rows();
        assert_eq!(m.cols(), n, "square matrices only");
        let (pi, pj) = (proc / self.pc, proc % self.pc);
        let row_tiles = self.owned_tiles(n, pi, self.pr);
        let col_tiles = self.owned_tiles(n, pj, self.pc);
        let (lr, lc) = self.local_shape(n, proc);
        let mut out = DenseMatrix::zeros(lr, lc);
        let mut r = 0;
        for &ti in &row_tiles {
            let h = self.tile_extent(n, ti);
            let mut c = 0;
            for &tj in &col_tiles {
                let w = self.tile_extent(n, tj);
                out.set_submatrix(r, c, &m.submatrix(ti * self.nb, tj * self.nb, h, w));
                c += w;
            }
            r += h;
        }
        out
    }

    /// Reassembles a global matrix from all ranks' local parts.
    ///
    /// # Panics
    /// Panics if `parts.len() != nprocs()` or shapes disagree.
    pub fn assemble(&self, n: usize, parts: &[DenseMatrix]) -> DenseMatrix {
        assert_eq!(parts.len(), self.nprocs(), "part count");
        let mut out = DenseMatrix::zeros(n, n);
        for (proc, local) in parts.iter().enumerate() {
            let (pi, pj) = (proc / self.pc, proc % self.pc);
            assert_eq!(
                (local.rows(), local.cols()),
                self.local_shape(n, proc),
                "local shape of proc {proc}"
            );
            let mut r = 0;
            for &ti in &self.owned_tiles(n, pi, self.pr) {
                let h = self.tile_extent(n, ti);
                let mut c = 0;
                for &tj in &self.owned_tiles(n, pj, self.pc) {
                    let w = self.tile_extent(n, tj);
                    out.set_submatrix(ti * self.nb, tj * self.nb, &local.submatrix(r, c, h, w));
                    c += w;
                }
                r += h;
            }
        }
        out
    }
}

/// SUMMA over a block-cyclic distribution (Elemental-style): one panel
/// per tile column/row, broadcast along process rows/columns, rank-`kb`
/// local updates into the packed local `C`.
pub fn summa_cyclic_multiply(
    a: &DenseMatrix,
    b: &DenseMatrix,
    dist: BlockCyclic,
    cost: impl CostModel,
) -> (DenseMatrix, Vec<ClockSnapshot>, Vec<TrafficStats>) {
    let n = a.rows();
    assert_eq!((a.rows(), a.cols()), (n, n), "A must be square");
    assert_eq!((b.rows(), b.cols()), (n, n), "B must be square");
    let p = dist.nprocs();
    let universe = Universe::new(p, cost);

    let results = universe.run(|comm| {
        let rank = comm.rank();
        let (pi, pj) = (rank / dist.pc, rank % dist.pc);
        let a_local = dist.local_part(a, rank);
        let b_local = dist.local_part(b, rank);
        let (lr, lc) = dist.local_shape(n, rank);
        let mut c_local = DenseMatrix::zeros(lr, lc);

        let row_members: Vec<usize> = (0..dist.pc).map(|j| pi * dist.pc + j).collect();
        let col_members: Vec<usize> = (0..dist.pr).map(|i| i * dist.pc + pj).collect();
        let mut row_comm = comm.subgroup(&row_members, 7_000 + pi as u64).unwrap();
        let mut col_comm = comm.subgroup(&col_members, 8_000 + pj as u64).unwrap();

        for bk in 0..dist.tiles(n) {
            let kb = dist.tile_extent(n, bk);
            // A panel: my local rows x tile column bk, owned by proc
            // column bk % pc; its local column offset is the position of
            // bk among that column's owned tiles.
            let a_owner_col = bk % dist.pc;
            let a_payload = if pj == a_owner_col {
                let local_col_idx = bk / dist.pc;
                let col_off: usize = (0..local_col_idx)
                    .map(|i| dist.tile_extent(n, i * dist.pc + a_owner_col))
                    .sum();
                Payload::F64(a_local.submatrix(0, col_off, lr, kb).as_slice().to_vec())
            } else {
                Payload::F64(Vec::new())
            };
            let a_panel = row_comm.bcast(a_owner_col, a_payload).into_f64();

            // B panel: tile row bk x my local columns, owned by proc row
            // bk % pr.
            let b_owner_row = bk % dist.pr;
            let b_payload = if pi == b_owner_row {
                let local_row_idx = bk / dist.pr;
                let row_off: usize = (0..local_row_idx)
                    .map(|i| dist.tile_extent(n, i * dist.pr + b_owner_row))
                    .sum();
                Payload::F64(b_local.submatrix(row_off, 0, kb, lc).as_slice().to_vec())
            } else {
                Payload::F64(Vec::new())
            };
            let b_panel = col_comm.bcast(b_owner_row, b_payload).into_f64();

            gemm_blocked(
                lr,
                lc,
                kb,
                1.0,
                &a_panel,
                kb.max(1),
                &b_panel,
                lc.max(1),
                1.0,
                c_local.as_mut_slice(),
                lc.max(1),
            );
        }
        (c_local, comm.clock_snapshot(), comm.traffic())
    });

    let mut parts = Vec::with_capacity(p);
    let mut clocks = Vec::with_capacity(p);
    let mut traffic = Vec::with_capacity(p);
    for (c_local, clk, tr) in results {
        parts.push(c_local);
        clocks.push(clk);
        traffic.push(tr);
    }
    (dist.assemble(n, &parts), clocks, traffic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use summagen_comm::ZeroCost;
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
    fn owner_is_cyclic() {
        let d = BlockCyclic::new(4, 2, 3);
        assert_eq!(d.owner(0, 0), 0);
        assert_eq!(d.owner(0, 3), 0);
        assert_eq!(d.owner(1, 0), 3);
        assert_eq!(d.owner(2, 4), 1);
        assert_eq!(d.nprocs(), 6);
    }

    #[test]
    fn tile_extent_handles_remainders() {
        let d = BlockCyclic::new(4, 2, 2);
        assert_eq!(d.tiles(10), 3);
        assert_eq!(d.tile_extent(10, 0), 4);
        assert_eq!(d.tile_extent(10, 2), 2);
    }

    #[test]
    fn local_shapes_cover_the_matrix() {
        let d = BlockCyclic::new(3, 2, 3);
        let n = 14;
        let total: usize = (0..d.nprocs())
            .map(|p| {
                let (r, c) = d.local_shape(n, p);
                r * c
            })
            .sum();
        assert_eq!(total, n * n);
    }

    #[test]
    fn distribute_assemble_roundtrip() {
        for (n, nb, pr, pc) in [
            (12usize, 2, 2, 2),
            (13, 3, 2, 3),
            (16, 5, 3, 2),
            (9, 4, 1, 2),
        ] {
            let d = BlockCyclic::new(nb, pr, pc);
            let m = random_matrix(n, n, 42);
            let parts: Vec<DenseMatrix> = (0..d.nprocs()).map(|p| d.local_part(&m, p)).collect();
            assert_eq!(d.assemble(n, &parts), m, "n={n} nb={nb} {pr}x{pc}");
        }
    }

    #[test]
    fn summa_cyclic_correct() {
        for (n, nb, pr, pc) in [
            (16usize, 4, 2, 2),
            (18, 3, 2, 3),
            (20, 6, 2, 2),
            (15, 4, 3, 1),
        ] {
            let a = random_matrix(n, n, 1);
            let b = random_matrix(n, n, 2);
            let d = BlockCyclic::new(nb, pr, pc);
            let (c, _, _) = summa_cyclic_multiply(&a, &b, d, ZeroCost);
            assert!(
                approx_eq(&c, &reference(&a, &b), gemm_tolerance(n) * 100.0),
                "n={n} nb={nb} grid {pr}x{pc}"
            );
        }
    }

    #[test]
    fn summa_cyclic_single_process() {
        let n = 10;
        let a = random_matrix(n, n, 3);
        let b = random_matrix(n, n, 4);
        let (c, _, traffic) = summa_cyclic_multiply(&a, &b, BlockCyclic::new(4, 1, 1), ZeroCost);
        assert!(approx_eq(&c, &reference(&a, &b), gemm_tolerance(n) * 100.0));
        assert_eq!(traffic[0].msgs_sent, 0);
    }

    #[test]
    fn cyclic_distribution_balances_load_better_than_block() {
        // With nb much smaller than n/p, every processor's local area is
        // within one tile row/column of the ideal n²/p.
        let d = BlockCyclic::new(2, 2, 2);
        let n = 32;
        let ideal = (n * n / 4) as f64;
        for p in 0..4 {
            let (r, c) = d.local_shape(n, p);
            let frac = (r * c) as f64 / ideal;
            assert!((0.9..1.1).contains(&frac), "proc {p}: {frac}");
        }
    }

    #[test]
    fn hockney_cost_produces_comm_time() {
        use summagen_comm::HockneyModel;
        let n = 16;
        let a = random_matrix(n, n, 5);
        let b = random_matrix(n, n, 6);
        let (_, clocks, _) = summa_cyclic_multiply(
            &a,
            &b,
            BlockCyclic::new(4, 2, 2),
            HockneyModel::intra_node(),
        );
        assert!(clocks.iter().all(|c| c.comm_time > 0.0));
    }
}
