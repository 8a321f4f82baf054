//! Classic SUMMA (van de Geijn & Watts) on a 2D processor grid — the
//! homogeneous rectangular algorithm SummaGen generalises (Section III-D /
//! the Elemental library), and the one baseline this crate keeps.
//!
//! Matrices are block-distributed over a `pr × pc` grid — which is the
//! [`uniform_grid`] partition, so the engine deals the blocks, lists the
//! row and column communicators' members and reassembles `C` exactly as it
//! does for SummaGen. The product is accumulated in panels of width `nb`:
//! for each panel, the owning processor column broadcasts its slice of `A`
//! along processor rows, the owning processor row broadcasts its slice of
//! `B` along processor columns, and every processor runs a rank-`nb`
//! update on its local `C` block. Unlike SummaGen's one-shot gather, SUMMA
//! pipelines many small broadcasts, one aggregated message per lane per
//! panel — `reproduce summa` compares the two on the same virtual platform.

use summagen_comm::{CommResult, Communicator, CostModel, HockneyModel, Payload};
use summagen_matrix::{gemm_blocked, window_to_vec, DenseMatrix};
use summagen_partition::PartitionSpec;
use summagen_platform::Platform;

use crate::engine;
use crate::executor::{RunOptions, RunResult};
use crate::rankdata::RankMatrices;
use crate::simulate::SimReport;
use crate::stages::Lanes;

/// The block distribution of an `n × n` matrix over a `pr × pc` processor
/// grid as a partition: cut `i` of a dimension falls at `i·n / parts`, and
/// processor `pi·pc + pj` owns cell `(pi, pj)`. SummaGen over this
/// partition and classic SUMMA on the grid compute the same bits of `C`
/// and move the same bytes.
///
/// # Panics
/// Panics unless `1 ≤ pr, pc ≤ n`.
pub fn uniform_grid(n: usize, pr: usize, pc: usize) -> PartitionSpec {
    assert!(pr >= 1 && pc >= 1, "grid must be non-empty");
    assert!(n >= pr && n >= pc, "matrix too small for the grid");
    let cuts = |parts: usize| -> Vec<usize> {
        (0..parts)
            .map(|i| (i + 1) * n / parts - i * n / parts)
            .collect()
    };
    PartitionSpec::new((0..pr * pc).collect(), cuts(pr), cuts(pc), pr * pc)
}

/// One step of the panel loop: the next `kb` columns of `A` (rows of `B`).
/// A panel never straddles an owner boundary: its `A` columns lie in grid
/// column `jk` from local column `a_off`, its `B` rows in grid row `ik`
/// from local row `b_off`.
struct Panel {
    kb: usize,
    jk: usize,
    a_off: usize,
    ik: usize,
    b_off: usize,
}

/// The panel schedule of `grid` for panel width `nb`, in ascending `k`.
fn schedule(grid: &PartitionSpec, nb: usize) -> Vec<Panel> {
    assert!(nb >= 1, "panel width must be positive");
    let mut panels = Vec::new();
    let (mut jk, mut ik) = (0, 0);
    let (mut a_off, mut b_off) = (0, 0);
    let mut k0 = 0;
    while k0 < grid.n {
        let kb = nb
            .min(grid.widths[jk] - a_off)
            .min(grid.heights[ik] - b_off);
        panels.push(Panel {
            kb,
            jk,
            a_off,
            ik,
            b_off,
        });
        k0 += kb;
        (a_off, b_off) = (a_off + kb, b_off + kb);
        if a_off == grid.widths[jk] {
            (jk, a_off) = (jk + 1, 0);
        }
        if b_off == grid.heights[ik] {
            (ik, b_off) = (ik + 1, 0);
        }
    }
    panels
}

/// One rank's SUMMA, the rank holding cell `(pi, pj)` of the grid: per
/// panel, the broadcast of the `A` slice along its processor row and of
/// the `B` slice along its processor column — the root contributing what
/// `own` cuts for it — then `update` with the two panels received.
fn rank_program(
    comm: &Communicator,
    (pi, pj): (usize, usize),
    lanes: &Lanes,
    panels: &[Panel],
    own: impl Fn(&Panel) -> (Payload, Payload),
    mut update: impl FnMut(&Panel, Payload, Payload) -> CommResult<()>,
) -> CommResult<()> {
    let mut row_comm = comm
        .try_subgroup(lanes.row(pi), 1_000 + pi as u64)?
        .expect("rank missing from its row");
    let mut col_comm = comm
        .try_subgroup(lanes.col(pj), 2_000 + pj as u64)?
        .expect("rank missing from its column");
    for panel in panels {
        let (a_slice, b_slice) = own(panel);
        let a_panel = row_comm.try_bcast(panel.jk, a_slice)?;
        let b_panel = col_comm.try_bcast(panel.ik, b_slice)?;
        update(panel, a_panel, b_panel)?;
    }
    Ok(())
}

/// Multiplies `A × B` with classic SUMMA on a `pr × pc` grid using panel
/// width `nb`, pricing communication with `cost`.
///
/// # Panics
/// Panics unless `A`/`B` are square and of equal size, `pr·pc ≥ 1`, and
/// `n ≥ max(pr, pc)`.
pub fn summa_multiply(
    a: &DenseMatrix,
    b: &DenseMatrix,
    pr: usize,
    pc: usize,
    nb: usize,
    cost: impl CostModel,
) -> RunResult {
    let n = a.rows();
    assert_eq!((a.rows(), a.cols()), (n, n), "A must be square");
    assert_eq!((b.rows(), b.cols()), (n, n), "B must be square");
    let grid = uniform_grid(n, pr, pc);
    let panels = schedule(&grid, nb);

    let rank_fn = |comm: &Communicator, data: &RankMatrices, lanes: &Lanes| {
        // The one block of each matrix this rank was dealt.
        let (blk, a_local) = &data.a_blocks[0];
        let (_, b_local) = &data.b_blocks[0];
        let (pi, pj) = (blk.block_i, blk.block_j);
        let (mr, mc) = (blk.rows, blk.cols);
        let mut c_local = DenseMatrix::zeros(mr, mc);
        // A panel: my rows × columns k0..k0+kb, owned by (pi, jk);
        // B panel: rows k0..k0+kb × my columns, owned by (ik, pj).
        let own = |panel: &Panel| {
            let kb = panel.kb;
            let a_slice = (pj == panel.jk)
                .then(|| window_to_vec(a_local.as_slice(), mc, 0, panel.a_off, mr, kb));
            let b_slice = (pi == panel.ik)
                .then(|| window_to_vec(b_local.as_slice(), mc, panel.b_off, 0, kb, mc));
            let payload = |slice: Option<Vec<f64>>| Payload::F64(slice.unwrap_or_default());
            (payload(a_slice), payload(b_slice))
        };
        // Rank-kb update: C_local += A_panel (mr x kb) * B_panel (kb x mc).
        let update = |panel: &Panel, a_panel: Payload, b_panel: Payload| -> CommResult<()> {
            let (a_panel, b_panel) = (a_panel.try_into_f64()?, b_panel.try_into_f64()?);
            let (kb, c) = (panel.kb, c_local.as_mut_slice());
            gemm_blocked(mr, mc, kb, 1.0, &a_panel, kb, &b_panel, mc, 1.0, c, mc);
            Ok(())
        };
        rank_program(comm, (pi, pj), lanes, &panels, own, update)?;
        Ok((vec![(*blk, c_local)], ()))
    };
    let opts = RunOptions::default();
    let run = engine::run_numeric(&grid, (a, b), false, cost, None, &opts, rank_fn);
    engine::infallible(run).0
}

/// Simulated-time classic SUMMA at paper scale: executes the same panel
/// schedule with phantom payloads, timing local updates with the device
/// model (rank `i` on `platform.processors[i]`).
pub fn summa_simulate(
    n: usize,
    pr: usize,
    pc: usize,
    nb: usize,
    platform: &Platform,
    hockney: HockneyModel,
) -> SimReport {
    assert!(platform.len() >= pr * pc, "platform too small for the grid");
    let grid = uniform_grid(n, pr, pc);
    let (panels, lanes) = (schedule(&grid, nb), Lanes::new(&grid));
    let rank_fn = |comm: &Communicator| {
        let proc = &platform.processors[comm.rank()];
        let blk = grid.blocks_of(comm.rank())[0];
        let (mr, mc) = (blk.rows, blk.cols);
        let own = |panel: &Panel| {
            let phantom = |elems| Payload::Phantom { elems };
            (phantom(mr * panel.kb), phantom(panel.kb * mc))
        };
        let update = |panel: &Panel, _: Payload, _: Payload| {
            comm.advance_compute(proc.dgemm_time(mr, panel.kb, mc, blk.area() as f64));
            Ok(())
        };
        rank_program(
            comm,
            (blk.block_i, blk.block_j),
            &lanes,
            &panels,
            own,
            update,
        )
    };
    let opts = RunOptions::default();
    let launched = engine::launch(pr * pc, hockney, None, &opts, rank_fn);
    engine::infallible(launched).sim_report(n)
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
    fn summa_2x2_correct() {
        let n = 32;
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        let r = summa_multiply(&a, &b, 2, 2, 8, ZeroCost);
        assert!(approx_eq(
            &r.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
    }

    #[test]
    fn summa_rect_grids_and_odd_sizes() {
        for (n, pr, pc, nb) in [
            (30usize, 3, 2, 4),
            (25, 1, 5, 7),
            (17, 2, 2, 16),
            (40, 4, 1, 3),
        ] {
            let a = random_matrix(n, n, 10);
            let b = random_matrix(n, n, 11);
            let r = summa_multiply(&a, &b, pr, pc, nb, ZeroCost);
            assert!(
                approx_eq(&r.c, &reference(&a, &b), gemm_tolerance(n) * 100.0),
                "n={n} grid {pr}x{pc} nb={nb}"
            );
        }
    }

    #[test]
    fn summa_single_processor() {
        let n = 16;
        let a = random_matrix(n, n, 3);
        let b = random_matrix(n, n, 4);
        let r = summa_multiply(&a, &b, 1, 1, 4, ZeroCost);
        assert!(approx_eq(
            &r.c,
            &reference(&a, &b),
            gemm_tolerance(n) * 100.0
        ));
        assert_eq!(r.traffic[0].msgs_sent, 0);
    }

    #[test]
    fn panel_width_does_not_change_result() {
        let n = 24;
        let a = random_matrix(n, n, 5);
        let b = random_matrix(n, n, 6);
        let r1 = summa_multiply(&a, &b, 2, 2, 1, ZeroCost);
        let r2 = summa_multiply(&a, &b, 2, 2, 12, ZeroCost);
        assert!(approx_eq(&r1.c, &r2.c, 1e-10));
    }

    #[test]
    fn narrower_panels_mean_more_messages() {
        let n = 32;
        let a = random_matrix(n, n, 7);
        let b = random_matrix(n, n, 8);
        let wide = summa_multiply(&a, &b, 2, 2, 16, ZeroCost);
        let narrow = summa_multiply(&a, &b, 2, 2, 2, ZeroCost);
        let msgs = |r: &RunResult| r.traffic.iter().map(|t| t.msgs_sent).sum::<u64>();
        assert!(msgs(&narrow) > msgs(&wide));
    }

    #[test]
    fn simulated_summa_runs_at_paper_scale() {
        use summagen_platform::profile::hclserver1;
        // 3 abstract processors in a 1x3 grid (degenerate but valid).
        let sim = summa_simulate(8_192, 1, 3, 512, &hclserver1(), HockneyModel::intra_node());
        assert!(sim.exec_time > 0.0);
        assert_eq!(sim.clocks.len(), 3);
        assert!(sim.clocks.iter().all(|c| c.comp_time > 0.0));
    }

    #[test]
    fn hockney_clocks_advance() {
        let n = 24;
        let a = random_matrix(n, n, 9);
        let b = random_matrix(n, n, 10);
        let r = summa_multiply(&a, &b, 2, 2, 6, HockneyModel::intra_node());
        assert!(r.exec_time > 0.0);
        assert!(r.clocks.iter().all(|c| c.comm_time > 0.0));
    }
}
