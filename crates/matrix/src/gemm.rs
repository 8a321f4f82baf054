//! GEMM kernels operating on strided row-major submatrices.
//!
//! All kernels compute `C = alpha * A * B + beta * C` where `A` is `m x k`
//! with leading dimension `lda`, `B` is `k x n` with leading dimension `ldb`,
//! and `C` is `m x n` with leading dimension `ldc`. The slices start at the
//! top-left element of each submatrix, which lets SummaGen multiply windows
//! of the `A` and `B` blocks it received straight into its local `C`
//! partition — the same calling convention as the vendor DGEMM the paper
//! wraps in `localDgemm` (Fig. 4).

use rayon::prelude::*;

/// Selects which local-computation kernel SummaGen uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GemmKernel {
    /// Triple-loop reference kernel. Slow; used for verification.
    ///
    /// Each call forms the whole dot product before it adds `beta * C`
    /// and rounds, so — unlike `Blocked` and `Parallel`, which add term by
    /// term into `C` — splitting `k` over chained calls changes the
    /// rounding. The SummaGen executor runs one call per k-segment of the
    /// partition grid, its panel loop one per overlapping `B` block (they
    /// never gather a block's operands into one buffer), so through them
    /// `Naive` agrees with one `gemm_naive` over the whole product to within
    /// [`crate::gemm_tolerance`], not to the bit.
    Naive,
    /// Packed, register-tiled serial kernel (panels of `A` and `B` copied
    /// into contiguous strips; a 4 x 16 accumulator tile under AVX-512F,
    /// 4 x 8 under AVX2 or the baseline instruction set).
    Blocked,
    /// The `Blocked` kernel over one contiguous band of `C` rows per
    /// hardware thread; bit-identical to `Blocked`. This is the
    /// "multi-threaded CPU kernel" analogue of the paper's MKL DGEMM.
    #[default]
    Parallel,
}

impl GemmKernel {
    /// Runs the selected kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
    ) {
        match self {
            GemmKernel::Naive => gemm_naive(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc),
            GemmKernel::Blocked => gemm_blocked(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc),
            GemmKernel::Parallel => gemm_parallel(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc),
        }
    }

    /// Runs the selected kernel and, if an observer is given, reports the
    /// call's shape and wall-clock duration to it. With `None` this is
    /// exactly [`GemmKernel::run`] — the timing branch costs nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn run_observed(
        &self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
        observer: Option<&dyn GemmObserver>,
    ) {
        match observer {
            None => self.run(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc),
            Some(obs) => {
                let t0 = std::time::Instant::now();
                self.run(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
                obs.on_gemm(m, n, k, t0.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// Callback for per-invocation kernel telemetry. The executor's tracing
/// layer implements this to attach measured wall-clock kernel times to
/// its virtual-time GEMM spans without this crate knowing about either
/// clock.
pub trait GemmObserver {
    /// Called after each kernel invocation with the multiply shape and
    /// the kernel's wall-clock duration in nanoseconds.
    fn on_gemm(&self, m: usize, n: usize, k: usize, elapsed_ns: u64);
}

/// A metrics bundle's GEMM telemetry is directly usable as an observer:
/// each invocation lands in the wall-clock kernel duration and GFLOP/s
/// histograms. (Virtual-clock accounting stays with the executor, which
/// owns the cost model.)
impl GemmObserver for summagen_metrics::GemmTelemetry {
    fn on_gemm(&self, m: usize, n: usize, k: usize, elapsed_ns: u64) {
        self.record_kernel(m, n, k, elapsed_ns);
    }
}

#[allow(clippy::too_many_arguments)] // mirrors the BLAS dgemm signature
fn check_dims(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &[f64],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(k == 0 || lda >= k, "lda {lda} < k {k}");
    assert!(ldb >= n, "ldb {ldb} < n {n}");
    assert!(ldc >= n, "ldc {ldc} < n {n}");
    if k > 0 {
        assert!(
            a.len() >= (m - 1) * lda + k,
            "A buffer too short: {} for {m}x{k} ld {lda}",
            a.len()
        );
        assert!(
            b.len() >= (k - 1) * ldb + n,
            "B buffer too short: {} for {k}x{n} ld {ldb}",
            b.len()
        );
    }
    assert!(
        c.len() >= (m - 1) * ldc + n,
        "C buffer too short: {} for {m}x{n} ld {ldc}",
        c.len()
    );
}

/// Reference triple-loop GEMM. `C = alpha*A*B + beta*C`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_naive(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    check_dims(m, n, k, a, lda, b, ldb, c, ldc);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a[i * lda + l] * b[l * ldb + j];
            }
            c[i * ldc + j] = alpha * acc + beta * c[i * ldc + j];
        }
    }
}

/// Register tile: the micro-kernel keeps an `MR x NR` block of `C` in
/// accumulators. `MR` is 4 in every instance; `NR` is the instance's
/// const parameter, two vector registers per row: 8 for the portable and
/// AVX2 instances (eight 256-bit accumulators under AVX2), 16 for AVX-512
/// (eight 512-bit accumulators). Eight independent chains are the fewest
/// that hide the add's latency on two vector pipes; the tiles were picked
/// by measurement (DESIGN.md §15).
const MR: usize = 4;
const NR_AVX2: usize = 8;
#[cfg(target_arch = "x86_64")]
const NR_AVX512: usize = 16;
/// Cache tiles: an `MC x KC` packed panel of `A` stays in L2 while it is
/// swept against `NR`-wide strips of a `KC x NC` packed panel of `B`.
const MC: usize = 96;
const KC: usize = 256;
const NC: usize = 1024;

/// Packs `alpha * A[0..mb, 0..kb]` into `MR`-tall strips: strip `s` holds
/// rows `s*MR..` column by column (`MR` values per `l`), short edge strips
/// zero-padded, so the micro-kernel reads it with unit stride.
#[inline(always)]
fn pack_a(mb: usize, kb: usize, alpha: f64, a: &[f64], lda: usize, ap: &mut [f64]) {
    for (s, strip) in ap.chunks_exact_mut(MR * kb).enumerate() {
        let rows = MR.min(mb - s * MR);
        for (l, col) in strip.chunks_exact_mut(MR).enumerate() {
            for (i, x) in col.iter_mut().enumerate() {
                *x = if i < rows {
                    alpha * a[(s * MR + i) * lda + l]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs `B[0..kb, 0..nb]` into `NR`-wide strips (`NR` values per `l`),
/// short edge strips zero-padded.
#[inline(always)]
fn pack_b<const NR: usize>(kb: usize, nb: usize, b: &[f64], ldb: usize, bp: &mut [f64]) {
    for (s, strip) in bp.chunks_exact_mut(NR * kb).enumerate() {
        let cols = NR.min(nb - s * NR);
        for (l, row) in strip.chunks_exact_mut(NR).enumerate() {
            let src = &b[l * ldb + s * NR..l * ldb + s * NR + cols];
            row[..cols].copy_from_slice(src);
            row[cols..].fill(0.0);
        }
    }
}

/// `C[0..mr, 0..nr] += Ap * Bp` over one packed strip pair. The tile of
/// `C` is loaded into the accumulators first and every product is a
/// separate multiply then add, in ascending `l`: per element that is the
/// rounding sequence of a plain `c += (alpha*a) * b` loop, whatever the
/// tile sizes, so results do not depend on the blocking. Accumulators past
/// `mr`/`nr` only ever see the packed zero padding and are not stored.
#[inline(always)]
fn micro_kernel<const NR: usize>(
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&c[i * ldc..i * ldc + nr]);
    }
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let a: &[f64; MR] = a.try_into().expect("chunks_exact(MR)");
        let b: &[f64; NR] = b.try_into().expect("chunks_exact(NR)");
        for (row, &av) in acc.iter_mut().zip(a) {
            for (x, &bv) in row.iter_mut().zip(b) {
                *x += av * bv;
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(mr) {
        c[i * ldc..i * ldc + nr].copy_from_slice(&row[..nr]);
    }
}

/// The packed loop nest (`beta` already applied, `m, n, k > 0`) over
/// `MR x NR` tiles. `inline(always)` so each instance below compiles its
/// own copy under its own target features.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn macro_kernel<const NR: usize>(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    // Sized to the call, not to the constants: most calls are far smaller
    // than one full panel.
    let kc = KC.min(k);
    let ap_len = MC.min(m).next_multiple_of(MR) * kc;
    let mut packed = vec![0.0; ap_len + kc * NC.min(n).next_multiple_of(NR)];
    let (ap, bp) = packed.split_at_mut(ap_len);
    for j0 in (0..n).step_by(NC) {
        let nb = NC.min(n - j0);
        for l0 in (0..k).step_by(KC) {
            let kb = KC.min(k - l0);
            let bp = &mut bp[..kb * nb.next_multiple_of(NR)];
            pack_b::<NR>(kb, nb, &b[l0 * ldb + j0..], ldb, bp);
            for i0 in (0..m).step_by(MC) {
                let mb = MC.min(m - i0);
                let ap = &mut ap[..mb.next_multiple_of(MR) * kb];
                pack_a(mb, kb, alpha, &a[i0 * lda + l0..], lda, ap);
                for (js, bs) in bp.chunks_exact(NR * kb).enumerate() {
                    let nr = NR.min(nb - js * NR);
                    for (is, a_s) in ap.chunks_exact(MR * kb).enumerate() {
                        let mr = MR.min(mb - is * MR);
                        let at = (i0 + is * MR) * ldc + j0 + js * NR;
                        micro_kernel::<NR>(a_s, bs, &mut c[at..], ldc, mr, nr);
                    }
                }
            }
        }
    }
}

/// [`macro_kernel`] compiled with AVX-512F over a 4 x 16 tile. The
/// feature makes FMA available but nothing asks for it: Rust never
/// contracts `x + a * b`, so every term is still a separate multiply and
/// add, and the bits are those of the other instances.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn macro_kernel_avx512(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    macro_kernel::<NR_AVX512>(m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// [`macro_kernel`] compiled with AVX2 but **not** FMA over a 4 x 8 tile:
/// wider registers, the same separate multiply and add, hence the same
/// bits as the portable instance.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn macro_kernel_avx2(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    macro_kernel::<NR_AVX2>(m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// One compiled instance of the packed loop nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Instance {
    /// [`macro_kernel_avx512`], 4 x 16.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// [`macro_kernel_avx2`], 4 x 8.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The build's baseline instruction set (SSE2 on x86-64), 4 x 8.
    Portable,
}

impl Instance {
    /// Every instance compiled for this target, widest first: the order
    /// [`gemm_blocked`] tries them in.
    #[cfg(target_arch = "x86_64")]
    const ALL: [Instance; 3] = [Instance::Avx512, Instance::Avx2, Instance::Portable];
    #[cfg(not(target_arch = "x86_64"))]
    const ALL: [Instance; 1] = [Instance::Portable];

    /// Whether this CPU has the instance's target feature.
    fn runs_here(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Instance::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Instance::Avx2 => is_x86_feature_detected!("avx2"),
            Instance::Portable => true,
        }
    }

    /// The widest instance this CPU runs.
    fn widest() -> Instance {
        Instance::ALL
            .into_iter()
            .find(|i| i.runs_here())
            .expect("the portable instance runs anywhere")
    }

    /// Runs this instance's [`macro_kernel`]. Panics if the CPU lacks the
    /// instance's target feature.
    #[allow(clippy::too_many_arguments)]
    fn run(
        self,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        c: &mut [f64],
        ldc: usize,
    ) {
        assert!(
            self.runs_here(),
            "{self:?} GEMM instance on a CPU without it"
        );
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the only requirement of a `#[target_feature]` function
            // is that the CPU supports the feature; `runs_here` detected
            // `avx512f` in the assert above.
            Instance::Avx512 => unsafe {
                macro_kernel_avx512(m, n, k, alpha, a, lda, b, ldb, c, ldc)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above; `runs_here` detected `avx2`.
            Instance::Avx2 => unsafe { macro_kernel_avx2(m, n, k, alpha, a, lda, b, ldb, c, ldc) },
            Instance::Portable => macro_kernel::<NR_AVX2>(m, n, k, alpha, a, lda, b, ldb, c, ldc),
        }
    }
}

/// Packed, register-tiled serial GEMM. `C = alpha*A*B + beta*C`.
///
/// Bit-for-bit the result of the unpacked loop `c *= beta; for l { c +=
/// (alpha*a[i][l]) * b[l][j] }` (the micro-kernel loads the `C` tile into
/// its accumulators and never fuses the multiply with the add), so the
/// result does not depend on tile sizes, on the instruction set picked at
/// run time (AVX-512F, else AVX2, else the baseline), or on how a caller
/// splits `k` or the rows of `C` across calls.
#[allow(clippy::too_many_arguments)]
pub fn gemm_blocked(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    gemm_blocked_on(
        Instance::widest(),
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        beta,
        c,
        ldc,
    );
}

/// [`gemm_blocked`] on the given instance.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked_on(
    instance: Instance,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    check_dims(m, n, k, a, lda, b, ldb, c, ldc);
    if m == 0 || n == 0 {
        return;
    }
    // Apply beta once up front, then accumulate alpha*A*B.
    if beta != 1.0 {
        for i in 0..m {
            for x in &mut c[i * ldc..i * ldc + n] {
                *x *= beta;
            }
        }
    }
    if k == 0 || alpha == 0.0 {
        return;
    }
    instance.run(m, n, k, alpha, a, lda, b, ldb, c, ldc);
}

/// Below this many multiply-adds handing bands to the kernel pool (a
/// worker wake-up and a join) costs more than it saves.
const PARALLEL_MIN_WORK: usize = 128 * 128 * 128;

/// Parallel GEMM: `C` is split into one contiguous `MR`-aligned band of
/// rows per hardware thread and each band runs [`gemm_blocked`], so the
/// result is bit-identical to the serial kernel. `C = alpha*A*B + beta*C`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_parallel(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    check_dims(m, n, k, a, lda, b, ldb, c, ldc);
    if m == 0 || n == 0 {
        return;
    }
    // Small problems are not worth the pool's hand-off. Checked before
    // the thread count is asked for: tiny calls dominate the service and
    // test paths, and the first lookup reads cgroup files.
    if m * n * k < PARALLEL_MIN_WORK {
        return gemm_blocked(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
    }
    let band = m
        .div_ceil(rayon::current_num_threads())
        .next_multiple_of(MR);
    // Trim C so the last chunk ends exactly at the final row's data; then
    // every `band * ldc`-sized chunk is one band (the final one may be
    // shorter but still holds its rows' payload).
    let c = &mut c[..(m - 1) * ldc + n];
    c.par_chunks_mut(band * ldc)
        .enumerate()
        .for_each(|(i, cband)| {
            let r0 = i * band;
            let rows = band.min(m - r0);
            gemm_blocked(
                rows,
                n,
                k,
                alpha,
                &a[r0 * lda..],
                lda,
                b,
                ldb,
                beta,
                cband,
                ldc,
            );
        });
}

#[cfg(test)]
#[allow(clippy::identity_op, clippy::erasing_op)] // spelled-out row*ld + col indexing
mod tests {
    use super::*;
    use crate::{deterministic_matrix, gemm_tolerance, random_matrix, DenseMatrix};

    /// Reference multiply on whole matrices.
    fn mul_ref(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut c = DenseMatrix::zeros(a.rows(), b.cols());
        gemm_naive(
            a.rows(),
            b.cols(),
            a.cols(),
            1.0,
            a.as_slice(),
            a.cols(),
            b.as_slice(),
            b.cols(),
            0.0,
            c.as_mut_slice(),
            b.cols(),
        );
        c
    }

    fn run_kernel(kernel: GemmKernel, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut c = DenseMatrix::zeros(a.rows(), b.cols());
        kernel.run(
            a.rows(),
            b.cols(),
            a.cols(),
            1.0,
            a.as_slice(),
            a.cols(),
            b.as_slice(),
            b.cols(),
            0.0,
            c.as_mut_slice(),
            b.cols(),
        );
        c
    }

    #[test]
    fn observed_run_reports_shape_and_matches_plain_run() {
        use std::cell::RefCell;
        struct Probe(RefCell<Vec<(usize, usize, usize, u64)>>);
        impl GemmObserver for Probe {
            fn on_gemm(&self, m: usize, n: usize, k: usize, elapsed_ns: u64) {
                self.0.borrow_mut().push((m, n, k, elapsed_ns));
            }
        }
        let a = deterministic_matrix(9, 11);
        let b = deterministic_matrix(11, 7);
        let expected = mul_ref(&a, &b);
        let probe = Probe(RefCell::new(Vec::new()));
        let mut c = DenseMatrix::zeros(9, 7);
        GemmKernel::Blocked.run_observed(
            9,
            7,
            11,
            1.0,
            a.as_slice(),
            11,
            b.as_slice(),
            7,
            0.0,
            c.as_mut_slice(),
            7,
            Some(&probe),
        );
        assert!(crate::approx_eq(&c, &expected, 1e-12));
        let calls = probe.0.borrow();
        assert_eq!(calls.len(), 1);
        assert_eq!((calls[0].0, calls[0].1, calls[0].2), (9, 7, 11));
        // Without an observer, run_observed is plain run.
        let mut c2 = DenseMatrix::zeros(9, 7);
        GemmKernel::Blocked.run_observed(
            9,
            7,
            11,
            1.0,
            a.as_slice(),
            11,
            b.as_slice(),
            7,
            0.0,
            c2.as_mut_slice(),
            7,
            None,
        );
        assert!(crate::approx_eq(&c2, &expected, 1e-12));
    }

    #[test]
    fn identity_is_neutral_for_all_kernels() {
        let a = deterministic_matrix(17, 17);
        let id = DenseMatrix::identity(17);
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked, GemmKernel::Parallel] {
            let c = run_kernel(kernel, &a, &id);
            assert!(crate::approx_eq(&c, &a, 1e-12), "kernel {kernel:?}");
        }
    }

    #[test]
    fn blocked_matches_naive_on_awkward_sizes() {
        // Sizes straddling the register tile and the packed-panel heights
        // (the bit-identity suite below covers every edge exactly).
        for (m, n, k) in [
            (1, 1, 1),
            (3, 5, 7),
            (64, 64, 64),
            (65, 63, 257),
            (130, 70, 300),
        ] {
            let a = random_matrix(m, k, 42);
            let b = random_matrix(k, n, 43);
            let c1 = mul_ref(&a, &b);
            let c2 = run_kernel(GemmKernel::Blocked, &a, &b);
            assert!(
                crate::approx_eq(&c1, &c2, gemm_tolerance(k) * 100.0),
                "mismatch at {m}x{n}x{k}: {}",
                crate::max_abs_diff(&c1, &c2)
            );
        }
    }

    #[test]
    fn parallel_matches_naive() {
        let a = random_matrix(90, 110, 7);
        let b = random_matrix(110, 75, 8);
        let c1 = mul_ref(&a, &b);
        let c2 = run_kernel(GemmKernel::Parallel, &a, &b);
        assert!(crate::approx_eq(&c1, &c2, gemm_tolerance(110) * 100.0));
    }

    #[test]
    fn beta_accumulates_existing_c() {
        let a = random_matrix(10, 10, 1);
        let b = random_matrix(10, 10, 2);
        let mut c = random_matrix(10, 10, 3);
        let c0 = c.clone();
        let prod = mul_ref(&a, &b);
        gemm_blocked(
            10,
            10,
            10,
            2.0,
            a.as_slice(),
            10,
            b.as_slice(),
            10,
            0.5,
            c.as_mut_slice(),
            10,
        );
        for i in 0..10 {
            for j in 0..10 {
                let want = 2.0 * prod.get(i, j) + 0.5 * c0.get(i, j);
                assert!((c.get(i, j) - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn strided_submatrix_multiply() {
        // Multiply the 3x4 window of A at (1,2) by the 4x2 window of B at
        // (0,1), writing into a 3x2 window of C at (2,3).
        let a = random_matrix(8, 8, 10);
        let b = random_matrix(8, 8, 11);
        let mut c = DenseMatrix::zeros(8, 8);
        let (m, n, k) = (3, 2, 4);
        gemm_blocked(
            m,
            n,
            k,
            1.0,
            &a.as_slice()[1 * 8 + 2..],
            8,
            &b.as_slice()[0 * 8 + 1..],
            8,
            0.0,
            &mut c.as_mut_slice()[2 * 8 + 3..],
            8,
        );
        let want = mul_ref(&a.submatrix(1, 2, m, k), &b.submatrix(0, 1, k, n));
        assert!(crate::approx_eq(&c.submatrix(2, 3, m, n), &want, 1e-10));
        // Outside the window C stays zero.
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(7, 7), 0.0);
        assert_eq!(c.get(2, 2), 0.0);
    }

    #[test]
    fn zero_k_scales_c_by_beta_only() {
        let mut c = DenseMatrix::from_fn(3, 3, |_, _| 4.0);
        gemm_blocked(3, 3, 0, 1.0, &[], 1, &[], 3, 0.25, c.as_mut_slice(), 3);
        assert!(c.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn zero_m_or_n_is_noop() {
        let mut c = vec![9.0; 4];
        gemm_blocked(0, 2, 2, 1.0, &[1.0; 4], 2, &[1.0; 4], 2, 0.0, &mut c, 2);
        gemm_parallel(2, 0, 2, 1.0, &[1.0; 4], 2, &[1.0; 4], 2, 0.0, &mut c, 2);
        assert_eq!(c, vec![9.0; 4]);
    }

    #[test]
    #[should_panic(expected = "A buffer too short")]
    fn rejects_short_a_buffer() {
        let mut c = vec![0.0; 4];
        gemm_naive(2, 2, 2, 1.0, &[1.0; 3], 2, &[1.0; 4], 2, 0.0, &mut c, 2);
    }

    #[test]
    fn alpha_zero_only_applies_beta() {
        let a = random_matrix(5, 5, 20);
        let b = random_matrix(5, 5, 21);
        let mut c = DenseMatrix::from_fn(5, 5, |i, j| (i + j) as f64);
        let expect = {
            let mut e = c.clone();
            e.scale(3.0);
            e
        };
        gemm_blocked(
            5,
            5,
            5,
            0.0,
            a.as_slice(),
            5,
            b.as_slice(),
            5,
            3.0,
            c.as_mut_slice(),
            5,
        );
        assert!(crate::approx_eq(&c, &expect, 1e-12));
    }

    #[test]
    fn gemm_telemetry_observes_kernel_invocations() {
        let metrics = summagen_metrics::RuntimeMetrics::fresh();
        let a = random_matrix(16, 16, 30);
        let b = random_matrix(16, 16, 31);
        let mut c = DenseMatrix::zeros(16, 16);
        GemmKernel::Blocked.run_observed(
            16,
            16,
            16,
            1.0,
            a.as_slice(),
            16,
            b.as_slice(),
            16,
            0.0,
            c.as_mut_slice(),
            16,
            Some(&metrics.gemm as &dyn GemmObserver),
        );
        assert_eq!(metrics.gemm.kernel_seconds.count(), 1);
        assert!(metrics.gemm.kernel_seconds.sum() > 0.0);
        // Wall-clock telemetry must not claim virtual-side ops/flops.
        assert_eq!(metrics.gemm.ops.get(), 0);
        assert_eq!(metrics.gemm.flops.get(), 0);
    }

    // ---- Bit-identity suite -------------------------------------------
    //
    // Every digest, baseline and resume identity in the repo was produced
    // by the unpacked loop below; the packed kernel must reproduce it bit
    // for bit on finite inputs.

    /// The kernel `gemm_blocked` had before packing, kept as the reference.
    #[allow(clippy::too_many_arguments)]
    fn gemm_unpacked(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
    ) {
        if beta != 1.0 {
            for i in 0..m {
                for x in &mut c[i * ldc..i * ldc + n] {
                    *x *= beta;
                }
            }
        }
        if alpha == 0.0 {
            return;
        }
        for i in 0..m {
            for l in 0..k {
                let av = alpha * a[i * lda + l];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    c[i * ldc + j] += av * b[l * ldb + j];
                }
            }
        }
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len());
        for (at, (x, y)) in got.iter().zip(want).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what}: cell {at} is {x:e}, reference {y:e}"
            );
        }
    }

    /// One way to compute `C = alpha*A*B + beta*C` that must give the
    /// reference's bits: a compiled instance called directly, or a
    /// `GemmKernel` through its run-time dispatch.
    #[derive(Debug, Clone, Copy)]
    enum Runner {
        Instance(Instance),
        Kernel(GemmKernel),
    }

    impl Runner {
        #[allow(clippy::too_many_arguments)]
        fn run(
            self,
            m: usize,
            n: usize,
            k: usize,
            alpha: f64,
            a: &[f64],
            lda: usize,
            b: &[f64],
            ldb: usize,
            beta: f64,
            c: &mut [f64],
            ldc: usize,
        ) {
            match self {
                Runner::Instance(i) => {
                    gemm_blocked_on(i, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
                }
                Runner::Kernel(kernel) => kernel.run(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc),
            }
        }
    }

    /// The instances this CPU runs; each one it lacks is named on stderr.
    fn instances_here() -> Vec<Instance> {
        Instance::ALL
            .into_iter()
            .filter(|i| {
                let here = i.runs_here();
                if !here {
                    eprintln!("skipped the {i:?} GEMM instance: this CPU lacks its feature");
                }
                here
            })
            .collect()
    }

    /// Every instance this CPU runs, then `Blocked` and `Parallel`.
    fn runners() -> Vec<Runner> {
        let mut runners: Vec<Runner> = instances_here().into_iter().map(Runner::Instance).collect();
        runners.extend([GemmKernel::Blocked, GemmKernel::Parallel].map(Runner::Kernel));
        runners
    }

    /// The register-tile width of an instance.
    fn nr(instance: Instance) -> usize {
        match instance {
            #[cfg(target_arch = "x86_64")]
            Instance::Avx512 => NR_AVX512,
            #[cfg(target_arch = "x86_64")]
            Instance::Avx2 => NR_AVX2,
            Instance::Portable => NR_AVX2,
        }
    }

    /// The widest register tile compiled for this target.
    fn widest_nr() -> usize {
        Instance::ALL
            .into_iter()
            .map(nr)
            .max()
            .expect("one instance at least")
    }

    /// Runs the reference and every runner on the same windows of randomly
    /// filled buffers (so cells between rows hold data a misread or stray
    /// write would expose) and compares whole `C` buffers.
    fn check_bits(
        m: usize,
        n: usize,
        k: usize,
        (lda, ldb, ldc): (usize, usize, usize),
        alpha: f64,
        beta: f64,
    ) {
        let a = random_matrix(m, lda, 101);
        let b = random_matrix(k, ldb, 102);
        let c0 = random_matrix(m, ldc, 103);
        let mut want = c0.clone();
        gemm_unpacked(
            m,
            n,
            k,
            alpha,
            a.as_slice(),
            lda,
            b.as_slice(),
            ldb,
            beta,
            want.as_mut_slice(),
            ldc,
        );
        for runner in runners() {
            let mut c = c0.clone();
            runner.run(
                m,
                n,
                k,
                alpha,
                a.as_slice(),
                lda,
                b.as_slice(),
                ldb,
                beta,
                c.as_mut_slice(),
                ldc,
            );
            let what =
                format!("{runner:?} {m}x{n}x{k} ld ({lda},{ldb},{ldc}) alpha {alpha} beta {beta}");
            assert_same_bits(c.as_slice(), want.as_slice(), &what);
        }
    }

    fn check_dense(m: usize, n: usize, k: usize) {
        check_bits(m, n, k, (k.max(1), n, n), 1.0, 0.0);
    }

    #[test]
    fn bits_match_reference_across_every_tile_edge() {
        // Every runner meets every instance's tile edges: NR = 15/16/17
        // reaches the AVX-512 instance, NR = 7/8/9 the other two.
        let nr_max = widest_nr();
        let ms = [1, MR - 1, MR, MR + 1, MC - 1, MC, MC + 1];
        let mut ns = vec![1, NC - 1, NC, NC + 1];
        ns.extend(
            Instance::ALL
                .into_iter()
                .flat_map(|i| [nr(i) - 1, nr(i), nr(i) + 1]),
        );
        ns.sort_unstable();
        ns.dedup();
        let ks = [0, 1, KC - 1, KC, KC + 1];
        // One dimension at a time around a base that is itself ragged for
        // every tile (m < 2*MR, n = NR + 1 of the widest), then the far
        // corner of all three at once — large enough that `Parallel` forks.
        for m in ms {
            check_dense(m, nr_max + 1, 3);
        }
        for n in ns {
            check_dense(MR + 1, n, 3);
        }
        for k in ks {
            check_dense(MR + 1, nr_max + 1, k);
        }
        check_dense(MR - 1, nr_max - 1, 1);
        check_dense(MC + 1, NC + 1, KC + 1);
        check_dense(2 * MC + MR + 1, nr_max + 3, 2 * KC + 1);
    }

    #[test]
    fn bits_match_reference_for_alpha_beta_and_strided_windows() {
        let nr = widest_nr();
        for alpha in [1.0, 2.0, -0.5] {
            for beta in [0.0, 1.0, 0.5] {
                check_bits(
                    MR + 1,
                    nr + 1,
                    KC + 1,
                    (KC + 1, nr + 1, nr + 1),
                    alpha,
                    beta,
                );
                // lda > k, ldb > n, ldc > n.
                check_bits(
                    MR + 2,
                    2 * nr + 3,
                    19,
                    (23, 2 * nr + 5, 2 * nr + 9),
                    alpha,
                    beta,
                );
            }
        }
        // A forking shape through strided windows.
        check_bits(150, 140, 130, (133, 147, 141), -0.5, 0.5);
    }

    /// The preempt/resume property at kernel level, for every runner: a
    /// `k`-prefix call followed by a `beta = 1` call on the remainder gives
    /// the reference's one call, and so does any split of the rows of `C`
    /// (what makes `Parallel`'s bands safe for every thread count).
    #[test]
    fn split_k_and_split_rows_chain_to_the_same_bits() {
        let (m, n, k) = (13, 2 * widest_nr() + 5, 2 * KC + 5);
        let a = random_matrix(m, k, 7);
        let b = random_matrix(k, n, 8);
        let c0 = random_matrix(m, n, 9);
        let (a, b) = (a.as_slice(), b.as_slice());
        let (alpha, beta) = (-0.5, 0.5);
        let mut want = c0.clone();
        gemm_unpacked(m, n, k, alpha, a, k, b, n, beta, want.as_mut_slice(), n);
        for runner in runners() {
            for cut in [1, 7, KC - 1, KC, KC + 1, k - 1] {
                let mut c = c0.clone();
                runner.run(m, n, cut, alpha, a, k, b, n, beta, c.as_mut_slice(), n);
                let (a, b) = (&a[cut..], &b[cut * n..]);
                runner.run(m, n, k - cut, alpha, a, k, b, n, 1.0, c.as_mut_slice(), n);
                let what = format!("{runner:?} k cut at {cut}");
                assert_same_bits(c.as_slice(), want.as_slice(), &what);
            }
            for cut in [1, MR - 1, MR + 1, m - 1] {
                let mut c = c0.clone();
                let (top, bottom) = c.as_mut_slice().split_at_mut(cut * n);
                runner.run(cut, n, k, alpha, a, k, b, n, beta, top, n);
                let a = &a[cut * k..];
                runner.run(m - cut, n, k, alpha, a, k, b, n, beta, bottom, n);
                let what = format!("{runner:?} row cut at {cut}");
                assert_same_bits(c.as_slice(), want.as_slice(), &what);
            }
        }
    }

    /// Every instance this CPU runs, and the dispatched `gemm_blocked`,
    /// gives the portable instance's bits on a shape that leaves every
    /// tile and cache block ragged.
    #[test]
    fn every_instance_matches_the_portable_instance() {
        let (m, n, k) = (MC + 3, 2 * widest_nr() + 5, KC + 7);
        let a = random_matrix(m, k, 11);
        let b = random_matrix(k, n, 12);
        let c0 = random_matrix(m, n, 13);
        let run = |runner: Runner| {
            let mut c = c0.clone();
            let (a, b) = (a.as_slice(), b.as_slice());
            runner.run(m, n, k, 2.0, a, k, b, n, 0.5, c.as_mut_slice(), n);
            c
        };
        let portable = run(Runner::Instance(Instance::Portable));
        for runner in runners() {
            let what = format!("{runner:?} vs Portable");
            assert_same_bits(run(runner).as_slice(), portable.as_slice(), &what);
        }
    }

    /// The one documented departure from the unpacked loop: it skipped
    /// `alpha*a == 0` terms, the packed kernel adds them like `gemm_naive`
    /// does. So a zero in `A` against a non-finite `B` now yields NaN, and
    /// a `-0.0` in `C` that only meets zero terms becomes `+0.0`.
    #[test]
    fn zero_terms_follow_gemm_naive_not_the_old_shortcut() {
        type K = fn(usize, usize, usize, f64, &[f64], usize, &[f64], usize, f64, &mut [f64], usize);
        let a = [0.0, 1.0];
        let b = [f64::INFINITY, 2.0];
        let run = |kernel: K| {
            let mut c = [0.0];
            kernel(1, 1, 2, 1.0, &a, 2, &b, 1, 1.0, &mut c, 1);
            c[0]
        };
        assert!(run(gemm_naive).is_nan());
        assert!(run(gemm_blocked).is_nan());
        assert!(run(gemm_parallel).is_nan());
        assert_eq!(run(gemm_unpacked), 2.0);

        let (a, b) = ([0.0, 0.0], [5.0, 7.0]);
        let run = |kernel: K| {
            let mut c = [-0.0];
            kernel(1, 1, 2, 1.0, &a, 2, &b, 1, 1.0, &mut c, 1);
            c[0].to_bits()
        };
        assert_eq!(run(gemm_naive), 0.0f64.to_bits());
        assert_eq!(run(gemm_blocked), 0.0f64.to_bits());
        assert_eq!(run(gemm_unpacked), (-0.0f64).to_bits());
    }

    proptest::proptest! {
        #[test]
        fn prop_bits_match_reference_on_random_windows(
            m in 1usize..40, n in 1usize..40, k in 0usize..40,
            pad_a in 0usize..4, pad_b in 0usize..4, pad_c in 0usize..4,
            scalars in 0usize..9
        ) {
            let alpha = [1.0, 2.0, -0.5][scalars % 3];
            let beta = [0.0, 1.0, 0.5][scalars / 3];
            check_bits(m, n, k, (k.max(1) + pad_a, n + pad_b, n + pad_c), alpha, beta);
        }
    }
}
