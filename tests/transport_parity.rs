//! Chaos parity across transport backends: the same seeded faults over
//! in-process channels and over loopback TCP must produce bit-identical
//! products and equivalent recovery outcomes.
//!
//! The `Transport` trait sits *below* the lossy-link machinery: wire
//! fates (drop/duplicate/reorder/delay), the stop-and-wait ARQ, and the
//! heartbeat detector all run identically over both backends, so every
//! scenario in this suite is one run per backend plus a comparison.
//! TCP-only faults (refused connects, mid-stream resets, stalled
//! sockets) additionally exercise the connection-level robustness the
//! channel backend never needs.
//!
//! Every failure message carries the backend pair and the raw
//! `SUMMAGEN_CHAOS_SEED` so a red CI log alone reproduces the cell.

use std::sync::Arc;
use std::time::Duration;

use summagen_comm::{Backend, FaultPlan, HockneyModel, LinkPlan, RuntimeMetrics};
use summagen_core::{multiply_with_recovery, ExecutionMode, RecoveryOptions, RunResult};
use summagen_matrix::{gemm_naive, max_abs_diff, random_matrix, DenseMatrix};
use summagen_partition::{Shape, ALL_FOUR_SHAPES};

const SPEEDS: [f64; 3] = [1.0, 2.0, 0.9];
const N: usize = 32;

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

/// Reproduction context for failure messages (satellite requirement:
/// chaos harnesses print the active seed and backend on failure).
fn ctx(backend: Backend) -> String {
    let seed_env = std::env::var("SUMMAGEN_CHAOS_SEED").unwrap_or_else(|_| "<unset>".into());
    format!("backend={} SUMMAGEN_CHAOS_SEED={seed_env}", backend.name())
}

/// The parity sweep's seeds, with any `SUMMAGEN_CHAOS_SEED` from the CI
/// matrix folded in.
fn parity_seeds() -> Vec<u64> {
    let mut seeds = vec![2u64, 5, 7];
    if let Ok(v) = std::env::var("SUMMAGEN_CHAOS_SEED") {
        if let Ok(s) = v.trim().parse::<u64>() {
            if !seeds.contains(&s) {
                seeds.push(s);
            }
        }
    }
    seeds
}

fn base_opts(backend: Backend) -> RecoveryOptions {
    RecoveryOptions {
        max_attempts: 4,
        retry_backoff: 0.1,
        recv_timeout: Duration::from_millis(2_000),
        backend,
        ..RecoveryOptions::default()
    }
}

/// The lossy wire of the soak, reused here at parity scale.
fn lossy_plan(seed: u64) -> LinkPlan {
    LinkPlan::seeded(seed)
        .drop_rate(120)
        .duplicate_rate(80)
        .reorder_rate(60)
        .delay_rate(40, 1e-4)
}

fn run_pair(
    shape: Shape,
    a: &DenseMatrix,
    b: &DenseMatrix,
    mk_opts: impl Fn(Backend) -> RecoveryOptions,
) -> (RunResult, RunResult) {
    let run = |backend: Backend| {
        multiply_with_recovery(
            shape,
            &SPEEDS,
            a,
            b,
            ExecutionMode::Real,
            HockneyModel::intra_node(),
            &[],
            &mk_opts(backend),
        )
        .unwrap_or_else(|e| panic!("{} [{}]: run failed: {e}", shape.name(), ctx(backend)))
    };
    (run(Backend::Channel), run(Backend::Tcp))
}

#[test]
fn fault_free_runs_are_bit_identical_across_backends() {
    // The acceptance bar of the backend abstraction: with no faults at
    // all, channels and loopback TCP produce the same product bits and
    // the same virtual makespan on every paper shape.
    let a = random_matrix(N, N, 71);
    let b = random_matrix(N, N, 72);
    let want = reference(&a, &b);
    for shape in ALL_FOUR_SHAPES {
        let (chan, tcp) = run_pair(shape, &a, &b, base_opts);
        assert_eq!(
            max_abs_diff(&chan.c, &tcp.c),
            0.0,
            "{} [{}]: backends disagree on the product bits",
            shape.name(),
            ctx(Backend::Tcp)
        );
        assert!(
            max_abs_diff(&chan.c, &want) < 1e-9,
            "{}: product wrong",
            shape.name()
        );
        assert_eq!(
            chan.exec_time.to_bits(),
            tcp.exec_time.to_bits(),
            "{} [{}]: virtual makespans diverged (chan {} vs tcp {})",
            shape.name(),
            ctx(Backend::Tcp),
            chan.exec_time,
            tcp.exec_time
        );
        assert!(chan.recovery.is_none() && tcp.recovery.is_none());
    }
}

#[test]
fn seeded_lossy_chaos_is_bit_identical_across_backends() {
    // The same seeded drop/duplicate/reorder/delay plan over both
    // backends: wire fates hash from (seed, link, seq, attempt), so the
    // retransmission schedule — and therefore the product bits and the
    // virtual makespan — must be identical.
    let a = random_matrix(N, N, 73);
    let b = random_matrix(N, N, 74);
    for &seed in &parity_seeds() {
        let (chan, tcp) = run_pair(Shape::SquareCorner, &a, &b, |backend| RecoveryOptions {
            link_plan: Some(lossy_plan(seed)),
            ..base_opts(backend)
        });
        assert_eq!(
            max_abs_diff(&chan.c, &tcp.c),
            0.0,
            "seed {seed} [{}]: lossy products diverged across backends",
            ctx(Backend::Tcp)
        );
        assert_eq!(
            chan.exec_time.to_bits(),
            tcp.exec_time.to_bits(),
            "seed {seed} [{}]: lossy makespans diverged (chan {} vs tcp {})",
            ctx(Backend::Tcp),
            chan.exec_time,
            tcp.exec_time
        );
        assert!(
            chan.recovery.is_none() && tcp.recovery.is_none(),
            "seed {seed}: wire faults alone must not trigger recovery"
        );
    }
}

#[test]
fn seeded_kill_chaos_recovers_equivalently_across_backends() {
    // Seeded rank kills: both backends must converge on the same
    // recovery story — same attempt count, same dropped devices, same
    // survivors — and a correct product.
    let a = random_matrix(N, N, 75);
    let b = random_matrix(N, N, 76);
    let want = reference(&a, &b);
    for &seed in &parity_seeds() {
        let plan = FaultPlan::seeded(seed, SPEEDS.len());
        let run = |backend: Backend| {
            multiply_with_recovery(
                Shape::OneDRectangular,
                &SPEEDS,
                &a,
                &b,
                ExecutionMode::Real,
                HockneyModel::intra_node(),
                std::slice::from_ref(&plan),
                &base_opts(backend),
            )
            .map_err(|e| e.to_string())
        };
        let chan = run(Backend::Channel);
        let tcp = run(Backend::Tcp);
        match (&chan, &tcp) {
            (Ok(c), Ok(t)) => {
                assert!(
                    max_abs_diff(&c.c, &want) < 1e-9 && max_abs_diff(&t.c, &want) < 1e-9,
                    "seed {seed} [{}]: wrong product",
                    ctx(Backend::Tcp)
                );
                let story = |r: &RunResult| {
                    r.recovery
                        .as_ref()
                        .map(|rep| {
                            (
                                rep.attempts,
                                rep.failed_devices.clone(),
                                rep.surviving_devices.clone(),
                            )
                        })
                        .unwrap_or((1, Vec::new(), vec![0, 1, 2]))
                };
                assert_eq!(
                    story(c),
                    story(t),
                    "seed {seed} [{}]: recovery stories diverged",
                    ctx(Backend::Tcp)
                );
            }
            (Err(ce), Err(te)) => assert_eq!(
                ce,
                te,
                "seed {seed} [{}]: typed errors diverged",
                ctx(Backend::Tcp)
            ),
            _ => panic!(
                "seed {seed} [{}]: one backend recovered, the other errored: chan={chan:?} tcp={tcp:?}",
                ctx(Backend::Tcp)
            ),
        }
    }
}

#[test]
fn injected_connection_reset_is_absorbed_transparently() {
    // A mid-stream reset on the 1→0 link before its second frame (that
    // link carries four frames on `SquareCorner` at this size): the
    // sender's write fails, the backend reconnects and resends, and the
    // per-link sequence cursor suppresses any duplicate — no recovery,
    // product identical to the channel run.
    let a = random_matrix(N, N, 77);
    let b = random_matrix(N, N, 78);
    let m = RuntimeMetrics::fresh();
    let metrics = Arc::clone(&m);
    let (chan, tcp) = run_pair(Shape::SquareCorner, &a, &b, move |backend| {
        RecoveryOptions {
            link_plan: Some(LinkPlan::default().reset_connection(1, 0, 1)),
            metrics: (backend == Backend::Tcp).then(|| Arc::clone(&metrics)),
            ..base_opts(backend)
        }
    });
    assert!(
        m.tcp_resets.get() >= 1,
        "[{}] the reset injector never fired",
        ctx(Backend::Tcp)
    );
    assert!(
        m.tcp_reconnects.get() >= 1,
        "[{}] the reset was not followed by a reconnect",
        ctx(Backend::Tcp)
    );
    assert_eq!(
        max_abs_diff(&chan.c, &tcp.c),
        0.0,
        "[{}] reset-and-resend changed the product",
        ctx(Backend::Tcp)
    );
    assert!(
        tcp.recovery.is_none(),
        "[{}] a transparent reconnect must not surface as recovery",
        ctx(Backend::Tcp)
    );
}

#[test]
fn refused_connects_within_budget_are_retried_with_backoff() {
    // The first three dials of 0→1 are refused; the bounded-backoff
    // retry loop must absorb them and the run completes cleanly.
    let a = random_matrix(N, N, 79);
    let b = random_matrix(N, N, 80);
    let want = reference(&a, &b);
    let m = RuntimeMetrics::fresh();
    let metrics = Arc::clone(&m);
    let run = multiply_with_recovery(
        Shape::OneDRectangular,
        &SPEEDS,
        &a,
        &b,
        ExecutionMode::Real,
        HockneyModel::intra_node(),
        &[],
        &RecoveryOptions {
            link_plan: Some(LinkPlan::default().refuse_connects(0, 1, 3)),
            metrics: Some(metrics),
            ..base_opts(Backend::Tcp)
        },
    )
    .unwrap_or_else(|e| {
        panic!(
            "[{}] refusals within budget failed the run: {e}",
            ctx(Backend::Tcp)
        )
    });
    assert!(
        m.tcp_connect_retries.get() >= 3,
        "[{}] expected at least 3 dial retries, saw {}",
        ctx(Backend::Tcp),
        m.tcp_connect_retries.get()
    );
    assert!(
        run.recovery.is_none(),
        "retried dials must stay transparent"
    );
    assert!(max_abs_diff(&run.c, &want) < 1e-9);
}

#[test]
fn refusals_exhausting_the_budget_feed_shrink_and_retry() {
    // A link whose dials are *always* refused: the sender surfaces
    // `Unreachable` naming rank 1, recovery shrinks the blamed peer out
    // (replaying the same set would replay the same exhaustion), and the
    // retry over the survivors completes with a correct product —
    // connection-level failure feeds the PR-1 recovery loop instead of
    // hanging or burning the whole attempt budget.
    let a = random_matrix(N, N, 81);
    let b = random_matrix(N, N, 82);
    let want = reference(&a, &b);
    let run = multiply_with_recovery(
        Shape::OneDRectangular,
        &SPEEDS,
        &a,
        &b,
        ExecutionMode::Real,
        HockneyModel::intra_node(),
        &[],
        &RecoveryOptions {
            link_plan: Some(LinkPlan::default().refuse_connects(0, 1, u32::MAX)),
            ..base_opts(Backend::Tcp)
        },
    )
    .unwrap_or_else(|e| {
        panic!(
            "[{}] recovery from dead link failed: {e}",
            ctx(Backend::Tcp)
        )
    });
    let rep = run
        .recovery
        .expect("an unreachable peer must force a retry");
    assert!(
        rep.attempts >= 2,
        "[{}] report implies no retry: {rep:?}",
        ctx(Backend::Tcp)
    );
    assert!(
        rep.failed_devices.contains(&1),
        "[{}] the unreachable peer was not shrunk out: {rep:?}",
        ctx(Backend::Tcp)
    );
    assert!(max_abs_diff(&run.c, &want) < 1e-9);
}

#[test]
fn stalled_socket_is_ridden_out_without_correctness_loss() {
    // A 100 ms stall before the 0→1 link's second frame: well under the
    // write deadline and heartbeat suspicion threshold, so the run just
    // absorbs the latency. The stall counter proves the injector fired.
    let a = random_matrix(N, N, 83);
    let b = random_matrix(N, N, 84);
    let want = reference(&a, &b);
    let m = RuntimeMetrics::fresh();
    let metrics = Arc::clone(&m);
    let run = multiply_with_recovery(
        Shape::SquareRectangle,
        &SPEEDS,
        &a,
        &b,
        ExecutionMode::Real,
        HockneyModel::intra_node(),
        &[],
        &RecoveryOptions {
            link_plan: Some(LinkPlan::default().stall_socket(0, 1, 1, 100)),
            metrics: Some(metrics),
            ..base_opts(Backend::Tcp)
        },
    )
    .unwrap_or_else(|e| panic!("[{}] stalled socket failed the run: {e}", ctx(Backend::Tcp)));
    assert!(
        m.tcp_stalls.get() >= 1,
        "[{}] the stall injector never fired",
        ctx(Backend::Tcp)
    );
    assert!(run.recovery.is_none());
    assert!(max_abs_diff(&run.c, &want) < 1e-9);
}

#[test]
fn silent_hang_is_detected_and_recovered_on_both_backends() {
    // The soak's silent-hang scenario at parity scale: rank 2 goes
    // quiet on a lossy wire; the heartbeat watchdog must detect it on
    // either backend and shrink-and-retry must converge on the same
    // survivors with a correct product.
    let a = random_matrix(N, N, 85);
    let b = random_matrix(N, N, 86);
    let want = reference(&a, &b);
    let run = |backend: Backend| {
        multiply_with_recovery(
            Shape::SquareCorner,
            &SPEEDS,
            &a,
            &b,
            ExecutionMode::Real,
            HockneyModel::intra_node(),
            &[],
            &RecoveryOptions {
                link_plan: Some(lossy_plan(2).hang_rank(2, 2)),
                heartbeat: true,
                ..base_opts(backend)
            },
        )
        .unwrap_or_else(|e| panic!("[{}] hang recovery failed: {e}", ctx(backend)))
    };
    let chan = run(Backend::Channel);
    let tcp = run(Backend::Tcp);
    for (backend, res) in [(Backend::Channel, &chan), (Backend::Tcp, &tcp)] {
        let rep = res
            .recovery
            .as_ref()
            .unwrap_or_else(|| panic!("[{}] a hung rank must force a retry", ctx(backend)));
        assert!(
            rep.detected_failures >= 1,
            "[{}] the hang was never *detected* (announced: {})",
            ctx(backend),
            rep.announced_failures
        );
        assert!(
            rep.failed_devices.contains(&2),
            "[{}] recovery dropped {:?}, not the hung rank 2",
            ctx(backend),
            rep.failed_devices
        );
        assert!(
            max_abs_diff(&res.c, &want) < 1e-9,
            "[{}] recovered product wrong",
            ctx(backend)
        );
    }
    let chan_rep = chan.recovery.as_ref().unwrap();
    let tcp_rep = tcp.recovery.as_ref().unwrap();
    assert_eq!(
        (chan_rep.attempts, &chan_rep.failed_devices),
        (tcp_rep.attempts, &tcp_rep.failed_devices),
        "[{}] hang recovery stories diverged across backends",
        ctx(Backend::Tcp)
    );
}
