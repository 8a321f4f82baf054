//! Integration tests for the aggregate-metrics hooks: an instrumented run
//! must account every message and collective, exactly. What metering
//! costs in wall-clock time is `perf`'s `comm.pingpong_metered_ratio`.

use summagen_comm::{HockneyModel, Payload, RuntimeMetrics, Universe, ZeroCost};

#[test]
fn metrics_account_every_message_and_collective() {
    let metrics = RuntimeMetrics::fresh();
    let p = 4;
    Universe::new(p, HockneyModel::intra_node())
        .with_metrics(metrics.clone())
        .run(|mut comm| {
            let v = comm.bcast(0, Payload::U64(vec![7, 7, 7])).into_u64();
            assert_eq!(v, vec![7, 7, 7]);
            comm.try_barrier().expect("barrier");
            comm.try_gather(1, Payload::U64(vec![comm.rank() as u64]))
                .expect("gather");
        });
    // Flat bcast: p-1 sends; barrier: gather-to-0 (p-1) + bcast (p-1);
    // gather-to-1: p-1. Each send has a matching recv.
    let expected_msgs = 4 * (p as u64 - 1);
    assert_eq!(metrics.send_msgs.get(), expected_msgs);
    assert_eq!(metrics.recv_msgs.get(), expected_msgs);
    assert_eq!(metrics.send_bytes.get(), metrics.recv_bytes.get());
    assert_eq!(metrics.send_seconds.count(), expected_msgs);
    assert_eq!(metrics.recv_wait_seconds.count(), expected_msgs);
    // Every rank closes one bcast, one barrier, one gather. The barrier
    // is built on gather+bcast, so those collectives nest inside it.
    assert_eq!(metrics.bcast_ops.get(), 2 * p as u64);
    assert_eq!(metrics.gather_ops.get(), 2 * p as u64);
    assert_eq!(metrics.barrier_ops.get(), p as u64);
    // All ranks hold 3 u64 of bcast payload from the explicit bcast, plus
    // the barrier's internal (empty) bcast contributes 0 bytes.
    assert_eq!(metrics.bcast_bytes.get(), (p as u64) * 3 * 8);
    // Hockney pricing gives every send a positive virtual duration.
    assert!(metrics.send_seconds.quantile(0.5) > 0.0);
    // Nothing above comm ran, so algorithm-layer counters stay zero.
    assert_eq!(metrics.panel_steps.get(), 0);
    assert_eq!(metrics.gemm.ops.get(), 0);
}

#[test]
fn metrics_render_as_prometheus_after_a_run() {
    let metrics = RuntimeMetrics::fresh();
    Universe::new(2, ZeroCost)
        .with_metrics(metrics.clone())
        .run(|mut comm| {
            comm.bcast(0, Payload::F64(vec![1.0; 64]));
        });
    let text = metrics.render_prometheus();
    assert!(text.contains("summagen_comm_sends_total 1"), "{text}");
    assert!(
        text.contains("summagen_comm_collectives_total{op=\"bcast\"} 2"),
        "{text}"
    );
    assert!(
        text.contains("summagen_comm_recv_wait_seconds_bucket"),
        "{text}"
    );
}
