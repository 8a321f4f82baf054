//! A recorder installed as a universe's event sink keeps one span per send
//! and one per receive, on the rank that made it. What recording costs in
//! wall-clock time is `perf`'s `trace.traced_ratio`.

use summagen_comm::{Payload, SpanKind, Universe, ZeroCost};
use summagen_trace::TraceRecorder;

#[test]
fn recorder_captures_every_send_and_recv_of_a_pingpong() {
    const ITERS: u64 = 200;
    let recorder = TraceRecorder::new(2);
    Universe::new(2, ZeroCost)
        .with_event_sink(recorder.clone())
        .run(|comm| {
            for i in 0..ITERS {
                if comm.rank() == 0 {
                    comm.send(1, 0, Payload::U64(vec![i]));
                    comm.recv(1, 1);
                } else {
                    comm.recv(0, 0);
                    comm.send(0, 1, Payload::U64(vec![i]));
                }
            }
        });
    let trace = recorder.finish();
    assert_eq!(trace.dropped, 0);
    for (rank, spans) in trace.spans.iter().enumerate() {
        let sends = spans
            .iter()
            .filter(|s| matches!(s.record.kind, SpanKind::Send { .. }))
            .count() as u64;
        let recvs = spans
            .iter()
            .filter(|s| matches!(s.record.kind, SpanKind::Recv { .. }))
            .count() as u64;
        assert_eq!((sends, recvs), (ITERS, ITERS), "rank {rank}");
    }
}
