//! Stress and property tests for the message-passing runtime: randomized
//! collective schedules, overlapping subgroups, conservation invariants
//! under concurrency, and failure propagation (panics mid-collective,
//! mismatched participation) under short timeouts.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use summagen_comm::{
    BcastAlgorithm, CommError, CommResult, FailureCause, Payload, Universe, ZeroCost,
};

#[test]
fn many_interleaved_subgroups() {
    // Every pair (i, j) forms a subgroup; each performs a bcast. 6 ranks
    // -> 15 overlapping communicators active at once.
    let p = 6;
    let out = Universe::new(p, ZeroCost).run(|comm| {
        let me = comm.rank();
        let mut received = Vec::new();
        for i in 0..p {
            for j in (i + 1)..p {
                if me == i || me == j {
                    let label = (i * p + j) as u64;
                    let mut sub = comm
                        .try_subgroup(&[i, j], label)
                        .expect("valid")
                        .expect("member");
                    let v = sub.bcast(0, Payload::U64(vec![(i * 100 + j) as u64]));
                    received.push(v.into_u64()[0]);
                }
            }
        }
        received
    });
    // Each rank participates in p-1 pairs and must have received the
    // pair-specific value each time.
    for (me, vals) in out.iter().enumerate() {
        assert_eq!(vals.len(), p - 1, "rank {me}");
        for &v in vals {
            let (i, j) = ((v / 100) as usize, (v % 100) as usize);
            assert!(i == me || j == me);
        }
    }
}

#[test]
fn heavy_out_of_order_traffic() {
    // Rank 0 sends 100 tagged messages; rank 1 receives them in reverse.
    let out = Universe::new(2, ZeroCost).run(|comm| {
        if comm.rank() == 0 {
            for tag in 0..100u64 {
                comm.send(1, tag, Payload::U64(vec![tag * 7]));
            }
            0
        } else {
            let mut sum = 0;
            for tag in (0..100u64).rev() {
                sum += comm.recv(0, tag).into_u64()[0];
            }
            sum
        }
    });
    assert_eq!(out[1], 7 * (0..100).sum::<u64>());
}

#[test]
fn nested_subgroups() {
    // Subgroup of a subgroup: {0..5} -> evens {0,2,4} -> {0,4}.
    let out = Universe::new(6, ZeroCost).run(|comm| {
        let evens = [0usize, 2, 4];
        if let Some(sub) = comm.try_subgroup(&evens, 1).expect("valid") {
            // Within the even group, local ranks 0 and 2 are global 0, 4.
            if sub.rank() == 0 || sub.rank() == 2 {
                let mut inner = sub
                    .try_subgroup(&[0, 2], 2)
                    .expect("valid")
                    .expect("member");
                let v = inner.bcast(1, Payload::U64(vec![comm.rank() as u64]));
                return v.into_u64()[0] as i64;
            }
        }
        -1
    });
    // The inner bcast root (local 1 of inner = global 4) wins.
    assert_eq!(out[0], 4);
    assert_eq!(out[4], 4);
    assert_eq!(out[2], -1);
    assert_eq!(out[1], -1);
}

#[test]
fn collectives_with_empty_payloads() {
    let out = Universe::new(4, ZeroCost).run(|mut comm| {
        let b = comm.bcast(0, Payload::F64(Vec::new())).into_f64();
        let g = comm
            .try_gather(0, Payload::U64(Vec::new()))
            .expect("gather");
        comm.try_barrier().expect("barrier");
        (b.len(), g.map(|v| v.len()))
    });
    assert_eq!(out[0], (0, Some(4)));
    assert_eq!(out[1], (0, None));
}

#[test]
fn panic_mid_broadcast_propagates_to_survivors() {
    // Rank 1 panics between two collective rounds. The survivors must
    // observe `PeerFailed(1)` on the next round instead of hanging until
    // the receive timeout.
    let t0 = Instant::now();
    let failure = Universe::new(4, ZeroCost)
        .recv_timeout(Duration::from_millis(250))
        .try_run(|mut comm| -> CommResult<u64> {
            let v = comm.try_bcast(0, Payload::U64(vec![11]))?;
            if comm.rank() == 1 {
                panic!("simulated accelerator fault");
            }
            comm.try_bcast(2, Payload::U64(vec![22]))?;
            Ok(v.try_into_u64()?[0])
        })
        .expect_err("rank 1 panics");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "propagation took {:?}",
        t0.elapsed()
    );
    assert_eq!(failure.crashed_ranks(), vec![1]);
    let panicked = failure
        .failed
        .iter()
        .find(|fr| fr.rank == 1)
        .expect("rank 1 recorded");
    match &panicked.cause {
        FailureCause::Panic(msg) => assert!(msg.contains("simulated accelerator fault")),
        other => panic!("want Panic cause, got {other:?}"),
    }
    for fr in failure.failed.iter().filter(|fr| fr.rank != 1) {
        assert_eq!(
            fr.cause,
            FailureCause::Error(CommError::PeerFailed { rank: 1 }),
            "rank {} saw the wrong error",
            fr.rank
        );
    }
}

#[test]
fn mismatched_collective_participation_times_out_cleanly() {
    // Rank 2 skips the broadcast every other rank joins: the root's
    // message to rank 2 is never consumed and ranks waiting on rank 2's
    // participation in the follow-up gather starve. With a millisecond
    // timeout this resolves as typed `Timeout`s, not a 60 s hang.
    let t0 = Instant::now();
    let failure = Universe::new(3, ZeroCost)
        .recv_timeout(Duration::from_millis(200))
        .try_run(|mut comm| -> CommResult<()> {
            if comm.rank() != 2 {
                comm.try_bcast(0, Payload::U64(vec![5]))?;
                comm.try_gather(0, Payload::U64(vec![comm.rank() as u64]))?;
            }
            Ok(())
        })
        .expect_err("the gather can never complete without rank 2");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "deadlock took {:?} to detect",
        t0.elapsed()
    );
    // Nobody crashed — the failure is pure starvation, so a recovery
    // policy must not evict anyone.
    assert!(failure.crashed_ranks().is_empty());
    let timed_out = failure
        .failed
        .iter()
        .filter(|fr| matches!(fr.cause, FailureCause::Error(CommError::Timeout { .. })))
        .count();
    assert!(timed_out >= 1, "at least one rank must report Timeout");
}

#[test]
fn send_to_dead_rank_fails_fast() {
    // After rank 1 dies, sends towards it must fail immediately with a
    // typed error instead of queueing into the void.
    let failure = Universe::new(2, ZeroCost)
        .recv_timeout(Duration::from_millis(250))
        .try_run(|comm| -> CommResult<()> {
            if comm.rank() == 1 {
                panic!("rank 1 dies before receiving");
            }
            // Rank 0: keep sending until the death notice lands, then
            // verify the error names the dead peer.
            for i in 0..1000u64 {
                if let Err(e) = comm.try_send(1, 0, Payload::U64(vec![i])) {
                    match e {
                        CommError::PeerFailed { rank } | CommError::ChannelClosed { rank } => {
                            assert_eq!(rank, 1);
                            return Err(e);
                        }
                        other => panic!("unexpected error {other}"),
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("send to dead rank never failed");
        })
        .expect_err("both ranks end abnormally");
    assert_eq!(failure.crashed_ranks(), vec![1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random collective schedules: any sequence of (bcast root, algo,
    /// payload size) pairs produces the root's payload everywhere and
    /// conserves bytes.
    #[test]
    fn random_bcast_schedules(
        p in 2usize..7,
        schedule in proptest::collection::vec((0usize..7, 0usize..2, 0usize..500), 1..12),
    ) {
        let out = Universe::new(p, ZeroCost).run(|mut comm| {
            let mut ok = true;
            for &(root, algo, len) in &schedule {
                let root = root % p;
                let algo = if algo == 0 {
                    BcastAlgorithm::Flat
                } else {
                    BcastAlgorithm::Binomial
                };
                let payload = Payload::F64(vec![root as f64; len]);
                let got = comm
                    .try_bcast_with(root, payload, algo)
                    .expect("bcast")
                    .into_f64();
                ok &= got.len() == len && got.iter().all(|&x| x == root as f64);
            }
            (ok, comm.traffic())
        });
        prop_assert!(out.iter().all(|(ok, _)| *ok));
        let sent: u64 = out.iter().map(|(_, t)| t.bytes_sent).sum();
        let recv: u64 = out.iter().map(|(_, t)| t.bytes_recv).sum();
        prop_assert_eq!(sent, recv);
    }

    /// Ring send/recv of random payload sizes conserves content through
    /// arbitrary rotations: every rank sends right before it receives from
    /// the left, which cannot deadlock because sends are buffered.
    #[test]
    fn ring_rotation_conserves_data(
        p in 2usize..7,
        len in 0usize..200,
        rounds in 1usize..5,
    ) {
        let out = Universe::new(p, ZeroCost).run(|comm| {
            let me = comm.rank();
            let mut data: Vec<f64> = (0..len).map(|k| (me * 1000 + k) as f64).collect();
            for round in 0..rounds {
                let right = (me + 1) % p;
                let left = (me + p - 1) % p;
                comm.send(right, round as u64, Payload::F64(data));
                data = comm.recv(left, round as u64).into_f64();
            }
            data
        });
        // After `rounds` rotations, rank r holds the data that started at
        // (r - rounds) mod p... actually data moves to the right, so rank
        // r holds data from (r + p - rounds % p) % p.
        for (r, data) in out.iter().enumerate() {
            let origin = (r + p - rounds % p) % p;
            prop_assert_eq!(data.len(), len);
            for (k, &v) in data.iter().enumerate() {
                prop_assert_eq!(v, (origin * 1000 + k) as f64);
            }
        }
    }
}
