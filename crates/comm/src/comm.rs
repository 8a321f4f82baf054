//! The [`Communicator`]: ranks, point-to-point messaging, broadcast,
//! gather, barrier and sub-communicators — the subset of MPI that SummaGen
//! uses.
//!
//! Every operation has one fallible form returning [`CommResult`]. That is
//! what makes the runtime fault-tolerant: when a peer dies mid-collective
//! the survivors get `Err(CommError::PeerFailed { .. })` within
//! milliseconds (a *death notice* wakes their blocked receives) instead of
//! hanging until the receive timeout. `send`, `recv` and `bcast` also keep
//! a panicking form for the wall-clock benchmark's ping-pong and panel
//! layers.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::chan::RecvError;
use crate::clock::{ClockSnapshot, CostModel, VirtualClock};
use crate::error::{CommError, CommResult};
use crate::fault::{
    FaultState, InjectedHang, LinkPlan, LinkState, MsgAction, WireFate, MAX_WIRE_ATTEMPTS,
};
use crate::message::{Envelope, Payload};
use crate::span::{CollectiveOp, EventSink, MsgOutcome, SpanKind, SpanRecord};
use crate::sync::Mutex;
use crate::transport::Transport;
use crate::universe::HeartbeatConfig;
use summagen_metrics::RuntimeMetrics;

/// Per-rank traffic accounting, aggregated over all communicators the rank
/// participates in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Messages sent.
    pub msgs_sent: u64,
    /// Bytes sent (logical wire bytes, phantom included).
    pub bytes_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Bytes received.
    pub bytes_recv: u64,
}

/// Broadcast algorithm selection for [`Communicator::try_bcast_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BcastAlgorithm {
    /// Root sends to every rank sequentially — `p - 1` link occupations
    /// at the root.
    #[default]
    Flat,
    /// Binomial tree — `⌈log₂ p⌉` rounds, forwarding through
    /// intermediate ranks.
    Binomial,
}

/// Reserved communicator id for control (death-notice) envelopes. User
/// communicator ids are sanitized away from this value.
pub(crate) const CONTROL_COMM: u64 = u64::MAX;

/// How long a blocked receive sleeps between `link_held` flush checks
/// when lossy links are active but no heartbeat detector is installed.
/// Wall-clock only — virtual time is untouched by the polling.
const HELD_FLUSH_POLL: Duration = Duration::from_millis(10);

/// A rank's inbound message queue: the channel endpoint plus messages that
/// arrived out of matching order, plus the receiver half of the reliable
/// transport (duplicate suppression and in-order reassembly per link).
pub(crate) struct Mailbox {
    rx: crate::chan::Receiver<Envelope>,
    pending: Vec<Envelope>,
    /// Per-source cursor: the next transport sequence expected on the
    /// `(src → me)` link. Doubles as the cumulative ack a real wire
    /// protocol would piggyback back to the sender — everything below
    /// the cursor has been delivered exactly once.
    next_expected: HashMap<usize, u64>,
    /// Out-of-order packets buffered until their predecessors arrive,
    /// keyed `(src, link_seq)`.
    reassembly: BTreeMap<(usize, u64), Envelope>,
}

impl Mailbox {
    pub(crate) fn new(rx: crate::chan::Receiver<Envelope>) -> Self {
        Self {
            rx,
            pending: Vec::new(),
            next_expected: HashMap::new(),
            reassembly: BTreeMap::new(),
        }
    }

    /// Routes one inbound envelope. Control envelopes are discarded
    /// (their only job is to wake a blocked receive). Transport-stamped
    /// envelopes (`link_seq` present) pass through duplicate suppression
    /// and in-order reassembly; everything else goes straight to
    /// `pending`, preserving the classic lossless-path behavior.
    fn admit(&mut self, env: Envelope, shared: &Shared) {
        if env.comm_id == CONTROL_COMM {
            return;
        }
        let Some(seq) = env.link_seq else {
            self.pending.push(env);
            return;
        };
        let src = env.src;
        let cursor = *self.next_expected.entry(src).or_insert(0);
        match seq.cmp(&cursor) {
            std::cmp::Ordering::Less => {
                // Already delivered (a duplicate or a late retransmit of
                // an acked packet): suppress.
                if let Some(m) = &shared.metrics {
                    m.transport_dup_dropped.inc();
                }
            }
            std::cmp::Ordering::Equal => {
                self.pending.push(env);
                let mut next = seq + 1;
                // Release any in-order run the reassembly buffer holds.
                while let Some(e) = self.reassembly.remove(&(src, next)) {
                    self.pending.push(e);
                    next += 1;
                }
                self.next_expected.insert(src, next);
            }
            std::cmp::Ordering::Greater => {
                // Arrived ahead of a predecessor: hold it back.
                if self.reassembly.insert((src, seq), env).is_some() {
                    if let Some(m) = &shared.metrics {
                        m.transport_dup_dropped.inc();
                    }
                }
            }
        }
    }

    /// Moves every queued envelope into `pending` (through the transport
    /// when active).
    fn drain(&mut self, shared: &Shared) {
        while let Ok(env) = self.rx.try_recv() {
            self.admit(env, shared);
        }
    }

    /// Receiver-side safety net for reordered packets: pulls any packet
    /// held back on a link into this mailbox, so a reorder can never
    /// deadlock a receiver that is already blocked waiting for it (the
    /// usual flush — the next packet on the link overtaking it — may
    /// never come).
    fn flush_held_to(&mut self, shared: &Shared, me: usize) {
        if shared.link.is_none() {
            return;
        }
        let held: Vec<Envelope> = {
            let mut map = shared.link_held.lock();
            let mut keys: Vec<(usize, usize)> =
                map.keys().copied().filter(|&(_, d)| d == me).collect();
            keys.sort_unstable();
            keys.into_iter().filter_map(|k| map.remove(&k)).collect()
        };
        for env in held {
            self.admit(env, shared);
        }
    }

    fn take_match(&mut self, src: usize, comm_id: u64, tag: u64) -> Option<Envelope> {
        let pos = self
            .pending
            .iter()
            .position(|e| e.comm_id == comm_id && e.tag == tag && e.src == src)?;
        Some(self.pending.remove(pos))
    }

    /// Blocking receive of the first message matching `(src, comm_id,
    /// tag)`. Failure-aware: if a rank in `watch` dies while we wait,
    /// returns `PeerFailed` instead of blocking out the full timeout.
    ///
    /// The check order — match, drain, match, *then* read failure flags,
    /// then drain and match once more — closes the race where a rank's
    /// final messages are still in our channel when its death flag
    /// becomes visible: the flag store happens-after the victim's last
    /// enqueue, so one more drain after observing the flag is guaranteed
    /// to surface any matching message that beat the death.
    fn try_recv_match(
        &mut self,
        src: usize,
        comm_id: u64,
        tag: u64,
        shared: &Shared,
        watch: &[usize],
        me: usize,
    ) -> CommResult<Envelope> {
        let timeout = shared.recv_timeout;
        // Read the clock only once the receive has to block: most
        // receives (all hosted ones) match on the first pass.
        let mut deadline = None;
        loop {
            if let Some(env) = self.take_match(src, comm_id, tag) {
                return Ok(env);
            }
            self.drain(shared);
            self.flush_held_to(shared, me);
            if let Some(env) = self.take_match(src, comm_id, tag) {
                return Ok(env);
            }
            if let Some(&dead) = watch
                .iter()
                .find(|&&r| shared.failed[r].load(Ordering::SeqCst))
            {
                self.drain(shared);
                self.flush_held_to(shared, me);
                if let Some(env) = self.take_match(src, comm_id, tag) {
                    return Ok(env);
                }
                return Err(CommError::PeerFailed { rank: dead });
            }
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + timeout);
            if now >= deadline {
                return Err(CommError::Timeout {
                    src: Some(src),
                    tag,
                    waited: timeout,
                });
            }
            // With a failure detector installed, wake at heartbeat
            // cadence so a legitimately blocked receiver keeps beating
            // and is never mistaken for a hung rank. With lossy links
            // active, never sleep out the whole timeout in one go
            // either: a sender can park a reorder-fated packet in
            // `link_held` *after* our flush check above, and nothing
            // else would ever wake this receiver to pull it in — the
            // short poll closes that race instead of letting it
            // escalate into a spurious timeout-and-retry.
            let wake = match &shared.heartbeat {
                Some(hb) => deadline.min(now + hb.interval),
                None if shared.link.is_some() => deadline.min(now + HELD_FLUSH_POLL),
                None => deadline,
            };
            match self.rx.recv_deadline(wake) {
                Ok(env) => self.admit(env, shared),
                Err(RecvError::Timeout) => {
                    if Instant::now() >= deadline {
                        return Err(CommError::Timeout {
                            src: Some(src),
                            tag,
                            waited: timeout,
                        });
                    }
                    shared.beat(me);
                }
                // Our own inbox was closed: this rank has been marked dead
                // (it died) — it cannot receive anything anymore.
                Err(RecvError::Closed) => return Err(CommError::ChannelClosed { rank: me }),
            }
        }
    }
}

/// Global runtime state shared by every rank of a universe.
pub(crate) struct Shared {
    /// The wire between ranks: in-process channels by default, loopback
    /// TCP when the universe was built with `Backend::Tcp`. One
    /// `deliver` call per wire attempt; everything chaos-shaped stays
    /// above this boundary.
    pub transport: Arc<dyn Transport>,
    /// Communication cost model.
    pub cost: Arc<dyn CostModel>,
    /// Per-global-rank death flags, set by the death-notice protocol.
    pub failed: Vec<AtomicBool>,
    /// Active fault-injection state, if the universe carries a plan.
    pub fault: Option<FaultState>,
    /// How long a blocking receive waits before declaring a deadlock.
    pub recv_timeout: Duration,
    /// Structured-event sink, if the universe was built with one
    /// (`Universe::with_event_sink`). `None` keeps every hook to a single
    /// branch on the hot path.
    pub sink: Option<Arc<dyn EventSink>>,
    /// Per-global-rank send sequence counters, advanced only when a sink
    /// is installed. Each rank's counter is touched only by the one thread
    /// driving that rank (its own, or the thread hosting it), in the rank's
    /// program order, so the sequence stream is deterministic.
    pub send_seq: Vec<AtomicU64>,
    /// Aggregate metrics bundle, if the universe was built with one
    /// (`Universe::with_metrics`). Like `sink`, `None` keeps every hook
    /// to a single branch; the handles themselves are wait-free, so
    /// recording needs no per-rank ownership discipline.
    pub metrics: Option<Arc<RuntimeMetrics>>,
    /// Active lossy-link state, if the universe carries a `LinkPlan`
    /// (`Universe::with_link_plan`). Presence switches sends onto the
    /// reliable transport.
    pub link: Option<LinkState>,
    /// Per-`(src, dst)` transport sequence counters. Each counter is
    /// only advanced by the one thread driving the sending rank (its own,
    /// or the thread hosting it), so sequence streams are deterministic.
    pub link_send_seq: Mutex<HashMap<(usize, usize), u64>>,
    /// At most one reordered packet held back per directed link, put on
    /// the wire when the next packet on that link overtakes it (or
    /// pulled in by the receiver's safety net).
    pub link_held: Mutex<HashMap<(usize, usize), Envelope>>,
    /// Failure-detector timing, if the universe enabled one
    /// (`Universe::with_heartbeat`). `None` keeps every liveness hook to
    /// a single branch.
    pub heartbeat: Option<HeartbeatConfig>,
    /// Per-rank wall-clock activity stamps (nanoseconds since `epoch`),
    /// fed by every communication/compute hook; the watchdog suspects
    /// ranks whose stamp goes stale.
    pub activity: Vec<AtomicU64>,
    /// Per-rank stamp of the last *emitted* heartbeat (nanoseconds since
    /// `epoch`) — rate-limits heartbeat spans/counters to the configured
    /// interval.
    pub hb_last: Vec<AtomicU64>,
    /// Per-rank heartbeat sequence counters.
    pub hb_seq: Vec<AtomicU64>,
    /// Per-rank flags marking deaths *declared by the detector* (vs
    /// announced via the death-notice protocol).
    pub suspected: Vec<AtomicBool>,
    /// Wall-clock origin for activity/heartbeat stamps.
    pub epoch: Instant,
}

impl Shared {
    /// Marks `rank` dead and unblocks everyone who might wait on it:
    /// closes its inbox (senders fail fast) and posts a control envelope
    /// to every survivor (blocked receives wake up and re-check flags).
    /// Idempotent.
    pub(crate) fn death_notice(&self, rank: usize) {
        if self.failed[rank].swap(true, Ordering::SeqCst) {
            return;
        }
        self.transport.close(rank);
        for i in 0..self.failed.len() {
            if i != rank {
                let _ = self.transport.deliver(
                    i,
                    Envelope {
                        src: rank,
                        comm_id: CONTROL_COMM,
                        tag: 0,
                        arrival: 0.0,
                        seq: 0,
                        link_seq: None,
                        payload: Payload::U64(Vec::new()),
                    },
                );
            }
        }
    }

    /// Nanoseconds since the universe's wall-clock epoch.
    pub(crate) fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records liveness for `rank` and rate-limits heartbeat emission:
    /// returns `Some(heartbeat_seq)` when at least one heartbeat
    /// interval has passed since the last emitted beat (the caller then
    /// records a `Heartbeat` span), `None` otherwise. A no-op without a
    /// detector.
    pub(crate) fn beat(&self, rank: usize) -> Option<u64> {
        let hb = self.heartbeat.as_ref()?;
        let now = self.wall_ns();
        self.activity[rank].store(now, Ordering::Relaxed);
        // `0` doubles as "never beaten": the first op always announces
        // liveness, so even runs shorter than one interval emit beats.
        let last = self.hb_last[rank].load(Ordering::Relaxed);
        if last != 0 && now.saturating_sub(last) < hb.interval.as_nanos() as u64 {
            return None;
        }
        self.hb_last[rank].store(now.max(1), Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.heartbeats.inc();
        }
        Some(self.hb_seq[rank].fetch_add(1, Ordering::Relaxed))
    }
}

/// An MPI-like communicator over a subset of the universe's ranks.
///
/// All collective operations must be called by every member of the
/// communicator, in the same order — the same contract MPI imposes.
pub struct Communicator {
    comm_id: u64,
    rank: usize,
    group: Arc<Vec<usize>>,
    shared: Arc<Shared>,
    mailbox: Arc<Mutex<Mailbox>>,
    clock: Arc<Mutex<VirtualClock>>,
    stats: Arc<Mutex<TrafficStats>>,
    /// Sequence number for collective operations (tag disambiguation).
    coll_seq: u64,
}

/// Tags at or above this value are reserved for collectives.
const COLLECTIVE_TAG_BASE: u64 = 1 << 48;

/// The splitmix64 finalizer: deterministic child-communicator ids and
/// seeded fault-plan draws.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Child communicator ids must not collide with the control id.
fn sanitize_id(id: u64) -> u64 {
    if id == CONTROL_COMM {
        mix(id)
    } else {
        id
    }
}

impl Communicator {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        comm_id: u64,
        rank: usize,
        group: Arc<Vec<usize>>,
        shared: Arc<Shared>,
        mailbox: Arc<Mutex<Mailbox>>,
        clock: Arc<Mutex<VirtualClock>>,
        stats: Arc<Mutex<TrafficStats>>,
    ) -> Self {
        Self {
            comm_id: sanitize_id(comm_id),
            rank,
            group,
            shared,
            mailbox,
            clock,
            stats,
            coll_seq: 0,
        }
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// This rank's universe-global rank.
    pub fn global_rank(&self) -> usize {
        self.group[self.rank]
    }

    /// Current virtual time of this rank.
    pub fn now(&self) -> f64 {
        self.clock.lock().now()
    }

    /// Snapshot of this rank's clock (total / compute / communication time).
    pub fn clock_snapshot(&self) -> ClockSnapshot {
        self.clock.lock().snapshot()
    }

    /// Handle to this rank's clock, so the universe supervisor can stamp
    /// a `RankDeath` span after the rank's closure has consumed the
    /// communicator.
    pub(crate) fn clock_handle(&self) -> Arc<Mutex<VirtualClock>> {
        Arc::clone(&self.clock)
    }

    /// Snapshot of this rank's traffic counters.
    pub fn traffic(&self) -> TrafficStats {
        *self.stats.lock()
    }

    /// The configured blocking-receive timeout (see
    /// `Universe::recv_timeout`).
    pub fn recv_timeout(&self) -> Duration {
        self.shared.recv_timeout
    }

    /// Advances this rank's virtual clock by `dt` seconds of computation.
    /// SummaGen calls this with the device-model execution time of each
    /// local DGEMM. A fault plan's `slow_rank` factor is applied here.
    pub fn advance_compute(&self, dt: f64) {
        self.heartbeat_tick();
        let factor = self
            .shared
            .fault
            .as_ref()
            .map_or(1.0, |fs| fs.compute_factor(self.global_rank()));
        self.clock.lock().advance_compute(dt * factor);
    }

    /// Feeds the failure detector: stamps this rank's activity and, when
    /// a heartbeat interval has elapsed, emits a zero-duration
    /// `Heartbeat` span. A single branch without a detector.
    fn heartbeat_tick(&self) {
        if let Some(seq) = self.shared.beat(self.global_rank()) {
            if let Some(sink) = &self.shared.sink {
                let now = self.clock.lock().now();
                sink.record(SpanRecord {
                    rank: self.global_rank(),
                    start: now,
                    end: now,
                    kind: SpanKind::Heartbeat { seq },
                });
            }
        }
    }

    /// Silent-hang injection: if the link plan hangs this rank at this
    /// op, park *without* posting a death notice until the failure
    /// detector marks us dead, then unwind with an [`InjectedHang`]
    /// payload carrying the measured detection latency. A bail-out
    /// slightly past the receive timeout bounds the park when no
    /// detector is installed, so the universe always joins.
    fn maybe_hang(&self) {
        let Some(link) = &self.shared.link else {
            return;
        };
        let me = self.global_rank();
        let Some(op) = link.check_hang(me) else {
            return;
        };
        let t0 = Instant::now();
        let bail = self.shared.recv_timeout + Duration::from_secs(2);
        while !self.shared.failed[me].load(Ordering::SeqCst) && t0.elapsed() < bail {
            std::thread::sleep(Duration::from_millis(2));
        }
        std::panic::panic_any(InjectedHang {
            rank: me,
            op,
            silent_secs: t0.elapsed().as_secs_f64(),
        });
    }

    /// The `(elem, delta)` local-block corruptions the fault plan
    /// schedules against this rank just before panel step `step`. The
    /// executor applies them to its `C` accumulator between panel steps —
    /// the comm layer cannot reach a rank's local memory, so delivery is
    /// split: the plan describes, the executor injects. Empty without a
    /// fault plan.
    pub fn block_corruptions(&self, step: u64) -> Vec<(u64, f64)> {
        self.shared.fault.as_ref().map_or_else(Vec::new, |fs| {
            fs.block_corruptions(self.global_rank(), step)
        })
    }

    /// Point-to-point send. Blocking semantics are "buffered": the call
    /// advances the sender's clock by the full transfer time (the link is
    /// occupied), enqueues the message, and returns.
    ///
    /// # Panics
    /// Panics if the destination has failed; use [`Communicator::try_send`]
    /// to handle that case.
    pub fn send(&self, dst: usize, tag: u64, payload: Payload) {
        self.try_send(dst, tag, payload)
            .unwrap_or_else(|e| panic!("send to rank {dst} failed: {e}"));
    }

    /// Fallible point-to-point send. Returns `PeerFailed`/`ChannelClosed`
    /// if the destination rank has died.
    pub fn try_send(&self, dst: usize, tag: u64, payload: Payload) -> CommResult<()> {
        assert!(dst < self.size(), "send dst {dst} out of range");
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag} reserved for collectives"
        );
        self.try_send_internal(dst, tag, payload)
    }

    fn try_send_internal(&self, dst: usize, tag: u64, payload: Payload) -> CommResult<()> {
        self.heartbeat_tick();
        if let Some(fs) = &self.shared.fault {
            fs.before_op(self.global_rank());
        }
        self.maybe_hang();
        let dst_global = self.group[dst];
        let bytes = payload.bytes();
        let cost = self
            .shared
            .cost
            .transfer_time_between(self.global_rank(), dst_global, bytes);
        let (start, arrival) = {
            let mut clock = self.clock.lock();
            let start = clock.now();
            clock.advance_comm(cost);
            (start, clock.now())
        };
        {
            let mut s = self.stats.lock();
            s.msgs_sent += 1;
            s.bytes_sent += bytes as u64;
        }
        if let Some(m) = &self.shared.metrics {
            m.send_msgs.inc();
            m.send_bytes.add(bytes as u64);
            m.send_seconds.observe(arrival - start);
        }
        let action = self.shared.fault.as_ref().map_or(MsgAction::Deliver, |fs| {
            fs.on_message(self.global_rank(), dst_global)
        });
        let seq = match &self.shared.sink {
            Some(_) => self.shared.send_seq[self.global_rank()].fetch_add(1, Ordering::Relaxed),
            None => 0,
        };
        if let Some(sink) = &self.shared.sink {
            let outcome = match action {
                MsgAction::Deliver => MsgOutcome::Delivered,
                MsgAction::Drop => MsgOutcome::Dropped,
                MsgAction::Delay(_) => MsgOutcome::Delayed,
                MsgAction::Corrupt { .. } => MsgOutcome::Corrupted,
            };
            sink.record(SpanRecord {
                rank: self.global_rank(),
                start,
                end: arrival,
                kind: SpanKind::Send {
                    dst: dst_global,
                    tag,
                    bytes: bytes as u64,
                    seq,
                    outcome,
                },
            });
        }
        let mut payload = payload;
        let extra = match action {
            // A dropped message costs the sender the same as a delivered
            // one (the NIC pushed the bytes); it just never arrives.
            MsgAction::Drop => return Ok(()),
            MsgAction::Delay(secs) => secs,
            MsgAction::Deliver => 0.0,
            MsgAction::Corrupt { elem, delta } => {
                // Silent wire corruption: perturb one element of a numeric
                // payload on its way out. Control/phantom traffic is left
                // intact — corruption models flipped data bits, not a
                // broken protocol.
                // A shared buffer is copied first (`make_mut`), so only
                // this destination sees the flip — the sender and its other
                // children keep the intact panel.
                let data = match &mut payload {
                    Payload::F64(data) => Some(data),
                    Payload::SharedF64(data) => Some(Arc::make_mut(data)),
                    _ => None,
                };
                if let Some(data) = data.filter(|d| !d.is_empty()) {
                    let i = (elem % data.len() as u64) as usize;
                    data[i] += delta;
                }
                0.0
            }
        };
        if self.shared.failed[dst_global].load(Ordering::SeqCst) {
            return Err(CommError::PeerFailed { rank: dst_global });
        }
        let Some(link) = &self.shared.link else {
            // Reliable-link path: one wire attempt, always delivered. Kept
            // bit-identical to the pre-transport behaviour so cost-model
            // pins (and every existing makespan) are unchanged.
            let env = Envelope {
                src: self.global_rank(),
                comm_id: self.comm_id,
                tag,
                arrival: arrival + extra,
                seq,
                link_seq: None,
                payload,
            };
            return self.shared.transport.deliver(dst_global, env);
        };
        // Lossy-link path: simulated stop-and-wait ARQ on the virtual
        // clock. Each wire attempt consults the seeded LinkPlan; a lost
        // packet costs the sender one retransmission timeout plus the
        // transfer time of the resend, so retransmits show up in
        // makespans deterministically.
        let me = self.global_rank();
        let plan = link.plan.clone();
        let link_seq = {
            let mut seqs = self.shared.link_send_seq.lock();
            let ctr = seqs.entry((me, dst_global)).or_insert(0);
            let s = *ctr;
            *ctr += 1;
            s
        };
        // A packet parked by an earlier Reorder fate is released after this
        // one ships: the newer packet genuinely overtakes it on the wire.
        let overtaken = self.shared.link_held.lock().remove(&(me, dst_global));
        let mut payload = Some(payload);
        let mut delivered = false;
        for attempt in 0..MAX_WIRE_ATTEMPTS {
            match plan.wire_fate(me, dst_global, link_seq, attempt) {
                WireFate::Drop => {
                    // Lost on the wire: wait out the retransmission timeout,
                    // then pay for pushing the bytes again.
                    let (t0, t1) = {
                        let mut clock = self.clock.lock();
                        let t0 = clock.now();
                        clock.advance_comm(LinkPlan::rto(attempt) + cost);
                        (t0, clock.now())
                    };
                    if let Some(m) = &self.shared.metrics {
                        m.transport_retransmits.inc();
                    }
                    if let Some(sink) = &self.shared.sink {
                        sink.record(SpanRecord {
                            rank: me,
                            start: t0,
                            end: t1,
                            kind: SpanKind::Retransmit {
                                dst: dst_global,
                                tag,
                                seq: link_seq,
                                attempt: attempt + 1,
                            },
                        });
                    }
                }
                fate => {
                    let delay = match fate {
                        WireFate::Delay(secs) => secs,
                        _ => 0.0,
                    };
                    let arrival = self.clock.lock().now() + extra + delay;
                    let body = payload.take().expect("payload consumed once");
                    if matches!(fate, WireFate::Duplicate) {
                        // The network duplicated the packet: both copies
                        // reach the receiver, which drops the second by
                        // its link_seq cursor.
                        if let Some(m) = &self.shared.metrics {
                            m.transport_duplicates.inc();
                        }
                        let copy = Envelope {
                            src: me,
                            comm_id: self.comm_id,
                            tag,
                            arrival,
                            seq,
                            link_seq: Some(link_seq),
                            payload: body.clone(),
                        };
                        self.shared.transport.deliver(dst_global, copy)?;
                    }
                    let env = Envelope {
                        src: me,
                        comm_id: self.comm_id,
                        tag,
                        arrival,
                        seq,
                        link_seq: Some(link_seq),
                        payload: body,
                    };
                    if matches!(fate, WireFate::Reorder) {
                        // Park this packet; it is released (overtaken) when
                        // the next packet on this link ships, or flushed by
                        // the receiver's safety net.
                        self.shared.link_held.lock().insert((me, dst_global), env);
                    } else {
                        self.shared.transport.deliver(dst_global, env)?;
                    }
                    if let Some(m) = &self.shared.metrics {
                        m.transport_delivered.inc();
                    }
                    delivered = true;
                }
            }
            if delivered {
                break;
            }
        }
        if let Some(env) = overtaken {
            self.shared.transport.deliver(dst_global, env)?;
        }
        if delivered {
            Ok(())
        } else {
            Err(CommError::Unreachable {
                rank: dst_global,
                attempts: MAX_WIRE_ATTEMPTS,
            })
        }
    }

    /// Point-to-point receive, matching on `(src, tag)` within this
    /// communicator. Advances the receiver's clock to the message's arrival
    /// time (waiting counts as communication time).
    ///
    /// # Panics
    /// Panics on timeout or if the source rank has failed; use
    /// [`Communicator::try_recv`] to handle those cases.
    pub fn recv(&self, src: usize, tag: u64) -> Payload {
        self.try_recv(src, tag).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible point-to-point receive: `Err(PeerFailed)` if `src` dies
    /// while we wait, `Err(Timeout)` if nothing matches within the
    /// configured receive timeout.
    pub fn try_recv(&self, src: usize, tag: u64) -> CommResult<Payload> {
        assert!(src < self.size(), "recv src {src} out of range");
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag} reserved for collectives"
        );
        self.try_recv_internal(src, tag)
    }

    fn try_recv_internal(&self, src: usize, tag: u64) -> CommResult<Payload> {
        self.heartbeat_tick();
        if let Some(fs) = &self.shared.fault {
            fs.before_op(self.global_rank());
        }
        self.maybe_hang();
        let src_global = self.group[src];
        let env = self.mailbox.lock().try_recv_match(
            src_global,
            self.comm_id,
            tag,
            &self.shared,
            &[src_global],
            self.global_rank(),
        )?;
        let (start, end) = {
            let mut clock = self.clock.lock();
            let start = clock.now();
            clock.wait_until(env.arrival);
            (start, clock.now())
        };
        {
            let mut s = self.stats.lock();
            s.msgs_recv += 1;
            s.bytes_recv += env.payload.bytes() as u64;
        }
        if let Some(m) = &self.shared.metrics {
            m.recv_msgs.inc();
            m.recv_bytes.add(env.payload.bytes() as u64);
            m.recv_wait_seconds.observe(end - start);
        }
        if let Some(sink) = &self.shared.sink {
            sink.record(SpanRecord {
                rank: self.global_rank(),
                start,
                end,
                kind: SpanKind::Recv {
                    src: src_global,
                    tag,
                    bytes: env.payload.bytes() as u64,
                    seq: env.seq,
                },
            });
        }
        Ok(env.payload)
    }

    /// Whether the universe was built with an event sink
    /// (`Universe::with_event_sink`). Layers above comm gate their own
    /// span bookkeeping on this so an untraced run skips even the
    /// clock reads needed to timestamp a span.
    pub fn tracing_enabled(&self) -> bool {
        self.shared.sink.is_some()
    }

    /// The universe's aggregate-metrics bundle, if one was installed
    /// (`Universe::with_metrics`). Layers above comm record their own
    /// counters and histograms through this — the same pattern as
    /// [`Communicator::emit`] for spans, without a metrics-crate
    /// dependency cycle.
    pub fn metrics(&self) -> Option<&Arc<RuntimeMetrics>> {
        self.shared.metrics.as_ref()
    }

    /// Delivers a span to the universe's event sink, if one is installed.
    /// This is how the algorithm layers (stages, GEMM wrappers) report
    /// events without depending on the trace crate. Call only from the
    /// thread driving this rank — its own, or the one hosting it under
    /// `Universe::host` — so that the sink keeps one producer per rank at a
    /// time (a `Communicator` is not reachable from anywhere else anyway).
    pub fn emit(&self, start: f64, end: f64, kind: SpanKind) {
        if let Some(sink) = &self.shared.sink {
            sink.record(SpanRecord {
                rank: self.global_rank(),
                start,
                end,
                kind,
            });
        }
    }

    /// Runs a collective body and, when observed, encloses it in a
    /// `Collective` span (sink) and/or records its per-participant
    /// duration (metrics). Both fire only on success — a failed
    /// collective leaves its partial sends/recvs as leaf evidence instead.
    fn with_collective_span<T>(
        &mut self,
        op: CollectiveOp,
        root: usize,
        body: impl FnOnce(&mut Self) -> CommResult<T>,
    ) -> CommResult<T> {
        if self.shared.sink.is_none() && self.shared.metrics.is_none() {
            return body(self);
        }
        let start = self.clock.lock().now();
        let out = body(self)?;
        let end = self.clock.lock().now();
        if self.shared.sink.is_some() {
            self.emit(
                start,
                end,
                SpanKind::Collective {
                    op,
                    root,
                    comm_size: self.size(),
                },
            );
        }
        if let Some(m) = &self.shared.metrics {
            if let Some((ops, seconds)) = m.collective(op.label()) {
                ops.inc();
                seconds.observe(end - start);
            }
        }
        Ok(out)
    }

    fn next_coll_tag(&mut self) -> u64 {
        let tag = COLLECTIVE_TAG_BASE + self.coll_seq;
        self.coll_seq += 1;
        tag
    }

    /// Broadcast from `root` to all ranks (flat linear tree, which is how
    /// MPI implementations behave for the paper's 3-rank communicators).
    /// Every rank passes its payload; non-roots' inputs are ignored and the
    /// root's payload is returned on every rank.
    ///
    /// # Panics
    /// Panics if a member has failed or the receive times out; use
    /// [`Communicator::try_bcast`] to handle those cases.
    pub fn bcast(&mut self, root: usize, payload: Payload) -> Payload {
        self.try_bcast(root, payload)
            .unwrap_or_else(|e| panic!("bcast from root {root} failed: {e}"))
    }

    /// Fallible [`Communicator::bcast`].
    pub fn try_bcast(&mut self, root: usize, payload: Payload) -> CommResult<Payload> {
        self.try_bcast_with(root, payload, BcastAlgorithm::Flat)
    }

    /// Broadcast with an explicit algorithm. `Flat` has the root send
    /// `p - 1` messages sequentially (latency `O(p)` at the root);
    /// `Binomial` forwards along a binomial tree (`O(log p)` rounds), the
    /// usual MPI choice for larger communicators. Results are identical;
    /// only the virtual-time profile differs.
    ///
    /// A rank with children sends one buffer to all of them: an owned
    /// `Payload::F64` is wrapped once as `Payload::SharedF64`, so a child
    /// costs a reference count, not a copy, and that rank (the root
    /// included) gets the shared payload back. `Payload::into_f64` hands
    /// over the buffer without a copy once the caller is its last holder
    /// — on TCP, as soon as the sends have returned.
    ///
    /// On failure the collective is *not* transactional: some ranks may
    /// already hold the payload while others got an error — the caller
    /// must treat the whole attempt as void (re-partition and retry, as
    /// `multiply_with_recovery` does).
    pub fn try_bcast_with(
        &mut self,
        root: usize,
        payload: Payload,
        algo: BcastAlgorithm,
    ) -> CommResult<Payload> {
        assert!(root < self.size(), "bcast root {root} out of range");
        let tag = self.next_coll_tag();
        let out = self.with_collective_span(CollectiveOp::Bcast, root, |comm| {
            let p = comm.size();
            if p == 1 {
                return Ok(payload);
            }
            match algo {
                BcastAlgorithm::Flat => {
                    if comm.rank == root {
                        let payload = payload.into_shared();
                        for dst in 0..p {
                            if dst != root {
                                comm.try_send_internal(dst, tag, payload.clone())?;
                            }
                        }
                        Ok(payload)
                    } else {
                        comm.try_recv_internal(root, tag)
                    }
                }
                BcastAlgorithm::Binomial => {
                    // Work in rank space relative to the root. The tree:
                    // parent(rel) clears rel's lowest set bit; node rel's
                    // children are rel + b for b = 1, 2, 4, … below rel's
                    // lowest set bit (all bits for the root).
                    let rel = (comm.rank + p - root) % p;
                    let data = if rel == 0 {
                        payload
                    } else {
                        let parent_rel = rel & (rel - 1);
                        let parent = (parent_rel + root) % p;
                        comm.try_recv_internal(parent, tag)?
                    };
                    let limit = if rel == 0 {
                        p // any bit
                    } else {
                        rel & rel.wrapping_neg() // lowest set bit of rel
                    };
                    // Send to larger children first so deep subtrees start
                    // earliest (the standard binomial schedule).
                    let mut bits = Vec::new();
                    let mut b = 1;
                    while b < limit && rel + b < p {
                        bits.push(b);
                        b <<= 1;
                    }
                    let data = if bits.is_empty() {
                        data
                    } else {
                        data.into_shared()
                    };
                    for &b in bits.iter().rev() {
                        let child = (rel + b + root) % p;
                        comm.try_send_internal(child, tag, data.clone())?;
                    }
                    Ok(data)
                }
            }
        })?;
        // Every participant ends the bcast holding the root's payload, so
        // byte accounting is per-rank delivered volume.
        if let Some(m) = &self.shared.metrics {
            m.bcast_bytes.add(out.bytes() as u64);
        }
        Ok(out)
    }

    /// Gather: every rank contributes a payload; the root receives all of
    /// them indexed by rank and returns `Some(vec)`, others return `None`.
    pub fn try_gather(
        &mut self,
        root: usize,
        payload: Payload,
    ) -> CommResult<Option<Vec<Payload>>> {
        assert!(root < self.size(), "gather root {root} out of range");
        let tag = self.next_coll_tag();
        self.with_collective_span(CollectiveOp::Gather, root, |comm| {
            if comm.rank == root {
                let mut out: Vec<Option<Payload>> = (0..comm.size()).map(|_| None).collect();
                out[root] = Some(payload);
                for src in (0..comm.size()).filter(|&s| s != root) {
                    out[src] = Some(comm.try_recv_internal(src, tag)?);
                }
                Ok(Some(out.into_iter().map(Option::unwrap).collect()))
            } else {
                comm.try_send_internal(root, tag, payload)?;
                Ok(None)
            }
        })
    }

    /// Barrier: no rank leaves before every rank has entered. Virtual
    /// clocks are synchronized to the latest participant (plus the small
    /// control-message cost).
    pub fn try_barrier(&mut self) -> CommResult<()> {
        self.with_collective_span(CollectiveOp::Barrier, 0, |comm| {
            // Gather an empty message to rank 0, then broadcast it back.
            comm.try_gather(0, Payload::U64(Vec::new()))?;
            comm.try_bcast(0, Payload::U64(Vec::new()))?;
            Ok(())
        })
    }

    /// Builds a sub-communicator from an explicitly known member list
    /// without any communication. All members must call with the *same*
    /// sorted list of parent-local ranks and the same `label`; the label
    /// distinguishes different subgroups with identical membership, and
    /// groups with different membership never share an id, whatever their
    /// labels.
    ///
    /// This is how SummaGen builds its per-sub-partition-row and -column
    /// communicators: group membership is fully determined by the partition
    /// spec every rank already holds, so the `MPI_Comm_split` exchange can
    /// be skipped. Ranks not in `members` should simply not call.
    ///
    /// Returns [`CommError::InvalidGroup`] when the member list is empty,
    /// not strictly increasing, or names an out-of-range rank. `Ok(None)`
    /// means the list was valid but this rank is not in it.
    pub fn try_subgroup(&self, members: &[usize], label: u64) -> CommResult<Option<Communicator>> {
        let Some(&last) = members.last() else {
            return Err(CommError::InvalidGroup {
                reason: "member list is empty".into(),
            });
        };
        for w in members.windows(2) {
            if w[0] >= w[1] {
                return Err(CommError::InvalidGroup {
                    reason: format!(
                        "members must be strictly increasing, got {} before {}",
                        w[0], w[1]
                    ),
                });
            }
        }
        if last >= self.size() {
            return Err(CommError::InvalidGroup {
                reason: format!(
                    "member rank {last} out of range for communicator of size {}",
                    self.size()
                ),
            });
        }
        let Some(new_rank) = members.iter().position(|&m| m == self.rank) else {
            return Ok(None);
        };
        let group: Vec<usize> = members.iter().map(|&m| self.group[m]).collect();
        let seed = mix(mix(self.comm_id ^ mix(label)) ^ 0x5347_5542); // "SGUB"
        let child_id = group.iter().fold(seed, |id, &g| mix(id ^ g as u64));
        Ok(Some(Communicator::new(
            child_id,
            new_rank,
            Arc::new(group),
            Arc::clone(&self.shared),
            Arc::clone(&self.mailbox),
            Arc::clone(&self.clock),
            Arc::clone(&self.stats),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, HockneyModel, Universe, ZeroCost};

    #[test]
    fn p2p_send_recv() {
        let out = Universe::new(2, ZeroCost).run(|mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, Payload::F64(vec![1.0, 2.0, 3.0]));
                comm.try_barrier().expect("barrier");
                0.0
            } else {
                let p = comm.recv(0, 7).into_f64();
                comm.try_barrier().expect("barrier");
                p.iter().sum()
            }
        });
        assert_eq!(out, vec![0.0, 6.0]);
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        let out = Universe::new(2, ZeroCost).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, Payload::U64(vec![11]));
                comm.send(1, 2, Payload::U64(vec![22]));
                0
            } else {
                // Receive in the opposite order of sending.
                let b = comm.recv(0, 2).into_u64()[0];
                let a = comm.recv(0, 1).into_u64()[0];
                a * 100 + b
            }
        });
        assert_eq!(out[1], 1122);
    }

    #[test]
    fn bcast_delivers_root_payload() {
        let out = Universe::new(4, ZeroCost).run(|mut comm| {
            let mine = Payload::F64(vec![comm.rank() as f64]);
            comm.bcast(2, mine).into_f64()[0]
        });
        assert_eq!(out, vec![2.0; 4]);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Universe::new(3, ZeroCost).run(|mut comm| {
            let res = comm
                .try_gather(1, Payload::U64(vec![comm.rank() as u64 * 10]))
                .expect("gather");
            match res {
                Some(parts) => parts
                    .into_iter()
                    .map(|p| p.into_u64()[0])
                    .collect::<Vec<_>>(),
                None => vec![],
            }
        });
        assert_eq!(out[0], Vec::<u64>::new());
        assert_eq!(out[1], vec![0, 10, 20]);
        assert_eq!(out[2], Vec::<u64>::new());
    }

    #[test]
    fn sub_communicators_do_not_crosstalk() {
        let out = Universe::new(4, ZeroCost).run(|comm| {
            let members = if comm.rank() < 2 { [0, 1] } else { [2, 3] };
            let mut sub = comm
                .try_subgroup(&members, 0)
                .expect("valid")
                .expect("member");
            // Both groups bcast concurrently with the same label and tag
            // sequence.
            let v = sub.bcast(0, Payload::U64(vec![comm.rank() as u64]));
            v.into_u64()[0]
        });
        assert_eq!(out, vec![0, 0, 2, 2]);
    }

    #[test]
    fn two_level_topology_prices_links_differently() {
        use crate::clock::TwoLevelTopology;
        let topo = TwoLevelTopology::uniform(
            4,
            2,
            HockneyModel {
                alpha: 0.0,
                beta: 1e-9,
            },
            HockneyModel {
                alpha: 0.0,
                beta: 1e-7,
            },
        );
        let out = Universe::new(4, topo).run(|comm| {
            // Rank 0 sends the same message intra-node (to 1) and
            // inter-node (to 2).
            match comm.rank() {
                0 => {
                    comm.send(1, 1, Payload::Phantom { elems: 1_000_000 });
                    let t_intra = comm.now();
                    comm.send(2, 2, Payload::Phantom { elems: 1_000_000 });
                    let t_inter = comm.now() - t_intra;
                    (t_intra, t_inter)
                }
                1 => {
                    comm.recv(0, 1);
                    (0.0, 0.0)
                }
                2 => {
                    comm.recv(0, 2);
                    (0.0, 0.0)
                }
                _ => (0.0, 0.0),
            }
        });
        let (t_intra, t_inter) = out[0];
        assert!(
            t_inter > t_intra * 50.0,
            "inter {t_inter} not ≫ intra {t_intra}"
        );
    }

    #[test]
    fn binomial_bcast_delivers_to_all_ranks() {
        for p in 1..=9usize {
            for root in [0, p / 2, p - 1] {
                let out = Universe::new(p, ZeroCost).run(|mut comm| {
                    let mine = Payload::U64(vec![comm.rank() as u64 + 100]);
                    comm.try_bcast_with(root, mine, BcastAlgorithm::Binomial)
                        .expect("bcast")
                        .into_u64()[0]
                });
                assert_eq!(out, vec![root as u64 + 100; p], "p={p} root={root}");
            }
        }
    }

    #[test]
    fn binomial_beats_flat_on_root_latency_for_large_p() {
        let model = HockneyModel {
            alpha: 1e-3,
            beta: 0.0,
        };
        let time_with = |algo: BcastAlgorithm| {
            let out = Universe::new(16, model).run(|mut comm| {
                comm.try_bcast_with(0, Payload::Phantom { elems: 1 }, algo)
                    .expect("bcast");
                comm.now()
            });
            out.into_iter().fold(0.0, f64::max)
        };
        let flat = time_with(BcastAlgorithm::Flat);
        let binomial = time_with(BcastAlgorithm::Binomial);
        // Flat: 15 sequential alpha at the root. Binomial: 4 rounds.
        assert!(
            binomial < flat * 0.5,
            "binomial {binomial} not much faster than flat {flat}"
        );
    }

    #[test]
    fn flat_and_binomial_agree_on_payload() {
        let out = Universe::new(6, ZeroCost).run(|mut comm| {
            let a = comm
                .try_bcast_with(
                    2,
                    Payload::U64(vec![comm.rank() as u64]),
                    BcastAlgorithm::Flat,
                )
                .expect("flat bcast")
                .into_u64();
            let b = comm
                .try_bcast_with(
                    2,
                    Payload::U64(vec![comm.rank() as u64 * 7]),
                    BcastAlgorithm::Binomial,
                )
                .expect("binomial bcast")
                .into_u64();
            (a[0], b[0])
        });
        assert!(out.iter().all(|&(a, b)| a == 2 && b == 14));
    }

    /// A broadcast of an owned `F64` sends one buffer: on channels every
    /// rank ends up holding the root's allocation, under either algorithm
    /// (with five ranks the binomial tree has a forwarding rank, 2).
    #[test]
    fn a_bcast_shares_the_roots_buffer_on_channels() {
        for algo in [BcastAlgorithm::Flat, BcastAlgorithm::Binomial] {
            let got = Universe::new(5, ZeroCost).run(|mut comm| {
                let mine = Payload::F64(vec![comm.rank() as f64; 1000]);
                comm.try_bcast_with(0, mine, algo)
                    .expect("bcast")
                    .try_into_shared_f64()
                    .expect("an F64 payload")
            });
            for (rank, buf) in got.iter().enumerate() {
                assert!(
                    Arc::ptr_eq(buf, &got[0]),
                    "{algo:?}: rank {rank} holds a copy"
                );
            }
            assert_eq!(*got[0], vec![0.0; 1000]);
        }
    }

    /// Over TCP the root's sends write from its own buffer and release it:
    /// the root gets back a shared payload nobody else holds, whose
    /// `into_f64` is the very allocation it passed in, and every receiver
    /// (rank 3 of the binomial tree forwarding to rank 0) reads its bits.
    #[test]
    fn a_tcp_bcast_hands_the_root_its_own_allocation_back() {
        let panel: Vec<f64> = (1..=4096u64)
            .map(|i| f64::from_bits(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        for algo in [BcastAlgorithm::Flat, BcastAlgorithm::Binomial] {
            let got = Universe::new(4, ZeroCost)
                .with_backend(Backend::Tcp)
                .run(|mut comm| {
                    let mine = if comm.rank() == 1 {
                        panel.clone()
                    } else {
                        Vec::new()
                    };
                    let at = mine.as_ptr() as usize;
                    let back = comm
                        .try_bcast_with(1, Payload::F64(mine), algo)
                        .expect("bcast");
                    let sole =
                        matches!(&back, Payload::SharedF64(buf) if Arc::strong_count(buf) == 1);
                    let back = back.into_f64();
                    let bits: Vec<u64> = back.iter().map(|x| x.to_bits()).collect();
                    (sole, back.as_ptr() as usize == at, bits)
                });
            let (sole, same, _) = &got[1];
            assert!(*sole, "{algo:?}: the root's payload is still shared");
            assert!(*same, "{algo:?}: the root got a copy back");
            let want: Vec<u64> = panel.iter().map(|x| x.to_bits()).collect();
            for (rank, (_, _, bits)) in got.iter().enumerate() {
                assert_eq!(*bits, want, "{algo:?}: rank {rank}");
            }
        }
    }

    #[test]
    fn subgroup_builds_without_communication() {
        let out = Universe::new(4, ZeroCost).run(|comm| {
            let members = [1, 3];
            if members.contains(&comm.rank()) {
                let mut sub = comm
                    .try_subgroup(&members, 7)
                    .expect("valid")
                    .expect("member");
                let v = sub.bcast(0, Payload::U64(vec![comm.rank() as u64]));
                let traffic_before_world_ops = comm.traffic();
                (v.into_u64()[0], traffic_before_world_ops.msgs_sent <= 1)
            } else {
                assert!(comm.try_subgroup(&members, 7).expect("valid").is_none());
                // Non-members did not communicate at all.
                (99, comm.traffic().msgs_sent == 0)
            }
        });
        assert_eq!(out[1].0, 1);
        assert_eq!(out[3].0, 1);
        assert_eq!(out[0].0, 99);
        assert!(out.iter().all(|&(_, ok)| ok));
    }

    #[test]
    fn subgroups_with_same_members_different_labels_are_isolated() {
        let out = Universe::new(2, ZeroCost).run(|comm| {
            let mut s1 = comm
                .try_subgroup(&[0, 1], 1)
                .expect("valid")
                .expect("member");
            let mut s2 = comm
                .try_subgroup(&[0, 1], 2)
                .expect("valid")
                .expect("member");
            // Interleave: send on s2 first, receive on s1 first.
            if comm.rank() == 0 {
                s2.bcast(0, Payload::U64(vec![200]));
                s1.bcast(0, Payload::U64(vec![100]));
                0
            } else {
                let a = s1.bcast(0, Payload::U64(vec![])).into_u64()[0];
                let b = s2.bcast(0, Payload::U64(vec![])).into_u64()[0];
                (a * 1000 + b) as usize
            }
        });
        assert_eq!(out[1], 100_200);
    }

    #[test]
    fn subgroup_rejects_unsorted_members() {
        let out = Universe::new(2, ZeroCost).run(|comm| comm.try_subgroup(&[1, 0], 0).err());
        assert!(out
            .iter()
            .all(|e| matches!(e, Some(CommError::InvalidGroup { .. }))));
    }

    #[test]
    fn hockney_costs_advance_clocks() {
        let model = HockneyModel {
            alpha: 1e-3,
            beta: 1e-6,
        };
        let out = Universe::new(2, model).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, Payload::Phantom { elems: 1000 });
            } else {
                comm.recv(0, 0);
            }
            comm.clock_snapshot()
        });
        // 8000 bytes at beta=1e-6 s/B plus alpha=1e-3 -> 9e-3 s.
        let expect = 1e-3 + 8000.0 * 1e-6;
        assert!(
            (out[0].now - expect).abs() < 1e-12,
            "sender clock {}",
            out[0].now
        );
        assert!(
            (out[1].now - expect).abs() < 1e-12,
            "receiver clock {}",
            out[1].now
        );
        assert_eq!(out[0].comp_time, 0.0);
        assert!(out[0].comm_time > 0.0);
    }

    #[test]
    fn receiver_waits_for_late_sender() {
        let model = HockneyModel {
            alpha: 0.0,
            beta: 1e-9,
        };
        let out = Universe::new(2, model).run(|comm| {
            if comm.rank() == 0 {
                comm.advance_compute(5.0); // sender is busy first
                comm.send(1, 0, Payload::Phantom { elems: 1 });
            } else {
                comm.recv(0, 0);
            }
            comm.now()
        });
        // Receiver's clock must reach the sender's send-completion time.
        assert!(out[1] >= 5.0, "receiver at {}", out[1]);
    }

    #[test]
    fn traffic_stats_count_bytes() {
        let out = Universe::new(2, ZeroCost).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, Payload::F64(vec![0.0; 100]));
            } else {
                comm.recv(0, 0);
            }
            comm.traffic()
        });
        assert_eq!(out[0].bytes_sent, 800);
        assert_eq!(out[0].msgs_sent, 1);
        assert_eq!(out[1].bytes_recv, 800);
        assert_eq!(out[1].msgs_recv, 1);
    }

    #[test]
    fn barrier_synchronizes_virtual_time() {
        let out = Universe::new(3, ZeroCost).run(|mut comm| {
            comm.advance_compute(comm.rank() as f64 * 2.0);
            comm.try_barrier().expect("barrier");
            comm.now()
        });
        // After the barrier every clock is at least the max pre-barrier time.
        for t in &out {
            assert!(*t >= 4.0, "clock {t} < 4.0 after barrier");
        }
    }

    #[test]
    fn virtual_time_is_deterministic() {
        let model = HockneyModel {
            alpha: 1e-5,
            beta: 2e-9,
        };
        let run = || {
            Universe::new(3, model).run(|mut comm| {
                comm.advance_compute(0.25 * (comm.rank() + 1) as f64);
                let v = comm.bcast(0, Payload::Phantom { elems: 4096 });
                comm.advance_compute(v.elems() as f64 * 1e-6);
                comm.try_barrier().expect("barrier");
                comm.now()
            })
        };
        assert_eq!(run(), run());
    }

    // ---- fault-tolerance behavior ----------------------------------------

    #[test]
    fn try_recv_times_out_with_typed_error() {
        let out = Universe::new(2, ZeroCost)
            .recv_timeout(Duration::from_millis(30))
            .run(|comm| {
                if comm.rank() == 0 {
                    // Never send.
                    Ok(Payload::U64(vec![]))
                } else {
                    comm.try_recv(0, 3)
                }
            });
        match &out[1] {
            Err(CommError::Timeout { src, tag, .. }) => {
                assert_eq!(*src, Some(0));
                assert_eq!(*tag, 3);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn survivor_sees_peer_failed_when_sender_dies() {
        let out = Universe::new(2, ZeroCost)
            .recv_timeout(Duration::from_secs(30))
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.shared.death_notice(comm.global_rank());
                    Ok(Payload::U64(vec![]))
                } else {
                    // Without the death notice this would block 30 s; the
                    // notice turns it into a fast typed error.
                    let t0 = Instant::now();
                    let r = comm.try_recv(0, 3);
                    assert!(t0.elapsed() < Duration::from_secs(5), "did not fail fast");
                    r
                }
            });
        assert_eq!(out[1], Err(CommError::PeerFailed { rank: 0 }));
    }

    #[test]
    fn message_sent_before_death_is_still_delivered() {
        let out = Universe::new(2, ZeroCost).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, Payload::U64(vec![77]));
                comm.shared.death_notice(comm.global_rank());
                0
            } else {
                // Give the peer time to die first: its final message must
                // survive the death notice.
                std::thread::sleep(Duration::from_millis(20));
                comm.try_recv(0, 4).unwrap().into_u64()[0]
            }
        });
        assert_eq!(out[1], 77);
    }

    #[test]
    fn send_to_dead_rank_fails_fast() {
        let out = Universe::new(2, ZeroCost).run(|comm| {
            if comm.rank() == 0 {
                comm.shared.death_notice(comm.global_rank());
                Ok(())
            } else {
                std::thread::sleep(Duration::from_millis(20));
                comm.try_send(0, 1, Payload::U64(vec![1]))
            }
        });
        match &out[1] {
            Err(CommError::PeerFailed { rank: 0 }) | Err(CommError::ChannelClosed { rank: 0 }) => {}
            other => panic!("expected fast failure, got {other:?}"),
        }
    }

    #[test]
    fn dropped_message_times_out_but_counts_as_sent() {
        let plan = crate::FaultPlan::new().drop_message(0, 1, 0);
        let out = Universe::new(2, ZeroCost)
            .recv_timeout(Duration::from_millis(30))
            .with_faults(plan)
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.try_send(1, 9, Payload::U64(vec![5])).unwrap();
                    (comm.traffic().msgs_sent, Ok(Payload::U64(vec![])))
                } else {
                    (0, comm.try_recv(0, 9))
                }
            });
        assert_eq!(out[0].0, 1, "dropped message still counted at sender");
        assert!(
            matches!(out[1].1, Err(CommError::Timeout { .. })),
            "got {:?}",
            out[1].1
        );
    }

    #[test]
    fn delayed_message_arrives_late_in_virtual_time() {
        let plan = crate::FaultPlan::new().delay_message(0, 1, 0, 2.5);
        let late = Universe::new(2, ZeroCost).with_faults(plan).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, Payload::U64(vec![1]));
            } else {
                comm.recv(0, 0);
            }
            comm.now()
        });
        let on_time = Universe::new(2, ZeroCost).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, Payload::U64(vec![1]));
            } else {
                comm.recv(0, 0);
            }
            comm.now()
        });
        assert!(
            (late[1] - on_time[1] - 2.5).abs() < 1e-12,
            "late {late:?} vs {on_time:?}"
        );
    }

    #[test]
    fn slow_rank_stretches_compute_time() {
        let plan = crate::FaultPlan::new().slow_rank(1, 3.0);
        let out = Universe::new(2, ZeroCost).with_faults(plan).run(|comm| {
            comm.advance_compute(1.0);
            comm.now()
        });
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert!((out[1] - 3.0).abs() < 1e-12);
    }
}
