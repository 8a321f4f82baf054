//! Deterministic, seeded fault injection for the runtime.
//!
//! A [`FaultPlan`] is a declarative description of what goes wrong during
//! a run: ranks killed at their N-th communication operation, specific
//! messages dropped or delayed, ranks computing slower than modeled. The
//! plan is attached to a `Universe` via `Universe::with_faults`; the
//! runtime consults it at well-defined points (every point-to-point send
//! and receive, every compute advance), so a given `(plan, program)` pair
//! fails *identically* on every execution — chaos tests are reproducible
//! byte for byte.
//!
//! Kills are delivered as panics carrying an [`InjectedKill`] payload.
//! `Universe::try_run` recognizes the payload, records the death as
//! `FailureCause::InjectedKill`, and runs the death-notice protocol that
//! unblocks the victim's peers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::comm::mix;
use crate::sync::Mutex;

/// Panic payload used by injected kills. Public so tests can assert on it;
/// user code never constructs one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedKill {
    /// Universe-global rank being killed.
    pub rank: usize,
    /// Zero-based index of the p2p operation at which the kill fired.
    pub op: u64,
}

/// What the injector decides about one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MsgAction {
    /// Deliver normally.
    Deliver,
    /// Silently discard (the receiver will time out).
    Drop,
    /// Deliver, but with this many extra virtual seconds of latency.
    Delay(f64),
    /// Deliver, but perturb element `elem % len` of an `F64` payload by
    /// adding `delta` (silent data corruption on the wire).
    Corrupt {
        /// Element index, reduced modulo the payload length.
        elem: u64,
        /// Additive perturbation applied to the element.
        delta: f64,
    },
}

/// A kill directive: rank `rank` panics when it starts its `at_op`-th
/// (zero-based) point-to-point operation. A rank that performs no
/// communication never reaches its trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Universe-global rank to kill.
    pub rank: usize,
    /// Zero-based p2p operation index that triggers the kill.
    pub at_op: u64,
}

/// A per-message directive keyed by `(src, dst, nth)`: the `nth`
/// (zero-based) message from `src` to `dst` is dropped or delayed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgFault {
    /// Universe-global sender.
    pub src: usize,
    /// Universe-global receiver.
    pub dst: usize,
    /// Zero-based index among messages from `src` to `dst`.
    pub nth: u64,
    /// Extra virtual latency in seconds; `None` means drop entirely.
    pub delay: Option<f64>,
}

/// A silent-data-corruption directive on the wire: element
/// `elem % payload_len` of the `nth` (zero-based) `F64` message from
/// `src` to `dst` is perturbed by adding `delta` before delivery.
/// Non-`F64` payloads (control traffic, phantom messages) pass through
/// untouched — corruption targets numeric panel data, not the protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgCorrupt {
    /// Universe-global sender.
    pub src: usize,
    /// Universe-global receiver.
    pub dst: usize,
    /// Zero-based index among messages from `src` to `dst`.
    pub nth: u64,
    /// Element index within the payload, reduced modulo its length.
    pub elem: u64,
    /// Additive perturbation; must be finite and non-zero.
    pub delta: f64,
}

/// A local-memory corruption directive: element `elem % block_len` of
/// rank `rank`'s local `C` accumulator is perturbed by adding `delta`
/// just before panel step `at_step` (zero-based). Delivery is the
/// executor's job — it queries [`FaultPlan`] state between panel steps
/// via `Communicator::block_corruptions`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockCorrupt {
    /// Universe-global rank whose local block is corrupted.
    pub rank: usize,
    /// Zero-based panel step before which the corruption lands.
    pub at_step: u64,
    /// Element index within the rank's block, reduced modulo its length.
    pub elem: u64,
    /// Additive perturbation; must be finite and non-zero.
    pub delta: f64,
}

/// A declarative fault schedule. Build with the chaining methods, or
/// derive a pseudo-random one from a seed with [`FaultPlan::seeded`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Ranks to kill and when.
    pub kills: Vec<KillSpec>,
    /// Messages to drop or delay.
    pub msg_faults: Vec<MsgFault>,
    /// `(rank, factor)`: multiply the rank's compute-time advances by
    /// `factor` (a straggler at `factor > 1`).
    pub slowdowns: Vec<(usize, f64)>,
    /// Messages to corrupt in flight.
    pub msg_corruptions: Vec<MsgCorrupt>,
    /// Local blocks to corrupt between panel steps.
    pub block_corruptions: Vec<BlockCorrupt>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Kills `rank` at its `at_op`-th (zero-based) p2p operation.
    pub fn kill_rank(mut self, rank: usize, at_op: u64) -> Self {
        self.kills.push(KillSpec { rank, at_op });
        self
    }

    /// Drops the `nth` (zero-based) message from `src` to `dst`.
    pub fn drop_message(mut self, src: usize, dst: usize, nth: u64) -> Self {
        self.msg_faults.push(MsgFault {
            src,
            dst,
            nth,
            delay: None,
        });
        self
    }

    /// Delays the `nth` (zero-based) message from `src` to `dst` by
    /// `secs` extra virtual seconds.
    pub fn delay_message(mut self, src: usize, dst: usize, nth: u64, secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid delay {secs}");
        self.msg_faults.push(MsgFault {
            src,
            dst,
            nth,
            delay: Some(secs),
        });
        self
    }

    /// Multiplies `rank`'s compute-time advances by `factor`.
    pub fn slow_rank(mut self, rank: usize, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "invalid factor {factor}"
        );
        self.slowdowns.push((rank, factor));
        self
    }

    /// Perturbs element `elem % len` of the `nth` (zero-based) `F64`
    /// message from `src` to `dst` by adding `delta`.
    pub fn corrupt_message(
        mut self,
        src: usize,
        dst: usize,
        nth: u64,
        elem: u64,
        delta: f64,
    ) -> Self {
        assert!(
            delta != 0.0 && delta.is_finite(),
            "invalid corruption delta {delta}"
        );
        self.msg_corruptions.push(MsgCorrupt {
            src,
            dst,
            nth,
            elem,
            delta,
        });
        self
    }

    /// Perturbs element `elem % block_len` of `rank`'s local `C`
    /// accumulator by adding `delta` just before panel step `at_step`.
    pub fn corrupt_block(mut self, rank: usize, at_step: u64, elem: u64, delta: f64) -> Self {
        assert!(
            delta != 0.0 && delta.is_finite(),
            "invalid corruption delta {delta}"
        );
        self.block_corruptions.push(BlockCorrupt {
            rank,
            at_step,
            elem,
            delta,
        });
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
            && self.msg_faults.is_empty()
            && self.slowdowns.is_empty()
            && self.msg_corruptions.is_empty()
            && self.block_corruptions.is_empty()
    }

    /// Derives a deterministic pseudo-random plan for a universe of
    /// `nprocs` ranks: always one kill, plus (depending on seed bits) one
    /// message delay and one straggler. The same seed always produces the
    /// same plan.
    pub fn seeded(seed: u64, nprocs: usize) -> Self {
        assert!(nprocs > 0, "seeded plan needs at least one rank");
        let r0 = mix(seed);
        let r1 = mix(r0);
        let r2 = mix(r1);
        let victim = (r0 % nprocs as u64) as usize;
        let mut plan = FaultPlan::new().kill_rank(victim, r1 % 24);
        if r2 & 1 == 1 && nprocs >= 2 {
            let src = (r2 >> 1) as usize % nprocs;
            let dst = (src + 1 + (r2 >> 9) as usize % (nprocs - 1)) % nprocs;
            plan = plan.delay_message(src, dst, (r2 >> 17) % 4, 1e-3);
        }
        if r2 & 2 == 2 {
            plan = plan.slow_rank((r2 >> 3) as usize % nprocs, 2.5);
        }
        plan
    }

    /// Like [`FaultPlan::seeded`], but layered with deterministic
    /// data-corruption directives: always one in-flight message
    /// corruption, plus (depending on seed bits) one local-block
    /// corruption. [`FaultPlan::seeded`] itself stays corruption-free so
    /// the existing chaos seed grids keep their exact outcomes; protected
    /// (ABFT) runs opt into corruption with this constructor.
    pub fn seeded_with_corruption(seed: u64, nprocs: usize) -> Self {
        let mut plan = Self::seeded(seed, nprocs);
        let r3 = mix(mix(mix(mix(seed))));
        let r4 = mix(r3);
        // Magnitude spans junk-bit noise to catastrophic flips; sign
        // alternates so corrections are exercised in both directions.
        let delta = match (r3 >> 5) % 3 {
            0 => 1.0,
            1 => 1e3,
            _ => 1e-3,
        } * if r3 & 16 == 16 { -1.0 } else { 1.0 };
        if nprocs >= 2 {
            let src = (r3 >> 1) as usize % nprocs;
            let dst = (src + 1 + (r3 >> 9) as usize % (nprocs - 1)) % nprocs;
            plan = plan.corrupt_message(src, dst, (r3 >> 17) % 4, r3 >> 24, delta);
        }
        if r4 & 1 == 1 {
            plan = plan.corrupt_block(
                (r4 >> 1) as usize % nprocs,
                (r4 >> 7) % 4,
                r4 >> 13,
                delta * 2.0,
            );
        }
        plan
    }
}

/// Panic payload used by injected *silent* hangs: the rank stopped
/// making progress without posting a death notice, waited until the
/// heartbeat detector suspected it, and then unwound with this payload
/// so the scope join can classify the death. Public so tests can assert
/// on it; user code never constructs one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedHang {
    /// Universe-global rank that hung.
    pub rank: usize,
    /// Zero-based index of the p2p operation at which the hang fired.
    pub op: u64,
    /// Wall-clock seconds the rank sat silent before the detector
    /// declared it dead (the measured detection latency).
    pub silent_secs: f64,
}

/// A silent-hang directive: rank `rank` stops making progress at its
/// `at_op`-th (zero-based) point-to-point operation *without* running
/// the death-notice protocol — peers learn of the death only through
/// heartbeat suspicion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HangSpec {
    /// Universe-global rank to hang.
    pub rank: usize,
    /// Zero-based p2p operation index that triggers the hang.
    pub at_op: u64,
}

/// What the link plan decides about one wire attempt of a packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WireFate {
    /// The attempt reaches the receiver.
    Deliver,
    /// The attempt is lost; the transport retransmits after backoff.
    Drop,
    /// The attempt reaches the receiver twice (e.g. a retransmit racing
    /// a late original); the receiver's dedup discards the extra copy.
    Duplicate,
    /// The attempt reaches the receiver after this many extra virtual
    /// seconds of latency.
    Delay(f64),
    /// The attempt is held back and overtaken by the next packet on the
    /// same link; receiver-side reassembly restores order.
    Reorder,
}

/// Base retransmission timeout in virtual seconds (doubles per attempt).
const RTO_BASE: f64 = 1e-5;

/// Ceiling on the per-attempt backoff in virtual seconds.
const RTO_CAP: f64 = 1e-3;

/// Wire attempts per packet before the transport gives up and reports the
/// destination unreachable.
pub(crate) const MAX_WIRE_ATTEMPTS: u32 = 30;

/// A seeded, deterministic model of a lossy interconnect.
///
/// Unlike [`FaultPlan`]'s per-message directives (keyed by the nth
/// message on an edge, tracked with counters), a `LinkPlan` decides the
/// fate of every wire attempt *statelessly* from a hash of
/// `(seed, src, dst, seq, attempt)` — the same packet suffers the same
/// fate on every execution regardless of thread interleaving, and a
/// retransmission (higher `attempt`) re-rolls the dice, so finite drop
/// rates always eventually deliver. Installing a plan on a `Universe`
/// (`with_link_plan`) switches the runtime onto the reliable transport:
/// per-link sequence numbers, duplicate suppression, in-order
/// reassembly, and retransmission with capped exponential backoff
/// charged to the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPlan {
    /// Seed feeding every fate hash.
    pub seed: u64,
    /// Global per-mille probability an attempt is dropped.
    pub drop_permille: u16,
    /// Global per-mille probability an attempt is duplicated.
    pub dup_permille: u16,
    /// Global per-mille probability an attempt is reordered behind the
    /// next packet on its link.
    pub reorder_permille: u16,
    /// Global per-mille probability an attempt is delayed.
    pub delay_permille: u16,
    /// Extra virtual latency (seconds) a delayed attempt suffers.
    pub delay_secs: f64,
    /// Per-link drop-rate overrides `(src, dst, permille)`; 1000 makes a
    /// link totally dead (the transport reports `Unreachable` after
    /// exhausting its budget).
    pub link_drop: Vec<(usize, usize, u16)>,
    /// Ranks to hang silently and when.
    pub hangs: Vec<HangSpec>,
    /// TCP-only: refuse the first `n` connect attempts on a directed
    /// link, `(src, dst, n)`. The backend's bounded connect retries
    /// absorb refusals within budget; beyond it the send fails with
    /// `Unreachable`. A no-op on the channel backend (which has no
    /// connections to refuse).
    pub tcp_refuse: Vec<(usize, usize, u32)>,
    /// TCP-only: reset the link's connection right before its `k`-th
    /// (zero-based) frame, `(src, dst, k)`. The backend reconnects and
    /// resends transparently; the receiver's sequence cursor suppresses
    /// any duplicate the resend could create. A no-op on channels.
    pub tcp_reset: Vec<(usize, usize, u64)>,
    /// TCP-only: stall the socket for `millis` of wall-clock time before
    /// the link's `k`-th frame, `(src, dst, k, millis)`. Models a frozen
    /// peer TCP stack; keep the stall below the heartbeat suspicion
    /// threshold unless the test wants a detected death. A no-op on
    /// channels.
    pub tcp_stall: Vec<(usize, usize, u64, u64)>,
}

impl Default for LinkPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop_permille: 0,
            dup_permille: 0,
            reorder_permille: 0,
            delay_permille: 0,
            delay_secs: 0.0,
            link_drop: Vec::new(),
            hangs: Vec::new(),
            tcp_refuse: Vec::new(),
            tcp_reset: Vec::new(),
            tcp_stall: Vec::new(),
        }
    }
}

impl LinkPlan {
    /// A lossless plan with the given seed (installs the reliable
    /// transport but injects nothing).
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    fn permille(v: u16) -> u16 {
        assert!(v <= 1000, "per-mille rate {v} out of range");
        v
    }

    /// Sets the global drop probability (per mille of wire attempts).
    pub fn drop_rate(mut self, permille: u16) -> Self {
        self.drop_permille = Self::permille(permille);
        self
    }

    /// Sets the global duplication probability (per mille).
    pub fn duplicate_rate(mut self, permille: u16) -> Self {
        self.dup_permille = Self::permille(permille);
        self
    }

    /// Sets the global reorder probability (per mille).
    pub fn reorder_rate(mut self, permille: u16) -> Self {
        self.reorder_permille = Self::permille(permille);
        self
    }

    /// Sets the global delay probability (per mille) and the extra
    /// virtual latency delayed attempts suffer.
    pub fn delay_rate(mut self, permille: u16, secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid delay {secs}");
        self.delay_permille = Self::permille(permille);
        self.delay_secs = secs;
        self
    }

    /// Overrides the drop rate on one directed link.
    pub fn drop_link(mut self, src: usize, dst: usize, permille: u16) -> Self {
        let p = Self::permille(permille);
        self.link_drop.push((src, dst, p));
        self
    }

    /// Hangs `rank` silently at its `at_op`-th (zero-based) p2p
    /// operation — no death notice; only the heartbeat detector can
    /// discover it.
    pub fn hang_rank(mut self, rank: usize, at_op: u64) -> Self {
        self.hangs.push(HangSpec { rank, at_op });
        self
    }

    /// Refuses the first `n` connect attempts on the `src → dst` link
    /// (TCP backend only).
    pub fn refuse_connects(mut self, src: usize, dst: usize, n: u32) -> Self {
        self.tcp_refuse.push((src, dst, n));
        self
    }

    /// Resets the `src → dst` connection right before its `frame`-th
    /// (zero-based) frame (TCP backend only).
    pub fn reset_connection(mut self, src: usize, dst: usize, frame: u64) -> Self {
        self.tcp_reset.push((src, dst, frame));
        self
    }

    /// Stalls the `src → dst` socket for `millis` of wall-clock time
    /// before its `frame`-th (zero-based) frame (TCP backend only).
    pub fn stall_socket(mut self, src: usize, dst: usize, frame: u64, millis: u64) -> Self {
        self.tcp_stall.push((src, dst, frame, millis));
        self
    }

    /// Capped exponential backoff charged before retransmission
    /// `attempt` (1-based retry index).
    pub(crate) fn rto(attempt: u32) -> f64 {
        let exp = attempt.min(24); // 2^24 · base already dwarfs any cap
        (RTO_BASE * f64::from(1u32 << exp)).min(RTO_CAP)
    }

    fn drop_rate_for(&self, src: usize, dst: usize) -> u16 {
        self.link_drop
            .iter()
            .rev() // later overrides win
            .find(|&&(s, d, _)| s == src && d == dst)
            .map_or(self.drop_permille, |&(_, _, p)| p)
    }

    /// The fate of wire attempt `attempt` (0 = original transmission) of
    /// the packet with per-link sequence `seq` from `src` to `dst`.
    /// Pure: a hash of the arguments and the seed, independent of any
    /// runtime state or thread interleaving.
    pub(crate) fn wire_fate(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> WireFate {
        let key = mix(self.seed)
            ^ mix((src as u64) << 42 | (dst as u64) << 21 | (attempt as u64))
            ^ mix(seq.wrapping_add(0x4C49_4E4B));
        let h = mix(key);
        if ((h % 1000) as u16) < self.drop_rate_for(src, dst) {
            return WireFate::Drop;
        }
        let h2 = mix(h);
        if ((h2 % 1000) as u16) < self.dup_permille {
            return WireFate::Duplicate;
        }
        let h3 = mix(h2);
        if ((h3 % 1000) as u16) < self.delay_permille {
            return WireFate::Delay(self.delay_secs);
        }
        let h4 = mix(h3);
        if ((h4 % 1000) as u16) < self.reorder_permille {
            return WireFate::Reorder;
        }
        WireFate::Deliver
    }
}

/// Runtime state threading a [`LinkPlan`] through one `Universe`
/// execution: the plan itself (fate decisions are stateless) plus the
/// per-rank op counters that trigger silent hangs.
pub(crate) struct LinkState {
    pub(crate) plan: LinkPlan,
    /// Per-rank count of p2p operations performed so far (independent of
    /// the [`FaultState`] counters so the two plans compose).
    ops: Vec<AtomicU64>,
}

impl LinkState {
    pub(crate) fn new(plan: LinkPlan, nprocs: usize) -> Self {
        Self {
            plan,
            ops: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Called at the start of every p2p operation on `rank`. Returns
    /// `Some(op)` when the plan says this is the rank's moment to hang
    /// silently; the comm layer then parks the thread until the failure
    /// detector notices.
    pub(crate) fn check_hang(&self, rank: usize) -> Option<u64> {
        let op = self.ops[rank].fetch_add(1, Ordering::Relaxed);
        self.plan
            .hangs
            .iter()
            .any(|h| h.rank == rank && h.at_op == op)
            .then_some(op)
    }
}

/// Runtime state threading a [`FaultPlan`] through one `Universe`
/// execution: per-rank operation counters and per-edge message counters.
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Per-rank count of p2p operations performed so far.
    ops: Vec<AtomicU64>,
    /// Per-(src, dst) count of messages sent so far.
    msg_counts: Mutex<HashMap<(usize, usize), u64>>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, nprocs: usize) -> Self {
        Self {
            plan,
            ops: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            msg_counts: Mutex::new(HashMap::new()),
        }
    }

    /// Called at the start of every p2p operation on `rank`. Returns the
    /// operation index, and panics with [`InjectedKill`] if the plan says
    /// this is the rank's moment to die.
    pub(crate) fn before_op(&self, rank: usize) -> u64 {
        let op = self.ops[rank].fetch_add(1, Ordering::Relaxed);
        for k in &self.plan.kills {
            if k.rank == rank && k.at_op == op {
                std::panic::panic_any(InjectedKill { rank, op });
            }
        }
        op
    }

    /// Called for every message about to be enqueued.
    pub(crate) fn on_message(&self, src: usize, dst: usize) -> MsgAction {
        let nth = {
            let mut counts = self.msg_counts.lock();
            let c = counts.entry((src, dst)).or_insert(0);
            let nth = *c;
            *c += 1;
            nth
        };
        for mf in &self.plan.msg_faults {
            if mf.src == src && mf.dst == dst && mf.nth == nth {
                return match mf.delay {
                    None => MsgAction::Drop,
                    Some(secs) => MsgAction::Delay(secs),
                };
            }
        }
        for mc in &self.plan.msg_corruptions {
            if mc.src == src && mc.dst == dst && mc.nth == nth {
                return MsgAction::Corrupt {
                    elem: mc.elem,
                    delta: mc.delta,
                };
            }
        }
        MsgAction::Deliver
    }

    /// The compute-time multiplier for `rank` (1.0 when not slowed).
    pub(crate) fn compute_factor(&self, rank: usize) -> f64 {
        self.plan
            .slowdowns
            .iter()
            .find(|(r, _)| *r == rank)
            .map_or(1.0, |&(_, f)| f)
    }

    /// The `(elem, delta)` corruptions scheduled against `rank`'s local
    /// block just before panel step `step`. Stateless (unlike message
    /// counters): the executor owns the panel counter and asks once per
    /// step.
    pub(crate) fn block_corruptions(&self, rank: usize, step: u64) -> Vec<(u64, f64)> {
        self.plan
            .block_corruptions
            .iter()
            .filter(|bc| bc.rank == rank && bc.at_step == step)
            .map(|bc| (bc.elem, bc.delta))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn builder_accumulates_directives() {
        let plan = FaultPlan::new()
            .kill_rank(1, 5)
            .drop_message(0, 2, 3)
            .delay_message(2, 0, 0, 0.5)
            .slow_rank(2, 3.0)
            .corrupt_message(0, 1, 2, 7, 1e3)
            .corrupt_block(1, 3, 11, -1.0);
        assert_eq!(plan.kills, vec![KillSpec { rank: 1, at_op: 5 }]);
        assert_eq!(plan.msg_faults.len(), 2);
        assert_eq!(plan.slowdowns, vec![(2, 3.0)]);
        assert_eq!(
            plan.msg_corruptions,
            vec![MsgCorrupt {
                src: 0,
                dst: 1,
                nth: 2,
                elem: 7,
                delta: 1e3
            }]
        );
        assert_eq!(
            plan.block_corruptions,
            vec![BlockCorrupt {
                rank: 1,
                at_step: 3,
                elem: 11,
                delta: -1.0
            }]
        );
        assert!(!plan.is_empty());
        assert!(!FaultPlan::new().corrupt_message(0, 1, 0, 0, 1.0).is_empty());
        assert!(!FaultPlan::new().corrupt_block(0, 0, 0, 1.0).is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed, 3);
            let b = FaultPlan::seeded(seed, 3);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert_eq!(a.kills.len(), 1);
            assert!(a.kills[0].rank < 3);
            for mf in &a.msg_faults {
                assert!(mf.src < 3 && mf.dst < 3 && mf.src != mf.dst);
            }
            for &(r, f) in &a.slowdowns {
                assert!(r < 3 && f > 1.0);
            }
        }
        assert_ne!(FaultPlan::seeded(1, 3), FaultPlan::seeded(2, 3));
    }

    #[test]
    fn seeded_plans_carry_no_corruption() {
        // The chaos seed grids feed `seeded` plans to the *unprotected*
        // executor and assert exact outcomes — corruption directives must
        // only appear in `seeded_with_corruption`.
        for seed in 0..64u64 {
            let plan = FaultPlan::seeded(seed, 3);
            assert!(plan.msg_corruptions.is_empty(), "seed {seed}");
            assert!(plan.block_corruptions.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn seeded_with_corruption_extends_the_base_plan() {
        for seed in 0..64u64 {
            let base = FaultPlan::seeded(seed, 3);
            let plan = FaultPlan::seeded_with_corruption(seed, 3);
            assert_eq!(plan.kills, base.kills, "seed {seed}");
            assert_eq!(plan.msg_faults, base.msg_faults, "seed {seed}");
            assert_eq!(plan.slowdowns, base.slowdowns, "seed {seed}");
            assert_eq!(
                plan.msg_corruptions.len(),
                1,
                "seed {seed}: always one wire corruption"
            );
            let mc = plan.msg_corruptions[0];
            assert!(mc.src < 3 && mc.dst < 3 && mc.src != mc.dst, "seed {seed}");
            assert!(mc.delta != 0.0 && mc.delta.is_finite(), "seed {seed}");
            for bc in &plan.block_corruptions {
                assert!(bc.rank < 3, "seed {seed}");
                assert!(bc.delta != 0.0 && bc.delta.is_finite(), "seed {seed}");
            }
            assert_eq!(plan, FaultPlan::seeded_with_corruption(seed, 3));
        }
    }

    proptest::proptest! {
        /// Satellite guarantee: identical seeds yield identical plans —
        /// corruption directives included — both across repeated
        /// construction and when many threads build the plan at once.
        /// Seeded construction must not read any process-global mutable
        /// state, or the chaos grids would stop being reproducible.
        #[test]
        fn prop_seeded_plans_identical_under_concurrent_use(
            seed in 0u64..1u64 << 48,
            nprocs in 2usize..9,
        ) {
            let base = FaultPlan::seeded(seed, nprocs);
            let base_corrupt = FaultPlan::seeded_with_corruption(seed, nprocs);
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    std::thread::spawn(move || {
                        (
                            FaultPlan::seeded(seed, nprocs),
                            FaultPlan::seeded_with_corruption(seed, nprocs),
                        )
                    })
                })
                .collect();
            for h in handles {
                let (plain, corrupt) = h.join().expect("builder thread panicked");
                proptest::prop_assert_eq!(&plain, &base);
                proptest::prop_assert_eq!(&corrupt, &base_corrupt);
            }
            // And again on this thread, after the concurrent burst.
            proptest::prop_assert_eq!(FaultPlan::seeded(seed, nprocs), base);
            proptest::prop_assert_eq!(
                FaultPlan::seeded_with_corruption(seed, nprocs),
                base_corrupt
            );
        }
    }

    #[test]
    fn kill_fires_exactly_at_op() {
        let st = FaultState::new(FaultPlan::new().kill_rank(0, 2), 2);
        assert_eq!(st.before_op(0), 0);
        assert_eq!(st.before_op(0), 1);
        let killed = catch_unwind(AssertUnwindSafe(|| st.before_op(0)));
        let payload = killed.unwrap_err();
        let ik = payload
            .downcast_ref::<InjectedKill>()
            .expect("kill payload");
        assert_eq!(*ik, InjectedKill { rank: 0, op: 2 });
        // Other ranks are unaffected.
        assert_eq!(st.before_op(1), 0);
    }

    #[test]
    fn message_faults_hit_the_nth_edge_message() {
        let st = FaultState::new(
            FaultPlan::new()
                .drop_message(0, 1, 1)
                .delay_message(1, 0, 0, 0.25),
            2,
        );
        assert_eq!(st.on_message(0, 1), MsgAction::Deliver); // nth = 0
        assert_eq!(st.on_message(0, 1), MsgAction::Drop); // nth = 1
        assert_eq!(st.on_message(0, 1), MsgAction::Deliver); // nth = 2
        assert_eq!(st.on_message(1, 0), MsgAction::Delay(0.25));
        assert_eq!(st.on_message(1, 0), MsgAction::Deliver);
    }

    #[test]
    fn corruption_hits_the_nth_edge_message() {
        let st = FaultState::new(FaultPlan::new().corrupt_message(0, 1, 1, 5, 2.0), 2);
        assert_eq!(st.on_message(0, 1), MsgAction::Deliver); // nth = 0
        assert_eq!(
            st.on_message(0, 1),
            MsgAction::Corrupt {
                elem: 5,
                delta: 2.0
            }
        );
        assert_eq!(st.on_message(0, 1), MsgAction::Deliver); // nth = 2
    }

    #[test]
    fn block_corruptions_are_keyed_by_rank_and_step() {
        let st = FaultState::new(
            FaultPlan::new()
                .corrupt_block(1, 2, 3, 0.5)
                .corrupt_block(1, 2, 9, -0.5)
                .corrupt_block(0, 1, 0, 1.0),
            2,
        );
        assert_eq!(st.block_corruptions(1, 2), vec![(3, 0.5), (9, -0.5)]);
        assert_eq!(st.block_corruptions(0, 1), vec![(0, 1.0)]);
        assert!(st.block_corruptions(0, 2).is_empty());
        assert!(st.block_corruptions(1, 0).is_empty());
        // Stateless: repeated queries return the same directives.
        assert_eq!(st.block_corruptions(1, 2), vec![(3, 0.5), (9, -0.5)]);
    }

    #[test]
    fn link_plan_fates_are_deterministic_and_rate_bounded() {
        let plan = LinkPlan::seeded(7)
            .drop_rate(200)
            .duplicate_rate(100)
            .reorder_rate(100)
            .delay_rate(100, 2e-4);
        let mut counts = [0usize; 5]; // deliver, drop, dup, delay, reorder
        let n = 4000u64;
        for seq in 0..n {
            let fate = plan.wire_fate(0, 1, seq, 0);
            assert_eq!(fate, plan.wire_fate(0, 1, seq, 0), "seq {seq} not stable");
            let idx = match fate {
                WireFate::Deliver => 0,
                WireFate::Drop => 1,
                WireFate::Duplicate => 2,
                WireFate::Delay(d) => {
                    assert_eq!(d, 2e-4);
                    3
                }
                WireFate::Reorder => 4,
            };
            counts[idx] += 1;
        }
        // Each configured fault occurs, none dominates far beyond its
        // rate (loose 2x bounds — this is a hash, not an exact sampler).
        assert!(
            counts[1] > 0 && counts[1] < (n as usize) * 2 / 5,
            "{counts:?}"
        );
        for &c in &counts[2..] {
            assert!(c > 0 && c < (n as usize) / 5, "{counts:?}");
        }
        // Different seeds decide differently somewhere.
        let other = LinkPlan::seeded(8).drop_rate(200);
        assert!((0..200).any(|s| plan.wire_fate(0, 1, s, 0) != other.wire_fate(0, 1, s, 0)));
        // Retransmits re-roll: a dropped attempt is not dropped forever.
        let heavy = LinkPlan::seeded(3).drop_rate(500);
        for seq in 0..64 {
            assert!(
                (0..MAX_WIRE_ATTEMPTS).any(|a| heavy.wire_fate(0, 1, seq, a) != WireFate::Drop),
                "seq {seq} dropped on every attempt"
            );
        }
    }

    #[test]
    fn link_drop_override_beats_the_global_rate() {
        let plan = LinkPlan::seeded(1).drop_rate(0).drop_link(0, 2, 1000);
        for seq in 0..32 {
            for attempt in 0..4 {
                assert_eq!(plan.wire_fate(0, 2, seq, attempt), WireFate::Drop);
                assert_eq!(plan.wire_fate(0, 1, seq, attempt), WireFate::Deliver);
                // Only the directed link is dead.
                assert_eq!(plan.wire_fate(2, 0, seq, attempt), WireFate::Deliver);
            }
        }
    }

    #[test]
    fn rto_backoff_is_capped_exponential() {
        assert_eq!(LinkPlan::rto(0), 1e-5);
        assert_eq!(LinkPlan::rto(1), 2e-5);
        assert_eq!(LinkPlan::rto(2), 4e-5);
        assert_eq!(LinkPlan::rto(6), 6.4e-4);
        assert_eq!(LinkPlan::rto(7), 1e-3); // capped
        assert_eq!(LinkPlan::rto(24), 1e-3);
        assert_eq!(LinkPlan::rto(u32::MAX), 1e-3); // exponent clamp, no overflow
    }

    #[test]
    fn hang_fires_exactly_at_op_and_is_silent_in_fates() {
        let st = LinkState::new(LinkPlan::seeded(0).hang_rank(1, 2), 3);
        assert_eq!(st.check_hang(1), None); // op 0
        assert_eq!(st.check_hang(1), None); // op 1
        assert_eq!(st.check_hang(1), Some(2));
        assert_eq!(st.check_hang(0), None);
    }

    #[test]
    fn slowdown_factor_defaults_to_one() {
        let st = FaultState::new(FaultPlan::new().slow_rank(1, 4.0), 3);
        assert_eq!(st.compute_factor(0), 1.0);
        assert_eq!(st.compute_factor(1), 4.0);
        assert_eq!(st.compute_factor(2), 1.0);
    }
}
