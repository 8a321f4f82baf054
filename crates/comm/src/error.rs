//! Typed errors for the communication runtime.
//!
//! Every blocking operation on [`crate::Communicator`] has a `try_`
//! variant returning [`CommResult`]; the historical infallible methods are
//! thin wrappers that panic on error. The taxonomy separates the three
//! conditions a *correct* program can still hit on a faulty platform —
//! a failed peer, a timeout, and a closed inbox — from the one that is
//! always a programming error at the call site (payload type mismatch).

use std::fmt;
use std::time::Duration;

/// Result alias for fallible communicator operations.
pub type CommResult<T> = Result<T, CommError>;

/// Why a communication operation could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// A rank this operation depends on has died (panicked, was killed by
    /// fault injection, or resigned). `rank` is the universe-global rank
    /// of the failed peer.
    PeerFailed {
        /// Universe-global rank of the dead peer.
        rank: usize,
    },
    /// No matching message arrived within the configured receive timeout
    /// (see `Universe::recv_timeout`). Usually a deadlock — e.g. mismatched
    /// collective participation — or a dropped message.
    Timeout {
        /// Universe-global source rank being waited on, if the receive was
        /// source-specific.
        src: Option<usize>,
        /// The tag being waited on.
        tag: u64,
        /// The wall-clock budget that elapsed.
        waited: Duration,
    },
    /// The destination rank's inbox is closed (the rank already died).
    ChannelClosed {
        /// Universe-global rank of the unreachable destination.
        rank: usize,
    },
    /// A payload of one type was extracted as another.
    PayloadType {
        /// The variant the caller asked for.
        expected: &'static str,
        /// The variant actually carried.
        got: &'static str,
    },
    /// A subgroup/split was asked for with an invalid member list (empty,
    /// unsorted, duplicated, or referencing a rank outside the parent
    /// communicator). Always a programming error at the call site.
    InvalidGroup {
        /// What was wrong with the member list.
        reason: String,
    },
    /// The reliable transport gave up on a link after exhausting its
    /// retransmission budget — every attempt was dropped by the link
    /// plan. Names the unreachable destination so recovery can treat the
    /// peer as dead.
    Unreachable {
        /// Universe-global rank of the unreachable destination.
        rank: usize,
        /// Wire attempts made (original send + retransmits).
        attempts: u32,
    },
    /// An ABFT verification found corruption it could not locate and
    /// correct (more than one damaged element, or inconsistent
    /// residuals). An own-cause error: [`RankFailure::crashed_ranks`]
    /// counts the reporting rank, so recovery drops its device rather
    /// than risk a wrong product from it.
    DataCorruption {
        /// Universe-global rank that detected the corruption.
        rank: usize,
        /// Zero-based panel step at which verification failed.
        step: u64,
    },
    /// A wire endpoint violated the framing protocol: a truncated,
    /// oversized, or malformed frame that cannot be decoded into an
    /// envelope. Unlike `Unreachable` (the wire is down) this means the
    /// wire delivered garbage — an own-cause error at the rank whose
    /// endpoint produced it.
    Protocol {
        /// What was wrong with the frame.
        reason: String,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerFailed { rank } => write!(f, "peer rank {rank} failed"),
            CommError::Timeout { src, tag, waited } => match src {
                // Keep the historical panic wording ("(deadlock?)") so
                // long-standing test expectations remain valid; the
                // trailing hint names the peer so a soak log alone is
                // enough to start triage.
                Some(s) => write!(
                    f,
                    "recv timed out waiting for src {s} tag {tag} after {waited:?} \
                     (deadlock?) — peer rank {s} may be hung, dead, or partitioned"
                ),
                None => write!(
                    f,
                    "recv timed out waiting for tag {tag} after {waited:?} (deadlock?)"
                ),
            },
            CommError::ChannelClosed { rank } => {
                write!(f, "rank {rank} is unreachable (inbox closed)")
            }
            CommError::PayloadType { expected, got } => {
                write!(f, "expected {expected} payload, got {got}")
            }
            CommError::InvalidGroup { reason } => {
                write!(f, "invalid subgroup member list: {reason}")
            }
            CommError::Unreachable { rank, attempts } => {
                write!(
                    f,
                    "rank {rank} unreachable: transport gave up after {attempts} wire attempts \
                     (dead peer, refused connection, or partitioned link)"
                )
            }
            CommError::DataCorruption { rank, step } => {
                write!(
                    f,
                    "rank {rank} detected uncorrectable data corruption at panel step {step}"
                )
            }
            CommError::Protocol { reason } => {
                write!(f, "wire protocol violation: {reason}")
            }
        }
    }
}

impl std::error::Error for CommError {}

impl CommError {
    /// The universe-global rank whose death caused this error, if the
    /// error identifies one. Recovery uses this to exclude the rank from
    /// the next attempt.
    pub fn failed_rank(&self) -> Option<usize> {
        match self {
            CommError::PeerFailed { rank }
            | CommError::ChannelClosed { rank }
            | CommError::Unreachable { rank, .. } => Some(*rank),
            _ => None,
        }
    }
}

/// Why a rank terminated abnormally inside `Universe::try_run`.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureCause {
    /// The rank's closure panicked; carries the panic message if it was a
    /// string.
    Panic(String),
    /// The fault plan killed the rank at its `op`-th communication
    /// operation.
    InjectedKill {
        /// Zero-based index of the point-to-point operation at which the
        /// kill fired.
        op: u64,
    },
    /// The rank's closure returned a typed error.
    Error(CommError),
    /// The heartbeat detector declared the rank dead after it went
    /// silent (no death notice was ever posted): the rank hung mid-run
    /// and was only discovered by suspicion.
    DetectedHang {
        /// Zero-based index of the point-to-point operation at which the
        /// silent hang was injected.
        op: u64,
        /// Wall-clock seconds between the rank going silent and the
        /// detector declaring it dead.
        detection_latency: f64,
    },
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureCause::Panic(msg) => write!(f, "panicked: {msg}"),
            FailureCause::InjectedKill { op } => write!(f, "killed by fault plan at op {op}"),
            FailureCause::Error(e) => write!(f, "returned error: {e}"),
            FailureCause::DetectedHang {
                op,
                detection_latency,
            } => write!(
                f,
                "hung silently at op {op}, detected by heartbeat suspicion after {detection_latency:.3}s"
            ),
        }
    }
}

impl FailureCause {
    /// Stable label classifying the cause, used as the key for
    /// per-cause counting in recovery artifacts.
    pub fn kind_label(&self) -> &'static str {
        match self {
            FailureCause::Panic(_) => "panic",
            FailureCause::InjectedKill { .. } => "injected-kill",
            FailureCause::Error(CommError::PeerFailed { .. }) => "peer-failed",
            FailureCause::Error(CommError::Timeout { .. }) => "timeout",
            FailureCause::Error(CommError::ChannelClosed { .. }) => "channel-closed",
            FailureCause::Error(CommError::PayloadType { .. }) => "payload-type",
            FailureCause::Error(CommError::InvalidGroup { .. }) => "invalid-group",
            FailureCause::Error(CommError::Unreachable { .. }) => "unreachable",
            FailureCause::Error(CommError::DataCorruption { .. }) => "data-corruption",
            FailureCause::Error(CommError::Protocol { .. }) => "protocol",
            FailureCause::DetectedHang { .. } => "detected-hang",
        }
    }

    /// Whether the failure was discovered by the heartbeat detector
    /// rather than announced through the death-notice protocol.
    pub fn is_detected(&self) -> bool {
        matches!(self, FailureCause::DetectedHang { .. })
    }
}

/// One abnormally-terminated rank.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedRank {
    /// Universe-global rank.
    pub rank: usize,
    /// What happened to it.
    pub cause: FailureCause,
}

/// Aggregate outcome of a `Universe::try_run` in which at least one rank
/// did not return `Ok`. Ranks that died *and* ranks that merely observed
/// the death (returned `Err(PeerFailed)`) both appear; use
/// [`RankFailure::root_failed_ranks`] to separate cause from effect.
#[derive(Debug, Clone, PartialEq)]
pub struct RankFailure {
    /// Every rank that panicked, was killed, or returned an error, sorted
    /// by rank.
    pub failed: Vec<FailedRank>,
}

impl RankFailure {
    /// The ranks that actually died — panicked, were kill-injected, or are
    /// named as the dead peer by a survivor's `PeerFailed`/`ChannelClosed`
    /// error — deduplicated and sorted. Ranks that only *reported* a
    /// timeout are excluded: a timeout does not identify a culprit.
    pub fn root_failed_ranks(&self) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for fr in &self.failed {
            match &fr.cause {
                FailureCause::Panic(_)
                | FailureCause::InjectedKill { .. }
                | FailureCause::DetectedHang { .. } => out.push(fr.rank),
                FailureCause::Error(e) => {
                    if let Some(r) = e.failed_rank() {
                        out.push(r);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The ranks that genuinely crashed, judged by each rank's *own*
    /// terminal cause: panics, injected kills, and errors originating at
    /// the rank (e.g. a payload-type mismatch). Excluded are ranks that
    /// merely resigned after observing someone else's death (`PeerFailed`,
    /// `ChannelClosed`) or starved on a `Timeout` — a resignation triggers
    /// its own death notice, so third parties may name such a rank dead
    /// even though it was a victim, not a cause. Recovery policies that
    /// shrink a device pool over survivors should use this, not
    /// [`RankFailure::root_failed_ranks`].
    pub fn crashed_ranks(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .failed
            .iter()
            .filter(|fr| match &fr.cause {
                FailureCause::Panic(_)
                | FailureCause::InjectedKill { .. }
                | FailureCause::DetectedHang { .. } => true,
                FailureCause::Error(
                    CommError::PeerFailed { .. }
                    | CommError::ChannelClosed { .. }
                    | CommError::Timeout { .. }
                    | CommError::Unreachable { .. },
                ) => false,
                FailureCause::Error(_) => true,
            })
            .map(|fr| fr.rank)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The peers that some rank exhausted its transport budget against —
    /// the `rank` *blamed* by each `Unreachable` cause, sorted and
    /// deduplicated. The reporting rank is a victim (it resigned after
    /// the wire gave up), but the blamed peer is behind a persistently
    /// dead link: retrying with the same device set replays the same
    /// exhaustion, so recovery policies should shrink these peers out
    /// when [`RankFailure::crashed_ranks`] identifies nobody.
    pub fn unreachable_peers(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .failed
            .iter()
            .filter_map(|fr| match &fr.cause {
                FailureCause::Error(CommError::Unreachable { rank, .. }) => Some(*rank),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl fmt::Display for RankFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rank(s) failed:", self.failed.len())?;
        for fr in &self.failed {
            write!(f, " [rank {} {}]", fr.rank, fr.cause)?;
        }
        Ok(())
    }
}

impl std::error::Error for RankFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_deadlock_wording() {
        let e = CommError::Timeout {
            src: Some(2),
            tag: 7,
            waited: Duration::from_secs(1),
        };
        let s = e.to_string();
        assert!(s.contains("recv timed out waiting for src 2 tag 7"));
        assert!(s.contains("(deadlock?)"));
        let e = CommError::Timeout {
            src: None,
            tag: 9,
            waited: Duration::from_secs(1),
        };
        assert!(e.to_string().contains("waiting for tag 9"));
    }

    #[test]
    fn root_ranks_separate_cause_from_effect() {
        let rf = RankFailure {
            failed: vec![
                FailedRank {
                    rank: 0,
                    cause: FailureCause::Error(CommError::PeerFailed { rank: 1 }),
                },
                FailedRank {
                    rank: 1,
                    cause: FailureCause::InjectedKill { op: 3 },
                },
                FailedRank {
                    rank: 2,
                    cause: FailureCause::Error(CommError::PeerFailed { rank: 1 }),
                },
            ],
        };
        assert_eq!(rf.root_failed_ranks(), vec![1]);
    }

    #[test]
    fn data_corruption_is_an_own_cause_crash() {
        let rf = RankFailure {
            failed: vec![
                FailedRank {
                    rank: 0,
                    cause: FailureCause::Error(CommError::DataCorruption { rank: 0, step: 3 }),
                },
                FailedRank {
                    rank: 1,
                    cause: FailureCause::Error(CommError::PeerFailed { rank: 0 }),
                },
            ],
        };
        // The detecting rank is treated as crashed (its data cannot be
        // trusted), the resigning observer is not.
        assert_eq!(rf.crashed_ranks(), vec![0]);
        let msg = CommError::DataCorruption { rank: 0, step: 3 }.to_string();
        assert!(msg.contains("uncorrectable"), "got: {msg}");
        assert!(msg.contains("step 3"), "got: {msg}");
    }

    #[test]
    fn cause_kind_labels_are_stable() {
        assert_eq!(FailureCause::Panic("x".into()).kind_label(), "panic");
        assert_eq!(
            FailureCause::InjectedKill { op: 2 }.kind_label(),
            "injected-kill"
        );
        assert_eq!(
            FailureCause::Error(CommError::PeerFailed { rank: 1 }).kind_label(),
            "peer-failed"
        );
        assert_eq!(
            FailureCause::Error(CommError::Timeout {
                src: None,
                tag: 0,
                waited: Duration::from_millis(1)
            })
            .kind_label(),
            "timeout"
        );
        assert_eq!(
            FailureCause::Error(CommError::DataCorruption { rank: 0, step: 0 }).kind_label(),
            "data-corruption"
        );
    }

    #[test]
    fn detected_hang_is_a_crash_and_unreachable_names_the_peer() {
        let rf = RankFailure {
            failed: vec![
                FailedRank {
                    rank: 0,
                    cause: FailureCause::Error(CommError::Unreachable {
                        rank: 2,
                        attempts: 31,
                    }),
                },
                FailedRank {
                    rank: 2,
                    cause: FailureCause::DetectedHang {
                        op: 5,
                        detection_latency: 0.042,
                    },
                },
            ],
        };
        // The hung rank is a genuine crash; the sender that gave up on the
        // link is a victim but its error names the culprit.
        assert_eq!(rf.crashed_ranks(), vec![2]);
        assert_eq!(rf.root_failed_ranks(), vec![2]);
        assert!(rf.failed[1].cause.is_detected());
        assert!(!rf.failed[0].cause.is_detected());
        assert_eq!(rf.failed[1].cause.kind_label(), "detected-hang");
        assert_eq!(rf.failed[0].cause.kind_label(), "unreachable");
        let msg = CommError::Unreachable {
            rank: 2,
            attempts: 31,
        }
        .to_string();
        assert!(msg.contains("31 wire attempts"), "got: {msg}");
        let msg = rf.failed[1].cause.to_string();
        assert!(msg.contains("heartbeat suspicion"), "got: {msg}");
    }

    #[test]
    fn protocol_violation_is_an_own_cause_crash() {
        let cause = FailureCause::Error(CommError::Protocol {
            reason: "frame of 0 bytes".into(),
        });
        assert_eq!(cause.kind_label(), "protocol");
        let rf = RankFailure {
            failed: vec![FailedRank { rank: 2, cause }],
        };
        // Garbage on the wire condemns the endpoint that produced it.
        assert_eq!(rf.crashed_ranks(), vec![2]);
        let msg = CommError::Protocol {
            reason: "frame of 0 bytes".into(),
        }
        .to_string();
        assert!(msg.contains("wire protocol violation"), "got: {msg}");
        assert!(msg.contains("frame of 0 bytes"), "got: {msg}");
    }

    #[test]
    fn unreachable_and_timeout_displays_name_the_peer() {
        let msg = CommError::Unreachable {
            rank: 2,
            attempts: 31,
        }
        .to_string();
        assert!(msg.contains("rank 2"), "got: {msg}");
        assert!(msg.contains("31 wire attempts"), "got: {msg}");
        assert!(msg.contains("refused connection"), "got: {msg}");
        let msg = CommError::Timeout {
            src: Some(1),
            tag: 4,
            waited: Duration::from_millis(250),
        }
        .to_string();
        assert!(msg.contains("peer rank 1"), "got: {msg}");
    }

    #[test]
    fn invalid_group_is_an_own_cause_error() {
        let cause = FailureCause::Error(CommError::InvalidGroup {
            reason: "empty member list".into(),
        });
        assert_eq!(cause.kind_label(), "invalid-group");
        let rf = RankFailure {
            failed: vec![FailedRank { rank: 1, cause }],
        };
        assert_eq!(rf.crashed_ranks(), vec![1]);
        assert!(CommError::InvalidGroup {
            reason: "empty member list".into()
        }
        .to_string()
        .contains("empty member list"));
    }

    #[test]
    fn timeouts_alone_name_no_root_failed_rank() {
        let timeout = || {
            FailureCause::Error(CommError::Timeout {
                src: None,
                tag: 0,
                waited: Duration::from_millis(5),
            })
        };
        let rf = RankFailure {
            failed: vec![
                FailedRank {
                    rank: 0,
                    cause: timeout(),
                },
                FailedRank {
                    rank: 2,
                    cause: timeout(),
                },
            ],
        };
        assert!(rf.root_failed_ranks().is_empty());
    }
}
