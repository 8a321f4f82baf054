//! Seeded crash injection for the `reproduce crash` harness.
//!
//! A [`CrashSpec`] names a deterministic kill point: the service counts
//! journal-relevant events (admissions, batch dispatches, appends,
//! checkpoint instants; compaction appends nothing and is not one) and
//! crashes when the counter reaches
//! `at_event`, with [`CrashKind`] deciding what the crash does to the
//! journal at that moment. Both the event index and the kind are drawn
//! from the harness seed via a splitmix fold, so the same seed always
//! kills the same cycle at the same place — which is what makes
//! `CRASH_*.json` artifacts reproducible run-to-run.

/// What a crash does at its kill point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Die right after an admission decision: the admission record (and
    /// anything else pending) never flushes.
    AtAdmission,
    /// Die right after a batch dispatch: the batch is mid-flight and
    /// its lazy records may be lost.
    MidBatch,
    /// Die mid-journal-append: pending records are force-flushed and
    /// then the durable tail is torn `torn_bytes` bytes mid-record, so
    /// recovery must discard a partial frame.
    MidAppend { torn_bytes: u32 },
    /// Die between a panel checkpoint's data write and its journal
    /// record: the checkpoint record about to be journaled is dropped,
    /// so recovery must fall back to the previous durable boundary.
    MidCheckpoint,
    /// Die inside a compaction of the journal, before the image replaces
    /// the old bytes (`swapped: false`) or right after (`swapped: true`).
    /// Compaction appends nothing, so it is no journal event: this kind
    /// fires at the first compaction once the event counter has reached
    /// the kill point (0 reaches a restart's own compaction). Only tests
    /// arm it; [`CrashSpec::draw`] never draws it.
    MidCompaction { swapped: bool },
}

impl CrashKind {
    pub fn label(self) -> &'static str {
        match self {
            CrashKind::AtAdmission => "at-admission",
            CrashKind::MidBatch => "mid-batch",
            CrashKind::MidAppend { .. } => "mid-append",
            CrashKind::MidCheckpoint => "mid-checkpoint",
            CrashKind::MidCompaction { .. } => "mid-compaction",
        }
    }
}

/// One cycle's kill point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Crash when the service's journal-event counter reaches this
    /// value (1-based: the Nth event is the last thing that happens).
    pub at_event: u64,
    pub kind: CrashKind,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CrashSpec {
    /// Draws cycle `cycle`'s kill point from `seed`. `max_event` bounds
    /// the event index (the harness passes the event count of the
    /// crash-free control so kill points land inside the run).
    pub fn draw(seed: u64, cycle: u64, max_event: u64) -> CrashSpec {
        let h = splitmix(seed ^ splitmix(cycle.wrapping_mul(0x5851_F42D_4C95_7F2D)));
        let at_event = 1 + h % max_event.max(1);
        let k = splitmix(h);
        let kind = match k % 4 {
            0 => CrashKind::AtAdmission,
            1 => CrashKind::MidBatch,
            2 => CrashKind::MidAppend {
                torn_bytes: 1 + (splitmix(k) % 9) as u32,
            },
            _ => CrashKind::MidCheckpoint,
        };
        CrashSpec { at_event, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic() {
        for cycle in 0..50 {
            let a = CrashSpec::draw(7, cycle, 1000);
            let b = CrashSpec::draw(7, cycle, 1000);
            assert_eq!(a, b);
            assert!(a.at_event >= 1 && a.at_event <= 1000);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let same = (0..32)
            .filter(|&c| CrashSpec::draw(1, c, 1_000_000) == CrashSpec::draw(2, c, 1_000_000))
            .count();
        assert!(same < 4, "seeds should decorrelate kill points");
    }

    #[test]
    fn all_kinds_are_drawn() {
        let mut seen = [false; 4];
        for cycle in 0..64 {
            match CrashSpec::draw(11, cycle, 100).kind {
                CrashKind::AtAdmission => seen[0] = true,
                CrashKind::MidBatch => seen[1] = true,
                CrashKind::MidAppend { torn_bytes } => {
                    assert!(torn_bytes >= 1);
                    seen[2] = true;
                }
                CrashKind::MidCheckpoint => seen[3] = true,
                CrashKind::MidCompaction { .. } => panic!("draw never draws a compaction kill"),
            }
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn torn_bytes_stay_small() {
        for cycle in 0..128 {
            if let CrashKind::MidAppend { torn_bytes } = CrashSpec::draw(3, cycle, 500).kind {
                assert!((1..=9).contains(&torn_bytes));
            }
        }
    }
}
