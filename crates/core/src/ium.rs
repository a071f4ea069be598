//! The Immediate Update Mimicker (§5.1).
//!
//! On a real processor the predictor tables are only updated at retire, so
//! a hot entry can supply several stale predictions in a row. The IUM
//! tracks, for every in-flight branch, *which predictor entry* provided its
//! prediction. When a new prediction comes from the same (component, entry)
//! as an **already executed but not yet retired** branch, the IUM answers
//! with that branch's actual outcome instead of the stale TAGE prediction —
//! mimicking an immediately updated table.
//!
//! Implemented as the paper describes: a small fully-associative structure
//! with one entry per in-flight branch, managed as a circular buffer (the
//! same repair discipline as the global history: mispredictions reinitialize
//! the head, which trace-driven simulation models implicitly).
//!
//! Almost every query matches nothing, so the simulator avoids the scan
//! of the associative search where it can: next to the ring it counts
//! the executed records per hashed (component, entry) key, and only a
//! query whose key bucket holds one scans the ring. The counts are
//! simulator bookkeeping, not modelled storage.

/// Most outcomes one query returns (the replay onto a 3-bit counter
/// saturates long before).
const MAX_OUTCOMES: u32 = 64;

/// Key buckets per ring slot: with a full window about one query in
/// sixteen lands in a bucket holding some other entry's record.
const BUCKETS_PER_SLOT: usize = 8;

/// One in-flight record: the providing entry and the P/E state (Figure 4).
#[derive(Clone, Copy, Debug, Default)]
struct Record {
    key: u64,
    executed: bool,
    outcome: bool,
}

/// The (component, entry) pair a record is matched on.
#[inline]
fn key(comp: u8, index: u32) -> u64 {
    (u64::from(comp) << 32) | u64::from(index)
}

/// The outcomes of the executed, not yet retired occurrences of one
/// entry, oldest first, at most 64 of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Bit `i` is the `i`-th oldest outcome.
    bits: u64,
    len: u32,
}

impl Outcomes {
    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no executed in-flight occurrence matched.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The outcomes, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = bool> {
        let bits = self.bits;
        (0..self.len).map(move |i| (bits >> i) & 1 == 1)
    }

    fn push(&mut self, outcome: bool) {
        self.bits |= u64::from(outcome) << self.len;
        self.len += 1;
    }
}

/// The Immediate Update Mimicker.
#[derive(Clone, Debug)]
pub struct Ium {
    ring: Vec<Record>,
    /// Executed records in the ring, per key bucket.
    executed_per_bucket: Vec<u32>,
    bucket_shift: u32,
    head_seq: u64,
    tail_seq: u64,
    overrides: u64,
}

impl Ium {
    /// An IUM with capacity for `capacity` in-flight branches.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two(), "IUM capacity must be a power of two");
        let buckets = capacity * BUCKETS_PER_SLOT;
        Self {
            ring: vec![Record::default(); capacity],
            executed_per_bucket: vec![0; buckets],
            bucket_shift: 64 - buckets.trailing_zeros(),
            head_seq: 0,
            tail_seq: 0,
            overrides: 0,
        }
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq as usize) & (self.ring.len() - 1)
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.bucket_shift) as usize
    }

    /// Collects the outcomes of every **executed, not yet retired**
    /// occurrence of entry (component, index), oldest first. These are
    /// the updates an immediately updated table would already have
    /// absorbed — the caller replays them onto the stale counter value to
    /// *mimic* the immediate update (§5.1).
    #[inline]
    pub fn executed_outcomes(&self, comp: u8, index: u32) -> Outcomes {
        let key = key(comp, index);
        let bucket = self.bucket(key);
        let mut unseen = self.executed_per_bucket[bucket];
        let mut out = Outcomes::default();
        let mut seq = self.tail_seq;
        // Stop once every executed record of this bucket has been seen.
        while unseen > 0 && seq < self.head_seq && out.len < MAX_OUTCOMES {
            let r = self.ring[self.slot(seq)];
            if r.executed && self.bucket(r.key) == bucket {
                unseen -= 1;
                if r.key == key {
                    out.push(r.outcome);
                }
            }
            seq += 1;
        }
        out
    }

    /// Notes that a mimicked prediction differed from the stale one.
    pub fn note_override(&mut self) {
        self.overrides += 1;
    }

    /// Records a fetched branch's provider entry. Returns the sequence
    /// handle used by [`Ium::mark_executed`] and [`Ium::retire`].
    pub fn push(&mut self, comp: u8, index: u32) -> u64 {
        if self.len() == self.ring.len() {
            // The window outran the buffer: drop the oldest record. Its
            // branch is still in flight; its retire finds nothing to do.
            self.drop_oldest();
        }
        let seq = self.head_seq;
        let slot = self.slot(seq);
        self.ring[slot] = Record { key: key(comp, index), executed: false, outcome: false };
        self.head_seq += 1;
        seq
    }

    /// Marks an in-flight branch executed with its resolved outcome.
    pub fn mark_executed(&mut self, seq: u64, outcome: bool) {
        if seq >= self.tail_seq && seq < self.head_seq {
            let slot = self.slot(seq);
            let r = self.ring[slot];
            if !r.executed {
                let bucket = self.bucket(r.key);
                self.executed_per_bucket[bucket] += 1;
            }
            self.ring[slot] = Record { executed: true, outcome, ..r };
        }
    }

    /// Retires the branch holding handle `seq`. Branches retire in
    /// program order, so its record, when the ring still holds it, is the
    /// oldest; when the ring already dropped it, there is nothing to do.
    pub fn retire(&mut self, seq: u64) {
        while self.tail_seq <= seq && self.tail_seq < self.head_seq {
            self.drop_oldest();
        }
    }

    fn drop_oldest(&mut self) {
        let r = self.ring[self.slot(self.tail_seq)];
        if r.executed {
            let bucket = self.bucket(r.key);
            self.executed_per_bucket[bucket] -= 1;
        }
        self.tail_seq += 1;
    }

    /// Number of predictions the IUM has overridden so far.
    pub fn override_count(&self) -> u64 {
        self.overrides
    }

    /// Live in-flight records.
    pub fn len(&self) -> usize {
        (self.head_seq - self.tail_seq) as usize
    }

    /// True when no branch is in flight.
    pub fn is_empty(&self) -> bool {
        self.head_seq == self.tail_seq
    }

    /// Storage estimate in bits: component (4) + index (24) + P/E (1) +
    /// outcome (1) per in-flight entry.
    pub fn storage_bits(&self) -> u64 {
        self.ring.len() as u64 * 30
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn outcomes(ium: &Ium, comp: u8, index: u32) -> Vec<bool> {
        ium.executed_outcomes(comp, index).iter().collect()
    }

    #[test]
    fn executed_entry_matches() {
        let mut ium = Ium::new(8);
        let seq = ium.push(3, 0x55);
        assert!(ium.executed_outcomes(3, 0x55).is_empty(), "not executed yet");
        ium.mark_executed(seq, true);
        assert_eq!(outcomes(&ium, 3, 0x55), [true]);
    }

    #[test]
    fn outcomes_come_oldest_first() {
        let mut ium = Ium::new(8);
        let a = ium.push(1, 9);
        let b = ium.push(1, 9);
        let c = ium.push(1, 9);
        ium.mark_executed(c, true);
        ium.mark_executed(a, false);
        ium.mark_executed(b, true);
        assert_eq!(outcomes(&ium, 1, 9), [false, true, true]);
    }

    #[test]
    fn retired_entries_stop_matching() {
        let mut ium = Ium::new(8);
        let seq = ium.push(2, 7);
        ium.mark_executed(seq, true);
        ium.retire(seq);
        assert!(ium.executed_outcomes(2, 7).is_empty());
        assert!(ium.is_empty());
    }

    #[test]
    fn different_entries_do_not_match() {
        let mut ium = Ium::new(8);
        let seq = ium.push(2, 7);
        ium.mark_executed(seq, true);
        assert!(ium.executed_outcomes(2, 8).is_empty());
        assert!(ium.executed_outcomes(3, 7).is_empty());
    }

    #[test]
    fn overflow_drops_the_oldest() {
        let mut ium = Ium::new(4);
        let seqs: Vec<u64> = (0..6).map(|i| ium.push(0, i)).collect();
        assert_eq!(ium.len(), 4);
        // The two oldest were dropped.
        ium.mark_executed(seqs[0], true);
        assert!(ium.executed_outcomes(0, 0).is_empty());
        ium.mark_executed(seqs[2], true);
        assert_eq!(outcomes(&ium, 0, 2), [true]);
    }

    #[test]
    fn a_ring_smaller_than_the_window_keeps_its_newest_records() {
        // Capacity 8 behind a 20-deep window, every branch executed at
        // fetch: retiring a branch whose record the ring already dropped
        // must not drop a younger branch's record.
        let mut ium = Ium::new(8);
        let mut window = std::collections::VecDeque::new();
        for i in 0..100 {
            let seq = ium.push(0, i);
            ium.mark_executed(seq, true);
            window.push_back(seq);
            if window.len() > 20 {
                ium.retire(window.pop_front().unwrap());
            }
        }
        assert_eq!(ium.len(), 8);
        for i in 92..100 {
            assert_eq!(outcomes(&ium, 0, i), [true], "record {i} lost");
        }
        assert!(ium.executed_outcomes(0, 91).is_empty());
    }

    #[test]
    fn at_most_64_outcomes() {
        let mut ium = Ium::new(128);
        for i in 0..100 {
            let seq = ium.push(5, 5);
            ium.mark_executed(seq, i % 3 == 0);
        }
        let got = outcomes(&ium, 5, 5);
        let want: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn storage_is_small() {
        assert!(Ium::new(64).storage_bits() < 4096);
    }

    /// A record of the linear-scan oracle.
    struct Rec {
        seq: u64,
        comp: u8,
        index: u32,
        executed: bool,
        outcome: bool,
    }

    proptest! {
        /// Against a linear scan of every live record: random push,
        /// execute, retire (program order) and query sequences, with the
        /// in-flight window free to outgrow the ring.
        #[test]
        fn keyed_match_equals_a_linear_scan(
            cap_sel in 0usize..3,
            ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..600),
        ) {
            let cap = [4usize, 64, 128][cap_sel];
            let mut ium = Ium::new(cap);
            let mut oracle: Vec<Rec> = Vec::new();
            // Handles of fetched, not yet retired branches, oldest first.
            let mut window: Vec<u64> = Vec::new();
            for (op, r) in ops {
                // A small key space, so matches and bucket sharing occur.
                let comp = (r % 3) as u8;
                let index = ((r >> 8) % 5) as u32;
                match op {
                    0 => {
                        let seq = ium.push(comp, index);
                        if oracle.len() == cap {
                            oracle.remove(0);
                        }
                        oracle.push(Rec { seq, comp, index, executed: false, outcome: false });
                        window.push(seq);
                    }
                    1 if !window.is_empty() => {
                        let k = (r >> 16) as usize % window.len();
                        let seq = window[k];
                        let outcome = (r >> 40) & 1 == 1;
                        ium.mark_executed(seq, outcome);
                        if let Some(rec) = oracle.iter_mut().find(|x| x.seq == seq) {
                            rec.executed = true;
                            rec.outcome = outcome;
                        }
                    }
                    2 if !window.is_empty() => {
                        let seq = window.remove(0);
                        ium.retire(seq);
                        oracle.retain(|x| x.seq > seq);
                    }
                    _ => {
                        let want: Vec<bool> = oracle
                            .iter()
                            .filter(|x| x.executed && x.comp == comp && x.index == index)
                            .map(|x| x.outcome)
                            .take(64)
                            .collect();
                        prop_assert_eq!(outcomes(&ium, comp, index), want);
                    }
                }
                prop_assert_eq!(ium.len(), oracle.len());
            }
        }
    }
}
