//! Tagged predictor components (tables T1..TM) and the [`TaggedBank`]
//! that groups them.
//!
//! Each entry holds a 3-bit prediction counter `ctr` (sign = prediction),
//! a partial tag and a useful bit `u` (Figure 2 of the paper). Tables are
//! indexed with a hash of the PC, a folded global history of the table's
//! geometric length, and folded path history; tags use two differently
//! folded histories so index- and tag-aliasing are decorrelated.
//!
//! [`TaggedBank`] owns the table group *and its allocation/update
//! policy*: the randomized non-consecutive allocation of §3.2.1, the
//! 8-bit tick monitor driving the global u-bit reset of §3.2.2, and the
//! provider-entry training write. It is one of the three parts
//! [`Tage`](crate::Tage) owns, with the base and the chooser.

use crate::banking::interleaved_index;
use crate::config::{TageConfig, MAX_TAGGED};
use simkit::bits::mask;
use simkit::counter::SignedCounter;
use simkit::history::{FoldedHistory, GlobalHistory, PathHistory};
use simkit::stats::AccessStats;

/// One entry of a tagged component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaggedEntry {
    /// Prediction counter; sign provides the prediction.
    pub ctr: SignedCounter,
    /// Partial tag.
    pub tag: u16,
    /// Useful bit (replacement guard, §3.2.2).
    pub u: bool,
}

/// The in-memory representation of one entry: the counter *value* only
/// (its width is a per-table constant), packed to 4 bytes so the large
/// quasi-randomly indexed tables waste as little cache as possible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PackedEntry {
    ctr: i8,
    tag: u16,
    u: bool,
}

/// A tagged component table.
///
/// Everything the per-branch hash needs beyond the folded histories is
/// a per-table constant, derived once here: the path-history mask, the
/// PC shift, the index and tag masks and the counter range.
#[derive(Clone, Debug)]
pub struct TaggedTable {
    entries: Vec<PackedEntry>,
    size_bits: u32,
    tag_width: u8,
    ctr_bits: u8,
    hist_len: usize,
    /// `mask(min(16, hist_len))`: the path bits mixed into the index.
    path_mask: u64,
    /// `64 - size_bits`: scales the multiplicative path hash to an index.
    path_shift: u32,
    /// `size_bits - (table_num & 3)`: the per-table PC fold distance.
    pc_shift: u32,
    index_mask: usize,
    tag_mask: u64,
    ctr_min: i8,
    ctr_max: i8,
    folded_idx: FoldedHistory,
    folded_tag0: FoldedHistory,
    folded_tag1: FoldedHistory,
}

impl TaggedTable {
    /// Creates table `table_num` (1-based) with `2^size_bits` entries,
    /// `tag_width`-bit tags and history length `hist_len`.
    pub fn new(table_num: usize, size_bits: u32, tag_width: u8, hist_len: usize, ctr_bits: u8) -> Self {
        assert!(hist_len >= 1, "tagged table history length must be positive");
        // The packed counter is an i8; every configured width fits.
        assert!(ctr_bits <= 8, "tagged counter width {ctr_bits} exceeds the packed entry");
        let ctr = SignedCounter::new(ctr_bits);
        let empty = PackedEntry { ctr: ctr.get() as i8, tag: 0, u: false };
        Self {
            entries: vec![empty; 1 << size_bits],
            size_bits,
            tag_width,
            ctr_bits,
            hist_len,
            path_mask: mask(16.min(hist_len as u32)),
            path_shift: 64 - size_bits,
            pc_shift: size_bits - (table_num as u32 & 3),
            index_mask: (1 << size_bits) - 1,
            tag_mask: mask(u32::from(tag_width)),
            ctr_min: ctr.min() as i8,
            ctr_max: ctr.max() as i8,
            folded_idx: FoldedHistory::new(hist_len, size_bits),
            folded_tag0: FoldedHistory::new(hist_len, u32::from(tag_width)),
            folded_tag1: FoldedHistory::new(hist_len, u32::from(tag_width).saturating_sub(1).max(1)),
        }
    }

    /// Advances the folded histories after a [`GlobalHistory::push`].
    /// All three folds share this table's history length, so the two
    /// history bits they consume are read once.
    #[inline]
    pub fn update_history(&mut self, gh: &GlobalHistory) {
        self.fold_in(gh.bit(0), gh.bit(self.hist_len));
    }

    /// [`TaggedTable::update_history`] with the newest history bit
    /// supplied by the caller (it is the same for every table).
    #[inline]
    fn fold_in(&mut self, in_bit: u64, out_bit: u64) {
        self.folded_idx.update_split(in_bit, out_bit);
        self.folded_tag0.update_split(in_bit, out_bit);
        self.folded_tag1.update_split(in_bit, out_bit);
    }

    /// Table index for this (PC, history, path).
    #[inline]
    pub fn index(&self, pc: u64, path: &PathHistory) -> usize {
        let pc = pc >> 2;
        let pmix = (path.value() & self.path_mask).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.path_shift;
        let h = self.folded_idx.value();
        ((pc ^ (pc >> self.pc_shift) ^ h ^ pmix) as usize) & self.index_mask
    }

    /// Partial tag for this (PC, history).
    #[inline]
    pub fn tag(&self, pc: u64) -> u16 {
        let pc = pc >> 2;
        ((pc ^ self.folded_tag0.value() ^ (self.folded_tag1.value() << 1)) & self.tag_mask) as u16
    }

    /// Reads an entry.
    #[inline]
    pub fn entry(&self, index: usize) -> TaggedEntry {
        let e = self.entries[index];
        TaggedEntry {
            ctr: SignedCounter::with_value(self.ctr_bits, i16::from(e.ctr)),
            tag: e.tag,
            u: e.u,
        }
    }

    /// The counter value stored at `index` (the packed field, no
    /// [`SignedCounter`] round trip).
    #[inline]
    pub fn ctr(&self, index: usize) -> i8 {
        self.entries[index].ctr
    }

    /// Whether the entry at `index` carries `tag`, and its useful bit.
    #[inline]
    pub fn probe(&self, index: usize, tag: u16) -> (bool, bool) {
        let e = self.entries[index];
        (e.tag == tag, e.u)
    }

    /// Writes an entry, returning whether the stored value changed.
    ///
    /// Counter widths are uniform within a table, so comparing packed
    /// values is exactly the old whole-entry comparison.
    #[inline]
    pub fn write(&mut self, index: usize, entry: TaggedEntry) -> bool {
        self.store(index, PackedEntry { ctr: entry.ctr.get() as i8, tag: entry.tag, u: entry.u })
    }

    #[inline]
    fn store(&mut self, index: usize, packed: PackedEntry) -> bool {
        let slot = &mut self.entries[index];
        let changed = *slot != packed;
        *slot = packed;
        changed
    }

    /// Moves the counter at `index` one step toward `outcome` from the
    /// carried (possibly stale) value `ctr_val`, setting the useful bit
    /// when `set_u`; returns whether the stored entry changed.
    #[inline]
    fn train(&mut self, index: usize, ctr_val: i8, outcome: bool, set_u: bool) -> bool {
        let ctr = if outcome {
            if ctr_val < self.ctr_max { ctr_val + 1 } else { ctr_val }
        } else if ctr_val > self.ctr_min {
            ctr_val - 1
        } else {
            ctr_val
        };
        let e = self.entries[index];
        self.store(index, PackedEntry { ctr, tag: e.tag, u: e.u || set_u })
    }

    /// Clears every useful bit (the §3.2.2 global reset).
    pub fn reset_useful(&mut self) {
        for e in &mut self.entries {
            e.u = false;
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table has no entries (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Geometric history length of this table.
    pub fn hist_len(&self) -> usize {
        self.hist_len
    }

    /// log2 of the entry count (the bank-interleaving index width).
    pub fn size_bits(&self) -> u32 {
        self.size_bits
    }

    /// Tag width in bits.
    pub fn tag_width(&self) -> u8 {
        self.tag_width
    }

    /// Storage in bits (ctr + u + tag per entry).
    pub fn storage_bits(&self, ctr_bits: u8) -> u64 {
        self.entries.len() as u64 * (u64::from(ctr_bits) + 1 + u64::from(self.tag_width))
    }

    /// Fraction of entries with the useful bit set (diagnostics).
    pub fn useful_fraction(&self) -> f64 {
        self.entries.iter().filter(|e| e.u).count() as f64 / self.entries.len() as f64
    }
}

/// The tagged tables T1..TM plus their allocation and
/// update policy (§3.2). Owns the per-bank control state the fused
/// predictor used to carry — the 8-bit allocation tick, its saturation
/// threshold, and the LFSR that randomizes allocation starts.
#[derive(Clone, Debug)]
pub struct TaggedBank {
    tables: Vec<TaggedTable>,
    tick: u16,
    tick_max: u16,
    lfsr: u64,
    max_alloc: usize,
    ctr_bits: u8,
}

impl TaggedBank {
    /// Builds the bank a configuration describes.
    pub fn new(cfg: &TageConfig) -> Self {
        let lengths = cfg.history_lengths();
        let tables = (0..cfg.num_tagged)
            .map(|i| {
                TaggedTable::new(
                    i + 1,
                    cfg.table_size_bits[i],
                    cfg.tag_widths[i],
                    lengths[i],
                    cfg.ctr_bits,
                )
            })
            .collect();
        Self {
            tables,
            tick: 0,
            tick_max: 255,
            lfsr: 0x1234_5678_9ABC_DEF1,
            max_alloc: cfg.max_alloc,
            ctr_bits: cfg.ctr_bits,
        }
    }

    /// Number of tagged tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the bank has no tables (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The tables, in component order.
    pub fn tables(&self) -> &[TaggedTable] {
        &self.tables
    }

    /// Prediction counter width.
    pub fn ctr_bits(&self) -> u8 {
        self.ctr_bits
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        self.lfsr ^= self.lfsr << 13;
        self.lfsr ^= self.lfsr >> 7;
        self.lfsr ^= self.lfsr << 17;
        self.lfsr
    }

    /// Fetch-time key computation: per-table index (bank-interleaved when
    /// `ibank` is set) and tag.
    #[inline]
    pub fn compute_keys(
        &self,
        pc: u64,
        path: &PathHistory,
        ibank: Option<u8>,
        indices: &mut [u32; MAX_TAGGED],
        tags: &mut [u16; MAX_TAGGED],
    ) {
        for (t, table) in self.tables.iter().enumerate() {
            let mut idx = table.index(pc, path);
            if let Some(bk) = ibank {
                idx = interleaved_index(idx, bk, table.size_bits());
            }
            indices[t] = idx as u32;
            tags[t] = table.tag(pc);
        }
    }

    /// Reads every table at the carried indices: returns the tag-hit mask
    /// and the useful-bit mask (bit `t` = table `t`). Counters are read
    /// separately, only for the provider and alternate
    /// ([`TaggedBank::ctr`]).
    #[inline]
    pub fn read(&self, indices: &[u32; MAX_TAGGED], tags: &[u16; MAX_TAGGED]) -> (u16, u16) {
        let mut hits = 0u16;
        let mut us = 0u16;
        for (t, table) in self.tables.iter().enumerate() {
            let (hit, u) = table.probe(indices[t] as usize, tags[t]);
            hits |= u16::from(hit) << t;
            us |= u16::from(u) << t;
        }
        (hits, us)
    }

    /// The counter value of table `table` at `index`.
    #[inline]
    pub fn ctr(&self, table: usize, index: u32) -> i8 {
        self.tables[table].ctr(index as usize)
    }

    /// Trains the provider entry at retire (§3.2): the counter moves
    /// toward the outcome from the carried (possibly stale) value
    /// `ctr_val`; the useful bit is set when `set_u`. Counter and u bit
    /// live in the same entry — one write.
    pub fn train_provider(
        &mut self,
        table: usize,
        index: usize,
        ctr_val: i8,
        outcome: bool,
        set_u: bool,
        stats: &mut AccessStats,
    ) {
        let changed = self.tables[table].train(index, ctr_val, outcome, set_u);
        stats.record_write(changed);
    }

    /// Allocates new entries on mispredictions (§3.2.1) and maintains the
    /// u-bit reset monitor (§3.2.2). `first` is the first table eligible
    /// for allocation (one past the provider); `us` holds the useful bits
    /// read at the carried indices (bit `t` = table `t`).
    pub fn allocate(
        &mut self,
        indices: &[u32; MAX_TAGGED],
        tags: &[u16; MAX_TAGGED],
        us: u16,
        first: usize,
        outcome: bool,
        stats: &mut AccessStats,
    ) {
        let m = self.tables.len();
        if first >= m {
            return;
        }
        // Randomized start (avoids ping-pong between competing branches).
        let mut k = first;
        if m - first > 1 && self.next_rand() & 1 == 0 {
            k += 1;
        }
        let mut allocated = 0;
        while k < m && allocated < self.max_alloc {
            if us & (1 << k) == 0 {
                // Weakly toward the outcome (counter 0 or -1), fresh tag,
                // not yet useful.
                let entry = PackedEntry { ctr: if outcome { 0 } else { -1 }, tag: tags[k], u: false };
                let changed = self.tables[k].store(indices[k] as usize, entry);
                stats.record_write(changed);
                // Success: decrement the failure monitor.
                self.tick = self.tick.saturating_sub(1);
                allocated += 1;
                k += 2; // non-consecutive tables
            } else {
                // Failure: increment; on saturation reset all u bits.
                self.tick += 1;
                if self.tick >= self.tick_max {
                    for t in &mut self.tables {
                        t.reset_useful();
                    }
                    self.tick = 0;
                }
                k += 1;
            }
        }
    }

    /// Advances every table's folded histories after a
    /// [`GlobalHistory::push`].
    #[inline]
    pub fn update_history(&mut self, gh: &GlobalHistory) {
        let in_bit = gh.bit(0);
        for t in &mut self.tables {
            let out_bit = gh.bit(t.hist_len);
            t.fold_in(in_bit, out_bit);
        }
    }

    /// Total bank storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.tables.iter().map(|t| t.storage_bits(self.ctr_bits)).sum()
    }

    /// Fraction of useful bits currently set, per table (diagnostics).
    pub fn useful_fractions(&self) -> Vec<f64> {
        self.tables.iter().map(TaggedTable::useful_fraction).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TaggedTable {
        TaggedTable::new(3, 10, 9, 17, 3)
    }

    #[test]
    fn index_and_tag_in_range() {
        let mut gh = GlobalHistory::new();
        let mut path = PathHistory::new(16);
        let mut t = table();
        let mut rng = simkit::rng::Xoshiro256::seed_from(1);
        for _ in 0..1000 {
            gh.push(rng.gen_bool(0.5));
            t.update_history(&gh);
            path.push(rng.next_u64());
            let pc = rng.next_u64();
            assert!(t.index(pc, &path) < t.len());
            assert!(t.tag(pc) < (1 << 9));
        }
    }

    #[test]
    fn different_histories_different_indices() {
        let mut gh = GlobalHistory::new();
        let path = PathHistory::new(16);
        let mut t = table();
        let pc = 0x40_0040;
        let mut indices = std::collections::HashSet::new();
        let mut rng = simkit::rng::Xoshiro256::seed_from(2);
        for _ in 0..64 {
            gh.push(rng.gen_bool(0.5));
            t.update_history(&gh);
            indices.insert(t.index(pc, &path));
        }
        assert!(indices.len() > 30, "indices poorly spread: {}", indices.len());
    }

    #[test]
    fn index_spread_is_roughly_uniform() {
        let mut gh = GlobalHistory::new();
        let mut path = PathHistory::new(16);
        let mut t = table();
        let mut counts = vec![0u32; t.len()];
        let mut rng = simkit::rng::Xoshiro256::seed_from(3);
        for _ in 0..40_000 {
            gh.push(rng.gen_bool(0.5));
            t.update_history(&gh);
            path.push(rng.next_u64());
            counts[t.index(rng.next_u64() << 2, &path)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 160 && min > 5, "spread min={min} max={max}");
    }

    #[test]
    fn write_detects_silent() {
        let mut t = table();
        let e = t.entry(5);
        assert!(!t.write(5, e), "identical write should be silent");
        let mut e2 = e;
        e2.tag = 0x1F;
        assert!(t.write(5, e2));
    }

    #[test]
    fn reset_useful_clears_all() {
        let mut t = table();
        for i in 0..t.len() {
            let mut e = t.entry(i);
            e.u = true;
            t.write(i, e);
        }
        assert!((t.useful_fraction() - 1.0).abs() < 1e-9);
        t.reset_useful();
        assert_eq!(t.useful_fraction(), 0.0);
    }

    /// Fills `t` with random entries (counters across the full range).
    fn scramble(t: &mut TaggedTable, seed: u64) {
        let mut rng = simkit::rng::Xoshiro256::seed_from(seed);
        for i in 0..t.len() {
            let e = TaggedEntry {
                ctr: SignedCounter::with_value(3, rng.gen_range(8) as i16 - 4),
                tag: (rng.next_u64() & 0x1FF) as u16,
                u: rng.gen_bool(0.5),
            };
            t.write(i, e);
        }
    }

    #[test]
    fn packed_reads_match_entry() {
        let mut t = table();
        scramble(&mut t, 4);
        for i in 0..t.len() {
            let e = t.entry(i);
            assert_eq!(i16::from(t.ctr(i)), e.ctr.get());
            assert_eq!(t.probe(i, e.tag), (true, e.u));
            assert_eq!(t.probe(i, e.tag ^ 1), (false, e.u));
        }
    }

    #[test]
    fn bank_read_masks_match_entries() {
        let cfg = TageConfig { table_size_bits: vec![8; 12], ..TageConfig::reference_64kb() };
        let mut bank = TaggedBank::new(&cfg);
        for (t, table) in bank.tables.iter_mut().enumerate() {
            scramble(table, 10 + t as u64);
        }
        let mut rng = simkit::rng::Xoshiro256::seed_from(5);
        for _ in 0..2000 {
            let mut indices = [0u32; MAX_TAGGED];
            let mut tags = [0u16; MAX_TAGGED];
            let (mut hits, mut us) = (0u16, 0u16);
            for (t, table) in bank.tables().iter().enumerate() {
                indices[t] = rng.gen_range(table.len() as u64) as u32;
                let e = table.entry(indices[t] as usize);
                // Half the probes carry the stored tag.
                tags[t] = if rng.gen_bool(0.5) { e.tag } else { e.tag ^ 0x4 };
                hits |= u16::from(tags[t] == e.tag) << t;
                us |= u16::from(e.u) << t;
            }
            assert_eq!(bank.read(&indices, &tags), (hits, us));
        }
    }

    #[test]
    fn training_matches_the_counter_update() {
        // Every counter value, outcome and useful-bit case against the
        // SignedCounter path the packed update replaced.
        let mut t = table();
        for ctr in -4i8..=3 {
            for outcome in [false, true] {
                for (u, set_u) in [(false, false), (false, true), (true, false)] {
                    t.write(0, TaggedEntry { ctr: SignedCounter::with_value(3, 0), tag: 9, u });
                    let mut want = t.entry(0);
                    let mut c = SignedCounter::with_value(3, i16::from(ctr));
                    c.update(outcome);
                    want.ctr = c;
                    want.u |= set_u;
                    let changed = t.train(0, ctr, outcome, set_u);
                    assert_eq!(t.entry(0), want, "ctr {ctr} outcome {outcome} u {u} set_u {set_u}");
                    assert_eq!(changed, want.ctr.get() != 0 || want.u != u);
                }
            }
        }
    }

    #[test]
    fn storage_accounting() {
        let t = table();
        assert_eq!(t.storage_bits(3), 1024 * (3 + 1 + 9));
    }
}
