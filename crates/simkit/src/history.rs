//! Branch history registers.
//!
//! * [`GlobalHistory`] — a long (thousands of bits) circular-buffer global
//!   direction history, as used by TAGE/GEHL with geometric history lengths.
//! * [`FoldedHistory`] — the incrementally maintained XOR-fold of the most
//!   recent `length` history bits down to `width` bits. This is the classic
//!   TAGE trick that makes indexing with a 2000-bit history O(1) per branch.
//! * [`PathHistory`] — a short register of branch PC bits ("path" history).
//! * [`LocalHistories`] — a PC-indexed table of per-branch local histories
//!   (the committed local history table of the LSC predictor, §6).

use crate::bits::mask;

/// Global history capacity in bits. A fold of `length` bits reads bit
/// `length`, so every history length must stay below it (the paper's
/// longest is 5000, in §6.2).
pub const HISTORY_CAPACITY: usize = 8192;

/// A circular-buffer global branch direction history.
///
/// Bit 0 is the most recent branch outcome. The buffer never forgets until
/// `HISTORY_CAPACITY` bits; predictors only ever look `length` bits back.
///
/// # Example
///
/// ```
/// use simkit::history::GlobalHistory;
///
/// let mut h = GlobalHistory::new();
/// h.push(true);
/// h.push(false);
/// assert_eq!(h.bit(0), 0); // newest: not taken
/// assert_eq!(h.bit(1), 1);
/// ```
#[derive(Clone)]
pub struct GlobalHistory {
    /// Fixed-size boxed array: masked indexing is provably in-bounds, so
    /// the (very hot) `bit` reads compile without bounds checks.
    buf: Box<[u8; HISTORY_CAPACITY]>,
    /// Index of the most recent bit.
    head: usize,
    pushed: u64,
}

impl GlobalHistory {
    /// Creates an empty history (all zeros).
    pub fn new() -> Self {
        // INVARIANT: the boxed slice is built with length HISTORY_CAPACITY
        // on the previous token, so the fixed-size conversion cannot fail.
        let buf = vec![0u8; HISTORY_CAPACITY].into_boxed_slice().try_into().unwrap();
        Self { buf, head: 0, pushed: 0 }
    }

    /// Pushes the newest branch outcome.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        self.head = (self.head + HISTORY_CAPACITY - 1) & (HISTORY_CAPACITY - 1);
        self.buf[self.head] = taken as u8;
        self.pushed = self.pushed.wrapping_add(1);
    }

    /// Returns history bit `i` (0 = most recent) as 0 or 1.
    #[inline]
    pub fn bit(&self, i: usize) -> u64 {
        debug_assert!(i < HISTORY_CAPACITY);
        u64::from(self.buf[(self.head + i) & (HISTORY_CAPACITY - 1)])
    }

    /// Number of outcomes pushed so far.
    #[inline]
    pub fn len(&self) -> u64 {
        self.pushed
    }

    /// True if no outcome has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Collects the most recent `n` bits into a `u64` (bit 0 = newest).
    /// Convenience for short-history predictors (gshare, SC tables).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn low_bits(&self, n: u32) -> u64 {
        assert!(n <= 64);
        let mut v = 0u64;
        for i in (0..n as usize).rev() {
            v = (v << 1) | self.bit(i);
        }
        v
    }
}

impl Default for GlobalHistory {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for GlobalHistory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GlobalHistory(len={}, recent={:016b})", self.pushed, self.low_bits(16))
    }
}

/// An incrementally maintained XOR-fold of the `length` most recent global
/// history bits onto `width` bits.
///
/// Must be updated **after** every [`GlobalHistory::push`] via
/// [`FoldedHistory::update`], in lock-step, with the same `GlobalHistory`.
///
/// The fold is the standard TAGE/CBP recurrence: shift in the newest bit,
/// XOR out the bit that just left the `length`-bit window (pre-rotated to
/// the position it occupies in the fold), then wrap the overflow bit.
///
/// # Example
///
/// ```
/// use simkit::history::{FoldedHistory, GlobalHistory};
///
/// let mut gh = GlobalHistory::new();
/// let mut fh = FoldedHistory::new(17, 10);
/// for i in 0..100 {
///     gh.push(i % 3 == 0);
///     fh.update(&gh);
/// }
/// assert!(fh.value() < (1 << 10));
/// ```
#[derive(Clone, Debug)]
pub struct FoldedHistory {
    comp: u64,
    /// `mask(width)`, computed once: the fold runs once per table per
    /// branch, so it never re-derives (or re-checks) its width.
    mask: u64,
    length: usize,
    width: u32,
    outpoint: u32,
}

impl FoldedHistory {
    /// A fold of `length` history bits down to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 32, or `length` is 0.
    pub fn new(length: usize, width: u32) -> Self {
        assert!(length > 0, "folded history length must be positive");
        assert!((1..=32).contains(&width), "folded history width {width} out of range");
        Self { comp: 0, mask: mask(width), length, width, outpoint: (length as u32) % width }
    }

    /// Incorporates the newest history bit (bit 0 of `gh`) and retires the
    /// bit that just fell out of the window (bit `length` of `gh`).
    #[inline]
    pub fn update(&mut self, gh: &GlobalHistory) {
        self.update_split(gh.bit(0), gh.bit(self.length));
    }

    /// [`FoldedHistory::update`] with the two history bits supplied by the
    /// caller — `in_bit` the newest bit (bit 0), `out_bit` the bit leaving
    /// the window (bit `length`). Lets callers maintaining several folds
    /// of the *same* length (TAGE's index + two tag folds per table) read
    /// the history buffer once per table instead of once per fold.
    #[inline]
    pub fn update_split(&mut self, in_bit: u64, out_bit: u64) {
        self.comp = (self.comp << 1) | in_bit;
        self.comp ^= out_bit << self.outpoint;
        self.comp ^= self.comp >> self.width;
        self.comp &= self.mask;
    }

    /// The current folded value (always `< 2^width`).
    #[inline]
    pub fn value(&self) -> u64 {
        self.comp
    }

    /// History length being folded.
    #[inline]
    pub fn length(&self) -> usize {
        self.length
    }

    /// Output width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Recomputes the fold from scratch (test oracle; O(length)).
    pub fn recompute(&self, gh: &GlobalHistory) -> u64 {
        let mut comp = 0u64;
        // Oldest bit first, replaying the incremental construction.
        for i in (0..self.length).rev() {
            comp = (comp << 1) | gh.bit(i);
            comp ^= comp >> self.width;
            comp &= mask(self.width);
        }
        comp
    }
}

/// A short path history of branch PC bits.
///
/// Each predicted branch contributes one low PC bit (after dropping the
/// instruction alignment bits); conditional and unconditional branches both
/// contribute, which lets tables distinguish paths with identical direction
/// histories.
///
/// # Example
///
/// ```
/// use simkit::history::PathHistory;
///
/// let mut p = PathHistory::new(16);
/// p.push(0x400_0F4);
/// assert_eq!(p.value() & 1, (0x400_0F4u64 >> 2) & 1);
/// ```
#[derive(Clone, Debug)]
pub struct PathHistory {
    value: u64,
    mask: u64,
    width: u32,
}

impl PathHistory {
    /// A path history of `width` bits (1–64).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn new(width: u32) -> Self {
        assert!((1..=64).contains(&width), "path history width {width} out of range");
        Self { value: 0, mask: mask(width), width }
    }

    /// Pushes one bit of the branch address.
    #[inline]
    pub fn push(&mut self, pc: u64) {
        self.value = ((self.value << 1) | ((pc >> 2) & 1)) & self.mask;
    }

    /// Current path register value.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }
}

/// A PC-indexed table of per-branch (local) direction histories.
///
/// This is the *committed* local history table of the LSC predictor (§6):
/// a small direct-mapped table (the paper uses 32 entries) of shift
/// registers updated at retire time. Speculative (in-flight) local history
/// is layered on top by the predictor's speculative local history manager.
///
/// # Example
///
/// ```
/// use simkit::history::LocalHistories;
///
/// let mut lh = LocalHistories::new(32, 11);
/// lh.update(0x44, true);
/// lh.update(0x44, false);
/// assert_eq!(lh.history(0x44) & 0b11, 0b10);
/// ```
#[derive(Clone, Debug)]
pub struct LocalHistories {
    table: Vec<u64>,
    entries: usize,
    mask: u64,
    width: u32,
}

impl LocalHistories {
    /// A table of `entries` local histories of `width` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `width` is 0 or > 64.
    pub fn new(entries: usize, width: u32) -> Self {
        assert!(entries.is_power_of_two(), "local history entries must be a power of two");
        assert!((1..=64).contains(&width), "local history width {width} out of range");
        Self { table: vec![0; entries], entries, mask: mask(width), width }
    }

    /// Table index for `pc`.
    #[inline]
    pub fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.entries - 1)
    }

    /// The local history register for `pc` (bit 0 = most recent outcome).
    #[inline]
    pub fn history(&self, pc: u64) -> u64 {
        self.table[self.index(pc)]
    }

    /// Shifts `taken` into the history register for `pc`.
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i] = ((self.table[i] << 1) | taken as u64) & self.mask;
    }

    /// Number of entries.
    #[inline]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// History width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Total storage in bits.
    #[inline]
    pub fn storage_bits(&self) -> u64 {
        self.entries as u64 * u64::from(self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_history_order() {
        let mut h = GlobalHistory::new();
        for taken in [true, true, false, true] {
            h.push(taken);
        }
        assert_eq!(h.bit(0), 1);
        assert_eq!(h.bit(1), 0);
        assert_eq!(h.bit(2), 1);
        assert_eq!(h.bit(3), 1);
        assert_eq!(h.low_bits(4), 0b1101);
    }

    #[test]
    fn global_history_wraps() {
        let mut h = GlobalHistory::new();
        for i in 0..(HISTORY_CAPACITY * 2 + 17) {
            h.push(i % 2 == 0);
        }
        // Last pushed index: i = 2*HISTORY_CAPACITY+16, even => taken.
        assert_eq!(h.bit(0), 1);
        assert_eq!(h.bit(1), 0);
    }

    #[test]
    fn folded_matches_recompute() {
        let mut gh = GlobalHistory::new();
        let mut folds = vec![
            FoldedHistory::new(6, 10),
            FoldedHistory::new(17, 10),
            FoldedHistory::new(130, 11),
            FoldedHistory::new(2000, 12),
            FoldedHistory::new(10, 10), // length == width
            FoldedHistory::new(5, 9),   // length < width
        ];
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            gh.push(x & 1 == 1);
            for f in &mut folds {
                f.update(&gh);
                assert_eq!(f.value(), f.recompute(&gh), "fold {}/{}", f.length(), f.width());
            }
        }
    }

    #[test]
    fn folded_distinguishes_histories() {
        // Two different 20-bit histories should (almost always) fold apart.
        let mut gh1 = GlobalHistory::new();
        let mut gh2 = GlobalHistory::new();
        let mut f1 = FoldedHistory::new(20, 10);
        let mut f2 = FoldedHistory::new(20, 10);
        for i in 0..20 {
            gh1.push(i % 2 == 0);
            f1.update(&gh1);
            gh2.push(i % 3 == 0);
            f2.update(&gh2);
        }
        assert_ne!(f1.value(), f2.value());
    }

    #[test]
    fn path_history_shifts() {
        let mut p = PathHistory::new(8);
        p.push(0b100); // (pc>>2)&1 = 1
        p.push(0b000); // 0
        p.push(0b100); // 1
        assert_eq!(p.value(), 0b101);
    }

    #[test]
    fn path_history_masks() {
        let mut p = PathHistory::new(4);
        for _ in 0..100 {
            p.push(0b100);
        }
        assert_eq!(p.value(), 0b1111);
    }

    #[test]
    fn local_histories_are_independent() {
        let mut lh = LocalHistories::new(4, 8);
        lh.update(0b00_00, true); // index 0
        lh.update(0b01_00, false); // index 1
        assert_eq!(lh.history(0b00_00), 1);
        assert_eq!(lh.history(0b01_00), 0);
        // Aliasing: entry 4 maps onto entry 0 with 4-entry table.
        lh.update(0b1_0000, false);
        assert_eq!(lh.history(0b00_00), 0b10);
    }

    #[test]
    fn local_histories_storage() {
        let lh = LocalHistories::new(32, 31);
        assert_eq!(lh.storage_bits(), 32 * 31);
    }
}
