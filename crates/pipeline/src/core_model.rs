//! A simple out-of-order core timing model with a realistic memory
//! hierarchy — the penalty side of the CBP-3 framework (§2).
//!
//! The MPPKI metric weighs each misprediction by its pipeline cost. On the
//! modeled core a misprediction costs the front-end refill depth plus the
//! *resolution latency* of the branch: a branch whose condition depends on
//! a load that misses in the cache hierarchy resolves hundreds of cycles
//! late, so flushing on it is far more expensive. This is why the paper's
//! 7 hard benchmarks (which also have large data footprints) dominate the
//! suite MPPKI.

/// One set-associative cache level with LRU replacement.
#[derive(Clone, Debug)]
pub struct CacheLevel {
    /// Tag store: `sets × ways` entries; 0 = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    sets: usize,
    ways: usize,
    /// Hit latency in cycles.
    pub latency: u64,
    clock: u64,
}

impl CacheLevel {
    /// A cache of `size_bytes` with 64-byte lines and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if the resulting set count is not a positive power of two.
    pub fn new(size_bytes: usize, ways: usize, latency: u64) -> Self {
        let lines = size_bytes / 64;
        let sets = lines / ways;
        assert!(sets > 0 && sets.is_power_of_two(), "bad cache geometry");
        Self {
            tags: vec![0; lines],
            stamps: vec![0; lines],
            sets,
            ways,
            latency,
            clock: 0,
        }
    }

    /// The configuration words of this level (geometry + latency, not the
    /// runtime tag/LRU state, which starts cold every simulation).
    /// Exhaustively destructured so a new field fails this compile until
    /// classified as configuration or state.
    pub(crate) fn config_words(&self) -> [u64; 3] {
        let Self { tags: _, stamps: _, clock: _, sets, ways, latency } = self;
        [*sets as u64, *ways as u64, *latency]
    }

    /// Looks up `addr`; on a miss, fills the line. Returns hit/miss.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr >> 6;
        let set = (line as usize) & (self.sets - 1);
        let tag = (line >> self.sets.trailing_zeros()) | 1 << 63; // never 0
        let base = set * self.ways;
        for w in 0..self.ways {
            if self.tags[base + w] == tag {
                self.stamps[base + w] = self.clock;
                return true;
            }
        }
        // Miss: replace LRU way.
        let mut victim = base;
        for w in 1..self.ways {
            if self.stamps[base + w] < self.stamps[victim] {
                victim = base + w;
            }
        }
        self.tags[victim] = tag;
        self.stamps[victim] = self.clock;
        false
    }
}

/// A three-level cache hierarchy backed by main memory.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    l1: CacheLevel,
    l2: CacheLevel,
    l3: CacheLevel,
    /// Main memory latency in cycles.
    pub memory_latency: u64,
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        Self {
            l1: CacheLevel::new(32 * 1024, 8, 3),
            l2: CacheLevel::new(256 * 1024, 8, 12),
            l3: CacheLevel::new(2 * 1024 * 1024, 16, 35),
            memory_latency: 180,
        }
    }
}

impl MemoryHierarchy {
    /// Walks `addr` through the hierarchy, filling on misses. Returns the
    /// load-to-use latency in cycles.
    pub fn load_latency(&mut self, addr: u64) -> u64 {
        if self.l1.access(addr) {
            return self.l1.latency;
        }
        if self.l2.access(addr) {
            return self.l2.latency;
        }
        if self.l3.access(addr) {
            return self.l3.latency;
        }
        self.memory_latency
    }

    /// Configuration words of the whole hierarchy, for memo-cache keys.
    pub(crate) fn config_words(&self) -> Vec<u64> {
        let Self { l1, l2, l3, memory_latency } = self;
        let mut words = Vec::with_capacity(10);
        for level in [l1, l2, l3] {
            words.extend(level.config_words());
        }
        words.push(*memory_latency);
        words
    }
}

/// The core timing model: misprediction penalties and branch resolution
/// delays.
#[derive(Clone, Debug)]
pub struct CoreModel {
    /// Memory hierarchy for branch-feeding loads.
    pub memory: MemoryHierarchy,
    /// Front-end refill cost of a misprediction, in cycles.
    pub refill_penalty: u64,
    /// Minimum fetch→execute distance, in retired branches.
    pub min_exec_lag: usize,
}

impl Default for CoreModel {
    fn default() -> Self {
        Self { memory: MemoryHierarchy::default(), refill_penalty: 25, min_exec_lag: 4 }
    }
}

impl CoreModel {
    /// Resolves a branch: returns `(resolution_latency_cycles, exec_lag)`.
    /// `exec_lag` is how many subsequent fetched branches pass before this
    /// branch's outcome is known to the hardware (drives the IUM's
    /// P→E transition); load-dependent branches resolve later.
    pub fn resolve(&mut self, load_addr: Option<u64>) -> (u64, usize) {
        match load_addr {
            None => (1, self.min_exec_lag),
            Some(addr) => {
                let lat = self.memory.load_latency(addr);
                // Roughly one branch fetched every ~4 cycles on this core.
                (lat, self.min_exec_lag + (lat / 8) as usize)
            }
        }
    }

    /// The longest `exec_lag` [`CoreModel::resolve`] can return: a load
    /// served by the slowest level of the hierarchy.
    pub fn max_exec_lag(&self) -> usize {
        let m = &self.memory;
        let slowest = m.l1.latency.max(m.l2.latency).max(m.l3.latency).max(m.memory_latency);
        self.min_exec_lag + (slowest / 8) as usize
    }

    /// Penalty charged for a misprediction whose resolution latency was
    /// `resolution`: front-end refill plus the wasted resolution wait.
    pub fn mispredict_penalty(&self, resolution: u64) -> u64 {
        self.refill_penalty + resolution
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_hits_after_fill() {
        let mut m = MemoryHierarchy::default();
        let cold = m.load_latency(0x1000);
        assert_eq!(cold, m.memory_latency);
        let warm = m.load_latency(0x1000);
        assert_eq!(warm, 3);
    }

    #[test]
    fn capacity_eviction_falls_to_l2() {
        let mut m = MemoryHierarchy::default();
        // Touch far more lines than L1 holds (32KB = 512 lines), all in
        // distinct sets cyclically; then re-touch the first line.
        for i in 0..4096u64 {
            m.load_latency(i * 64);
        }
        let lat = m.load_latency(0);
        assert!(lat > 3, "line should have left L1, latency {lat}");
        assert!(lat <= 35, "line should still be cached, latency {lat}");
    }

    #[test]
    fn hierarchy_latencies_are_monotonic() {
        let m = MemoryHierarchy::default();
        assert!(m.l1.latency < m.l2.latency);
        assert!(m.l2.latency < m.l3.latency);
        assert!(m.l3.latency < m.memory_latency);
    }

    #[test]
    fn core_penalty_scales_with_resolution() {
        let core = CoreModel::default();
        assert!(core.mispredict_penalty(1) < core.mispredict_penalty(180));
        assert_eq!(core.mispredict_penalty(0), core.refill_penalty);
    }

    #[test]
    fn load_dependent_branches_execute_later() {
        let mut core = CoreModel::default();
        let (_, lag_plain) = core.resolve(None);
        // A cold load:
        let (lat, lag_loaded) = core.resolve(Some(0xDEAD_0000));
        assert!(lat > 1);
        assert!(lag_loaded > lag_plain);
    }

    #[test]
    fn lru_keeps_hot_lines() {
        let mut c = CacheLevel::new(4096, 4, 1); // 64 lines, 16 sets
        // Two addresses in the same set; keep one hot while streaming.
        let hot = 0u64;
        c.access(hot);
        for i in 1..64u64 {
            c.access(i * 64 * 16); // same set 0, different tags
            c.access(hot); // refresh
        }
        assert!(c.access(hot), "hot line evicted despite LRU refreshes");
    }
}
