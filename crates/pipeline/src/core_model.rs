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
//!
//! The paper runs every predictor on one machine, so the machine's
//! numbers are constants here, in one place: the refill penalty, the
//! minimum execute lag, the three cache levels and main memory.

/// Front-end refill cost of a misprediction, in cycles.
pub const REFILL_PENALTY: u64 = 25;

/// Minimum fetch→execute distance, in fetched branches.
pub const MIN_EXEC_LAG: usize = 4;

/// Main-memory latency in cycles: a load that misses every cache level.
pub const MEMORY_LATENCY: u64 = 180;

/// The cache levels as `(size_bytes, ways, hit_latency_cycles)`, nearest
/// first, each faster than the next and than main memory.
const LEVELS: [(usize, usize, u64); 3] =
    [(32 * 1024, 8, 3), (256 * 1024, 8, 12), (2 * 1024 * 1024, 16, 35)];

// Main memory is the slowest level, so it sets `MAX_EXEC_LAG`.
const _: () =
    assert!(LEVELS[0].2 < LEVELS[1].2 && LEVELS[1].2 < LEVELS[2].2 && LEVELS[2].2 < MEMORY_LATENCY);

/// The execute lag of a branch whose condition waited `latency` cycles
/// for its load: roughly one branch is fetched every ~4 cycles on this
/// core.
const fn exec_lag(latency: u64) -> usize {
    MIN_EXEC_LAG + (latency / 8) as usize
}

/// The longest execute lag [`CoreModel::resolve`] returns: a load served
/// by main memory, the slowest level.
pub const MAX_EXEC_LAG: usize = exec_lag(MEMORY_LATENCY);

/// Penalty charged for a misprediction whose resolution latency was
/// `resolution`: front-end refill plus the wasted resolution wait.
pub const fn mispredict_penalty(resolution: u64) -> u64 {
    REFILL_PENALTY + resolution
}

/// One set-associative cache level with LRU replacement.
#[derive(Debug)]
pub struct CacheLevel {
    /// Tag store: `sets × ways` entries; 0 = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    sets: usize,
    ways: usize,
    /// Hit latency in cycles.
    latency: u64,
    clock: u64,
}

impl CacheLevel {
    /// A cold cache of `size_bytes` with 64-byte lines and `ways` ways.
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

/// The core timing model: the three-level cache hierarchy that delays
/// branch-feeding loads, cold at construction. Each simulation builds
/// its own.
#[derive(Debug)]
pub struct CoreModel {
    l1: CacheLevel,
    l2: CacheLevel,
    l3: CacheLevel,
}

impl Default for CoreModel {
    fn default() -> Self {
        Self::new()
    }
}

impl CoreModel {
    /// The modelled core with cold caches.
    pub fn new() -> Self {
        let [l1, l2, l3] = LEVELS.map(|(size, ways, latency)| CacheLevel::new(size, ways, latency));
        Self { l1, l2, l3 }
    }

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
        MEMORY_LATENCY
    }

    /// Resolves a branch: returns `(resolution_latency_cycles, exec_lag)`.
    /// `exec_lag` is how many subsequent fetched branches pass before this
    /// branch's outcome is known to the hardware (drives the IUM's
    /// P→E transition); load-dependent branches resolve later.
    pub fn resolve(&mut self, load_addr: Option<u64>) -> (u64, usize) {
        match load_addr {
            None => (1, MIN_EXEC_LAG),
            Some(addr) => {
                let lat = self.load_latency(addr);
                (lat, exec_lag(lat))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_hits_after_fill() {
        let mut m = CoreModel::new();
        let cold = m.load_latency(0x1000);
        assert_eq!(cold, MEMORY_LATENCY);
        let warm = m.load_latency(0x1000);
        assert_eq!(warm, 3);
    }

    #[test]
    fn capacity_eviction_falls_to_l2() {
        let mut m = CoreModel::new();
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
    fn core_penalty_scales_with_resolution() {
        assert!(mispredict_penalty(1) < mispredict_penalty(MEMORY_LATENCY));
        assert_eq!(mispredict_penalty(0), REFILL_PENALTY);
    }

    #[test]
    fn load_dependent_branches_execute_later() {
        let mut core = CoreModel::new();
        let (_, lag_plain) = core.resolve(None);
        assert_eq!(lag_plain, MIN_EXEC_LAG);
        // A cold load goes to main memory: the longest lag there is.
        let (lat, lag_loaded) = core.resolve(Some(0xDEAD_0000));
        assert_eq!((lat, lag_loaded), (MEMORY_LATENCY, MAX_EXEC_LAG));
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
