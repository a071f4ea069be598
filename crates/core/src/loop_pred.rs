//! The loop predictor with speculative iteration management (§5.2).
//!
//! Identifies branches that behave as loops with a constant number of
//! iterations and, once the same trip count has been observed with high
//! confidence (7 identical complete executions), predicts the loop exit
//! exactly — something TAGE cannot do when the control flow *inside* the
//! loop body is irregular (the noise makes every iteration's global
//! history unique).
//!
//! Geometry per the paper: 64 entries, 4-way skewed associative; each
//! entry holds a 10-bit past iteration count, a 10-bit retire iteration
//! count, a 10-bit partial tag, a 3-bit confidence counter, a 3-bit age
//! counter and a direction bit (37 bits). Speculative iteration counts
//! (the SLIM of Figure 5) are modeled exactly: trace-driven simulation
//! repairs in-flight state on mispredictions instantly, so the per-entry
//! speculative counter below is precisely what a SLIM with one entry per
//! in-flight branch would produce.

use simkit::bits::fold_xor;

const CONF_MAX: u8 = 7;
const AGE_MAX: u8 = 7;
const ITER_MAX: u16 = 1023;

/// One loop predictor entry.
#[derive(Clone, Copy, Debug, Default)]
struct LoopEntry {
    tag: u16,
    /// Iterations (looping-direction outcomes) per round, learned.
    past_iter: u16,
    /// Retire-side iteration counter for the current round.
    retire_iter: u16,
    /// Speculative (fetch-side) iteration counter — the SLIM state.
    spec_iter: u16,
    conf: u8,
    age: u8,
    /// The looping direction (the outcome of all non-exit occurrences).
    dir: bool,
    valid: bool,
}

/// Fetch-time loop prediction.
#[derive(Clone, Copy, Debug)]
pub struct LoopLookup {
    /// Index of the hitting entry.
    pub entry: u16,
    /// The predicted direction.
    pub pred: bool,
    /// True when confidence is saturated — only then may the prediction
    /// override the main predictor.
    pub confident: bool,
}

/// The loop predictor.
#[derive(Clone, Debug)]
pub struct LoopPredictor {
    entries: Vec<LoopEntry>,
    sets: usize,
    ways: usize,
    lfsr: u64,
}

const SKEW: [u64; 4] = [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F, 0x1656_67B1_9E37_79F9, 0x27D4_EB2F_1656_67C5];

impl LoopPredictor {
    /// A loop predictor with `entries` total entries and `ways` skewed
    /// ways (the paper's configuration is 64 entries, 4 ways).
    ///
    /// # Panics
    ///
    /// Panics if `ways` does not divide `entries`, is 0, exceeds 4, or if
    /// the resulting set count is not a power of two.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!((1..=4).contains(&ways) && entries.is_multiple_of(ways));
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "loop predictor sets must be a power of two");
        Self { entries: vec![LoopEntry::default(); entries], sets, ways, lfsr: 0xACE1_2468_ACE1_2468 }
    }

    /// The paper's 64-entry, 4-way configuration.
    pub fn cbp_64() -> Self {
        Self::new(64, 4)
    }

    #[inline]
    fn slot(&self, way: usize, pc: u64) -> usize {
        let h = ((pc >> 2).wrapping_mul(SKEW[way])) >> 40;
        way * self.sets + (h as usize & (self.sets - 1))
    }

    #[inline]
    fn tag(pc: u64) -> u16 {
        fold_xor(pc >> 2, 10) as u16
    }

    fn find(&self, pc: u64) -> Option<usize> {
        let tag = Self::tag(pc);
        (0..self.ways).map(|w| self.slot(w, pc)).find(|&s| {
            let e = &self.entries[s];
            e.valid && e.tag == tag
        })
    }

    /// Fetch-time lookup: returns the loop prediction if the branch hits.
    pub fn lookup(&self, pc: u64) -> Option<LoopLookup> {
        let s = self.find(pc)?;
        let e = &self.entries[s];
        if e.past_iter == 0 {
            return None;
        }
        // The next occurrence is the exit when the speculative iteration
        // count has reached the learned trip count.
        let pred = if e.spec_iter >= e.past_iter { !e.dir } else { e.dir };
        Some(LoopLookup { entry: s as u16, pred, confident: e.conf >= CONF_MAX })
    }

    /// Fetch-time speculative iteration update (the SLIM step): advance
    /// the speculative counter with the resolved outcome.
    pub fn spec_update(&mut self, pc: u64, outcome: bool) {
        if let Some(s) = self.find(pc) {
            let e = &mut self.entries[s];
            if outcome == e.dir {
                e.spec_iter = (e.spec_iter + 1).min(ITER_MAX);
            } else {
                e.spec_iter = 0;
            }
        }
    }

    /// Retire-time update.
    ///
    /// * `allocate` — the main predictor mispredicted this branch, so the
    ///   loop predictor may allocate an entry for it;
    /// * `useful` — the loop prediction was used, was correct, and the
    ///   main predictor would have been wrong (age credit, §5.2).
    pub fn retire_update(&mut self, pc: u64, outcome: bool, allocate: bool, useful: bool) {
        let tag = Self::tag(pc);
        if let Some(s) = self.find(pc) {
            let e = &mut self.entries[s];
            if useful && e.age < AGE_MAX {
                e.age += 1;
            }
            if outcome == e.dir {
                e.retire_iter += 1;
                if e.retire_iter >= ITER_MAX {
                    // Not a countable loop.
                    e.valid = false;
                    e.age = 0;
                }
            } else if e.past_iter == 0 && e.retire_iter == 0 {
                // Two consecutive non-dir outcomes right after allocation:
                // the entry was allocated on a *mid-loop* misprediction, so
                // the assumed looping direction is wrong. Relearn it.
                e.dir = outcome;
                e.retire_iter = 1;
            } else {
                // Loop exit observed.
                if e.past_iter == e.retire_iter && e.past_iter != 0 {
                    if e.conf < CONF_MAX {
                        e.conf += 1;
                    }
                } else {
                    if e.conf > 0 {
                        // Established loop turned irregular (§5.2: "Age is
                        // reset to zero whenever the branch is determined
                        // as not being a regular loop").
                        e.age = 0;
                    } else if e.past_iter != 0 && e.age > 0 {
                        // Repeatedly inconsistent trip counts: this is not
                        // a regular loop — age it toward replacement so it
                        // does not pressure its neighbours forever.
                        e.age -= 1;
                    }
                    e.conf = 0;
                    e.past_iter = e.retire_iter;
                }
                e.retire_iter = 0;
            }
            return;
        }
        if !allocate {
            return;
        }
        // Throttle allocation: only one mispredicted occurrence in four
        // attempts an allocation (L-TAGE-style), keeping noisy branches
        // from churning the small table.
        self.lfsr ^= self.lfsr << 13;
        self.lfsr ^= self.lfsr >> 7;
        self.lfsr ^= self.lfsr << 17;
        if self.lfsr & 3 != 0 {
            return;
        }
        // Allocate: pick an age-0 way, otherwise age every candidate.
        let slots: Vec<usize> = (0..self.ways).map(|w| self.slot(w, pc)).collect();
        if let Some(&victim) = slots.iter().find(|&&s| !self.entries[s].valid || self.entries[s].age == 0)
        {
            self.entries[victim] = LoopEntry {
                tag,
                past_iter: 0,
                retire_iter: 0,
                spec_iter: 0,
                conf: 0,
                age: AGE_MAX,
                // The mispredicted occurrence is (usually) the exit, so the
                // looping direction is the opposite of this outcome.
                dir: !outcome,
                valid: true,
            };
        } else {
            for s in slots {
                let e = &mut self.entries[s];
                if e.age > 0 {
                    e.age -= 1;
                }
            }
        }
    }

    /// Storage in bits: the paper's 37 bits per entry plus the 10-bit
    /// speculative iteration counter standing in for the SLIM.
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * 47
    }

    /// Number of valid, confident entries (diagnostics).
    pub fn confident_count(&self) -> usize {
        self.entries.iter().filter(|e| e.valid && e.conf >= CONF_MAX).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a constant-trip loop through the predictor and returns
    /// (correct, total) exit predictions after warm-up.
    fn run_loop(trip: u16, rounds: usize) -> (usize, usize) {
        let mut lp = LoopPredictor::cbp_64();
        let pc = 0x4000;
        let mut correct = 0;
        let mut total = 0;
        for round in 0..rounds {
            for i in 1..=trip {
                let outcome = i != trip; // taken = keep looping
                let look = lp.lookup(pc);
                if round >= 9 {
                    // After warm-up the predictor must be confident…
                    let l = look.expect("entry should exist");
                    assert!(l.confident, "round {round}: not confident");
                    total += 1;
                    if l.pred == outcome {
                        correct += 1;
                    }
                }
                lp.spec_update(pc, outcome);
                // Mispredict signal: the main predictor mispredicts the
                // exit, so allocation happens on the round-0 exit.
                lp.retire_update(pc, outcome, round == 0 && !outcome, false);
            }
        }
        (correct, total)
    }

    #[test]
    fn perfectly_predicts_constant_loop() {
        let (correct, total) = run_loop(21, 20);
        assert_eq!(correct, total, "constant-trip loop must be exact");
        assert!(total > 0);
    }

    #[test]
    fn short_loops_also_work() {
        let (correct, total) = run_loop(4, 30);
        assert_eq!(correct, total);
    }

    #[test]
    fn irregular_loop_never_confident() {
        let mut lp = LoopPredictor::cbp_64();
        let pc = 0x5000;
        let mut rng = simkit::rng::Xoshiro256::seed_from(5);
        for round in 0..60 {
            let trip = 3 + rng.gen_range(10) as u16;
            for i in 1..=trip {
                let outcome = i != trip;
                if let Some(l) = lp.lookup(pc) {
                    assert!(
                        !(l.confident && round > 20),
                        "irregular loop must not reach confidence"
                    );
                }
                lp.spec_update(pc, outcome);
                lp.retire_update(pc, outcome, round == 0 && !outcome, false);
            }
        }
    }

    #[test]
    fn confidence_requires_seven_rounds() {
        let mut lp = LoopPredictor::cbp_64();
        let pc = 0x6000;
        let trip = 10u16;
        let mut first_confident_round = None;
        for round in 0..12 {
            for i in 1..=trip {
                let outcome = i != trip;
                if let Some(l) = lp.lookup(pc) {
                    if l.confident && first_confident_round.is_none() {
                        first_confident_round = Some(round);
                    }
                }
                lp.spec_update(pc, outcome);
                lp.retire_update(pc, outcome, round == 0 && !outcome, false);
            }
        }
        let r = first_confident_round.expect("should become confident");
        assert!(r >= 7, "confident too early: round {r}");
    }

    #[test]
    fn allocation_needs_mispredict_signal() {
        let mut lp = LoopPredictor::cbp_64();
        lp.retire_update(0x7000, true, false, false);
        assert!(lp.lookup(0x7000).is_none());
        lp.retire_update(0x7000, true, true, false);
        // Entry allocated (no prediction yet: past_iter == 0).
        assert!(lp.lookup(0x7000).is_none());
        assert_eq!(lp.confident_count(), 0);
    }

    #[test]
    fn aging_protects_useful_entries() {
        let mut lp = LoopPredictor::new(4, 4); // 1 set, 4 ways: high pressure
        // Allocate 4 loops; 0x100 will receive periodic usefulness credit.
        for pc in [0x100u64, 0x200, 0x300, 0x400] {
            lp.retire_update(pc, false, true, false);
        }
        // Nine allocation attempts from distinct PCs, with an age credit
        // for 0x100 every third attempt: the un-credited entries reach
        // age 0 first and get replaced, the useful one survives.
        for i in 0..9u64 {
            if i % 3 == 0 {
                lp.retire_update(0x100, true, false, true);
            }
            lp.retire_update(0x1000 + i * 0x100, false, true, false);
        }
        assert!(lp.find(0x100).is_some(), "useful entry evicted too eagerly");
        assert!(
            lp.find(0x200).is_none() || lp.find(0x300).is_none(),
            "pressure should have replaced an unused entry"
        );
    }

    #[test]
    fn storage_is_tiny() {
        assert_eq!(LoopPredictor::cbp_64().storage_bits(), 64 * 47);
    }
}
