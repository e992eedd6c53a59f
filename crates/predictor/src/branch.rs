//! Branch direction prediction: gshare plus the paper's 80 % oracle fix-up.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

aim_types::record! {
    /// Prediction accuracy counters for a [`Gshare`] predictor.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct GshareStats {
        /// Branches whose retirement outcome matched the effective prediction.
        pub correct: u64,
        /// Branches whose retirement outcome did not.
        pub incorrect: u64,
    }
}

impl GshareStats {
    /// Fraction of correct predictions, in percent.
    pub fn accuracy(&self) -> f64 {
        aim_types::percent(self.correct, self.correct + self.incorrect)
    }
}

/// A classic gshare direction predictor: a table of 2-bit saturating counters
/// indexed by `pc XOR global-history`.
///
/// Figure 4 of the paper specifies an "8 Kbit Gshare": 4096 two-bit counters
/// and a 12-bit global history, which is this type's [`Default`].
///
/// The global history is *speculative*: the front end shifts in each
/// predicted direction with [`Gshare::speculate`] at fetch, and recovery code
/// rolls it back with [`Gshare::restore_history`] using the per-instruction
/// snapshot taken before the prediction (standard practice for wide windows,
/// where retirement-time history lags fetch by hundreds of branches).
/// Counters train non-speculatively at retirement via [`Gshare::update`].
///
/// # Examples
///
/// ```
/// use aim_predictor::Gshare;
///
/// // No history bits: a plain bimodal table, easy to train directly.
/// let mut g = Gshare::new(1024, 0);
/// for _ in 0..4 {
///     let pred = g.predict(0x40);
///     g.update(0x40, true, pred, g.history());
/// }
/// assert!(g.predict(0x40)); // trained taken
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    counters: Vec<u8>,
    history: u64,
    history_bits: u32,
    stats: GshareStats,
}

impl Default for Gshare {
    fn default() -> Gshare {
        Gshare::new(4096, 12)
    }
}

impl Gshare {
    /// Creates a predictor with `counters` 2-bit entries (must be a power of
    /// two) and `history_bits` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `counters` is not a nonzero power of two or `history_bits`
    /// exceeds 63.
    pub fn new(counters: usize, history_bits: u32) -> Gshare {
        assert!(counters.is_power_of_two() && counters > 0);
        assert!(history_bits < 64);
        Gshare {
            counters: vec![1; counters], // weakly not-taken
            history: 0,
            history_bits,
            stats: GshareStats::default(),
        }
    }

    fn index(&self, pc: u64) -> usize {
        let h = self.history & ((1 << self.history_bits) - 1);
        ((pc ^ h) as usize) & (self.counters.len() - 1)
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// The current (speculative) global history register.
    pub fn history(&self) -> u64 {
        self.history
    }

    /// Shifts a predicted direction into the speculative history (fetch).
    pub fn speculate(&mut self, taken: bool) {
        self.history = (self.history << 1) | taken as u64;
    }

    /// Rolls the speculative history back to a recorded snapshot (recovery).
    pub fn restore_history(&mut self, history: u64) {
        self.history = history;
    }

    /// Trains the predictor with the branch's actual outcome and records
    /// whether the *effective* prediction (after any oracle intervention) was
    /// correct. Called at retirement; does not touch the speculative history.
    ///
    /// `fetch_history` is the history snapshot the prediction was made under,
    /// so training hits the same counter the prediction read.
    pub fn update(&mut self, pc: u64, taken: bool, effective_prediction: bool, fetch_history: u64) {
        let h = fetch_history & ((1 << self.history_bits) - 1);
        let idx = ((pc ^ h) as usize) & (self.counters.len() - 1);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        if effective_prediction == taken {
            self.stats.correct += 1;
        } else {
            self.stats.incorrect += 1;
        }
    }

    /// Accuracy counters.
    pub fn stats(&self) -> GshareStats {
        self.stats
    }

    /// Trains the predictor on one committed branch during functional
    /// warm-up (sampled simulation): predicts, lets `oracle` repair a
    /// mispredict exactly as the detailed front end would, shifts the
    /// *actual* direction into the history, and updates the counter under
    /// the prediction-time history.
    ///
    /// Functional execution never leaves the correct path, so the history
    /// register tracks actual directions — the same state a detailed window
    /// observes after every in-flight branch ahead of it has retired.
    pub fn warm_train(&mut self, pc: u64, taken: bool, oracle: Option<&mut OracleBoost>) {
        let h = self.history();
        let pred = self.predict(pc);
        let effective = if pred != taken {
            match oracle {
                Some(o) => {
                    if o.fixes_mispredict() {
                        taken
                    } else {
                        pred
                    }
                }
                None => pred,
            }
        } else {
            pred
        };
        self.speculate(taken);
        self.update(pc, taken, effective, h);
    }
}

/// The paper's idealized fix-up: "80% of mispredicts turned to correct
/// predictions by an oracle" (Figure 4).
///
/// Each time the underlying gshare would mispredict a *correct-path* branch,
/// [`OracleBoost::fixes_mispredict`] decides (deterministically, from the
/// seed) whether the oracle overrides it with the actual outcome.
///
/// # Examples
///
/// ```
/// use aim_predictor::OracleBoost;
///
/// let mut o = OracleBoost::new(0.8, 42);
/// let fixed: usize = (0..10_000).filter(|_| o.fixes_mispredict()).count();
/// assert!((7_500..8_500).contains(&fixed));
/// ```
#[derive(Debug, Clone)]
pub struct OracleBoost {
    fix_probability: f64,
    rng: SmallRng,
}

impl OracleBoost {
    /// Creates an oracle that fixes mispredicts with probability
    /// `fix_probability`, using a deterministic RNG seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= fix_probability <= 1.0`.
    pub fn new(fix_probability: f64, seed: u64) -> OracleBoost {
        assert!((0.0..=1.0).contains(&fix_probability));
        OracleBoost {
            fix_probability,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Draws whether the oracle repairs the current mispredict.
    pub fn fixes_mispredict(&mut self) -> bool {
        self.rng.gen_bool(self.fix_probability)
    }

    /// The configured fix probability.
    pub fn fix_probability(&self) -> f64 {
        self.fix_probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_8kbit() {
        let g = Gshare::default();
        assert_eq!(g.counters.len(), 4096); // 4096 * 2 bits = 8 Kbit
    }

    #[test]
    fn trains_toward_taken_and_back() {
        let mut g = Gshare::new(16, 0);
        assert!(!g.predict(0)); // weakly not-taken initial state
        g.update(0, true, false, 0);
        g.update(0, true, true, 0);
        assert!(g.predict(0));
        g.update(0, false, true, 0);
        g.update(0, false, false, 0);
        assert!(!g.predict(0));
    }

    #[test]
    fn counters_saturate() {
        let mut g = Gshare::new(16, 0);
        for _ in 0..10 {
            g.update(0, true, true, 0);
        }
        g.update(0, false, true, 0);
        assert!(g.predict(0)); // one not-taken cannot flip a saturated counter
    }

    #[test]
    fn history_distinguishes_patterns() {
        let mut g = Gshare::new(1024, 4);
        // Alternating T/N/T/N at one pc: with history, gshare learns it.
        let run = |g: &mut Gshare, rounds: std::ops::Range<i32>| {
            let mut correct = 0;
            for i in rounds {
                let taken = i % 2 == 0;
                let h = g.history();
                let pred = g.predict(0x77);
                g.speculate(taken); // resolved immediately in this toy loop
                g.update(0x77, taken, pred, h);
                if pred == taken {
                    correct += 1;
                }
            }
            correct
        };
        run(&mut g, 0..200);
        let correct = run(&mut g, 200..300);
        assert!(correct > 90, "learned alternation, got {correct}/100");
    }

    #[test]
    fn speculative_history_rolls_back() {
        let mut g = Gshare::new(64, 8);
        let snapshot = g.history();
        g.speculate(true);
        g.speculate(false);
        assert_ne!(g.history(), snapshot);
        g.restore_history(snapshot);
        assert_eq!(g.history(), snapshot);
    }

    #[test]
    fn stats_track_effective_prediction() {
        let mut g = Gshare::new(16, 0);
        g.update(0, true, true, 0);
        g.update(0, true, false, 0);
        assert_eq!(g.stats().correct, 1);
        assert_eq!(g.stats().incorrect, 1);
        assert_eq!(g.stats().accuracy(), 50.0);
    }

    #[test]
    fn warm_train_learns_a_bias_and_tracks_history() {
        let mut g = Gshare::new(64, 4);
        for _ in 0..8 {
            g.warm_train(0x99, true, None);
        }
        assert!(g.predict(0x99));
        // Eight actual-taken directions shifted into the history register.
        assert_eq!(g.history() & 0xF, 0xF);
        assert_eq!(g.stats().correct + g.stats().incorrect, 8);
    }

    #[test]
    fn warm_train_oracle_repairs_count_as_correct() {
        // A saturated-not-taken counter mispredicts a taken branch; a
        // p=1.0 oracle repairs every one, so stats stay all-correct.
        let mut g = Gshare::new(16, 0);
        let mut o = OracleBoost::new(1.0, 3);
        g.warm_train(0, true, Some(&mut o));
        assert_eq!(g.stats().correct, 1);
        assert_eq!(g.stats().incorrect, 0);
    }

    #[test]
    fn oracle_is_deterministic_per_seed() {
        let mut a = OracleBoost::new(0.8, 7);
        let mut b = OracleBoost::new(0.8, 7);
        for _ in 0..100 {
            assert_eq!(a.fixes_mispredict(), b.fixes_mispredict());
        }
    }

    #[test]
    fn oracle_extremes() {
        let mut never = OracleBoost::new(0.0, 1);
        let mut always = OracleBoost::new(1.0, 1);
        assert!(!(0..100).any(|_| never.fixes_mispredict()));
        assert!((0..100).all(|_| always.fixes_mispredict()));
    }

    #[test]
    #[should_panic]
    fn oracle_rejects_bad_probability() {
        let _ = OracleBoost::new(1.5, 0);
    }
}
