//! Generic set-associative, LRU, tag-only cache timing model.

use aim_core::{SetHash, SetTable, TableGeometry};
use aim_types::Addr;

/// Geometry of a set-associative cache.
///
/// # Examples
///
/// ```
/// use aim_mem::CacheConfig;
///
/// // The paper's L1 D-cache: 8 KB, 4-way, 64-byte lines (Figure 4).
/// let cfg = CacheConfig::new(8 * 1024, 4, 64);
/// assert_eq!(cfg.sets(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    capacity_bytes: usize,
    ways: usize,
    line_bytes: usize,
}

impl CacheConfig {
    /// Creates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` and the resulting set count are nonzero
    /// powers of two and `capacity_bytes` is divisible by `ways * line_bytes`.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> CacheConfig {
        assert!(line_bytes.is_power_of_two() && line_bytes > 0);
        assert!(ways > 0);
        assert!(capacity_bytes.is_multiple_of(ways * line_bytes));
        let sets = capacity_bytes / (ways * line_bytes);
        assert!(sets.is_power_of_two() && sets > 0);
        CacheConfig {
            capacity_bytes,
            ways,
            line_bytes,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(self) -> usize {
        self.capacity_bytes
    }

    /// Associativity.
    pub fn ways(self) -> usize {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(self) -> usize {
        self.line_bytes
    }

    /// Number of sets.
    pub fn sets(self) -> usize {
        self.capacity_bytes / (self.ways * self.line_bytes)
    }
}

aim_types::record! {
    /// Hit/miss counters for one cache.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Accesses that hit.
        pub hits: u64,
        /// Accesses that missed (and filled).
        pub misses: u64,
    }
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in percent (0 for no accesses).
    pub fn hit_rate(&self) -> f64 {
        aim_types::percent(self.hits, self.accesses())
    }
}

/// A set-associative, true-LRU, tag-only cache.
///
/// Models timing only: an access either hits or misses (and fills). Data is
/// always supplied by [`MainMemory`](crate::MainMemory), so the cache never
/// holds stale values — the simulated machine's speculative values live in
/// the store queue or store forwarding cache instead.
///
/// # Examples
///
/// ```
/// use aim_mem::{Cache, CacheConfig};
/// use aim_types::Addr;
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 64));
/// assert!(!c.access(Addr(0)));   // cold miss
/// assert!(c.access(Addr(63)));   // same line: hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Line-number keys + per-set occupancy bit-words (the set index is the
    /// line number's low bits, so the stored key subsumes the tag).
    table: SetTable,
    /// Per-slot LRU timestamp column, indexed by the table's flat slot.
    last_used: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let table = SetTable::new(TableGeometry {
            sets: config.sets(),
            ways: config.ways(),
            hash: SetHash::LowBits,
        });
        Cache {
            config,
            table,
            last_used: vec![0; config.sets() * config.ways()],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn line_of(&self, addr: Addr) -> u64 {
        addr.0 / self.config.line_bytes() as u64
    }

    /// Accesses `addr`, returning `true` on a hit. A miss fills the line,
    /// evicting the LRU way if the set is full.
    pub fn access(&mut self, addr: Addr) -> bool {
        self.clock += 1;
        let line = self.line_of(addr);
        let set = self.table.set_of(line);

        if let Some(way) = self.table.first_match(set, line) {
            self.last_used[self.table.slot(set, way)] = self.clock;
            self.stats.hits += 1;
            return true;
        }

        self.stats.misses += 1;
        // Fill: an empty way if available, else the LRU way (first among
        // equal timestamps).
        let way = match self.table.first_free(set) {
            Some(way) => {
                self.table.occupy(set, way, line);
                way
            }
            None => {
                let victim = (0..self.table.ways())
                    .min_by_key(|&w| self.last_used[self.table.slot(set, w)])
                    .expect("cache has at least one way");
                self.table.replace(set, victim, line);
                victim
            }
        };
        self.last_used[self.table.slot(set, way)] = self.clock;
        false
    }

    /// Probes without filling or updating LRU; returns `true` if resident.
    pub fn probe(&self, addr: Addr) -> bool {
        let line = self.line_of(addr);
        let set = self.table.set_of(line);
        self.table.first_match(set, line).is_some()
    }

    /// Invalidates every line and zeroes nothing else (stats are kept).
    pub fn invalidate_all(&mut self) {
        self.table.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets, 2 ways, 16-byte lines.
        Cache::new(CacheConfig::new(64, 2, 16))
    }

    #[test]
    fn config_geometry() {
        let cfg = CacheConfig::new(512 * 1024, 8, 128);
        assert_eq!(cfg.sets(), 512);
        assert_eq!(cfg.ways(), 8);
        assert_eq!(cfg.line_bytes(), 128);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_line_rejected() {
        let _ = CacheConfig::new(96, 2, 24);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(Addr(0)));
        assert!(c.access(Addr(0)));
        assert!(c.access(Addr(15)));
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        assert!(!c.access(Addr(0))); // set 0
        assert!(!c.access(Addr(16))); // set 1
        assert!(c.access(Addr(0)));
        assert!(c.access(Addr(16)));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to set 0 (stride 32 with 2 sets of 16B lines).
        c.access(Addr(0));
        c.access(Addr(32));
        c.access(Addr(0)); // touch 0 so 32 becomes LRU
        c.access(Addr(64)); // evicts 32
        assert!(c.probe(Addr(0)));
        assert!(!c.probe(Addr(32)));
        assert!(c.probe(Addr(64)));
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = small();
        assert!(!c.probe(Addr(0)));
        assert!(!c.access(Addr(0)));
        assert!(c.probe(Addr(0)));
        assert_eq!(c.stats().accesses(), 1);
    }

    #[test]
    fn invalidate_all_empties() {
        let mut c = small();
        c.access(Addr(0));
        c.invalidate_all();
        assert!(!c.probe(Addr(0)));
        assert!(!c.access(Addr(0)));
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = small();
        c.access(Addr(0));
        c.access(Addr(0));
        c.access(Addr(0));
        c.access(Addr(0));
        assert_eq!(c.stats().hit_rate(), 75.0);
    }
}
