//! The L1I / L1D / L2 cache hierarchy of the paper's Figure 4, and the
//! canonical [`MemSpec`] describing every tier of the memory system.

use aim_types::Addr;

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::far::FarSpec;

/// Which level of the hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemLevel {
    /// Served by the first-level cache.
    L1,
    /// Missed L1, hit the unified L2.
    L2,
    /// Missed both caches; served by main memory.
    Memory,
}

/// The canonical per-tier description of the memory system: cache
/// geometries, the latency ladder, and (optionally) the far-memory tier.
///
/// This is the single config type every layer threads — the `SimConfig`
/// builder's `.mem(..)` knob, the shared memory system, the wire
/// `JobSpec`, and the content-addressed cache key all speak `MemSpec`.
///
/// Defaults reproduce Figure 4 of the paper (no far tier):
///
/// | cache | geometry | miss latency |
/// |---|---|---|
/// | L1 I | 8 KB, 2-way, 128 B lines | 10 cycles |
/// | L1 D | 8 KB, 4-way, 64 B lines | 10 cycles |
/// | L2 | 512 KB, 8-way, 128 B lines | 100 cycles |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSpec {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Cycles for an L1 hit (pipelined load-use latency).
    pub l1_hit_cycles: u64,
    /// Additional cycles when an access misses L1 and hits L2.
    pub l1_miss_cycles: u64,
    /// Additional cycles when an access misses L2 and is served by near
    /// memory. Ignored when a far tier is configured — the far tier
    /// replaces the backing store and its completion time replaces this
    /// ladder step.
    pub l2_miss_cycles: u64,
    /// The far-memory tier behind the shared L2, if any.
    pub far: Option<FarSpec>,
}

impl Default for MemSpec {
    fn default() -> MemSpec {
        MemSpec {
            l1i: CacheConfig::new(8 * 1024, 2, 128),
            l1d: CacheConfig::new(8 * 1024, 4, 64),
            l2: CacheConfig::new(512 * 1024, 8, 128),
            l1_hit_cycles: 1,
            l1_miss_cycles: 10,
            l2_miss_cycles: 100,
            far: None,
        }
    }
}

impl MemSpec {
    /// The paper's Figure 4 hierarchy (the [`Default`]), spelled as a
    /// builder entry point.
    pub fn figure4() -> MemSpec {
        MemSpec::default()
    }

    /// Returns the spec with a far-memory tier behind the shared L2.
    pub fn with_far(mut self, far: FarSpec) -> MemSpec {
        self.far = Some(far);
        self
    }

    /// Returns the spec with a different near-memory (L2-miss) latency.
    pub fn with_l2_miss_cycles(mut self, cycles: u64) -> MemSpec {
        self.l2_miss_cycles = cycles;
        self
    }

    /// The far-memory coalescing granule for `addr`: the L2 line number
    /// (far misses are tracked at the granularity of the L2 fill).
    pub fn far_line(&self, addr: Addr) -> u64 {
        addr.0 / self.l2.line_bytes() as u64
    }
}

/// The simulated machine's cache hierarchy: split L1, unified L2.
///
/// Purely a timing model — see [`Cache`]. Instruction fetches probe L1I→L2;
/// data accesses probe L1D→L2. Store commits update tags like loads (write-
/// allocate) but the commit itself is buffered and never stalls retirement.
///
/// This is the legacy self-contained form with a flat near-memory backing
/// latency; it ignores any [`MemSpec::far`] tier. The pipeline runs on the
/// multi-core split ([`CoreMemSys`](crate::CoreMemSys) over a
/// [`SharedMemSystem`](crate::SharedMemSystem)), which is where the
/// far-memory tier is modeled.
///
/// # Examples
///
/// ```
/// use aim_mem::{CacheHierarchy, MemSpec, MemLevel};
/// use aim_types::Addr;
///
/// let mut h = CacheHierarchy::new(MemSpec::default());
/// let (level, lat) = h.access_data(Addr(0x4000));
/// assert_eq!(level, MemLevel::Memory); // cold
/// let (level, lat2) = h.access_data(Addr(0x4000));
/// assert_eq!(level, MemLevel::L1);
/// assert!(lat2 < lat);
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: MemSpec,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
}

impl CacheHierarchy {
    /// Builds an empty hierarchy.
    pub fn new(config: MemSpec) -> CacheHierarchy {
        CacheHierarchy {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
        }
    }

    /// The configured parameters.
    pub fn config(&self) -> MemSpec {
        self.config
    }

    fn access(
        l1: &mut Cache,
        l2: &mut Cache,
        cfg: &MemSpec,
        addr: Addr,
    ) -> (MemLevel, u64) {
        if l1.access(addr) {
            (MemLevel::L1, cfg.l1_hit_cycles)
        } else if l2.access(addr) {
            (MemLevel::L2, cfg.l1_hit_cycles + cfg.l1_miss_cycles)
        } else {
            (
                MemLevel::Memory,
                cfg.l1_hit_cycles + cfg.l1_miss_cycles + cfg.l2_miss_cycles,
            )
        }
    }

    /// Fetches an instruction address; returns the serving level and latency.
    pub fn access_instr(&mut self, addr: Addr) -> (MemLevel, u64) {
        Self::access(&mut self.l1i, &mut self.l2, &self.config, addr)
    }

    /// Accesses a data address (load, or store commit); returns the serving
    /// level and latency in cycles.
    pub fn access_data(&mut self, addr: Addr) -> (MemLevel, u64) {
        Self::access(&mut self.l1d, &mut self.l2, &self.config, addr)
    }

    /// Hit/miss counters for (L1I, L1D, L2).
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.l1i.stats(), self.l1d.stats(), self.l2.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_figure4() {
        let cfg = MemSpec::default();
        assert_eq!(cfg.l1i.capacity_bytes(), 8 * 1024);
        assert_eq!(cfg.l1i.ways(), 2);
        assert_eq!(cfg.l1i.line_bytes(), 128);
        assert_eq!(cfg.l1d.ways(), 4);
        assert_eq!(cfg.l1d.line_bytes(), 64);
        assert_eq!(cfg.l2.capacity_bytes(), 512 * 1024);
        assert_eq!(cfg.l2.ways(), 8);
        assert_eq!(cfg.l1_miss_cycles, 10);
        assert_eq!(cfg.l2_miss_cycles, 100);
    }

    #[test]
    fn latency_ladder() {
        let mut h = CacheHierarchy::new(MemSpec::default());
        let (lv0, lat0) = h.access_data(Addr(0x9000));
        assert_eq!((lv0, lat0), (MemLevel::Memory, 111));
        let (lv1, lat1) = h.access_data(Addr(0x9000));
        assert_eq!((lv1, lat1), (MemLevel::L1, 1));
        // A different address in the same L2 line but a different L1D line:
        // L1D lines are 64 B, L2 lines are 128 B.
        let (lv2, lat2) = h.access_data(Addr(0x9040));
        assert_eq!((lv2, lat2), (MemLevel::L2, 11));
    }

    #[test]
    fn instruction_and_data_paths_are_split() {
        let mut h = CacheHierarchy::new(MemSpec::default());
        h.access_instr(Addr(0x100));
        // Same address on the data side still misses L1D (but hits the
        // unified L2, which the instruction fill populated).
        let (lv, _) = h.access_data(Addr(0x100));
        assert_eq!(lv, MemLevel::L2);
    }

    #[test]
    fn debug_with_far_renders_the_new_surface() {
        let spec = MemSpec::figure4().with_far(FarSpec::new(400, 64, 8));
        let text = format!("{spec:?}");
        assert!(text.starts_with("MemSpec {"), "{text}");
        assert!(text.contains("FarSpec { latency: 400, mshrs: 64, batch: 8 }"), "{text}");
    }

    #[test]
    fn far_line_uses_the_l2_line_size() {
        let spec = MemSpec::default(); // 128 B L2 lines
        assert_eq!(spec.far_line(Addr(0)), 0);
        assert_eq!(spec.far_line(Addr(127)), 0);
        assert_eq!(spec.far_line(Addr(128)), 1);
    }

    #[test]
    fn stats_attribution() {
        let mut h = CacheHierarchy::new(MemSpec::default());
        h.access_instr(Addr(0));
        h.access_data(Addr(0));
        h.access_data(Addr(0));
        let (i, d, l2) = h.stats();
        assert_eq!(i.accesses(), 1);
        assert_eq!(d.accesses(), 2);
        assert_eq!(d.hits, 1);
        assert_eq!(l2.accesses(), 2); // one I-side miss, one D-side miss
    }
}
