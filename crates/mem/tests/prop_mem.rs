//! Property tests: memory round-trips and cache LRU behaviour against
//! reference models.

use aim_mem::{Cache, CacheConfig, MainMemory};
use aim_types::{AccessSize, Addr, MemAccess};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// MainMemory behaves as a sparse byte map.
    #[test]
    fn memory_matches_byte_map(
        writes in proptest::collection::vec((any::<u32>(), any::<u8>()), 0..100),
        probes in proptest::collection::vec(any::<u32>(), 0..50),
    ) {
        let mut mem = MainMemory::new();
        let mut reference: HashMap<u64, u8> = HashMap::new();
        for (addr, value) in &writes {
            mem.write_byte(Addr(*addr as u64), *value);
            reference.insert(*addr as u64, *value);
        }
        for addr in writes.iter().map(|(a, _)| *a).chain(probes) {
            let expect = reference.get(&(addr as u64)).copied().unwrap_or(0);
            prop_assert_eq!(mem.read_byte(Addr(addr as u64)), expect);
        }
    }

    /// Multi-byte reads assemble little-endian from the byte map.
    #[test]
    fn multibyte_reads_are_little_endian(base in 0u64..0x1000, value in any::<u64>()) {
        let mut mem = MainMemory::new();
        let acc = MemAccess::new(Addr(base * 8), AccessSize::Double).unwrap();
        mem.write(acc, value);
        for k in 0..8u64 {
            prop_assert_eq!(mem.read_byte(Addr(base * 8 + k)), (value >> (8 * k)) as u8);
        }
        let half = MemAccess::new(Addr(base * 8 + 4), AccessSize::Word).unwrap();
        prop_assert_eq!(mem.read(half), value >> 32);
    }

    /// The cache agrees with a reference true-LRU model on every access.
    #[test]
    fn cache_matches_reference_lru(accesses in proptest::collection::vec(0u64..4096, 1..300)) {
        let cfg = CacheConfig::new(512, 2, 32); // 8 sets, 2 ways, 32 B lines
        let mut cache = Cache::new(cfg);
        // Reference: per set, a recency-ordered list of resident tags.
        let mut sets: Vec<Vec<u64>> = vec![Vec::new(); cfg.sets()];
        for addr in accesses {
            let line = addr / cfg.line_bytes() as u64;
            let set = (line as usize) % cfg.sets();
            let tag = line / cfg.sets() as u64;
            let expect_hit = sets[set].contains(&tag);
            let got_hit = cache.access(Addr(addr));
            prop_assert_eq!(got_hit, expect_hit, "addr {:#x}", addr);
            if let Some(pos) = sets[set].iter().position(|&t| t == tag) {
                sets[set].remove(pos);
            } else if sets[set].len() == cfg.ways() {
                sets[set].remove(0); // evict LRU
            }
            sets[set].push(tag); // most recent at the back
        }
    }
}

#[test]
fn hierarchy_commit_path_counts_like_loads() {
    use aim_mem::{CacheHierarchy, MemSpec, MemLevel};
    let mut h = CacheHierarchy::new(MemSpec::default());
    // A store commit and a later load to the same line share residency.
    let (lv, _) = h.access_data(Addr(0x7000));
    assert_eq!(lv, MemLevel::Memory);
    let (lv, lat) = h.access_data(Addr(0x7008));
    assert_eq!((lv, lat), (MemLevel::L1, 1));
}

#[test]
fn hierarchy_latencies_compose_from_config() {
    use aim_mem::{CacheHierarchy, MemSpec, MemLevel};
    let cfg = MemSpec {
        l1_hit_cycles: 2,
        l1_miss_cycles: 7,
        l2_miss_cycles: 50,
        ..MemSpec::default()
    };
    let mut h = CacheHierarchy::new(cfg);
    let (lv, lat) = h.access_data(Addr(0));
    assert_eq!((lv, lat), (MemLevel::Memory, 59));
    let (lv, lat) = h.access_data(Addr(0));
    assert_eq!((lv, lat), (MemLevel::L1, 2));
}
