//! Property test for the shared memory system's composability contract:
//! when two cores' access streams touch disjoint L2 sets, the shared L2's
//! hit/miss counts — and each core's private L1 counts — do not depend on
//! how finely the core scheduler interleaves the two streams.
//!
//! This is the cache-level justification for the multi-core litmus harness
//! sweeping *schedules* rather than cache states: with set-disjoint
//! footprints every interleaving drives each L2 set with the same per-set
//! access sequence, so replacement decisions (and therefore counters) are
//! schedule-invariant. Conversely, the L1 columns are private by
//! construction, so they must match a solo run of the same stream exactly.

use aim_mem::{
    CacheStats, CoreMemSys, FarSpec, FarStats, MainMemory, MemSpec,
    SharedMemSystem,
};
use aim_types::Addr;
use proptest::prelude::*;

/// Half the default L2's index space: 512 sets x 128-byte lines = 64 KiB,
/// so offsets below `REGION_BYTES` map to sets 0..256 and offsets in
/// `[REGION_BYTES, 2 * REGION_BYTES)` map to sets 256..512.
const REGION_BYTES: u64 = 0x8000;

/// One access: an offset inside the core's private region, and whether it
/// goes through the instruction or the data port.
type Access = (u16, bool);

fn addr_of(core: usize, (offset, _): Access) -> Addr {
    Addr(core as u64 * REGION_BYTES + (offset as u64 % REGION_BYTES))
}

fn drive(core: &mut CoreMemSys, id: usize, access: Access) {
    if access.1 {
        core.access_instr(addr_of(id, access));
    } else {
        core.access_data(addr_of(id, access));
    }
}

/// Runs both streams through one shared system, consuming them in chunks
/// dictated by `schedule` (core pick, chunk length); leftovers drain in
/// core order. Returns ((core0 L1I, core0 L1D), (core1 L1I, core1 L1D),
/// shared L2) counters.
fn run_interleaved(
    streams: &[Vec<Access>; 2],
    schedule: &[(bool, u8)],
) -> ([(CacheStats, CacheStats); 2], CacheStats) {
    let cfg = MemSpec::default();
    let shared = SharedMemSystem::new(MainMemory::new(), cfg).into_handle();
    let mut cores = [
        CoreMemSys::attach(0, cfg, shared.clone()),
        CoreMemSys::attach(1, cfg, shared.clone()),
    ];
    let mut cursors = [0usize, 0usize];
    let mut quanta = schedule
        .iter()
        .map(|&(pick, len)| (pick as usize, len as usize + 1))
        // Drain whatever the schedule left over, one core at a time.
        .chain([(0, usize::MAX), (1, usize::MAX)]);
    while cursors[0] < streams[0].len() || cursors[1] < streams[1].len() {
        let (id, len) = quanta.next().expect("drain tail is unbounded");
        for _ in 0..len {
            let Some(&access) = streams[id].get(cursors[id]) else {
                break;
            };
            drive(&mut cores[id], id, access);
            cursors[id] += 1;
        }
    }
    let l1 = [
        (cores[0].stats().0, cores[0].stats().1),
        (cores[1].stats().0, cores[1].stats().1),
    ];
    let l2 = shared.borrow().l2_stats();
    (l1, l2)
}

/// Runs one stream alone through a fresh single-core system.
fn run_solo(core_id: usize, stream: &[Access]) -> (CacheStats, CacheStats) {
    let mut core = CoreMemSys::single(MainMemory::new(), MemSpec::default());
    for &access in stream {
        drive(&mut core, core_id, access);
    }
    (core.stats().0, core.stats().1)
}

/// Like [`run_interleaved`], but over an arbitrary hierarchy through the
/// timed access ports, with a global clock ticking once per access.
/// Additionally returns the far-tier counters (when `cfg` has one).
fn run_interleaved_at(
    cfg: MemSpec,
    streams: &[Vec<Access>; 2],
    schedule: &[(bool, u8)],
) -> ([(CacheStats, CacheStats); 2], CacheStats, Option<FarStats>) {
    let shared = SharedMemSystem::new(MainMemory::new(), cfg).into_handle();
    let mut cores = [
        CoreMemSys::attach(0, cfg, shared.clone()),
        CoreMemSys::attach(1, cfg, shared.clone()),
    ];
    let mut cursors = [0usize, 0usize];
    let mut now = 0u64;
    let mut quanta = schedule
        .iter()
        .map(|&(pick, len)| (pick as usize, len as usize + 1))
        .chain([(0, usize::MAX), (1, usize::MAX)]);
    while cursors[0] < streams[0].len() || cursors[1] < streams[1].len() {
        let (id, len) = quanta.next().expect("drain tail is unbounded");
        for _ in 0..len {
            let Some(&access) = streams[id].get(cursors[id]) else {
                break;
            };
            let addr = addr_of(id, access);
            if access.1 {
                cores[id].access_instr_at(addr, now);
            } else {
                cores[id].access_data_at(addr, now);
            }
            now += 1;
            cursors[id] += 1;
        }
    }
    let l1 = [
        (cores[0].stats().0, cores[0].stats().1),
        (cores[1].stats().0, cores[1].stats().1),
    ];
    let l2 = shared.borrow().l2_stats();
    let far = shared.borrow().far_stats();
    (l1, l2, far)
}

fn stream() -> impl Strategy<Value = Vec<Access>> {
    proptest::collection::vec((any::<u16>(), any::<bool>()), 0..200)
}

fn schedule() -> impl Strategy<Value = Vec<(bool, u8)>> {
    proptest::collection::vec((any::<bool>(), any::<u8>()), 0..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With set-disjoint L2 footprints, every interleaving granularity
    /// yields the same L2 counters, and the private L1 counters match a
    /// solo run of each stream (i.e. sibling traffic is invisible to them).
    #[test]
    fn counters_are_interleaving_invariant(
        (stream0, stream1) in (stream(), stream()),
        schedule_a in schedule(),
        schedule_b in schedule(),
    ) {
        let streams = [stream0, stream1];
        let (l1_a, l2_a) = run_interleaved(&streams, &schedule_a);
        let (l1_b, l2_b) = run_interleaved(&streams, &schedule_b);
        prop_assert_eq!(l2_a, l2_b);
        prop_assert_eq!(l1_a, l1_b);
        for (id, stream) in streams.iter().enumerate() {
            prop_assert_eq!(l1_a[id], run_solo(id, stream));
        }
        // Sanity: the shared L2 really saw both cores' misses.
        let solo_l2 = |s: &[Access], id: usize| {
            let mut core = CoreMemSys::single(MainMemory::new(), MemSpec::default());
            for &a in s {
                drive(&mut core, id, a);
            }
            core.stats().2
        };
        let s0 = solo_l2(&streams[0], 0);
        let s1 = solo_l2(&streams[1], 1);
        prop_assert_eq!(l2_a.accesses(), s0.accesses() + s1.accesses());
        prop_assert_eq!(l2_a.hits, s0.hits + s1.hits);
    }

    /// The far tier only reshapes *latency*: with it enabled (through the
    /// timed ports), the L1/L2 hit/miss counters stay interleaving-
    /// invariant and byte-identical to the near-memory-only hierarchy,
    /// every L2 miss becomes exactly one far access, and the MSHR bound
    /// holds.
    #[test]
    fn far_tier_never_perturbs_the_cache_counters(
        (stream0, stream1) in (stream(), stream()),
        schedule_a in schedule(),
        schedule_b in schedule(),
    ) {
        let spec = FarSpec::new(300, 4, 8);
        let cfg = MemSpec::figure4().with_far(spec);
        let streams = [stream0, stream1];
        let (l1_a, l2_a, far_a) = run_interleaved_at(cfg, &streams, &schedule_a);
        let (l1_b, l2_b, _) = run_interleaved_at(cfg, &streams, &schedule_b);
        prop_assert_eq!(l2_a, l2_b);
        prop_assert_eq!(l1_a, l1_b);

        let (l1_near, l2_near, far_near) =
            run_interleaved_at(MemSpec::figure4(), &streams, &schedule_a);
        prop_assert_eq!(far_near, None);
        prop_assert_eq!(l1_a, l1_near);
        prop_assert_eq!(l2_a, l2_near);

        let far = far_a.expect("far tier configured");
        prop_assert_eq!(far.accesses, l2_a.misses);
        prop_assert!(far.coalesced <= far.accesses);
        // The MSHR bound holds except for never-refuse overflow pushes,
        // each of which is counted.
        prop_assert!(far.peak_inflight <= spec.mshrs + far.overflow as usize);
        // The never-refuse ports queue rather than refuse.
        prop_assert_eq!(far.busy, 0);
    }
}
