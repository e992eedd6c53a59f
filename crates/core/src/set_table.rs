//! A data-oriented set-associative table core.
//!
//! Every address-indexed structure in the simulator — SFC, MDT, the
//! filtered-LSQ store-presence filter, the PCAX PC tables, and the cache
//! timing models — is a `sets × ways` array probed by a hashed key. The
//! original implementations each kept a `Vec<Vec<Option<Entry>>>`, so one
//! probe chased two heap pointers and branched on an `Option` per way.
//!
//! [`SetTable`] replaces that with the dense layout the paper's hardware
//! argument assumes (§2.2: an address-indexed probe is a RAM read, not a
//! CAM search):
//!
//! * one flat backing array of keys, indexed `set * ways + way` (a *slot*);
//! * a bit-packed occupancy word per set — bit `w` set means way `w` holds
//!   a live entry;
//! * a branchless probe: every way's key is compared unconditionally and
//!   the comparison results are packed into a way mask, which is then ANDed
//!   with the occupancy word. Unoccupied slots may hold stale keys; the
//!   occupancy AND makes them unmatchable, so no `Option` is needed.
//!
//! Payload fields live in parallel structure-of-arrays columns owned by
//! each embedding structure (the SFC's data/valid/corrupt columns, the
//! MDT's sequence-number columns, …), indexed by the same flat slot. The
//! table itself tracks only keys, occupancy, and the occupancy statistics
//! every structure used to duplicate.
//!
//! Way order is preserved everywhere: "first free way", "first matching
//! way" and "first stale way" mean the lowest way index, exactly as the
//! nested-`Vec` implementations scanned, so migrated structures behave
//! bit-identically.

use crate::TableGeometry;

/// Keys + occupancy for a `sets × ways` table in a single flat allocation.
///
/// # Examples
///
/// ```
/// use aim_core::{SetHash, SetTable, TableGeometry};
///
/// let mut t = SetTable::new(TableGeometry { sets: 4, ways: 2, hash: SetHash::LowBits });
/// let set = t.set_of(0x13);
/// assert_eq!(t.probe(set, 0x13), 0, "empty table matches nothing");
/// let way = t.first_free(set).unwrap();
/// t.occupy(set, way, 0x13);
/// assert_eq!(t.probe(set, 0x13), 1 << way);
/// ```
#[derive(Debug, Clone)]
pub struct SetTable {
    geom: TableGeometry,
    /// Per-set occupancy bit-word: bit `w` set ⇔ way `w` is live.
    occ: Box<[u64]>,
    /// Full keys, flat `set * ways + way`. Vacated slots keep their stale
    /// key; the occupancy word masks them out of every probe.
    keys: Box<[u64]>,
    occupancy: usize,
    peak_occupancy: usize,
}

impl SetTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (non-power-of-two or zero `sets`,
    /// zero `ways`, or more than 64 ways: one occupancy bit per way).
    pub fn new(geom: TableGeometry) -> SetTable {
        geom.validate("SetTable");
        SetTable {
            geom,
            occ: vec![0; geom.sets].into_boxed_slice(),
            keys: vec![0; geom.entries()].into_boxed_slice(),
            occupancy: 0,
            peak_occupancy: 0,
        }
    }

    /// The table's shape.
    pub fn geometry(&self) -> TableGeometry {
        self.geom
    }

    /// Ways per set.
    #[inline]
    pub fn ways(&self) -> usize {
        self.geom.ways
    }

    /// The set `key` hashes to.
    #[inline]
    pub fn set_of(&self, key: u64) -> usize {
        self.geom.index(key)
    }

    /// The flat slot index of `(set, way)`.
    #[inline]
    pub fn slot(&self, set: usize, way: usize) -> usize {
        debug_assert!(way < self.geom.ways);
        set * self.geom.ways + way
    }

    /// The occupancy bit-word of `set`.
    #[inline]
    pub fn occ_word(&self, set: usize) -> u64 {
        self.occ[set]
    }

    /// Whether `(set, way)` holds a live entry.
    #[inline]
    pub fn is_occupied(&self, set: usize, way: usize) -> bool {
        self.occ[set] & (1 << way) != 0
    }

    /// The key stored at `slot` (stale for unoccupied slots).
    #[inline]
    pub fn key_at(&self, slot: usize) -> u64 {
        self.keys[slot]
    }

    /// Branchless probe: the mask of *occupied* ways of `set` whose key
    /// equals `key`. Every way's key is compared unconditionally; the
    /// occupancy word then masks out dead slots.
    #[inline]
    pub fn probe(&self, set: usize, key: u64) -> u64 {
        let base = set * self.geom.ways;
        let mut mask = 0u64;
        for w in 0..self.geom.ways {
            mask |= u64::from(self.keys[base + w] == key) << w;
        }
        mask & self.occ[set]
    }

    /// The lowest occupied way of `set` matching `key`, if any — the way
    /// order the nested-`Vec` scans used.
    #[inline]
    pub fn first_match(&self, set: usize, key: u64) -> Option<usize> {
        let mask = self.probe(set, key);
        (mask != 0).then(|| mask.trailing_zeros() as usize)
    }

    /// The lowest free way of `set`, if any.
    #[inline]
    pub fn first_free(&self, set: usize) -> Option<usize> {
        let free = !self.occ[set] & Self::way_mask(self.geom.ways);
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// All `ways` low bits set.
    #[inline]
    fn way_mask(ways: usize) -> u64 {
        if ways == 64 {
            u64::MAX
        } else {
            (1u64 << ways) - 1
        }
    }

    /// Marks the free way `(set, way)` occupied by `key`, counting it
    /// toward occupancy (and its peak).
    ///
    /// # Panics
    ///
    /// Debug-panics if the slot is already occupied.
    #[inline]
    pub fn occupy(&mut self, set: usize, way: usize, key: u64) {
        debug_assert!(!self.is_occupied(set, way), "occupy of a live slot");
        self.keys[set * self.geom.ways + way] = key;
        self.occ[set] |= 1 << way;
        self.occupancy += 1;
        self.peak_occupancy = self.peak_occupancy.max(self.occupancy);
    }

    /// Re-keys the *occupied* way `(set, way)` in place (victim
    /// replacement / stale reclaim), leaving occupancy unchanged.
    ///
    /// # Panics
    ///
    /// Debug-panics if the slot is not occupied.
    #[inline]
    pub fn replace(&mut self, set: usize, way: usize, key: u64) {
        debug_assert!(self.is_occupied(set, way), "replace of a dead slot");
        self.keys[set * self.geom.ways + way] = key;
    }

    /// Frees the occupied way `(set, way)`.
    ///
    /// # Panics
    ///
    /// Debug-panics if the slot is not occupied.
    #[inline]
    pub fn vacate(&mut self, set: usize, way: usize) {
        debug_assert!(self.is_occupied(set, way), "vacate of a dead slot");
        self.occ[set] &= !(1 << way);
        self.occupancy -= 1;
    }

    /// Empties the table (occupancy statistics are kept, as the structures'
    /// full flushes keep theirs).
    pub fn clear(&mut self) {
        self.occ.fill(0);
        self.occupancy = 0;
    }

    /// Live entries.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Highest occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Iterates the flat slot indices of every occupied entry, set-major,
    /// ascending way within a set — visiting only live slots, so
    /// whole-table sweeps cost O(occupancy), not O(sets × ways).
    pub fn occupied_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let ways = self.geom.ways;
        self.occ.iter().enumerate().flat_map(move |(set, &word)| {
            let base = set * ways;
            BitIter(word).map(move |w| base + w)
        })
    }
}

/// Iterator over the set bit positions of a word, ascending.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetHash;

    fn table(sets: usize, ways: usize) -> SetTable {
        SetTable::new(TableGeometry {
            sets,
            ways,
            hash: SetHash::LowBits,
        })
    }

    #[test]
    fn probe_masks_out_stale_keys() {
        let mut t = table(4, 2);
        t.occupy(1, 0, 0x11);
        t.occupy(1, 1, 0x21);
        assert_eq!(t.probe(1, 0x11), 0b01);
        assert_eq!(t.probe(1, 0x21), 0b10);
        t.vacate(1, 0);
        // The stale key 0x11 is still in the backing array but dead.
        assert_eq!(t.key_at(t.slot(1, 0)), 0x11);
        assert_eq!(t.probe(1, 0x11), 0);
    }

    #[test]
    fn first_free_and_first_match_use_lowest_way() {
        let mut t = table(2, 4);
        assert_eq!(t.first_free(0), Some(0));
        t.occupy(0, 0, 7);
        assert_eq!(t.first_free(0), Some(1));
        t.occupy(0, 2, 7);
        // Both ways 0 and 2 hold key 7: the scan order picks way 0.
        assert_eq!(t.first_match(0, 7), Some(0));
        t.vacate(0, 0);
        assert_eq!(t.first_match(0, 7), Some(2));
        assert_eq!(t.first_free(0), Some(0));
    }

    #[test]
    fn occupancy_and_peak_track_like_the_nested_vecs() {
        let mut t = table(2, 2);
        t.occupy(0, 0, 1);
        t.occupy(0, 1, 2);
        t.occupy(1, 0, 3);
        assert_eq!(t.occupancy(), 3);
        assert_eq!(t.peak_occupancy(), 3);
        t.vacate(0, 1);
        assert_eq!(t.occupancy(), 2);
        // Replace re-keys without moving occupancy.
        t.replace(0, 0, 9);
        assert_eq!(t.occupancy(), 2);
        assert_eq!(t.first_match(0, 9), Some(0));
        assert_eq!(t.peak_occupancy(), 3);
        t.clear();
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.peak_occupancy(), 3, "clear keeps the peak");
    }

    #[test]
    fn occupied_slots_visits_live_entries_in_slot_order() {
        let mut t = table(4, 2);
        t.occupy(0, 1, 1);
        t.occupy(2, 0, 2);
        t.occupy(2, 1, 3);
        t.occupy(3, 0, 4);
        let slots: Vec<usize> = t.occupied_slots().collect();
        assert_eq!(slots, vec![1, 4, 5, 6]);
    }

    #[test]
    fn sixty_four_ways_supported() {
        let mut t = table(1, 64);
        for w in 0..64 {
            t.occupy(0, w, w as u64);
        }
        assert_eq!(t.first_free(0), None);
        assert_eq!(t.probe(0, 63), 1 << 63);
        assert_eq!(t.occupancy(), 64);
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn more_than_64_ways_rejected() {
        table(1, 65);
    }
}
