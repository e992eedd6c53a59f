//! The memory disambiguation table (paper §2.2, Figure 2).

use aim_types::{MemAccess, SeqNum, ViolationKind};

use crate::{SetHash, SetTable, StructuralConflict, TableGeometry};

/// Recovery policy for true dependence violations (paper §2.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrueDepRecovery {
    /// Flush all instructions subsequent to the completing store (default).
    #[default]
    Conservative,
    /// "Each MDT entry could keep a count of the number of loads completed
    /// but not yet retired. When the MDT detects a true dependence violation,
    /// if this counter's value is one, the processor can flush the early load
    /// and subsequent instructions, rather than the instructions subsequent
    /// to the completing store."
    ///
    /// The counter can only over-count (squashed loads never decrement it,
    /// since the MDT ignores pipeline flushes), so the aggressive path is
    /// taken only when it is provably safe.
    SingleLoadAggressive,
}

/// Whether MDT entries carry address tags (paper §2.2).
///
/// "Entries in the MDT may be tagged or untagged. In an untagged MDT, all
/// in-flight loads and stores whose addresses map to the same MDT entry
/// simply share that entry. Thus, aliasing among loads and stores with
/// different addresses causes the MDT to detect spurious memory ordering
/// violations. Tagged entries prevent aliasing and enable construction of a
/// set-associative MDT."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MdtTagging {
    /// Tagged, set-associative entries; allocation can fail (structural
    /// conflicts → re-execution), but distinct addresses never alias.
    #[default]
    Tagged,
    /// Untagged, direct-mapped entries shared by every aliasing address;
    /// allocation never fails, but aliasing produces spurious violations.
    Untagged,
}

/// Geometry and policy of the [`Mdt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MdtConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity (forced to 1 by [`MdtTagging::Untagged`]).
    pub ways: usize,
    /// Bytes disambiguated by one entry (power of two, ≥ 8). "Empirically,
    /// we observe that an 8-byte granular MDT is adequate for a 64-bit
    /// processor."
    pub granularity: u64,
    /// Recovery policy for true dependence violations.
    pub true_dep_recovery: TrueDepRecovery,
    /// Tagged (default) or untagged entries.
    pub tagging: MdtTagging,
    /// Set-index hash (§3.2: low bits by default; XOR-folding defeats
    /// set-sized power-of-two strides).
    pub hash: SetHash,
}

impl MdtConfig {
    /// The baseline processor's MDT: "4K sets, 2-way set assoc." (Figure 4).
    pub fn baseline() -> MdtConfig {
        MdtConfig {
            sets: 4096,
            ways: 2,
            granularity: 8,
            true_dep_recovery: TrueDepRecovery::Conservative,
            tagging: MdtTagging::Tagged,
            hash: SetHash::LowBits,
        }
    }

    /// The aggressive processor's MDT: "8K sets, 2-way set assoc." (Figure 4).
    pub fn aggressive() -> MdtConfig {
        MdtConfig {
            sets: 8192,
            ways: 2,
            ..MdtConfig::baseline()
        }
    }

    /// The kilo-entry-window machine's MDT: 32K sets, 4-way. A 4096-entry
    /// window keeps thousands of distinct word addresses in flight at
    /// once; on scattered-address workloads the Figure 4 geometries run
    /// out of ways and every conflicting load replays. The MDT is
    /// RAM-indexed, so the fix is simply more SRAM — the scaling freedom
    /// the paper contrasts against the LSQ's CAM ports.
    pub fn huge() -> MdtConfig {
        MdtConfig {
            sets: 32768,
            ways: 4,
            ..MdtConfig::baseline()
        }
    }

    /// The MDT's shape as a shared [`TableGeometry`] (the flat `sets` /
    /// `ways` / `hash` fields stay public for per-experiment mutation; this
    /// view is what the table indexes through).
    pub fn geometry(&self) -> TableGeometry {
        TableGeometry {
            sets: self.sets,
            ways: self.ways,
            hash: self.hash,
        }
    }
}

/// A detected memory dependence violation, with everything the pipeline needs
/// for recovery and predictor training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Which dependence was violated.
    pub kind: ViolationKind,
    /// PC of the earlier instruction (the predicted *producer*).
    pub producer_pc: u64,
    /// PC of the later instruction (the predicted *consumer*).
    pub consumer_pc: u64,
    /// Recovery point: squash every instruction with `seq > squash_after`.
    ///
    /// * True/output violation: all instructions subsequent to the completing
    ///   store are flushed (`squash_after` = the store's sequence number) —
    ///   or, under [`TrueDepRecovery::SingleLoadAggressive`], everything from
    ///   the single conflicting load onward.
    /// * Anti violation: "the pipeline flushes the load and all subsequent
    ///   instructions" (`squash_after` = the load's predecessor).
    pub squash_after: SeqNum,
}

aim_types::record! {
    /// Counters for the MDT.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MdtStats {
        /// Load execute-time checks performed.
        pub load_checks: u64,
        /// Store execute-time checks performed.
        pub store_checks: u64,
        /// True dependence violations detected.
        pub true_violations: u64,
        /// Anti dependence violations detected.
        pub anti_violations: u64,
        /// Output dependence violations detected.
        pub output_violations: u64,
        /// Structural (set) conflicts forcing re-execution.
        pub conflicts: u64,
        /// Stale entries reclaimed at allocation time.
        pub reclaims: u64,
        /// Entries freed at retirement.
        pub frees: u64,
        /// Aggressive (single-load) true-dependence recoveries taken.
        pub aggressive_recoveries: u64,
    }
}

impl MdtStats {
    /// Total violations of all kinds.
    pub fn total_violations(&self) -> u64 {
        self.true_violations + self.anti_violations + self.output_violations
    }
}

/// Sentinel for "no sequence number recorded" in the SoA columns (the
/// dense stand-in for `Option<SeqNum>`). Real sequence numbers start at 1
/// and never reach `u64::MAX`; every comparison checks the sentinel
/// explicitly rather than relying on its ordering.
const NO_SEQ: u64 = u64::MAX;

/// The memory disambiguation table: "an address-indexed, cache-like structure
/// that replaces the conventional load queue and its associative search
/// logic. ... the MDT buffers the sequence numbers of the latest load and
/// store to each in-flight memory address. Therefore, memory disambiguation
/// requires at most two sequence number comparisons for each issued load or
/// store" (§2.2).
///
/// Tagged entries prevent aliasing; when a set conflict prevents allocation,
/// the access reports a [`StructuralConflict`] and is replayed. Entries whose
/// recorded sequence numbers are all older than the oldest in-flight
/// instruction belong to retired or canceled instructions and are reclaimed
/// lazily at allocation (the paper's MDT "ignores partial flushes" and simply
/// becomes conservative about canceled instructions).
///
/// # Examples
///
/// An anti-dependence violation — a younger store beats an older load to the
/// same address:
///
/// ```
/// use aim_core::{Mdt, MdtConfig};
/// use aim_types::{AccessSize, Addr, MemAccess, SeqNum, ViolationKind};
///
/// let mut mdt = Mdt::new(MdtConfig::baseline());
/// let acc = MemAccess::new(Addr(0x80), AccessSize::Double).unwrap();
/// let floor = SeqNum(1);
///
/// // Store #5 (younger) executes first...
/// mdt.on_store_execute(SeqNum(5), 0x20, acc, floor).unwrap();
/// // ...then load #2 (older) executes: WAR violation.
/// let v = mdt.on_load_execute(SeqNum(2), 0x10, acc, floor).unwrap().unwrap();
/// assert_eq!(v.kind, ViolationKind::Anti);
/// assert_eq!(v.squash_after, SeqNum(1)); // the load itself is flushed
/// ```
#[derive(Debug, Clone)]
pub struct Mdt {
    config: MdtConfig,
    /// Granule keys + per-set occupancy bit-words.
    table: SetTable,
    /// SoA payload columns, indexed by the table's flat slot. Sequence
    /// numbers use the [`NO_SEQ`] sentinel for "invalid".
    load_seq: Vec<u64>,
    store_seq: Vec<u64>,
    load_pc: Vec<u64>,
    store_pc: Vec<u64>,
    /// Loads completed but not yet retired per entry (see
    /// [`TrueDepRecovery::SingleLoadAggressive`]).
    loads_completed: Vec<u32>,
    stats: MdtStats,
}

impl Mdt {
    /// Creates an empty MDT.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `granularity` is not a nonzero power of two, if
    /// `granularity < 8`, or if `ways == 0`.
    pub fn new(mut config: MdtConfig) -> Mdt {
        assert!(config.granularity.is_power_of_two() && config.granularity >= 8);
        if config.tagging == MdtTagging::Untagged {
            config.ways = 1; // untagged entries are direct-mapped
        }
        let table = SetTable::new(config.geometry());
        let entries = config.sets * config.ways;
        Mdt {
            config,
            table,
            load_seq: vec![NO_SEQ; entries],
            store_seq: vec![NO_SEQ; entries],
            load_pc: vec![0; entries],
            store_pc: vec![0; entries],
            loads_completed: vec![0; entries],
            stats: MdtStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> MdtConfig {
        self.config
    }

    /// Counters.
    pub fn stats(&self) -> MdtStats {
        self.stats
    }

    /// Entries currently allocated.
    pub fn occupancy(&self) -> usize {
        self.table.occupancy()
    }

    /// Highest occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.table.peak_occupancy()
    }

    #[inline]
    fn granule_of(&self, access: MemAccess) -> u64 {
        access.addr().0 / self.config.granularity
    }

    #[inline]
    fn is_stale(&self, slot: usize, floor: SeqNum) -> bool {
        let ls = self.load_seq[slot];
        let ss = self.store_seq[slot];
        (ls == NO_SEQ || ls < floor.0) && (ss == NO_SEQ || ss < floor.0)
    }

    /// The way holding `granule`, if any. Untagged entries are shared by
    /// every aliasing granule, so any occupied way of the set matches.
    #[inline]
    fn find(&self, set: usize, granule: u64) -> Option<usize> {
        if self.config.tagging == MdtTagging::Untagged {
            let occ = self.table.occ_word(set);
            (occ != 0).then(|| occ.trailing_zeros() as usize)
        } else {
            self.table.first_match(set, granule)
        }
    }

    /// Resets a slot's payload columns to the empty-entry state.
    #[inline]
    fn reset_slot(&mut self, slot: usize) {
        self.load_seq[slot] = NO_SEQ;
        self.store_seq[slot] = NO_SEQ;
        self.load_pc[slot] = 0;
        self.store_pc[slot] = 0;
        self.loads_completed[slot] = 0;
    }

    /// Finds the slot holding `granule`, or allocates one (empty way first,
    /// then any stale way). `Err` is a set conflict.
    fn find_or_alloc(&mut self, granule: u64, floor: SeqNum) -> Result<usize, StructuralConflict> {
        let set = self.table.set_of(granule);
        if let Some(way) = self.find(set, granule) {
            return Ok(self.table.slot(set, way));
        }
        if let Some(way) = self.table.first_free(set) {
            self.table.occupy(set, way, granule);
            let slot = self.table.slot(set, way);
            self.reset_slot(slot);
            return Ok(slot);
        }
        // Every way is occupied by another granule: reclaim the first stale
        // one in place.
        if let Some(way) =
            (0..self.table.ways()).find(|&w| self.is_stale(self.table.slot(set, w), floor))
        {
            self.stats.reclaims += 1;
            self.table.replace(set, way, granule);
            let slot = self.table.slot(set, way);
            self.reset_slot(slot);
            return Ok(slot);
        }
        self.stats.conflicts += 1;
        Err(StructuralConflict)
    }

    /// A load at `pc` with sequence number `seq` executes an access.
    ///
    /// Returns `Ok(Some(violation))` for an anti-dependence violation (a
    /// younger store already executed), `Ok(None)` when the load completes
    /// cleanly.
    ///
    /// # Errors
    ///
    /// [`StructuralConflict`] if no MDT entry could be allocated; the memory
    /// unit must drop and replay the load.
    pub fn on_load_execute(
        &mut self,
        seq: SeqNum,
        pc: u64,
        access: MemAccess,
        floor: SeqNum,
    ) -> Result<Option<Violation>, StructuralConflict> {
        self.stats.load_checks += 1;
        let granule = self.granule_of(access);
        let slot = self.find_or_alloc(granule, floor)?;

        let ss = self.store_seq[slot];
        if ss != NO_SEQ && seq.0 < ss {
            // A later store already completed: the load (and everything
            // after it) must be flushed and re-executed.
            self.stats.anti_violations += 1;
            return Ok(Some(Violation {
                kind: ViolationKind::Anti,
                producer_pc: pc,
                consumer_pc: self.store_pc[slot],
                squash_after: SeqNum(seq.0.saturating_sub(1)),
            }));
        }

        let ls = self.load_seq[slot];
        if ls == NO_SEQ || seq.0 > ls {
            self.load_seq[slot] = seq.0;
            self.load_pc[slot] = pc;
        }
        self.loads_completed[slot] += 1;
        Ok(None)
    }

    /// A store at `pc` with sequence number `seq` executes an access.
    ///
    /// Returns the violations detected (a late store can simultaneously
    /// violate a true dependence against a younger load and an output
    /// dependence against a younger store; both arcs are reported, with the
    /// same flush point).
    ///
    /// # Errors
    ///
    /// [`StructuralConflict`] if no MDT entry could be allocated.
    pub fn on_store_execute(
        &mut self,
        seq: SeqNum,
        pc: u64,
        access: MemAccess,
        floor: SeqNum,
    ) -> Result<Vec<Violation>, StructuralConflict> {
        self.stats.store_checks += 1;
        let granule = self.granule_of(access);
        let recovery = self.config.true_dep_recovery;
        let slot = self.find_or_alloc(granule, floor)?;
        let mut violations = Vec::new();

        let ss = self.store_seq[slot];
        if ss != NO_SEQ && seq.0 < ss {
            // Output violation: this (earlier) store completed after a
            // later store already wrote the SFC.
            violations.push(Violation {
                kind: ViolationKind::Output,
                producer_pc: pc,
                consumer_pc: self.store_pc[slot],
                squash_after: seq,
            });
        } else {
            self.store_seq[slot] = seq.0;
            self.store_pc[slot] = pc;
        }

        let mut aggressive = false;
        let ls = self.load_seq[slot];
        if ls != NO_SEQ && seq.0 < ls {
            // True violation: a later load already executed and read a
            // stale value.
            let squash_after = if recovery == TrueDepRecovery::SingleLoadAggressive
                && self.loads_completed[slot] == 1
            {
                aggressive = true;
                SeqNum(ls.saturating_sub(1))
            } else {
                seq
            };
            violations.push(Violation {
                kind: ViolationKind::True,
                producer_pc: pc,
                consumer_pc: self.load_pc[slot],
                squash_after,
            });
        }

        if aggressive {
            self.stats.aggressive_recoveries += 1;
        }
        for v in &violations {
            match v.kind {
                ViolationKind::True => self.stats.true_violations += 1,
                ViolationKind::Output => self.stats.output_violations += 1,
                ViolationKind::Anti => unreachable!("stores cannot raise anti violations"),
            }
        }
        Ok(violations)
    }

    /// Read-only probe: has an **older, still in-flight** store already
    /// executed to the granule this access touches?
    ///
    /// This is the safety check behind a PC-indexed "no-alias" prediction:
    /// a load that skips the SFC probe would silently read stale memory if
    /// an older store had already executed to its granule — and because the
    /// store executed *first*, the MDT's late-store true-dependence check
    /// would never fire to catch it. Every executed-but-unretired store has
    /// a live record here (execution sets `store_seq`; only its own in-order
    /// retirement clears it; stale reclaim requires the whole entry to be
    /// older than `floor`), so a `false` answer proves the skip is safe.
    /// Squashed stores may leave stale records behind; those only make the
    /// probe conservatively answer `true`.
    ///
    /// The probe bumps no counters and allocates nothing — a miss (no
    /// matching entry) is simply `false`.
    pub fn executed_older_store(&self, seq: SeqNum, access: MemAccess, floor: SeqNum) -> bool {
        let granule = self.granule_of(access);
        let set = self.table.set_of(granule);
        match self.find(set, granule) {
            Some(way) => {
                let ss = self.store_seq[self.table.slot(set, way)];
                ss != NO_SEQ && ss >= floor.0 && ss < seq.0
            }
            None => false,
        }
    }

    /// Frees the slot if both its sequence numbers are invalid.
    fn maybe_free(&mut self, set: usize, way: usize) -> bool {
        let slot = self.table.slot(set, way);
        if self.load_seq[slot] == NO_SEQ && self.store_seq[slot] == NO_SEQ {
            self.table.vacate(set, way);
            self.stats.frees += 1;
            return true;
        }
        false
    }

    /// A load retires. "If the sequence numbers match, then the retiring load
    /// is the latest in-flight load to its address. Thus, the MDT invalidates
    /// the entry's load sequence number ... If the entry's store sequence
    /// number is also invalid, then the MDT frees the entry."
    ///
    /// In [`MdtTagging::Untagged`] mode, entries are shared by aliasing
    /// addresses, so a sequence-number match does **not** prove the retiring
    /// instruction owns the record — an aliased retirement could erase
    /// another in-flight address's sequence number and let a late conflicting
    /// access escape detection. Untagged entries therefore never invalidate
    /// at retirement; stale records are merely conservative (they can only
    /// cause spurious violations against canceled instructions) and are
    /// superseded by the next access.
    ///
    /// Returns `true` if an entry was freed (used to clear scheduler stall
    /// bits, §2.4.3).
    pub fn on_load_retire(&mut self, seq: SeqNum, access: MemAccess) -> bool {
        if self.config.tagging == MdtTagging::Untagged {
            return false;
        }
        let granule = self.granule_of(access);
        let set = self.table.set_of(granule);
        if let Some(way) = self.find(set, granule) {
            let slot = self.table.slot(set, way);
            self.loads_completed[slot] = self.loads_completed[slot].saturating_sub(1);
            if self.load_seq[slot] == seq.0 {
                self.load_seq[slot] = NO_SEQ;
                return self.maybe_free(set, way);
            }
        }
        false
    }

    /// A store retires; symmetric to [`Mdt::on_load_retire`].
    pub fn on_store_retire(&mut self, seq: SeqNum, access: MemAccess) -> bool {
        if self.config.tagging == MdtTagging::Untagged {
            return false;
        }
        let granule = self.granule_of(access);
        let set = self.table.set_of(granule);
        if let Some(way) = self.find(set, granule) {
            let slot = self.table.slot(set, way);
            if self.store_seq[slot] == seq.0 {
                self.store_seq[slot] = NO_SEQ;
                return self.maybe_free(set, way);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_types::{AccessSize, Addr};

    fn acc(addr: u64) -> MemAccess {
        MemAccess::new(Addr(addr), AccessSize::Double).unwrap()
    }

    fn mdt() -> Mdt {
        Mdt::new(MdtConfig::baseline())
    }

    const FLOOR: SeqNum = SeqNum(0);

    #[test]
    fn in_order_accesses_are_clean() {
        let mut m = mdt();
        assert!(m
            .on_store_execute(SeqNum(1), 0x10, acc(0x100), FLOOR)
            .unwrap()
            .is_empty());
        assert!(m
            .on_load_execute(SeqNum(2), 0x14, acc(0x100), FLOOR)
            .unwrap()
            .is_none());
        assert_eq!(m.stats().total_violations(), 0);
    }

    #[test]
    fn true_violation_detected_on_late_store() {
        let mut m = mdt();
        // Load #5 executes before store #3 (program order: store then load).
        m.on_load_execute(SeqNum(5), 0x20, acc(0x100), FLOOR)
            .unwrap();
        let v = m
            .on_store_execute(SeqNum(3), 0x10, acc(0x100), FLOOR)
            .unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::True);
        assert_eq!(v[0].producer_pc, 0x10);
        assert_eq!(v[0].consumer_pc, 0x20);
        assert_eq!(v[0].squash_after, SeqNum(3)); // conservative: after the store
        assert_eq!(m.stats().true_violations, 1);
    }

    #[test]
    fn anti_violation_detected_on_late_load() {
        let mut m = mdt();
        m.on_store_execute(SeqNum(7), 0x30, acc(0x200), FLOOR)
            .unwrap();
        let v = m
            .on_load_execute(SeqNum(4), 0x24, acc(0x200), FLOOR)
            .unwrap()
            .unwrap();
        assert_eq!(v.kind, ViolationKind::Anti);
        assert_eq!(v.producer_pc, 0x24); // the load is the earlier instruction
        assert_eq!(v.consumer_pc, 0x30);
        assert_eq!(v.squash_after, SeqNum(3)); // load itself is flushed
    }

    #[test]
    fn output_violation_detected_on_late_store() {
        let mut m = mdt();
        m.on_store_execute(SeqNum(9), 0x40, acc(0x300), FLOOR)
            .unwrap();
        let v = m
            .on_store_execute(SeqNum(6), 0x36, acc(0x300), FLOOR)
            .unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Output);
        assert_eq!(v[0].squash_after, SeqNum(6));
        // The later store's sequence number stays in the entry.
        let v2 = m
            .on_store_execute(SeqNum(8), 0x38, acc(0x300), FLOOR)
            .unwrap();
        assert_eq!(v2[0].kind, ViolationKind::Output);
    }

    #[test]
    fn late_store_can_violate_both_true_and_output() {
        let mut m = mdt();
        m.on_store_execute(SeqNum(9), 0x40, acc(0x300), FLOOR)
            .unwrap();
        m.on_load_execute(SeqNum(10), 0x44, acc(0x300), FLOOR)
            .unwrap();
        let v = m
            .on_store_execute(SeqNum(5), 0x30, acc(0x300), FLOOR)
            .unwrap();
        let kinds: Vec<ViolationKind> = v.iter().map(|x| x.kind).collect();
        assert!(kinds.contains(&ViolationKind::Output));
        assert!(kinds.contains(&ViolationKind::True));
        assert!(v.iter().all(|x| x.squash_after == SeqNum(5)));
    }

    #[test]
    fn different_granules_do_not_interact() {
        let mut m = mdt();
        m.on_store_execute(SeqNum(9), 0x40, acc(0x300), FLOOR)
            .unwrap();
        assert!(m
            .on_load_execute(SeqNum(4), 0x24, acc(0x308), FLOOR)
            .unwrap()
            .is_none());
    }

    #[test]
    fn subword_accesses_share_a_granule() {
        let mut m = mdt();
        let lo = MemAccess::new(Addr(0x400), AccessSize::Byte).unwrap();
        let hi = MemAccess::new(Addr(0x407), AccessSize::Byte).unwrap();
        m.on_store_execute(SeqNum(9), 0x40, hi, FLOOR).unwrap();
        // 8-byte granularity: even disjoint bytes of one word conflict.
        let v = m.on_load_execute(SeqNum(4), 0x24, lo, FLOOR).unwrap();
        assert!(v.is_some(), "8-byte granularity aliases within the word");
    }

    #[test]
    fn wider_granularity_aliases_more() {
        let mut cfg = MdtConfig::baseline();
        cfg.granularity = 64;
        let mut m = Mdt::new(cfg);
        m.on_store_execute(SeqNum(9), 0x40, acc(0x100), FLOOR)
            .unwrap();
        // 0x120 is a different 8-byte word but the same 64-byte granule.
        let v = m
            .on_load_execute(SeqNum(4), 0x24, acc(0x120), FLOOR)
            .unwrap();
        assert!(v.is_some());
    }

    #[test]
    fn set_conflict_reported_when_ways_exhausted() {
        let mut cfg = MdtConfig::baseline();
        cfg.sets = 2;
        cfg.ways = 1;
        let mut m = Mdt::new(cfg);
        // Granules 0 and 2 both map to set 0.
        m.on_store_execute(SeqNum(5), 0x10, acc(0x0), SeqNum(5))
            .unwrap();
        let err = m.on_store_execute(SeqNum(6), 0x14, acc(0x10), SeqNum(5));
        assert_eq!(err.unwrap_err(), StructuralConflict);
        assert_eq!(m.stats().conflicts, 1);
    }

    #[test]
    fn stale_entries_are_reclaimed() {
        let mut cfg = MdtConfig::baseline();
        cfg.sets = 2;
        cfg.ways = 1;
        let mut m = Mdt::new(cfg);
        m.on_store_execute(SeqNum(5), 0x10, acc(0x0), SeqNum(5))
            .unwrap();
        // Seq 5 has retired or been squashed: floor is now 20.
        let ok = m.on_store_execute(SeqNum(21), 0x14, acc(0x10), SeqNum(20));
        assert!(ok.is_ok());
        assert_eq!(m.stats().reclaims, 1);
    }

    #[test]
    fn retire_frees_entry_when_both_sides_clear() {
        let mut m = mdt();
        m.on_store_execute(SeqNum(1), 0x10, acc(0x500), FLOOR)
            .unwrap();
        m.on_load_execute(SeqNum(2), 0x14, acc(0x500), FLOOR)
            .unwrap();
        assert_eq!(m.occupancy(), 1);
        assert!(!m.on_store_retire(SeqNum(1), acc(0x500))); // load still live
        assert!(m.on_load_retire(SeqNum(2), acc(0x500)));
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.stats().frees, 1);
    }

    #[test]
    fn superseded_retire_does_not_invalidate() {
        let mut m = mdt();
        m.on_load_execute(SeqNum(2), 0x14, acc(0x500), FLOOR)
            .unwrap();
        m.on_load_execute(SeqNum(9), 0x18, acc(0x500), FLOOR)
            .unwrap();
        // The older load's retirement must not clear the younger's seq.
        assert!(!m.on_load_retire(SeqNum(2), acc(0x500)));
        // Younger store then sees no anti violation (it is younger than 9? no:
        // check that entry still tracks load seq 9).
        let v = m
            .on_store_execute(SeqNum(5), 0x30, acc(0x500), FLOOR)
            .unwrap();
        assert_eq!(v[0].kind, ViolationKind::True); // proves seq 9 retained
    }

    #[test]
    fn aggressive_recovery_flushes_from_single_load() {
        let mut cfg = MdtConfig::baseline();
        cfg.true_dep_recovery = TrueDepRecovery::SingleLoadAggressive;
        let mut m = Mdt::new(cfg);
        m.on_load_execute(SeqNum(8), 0x20, acc(0x100), FLOOR)
            .unwrap();
        let v = m
            .on_store_execute(SeqNum(3), 0x10, acc(0x100), FLOOR)
            .unwrap();
        assert_eq!(v[0].squash_after, SeqNum(7)); // from the load, not the store
        assert_eq!(m.stats().aggressive_recoveries, 1);
    }

    #[test]
    fn aggressive_recovery_falls_back_with_two_loads() {
        let mut cfg = MdtConfig::baseline();
        cfg.true_dep_recovery = TrueDepRecovery::SingleLoadAggressive;
        let mut m = Mdt::new(cfg);
        m.on_load_execute(SeqNum(8), 0x20, acc(0x100), FLOOR)
            .unwrap();
        m.on_load_execute(SeqNum(9), 0x24, acc(0x100), FLOOR)
            .unwrap();
        let v = m
            .on_store_execute(SeqNum(3), 0x10, acc(0x100), FLOOR)
            .unwrap();
        assert_eq!(v[0].squash_after, SeqNum(3)); // conservative
        assert_eq!(m.stats().aggressive_recoveries, 0);
    }

    #[test]
    fn violating_load_does_not_update_entry() {
        let mut m = mdt();
        m.on_store_execute(SeqNum(7), 0x30, acc(0x200), FLOOR)
            .unwrap();
        let _ = m.on_load_execute(SeqNum(4), 0x24, acc(0x200), FLOOR);
        // A later store (younger than 7) sees no true violation, because the
        // violating load never recorded itself.
        let v = m
            .on_store_execute(SeqNum(8), 0x34, acc(0x200), FLOOR)
            .unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn untagged_mdt_never_conflicts_but_aliases() {
        let mut cfg = MdtConfig::baseline();
        cfg.sets = 2;
        cfg.ways = 4; // forced to 1 by Untagged
        cfg.tagging = MdtTagging::Untagged;
        let mut m = Mdt::new(cfg);
        // Two different granules mapping to set 0 share the single entry.
        m.on_store_execute(SeqNum(9), 0x40, acc(0x0), FLOOR)
            .unwrap();
        // A load to a *different* address in the same set sees the alias:
        // spurious anti violation, never a structural conflict.
        let v = m.on_load_execute(SeqNum(4), 0x24, acc(0x10), FLOOR);
        assert!(matches!(v, Ok(Some(x)) if x.kind == ViolationKind::Anti));
        assert_eq!(m.stats().conflicts, 0);
    }

    #[test]
    fn untagged_mdt_never_invalidates_at_retire() {
        // An aliased retirement must not erase another address's in-flight
        // record: store #5 to granule 0x10 is still in flight when the
        // aliasing store #1 retires, and its record must survive so a late
        // store #3 to the same granule is still caught.
        let mut cfg = MdtConfig::baseline();
        cfg.sets = 2;
        cfg.tagging = MdtTagging::Untagged;
        let mut m = Mdt::new(cfg);
        m.on_store_execute(SeqNum(1), 0x40, acc(0x0), FLOOR)
            .unwrap();
        m.on_store_execute(SeqNum(5), 0x44, acc(0x10), FLOOR)
            .unwrap();
        assert!(!m.on_store_retire(SeqNum(1), acc(0x0)));
        let v = m
            .on_store_execute(SeqNum(3), 0x48, acc(0x10), FLOOR)
            .unwrap();
        assert_eq!(v[0].kind, ViolationKind::Output);
    }

    #[test]
    fn executed_older_store_probe_sees_in_flight_stores() {
        let mut m = mdt();
        assert!(!m.executed_older_store(SeqNum(5), acc(0x100), FLOOR));
        m.on_store_execute(SeqNum(3), 0x10, acc(0x100), FLOOR)
            .unwrap();
        // Older executed store to the same granule: probe fires.
        assert!(m.executed_older_store(SeqNum(5), acc(0x100), FLOOR));
        // ...but not against younger loads' seq, other granules, or once the
        // store has slipped below the in-flight floor.
        assert!(!m.executed_older_store(SeqNum(2), acc(0x100), FLOOR));
        assert!(!m.executed_older_store(SeqNum(5), acc(0x108), FLOOR));
        assert!(!m.executed_older_store(SeqNum(5), acc(0x100), SeqNum(4)));
        let checks = m.stats().load_checks + m.stats().store_checks;
        assert_eq!(checks, 1, "the probe is stats-transparent");
    }

    #[test]
    fn executed_older_store_probe_clears_at_retire() {
        let mut m = mdt();
        m.on_store_execute(SeqNum(3), 0x10, acc(0x100), FLOOR)
            .unwrap();
        m.on_store_retire(SeqNum(3), acc(0x100));
        assert!(!m.executed_older_store(SeqNum(5), acc(0x100), FLOOR));
    }

    #[test]
    fn executed_older_store_probe_is_conservative_when_untagged() {
        let mut cfg = MdtConfig::baseline();
        cfg.sets = 2;
        cfg.tagging = MdtTagging::Untagged;
        let mut m = Mdt::new(cfg);
        m.on_store_execute(SeqNum(3), 0x10, acc(0x0), FLOOR).unwrap();
        // A different granule in the same set shares the untagged entry.
        assert!(m.executed_older_store(SeqNum(5), acc(0x10), FLOOR));
    }

    #[test]
    fn occupancy_peaks_are_tracked() {
        let mut m = mdt();
        for i in 0..10u64 {
            m.on_store_execute(SeqNum(i + 1), 0x10, acc(0x1000 + 8 * i), FLOOR)
                .unwrap();
        }
        assert_eq!(m.occupancy(), 10);
        assert_eq!(m.peak_occupancy(), 10);
        for i in 0..10u64 {
            m.on_store_retire(SeqNum(i + 1), acc(0x1000 + 8 * i));
        }
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.peak_occupancy(), 10);
    }
}
