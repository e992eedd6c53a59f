//! The paper's primary contribution: the **store forwarding cache (SFC)** and
//! the **memory disambiguation table (MDT)**.
//!
//! Stone, Woley & Frank (MICRO-38, 2005) replace the conventional load/store
//! queue — with its fully associative, age-prioritized CAM searches — by three
//! CAM-free structures:
//!
//! * the [`Sfc`], "a small cache to which a store writes its value as it
//!   completes, and from which a load may obtain its value as it executes",
//!   accessed in parallel with the L1 data cache;
//! * the [`Mdt`], an address-indexed table that "tracks the highest sequence
//!   numbers yet seen of the loads and stores to each in-flight address" and
//!   detects **true, anti and output** dependence violations via a technique
//!   similar to basic timestamp ordering;
//! * a store FIFO for in-order retirement (provided by
//!   `aim_mem::StoreFifo`).
//!
//! Because the SFC does not rename multiple in-flight stores to one address,
//! anti and output violations — which an LSQ never suffers — become possible;
//! the MDT detects them and the producer-set predictor (in `aim-predictor`)
//! learns to enforce them.
//!
//! # Examples
//!
//! A store forwards to a younger load through the SFC, while the MDT confirms
//! the ordering was legal:
//!
//! ```
//! use aim_core::{Mdt, MdtConfig, Sfc, SfcConfig, SfcLoadResult};
//! use aim_types::{AccessSize, Addr, MemAccess, SeqNum};
//!
//! let mut sfc = Sfc::new(SfcConfig::baseline());
//! let mut mdt = Mdt::new(MdtConfig::baseline());
//! let floor = SeqNum(1); // oldest in-flight instruction
//!
//! let acc = MemAccess::new(Addr(0x1000), AccessSize::Double).unwrap();
//! // Store #1 executes: writes the SFC, updates the MDT.
//! mdt.on_store_execute(SeqNum(1), 0x40, acc, floor).unwrap();
//! sfc.store_write(SeqNum(1), acc, 0xabcd, floor).unwrap();
//!
//! // Load #2 executes: MDT sees no violation, SFC forwards the value.
//! let v = mdt.on_load_execute(SeqNum(2), 0x44, acc, floor).unwrap();
//! assert!(v.is_none());
//! assert_eq!(sfc.load_lookup(acc, floor), SfcLoadResult::Forward(0xabcd));
//! ```

mod geometry;
mod hash;
mod mdt;
mod set_table;
mod sfc;

pub use geometry::{SetsWays, TableGeometry};
pub use hash::SetHash;
pub use mdt::{Mdt, MdtConfig, MdtStats, MdtTagging, TrueDepRecovery, Violation};
pub use set_table::SetTable;
pub use sfc::{CorruptionPolicy, Sfc, SfcConfig, SfcLoadResult, SfcStats};

use core::fmt;

/// A set conflict in a tagged SFC or MDT: the access could not allocate an
/// entry, so "the memory unit drops the instruction and places it back on the
/// scheduler's ready list" (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructuralConflict;

impl fmt::Display for StructuralConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("set conflict: no entry available")
    }
}

impl std::error::Error for StructuralConflict {}

/// How a load that finds only *some* of its bytes valid in the SFC proceeds.
///
/// The paper offers both: "the memory unit either places the load back in the
/// scheduler or obtains the missing bytes from the cache" (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartialMatchPolicy {
    /// Merge the SFC bytes with the missing bytes from the cache (default).
    #[default]
    Combine,
    /// Drop the load and replay it from the scheduler.
    Replay,
}
