//! Dependence tags and the scheduler-side tag scoreboard.

use std::collections::VecDeque;

/// A renamed dependence tag.
///
/// "When a load or store instruction enters the memory dependence predictor
/// ... \[it\] obtains a dependence tag from the LFPT's free list ... The
/// scheduler tracks the availability of dependence tags in much the same
/// manner as it tracks the availability of physical registers" (§2.1).
///
/// Tags are numbered monotonically; the scoreboard treats tags older than
/// its floor as ready, modeling the finite hardware free list without ever
/// deadlocking the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DepTag(pub u64);

/// Readiness tracking for in-flight dependence tags, with the scheduler's
/// tag-wait queues.
///
/// * A tag is allocated by a dispatching *producer* ([`TagScoreboard::alloc`]).
/// * A consumer whose tag is not ready parks on it
///   ([`TagScoreboard::park`]) with an opaque token of the caller's choosing
///   and stays out of the issue pool.
/// * The producer marks the tag ready when it completes
///   ([`TagScoreboard::mark_ready`]), which hands back the parked tokens. A
///   squashed producer also marks its tag ready so surviving consumers can
///   never deadlock on it.
/// * Tags below the floor ([`TagScoreboard::purge_older_than`], called as
///   producers retire) read as ready, which is the correct semantics for a
///   tag whose producer has long retired; so do tags never allocated.
///
/// Tags are numbered densely, so the tracked span is a ring indexed by tag
/// number minus the floor: every operation is one index, no hashing.
///
/// # Examples
///
/// ```
/// use aim_predictor::TagScoreboard;
///
/// let mut sb = TagScoreboard::new();
/// let t = sb.alloc();
/// assert!(!sb.is_ready(t));
/// assert!(sb.park(t, 7));
/// assert_eq!(sb.mark_ready(t), vec![7]);
/// assert!(sb.is_ready(t));
/// assert!(!sb.park(t, 8)); // a ready tag parks nobody
/// ```
#[derive(Debug, Clone, Default)]
pub struct TagScoreboard {
    /// The oldest tracked tag; every older tag reads ready.
    floor: u64,
    /// Slot `i` tracks tag `floor + i`; the next tag allocated is
    /// `floor + slots.len()`.
    slots: VecDeque<TagSlot>,
}

#[derive(Debug, Clone, Default)]
struct TagSlot {
    ready: bool,
    /// Tokens of the consumers parked on this (not yet ready) tag.
    waiters: Vec<u64>,
}

impl TagScoreboard {
    /// Creates an empty scoreboard.
    pub fn new() -> TagScoreboard {
        TagScoreboard::default()
    }

    /// Allocates a fresh, not-ready tag.
    pub fn alloc(&mut self) -> DepTag {
        let tag = DepTag(self.floor + self.slots.len() as u64);
        self.slots.push_back(TagSlot::default());
        tag
    }

    fn slot_mut(&mut self, tag: DepTag) -> Option<&mut TagSlot> {
        let i = tag.0.checked_sub(self.floor)?;
        self.slots.get_mut(usize::try_from(i).ok()?)
    }

    /// Whether `tag`'s producer has completed (or the tag has been retired
    /// out of the scoreboard).
    pub fn is_ready(&self, tag: DepTag) -> bool {
        self.waiters_of(tag).is_none()
    }

    /// The tokens parked on `tag`, or `None` if it is ready.
    pub fn waiters_of(&self, tag: DepTag) -> Option<&[u64]> {
        let i = usize::try_from(tag.0.checked_sub(self.floor)?).ok()?;
        self.slots
            .get(i)
            .filter(|s| !s.ready)
            .map(|s| s.waiters.as_slice())
    }

    /// Parks `token` on `tag` until it becomes ready. Returns `false` (and
    /// parks nothing) if the tag is already ready.
    pub fn park(&mut self, tag: DepTag, token: u64) -> bool {
        match self.slot_mut(tag) {
            Some(slot) if !slot.ready => {
                slot.waiters.push(token);
                true
            }
            _ => false,
        }
    }

    /// Marks `tag` ready (producer completed, retired, or was squashed) and
    /// returns the tokens that were parked on it, oldest parking first.
    pub fn mark_ready(&mut self, tag: DepTag) -> Vec<u64> {
        match self.slot_mut(tag) {
            Some(slot) => {
                slot.ready = true;
                std::mem::take(&mut slot.waiters)
            }
            None => Vec::new(),
        }
    }

    /// Drops bookkeeping for tags older than `floor` (all read as ready
    /// afterwards, and any tokens still parked on them are dropped). The
    /// pipeline calls it as each producer retires, with the tag after the
    /// producer's own: every older tag's producer has retired or been
    /// squashed, so it is already ready and parks nobody.
    pub fn purge_older_than(&mut self, floor: DepTag) {
        let drop = floor.0.saturating_sub(self.floor).min(self.slots.len() as u64);
        self.slots.drain(..drop as usize);
        self.floor += drop;
    }

    /// Number of tags currently tracked.
    pub fn tracked(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_monotonic() {
        let mut sb = TagScoreboard::new();
        let a = sb.alloc();
        let b = sb.alloc();
        assert!(a < b);
    }

    #[test]
    fn fresh_tags_not_ready_until_marked() {
        let mut sb = TagScoreboard::new();
        let t = sb.alloc();
        assert!(!sb.is_ready(t));
        sb.mark_ready(t);
        assert!(sb.is_ready(t));
    }

    #[test]
    fn unknown_tags_read_ready() {
        let sb = TagScoreboard::new();
        assert!(sb.is_ready(DepTag(999)));
    }

    #[test]
    fn purge_makes_old_tags_ready_and_bounds_memory() {
        let mut sb = TagScoreboard::new();
        let a = sb.alloc();
        let b = sb.alloc();
        sb.purge_older_than(b);
        assert!(sb.is_ready(a)); // purged => ready
        assert!(!sb.is_ready(b)); // still tracked, still pending
        assert_eq!(sb.tracked(), 1);
    }

    #[test]
    fn parked_tokens_return_once_at_mark_ready() {
        let mut sb = TagScoreboard::new();
        let a = sb.alloc();
        let b = sb.alloc();
        assert!(sb.park(b, 1));
        assert!(sb.park(b, 2));
        assert!(sb.park(a, 3));
        assert_eq!(sb.waiters_of(b), Some(&[1, 2][..]));
        assert_eq!(sb.mark_ready(b), vec![1, 2]);
        assert_eq!(sb.mark_ready(b), Vec::<u64>::new());
        assert!(!sb.park(b, 4));
        assert_eq!(sb.waiters_of(a), Some(&[3][..]));
        // Purging past the last allocation clamps: the next tag is still
        // numbered densely and starts out pending.
        sb.purge_older_than(DepTag(100));
        assert_eq!(sb.tracked(), 0);
        assert_eq!(sb.alloc(), DepTag(2));
    }
}
