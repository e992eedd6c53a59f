//! The scheduler: indexed wakeup and select.
//!
//! Every [`InstrState::Waiting`] instruction is parked in exactly one place,
//! named by its [`Park`] field, and moves on only when the event it waits
//! for fires:
//!
//! * **Operands** — on the consumer list of each not-ready source register,
//!   with a count of unready sources; the completion that writes a register
//!   drains its list.
//! * **Stall** — asleep under its stall bit (§2.4.3) in a FIFO ordered by
//!   the backend free-event snapshot it waits to see passed; issue wakes the
//!   prefix whose snapshot the current count exceeds.
//! * **Tag** — on the [`TagScoreboard`](aim_predictor::TagScoreboard) queue
//!   of its dependence tag, released when the producer completes or is
//!   squashed.
//! * **Ready** — in the ready ring, a two-level bitmap over ROB slots that
//!   yields entries oldest first.
//!
//! Readiness only ever advances for a live instruction (a source register
//! stays allocated until every reader retires or is squashed, tags never
//! become un-ready, and the free-event count only grows), so an instruction
//! always moves forward through operands → stall → tag → ready. Select then
//! takes the oldest `issue_width` ready entries, plus the ROB head when it is
//! parked on a stall bit or tag (the head is exempt from both). No step
//! touches an instruction that is not changing place, so a cycle's work does
//! not grow with the window.
//!
//! The consumer lists, the stall FIFO and the tag queues are cleaned
//! lazily: an entry that leaves a place (issued, squashed) leaves its record
//! behind, and every record is validated against the entry it names before
//! it is acted on.

use std::collections::{HashMap, HashSet, VecDeque};

use aim_predictor::DepTag;
use aim_types::SeqNum;

use crate::machine::Core;
use crate::rename::PhysReg;
use crate::rob::InstrState;

/// Where a waiting instruction is parked (see the module docs);
/// [`Park::None`] for instructions that are not waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Park {
    /// Not waiting: executing, completed, or selected this cycle.
    #[default]
    None,
    /// On the consumer lists of its unready source registers.
    Operands,
    /// Asleep until the backend free-event count passes its stall snapshot.
    Stall,
    /// On its dependence tag's queue.
    Tag,
    /// In the ready ring.
    Ready,
}

/// A consumer-list record: the entry's stable ROB position, validated by
/// its sequence number (a squash frees stable positions for reuse, and a
/// wakeup decrement is not idempotent, so the position alone is not enough).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Consumer {
    seq: SeqNum,
    stable: u64,
}

/// The set of ready instructions, as one bit per ROB slot (stable position
/// modulo a power-of-two ring size at least the ROB capacity), with a
/// summary bit per non-empty word. Live stable positions span less than one
/// ring, so walking the ring from the head's slot visits them oldest first:
/// the bitmap *is* the sorted ready list.
#[derive(Debug, Clone)]
struct ReadyRing {
    words: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
}

impl ReadyRing {
    fn new(rob_capacity: usize) -> ReadyRing {
        let slots = rob_capacity.next_power_of_two().max(64);
        let words = slots / 64;
        ReadyRing {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
        }
    }

    #[inline]
    fn slot(&self, stable: u64) -> usize {
        (stable as usize) & (self.words.len() * 64 - 1)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, stable: u64) -> bool {
        let s = self.slot(stable);
        self.words[s / 64] & (1 << (s % 64)) != 0
    }

    fn insert(&mut self, stable: u64) {
        debug_assert!(!self.contains(stable), "double ready insert");
        let s = self.slot(stable);
        self.words[s / 64] |= 1 << (s % 64);
        self.summary[s / 4096] |= 1 << ((s / 64) % 64);
        self.len += 1;
    }

    fn remove(&mut self, stable: u64) {
        if !self.contains(stable) {
            return;
        }
        let s = self.slot(stable);
        let w = s / 64;
        self.words[w] &= !(1 << (s % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.len -= 1;
    }

    /// The first set slot at or after `from`, without wrapping.
    fn next_set(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let bits = self.words.get(w)? & (!0u64 << (from % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        let next_word = w + 1;
        let mut mask = !0u64 << (next_word % 64);
        for sw in next_word / 64..self.summary.len() {
            let found = self.summary[sw] & mask;
            if found != 0 {
                let word = sw * 64 + found.trailing_zeros() as usize;
                return Some(word * 64 + self.words[word].trailing_zeros() as usize);
            }
            mask = !0;
        }
        None
    }

    /// Removes and returns the oldest ready stable position, given the
    /// oldest live one (`base`, the ROB head's).
    fn pop_oldest(&mut self, base: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let start = self.slot(base);
        let found = self
            .next_set(start)
            .or_else(|| self.next_set(0).filter(|&s| s < start))?;
        let ring = self.words.len() * 64;
        let stable = base + ((found + ring - start) % ring) as u64;
        self.remove(stable);
        Some(stable)
    }
}

/// The scheduler's wait structures other than the tag queues (which live in
/// the [`TagScoreboard`](aim_predictor::TagScoreboard)).
#[derive(Debug, Clone)]
pub(crate) struct Scheduler {
    /// Per physical register: the entries waiting for it to be written.
    consumers: Vec<Vec<Consumer>>,
    /// Stall-bit sleepers as (snapshot, stable position), in non-decreasing
    /// snapshot order: a sleeper is parked at replay with the current
    /// free-event count, which never decreases.
    sleepers: VecDeque<(u64, u64)>,
    ready: ReadyRing,
    /// Scratch for draining a consumer list without holding a borrow.
    drain_scratch: Vec<Consumer>,
}

impl Scheduler {
    pub(crate) fn new(phys_regs: usize, rob_capacity: usize) -> Scheduler {
        Scheduler {
            consumers: vec![Vec::new(); phys_regs],
            sleepers: VecDeque::new(),
            ready: ReadyRing::new(rob_capacity),
            drain_scratch: Vec::new(),
        }
    }

    /// Forgets every consumer record of `p`: called when `p` is allocated
    /// to a new producer, by which point every earlier reader has retired
    /// or been squashed.
    pub(crate) fn reallocated(&mut self, p: PhysReg) {
        self.consumers[p.0 as usize].clear();
    }
}

impl Core<'_> {
    /// Parks a freshly dispatched entry (the ROB tail): on the consumer list
    /// of each unready source, or onward if every source is ready.
    pub(crate) fn schedule_dispatched(&mut self) {
        let idx = self.rob.len() - 1;
        let stable = self.rob.stable_of(idx);
        let e = self.rob.get_at(idx);
        let seq = e.seq;
        let mut unready = 0u8;
        for &p in e.srcs.iter().flatten() {
            if !self.renamer.is_ready(p) {
                self.sched.consumers[p.0 as usize].push(Consumer { seq, stable });
                unready += 1;
            }
        }
        if unready == 0 {
            self.park(idx);
        } else {
            let e = self.rob.get_at_mut(idx);
            e.unready_srcs = unready;
            e.park = Park::Operands;
        }
    }

    /// Parks a waiting entry whose sources are all ready in the first place
    /// whose condition it does not yet meet: asleep under an unpassed stall
    /// bit, on an unready tag, or else ready.
    pub(crate) fn park(&mut self, idx: usize) {
        let stable = self.rob.stable_of(idx);
        let e = self.rob.get_at(idx);
        debug_assert_eq!(e.state, InstrState::Waiting);
        debug_assert_eq!(e.unready_srcs, 0);
        let stall = e
            .stall_until_free_event
            .filter(|&snapshot| self.backend.free_event_count() <= snapshot);
        let place = if let Some(snapshot) = stall {
            debug_assert!(
                self.sched.sleepers.back().is_none_or(|&(last, _)| last <= snapshot),
                "stall FIFO out of snapshot order"
            );
            self.sched.sleepers.push_back((snapshot, stable));
            Park::Stall
        } else if e.dep_consumes.is_some_and(|t| self.tags.park(t, stable)) {
            Park::Tag
        } else {
            self.sched.ready.insert(stable);
            Park::Ready
        };
        self.rob.get_at_mut(idx).park = place;
    }

    /// The queue position of the live entry at `stable`, if any: stale
    /// records name retired or squashed positions (or reused ones).
    fn live_at(&self, stable: u64) -> Option<usize> {
        (stable >= self.rob.stable_of(0) && stable < self.rob.stable_end())
            .then(|| self.rob.index_of_stable(stable))
    }

    /// Register `p` was just written: count it off every consumer still
    /// waiting on operands, and park the ones it completes.
    pub(crate) fn wake_consumers(&mut self, p: PhysReg) {
        let mut list = std::mem::take(&mut self.sched.drain_scratch);
        std::mem::swap(&mut list, &mut self.sched.consumers[p.0 as usize]);
        for &Consumer { seq, stable } in &list {
            let Some(idx) = self.live_at(stable) else { continue };
            let e = self.rob.get_at_mut(idx);
            if e.seq != seq || e.park != Park::Operands {
                continue;
            }
            e.unready_srcs -= 1;
            if e.unready_srcs == 0 {
                self.park(idx);
            }
        }
        list.clear();
        self.sched.drain_scratch = list;
    }

    /// Marks `tag` ready and moves every entry still parked on it onward.
    pub(crate) fn release_tag(&mut self, tag: DepTag) {
        for stable in self.tags.mark_ready(tag) {
            // A record can name a position reused by another entry; moving
            // that one is still right when it too is parked on `tag`, and
            // a second record for the same entry finds it already moved.
            let Some(idx) = self.live_at(stable) else { continue };
            let e = self.rob.get_at(idx);
            if e.park == Park::Tag && e.dep_consumes == Some(tag) {
                self.park(idx);
            }
        }
    }

    /// Wakes every stall-bit sleeper whose snapshot the backend's
    /// free-event count has passed.
    fn wake_sleepers(&mut self) {
        if self.sched.sleepers.is_empty() {
            return;
        }
        let free_events = self.backend.free_event_count();
        while let Some(&(snapshot, stable)) = self.sched.sleepers.front() {
            if snapshot >= free_events {
                break;
            }
            self.sched.sleepers.pop_front();
            // As with tag records, a reused position is moved only if it is
            // itself asleep on a snapshot already passed.
            let Some(idx) = self.live_at(stable) else { continue };
            let e = self.rob.get_at(idx);
            if e.park == Park::Stall && e.stall_until_free_event == Some(snapshot) {
                self.park(idx);
            }
        }
    }

    /// Select: wakes the stall-bit sleepers the backend's free events have
    /// released, then fills `out` with up to `issue_width` entries — the ROB
    /// head first if it is parked on a stall bit or tag (§2.2's head
    /// exemption), then the ready ring oldest first. Selected entries leave
    /// their place ([`Park::None`]).
    pub(crate) fn select(&mut self, out: &mut Vec<(SeqNum, usize)>) {
        self.wake_sleepers();
        self.debug_check_scheduler();
        let mut budget = self.config.issue_width;
        if budget == 0 {
            return;
        }
        if let Some(head) = self.rob.head() {
            if matches!(head.park, Park::Stall | Park::Tag) {
                out.push((head.seq, 0));
                self.rob.get_at_mut(0).park = Park::None;
                budget -= 1;
            }
        }
        let base = self.rob.stable_of(0);
        while budget > 0 {
            let Some(stable) = self.sched.ready.pop_oldest(base) else { break };
            let idx = self.rob.index_of_stable(stable);
            let e = self.rob.get_at_mut(idx);
            e.park = Park::None;
            out.push((e.seq, idx));
            budget -= 1;
        }
    }

    /// A squash removed the entries at stable positions `live_end..old_end`:
    /// drop them from the ready ring (the other places clean up lazily).
    pub(crate) fn unschedule_squashed(&mut self, live_end: u64, old_end: u64) {
        for stable in live_end..old_end {
            self.sched.ready.remove(stable);
        }
    }

    /// Integrity census of the scheduler: every waiting entry is parked in
    /// exactly the place its [`Park`] names (its record is there), its
    /// unready-source count equals its not-ready sources, its conditions up
    /// to that place are met, and the ready ring holds exactly the ready
    /// entries (so, the ring being ordered by ROB slot, the ready list is
    /// sorted oldest first), and the stall FIFO is in snapshot order. A drift would silently change the issue order:
    /// a missed entry never issues, a stale one issues twice. Runs per
    /// issue cycle and after every squash; see [`Core::checks_enabled`] for
    /// when.
    pub(crate) fn debug_check_scheduler(&self) {
        if !self.checks_enabled() {
            return;
        }
        // The stall FIFO and the tag queues are indexed once up front, so
        // the census stays linear in the window rather than searching a
        // long list per entry.
        let sleeping: HashSet<(u64, u64)> = self.sched.sleepers.iter().copied().collect();
        let mut tag_queues: HashMap<DepTag, HashSet<u64>> = HashMap::new();
        let free_events = self.backend.free_event_count();
        let mut ready = 0;
        for (idx, e) in self.rob.iter().enumerate() {
            if e.state != InstrState::Waiting {
                assert!(e.park == Park::None, "non-waiting entry {} still parked", e.seq);
                continue;
            }
            let stable = self.rob.stable_of(idx);
            let me = Consumer { seq: e.seq, stable };
            let mut unready = 0;
            for &p in e.srcs.iter().flatten() {
                if !self.renamer.is_ready(p) {
                    unready += 1;
                    assert!(
                        e.park != Park::Operands || self.sched.consumers[p.0 as usize].contains(&me),
                        "{} missing from the consumer list of {p:?}",
                        e.seq
                    );
                }
            }
            assert!(
                e.unready_srcs == unready,
                "unready-source count of {} drifted",
                e.seq
            );
            let stall_passed = e.stall_until_free_event.is_none_or(|s| free_events > s);
            match e.park {
                Park::None => panic!("waiting entry {} parked nowhere", e.seq),
                Park::Operands => assert!(unready > 0, "{} waits on ready operands", e.seq),
                Park::Stall => {
                    let snapshot = e.stall_until_free_event.expect("stall-parked without a bit");
                    assert!(
                        sleeping.contains(&(snapshot, stable)),
                        "{} missing from the stall FIFO",
                        e.seq
                    );
                }
                Park::Tag => {
                    let tag = e.dep_consumes.expect("tag-parked without a tag");
                    assert!(stall_passed, "{} left its stall bit early", e.seq);
                    let waiters = tag_queues.entry(tag).or_insert_with(|| {
                        let queue = self.tags.waiters_of(tag).expect("parked on a ready tag");
                        queue.iter().copied().collect()
                    });
                    assert!(waiters.contains(&stable), "{} missing from its tag queue", e.seq);
                }
                Park::Ready => {
                    let tag_ready = e.dep_consumes.is_none_or(|t| self.tags.is_ready(t));
                    assert!(stall_passed && tag_ready, "{} ready too early", e.seq);
                    assert!(self.sched.ready.contains(stable), "{} missing from the ready ring", e.seq);
                    ready += 1;
                }
            }
        }
        // Every ready entry is in the ring, and the ring holds no more
        // positions than that: it holds exactly the ready entries.
        assert_eq!(
            self.sched.ready.len(),
            ready,
            "ready ring holds positions of entries that are not ready"
        );
        assert!(
            self.sched.sleepers.iter().zip(self.sched.sleepers.iter().skip(1)).all(|(a, b)| a.0 <= b.0),
            "stall FIFO out of snapshot order"
        );
    }
}

#[cfg(test)]
mod tests {
    use aim_isa::Interpreter;
    use aim_workloads::Scale;

    use super::ReadyRing;
    use crate::{BackendChoice, Core, MachineClass, SimConfig};

    /// Retiring producers trim the tag scoreboard, so over a whole run it
    /// tracks no more tags than the window holds instructions. (That the
    /// trimming changes no statistic is the `table_hostperf --check`
    /// fingerprint gate's to show.)
    #[test]
    fn tag_scoreboard_stays_within_the_window_over_a_small_run() {
        let cfg = SimConfig::machine(MachineClass::Baseline)
            .backend(BackendChoice::SfcMdt)
            .build();
        let mut busiest = 0;
        for w in aim_workloads::all(Scale::Small) {
            let trace = Interpreter::new(&w.program)
                .run(10 * Scale::Small.target_instrs())
                .expect("golden run");
            let mut core = Core::new(&w.program, &trace, cfg.clone());
            let mut peak = 0;
            while !core.halted {
                core.step().expect("validated run");
                peak = peak.max(core.tags.tracked());
            }
            let produced = core.stats.dep_predictor.producers_dispatched;
            assert!(
                peak <= cfg.rob_entries,
                "{}: {peak} tags tracked in a {}-entry window",
                w.name,
                cfg.rob_entries
            );
            assert!(produced == 0 || peak > 0, "{}: producers never tracked", w.name);
            busiest = busiest.max(produced);
        }
        // Several times the window's worth of producers went through.
        assert!(busiest > 10 * cfg.rob_entries as u64, "only {busiest} producers");
    }

    #[test]
    fn ready_ring_pops_oldest_first_across_the_wrap() {
        let mut ring = ReadyRing::new(100); // 128 slots
        // Live window 120..220 wraps the ring at 128.
        for stable in [219, 130, 121, 200, 127, 128] {
            ring.insert(stable);
        }
        let mut popped = Vec::new();
        while let Some(s) = ring.pop_oldest(120) {
            popped.push(s);
        }
        assert_eq!(popped, vec![121, 127, 128, 130, 200, 219]);
        assert_eq!(ring.len(), 0);
    }

    #[test]
    fn ready_ring_summary_skips_empty_words() {
        let mut ring = ReadyRing::new(8192); // two summary words
        ring.insert(5000);
        ring.insert(8000);
        ring.remove(5000);
        assert!(!ring.contains(5000));
        assert_eq!(ring.pop_oldest(0), Some(8000));
        assert_eq!(ring.pop_oldest(0), None);
        ring.insert(8191 + 10); // slot 9 of the next lap, live window 8191..
        assert_eq!(ring.pop_oldest(8191), Some(8201));
    }
}
