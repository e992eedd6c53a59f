//! Property tests: the pipeline-viewer renderer is total and structurally
//! well-formed on arbitrary (even nonsensical) retirement events.

use aim_isa::{Instr, Reg};
use aim_pipeline::{pipeview, Event, EventKind, Retirement};
use aim_types::SeqNum;
use proptest::prelude::*;

/// The lane sits between the final two `|`s.
fn lane_of(line: &str) -> &str {
    let close = line.rfind('|').expect("closing bar");
    let open = line[..close].rfind('|').expect("opening bar");
    &line[open + 1..close]
}

/// `movi` disassembles to 10 (`movi r0, 0`) through 30 characters
/// (`movi r31, -9223372036854775808`), so truncation at 28 is exercised.
fn arb_instr() -> impl Strategy<Value = Instr> {
    (0u8..32, any::<i64>()).prop_map(|(rd, imm)| Instr::MovImm { rd: Reg::new(rd), imm })
}

fn arb_retire() -> impl Strategy<Value = Event> {
    (
        any::<u64>(),
        0u64..1000,
        arb_instr(),
        proptest::array::uniform4(0u64..100_000),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(seq, pc, instr, mut stages, replayed, bypassed)| {
            // The machine only emits monotone stamps; the renderer should
            // still not panic if they arrive sorted any which way, so half
            // the cases keep the raw order.
            if seq.is_multiple_of(2) {
                stages.sort_unstable();
            }
            let timeline = Retirement {
                seq: SeqNum(seq), pc, instr, dispatched: stages[0], issued: stages[1],
                completed: stages[2], replayed, bypassed,
            };
            Event { cycle: stages[3], kind: EventKind::Retire(timeline) }
        })
}

/// A retirement or, one time in four, a replay the renderer must skip.
fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        3 => arb_retire(),
        1 => (0u64..100_000, any::<u64>())
            .prop_map(|(cycle, seq)| Event { cycle, kind: EventKind::Replay { seq: SeqNum(seq) } }),
    ]
}

/// The retirements of `events` whose stamps follow the machine's contract.
fn monotone(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .filter(|e| {
            e.retirement().is_some_and(|(retired, r)| {
                r.dispatched <= r.issued && r.issued <= r.completed && r.completed <= retired
            })
        })
        .copied()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rendering never panics, emits one line per retirement plus a
    /// header, and every lane is exactly the requested width.
    #[test]
    fn render_is_total_and_aligned(
        events in proptest::collection::vec(arb_event(), 1..20),
        width in 0usize..200,
    ) {
        // Out-of-order stamps (issued > retired, etc.) must not panic either,
        // but lanes are only well-formed for monotone retirements; filter to
        // the machine's contract for the structural checks.
        let _ = pipeview::render(&events, width); // totality
        let monotone = monotone(&events);
        if monotone.is_empty() {
            return Ok(());
        }
        let out = pipeview::render(&monotone, width);
        let lines: Vec<&str> = out.lines().collect();
        prop_assert_eq!(lines.len(), monotone.len() + 1);
        let effective = width.max(16);
        for line in &lines[1..] {
            let lane = lane_of(line);
            prop_assert_eq!(lane.len(), effective, "lane width: {}", line);
            // Every stage marker appears unless overwritten by a later one.
            prop_assert!(lane.contains('R'), "retire always survives: {}", line);
            prop_assert!(!lane.contains(|c: char| !"DICR=. ".contains(c)));
        }
    }

    /// Monotone retirements place markers in stage order whenever all four
    /// markers survive column collisions.
    #[test]
    fn surviving_markers_are_ordered(events in proptest::collection::vec(arb_event(), 1..20)) {
        let monotone = monotone(&events);
        if monotone.is_empty() {
            return Ok(());
        }
        let out = pipeview::render(&monotone, 120);
        for line in out.lines().skip(1) {
            let lane = lane_of(line);
            let pos: Vec<Option<usize>> =
                ['D', 'I', 'C', 'R'].iter().map(|&m| lane.find(m)).collect();
            let present: Vec<usize> = pos.iter().flatten().copied().collect();
            prop_assert!(present.windows(2).all(|w| w[0] < w[1]), "{}", line);
        }
    }
}
