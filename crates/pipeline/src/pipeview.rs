//! Per-instruction pipeline timelines, in the spirit of gem5's O3 pipeline
//! viewer: every retirement event carries the cycle its instruction passed
//! each stage, and [`render`] draws them as aligned ASCII lanes.
//!
//! Record a run with [`simulate_recorded`](crate::simulate_recorded) and
//! draw its newest retirements:
//!
//! ```
//! use aim_isa::{Assembler, Reg};
//! use aim_pipeline::{pipeview, simulate_recorded, MachineClass, SimConfig};
//! use aim_predictor::EnforceMode;
//!
//! let mut asm = Assembler::new();
//! asm.movi(Reg::new(1), 5);
//! asm.movi(Reg::new(2), 0x100);
//! asm.label("loop");
//! asm.sd(Reg::new(1), Reg::new(2), 0);
//! asm.ld(Reg::new(3), Reg::new(2), 0);
//! asm.subi(Reg::new(1), Reg::new(1), 1);
//! asm.bne(Reg::new(1), Reg::ZERO, "loop");
//! asm.halt();
//!
//! let cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
//! let (_, events) = simulate_recorded(&asm.assemble().unwrap(), &cfg).unwrap();
//! println!("{}", pipeview::render(pipeview::last_retirements(&events, 24), 60));
//! ```

use std::fmt::Write as _;

use crate::event::{Event, Retirement};

/// The shortest suffix of `events` holding its last `n` retirements (all
/// of `events` when it holds fewer).
#[must_use]
pub fn last_retirements(events: &[Event], n: usize) -> &[Event] {
    let mut retirements = events.iter().enumerate().rev().filter(|(_, e)| e.retirement().is_some());
    match n.checked_sub(1).map(|skip| retirements.nth(skip)) {
        None => &[],
        Some(Some((i, _))) => &events[i..],
        Some(None) => events,
    }
}

/// Renders the retirements among `events` as aligned ASCII timelines,
/// `width` columns across; every other event kind is skipped.
///
/// Stage markers: `D` dispatch, `I` issue, `C` complete, `R` retire; `=`
/// fills issue→complete (execution) and `.` fills the other in-flight
/// spans. When two stages land in the same column the later marker wins.
/// Replayed instructions are flagged `r`, head-bypassed ones `b`.
///
/// Returns an empty string when `events` holds no retirement.
#[must_use]
pub fn render(events: &[Event], width: usize) -> String {
    let lanes: Vec<(u64, &Retirement)> = events.iter().filter_map(Event::retirement).collect();
    let Some(first) = lanes.iter().map(|(_, r)| r.dispatched).min() else {
        return String::new();
    };
    let last = lanes.iter().map(|&(retired, _)| retired).max().expect("non-empty");
    let width = width.max(16);
    let span = last.saturating_sub(first).max(1) as f64;
    let scale = |cycle: u64| -> usize {
        let frac = cycle.saturating_sub(first) as f64 / span;
        ((frac * (width - 1) as f64).round() as usize).min(width - 1)
    };
    // Tolerate out-of-order stamps (a hand-built event, not the machine's
    // contract) by normalizing each span's endpoints.
    let ordered = |a: usize, b: usize| if a <= b { a..=b } else { b..=a };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "cycles {first}..{last} ({} instructions; D dispatch, I issue, C complete, R retire)",
        lanes.len()
    );
    for (retired, r) in lanes {
        let mut lane = vec![b' '; width];
        lane[ordered(scale(r.dispatched), scale(retired))].fill(b'.');
        lane[ordered(scale(r.issued), scale(r.completed))].fill(b'=');
        lane[scale(r.dispatched)] = b'D';
        lane[scale(r.issued)] = b'I';
        lane[scale(r.completed)] = b'C';
        lane[scale(retired)] = b'R';
        let flags = match (r.replayed, r.bypassed) {
            (true, true) => "rb",
            (true, false) => "r ",
            (false, true) => " b",
            (false, false) => "  ",
        };
        let instr = r.instr.to_string();
        let _ = writeln!(
            out,
            "{:>6} pc={:<5} {:<28} {} |{}|",
            r.seq.0,
            r.pc,
            truncate(&instr, 28),
            flags,
            String::from_utf8(lane).expect("ascii lane"),
        );
    }
    out
}

fn truncate(s: &str, max: usize) -> &str {
    match s.char_indices().nth(max) {
        Some((idx, _)) => &s[..idx],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use aim_isa::{Instr, Reg};
    use aim_types::SeqNum;

    /// Instruction `seq`, dispatched, issued and completed at `d`, `i`, `c`.
    fn timeline(seq: u64, d: u64, i: u64, c: u64) -> Retirement {
        let instr = Instr::MovImm { rd: Reg::new(1), imm: seq as i64 };
        Retirement {
            seq: SeqNum(seq), pc: seq, instr, dispatched: d, issued: i, completed: c,
            replayed: false, bypassed: false,
        }
    }

    fn retire(cycle: u64, timeline: Retirement) -> Event {
        Event { cycle, kind: EventKind::Retire(timeline) }
    }

    #[test]
    fn empty_input_renders_empty() {
        assert_eq!(render(&[], 60), "");
        let replay = Event { cycle: 3, kind: EventKind::Replay { seq: SeqNum(1) } };
        assert_eq!(render(&[replay], 60), "", "only retirements are drawn");
    }

    #[test]
    fn markers_appear_in_stage_order() {
        let out = render(&[retire(30, timeline(1, 0, 10, 20))], 40);
        let lane = out.lines().nth(1).unwrap();
        let (d, i) = (lane.find('D').unwrap(), lane.find('I').unwrap());
        let (c, r) = (lane.find('C').unwrap(), lane.find('R').unwrap());
        assert!(d < i && i < c && c < r, "{lane}");
    }

    #[test]
    fn coincident_stages_keep_the_later_marker() {
        // All four stages in one cycle: R must win the column.
        let out = render(&[retire(5, timeline(1, 5, 5, 5))], 40);
        let lane = out.lines().nth(1).unwrap();
        assert!(lane.contains('R') && !lane.contains('D'));
    }

    #[test]
    fn lanes_share_one_time_axis() {
        let early = retire(3, timeline(1, 0, 1, 2));
        let out = render(&[early, retire(100, timeline(2, 97, 98, 99))], 50);
        let lane = |n: usize| {
            let line = out.lines().nth(n).unwrap();
            let bar = line.find('|').unwrap();
            &line[bar + 1..line.len() - 1]
        };
        // The early instruction's lane sits entirely left of the late one's:
        // its retire column precedes the late instruction's first mark.
        let first_r = lane(1).find('R').unwrap();
        let second_start = lane(2).find(|c: char| c != ' ').unwrap();
        assert!(first_r < second_start, "{out}");
    }

    #[test]
    fn replay_and_bypass_flags_render() {
        let mut t = timeline(1, 0, 1, 2);
        t.replayed = true;
        t.bypassed = true;
        assert!(render(&[retire(3, t)], 40).lines().nth(1).unwrap().contains("rb"));
    }

    #[test]
    fn long_disassembly_is_truncated() {
        // `movi r31, -9223372036854775808` is 30 characters.
        let mut t = timeline(1, 0, 1, 2);
        t.instr = Instr::MovImm { rd: Reg::new(31), imm: i64::MIN };
        let out = render(&[retire(3, t)], 40);
        let line = out.lines().nth(1).unwrap();
        assert!(line.contains("movi r31, -92233720368547758 "), "{line}");
    }

    #[test]
    fn last_retirements_is_the_shortest_suffix() {
        let replay = Event { cycle: 9, kind: EventKind::Replay { seq: SeqNum(7) } };
        let events = [retire(3, timeline(1, 0, 1, 2)), replay, retire(4, timeline(2, 1, 2, 3)), replay];
        assert_eq!(last_retirements(&events, 0), &[]);
        assert_eq!(last_retirements(&events, 1), &events[2..]);
        assert_eq!(last_retirements(&events, 2), &events[..]);
        assert_eq!(last_retirements(&events, 5), &events[..]);
    }
}
