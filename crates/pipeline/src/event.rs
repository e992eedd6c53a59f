//! The pipeline's typed event stream.
//!
//! A recorded run ([`Core::run_recorded`](crate::Core::run_recorded),
//! [`simulate_recorded`](crate::simulate_recorded)) keeps the newest
//! [`EVENT_CAPACITY`] pipeline events: every dispatch, issue, replay,
//! completion, squash/redirect and retirement, stamped with its cycle.
//! Nothing is formatted while the machine runs; the text log is the
//! [`Display`](fmt::Display) rendering of each event, and the pipeline
//! viewer ([`crate::pipeview`]) draws the retirements.

use std::fmt;

use aim_isa::Instr;
use aim_types::SeqNum;

/// Maximum events retained by a recorded run (a ring of the most recent).
pub const EVENT_CAPACITY: usize = 65_536;

/// One pipeline event at one machine cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Machine cycle the event happened in.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The six kinds of pipeline event. Throughout, `seq` is the dispatch
/// sequence number and `pc` the instruction index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum EventKind {
    /// `instr` entered the reorder buffer.
    Dispatch { seq: SeqNum, pc: u64, instr: Instr },
    /// An execution pass of `instr` began.
    Issue { seq: SeqNum, pc: u64, instr: Instr },
    /// The memory unit dropped an execution pass (§2.4 replay).
    Replay { seq: SeqNum },
    /// `result` was broadcast.
    Complete { seq: SeqNum, pc: u64, result: u64 },
    /// Everything younger than `survivor` was squashed, and fetch resumes
    /// at `resume_pc` after `penalty` cycles.
    Squash {
        survivor: SeqNum,
        resume_pc: u64,
        penalty: u64,
    },
    /// An instruction retired; the event's cycle is its retire cycle.
    Retire(Retirement),
}

/// One retired instruction's passage through the pipeline.
///
/// All cycle stamps are absolute machine cycles; together with the retire
/// event's cycle they are monotonically non-decreasing in the order
/// dispatched → issued → completed → retired. An instruction that replayed
/// keeps the stamps of its *final* (successful) pass, with
/// [`replayed`](Retirement::replayed) set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retirement {
    /// Dispatch sequence number.
    pub seq: SeqNum,
    /// Program counter (instruction index).
    pub pc: u64,
    /// The instruction.
    pub instr: Instr,
    /// Cycle the instruction entered the ROB.
    pub dispatched: u64,
    /// Cycle the (final) execution pass began.
    pub issued: u64,
    /// Cycle the result was broadcast.
    pub completed: u64,
    /// The memory unit dropped at least one execution pass (§2.4 replay).
    pub replayed: bool,
    /// Executed via the ROB-head bypass (§2.2).
    pub bypassed: bool,
}

impl Event {
    /// The retire cycle and timeline of a retirement, `None` for every
    /// other kind.
    pub fn retirement(&self) -> Option<(u64, &Retirement)> {
        match &self.kind {
            EventKind::Retire(r) => Some((self.cycle, r)),
            _ => None,
        }
    }
}

/// The text-log line: the cycle right-aligned in eight columns, two
/// spaces, then the event.
impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>8}  ", self.cycle)?;
        match self.kind {
            EventKind::Dispatch { seq, pc, instr } => write!(f, "dispatch {seq} pc={pc} `{instr}`"),
            EventKind::Issue { seq, pc, instr } => write!(f, "issue    {seq} pc={pc} `{instr}`"),
            EventKind::Replay { seq } => write!(f, "replay   {seq} dropped by the memory unit"),
            EventKind::Complete { seq, pc, result } => {
                write!(f, "complete {seq} pc={pc} result={result:#x}")
            }
            EventKind::Squash { survivor, resume_pc, penalty } => write!(
                f,
                "recover  squash seq>{} resume pc={resume_pc} (+{penalty} cycles)",
                survivor.0
            ),
            EventKind::Retire(Retirement { seq, pc, instr, .. }) => {
                write!(f, "retire   {seq} pc={pc} `{instr}`")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_isa::Reg;
    use aim_types::AccessSize;

    /// One event of each kind renders to the exact text-log line.
    #[test]
    fn every_kind_renders_the_text_log_line() {
        use EventKind::*;
        let (seq, pc) = (SeqNum(12), 4);
        let instr = Instr::Load { rd: Reg::new(3), base: Reg::new(2), offset: -8, size: AccessSize::Double };
        let timeline = Retirement {
            seq, pc, instr, dispatched: 7, issued: 11, completed: 13, replayed: true, bypassed: false,
        };
        let squash = Squash { survivor: SeqNum(11), resume_pc: pc, penalty: 9 };
        let golden = [
            (7, Dispatch { seq, pc, instr }, "       7  dispatch #12 pc=4 `ld8 r3, -8(r2)`"),
            (9, Issue { seq, pc, instr }, "       9  issue    #12 pc=4 `ld8 r3, -8(r2)`"),
            (10, Replay { seq }, "      10  replay   #12 dropped by the memory unit"),
            (13, Complete { seq, pc, result: 0xbeef }, "      13  complete #12 pc=4 result=0xbeef"),
            (123_456_789, squash, "123456789  recover  squash seq>11 resume pc=4 (+9 cycles)"),
            (15, Retire(timeline), "      15  retire   #12 pc=4 `ld8 r3, -8(r2)`"),
        ];
        for (cycle, kind, line) in golden {
            let event = Event { cycle, kind };
            assert_eq!(event.to_string(), line);
            let retired = matches!(kind, Retire(_)).then_some((cycle, &timeline));
            assert_eq!(event.retirement(), retired);
        }
    }
}
