//! What every workload shares: the run settings, the per-round record,
//! seeded ordering, traced trace preparation and the committed reference
//! files the correctness checks compare against.

use crate::layers::Layers;
use crate::spans::{in_span, Recorder};
use aim_bench::Prepared;
use aim_pipeline::{Core, SimConfig, SimStats};
use aim_workloads::Scale;
use std::path::Path;
use std::time::Instant;

/// Settings of one benchmark run.
pub struct Run<'a> {
    /// Seed of cell and request order (never of the simulated machine).
    pub seed: u64,
    /// Timed seconds to accumulate before stopping.
    pub seconds: f64,
    /// The span recorder of a traced run.
    pub recorder: Option<&'a Recorder>,
}

impl Run<'_> {
    /// Whether another round is due after `done` rounds taking `timed`
    /// seconds of a `budget`: until the budget is spent, and in a traced
    /// run for at least one untraced and one traced round.
    pub fn wants_round(&self, done: usize, timed: f64, budget: f64) -> bool {
        let min_rounds = if self.recorder.is_some() { 2 } else { 1 };
        done < min_rounds || timed < budget
    }

    /// The recorder for round `round`: a traced run alternates untraced
    /// (even) and traced (odd) rounds, so the two can be compared.
    pub fn recorder_for(&self, round: usize) -> Option<&Recorder> {
        self.recorder.filter(|_| round % 2 == 1)
    }
}

/// One timed sweep over a workload's cells.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time of the sweep, in seconds.
    pub wall_s: f64,
    /// Host time of every cell or request, in milliseconds, by cell index.
    pub cell_ms: Vec<f64>,
    /// Simulated retired instructions the sweep delivered.
    pub insts: u64,
    /// Whether spans were recorded during the sweep.
    pub traced: bool,
}

/// Everything a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of every set-up.
    pub setups_s: Vec<f64>,
    /// Every timed round.
    pub rounds: Vec<Round>,
    /// Operations run and checked.
    pub attempted: u64,
    /// Operations that raised an error or failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub findings: Vec<String>,
    /// Per-layer accumulators.
    pub layers: Layers,
}

/// At most this many findings are kept; the failure count stays exact.
const MAX_FINDINGS: usize = 20;

impl Outcome {
    /// Timed seconds so far.
    pub fn timed_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_s).sum()
    }

    /// Counts `n` failed operations, explained by `finding`.
    pub fn fail(&mut self, n: u64, finding: String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.findings.len() < MAX_FINDINGS {
            self.findings.push(finding);
        }
    }
}

/// SplitMix64: a small, well-mixed generator for seeded orders.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A permutation of `0..n` determined by `seed` and `round`.
pub fn shuffled(n: usize, seed: u64, round: usize) -> Vec<usize> {
    let mut rng = SplitMix(seed ^ (round as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Builds kernel `name` at `scale` and prepares its golden trace, under
/// the `aim_workloads::by_name` and `aim_bench::prepare` spans when
/// traced (the latter is the `Interpreter::run` layer). Returns the
/// prepared kernel and the build time in nanoseconds (0 untraced).
pub fn prepare(
    name: &str,
    scale: Scale,
    rec: Option<&Recorder>,
    request: u64,
    layers: &mut Layers,
) -> (Prepared, u64) {
    let (workload, build_ns) = in_span(rec, "aim_workloads::by_name", None, request, |_| {
        aim_workloads::by_name(name, scale).expect("kernel names come from the registry")
    });
    let (prepared, prep_ns) = in_span(rec, "aim_bench::prepare", None, request, |_| {
        aim_bench::prepare(workload, scale)
    });
    if rec.is_some() {
        layers.trace_prepared(prep_ns, prepared.trace.len());
    }
    (prepared, build_ns)
}

/// One simulated cell.
pub struct CellRun {
    /// The statistics, or the simulator error that ended the cell.
    pub result: Result<SimStats, String>,
    /// Host time of the whole cell, in milliseconds.
    pub ms: f64,
    /// Traced `Core::new` time, in nanoseconds (0 untraced).
    pub new_ns: u64,
    /// Traced `Core::run` time, in nanoseconds (0 untraced).
    pub run_ns: u64,
}

/// Simulates `p` under `cfg` on a fresh machine (modelled caches start
/// empty), under a `cell` span with `Core::new` and `Core::run` children
/// when traced. A [`SimError`](aim_pipeline::SimError) — golden-trace
/// divergence or deadlock — is returned, not raised.
pub fn run_cell(p: &Prepared, cfg: &SimConfig, rec: Option<&Recorder>, request: u64) -> CellRun {
    let t0 = Instant::now();
    let ((result, new_ns, run_ns), _) = in_span(rec, "cell", None, request, |cell| {
        let (core, new_ns) = in_span(rec, "Core::new", cell, request, |_| {
            Core::new(&p.program, &p.trace, cfg.clone())
        });
        let (result, run_ns) = in_span(rec, "Core::run", cell, request, |_| core.run());
        (
            result.map_err(|e| format!("{} under {}: {e}", p.name, cfg.backend.name())),
            new_ns,
            run_ns,
        )
    });
    CellRun {
        result,
        ms: t0.elapsed().as_secs_f64() * 1e3,
        new_ns,
        run_ns,
    }
}

/// Reads a committed reference file from the repository root.
///
/// # Errors
///
/// A one-line message naming the file.
pub fn read_reference(file: &str) -> Result<String, String> {
    std::fs::read_to_string(Path::new(file))
        .map_err(|e| format!("cannot read committed reference {file}: {e}"))
}

/// The value of `"key": value` in one line of a committed report, with
/// surrounding quotes removed.
pub fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\": ");
    let rest = &line[line.find(&pattern)? + pattern.len()..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled(280, 7, 0);
        assert_eq!(a, shuffled(280, 7, 0));
        assert_ne!(a, shuffled(280, 8, 0));
        assert_ne!(a, shuffled(280, 7, 1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..280).collect::<Vec<_>>());
    }

    #[test]
    fn json_fields_read_committed_report_lines() {
        let line = r#"    {"workload": "gap", "full_ipc": 7.930431, "err_pct": -6.571166},"#;
        assert_eq!(json_field(line, "workload"), Some("gap"));
        assert_eq!(json_field(line, "full_ipc"), Some("7.930431"));
        assert_eq!(json_field(line, "err_pct"), Some("-6.571166"));
        assert_eq!(json_field(line, "missing"), None);
        let top = r#"  "stats_fingerprint": "0x84db237e159a2c35","#;
        assert_eq!(
            json_field(top, "stats_fingerprint"),
            Some("0x84db237e159a2c35")
        );
    }
}
