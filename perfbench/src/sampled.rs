//! `sampled`: the 20 kernels at `Scale::Huge` on the huge class behind the
//! 800-cycle far tier with SFC/MDT, under the tuned tiled policy
//! [`aim_serve::sampled_policy`]. Each kernel's trace is prepared, run
//! and dropped before the next kernel, so at most one huge trace is alive.

use crate::common::{json_field, prepare, read_reference, run_cell, shuffled, Outcome, Round, Run};
use crate::layers::HUGE;
use aim_pipeline::{BackendChoice, FarSpec, MachineClass};
use aim_serve::{sampled_policy, ConfigSpec};
use aim_workloads::Scale;
use std::collections::HashMap;
use std::time::Instant;

/// The committed sampled-versus-full-detail report.
const SAMPLED_REFERENCE: &str = "BENCH_sampled.json";

/// The convergence tolerance the committed sampled gate holds every
/// kernel's IPC to, in percent of full detail.
const TOLERANCE_PCT: f64 = 10.0;

/// Slack when matching IPCs the committed report prints to six decimals.
const IPC_EPSILON: f64 = 1e-6;

/// Committed IPCs of one kernel.
struct Committed {
    full_ipc: f64,
    sampled_ipc: f64,
}

fn committed_rows() -> Result<HashMap<String, Committed>, String> {
    let text = read_reference(SAMPLED_REFERENCE)?;
    let rows: HashMap<String, Committed> = text
        .lines()
        .filter_map(|line| {
            let num = |key| json_field(line, key)?.parse::<f64>().ok();
            let row = Committed {
                full_ipc: num("full_ipc")?,
                sampled_ipc: num("sampled_ipc")?,
            };
            Some((json_field(line, "workload")?.to_string(), row))
        })
        .collect();
    if rows.len() == aim_workloads::names().len() {
        Ok(rows)
    } else {
        Err(format!(
            "{SAMPLED_REFERENCE} has {} kernel rows",
            rows.len()
        ))
    }
}

/// Runs the workload for the run's time budget.
pub fn run(run: &Run) -> Outcome {
    let names = aim_workloads::names();
    let committed = committed_rows();
    let far = Some(FarSpec::new(800, 64, 8));
    let mut out = Outcome::default();

    let mut round = 0;
    while run.wants_round(round, out.timed_s(), run.seconds) {
        let rec = run.recorder_for(round);
        let base = (round * names.len()) as u64;
        let mut timed = Round {
            traced: rec.is_some(),
            cell_ms: vec![0.0; names.len()],
            ..Round::default()
        };
        let (mut setup_s, mut build_ns) = (0.0, 0);

        for k in shuffled(names.len(), run.seed, round) {
            let name = names[k];
            let request = base + k as u64;
            let t0 = Instant::now();
            let (p, ns) = prepare(name, Scale::Huge, rec, request, &mut out.layers);
            setup_s += t0.elapsed().as_secs_f64();
            build_ns += ns;

            let spec = ConfigSpec {
                far,
                sample: Some(sampled_policy(p.trace.len() as u64)),
                ..ConfigSpec::new(MachineClass::Huge, BackendChoice::SfcMdt)
            };
            let cell = run_cell(&p, &spec.to_config(), rec, request);
            timed.cell_ms[k] = cell.ms;
            timed.wall_s += cell.ms / 1e3;
            out.attempted += 1;
            let s = match cell.result {
                Ok(s) => s,
                Err(e) => {
                    out.fail(1, e);
                    continue;
                }
            };
            if rec.is_some() {
                out.layers.core_new(HUGE, cell.new_ns);
            }
            out.layers.sampled(cell.run_ns, &s);
            timed.insts += s.retired;

            let ipc = s.ipc();
            match committed.as_ref().map(|rows| rows.get(name)) {
                Ok(Some(row)) => {
                    let err = (ipc - row.full_ipc) / row.full_ipc * 100.0;
                    out.layers.ipc_err(err);
                    if err.abs() > TOLERANCE_PCT {
                        out.fail(
                            1,
                            format!("{name}: sampled IPC {ipc:.6} is {err:+.3}% off full detail"),
                        );
                    } else if (ipc - row.sampled_ipc).abs() > IPC_EPSILON {
                        out.fail(
                            1,
                            format!(
                                "{name}: sampled IPC {ipc:.6} != committed {:.6}",
                                row.sampled_ipc
                            ),
                        );
                    }
                }
                Ok(None) => out.fail(1, format!("{name}: no row in {SAMPLED_REFERENCE}")),
                Err(e) => out.fail(1, e.clone()),
            }
        }
        out.setups_s.push(setup_s);
        if rec.is_some() {
            out.layers.setup_built(build_ns);
        }
        out.rounds.push(timed);
        round += 1;
    }
    out
}
