//! `detail`: full-detail, cycle-accurate runs of the 20 kernels at
//! `Scale::Small` under the 12 `table_hostperf` configurations plus the
//! huge class behind the 800-cycle far tier (SFC/MDT and the 256×256
//! LSQ bound) — 280 cells, one at a time on one simulation thread.

use crate::checks::fingerprint_failures;
use crate::common::{json_field, prepare, read_reference, run_cell, shuffled, Outcome, Round, Run};
use crate::layers::{FAMILIES, HUGE};
use aim_pipeline::{SimConfig, SimStats};
use aim_workloads::Scale;
use std::time::Instant;

/// The committed hostperf report whose fingerprint the matrix reproduces.
const HOSTPERF_REFERENCE: &str = "BENCH_hostperf.json";

/// The huge-class configurations added to the hostperf matrix.
const HUGE_CONFIGS: [&str; 2] = ["huge-far800-sfc-mdt", "huge-far800-lsq-256x256"];

/// One configuration column of the matrix.
struct Column {
    cfg: SimConfig,
    /// Index into [`crate::layers::CLASSES`].
    class: usize,
    /// Index into [`crate::layers::FAMILIES`], on aggressive-class columns.
    family: Option<usize>,
}

/// Backend family of a configuration name's backend part.
fn family_of(backend: &str) -> usize {
    let family = FAMILIES.iter().position(|f| backend.starts_with(f));
    family.expect("every hostperf backend belongs to a family")
}

/// The 14 columns: the hostperf configurations first, in spec order.
fn columns() -> Vec<Column> {
    let mut cols: Vec<Column> = aim_bench::specs::table_hostperf()
        .configs
        .into_iter()
        .map(|(name, cfg)| {
            let (class, backend) = name
                .split_once('-')
                .expect("hostperf names are class-backend");
            let aggressive = class == "aggr";
            Column {
                cfg,
                class: usize::from(aggressive),
                family: aggressive.then(|| family_of(backend)),
            }
        })
        .collect();
    let far = aim_bench::specs::table_far_mem();
    cols.extend(HUGE_CONFIGS.iter().map(|name| Column {
        cfg: far.configs[far.index(name)].1.clone(),
        class: HUGE,
        family: None,
    }));
    cols
}

/// The committed stats fingerprint of the hostperf matrix at small scale.
fn committed_fingerprint() -> Result<u64, String> {
    let text = read_reference(HOSTPERF_REFERENCE)?;
    let scale = text.lines().find_map(|l| json_field(l, "scale"));
    if scale != Some("small") {
        return Err(format!("{HOSTPERF_REFERENCE} is not a small-scale report"));
    }
    text.lines()
        .find_map(|l| json_field(l, "stats_fingerprint"))
        .and_then(|hex| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())
        .ok_or_else(|| format!("{HOSTPERF_REFERENCE} has no stats_fingerprint"))
}

/// Runs the workload for the run's time budget.
pub fn run(run: &Run) -> Outcome {
    let cols = columns();
    let hostperf_cols = cols.len() - HUGE_CONFIGS.len();
    let names = aim_workloads::names();
    let cells = names.len() * cols.len();
    let committed = committed_fingerprint();
    let mut out = Outcome::default();

    let mut round = 0;
    while run.wants_round(round, out.timed_s(), run.seconds) {
        let rec = run.recorder_for(round);
        let base = (round * cells) as u64;

        let t0 = Instant::now();
        let mut build_ns = 0;
        let prepared: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(w, name)| {
                let (p, ns) = prepare(name, Scale::Small, rec, base + w as u64, &mut out.layers);
                build_ns += ns;
                p
            })
            .collect();
        out.setups_s.push(t0.elapsed().as_secs_f64());
        if rec.is_some() {
            out.layers.setup_built(build_ns);
        }

        let mut stats: Vec<Option<SimStats>> = vec![None; cells];
        let mut timed = Round {
            traced: rec.is_some(),
            cell_ms: vec![0.0; cells],
            ..Round::default()
        };
        let t0 = Instant::now();
        for idx in shuffled(cells, run.seed, round) {
            let (w, c) = (idx / cols.len(), idx % cols.len());
            let col = &cols[c];
            let cell = run_cell(&prepared[w], &col.cfg, rec, base + idx as u64);
            timed.cell_ms[idx] = cell.ms;
            match cell.result {
                Ok(s) => {
                    if rec.is_some() {
                        out.layers.core_new(col.class, cell.new_ns);
                        out.layers
                            .core_run(col.class, col.family, cell.run_ns, s.retired);
                    }
                    timed.insts += s.retired;
                    stats[idx] = Some(s);
                }
                Err(e) => out.fail(1, e),
            }
        }
        timed.wall_s = t0.elapsed().as_secs_f64();
        out.attempted += cells as u64;

        for s in stats.iter().flatten() {
            out.layers.count_detail(s);
        }
        // The committed fingerprint hashes the hostperf cells kernel-major,
        // in spec order; cells that already failed are not counted twice.
        let ncols = cols.len();
        let hostperf: Vec<&SimStats> = (0..names.len())
            .flat_map(|w| (0..hostperf_cols).map(move |c| w * ncols + c))
            .filter_map(|idx| stats[idx].as_ref())
            .collect();
        let covered = hostperf.len() as u64;
        match &committed {
            Ok(expected) => {
                let computed = aim_bench::fingerprint_stats(hostperf.iter().copied());
                let failed = if covered == (names.len() * hostperf_cols) as u64 {
                    fingerprint_failures(computed, *expected, covered)
                } else {
                    covered
                };
                out.fail(
                    failed,
                    format!("hostperf fingerprint {computed:#018x} != committed {expected:#018x}"),
                );
            }
            Err(e) => out.fail(covered, e.clone()),
        }
        out.rounds.push(timed);
        round += 1;
    }
    out
}
