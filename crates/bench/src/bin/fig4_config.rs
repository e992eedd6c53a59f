//! Figure 4: the simulator parameter table for the baseline and aggressive
//! superscalar processors, printed from the live configuration structs so
//! the table can never drift from what the simulator actually models.

use aim_bench::{jobs_from_args, run_matrix_timed, specs, SweepReport};
use aim_pipeline::{MachineClass, BackendConfig, SimConfig};
use aim_predictor::EnforceMode;
use aim_workloads::Scale;

fn row(parameter: &str, baseline: String, aggressive: String) {
    println!("{parameter:<24} | {baseline:<34} | {aggressive}");
}

fn main() {
    let b = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    let a = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();

    println!("Figure 4 — simulator parameters");
    aim_bench::rule(100);
    row(
        "Parameter",
        "Baseline".to_string(),
        "Aggressive".to_string(),
    );
    aim_bench::rule(100);
    row(
        "Pipeline width",
        format!("{} instr/cycle", b.width),
        format!("{} instr/cycle", a.width),
    );
    row(
        "Fetch bandwidth",
        format!("max {} branch/cycle", b.max_branches_per_cycle),
        format!("up to {} branches/cycle", a.max_branches_per_cycle),
    );
    row(
        "Branch predictor",
        format!(
            "{} Kbit gshare + {:.0}% oracle fix-up",
            b.gshare_counters * 2 / 1024,
            b.oracle_fix_probability * 100.0
        ),
        "same".to_string(),
    );
    row(
        "Memory dep. predictor",
        format!(
            "{}K-entry PT and CT, {}K producer ids, {}-entry LFPT",
            b.dep_predictor.table_entries / 1024,
            b.dep_predictor.max_sets / 1024,
            b.dep_predictor.lfpt_entries
        ),
        "same".to_string(),
    );
    row(
        "Misprediction penalty",
        format!("{} cycles", b.mispredict_penalty),
        "same".to_string(),
    );
    let geom = |cfg: &SimConfig| match cfg.backend {
        BackendConfig::SfcMdt { sfc, mdt } => (sfc, mdt),
        _ => unreachable!(),
    };
    let (bs, bm) = geom(&b);
    let (as_, am) = geom(&a);
    row(
        "MDT",
        format!("{}K sets, {}-way set assoc.", bm.sets / 1024, bm.ways),
        format!("{}K sets, {}-way set assoc.", am.sets / 1024, am.ways),
    );
    row(
        "SFC",
        format!("{} sets, {}-way set assoc.", bs.sets, bs.ways),
        format!("{} sets, {}-way set assoc.", as_.sets, as_.ways),
    );
    row(
        "Renamer checkpoints",
        format!("{} (walk-back equivalent)", b.rob_entries),
        format!("{} (walk-back equivalent)", a.rob_entries),
    );
    row(
        "Scheduling window",
        format!("{} entries", b.rob_entries),
        format!("{} entries", a.rob_entries),
    );
    let h = b.mem;
    row(
        "L1 I-cache",
        format!(
            "{} KB, {}-way, {} B lines, {} cycle miss",
            h.l1i.capacity_bytes() / 1024,
            h.l1i.ways(),
            h.l1i.line_bytes(),
            h.l1_miss_cycles
        ),
        "same".to_string(),
    );
    row(
        "L1 D-cache",
        format!(
            "{} KB, {}-way, {} B lines, {} cycle miss",
            h.l1d.capacity_bytes() / 1024,
            h.l1d.ways(),
            h.l1d.line_bytes(),
            h.l1_miss_cycles
        ),
        "same".to_string(),
    );
    row(
        "L2 cache",
        format!(
            "{} KB, {}-way, {} B lines, {} cycle miss",
            h.l2.capacity_bytes() / 1024,
            h.l2.ways(),
            h.l2.line_bytes(),
            h.l2_miss_cycles
        ),
        "same".to_string(),
    );
    row(
        "Reorder buffer",
        format!("{} entries", b.rob_entries),
        format!("{} entries", a.rob_entries),
    );
    row(
        "Function units",
        format!("{} identical fully pipelined units", b.issue_width),
        format!("{} units", a.issue_width),
    );
    aim_bench::rule(100);

    // Boot-validate both printed configurations: one tiny kernel through
    // the shared sweep runner, so the table can never describe a machine
    // that no longer simulates.
    let jobs = jobs_from_args();
    let spec = specs::fig4_boot();
    let prepared: Vec<_> = spec.workloads(Scale::Tiny).into_iter().take(1).collect();
    let (matrix, wall) = run_matrix_timed(&prepared, &spec.configs, jobs);
    for (_, c, stats) in matrix.iter() {
        assert!(
            stats.retired > 0,
            "{} retired nothing",
            spec.configs[c].0
        );
    }
    println!(
        "boot check: {} simulated {} tiny cells ok",
        prepared[0].name,
        matrix.n_configs()
    );
    SweepReport::from_matrix(spec.artifact, jobs, wall, &prepared, &spec.configs, &matrix).emit();
}
