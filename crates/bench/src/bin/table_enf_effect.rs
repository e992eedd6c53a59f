//! §3.2 in-text: the effect of enforcing predicted dependences on the
//! aggressive machine.
//!
//! "Relative to the NOT-ENF configuration, the average IPC of the ENF
//! configuration is 14% higher across the specint benchmarks and 43% higher
//! across the specfp benchmarks." The ENF configuration here enforces a
//! total ordering within each producer set, which the paper found superior
//! to plain producer→consumer enforcement at this window size; all three
//! policies are printed for comparison.

use aim_bench::{
    jobs_from_args, rule, run_matrix_timed, scale_from_args, specs, suite_means, SweepReport,
};

fn main() {
    let scale = scale_from_args();
    let jobs = jobs_from_args();
    let spec = specs::table_enf_effect();
    let prepared = spec.workloads(scale);
    let (matrix, wall) = run_matrix_timed(&prepared, &spec.configs, jobs);
    let (i_not, i_pair, i_total) = (
        spec.index("not-enf"),
        spec.index("enf-pairwise"),
        spec.index("enf-total"),
    );

    println!("ENF vs NOT-ENF on the aggressive 8-wide machine (IPC relative to NOT-ENF)");
    println!("Paper: ENF(total order) +14% int / +43% fp over NOT-ENF.");
    rule(76);
    println!(
        "{:<11} {:>6} | {:>11} | {:>12} {:>12}",
        "benchmark", "suite", "NOT-ENF IPC", "ENF pairwise", "ENF total"
    );
    rule(76);

    let mut pair_rows = Vec::new();
    let mut total_rows = Vec::new();
    for (w, p) in prepared.iter().enumerate() {
        let base = matrix.get(w, i_not).ipc();
        let pairwise = matrix.get(w, i_pair).ipc() / base;
        let total = matrix.get(w, i_total).ipc() / base;
        pair_rows.push((p.suite, pairwise));
        total_rows.push((p.suite, total));
        println!(
            "{:<11} {:>6} | {:>11.3} | {:>12.3} {:>12.3}",
            p.name,
            p.suite,
            base,
            pairwise,
            total
        );
    }
    rule(76);
    let (pi, pf) = suite_means(&pair_rows);
    let (ti, tf) = suite_means(&total_rows);
    println!(
        "{:<11} {:>6} | {:>11} | {:>12.3} {:>12.3}",
        "int avg", "", "", pi, ti
    );
    println!(
        "{:<11} {:>6} | {:>11} | {:>12.3} {:>12.3}",
        "fp avg", "", "", pf, tf
    );
    rule(76);
    println!("paper targets: ENF total ≈ 1.14 (int), ≈ 1.43 (fp) relative to NOT-ENF");

    SweepReport::from_matrix(spec.artifact, jobs, wall, &prepared, &spec.configs, &matrix).emit();
}
