//! Host-throughput tracking matrix: simulated kcycles/s and MIPS per
//! backend × machine class, plus the differential stats fingerprint.
//!
//! This is the perf-trajectory artifact: `BENCH_hostperf.json`
//! (`aim-hostperf-report/v1`) records how fast the *host* simulates each
//! backend, aggregated over every kernel, so simulator-performance work
//! (e.g. the data-oriented SoA table rewrite) can be measured
//! backend-by-backend across commits rather than by anecdote.
//!
//! The report's `stats_fingerprint` hashes every cell's host-independent
//! `SimStats`, making the binary double as a behaviour gate: any change to
//! any architectural statistic on any (kernel, backend) pair changes the
//! fingerprint. With `--check`, the run fails unless the fingerprint
//! equals the one in the committed `BENCH_hostperf.json` (when that report
//! was made at the same scale), and the matrix is replayed on a single
//! worker and the run fails unless both fingerprints agree (the jobs=N ≡
//! jobs=1 determinism property); `scripts/tier1.sh` greps the resulting
//! `hostperf: ACCEPT` acceptance line. Against the committed report it
//! also prints, per config, either what moved (`sim_cycles`/`retired`, both
//! values, on a fingerprint mismatch) or the `retired_mips` change (on a
//! match).

use aim_bench::{
    behaviour_diffs, csv_path_from_args, fingerprint_stats, has_flag, jobs_from_args, mips_deltas,
    rule, run_matrix, run_matrix_timed, run_multi_n1, scale_from_args, specs, stats_fingerprint,
    HostperfReport, Report,
};

fn main() {
    let scale = scale_from_args();
    let jobs = jobs_from_args();
    let spec = specs::table_hostperf();
    let prepared = spec.workloads(scale);
    let (matrix, wall) = run_matrix_timed(&prepared, &spec.configs, jobs);
    let report = HostperfReport::from_matrix(scale, jobs, wall, &spec.configs, &matrix);
    // Read the committed report before this run's report can replace it.
    let committed = HostperfReport::committed_header();
    let committed_rows = HostperfReport::committed_rows().unwrap_or_default();

    println!(
        "Host throughput — {} kernels at --scale {}, all backends on both machine classes",
        prepared.len(),
        scale
    );
    rule(78);
    println!(
        "{:<18} {:>10} | {:>12} {:>10} | {:>12} {:>8}",
        "config", "machine", "sim kcycles", "retired k", "kcycles/s", "MIPS"
    );
    rule(78);
    for row in &report.rows {
        println!(
            "{:<18} {:>10} | {:>12} {:>10} | {:>12.1} {:>8.3}",
            row.config,
            row.machine,
            row.sim_cycles / 1000,
            row.retired / 1000,
            row.kcycles_per_sec,
            row.retired_mips,
        );
    }
    rule(78);

    if let Some(path) = csv_path_from_args() {
        std::fs::write(&path, report.to_csv()).expect("write csv");
        println!("wrote {path}");
    }
    match report.write_default() {
        Ok(path) => println!(
            "hostperf: {} cells in {:.2}s on {} job(s) — {path}",
            prepared.len() * spec.configs.len(),
            report.wall_seconds,
            report.jobs
        ),
        Err(e) => eprintln!("hostperf report not written: {e}"),
    }

    // Differential gates: with --check, (1) replay the matrix serially and
    // require the architectural-stats fingerprint to be bit-identical
    // (jobs=N ≡ jobs=1 determinism), then (2) replay every cell as the sole
    // core of a MultiMachine and require the same fingerprint again — the
    // multi-core refactor's N=1 contract, checked over the full matrix.
    let verdict = if has_flag("--check") {
        let path = HostperfReport::DEFAULT_PATH;
        let ours = format!("{:#018x}", report.stats_fingerprint);
        let theirs = committed.as_ref().and_then(|h| {
            let same_scale = h.str_field("scale") == Some(scale.to_string().as_str());
            same_scale.then(|| h.str_field("stats_fingerprint")).flatten()
        });
        match theirs {
            Some(theirs) if theirs != ours => {
                // Name the configs whose totals moved; a change can also
                // move statistics that leave both totals intact.
                for line in behaviour_diffs(&committed_rows, &report.rows) {
                    println!("hostperf:   {line}");
                }
                println!(
                    "hostperf: REJECT — fingerprint {ours} != committed {path} fingerprint \
                     {theirs} at scale {scale}"
                );
                std::process::exit(1);
            }
            Some(_) => {
                println!("hostperf: fingerprint matches the committed {path} ({ours})");
                for line in mips_deltas(&committed_rows, &report.rows) {
                    println!("hostperf:   {line}");
                }
            }
            None => println!("hostperf: no committed {path} at scale {scale} to compare with"),
        }
        let serial = run_matrix(&prepared, &spec.configs, 1);
        let replay = stats_fingerprint(&serial);
        if replay != report.stats_fingerprint {
            println!(
                "hostperf: REJECT — jobs={} fingerprint {:#018x} != jobs=1 fingerprint {replay:#018x}",
                report.jobs, report.stats_fingerprint
            );
            std::process::exit(1);
        }
        let n1_cells: Vec<_> = prepared
            .iter()
            .flat_map(|p| spec.configs.iter().map(|(_, cfg)| run_multi_n1(p, cfg)))
            .collect();
        let n1 = fingerprint_stats(n1_cells.iter());
        if n1 != report.stats_fingerprint {
            println!(
                "hostperf: REJECT — multi-core N=1 fingerprint {n1:#018x} != single-core fingerprint {:#018x}",
                report.stats_fingerprint
            );
            std::process::exit(1);
        }
        println!("hostperf: multi-core N=1 fingerprint matches single-core ({n1:#018x})");
        "ACCEPT"
    } else {
        "ACCEPT"
    };
    println!(
        "hostperf: {verdict} fingerprint={:#018x} scale={} configs={} kernels={}",
        report.stats_fingerprint,
        scale,
        spec.configs.len(),
        prepared.len()
    );
}
