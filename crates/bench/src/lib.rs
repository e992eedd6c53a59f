//! Experiment harness: shared machinery for regenerating every table and
//! figure of the paper's evaluation (§3).
//!
//! Each `src/bin/*.rs` binary reproduces one artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig4_config` | Figure 4 (simulator parameters) |
//! | `fig5_baseline` | Figure 5 (baseline 4-wide, ENF / NOT-ENF vs 48×32 LSQ) |
//! | `fig6_aggressive` | Figure 6 (aggressive 8-wide, LSQ sizes vs MDT/SFC) |
//! | `table_violations` | §3.1/§3.2 violation-rate claims |
//! | `table_enf_effect` | §3.2 ENF vs NOT-ENF on the aggressive machine |
//! | `table_assoc_sweep` | §3.2 bzip2/mcf set-conflict + associativity-16 study |
//! | `table_corruption` | §3.2 SFC corruption-rate study |
//! | `table_filter` | §4 MDT search-filter study |
//! | `table_filter_sweep` | filter sets/ways/counter-width knee (à la §5 sizing) |
//! | `table_hybrid` | §4 filtered-LSQ hybrid vs the backend bounds |
//! | `table_far_mem` | far-memory latency × window-size sweep (in `aim-serve`, cache-routed) |
//! | `table_pcax` | PC-indexed classification backend vs the backend bounds |
//! | `table_pcax_sweep` | PCAX table sets/ways/threshold knee (à la §5 sizing) |
//! | `table_power` | §5 activity/power proxy counts |
//! | `table_window_sweep` | §3.3 instruction-window scaling |
//! | `calibrate` | IPC sanity check of the two backends |
//!
//! Shared flags: `--scale tiny|small|full` (default `full`) and
//! `--jobs N` (worker threads for the sweep; `0`/absent defers to the
//! `AIM_JOBS` environment variable, then to the host's parallelism).
//!
//! Every binary routes its (workload × config) sweep through
//! [`run_matrix`], which fans independent simulations across OS threads
//! with deterministic result ordering, and emits a host-throughput
//! [`SweepReport`] (`BENCH_sweep.json`) alongside its human-readable
//! output.

use aim_isa::{Interpreter, Program, Trace};
use aim_pipeline::{simulate_with_trace, SimConfig, SimStats};
use aim_workloads::{Scale, Suite, Workload};

mod cache_key;
mod farmem;
mod geometry_sweep;
mod hostperf;
mod hybrid;
mod litmus;
mod matrix;
mod pcax;
mod report;
mod sampled;
mod serve_report;
pub mod specs;
mod sweep;

pub use cache_key::{
    cache_key, cache_key_of_texts, canonical_config_text, program_text, CacheKey, KeyPrefix,
    CODE_VERSION,
};
pub use farmem::{FarMemReport, FarMemRow};
pub use geometry_sweep::{
    find_knee, grid_tiny_from_args, FilterSweepReport, FilterSweepRow, GeometryGrid, Knee,
    KneePoint, PcaxSweepReport, PcaxSweepRow,
};
pub use hostperf::{
    behaviour_diffs, fingerprint_stats, fingerprint_text, fingerprint_texts, mips_deltas,
    stats_fingerprint, stats_text, HostperfReport, HostperfRow,
};
pub use hybrid::{HybridReport, HybridRow};
pub use litmus::{litmus_outcomes, LitmusReport, LitmusRow};
pub use matrix::{run_matrix, run_matrix_timed, Matrix};
pub use pcax::{PcaxReport, PcaxRow};
pub use report::Report;
pub use sampled::{SampledReport, SampledRow};
pub use serve_report::{ServeCounters, ServeReport, ServeRound};
pub use sweep::{SweepReport, SweepRow};

/// A workload with its golden trace precomputed (reused across configs).
pub struct Prepared {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// The program.
    pub program: Program,
    /// The architectural trace.
    pub trace: Trace,
}

/// Builds and architecturally executes every kernel at `scale`.
///
/// # Panics
///
/// Panics if any kernel faults architecturally (a workload bug).
pub fn prepare_all(scale: Scale) -> Vec<Prepared> {
    aim_workloads::all(scale)
        .into_iter()
        .map(|w| prepare(w, scale))
        .collect()
}

/// Builds and architecturally executes one kernel. The trace budget
/// scales with the workload scale: kernels overshoot their nominal
/// target (control flow retires whole loop iterations), and at
/// `Scale::Huge` the longest-tailed kernels run past 5M retired
/// instructions.
///
/// # Panics
///
/// Panics if the kernel faults architecturally.
pub fn prepare(w: Workload, scale: Scale) -> Prepared {
    let trace = Interpreter::new(&w.program)
        .run((10 * scale.target_instrs()).max(5_000_000))
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    assert!(trace.halted(), "{} exceeded the trace budget", w.name);
    Prepared {
        name: w.name,
        suite: w.suite,
        program: w.program,
        trace,
    }
}

/// Runs a prepared workload under `cfg`.
///
/// # Panics
///
/// Panics on validation or deadlock errors — the harness treats simulator
/// failures as fatal.
pub fn run(p: &Prepared, cfg: &SimConfig) -> SimStats {
    try_run(p, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run`] with a simulator failure (validation or deadlock) returned as
/// a one-line message naming the kernel and backend.
///
/// # Errors
///
/// Returns the [`SimError`](aim_pipeline::SimError) with that context.
pub fn try_run(p: &Prepared, cfg: &SimConfig) -> Result<SimStats, String> {
    simulate_with_trace(&p.program, &p.trace, cfg)
        .map_err(|e| format!("{} under {}: {e}", p.name, cfg.backend.name()))
}

/// Runs a prepared workload under `cfg` as the sole core of a
/// [`MultiMachine`](aim_pipeline::MultiMachine) and returns core 0's
/// statistics. The multi-core refactor's N=1 contract says this is
/// bit-identical (wall clock aside) to [`run`]; `table_hostperf --check`
/// replays the whole matrix through this path and compares fingerprints.
///
/// # Panics
///
/// Panics on validation or deadlock errors, as [`run`] does.
pub fn run_multi_n1(p: &Prepared, cfg: &SimConfig) -> SimStats {
    let multi = aim_pipeline::MultiMachine::new(&[(&p.program, &p.trace)], cfg.clone());
    let stats = multi
        .run(aim_pipeline::CoreSchedule::RoundRobin)
        .unwrap_or_else(|e| panic!("{} under {} (multi N=1): {e}", p.name, cfg.backend.name()));
    stats.per_core.into_iter().next().expect("one core ran")
}

/// The word after `--flag` on the command line, if the flag is present
/// (`Some("")` when it is the last word).
pub fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip_while(|a| a != flag);
    args.next().map(|_| args.next().unwrap_or_default())
}

/// Parses `--scale tiny|small|full|huge` from the command line (default
/// `full`).
///
/// # Panics
///
/// Panics on an unknown scale token.
pub fn scale_from_args() -> Scale {
    match flag_value("--scale").filter(|v| !v.is_empty()) {
        Some(token) => token.parse().unwrap_or_else(|e| panic!("{e}")),
        None => Scale::Full,
    }
}

/// Whether a `--flag` is present on the command line.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Resolves a requested worker-thread count: an explicit request (`> 0`)
/// wins, then a positive `AIM_JOBS` environment variable, then the host's
/// available parallelism (falling back to 1 if that is unknowable).
pub fn resolve_jobs(requested: usize) -> usize {
    resolve_jobs_with(requested, std::env::var("AIM_JOBS").ok().as_deref())
}

/// [`resolve_jobs`] with the `AIM_JOBS` environment variable's value passed
/// explicitly, so the fallback chain is unit-testable without mutating the
/// process environment. A malformed or non-positive `env_jobs` is ignored,
/// exactly as an unset variable is.
pub fn resolve_jobs_with(requested: usize, env_jobs: Option<&str>) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = env_jobs.and_then(|v| v.parse::<usize>().ok()) {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Extracts the `--jobs N` request (before [`resolve_jobs`] resolution)
/// from an argument list. Absent means `0` (defer to `AIM_JOBS`, then
/// auto-detection).
///
/// # Errors
///
/// Returns a one-line, actionable message — never panics — when `--jobs`
/// is present without a value or with a non-integer value.
pub fn parse_jobs_arg(args: &[String]) -> Result<usize, String> {
    match args.iter().position(|a| a == "--jobs") {
        Some(i) => match args.get(i + 1) {
            Some(s) => s.parse().map_err(|_| {
                format!("--jobs expects a non-negative integer, got `{s}` (e.g. --jobs 4; 0 defers to AIM_JOBS, then auto-detection)")
            }),
            None => Err("--jobs expects a value (e.g. --jobs 4; 0 defers to AIM_JOBS, then auto-detection)".to_string()),
        },
        None => Ok(0),
    }
}

/// Parses `--jobs N` from the command line and resolves it via
/// [`resolve_jobs`] (so `--jobs 0`, `AIM_JOBS`, and auto-detection all
/// behave identically across the experiment binaries).
///
/// A malformed `--jobs` prints one actionable line on stderr and exits
/// with status 2 — no panic, no backtrace.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    match parse_jobs_arg(&args) {
        Ok(requested) => resolve_jobs(requested),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    }
}

/// Parses `--csv <path>` from the command line, if present.
pub fn csv_path_from_args() -> Option<String> {
    flag_value("--csv").filter(|v| !v.is_empty())
}

/// A minimal CSV emitter for the figure harnesses (numbers and plain names
/// only — no quoting needed).
#[derive(Debug, Default)]
pub struct CsvTable {
    lines: Vec<String>,
}

impl CsvTable {
    /// Starts a table with a header row.
    pub fn new(columns: &[&str]) -> CsvTable {
        CsvTable {
            lines: vec![columns.join(",")],
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) {
        self.lines.push(cells.join(","));
    }

    /// Writes the table to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.lines.join("\n") + "\n")
    }
}

/// Per-suite averages of `(suite, value)` pairs, using the geometric mean
/// (values are IPC ratios).
pub fn suite_means(rows: &[(Suite, f64)]) -> (f64, f64) {
    let ints: Vec<f64> = rows
        .iter()
        .filter(|(s, _)| *s == Suite::Int)
        .map(|(_, v)| *v)
        .collect();
    let fps: Vec<f64> = rows
        .iter()
        .filter(|(s, _)| *s == Suite::Fp)
        .map(|(_, v)| *v)
        .collect();
    (aim_types::geomean(&ints), aim_types::geomean(&fps))
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_pipeline::MachineClass;
    use aim_predictor::EnforceMode;

    #[test]
    fn prepare_and_run_smoke() {
        let w = aim_workloads::by_name("crafty", Scale::Tiny).unwrap();
        let p = prepare(w, Scale::Tiny);
        let stats = run(&p, &SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build());
        assert!(stats.retired > 1_000);
    }

    #[test]
    fn suite_means_split() {
        let rows = vec![(Suite::Int, 1.0), (Suite::Int, 4.0), (Suite::Fp, 2.0)];
        let (int, fp) = suite_means(&rows);
        assert!((int - 2.0).abs() < 1e-12);
        assert!((fp - 2.0).abs() < 1e-12);
    }

    #[test]
    fn csv_table_round_trips_through_a_file() {
        let mut t = CsvTable::new(&["benchmark", "ipc"]);
        t.row(&["gzip".into(), "2.358".into()]);
        t.row(&["mcf".into(), "1.9".into()]);
        let path = std::env::temp_dir().join("aim_bench_csv_test.csv");
        t.write(path.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "benchmark,ipc\ngzip,2.358\nmcf,1.9\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scale_and_flags_parse_from_plain_args() {
        // No CLI args in the test harness: defaults apply.
        assert_eq!(scale_from_args(), Scale::Full);
        assert!(!has_flag("--nonexistent"));
        assert_eq!(csv_path_from_args(), None);
    }

    #[test]
    fn jobs_flag_errors_are_one_actionable_line() {
        let argv = |words: &[&str]| words.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_jobs_arg(&argv(&["bin", "--jobs", "4"])), Ok(4));
        assert_eq!(parse_jobs_arg(&argv(&["bin", "--scale", "tiny"])), Ok(0));
        let err = parse_jobs_arg(&argv(&["bin", "--jobs", "x"])).unwrap_err();
        assert!(err.contains("--jobs expects a non-negative integer, got `x`"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
        let err = parse_jobs_arg(&argv(&["bin", "--jobs"])).unwrap_err();
        assert!(err.contains("--jobs expects a value"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
    }

    #[test]
    fn jobs_resolution_prefers_request_then_env_then_host() {
        assert_eq!(resolve_jobs_with(3, Some("8")), 3);
        assert_eq!(resolve_jobs_with(0, Some("8")), 8);
        // Malformed or non-positive AIM_JOBS falls through to the host.
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_jobs_with(0, Some("many")), host);
        assert_eq!(resolve_jobs_with(0, Some("0")), host);
        assert_eq!(resolve_jobs_with(0, None), host);
        assert!(resolve_jobs_with(0, None) >= 1);
    }

    #[test]
    fn prepare_all_covers_the_registry_in_order() {
        let all = prepare_all(Scale::Tiny);
        assert_eq!(all.len(), aim_workloads::names().len());
        let names: Vec<&str> = all.iter().map(|p| p.name).collect();
        assert_eq!(names, aim_workloads::names());
    }
}
