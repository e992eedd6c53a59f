//! Host-performance benchmark of the simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload detail|sampled|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root: the correctness checks read the committed
//! `BENCH_hostperf.json` and `BENCH_sampled.json`. One process runs one
//! workload for `S` timed seconds, checks every output, prints the host
//! context and every metric by name and unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced and traced rounds,
//! reports the per-layer metrics from the traced ones (including the
//! tracing overhead between the two) and writes every span to
//! `.perfbench/spans-<workload>.tsv`. See `perfbench/README.md`.

mod checks;
mod common;
mod detail;
mod layers;
mod sampled;
mod serve;
mod spans;
mod summary;

use common::{Outcome, Round, Run};
use layers::{per_layer_spec, END_TO_END};
use spans::{self_times_by_name, Recorder};
use summary::{median, percentile, quartiles, summarize};

/// The workloads, with the scale and kind of each.
const WORKLOADS: [(&str, &str, Kind); 3] = [
    ("detail", "small", Kind::Compute),
    ("sampled", "huge", Kind::Compute),
    ("serve", "tiny", Kind::Served),
];

/// How a workload uses the host, and so how its timings are estimated.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// One simulation thread running deterministic cells. Interference
    /// from other work on the host only ever adds time, so each cell's
    /// time is its fastest repetition in the run.
    Compute,
    /// The server's workers, driven by [`serve::CLIENTS`] connections.
    /// Latency under concurrency is the measurement itself, so each
    /// timing is the median over the run's rounds.
    Served,
}

struct Args {
    workload: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    for (i, arg) in argv.iter().enumerate().skip(1).step_by(2) {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&arg.as_str()) {
            return Err(format!("unexpected argument #{i} `{arg}`"));
        }
    }
    let name = value("--workload")?;
    let workload = WORKLOADS.iter().position(|w| w.0 == name).ok_or_else(|| {
        format!("unknown workload `{name}` (detail|sampled|serve)")
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The process's peak resident set (`VmHWM`), in MB of 2^20 bytes.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            }),
        None => (!head.is_empty()).then(|| head.to_string()),
    }
    .map_or_else(|| "unknown".to_string(), |c| c.trim().to_string())
}

/// JSON text of a finite number (non-finite values read 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Wall seconds, simulated MIPS and the cell-time median and p95 of one
/// round.
fn round_metrics(r: &Round) -> [f64; 4] {
    let mips = if r.wall_s > 0.0 {
        r.insts as f64 / r.wall_s / 1e6
    } else {
        0.0
    };
    [
        r.wall_s,
        mips,
        median(&r.cell_ms),
        percentile(&r.cell_ms, 95.0),
    ]
}

/// A round made of each cell's fastest repetition among `rounds`; its
/// wall time is the sum of those cell times.
fn fastest_per_cell(rounds: &[&Round]) -> Round {
    let cells = rounds.iter().map(|r| r.cell_ms.len()).min().unwrap_or(0);
    let cell_ms: Vec<f64> = (0..cells)
        .map(|i| {
            rounds
                .iter()
                .map(|r| r.cell_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    Round {
        wall_s: cell_ms.iter().sum::<f64>() / 1e3,
        cell_ms,
        insts: rounds[0].insts,
        traced: false,
    }
}

/// Every end-to-end metric, in [`END_TO_END`] order: its value and its
/// per-repetition values. The untraced rounds count (all rounds if none
/// is untraced); `peak_rss_mb` is the process's, once.
fn end_to_end(out: &Outcome, kind: Kind, peak: f64) -> Vec<(f64, Vec<f64>)> {
    let untraced: Vec<&Round> = out.rounds.iter().filter(|r| !r.traced).collect();
    let rounds = if untraced.is_empty() {
        out.rounds.iter().collect()
    } else {
        untraced
    };
    let per_round: Vec<[f64; 4]> = rounds.iter().map(|r| round_metrics(r)).collect();
    let column = |m: usize| per_round.iter().map(|v| v[m]).collect::<Vec<_>>();
    let estimate = match kind {
        Kind::Compute if !rounds.is_empty() => round_metrics(&fastest_per_cell(&rounds)),
        _ => [0, 1, 2, 3].map(|m| median(&column(m))),
    };
    let mut values = vec![
        (median(&out.setups_s), out.setups_s.clone()),
        (peak, vec![peak]),
    ];
    values.extend((0..4).map(|m| (estimate[m], column(m))));
    values
}

/// Makes every thread allocate from one malloc arena, so the peak resident
/// set of a served workload counts live memory rather than how many
/// per-thread arenas its rounds happened to touch.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: glibc's `mallopt` only sets an allocator parameter; it is
    // called before this process starts any other thread, and
    // `M_ARENA_MAX` accepts any positive value.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() {
    single_malloc_arena();
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let (name, scale, kind) = WORKLOADS[args.workload];
    let recorder = args.trace.then(Recorder::default);
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        recorder: recorder.as_ref(),
    };
    println!(
        "perfbench: workload {name}, seed {}, {} timed seconds, {}",
        args.seed,
        args.seconds,
        if args.trace {
            "traced and untraced rounds alternating"
        } else {
            "untraced"
        }
    );
    let out = match name {
        "detail" => detail::run(&run),
        "sampled" => sampled::run(&run),
        _ => serve::run(&run),
    };
    let peak = peak_rss_mb();

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (sim_threads, clients) = match kind {
        Kind::Compute => (1, 0),
        Kind::Served => (serve::workers(), serve::CLIENTS),
    };
    println!(
        "context: {{\"nproc\": {nproc}, \"sim_threads\": {sim_threads}, \"clients\": {clients}, \
         \"seed\": {}, \"scale\": \"{scale}\", \"commit\": \"{}\", \"setups\": {}, \"rounds\": {}, \
         \"traced_rounds\": {}}}",
        args.seed,
        commit(),
        out.setups_s.len(),
        out.rounds.len(),
        out.rounds.iter().filter(|r| r.traced).count(),
    );
    let cell_ms: Vec<f64> = out
        .rounds
        .iter()
        .filter(|r| !r.traced)
        .flat_map(|r| r.cell_ms.clone())
        .collect();
    println!("timing cell_ms: {}", summarize(&cell_ms));
    println!("timing setup_s: {}", summarize(&out.setups_s));
    for finding in &out.findings {
        println!("failed: {finding}");
    }

    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    for ((metric, unit, _), (value, reps)) in END_TO_END.iter().zip(end_to_end(&out, kind, peak)) {
        let [q1, q2, q3] = quartiles(&reps);
        println!(
            "metric {metric} = {value:.6} {unit} (repetitions: q1 {q1:.6}, median {q2:.6}, q3 {q3:.6}, n={})",
            reps.len()
        );
        if !args.trace {
            metrics.push((metric.to_string(), unit, value));
        }
    }
    if name == "sampled" {
        println!(
            "accuracy ipc_err_pct_max = {:.3} % (worst |sampled - full-detail| IPC)",
            out.layers.ipc_err_max()
        );
    }

    if let Some(rec) = &recorder {
        let spans = rec.spans();
        for (span, own) in self_times_by_name(&spans) {
            let us: Vec<f64> = own.iter().map(|&ns| ns as f64 / 1e3).collect();
            println!("span {span} self_us: {}", summarize(&us));
        }
        let values = out.layers.metrics(&out.rounds, &spans);
        for ((metric, unit, _), value) in per_layer_spec().into_iter().zip(values) {
            println!("layer {metric} = {value:.6} {unit}");
            metrics.push((metric, unit, value));
        }
        let path = std::path::Path::new(serve::SCRATCH_DIR).join(format!("spans-{name}.tsv"));
        let written = std::fs::create_dir_all(serve::SCRATCH_DIR)
            .and_then(|()| spans::write_tsv(&spans, &path));
        match written {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => println!("spans: not written ({e})"),
        }
    }
    // Leave no empty scratch directory behind.
    let _ = std::fs::remove_dir(serve::SCRATCH_DIR);

    let correct = out.failed == 0 && out.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &str) -> Vec<String> {
        std::iter::once("perfbench")
            .chain(words.split_whitespace())
            .map(String::from)
            .collect()
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = parse_args(&argv("--workload sampled --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (WORKLOADS[a.workload].0, a.seed, a.seconds, a.trace),
            ("sampled", 3, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload detail --seed x --seconds 1 --trace 0",
            "--workload detail --seed 1 --seconds 0 --trace 0",
            "--workload detail --seed 1 --seconds 1 --trace 2",
            "--workload detail --seed 1 --seconds 1",
            "--workload detail --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// The metric lists here and in `BENCHMARK.json` name the same
    /// metrics, with the same units and directions, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entries = |section: &str| -> Vec<(String, String, String)> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..start + text[start..].find(']').expect("section closes")];
            body.lines()
                .filter_map(|l| {
                    let field = |k| common::json_field(l, k).map(str::to_string);
                    Some((field("name")?, field("unit")?, field("better")?))
                })
                .collect()
        };
        let own = |v: Vec<(String, &str, &str)>| {
            v.into_iter()
                .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
                .collect::<Vec<_>>()
        };
        let e2e = own(END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .collect());
        let json_e2e: Vec<_> = entries("end_to_end");
        assert_eq!(json_e2e, e2e);
        assert_eq!(entries("per_layer"), own(per_layer_spec()));
        let workloads: Vec<String> = text
            .lines()
            .filter(|l| l.contains("\"why\""))
            .filter_map(|l| common::json_field(l, "name").map(str::to_string))
            .collect();
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|w| w.0.to_string())
                .collect::<Vec<_>>()
        );
    }
}
