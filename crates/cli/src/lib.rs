//! Command-line driver for the `aim-sim` simulator.
//!
//! The `aim-sim` binary runs any workload kernel under any machine
//! configuration and prints a statistics report:
//!
//! ```text
//! aim-sim list
//! aim-sim run gzip --machine baseline --backend sfc-mdt --mode enf
//! aim-sim run swim --machine aggressive --backend lsq --lsq 120x80 --scale full
//! aim-sim compare mcf --scale small
//! ```
//!
//! `run`, `compare`, `asm` and `submit` describe the machine with one
//! [`ConfigSpec`], filled by one flag parser: each configuration flag is a
//! [`ConfigSpec::FIELDS`] entry (`--pcax-act` sets `pcax_act`) and its
//! value parses through [`ConfigSpec::set`], the same grammar the
//! `aim-serve` wire protocol decodes with. So `run` and `submit` with the
//! same flags simulate the same machine, and a value that would panic a
//! constructor is a one-line parse error.
//!
//! This crate exposes the argument parsing and report formatting as a
//! library so they can be unit-tested; `src/main.rs` is a thin wrapper.

use std::fmt;
use std::slice::Iter;
use std::str::FromStr;

use aim_core::{CorruptionPolicy, MdtTagging};
use aim_pipeline::{SimConfig, SimStats};

pub use aim_pipeline::{BackendChoice, BackendConfig};
pub use aim_serve::ConfigSpec;
use aim_workloads::Scale;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the available kernels.
    List,
    /// Run one kernel under one configuration.
    Run(RunArgs),
    /// Run one kernel under every backend and print each report.
    Compare(RunArgs),
    /// Assemble and run a `.s` source file (the kernel field is the path).
    Asm(RunArgs),
    /// Run the multi-core memory-model litmus suite.
    Litmus(LitmusArgs),
    /// Run the job server (socket, stdio pipe, or the replay gate).
    Serve(ServeArgs),
    /// Submit one job to a serving socket.
    Submit(SubmitArgs),
    /// Print usage.
    Help,
}

/// Options for the `serve` command. Exactly one of `socket`, `stdio`, or
/// `replay` selects the mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Listen on this Unix-domain socket path.
    pub socket: Option<String>,
    /// Serve a single connection over stdin/stdout (subprocess pipe mode).
    pub stdio: bool,
    /// Replay the hostperf matrix cold/warm against the cache and print
    /// the `cache-consistent` verdict.
    pub replay: bool,
    /// Result-cache directory.
    pub cache: String,
    /// Simulation worker threads (0 = `AIM_JOBS`, then host parallelism).
    pub workers: usize,
    /// Replay workload scale.
    pub scale: Scale,
    /// Replay rounds (round 0 cold, the rest warm; minimum 2).
    pub rounds: usize,
    /// Concurrent replay client connections.
    pub clients: usize,
    /// Append a verify round recomputing every replay cell.
    pub verify: bool,
}

impl Default for ServeArgs {
    fn default() -> ServeArgs {
        ServeArgs {
            socket: None,
            stdio: false,
            replay: false,
            cache: ".aim-serve-cache".to_string(),
            workers: 0,
            scale: Scale::Tiny,
            rounds: 2,
            clients: 4,
            verify: false,
        }
    }
}

/// Options for the `submit` command.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// The serving socket to connect to.
    pub socket: String,
    /// Kernel name (empty when `shutdown` is set).
    pub kernel: String,
    /// The machine configuration to request.
    pub spec: ConfigSpec,
    /// Workload scale.
    pub scale: Scale,
    /// Ask the server to recompute and byte-compare the cached entry.
    pub verify: bool,
    /// Bypass the cache lookup (always simulate).
    pub no_cache: bool,
    /// Send a shutdown request instead of a job.
    pub shutdown: bool,
}

impl Default for SubmitArgs {
    fn default() -> SubmitArgs {
        SubmitArgs {
            socket: String::new(),
            kernel: String::new(),
            spec: ConfigSpec::default(),
            scale: Scale::Tiny,
            verify: false,
            no_cache: false,
            shutdown: false,
        }
    }
}

/// Options for the `litmus` command.
#[derive(Debug, Clone, PartialEq)]
pub struct LitmusArgs {
    /// Run only the named test (`SB`, `SB+fwd`, `MP`, `MP+fwd`, `LB`,
    /// `IRIW`); `None` runs the whole suite.
    pub test: Option<String>,
    /// Run only this backend; `None` runs all six.
    pub backend: Option<BackendChoice>,
    /// Seeded random core schedules per (test, backend); round-robin always
    /// runs in addition.
    pub schedules: u64,
    /// Run the release-build integrity checks during every schedule.
    pub paranoid: bool,
}

impl Default for LitmusArgs {
    fn default() -> LitmusArgs {
        LitmusArgs {
            test: None,
            backend: None,
            schedules: 200,
            paranoid: false,
        }
    }
}

/// Options shared by `run`, `compare` and `asm`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Kernel name (see `aim-sim list`).
    pub kernel: String,
    /// The machine configuration (the flags `submit` shares).
    pub spec: ConfigSpec,
    /// Dynamic instruction budget.
    pub scale: Scale,
    /// Use the untagged MDT variant.
    pub untagged: bool,
    /// Use the flush-endpoint SFC variant.
    pub endpoints: bool,
    /// Enable the §4 MDT search filter.
    pub filter: bool,
    /// Print the last N pipeline events after the run.
    pub trace: usize,
    /// Render the last N retired instructions as pipeline timelines.
    pub pipeview: usize,
    /// Worker threads for `compare` sweeps (0 = `AIM_JOBS`, then host
    /// parallelism).
    pub jobs: usize,
    /// Run the scheduler and store-census integrity checks even in
    /// release builds.
    pub paranoid: bool,
}

impl Default for RunArgs {
    fn default() -> RunArgs {
        RunArgs {
            kernel: String::new(),
            spec: ConfigSpec::default(),
            scale: Scale::Small,
            untagged: false,
            endpoints: false,
            filter: false,
            trace: 0,
            pipeview: 0,
            jobs: 0,
            paranoid: false,
        }
    }
}

/// Errors from argument parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The usage string printed by `aim-sim help`.
pub const USAGE: &str = "\
aim-sim — the SFC/MDT memory-disambiguation simulator (MICRO-38 reproduction)

USAGE:
  aim-sim list                       list available kernels
  aim-sim run <kernel> [options]     simulate one kernel
  aim-sim compare <kernel> [options] simulate under all six backends
  aim-sim asm <file.s> [options]     assemble and simulate a source file
  aim-sim litmus [litmus options]    run the multi-core memory-model litmus suite
  aim-sim serve --replay|--socket PATH|--stdio [serve options]
                                     run the caching job server (or its replay gate)
  aim-sim submit <kernel>|--shutdown --socket PATH [submit options]
                                     send one job to a serving socket

OPTIONS:
  --machine baseline|aggressive|huge
                                  pipeline configuration      [baseline]
  --backend sfc-mdt|lsq|filtered|pcax|oracle|nospec
                                  memory-ordering machinery   [sfc-mdt]
  --mode enf|not-enf|total        predictor enforcement
                                  [sfc-mdt/pcax: enf baseline, total aggressive/huge;
                                   other backends: not-enf]
  --lsq LxS                       LSQ capacity, e.g. 120x80   [48x32; huge 256x256]
  --scale tiny|small|full|huge    instruction budget          [small]
  --untagged                      untagged MDT variant (§2.2)
  --endpoints                     flush-endpoint SFC variant (§3.2)
  --filter                        MDT search filter (§4 future work)
  --pcax SxW                      PCAX table geometry, e.g. 256x1   [1024x2]
  --pcax-act N                    PCAX no-alias acting threshold 1..=3  [2]
  --filt SxW                      filtered-LSQ filter geometry      [256x2]
  --filt-count N                  filter counter saturation point      [15]
  --far LATxMSHRSxBATCH           far-memory tier behind the L2, e.g. 400x64x8
  --sample WARMxDETAILxPERIODS    sampled simulation: warm up functionally, then
                                  simulate in detail, repeated, e.g. 20000x2000x10
  --trace N                       print the last N pipeline events
  --pipeview N                    draw stage timelines for the last N retirements
  --jobs N                        worker threads for compare sweeps [AIM_JOBS/auto]
  --paranoid                      run the release-build integrity checks every cycle

LITMUS OPTIONS:
  --test NAME                     one of SB, SB+fwd, MP, MP+fwd, LB, IRIW  [all]
  --backend TOKEN                 one backend                              [all]
  --schedules N                   seeded random core schedules per cell    [200]
  --paranoid                      as above

SERVE OPTIONS:
  --cache DIR                     result-cache directory     [.aim-serve-cache]
  --workers N                     simulation worker threads  [AIM_JOBS/auto]
  --scale tiny|small|full|huge    replay workload scale      [tiny]
  --rounds N                      replay rounds, cold + warm [2]
  --clients N                     replay client connections  [4]
  --verify                        append a replay verify round

SUBMIT OPTIONS:
  --machine, --backend, --mode, --lsq, --scale   as for `run` (scale defaults to tiny)
  --pcax, --pcax-act, --filt, --filt-count, --far, --sample   as for `run`
  --verify                        recompute and byte-compare the cached entry
  --no-cache                      bypass the cache lookup (always simulate)
";

/// Takes the value of `flag` from the argument stream.
fn value(it: &mut Iter<'_, String>, flag: &str) -> Result<String, ParseError> {
    it.next()
        .cloned()
        .ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

/// Takes and parses the value of `flag`, reporting `bad {what} `{v}``.
fn number<T: FromStr>(it: &mut Iter<'_, String>, flag: &str, what: &str) -> Result<T, ParseError> {
    let v = value(it, flag)?;
    v.parse()
        .map_err(|_| ParseError(format!("bad {what} `{v}`")))
}

/// Takes and parses the value of a token-valued `flag`.
fn token<T: FromStr<Err = String>>(it: &mut Iter<'_, String>, flag: &str) -> Result<T, ParseError> {
    value(it, flag)?
        .parse()
        .map_err(|e| ParseError(format!("{flag}: {e}")))
}

/// Applies `flag` if it names a [`ConfigSpec`] field (`--pcax-act` sets
/// `pcax_act`) or the scale — the one flag parser `run`, `compare`, `asm`
/// and `submit` share. Returns `Ok(false)` for any other flag.
fn config_flag(
    spec: &mut ConfigSpec,
    scale: &mut Scale,
    flag: &str,
    it: &mut Iter<'_, String>,
) -> Result<bool, ParseError> {
    if flag == "--scale" {
        *scale = token(it, flag)?;
        return Ok(true);
    }
    let key = flag
        .strip_prefix("--")
        .unwrap_or_default()
        .replace('-', "_");
    if !ConfigSpec::FIELDS.contains(&key.as_str()) {
        return Ok(false);
    }
    let v = value(it, flag)?;
    spec.set(&key, &v)
        .map_err(|e| ParseError(format!("{flag}: {e}")))?;
    Ok(true)
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns [`ParseError`] for unknown commands, kernels left unspecified,
/// or malformed option values.
pub fn parse_args(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter();
    let cmd = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some("list") => return Ok(Command::List),
        Some("litmus") => return parse_litmus(it),
        Some("serve") => return parse_serve(it),
        Some("submit") => return parse_submit(it),
        Some(c @ ("run" | "compare" | "asm")) => c.to_string(),
        Some(other) => return Err(ParseError(format!("unknown command `{other}`"))),
    };

    let mut run = RunArgs {
        kernel: it
            .next()
            .ok_or_else(|| ParseError("missing kernel name".to_string()))?
            .clone(),
        ..RunArgs::default()
    };

    while let Some(flag) = it.next() {
        if config_flag(&mut run.spec, &mut run.scale, flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--untagged" => run.untagged = true,
            "--endpoints" => run.endpoints = true,
            "--filter" => run.filter = true,
            "--pipeview" => run.pipeview = number(&mut it, flag, "pipeview length")?,
            "--trace" => run.trace = number(&mut it, flag, "trace length")?,
            "--jobs" => run.jobs = number(&mut it, flag, "job count")?,
            "--paranoid" => run.paranoid = true,
            other => return Err(ParseError(format!("unknown option `{other}`"))),
        }
    }

    Ok(match cmd.as_str() {
        "run" => Command::Run(run),
        "asm" => Command::Asm(run),
        _ => Command::Compare(run),
    })
}

/// Parses the options of the `litmus` command.
fn parse_litmus(mut it: Iter<'_, String>) -> Result<Command, ParseError> {
    let mut args = LitmusArgs::default();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--test" => args.test = Some(value(&mut it, flag)?),
            "--backend" => args.backend = Some(token(&mut it, flag)?),
            "--schedules" => args.schedules = number(&mut it, flag, "schedule count")?,
            "--paranoid" => args.paranoid = true,
            other => return Err(ParseError(format!("unknown option `{other}`"))),
        }
    }
    Ok(Command::Litmus(args))
}

/// Parses the options of the `serve` command.
fn parse_serve(mut it: Iter<'_, String>) -> Result<Command, ParseError> {
    let mut args = ServeArgs::default();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--socket" => args.socket = Some(value(&mut it, flag)?),
            "--stdio" => args.stdio = true,
            "--replay" => args.replay = true,
            "--cache" => args.cache = value(&mut it, flag)?,
            "--workers" => args.workers = number(&mut it, flag, "worker count")?,
            "--scale" => args.scale = token(&mut it, flag)?,
            "--rounds" => args.rounds = number(&mut it, flag, "round count")?,
            "--clients" => args.clients = number(&mut it, flag, "client count")?,
            "--verify" => args.verify = true,
            other => return Err(ParseError(format!("unknown option `{other}`"))),
        }
    }
    let modes = usize::from(args.socket.is_some()) + usize::from(args.stdio) + usize::from(args.replay);
    if modes != 1 {
        return Err(ParseError(
            "serve needs exactly one of --socket PATH, --stdio, or --replay".to_string(),
        ));
    }
    if args.replay && args.rounds < 2 {
        return Err(ParseError(format!(
            "--replay needs at least 2 rounds (one cold, one warm), got {}",
            args.rounds
        )));
    }
    Ok(Command::Serve(args))
}

/// Parses the options of the `submit` command.
fn parse_submit(mut it: Iter<'_, String>) -> Result<Command, ParseError> {
    let mut args = SubmitArgs::default();
    // The kernel is the first word unless the request is a pure-flag form
    // (`submit --shutdown --socket …`).
    if let Some(first) = it.clone().next() {
        if !first.starts_with("--") {
            args.kernel = first.clone();
            it.next();
        }
    }
    while let Some(flag) = it.next() {
        if config_flag(&mut args.spec, &mut args.scale, flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--socket" => args.socket = value(&mut it, flag)?,
            "--verify" => args.verify = true,
            "--no-cache" => args.no_cache = true,
            "--shutdown" => args.shutdown = true,
            other => return Err(ParseError(format!("unknown option `{other}`"))),
        }
    }
    if args.socket.is_empty() {
        return Err(ParseError("submit needs --socket PATH".to_string()));
    }
    if args.kernel.is_empty() && !args.shutdown {
        return Err(ParseError("submit needs a kernel name (or --shutdown)".to_string()));
    }
    Ok(Command::Submit(args))
}

/// Builds the [`SimConfig`] a [`RunArgs`] describes: the spec's config
/// (exactly what `submit` would request) plus the run-only design
/// variants and observability knobs.
pub fn build_config(args: &RunArgs) -> SimConfig {
    let mut cfg = args.spec.to_config();
    if let BackendConfig::SfcMdt { sfc, mdt } = &mut cfg.backend {
        if args.untagged {
            mdt.tagging = MdtTagging::Untagged;
        }
        if args.endpoints {
            sfc.corruption = CorruptionPolicy::FlushEndpoints { capacity: 16 };
        }
    }
    cfg.mdt_filter = args.filter;
    cfg.paranoid = args.paranoid;
    cfg
}

/// Formats a full statistics report for one run.
pub fn report(name: &str, backend: &str, stats: &SimStats) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!("== {name} under {backend} =="));
    line(format!(
        "  retired {:>9} instructions in {:>9} cycles   IPC {:.3}",
        stats.retired,
        stats.cycles,
        stats.ipc()
    ));
    if let Some(s) = &stats.sampled {
        line(format!(
            "  sampled: {} detailed windows  {} detail / {} warm retired  ({:.2}% detail); \
             cycles and rates are extrapolated",
            s.periods_run,
            s.detail_retired,
            s.warm_retired,
            s.detail_fraction()
        ));
    }
    line(format!(
        "  loads {:>7}  stores {:>7}  forwarded {:>6} ({:.2}% of loads)",
        stats.retired_loads,
        stats.retired_stores,
        stats.loads_forwarded,
        aim_types::percent(stats.loads_forwarded, stats.retired_loads)
    ));
    line(format!(
        "  branches {:>6}  mispredicted {:>5} ({:.2}%)",
        stats.branches_retired,
        stats.branch_mispredicts,
        aim_types::percent(stats.branch_mispredicts, stats.branches_retired)
    ));
    line(format!(
        "  flushes: branch {:>5}  true {:>4}  anti {:>4}  output {:>4}",
        stats.flushes.branch,
        stats.flushes.true_dep,
        stats.flushes.anti_dep,
        stats.flushes.output_dep
    ));
    if let Some(sfc) = stats.backend.sfc() {
        line(format!(
            "  SFC: conflicts {:>5}  corrupt replays {:>5}  partial/full flushes {}/{}",
            stats.replays.store_sfc_conflicts,
            stats.replays.load_corrupt,
            sfc.partial_flushes,
            sfc.full_flushes
        ));
    }
    if stats.backend.mdt().is_some() {
        line(format!(
            "  MDT: load conflicts {:>5}  store conflicts {:>5}  head bypasses {:>4}",
            stats.replays.load_mdt_conflicts,
            stats.replays.store_mdt_conflicts,
            stats.head_bypasses
        ));
        if stats.mdt_filtered_loads > 0 {
            line(format!(
                "  MDT search filter: {:>6} load checks skipped",
                stats.mdt_filtered_loads
            ));
        }
    }
    if let Some(lsq) = stats
        .backend
        .lsq()
        .or(stats.backend.filtered().map(|f| &f.lsq))
    {
        line(format!(
            "  LSQ: SQ searches {:>7}  LQ searches {:>7}  peak {}x{}  dispatch stalls {}",
            lsq.sq_searches,
            lsq.lq_searches,
            lsq.peak_lq,
            lsq.peak_sq,
            stats.dispatch_stalls.lq_full + stats.dispatch_stalls.sq_full
        ));
    }
    if let Some(f) = stats.backend.filtered() {
        line(format!(
            "  filter: {:>7} loads skipped the CAM ({:.2}%)  false hits {:>5}  saturations {:>4}",
            f.filter.filtered_loads,
            aim_types::percent(
                f.filter.filtered_loads,
                f.filter.filtered_loads + f.filter.searched_loads
            ),
            f.filter.false_positive_hits,
            f.filter.saturation_fallbacks
        ));
    }
    if let Some(p) = stats.backend.pcax() {
        let pr = &p.pred;
        line(format!(
            "  pcax: no-alias {:>7}  forward {:>6}  unknown {:>7}  coverage {:.2}%  accuracy {:.2}%",
            pr.loads_no_alias,
            pr.loads_forward,
            pr.loads_unknown,
            100.0 * pr.coverage(),
            100.0 * pr.accuracy()
        ));
        line(format!(
            "  pcax: SFC probes skipped {:>7}  vetoes {:>5}  wait replays {:>6}  trainings {:>5}",
            pr.sfc_probes_skipped, pr.no_alias_vetoed, pr.forward_wait_replays, pr.violation_trainings
        ));
    }
    if let Some(o) = stats.backend.oracle() {
        line(format!(
            "  oracle: full forwards {:>7}  partial {:>5}  order waits {:>7}",
            o.full_forwards, o.partial_forwards, o.order_waits
        ));
    }
    if let Some(n) = stats.backend.nospec() {
        line(format!(
            "  no-spec: order waits {:>7}  peak in-flight stores {}",
            n.order_waits, n.peak_inflight_stores
        ));
    }
    let (l1i, l1d, l2) = stats.caches;
    line(format!(
        "  caches: L1I {:.1}%  L1D {:.1}%  L2 {:.1}% hit",
        l1i.hit_rate(),
        l1d.hit_rate(),
        l2.hit_rate()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_core::SetsWays;
    use aim_lsq::LsqConfig;
    use aim_pipeline::{FarSpec, FilterConfig, MachineClass, PcaxConfig, SampleSpec};
    use aim_predictor::EnforceMode;

    fn parse(words: &[&str]) -> Result<Command, ParseError> {
        let v: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        parse_args(&v)
    }

    /// The options of the `run`, `compare` or `asm` command `words`.
    fn run_args(words: &[&str]) -> RunArgs {
        match (words[0], parse(words).unwrap()) {
            ("run", Command::Run(args))
            | ("compare", Command::Compare(args))
            | ("asm", Command::Asm(args)) => args,
            (cmd, other) => panic!("`{cmd}` parsed as {other:?}"),
        }
    }

    /// The options of the `submit` command `words`.
    fn submit_args(words: &[&str]) -> SubmitArgs {
        match parse(words).unwrap() {
            Command::Submit(args) => args,
            other => panic!("expected submit, got {other:?}"),
        }
    }

    /// The parse error `words` must produce.
    fn err(words: &[&str]) -> String {
        parse(words).unwrap_err().0
    }

    #[test]
    fn help_and_list() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["list"]).unwrap(), Command::List);
    }

    #[test]
    fn run_defaults() {
        let args = run_args(&["run", "gzip"]);
        assert_eq!(args.kernel, "gzip");
        assert_eq!(args.spec.machine, MachineClass::Baseline);
        assert_eq!(args.spec.backend, BackendChoice::SfcMdt);
        // No override: the builder's class default (enf on the baseline).
        assert_eq!(args.spec.mode, None);
        assert_eq!(build_config(&args).dep_predictor.mode, EnforceMode::All);
    }

    #[test]
    fn full_option_set() {
        let args = run_args(&[
            "compare", "swim", "--machine", "aggressive", "--backend", "lsq", "--mode", "total",
            "--lsq", "120x80", "--scale", "full", "--untagged", "--endpoints",
        ]);
        assert_eq!(args.spec.machine, MachineClass::Aggressive);
        assert_eq!(args.spec.backend, BackendChoice::Lsq);
        assert_eq!(args.spec.mode, Some(EnforceMode::TotalOrder));
        assert_eq!(args.spec.lsq, Some(LsqConfig::aggressive_120x80()));
        assert_eq!(args.scale, Scale::Full);
        assert!(args.untagged && args.endpoints);
    }

    #[test]
    fn huge_machine_and_far_tier_parse() {
        let args = run_args(&["run", "swim", "--machine", "huge", "--far", "400x64x8"]);
        assert_eq!(args.spec.machine, MachineClass::Huge);
        assert_eq!(args.spec.far, Some(FarSpec::new(400, 64, 8)));
        let cfg = build_config(&args);
        assert_eq!(cfg.rob_entries, 4096);
        assert_eq!(cfg.mem.far, Some(FarSpec::new(400, 64, 8)));
        assert!(err(&["run", "x", "--machine", "colossal"]).contains("baseline|aggressive|huge"));
        assert!(err(&["run", "x", "--far", "400x64"]).contains("LATENCYxMSHRSxBATCH"));
        assert!(err(&["run", "x", "--far", "400x0x8"]).contains("nonzero"));
    }

    #[test]
    fn sample_policy_parses_and_builds() {
        let args = run_args(&["run", "swim", "--scale", "huge", "--sample", "20000x2000x10"]);
        assert_eq!(args.scale, Scale::Huge);
        assert_eq!(args.spec.sample, SampleSpec::new(20_000, 2_000, 10));
        let cfg = build_config(&args);
        assert_eq!(cfg.sample, SampleSpec::new(20_000, 2_000, 10));
        // Default stays off: byte-identical full-detail configuration.
        assert_eq!(build_config(&RunArgs::default()).sample, None);
        assert!(err(&["run", "x", "--sample", "20000x2000"]).contains("WARMxDETAILxPERIODS"));
        assert!(err(&["run", "x", "--sample", "20000x0x10"]).contains("nonzero"));

        let args =
            submit_args(&["submit", "swim", "--socket", "/tmp/s.sock", "--sample", "4000x1000x8"]);
        assert_eq!(args.spec.sample, SampleSpec::new(4_000, 1_000, 8));
    }

    #[test]
    fn asm_command_parses() {
        let args = run_args(&["asm", "prog.s", "--trace", "16"]);
        assert_eq!(args.kernel, "prog.s");
        assert_eq!(args.trace, 16);
        assert!(err(&["asm"]).contains("missing kernel"));
        let args = run_args(&["run", "gzip", "--pipeview", "24"]);
        assert_eq!(args.pipeview, 24);
        assert!(err(&["run", "x", "--pipeview", "many"]).contains("bad pipeview length"));
        assert!(err(&["run", "x", "--trace", "lots"]).contains("bad trace length"));
    }

    #[test]
    fn jobs_flag_parses() {
        let args = run_args(&["compare", "mcf", "--jobs", "4"]);
        assert_eq!(args.jobs, 4);
        assert_eq!(RunArgs::default().jobs, 0);
        assert!(err(&["compare", "mcf", "--jobs", "many"]).contains("bad job count"));
    }

    #[test]
    fn litmus_command_parses() {
        assert_eq!(parse(&["litmus"]), Ok(Command::Litmus(LitmusArgs::default())));
        let words =
            ["litmus", "--test", "SB+fwd", "--backend", "lsq", "--schedules", "32", "--paranoid"];
        let Ok(Command::Litmus(args)) = parse(&words) else {
            panic!("expected litmus");
        };
        assert_eq!(args.test.as_deref(), Some("SB+fwd"));
        assert_eq!(args.backend, Some(BackendChoice::Lsq));
        assert_eq!(args.schedules, 32);
        assert!(args.paranoid);
        assert!(err(&["litmus", "--schedules", "lots"]).contains("bad schedule count"));
        assert!(err(&["litmus", "--backend", "psychic"]).contains("unknown backend"));
        assert!(err(&["litmus", "--bogus"]).contains("unknown option"));
    }

    #[test]
    fn serve_command_parses() {
        let Command::Serve(args) = parse(&[
            "serve", "--replay", "--scale", "tiny", "--rounds", "3", "--clients", "2",
            "--cache", "/tmp/c", "--workers", "8", "--verify",
        ])
        .unwrap() else {
            panic!("expected serve");
        };
        assert!(args.replay && !args.stdio && args.socket.is_none());
        assert_eq!((args.rounds, args.clients, args.workers), (3, 2, 8));
        assert_eq!(args.cache, "/tmp/c");
        assert_eq!(args.scale, Scale::Tiny);
        assert!(args.verify);

        let Ok(Command::Serve(args)) = parse(&["serve", "--socket", "/tmp/s.sock"]) else {
            panic!("expected serve");
        };
        assert_eq!(args.socket.as_deref(), Some("/tmp/s.sock"));

        // Exactly one mode; replay needs a warm round.
        assert!(err(&["serve"]).contains("exactly one"));
        assert!(err(&["serve", "--stdio", "--replay"]).contains("exactly one"));
        assert!(err(&["serve", "--replay", "--rounds", "1"]).contains("at least 2 rounds"));
        assert!(err(&["serve", "--replay", "--workers", "many"]).contains("bad worker count"));
    }

    #[test]
    fn submit_command_parses() {
        let args = submit_args(&[
            "submit", "gzip", "--socket", "/tmp/s.sock", "--machine", "aggressive", "--backend",
            "lsq", "--lsq", "120x80", "--scale", "tiny", "--verify",
        ]);
        assert_eq!(args.kernel, "gzip");
        assert!(args.verify && !args.no_cache);
        assert_eq!(args.spec.machine, MachineClass::Aggressive);
        assert_eq!(args.spec.backend, BackendChoice::Lsq);
        assert_eq!(args.spec.lsq, Some(LsqConfig::aggressive_120x80()));

        let args = submit_args(&[
            "submit", "swim", "--socket", "/tmp/s.sock", "--machine", "huge", "--backend", "pcax",
            "--pcax", "256x1", "--pcax-act", "3", "--filt", "512x4", "--filt-count", "31", "--far",
            "400x64x8",
        ]);
        let spec = args.spec;
        assert_eq!(spec.machine, MachineClass::Huge);
        assert_eq!(spec.pcax, Some(SetsWays { sets: 256, ways: 1 }));
        assert_eq!(spec.pcax_act, Some(3));
        assert_eq!(spec.filt, Some(SetsWays { sets: 512, ways: 4 }));
        assert_eq!(spec.filt_count, Some(31));
        assert_eq!(spec.far, Some(FarSpec::new(400, 64, 8)));

        let args = submit_args(&["submit", "--shutdown", "--socket", "/tmp/s.sock"]);
        assert!(args.shutdown && args.kernel.is_empty());

        assert!(err(&["submit", "gzip"]).contains("--socket"));
        assert!(err(&["submit", "--socket", "/tmp/s.sock"]).contains("kernel"));
        assert!(err(&["submit", "gzip", "--socket", "/tmp/s", "--lsq", "9"]).contains("LxS"));
    }

    #[test]
    fn paranoid_flag_reaches_the_config() {
        let args = run_args(&["run", "gzip", "--paranoid"]);
        assert!(args.paranoid);
        assert!(build_config(&args).paranoid);
        assert!(!build_config(&RunArgs::default()).paranoid);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(err(&["frobnicate"]).contains("unknown command"));
        assert!(err(&["run"]).contains("missing kernel"));
        assert!(err(&["run", "x", "--lsq", "banana"]).contains("LxS"));
        assert!(err(&["run", "x", "--mode"]).contains("needs a value"));
        assert!(err(&["run", "x", "--bogus"]).contains("unknown option"));
        // A backend token error lists the vocabulary, on every command.
        for err in [err(&["run", "x", "--backend", "cam"]), err(&["litmus", "--backend", "cam"])] {
            assert!(err.starts_with("--backend: unknown backend `cam` (nospec|lsq|"), "{err}");
        }
        // Values a constructor would panic on, or that deadlock the
        // pipeline, fail at parse time with one line naming the flag.
        for (flag, v, why) in [
            ("--pcax-act", "0", "1..=3"),
            ("--filt-count", "0", "at least 1"),
            ("--pcax", "3x1", "power of two"),
            ("--lsq", "0x0", "nonzero"),
        ] {
            let err = err(&["run", "x", flag, v]);
            assert!(err.starts_with(flag) && err.contains(why), "{flag} {v}: {err}");
            assert!(!err.contains('\n'), "error must be one line: {err:?}");
        }
    }

    /// `run` and `submit` parse the same configuration flags into equal
    /// specs, and `run` simulates exactly the config `submit` requests
    /// (the run-only variant flags aside).
    #[test]
    fn run_and_submit_agree_on_every_config_flag() {
        let cases: &[&[&str]] = &[
            &[],
            &["--machine", "aggressive"],
            &["--machine", "huge", "--backend", "lsq"],
            &["--machine", "huge", "--backend", "filtered", "--filt", "16x1"],
            &["--machine", "aggressive", "--backend", "pcax", "--pcax-act", "1"],
            &["--backend", "lsq", "--lsq", "120x80", "--mode", "total"],
            &["--machine", "aggressive", "--mode", "not-enf", "--scale", "tiny"],
            &["--backend", "pcax", "--pcax", "256x1", "--far", "400x64x8"],
            &["--backend", "filtered", "--filt-count", "3", "--sample", "4000x1000x8"],
            &["--backend", "oracle", "--machine", "huge", "--far", "800x64x8"],
        ];
        for flags in cases {
            let words = |cmd: &[&str]| -> Vec<String> {
                cmd.iter().chain(flags.iter()).map(|s| s.to_string()).collect()
            };
            let Ok(Command::Run(run)) = parse_args(&words(&["run", "gzip"])) else {
                panic!("run rejected {flags:?}");
            };
            let Ok(Command::Submit(submit)) =
                parse_args(&words(&["submit", "gzip", "--socket", "/tmp/s.sock"]))
            else {
                panic!("submit rejected {flags:?}");
            };
            assert_eq!(run.spec, submit.spec, "{flags:?}");
            assert_eq!(
                aim_bench::canonical_config_text(&build_config(&run)),
                aim_bench::canonical_config_text(&submit.spec.to_config()),
                "{flags:?}"
            );
        }
    }

    #[test]
    fn build_config_respects_variants() {
        let mut args = RunArgs {
            kernel: "gzip".into(),
            untagged: true,
            endpoints: true,
            filter: true,
            ..RunArgs::default()
        };
        let cfg = build_config(&args);
        match cfg.backend {
            BackendConfig::SfcMdt { sfc, mdt } => {
                assert_eq!(mdt.tagging, MdtTagging::Untagged);
                assert!(matches!(
                    sfc.corruption,
                    CorruptionPolicy::FlushEndpoints { capacity: 16 }
                ));
                assert!(cfg.mdt_filter);
            }
            _ => panic!("expected SFC/MDT backend"),
        }
        args.spec.backend = BackendChoice::Lsq;
        let lsq = LsqConfig {
            load_entries: 7,
            store_entries: 9,
        };
        args.spec.lsq = Some(lsq);
        assert_eq!(build_config(&args).backend, BackendConfig::Lsq(lsq));
    }

    #[test]
    fn filtered_backend_parses_and_builds() {
        let args = run_args(&["run", "gzip", "--backend", "filtered", "--lsq", "24x16"]);
        assert_eq!(args.spec.backend, BackendChoice::Filtered);
        let mut aggr = args.clone();
        aggr.spec.machine = MachineClass::Aggressive;
        for args in [args, aggr] {
            assert!(matches!(
                build_config(&args).backend,
                BackendConfig::FilteredLsq { lsq, .. } if lsq.to_string() == "24x16"
            ));
        }
        assert_eq!(BackendChoice::ALL.len(), 6);
    }

    #[test]
    fn pcax_backend_parses_and_builds() {
        let args = run_args(&["run", "gzip", "--backend", "pcax"]);
        assert_eq!(args.spec.backend, BackendChoice::Pcax);
        assert!(matches!(
            build_config(&args).backend,
            BackendConfig::Pcax { pcax, .. } if pcax.table.sets == 1024
        ));
        let mut aggr = args;
        aggr.spec.machine = MachineClass::Aggressive;
        assert!(matches!(
            build_config(&aggr).backend,
            BackendConfig::Pcax { mdt, .. } if mdt.sets == 8192
        ));
    }

    #[test]
    fn pcax_geometry_knobs_parse_and_build() {
        let args =
            run_args(&["run", "gzip", "--backend", "pcax", "--pcax", "64x1", "--pcax-act", "3"]);
        assert_eq!(args.spec.pcax, Some(SetsWays { sets: 64, ways: 1 }));
        assert_eq!(args.spec.pcax_act, Some(3));
        let BackendConfig::Pcax { pcax, .. } = build_config(&args).backend else {
            panic!("expected PCAX backend");
        };
        assert_eq!(pcax.table.shape(), SetsWays { sets: 64, ways: 1 });
        assert_eq!(pcax.no_alias_act, 3);
        assert_eq!(pcax.forward_act, PcaxConfig::baseline().forward_act);
        // One knob alone keeps the other at baseline.
        let solo = run_args(&["run", "gzip", "--backend", "pcax", "--pcax-act", "1"]);
        assert!(matches!(
            build_config(&solo).backend,
            BackendConfig::Pcax { pcax, .. }
                if pcax.table == PcaxConfig::baseline().table && pcax.no_alias_act == 1
        ));
        assert!(err(&["run", "x", "--pcax", "64"]).contains("SETSxWAYS"));
        assert!(err(&["run", "x", "--pcax-act", "often"]).contains("bad pcax threshold"));
    }

    #[test]
    fn filter_geometry_knobs_parse_and_build() {
        let args = run_args(&[
            "run", "gzip", "--backend", "filtered", "--filt", "16x1", "--filt-count", "3",
        ]);
        assert_eq!(args.spec.filt, Some(SetsWays { sets: 16, ways: 1 }));
        assert_eq!(args.spec.filt_count, Some(3));
        assert!(matches!(
            build_config(&args).backend,
            BackendConfig::FilteredLsq { filter, .. }
                if (filter.sets, filter.ways, filter.max_count) == (16, 1, 3)
        ));
        // Without the knobs the builder default stays the baseline filter.
        let plain = run_args(&["run", "gzip", "--backend", "filtered"]);
        assert!(matches!(
            build_config(&plain).backend,
            BackendConfig::FilteredLsq { filter, .. } if filter == FilterConfig::baseline()
        ));
        assert!(err(&["run", "x", "--filt-count", "lots"]).contains("bad filter count"));
    }

    #[test]
    fn bounds_backends_parse_and_build() {
        for (word, choice, expect) in [
            ("oracle", BackendChoice::Oracle, BackendConfig::Oracle),
            ("nospec", BackendChoice::NoSpec, BackendConfig::NoSpec),
        ] {
            let args = run_args(&["run", "gzip", "--backend", word]);
            assert_eq!(args.spec.backend, choice);
            assert_eq!(build_config(&args).backend, expect);
            let mut aggr = args.clone();
            aggr.spec.machine = MachineClass::Aggressive;
            assert_eq!(build_config(&aggr).backend, expect);
        }
        assert!(err(&["run", "x", "--backend", "psychic"]).contains("unknown backend"));
    }

    #[test]
    fn report_mentions_key_sections() {
        let stats = SimStats {
            retired: 100,
            cycles: 50,
            ..SimStats::default()
        };
        let text = report("gzip", "sfc-mdt", &stats);
        assert!(text.contains("IPC 2.000"));
        assert!(text.contains("flushes:"));
        assert!(text.contains("caches:"));
    }
}
