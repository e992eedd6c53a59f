//! The cold/warm replay driver behind the `aim-sim serve --replay` gate.
//!
//! Replays the committed `table_hostperf` request matrix — every kernel
//! in the registry × every backend on both machine classes — through a
//! fresh in-process server several times over real framed connections
//! (the in-memory [`duplex`] transport, byte-compatible with the socket
//! path). Round 0 runs against an empty cache and must simulate every
//! cell; each warm round must be answered **entirely** from the cache,
//! running zero simulations, and must return byte-identical statistics
//! texts cell for cell. An optional trailing verify round recomputes
//! every cell and requires every byte-comparison to report `match`.
//!
//! The driver returns a [`ServeReport`] (`aim-serve-report/v1`) plus the
//! consistency verdict; the CLI prints the `serve: cache-consistent`
//! acceptance line `scripts/tier1.sh` greps. [`serve_matrix`] is the same
//! cold round and warm check for any matrix, returning typed statistics:
//! the `table_far_mem` and `table_sampled` sweeps run on it.
//!
//! [`duplex`]: aim_types::wire::duplex

use crate::proto::{ConfigSpec, JobResponse, JobSpec, VerifyOutcome};
use crate::server::{serve_connection, Server};
use crate::sock::request_over;
use aim_bench::{fingerprint_texts, Matrix, ServeReport, ServeRound};
use aim_pipeline::{BackendChoice, LsqConfig, MachineClass};
use aim_predictor::EnforceMode;
use aim_types::wire::duplex;
use aim_workloads::Scale;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The 12 `table_hostperf` configurations as job specs, name for name
/// (`crates/serve/tests/cache.rs` pins the correspondence against
/// [`aim_bench::specs::table_hostperf`]).
pub fn hostperf_configs() -> Vec<(String, ConfigSpec)> {
    let spec = |machine, backend, mode, lsq| ConfigSpec {
        mode,
        lsq,
        ..ConfigSpec::new(machine, backend)
    };
    let b = MachineClass::Baseline;
    let a = MachineClass::Aggressive;
    vec![
        ("base-nospec".into(), spec(b, BackendChoice::NoSpec, None, None)),
        ("base-lsq-48x32".into(), spec(b, BackendChoice::Lsq, None, None)),
        ("base-sfc-mdt-enf".into(), spec(b, BackendChoice::SfcMdt, Some(EnforceMode::All), None)),
        ("base-filtered-lsq".into(), spec(b, BackendChoice::Filtered, None, None)),
        ("base-pcax".into(), spec(b, BackendChoice::Pcax, None, None)),
        ("base-oracle".into(), spec(b, BackendChoice::Oracle, None, None)),
        ("aggr-nospec".into(), spec(a, BackendChoice::NoSpec, None, None)),
        (
            "aggr-lsq-120x80".into(),
            spec(a, BackendChoice::Lsq, None, Some(LsqConfig::aggressive_120x80())),
        ),
        (
            "aggr-sfc-mdt-enf".into(),
            spec(a, BackendChoice::SfcMdt, Some(EnforceMode::TotalOrder), None),
        ),
        ("aggr-filtered-lsq".into(), spec(a, BackendChoice::Filtered, None, None)),
        ("aggr-pcax".into(), spec(a, BackendChoice::Pcax, None, None)),
        ("aggr-oracle".into(), spec(a, BackendChoice::Oracle, None, None)),
    ]
}

/// Parameters of one replay run.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Workload scale.
    pub scale: Scale,
    /// Simulation worker threads.
    pub workers: usize,
    /// Concurrent client connections per round.
    pub clients: usize,
    /// Total rounds (round 0 cold, the rest warm). Must be at least 2 for
    /// the warm checks to mean anything.
    pub rounds: usize,
    /// Append a verify round recomputing every cell.
    pub verify: bool,
    /// Cache directory (reused across rounds; start it empty for a true
    /// cold round).
    pub cache_dir: PathBuf,
}

/// What a replay run concluded.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The accounting report (`aim-serve-report/v1`).
    pub report: ServeReport,
    /// Whether every consistency check passed: warm rounds byte-identical
    /// to cold with zero simulations, and (if requested) every verify
    /// comparison a `match`.
    pub consistent: bool,
    /// The matrix statistics fingerprint (identical across rounds when
    /// consistent).
    pub fingerprint: u64,
    /// Human-readable findings, one line per failed check (empty when
    /// consistent).
    pub findings: Vec<String>,
}

/// Runs one round of `cells` through `clients` framed in-memory
/// connections against a shared local server; returns the responses in
/// cell order. This is the transport every cache-routed driver shares:
/// the replay gate's rounds and [`serve_matrix`]'s sweeps all submit
/// their matrices through it, so a cell one binary simulated is a warm
/// hit for the next.
///
/// # Errors
///
/// Returns a one-line message for protocol or transport failures.
pub fn run_cells(
    server: &Arc<Server>,
    cells: &[JobSpec],
    clients: usize,
    verify: bool,
) -> Result<Vec<JobResponse>, String> {
    let clients = clients.clamp(1, cells.len().max(1));
    let mut client_threads = Vec::new();
    let mut server_threads = Vec::new();
    for c in 0..clients {
        let (mut client_end, server_end) = duplex();
        let shard: Vec<(usize, JobSpec)> = cells
            .iter()
            .enumerate()
            .filter(|(i, _)| i % clients == c)
            .map(|(i, s)| (i, s.clone()))
            .collect();
        {
            let server = Arc::clone(server);
            server_threads.push(std::thread::spawn(move || {
                let _ = serve_connection(&server, server_end);
            }));
        }
        client_threads.push(std::thread::spawn(move || {
            let mut out = Vec::with_capacity(shard.len());
            for (i, spec) in shard {
                let reply = request_over(&mut client_end, &spec.to_wire(verify, false))
                    .map_err(|e| format!("cell {i}: {e}"))?;
                out.push((i, JobResponse::from_wire(&reply).map_err(|e| format!("cell {i}: {e}"))?));
            }
            Ok::<_, String>(out)
        }));
    }
    let mut indexed = Vec::with_capacity(cells.len());
    for thread in client_threads {
        indexed.extend(thread.join().expect("client thread")?);
    }
    for thread in server_threads {
        thread.join().expect("server thread");
    }
    indexed.sort_by_key(|(i, _)| *i);
    Ok(indexed.into_iter().map(|(_, r)| r).collect())
}

/// Runs one round of `cells` (see [`run_cells`]) and accounts it.
fn round(
    server: &Arc<Server>,
    cells: &[JobSpec],
    clients: usize,
    verify: bool,
    label: String,
) -> Result<(Vec<JobResponse>, ServeRound), String> {
    let before = server.counters();
    let t0 = Instant::now();
    let responses = run_cells(server, cells, clients, verify)?;
    let after = server.counters();
    let round = ServeRound {
        label,
        cells: cells.len() as u64,
        wall_seconds: t0.elapsed().as_secs_f64(),
        sims_run: after.sims_run - before.sims_run,
        cache_hits: after.cache_hits - before.cache_hits,
    };
    Ok((responses, round))
}

/// What is wrong with a warm round: every cell must be a cache hit,
/// byte-identical to the cold round, with no simulation run.
fn warm_findings(round: &ServeRound, warm: &[JobResponse], cold: &[JobResponse]) -> Vec<String> {
    let label = &round.label;
    let diverging = warm.iter().zip(cold).filter(|(w, c)| w.stats_text != c.stats_text).count();
    let mut findings = Vec::new();
    if round.sims_run != 0 {
        findings.push(format!("{label}: {} simulations ran on a warm cache", round.sims_run));
    }
    if round.cache_hits != round.cells {
        findings.push(format!("{label}: {} cache hits for {} requests", round.cache_hits, round.cells));
    }
    if diverging != 0 {
        findings.push(format!("{label}: {diverging} cells differ byte-wise from the cold round"));
    }
    findings
}

/// A matrix served twice through a shared local server: the statistics,
/// typed, plus what each round cost.
#[derive(Debug, Clone)]
pub struct ServedMatrix {
    /// The first round's statistics, workload-major.
    pub stats: Matrix,
    /// The server's simulation workers.
    pub workers: usize,
    /// The cache directory the server used.
    pub cache_dir: PathBuf,
    /// The first round (cells cached by an earlier run against the same
    /// directory are already warm).
    pub cold: ServeRound,
    /// The replay: all hits, no simulation.
    pub warm: ServeRound,
}

impl ServedMatrix {
    /// One line saying where the matrix is cached and what each round
    /// cost.
    pub fn summary(&self) -> String {
        format!(
            "serve: matrix cached under {} — first round {} simulations, replay {}/{} cells \
             warm ({} simulations)",
            self.cache_dir.display(),
            self.cold.sims_run,
            self.warm.cache_hits,
            self.warm.cells,
            self.warm.sims_run
        )
    }
}

/// Serves `cells` (workload-major, `n_configs` per workload) through a
/// local server over `$AIM_SERVE_CACHE` — or, when that is unset, a fresh
/// directory named after `tag` under the system temp dir — with `jobs`
/// workers and clients, then replays them.
///
/// # Errors
///
/// Returns a one-line message for a server, protocol or simulation
/// failure, or when the replay is not a byte-identical all-hit round.
pub fn serve_matrix(
    tag: &str,
    cells: &[JobSpec],
    n_configs: usize,
    jobs: usize,
) -> Result<ServedMatrix, String> {
    let cache_dir = std::env::var("AIM_SERVE_CACHE").map(PathBuf::from).unwrap_or_else(|_| {
        std::env::temp_dir().join(format!("aim_{tag}_cache_{}", std::process::id()))
    });
    let server =
        Arc::new(Server::new(&cache_dir, jobs).map_err(|e| format!("serve cache dir: {e}"))?);
    let (cold_responses, cold) = round(&server, cells, jobs, false, "cold".to_string())?;
    let (warm_responses, warm) = round(&server, cells, jobs, false, "warm".to_string())?;
    let findings = warm_findings(&warm, &warm_responses, &cold_responses);
    if !findings.is_empty() {
        return Err(findings.join("; "));
    }
    let stats = cold_responses.iter().map(JobResponse::stats).collect::<Result<_, _>>()?;
    let stats = Matrix::from_cells(n_configs, stats);
    Ok(ServedMatrix { stats, workers: server.workers(), cache_dir, cold, warm })
}

/// Replays the hostperf matrix per [`ReplayOptions`].
///
/// # Errors
///
/// Returns a one-line message for server construction or protocol
/// failures (an inconsistent-but-functioning cache is reported through
/// [`ReplayOutcome::consistent`], not as an error).
pub fn run_replay(opts: &ReplayOptions) -> Result<ReplayOutcome, String> {
    let server = Arc::new(
        Server::new(&opts.cache_dir, opts.workers).map_err(|e| format!("cache dir: {e}"))?,
    );
    let cells: Vec<JobSpec> = aim_workloads::names()
        .iter()
        .flat_map(|kernel| {
            hostperf_configs().into_iter().map(|(_, cfg)| cfg.job(kernel, opts.scale))
        })
        .collect();

    let mut findings = Vec::new();
    let (cold, cold_round) = round(&server, &cells, opts.clients, false, "cold".to_string())?;
    if cold_round.sims_run != cold_round.cells {
        findings.push(format!(
            "cold round ran {} simulations for {} unique cells",
            cold_round.sims_run,
            cells.len()
        ));
    }
    let cold_wall = cold_round.wall_seconds;
    let mut slowest_warm = 0.0f64;
    let mut rounds = vec![cold_round];
    for r in 1..opts.rounds {
        let (warm, warm_round) = round(&server, &cells, opts.clients, false, format!("warm{r}"))?;
        findings.extend(warm_findings(&warm_round, &warm, &cold));
        slowest_warm = slowest_warm.max(warm_round.wall_seconds);
        rounds.push(warm_round);
    }

    if opts.verify {
        let (responses, verify_round) =
            round(&server, &cells, opts.clients, true, "verify".to_string())?;
        let mismatched = responses
            .iter()
            .filter(|r| r.verify != Some(VerifyOutcome::Match))
            .count();
        if mismatched != 0 {
            findings.push(format!("verify: {mismatched} cells did not re-simulate to a byte-identical entry"));
        }
        rounds.push(verify_round);
    }

    let fingerprint = fingerprint_texts(cold.iter().map(|r| r.stats_text.as_str()));
    let report = ServeReport {
        scale: opts.scale,
        workers: server.workers(),
        clients: opts.clients,
        counters: server.counters(),
        worker_utilization: server.worker_utilization(),
        warm_speedup: if slowest_warm > 0.0 { cold_wall / slowest_warm } else { 0.0 },
        rounds,
    };
    Ok(ReplayOutcome { consistent: findings.is_empty(), report, fingerprint, findings })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostperf_configs_mirror_the_bench_spec_name_for_name() {
        let bench = aim_bench::specs::table_hostperf();
        let ours = hostperf_configs();
        assert_eq!(ours.len(), bench.configs.len());
        for ((name, spec), (bench_name, bench_cfg)) in ours.iter().zip(&bench.configs) {
            assert_eq!(name, bench_name);
            assert_eq!(
                format!("{:?}", spec.to_config()),
                format!("{bench_cfg:?}"),
                "config `{name}` diverges from the bench spec"
            );
        }
    }
}
