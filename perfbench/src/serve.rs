//! `serve`: the 240 `table_hostperf` cells at `Scale::Tiny`, sent by a
//! closed loop of two client connections over the in-memory framed
//! transport to a fresh [`Server`] with at most two workers and an empty
//! cache directory.
//!
//! Each set-up opens a server and sends a cold round: every request is a
//! miss, so the server simulates the cell and stores the result (the write
//! path). The timed warm rounds then replay the cells and every request is
//! a hit (the read path): key derivation, cache I/O and framing are the
//! whole cost.
//!
//! The server side of each connection is the benchmark's own loop around
//! [`Server::handle`] (what [`aim_serve::serve_connection`] does), so a
//! traced round can record spans around the server's public calls. A
//! traced request also calls [`Server::key_of`] and
//! [`DiskCache::load`](aim_serve::DiskCache::load) itself, and stores
//! each simulated answer into a scratch cache, to time those layers.

use crate::checks::{cold_failures, warm_failures, Answer};
use crate::common::{shuffled, Outcome, Round, Run};
use crate::spans::{in_span, Recorder, SpanId};
use crate::summary::summarize;
use aim_pipeline::simulate_with_trace;
use aim_serve::{
    hostperf_configs, request_over, CacheEntry, DiskCache, JobResponse, JobSpec, Server,
};
use aim_types::wire::{duplex, read_frame, write_frame, PipeEnd, WireMsg};
use aim_workloads::Scale;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Client connections of the closed loop.
pub const CLIENTS: usize = 2;

/// Set-ups (each a fresh server and a cache filled by a cold round) per
/// run; the timed warm rounds are spread evenly over them.
const WARM_SETUPS: usize = 3;

/// Where servers keep their cache directories, under the working
/// directory; removed as each server closes.
pub const SCRATCH_DIR: &str = ".perfbench";

/// Simulation workers: at most two, and no more than the host's cores.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The 240 cells, kernel-major in hostperf configuration order.
fn cells() -> Vec<JobSpec> {
    let configs = hostperf_configs();
    aim_workloads::names()
        .iter()
        .flat_map(|k| configs.iter().map(move |(_, cfg)| cfg.job(k, Scale::Tiny)))
        .collect()
}

/// The expected answer of every cell, from in-process runs (untimed; the
/// cost is printed).
fn reference(cells: &[JobSpec]) -> Vec<Result<CacheEntry, String>> {
    let t0 = Instant::now();
    let mut prepared: HashMap<&str, aim_bench::Prepared> = HashMap::new();
    let reference = cells
        .iter()
        .map(|spec| {
            let p = prepared.entry(&spec.kernel).or_insert_with(|| {
                let w = aim_workloads::by_name(&spec.kernel, spec.scale)
                    .expect("kernel names come from the registry");
                aim_bench::prepare(w, spec.scale)
            });
            simulate_with_trace(&p.program, &p.trace, &spec.config.to_config())
                .map(|s| CacheEntry::from_stats(&s))
                .map_err(|e| format!("{} in process: {e}", spec.kernel))
        })
        .collect();
    println!(
        "reference: {} cells run in process in {:.3} s (untimed)",
        cells.len(),
        t0.elapsed().as_secs_f64()
    );
    reference
}

/// A fresh server over an empty cache directory, plus the caches a traced
/// request probes. The directories are removed when it is dropped.
struct Session {
    server: Server,
    /// The server's own cache directory, probed by `DiskCache::load`.
    load: DiskCache,
    /// A scratch cache that `DiskCache::store` writes simulated answers to.
    store: DiskCache,
    dirs: [PathBuf; 2],
}

impl Session {
    /// Opens the server and lets its lazy per-kernel program build finish
    /// (one key derivation per kernel) before anything is timed.
    fn open(tag: usize, cells: &[JobSpec]) -> std::io::Result<Session> {
        let root = Path::new(SCRATCH_DIR);
        let dirs =
            ["cache", "probe"].map(|d| root.join(format!("{d}-{}-{tag}", std::process::id())));
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        let server = Server::new(&dirs[0], workers())?;
        for spec in cells.iter().step_by(hostperf_configs().len()) {
            server.key_of(spec).map_err(std::io::Error::other)?;
        }
        Ok(Session {
            server,
            load: DiskCache::open(&dirs[0])?,
            store: DiskCache::open(&dirs[1])?,
            dirs,
        })
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// What the server loop of one connection needs to parent its spans: the
/// client's open `request_over` span and its request id.
#[derive(Default)]
struct Link {
    span: AtomicUsize,
    request: AtomicU64,
}

/// The server side of one connection: [`aim_serve::serve_connection`]'s
/// loop, with spans and layer probes when traced.
fn serve_conn(session: &Session, mut end: PipeEnd, rec: Option<&Recorder>, link: &Link) {
    while let Ok(Some(frame)) = read_frame(&mut end) {
        let Some(msg) = std::str::from_utf8(&frame)
            .ok()
            .and_then(|t| WireMsg::parse(t).ok())
        else {
            break;
        };
        let parent = rec.map(|_| SpanId(link.span.load(Ordering::SeqCst)));
        let request = link.request.load(Ordering::SeqCst);
        let key = rec.and(JobSpec::from_wire(&msg).ok()).and_then(|spec| {
            in_span(rec, "Server::key_of", parent, request, |_| {
                session.server.key_of(&spec)
            })
            .0
            .ok()
        });
        if let Some(key) = key {
            in_span(rec, "DiskCache::load", parent, request, |_| {
                session.load.load(key)
            });
        }
        let ((reply, close), _) = in_span(rec, "Server::handle", parent, request, |_| {
            session.server.handle(&msg)
        });
        if let Some(key) = key.filter(|_| reply.str_field("source") == Some("sim")) {
            if let Ok(resp) = JobResponse::from_wire(&reply) {
                let entry = CacheEntry {
                    cycles: resp.cycles,
                    retired: resp.retired,
                    stats_text: resp.stats_text,
                };
                // A failed scratch write only loses a timing sample.
                let _ = in_span(rec, "DiskCache::store", parent, request, |_| {
                    session.store.store(key, &entry)
                });
            }
        }
        if write_frame(&mut end, reply.to_json().as_bytes()).is_err() || close {
            break;
        }
    }
}

/// The client side of one connection: each request waits for its reply.
fn client(
    mut end: PipeEnd,
    cells: &[JobSpec],
    shard: &[usize],
    rec: Option<&Recorder>,
    link: &Link,
    base: u64,
) -> Vec<(usize, Answer, f64)> {
    shard
        .iter()
        .map(|&i| {
            let msg = cells[i].to_wire(false, false);
            let request = base + i as u64;
            let t0 = Instant::now();
            let (reply, _) = in_span(rec, "request_over", None, request, |id| {
                link.request.store(request, Ordering::SeqCst);
                if let Some(id) = id {
                    link.span.store(id.0, Ordering::SeqCst);
                }
                request_over(&mut end, &msg)
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let answer = reply
                .map_err(|e| format!("request for cell {i}: {e}"))
                .and_then(|r| JobResponse::from_wire(&r).map_err(|e| format!("cell {i}: {e}")));
            (i, answer, ms)
        })
        .collect()
}

/// One round: every cell once, in `order`, dealt round-robin to the
/// clients.
struct Served {
    /// Answers by cell index.
    answers: Vec<Answer>,
    /// Round-trip milliseconds by cell index.
    ms: Vec<f64>,
    wall_s: f64,
    requests: u64,
    hits: u64,
    sims: u64,
}

fn serve_round(
    session: &Session,
    cells: &[JobSpec],
    order: &[usize],
    rec: Option<&Recorder>,
    base: u64,
) -> Served {
    let before = session.server.counters();
    let links: Vec<Link> = (0..CLIENTS).map(|_| Link::default()).collect();
    let t0 = Instant::now();
    let mut results: Vec<(usize, Answer, f64)> = std::thread::scope(|s| {
        let clients: Vec<_> = links
            .iter()
            .enumerate()
            .map(|(c, link)| {
                let (client_end, server_end) = duplex();
                s.spawn(move || serve_conn(session, server_end, rec, link));
                let shard: Vec<usize> = order.iter().skip(c).step_by(CLIENTS).copied().collect();
                s.spawn(move || client(client_end, cells, &shard, rec, link, base))
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let after = session.server.counters();
    results.sort_by_key(|r| r.0);
    let ms = results.iter().map(|r| r.2).collect();
    Served {
        answers: results.into_iter().map(|r| r.1).collect(),
        ms,
        wall_s,
        requests: after.requests - before.requests,
        hits: after.cache_hits - before.cache_hits,
        sims: after.sims_run - before.sims_run,
    }
}

impl Served {
    /// The round as a timed [`Round`].
    fn into_round(self, traced: bool) -> Round {
        let insts = self.answers.iter().flatten().map(|r| r.retired).sum();
        Round {
            wall_s: self.wall_s,
            cell_ms: self.ms,
            insts,
            traced,
        }
    }

    fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// Counts a cold round's failures against the reference answers.
fn check_cold(out: &mut Outcome, served: &Served, reference: &[Result<CacheEntry, String>]) {
    out.attempted += served.answers.len() as u64;
    let bad = cold_failures(&served.answers, reference);
    if let Some(&first) = bad.first() {
        let why = match (&served.answers[first], &reference[first]) {
            (Err(e), _) | (_, Err(e)) => e.clone(),
            (Ok(resp), Ok(_)) => format!(
                "answered from {:?}, or differs from the in-process run",
                resp.source
            ),
        };
        out.fail(
            bad.len() as u64,
            format!("cold round: {} bad answers; cell {first}: {why}", bad.len()),
        );
    }
}

/// Each set-up opens a fresh server and fills its cache with a cold round;
/// the timed warm rounds then replay every cell in seeded order and must
/// be answered from the cache, byte-identically, with zero simulations.
/// The cold rounds' round trips are printed as a timing, not gated.
pub fn run(run: &Run) -> Outcome {
    let cells = cells();
    let reference = reference(&cells);
    let mut out = Outcome::default();
    let mut cold_ms = Vec::new();
    let (mut round, mut base) = (0, 0u64);
    let mut next_base = || {
        base += cells.len() as u64;
        base - cells.len() as u64
    };
    for setup in 0..WARM_SETUPS {
        let t0 = Instant::now();
        let session = match Session::open(setup, &cells) {
            Ok(s) => s,
            Err(e) => {
                out.fail(cells.len() as u64, format!("cannot open a server: {e}"));
                return out;
            }
        };
        let order = shuffled(cells.len(), run.seed, setup);
        let fill = serve_round(&session, &cells, &order, run.recorder, next_base());
        out.setups_s.push(t0.elapsed().as_secs_f64());
        check_cold(&mut out, &fill, &reference);
        cold_ms.extend_from_slice(&fill.ms);

        let budget = run.seconds / WARM_SETUPS as f64;
        let (mut rounds_here, mut timed_here) = (0, 0.0);
        while run.wants_round(rounds_here, timed_here, budget) {
            let rec = run.recorder_for(round);
            let order = shuffled(cells.len(), run.seed, WARM_SETUPS + round);
            let served = serve_round(&session, &cells, &order, rec, next_base());
            out.attempted += served.answers.len() as u64;
            let bad = warm_failures(&served.answers, &fill.answers);
            out.fail(
                bad.len() as u64,
                format!(
                    "warm round: {} answers not byte-identical cache hits",
                    bad.len()
                ),
            );
            if bad.is_empty() {
                out.fail(
                    served.sims,
                    format!("warm round ran {} simulations", served.sims),
                );
            }
            out.layers.served(served.hit_ratio(), served.sims);
            timed_here += served.wall_s;
            out.rounds.push(served.into_round(rec.is_some()));
            rounds_here += 1;
            round += 1;
        }
        out.layers.utilization(session.server.worker_utilization());
    }
    println!("timing cold_ms: {}", summarize(&cold_ms));
    out
}
