//! The job-server report (`BENCH_serve.json`, `aim-serve-report/v1`).
//!
//! The `aim-serve` replay driver runs the same request matrix through the
//! server several times — a cold round that must simulate every cell, then
//! warm rounds that must be served entirely from the content-addressed
//! cache — and records what the heavy-traffic path actually did: cache
//! hits and misses, duplicate requests folded by single-flight, corrupt
//! entries evicted, verify-mode recomputations, worker-pool utilization,
//! and the warm/cold wall-time ratio the cache exists to deliver.
//!
//! Emitted JSON (through the shared [`Report`] writer):
//!
//! ```json
//! {
//!   "schema": "aim-serve-report/v1",
//!   "artifact": "aim_serve",
//!   "scale": "tiny",
//!   "workers": 4,
//!   "clients": 4,
//!   "requests": 510,
//!   "cache_hits": 240,
//!   "cache_misses": 240,
//!   "dedup_waits": 0,
//!   "sims_run": 270,
//!   "corrupt_evictions": 0,
//!   "verified": 30,
//!   "verify_mismatches": 0,
//!   "worker_utilization": 0.82,
//!   "warm_speedup": 104.6,
//!   "rounds": [
//!     {"label": "cold", "cells": 240, "wall_seconds": 2.1,
//!      "sims_run": 240, "cache_hits": 0}
//!   ]
//! }
//! ```

use crate::Report;
use aim_types::record::Field;
use aim_types::wire::WireMsg;
use aim_workloads::Scale;

aim_types::record! {
    /// One replay round's aggregate outcome.
    #[derive(Debug, Clone)]
    pub struct ServeRound {
        /// Round label (`cold`, `warm1`, `warm2`, …).
        pub label: String,
        /// Requests submitted this round.
        pub cells: u64,
        /// Wall-clock seconds for the round.
        pub wall_seconds: f64,
        /// Simulations actually executed during the round (0 for a healthy
        /// warm round).
        pub sims_run: u64,
        /// Requests answered from the on-disk cache during the round.
        pub cache_hits: u64,
    }

    /// The job server's lifetime counters, all monotone: a point-in-time
    /// copy, as `aim_serve::Server::counters` returns and the `stats` wire
    /// op and this report carry them.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServeCounters {
        /// Requests handled.
        pub requests: u64,
        /// Requests answered from the cache.
        pub cache_hits: u64,
        /// Requests that missed the cache.
        pub cache_misses: u64,
        /// Duplicate in-flight requests folded onto an existing computation.
        pub dedup_waits: u64,
        /// Simulations executed.
        pub sims_run: u64,
        /// Cache entries rejected by validation and recomputed.
        pub corrupt_evictions: u64,
        /// Verify-mode recomputations performed.
        pub verified: u64,
        /// Verify-mode recomputations that diverged from the cached bytes.
        pub verify_mismatches: u64,
    }
}

/// The job-server accounting report.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Workload scale the matrix ran at.
    pub scale: Scale,
    /// Simulation worker threads the server ran.
    pub workers: usize,
    /// Concurrent submitter connections the replay drove.
    pub clients: usize,
    /// The server's counters at the end of the run.
    pub counters: ServeCounters,
    /// Fraction of worker-pool lifetime spent simulating.
    pub worker_utilization: f64,
    /// Cold wall time divided by the slowest warm round's wall time.
    pub warm_speedup: f64,
    /// Per-round outcomes, in execution order.
    pub rounds: Vec<ServeRound>,
}

impl Report for ServeReport {
    type Row = ServeRound;
    const PATH_ENV: &'static str = "AIM_SERVE_JSON";
    const DEFAULT_PATH: &'static str = "BENCH_serve.json";
    const ROWS_KEY: &'static str = "rounds";

    fn header(&self, msg: &mut WireMsg) {
        msg.put_str("schema", "aim-serve-report/v1")
            .put_str("artifact", "aim_serve")
            .put_str("scale", &self.scale.to_string())
            .put_u64("workers", self.workers as u64)
            .put_u64("clients", self.clients as u64);
        self.counters.put("", msg);
        msg.put_f64("worker_utilization", self.worker_utilization)
            .put_f64("warm_speedup", self.warm_speedup);
    }

    fn rows(&self) -> &[ServeRound] {
        &self.rounds
    }
}
