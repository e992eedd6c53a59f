//! The `table_sampled` machine-readable report (`BENCH_sampled.json`).
//!
//! `table_sampled` is the differential convergence gate for sampled
//! simulation: every committed kernel runs the huge/far-memory
//! configuration twice — full detail and under the tuned tiled sampling
//! policy — and the report records, per kernel, the extrapolated IPC
//! against the full-detail truth, the detail coverage the policy bought
//! the error with, and the measured wall-clock of both runs. This module
//! renders that sweep in a stable JSON schema (`aim-sampled-report/v1`)
//! so the acceptance checks (every kernel inside the convergence
//! tolerance; the sampled sweep ≥10× faster wall-clock at `Scale::Huge`)
//! can be asserted by scripts, not eyeballs. The top-level serve counters
//! record that full and sampled cells are distinct content-addressed
//! cache entries and that a warm replay ran zero simulations.
//!
//! ```json
//! {
//!   "schema": "aim-sampled-report/v1",
//!   "artifact": "table_sampled",
//!   "scale": "huge", "workers": 8,
//!   "cold_sims": 40, "warm_hits": 40, "warm_sims": 0,
//!   "machine": "huge", "window": 4096, "far_latency": 800,
//!   "worst_err_pct": -6.6, "speedup": 11.2,
//!   "rows": [
//!     {
//!       "workload": "gzip", "suite": "int", "trace_len": 2363615,
//!       "warm_insts": 208112, "detail_insts": 6714, "periods": 11,
//!       "full_ipc": 7.06, "sampled_ipc": 7.11, "err_pct": 0.78,
//!       "periods_run": 11, "detail_pct": 3.1,
//!       "full_wall_ns": 2400000000, "sampled_wall_ns": 210000000,
//!       "speedup": 11.4
//!     }
//!   ]
//! }
//! ```

use crate::Report;
use aim_types::wire::WireMsg;
use aim_workloads::Scale;

aim_types::record! {
    /// One kernel of the sampled-convergence sweep: the full-detail truth,
    /// the sampled estimate, and the cost of each.
    #[derive(Debug, Clone)]
    pub struct SampledRow {
        /// Workload name.
        pub workload: String,
        /// Suite membership (`int` or `fp`).
        pub suite: String,
        /// Dynamic instructions the kernel retires (the length the policy
        /// tiles).
        pub trace_len: u64,
        /// Warm-up instructions per period of the policy.
        pub warm_insts: u64,
        /// Detailed instructions per period of the policy.
        pub detail_insts: u64,
        /// Periods the policy schedules.
        pub periods: u32,
        /// Full-detail IPC (the truth the estimate is judged against).
        pub full_ipc: f64,
        /// Extrapolated IPC of the sampled run.
        pub sampled_ipc: f64,
        /// Signed relative IPC error of the estimate, percent.
        pub err_pct: f64,
        /// Detailed windows the sampled run completed.
        pub periods_run: u32,
        /// Percent of retired instructions simulated cycle-accurately.
        pub detail_pct: f64,
        /// Wall-clock of the full-detail run, nanoseconds.
        pub full_wall_ns: u64,
        /// Wall-clock of the sampled run, nanoseconds.
        pub sampled_wall_ns: u64,
        /// Per-kernel wall-clock speedup (`full_wall_ns / sampled_wall_ns`).
        pub speedup: f64,
    }
}

/// The full sampled-convergence sweep: serve-cache routing counters, the
/// shared machine configuration, the aggregate acceptance numbers, and one
/// row per kernel.
#[derive(Debug, Clone)]
pub struct SampledReport {
    /// The producing binary (`table_sampled`).
    pub artifact: String,
    /// Workload scale the sweep ran at.
    pub scale: Scale,
    /// Simulation worker threads of the serving pool.
    pub workers: usize,
    /// Simulations the cold round ran (one per unique cell; full and
    /// sampled cells are distinct).
    pub cold_sims: u64,
    /// Cache hits the warm replay round was answered from.
    pub warm_hits: u64,
    /// Simulations the warm replay round ran (zero when the cache held).
    pub warm_sims: u64,
    /// Machine-class tag of the shared configuration (`huge`).
    pub machine: String,
    /// ROB entries of that machine class.
    pub window: u64,
    /// Far-tier latency in cycles.
    pub far_latency: u64,
    /// Largest-magnitude signed IPC error across the rows, percent.
    pub worst_err_pct: f64,
    /// Aggregate wall-clock speedup (total full wall / total sampled
    /// wall).
    pub speedup: f64,
    /// Per-kernel rows, registry order.
    pub rows: Vec<SampledRow>,
}

impl Report for SampledReport {
    type Row = SampledRow;
    const PATH_ENV: &'static str = "AIM_SAMPLED_JSON";
    const DEFAULT_PATH: &'static str = "BENCH_sampled.json";

    fn header(&self, msg: &mut WireMsg) {
        msg.put_str("schema", "aim-sampled-report/v1")
            .put_str("artifact", &self.artifact)
            .put_str("scale", &self.scale.to_string())
            .put_u64("workers", self.workers as u64)
            .put_u64("cold_sims", self.cold_sims)
            .put_u64("warm_hits", self.warm_hits)
            .put_u64("warm_sims", self.warm_sims)
            .put_str("machine", &self.machine)
            .put_u64("window", self.window)
            .put_u64("far_latency", self.far_latency)
            .put_f64("worst_err_pct", self.worst_err_pct)
            .put_f64("speedup", self.speedup);
    }

    fn rows(&self) -> &[SampledRow] {
        &self.rows
    }
}
