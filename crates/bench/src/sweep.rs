//! Machine-readable host-throughput reports (`BENCH_sweep.json`).
//!
//! Every experiment binary records how fast the *host* simulated its sweep
//! — simulated kilocycles per wall-clock second per cell, plus the total
//! sweep wall time and the worker count — so performance regressions in the
//! simulator itself show up in CI artifacts, not just in patience.
//!
//! The report renders through the shared [`Report`] writer against the
//! `aim-bench-sweep/v1` schema:
//!
//! ```json
//! {
//!   "schema": "aim-bench-sweep/v1",
//!   "artifact": "fig5_baseline",
//!   "jobs": 8,
//!   "wall_seconds": 12.345678,
//!   "rows": [
//!     {
//!       "workload": "gzip",
//!       "config": "sfc-mdt-enf",
//!       "sim_cycles": 193344,
//!       "retired": 110000,
//!       "host_seconds": 0.014,
//!       "kcycles_per_sec": 13810.3,
//!       "retired_mips": 7.857
//!     }
//!   ]
//! }
//! ```

use crate::{Matrix, Prepared, Report};
use aim_pipeline::SimConfig;
use aim_types::wire::WireMsg;

aim_types::record! {
    /// One (workload, config) cell of a sweep report.
    #[derive(Debug, Clone, Default)]
    pub struct SweepRow {
        /// Workload name.
        pub workload: String,
        /// Configuration name.
        pub config: String,
        /// Simulated cycles.
        pub sim_cycles: u64,
        /// Retired (simulated) instructions.
        pub retired: u64,
        /// Host wall-clock seconds spent in the cycle loop.
        pub host_seconds: f64,
        /// Simulated kilocycles per host second.
        pub kcycles_per_sec: f64,
        /// Retired simulated million instructions per host second.
        pub retired_mips: f64,
    }
}

/// Host-throughput summary of one sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Which experiment binary produced this (e.g. `fig5_baseline`).
    pub artifact: String,
    /// Worker threads the sweep used.
    pub jobs: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Per-cell throughput rows, workload-major.
    pub rows: Vec<SweepRow>,
}

impl SweepReport {
    /// Builds a report from a finished matrix. `prepared` and `configs`
    /// must be the slices the matrix was run over.
    pub fn from_matrix(
        artifact: &str,
        jobs: usize,
        wall: std::time::Duration,
        prepared: &[Prepared],
        configs: &[(String, SimConfig)],
        matrix: &Matrix,
    ) -> SweepReport {
        let rows = matrix
            .iter()
            .map(|(w, c, stats)| SweepRow {
                workload: prepared[w].name.to_string(),
                config: configs[c].0.clone(),
                sim_cycles: stats.cycles,
                retired: stats.retired,
                host_seconds: stats.host_seconds(),
                kcycles_per_sec: stats.sim_kcycles_per_sec(),
                retired_mips: stats.retired_mips(),
            })
            .collect();
        SweepReport {
            artifact: artifact.to_string(),
            jobs,
            wall_seconds: wall.as_secs_f64(),
            rows,
        }
    }

    /// Folds another section's rows and wall time into this report (for
    /// binaries that run several flag-gated matrices in one invocation).
    pub fn merge(&mut self, other: SweepReport) {
        self.wall_seconds += other.wall_seconds;
        self.rows.extend(other.rows);
    }

    /// Writes the report to the default location and prints a one-line
    /// throughput summary; a write failure is reported on stderr, not fatal.
    pub fn emit(&self) {
        match self.write_default() {
            Ok(path) => println!(
                "sweep: {} cells in {:.2}s on {} job(s) — {path}",
                self.rows.len(),
                self.wall_seconds,
                self.jobs
            ),
            Err(e) => eprintln!("sweep report not written: {e}"),
        }
    }
}

impl Report for SweepReport {
    type Row = SweepRow;
    const PATH_ENV: &'static str = "AIM_SWEEP_JSON";
    const DEFAULT_PATH: &'static str = "BENCH_sweep.json";

    fn header(&self, msg: &mut WireMsg) {
        msg.put_str("schema", "aim-bench-sweep/v1")
            .put_str("artifact", &self.artifact)
            .put_u64("jobs", self.jobs as u64)
            .put_f64("wall_seconds", self.wall_seconds);
    }

    fn rows(&self) -> &[SweepRow] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_number_hygiene() {
        let report = SweepReport {
            artifact: "a\"b\\c\tab".to_string(),
            jobs: 1,
            wall_seconds: f64::NAN,
            rows: Vec::new(),
        };
        let json = report.to_json();
        assert!(json.contains(r#""artifact": "a\"b\\c\u0009ab""#), "{json}");
        assert!(json.contains("\"wall_seconds\": 0.000000"), "{json}");
        assert!(json.contains("\"rows\": [\n  ]\n}\n"), "{json}");
    }

    #[test]
    fn report_renders_schema_and_rows() {
        let report = SweepReport {
            artifact: "unit".to_string(),
            jobs: 3,
            wall_seconds: 0.25,
            rows: vec![SweepRow {
                workload: "gzip".to_string(),
                config: "lsq".to_string(),
                sim_cycles: 100,
                ..SweepRow::default()
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aim-bench-sweep/v1\""));
        assert!(json.contains("\"artifact\": \"unit\""));
        assert!(json.contains("\"jobs\": 3"));
        assert!(json.contains("\"workload\": \"gzip\""));
        assert!(json.contains("\"sim_cycles\": 100"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count()
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
