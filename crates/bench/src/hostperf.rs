//! The host-throughput perf-trajectory artifact (`BENCH_hostperf.json`).
//!
//! [`SweepReport`](crate::SweepReport) records per-cell host throughput for
//! whichever sweep a binary happened to run; this module is the dedicated
//! *tracking* artifact: one row per backend × machine class, aggregated over
//! every kernel, so successive commits can be compared backend-by-backend
//! ("did the SoA table rewrite actually speed up the SFC/MDT cycle loop?").
//!
//! The report doubles as a **differential gate**: it carries an FNV-1a
//! fingerprint over every cell's host-independent [`SimStats`] record
//! (workload-major, each cell's [`stats_text`]). Any change to any
//! architectural statistic — cycle counts, violation counts, occupancy
//! peaks — anywhere in the (kernel × backend) matrix changes the
//! fingerprint, so a perf refactor that claims to be behaviour-preserving
//! can be checked with one word. `scripts/tier1.sh` runs the
//! `table_hostperf` binary's `--check` mode, which rejects when the
//! fingerprint differs from the committed `BENCH_hostperf.json` at the
//! same scale, and replays the matrix on a single worker and rejects if
//! the fingerprints diverge (jobs=N ≡ jobs=1 determinism).
//!
//! [`SimStats`]: aim_pipeline::SimStats
//!
//! Emitted JSON (`aim-hostperf-report/v1`, through the shared [`Report`]
//! writer):
//!
//! ```json
//! {
//!   "schema": "aim-hostperf-report/v1",
//!   "artifact": "table_hostperf",
//!   "scale": "small",
//!   "jobs": 1,
//!   "wall_seconds": 2.345678,
//!   "stats_fingerprint": "0x1234abcd5678ef90",
//!   "rows": [
//!     {
//!       "config": "base-sfc-mdt-enf",
//!       "machine": "baseline",
//!       "backend": "sfc-mdt-enf",
//!       "sim_cycles": 1933440,
//!       "retired": 1100000,
//!       "host_seconds": 0.14,
//!       "kcycles_per_sec": 13810.3,
//!       "retired_mips": 7.857
//!     }
//!   ]
//! }
//! ```

use crate::{Matrix, Report};
use aim_pipeline::SimConfig;
use aim_types::record::Record;
use aim_types::wire::WireMsg;
use aim_workloads::Scale;

aim_types::record! {
    /// One backend × machine-class row, aggregated over every workload.
    #[derive(Debug, Clone, Default)]
    pub struct HostperfRow {
        /// Configuration name (`base-…` / `aggr-…`).
        pub config: String,
        /// Machine class (`baseline` / `aggressive`), from the config prefix.
        pub machine: String,
        /// Backend label (the config name minus the machine prefix).
        pub backend: String,
        /// Total simulated cycles over all workloads.
        pub sim_cycles: u64,
        /// Total retired (simulated) instructions over all workloads.
        pub retired: u64,
        /// Total host wall-clock seconds in the cycle loop over all workloads.
        pub host_seconds: f64,
        /// Aggregate simulated kilocycles per host second.
        pub kcycles_per_sec: f64,
        /// Aggregate retired simulated MIPS.
        pub retired_mips: f64,
    }
}

/// The per-backend host-throughput report.
#[derive(Debug, Clone)]
pub struct HostperfReport {
    /// Workload scale the matrix ran at.
    pub scale: Scale,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// [`stats_fingerprint`] of the matrix.
    pub stats_fingerprint: u64,
    /// One row per configuration, in spec order.
    pub rows: Vec<HostperfRow>,
}

/// The canonical statistics text of a run: the flat JSON of its
/// [`SimStats`](aim_pipeline::SimStats) record with the host-dependent
/// [`HostPerf`](aim_pipeline::HostPerf) fields zeroed. Single line by
/// construction, and read back losslessly by
/// [`Record::read`](aim_types::record::Record::read) — the text the
/// `aim-serve` result cache stores and every stats fingerprint hashes.
pub fn stats_text(stats: &aim_pipeline::SimStats) -> String {
    stats.with_zeroed_host().write().to_json()
}

/// FNV-1a over the [`stats_text`] of each statistics record: one word
/// that changes iff *any* architectural statistic changes anywhere in the
/// sequence. The order of the iterator matters — callers hashing the same
/// cells must present them in the same order.
pub fn fingerprint_stats<'a, I>(stats: I) -> u64
where
    I: IntoIterator<Item = &'a aim_pipeline::SimStats>,
{
    let texts: Vec<String> = stats.into_iter().map(stats_text).collect();
    fingerprint_texts(texts.iter().map(String::as_str))
}

/// The fingerprint of one already-rendered [`stats_text`]. For a single
/// record, `fingerprint_text(&stats_text(&s)) == fingerprint_stats([&s])`
/// — the identity the `aim-serve` result cache relies on to re-fingerprint
/// a cached entry without reading it back.
pub fn fingerprint_text(text: &str) -> u64 {
    fingerprint_texts(std::iter::once(text))
}

/// [`fingerprint_text`] chained over several texts in order (equals
/// [`fingerprint_stats`] over the corresponding records).
pub fn fingerprint_texts<'a, I>(texts: I) -> u64
where
    I: IntoIterator<Item = &'a str>,
{
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut hash = FNV_OFFSET;
    for text in texts {
        hash = crate::cache_key::fnv1a(hash, text.bytes());
    }
    hash
}

/// [`fingerprint_stats`] over a whole matrix, workload-major — the word
/// `BENCH_hostperf.json` records and the `--check` replays compare against.
pub fn stats_fingerprint(matrix: &Matrix) -> u64 {
    fingerprint_stats(matrix.iter().map(|(_, _, s)| s))
}

impl HostperfReport {
    /// Aggregates a finished matrix into per-config rows. `configs` must be
    /// the slice the matrix was run over, named with the `base-`/`aggr-`
    /// machine-class prefix convention.
    pub fn from_matrix(
        scale: Scale,
        jobs: usize,
        wall: std::time::Duration,
        configs: &[(String, SimConfig)],
        matrix: &Matrix,
    ) -> HostperfReport {
        let rows = configs
            .iter()
            .enumerate()
            .map(|(c, (name, _))| {
                let (mut cycles, mut retired, mut secs) = (0u64, 0u64, 0f64);
                for w in 0..matrix.n_workloads() {
                    let stats = matrix.get(w, c);
                    cycles += stats.cycles;
                    retired += stats.retired;
                    secs += stats.host_seconds();
                }
                let (machine, backend) = match name.split_once('-') {
                    Some(("base", rest)) => ("baseline", rest),
                    Some(("aggr", rest)) => ("aggressive", rest),
                    _ => ("unknown", name.as_str()),
                };
                HostperfRow {
                    config: name.clone(),
                    machine: machine.to_string(),
                    backend: backend.to_string(),
                    sim_cycles: cycles,
                    retired,
                    host_seconds: secs,
                    kcycles_per_sec: if secs > 0.0 {
                        cycles as f64 / 1e3 / secs
                    } else {
                        0.0
                    },
                    retired_mips: if secs > 0.0 {
                        retired as f64 / 1e6 / secs
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        HostperfReport {
            scale,
            jobs,
            wall_seconds: wall.as_secs_f64(),
            stats_fingerprint: stats_fingerprint(matrix),
            rows,
        }
    }
}

/// The rows of `ours` whose simulated behaviour differs from the
/// same-named `committed` row — `sim_cycles` or `retired` moved, or the
/// config is new — one line each, naming both values: the "which config
/// moved" half of a fingerprint mismatch.
pub fn behaviour_diffs(committed: &[HostperfRow], ours: &[HostperfRow]) -> Vec<String> {
    ours.iter()
        .filter_map(|row| match committed.iter().find(|c| c.config == row.config) {
            None => Some(format!("{}: not in the committed report", row.config)),
            Some(c) if (c.sim_cycles, c.retired) != (row.sim_cycles, row.retired) => Some(format!(
                "{}: sim_cycles {} -> {}, retired {} -> {}",
                row.config, c.sim_cycles, row.sim_cycles, c.retired, row.retired
            )),
            Some(_) => None,
        })
        .collect()
}

/// One line per row of `ours` with its `retired_mips` against the
/// same-named `committed` row: the host-speed ledger of a
/// behaviour-preserving change.
pub fn mips_deltas(committed: &[HostperfRow], ours: &[HostperfRow]) -> Vec<String> {
    ours.iter()
        .filter_map(|row| {
            let c = committed.iter().find(|c| c.config == row.config)?;
            let pct = if c.retired_mips > 0.0 {
                (row.retired_mips / c.retired_mips - 1.0) * 100.0
            } else {
                0.0
            };
            Some(format!(
                "{}: retired_mips {:.3} -> {:.3} ({pct:+.1}%)",
                row.config, c.retired_mips, row.retired_mips
            ))
        })
        .collect()
}

impl Report for HostperfReport {
    type Row = HostperfRow;
    const PATH_ENV: &'static str = "AIM_HOSTPERF_JSON";
    const DEFAULT_PATH: &'static str = "BENCH_hostperf.json";

    fn header(&self, msg: &mut WireMsg) {
        msg.put_str("schema", "aim-hostperf-report/v1")
            .put_str("artifact", "table_hostperf")
            .put_str("scale", &self.scale.to_string())
            .put_u64("jobs", self.jobs as u64)
            .put_f64("wall_seconds", self.wall_seconds)
            .put_str(
                "stats_fingerprint",
                &format!("{:#018x}", self.stats_fingerprint),
            );
    }

    fn rows(&self) -> &[HostperfRow] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> HostperfReport {
        HostperfReport {
            scale: Scale::Tiny,
            jobs: 2,
            wall_seconds: 0.5,
            stats_fingerprint: 0x1234_abcd,
            rows: vec![HostperfRow {
                config: "base-sfc-mdt-enf".to_string(),
                machine: "baseline".to_string(),
                ..HostperfRow::default()
            }],
        }
    }

    #[test]
    fn json_carries_schema_fingerprint_and_rows() {
        let json = report().to_json();
        assert!(json.contains("\"schema\": \"aim-hostperf-report/v1\""));
        assert!(json.contains("\"scale\": \"tiny\""));
        assert!(json.contains("\"stats_fingerprint\": \"0x000000001234abcd\""));
        assert!(json.contains("\"config\": \"base-sfc-mdt-enf\""));
        assert!(json.contains("\"machine\": \"baseline\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    fn row(config: &str, sim_cycles: u64, retired_mips: f64) -> HostperfRow {
        HostperfRow {
            config: config.to_string(),
            sim_cycles,
            retired: 100,
            retired_mips,
            ..HostperfRow::default()
        }
    }

    #[test]
    fn diffs_name_each_moved_config_with_both_values() {
        let committed = [row("base-lsq", 10, 1.0), row("aggr-lsq", 20, 2.0)];
        let ours = [row("base-lsq", 10, 1.5), row("aggr-lsq", 21, 1.0), row("aggr-new", 5, 1.0)];
        assert_eq!(
            behaviour_diffs(&committed, &ours),
            [
                "aggr-lsq: sim_cycles 20 -> 21, retired 100 -> 100",
                "aggr-new: not in the committed report",
            ]
        );
        assert_eq!(
            mips_deltas(&committed, &ours),
            [
                "base-lsq: retired_mips 1.000 -> 1.500 (+50.0%)",
                "aggr-lsq: retired_mips 2.000 -> 1.000 (-50.0%)",
            ]
        );
    }

    #[test]
    fn report_rows_read_back_from_json() {
        let ours = report();
        let rows = HostperfReport::rows_from_json(&ours.to_json()).expect("rows parse");
        assert_eq!(rows.len(), 1);
        assert!(behaviour_diffs(&rows, &ours.rows).is_empty());
        // The committed small-scale report at the repository root.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hostperf.json");
        let text = std::fs::read_to_string(path).expect("committed report");
        let rows = HostperfReport::rows_from_json(&text).expect("committed rows parse");
        assert_eq!(rows.len(), 12);
    }

    #[test]
    fn scale_tokens_match_the_cli() {
        for scale in Scale::ALL {
            let json = HostperfReport { scale, ..report() }.to_json();
            assert!(json.contains(&format!("\"scale\": \"{scale}\"")), "{json}");
            assert_eq!(scale.to_string().parse(), Ok(scale));
        }
    }
}
