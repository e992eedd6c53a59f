//! Per-layer accumulators and the two metric lists the benchmark reports:
//! end-to-end (untraced runs) and per-layer (traced runs).
//!
//! Layer timings come only from traced rounds; counts (probes, misses,
//! mispredicts) come from every round, since they do not depend on the
//! host. A metric whose layer a workload does not exercise reads 0.

use crate::common::Round;
use crate::spans::{self_times_by_name, Span};
use crate::summary::median;
use aim_pipeline::{AimStats, BackendStats, SimStats};

/// Machine classes, as named in per-layer metrics.
pub const CLASSES: [&str; 3] = ["baseline", "aggressive", "huge"];

/// Index of the huge class in [`CLASSES`].
pub const HUGE: usize = 2;

/// Backend families, as named in per-layer metrics.
pub const FAMILIES: [&str; 6] = ["nospec", "lsq", "sfc-mdt", "filtered", "pcax", "oracle"];

/// End-to-end metrics: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("wall_s", "s", "lower"),
    ("sim_mips", "Minst/s", "higher"),
    ("cell_ms_p50", "ms", "lower"),
    ("cell_ms_p95", "ms", "lower"),
];

/// Per-layer metrics: `(name, unit, better)`, in report order.
pub fn per_layer_spec() -> Vec<(String, &'static str, &'static str)> {
    let mut spec: Vec<(String, &str, &str)> = vec![
        ("workloads.build_ms".into(), "ms", "lower"),
        ("isa.trace_ns_per_inst".into(), "ns/inst", "lower"),
        ("isa.trace_mb_peak".into(), "MB", "lower"),
    ];
    spec.extend(
        CLASSES
            .iter()
            .map(|c| (format!("pipeline.new_us.{c}"), "us", "lower")),
    );
    spec.extend(
        CLASSES
            .iter()
            .map(|c| (format!("pipeline.run_ns_per_inst.{c}"), "ns/inst", "lower")),
    );
    spec.push(("pipeline.fetched_per_retired".into(), "count", "lower"));
    spec.push(("pipeline.issued_per_retired".into(), "count", "lower"));
    spec.extend(
        FAMILIES
            .iter()
            .map(|f| (format!("backend.run_ns_per_inst.{f}"), "ns/inst", "lower")),
    );
    for (name, unit, better) in [
        ("backend.probes_per_inst", "count", "lower"),
        ("backend.replays_per_kinst", "count", "lower"),
        ("backend.mem_flushes_per_kinst", "count", "lower"),
        ("sample.run_ns_per_inst", "ns/inst", "lower"),
        ("sample.detail_pct", "%", "lower"),
        ("sample.ipc_err_pct_max", "%", "lower"),
        ("mem.l1d_misses_per_kinst", "count", "lower"),
        ("mem.l2_misses_per_kinst", "count", "lower"),
        ("mem.far_peak_inflight", "count", "lower"),
        ("predictor.mispredicts_per_kinst", "count", "lower"),
        ("serve.key_us", "us", "lower"),
        ("serve.cache_load_us", "us", "lower"),
        ("serve.frame_us", "us", "lower"),
        ("serve.cache_store_us", "us", "lower"),
        ("serve.hit_ratio", "count", "higher"),
        ("serve.sims_run", "count", "lower"),
        ("serve.worker_utilization", "count", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ] {
        spec.push((name.into(), unit, better));
    }
    spec
}

/// Host time and instructions of one group of cells.
#[derive(Debug, Clone, Copy, Default)]
struct PerInst {
    ns: u64,
    insts: u64,
}

impl PerInst {
    fn add(&mut self, ns: u64, insts: u64) {
        self.ns += ns;
        self.insts += insts;
    }

    fn ns_per_inst(self) -> f64 {
        ratio(self.ns as f64, self.insts as f64)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counts that explain host time per simulated event.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    retired: u64,
    fetched: u64,
    issued: u64,
    probes: u64,
    replays: u64,
    mem_flushes: u64,
}

/// Memory-system and predictor counts over every cell.
#[derive(Debug, Clone, Copy, Default)]
struct MemCounts {
    retired: u64,
    l1d_misses: u64,
    l2_misses: u64,
    mispredicts: u64,
    far_peak: usize,
}

/// Per-layer accumulators of one workload run.
#[derive(Debug, Default)]
pub struct Layers {
    build_ms: Vec<f64>,
    trace: PerInst,
    trace_max_len: usize,
    new_us: [Vec<f64>; 3],
    run: [PerInst; 3],
    backend: [PerInst; 6],
    detail: Counts,
    mem: MemCounts,
    sample: PerInst,
    sample_retired: u64,
    sample_detail_retired: u64,
    ipc_err_max: f64,
    hit_ratio: Vec<f64>,
    sims_run: Vec<f64>,
    utilization: Vec<f64>,
}

/// SFC and MDT probes of one SFC/MDT-family backend.
fn aim_probes(a: &AimStats) -> u64 {
    a.sfc.load_lookups + a.sfc.store_writes + a.mdt.load_checks + a.mdt.store_checks
}

/// Structure probes a backend made: SFC+MDT probes, or LSQ entries
/// compared. The no-spec and oracle bounds probe nothing.
fn probes(stats: &SimStats) -> u64 {
    match &stats.backend {
        BackendStats::Lsq(l) => l.sq_entries_compared + l.lq_entries_compared,
        BackendStats::Filtered(f) => f.lsq.sq_entries_compared + f.lsq.lq_entries_compared,
        BackendStats::Aim(a) => aim_probes(a),
        BackendStats::Pcax(p) => aim_probes(&p.aim),
        BackendStats::Oracle(_) | BackendStats::NoSpec(_) | BackendStats::None => 0,
    }
}

impl Layers {
    /// One traced set-up built its kernels in `ns`.
    pub fn setup_built(&mut self, ns: u64) {
        self.build_ms.push(ns as f64 / 1e6);
    }

    /// One traced trace preparation of `len` instructions took `ns`.
    pub fn trace_prepared(&mut self, ns: u64, len: usize) {
        self.trace.add(ns, len as u64);
        self.trace_max_len = self.trace_max_len.max(len);
    }

    /// One traced `Core::new` of machine class `class` took `ns`.
    pub fn core_new(&mut self, class: usize, ns: u64) {
        self.new_us[class].push(ns as f64 / 1e3);
    }

    /// One traced full-detail `Core::run` of class `class` (and, on the
    /// aggressive class, backend family `family`) took `ns`.
    pub fn core_run(&mut self, class: usize, family: Option<usize>, ns: u64, retired: u64) {
        self.run[class].add(ns, retired);
        if let Some(f) = family {
            self.backend[f].add(ns, retired);
        }
    }

    /// Counts of one full-detail cell.
    pub fn count_detail(&mut self, s: &SimStats) {
        let d = &mut self.detail;
        d.retired += s.retired;
        d.fetched += s.fetched;
        d.issued += s.issued;
        d.probes += probes(s);
        d.replays += s.replays.total();
        d.mem_flushes += s.flushes.memory();
        self.count_memory(s);
    }

    /// Memory-system and predictor counts of any cell.
    pub fn count_memory(&mut self, s: &SimStats) {
        let m = &mut self.mem;
        m.retired += s.retired;
        m.l1d_misses += s.caches.1.misses;
        m.l2_misses += s.caches.2.misses;
        m.mispredicts += s.branch_mispredicts;
        m.far_peak = m.far_peak.max(s.far.map_or(0, |f| f.peak_inflight));
    }

    /// One sampled cell: `ns` of traced `Core::run` (0 untraced) and its
    /// statistics.
    pub fn sampled(&mut self, ns: u64, s: &SimStats) {
        if ns > 0 {
            self.sample.add(ns, s.retired);
        }
        self.sample_retired += s.retired;
        if let Some(sampled) = s.sampled {
            self.sample_detail_retired += sampled.detail_retired;
        }
        self.count_memory(s);
    }

    /// Records one sampled cell's IPC error against full detail.
    pub fn ipc_err(&mut self, err_pct: f64) {
        self.ipc_err_max = self.ipc_err_max.max(err_pct.abs());
    }

    /// Worst |IPC error| recorded, in percent.
    pub fn ipc_err_max(&self) -> f64 {
        self.ipc_err_max
    }

    /// One served round's cache-hit ratio and simulations run.
    pub fn served(&mut self, hit_ratio: f64, sims: u64) {
        self.hit_ratio.push(hit_ratio);
        self.sims_run.push(sims as f64);
    }

    /// One server's lifetime worker utilization.
    pub fn utilization(&mut self, u: f64) {
        self.utilization.push(u);
    }

    /// Every per-layer metric, in [`per_layer_spec`] order, from these
    /// accumulators, the rounds, and the recorded spans.
    pub fn metrics(&self, rounds: &[Round], spans: &[Span]) -> Vec<f64> {
        let own = self_times_by_name(spans);
        let span_us = |name: &str| {
            own.get(name).map_or(0.0, |ns| {
                median(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>())
            })
        };
        let walls = |traced: bool| {
            median(
                &rounds
                    .iter()
                    .filter(|r| r.traced == traced)
                    .map(|r| r.wall_s)
                    .collect::<Vec<_>>(),
            )
        };
        let (traced, untraced) = (walls(true), walls(false));
        let per_kinst = |n: u64, retired: u64| ratio(n as f64 * 1e3, retired as f64);
        let (d, m) = (&self.detail, &self.mem);

        let mut v = vec![
            median(&self.build_ms),
            self.trace.ns_per_inst(),
            (self.trace_max_len * std::mem::size_of::<aim_isa::TraceRecord>()) as f64
                / (1u64 << 20) as f64,
        ];
        v.extend(self.new_us.iter().map(|us| median(us)));
        v.extend(self.run.iter().map(|r| r.ns_per_inst()));
        v.push(ratio(d.fetched as f64, d.retired as f64));
        v.push(ratio(d.issued as f64, d.retired as f64));
        v.extend(self.backend.iter().map(|b| b.ns_per_inst()));
        v.extend([
            ratio(d.probes as f64, d.retired as f64),
            per_kinst(d.replays, d.retired),
            per_kinst(d.mem_flushes, d.retired),
            self.sample.ns_per_inst(),
            ratio(
                self.sample_detail_retired as f64 * 100.0,
                self.sample_retired as f64,
            ),
            self.ipc_err_max,
            per_kinst(m.l1d_misses, m.retired),
            per_kinst(m.l2_misses, m.retired),
            m.far_peak as f64,
            per_kinst(m.mispredicts, m.retired),
            span_us("Server::key_of"),
            span_us("DiskCache::load"),
            span_us("request_over"),
            span_us("DiskCache::store"),
            median(&self.hit_ratio),
            median(&self.sims_run),
            median(&self.utilization),
            if untraced > 0.0 && traced > 0.0 {
                (traced / untraced - 1.0) * 100.0
            } else {
                0.0
            },
        ]);
        v
    }
}
