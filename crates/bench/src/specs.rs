//! Named (workload × config) sweep specifications for every experiment
//! binary.
//!
//! Each `src/bin/*.rs` artifact used to build its configuration list
//! inline; centralizing them here gives [`run_matrix`](crate::run_matrix)
//! callers, the smoke tests, and the determinism tests one shared source of
//! truth for *what* each artifact simulates. The binaries remain in charge
//! of presentation (tables, normalization, CSV).

use crate::{GeometryGrid, Prepared};
use aim_core::{CorruptionPolicy, MdtConfig, MdtTagging, SetHash, TrueDepRecovery};
use aim_lsq::LsqConfig;
use aim_pipeline::{
    BackendChoice, BackendConfig, FarSpec, FilterConfig, MachineClass, MemSpec, OutputDepRecovery,
    PcaxConfig, SimConfig,
};
use aim_predictor::EnforceMode;
use aim_workloads::Scale;

/// The benchmarks excluded from the paper's Figure 6 set (and every study
/// that inherits it).
pub const FIG6_EXCLUDED: &[&str] = &["mesa"];

/// One experiment binary's sweep: its named configurations and the
/// workloads it excludes.
pub struct ArtifactSpec {
    /// The binary's name (and the `artifact` field of its sweep report).
    pub artifact: &'static str,
    /// Named configurations, in presentation order.
    pub configs: Vec<(String, SimConfig)>,
    /// Workload names this artifact skips.
    pub skip: &'static [&'static str],
}

impl ArtifactSpec {
    /// Prepares this artifact's workload set at `scale` (the full registry
    /// minus [`ArtifactSpec::skip`]).
    ///
    /// # Panics
    ///
    /// Panics if a kernel faults architecturally, as
    /// [`prepare_all`](crate::prepare_all) does.
    pub fn workloads(&self, scale: Scale) -> Vec<Prepared> {
        crate::prepare_all(scale)
            .into_iter()
            .filter(|p| !self.skip.contains(&p.name))
            .collect()
    }

    /// The position of a named config.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of this spec's configs.
    pub fn index(&self, name: &str) -> usize {
        self.configs
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{}: no config named `{name}`", self.artifact))
    }
}

fn named(name: &str, cfg: SimConfig) -> (String, SimConfig) {
    (name.to_string(), cfg)
}

fn with_sfc_mdt(mut cfg: SimConfig, f: impl FnOnce(&mut aim_core::SfcConfig, &mut MdtConfig)) -> SimConfig {
    match &mut cfg.backend {
        BackendConfig::SfcMdt { sfc, mdt } => f(sfc, mdt),
        _ => unreachable!("SFC/MDT mutation on a non-SFC/MDT config"),
    }
    cfg
}

/// `calibrate`: the two backends, baseline or aggressive.
pub fn calibrate(aggressive: bool) -> ArtifactSpec {
    let configs = if aggressive {
        vec![
            named("lsq-120x80", SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Lsq).lsq(LsqConfig::aggressive_120x80()).build()),
            named("sfc-mdt-enf", SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build()),
        ]
    } else {
        vec![
            named("lsq-48x32", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build()),
            named("sfc-mdt-enf", SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build()),
        ]
    };
    ArtifactSpec {
        artifact: "calibrate",
        configs,
        skip: &[],
    }
}

/// `fig4_config`: a boot-validation pair proving the printed parameter
/// tables describe configurations that actually simulate.
pub fn fig4_boot() -> ArtifactSpec {
    ArtifactSpec {
        artifact: "fig4_config",
        configs: vec![
            named("baseline-enf", SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build()),
            named("aggressive-enf", SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build()),
        ],
        skip: &[],
    }
}

/// `fig5_baseline`: 48×32 LSQ vs ENF vs NOT-ENF on the 4-wide machine.
pub fn fig5_baseline() -> ArtifactSpec {
    ArtifactSpec {
        artifact: "fig5_baseline",
        configs: vec![
            named("lsq-48x32", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build()),
            named("sfc-mdt-enf", SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build()),
            named("sfc-mdt-not-enf", SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::TrueOnly).build()),
        ],
        skip: &[],
    }
}

/// `fig6_aggressive`: three LSQ capacities and the ENF MDT/SFC on the
/// 8-wide machine.
pub fn fig6_aggressive() -> ArtifactSpec {
    ArtifactSpec {
        artifact: "fig6_aggressive",
        configs: vec![
            named("lsq-120x80", SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Lsq).lsq(LsqConfig::aggressive_120x80()).build()),
            named("lsq-256x256", SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Lsq).lsq(LsqConfig::aggressive_256x256()).build()),
            named("lsq-48x32", SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Lsq).lsq(LsqConfig::baseline_48x32()).build()),
            named("sfc-mdt-enf", SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build()),
        ],
        skip: FIG6_EXCLUDED,
    }
}

/// `table_violations`: baseline and aggressive, ENF and NOT-ENF.
pub fn table_violations() -> ArtifactSpec {
    ArtifactSpec {
        artifact: "table_violations",
        configs: vec![
            named("base-not-enf", SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::TrueOnly).build()),
            named("base-enf", SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build()),
            named("aggr-not-enf", SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TrueOnly).build()),
            named("aggr-enf", SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build()),
        ],
        skip: &[],
    }
}

/// `table_violations --policies`: the §2.4 recovery-policy ablation.
pub fn violation_policies() -> ArtifactSpec {
    let default = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    let td = with_sfc_mdt(default.clone(), |_, mdt| {
        mdt.true_dep_recovery = TrueDepRecovery::SingleLoadAggressive;
    });
    let mut od = default.clone();
    od.output_dep_recovery = OutputDepRecovery::MarkCorrupt;
    ArtifactSpec {
        artifact: "table_violations--policies",
        configs: vec![
            named("aggr-enf", default),
            named("aggressive-td", td),
            named("corrupt-od", od),
        ],
        skip: &[],
    }
}

/// `table_enf_effect`: NOT-ENF vs pairwise vs total-order enforcement.
pub fn table_enf_effect() -> ArtifactSpec {
    ArtifactSpec {
        artifact: "table_enf_effect",
        configs: vec![
            named("not-enf", SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TrueOnly).build()),
            named("enf-pairwise", SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::All).build()),
            named("enf-total", SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build()),
        ],
        skip: FIG6_EXCLUDED,
    }
}

/// `table_assoc_sweep`: the 2-way aggressive geometry vs 16 ways.
pub fn table_assoc_sweep() -> ArtifactSpec {
    let base = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    let assoc16 = with_sfc_mdt(base.clone(), |sfc, mdt| {
        sfc.ways = 16;
        mdt.ways = 16;
    });
    ArtifactSpec {
        artifact: "table_assoc_sweep",
        configs: vec![named("assoc-2", base), named("assoc-16", assoc16)],
        skip: FIG6_EXCLUDED,
    }
}

/// `table_assoc_sweep --hash`: low-bits vs XOR-folded set index.
pub fn assoc_hash() -> ArtifactSpec {
    let base = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    let xor = with_sfc_mdt(base.clone(), |sfc, mdt| {
        sfc.hash = SetHash::XorFold;
        mdt.hash = SetHash::XorFold;
    });
    ArtifactSpec {
        artifact: "table_assoc_sweep--hash",
        configs: vec![named("hash-low", base), named("hash-xor", xor)],
        skip: FIG6_EXCLUDED,
    }
}

/// `table_assoc_sweep --untagged`: tagged vs untagged MDT.
pub fn assoc_untagged() -> ArtifactSpec {
    let base = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    let untagged = with_sfc_mdt(base.clone(), |_, mdt| {
        mdt.tagging = MdtTagging::Untagged;
    });
    ArtifactSpec {
        artifact: "table_assoc_sweep--untagged",
        configs: vec![named("tagged", base), named("untagged", untagged)],
        skip: FIG6_EXCLUDED,
    }
}

/// `table_assoc_sweep --granularity`: the §2.2 granularity sweep.
pub fn assoc_granularity() -> ArtifactSpec {
    let base = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    let configs = [8u64, 16, 32, 64]
        .iter()
        .map(|&g| {
            let cfg = with_sfc_mdt(base.clone(), |_, mdt| mdt.granularity = g);
            (format!("granule-{g}"), cfg)
        })
        .collect();
    ArtifactSpec {
        artifact: "table_assoc_sweep--granularity",
        configs,
        skip: FIG6_EXCLUDED,
    }
}

/// `table_corruption`: the default aggressive ENF configuration.
pub fn table_corruption() -> ArtifactSpec {
    ArtifactSpec {
        artifact: "table_corruption",
        configs: vec![named("aggr-enf", SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build())],
        skip: FIG6_EXCLUDED,
    }
}

/// `table_corruption --endpoints`: corruption masks vs flush endpoints.
pub fn corruption_endpoints() -> ArtifactSpec {
    let base = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    let endpoints = with_sfc_mdt(base.clone(), |sfc, _| {
        sfc.corruption = CorruptionPolicy::FlushEndpoints { capacity: 16 };
    });
    ArtifactSpec {
        artifact: "table_corruption--endpoints",
        configs: vec![named("corrupt-bits", base), named("flush-endpoints", endpoints)],
        skip: FIG6_EXCLUDED,
    }
}

/// `table_corruption --partial`: combine-with-cache vs replay on partial
/// SFC matches.
pub fn corruption_partial() -> ArtifactSpec {
    let base = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    let mut replay = base.clone();
    replay.partial_match_policy = aim_core::PartialMatchPolicy::Replay;
    ArtifactSpec {
        artifact: "table_corruption--partial",
        configs: vec![named("combine", base), named("replay", replay)],
        skip: FIG6_EXCLUDED,
    }
}

/// `table_filter`: MDT geometries swept down from the aggressive design,
/// each with the §4 search filter off and on (alternating off/on pairs).
pub fn table_filter() -> ArtifactSpec {
    let geometries: &[(usize, usize)] = &[(1024, 16), (256, 1), (64, 1), (16, 1)];
    let mut configs = Vec::new();
    for &(sets, ways) in geometries {
        for filter in [false, true] {
            let mut cfg = with_sfc_mdt(
                SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build(),
                |_, mdt| *mdt = MdtConfig { sets, ways, ..*mdt },
            );
            cfg.mdt_filter = filter;
            configs.push((
                format!("mdt{sets}x{ways}-{}", if filter { "on" } else { "off" }),
                cfg,
            ));
        }
    }
    ArtifactSpec {
        artifact: "table_filter",
        configs,
        skip: FIG6_EXCLUDED,
    }
}

/// `table_power`: the two backends whose comparator work is contrasted.
pub fn table_power(aggressive: bool) -> ArtifactSpec {
    let configs = if aggressive {
        vec![
            named("lsq-120x80", SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Lsq).lsq(LsqConfig::aggressive_120x80()).build()),
            named("sfc-mdt-enf", SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build()),
        ]
    } else {
        vec![
            named("lsq-48x32", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build()),
            named("sfc-mdt-enf", SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build()),
        ]
    };
    ArtifactSpec {
        artifact: "table_power",
        configs,
        skip: &[],
    }
}

/// `table_backend_bounds`: the four baseline backends, ordered from the
/// no-speculation lower bound to the perfect-disambiguation upper bound —
/// the bracket every real backend's IPC must land inside.
pub fn table_backend_bounds() -> ArtifactSpec {
    ArtifactSpec {
        artifact: "table_backend_bounds",
        configs: vec![
            named("nospec", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::NoSpec).build()),
            named("lsq-48x32", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build()),
            named("sfc-mdt-enf", SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build()),
            named("oracle", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Oracle).build()),
        ],
        skip: &[],
    }
}

/// `table_hybrid`: the filtered LSQ (membership filter in front of the
/// associative store queue) against the plain LSQ, the §4-filtered
/// SFC/MDT, and the two bounds — all on the baseline machine, so the
/// hybrid lands inside the `table_backend_bounds` bracket.
pub fn table_hybrid() -> ArtifactSpec {
    let mut sfc_filtered = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    sfc_filtered.mdt_filter = true;
    ArtifactSpec {
        artifact: "table_hybrid",
        configs: vec![
            named("nospec", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::NoSpec).build()),
            named("lsq-48x32", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build()),
            named("filtered-lsq", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Filtered).build()),
            named("sfc-mdt-filt", sfc_filtered),
            named("oracle", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Oracle).build()),
        ],
        skip: &[],
    }
}

/// `table_pcax`: the PC-indexed classification backend against the plain
/// SFC/MDT it wraps, the 48×32 LSQ reference, and the two bounds — all on
/// the baseline machine, bracketing pcax between `nospec` and the best of
/// `oracle` / LSQ / SFC-MDT. Both SFC/MDT-family columns run their shared
/// builder default (`EnforceMode::All`, the paper's baseline ENF), so the
/// pair isolates the classification layer itself.
pub fn table_pcax() -> ArtifactSpec {
    ArtifactSpec {
        artifact: "table_pcax",
        configs: vec![
            named(BackendChoice::NoSpec.token(), SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::NoSpec).build()),
            named("lsq-48x32", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build()),
            named(BackendChoice::SfcMdt.token(), SimConfig::machine(MachineClass::Baseline).build()),
            named(BackendChoice::Pcax.token(), SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Pcax).build()),
            named(BackendChoice::Oracle.token(), SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Oracle).build()),
        ],
        skip: &[],
    }
}

/// The `table_pcax_sweep` grid: PC-table sets/ways × the no-alias acting
/// threshold. The tiny variant is the CI-sized 2×2 grid at the baseline
/// threshold only.
pub fn pcax_sweep_grid(tiny: bool) -> GeometryGrid {
    let baseline = PcaxConfig::baseline();
    if tiny {
        GeometryGrid {
            sets: vec![16, 256],
            ways: vec![1, 2],
            knobs: vec![u32::from(baseline.no_alias_act)],
            baseline_knob: u32::from(baseline.no_alias_act),
            hash: SetHash::LowBits,
        }
    } else {
        GeometryGrid {
            sets: vec![16, 64, 256, 1024],
            ways: vec![1, 2],
            knobs: vec![1, 2, 3],
            baseline_knob: u32::from(baseline.no_alias_act),
            hash: SetHash::LowBits,
        }
    }
}

/// `table_pcax_sweep`: the four bracket configs followed by one PCAX
/// config per grid point (`setsxways@t<threshold>`), all on the baseline
/// machine so every point lands inside the `table_backend_bounds` bracket.
pub fn table_pcax_sweep(grid: &GeometryGrid) -> ArtifactSpec {
    let mut configs = vec![
        named("nospec", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::NoSpec).build()),
        named("lsq-48x32", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build()),
        named("sfc-mdt", SimConfig::machine(MachineClass::Baseline).build()),
        named("oracle", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Oracle).build()),
    ];
    for (table, threshold) in grid.points() {
        let pcax = PcaxConfig {
            table,
            no_alias_act: u8::try_from(threshold).expect("threshold fits the confidence width"),
            ..PcaxConfig::baseline()
        };
        configs.push((
            format!("{}@t{threshold}", table.shape()),
            SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Pcax).pcax(pcax).build(),
        ));
    }
    ArtifactSpec {
        artifact: "table_pcax_sweep",
        configs,
        skip: &[],
    }
}

/// The `table_filter_sweep` grid: filter sets/ways × the counter
/// saturation point. The tiny variant is the CI-sized 2×2 grid at the
/// baseline counter width only.
pub fn filter_sweep_grid(tiny: bool) -> GeometryGrid {
    let baseline = FilterConfig::baseline();
    if tiny {
        GeometryGrid {
            sets: vec![16, 256],
            ways: vec![1, 2],
            knobs: vec![baseline.max_count],
            baseline_knob: baseline.max_count,
            hash: SetHash::LowBits,
        }
    } else {
        GeometryGrid {
            sets: vec![16, 64, 256, 1024],
            ways: vec![1, 2],
            knobs: vec![1, 3, 15],
            baseline_knob: baseline.max_count,
            hash: SetHash::LowBits,
        }
    }
}

/// `table_filter_sweep`: the three bracket configs followed by one
/// filtered-LSQ config per grid point (`setsxways@c<max_count>`), all on
/// the baseline machine.
pub fn table_filter_sweep(grid: &GeometryGrid) -> ArtifactSpec {
    let mut configs = vec![
        named("nospec", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::NoSpec).build()),
        named("lsq-48x32", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build()),
        named("oracle", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Oracle).build()),
    ];
    for (table, max_count) in grid.points() {
        let filter = FilterConfig {
            sets: table.sets,
            ways: table.ways,
            max_count,
        };
        configs.push((
            format!("{}@c{max_count}", table.shape()),
            SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Filtered).filter(filter).build(),
        ));
    }
    ArtifactSpec {
        artifact: "table_filter_sweep",
        configs,
        skip: &[],
    }
}

/// `table_hostperf`: every backend on both machine classes — the
/// host-throughput tracking matrix behind `BENCH_hostperf.json`. Config
/// names carry the `base-`/`aggr-` machine-class prefix the report's
/// aggregation keys on.
pub fn table_hostperf() -> ArtifactSpec {
    ArtifactSpec {
        artifact: "table_hostperf",
        configs: vec![
            named("base-nospec", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::NoSpec).build()),
            named("base-lsq-48x32", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build()),
            named("base-sfc-mdt-enf", SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build()),
            named("base-filtered-lsq", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Filtered).build()),
            named("base-pcax", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Pcax).build()),
            named("base-oracle", SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Oracle).build()),
            named("aggr-nospec", SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::NoSpec).build()),
            named("aggr-lsq-120x80", SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Lsq).lsq(LsqConfig::aggressive_120x80()).build()),
            named("aggr-sfc-mdt-enf", SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build()),
            named("aggr-filtered-lsq", SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Filtered).build()),
            named("aggr-pcax", SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Pcax).build()),
            named("aggr-oracle", SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Oracle).build()),
        ],
        skip: &[],
    }
}

/// The shared far-memory tier behind every `table_far_mem` cell: the
/// Figure 4 hierarchy plus a `latency`-cycle third level with 64 MSHRs
/// completing in batches of 8.
fn far_mem(latency: u64) -> MemSpec {
    MemSpec::figure4().with_far(FarSpec::new(latency, 64, 8))
}

/// `table_far_mem`: window size × far-memory latency per backend. Both
/// kilo-entry-window classes (aggressive 1024, huge 4096) run behind the
/// far tier at a moderate and an extreme latency, bracketed by no-spec
/// and oracle. Two LSQ columns tell the CAM story: the 120×80 queue — the
/// paper's largest *buildable* Figure 4 CAM — drowns when thousands of
/// instructions and hundreds-of-cycles loads are in flight, while the
/// 256×256 upper bound (every cell's normalization base) shows what an
/// unbuildable CAM would recover. The address-indexed SFC/MDT and PCAX
/// track the upper bound, not the buildable CAM.
pub fn table_far_mem() -> ArtifactSpec {
    let mut configs = Vec::new();
    for (class, tag) in [(MachineClass::Aggressive, "aggr"), (MachineClass::Huge, "huge")] {
        for lat in [200u64, 800] {
            let cell = |backend| SimConfig::machine(class).backend(backend).mem(far_mem(lat)).build();
            let lsq_cell = |lsq: LsqConfig| {
                SimConfig::machine(class)
                    .backend(BackendChoice::Lsq)
                    .lsq(lsq)
                    .mem(far_mem(lat))
                    .build()
            };
            configs.push((format!("{tag}-far{lat}-nospec"), cell(BackendChoice::NoSpec)));
            configs.push((
                format!("{tag}-far{lat}-lsq-120x80"),
                lsq_cell(LsqConfig::aggressive_120x80()),
            ));
            configs.push((
                format!("{tag}-far{lat}-lsq-256x256"),
                lsq_cell(LsqConfig::aggressive_256x256()),
            ));
            configs.push((format!("{tag}-far{lat}-sfc-mdt"), cell(BackendChoice::SfcMdt)));
            configs.push((format!("{tag}-far{lat}-pcax"), cell(BackendChoice::Pcax)));
            configs.push((format!("{tag}-far{lat}-oracle"), cell(BackendChoice::Oracle)));
        }
    }
    ArtifactSpec {
        artifact: "table_far_mem",
        configs,
        skip: FIG6_EXCLUDED,
    }
}

/// `table_window_sweep`: windows 128–1024, fixed 48×32 LSQ vs SFC/MDT
/// (window-major: `lsq@N` then `sfc-mdt@N` for each window size N).
pub fn table_window_sweep() -> ArtifactSpec {
    let mut configs = Vec::new();
    for window in [128usize, 256, 512, 1024] {
        let mut lsq = SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Lsq).lsq(LsqConfig::baseline_48x32()).build();
        lsq.rob_entries = window;
        lsq.phys_regs = window + 64;
        let mut sfc = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
        sfc.rob_entries = window;
        sfc.phys_regs = window + 64;
        configs.push((format!("lsq-48x32@w{window}"), lsq));
        configs.push((format!("sfc-mdt@w{window}"), sfc));
    }
    ArtifactSpec {
        artifact: "table_window_sweep",
        configs,
        skip: FIG6_EXCLUDED,
    }
}

/// Every artifact's default sweep (flag-gated sections excluded), one spec
/// per experiment binary — the set the smoke test drives.
pub fn all_default() -> Vec<ArtifactSpec> {
    vec![
        calibrate(false),
        fig4_boot(),
        fig5_baseline(),
        fig6_aggressive(),
        table_violations(),
        table_enf_effect(),
        table_assoc_sweep(),
        table_corruption(),
        table_filter(),
        table_filter_sweep(&filter_sweep_grid(true)),
        table_power(false),
        table_backend_bounds(),
        table_hostperf(),
        table_hybrid(),
        table_far_mem(),
        table_pcax(),
        table_pcax_sweep(&pcax_sweep_grid(true)),
        table_window_sweep(),
    ]
}
