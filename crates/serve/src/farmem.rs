//! The `table_far_mem` request matrix.
//!
//! The far-memory sweep is routed through the job server rather than
//! `aim_bench::run_matrix`: its cells are [`ConfigSpec`]s submitted over
//! framed connections ([`serve_matrix`](crate::serve_matrix)), so the
//! matrix is content-addressed — a warm rerun, or any other client naming
//! the same cell through the extended wire `JobSpec` (the CLI's `submit
//! --machine huge --far …`), is answered from the shared cache without
//! simulating. The far-tier counters the report needs come back typed:
//! each response's statistics record reads back into a `SimStats`.

use crate::proto::ConfigSpec;
use aim_pipeline::{BackendChoice, FarSpec, LsqConfig, MachineClass};

/// The 24 `table_far_mem` configurations as job specs, name for name
/// (`tests::farmem_configs_mirror_the_bench_spec` pins the correspondence
/// against [`aim_bench::specs::table_far_mem`]): both kilo-entry-window
/// machine classes × far latencies {200, 800} × the six bracket columns
/// (no-spec, the buildable 120×80 CAM, the 256×256 upper-bound CAM,
/// SFC/MDT, PCAX, oracle), every cell behind a 64-MSHR batch-8 far tier.
pub fn farmem_configs() -> Vec<(String, ConfigSpec)> {
    let mut configs = Vec::new();
    for (class, tag) in [(MachineClass::Aggressive, "aggr"), (MachineClass::Huge, "huge")] {
        for lat in [200u64, 800] {
            let far = Some(FarSpec::new(lat, 64, 8));
            let cell = |backend| ConfigSpec { far, ..ConfigSpec::new(class, backend) };
            let lsq_cell = |lsq| ConfigSpec {
                far,
                lsq: Some(lsq),
                ..ConfigSpec::new(class, BackendChoice::Lsq)
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
    configs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheEntry;
    use aim_workloads::Scale;

    #[test]
    fn farmem_configs_mirror_the_bench_spec_name_for_name() {
        let bench = aim_bench::specs::table_far_mem();
        let ours = farmem_configs();
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

    #[test]
    fn far_stats_round_trip_through_the_canonical_text() {
        // Simulate one far-tier cell and read its cached statistics record
        // back: the far counters survive, and so does everything else.
        let (_, spec) = &farmem_configs()[3]; // aggr-far200-sfc-mdt
        let workload = aim_workloads::by_name("gzip", Scale::Tiny).unwrap();
        let prepared = aim_bench::prepare(workload, Scale::Tiny);
        let stats = aim_bench::run(&prepared, &spec.to_config());
        let back = CacheEntry::from_stats(&stats).stats().unwrap();
        assert_eq!(back, stats.with_zeroed_host());
        assert!(back.far.expect("far tier configured").accesses > 0);
    }
}
