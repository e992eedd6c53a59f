//! The `table_far_mem` request matrix and the far-tier stats decoder.
//!
//! The far-memory sweep is the first experiment binary routed through the
//! job server rather than `aim_bench::run_matrix`: its cells are
//! [`ConfigSpec`]s submitted over framed connections
//! ([`run_cells`](crate::run_cells)), so the matrix is content-addressed —
//! a warm rerun, or any other client naming the same cell through the
//! extended wire `JobSpec` (the CLI's `submit --machine huge --far …`),
//! is answered from the shared cache without simulating.
//!
//! The server replies with the canonical statistics text, not a
//! [`SimStats`](aim_pipeline::SimStats) struct, so the far-tier counters
//! the report needs are decoded from that text by [`parse_far_stats`] —
//! the format is the byte-stable `Debug` rendering the cache's
//! fingerprints already pin.

use crate::proto::ConfigSpec;
use aim_pipeline::{BackendChoice, FarSpec, FarStats, LsqConfig, MachineClass};

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

/// Decodes the far-tier counters from a canonical statistics text (the
/// byte-stable `Debug` rendering cached entries store). Returns `None`
/// when the run had no far tier or the text does not carry a well-formed
/// `far: Some(FarStats { … })` field.
pub fn parse_far_stats(stats_text: &str) -> Option<FarStats> {
    const OPEN: &str = "far: Some(FarStats { ";
    let start = stats_text.find(OPEN)?;
    let body = &stats_text[start + OPEN.len()..];
    let body = &body[..body.find(" })")?];
    let mut stats = FarStats::default();
    for field in body.split(", ") {
        let (key, value) = field.split_once(": ")?;
        match key {
            "accesses" => stats.accesses = value.parse().ok()?,
            "coalesced" => stats.coalesced = value.parse().ok()?,
            "busy" => stats.busy = value.parse().ok()?,
            "overflow" => stats.overflow = value.parse().ok()?,
            "peak_inflight" => stats.peak_inflight = value.parse().ok()?,
            _ => return None,
        }
    }
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Pin the decoder against the real rendering, not a hand-written
        // imitation: simulate one far-tier cell and parse its canonical
        // statistics text back.
        let (_, spec) = &farmem_configs()[3]; // aggr-far200-sfc-mdt
        let workload = aim_workloads::by_name("gzip", Scale::Tiny).unwrap();
        let prepared = aim_bench::prepare(workload, Scale::Tiny);
        let stats = aim_bench::run(&prepared, &spec.to_config());
        let text = format!("{:?}", stats.with_zeroed_host());
        assert_eq!(parse_far_stats(&text), stats.far, "decoder diverges from Debug");
        assert!(stats.far.expect("far tier configured").accesses > 0);
    }

    #[test]
    fn far_stats_decoder_rejects_farless_and_malformed_texts() {
        assert_eq!(parse_far_stats("SimStats { cycles: 12 }"), None);
        assert_eq!(parse_far_stats("far: Some(FarStats { accesses: x })"), None);
        let text = "far: Some(FarStats { accesses: 3, coalesced: 1, busy: 0, \
                    overflow: 2, peak_inflight: 4 })";
        assert_eq!(
            parse_far_stats(text),
            Some(FarStats { accesses: 3, coalesced: 1, busy: 0, overflow: 2, peak_inflight: 4 })
        );
    }
}
