//! The statistics record is lossless: every real run's `SimStats` reads
//! back from its record equal to itself, and no field is swapped or
//! misrouted on the way.

use aim_bench::{prepare, prepare_all, run, run_matrix, specs};
use aim_pipeline::{FarStats, SampledStats, SimStats};
use aim_types::record::Record;
use aim_types::wire::{WireMsg, WireValue};
use aim_workloads::Scale;

/// The 12 hostperf configurations × 20 kernels at tiny scale. (A far-tier
/// and a sampled cell round-trip through the cache entry in `aim-serve`'s
/// `farmem` and `sampled` tests.)
#[test]
fn real_runs_round_trip_through_their_records() {
    let prepared = prepare_all(Scale::Tiny);
    let hostperf = specs::table_hostperf();
    let matrix = run_matrix(&prepared, &hostperf.configs, 2);
    for (w, c, stats) in matrix.iter() {
        let text = stats.write().to_json();
        let back = SimStats::read(&WireMsg::parse(&text).unwrap());
        let (kernel, config) = (prepared[w].name, &hostperf.configs[c].0);
        assert_eq!(back.as_ref(), Ok(stats), "{kernel} under {config}");
    }
    assert_eq!(matrix.iter().count(), 12 * 20);
}

/// Gives every integer leaf of `msg` a value no other leaf has, keeping
/// the string leaves (the backend family tag) as they are.
fn renumber(msg: &WireMsg) -> WireMsg {
    let mut out = WireMsg::new();
    for (i, key) in msg.keys().enumerate() {
        match msg.get(key) {
            Some(WireValue::U64(_)) => out.put_u64(key, 1_000 + i as u64),
            Some(WireValue::Str(s)) => out.put_str(key, s),
            other => panic!("unexpected leaf {key}: {other:?}"),
        };
    }
    out
}

/// A reader that swapped two fields of the same type, or filed a value
/// under the wrong struct, would still round-trip a record whose leaves
/// happen to be equal (most counters of a short run are zero). With every
/// leaf distinct, read-then-write must reproduce the text exactly — on
/// every backend variant, with the far and sampled sections present.
#[test]
fn distinct_leaf_values_survive_read_then_write() {
    let gzip = prepare(aim_workloads::by_name("gzip", Scale::Tiny).unwrap(), Scale::Tiny);
    for (name, cfg) in specs::table_hostperf().configs {
        let mut stats = run(&gzip, &cfg);
        stats.far = Some(FarStats::default());
        stats.sampled = Some(SampledStats::default());
        let distinct = renumber(&stats.write());
        let text = distinct.to_json();
        let back = SimStats::read(&distinct).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back.write().to_json(), text, "{name}: a field was misrouted");
        let wall_at = distinct.keys().position(|k| k == "host.wall_ns").expect("host section");
        assert_eq!(back.host.wall_ns, 1_000 + wall_at as u64);
    }
}
