//! Integration tests for the parallel sweep runner: determinism across
//! thread counts, every artifact's spec matrix at tiny scale, and event
//! recording as a pure observer.

use aim_bench::{prepare_all, run_matrix, run_matrix_timed, specs, Report, SweepReport};
use aim_pipeline::{BackendChoice, Core, MachineClass, simulate_with_trace, SimConfig};
use aim_workloads::Scale;

/// A broad config set covering all six backends and both machine classes.
fn determinism_configs() -> Vec<(String, SimConfig)> {
    let mut configs = specs::fig5_baseline().configs;
    configs.extend(specs::table_violations().configs);
    configs.push((
        "filtered-lsq".to_string(),
        SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Filtered).build(),
    ));
    configs.push((
        "pcax".to_string(),
        SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Pcax).build(),
    ));
    configs.push(("oracle".to_string(), SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Oracle).build()));
    configs.push(("nospec".to_string(), SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::NoSpec).build()));
    configs
}

#[test]
fn parallel_matrix_is_byte_identical_to_serial() {
    let prepared = prepare_all(Scale::Tiny);
    let configs = determinism_configs();
    let serial = run_matrix(&prepared, &configs, 1);
    let parallel = run_matrix(&prepared, &configs, 4);
    assert_eq!(serial.n_workloads(), prepared.len());
    assert_eq!(parallel.n_configs(), configs.len());
    for (w, c, stats) in serial.iter() {
        // Host-side wall-clock timings legitimately differ between runs;
        // every simulated quantity must not.
        assert_eq!(
            stats.with_zeroed_host(),
            parallel.get(w, c).with_zeroed_host(),
            "jobs=4 diverged from jobs=1 on {} under {}",
            prepared[w].name, configs[c].0
        );
    }
}

#[test]
fn every_artifact_spec_simulates_at_tiny() {
    let all = specs::all_default();
    assert_eq!(all.len(), 18, "one spec per experiment binary");
    let jobs = aim_bench::resolve_jobs(0);
    for spec in &all {
        let workloads = spec.workloads(Scale::Tiny);
        assert!(!spec.configs.is_empty(), "{}: empty config list", spec.artifact);
        let (matrix, wall) = run_matrix_timed(&workloads, &spec.configs, jobs);
        for (w, c, stats) in matrix.iter() {
            assert!(
                stats.retired > 0,
                "{}: {} under {} retired nothing",
                spec.artifact,
                workloads[w].name,
                spec.configs[c].0
            );
            assert!(
                stats.host.wall_ns > 0,
                "{}: {} under {} recorded no host time",
                spec.artifact,
                workloads[w].name,
                spec.configs[c].0
            );
        }
        // The report renders without panicking and carries every cell.
        let report =
            SweepReport::from_matrix(spec.artifact, jobs, wall, &workloads, &spec.configs, &matrix);
        assert_eq!(report.rows.len(), workloads.len() * spec.configs.len());
        assert!(report.to_json().contains("aim-bench-sweep/v1"));
    }
}

#[test]
fn named_config_lookup_panics_on_unknown() {
    let spec = specs::fig5_baseline();
    assert_eq!(spec.index("lsq-48x32"), 0);
    let err = std::panic::catch_unwind(|| spec.index("nonesuch"));
    assert!(err.is_err());
}

/// Recording the event stream only observes: on every backend and both
/// machine classes, a recorded run's statistics equal the plain run's up
/// to host timings.
#[test]
fn recording_is_observation_only() {
    let p = aim_bench::prepare(
        aim_workloads::by_name("gzip", Scale::Tiny).unwrap(),
        Scale::Tiny,
    );
    for class in [MachineClass::Baseline, MachineClass::Aggressive] {
        for backend in BackendChoice::ALL {
            let cfg = SimConfig::machine(class).backend(backend).build();
            let plain = simulate_with_trace(&p.program, &p.trace, &cfg).unwrap();
            assert!(plain.host.wall_ns > 0);
            let (recorded, events) =
                Core::new(&p.program, &p.trace, cfg).run_recorded().unwrap();
            assert!(!events.is_empty(), "{class}/{backend}: nothing recorded");
            assert_eq!(
                recorded.with_zeroed_host(),
                plain.with_zeroed_host(),
                "{class}/{backend}: recording changed the statistics"
            );
        }
    }
}

#[test]
fn empty_inputs_yield_empty_matrix() {
    let configs = determinism_configs();
    let matrix = run_matrix(&[], &configs, 8);
    assert_eq!(matrix.n_workloads(), 0);
    let report = SweepReport::from_matrix(
        "empty",
        8,
        std::time::Duration::ZERO,
        &[],
        &configs,
        &matrix,
    );
    assert!(report.to_json().contains("\"rows\": [\n  ]"));
}
