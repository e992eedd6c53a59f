//! The scheduler census under `--paranoid`.
//!
//! A paranoid run checks the scheduler's invariants every issue cycle and
//! after every squash (each waiting instruction parked in exactly the place
//! it names, its unready-source count exact, the ready ring holding exactly
//! the ready instructions, the stall FIFO in snapshot order); see
//! `Core::debug_check_scheduler`. The checks only observe, so each paranoid
//! run must also reproduce its plain twin's statistics exactly.

use aim_isa::{Interpreter, Program, Trace};
use aim_pipeline::{
    BackendChoice, Core, CoreSchedule, MachineClass, MultiMachine, SimConfig, SimStats,
};
use aim_types::SampleSpec;
use aim_workloads::Scale;

fn prepared(index: usize) -> (&'static str, Program, Trace) {
    let w = aim_workloads::all(Scale::Tiny).swap_remove(index);
    let trace = Interpreter::new(&w.program)
        .run(10 * Scale::Tiny.target_instrs())
        .expect("golden run");
    assert!(trace.halted(), "{} must halt at Tiny", w.name);
    (w.name, w.program, trace)
}

fn run(program: &Program, trace: &Trace, cfg: &SimConfig) -> SimStats {
    Core::new(program, trace, cfg.clone())
        .run()
        .expect("validated run")
        .with_zeroed_host()
}

fn paranoid(cfg: &SimConfig) -> SimConfig {
    let mut cfg = cfg.clone();
    cfg.paranoid = true;
    cfg
}

/// Every backend on every machine class, each cell on a different kernel
/// (18 of the 20), so the census sees every window size and every replay
/// and stall-bit discipline.
#[test]
fn paranoid_census_holds_and_matches_plain_runs_on_every_backend_and_class() {
    for (c, class) in MachineClass::ALL.into_iter().enumerate() {
        for (b, choice) in BackendChoice::ALL.into_iter().enumerate() {
            let (name, program, trace) = prepared(c * BackendChoice::ALL.len() + b);
            let cfg = SimConfig::machine(class).backend(choice).build();
            assert_eq!(
                run(&program, &trace, &paranoid(&cfg)),
                run(&program, &trace, &cfg),
                "{name} on {class}/{}: paranoid run diverged",
                choice.token()
            );
        }
    }
}

/// A sampled cell (detail windows entered and drained around functional
/// warm-up) and the single-core `MultiMachine` pass the census too, and
/// match their plain twins.
#[test]
fn paranoid_census_holds_for_a_sampled_cell_and_a_one_core_multimachine() {
    let (name, program, trace) = prepared(18);
    let period = (trace.len() as u64 / 5).max(8);
    let spec = SampleSpec::new(period / 2, period - period / 2, 5).expect("non-zero policy");
    let sampled = SimConfig::machine(MachineClass::Aggressive)
        .backend(BackendChoice::SfcMdt)
        .sample(spec)
        .build();
    assert_eq!(
        run(&program, &trace, &paranoid(&sampled)),
        run(&program, &trace, &sampled),
        "{name}: paranoid sampled run diverged"
    );

    let (name, program, trace) = prepared(19);
    let cfg = SimConfig::machine(MachineClass::Huge)
        .backend(BackendChoice::SfcMdt)
        .build();
    let one_core = |cfg: &SimConfig| {
        MultiMachine::new(&[(&program, &trace)], cfg.clone())
            .run(CoreSchedule::RoundRobin)
            .expect("validated run")
            .per_core
            .remove(0)
            .with_zeroed_host()
    };
    let multi = one_core(&paranoid(&cfg));
    assert_eq!(multi, one_core(&cfg), "{name}: paranoid N=1 run diverged");
    assert_eq!(multi, run(&program, &trace, &cfg), "{name}: N=1 differs from single-core");
}
