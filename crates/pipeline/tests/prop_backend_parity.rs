//! Cross-backend architectural equivalence: every memory backend — the
//! idealized LSQ, the filtered LSQ, the paper's SFC/MDT, the PC-indexed
//! PCAX, and the oracle / no-spec bounds — must retire the *same
//! architectural state* (register
//! file and committed memory image) as the in-order interpreter, on
//! randomly generated store/load-heavy programs. The backends differ only
//! in timing.
//!
//! Additionally, the oracle backend must never mis-speculate: perfect
//! disambiguation means zero memory-ordering flushes, always.
//!
//! Seeds that found historical failures are pinned in
//! `prop_backend_parity.proptest-regressions` and replayed explicitly by
//! [`regression_seeds_stay_green`] (the vendored proptest does not consume
//! regression files itself, so the test parses the standard format and
//! re-runs every recorded seed).

use aim_isa::{Interpreter, Reg};
use aim_pipeline::{BackendChoice, Core, MachineClass, SimConfig};
use aim_workloads::stress::random_program;
use proptest::prelude::*;

/// All six baseline backends, labelled for failure messages. The builder
/// picks each family's evaluated predictor mode (EnforceMode::All for the
/// SFC/MDT and PCAX, TrueOnly elsewhere).
fn backend_configs() -> Vec<(&'static str, SimConfig)> {
    BackendChoice::ALL
        .into_iter()
        .map(|choice| {
            (
                choice.token(),
                SimConfig::machine(MachineClass::Baseline).backend(choice).build(),
            )
        })
        .collect()
}

/// One parity check: every backend retires the interpreter's architectural
/// state for this program seed.
fn check_parity(seed: u64) -> Result<(), TestCaseError> {
    let program = random_program(seed, 20, 20);
    let mut interp = Interpreter::new(&program);
    let trace = interp.run(500_000).unwrap();
    prop_assert!(trace.halted());
    let want_regs: Vec<u64> = (0..32).map(|i| interp.reg(Reg::new(i))).collect();
    let want_mem = interp.memory().nonzero_bytes();

    for (name, cfg) in backend_configs() {
        let (stats, fin) = Core::new(&program, &trace, cfg)
            .run_final()
            .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
        prop_assert_eq!(stats.retired, trace.len() as u64, "{} retired short", name);
        prop_assert_eq!(&fin.regs, &want_regs, "{} register file diverged", name);
        prop_assert_eq!(
            fin.mem.nonzero_bytes(),
            want_mem.clone(),
            "{} memory image diverged",
            name
        );
        if name == "oracle" {
            prop_assert_eq!(
                stats.flushes.memory(),
                0,
                "perfect disambiguation mis-speculated"
            );
        }
    }
    Ok(())
}

proptest! {
    // Each case runs one interpreter pass plus six full simulations.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_backends_retire_the_interpreter_state(seed in any::<u64>()) {
        check_parity(seed)?;
    }
}

/// Replays every seed recorded in the sibling `.proptest-regressions` file.
/// Lines follow proptest's standard format — `cc <hash> # shrinks to
/// seed = N` — so upstream tooling that *does* consume the file agrees
/// with this test about what it means.
#[test]
fn regression_seeds_stay_green() {
    let recorded = include_str!("prop_backend_parity.proptest-regressions");
    let mut replayed = 0;
    for line in recorded.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let seed: u64 = line
            .split("seed = ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("malformed regression line: {line}"));
        check_parity(seed).unwrap_or_else(|e| panic!("regression seed {seed}: {e}"));
        replayed += 1;
    }
    assert!(replayed >= 4, "regression file lost its seeds");
}
