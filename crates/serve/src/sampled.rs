//! The `table_sampled` sampling policy.
//!
//! Unlike the other experiment matrices, the sampled sweep cannot be a
//! static configuration list: the tuned policy *tiles* each kernel's
//! dynamic instruction count, so the [`SampleSpec`] differs per kernel and
//! is computed from the architectural trace length by [`sampled_policy`].
//! The `table_sampled` binary binds the per-kernel spec into the wire
//! `JobSpec`, which keeps the cells content-addressed — a sampled cell and
//! its full-detail twin hash to different cache keys, and any client
//! naming the same policy (the CLI's `submit --sample …`) shares the
//! entry.

use aim_types::SampleSpec;

/// Detailed windows the tuned policy spreads across the trace. Prime, so
/// the stratified schedule cannot phase-lock onto power-of-two loop
/// structure.
pub const SAMPLE_PERIODS: u32 = 11;

/// Detail share of each period: one instruction simulated cycle-accurately
/// per `SAMPLE_DETAIL_DIVISOR` fast-forwarded.
pub const SAMPLE_DETAIL_DIVISOR: u64 = 32;

/// The tuned sampled-simulation policy for a kernel whose architectural
/// trace retires `trace_len` instructions: [`SAMPLE_PERIODS`] periods
/// tiling the whole trace, each spending 1/[`SAMPLE_DETAIL_DIVISOR`] of
/// its span in the detailed machine. Tiling the *measured* length (rather
/// than the scale's nominal target) keeps long-tailed kernels from
/// extrapolating their final millions of instructions from a schedule
/// that ended early. On the huge/far-memory configuration this policy
/// holds every committed kernel within ±7% of full-detail IPC at an
/// 11×+ wall-clock speedup (see `EXPERIMENTS.md` T-SAMPLE).
pub fn sampled_policy(trace_len: u64) -> SampleSpec {
    let period = (trace_len / u64::from(SAMPLE_PERIODS)).max(8);
    let detail = (period / SAMPLE_DETAIL_DIVISOR).max(4);
    SampleSpec::new(period - detail, detail, SAMPLE_PERIODS)
        .expect("tiled policy has nonzero phases")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ConfigSpec;
    use crate::CacheEntry;
    use aim_pipeline::{BackendChoice, MachineClass};
    use aim_workloads::Scale;

    #[test]
    fn policy_tiles_the_trace_with_sparse_detail() {
        for len in [9u64, 1_000, 123_457, 2_000_000, 5_455_377] {
            let spec = sampled_policy(len);
            assert_eq!(spec.periods, SAMPLE_PERIODS);
            // The schedule spans the whole trace (within one period of
            // rounding), so no long tail is left to one-sided
            // extrapolation.
            let span = spec.period_insts() * u64::from(spec.periods);
            assert!(span <= len.max(8 * u64::from(SAMPLE_PERIODS)));
            assert!(span + spec.period_insts() * u64::from(SAMPLE_PERIODS) >= len);
            // Detail stays a sparse slice of each period.
            assert!(spec.detail_insts >= 4);
            assert!(
                spec.detail_insts <= (spec.period_insts() / SAMPLE_DETAIL_DIVISOR).max(4),
                "detail {} of period {} at len {len}",
                spec.detail_insts,
                spec.period_insts()
            );
        }
    }

    #[test]
    fn sampled_stats_round_trip_through_the_canonical_text() {
        // Run one sampled cell and read its cached statistics record back:
        // the coverage counters survive, and so does everything else.
        let workload = aim_workloads::by_name("gzip", Scale::Tiny).unwrap();
        let prepared = aim_bench::prepare(workload, Scale::Tiny);
        let spec = ConfigSpec {
            sample: Some(sampled_policy(prepared.trace.len() as u64)),
            ..ConfigSpec::new(MachineClass::Baseline, BackendChoice::SfcMdt)
        };
        let stats = aim_bench::run(&prepared, &spec.to_config());
        let back = CacheEntry::from_stats(&stats).stats().unwrap();
        assert_eq!(back, stats.with_zeroed_host());
        let sampled = back.sampled.expect("sampled run records coverage");
        assert!(sampled.periods_run > 0);
        assert!(sampled.warm_retired > 0);
    }
}
