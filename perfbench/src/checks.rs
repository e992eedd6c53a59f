//! Correctness checks of the benchmark's outputs. Each returns the
//! operations it failed, so a broken output is counted, never ignored.

use aim_serve::{CacheEntry, JobResponse, Source};

/// One served answer: the decoded reply, or the transport, protocol or
/// `ok: false` error that replaced it.
pub type Answer = Result<JobResponse, String>;

/// A recomputed statistics fingerprint against the committed one: all
/// `cells` it covers fail when they differ, since a fingerprint cannot
/// say which cell moved.
pub fn fingerprint_failures(computed: u64, committed: u64, cells: u64) -> u64 {
    if computed == committed {
        0
    } else {
        cells
    }
}

/// Whether a served answer carries exactly `entry`'s statistics.
fn same_entry(resp: &JobResponse, entry: &CacheEntry) -> bool {
    resp.cycles == entry.cycles
        && resp.retired == entry.retired
        && resp.stats_text == entry.stats_text
        && resp.fingerprint == entry.fingerprint()
}

/// Cold answers against in-process runs of the same cells, index for
/// index. A cold answer fails if it is an error, was not simulated by
/// this request, or differs from the reference; a cell whose reference
/// run itself failed fails too.
pub fn cold_failures(cold: &[Answer], reference: &[Result<CacheEntry, String>]) -> Vec<usize> {
    cold.iter()
        .zip(reference)
        .enumerate()
        .filter(|(_, (answer, reference))| match (answer, reference) {
            (Ok(resp), Ok(entry)) => resp.source != Source::Sim || !same_entry(resp, entry),
            _ => true,
        })
        .map(|(i, _)| i)
        .collect()
}

/// Warm answers against the cold answers of the same cells, index for
/// index. A warm answer fails if it is an error, did not come from the
/// cache, or differs from the cold answer in any byte of its key,
/// headline counters, fingerprint or statistics text.
pub fn warm_failures(warm: &[Answer], cold: &[Answer]) -> Vec<usize> {
    warm.iter()
        .zip(cold)
        .enumerate()
        .filter(|(_, (warm, cold))| match (warm, cold) {
            (Ok(w), Ok(c)) => {
                w.source != Source::Cache
                    || w.key != c.key
                    || w.cycles != c.cycles
                    || w.retired != c.retired
                    || w.fingerprint != c.fingerprint
                    || w.stats_text.as_bytes() != c.stats_text.as_bytes()
            }
            _ => true,
        })
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Outcome;
    use aim_pipeline::{MachineClass, SimConfig};
    use aim_workloads::Scale;

    fn answer(source: Source, entry: &CacheEntry) -> Answer {
        Ok(JobResponse {
            key: "0123456789abcdef0123456789abcdef".into(),
            source,
            cycles: entry.cycles,
            retired: entry.retired,
            fingerprint: entry.fingerprint(),
            stats_text: entry.stats_text.clone(),
            verify: None,
        })
    }

    fn entry() -> CacheEntry {
        CacheEntry {
            cycles: 1200,
            retired: 1000,
            stats_text: "SimStats { cycles: 1200 }".into(),
        }
    }

    #[test]
    fn a_wrong_fingerprint_fails_every_covered_cell() {
        assert_eq!(
            fingerprint_failures(0x84db_237e_159a_2c35, 0x84db_237e_159a_2c35, 240),
            0
        );
        assert_eq!(
            fingerprint_failures(0x84db_237e_159a_2c36, 0x84db_237e_159a_2c35, 240),
            240
        );
    }

    #[test]
    fn a_byte_altered_warm_answer_is_counted() {
        let e = entry();
        let cold = vec![answer(Source::Sim, &e), answer(Source::Sim, &e)];
        let warm = vec![answer(Source::Cache, &e), answer(Source::Cache, &e)];
        assert!(warm_failures(&warm, &cold).is_empty());

        let mut altered = warm.clone();
        if let Ok(resp) = &mut altered[1] {
            resp.stats_text.replace_range(0..1, "Z");
        }
        assert_eq!(warm_failures(&altered, &cold), vec![1]);

        // A warm answer that had to simulate, or an error, fails as well.
        let resimulated = vec![answer(Source::Sim, &e), Err("transport closed".into())];
        assert_eq!(warm_failures(&resimulated, &cold), vec![0, 1]);
    }

    #[test]
    fn cold_answers_must_match_the_in_process_reference() {
        let e = entry();
        let reference = vec![Ok(e.clone()), Ok(e.clone()), Err("deadlock".into())];
        let mut other = e.clone();
        other.cycles += 1;
        let cold = vec![
            answer(Source::Sim, &e),
            answer(Source::Sim, &other),
            answer(Source::Sim, &e),
        ];
        assert_eq!(cold_failures(&cold, &reference), vec![1, 2]);
        // An answer from a cache that should have been empty fails.
        let cached = vec![answer(Source::Cache, &e)];
        assert_eq!(cold_failures(&cached, &reference[..1]), vec![0]);
    }

    #[test]
    fn a_failing_cell_is_counted_not_ignored() {
        // One kernel's program validated against another kernel's golden
        // trace: retirement diverges, and the cell must fail.
        let mut layers = crate::layers::Layers::default();
        let (gzip, _) = crate::common::prepare("gzip", Scale::Tiny, None, 0, &mut layers);
        let (mcf, _) = crate::common::prepare("mcf", Scale::Tiny, None, 0, &mut layers);
        let mismatched = aim_bench::Prepared {
            trace: mcf.trace,
            ..gzip
        };
        let cfg = SimConfig::machine(MachineClass::Baseline).build();
        let mut out = Outcome::default();
        if let Err(e) = crate::common::run_cell(&mismatched, &cfg, None, 0).result {
            out.fail(1, e);
        }
        assert_eq!(out.failed, 1);
        assert_eq!(out.findings.len(), 1);
    }
}
