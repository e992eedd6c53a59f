//! Sampled-simulation policy.

use std::fmt;
use std::str::FromStr;

use crate::token::split_x;

/// The sampling policy of a sampled (fast-forward) simulation run: the
/// pipeline alternates *detailed* cycle-accurate windows of `detail_insts`
/// instructions with *functional warm-up* stretches of `warm_insts`
/// instructions (the architectural interpreter trace drives the cache
/// hierarchy, branch predictor, and memory-backend training — no
/// cycle-accurate pipeline), for `periods` repetitions starting with a
/// detailed window on the cold machine; any remainder of the program runs
/// functionally. Timing statistics are extrapolated from the detailed
/// windows; architectural state is exact in every mode.
///
/// All three fields must be nonzero: a zero-length phase would degenerate
/// into either full detail or pure functional simulation, both of which are
/// spelled by *not* sampling.
///
/// # Examples
///
/// ```
/// use aim_types::SampleSpec;
///
/// let spec = SampleSpec::new(2_000, 1_000, 8).unwrap();
/// assert_eq!(spec.period_insts(), 3_000);
/// assert!(SampleSpec::new(0, 1_000, 8).is_none());
/// assert_eq!("2000x1000x8".parse(), Ok(spec));
/// assert_eq!(spec.to_string(), "2000x1000x8");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleSpec {
    /// Instructions fast-forwarded functionally before each detailed window.
    pub warm_insts: u64,
    /// Instructions simulated cycle-accurately per detailed window.
    pub detail_insts: u64,
    /// Number of warm+detail periods; after the last one the rest of the
    /// program runs functionally.
    pub periods: u32,
}

impl SampleSpec {
    /// Builds a spec, rejecting any zero field.
    pub fn new(warm_insts: u64, detail_insts: u64, periods: u32) -> Option<SampleSpec> {
        if warm_insts == 0 || detail_insts == 0 || periods == 0 {
            return None;
        }
        Some(SampleSpec {
            warm_insts,
            detail_insts,
            periods,
        })
    }

    /// Instructions covered by one warm+detail period.
    pub fn period_insts(&self) -> u64 {
        self.warm_insts + self.detail_insts
    }
}

/// The `WARMxDETAILxPERIODS` token, e.g. `20000x2000x10`.
impl fmt::Display for SampleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}",
            self.warm_insts, self.detail_insts, self.periods
        )
    }
}

impl FromStr for SampleSpec {
    type Err = String;

    /// Parses `WARMxDETAILxPERIODS`, rejecting the zero fields
    /// [`SampleSpec::new`] rejects.
    fn from_str(s: &str) -> Result<SampleSpec, String> {
        let [warm, detail, periods] = split_x::<u64, 3>("sample", "WARMxDETAILxPERIODS", s)?;
        let periods = u32::try_from(periods)
            .map_err(|_| format!("sample periods must fit in 32 bits, got `{s}`"))?;
        SampleSpec::new(warm, detail, periods)
            .ok_or_else(|| format!("sampling parameters must be nonzero, got `{s}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_fields() {
        assert!(SampleSpec::new(1, 1, 1).is_some());
        assert!(SampleSpec::new(0, 1, 1).is_none());
        assert!(SampleSpec::new(1, 0, 1).is_none());
        assert!(SampleSpec::new(1, 1, 0).is_none());
    }

    #[test]
    fn token_round_trips_and_rejects_zero_fields() {
        let spec = SampleSpec::new(20_000, 2_000, 10).unwrap();
        assert_eq!(spec.to_string().parse(), Ok(spec));
        let err = "2000x0x10".parse::<SampleSpec>().unwrap_err();
        assert!(err.contains("nonzero"), "{err}");
        let err = "2000x500".parse::<SampleSpec>().unwrap_err();
        assert!(err.contains("WARMxDETAILxPERIODS"), "{err}");
        assert!("1x1x4294967296".parse::<SampleSpec>().is_err());
    }

    #[test]
    fn debug_text_is_stable() {
        // The canonical-config cache key embeds this Debug rendering; the
        // exact text is a compatibility surface.
        let spec = SampleSpec::new(2_000, 500, 10).unwrap();
        assert_eq!(
            format!("{spec:?}"),
            "SampleSpec { warm_insts: 2000, detail_insts: 500, periods: 10 }"
        );
    }
}
