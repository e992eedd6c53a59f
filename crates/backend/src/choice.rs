//! The backend vocabulary: one name per backend family, shared by CLI
//! parsing, bench spec names, and JSON report strings.

use core::fmt;
use std::str::FromStr;

use aim_types::token::parse_choice;

/// Which backend family a run selects — the single source of truth for the
/// `--backend` CLI flag, bench spec config names, and the `backend` strings
/// in JSON reports. Parsing ([`FromStr`]) and printing ([`fmt::Display`])
/// round-trip through [`BackendChoice::token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// No speculation: the lower performance bound (`nospec`).
    NoSpec,
    /// The idealized CAM load/store queue (`lsq`).
    Lsq,
    /// The LSQ behind the store-presence filter (`filtered`).
    Filtered,
    /// The paper's SFC + MDT + store FIFO (`sfc-mdt`).
    #[default]
    SfcMdt,
    /// The PC-indexed classification backend over SFC + MDT (`pcax`).
    Pcax,
    /// Perfect disambiguation: the upper performance bound (`oracle`).
    Oracle,
}

impl BackendChoice {
    /// Every backend, in the order `compare` prints them: the bounds bracket
    /// the real schemes (no-spec first, oracle last).
    pub const ALL: [BackendChoice; 6] = [
        BackendChoice::NoSpec,
        BackendChoice::Lsq,
        BackendChoice::Filtered,
        BackendChoice::SfcMdt,
        BackendChoice::Pcax,
        BackendChoice::Oracle,
    ];

    /// The canonical lowercase token (`nospec`, `lsq`, `filtered`,
    /// `sfc-mdt`, `pcax`, `oracle`).
    pub fn token(self) -> &'static str {
        match self {
            BackendChoice::NoSpec => "nospec",
            BackendChoice::Lsq => "lsq",
            BackendChoice::Filtered => "filtered",
            BackendChoice::SfcMdt => "sfc-mdt",
            BackendChoice::Pcax => "pcax",
            BackendChoice::Oracle => "oracle",
        }
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Parses the [`BackendChoice::token`]; an unknown token's error lists
/// the vocabulary.
impl FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<BackendChoice, String> {
        parse_choice("backend", &BackendChoice::ALL, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_through_parse_and_display() {
        for choice in BackendChoice::ALL {
            assert_eq!(choice.to_string().parse::<BackendChoice>(), Ok(choice));
        }
    }

    #[test]
    fn all_covers_six_backends_bounds_first_and_last() {
        assert_eq!(BackendChoice::ALL.len(), 6);
        assert_eq!(BackendChoice::ALL[0], BackendChoice::NoSpec);
        assert_eq!(BackendChoice::ALL[5], BackendChoice::Oracle);
    }

    #[test]
    fn default_is_the_papers_backend() {
        assert_eq!(BackendChoice::default(), BackendChoice::SfcMdt);
    }

    #[test]
    fn unknown_token_reports_itself() {
        let err = "sfc".parse::<BackendChoice>().unwrap_err();
        assert_eq!(err, "unknown backend `sfc` (nospec|lsq|filtered|sfc-mdt|pcax|oracle)");
    }
}
