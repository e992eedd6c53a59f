//! Building blocks of the configuration-token grammar.
//!
//! Every configuration knob a user can name — machine class, backend,
//! enforcement mode, scale, LSQ capacity, table shape, far tier, sampling
//! policy — has exactly one `Display` + `FromStr` pair, in the crate that
//! owns the type. The CLI flags and the `aim-serve` wire fields both parse
//! through those impls, so the two surfaces cannot drift apart. The
//! helpers here are what those impls share: a lookup over a closed set of
//! word tokens, and the split of an `AxBxC` numeric token.

use std::fmt;

/// Finds the member of `all` whose `Display` text is `token`.
///
/// # Errors
///
/// Returns ``unknown {what} `{token}` (a|b|c)``, listing every valid
/// token.
///
/// # Examples
///
/// ```
/// use aim_types::token::parse_choice;
///
/// assert_eq!(parse_choice("digit", &[1, 2, 3], "2"), Ok(2));
/// assert_eq!(
///     parse_choice("digit", &[1, 2, 3], "7").unwrap_err(),
///     "unknown digit `7` (1|2|3)"
/// );
/// ```
pub fn parse_choice<T: Copy + fmt::Display>(
    what: &str,
    all: &[T],
    token: &str,
) -> Result<T, String> {
    all.iter()
        .copied()
        .find(|c| c.to_string() == token)
        .ok_or_else(|| {
            let names: Vec<String> = all.iter().map(ToString::to_string).collect();
            format!("unknown {what} `{token}` ({})", names.join("|"))
        })
}

/// Splits an `AxB…` token into exactly `N` non-negative integers.
///
/// # Errors
///
/// Returns ``{what} wants {shape}, got `{token}` `` when the token has the
/// wrong number of parts or a part is not an integer of type `T`.
///
/// # Examples
///
/// ```
/// use aim_types::token::split_x;
///
/// assert_eq!(split_x::<u64, 2>("lsq", "LxS", "120x80"), Ok([120, 80]));
/// assert!(split_x::<u64, 2>("lsq", "LxS", "120").unwrap_err().contains("LxS"));
/// ```
pub fn split_x<T: std::str::FromStr + Copy + Default, const N: usize>(
    what: &str,
    shape: &str,
    token: &str,
) -> Result<[T; N], String> {
    let bad = || format!("{what} wants {shape}, got `{token}`");
    let mut out = [T::default(); N];
    let mut parts = token.split('x');
    for slot in &mut out {
        *slot = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
    }
    match parts.next() {
        Some(_) => Err(bad()),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_x_wants_exactly_n_integers() {
        assert_eq!(
            split_x::<u64, 3>("far", "AxBxC", "400x64x8"),
            Ok([400, 64, 8])
        );
        for bad in [
            "400x64",
            "400x64x8x1",
            "400xx8",
            "x64x8",
            "400x-1x8",
            "",
            "4e2x1x1",
        ] {
            let err = split_x::<u64, 3>("far", "AxBxC", bad).unwrap_err();
            assert_eq!(err, format!("far wants AxBxC, got `{bad}`"));
        }
        // The element type bounds each part.
        assert!(split_x::<u8, 1>("n", "N", "256").is_err());
    }
}
