//! Order statistics for timings: medians, quartiles and the tail
//! percentile a sample can support.

/// Percentiles a timing summary may report as its tail, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile must leave beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// Sorts a copy of `values` ascending (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p` percent of the samples at or below it. Empty input reads 0.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` (to a tenth of a percent) among
/// `n` samples, in integer arithmetic so that `p95` of 200 is exactly 190.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    nearest_rank(&sorted(values), p)
}

/// The median: the mean of the two middle samples for an even count.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so spreads printed here match spreads computed from the
/// printed results. One sample is its own quartiles; no samples read 0.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// A timing reported the way the benchmark prints every timing: median,
/// the highest percentile with at least ten samples beyond it, and the
/// sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the supported tail, if the sample has one.
    pub tail: Option<(f64, f64)>,
}

/// Summarizes `values` (see [`Summary`]). Fewer than forty samples
/// support no tail at all.
pub fn summarize(values: &[f64]) -> Summary {
    let data = sorted(values);
    let n = data.len();
    let tail = TAIL_CANDIDATES
        .iter()
        .find(|&&p| n >= 1 && n - rank(n, p) >= MIN_BEYOND)
        .map(|&p| (p, nearest_rank(&data, p)));
    Summary {
        n,
        p50: median(&data),
        tail,
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.4}", self.p50)?;
        match self.tail {
            Some((p, v)) => write!(f, ", p{p} {v:.4}")?,
            None => write!(f, ", no tail")?,
        }
        write!(f, " (n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]: the
        // exclusive method extrapolates past the extremes.
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn small_samples_report_no_tail() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.tail, None);
        // Thirty-nine samples leave nine beyond the p75: no tail yet.
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, None);
        assert_eq!(summarize(&[]).n, 0);
        assert_eq!(summarize(&[]).tail, None);
    }

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_beyond() {
        // 200 samples: p95 is rank 190, leaving exactly ten beyond it.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, Some((95.0, 190.0)));
        // 1000 samples support p99 (rank 990).
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, Some((99.0, 990.0)));
        // 40 samples: p75 (rank 30) leaves ten; p90 would leave four.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, Some((75.0, 30.0)));
    }

    #[test]
    fn skewed_samples_keep_the_median_and_show_the_tail() {
        // 190 fast samples and 10 very slow ones: the median stays fast,
        // the p95 is the last fast sample, and the slow ones lie beyond.
        let mut v = vec![1.0; 190];
        v.extend([1000.0; 10]);
        let s = summarize(&v);
        assert_eq!(s.p50, 1.0);
        assert_eq!(s.tail, Some((95.0, 1.0)));
        assert_eq!(percentile(&v, 99.0), 1000.0);
        // Order of arrival does not matter.
        v.reverse();
        assert_eq!(summarize(&v), s);
    }
}
