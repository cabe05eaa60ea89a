//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is read off the full sorted
//! sample set (nearest rank), never off log buckets whose edges would move
//! a quantile by a whole bucket width on unchanged code.

/// A sorted set of raw samples (nanoseconds, or any integer unit).
pub struct Dist {
    sorted: Vec<u64>,
}

impl Dist {
    pub fn new(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Self { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `p` in `[0, 100]`; 0 for an empty set.
    pub fn pct(&self, p: f64) -> u64 {
        if self.sorted.is_empty() {
            return 0;
        }
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    /// How many samples lie strictly above percentile `p`: the support
    /// a reader needs to judge a tail figure.
    pub fn beyond(&self, p: f64) -> usize {
        let v = self.pct(p);
        self.sorted.len() - self.sorted.partition_point(|&x| x <= v)
    }

    /// `pct(p)` converted from nanoseconds to microseconds.
    pub fn pct_us(&self, p: f64) -> f64 {
        self.pct(p) as f64 / 1e3
    }

    /// One human-readable line: the percentile, its sample count and how
    /// many samples lie beyond it.
    pub fn describe(&self, what: &str, p: f64) -> String {
        format!(
            "{what}: p{p} = {:.3} us (n = {}, beyond = {})",
            self.pct_us(p),
            self.len(),
            self.beyond(p)
        )
    }
}

/// Quantile `q` in `[0, 1]` of a list, interpolating linearly between
/// order statistics; 0 for an empty list.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_support() {
        let d = Dist::new((1..=1000).rev().collect());
        assert_eq!(d.pct(50.0), 500);
        assert_eq!(d.pct(99.0), 990);
        assert_eq!(d.beyond(99.0), 10);
        assert_eq!(d.pct(100.0), 1000);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
    }
}
