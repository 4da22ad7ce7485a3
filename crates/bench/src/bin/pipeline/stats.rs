//! Order statistics over a metric's repetitions.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, interpolating
/// linearly between the two nearest ranks: position `q·(n−1)`. The median
/// of an even count is the mean of the middle pair; a percentile that
/// lands on a rank is that sample exactly.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// What a report keeps of a metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        min: s[0],
        q1: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
        max: s[s.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_on_a_known_vector() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        // Even count: the median is the mean of the middle pair.
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 10.0], 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3, s.max), (5, 1.0, 2.0, 3.0, 4.0, 5.0));
    }
}
