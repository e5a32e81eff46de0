//! Medians, quartile spreads and the better/same/worse/unresolved verdict
//! `benchmark compare` gives each workload and metric.

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values,
/// n=4)` computes them (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Run-to-run spread: the distance between the quartiles as a share of the
/// median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base`. A change of exactly `bound` counts as the
/// same. When either side's spread is wider than `bound` the metric is
/// unresolved, unless every run of one side beats every run of the other.
pub fn verdict(base: &[f64], new: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    if base.is_empty() || new.is_empty() {
        return Verdict::Unresolved;
    }
    let beats = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    if spread(base).max(spread(new)) > bound {
        return if new.iter().all(|&n| base.iter().all(|&b| beats(n, b))) {
            Verdict::Better
        } else if base.iter().all(|&b| new.iter().all(|&n| beats(b, n))) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let (mb, mn) = (median(base), median(new));
    let worse_by = (if lower_is_better { mn - mb } else { mb - mn }) / mb.abs();
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn a_change_exactly_at_the_bound_is_the_same() {
        let base = [1.0; 5];
        assert_eq!(verdict(&base, &[1.25; 5], 0.25, true), Verdict::Same);
        assert_eq!(verdict(&base, &[1.5; 5], 0.25, true), Verdict::Worse);
        assert_eq!(verdict(&base, &[0.5; 5], 0.25, true), Verdict::Better);
        assert_eq!(verdict(&base, &[0.75; 5], 0.25, false), Verdict::Same);
        assert_eq!(verdict(&base, &[0.5; 5], 0.25, false), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_one_side_dominates() {
        let noisy = [1.0, 1.5, 2.0, 2.5, 3.0];
        assert!(spread(&noisy) > 0.1);
        assert_eq!(verdict(&noisy, &[2.0; 5], 0.1, true), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &[0.9; 5], 0.1, true), Verdict::Better);
        assert_eq!(verdict(&noisy, &[3.1; 5], 0.1, true), Verdict::Worse);
        assert_eq!(verdict(&[], &noisy, 0.1, true), Verdict::Unresolved);
    }
}
