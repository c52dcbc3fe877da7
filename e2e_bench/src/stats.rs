//! Order statistics.

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile over the sorted samples (`q` in
/// `[0, 1]`); NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(v, n=4)`, so the compare command agrees with
/// a spread computed from the printed values. Needs two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    let at = |j: f64| {
        // 1-based position j·(n+1)/4, clamped to the data.
        let pos = (j * (n + 1.0) / 4.0).clamp(1.0, n);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let a = s[lo - 1];
        let b = s[(lo).min(s.len() - 1)];
        a + (b - a) * frac
    };
    Some((at(1.0), at(3.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.9), 9.1);
    }
}
