//! Trace statistics shared by the experiment harness: peak detection,
//! RMS, settling values, and trace comparison metrics used when
//! checking the reproduced Fig. 5 series against expectations.

/// Summary statistics of a sampled trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Minimum sample value.
    pub min: f64,
    /// Maximum sample value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Root-mean-square value.
    pub rms: f64,
    /// Sample count.
    pub n: usize,
}

/// Computes summary statistics; returns `None` for an empty trace.
pub fn stats(ys: &[f64]) -> Option<TraceStats> {
    if ys.is_empty() {
        return None;
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    let mut sq = 0.0;
    for &y in ys {
        min = min.min(y);
        max = max.max(y);
        sum += y;
        sq += y * y;
    }
    let n = ys.len();
    Some(TraceStats {
        min,
        max,
        mean: sum / n as f64,
        rms: (sq / n as f64).sqrt(),
        n,
    })
}

/// Maximum absolute difference between two traces of equal length.
///
/// # Panics
///
/// Panics when the traces have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "trace length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Relative L2 difference `‖a − b‖₂ / ‖b‖₂` (with `b` as reference).
///
/// Returns the absolute L2 norm of `a` when the reference is zero.
pub fn rel_l2_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "trace length mismatch");
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|y| y * y).sum::<f64>().sqrt();
    if den == 0.0 {
        num
    } else {
        num / den
    }
}

/// Mean of the last `frac` fraction of the trace — the "settled"
/// value used to read static deflections off the Fig. 5 traces.
pub fn settled_value(ys: &[f64], frac: f64) -> f64 {
    assert!((0.0..=1.0).contains(&frac), "frac must be in [0, 1]");
    if ys.is_empty() {
        return 0.0;
    }
    let start = ((ys.len() as f64) * (1.0 - frac)) as usize;
    let tail = &ys[start.min(ys.len() - 1)..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// Index and value of the sample with maximum absolute value (a NaN
/// sample, if any, counts as the peak).
pub fn peak(ys: &[f64]) -> Option<(usize, f64)> {
    ys.iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.abs().total_cmp(&b.abs()))
        .map(|(i, &v)| (i, v))
}

/// Estimates the dominant oscillation frequency of a trace by counting
/// mean crossings. Returns `None` when fewer than two crossings exist.
pub fn crossing_frequency(ts: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(ts.len(), ys.len(), "trace length mismatch");
    let st = stats(ys)?;
    let mean = st.mean;
    let mut crossings = Vec::new();
    for i in 1..ys.len() {
        let (a, b) = (ys[i - 1] - mean, ys[i] - mean);
        if a == 0.0 {
            continue;
        }
        if a.signum() != b.signum() && b != 0.0 {
            // Linear interpolation of the crossing time.
            let t = ts[i - 1] + (ts[i] - ts[i - 1]) * (a / (a - b));
            crossings.push(t);
        }
    }
    if crossings.len() < 2 {
        return None;
    }
    // Each mean-crossing pair spans half a period.
    let span = crossings.last().unwrap() - crossings.first().unwrap();
    let half_periods = (crossings.len() - 1) as f64;
    Some(half_periods / (2.0 * span))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s = stats(&[1.0, -1.0, 3.0]).unwrap();
        assert_eq!(s.min, -1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 1.0).abs() < 1e-15);
        assert!((s.rms - (11.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.n, 3);
        assert!(stats(&[]).is_none());
    }

    #[test]
    fn diffs() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 1.0]), 1.0);
        assert!((rel_l2_diff(&[1.0, 0.0], &[1.0, 0.0])).abs() < 1e-15);
        assert!(rel_l2_diff(&[1.0], &[0.0]) == 1.0);
    }

    #[test]
    fn settled_reads_tail() {
        let ys: Vec<f64> = (0..100).map(|i| if i < 90 { 100.0 } else { 2.0 }).collect();
        assert!((settled_value(&ys, 0.1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn peak_finds_largest_magnitude() {
        let (i, v) = peak(&[0.1, -5.0, 3.0]).unwrap();
        assert_eq!(i, 1);
        assert_eq!(v, -5.0);
        assert!(peak(&[]).is_none());
    }

    #[test]
    fn peak_of_a_nan_trace_does_not_panic() {
        let (i, v) = peak(&[0.1, f64::NAN, -5.0]).unwrap();
        assert_eq!(i, 1);
        assert!(v.is_nan());
    }

    #[test]
    fn crossing_frequency_of_sine() {
        let f0 = 225.0; // close to the Fig. 5 resonator's ~225 Hz
        let n = 4000;
        let ts: Vec<f64> = (0..n).map(|i| i as f64 * 1e-5).collect();
        let ys: Vec<f64> = ts
            .iter()
            .map(|t| 1e-8 * (2.0 * std::f64::consts::PI * f0 * t).sin())
            .collect();
        let f = crossing_frequency(&ts, &ys).unwrap();
        assert!((f - f0).abs() < 2.0, "estimated {f} Hz");
    }

    #[test]
    fn crossing_frequency_needs_oscillation() {
        let ts: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys = vec![1.0; 10];
        assert!(crossing_frequency(&ts, &ys).is_none());
    }
}
