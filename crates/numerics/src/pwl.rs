//! Piecewise-linear interpolation tables.
//!
//! PXT builds "piecewise linear behavioral macro models" from FE
//! sweeps (paper, §Parameter extraction); these tables are their
//! numerical backing store, and the HDL builtin `table1d` evaluates
//! them at run time.

use crate::{NumericsError, Result};

/// How a table behaves outside its breakpoint range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Extrapolation {
    /// Continue the boundary segment's slope (default; matches how
    /// SPICE PWL sources behave and keeps Newton Jacobians nonzero).
    #[default]
    Linear,
    /// Clamp to the boundary value (zero outward slope).
    Clamp,
}

/// A strictly-increasing 1-D piecewise linear table `y(x)`.
///
/// ```
/// use mems_numerics::pwl::Pwl1;
/// let t = Pwl1::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 0.0])?;
/// assert_eq!(t.eval(0.5), 5.0);
/// assert_eq!(t.deriv(1.5), -10.0);
/// # Ok::<(), mems_numerics::NumericsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pwl1 {
    xs: Vec<f64>,
    ys: Vec<f64>,
    extrapolation: Extrapolation,
}

impl Pwl1 {
    /// Builds a table from breakpoints.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInput`] unless `xs` is strictly
    /// increasing, finite, and at least two points long, with matching
    /// `ys`.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self> {
        if xs.len() != ys.len() {
            return Err(NumericsError::DimensionMismatch {
                expected: xs.len(),
                found: ys.len(),
            });
        }
        if xs.len() < 2 {
            return Err(NumericsError::InvalidInput(
                "PWL table needs at least two breakpoints".into(),
            ));
        }
        for w in xs.windows(2) {
            if !(w[1] > w[0]) {
                return Err(NumericsError::InvalidInput(format!(
                    "PWL breakpoints must be strictly increasing: {} then {}",
                    w[0], w[1]
                )));
            }
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return Err(NumericsError::InvalidInput(
                "PWL breakpoints must be finite".into(),
            ));
        }
        Ok(Pwl1 {
            xs,
            ys,
            extrapolation: Extrapolation::Linear,
        })
    }

    /// Sets the extrapolation behaviour.
    pub fn with_extrapolation(mut self, e: Extrapolation) -> Self {
        self.extrapolation = e;
        self
    }

    /// Breakpoint abscissae.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Breakpoint ordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Index of the segment containing `x` (clamped to valid segments;
    /// a NaN `x` lands in the last one).
    fn segment(&self, x: f64) -> usize {
        // Breakpoints are finite by invariant, so only a NaN `x` is
        // unordered.
        match self
            .xs
            .binary_search_by(|probe| probe.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(i) => i.min(self.xs.len() - 2),
            Err(0) => 0,
            Err(i) if i >= self.xs.len() => self.xs.len() - 2,
            Err(i) => i - 1,
        }
    }

    /// Interpolated value at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        let i = self.segment(x);
        let (x0, x1) = (self.xs[i], self.xs[i + 1]);
        let (y0, y1) = (self.ys[i], self.ys[i + 1]);
        let slope = (y1 - y0) / (x1 - x0);
        match self.extrapolation {
            Extrapolation::Linear => y0 + slope * (x - x0),
            Extrapolation::Clamp => {
                if x <= self.xs[0] {
                    self.ys[0]
                } else if x >= *self.xs.last().expect("nonempty") {
                    *self.ys.last().expect("nonempty")
                } else {
                    y0 + slope * (x - x0)
                }
            }
        }
    }

    /// Segment slope at `x` (the derivative almost everywhere).
    pub fn deriv(&self, x: f64) -> f64 {
        match self.extrapolation {
            Extrapolation::Clamp if x < self.xs[0] || x > *self.xs.last().expect("nonempty") => 0.0,
            _ => {
                let i = self.segment(x);
                (self.ys[i + 1] - self.ys[i]) / (self.xs[i + 1] - self.xs[i])
            }
        }
    }

    /// Maximum absolute interpolation error against a reference
    /// function sampled midway between breakpoints.
    pub fn midpoint_error(&self, f: impl Fn(f64) -> f64) -> f64 {
        self.xs
            .windows(2)
            .map(|w| {
                let m = 0.5 * (w[0] + w[1]);
                (self.eval(m) - f(m)).abs()
            })
            .fold(0.0, f64::max)
    }
}

/// A bilinear table `z(x, y)` on a rectangular grid — the 2-D macro
/// model PXT extracts for `F(V, x)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Pwl2 {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Row-major `z[i][j] = z(xs[i], ys[j])`.
    zs: Vec<f64>,
}

impl Pwl2 {
    /// Builds a grid table.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInput`] for non-increasing axes
    /// or a mis-sized value grid.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>, zs: Vec<f64>) -> Result<Self> {
        if xs.len() < 2 || ys.len() < 2 {
            return Err(NumericsError::InvalidInput(
                "bilinear table needs at least a 2x2 grid".into(),
            ));
        }
        for axis in [&xs, &ys] {
            for w in axis.windows(2) {
                if !(w[1] > w[0]) {
                    return Err(NumericsError::InvalidInput(
                        "bilinear axes must be strictly increasing".into(),
                    ));
                }
            }
        }
        if zs.len() != xs.len() * ys.len() {
            return Err(NumericsError::DimensionMismatch {
                expected: xs.len() * ys.len(),
                found: zs.len(),
            });
        }
        Ok(Pwl2 { xs, ys, zs })
    }

    /// Grid abscissae along x.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Grid abscissae along y.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    fn bracket(axis: &[f64], v: f64) -> usize {
        match axis.binary_search_by(|p| p.partial_cmp(&v).expect("finite")) {
            Ok(i) => i.min(axis.len() - 2),
            Err(0) => 0,
            Err(i) if i >= axis.len() => axis.len() - 2,
            Err(i) => i - 1,
        }
    }

    /// Bilinear interpolation (linear extrapolation outside the grid).
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        let i = Self::bracket(&self.xs, x);
        let j = Self::bracket(&self.ys, y);
        let tx = (x - self.xs[i]) / (self.xs[i + 1] - self.xs[i]);
        let ty = (y - self.ys[j]) / (self.ys[j + 1] - self.ys[j]);
        let ny = self.ys.len();
        let z = |a: usize, b: usize| self.zs[a * ny + b];
        let z00 = z(i, j);
        let z10 = z(i + 1, j);
        let z01 = z(i, j + 1);
        let z11 = z(i + 1, j + 1);
        z00 * (1.0 - tx) * (1.0 - ty)
            + z10 * tx * (1.0 - ty)
            + z01 * (1.0 - tx) * ty
            + z11 * tx * ty
    }

    /// Partial derivatives `(∂z/∂x, ∂z/∂y)` of the bilinear patch.
    pub fn grad(&self, x: f64, y: f64) -> (f64, f64) {
        let i = Self::bracket(&self.xs, x);
        let j = Self::bracket(&self.ys, y);
        let dx = self.xs[i + 1] - self.xs[i];
        let dy = self.ys[j + 1] - self.ys[j];
        let tx = (x - self.xs[i]) / dx;
        let ty = (y - self.ys[j]) / dy;
        let ny = self.ys.len();
        let z = |a: usize, b: usize| self.zs[a * ny + b];
        let (z00, z10, z01, z11) = (z(i, j), z(i + 1, j), z(i, j + 1), z(i + 1, j + 1));
        let dzdx = ((z10 - z00) * (1.0 - ty) + (z11 - z01) * ty) / dx;
        let dzdy = ((z01 - z00) * (1.0 - tx) + (z11 - z10) * tx) / dy;
        (dzdx, dzdy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_and_hits_breakpoints() {
        let t = Pwl1::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, -2.0]).unwrap();
        assert_eq!(t.eval(0.0), 0.0);
        assert_eq!(t.eval(1.0), 2.0);
        assert_eq!(t.eval(0.5), 1.0);
        assert_eq!(t.eval(2.0), 0.0);
        assert_eq!(t.deriv(0.5), 2.0);
        assert_eq!(t.deriv(2.5), -2.0);
    }

    #[test]
    fn nan_lookup_yields_nan_without_panicking() {
        for t in [
            Pwl1::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, -2.0]).unwrap(),
            Pwl1::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, -2.0])
                .unwrap()
                .with_extrapolation(Extrapolation::Clamp),
        ] {
            assert!(t.eval(f64::NAN).is_nan());
            assert_eq!(t.deriv(f64::NAN), -2.0, "the last segment's slope");
        }
    }

    #[test]
    fn linear_extrapolation_continues_slope() {
        let t = Pwl1::new(vec![0.0, 1.0], vec![0.0, 3.0]).unwrap();
        assert_eq!(t.eval(2.0), 6.0);
        assert_eq!(t.eval(-1.0), -3.0);
        assert_eq!(t.deriv(-1.0), 3.0);
    }

    #[test]
    fn clamped_extrapolation() {
        let t = Pwl1::new(vec![0.0, 1.0], vec![1.0, 3.0])
            .unwrap()
            .with_extrapolation(Extrapolation::Clamp);
        assert_eq!(t.eval(5.0), 3.0);
        assert_eq!(t.eval(-5.0), 1.0);
        assert_eq!(t.deriv(5.0), 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Pwl1::new(vec![0.0], vec![1.0]).is_err());
        assert!(Pwl1::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(Pwl1::new(vec![1.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(Pwl1::new(vec![0.0, f64::NAN], vec![1.0, 2.0]).is_err());
        assert!(Pwl1::new(vec![0.0, 1.0], vec![1.0]).is_err());
    }

    #[test]
    fn midpoint_error_measures_curvature() {
        let xs: Vec<f64> = (0..11).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let t = Pwl1::new(xs, ys).unwrap();
        let err = t.midpoint_error(|x| x * x);
        // For y = x² on segments of width h, midpoint error is h²/4·(y''/2) = 0.0025.
        assert!((err - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn bilinear_reproduces_bilinear_function() {
        let xs = vec![0.0, 1.0, 2.0];
        let ys = vec![0.0, 2.0];
        let f = |x: f64, y: f64| 1.0 + 2.0 * x - y + 0.5 * x * y;
        let mut zs = Vec::new();
        for &x in &xs {
            for &y in &ys {
                zs.push(f(x, y));
            }
        }
        let t = Pwl2::new(xs, ys, zs).unwrap();
        for &(x, y) in &[(0.5, 1.0), (1.5, 0.25), (2.0, 2.0), (0.0, 0.0)] {
            assert!((t.eval(x, y) - f(x, y)).abs() < 1e-12);
        }
        let (dx, dy) = t.grad(0.5, 1.0);
        assert!((dx - (2.0 + 0.5 * 1.0)).abs() < 1e-12);
        assert!((dy - (-1.0 + 0.5 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn bilinear_rejects_bad_grid() {
        assert!(Pwl2::new(vec![0.0, 1.0], vec![0.0], vec![0.0, 0.0]).is_err());
        assert!(Pwl2::new(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0; 3]).is_err());
        assert!(Pwl2::new(vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0; 4]).is_err());
    }
}
