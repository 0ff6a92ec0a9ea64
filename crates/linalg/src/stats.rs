//! Scalar statistics used across the tuner: moments, quantiles, and the
//! standard normal pdf/cdf (needed by Expected Improvement).

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by n); 0.0 for fewer than 2 elements.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Sample variance (divides by n-1); 0.0 for fewer than 2 elements.
#[cfg(test)]
fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum of a slice, `None` when empty or all-NaN.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| match acc {
            None => Some(x),
            Some(a) => Some(a.min(x)),
        })
}

/// Maximum of a slice, `None` when empty or all-NaN.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| match acc {
            None => Some(x),
            Some(a) => Some(a.max(x)),
        })
}

/// Linear-interpolation quantile (the "type 7" estimator R and NumPy use).
/// `q` is clamped to [0, 1]. Returns `None` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(v[lo] * (1.0 - frac) + v[hi] * frac)
}

/// Standard normal probability density.
#[inline]
pub fn normal_pdf(z: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * z * z).exp()
}

/// Standard normal cumulative distribution, via `erf`.
#[inline]
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Error function, Abramowitz & Stegun 7.1.26 rational approximation
/// (max absolute error 1.5e-7, ample for acquisition functions).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((sample_variance(&xs) - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[2.0]), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
    }

    #[test]
    fn normal_cdf_symmetry_and_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        for z in [-2.0, -0.5, 0.3, 1.7] {
            assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn normal_pdf_peak() {
        assert!((normal_pdf(0.0) - 0.3989422804).abs() < 1e-9);
        assert!(normal_pdf(3.0) < normal_pdf(0.0));
    }

    #[test]
    fn erf_known_values() {
        // The A&S coefficients sum to 0.999999999, so erf(0) is ~1e-9, not 0.
        assert!(erf(0.0).abs() < 1e-8);
        assert!((erf(1.0) - 0.8427007929).abs() < 2e-7);
        assert!((erf(-1.0) + 0.8427007929).abs() < 2e-7);
        assert!((erf(3.0) - 0.9999779095).abs() < 1e-6);
    }
}
