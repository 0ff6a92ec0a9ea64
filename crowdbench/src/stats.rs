//! Order statistics and process measurements for the benchmark report.

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank rule,
/// or `None` unless at least ten samples lie beyond it: a tail read off
/// fewer points than that is one or two outliers, not a percentile.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // 1-based nearest rank: the smallest value with at least q*n samples
    // at or below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| sorted[rank - 1])
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of the middle half of `values`: the lowest and highest quarter
/// (rounded down) are dropped. Nearly as steady as the mean when values
/// only vary, and like the median unmoved by a few values that a burst of
/// load from outside the process stretched.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "interquartile mean of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Wall time of [`reference_s`] on the machine the benchmark was
/// calibrated on (see `baseline.json`), in seconds.
pub const REFERENCE_S: f64 = 0.009;

/// Run the host reference, a fixed piece of floating-point work owned by
/// the benchmark (squared-exponential kernel matrices with their
/// Cholesky factors, as a GP fit builds, and a loop of `exp`/`ln_1p`),
/// and return its wall time in seconds. The program never runs it, so a
/// change to the program cannot move it; a shared host that is slower or
/// faster for a while moves it as much as the program's own work.
pub fn reference_s() -> f64 {
    const N: usize = 160;
    let start = std::time::Instant::now();
    let mut k = vec![0.0f64; N * N];
    for rep in 0..4 {
        let width = std::hint::black_box(6.0 + rep as f64);
        for i in 0..N {
            for j in 0..N {
                let d = (i as f64 - j as f64) / width;
                k[i * N + j] = (-0.5 * d * d).exp() + if i == j { 1e-3 } else { 0.0 };
            }
        }
        // In-place lower Cholesky factor.
        for c in 0..N {
            let d = k[c * N + c].sqrt();
            k[c * N + c] = d;
            for i in c + 1..N {
                k[i * N + c] /= d;
            }
            for j in c + 1..N {
                let kjc = k[j * N + c];
                for i in j..N {
                    k[i * N + j] -= k[i * N + c] * kjc;
                }
            }
        }
        std::hint::black_box(&k);
    }
    let step = std::hint::black_box(1e-5);
    let (mut acc, mut partial) = (0.0f64, Vec::new());
    for i in 0..300_000 {
        acc += (i as f64 * step).exp().ln_1p();
        if i % 64 == 0 {
            partial.push(acc);
        }
    }
    std::hint::black_box(&partial);
    start.elapsed().as_secs_f64()
}

/// Factors that turn times measured on this host into times on the
/// calibration machine. `refs` are [`reference_s`] times taken between
/// consecutive measured intervals, one before the first and one after the
/// last; interval `i` is scaled by the mean of the references on either
/// side of it, so the host's speed is read at the time the interval ran.
pub fn reference_scales(refs: &[f64]) -> Vec<f64> {
    refs.windows(2)
        .map(|w| 2.0 * REFERENCE_S / (w[0] + w[1]))
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th value with exactly ten beyond.
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        // One sample fewer leaves only nine beyond the p90 rank.
        assert_eq!(percentile(&v[..99], 0.9), None);
        // p99 needs a thousand samples.
        assert_eq!(percentile(&v, 0.99), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(990.0));
        // The median needs 20 samples: rank 10 with ten beyond.
        let small: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.5), Some(10.0));
        assert_eq!(percentile(&small[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=50).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Some(25.0));
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[1.0, 3.0, 2.0]), 2.0);
        // Eight values: the lowest two and highest two are dropped.
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 4.0, 5.0, 6.0, 7.0, 0.0, 2.0]),
            4.25
        );
        // One stretched value out of five is dropped.
        assert_eq!(interquartile_mean(&[2.0, 2.0, 50.0, 2.0, 2.0]), 2.0);
    }

    #[test]
    fn reference_scales_pair_each_interval_with_its_neighbours() {
        let r = REFERENCE_S;
        // A host at half speed during the second interval only.
        let scales = reference_scales(&[r, r, 2.0 * r, 2.0 * r]);
        assert_eq!(scales.len(), 3);
        assert!((scales[0] - 1.0).abs() < 1e-12);
        assert!((scales[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!((scales[2] - 0.5).abs() < 1e-12);
        assert!(reference_scales(&[r]).is_empty());
        assert!(reference_s() > 0.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
