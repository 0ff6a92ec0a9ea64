//! Samplers over search spaces: uniform random and Latin hypercube.
//!
//! The paper's source-task datasets are "randomly chosen parameter
//! configurations" (uniform), while BO initialization typically prefers
//! stratified designs (LHS). Saltelli sampling draws from the Sobol'
//! sequence in [`crate::sobol`] directly.

use crate::space::{Point, Space};
use rand::seq::SliceRandom;
use rand::Rng;

/// Draw `n` points uniformly at random from the space.
pub fn sample_uniform<R: Rng>(space: &Space, n: usize, rng: &mut R) -> Vec<Point> {
    (0..n)
        .map(|_| {
            let u: Vec<f64> = (0..space.dim()).map(|_| rng.gen::<f64>()).collect();
            space
                .from_unit(&u)
                .expect("unit vector has the right length")
        })
        .collect()
}

/// Latin hypercube sample of `n` points: each dimension is split into `n`
/// strata, each stratum hit exactly once, with random within-stratum
/// jitter and independent permutations per dimension.
pub fn sample_lhs<R: Rng>(space: &Space, n: usize, rng: &mut R) -> Vec<Point> {
    if n == 0 {
        return Vec::new();
    }
    let d = space.dim();
    // One shuffled stratum order per dimension.
    let mut strata: Vec<Vec<usize>> = Vec::with_capacity(d);
    for _ in 0..d {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(rng);
        strata.push(idx);
    }
    (0..n)
        .map(|i| {
            let u: Vec<f64> = (0..d)
                .map(|j| (strata[j][i] as f64 + rng.gen::<f64>()) / n as f64)
                .collect();
            space
                .from_unit(&u)
                .expect("unit vector has the right length")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{Param, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> Space {
        Space::new(vec![
            Param::integer("i", 0, 10),
            Param::real("r", -1.0, 1.0),
            Param::categorical("c", ["x", "y", "z"]),
        ])
        .unwrap()
    }

    #[test]
    fn uniform_points_are_valid() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(42);
        for p in sample_uniform(&s, 100, &mut rng) {
            assert!(s.validate(&p).is_ok());
        }
    }

    #[test]
    fn uniform_is_seed_deterministic() {
        let s = space();
        let a = sample_uniform(&s, 10, &mut StdRng::seed_from_u64(7));
        let b = sample_uniform(&s, 10, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = sample_uniform(&s, 10, &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn lhs_stratifies_reals() {
        // With n = 10 over r in [-1, 1), each of the 10 strata of width 0.2
        // must contain exactly one sample.
        let s = Space::new(vec![Param::real("r", -1.0, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let pts = sample_lhs(&s, 10, &mut rng);
        let mut seen = [0usize; 10];
        for p in &pts {
            if let Value::Real(x) = p[0] {
                let stratum = (((x + 1.0) / 2.0) * 10.0).floor() as usize;
                seen[stratum.min(9)] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "strata counts: {seen:?}");
    }

    #[test]
    fn lhs_integer_coverage() {
        // 10 LHS samples over an integer domain of 10 values must hit every
        // value exactly once.
        let s = Space::new(vec![Param::integer("i", 0, 10)]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let pts = sample_lhs(&s, 10, &mut rng);
        let mut vals: Vec<i64> = pts.iter().filter_map(|p| p[0].as_int()).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn lhs_zero_points() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sample_lhs(&s, 0, &mut rng).is_empty());
    }
}
