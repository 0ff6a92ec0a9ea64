//! Sobol' low-discrepancy sequence generator (Gray-code construction).
//!
//! The Saltelli sampling scheme behind the paper's sensitivity analysis
//! (SALib's `sobol` module) draws its base points from a Sobol' sequence.
//! This is a from-scratch implementation using the Antonov–Saleev
//! Gray-code recurrence over 32-bit direction vectors.
//!
//! Direction numbers: dimension 0 is the van der Corput sequence; higher
//! dimensions use primitive polynomials with Joe–Kuo-style initial values.
//! Every initial value `m_k` satisfies the validity conditions (odd and
//! `< 2^k`), which is what correctness of the net requires; the exact
//! choice of table only affects the constant in the discrepancy bound.

/// Maximum supported dimensionality of this generator's table.
pub const MAX_DIM: usize = 21;

/// Primitive polynomial degrees, coefficients and initial direction
/// numbers for dimensions 1..=20 (dimension 0 is van der Corput).
/// Each entry is (s, a, m[0..s]).
const TABLE: &[(u32, u32, &[u32])] = &[
    (1, 0, &[1]),
    (2, 1, &[1, 3]),
    (3, 1, &[1, 3, 1]),
    (3, 2, &[1, 1, 1]),
    (4, 1, &[1, 1, 3, 3]),
    (4, 4, &[1, 3, 5, 13]),
    (5, 2, &[1, 1, 5, 5, 17]),
    (5, 4, &[1, 1, 5, 5, 5]),
    (5, 7, &[1, 1, 7, 11, 19]),
    (5, 11, &[1, 1, 5, 1, 1]),
    (5, 13, &[1, 1, 1, 3, 11]),
    (5, 14, &[1, 3, 5, 5, 31]),
    (6, 1, &[1, 3, 3, 9, 7, 49]),
    (6, 13, &[1, 1, 1, 15, 21, 21]),
    (6, 16, &[1, 3, 1, 13, 27, 49]),
    (6, 19, &[1, 1, 1, 15, 7, 5]),
    (6, 22, &[1, 3, 1, 3, 25, 1]),
    (6, 25, &[1, 1, 5, 5, 19, 61]),
    (7, 1, &[1, 3, 7, 11, 23, 15, 103]),
    (7, 4, &[1, 3, 7, 13, 13, 15, 69]),
];

const BITS: u32 = 32;

/// A Sobol' sequence over `[0,1)^dim`.
#[derive(Debug, Clone)]
pub struct Sobol {
    dim: usize,
    /// Direction vectors, `v[d][k]`, already shifted into bit position.
    v: Vec<[u32; BITS as usize]>,
    /// Current Gray-code state per dimension.
    x: Vec<u32>,
    /// Index of the next point to emit (0 = the origin).
    index: u64,
}

impl Sobol {
    /// Create a generator for `dim` dimensions.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `dim > MAX_DIM`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "Sobol dimension must be positive");
        assert!(
            dim <= MAX_DIM,
            "Sobol table supports up to {MAX_DIM} dimensions, got {dim}"
        );
        let mut v = Vec::with_capacity(dim);
        // Dimension 0: van der Corput, v_k = 1 << (31 - k).
        let mut v0 = [0u32; BITS as usize];
        for (k, vk) in v0.iter_mut().enumerate() {
            *vk = 1 << (BITS - 1 - k as u32);
        }
        v.push(v0);
        for d in 1..dim {
            let (s, a, m_init) = TABLE[d - 1];
            let s = s as usize;
            let mut m = vec![0u32; BITS as usize];
            m[..s].copy_from_slice(m_init);
            for k in s..BITS as usize {
                // m_k = 2 a_1 m_{k-1} XOR 4 a_2 m_{k-2} XOR ... XOR
                //       2^s m_{k-s} XOR m_{k-s}
                let mut mk = m[k - s] ^ (m[k - s] << s);
                for j in 1..s {
                    let a_j = (a >> (s - 1 - j)) & 1;
                    if a_j == 1 {
                        mk ^= m[k - j] << j;
                    }
                }
                m[k] = mk;
            }
            let mut vd = [0u32; BITS as usize];
            for k in 0..BITS as usize {
                vd[k] = m[k] << (BITS - 1 - k as u32);
            }
            v.push(vd);
        }
        Sobol {
            dim,
            v,
            x: vec![0; dim],
            index: 0,
        }
    }

    /// Dimensionality of the sequence.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Next point of the sequence. The first point is the origin, matching
    /// the canonical (unscrambled) Sobol' construction.
    pub fn next_point(&mut self) -> Vec<f64> {
        const SCALE: f64 = 1.0 / (1u64 << BITS) as f64;
        if self.index == 0 {
            self.index = 1;
            return vec![0.0; self.dim];
        }
        // Gray-code step: flip by the direction vector of the lowest zero
        // bit of (index - 1).
        let c = (self.index - 1).trailing_ones() as usize;
        for d in 0..self.dim {
            self.x[d] ^= self.v[d][c];
        }
        self.index += 1;
        self.x.iter().map(|&xi| xi as f64 * SCALE).collect()
    }

    /// Skip the first `n` points (commonly used to drop the origin and
    /// warm up the sequence before Saltelli sampling).
    pub fn skip(&mut self, n: u64) {
        for _ in 0..n {
            let _ = self.next_point();
        }
    }

    /// Generate the next `n` points as rows.
    #[cfg(test)]
    fn take_points(&mut self, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| self.next_point()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_dimension_is_van_der_corput() {
        let mut s = Sobol::new(1);
        let pts: Vec<f64> = (0..8).map(|_| s.next_point()[0]).collect();
        // Canonical base-2 van der Corput: 0, 1/2, 3/4, 1/4, 3/8, 7/8, 5/8, 1/8.
        let expect = [0.0, 0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125];
        for (p, e) in pts.iter().zip(expect.iter()) {
            assert!((p - e).abs() < 1e-12, "got {p}, want {e}");
        }
    }

    #[test]
    fn all_points_in_unit_cube() {
        let mut s = Sobol::new(8);
        for _ in 0..512 {
            let p = s.next_point();
            assert_eq!(p.len(), 8);
            for &x in &p {
                assert!((0.0..1.0).contains(&x), "coordinate out of range: {x}");
            }
        }
    }

    #[test]
    fn no_duplicate_points_in_prefix() {
        let mut s = Sobol::new(3);
        let pts = s.take_points(256);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                assert_ne!(pts[i], pts[j], "duplicate at {i}, {j}");
            }
        }
    }

    #[test]
    fn balanced_in_every_dimension() {
        // The prefix 0..2^k is a (0, k, d)-net block: each dimension has
        // exactly half its points below 1/2 (the origin included).
        let mut s = Sobol::new(MAX_DIM);
        let pts = s.take_points(128);
        for d in 0..MAX_DIM {
            let below = pts.iter().filter(|p| p[d] < 0.5).count();
            assert_eq!(below, 64, "dimension {d} unbalanced: {below}/128 below 0.5");
        }
    }

    #[test]
    fn stratification_quarters() {
        // In the first 4^1 * 4 = 16 points of any dimension pair, each
        // quarter-cell of the 2D projection should be hit at least once for
        // the low dimensions of the table.
        let mut s = Sobol::new(2);
        s.skip(1);
        let pts = s.take_points(16);
        let mut cells = [[0usize; 2]; 2];
        for p in &pts {
            cells[((p[0] * 2.0) as usize).min(1)][((p[1] * 2.0) as usize).min(1)] += 1;
        }
        for row in &cells {
            for &c in row {
                assert!(c >= 2, "a 2x2 cell saw {c} of 16 points");
            }
        }
    }

    #[test]
    fn skip_matches_sequential() {
        let mut a = Sobol::new(4);
        let mut b = Sobol::new(4);
        a.skip(10);
        for _ in 0..10 {
            b.next_point();
        }
        assert_eq!(a.next_point(), b.next_point());
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn too_many_dimensions_panics() {
        let _ = Sobol::new(MAX_DIM + 1);
    }

    #[test]
    fn direction_numbers_are_valid() {
        // m_k odd and < 2^k for all table entries.
        for (s, _a, ms) in TABLE {
            assert_eq!(*s as usize, ms.len());
            for (k, &m) in ms.iter().enumerate() {
                assert_eq!(m % 2, 1, "m must be odd");
                assert!(m < (2u32 << k), "m_{k} = {m} too large");
            }
        }
    }
}
