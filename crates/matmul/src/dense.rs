//! Dense square matrices and the serial oracle.

use parqp_testkit::Rng;

/// A dense `n × n` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// The zero matrix.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "matrices must be non-empty");
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Build from row-major data.
    ///
    /// # Panics
    /// Panics unless `data.len() == n²`.
    pub fn from_data(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "row-major data must have n² entries");
        Self { n, data }
    }

    /// A random matrix with entries uniform in `[0, 1)`.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Self {
            n,
            data: (0..n * n).map(|_| rng.gen_f64()).collect(),
        }
    }

    /// A random matrix with small *integer* entries (exact arithmetic,
    /// used by the SQL cross-check).
    pub fn random_int(n: usize, max: u32, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Self {
            n,
            data: (0..n * n)
                .map(|_| f64::from(rng.gen_range(0..max)))
                .collect(),
        }
    }

    /// Side length `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Set element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Add `v` to element `(i, j)`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] += v;
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Column `j` as an owned vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.n).map(|i| self.get(i, j)).collect()
    }

    /// Serial conventional multiplication (the oracle): all `n³` products.
    pub fn multiply(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let mut c = Matrix::zeros(self.n);
        mul_add(&mut c.data, &self.data, &other.data, self.n);
        c
    }

    /// Max absolute element difference.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.n, other.n, "dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// `acc += a · b` for row-major `n × n` blocks (`n ≥ 1`), in i-k-j order
/// (row access stays contiguous) and skipping zero entries of `a`. The
/// order fixes the bits of every sum, so callers sharing this kernel
/// agree.
pub(crate) fn mul_add(acc: &mut [f64], a: &[f64], b: &[f64], n: usize) {
    for (crow, arow) in acc.chunks_exact_mut(n).zip(a.chunks_exact(n)) {
        for (&av, brow) in arow.iter().zip(b.chunks_exact(n)) {
            if av == 0.0 {
                continue;
            }
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let mut i3 = Matrix::zeros(3);
        for i in 0..3 {
            i3.set(i, i, 1.0);
        }
        let a = Matrix::random(3, 1);
        assert!(a.multiply(&i3).max_abs_diff(&a) < 1e-12);
        assert!(i3.multiply(&a).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn hand_computed_2x2() {
        let a = Matrix::from_data(2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_data(2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.multiply(&b);
        assert_eq!(c, Matrix::from_data(2, vec![19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn rows_and_cols() {
        let a = Matrix::from_data(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn random_deterministic() {
        assert_eq!(Matrix::random(4, 9), Matrix::random(4, 9));
        assert_ne!(Matrix::random(4, 9), Matrix::random(4, 10));
    }

    #[test]
    fn add_accumulates() {
        let mut a = Matrix::zeros(2);
        a.add(0, 1, 2.5);
        a.add(0, 1, 0.5);
        assert_eq!(a.get(0, 1), 3.0);
    }
}
