//! Small dense decompositions: Cholesky, LU with partial pivoting, solves,
//! inverse and log-determinant. Used by the Gaussian-mixture baseline
//! (Mahalanobis distances need `Σ⁻¹` and `log|Σ|`).

use crate::matrix::Matrix;

/// Error type for decompositions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompError {
    /// The matrix is not square.
    NotSquare,
    /// Cholesky hit a non-positive pivot (matrix not positive definite).
    NotPositiveDefinite,
    /// LU hit an (effectively) zero pivot: the matrix is singular.
    Singular,
    /// Dimension mismatch between the system matrix and the RHS.
    DimensionMismatch,
}

impl std::fmt::Display for DecompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompError::NotSquare => write!(f, "matrix is not square"),
            DecompError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            DecompError::Singular => write!(f, "matrix is singular"),
            DecompError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for DecompError {}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
pub fn cholesky(a: &Matrix) -> Result<Matrix, DecompError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(DecompError::NotSquare);
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if s <= 0.0 {
                    return Err(DecompError::NotPositiveDefinite);
                }
                l[(i, j)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// LU decomposition with partial pivoting. Returns `(lu, perm, sign)` where
/// `lu` packs `L` (unit diagonal, below) and `U` (on/above the diagonal) and
/// `perm[i]` is the source row of output row `i`.
pub fn lu(a: &Matrix) -> Result<(Matrix, Vec<usize>, f64), DecompError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(DecompError::NotSquare);
    }
    let mut m = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut sign = 1.0;
    for k in 0..n {
        // Pivot: largest |value| in column k at/below row k.
        let mut p = k;
        let mut best = m[(k, k)].abs();
        for r in k + 1..n {
            let v = m[(r, k)].abs();
            if v > best {
                best = v;
                p = r;
            }
        }
        if best < 1e-14 {
            return Err(DecompError::Singular);
        }
        if p != k {
            perm.swap(p, k);
            sign = -sign;
            for c in 0..n {
                let tmp = m[(k, c)];
                m[(k, c)] = m[(p, c)];
                m[(p, c)] = tmp;
            }
        }
        let pivot = m[(k, k)];
        for r in k + 1..n {
            let f = m[(r, k)] / pivot;
            m[(r, k)] = f;
            for c in k + 1..n {
                let v = m[(k, c)];
                m[(r, c)] -= f * v;
            }
        }
    }
    Ok((m, perm, sign))
}

/// Solve `A x = b` for a square `A` and a (possibly multi-column) RHS.
pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix, DecompError> {
    let n = a.rows();
    if b.rows() != n {
        return Err(DecompError::DimensionMismatch);
    }
    let (lum, perm, _) = lu(a)?;
    let ncols = b.cols();
    let mut x = Matrix::zeros(n, ncols);
    // Apply permutation to b.
    for i in 0..n {
        for c in 0..ncols {
            x[(i, c)] = b[(perm[i], c)];
        }
    }
    // Forward substitution (L has unit diagonal).
    for i in 0..n {
        for j in 0..i {
            let f = lum[(i, j)];
            for c in 0..ncols {
                let v = x[(j, c)];
                x[(i, c)] -= f * v;
            }
        }
    }
    // Back substitution.
    for i in (0..n).rev() {
        for j in i + 1..n {
            let f = lum[(i, j)];
            for c in 0..ncols {
                let v = x[(j, c)];
                x[(i, c)] -= f * v;
            }
        }
        let d = lum[(i, i)];
        for c in 0..ncols {
            x[(i, c)] /= d;
        }
    }
    Ok(x)
}

/// Matrix inverse via LU solve against the identity.
pub fn inverse(a: &Matrix) -> Result<Matrix, DecompError> {
    solve(a, &Matrix::identity(a.rows()))
}

/// `log |A|` for a positive-definite `A`, via Cholesky (stable for
/// covariance matrices). Falls back to LU for general square input.
pub fn log_det(a: &Matrix) -> Result<f64, DecompError> {
    match cholesky(a) {
        Ok(l) => {
            let mut s = 0.0;
            for i in 0..l.rows() {
                s += l[(i, i)].ln();
            }
            Ok(2.0 * s)
        }
        Err(_) => {
            let (lum, _, sign) = lu(a)?;
            let mut s = 0.0;
            let mut neg = sign < 0.0;
            for i in 0..lum.rows() {
                let d = lum[(i, i)];
                if d < 0.0 {
                    neg = !neg;
                }
                s += d.abs().ln();
            }
            if neg {
                Err(DecompError::NotPositiveDefinite)
            } else {
                Ok(s)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I is SPD for any B.
        let b = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![0.0, 1.0, -1.0],
            vec![2.0, 0.0, 1.0],
        ]);
        b.transpose().matmul(&b).add(&Matrix::identity(3))
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let rec = l.matmul(&l.transpose());
        for (x, y) in rec.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-10);
        }
        // Strictly lower-triangular structure.
        for i in 0..3 {
            for j in i + 1..3 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert_eq!(cholesky(&a).unwrap_err(), DecompError::NotPositiveDefinite);
    }

    #[test]
    fn solve_roundtrip() {
        let a = Matrix::from_rows(&[
            vec![4.0, -2.0, 1.0],
            vec![-2.0, 4.0, -2.0],
            vec![1.0, -2.0, 4.0],
        ]);
        let xtrue = Matrix::col_vector(&[1.0, 2.0, 3.0]);
        let b = a.matmul(&xtrue);
        let x = solve(&a, &b).unwrap();
        for (u, v) in x.as_slice().iter().zip(xtrue.as_slice()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_needs_pivoting() {
        // Zero leading pivot forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let b = Matrix::col_vector(&[2.0, 3.0]);
        let x = solve(&a, &b).unwrap();
        assert!((x[(0, 0)] - 3.0).abs() < 1e-12);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let a = spd3();
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn singular_is_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(lu(&a).unwrap_err(), DecompError::Singular);
    }

    #[test]
    fn log_det_of_diagonal() {
        let a = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 8.0]]);
        assert!((log_det(&a).unwrap() - (16.0f64).ln()).abs() < 1e-10);
    }
}
