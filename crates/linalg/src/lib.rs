//! `ns-linalg` — dense linear algebra substrate for the NodeSentry workspace.
//!
//! Everything downstream of this crate (feature extraction, clustering, the
//! neural-network stack) operates on the [`Matrix`] type defined here: a
//! row-major, heap-allocated, `f64` dense matrix with a deliberately small
//! but complete API surface. `Matrix` is [`Mat<f64>`](Mat): the matrix and
//! the [`kernels`] under its matmuls are written once over the sealed
//! [`Scalar`] trait (`f64` and `f32`, nothing else), and `Mat<f32>` is what
//! `ns-nn`'s reduced-precision scoring tier runs on — the same source
//! compiled at a second element type, not a second implementation. The
//! surface:
//!
//! * construction (`zeros`, `from_rows`, `from_fn`, …) and element access,
//! * arithmetic (`add`, `sub`, `scale`, Hadamard products, broadcasting of
//!   row vectors),
//! * a register-blocked [`Matrix::matmul`] ([`kernels::gemm`]), banded over
//!   the pool when a product is large,
//! * reductions and per-row/per-column statistics,
//! * condensed pairwise-distance storage ([`distance::CondensedDistance`])
//!   shared by the clustering crate, and the probe matcher's centroid scan
//!   ([`distance::nearest_row_standardized`]), held to the plain
//!   [`distance::nearest_row`].
//!
//! The crate is BLAS-free by design: this repository re-implements the whole
//! paper stack from scratch, and the matrix sizes involved (model dims of a
//! few dozen, feature matrices of a few thousand rows) are served well by a
//! register-blocked tile kernel at the CPU's vector width.

pub mod distance;
pub mod kernels;
pub mod matrix;
pub mod scalar;
pub mod stats;
pub mod vecops;

pub use distance::CondensedDistance;
pub use matrix::{Mat, Matrix};
pub use scalar::Scalar;
