//! The element types the numeric stack is instantiated at.
//!
//! [`Mat`](crate::matrix::Mat), the [`kernels`](crate::kernels) and
//! `ns-nn`'s inference session are written once over [`Scalar`] and
//! compiled twice: `f64`, the bit-pinned default scoring tier and the type
//! of everything else in the workspace, and `f32`, the opt-in
//! reduced-precision tier. Monomorphisation hands each instantiation the
//! same operations in the same order the hand-written code had (Rust never
//! reassociates float arithmetic), so sharing the source cannot move a bit
//! of either tier.
//!
//! The trait is sealed: it names exactly these two types, not an
//! extension point.

use std::fmt::Display;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Sub};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// `f64` or `f32`: the arithmetic, comparisons and constants the generic
/// matrix, kernels and inference session use.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Default
    + Send
    + Sync
    + 'static
    + PartialEq
    + PartialOrd
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + MulAssign
    + DivAssign
    + Sum<Self>
    + for<'a> Sum<&'a Self>
{
    const ZERO: Self;
    const ONE: Self;
    /// `-0.0`, the seed `Iterator::sum` folds from (observable in signed
    /// zeros: `-0.0 + -0.0` is `-0.0` but `0.0 + -0.0` is `0.0`).
    const NEG_ZERO: Self;
    const NEG_INFINITY: Self;

    /// Round an `f64` to this type (`as`, round-to-nearest) — where data,
    /// positional encodings and weights enter a tier.
    fn from_f64(v: f64) -> Self;
    /// Widen to `f64` — where a tier's errors leave it.
    fn to_f64(self) -> f64;
    fn exp(self) -> Self;
    fn sqrt(self) -> Self;
    fn max(self, other: Self) -> Self;
}

macro_rules! scalar_impl {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const NEG_ZERO: Self = -0.0;
            const NEG_INFINITY: Self = <$t>::NEG_INFINITY;

            #[inline]
            #[allow(clippy::unnecessary_cast)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            #[allow(clippy::unnecessary_cast)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
        }
    )*};
}

scalar_impl!(f64, f32);
