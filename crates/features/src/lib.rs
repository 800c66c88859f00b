//! `ns-features` — TSFEL-style time-series feature extraction for NodeSentry.
//!
//! The paper's coarse-grained clustering stage (§3.3) represents MTS
//! segments of *different lengths* as fixed-width vectors by extracting 134
//! interpretable features per metric across the statistical, temporal and
//! spectral domains (via the TSFEL library in the original). This crate is
//! that substrate, rebuilt from scratch:
//!
//! * [`fft`] — iterative radix-2 FFT and one-sided power spectra,
//! * [`dwt`] — Haar wavelet decomposition and wavelet energies,
//! * [`statistical`] / [`temporal`] / [`spectral`] — the individual feature
//!   primitives,
//! * [`catalog`] — the ordered, named [`FeatureCatalog`] (default: exactly
//!   134 features) and the MTS extraction engine
//!   ([`FeatureCatalog::extract_mts`]) that turns a `T × M` segment into an
//!   `M · 134`-wide vector, one metric after another.
//!
//! Every feature evaluation is total: hostile inputs (empty, constant,
//! single-sample series) produce finite values, never NaNs — a hard
//! requirement for distance computations downstream.

pub mod catalog;
pub mod dwt;
pub mod fft;
pub mod spectral;
pub mod statistical;
pub mod temporal;

pub use catalog::{Domain, FeatureCatalog, FeatureKind, FeatureScratch};
