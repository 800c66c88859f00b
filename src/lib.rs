//! # NodeSentry
//!
//! A Rust reproduction of *"Effective Node-Level Anomaly Detection in HPC
//! Systems via Coarse-Grained Clustering and Fine-Grained Model Sharing"*
//! (SC '25).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`telemetry`] — synthetic HPC cluster: metric catalog, Slurm-like job
//!   scheduler, job archetypes with sub-patterns, anomaly injection, dataset
//!   profiles.
//! * [`features`] — TSFEL-style statistical/temporal/spectral feature
//!   extraction (134-feature default catalog, own FFT).
//! * [`cluster`] — HAC, silhouette, k-means, Gaussian mixtures, DTW.
//! * [`nn`] — from-scratch reverse-mode autodiff with Transformer, sparse
//!   Mixture-of-Experts, LSTM and VAE building blocks.
//! * [`core`] — the NodeSentry pipeline itself: preprocessing, coarse-grained
//!   clustering, fine-grained model sharing, online detection, incremental
//!   updates, ablation variants.
//! * [`baselines`] — Prodigy, RUAD, ExaMon and ISC'20 re-implementations.
//! * [`stream`] — sharded streaming deployment engine: per-node incremental
//!   state over a trained detector, bit-identical to batch scoring.
//! * [`eval`] — point-adjusted precision/recall/F1, ROC-AUC, k-sigma dynamic
//!   thresholding (batch + streaming), timing harness.
//! * [`label`] — the headless labeling / cluster-adjustment toolkit
//!   (artifact A2).
//! * [`obs`] — observability: tracing spans over the
//!   training stages, live metrics from the streaming engine, a bounded
//!   structured event journal with flight-recorder incident capture,
//!   and an HTTP exporter serving `/metrics` plus the operational
//!   routes (`/healthz`, `/readyz`, `/statusz`, `/debug/events`,
//!   `/debug/incidents`).
//! * [`wire`] — length-prefixed, versioned, checksummed binary tick/verdict
//!   protocol for feeding the engine over a socket.
//! * [`linalg`] — the dense matrix substrate underneath everything.
//!
//! See `examples/quickstart.rs` for an end-to-end tour and
//! `examples/stream_monitor.rs` for the streaming deployment loop.

pub use nodesentry_core as core;
pub use ns_baselines as baselines;
pub use ns_cluster as cluster;
pub use ns_eval as eval;
pub use ns_features as features;
pub use ns_label as label;
pub use ns_linalg as linalg;
pub use ns_nn as nn;
pub use ns_obs as obs;
pub use ns_stream as stream;
pub use ns_telemetry as telemetry;
pub use ns_wire as wire;

/// Workspace version, for examples that print provenance headers.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
