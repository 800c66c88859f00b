//! `ns-telemetry` — a synthetic HPC cluster, end to end.
//!
//! The paper evaluates on production telemetry from the NG-Tianhe
//! supercomputer, which we cannot ship. This crate is the substitution
//! (documented in `DESIGN.md`): a full cluster simulator whose output has
//! the same *structure* the paper's method exploits —
//!
//! 1. **High node scale and metric dimension** — [`catalog`] expands a
//!    small latent node state into thousands of correlated raw metrics
//!    (exactly 3,014 with the full hardware shape, matching Table 3).
//! 2. **Dynamic job transitions and cross-node pattern correlation** —
//!    [`schedule`] gang-schedules jobs Slurm-style; [`archetype`] gives
//!    each workload family a characteristic signature; gang members see
//!    near-identical traces.
//! 3. **Sub-pattern variation inside a job** — archetypes are multi-phase
//!    (compute/checkpoint, map/shuffle/reduce, …).
//!
//! [`anomaly`] injects every fault class of Table 1 with exact ground
//! truth (the ChaosBlade substitute), and [`dataset`] wraps it all into
//! reproducible D1′/D2′ profiles with train/test splits.

pub mod anomaly;
pub mod archetype;
pub mod catalog;
pub mod client;
pub mod dataset;
pub mod faults;
pub mod schedule;
pub mod signals;
pub mod simulator;

pub use anomaly::{AnomalyEvent, AnomalyKind, InjectionConfig, ALL_ANOMALIES};
pub use archetype::JobArchetype;
pub use catalog::{CatalogSpec, Category, MetricCatalog};
pub use client::{http_get, subscribe_verdicts, IngestClient};
pub use dataset::{Dataset, DatasetProfile, DatasetStats};
pub use faults::{
    FaultEvent, FaultInjector, FaultKind, FaultOutcome, FaultPlan, FaultPlanSpec,
    SocketFaultAction, SocketFaultCounters, SocketFaultInjector, SocketFaultPlan, ALL_FAULTS,
};
pub use schedule::{JobRecord, NodeSegment, Schedule, ScheduleConfig};
pub use signals::{Signal, SignalFrame, NUM_SIGNALS};
