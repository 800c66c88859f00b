//! `/metrics` help text does not depend on who registered a series first.
//!
//! The registry keeps the help text of a family's first registration, and
//! it is process-global, so this suite is its own binary: nothing else may
//! register a series before the `/statusz` render below does.

mod common;

use common::{quick_cfg, Setup};
use nodesentry::obs;
use nodesentry::stream::{Engine, EngineConfig};
use nodesentry::telemetry::DatasetProfile;
use std::sync::Arc;

/// `/statusz` rendered before any verdict, connection or shard worker
/// reads every engine and wire series; the writers that register them
/// later must not find their help text blanked.
#[test]
fn an_early_statusz_keeps_every_stream_and_wire_help_line() {
    let mut cfg = quick_cfg();
    cfg.sharing.epochs = 2;
    let fx = Setup::fit(&DatasetProfile::tiny(), cfg);
    let engine = Engine::new(Arc::clone(&fx.model), EngineConfig::new(fx.ds.split));
    let status = obs::status::render();
    assert!(status.contains("\"stream\""), "{status}");
    for batch in fx.clean.chunks(fx.ds.n_nodes()) {
        engine.ingest(batch.to_vec()).expect("stream shard alive");
    }
    assert!(!engine.finish().verdicts.is_empty());

    let exposition = obs::metrics::global().render();
    let mut families = 0;
    for line in exposition.lines() {
        let Some(rest) = line.strip_prefix("# HELP ") else {
            continue;
        };
        let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
        if name.starts_with("ns_stream_") || name.starts_with("ns_wire_") {
            families += 1;
            assert!(!help.trim().is_empty(), "empty HELP for {name}");
        }
    }
    assert!(families > 0, "no stream or wire family in:\n{exposition}");
}
