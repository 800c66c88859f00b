//! A dropped, unfinished engine abandons its run: `drop` returns only
//! once every shard thread has exited, and no verdict is scored after it
//! returns — nobody could receive one.
//!
//! The verdict counter lives in the process-global metrics registry, so
//! this suite is its own binary: no other engine may move it.
#![cfg(target_os = "linux")]

mod common;

use common::{engine_cfg, setup, CHUNK};
use nodesentry::obs;
use nodesentry::stream::metrics::VERDICTS_TOTAL;
use nodesentry::stream::Engine;
use std::sync::Arc;
use std::time::Duration;

/// Live threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

fn verdicts_emitted() -> u64 {
    let reg = obs::metrics::global();
    ["ok", "degraded"]
        .iter()
        .map(|kind| {
            reg.counter(
                VERDICTS_TOTAL,
                "Verdicts emitted by kind.",
                &[("kind", kind)],
            )
            .get()
        })
        .sum()
}

#[test]
fn dropping_an_unfinished_engine_joins_its_shards_without_scoring() {
    let fx = setup();
    obs::metrics::set_enabled(true);
    // The whole clean feed and no finish: every node ends holding an
    // open segment that only an end-of-stream flush would score.
    let engine = Engine::new(Arc::clone(&fx.model), engine_cfg(fx, 2));
    for chunk in fx.clean.chunks(CHUNK) {
        engine.ingest(chunk.to_vec()).expect("stream shard alive");
    }
    assert_eq!(threads_named("ns-stream-"), 2);
    drop(engine);
    assert_eq!(
        threads_named("ns-stream-"),
        0,
        "a shard thread outlived the dropped engine"
    );
    let after_drop = verdicts_emitted();
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(
        verdicts_emitted(),
        after_drop,
        "verdicts were scored after the engine was dropped"
    );
}
