//! A snapshot is outside input even when its checksum holds: whatever in
//! a [`NodeSnap`] the restored node would later index, stack into a
//! matrix or clamp against must be refused at restore, typed, because
//! the scoring job that would meet it runs outside any panic guard —
//! there a bad segment takes the whole shard down, `ingest` starts
//! returning `ShardClosed` and `finish` loses every node on it.

use nodesentry_core::{CoarseConfig, NodeInput, NodeSentry, NodeSentryConfig, SharingConfig};
use ns_features::FeatureCatalog;
use ns_stream::snapshot::{EngineSnapshot, JobSnap, NodeSnap, SnapshotError};
use ns_stream::{Engine, EngineConfig, EngineError, Tick};
use ns_telemetry::DatasetProfile;
use std::sync::Arc;

struct Setup {
    model: Arc<NodeSentry>,
    cfg: EngineConfig,
    /// Taken mid test span: every node has an open segment with rows.
    snapshot: EngineSnapshot,
    /// The ticks after the cut.
    tail: Vec<Tick>,
}

fn setup() -> Setup {
    let ds = DatasetProfile::tiny().generate();
    let groups = ds.catalog.group_ids();
    let inputs: Vec<NodeInput> = (0..ds.n_nodes())
        .map(|n| NodeInput {
            raw: ds.raw_node(n),
            transitions: Vec::new(),
        })
        .collect();
    let model_cfg = NodeSentryConfig {
        coarse: CoarseConfig {
            catalog: FeatureCatalog::compact(),
            k_max: 4,
            ..Default::default()
        },
        sharing: SharingConfig {
            window: 12,
            stride: 12,
            d_model: 8,
            n_heads: 2,
            n_layers: 1,
            hidden: 16,
            n_experts: 2,
            epochs: 1,
            batch: 16,
            k_nearest: 2,
            ..Default::default()
        },
        match_period: 40,
        min_segment_len: 8,
        ..Default::default()
    };
    let model = Arc::new(NodeSentry::fit(model_cfg, &inputs, &groups, ds.split));
    let ticks: Vec<Tick> = (0..ds.horizon())
        .flat_map(|step| {
            inputs.iter().enumerate().map(move |(node, input)| Tick {
                node,
                step,
                values: input.raw.row(step).to_vec(),
                transition: false,
            })
        })
        .collect();
    let cut = (ds.split + (ds.horizon() - ds.split) / 2) * ds.n_nodes();
    let mut cfg = EngineConfig::new(ds.split);
    cfg.n_shards = 1;
    let engine = Engine::new(Arc::clone(&model), cfg);
    engine.ingest(ticks[..cut].to_vec()).expect("shard alive");
    let snapshot = engine.checkpoint().expect("checkpoint").snapshot;
    drop(engine);
    Setup {
        model,
        cfg,
        snapshot,
        tail: ticks[cut..].to_vec(),
    }
}

#[test]
fn malformed_node_state_is_refused_at_restore_not_met_by_a_worker() {
    let s = setup();
    let width = s.model.preprocessor.out_dim();
    let open_rows = s.snapshot.nodes[0].seg_rows.len();
    assert!(open_rows > 1 && s.snapshot.nodes[0].seg_rows[0].len() == width);

    // The snapshot as taken restores from its bytes and runs to the end
    // with every worker alive.
    let engine = Engine::restore_bytes(Arc::clone(&s.model), s.cfg, &s.snapshot.to_bytes())
        .expect("the untouched snapshot restores");
    engine.ingest(s.tail.clone()).expect("shard alive");
    let report = engine.finish();
    assert_eq!(report.faults.worker_crashes, 0);
    assert!(!report.verdicts.is_empty());

    let job = |rows: Vec<Vec<f64>>| JobSnap {
        start: 0,
        kinds: vec![0; rows.len()],
        rows,
        matched: None,
        degraded: false,
    };
    let refused = |what: &str, bend: &dyn Fn(&mut NodeSnap)| {
        let mut bad = s.snapshot.clone();
        bend(&mut bad.nodes[0]);
        // Through the bytes: well-formed, checksummed, and still refused.
        match Engine::restore_bytes(Arc::clone(&s.model), s.cfg, &bad.to_bytes()) {
            Err(EngineError::Snapshot(SnapshotError::Decode(_))) => {}
            Err(other) => panic!("{what}: wrong error {other:?}"),
            Ok(engine) => {
                // What the refusal prevents: the next scoring job panics
                // outside the per-tick guard and the shard is gone.
                let alive = engine.ingest(s.tail.clone()).is_ok();
                let crashes = engine.finish().faults.worker_crashes;
                panic!("{what}: restored (tail ingested: {alive}, worker crashes: {crashes})");
            }
        }
    };

    // Segments a scoring job would stack and clamp against.
    refused("queued job with no rows", &|n| n.jobs.push(job(Vec::new())));
    refused("ragged open-segment row", &|n| {
        n.seg_rows[1].pop();
    });
    refused("ragged queued-job row", &|n| {
        n.jobs
            .push(job(vec![vec![0.0; width], vec![0.0; width - 1]]))
    });
    refused("queued-job rows wider than the model", &|n| {
        n.jobs.push(job(vec![vec![0.0; width + 1]; 3]))
    });
    refused("open-segment rows wider than the model", &|n| {
        n.seg_rows.iter_mut().for_each(|row| row.push(0.0))
    });
    // The refusals `NodeState::restore` already made.
    refused("stuck-watch state narrower than the feed", &|n| {
        n.prev_raw.pop();
    });
    refused("stuck-watch runs wider than the feed", &|n| n.runs.push(0));
    refused("open-segment provenance shorter than its rows", &|n| {
        n.seg_row_kinds.pop();
    });
    refused("queued-job provenance longer than its rows", &|n| {
        let mut j = job(vec![vec![0.0; width]]);
        j.kinds.push(0);
        n.jobs.push(j);
    });
    refused("fewer pending provenance marks than buffered rows", &|n| {
        n.pre.buf.push(vec![0.0; n.prev_raw.len()]);
        n.pre.nan_flags.push(false);
        n.pre.n_pushed += 1;
        n.row_kinds.clear();
    });
    refused("row-kind ordinal past the last", &|n| {
        n.seg_row_kinds[0] = 3
    });
    refused("pending row-kind ordinal past the last", &|n| {
        n.row_kinds.push(9)
    });
}
