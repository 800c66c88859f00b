//! The metric tables — the single source of truth for every name, unit,
//! direction and bound — plus the report a run prints them through.
//! `BENCHMARK.json` is generated from these tables (`--print-benchmark-json`)
//! and a unit test keeps the committed file equal to them.

use crate::setup::Workload;
use crate::stats::{self, Summary};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees. Every workload reports every one of
/// these (the contract `BENCHMARK.json` is checked against), so each is
/// defined on the workload's own path: see the README for what
/// `ticks_per_s` covers on each workload.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ticks_per_s", "ticks/s", Better::Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.20),
];

use Better::{Higher, Lower};

/// Single-layer metrics of the traced run. No bounds: they explain a move
/// of an end-to-end metric, they do not gate one.
pub const PER_LAYER: &[Def] = &[
    // Set-up phases and the fit's own ns-obs spans (read, not added).
    layer("setup.datagen_s", "s", Lower),
    layer("setup.fit_s", "s", Lower),
    layer("setup.warmup_s", "s", Lower),
    layer("setup.materialise_s", "s", Lower),
    layer("setup.oracle_s", "s", Lower),
    layer("core.fit.preprocess_s", "s", Lower),
    layer("core.fit.segment_s", "s", Lower),
    layer("core.fit.coarse_features_s", "s", Lower),
    layer("core.fit.coarse_linkage_s", "s", Lower),
    layer("core.fit.fine_train_s", "s", Lower),
    layer("core.fit.clusters", "count", Higher),
    layer("core.fit.segments", "count", Higher),
    // Wire codec, timed on the workload's first 4,096 ticks.
    layer("wire.encode_ns_per_tick", "ns/tick", Lower),
    layer("wire.decode_ns_per_tick", "ns/tick", Lower),
    layer("wire.bytes_per_tick", "bytes/tick", Lower),
    layer("wire.frames_per_cycle", "frames/cycle", Lower),
    layer("wire.fnv_mib_per_s", "MiB/s", Higher),
    // Ingest server and the loopback path.
    layer("wire.ticks_per_s", "ticks/s", Higher),
    layer("ingest.residual_us_per_tick", "us/tick", Lower),
    layer("ingest.batch_ticks_p50", "ticks", Higher),
    layer("wire.rx_bytes", "bytes", Lower),
    layer("wire.tx_bytes", "bytes", Lower),
    layer("wire.drain_ms", "ms", Lower),
    layer("cycle_rtt_ms_p50", "ms", Lower),
    layer("cycle_rtt_ms_p90", "ms", Lower),
    layer("wire.generator_lag_ms_p90", "ms", Lower),
    layer("wire.late_cycle_share", "share", Lower),
    // Per-node pipeline, driven inline from the benchmark.
    layer("preprocess.push_ns_per_tick", "ns/tick", Lower),
    layer("preprocess.rows_out", "count", Higher),
    layer("node.offer_ns_per_tick_p50", "ns/tick", Lower),
    layer("node.flush_ms_p50", "ms", Lower),
    layer("node.offer_reordered_ns_per_tick", "ns/tick", Lower),
    layer("node.unattributed_share", "share", Lower),
    layer("features.assemble_us_per_probe", "us/probe", Lower),
    layer("features.extract_us_per_probe", "us/probe", Lower),
    layer("features.dim", "count", Lower),
    layer("coarse.standardize_ns_per_probe", "ns/probe", Lower),
    layer("coarse.match_ns_per_probe", "ns/probe", Lower),
    layer("coarse.probes", "count", Lower),
    layer("coarse.k", "count", Lower),
    layer("sharing.score_us_per_row", "us/row", Lower),
    layer("sharing.score_batch_us_per_row", "us/row", Lower),
    layer("sharing.rows_per_segment_p50", "rows", Higher),
    layer("eval.threshold_ns_per_point", "ns/point", Lower),
    // Stage shares of the inline wall: what each workload was built for.
    layer("budget.features_share", "share", Lower),
    layer("budget.sharing_share", "share", Lower),
    layer("budget.coverage", "share", Higher),
    // Engine: sharding, queues, scoring tiers.
    layer("engine.ticks_per_s", "ticks/s", Higher),
    layer("ticks_per_s_f32", "ticks/s", Higher),
    layer("ticks_per_s_2shard", "ticks/s", Higher),
    layer("f32_flag_agreement", "share", Higher),
    layer("engine.shard_speedup_2", "ratio", Higher),
    layer("engine.overhead_share", "share", Lower),
    layer("engine.ingest_call_us_p50", "us", Lower),
    layer("engine.blocked_share", "share", Higher),
    layer("engine.drain_ms", "ms", Lower),
    layer("stream.report.match_ms_per_probe", "ms/probe", Lower),
    layer("stream.report.score_us_per_point", "us/point", Lower),
    layer("stream.report.score_us_per_point_f32", "us/point", Lower),
    layer("stream.report.match_share", "share", Lower),
    layer("stream.report.score_share", "share", Lower),
    layer("stream.batch_segments_p50", "count", Higher),
    layer("stream.batch_probes_p50", "count", Higher),
    layer("pool.jobs", "count", Lower),
    layer("pool.tasks", "count", Lower),
    layer("pool.steals", "count", Lower),
    // Snapshot layer: write beside read.
    layer("checkpoint_ms", "ms", Lower),
    layer("restore_ms", "ms", Lower),
    layer("snapshot_mib", "MiB", Lower),
    layer("engine_rss_mib", "MiB", Lower),
    layer("snapshot.encode_ms", "ms", Lower),
    layer("snapshot.decode_ms", "ms", Lower),
    layer("snapshot.capture_ms", "ms", Lower),
    layer("snapshot.rebuild_ms", "ms", Lower),
    layer("snapshot.checkpoint_mib_per_s", "MiB/s", Higher),
    layer("snapshot.restore_mib_per_s", "MiB/s", Higher),
    layer("snapshot.kib_per_node", "KiB/node", Lower),
    layer("engine.rss_kib_per_node", "KiB/node", Lower),
    layer("snapshot.resume_ticks_per_s", "ticks/s", Higher),
    // Instrument health.
    layer("obs.trace_overhead_pct", "%", Lower),
];

/// Printed in the table when resolved, never in the result line: a p99
/// needs a thousand samples, which a traced run does not always have, and
/// the result line must hold a number for every name it lists.
pub const TABLE_ONLY: &[Def] = &[
    layer("failed_share", "share", Lower),
    layer("node.flush_ms_p90", "ms", Lower),
    layer("wire.cycle_rtt_ms_p99", "ms", Lower),
    layer("wire.generator_lag_ms_p99", "ms", Lower),
];

fn def_of(name: &str) -> &'static Def {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(TABLE_ONLY)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
}

/// One measured metric: its value plus the spread and sample count behind
/// it. `value` is `None` for a percentile without ten samples beyond it.
#[derive(Clone, Debug)]
pub struct Measured {
    pub def: &'static Def,
    pub value: Option<f64>,
    pub n: usize,
    pub quartiles: Option<(f64, f64)>,
    pub note: Option<&'static str>,
}

/// Everything one run measured, in the order it was measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub rows: Vec<Measured>,
}

impl Report {
    fn push(&mut self, name: &str, value: Option<f64>, n: usize, quartiles: Option<(f64, f64)>) {
        self.rows.push(Measured {
            def: def_of(name),
            value,
            n,
            quartiles,
            note: None,
        });
    }

    /// A single measurement or a count.
    pub fn scalar(&mut self, name: &str, value: f64) {
        self.push(name, Some(value), 1, None);
    }

    /// The median of a series, with its quartiles and sample count.
    pub fn series(&mut self, name: &str, samples: &[f64]) {
        match stats::summarize(samples) {
            Some(Summary { n, median, q1, q3 }) => self.push(name, Some(median), n, Some((q1, q3))),
            None => self.push(name, None, 0, None),
        }
    }

    /// A percentile of a series: `null` unless ten samples lie beyond it.
    pub fn percentile(&mut self, name: &str, samples: &[f64], p: f64) {
        self.push(name, stats::percentile(samples, p), samples.len(), None);
    }

    /// Mark the latest row of `name` (e.g. `unresolved`).
    pub fn annotate(&mut self, name: &str, note: &'static str) {
        if let Some(row) = self.rows.iter_mut().rev().find(|r| r.def.name == name) {
            row.note = Some(note);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .rev()
            .find(|r| r.def.name == name)
            .and_then(|r| r.value)
    }

    /// Every metric by name with unit, sample count and spread.
    pub fn print(&self) {
        println!(
            "{:<40} {:>16} {:<13} {:>6}  quartiles",
            "metric", "value", "unit", "n"
        );
        for r in &self.rows {
            let value = r
                .value
                .map_or_else(|| "null".to_string(), |v| format!("{v:.6}"));
            let spread = r
                .quartiles
                .map_or_else(String::new, |(q1, q3)| format!("[{q1:.6}, {q3:.6}]"));
            println!(
                "{:<40} {:>16} {:<13} {:>6}  {spread}{}",
                r.def.name,
                value,
                r.def.unit,
                r.n,
                r.note.map_or_else(String::new, |n| format!(" {n}")),
            );
        }
    }

    /// The result line: exactly the metrics of `defs`, each a number as
    /// measured. A listed metric this run did not resolve is reported
    /// through `missing` (and fails the run) rather than dropped.
    pub fn result_line(
        &self,
        defs: &[Def],
        attempted: u64,
        failed: u64,
        missing: &mut Vec<&'static str>,
    ) -> String {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let value = match self.get(d.name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    missing.push(d.name);
                    0.0
                }
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        let correct = failed == 0 && missing.is_empty();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            failed + missing.len() as u64,
            metrics.join(", ")
        )
    }
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"nsbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"nsbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER).chain(TABLE_ONLY) {
            assert!(name_ok(d.name), "name {}", d.name);
            assert!(unit_ok(d.unit), "unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
        }
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "bound of {}", d.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_lists_exactly_the_asked_metrics() {
        let mut r = Report::default();
        r.scalar("setup_s", 3.25);
        r.series("ticks_per_s", &[10.0, 30.0, 20.0]);
        r.scalar("peak_rss_mib", 512.5);
        r.percentile("wire.cycle_rtt_ms_p99", &[1.0; 50], 0.99);
        let mut missing = Vec::new();
        let line = r.result_line(END_TO_END, 100, 0, &mut missing);
        assert!(missing.is_empty());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 100, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 3.25, \"unit\": \"s\"}, \
             \"ticks_per_s\": {\"value\": 20, \"unit\": \"ticks/s\"}, \
             \"peak_rss_mib\": {\"value\": 512.5, \"unit\": \"MiB\"}}}"
        );
        // An unresolved percentile stays null in the table and, were it
        // listed, would fail the run instead of vanishing.
        assert_eq!(r.get("wire.cycle_rtt_ms_p99"), None);
        let line = r.result_line(TABLE_ONLY, 100, 0, &mut missing);
        assert!(missing.contains(&"wire.cycle_rtt_ms_p99"));
        assert!(line.starts_with("{\"correct\": false"));
    }
}
