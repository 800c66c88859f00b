//! Cross-crate contract between the telemetry catalog and the
//! preprocessing pipeline: semantic groups aggregate, counters
//! rate-convert, correlated duplicates prune, and the final reduction is
//! in the paper's ballpark (~an order of magnitude).

use nodesentry::core::preprocess::{detect_counters, groups_from_names, Preprocessor};
use nodesentry::telemetry::{CatalogSpec, DatasetProfile, MetricCatalog};

#[test]
fn reduction_reaches_paper_ballpark() {
    let ds = DatasetProfile::tiny().generate();
    let raw = ds.raw_node(0).slice_rows(0, ds.split);
    let groups = ds.catalog.group_ids();
    let pp = Preprocessor::fit(&raw, &groups, 0.99, 0.05);
    let m_raw = ds.catalog.len();
    let m_out = pp.out_dim();
    assert!(m_out >= 10, "over-pruned to {m_out}");
    assert!(
        (m_out as f64) <= (m_raw as f64) * 0.35,
        "reduction too weak: {m_out} of {m_raw}"
    );
    // Transform yields standardized, clipped, finite output.
    let out = pp.transform(&ds.raw_node(0));
    assert_eq!(out.rows(), ds.horizon());
    assert!(out
        .as_slice()
        .iter()
        .all(|v| v.is_finite() && v.abs() <= 5.0));
}

#[test]
fn counters_are_detected_in_aggregated_telemetry() {
    let ds = DatasetProfile::tiny().generate();
    let raw = ds.raw_node(1).slice_rows(0, ds.split);
    let groups = ds.catalog.group_ids();
    let cleaned = {
        let mut m = raw.clone();
        nodesentry::core::preprocess::interpolate_missing(&mut m);
        m
    };
    let aggregated = nodesentry::core::preprocess::aggregate_groups(&cleaned, &groups);
    let counters = detect_counters(&aggregated);
    let n_counters = counters.iter().filter(|&&c| c).count();
    // The catalog assigns the Counter transform to ~20% of kinds.
    assert!(n_counters > 10, "only {n_counters} counters detected");
    assert!(n_counters < counters.len() / 2);
}

#[test]
fn name_based_grouping_matches_catalog_structure() {
    // The catalog's own group ids and the name-derived ones must induce
    // the same partition for per-unit metrics.
    let cat = MetricCatalog::build(CatalogSpec::small());
    let names: Vec<String> = cat.metrics().iter().map(|m| m.name.clone()).collect();
    let by_name = groups_from_names(&names);
    let by_catalog = cat.group_ids();
    // Same-group-by-catalog implies same-group-by-name.
    for i in 0..names.len() {
        for j in i + 1..names.len() {
            if by_catalog[i] == by_catalog[j] {
                assert_eq!(
                    by_name[i], by_name[j],
                    "{} vs {} split by name-grouping",
                    names[i], names[j]
                );
            }
        }
    }
}

#[test]
fn transitions_from_schedule_segment_the_timeline() {
    let ds = DatasetProfile::tiny().generate();
    for node in 0..ds.n_nodes() {
        let transitions = ds.transitions(node);
        let raw = ds.raw_node(node);
        let groups = ds.catalog.group_ids();
        let pp = Preprocessor::fit(&raw.slice_rows(0, ds.split), &groups, 0.99, 0.05);
        let processed = pp.transform(&raw);
        let segs =
            nodesentry::core::preprocess::segment_at_transitions(node, &processed, &transitions, 4);
        // Segments tile the horizon (up to dropped short spans).
        let covered: usize = segs.iter().map(|s| s.len()).sum();
        assert!(covered as f64 > 0.9 * ds.horizon() as f64);
        for w in segs.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }
}
