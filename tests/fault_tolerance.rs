//! Differential fault-tolerance conformance: for every fault class in
//! `ns-telemetry::faults`, run the hardened streaming engine on the
//! *faulted* stream and the batch `score_node` oracle on the *clean*
//! stream, then hold them together:
//!
//! * outside the fault-affected windows (widened to the oracle's segment
//!   boundaries), verdicts are bit-identical — score, cluster, and
//!   `VerdictKind::Ok`;
//! * flags are additionally compared outside a short washout after each
//!   window, where the k-sigma reference window still remembers the
//!   fault;
//! * inside the windows, any verdict whose score diverges from the
//!   oracle must be annotated `Degraded`;
//! * a verdict is never emitted for a step that was never delivered;
//! * the engine finishes without panic or deadlock at 1, 2, and 4
//!   shards, and no state leaks across a blackout rejoin.

mod common;

use common::{engine_cfg, run_uninterrupted, setup, Setup};
use nodesentry::stream::{EngineReport, VerdictKind};
use nodesentry::telemetry::{FaultEvent, FaultInjector, FaultKind, FaultOutcome, FaultPlan};
use std::collections::HashMap;

const SHARDS: [usize; 3] = [1, 2, 4];
/// Rows of guard on each side of a fault window for cross-row coupling
/// (NaN interpolation reaches backward, counter rates one row forward).
const GUARD_BACK: usize = 4;
const GUARD_FWD: usize = 1;

/// Flag-comparison washout after each dirty window. The k-sigma
/// reference excludes previously-flagged points and looks back up to
/// 3·window candidates, so flag history needs up to ~4·window clean steps
/// to forget a fault.
fn washout(setup: &Setup) -> usize {
    setup.model.cfg.threshold.window * 4 + 8
}

/// Widen a dirty step range by the coupling guards, then to the oracle's
/// segment granularity (scores are segment-local, so divergence spreads
/// exactly to the enclosing segments).
fn expand(setup: &Setup, node: usize, s: usize, e: usize) -> (usize, usize) {
    let sg = s.saturating_sub(GUARD_BACK);
    let eg = e + GUARD_FWD;
    let mut lo = sg.max(setup.ds.split);
    let mut hi = eg.min(setup.ds.horizon());
    for &(ss, se) in &setup.oracles()[node].segments {
        if ss < eg && se > sg {
            lo = lo.min(ss);
            hi = hi.max(se);
        }
    }
    (lo, hi)
}

fn in_windows(windows: &[(usize, usize)], step: usize) -> bool {
    windows.iter().any(|&(s, e)| step >= s && step < e)
}

fn in_washout(windows: &[(usize, usize)], step: usize, washout: usize) -> bool {
    windows
        .iter()
        .any(|&(_, e)| step >= e && step < e + washout)
}

/// The differential contract, given per-node expanded dirty windows.
fn differential_check(
    setup: &Setup,
    report: &EngineReport,
    outcome: &FaultOutcome,
    windows: &[Vec<(usize, usize)>],
    tag: &str,
) {
    let split = setup.ds.split;
    let horizon = setup.ds.horizon();
    let mut seen: HashMap<(usize, usize), usize> = HashMap::new();
    for (i, v) in report.verdicts.iter().enumerate() {
        assert!(
            v.step >= split && v.step < horizon,
            "{tag}: verdict outside test span at node {} step {}",
            v.node,
            v.step
        );
        assert!(
            !outcome.dropped.contains(&(v.node, v.step)),
            "{tag}: verdict for never-delivered tick node {} step {}",
            v.node,
            v.step
        );
        assert!(
            seen.insert((v.node, v.step), i).is_none(),
            "{tag}: duplicate verdict at node {} step {}",
            v.node,
            v.step
        );
    }
    for (node, win) in windows.iter().enumerate() {
        let oracle = &setup.oracles()[node];
        for step in split..horizon {
            let k = step - split;
            let inside = in_windows(win, step);
            let v = match seen.get(&(node, step)) {
                Some(&i) => &report.verdicts[i],
                None => {
                    assert!(
                        inside,
                        "{tag}: missing verdict outside fault windows at node {node} step {step}"
                    );
                    continue;
                }
            };
            let same_score = v.score.to_bits() == oracle.scores[k].to_bits();
            if !inside {
                assert!(
                    same_score,
                    "{tag}: node {node} step {step}: stream {} vs batch {}",
                    v.score, oracle.scores[k]
                );
                assert_eq!(
                    v.cluster, oracle.clusters[k],
                    "{tag}: cluster diverged at node {node} step {step}"
                );
                assert_eq!(
                    v.kind,
                    VerdictKind::Ok,
                    "{tag}: clean verdict degraded at node {node} step {step}"
                );
                if !in_washout(win, step, washout(setup)) {
                    assert_eq!(
                        v.anomalous, oracle.flags[k],
                        "{tag}: flag diverged at node {node} step {step}"
                    );
                }
            } else if !same_score {
                assert_eq!(
                    v.kind,
                    VerdictKind::Degraded,
                    "{tag}: divergent score not annotated at node {node} step {step}"
                );
            }
        }
    }
}

/// Build per-node window lists from one event's raw dirty range.
fn windows_for(setup: &Setup, node: usize, s: usize, e: usize) -> Vec<Vec<(usize, usize)>> {
    let mut w = vec![Vec::new(); setup.ds.n_nodes()];
    if e > s {
        w[node].push(expand(setup, node, s, e));
    }
    w
}

fn run_class(event: FaultEvent, dirty: Option<(usize, usize)>, tag: &str) -> Vec<EngineReport> {
    let setup = setup();
    let node = event.node;
    let (ds_s, ds_e) = dirty.unwrap_or_else(|| event.dirty_range());
    let windows = windows_for(setup, node, ds_s, ds_e);
    let plan = FaultPlan::single(event, 0xD1FF);
    let outcome = FaultInjector::new(plan).apply(&setup.clean);
    let mut reports = Vec::new();
    for shards in SHARDS {
        let report = run_uninterrupted(setup, &outcome.stream, engine_cfg(setup, shards));
        differential_check(
            setup,
            &report,
            &outcome,
            &windows,
            &format!("{tag}/s{shards}"),
        );
        reports.push(report);
    }
    reports
}

fn event(kind: FaultKind, node: usize, start: usize, end: usize, mag: f64) -> FaultEvent {
    FaultEvent {
        node,
        kind,
        start,
        end,
        magnitude: mag,
        cols: Vec::new(),
    }
}

#[test]
fn drop_faults_synthesize_and_degrade() {
    let reports = run_class(event(FaultKind::Drop, 0, 420, 450, 0.6), None, "drop");
    for r in &reports {
        assert!(r.faults.synthesized_rows > 0, "drops must be synthesized");
        assert!(r.faults.suppressed_verdicts > 0);
        assert!(r.faults.degraded_verdicts > 0);
        assert_eq!(r.faults.blackouts, 0, "short gaps are not blackouts");
    }
}

#[test]
fn duplicates_heal_to_bit_exact() {
    let reports = run_class(event(FaultKind::Duplicate, 1, 400, 500, 0.5), None, "dup");
    let setup = setup();
    for r in &reports {
        assert!(r.faults.late_ticks > 0, "re-deliveries must be rejected");
        assert_eq!(r.faults.synthesized_rows, 0);
        assert_eq!(r.faults.degraded_verdicts, 0, "duplicates heal completely");
        assert_eq!(
            r.verdicts.len(),
            setup.ds.n_nodes() * (setup.ds.horizon() - setup.ds.split),
            "every step still gets its verdict"
        );
    }
}

#[test]
fn bounded_reorder_heals_to_bit_exact() {
    let reports = run_class(event(FaultKind::Reorder, 2, 380, 560, 4.0), None, "reorder");
    let setup = setup();
    for r in &reports {
        assert!(
            r.faults.reordered_ticks > 0,
            "shuffle must exercise the buffer"
        );
        assert_eq!(
            r.faults.synthesized_rows, 0,
            "bounded reorder loses nothing"
        );
        assert_eq!(r.faults.degraded_verdicts, 0);
        assert_eq!(
            r.verdicts.len(),
            setup.ds.n_nodes() * (setup.ds.horizon() - setup.ds.split)
        );
    }
}

#[test]
fn nan_bursts_degrade_their_segments() {
    let reports = run_class(event(FaultKind::NanBurst, 3, 430, 445, 1.0), None, "nan");
    for r in &reports {
        assert!(r.faults.nan_rows > 0, "all-NaN rows must be spotted");
        assert!(r.faults.degraded_verdicts > 0);
        assert_eq!(
            r.faults.suppressed_verdicts, 0,
            "delivered steps keep verdicts"
        );
    }
}

#[test]
fn stuck_sensors_are_confirmed_and_degraded() {
    let setup = setup();
    let mut ev = event(FaultKind::StuckSensor, 0, 460, 500, 1.0);
    // Freeze every raw column — a wedged collector repeats whole frames.
    ev.cols = (0..setup.model.preprocessor.groups.len()).collect();
    let reports = run_class(ev, None, "stuck");
    for r in &reports {
        assert!(r.faults.stuck_rows > 0, "run-length watch must confirm");
        assert!(r.faults.degraded_verdicts > 0);
    }
}

#[test]
fn counter_resets_degrade_the_reset_segment() {
    let setup = setup();
    // Confine the glitch to one oracle segment: the downward step at
    // `start` is flagged and degrades the segment, but the recovery
    // spike at `end` is indistinguishable from a real burst, so it must
    // land in the same (already degraded) segment for the contract to
    // hold.
    let (ss, se) = setup.oracles()[1]
        .segments
        .iter()
        .copied()
        .find(|&(ss, se)| se - ss >= 16)
        .expect("an oracle segment long enough for the glitch");
    let mut ev = event(FaultKind::CounterReset, 1, ss + 2, se - 4, 1.0);
    ev.cols = setup.counter_cols.clone();
    let reports = run_class(ev, None, "reset");
    for r in &reports {
        assert!(
            r.faults.counter_resets > 0,
            "backward counter must be spotted"
        );
        assert!(r.faults.degraded_verdicts > 0);
    }
}

#[test]
fn clock_skew_is_absorbed_with_synthesis() {
    let reports = run_class(event(FaultKind::ClockSkew, 2, 410, 440, 6.0), None, "skew");
    for r in &reports {
        assert!(
            r.faults.synthesized_rows > 0,
            "erased labels must be synthesized"
        );
        assert!(r.faults.late_ticks > 0, "doubled labels must be rejected");
        assert!(r.faults.degraded_verdicts > 0);
    }
}

#[test]
fn blackout_resyncs_without_leaking_state() {
    let setup = setup();
    let (start, end) = (400usize, 460usize);
    // Engine state realigns with the oracle at the first transition after
    // rejoin; everything from the blackout to that cut is dirty.
    let resync_cut = setup.oracles()[3]
        .segments
        .iter()
        .map(|&(_, se)| se)
        .find(|&se| se >= end + GUARD_BACK)
        .unwrap_or(setup.ds.horizon());
    let reports = run_class(
        event(FaultKind::Blackout, 3, start, end, 1.0),
        Some((start, resync_cut)),
        "blackout",
    );
    for r in &reports {
        assert_eq!(r.faults.blackouts, 1, "one reset per run");
        assert_eq!(
            r.faults.synthesized_rows, 0,
            "a blackout resyncs instead of synthesizing the whole gap"
        );
        assert!(r.faults.degraded_verdicts > 0);
        // The gap itself gets no verdicts at all.
        assert!(r
            .verdicts
            .iter()
            .all(|v| v.node != 3 || !(start..end).contains(&v.step)));
    }
}

#[test]
fn chaos_panic_quarantines_one_node_only() {
    let setup = setup();
    let mut cfg = engine_cfg(setup, 2);
    cfg.panic_at = Some((1, 450));
    let report = run_uninterrupted(setup, &setup.clean, cfg);
    assert_eq!(report.faults.quarantined_nodes, 1);
    assert!(report.faults.quarantine_dropped > 0);
    assert_eq!(report.faults.worker_crashes, 0, "the shard itself survives");
    // Every other node is bit-exact end to end.
    for node in [0usize, 2, 3] {
        let oracle = &setup.oracles()[node];
        let verdicts: Vec<_> = report.verdicts.iter().filter(|v| v.node == node).collect();
        assert_eq!(verdicts.len(), setup.ds.horizon() - setup.ds.split);
        for v in verdicts {
            let k = v.step - setup.ds.split;
            assert_eq!(v.score.to_bits(), oracle.scores[k].to_bits());
            assert_eq!(v.kind, VerdictKind::Ok);
        }
    }
    // The quarantined node emitted only pre-panic (still bit-exact)
    // verdicts.
    for v in report.verdicts.iter().filter(|v| v.node == 1) {
        assert!(v.step < 450, "no verdicts after the panic step");
        let k = v.step - setup.ds.split;
        assert_eq!(v.score.to_bits(), setup.oracles()[1].scores[k].to_bits());
    }
}

#[test]
fn all_fault_classes_at_once_still_conform() {
    let setup = setup();
    let mut events = vec![
        event(FaultKind::Drop, 0, 420, 450, 0.6),
        event(FaultKind::Duplicate, 1, 400, 460, 0.5),
        event(FaultKind::Reorder, 2, 380, 430, 4.0),
        event(FaultKind::NanBurst, 3, 520, 535, 1.0),
        event(FaultKind::StuckSensor, 0, 500, 540, 1.0),
        event(FaultKind::ClockSkew, 1, 500, 530, 6.0),
        event(FaultKind::Blackout, 2, 460, 520, 1.0),
    ];
    events[4].cols = (0..setup.model.preprocessor.groups.len()).collect();
    let mut windows: Vec<Vec<(usize, usize)>> = vec![Vec::new(); setup.ds.n_nodes()];
    for ev in &events {
        let (s, e) = match ev.kind {
            FaultKind::Blackout => {
                let resync = setup.oracles()[ev.node]
                    .segments
                    .iter()
                    .map(|&(_, se)| se)
                    .find(|&se| se >= ev.end + GUARD_BACK)
                    .unwrap_or(setup.ds.horizon());
                (ev.start, resync)
            }
            _ => ev.dirty_range(),
        };
        if e > s {
            windows[ev.node].push(expand(setup, ev.node, s, e));
        }
    }
    let plan = FaultPlan {
        events,
        seed: 0xA11,
    };
    let outcome = FaultInjector::new(plan).apply(&setup.clean);
    for shards in SHARDS {
        let report = run_uninterrupted(setup, &outcome.stream, engine_cfg(setup, shards));
        differential_check(
            setup,
            &report,
            &outcome,
            &windows,
            &format!("all/s{shards}"),
        );
        assert!(report.faults.synthesized_rows > 0);
        assert!(report.faults.degraded_verdicts > 0);
        assert_eq!(report.faults.blackouts, 1);
    }
}
