//! Fig. 8 / §5.2 — the out-of-memory case study: a memory-level failure
//! degrades node metrics; NodeSentry matches the job against its pattern
//! library and flags the anomaly *before* the job fails, giving
//! operators lead time (paper: 54 minutes).

use nodesentry_core::NodeSentryConfig;
use ns_bench::{run_nodesentry, write_json};
use ns_telemetry::{AnomalyEvent, AnomalyKind};
use serde_json::json;

fn main() {
    // A dedicated scenario: the sweep profile plus one long memory
    // exhaustion injected into a running job on node 0.
    let mut profile = ns_bench::sweep_profile_d1();
    profile.name = "case-study".into();
    profile.events_per_node = 0.0; // we inject the single case manually
    let mut ds = profile.generate();

    // Find a job on node 0 running inside the test window.
    let split = ds.split;
    let job = ds
        .schedule
        .jobs
        .iter()
        .find(|j| j.nodes.contains(&0) && j.start >= split && j.duration() >= 120)
        .cloned()
        .expect("a long test-window job on node 0");
    // Memory exhaustion starting a third into the job; the job "fails"
    // when the event ends (or the job ends, whichever first).
    let ev_start = job.start + job.duration() / 3;
    let event = AnomalyEvent {
        node: 0,
        kind: AnomalyKind::MemoryExhaustion,
        start: ev_start,
        end: job.end,
    };
    // Re-simulate with the single event.
    ds = {
        let mut p = profile.clone();
        p.events_per_node = 0.0;
        let mut d = p.generate();
        let events = vec![event.clone()];
        d.latent =
            ns_telemetry::simulator::simulate_cluster(&d.schedule, &events, p.interval_s, p.seed);
        d.events = events;
        d
    };
    let failure_step = ds.failure_step(&event).expect("event overlaps the job");

    println!("=== Fig. 8 case study: memory exhaustion on node 0 ===");
    println!(
        "job {} ({:?}) on nodes {:?}: steps {}..{}",
        job.job_id, job.archetype, job.nodes, job.start, job.end
    );
    println!("anomaly onset step {ev_start}, job failure step {failure_step}");

    let (result, model, flags) = run_nodesentry(&ds, NodeSentryConfig::default(), split);
    println!(
        "detector trained: {} clusters, F1 on this scenario {:.3}",
        model.n_clusters(),
        result.f1
    );

    let first_detection = flags[0]
        .iter()
        .enumerate()
        .filter(|(t, &p)| p && t + split >= ev_start)
        .map(|(t, _)| t + split)
        .next();

    match first_detection {
        Some(step) => {
            let lead_steps = failure_step.saturating_sub(step);
            let lead_min = lead_steps as f64 * ds.profile.interval_s / 60.0;
            println!(
                "first detection at step {step} → lead time before job failure: {lead_min:.1} minutes"
            );
            println!("(paper case study: detected 54 minutes before the job failure)");
            write_json(
                "fig8_case_study",
                &json!({
                    "onset": ev_start,
                    "failure": failure_step,
                    "first_detection": step,
                    "lead_minutes": lead_min,
                }),
            );
            assert!(step < failure_step, "detection must precede failure");
        }
        None => {
            println!("anomaly NOT detected — case study failed");
            write_json("fig8_case_study", &json!({ "detected": false }));
            std::process::exit(1);
        }
    }
}
