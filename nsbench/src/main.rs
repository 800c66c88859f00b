//! `nsbench` — the benchmark every performance claim about the NodeSentry
//! streaming engine is measured with. Four workloads, end-to-end metrics
//! with regression bounds, a correctness gate on every replay, and a traced
//! run that times each layer from outside through its public functions.
//! See `README.md` beside this crate for the metric tables and the reasons
//! behind each workload.

mod layers;
mod metrics;
mod setup;
mod spans;
mod stats;
mod workloads;

use metrics::{Better, Report, END_TO_END, PER_LAYER};
use setup::{common_setup, digest, Feed, Gate, Oracle, Sizes, Workload, SETUP_REPS};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: nsbench --workload <steady_long|churn_short|wire_steady|elastic_128> \
[--seed <u64>] [--seconds <n>] [--trace <0|1> | --traced] [--smoke] [--repeat <n>] \
| --print-benchmark-json";

#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    /// Drives the feed's dataset and schedule seeds, nothing else.
    pub seed: u64,
    /// How long the measured phase of an end-to-end run lasts.
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub repeat: usize,
}

enum Cli {
    Run(Args),
    PrintBenchmarkJson,
}

fn parse_args(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::SteadyLong,
        seed: 11,
        seconds: metrics::RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value ({what})"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("a workload name")?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value("u64")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value("seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = value("count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--print-benchmark-json" => return Ok(Cli::PrintBenchmarkJson),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) || args.repeat == 0 {
        return Err("--seconds must lie in (0, 600] and --repeat be at least 1".into());
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(Cli::Run(args))
}

/// First line of a helper command's output, or `unknown` (the driver's
/// checkout is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn print_header(args: &Args, sizes: &Sizes) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "nsbench workload={} seed={} seconds={} traced={} smoke={} repeat={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.traced,
        args.smoke,
        args.repeat
    );
    println!(
        "env nproc={nproc} rustc=\"{}\" commit={}",
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"])
    );
    println!(
        "shards: 1 unless the metric name says otherwise (ticks_per_s_2shard: 2; \
         elastic restores alternate 1 and 2); load generated from one thread"
    );
    println!("sizes {sizes:?}");
}

/// What one run of a workload produced.
pub struct RunOutput {
    pub report: Report,
    pub gate: Gate,
}

/// Common set-up `reps` times; `setup_s` is the median. The fit is
/// deterministic, so every repetition must produce the same model.
fn setup_model(
    sizes: &Sizes,
    reps: usize,
    report: &mut Report,
    gate: &mut Gate,
) -> Arc<nodesentry_core::NodeSentry> {
    let mut totals = Vec::with_capacity(reps);
    let mut first: Option<Arc<nodesentry_core::NodeSentry>> = None;
    for _ in 0..reps {
        let (model, timing) = common_setup(sizes);
        totals.push(timing.total_s());
        gate.attempted += 1;
        let reference = first.get_or_insert(model.clone());
        let (a, b) = (reference.fingerprint(), model.fingerprint());
        gate.fail((a != b) as u64, || {
            format!("set-up: model fingerprint {b:016x} differs from {a:016x}")
        });
    }
    report.series("setup_s", &totals);
    first.expect("at least one set-up")
}

fn run_end_to_end(args: &Args, sizes: &Sizes) -> RunOutput {
    let mut report = Report::default();
    let mut gate = Gate::default();
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let model = setup_model(sizes, reps, &mut report, &mut gate);

    let feed = Feed::generate(args.workload, sizes, args.seed.wrapping_add(1));
    let oracle = Oracle::compute(&model, &feed);
    println!(
        "feed: {} nodes x {} steps, split {}, {} ticks, {} verdicts expected, {:.4} flagged; model k={}",
        feed.n_nodes(),
        feed.horizon,
        feed.split,
        feed.n_ticks(),
        feed.n_verdicts(),
        oracle.flagged_share(),
        model.n_clusters()
    );

    let f64 = ns_stream::ScoringPrecision::F64;
    let mut reference = None;
    // wire_steady must reproduce the in-process verdicts, so pin their
    // digest first.
    if args.workload == Workload::WireSteady {
        let r = workloads::replay_inproc(&model, &feed, 1, f64);
        let out = gate.check_report("in-process", &r.report, feed.n_ticks(), &oracle, true);
        gate.check_digest("in-process", &mut reference, digest(&out));
    }
    // A round is the workload's unit of timed work; rounds repeat until
    // the measuring time is used, and at least once.
    let mut round = |gate: &mut Gate| -> Vec<f64> {
        match args.workload {
            Workload::SteadyLong | Workload::ChurnShort => {
                let r = workloads::replay_inproc(&model, &feed, 1, f64);
                let out = gate.check_report("replay", &r.report, feed.n_ticks(), &oracle, true);
                gate.check_digest("replay", &mut reference, digest(&out));
                vec![r.ticks_per_s(&feed)]
            }
            Workload::WireSteady => match workloads::replay_wire(&model, &feed, None) {
                Ok(w) => {
                    workloads::check_wire(gate, "wire replay", &w, feed.n_ticks(), &oracle);
                    gate.check_digest("wire replay", &mut reference, digest(&w.outcomes));
                    vec![feed.n_ticks() as f64 / w.wall_s]
                }
                Err(e) => {
                    gate.fail_all(feed.n_ticks(), e);
                    Vec::new()
                }
            },
            Workload::Elastic128 => {
                let mut rec = spans::Recorder::new();
                workloads::elastic_round(
                    &model,
                    &feed,
                    sizes,
                    &oracle,
                    gate,
                    &mut rec,
                    |_, _, _| {},
                )
                .sampled()
                .iter()
                .map(workloads::CycleSample::ticks_per_s)
                .collect()
            }
        }
    };
    // One untimed warm-up round (an elastic round warms itself up: its
    // first cycle is never sampled).
    if args.workload != Workload::Elastic128 {
        round(&mut gate);
    }
    let mut samples = Vec::new();
    let measuring = Instant::now();
    loop {
        let t = Instant::now();
        samples.extend(round(&mut gate));
        let spent = measuring.elapsed().as_secs_f64();
        if args.smoke || spent + 0.5 * t.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    report.series("ticks_per_s", &samples);
    if let Some((_, peak)) = workloads::rss_mib() {
        report.scalar("peak_rss_mib", peak);
    }
    report.scalar("failed_share", gate.failed_share());
    println!(
        "measured {} samples in {:.1} s",
        samples.len(),
        measuring.elapsed().as_secs_f64()
    );
    RunOutput { report, gate }
}

/// Noise floor: the same workload run twice in one process. Every
/// end-to-end metric's second median must not be worse than the first by
/// more than its bound.
fn noise_floor(first: &Report, second: &Report) -> bool {
    println!("noise floor (second run against first, bound from the metric table):");
    let mut ok = true;
    for d in END_TO_END {
        let (Some(a), Some(b)) = (first.get(d.name), second.get(d.name)) else {
            println!("  {:<16} unresolved", d.name);
            ok = false;
            continue;
        };
        let worse = match d.better {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        };
        let pass = worse <= d.bound;
        ok &= pass;
        println!(
            "  {:<16} first {a:.6} second {b:.6} worse by {:+.2} % (bound {:.0} %) {}",
            d.name,
            worse * 100.0,
            d.bound * 100.0,
            if pass { "ok" } else { "FAILS" }
        );
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Cli::Run(args)) => args,
        Ok(Cli::PrintBenchmarkJson) => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("nsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The vendored rayon caches this once at pool start: a leftover value
    // would silently change every kernel's width.
    if std::env::var_os("RAYON_NUM_THREADS").is_some() {
        eprintln!("nsbench: refusing to run with RAYON_NUM_THREADS set");
        return ExitCode::from(2);
    }
    let sizes = Sizes::new(args.smoke);
    print_header(&args, &sizes);

    let mut runs: Vec<RunOutput> = Vec::with_capacity(args.repeat);
    for rep in 0..args.repeat {
        if args.repeat > 1 {
            println!("--- run {} of {} ---", rep + 1, args.repeat);
        }
        let out = if args.traced {
            layers::run_traced(&args, &sizes)
        } else {
            run_end_to_end(&args, &sizes)
        };
        out.report.print();
        for note in &out.gate.notes {
            println!("GATE: {note}");
        }
        runs.push(out);
    }
    let mut floor_ok = true;
    if let [first, .., last] = runs.as_slice() {
        if !args.traced {
            floor_ok = noise_floor(&first.report, &last.report);
        }
    }

    let last = runs.last().expect("at least one run");
    let attempted: u64 = runs.iter().map(|r| r.gate.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.gate.failed).sum();
    let defs = if args.traced { PER_LAYER } else { END_TO_END };
    let mut missing = Vec::new();
    let line = last
        .report
        .result_line(defs, attempted, failed, &mut missing);
    for name in &missing {
        println!("GATE: metric {name} was not resolved");
    }
    println!("{line}");
    if failed == 0 && missing.is_empty() && floor_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let Ok(Cli::Run(a)) = parse_args(&argv(
            "--workload churn_short --seed 12 --seconds 10 --trace 1",
        )) else {
            panic!("driver arguments must parse");
        };
        assert_eq!(a.workload, Workload::ChurnShort);
        assert_eq!((a.seed, a.seconds, a.traced, a.repeat), (12, 10.0, true, 1));
        let Ok(Cli::Run(a)) = parse_args(&argv("--workload elastic_128 --traced --smoke")) else {
            panic!("issue spelling must parse");
        };
        assert!(a.traced && a.smoke && a.seed == 11);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload steady_long --trace 2",
            "--workload steady_long --seconds 0",
            "--workload steady_long --repeat 0",
            "--workload steady_long --seed",
            "--workload steady_long --frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn noise_floor_applies_each_bound_in_its_direction() {
        let mut a = Report::default();
        a.scalar("setup_s", 4.0);
        a.scalar("ticks_per_s", 1000.0);
        a.scalar("peak_rss_mib", 100.0);
        let mut b = a.clone();
        assert!(noise_floor(&a, &b));
        // Faster and smaller is never a failure.
        b.scalar("ticks_per_s", 2000.0);
        b.scalar("setup_s", 1.0);
        assert!(noise_floor(&a, &b));
        // 30 % fewer ticks/s is past the throughput bound.
        b.scalar("ticks_per_s", 700.0);
        assert!(!noise_floor(&a, &b));
    }
}
