//! `bench_diff` — the acceptance rule for a performance claim, applied
//! mechanically to two sets of `nsbench` runs.
//!
//! ```text
//! bench_diff <BENCHMARK.json> <parent-dir> <change-dir>
//! ```
//!
//! Each directory holds one `<workload>.jsonl` per workload: the result
//! lines `nsbench` prints last (`{"correct": …, "metrics": {…}}`), one per
//! run, in run order — whole redirected stdouts work too, other lines are
//! skipped. Line *i* of the parent file and line *i* of the change file
//! are pair *i* (the two runs made back to back).
//!
//! For every metric `BENCHMARK.json` declares and the lines carry, it
//! prints each side's median, quartiles and IQR, the ratio with its base,
//! how many pairs each side won (ties for neither), and the verdict:
//! `resolved better` / `resolved worse` when one side wins at least nine
//! tenths of the pairs *and* the medians differ by more than the parent's
//! interquartile range, `unresolved` otherwise — never "unchanged". An
//! end-to-end metric also says whether the change's median is inside the
//! regression bound `BENCHMARK.json` fixes for it.

use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Better {
    Higher,
    Lower,
}

/// One metric as `BENCHMARK.json` declares it; only end-to-end metrics
/// carry a regression bound.
#[derive(Clone, Debug, PartialEq)]
struct MetricDef {
    name: String,
    better: Better,
    bound: Option<f64>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Verdict {
    ResolvedBetter,
    ResolvedWorse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::ResolvedBetter => "resolved better",
            Verdict::ResolvedWorse => "resolved worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
}

/// Median and quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` — the one `nsbench` prints and the
/// acceptance check computes. `None` for an empty series.
fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let quantile = |k: usize| match n {
        0 => None,
        1 => Some(s[0]),
        _ => {
            let pos = k * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            let delta = pos as f64 / 4.0 - j as f64;
            Some(s[j - 1] + (s[j] - s[j - 1]) * delta)
        }
    };
    Some(Summary {
        median: quantile(2)?,
        q1: quantile(1)?,
        q3: quantile(3)?,
    })
}

/// One metric on one workload, parent against change.
#[derive(Clone, Debug, PartialEq)]
struct Diff {
    parent: Summary,
    change: Summary,
    /// Line-index pairs compared: the shorter side's run count.
    pairs: usize,
    change_better: usize,
    parent_better: usize,
    /// Share of the parent median by which the change median is worse;
    /// negative when it is better.
    worse_by: f64,
    verdict: Verdict,
    /// `None` for a metric without a bound.
    inside_bound: Option<bool>,
}

fn diff(def: &MetricDef, parent: &[f64], change: &[f64]) -> Option<Diff> {
    let (p, c) = (summarize(parent)?, summarize(change)?);
    let beats = |a: f64, b: f64| match def.better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    };
    let pairs = parent.len().min(change.len());
    let change_better = (parent.iter().zip(change))
        .filter(|&(&p, &c)| beats(c, p))
        .count();
    let parent_better = (parent.iter().zip(change))
        .filter(|&(&p, &c)| beats(p, c))
        .count();
    // Nine tenths of all pairs run, ties counting for neither, and a
    // median gap the parent's own run-to-run spread does not explain.
    let decisive = |won: usize| 10 * won >= 9 * pairs && pairs > 0;
    let beyond_spread = (c.median - p.median).abs() > p.q3 - p.q1;
    let verdict = if decisive(change_better) && beats(c.median, p.median) && beyond_spread {
        Verdict::ResolvedBetter
    } else if decisive(parent_better) && beats(p.median, c.median) && beyond_spread {
        Verdict::ResolvedWorse
    } else {
        Verdict::Unresolved
    };
    let worse_by = match def.better {
        Better::Higher => (p.median - c.median) / p.median,
        Better::Lower => (c.median - p.median) / p.median,
    };
    Some(Diff {
        parent: p,
        change: c,
        pairs,
        change_better,
        parent_better,
        worse_by,
        verdict,
        inside_bound: def.bound.map(|b| worse_by <= b),
    })
}

/// Four significant digits, without an exponent.
fn num(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

impl Diff {
    /// One line: both sides, the ratio with its base, the pair count, the
    /// verdict and the bound.
    fn line(&self, def: &MetricDef) -> String {
        let side = |s: &Summary| {
            format!(
                "med {} [q1 {}, q3 {}, IQR {}]",
                num(s.median),
                num(s.q1),
                num(s.q3),
                num(s.q3 - s.q1)
            )
        };
        let bound = match (def.bound, self.inside_bound) {
            (Some(b), Some(inside)) => format!(
                "; {} by {:.1} %, {} the {:.0} % bound",
                if self.worse_by > 0.0 {
                    "worse"
                } else {
                    "better"
                },
                self.worse_by.abs() * 100.0,
                if inside { "inside" } else { "OUTSIDE" },
                b * 100.0
            ),
            _ => String::new(),
        };
        format!(
            "{} ({} is better): parent {} change {} ratio {} x parent median; \
             change better {}/{}, parent better {}/{}; gap {} vs parent IQR {} -> {}{}",
            def.name,
            match def.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            },
            side(&self.parent),
            side(&self.change),
            num(self.change.median / self.parent.median),
            self.change_better,
            self.pairs,
            self.parent_better,
            self.pairs,
            num((self.change.median - self.parent.median).abs()),
            num(self.parent.q3 - self.parent.q1),
            self.verdict.label(),
            bound
        )
    }
}

/// The runs of one workload on one side: every result line's metric
/// table, and the gate's counts summed.
#[derive(Default)]
struct Runs {
    metrics: Vec<Value>,
    attempted: u64,
    failed: u64,
}

impl Runs {
    /// Result lines out of `text`; anything not starting with `{` is the
    /// rest of a run's stdout and is skipped.
    fn parse(text: &str) -> Result<Runs, String> {
        let mut runs = Runs::default();
        for line in text.lines().filter(|l| l.starts_with('{')) {
            let v: Value =
                serde_json::from_str(line).map_err(|e| format!("bad result line: {e}"))?;
            let count = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
            runs.attempted += count("attempted");
            runs.failed += count("failed");
            runs.metrics
                .push(v.get("metrics").cloned().unwrap_or(Value::Null));
        }
        Ok(runs)
    }

    /// The metric's value in every run that reports it, in run order.
    fn series(&self, name: &str) -> Vec<f64> {
        (self.metrics.iter())
            .filter_map(|m| m.get(name)?.get("value")?.as_f64())
            .collect()
    }
}

fn metric_defs(benchmark: &Value, section: &str) -> Result<Vec<MetricDef>, String> {
    let Some(Value::Array(items)) = benchmark.get(section) else {
        return Err(format!("BENCHMARK.json has no {section} array"));
    };
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = match m.get("better").and_then(Value::as_str) {
                Some("higher") => Some(Better::Higher),
                Some("lower") => Some(Better::Lower),
                _ => None,
            };
            match (name, better) {
                (Some(name), Some(better)) => Ok(MetricDef {
                    name: name.to_string(),
                    better,
                    bound: m.get("bound").and_then(Value::as_f64),
                }),
                _ => Err(format!("{section}: metric without name or better: {m:?}")),
            }
        })
        .collect()
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(benchmark: &Path, parent_dir: &Path, change_dir: &Path) -> Result<(), String> {
    let benchmark: Value =
        serde_json::from_str(&read(benchmark)?).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut defs = metric_defs(&benchmark, "end_to_end")?;
    defs.extend(metric_defs(&benchmark, "per_layer")?);
    let Some(Value::Array(workloads)) = benchmark.get("workloads") else {
        return Err("BENCHMARK.json has no workloads array".into());
    };
    for workload in workloads.iter().filter_map(|w| w.get("name")?.as_str()) {
        let file = format!("{workload}.jsonl");
        let (parent_file, change_file) = (parent_dir.join(&file), change_dir.join(&file));
        if !parent_file.exists() && !change_file.exists() {
            println!("{workload}: no runs");
            continue;
        }
        let parent = Runs::parse(&read(&parent_file)?)?;
        let change = Runs::parse(&read(&change_file)?)?;
        println!(
            "{workload}: runs parent {} change {}; failed/attempted parent {}/{} change {}/{}",
            parent.metrics.len(),
            change.metrics.len(),
            parent.failed,
            parent.attempted,
            change.failed,
            change.attempted
        );
        for def in &defs {
            let (p, c) = (parent.series(&def.name), change.series(&def.name));
            if let Some(d) = diff(def, &p, &c) {
                println!("  {}", d.line(def));
                let pairs: Vec<String> = (p.iter().zip(&c))
                    .map(|(p, c)| format!("{}/{}", num(*p), num(*c)))
                    .collect();
                println!("    pairs parent/change: {}", pairs.join(" "));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [benchmark, parent, change] = args.as_slice() else {
        eprintln!("usage: bench_diff <BENCHMARK.json> <parent-dir> <change-dir>");
        return ExitCode::from(2);
    };
    match run(benchmark.as_ref(), parent.as_ref(), change.as_ref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: Option<f64>) -> MetricDef {
        MetricDef {
            name: "m".into(),
            better,
            bound,
        }
    }

    /// Ten parent runs around 100 with an IQR of 5.5.
    fn parent() -> Vec<f64> {
        (0..10).map(|i| 96.0 + i as f64).collect()
    }

    #[test]
    fn ten_of_ten_beyond_the_iqr_is_resolved_better() {
        let change: Vec<f64> = parent().iter().map(|p| p + 30.0).collect();
        let d = diff(&def(Better::Higher, Some(0.25)), &parent(), &change).unwrap();
        assert_eq!((d.pairs, d.change_better, d.parent_better), (10, 10, 0));
        assert_eq!(d.parent.q3 - d.parent.q1, 5.5);
        assert_eq!(d.verdict, Verdict::ResolvedBetter);
        assert_eq!(d.inside_bound, Some(true));
        assert!(d.worse_by < 0.0);
        // The same wins with a median gap inside the parent's spread
        // resolve nothing.
        let nudged: Vec<f64> = parent().iter().map(|p| p + 2.0).collect();
        let d = diff(&def(Better::Higher, None), &parent(), &nudged).unwrap();
        assert_eq!((d.change_better, d.verdict), (10, Verdict::Unresolved));
        assert_eq!(d.inside_bound, None);
    }

    #[test]
    fn eight_of_ten_is_unresolved_and_nine_is_enough() {
        let mut change: Vec<f64> = parent().iter().map(|p| p + 30.0).collect();
        change[0] = 90.0;
        let nine = diff(&def(Better::Higher, None), &parent(), &change).unwrap();
        assert_eq!((nine.change_better, nine.parent_better), (9, 1));
        assert_eq!(nine.verdict, Verdict::ResolvedBetter);
        change[1] = 90.0;
        let eight = diff(&def(Better::Higher, None), &parent(), &change).unwrap();
        assert_eq!((eight.change_better, eight.parent_better), (8, 2));
        assert_eq!(eight.verdict, Verdict::Unresolved);
    }

    #[test]
    fn lower_is_better_turns_every_comparison_round() {
        let slower: Vec<f64> = parent().iter().map(|p| p + 30.0).collect();
        let d = diff(&def(Better::Lower, Some(0.25)), &parent(), &slower).unwrap();
        assert_eq!((d.change_better, d.parent_better), (0, 10));
        assert_eq!(d.verdict, Verdict::ResolvedWorse);
        let faster: Vec<f64> = parent().iter().map(|p| p - 30.0).collect();
        let d = diff(&def(Better::Lower, Some(0.25)), &parent(), &faster).unwrap();
        assert_eq!(d.verdict, Verdict::ResolvedBetter);
        assert!(d.worse_by < 0.0 && d.inside_bound == Some(true));
    }

    #[test]
    fn a_tie_counts_for_neither_side() {
        let mut change: Vec<f64> = parent().iter().map(|p| p + 30.0).collect();
        change[3] = parent()[3];
        let d = diff(&def(Better::Higher, None), &parent(), &change).unwrap();
        assert_eq!((d.pairs, d.change_better, d.parent_better), (10, 9, 0));
        // Two ties leave 8 wins of 10 pairs run: short of nine tenths.
        change[4] = parent()[4];
        let d = diff(&def(Better::Higher, None), &parent(), &change).unwrap();
        assert_eq!((d.change_better, d.parent_better), (8, 0));
        assert_eq!(d.verdict, Verdict::Unresolved);
    }

    #[test]
    fn a_bound_miss_is_reported_whatever_the_verdict() {
        // 30 % fewer per second against a 25 % bound.
        let change: Vec<f64> = parent().iter().map(|p| p * 0.7).collect();
        let d = diff(&def(Better::Higher, Some(0.25)), &parent(), &change).unwrap();
        assert_eq!(d.inside_bound, Some(false));
        assert_eq!(d.verdict, Verdict::ResolvedWorse);
        assert!(d
            .line(&def(Better::Higher, Some(0.25)))
            .contains("OUTSIDE the 25 % bound"));
        // Outside the bound on the medians yet unresolved by pairs.
        let mut mixed = change.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        let d = diff(&def(Better::Higher, Some(0.25)), &parent(), &mixed).unwrap();
        assert_eq!(
            (d.inside_bound, d.verdict),
            (Some(false), Verdict::Unresolved)
        );
        // Unequal run counts pair by index up to the shorter side.
        let d = diff(&def(Better::Higher, None), &parent(), &change[..7]).unwrap();
        assert_eq!((d.pairs, d.parent_better), (7, 7));
        assert_eq!(diff(&def(Better::Higher, None), &parent(), &[]), None);
    }

    #[test]
    fn result_lines_and_benchmark_json_parse() {
        let stdout = "nsbench workload=wire_steady seed=1\n\
            {\"correct\": true, \"attempted\": 100, \"failed\": 0, \"metrics\": {\
            \"setup_s\": {\"value\": 3.25, \"unit\": \"s\"}, \
            \"ticks_per_s\": {\"value\": 20, \"unit\": \"ticks/s\"}}}\n\
            measured 3 samples\n\
            {\"correct\": false, \"attempted\": 50, \"failed\": 2, \"metrics\": {\
            \"ticks_per_s\": {\"value\": 30.5, \"unit\": \"ticks/s\"}}}\n";
        let runs = Runs::parse(stdout).unwrap();
        assert_eq!((runs.attempted, runs.failed), (150, 2));
        assert_eq!(runs.series("ticks_per_s"), vec![20.0, 30.5]);
        assert_eq!(runs.series("setup_s"), vec![3.25]);
        assert!(runs.series("peak_rss_mib").is_empty());
        assert!(Runs::parse("{not json").is_err());

        let benchmark: Value = serde_json::from_str(
            "{\"end_to_end\": [{\"name\": \"setup_s\", \"unit\": \"s\", \
             \"better\": \"lower\", \"bound\": 0.25}], \
             \"per_layer\": [{\"name\": \"wire.rx_bytes\", \"unit\": \"bytes\", \
             \"better\": \"lower\"}]}",
        )
        .unwrap();
        assert_eq!(
            metric_defs(&benchmark, "end_to_end").unwrap(),
            vec![MetricDef {
                name: "setup_s".into(),
                better: Better::Lower,
                bound: Some(0.25)
            }]
        );
        assert_eq!(metric_defs(&benchmark, "per_layer").unwrap()[0].bound, None);
        assert!(metric_defs(&benchmark, "workloads").is_err());
    }

    #[test]
    fn quartiles_match_the_benchmarks_own() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(summarize(&[7.0]).unwrap().q3, 7.0);
        assert_eq!(num(33812.4), "33812");
        assert_eq!(num(0.4712), "0.4712");
        assert_eq!(num(1.46), "1.460");
    }
}
