//! Benchmark-side spans: one per call into a layer's public function,
//! recorded from the benchmark's own files. Kept in memory during the run,
//! written out as JSON lines when it ends, and folded into the stage budget
//! (calls, self time, share of the inline wall) the traced run prints.
//!
//! Nothing here touches the program: spans inside the crates are a later
//! change, and end-to-end metrics are always measured with ns-obs off.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one pass over the feed share an identifier.
    pub run_id: u32,
}

pub struct Recorder {
    epoch: Instant,
    run_id: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// One stage of the budget: how often the layer was called and how long it
/// ran, children excluded.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stage {
    pub calls: u64,
    pub self_ns: u64,
}

impl Stage {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            run_id: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new pass; spans opened from here on carry its identifier.
    pub fn next_run(&mut self) -> u32 {
        self.run_id += 1;
        self.run_id
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and anything left open inside it); returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        end_ns - self.spans[id].start_ns
    }

    /// Time one call into a layer.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// [`call`](Self::call) filed under another pass: a microbenchmark made
    /// in the middle of a budgeted pass must not count towards its budget.
    pub fn call_in<T>(&mut self, run_id: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        let current = std::mem::replace(&mut self.run_id, run_id);
        let out = self.call(name, f);
        self.run_id = current;
        out
    }

    /// Self time per span name within one pass: duration minus the part
    /// its child spans cover.
    pub fn stages(&self, run_id: u32) -> BTreeMap<&'static str, Stage> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Stage> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.run_id != run_id {
                continue;
            }
            let stage = out.entry(s.name).or_default();
            stage.calls += 1;
            stage.self_ns += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Durations of every span called `name` in one pass, nanoseconds.
    pub fn durations(&self, run_id: u32, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.run_id == run_id && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run_id
            )?;
        }
        Ok(())
    }

    /// Write the spans under `target/nsbench/`, the only place besides
    /// stdout the benchmark writes to.
    pub fn save(&self, workload: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("target").join("nsbench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}.spans.jsonl"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        self.write_jsonl(&mut w)?;
        w.flush()?;
        Ok(path)
    }
}

/// Print the stage budget of one pass against the wall it should add up to.
pub fn print_budget(title: &str, stages: &BTreeMap<&'static str, Stage>, wall_s: f64) {
    println!("stage budget — {title} (share of {:.1} ms)", wall_s * 1e3);
    println!(
        "  {:<28} {:>9} {:>12} {:>8}",
        "stage", "calls", "self ms", "share"
    );
    for (name, st) in stages {
        println!(
            "  {:<28} {:>9} {:>12.3} {:>7.1}%",
            name,
            st.calls,
            st.self_s() * 1e3,
            st.self_s() / wall_s * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed spans: parent 0..100, children 10..30
    /// and 40..90, grandchild 50..60, all in run 1; one span in run 2.
    fn fixture() -> Recorder {
        let span = |name, start_ns, end_ns, parent, run_id| Span {
            name,
            start_ns,
            end_ns,
            parent,
            run_id,
        };
        Recorder {
            epoch: Instant::now(),
            run_id: 2,
            spans: vec![
                span("offer", 0, 100, None, 1),
                span("push", 10, 30, Some(0), 1),
                span("score", 40, 90, Some(0), 1),
                span("push", 50, 60, Some(2), 1),
                span("offer", 200, 230, None, 2),
            ],
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let r = fixture();
        let st = r.stages(1);
        assert_eq!(
            st["offer"],
            Stage {
                calls: 1,
                self_ns: 30
            }
        );
        assert_eq!(
            st["score"],
            Stage {
                calls: 1,
                self_ns: 40
            }
        );
        assert_eq!(
            st["push"],
            Stage {
                calls: 2,
                self_ns: 30
            }
        );
        // Self times of a pass add up to its root's duration.
        assert_eq!(st.values().map(|s| s.self_ns).sum::<u64>(), 100);
        assert_eq!(r.stages(2)["offer"].self_ns, 30);
        assert_eq!(r.durations(1, "push"), vec![20.0, 10.0]);
    }

    #[test]
    fn enter_and_exit_nest_and_carry_the_run_id() {
        let mut r = Recorder::new();
        assert_eq!(r.next_run(), 1);
        let outer = r.enter("outer");
        let got = r.call("inner", || 7);
        assert_eq!(got, 7);
        let dangling = r.enter("dangling");
        let dur = r.exit(outer);
        assert_eq!(r.len(), 3);
        assert_eq!(r.spans[1].parent, Some(outer));
        assert_eq!(r.spans[dangling].parent, Some(outer));
        // Closing the outer span closes what was left open inside it.
        assert_eq!(r.spans[dangling].end_ns, r.spans[outer].end_ns);
        assert!(r.spans[1].start_ns >= r.spans[outer].start_ns);
        assert!(r.spans[1].end_ns <= r.spans[outer].end_ns);
        assert_eq!(dur, r.spans[outer].end_ns - r.spans[outer].start_ns);
        assert!(r.open.is_empty());
        r.next_run();
        let later = r.enter("later");
        r.exit(later);
        assert_eq!((r.spans[later].run_id, r.spans[later].parent), (2, None));
        r.call_in(1, "aside", || ());
        assert_eq!(r.spans.last().unwrap().run_id, 1);
        assert_eq!(r.run_id, 2);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut buf = Vec::new();
        fixture().write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[3],
            "{\"id\": 3, \"name\": \"push\", \"start_ns\": 50, \"end_ns\": 60, \"parent\": 2, \"run_id\": 1}"
        );
        assert!(lines[0].contains("\"parent\": null"));
    }
}
