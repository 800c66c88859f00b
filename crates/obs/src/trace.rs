//! Hierarchical span tracer.
//!
//! A span covers a scope via RAII: [`span`] (or the [`span!`](crate::span)
//! macro) pushes the name onto a thread-local stack and the returned
//! [`SpanGuard`] records the elapsed wall time on drop, keyed by the full
//! `parent/child/...` path. Aggregated per-path statistics live in a
//! global tree.
//!
//! Spans opened on different threads (e.g. inside a rayon parallel
//! region or a stream shard worker) nest under whatever is on *that*
//! thread's stack — usually the root — and aggregate by path like any
//! other span, so cross-thread stages still merge into one report line.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enable or disable span recording process-wide. Guards created while
/// disabled stay no-ops even if tracing is enabled before they drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Convenience for [`set_enabled`]`(true)`.
pub fn enable() {
    set_enabled(true);
}

/// Whether spans are currently being recorded.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Aggregated statistics of one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStat {
    /// Completed spans at this path.
    pub count: u64,
    /// Summed wall time in nanoseconds.
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl SpanStat {
    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    /// Summed wall time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }
}

/// The span tree: aggregated statistics by full path.
static STORE: Mutex<BTreeMap<String, SpanStat>> = Mutex::new(BTreeMap::new());

fn lock_store() -> MutexGuard<'static, BTreeMap<String, SpanStat>> {
    STORE.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// Names of the spans currently open on this thread, root first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one span. Created by [`span`]; records the elapsed
/// wall time into the global span tree when dropped (if tracing was
/// enabled at creation). The guard always carries its start time, so
/// [`elapsed_seconds`](SpanGuard::elapsed_seconds) works even while
/// tracing is disabled — callers that need the duration (the bench
/// harness) read it from the same clock the tree records.
pub struct SpanGuard {
    start: Instant,
    /// `Some(depth)` when this guard pushed onto the thread stack and
    /// must record + pop on drop.
    recording: Option<usize>,
}

/// Open a span named `name`, nested under the spans already open on this
/// thread.
pub fn span(name: &'static str) -> SpanGuard {
    let recording = if is_enabled() {
        let depth = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(name);
            s.len()
        });
        Some(depth)
    } else {
        None
    };
    SpanGuard {
        start: Instant::now(),
        recording,
    }
}

impl SpanGuard {
    /// Wall seconds since the span opened (works with tracing disabled).
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Close the span now and return its duration in seconds.
    pub fn finish_seconds(self) -> f64 {
        let s = self.elapsed_seconds();
        drop(self);
        s
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(depth) = self.recording else {
            return;
        };
        let dur = self.start.elapsed();
        let path = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards drop in reverse creation order within a thread, so
            // the stack top is this span; truncate defensively in case an
            // inner guard leaked across an unwind.
            let path = s[..depth.min(s.len())].join("/");
            s.truncate(depth.saturating_sub(1));
            path
        });
        let dur_ns = dur.as_nanos().min(u64::MAX as u128) as u64;
        lock_store().entry(path).or_default().record(dur_ns);
    }
}

/// Snapshot of one path's aggregated statistics.
pub fn stats(path: &str) -> Option<SpanStat> {
    lock_store().get(path).copied()
}

/// Snapshot of every path's aggregated statistics, sorted by path.
pub fn all_stats() -> Vec<(String, SpanStat)> {
    lock_store().iter().map(|(p, s)| (p.clone(), *s)).collect()
}

/// Discard all recorded spans (the enabled flag is untouched).
pub fn reset() {
    lock_store().clear();
}

/// Render the span tree as an indented, flamegraph-style text report:
/// one line per path with call count, total time, and share of its root
/// span. Paths sort lexicographically, which interleaves children
/// directly under their parents.
pub fn report() -> String {
    let st = lock_store();
    if st.is_empty() {
        return "(no spans recorded)\n".to_string();
    }
    // Root totals normalize the percentage column per top-level span.
    let mut root_total: BTreeMap<&str, u64> = BTreeMap::new();
    for (path, stat) in st.iter() {
        let root = path.split('/').next().unwrap_or(path);
        if !path.contains('/') {
            *root_total.entry(root).or_insert(0) += stat.total_ns;
        }
    }
    let width = st
        .keys()
        .map(|p| {
            let depth = p.matches('/').count();
            depth * 2 + p.rsplit('/').next().unwrap_or(p).len()
        })
        .max()
        .unwrap_or(20)
        .max(20);
    let mut out = String::new();
    for (path, stat) in st.iter() {
        let depth = path.matches('/').count();
        let leaf = path.rsplit('/').next().unwrap_or(path);
        let root = path.split('/').next().unwrap_or(path);
        let total = stat.total_seconds();
        let share = match root_total.get(root) {
            Some(&r) if r > 0 => stat.total_ns as f64 / r as f64 * 100.0,
            _ => 100.0,
        };
        let avg = total / stat.count.max(1) as f64;
        out.push_str(&format!(
            "{:indent$}{:<width$} {:>8} calls {:>11} total {:>11} avg {:>6.1}%\n",
            "",
            leaf,
            stat.count,
            format_seconds(total),
            format_seconds(avg),
            share,
            indent = depth * 2,
            width = width.saturating_sub(depth * 2).max(1),
        ));
    }
    out
}

fn format_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing_but_still_time() {
        let _l = crate::test_lock();
        set_enabled(false);
        reset();
        let g = span("ghost");
        assert!(g.elapsed_seconds() >= 0.0);
        drop(g);
        assert!(stats("ghost").is_none());
    }

    #[test]
    fn nested_spans_build_paths_and_aggregate() {
        let _l = crate::test_lock();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        set_enabled(false);
        let outer = stats("outer").expect("outer recorded");
        let inner = stats("outer/inner").expect("inner nested under outer");
        assert_eq!(outer.count, 3);
        assert_eq!(inner.count, 3);
        assert!(outer.total_ns >= inner.total_ns, "parent covers child");
        assert!(stats("inner").is_none(), "inner never appears as a root");
        let rep = report();
        assert!(rep.contains("outer"), "{rep}");
        assert!(rep.contains("inner"), "{rep}");
    }

    #[test]
    fn guards_survive_out_of_order_drop() {
        let _l = crate::test_lock();
        set_enabled(true);
        reset();
        let a = span("a");
        let b = span("b");
        // Dropping the parent first must not corrupt the stack.
        drop(a);
        drop(b);
        set_enabled(false);
        assert!(stats("a").is_some());
        // b was recorded under whatever prefix was left; no panic is the
        // contract here.
        assert_eq!(all_stats().iter().map(|(_, s)| s.count).sum::<u64>(), 2);
    }

    #[test]
    fn threads_record_independent_roots() {
        let _l = crate::test_lock();
        set_enabled(true);
        reset();
        let t = std::thread::Builder::new()
            .name("obs-test-worker".into())
            .spawn(|| {
                let _g = span("worker_side");
            })
            .unwrap();
        {
            let _g = span("main_side");
        }
        t.join().unwrap();
        set_enabled(false);
        assert!(stats("worker_side").is_some());
        assert!(stats("main_side").is_some());
    }

    #[test]
    fn finish_seconds_records_and_returns() {
        let _l = crate::test_lock();
        set_enabled(true);
        reset();
        let s = span("finished").finish_seconds();
        set_enabled(false);
        assert!(s >= 0.0);
        assert_eq!(stats("finished").map(|s| s.count), Some(1));
    }
}
