//! Metrics registry: named counters, gauges, and log-bucketed
//! histograms, all lock-free on the update path.
//!
//! Handles are registered once (taking the registry lock) and then
//! shared; every subsequent update is one relaxed atomic load of the
//! global enabled flag plus one atomic RMW on the metric itself. When
//! metrics are disabled the update returns after the flag load — cheap
//! enough to leave the instrumentation compiled into per-tick hot paths
//! unconditionally.
//!
//! [`Registry::render`] emits Prometheus text exposition format 0.0.4:
//! `# HELP` / `# TYPE` per family, then one line per labeled series,
//! with histogram families expanded to cumulative `_bucket{le=...}`
//! series plus `_sum` and `_count`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enable or disable metric updates process-wide. Reads
/// ([`Counter::get`], [`Registry::render`], …) always work.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Convenience for [`set_enabled`]`(true)`.
pub fn enable() {
    set_enabled(true);
}

/// Whether metric updates are currently applied.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------

/// Monotonically increasing counter.
#[derive(Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        if is_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (queue depths, buffer occupancy).
#[derive(Clone)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        if is_enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    pub fn add(&self, d: i64) {
        if is_enabled() {
            self.value.fetch_add(d, Ordering::Relaxed);
        }
    }

    pub fn sub(&self, d: i64) {
        self.add(-d);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Increment now, decrement when the returned guard drops — RAII for
    /// "currently active" gauges (open connections, in-flight requests)
    /// that must stay balanced across every early-return and panic path.
    pub fn hold(&self) -> GaugeGuard {
        let held = is_enabled();
        if held {
            self.value.fetch_add(1, Ordering::Relaxed);
        }
        GaugeGuard {
            gauge: self.clone(),
            held,
        }
    }
}

/// RAII handle from [`Gauge::hold`]: decrements its gauge on drop.
///
/// Balance is decided at `hold()` time, not drop time: a guard taken
/// while metrics were enabled decrements even if they were disabled in
/// between (no phantom occupants), and a guard taken while disabled
/// never decrements (no negative drift).
pub struct GaugeGuard {
    gauge: Gauge,
    held: bool,
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        if self.held {
            self.gauge.value.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

struct HistogramInner {
    /// Upper bounds (`le`), strictly increasing; an implicit `+Inf`
    /// bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket observation counts (len = bounds.len() + 1),
    /// non-cumulative internally.
    buckets: Vec<AtomicU64>,
    /// Sum of observed values as f64 bits (CAS loop on update).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// Log-bucketed histogram.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    pub fn observe(&self, v: f64) {
        self.observe_n(v, 1);
    }

    /// Record `n` observations of the same value in one shot (used when
    /// a stage's elapsed time is attributed evenly across the items it
    /// processed).
    pub fn observe_n(&self, v: f64, n: u64) {
        if !is_enabled() || n == 0 || v.is_nan() {
            return;
        }
        let i = self
            .inner
            .bounds
            .partition_point(|&b| b < v)
            .min(self.inner.bounds.len());
        self.inner.buckets[i].fetch_add(n, Ordering::Relaxed);
        self.inner.count.fetch_add(n, Ordering::Relaxed);
        let add = v * n as f64;
        let mut cur = self.inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match self.inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (0 ≤ q ≤ 1) from the bucket counts with
    /// log-linear interpolation inside the target bucket. Returns `None`
    /// with no observations. The estimate is bounded by the bucket
    /// resolution — good enough for latency percentiles in a bench
    /// report, not a substitute for a full digest.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, b) in self.inner.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            let prev_cum = cum;
            cum += c;
            if cum >= target {
                let hi = if i < self.inner.bounds.len() {
                    self.inner.bounds[i]
                } else {
                    // +Inf bucket: report the largest finite bound.
                    return Some(*self.inner.bounds.last()?);
                };
                let lo = if i > 0 { self.inner.bounds[i - 1] } else { 0.0 };
                let frac = (target - prev_cum) as f64 / c as f64;
                return Some(if lo > 0.0 && hi > 0.0 {
                    // Log-linear: log-bucketed ladders are multiplicative.
                    (lo.ln() + (hi.ln() - lo.ln()) * frac).exp()
                } else {
                    lo + (hi - lo) * frac
                });
            }
        }
        self.inner.bounds.last().copied()
    }
}

/// `count` exponentially spaced bucket bounds starting at `start`
/// (`start, start·factor, start·factor², …`) — the standard latency
/// ladder shape.
pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0 && count > 0, "bucket ladder");
    let mut v = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        v.push(b);
        b *= factor;
    }
    v
}

/// Default latency ladder: 1 µs → ~67 s in ×2 steps (27 buckets).
pub fn latency_buckets() -> Vec<f64> {
    exponential_buckets(1e-6, 2.0, 27)
}

/// Default byte-size ladder: 64 B → 4 GiB in ×4 steps (14 buckets) —
/// for payload/snapshot size histograms.
pub fn size_buckets() -> Vec<f64> {
    exponential_buckets(64.0, 4.0, 14)
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

#[derive(Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Clone, Copy, PartialEq)]
enum FamilyKind {
    Counter,
    Gauge,
    Histogram,
}

struct Family {
    help: String,
    kind: FamilyKind,
    /// Rendered label set (`{k="v",...}` or empty) → series handle.
    series: BTreeMap<String, Series>,
}

/// A named collection of metric families. Most code uses the process
/// [`global`] registry; tests may build private ones.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// One flattened series value from [`Registry::values`]: histograms
/// contribute a `<name>_count` and `<name>_sum` entry each.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricValue {
    pub name: String,
    /// Rendered label set (`{k="v",...}` or empty).
    pub labels: String,
    pub value: f64,
}

/// The process-wide registry served by the exporter.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.sort();
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

impl Registry {
    /// Find or create the family `name` of `kind` (a family registered
    /// under another kind panics), then the series for `labels` in it,
    /// created by `make` — the one upsert behind [`Registry::counter`],
    /// [`Registry::gauge`] and [`Registry::histogram`].
    fn series(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: FamilyKind,
        make: impl FnOnce() -> Series,
    ) -> Series {
        let mut fams = self.lock();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            fam.kind == kind,
            "metric {name} already registered with a different type"
        );
        fam.series
            .entry(label_key(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Register (or fetch) a counter series. Registration is idempotent:
    /// the same `(name, labels)` always returns a handle to the same
    /// underlying value.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let make = || {
            Series::Counter(Counter {
                value: Arc::new(AtomicU64::new(0)),
            })
        };
        match self.series(name, help, labels, FamilyKind::Counter, make) {
            Series::Counter(c) => c,
            _ => unreachable!("family kind checked in `series`"),
        }
    }

    /// Register (or fetch) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let make = || {
            Series::Gauge(Gauge {
                value: Arc::new(AtomicI64::new(0)),
            })
        };
        match self.series(name, help, labels, FamilyKind::Gauge, make) {
            Series::Gauge(g) => g,
            _ => unreachable!("family kind checked in `series`"),
        }
    }

    /// Register (or fetch) a histogram series. The bucket ladder is fixed
    /// by the first registration; later calls with different `buckets`
    /// return the existing series unchanged.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        buckets: &[f64],
    ) -> Histogram {
        assert!(
            buckets.windows(2).all(|w| w[0] < w[1]) && !buckets.is_empty(),
            "histogram {name}: bounds must be non-empty and strictly increasing"
        );
        let make = || {
            Series::Histogram(Histogram {
                inner: Arc::new(HistogramInner {
                    bounds: buckets.to_vec(),
                    buckets: (0..=buckets.len()).map(|_| AtomicU64::new(0)).collect(),
                    sum_bits: AtomicU64::new(0f64.to_bits()),
                    count: AtomicU64::new(0),
                }),
            })
        };
        match self.series(name, help, labels, FamilyKind::Histogram, make) {
            Series::Histogram(h) => h,
            _ => unreachable!("family kind checked in `series`"),
        }
    }

    /// Fetch an existing histogram series without (re)registering it.
    pub fn find_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        let fams = self.lock();
        match fams.get(name)?.series.get(&label_key(labels))? {
            Series::Histogram(h) => Some(h.clone()),
            _ => None,
        }
    }

    /// Quantile estimate of a registered histogram (`None` when the
    /// series is missing or empty).
    pub fn histogram_quantile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        self.find_histogram(name, labels)?.quantile(q)
    }

    /// Zero every registered value (handles stay valid). For tests and
    /// between bench cells; the enabled flag is untouched.
    pub fn reset(&self) {
        let fams = self.lock();
        for fam in fams.values() {
            for s in fam.series.values() {
                match s {
                    Series::Counter(c) => c.value.store(0, Ordering::Relaxed),
                    Series::Gauge(g) => g.value.store(0, Ordering::Relaxed),
                    Series::Histogram(h) => {
                        for b in &h.inner.buckets {
                            b.store(0, Ordering::Relaxed);
                        }
                        h.inner.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
                        h.inner.count.store(0, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Flatten every registered series to `(name, labels, value)`
    /// triples in deterministic sorted order — the diffable snapshot the
    /// flight recorder uses for incident metric deltas. Histograms are
    /// summarized as `_count` and `_sum` (bucket detail stays in
    /// [`render`](Registry::render)).
    pub fn values(&self) -> Vec<MetricValue> {
        let fams = self.lock();
        let mut out = Vec::new();
        for (name, fam) in fams.iter() {
            for (labels, series) in &fam.series {
                match series {
                    Series::Counter(c) => out.push(MetricValue {
                        name: name.clone(),
                        labels: labels.clone(),
                        value: c.get() as f64,
                    }),
                    Series::Gauge(g) => out.push(MetricValue {
                        name: name.clone(),
                        labels: labels.clone(),
                        value: g.get() as f64,
                    }),
                    Series::Histogram(h) => {
                        out.push(MetricValue {
                            name: format!("{name}_count"),
                            labels: labels.clone(),
                            value: h.count() as f64,
                        });
                        out.push(MetricValue {
                            name: format!("{name}_sum"),
                            labels: labels.clone(),
                            value: h.sum(),
                        });
                    }
                }
            }
        }
        out
    }

    /// Render the whole registry in Prometheus text exposition format
    /// 0.0.4. Families and series are emitted in sorted order, so the
    /// output is deterministic given the same values.
    pub fn render(&self) -> String {
        let fams = self.lock();
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            let kind = match fam.kind {
                FamilyKind::Counter => "counter",
                FamilyKind::Gauge => "gauge",
                FamilyKind::Histogram => "histogram",
            };
            out.push_str(&format!("# HELP {name} {}\n", fam.help.replace('\n', " ")));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (labels, series) in &fam.series {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", g.get()));
                    }
                    Series::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, bucket) in h.inner.buckets.iter().enumerate() {
                            cum += bucket.load(Ordering::Relaxed);
                            let le = if i < h.inner.bounds.len() {
                                trim_float(h.inner.bounds[i])
                            } else {
                                "+Inf".to_string()
                            };
                            out.push_str(&format!(
                                "{name}_bucket{} {cum}\n",
                                merge_labels(labels, &le)
                            ));
                        }
                        out.push_str(&format!("{name}_sum{labels} {}\n", trim_float(h.sum())));
                        out.push_str(&format!("{name}_count{labels} {}\n", h.count()));
                    }
                }
            }
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Family>> {
        self.families.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Splice `le="x"` into an already-rendered label set.
fn merge_labels(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        // labels == "{k=\"v\",...}": insert before the closing brace.
        format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
    }
}

/// Shortest round-trippable decimal for bucket bounds and sums, with the
/// exposition format's spellings of the non-finite values.
fn trim_float(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}") // Prometheus renders integral floats as "1.0"
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_roundtrip_and_disable() {
        let _l = crate::test_lock();
        let reg = Registry::default();
        set_enabled(true);
        let c = reg.counter("t_total", "help", &[("shard", "0")]);
        let g = reg.gauge("t_depth", "help", &[]);
        c.add(3);
        g.set(7);
        g.sub(2);
        set_enabled(false);
        c.inc();
        g.set(100);
        assert_eq!(c.get(), 3, "disabled updates are dropped");
        assert_eq!(g.get(), 5);
        // Idempotent registration returns the same underlying value.
        set_enabled(true);
        reg.counter("t_total", "help", &[("shard", "0")]).inc();
        assert_eq!(c.get(), 4);
        set_enabled(false);
    }

    #[test]
    fn gauge_guard_balances_across_enable_flips() {
        let _l = crate::test_lock();
        let reg = Registry::default();
        set_enabled(true);
        let g = reg.gauge("t_active", "help", &[]);
        {
            let _a = g.hold();
            let _b = g.hold();
            assert_eq!(g.get(), 2);
            // Disabled mid-hold: drops must still rebalance.
            set_enabled(false);
        }
        assert_eq!(g.get(), 0, "guards decrement even after disable");
        // Held while disabled: no increment, and no negative drift.
        {
            let _c = g.hold();
            assert_eq!(g.get(), 0);
        }
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_buckets_quantiles_and_render() {
        let _l = crate::test_lock();
        let reg = Registry::default();
        set_enabled(true);
        let h = reg.histogram(
            "t_seconds",
            "help",
            &[],
            &exponential_buckets(1e-3, 2.0, 10),
        );
        for _ in 0..90 {
            h.observe(2e-3);
        }
        h.observe_n(40e-3, 10);
        set_enabled(false);
        assert_eq!(h.count(), 100);
        assert!((h.sum() - (90.0 * 2e-3 + 10.0 * 40e-3)).abs() < 1e-9);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 <= 4e-3, "p50 {p50} in the 2ms bucket range");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= 20e-3, "p99 {p99} reaches the 40ms observations");
        let text = reg.render();
        assert!(text.contains("# TYPE t_seconds histogram"));
        assert!(text.contains("t_seconds_count 100"));
        assert!(text.contains("le=\"+Inf\"} 100"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "buckets cumulative: {text}");
            last = v;
        }
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let _l = crate::test_lock();
        let reg = Registry::default();
        set_enabled(true);
        reg.counter("a_total", "counts a", &[("k", "v\"q")]).inc();
        reg.gauge("b_now", "gauges b", &[]).set(-4);
        set_enabled(false);
        let text = reg.render();
        assert!(text.contains("a_total{k=\"v\\\"q\"} 1"), "{text}");
        assert!(text.contains("b_now -4"));
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.rsplit(' ').next().unwrap().parse::<f64>().is_ok(),
                "unparseable exposition line: {line}"
            );
        }
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let _l = crate::test_lock();
        let reg = Registry::default();
        set_enabled(true);
        let c = reg.counter("r_total", "h", &[]);
        c.add(9);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
        set_enabled(false);
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let reg = Registry::default();
        let h = reg.histogram("e_seconds", "h", &[], &[0.1, 1.0]);
        assert!(h.quantile(0.5).is_none());
        assert!(reg.histogram_quantile("missing", &[], 0.5).is_none());
    }
}
