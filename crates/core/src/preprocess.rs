//! The four-step MTS preprocessing pipeline (paper §3.2):
//! **Cleaning** (linear interpolation of missing values) →
//! **Reduction** (semantic aggregation + Pearson-correlation pruning) →
//! **Standardization** (outlier-trimmed z-score with ±5 clipping) →
//! **Segmentation** (job-transition splitting).

use ns_linalg::matrix::Matrix;
use ns_linalg::stats;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Linearly interpolate NaN runs per column, in place. Leading/trailing
/// NaNs take the nearest observed value; all-NaN columns become zero.
pub fn interpolate_missing(data: &mut Matrix) {
    let (rows, cols) = data.shape();
    for c in 0..cols {
        // Collect column indices of observed values.
        let mut prev_obs: Option<usize> = None;
        let mut first_obs: Option<usize> = None;
        for r in 0..rows {
            if !data[(r, c)].is_nan() {
                if first_obs.is_none() {
                    first_obs = Some(r);
                }
                if let Some(p) = prev_obs {
                    if r > p + 1 {
                        let a = data[(p, c)];
                        let b = data[(r, c)];
                        let gap = (r - p) as f64;
                        for k in p + 1..r {
                            let t = (k - p) as f64 / gap;
                            data[(k, c)] = a + (b - a) * t;
                        }
                    }
                }
                prev_obs = Some(r);
            }
        }
        match (first_obs, prev_obs) {
            (Some(f), Some(l)) => {
                let head = data[(f, c)];
                for r in 0..f {
                    data[(r, c)] = head;
                }
                let tail = data[(l, c)];
                for r in l + 1..rows {
                    data[(r, c)] = tail;
                }
            }
            _ => {
                for r in 0..rows {
                    data[(r, c)] = 0.0;
                }
            }
        }
    }
}

/// Semantic aggregation: average raw metrics that share a group id
/// ("combining only semantically identical metrics"). Returns the
/// `T × n_groups` node-level matrix; group order follows group ids.
pub fn aggregate_groups(raw: &Matrix, groups: &[usize]) -> Matrix {
    assert_eq!(raw.cols(), groups.len(), "one group id per raw metric");
    let n_groups = groups.iter().max().map(|g| g + 1).unwrap_or(0);
    let mut counts = vec![0usize; n_groups];
    for &g in groups {
        counts[g] += 1;
    }
    let rows = raw.rows();
    let mut out = Matrix::zeros(rows, n_groups);
    for r in 0..rows {
        let src = raw.row(r);
        let dst = out.row_mut(r);
        for (j, &g) in groups.iter().enumerate() {
            dst[g] += src[j];
        }
        for (g, v) in dst.iter_mut().enumerate() {
            if counts[g] > 0 {
                *v /= counts[g] as f64;
            }
        }
    }
    out
}

/// Derive semantic group ids from raw metric names by stripping per-unit
/// suffixes (`_cpu3`, `_numa0`, `_mnt1`, `_eth0`, trailing digits after
/// known unit markers). Metrics reduced to the same base name share a
/// group. This is what a deployment against Prometheus metric names does.
pub fn groups_from_names(names: &[String]) -> Vec<usize> {
    use rustc_hash::FxHashMap;
    let strip = |name: &str| -> String {
        for marker in ["_cpu", "_numa", "_mnt", "_eth", "_core", "_if"] {
            if let Some(pos) = name.rfind(marker) {
                let suffix = &name[pos + marker.len()..];
                if !suffix.is_empty() && suffix.chars().all(|ch| ch.is_ascii_digit()) {
                    return name[..pos].to_string();
                }
            }
        }
        name.to_string()
    };
    let mut map: FxHashMap<String, usize> = FxHashMap::default();
    let mut out = Vec::with_capacity(names.len());
    for n in names {
        let base = strip(n);
        let next = map.len();
        let id = *map.entry(base).or_insert(next);
        out.push(id);
    }
    out
}

/// Pearson-correlation pruning (paper Eq. 1): among metric pairs with
/// `|r| ≥ threshold` on the fit data, keep only the first. Returns the
/// kept column indices (ordered).
pub fn prune_correlated(fit_data: &Matrix, threshold: f64) -> Vec<usize> {
    let cols = fit_data.cols();
    let col_data: Vec<Vec<f64>> = (0..cols).map(|c| fit_data.col(c)).collect();
    // Constant columns carry no pattern information: drop all but keep
    // none (they also break Pearson). The paper's aggregation retains
    // them; we drop them here as pure noise floors.
    let variable: Vec<usize> = (0..cols)
        .filter(|&c| stats::std_dev(&col_data[c]) > 1e-12)
        .collect();
    let mut kept: Vec<usize> = Vec::new();
    for &c in &variable {
        let dup = kept
            .par_iter()
            .any(|&k| stats::pearson(&col_data[k], &col_data[c]).abs() >= threshold);
        if !dup {
            kept.push(c);
        }
    }
    kept
}

/// Fitted standardization parameters (paper §3.2, Eq. 2): per-metric
/// mean/std computed with the top and bottom 5% trimmed, applied as a
/// z-score clipped to ±5.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Standardizer {
    pub mean: Vec<f64>,
    pub std: Vec<f64>,
    pub clip: f64,
}

impl Standardizer {
    pub fn fit(train: &Matrix, trim: f64) -> Self {
        let cols = train.cols();
        let (mean, std): (Vec<f64>, Vec<f64>) = (0..cols)
            .into_par_iter()
            .map(|c| {
                let col = train.col(c);
                let (m, s) = stats::trimmed_mean_std(&col, trim);
                (m, if s < 1e-9 { 1.0 } else { s })
            })
            .unzip();
        Self {
            mean,
            std,
            clip: 5.0,
        }
    }

    pub fn transform(&self, data: &Matrix) -> Matrix {
        let mut out = data.clone();
        for r in 0..out.rows() {
            for (j, v) in out.row_mut(r).iter_mut().enumerate() {
                *v = ((*v - self.mean[j]) / self.std[j]).clamp(-self.clip, self.clip);
            }
        }
        out
    }
}

/// One job segment of a node's preprocessed MTS.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Segment {
    pub node: usize,
    /// Start step in the node's timeline.
    pub start: usize,
    /// Exclusive end step.
    pub end: usize,
    /// `T × M` standardized data.
    pub data: Matrix,
}

impl Segment {
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Split a node's matrix at the given transition points (sorted step
/// indices strictly inside `(0, rows)`), producing one segment per span.
/// Segments shorter than `min_len` are merged into their predecessor
/// when possible, otherwise dropped.
pub fn segment_at_transitions(
    node: usize,
    data: &Matrix,
    transitions: &[usize],
    min_len: usize,
) -> Vec<Segment> {
    let rows = data.rows();
    let mut cuts: Vec<usize> = vec![0];
    cuts.extend(transitions.iter().copied().filter(|&t| t > 0 && t < rows));
    cuts.push(rows);
    cuts.sort_unstable();
    cuts.dedup();
    let mut segs: Vec<Segment> = Vec::new();
    for w in cuts.windows(2) {
        let (s, e) = (w[0], w[1]);
        if e - s < min_len {
            // Merge into the previous segment when adjacent.
            if let Some(prev) = segs.last_mut() {
                if prev.end == s {
                    prev.end = e;
                    prev.data = data.slice_rows(prev.start, e);
                    continue;
                }
            }
            continue; // dropped
        }
        segs.push(Segment {
            node,
            start: s,
            end: e,
            data: data.slice_rows(s, e),
        });
    }
    segs
}

/// Chop a node's matrix into fixed equal-length chunks, ignoring job
/// boundaries (ablation C3).
pub fn segment_equal_length(node: usize, data: &Matrix, chunk: usize) -> Vec<Segment> {
    let rows = data.rows();
    let chunk = chunk.max(1);
    let mut segs = Vec::new();
    let mut s = 0;
    while s < rows {
        let e = (s + chunk).min(rows);
        if e - s >= chunk / 2 {
            segs.push(Segment {
                node,
                start: s,
                end: e,
                data: data.slice_rows(s, e),
            });
        }
        s = e;
    }
    segs
}

/// Detect cumulative-counter columns: (near-)monotone non-decreasing
/// series with a substantial total increase. Prometheus-style `*_total`
/// counters must be rate-converted before modelling — their raw values
/// grow without bound, so a z-score fitted on the training window drifts
/// out of range during the test window.
pub fn detect_counters(data: &Matrix) -> Vec<bool> {
    let (rows, cols) = data.shape();
    (0..cols)
        .map(|c| {
            if rows < 8 {
                return false;
            }
            let col = data.col(c);
            let mut non_decreasing = 0usize;
            for w in col.windows(2) {
                if w[1] + 1e-12 >= w[0] {
                    non_decreasing += 1;
                }
            }
            let frac = non_decreasing as f64 / (rows - 1) as f64;
            let rise = col[rows - 1] - col[0];
            let scale = stats::std_dev(&col);
            frac >= 0.98 && rise > 3.0 * scale.max(1e-12)
        })
        .collect()
}

/// Replace counter columns by their first differences (rates), keeping
/// the first row's rate at 0.
pub fn rate_convert(data: &mut Matrix, counters: &[bool]) {
    let (rows, cols) = data.shape();
    debug_assert_eq!(cols, counters.len());
    if rows == 0 {
        return;
    }
    for c in 0..cols {
        if !counters[c] {
            continue;
        }
        let mut prev = data[(0, c)];
        data[(0, c)] = 0.0;
        for r in 1..rows {
            let cur = data[(r, c)];
            data[(r, c)] = cur - prev;
            prev = cur;
        }
    }
}

/// The fitted preprocessing pipeline, bundling all four steps (plus the
/// counter rate-conversion any Prometheus-backed deployment needs).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Preprocessor {
    pub groups: Vec<usize>,
    /// Counter flags per aggregated (group-level) column.
    pub counters: Vec<bool>,
    pub kept: Vec<usize>,
    pub standardizer: Standardizer,
}

impl Preprocessor {
    /// Fit on a node sample's *training* rows: learns the counter set,
    /// the pruning set, and standardization statistics. `raw_train` must
    /// already be cleaned (or will be cleaned here — interpolation is
    /// idempotent).
    pub fn fit(raw_train: &Matrix, groups: &[usize], prune_threshold: f64, trim: f64) -> Self {
        let mut cleaned = raw_train.clone();
        interpolate_missing(&mut cleaned);
        let mut aggregated = aggregate_groups(&cleaned, groups);
        let counters = detect_counters(&aggregated);
        rate_convert(&mut aggregated, &counters);
        let kept = prune_correlated(&aggregated, prune_threshold);
        let reduced = aggregated.gather_cols(&kept);
        let standardizer = Standardizer::fit(&reduced, trim);
        Self {
            groups: groups.to_vec(),
            counters,
            kept,
            standardizer,
        }
    }

    /// Apply cleaning → aggregation → rate conversion → pruning →
    /// standardization. Every cleaned row is finished by the same
    /// [`RowPlan`] the streaming replay uses.
    pub fn transform(&self, raw: &Matrix) -> Matrix {
        assert_eq!(raw.cols(), self.groups.len(), "one group id per raw metric");
        let mut cleaned = raw.clone();
        interpolate_missing(&mut cleaned);
        let plan = RowPlan::new(self);
        let mut rates = plan.rate_state();
        let mut slots = vec![0.0; plan.slots()];
        let mut out = Matrix::zeros(cleaned.rows(), self.kept.len());
        for r in 0..cleaned.rows() {
            plan.finish_row(
                cleaned.row(r),
                r == 0,
                &mut rates,
                &mut slots,
                out.row_mut(r),
            );
        }
        out
    }

    /// Width of the preprocessed output.
    pub fn out_dim(&self) -> usize {
        self.kept.len()
    }
}

/// A group's sum taken over `members[from..to]`, then scaled.
#[derive(Clone, Debug)]
struct GroupSum {
    slot: usize,
    from: usize,
    to: usize,
    /// The exact reciprocal `2^-k` of a power-of-two member count, or the
    /// count itself for a divide.
    by: f64,
}

/// One counter group's place in the plan.
#[derive(Clone, Debug)]
struct CounterSlot {
    slot: usize,
    /// Group id: the index of its previous value in the rate state.
    group: usize,
    /// Kept after pruning, so a reset reaches the output.
    watched: bool,
}

/// How one cleaned raw row becomes a preprocessed row: aggregation, rate
/// conversion, pruning and standardization, computed only for the groups
/// that reach the output (kept) or carry state (counters), bit for bit
/// what the all-groups [`aggregate_groups`] → [`rate_convert`] → gather →
/// [`Standardizer::transform`] chain produces.
///
/// The aggregated values live in `slots`: slot `j < kept.len()` is the
/// `j`-th kept group, so standardization reads one contiguous array; the
/// counters that were pruned follow. A group's sum starts at `+0.0` and
/// adds its members in ascending raw-column order, as `aggregate_groups`
/// does (so `-0.0` becomes `+0.0`). A one-member group is not divided
/// (`x / 1` is `x`); a `2^k`-member group is multiplied by `2^-k`, which
/// is exact: `x / 2^k` and `x · 2^-k` are the same real number, so IEEE-754
/// rounds both to the same double, subnormals included. Any other count
/// keeps its divide, since `1/n` is not representable and `x · fl(1/n)`
/// can differ from `x / n` in the last bit.
///
/// Derived from a [`Preprocessor`] whenever it is needed and never
/// serialized, so the model file does not carry it.
#[derive(Clone, Debug)]
pub struct RowPlan {
    /// Raw columns of the planned groups, by group id, ascending within
    /// a group.
    members: Vec<usize>,
    /// One-member groups: `(slot, raw column)`.
    singles: Vec<(usize, usize)>,
    /// Groups of `2^k ≥ 2` members (or none), scaled by `2^-k`.
    scaled: Vec<GroupSum>,
    /// Groups of any other member count, divided by it.
    divided: Vec<GroupSum>,
    counters: Vec<CounterSlot>,
    /// `(slot, source slot)`: a group the fitted `kept` lists twice reads
    /// its first slot's finished value.
    repeats: Vec<(usize, usize)>,
    n_slots: usize,
    n_groups: usize,
    mean: Vec<f64>,
    std: Vec<f64>,
    clip: f64,
}

impl RowPlan {
    pub fn new(pre: &Preprocessor) -> Self {
        let n_groups = pre.counters.len();
        // A planned group's slot: its first place in `kept`, or after the
        // kept ones for a pruned counter.
        let mut slot_of = vec![usize::MAX; n_groups];
        let mut repeats = Vec::new();
        for (j, &g) in pre.kept.iter().enumerate() {
            if slot_of[g] == usize::MAX {
                slot_of[g] = j;
            } else {
                repeats.push((j, slot_of[g]));
            }
        }
        let mut n_slots = pre.kept.len();
        for (slot, _) in slot_of
            .iter_mut()
            .zip(&pre.counters)
            .filter(|(s, &c)| c && **s == usize::MAX)
        {
            *slot = n_slots;
            n_slots += 1;
        }
        // The planned groups' raw columns, by group id and ascending
        // within a group: a counting sort.
        let mut start = vec![0usize; n_groups + 1];
        for &g in pre.groups.iter().filter(|&&g| slot_of[g] != usize::MAX) {
            start[g + 1] += 1;
        }
        for g in 0..n_groups {
            start[g + 1] += start[g];
        }
        let mut next = start.clone();
        let mut members = vec![0usize; start[n_groups]];
        for (c, &g) in pre.groups.iter().enumerate() {
            if slot_of[g] != usize::MAX {
                members[next[g]] = c;
                next[g] += 1;
            }
        }
        let planned = || (0..n_groups).filter(|&g| slot_of[g] != usize::MAX);
        let n_singles = planned().filter(|&g| start[g + 1] - start[g] == 1).count();
        let n_counters = planned().filter(|&g| pre.counters[g]).count();
        let mut plan = RowPlan {
            members,
            singles: Vec::with_capacity(n_singles),
            scaled: Vec::new(),
            divided: Vec::new(),
            counters: Vec::with_capacity(n_counters),
            repeats,
            n_slots,
            n_groups,
            mean: pre.standardizer.mean.clone(),
            std: pre.standardizer.std.clone(),
            clip: pre.standardizer.clip,
        };
        for g in planned() {
            let (slot, from, to) = (slot_of[g], start[g], start[g + 1]);
            let n = to - from;
            if n == 1 {
                plan.singles.push((slot, plan.members[from]));
            } else if n == 0 || n.is_power_of_two() {
                // An empty group stays `+0.0`, like `aggregate_groups`'.
                let by = 1.0 / n.max(1) as f64;
                plan.scaled.push(GroupSum { slot, from, to, by });
            } else {
                let by = n as f64;
                plan.divided.push(GroupSum { slot, from, to, by });
            }
            if pre.counters[g] {
                let watched = slot < pre.kept.len();
                plan.counters.push(CounterSlot {
                    slot,
                    group: g,
                    watched,
                });
            }
        }
        plan
    }

    /// Length of the `slots` scratch [`finish_row`](Self::finish_row) takes.
    pub fn slots(&self) -> usize {
        self.n_slots
    }

    /// A fresh rate state: each counter group's previous cumulative
    /// value, indexed by group id (other groups' entries stay `0.0`).
    pub fn rate_state(&self) -> Vec<f64> {
        vec![0.0; self.n_groups]
    }

    /// Finish one cleaned raw row into `out` (one value per kept group).
    /// `first` marks the series' first row, whose rates are `0.0`;
    /// `rates` carries the counters' previous values between rows. Returns
    /// whether a kept counter group moved backwards, beyond an epsilon,
    /// since the previous row: the collecting daemon restarted, and the
    /// row's rate is a large negative spike.
    pub fn finish_row(
        &self,
        raw: &[f64],
        first: bool,
        rates: &mut [f64],
        slots: &mut [f64],
        out: &mut [f64],
    ) -> bool {
        for &(slot, c) in &self.singles {
            slots[slot] = 0.0 + raw[c];
        }
        let sum = |g: &GroupSum| {
            self.members[g.from..g.to]
                .iter()
                .fold(0.0, |acc, &c| acc + raw[c])
        };
        for g in &self.scaled {
            slots[g.slot] = sum(g) * g.by;
        }
        for g in &self.divided {
            slots[g.slot] = sum(g) / g.by;
        }
        // Clean counters are non-decreasing even through interpolation
        // (linear fills) and tail clamping (constant), so an
        // epsilon-guarded decrease is a true reset, not rounding.
        let mut reset = false;
        for k in &self.counters {
            let cur = slots[k.slot];
            let prev = rates[k.group];
            slots[k.slot] = if first {
                0.0
            } else {
                reset |= k.watched & (cur < prev - 1e-9 * prev.abs().max(1.0));
                cur - prev
            };
            rates[k.group] = cur;
        }
        for &(slot, from) in &self.repeats {
            slots[slot] = slots[from];
        }
        let clip = self.clip;
        for (((o, &v), &m), &s) in out
            .iter_mut()
            .zip(slots.iter())
            .zip(&self.mean)
            .zip(&self.std)
        {
            *o = ((v - m) / s).clamp(-clip, clip);
        }
        reset
    }
}

/// Column-gather helper (kept local to avoid widening the Matrix API for
/// one call site).
trait GatherCols {
    fn gather_cols(&self, idx: &[usize]) -> Matrix;
}

impl GatherCols for Matrix {
    fn gather_cols(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), idx.len());
        for r in 0..self.rows() {
            let src = self.row(r);
            for (j, &c) in idx.iter().enumerate() {
                out[(r, j)] = src[c];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_fills_gaps_linearly() {
        let mut m = Matrix::from_rows(&[vec![1.0], vec![f64::NAN], vec![f64::NAN], vec![4.0]]);
        interpolate_missing(&mut m);
        assert_eq!(m.col(0), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn interpolation_extends_edges_and_handles_all_nan() {
        let mut m = Matrix::from_rows(&[
            vec![f64::NAN, f64::NAN],
            vec![5.0, f64::NAN],
            vec![f64::NAN, f64::NAN],
        ]);
        interpolate_missing(&mut m);
        assert_eq!(m.col(0), vec![5.0, 5.0, 5.0]);
        assert_eq!(m.col(1), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn aggregation_averages_group_members() {
        let raw = Matrix::from_rows(&[vec![1.0, 3.0, 10.0], vec![2.0, 4.0, 20.0]]);
        let groups = vec![0, 0, 1];
        let agg = aggregate_groups(&raw, &groups);
        assert_eq!(agg.shape(), (2, 2));
        assert_eq!(agg[(0, 0)], 2.0);
        assert_eq!(agg[(1, 0)], 3.0);
        assert_eq!(agg[(1, 1)], 20.0);
    }

    #[test]
    fn name_based_groups_strip_unit_suffixes() {
        let names: Vec<String> = vec![
            "cpu_seconds_user_cpu0".into(),
            "cpu_seconds_user_cpu1".into(),
            "memory_active_bytes".into(),
            "network_receive_bytes_total_eth0".into(),
            "network_receive_bytes_total_eth1".into(),
        ];
        let g = groups_from_names(&names);
        assert_eq!(g[0], g[1]);
        assert_eq!(g[3], g[4]);
        assert_ne!(g[0], g[2]);
        assert_ne!(g[2], g[3]);
    }

    #[test]
    fn pruning_removes_near_duplicates() {
        // col1 = 2*col0 (r = 1), col2 independent, col3 constant.
        let n = 100;
        let data = Matrix::from_fn(n, 4, |r, c| match c {
            0 => (r as f64 * 0.37).sin(),
            1 => 2.0 * (r as f64 * 0.37).sin() + 0.001,
            2 => ((r * r) % 17) as f64,
            _ => 3.0,
        });
        let kept = prune_correlated(&data, 0.99);
        assert_eq!(kept, vec![0, 2]);
    }

    #[test]
    fn standardizer_resists_outliers_and_clips() {
        let mut col = vec![10.0; 200];
        col[0] = 1e6;
        let data = Matrix::from_vec(200, 1, col);
        let s = Standardizer::fit(&data, 0.05);
        assert!((s.mean[0] - 10.0).abs() < 1e-6);
        let out = s.transform(&data);
        // Outlier clipped to +5.
        assert_eq!(out[(0, 0)], 5.0);
        assert!(out[(1, 0)].abs() < 1e-6);
    }

    #[test]
    fn segmentation_splits_at_transitions() {
        let data = Matrix::from_fn(100, 2, |r, _| r as f64);
        let segs = segment_at_transitions(3, &data, &[30, 70], 5);
        assert_eq!(segs.len(), 3);
        assert_eq!((segs[0].start, segs[0].end), (0, 30));
        assert_eq!((segs[1].start, segs[1].end), (30, 70));
        assert_eq!((segs[2].start, segs[2].end), (70, 100));
        assert_eq!(segs[1].data.rows(), 40);
        assert_eq!(segs[1].data[(0, 0)], 30.0);
        assert_eq!(
            segs.iter().map(|s| s.node).collect::<Vec<_>>(),
            vec![3, 3, 3]
        );
    }

    #[test]
    fn short_spans_merge_into_predecessor() {
        let data = Matrix::from_fn(50, 1, |r, _| r as f64);
        // Transition at 48 creates a 2-long tail which merges back.
        let segs = segment_at_transitions(0, &data, &[48], 5);
        assert_eq!(segs.len(), 1);
        assert_eq!((segs[0].start, segs[0].end), (0, 50));
    }

    #[test]
    fn equal_length_chop_for_c3() {
        let data = Matrix::from_fn(95, 1, |r, _| r as f64);
        let segs = segment_equal_length(1, &data, 30);
        // Spans 0–30, 30–60, 60–90 survive; the 5-long tail (< chunk/2)
        // is dropped.
        assert_eq!(segs.len(), 3);
        let lens: Vec<usize> = segs.iter().map(|s| s.len()).collect();
        assert!(lens.iter().all(|&l| l == 30));
    }

    #[test]
    fn full_pipeline_roundtrip() {
        // Two groups of correlated raw metrics + NaN holes; the fitted
        // pipeline must produce a clean standardized matrix.
        let raw = Matrix::from_fn(120, 6, |r, c| {
            let base = ((r as f64) * 0.2 + (c / 3) as f64).sin();
            if r == 50 && c == 2 {
                f64::NAN
            } else {
                base * (1.0 + c as f64 * 0.1)
            }
        });
        let groups = vec![0, 0, 0, 1, 1, 1];
        let pp = Preprocessor::fit(&raw, &groups, 0.99, 0.05);
        let out = pp.transform(&raw);
        assert_eq!(out.rows(), 120);
        assert!(out.cols() >= 1 && out.cols() <= 2);
        assert!(out
            .as_slice()
            .iter()
            .all(|v| v.is_finite() && v.abs() <= 5.0));
    }
}
