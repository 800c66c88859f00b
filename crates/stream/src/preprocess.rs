//! Streaming replay of the fitted [`Preprocessor`], one raw row at a time.

use crate::snapshot::{PreSnap, SnapshotError};
use nodesentry_core::preprocess::RowPlan;
use nodesentry_core::Preprocessor;
use std::collections::VecDeque;

/// `reach` of a column whose latest row observes it.
const OBSERVED: usize = usize::MAX;

/// One finalized preprocessed row plus fault annotations derived from the
/// raw data that produced it.
#[derive(Clone, Debug)]
pub struct PreRow {
    /// Aggregated, rate-converted, pruned, standardized values — the
    /// exact batch [`Preprocessor::transform`] row.
    pub values: Vec<f64>,
    /// The raw input row was entirely NaN (lost payload or synthesized
    /// placeholder); its values here are interpolation artifacts.
    pub all_nan: bool,
    /// A kept cumulative counter decreased at this row — the collecting
    /// daemon restarted, so the rate sample is a large negative spike.
    pub counter_reset: bool,
}

/// Streaming replay of [`Preprocessor::transform`].
///
/// Raw rows go in one at a time; preprocessed rows come out behind a
/// resolution watermark: a row is emitted once every column's value is
/// final, i.e. once each column has a later (or equal) observation that
/// pins down the batch code's linear gap interpolation. [`flush`]
/// finalizes the tail, where the batch code extends the last observation
/// forward (and zeroes never-observed columns).
///
/// Per-column state changes only where a column's gap opens (a NaN after
/// an observation) or closes (an observation after a NaN): a column the
/// latest row observes keeps its last value in that row. A row with no
/// NaN that arrives while no gap is open is final at once and costs one
/// copy, one NaN scan and the [`RowPlan`]. Resolved rows go through the
/// same plan as the batch [`Preprocessor::transform`].
///
/// Memory is bounded by the longest missing-value run, not the stream
/// length.
///
/// [`flush`]: StreamingPreprocessor::flush
pub struct StreamingPreprocessor {
    plan: RowPlan,
    width: usize,
    out_dim: usize,
    /// Raw rows not yet fully resolved; front is row `base`.
    buf: VecDeque<Vec<f64>>,
    /// Whether each buffered raw row arrived entirely NaN.
    nan_flags: VecDeque<bool>,
    base: usize,
    n_pushed: usize,
    /// Rows `[0, resolved)` have been emitted.
    resolved: usize,
    /// Per raw column: [`OBSERVED`] while the latest row observes it,
    /// otherwise the first row its observations leave unresolved — one
    /// past its latest observation, or `0` if it has none.
    reach: Vec<usize>,
    /// The columns whose gap is open (`reach` is not [`OBSERVED`]).
    open: Vec<usize>,
    /// Per raw column with an open gap: its latest observed value.
    last_val: Vec<f64>,
    /// The latest raw row once it has left `buf`: an observed column's
    /// last value.
    tip: Vec<f64>,
    /// At most one recycled row buffer.
    spare: Vec<f64>,
    /// The NaN columns of the row being pushed.
    nans: Vec<usize>,
    /// [`RowPlan::finish_row`]'s scratch.
    slots: Vec<f64>,
    /// Per aggregated counter column: previous cumulative value.
    rate_prev: Vec<f64>,
    any_row: bool,
}

impl StreamingPreprocessor {
    pub fn new(pre: &Preprocessor) -> Self {
        let plan = RowPlan::new(pre);
        let width = pre.groups.len();
        StreamingPreprocessor {
            width,
            out_dim: pre.kept.len(),
            buf: VecDeque::new(),
            nan_flags: VecDeque::new(),
            base: 0,
            n_pushed: 0,
            resolved: 0,
            reach: vec![0; width],
            open: (0..width).collect(),
            last_val: vec![0.0; width],
            tip: Vec::new(),
            spare: Vec::new(),
            nans: Vec::new(),
            slots: vec![0.0; plan.slots()],
            rate_prev: plan.rate_state(),
            any_row: false,
            plan,
        }
    }

    /// Raw row width this preprocessor expects.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Ingest one raw row; returns the preprocessed rows that became
    /// final (in row order), possibly none during a missing-value run.
    pub fn push(&mut self, raw_row: &[f64]) -> Vec<PreRow> {
        // Width is guarded upstream: the engine counts wrong-width ticks
        // as malformed before they reach any node state.
        assert_eq!(raw_row.len(), self.width, "raw row width");
        nan_columns(raw_row, &mut self.nans);
        let all_nan = self.nans.len() == self.width;
        let r = self.n_pushed;
        self.n_pushed += 1;
        if self.nans.is_empty() && self.open.is_empty() && self.buf.is_empty() {
            self.tip.copy_from_slice(raw_row);
            return vec![self.finish(raw_row, all_nan)];
        }
        // Close the gaps this row observes: batch `interpolate_missing`'s
        // fill, verbatim.
        let mut i = 0;
        while i < self.open.len() {
            let c = self.open[i];
            let b = raw_row[c];
            if b.is_nan() {
                i += 1;
                continue;
            }
            self.open.swap_remove(i);
            match self.reach[c] {
                // Head fill: leading NaNs take the first observation.
                0 => {
                    for k in 0..r {
                        self.buf[k - self.base][c] = b;
                    }
                }
                from => {
                    let p = from - 1;
                    let a = self.last_val[c];
                    let gap = (r - p) as f64;
                    for k in from..r {
                        let t = (k - p) as f64 / gap;
                        self.buf[k - self.base][c] = a + (b - a) * t;
                    }
                }
            }
            self.reach[c] = OBSERVED;
        }
        // Open a gap where an observed column reads NaN; its last value
        // is in the latest row.
        let latest = self.buf.back().unwrap_or(&self.tip);
        for &c in &self.nans {
            if self.reach[c] == OBSERVED {
                self.reach[c] = r;
                self.last_val[c] = latest[c];
                self.open.push(c);
            }
        }
        let mut row = if self.buf.is_empty() {
            std::mem::take(&mut self.tip)
        } else {
            std::mem::take(&mut self.spare)
        };
        row.clear();
        row.extend_from_slice(raw_row);
        self.buf.push_back(row);
        self.nan_flags.push_back(all_nan);
        // Each open gap holds back the rows from its `reach` on.
        let watermark = self
            .open
            .iter()
            .map(|&c| self.reach[c])
            .min()
            .unwrap_or(self.n_pushed);
        let mut out = Vec::new();
        while self.resolved < watermark {
            out.push(self.emit_front());
        }
        out
    }

    /// End of stream: tail-fill every column (never-observed columns
    /// become zero, like the batch code) and emit the remaining rows.
    pub fn flush(&mut self) -> Vec<PreRow> {
        for &c in &self.open {
            let (from, fill) = match self.reach[c] {
                0 => (0, 0.0),
                from => (from, self.last_val[c]),
            };
            for k in from.max(self.base)..self.n_pushed {
                self.buf[k - self.base][c] = fill;
            }
        }
        let mut out = Vec::new();
        while self.resolved < self.n_pushed {
            out.push(self.emit_front());
        }
        out
    }

    /// Capture the mutable replay state (the fitted configuration lives
    /// in the model and is not duplicated here).
    pub fn state(&self) -> PreSnap {
        let latest = self.buf.back().unwrap_or(&self.tip);
        let (last_obs, last_val) = (0..self.width)
            .map(|c| match self.reach[c] {
                OBSERVED => (Some(self.n_pushed - 1), latest[c]),
                0 => (None, self.last_val[c]),
                from => (Some(from - 1), self.last_val[c]),
            })
            .unzip();
        PreSnap {
            buf: self.buf.iter().cloned().collect(),
            nan_flags: self.nan_flags.iter().copied().collect(),
            base: self.base,
            n_pushed: self.n_pushed,
            resolved: self.resolved,
            last_obs,
            last_val,
            rate_prev: self.rate_prev.clone(),
            any_row: self.any_row,
        }
    }

    /// Rebuild from a fitted [`Preprocessor`] plus captured state;
    /// continues bit-identically to the original instance. Refuses
    /// state whose shape disagrees with the preprocessor (a snapshot
    /// from a different model) and state whose row cursors disagree
    /// with each other, which the next [`push`](Self::push) would
    /// otherwise meet as an out-of-range buffer index.
    pub fn restore(pre: &Preprocessor, s: PreSnap) -> Result<Self, SnapshotError> {
        let mut sp = StreamingPreprocessor::new(pre);
        sp.resume(s)?;
        Ok(sp)
    }

    /// [`restore`](Self::restore) into this instance, which must be fresh
    /// from [`new`](Self::new).
    pub(crate) fn resume(&mut self, s: PreSnap) -> Result<(), SnapshotError> {
        let width = self.width;
        if s.last_obs.len() != width
            || s.last_val.len() != width
            || s.rate_prev.len() != self.rate_prev.len()
            || s.buf.len() != s.nan_flags.len()
            || s.buf.iter().any(|row| row.len() != width)
        {
            return Err(SnapshotError::Decode(
                "preprocessor state shape mismatch".into(),
            ));
        }
        // `buf` is rows `[base, n_pushed)`, rows before `base` are the
        // emitted ones, and gap filling writes back to the row after a
        // column's last observation — which must still be buffered.
        let cursors_agree = s.resolved == s.base
            && s.base.checked_add(s.buf.len()) == Some(s.n_pushed)
            && s.last_obs.iter().all(|lo| match *lo {
                Some(l) => l < s.n_pushed && l + 1 >= s.base,
                None => s.base == 0,
            });
        if !cursors_agree {
            return Err(SnapshotError::Decode(
                "preprocessor state cursors disagree".into(),
            ));
        }
        self.reach = s
            .last_obs
            .iter()
            .map(|lo| match *lo {
                Some(l) if l + 1 == s.n_pushed => OBSERVED,
                Some(l) => l + 1,
                None => 0,
            })
            .collect();
        self.open = (0..width).filter(|&c| self.reach[c] != OBSERVED).collect();
        // An observed column's last value is its latest row's; the tip
        // stands in for that row until `buf` drains.
        self.tip = s.last_val.clone();
        self.last_val = s.last_val;
        self.buf = s.buf.into();
        self.nan_flags = s.nan_flags.into();
        self.base = s.base;
        self.n_pushed = s.n_pushed;
        self.resolved = s.resolved;
        self.rate_prev = s.rate_prev;
        self.any_row = s.any_row;
        Ok(())
    }

    /// Pop the front (fully resolved) raw row, finish it, and keep its
    /// buffer: the latest row becomes the tip, an earlier one the spare.
    fn emit_front(&mut self) -> PreRow {
        // Invariant: callers only reach here while `resolved < n_pushed`,
        // so the front row (and its NaN flag) is always buffered.
        let raw = self.buf.pop_front().expect("resolved row buffered");
        let all_nan = self.nan_flags.pop_front().unwrap_or(false);
        let row = self.finish(&raw, all_nan);
        let free = if self.buf.is_empty() {
            std::mem::replace(&mut self.tip, raw)
        } else {
            raw
        };
        if self.spare.capacity() == 0 {
            self.spare = free;
        }
        row
    }

    /// Run one resolved raw row through the [`RowPlan`]: aggregation →
    /// rate conversion → pruning gather → standardization.
    fn finish(&mut self, raw: &[f64], all_nan: bool) -> PreRow {
        self.base += 1;
        self.resolved += 1;
        let mut values = vec![0.0; self.out_dim];
        let counter_reset = self.plan.finish_row(
            raw,
            !self.any_row,
            &mut self.rate_prev,
            &mut self.slots,
            &mut values,
        );
        self.any_row = true;
        PreRow {
            values,
            all_nan,
            counter_reset,
        }
    }
}

/// Collect the NaN positions of `row` into `out`: one branch-free test per
/// block of eight values, and a look inside only a block that holds one.
fn nan_columns(row: &[f64], out: &mut Vec<usize>) {
    out.clear();
    let mut blocks = row.chunks_exact(8);
    for (b, block) in blocks.by_ref().enumerate() {
        if block.iter().fold(false, |any, v| any | v.is_nan()) {
            out.extend((0..8).filter(|&i| block[i].is_nan()).map(|i| b * 8 + i));
        }
    }
    let at = row.len() - blocks.remainder().len();
    for (i, v) in blocks.remainder().iter().enumerate() {
        if v.is_nan() {
            out.push(at + i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_linalg::matrix::Matrix;

    /// Deterministic pseudo-random raw matrix with NaN holes.
    fn raw_with_holes(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Matrix::from_fn(rows, cols, |r, c| {
            let u = next() as f64 / u64::MAX as f64;
            if u < 0.04 {
                f64::NAN
            } else {
                ((r as f64 * 0.13 + c as f64).sin() + u * 0.3) * (1.0 + c as f64 * 0.2)
            }
        })
    }

    fn stream_rows(pp: &Preprocessor, raw: &Matrix) -> (Vec<Vec<f64>>, Vec<PreRow>) {
        let mut sp = StreamingPreprocessor::new(pp);
        let mut pre_rows: Vec<PreRow> = Vec::new();
        for r in 0..raw.rows() {
            pre_rows.extend(sp.push(raw.row(r)));
        }
        pre_rows.extend(sp.flush());
        let values = pre_rows.iter().map(|p| p.values.clone()).collect();
        (values, pre_rows)
    }

    fn assert_rows_match(rows: &[Vec<f64>], batch: &Matrix, tag: &str) {
        assert_eq!(rows.len(), batch.rows(), "{tag}");
        for (r, row) in rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    batch[(r, c)].to_bits(),
                    "{tag} row {r} col {c}: {v} vs {}",
                    batch[(r, c)]
                );
            }
        }
    }

    #[test]
    fn streaming_preprocessor_matches_batch_bitwise() {
        for seed in [3u64, 17, 99] {
            let raw = raw_with_holes(160, 6, seed);
            let groups = vec![0usize, 0, 1, 1, 2, 2];
            // Fit on the clean prefix so NaNs in the tail exercise the
            // streaming watermark rather than the fit path.
            let pp = Preprocessor::fit(&raw.slice_rows(0, 100), &groups, 0.995, 0.05);
            let batch = pp.transform(&raw);
            let (rows, _) = stream_rows(&pp, &raw);
            assert_rows_match(&rows, &batch, &format!("seed {seed}"));
        }
    }

    #[test]
    fn streaming_preprocessor_handles_all_nan_column() {
        let mut raw = raw_with_holes(60, 4, 5);
        for r in 0..60 {
            raw[(r, 2)] = f64::NAN;
        }
        let groups = vec![0usize, 1, 2, 3];
        let pp = Preprocessor::fit(&raw.slice_rows(0, 40), &groups, 0.995, 0.05);
        let batch = pp.transform(&raw);
        let (rows, _) = stream_rows(&pp, &raw);
        assert_rows_match(&rows, &batch, "all-nan column");
    }

    #[test]
    fn watermark_defers_rows_across_nan_runs() {
        let groups = vec![0usize, 1];
        let fit = Matrix::from_fn(50, 2, |r, c| (r + c) as f64 * 0.1);
        let pp = Preprocessor::fit(&fit, &groups, 0.9999, 0.05);
        let mut sp = StreamingPreprocessor::new(&pp);
        assert_eq!(sp.push(&[1.0, 1.0]).len(), 1);
        // NaN opens a gap: nothing can be emitted until it closes.
        assert_eq!(sp.push(&[f64::NAN, 2.0]).len(), 0);
        assert_eq!(sp.push(&[f64::NAN, 3.0]).len(), 0);
        // Observation closes the gap: all three deferred rows finalize.
        assert_eq!(sp.push(&[4.0, 4.0]).len(), 3);
        assert_eq!(sp.flush().len(), 0);
    }

    #[test]
    fn empty_stream_flush_is_empty() {
        let groups = vec![0usize, 1];
        let fit = Matrix::from_fn(50, 2, |r, c| (r + c) as f64 * 0.1);
        let pp = Preprocessor::fit(&fit, &groups, 0.9999, 0.05);
        let mut sp = StreamingPreprocessor::new(&pp);
        assert!(sp.flush().is_empty(), "no rows pushed, none emitted");
        // Flushing twice is also fine.
        assert!(sp.flush().is_empty());
        assert_eq!(sp.width(), 2);
    }

    #[test]
    fn restore_rejects_state_whose_cursors_disagree() {
        let groups = vec![0usize, 1];
        let fit = Matrix::from_fn(50, 2, |r, c| (r + c) as f64 * 0.1);
        let pp = Preprocessor::fit(&fit, &groups, 0.9999, 0.05);
        let mut sp = StreamingPreprocessor::new(&pp);
        sp.push(&[1.0, 1.0]);
        sp.push(&[f64::NAN, 2.0]);
        sp.push(&[f64::NAN, 3.0]);
        // A live state (an open gap, two rows buffered) restores and
        // carries on exactly like the original.
        let good = sp.state();
        assert_eq!((good.base, good.n_pushed, good.buf.len()), (1, 3, 2));
        let mut back = StreamingPreprocessor::restore(&pp, good.clone()).expect("consistent state");
        assert_eq!(back.push(&[4.0, 4.0]).len(), sp.push(&[4.0, 4.0]).len());

        let rejected = |what: &str, bend: &dyn Fn(&mut PreSnap)| {
            let mut bad = good.clone();
            bend(&mut bad);
            match StreamingPreprocessor::restore(&pp, bad) {
                Err(SnapshotError::Decode(_)) => {}
                Err(other) => panic!("{what}: wrong error {other:?}"),
                // The panic this check exists to prevent: the next push
                // closing column 0's gap would index `buf[k - base]`
                // below the buffer.
                Ok(_) => panic!("{what}: restored"),
            }
        };
        // The issue's case: everything emitted, nothing buffered, yet a
        // column's last observation lies rows behind.
        rejected("stale last_obs behind an empty buffer", &|s| {
            s.base = 5;
            s.resolved = 5;
            s.n_pushed = 5;
            s.buf.clear();
            s.nan_flags.clear();
            s.last_obs[0] = Some(1);
        });
        rejected("resolved != base", &|s| s.resolved += 1);
        rejected("buffer shorter than base..n_pushed", &|s| s.n_pushed += 1);
        rejected("last_obs at or past n_pushed", &|s| s.last_obs[1] = Some(3));
        rejected("never-observed column with rows emitted", &|s| {
            s.last_obs[0] = None
        });
    }

    #[test]
    fn all_nan_tail_resolved_by_flush_matches_batch() {
        let mut raw = raw_with_holes(80, 4, 11);
        // The last 7 rows lose every value: only flush's tail clamp can
        // resolve them.
        for r in 73..80 {
            for c in 0..4 {
                raw[(r, c)] = f64::NAN;
            }
        }
        let groups = vec![0usize, 0, 1, 1];
        let pp = Preprocessor::fit(&raw.slice_rows(0, 60), &groups, 0.995, 0.05);
        let batch = pp.transform(&raw);
        let mut sp = StreamingPreprocessor::new(&pp);
        let mut pre_rows: Vec<PreRow> = Vec::new();
        for r in 0..raw.rows() {
            pre_rows.extend(sp.push(raw.row(r)));
        }
        assert!(
            pre_rows.len() <= 73,
            "tail rows must wait for flush, got {}",
            pre_rows.len()
        );
        pre_rows.extend(sp.flush());
        let rows: Vec<Vec<f64>> = pre_rows.iter().map(|p| p.values.clone()).collect();
        assert_rows_match(&rows, &batch, "nan tail");
        // The all-NaN rows are annotated as such.
        for p in &pre_rows[73..] {
            assert!(p.all_nan, "tail rows arrived entirely NaN");
        }
        assert!(!pre_rows[0].all_nan);
    }

    #[test]
    fn counter_reset_column_pinned_against_batch() {
        // Column 0 is a cumulative counter (steady ramp), column 1 a
        // noisy gauge. The fit prefix is clean; the full series resets
        // the counter at row 90.
        let mut raw = Matrix::from_fn(140, 2, |r, c| {
            if c == 0 {
                r as f64 * 2.5
            } else {
                (r as f64 * 0.37).sin() * 3.0
            }
        });
        let groups = vec![0usize, 1];
        let pp = Preprocessor::fit(&raw.slice_rows(0, 80), &groups, 0.9999, 0.05);
        assert!(
            pp.counters[0],
            "ramp column must be detected as a counter (fit contract)"
        );
        assert!(pp.kept.contains(&0), "counter group survived pruning");
        for r in 90..140 {
            raw[(r, 0)] -= 90.0 * 2.5; // daemon restart: history lost
        }
        let batch = pp.transform(&raw);
        let (rows, pre_rows) = stream_rows(&pp, &raw);
        // The negative-rate row is still the exact batch value...
        assert_rows_match(&rows, &batch, "counter reset");
        // ...but the streaming path annotates it.
        let flagged: Vec<usize> = pre_rows
            .iter()
            .enumerate()
            .filter(|(_, p)| p.counter_reset)
            .map(|(r, _)| r)
            .collect();
        assert_eq!(flagged, vec![90], "exactly the reset row is flagged");
    }
}
