//! Incremental counterparts of the batch detectors in [`crate::threshold`].
//!
//! A streaming deployment (crate `ns-stream`) consumes scores one point at
//! a time, but the paper's evaluation is defined in terms of the batch
//! functions [`smooth_scores`](crate::threshold::smooth_scores) and
//! [`ksigma_detect`](crate::ksigma_detect). These types replay the exact
//! arithmetic of the batch code — same summation order, same sort-based
//! median/MAD, same window-exclusion rule — so a streaming pipeline is
//! bit-for-bit equivalent to batch scoring, not merely approximately so.
//! The differential tests at the bottom (and `tests/stream_equivalence.rs`
//! at the workspace root) hold them to `f64::to_bits` equality.

use crate::threshold::{percentile_sorted, robust_sigma, KSigmaConfig};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Streaming centered moving-average smoother.
///
/// The batch [`smooth_scores`](crate::threshold::smooth_scores) is
/// *centered*: `out[t]` averages `scores[t-half ..= t+half]` (clamped to
/// the series). A causal replay therefore emits with a lag of `half`
/// points — `push` returns each smoothed value as soon as its full right
/// context exists, and [`flush`](Self::flush) finalizes the tail once the
/// series ends (where the batch window is clamped to `n`).
#[derive(Clone, Debug)]
pub struct StreamingSmoother {
    half: usize,
    passthrough: bool,
    /// Raw scores still needed by at least one unfinalized output.
    buf: VecDeque<f64>,
    /// Total raw scores pushed so far.
    n_pushed: usize,
    /// Next output index `t` to finalize.
    next_out: usize,
}

impl StreamingSmoother {
    pub fn new(window: usize) -> Self {
        let w = window.max(1);
        StreamingSmoother {
            half: w / 2,
            passthrough: w == 1,
            buf: VecDeque::with_capacity(w + 1),
            n_pushed: 0,
            next_out: 0,
        }
    }

    /// Ingest one raw score; returns the smoothed values (in order) whose
    /// windows are now complete — at most one per push in steady state.
    pub fn push(&mut self, score: f64) -> Vec<f64> {
        if self.passthrough {
            self.n_pushed += 1;
            self.next_out += 1;
            return vec![score];
        }
        self.buf.push_back(score);
        self.n_pushed += 1;
        let mut out = Vec::new();
        // `out[t]` needs scores up to `t + half` inclusive.
        while self.next_out + self.half < self.n_pushed {
            out.push(self.window_mean(self.next_out, self.n_pushed));
            self.next_out += 1;
            self.gc();
        }
        out
    }

    /// End of series: finalize the remaining `half` outputs, whose right
    /// windows the batch code clamps to the series length.
    pub fn flush(&mut self) -> Vec<f64> {
        let n = self.n_pushed;
        let mut out = Vec::new();
        while self.next_out < n {
            out.push(self.window_mean(self.next_out, n));
            self.next_out += 1;
        }
        self.buf.clear();
        out
    }

    fn window_mean(&self, t: usize, n: usize) -> f64 {
        let lo = t.saturating_sub(self.half);
        let hi = (t + self.half + 1).min(n);
        let base = self.n_pushed - self.buf.len();
        // Ascending index order, exactly like the batch slice sum.
        let sum: f64 = (lo..hi).map(|i| self.buf[i - base]).sum();
        sum / (hi - lo) as f64
    }

    fn gc(&mut self) {
        // The smallest raw index any future output can touch.
        let min_needed = self.next_out.saturating_sub(self.half);
        let mut base = self.n_pushed - self.buf.len();
        while base < min_needed {
            self.buf.pop_front();
            base += 1;
        }
    }

    /// Capture the mutable smoothing state for a checkpoint. The window
    /// size is configuration, not state — [`restore`](Self::restore)
    /// takes it separately so the caller's config remains the single
    /// source of truth.
    pub fn snapshot(&self) -> SmootherState {
        SmootherState {
            buf: self.buf.iter().copied().collect(),
            n_pushed: self.n_pushed,
            next_out: self.next_out,
        }
    }

    /// Rebuild a smoother mid-stream from a [`SmootherState`]. With the
    /// same `window` as at snapshot time, the restored smoother's future
    /// outputs are bit-identical to the uninterrupted one's.
    pub fn restore(window: usize, state: &SmootherState) -> Self {
        let mut sm = StreamingSmoother::new(window);
        sm.buf = state.buf.iter().copied().collect();
        sm.n_pushed = state.n_pushed;
        sm.next_out = state.next_out;
        sm
    }
}

/// Serializable mid-stream state of a [`StreamingSmoother`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SmootherState {
    pub buf: Vec<f64>,
    pub n_pushed: usize,
    pub next_out: usize,
}

/// Streaming robust k-sigma detector: a one-point-at-a-time replay of
/// [`ksigma_detect`](crate::ksigma_detect), including the
/// flagged-points-excluded reference window and the `3·window`
/// re-baselining cap on exclusion runs.
#[derive(Clone, Debug)]
pub struct StreamingKSigma {
    cfg: KSigmaConfig,
    w: usize,
    exclusion_cap: usize,
    window: VecDeque<f64>,
    flagged_run: usize,
    /// Scratch reused across points: the window, sorted...
    sorted: Vec<f64>,
    /// ...and its absolute deviations from the median, sorted.
    deviations: Vec<f64>,
}

impl StreamingKSigma {
    pub fn new(cfg: KSigmaConfig) -> Self {
        let w = cfg.window.max(1);
        StreamingKSigma {
            cfg,
            w,
            exclusion_cap: 3 * w,
            window: VecDeque::with_capacity(w + 1),
            flagged_run: 0,
            sorted: Vec::with_capacity(w),
            deviations: Vec::with_capacity(w),
        }
    }

    /// Ingest one (smoothed) score, returning whether it is anomalous.
    pub fn push(&mut self, score: f64) -> bool {
        let mut flagged = false;
        if self.window.len() >= 3 {
            self.sorted.clear();
            self.sorted.extend(self.window.iter().copied());
            self.sorted
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let median = percentile_sorted(&self.sorted, 0.5);
            let dev = &mut self.deviations;
            dev.clear();
            dev.extend(self.sorted.iter().map(|v| (v - median).abs()));
            dev.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let mad = percentile_sorted(dev, 0.5);
            let sigma = robust_sigma(median, mad);
            if score > median + self.cfg.k * sigma {
                flagged = true;
            }
        }
        if flagged {
            self.flagged_run += 1;
        } else {
            self.flagged_run = 0;
        }
        if !flagged || self.flagged_run > self.exclusion_cap {
            self.window.push_back(score);
            if self.window.len() > self.w {
                self.window.pop_front();
            }
        }
        flagged
    }

    /// Capture the mutable detector state for a checkpoint (the
    /// [`KSigmaConfig`] is configuration and travels separately).
    pub fn snapshot(&self) -> KSigmaState {
        KSigmaState {
            window: self.window.iter().copied().collect(),
            flagged_run: self.flagged_run,
        }
    }

    /// Rebuild a detector mid-stream from a [`KSigmaState`]. With the
    /// same `cfg` as at snapshot time, future decisions are identical to
    /// the uninterrupted detector's.
    pub fn restore(cfg: KSigmaConfig, state: &KSigmaState) -> Self {
        let mut det = StreamingKSigma::new(cfg);
        det.window = state.window.iter().copied().collect();
        det.flagged_run = state.flagged_run;
        det
    }
}

/// Serializable mid-stream state of a [`StreamingKSigma`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KSigmaState {
    pub window: Vec<f64>,
    pub flagged_run: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threshold::{ksigma_detect, smooth_scores};

    /// Deterministic pseudo-random scores for differential tests.
    fn series(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|i| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let u = (z ^ (z >> 31)) as f64 / u64::MAX as f64;
                // Occasional spikes so the exclusion logic is exercised.
                if i % 97 == 13 {
                    u * 8.0 + 4.0
                } else {
                    u
                }
            })
            .collect()
    }

    #[test]
    fn smoother_matches_batch_bitwise() {
        for window in [1usize, 2, 3, 5, 8, 40] {
            for n in [0usize, 1, 2, 7, 40, 211] {
                let scores = series(window as u64 * 1000 + n as u64, n);
                let batch = smooth_scores(&scores, window);
                let mut sm = StreamingSmoother::new(window);
                let mut streamed = Vec::new();
                for &s in &scores {
                    streamed.extend(sm.push(s));
                }
                streamed.extend(sm.flush());
                assert_eq!(batch.len(), streamed.len(), "w={window} n={n}");
                for (t, (a, b)) in batch.iter().zip(&streamed).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "w={window} n={n} t={t}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn ksigma_matches_batch() {
        for window in [1usize, 3, 10, 40] {
            let cfg = KSigmaConfig {
                window,
                ..Default::default()
            };
            for n in [0usize, 1, 5, 50, 400] {
                let scores = series(window as u64 * 7 + n as u64, n);
                let batch = ksigma_detect(&scores, &cfg);
                let mut det = StreamingKSigma::new(cfg);
                let streamed: Vec<bool> = scores.iter().map(|&s| det.push(s)).collect();
                assert_eq!(batch, streamed, "w={window} n={n}");
            }
        }
    }

    #[test]
    fn smoother_snapshot_restore_continues_bit_identically() {
        for window in [1usize, 2, 5, 8] {
            let scores = series(window as u64 + 3, 120);
            for cut in [0usize, 1, 7, 60, 119] {
                let mut a = StreamingSmoother::new(window);
                let mut b = StreamingSmoother::new(window);
                let mut out_a = Vec::new();
                let mut out_b = Vec::new();
                for &s in &scores[..cut] {
                    out_a.extend(a.push(s));
                    out_b.extend(b.push(s));
                }
                // Restore from the snapshot; the original keeps going.
                let mut b = StreamingSmoother::restore(window, &b.snapshot());
                for &s in &scores[cut..] {
                    out_a.extend(a.push(s));
                    out_b.extend(b.push(s));
                }
                out_a.extend(a.flush());
                out_b.extend(b.flush());
                assert_eq!(out_a.len(), out_b.len(), "w={window} cut={cut}");
                for (x, y) in out_a.iter().zip(&out_b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "w={window} cut={cut}");
                }
            }
        }
    }

    #[test]
    fn ksigma_snapshot_restore_continues_identically() {
        for window in [3usize, 10, 40] {
            let cfg = KSigmaConfig {
                window,
                ..Default::default()
            };
            let scores = series(window as u64 * 13, 300);
            for cut in [0usize, 5, 150, 299] {
                let mut a = StreamingKSigma::new(cfg);
                let mut b = StreamingKSigma::new(cfg);
                for &s in &scores[..cut] {
                    assert_eq!(a.push(s), b.push(s));
                }
                let mut b = StreamingKSigma::restore(cfg, &b.snapshot());
                for &s in &scores[cut..] {
                    assert_eq!(a.push(s), b.push(s), "w={window} cut={cut}");
                }
            }
        }
    }

    #[test]
    fn smoothed_pipeline_matches_batch_composition() {
        let scores = series(99, 300);
        let cfg = KSigmaConfig::default();
        let batch = ksigma_detect(&smooth_scores(&scores, 5), &cfg);

        let mut sm = StreamingSmoother::new(5);
        let mut det = StreamingKSigma::new(cfg);
        let mut streamed = Vec::new();
        for &s in &scores {
            for sv in sm.push(s) {
                streamed.push(det.push(sv));
            }
        }
        for sv in sm.flush() {
            streamed.push(det.push(sv));
        }
        assert_eq!(batch, streamed);
    }
}
