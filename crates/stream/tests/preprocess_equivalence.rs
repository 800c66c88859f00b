//! Stream ≡ batch ≡ reference for the preprocessing row path, on hostile
//! shapes: groups of 1, 2, 3, 4, 5, 8 and 24 members (and one with
//! none), counters with resets, `-0.0`, subnormals, ±inf, NaN runs at
//! the head, in the middle and at the tail, all-NaN rows and a column
//! never observed.
//!
//! Three implementations meet here:
//!
//! * [`StreamingPreprocessor`], which touches per-column state only where
//!   a gap opens or closes and finishes rows through the `RowPlan`;
//! * [`Preprocessor::transform`], the batch path through the same plan;
//! * two references kept here: [`Reference`], the streaming algorithm
//!   that keeps every column's last observation as an `Option` and
//!   aggregates all groups with a divide each, and the batch chain of
//!   `aggregate_groups` → `rate_convert` → gather → `Standardizer`.
//!
//! Rows must agree bit for bit, fault flags must agree, and the streaming
//! state must equal the reference's after every push. A state captured
//! mid-gap must restore and continue identically.

use nodesentry_core::preprocess::{
    aggregate_groups, interpolate_missing, rate_convert, Preprocessor, Standardizer,
};
use ns_linalg::Matrix;
use ns_stream::snapshot::PreSnap;
use ns_stream::{PreRow, StreamingPreprocessor};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The streaming algorithm the row plan replaced: every column's last
/// observation kept as an `Option`, the watermark a minimum over every
/// column, and every group aggregated and divided by its count.
struct Reference {
    groups: Vec<usize>,
    group_counts: Vec<usize>,
    counters: Vec<bool>,
    kept: Vec<usize>,
    reset_watch: Vec<usize>,
    mean: Vec<f64>,
    std: Vec<f64>,
    clip: f64,
    buf: VecDeque<Vec<f64>>,
    nan_flags: VecDeque<bool>,
    base: usize,
    n_pushed: usize,
    resolved: usize,
    last_obs: Vec<Option<usize>>,
    last_val: Vec<f64>,
    rate_prev: Vec<f64>,
    any_row: bool,
}

impl Reference {
    fn new(pre: &Preprocessor) -> Self {
        let n_groups = pre.counters.len();
        let mut group_counts = vec![0usize; n_groups];
        for &g in &pre.groups {
            group_counts[g] += 1;
        }
        Reference {
            groups: pre.groups.clone(),
            group_counts,
            counters: pre.counters.clone(),
            kept: pre.kept.clone(),
            reset_watch: pre
                .kept
                .iter()
                .copied()
                .filter(|&g| pre.counters[g])
                .collect(),
            mean: pre.standardizer.mean.clone(),
            std: pre.standardizer.std.clone(),
            clip: pre.standardizer.clip,
            buf: VecDeque::new(),
            nan_flags: VecDeque::new(),
            base: 0,
            n_pushed: 0,
            resolved: 0,
            last_obs: vec![None; pre.groups.len()],
            last_val: vec![0.0; pre.groups.len()],
            rate_prev: vec![0.0; n_groups],
            any_row: false,
        }
    }

    fn from_state(pre: &Preprocessor, s: PreSnap) -> Self {
        let mut r = Reference::new(pre);
        r.buf = s.buf.into();
        r.nan_flags = s.nan_flags.into();
        r.base = s.base;
        r.n_pushed = s.n_pushed;
        r.resolved = s.resolved;
        r.last_obs = s.last_obs;
        r.last_val = s.last_val;
        r.rate_prev = s.rate_prev;
        r.any_row = s.any_row;
        r
    }

    fn push(&mut self, raw_row: &[f64]) -> Vec<PreRow> {
        let r = self.n_pushed;
        self.buf.push_back(raw_row.to_vec());
        self.nan_flags.push_back(raw_row.iter().all(|v| v.is_nan()));
        self.n_pushed += 1;
        for (c, &v) in raw_row.iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            match self.last_obs[c] {
                Some(p) => {
                    if r > p + 1 {
                        let a = self.last_val[c];
                        let b = v;
                        let gap = (r - p) as f64;
                        for k in p + 1..r {
                            let t = (k - p) as f64 / gap;
                            self.buf[k - self.base][c] = a + (b - a) * t;
                        }
                    }
                }
                None => {
                    for k in 0..r {
                        self.buf[k - self.base][c] = v;
                    }
                }
            }
            self.last_obs[c] = Some(r);
            self.last_val[c] = v;
        }
        let watermark = self
            .last_obs
            .iter()
            .map(|lo| lo.map(|l| l + 1).unwrap_or(0))
            .min()
            .unwrap_or(0);
        let mut out = Vec::new();
        while self.resolved < watermark {
            out.push(self.emit_front());
        }
        out
    }

    fn flush(&mut self) -> Vec<PreRow> {
        for (c, lo) in self.last_obs.iter().enumerate() {
            let (from, fill) = match lo {
                Some(l) => (l + 1, self.last_val[c]),
                None => (0, 0.0),
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

    fn state(&self) -> PreSnap {
        PreSnap {
            buf: self.buf.iter().cloned().collect(),
            nan_flags: self.nan_flags.iter().copied().collect(),
            base: self.base,
            n_pushed: self.n_pushed,
            resolved: self.resolved,
            last_obs: self.last_obs.clone(),
            last_val: self.last_val.clone(),
            rate_prev: self.rate_prev.clone(),
            any_row: self.any_row,
        }
    }

    fn emit_front(&mut self) -> PreRow {
        let raw = self.buf.pop_front().expect("resolved row buffered");
        let all_nan = self.nan_flags.pop_front().unwrap_or(false);
        self.base += 1;
        self.resolved += 1;
        let mut agg = vec![0.0f64; self.group_counts.len()];
        for (j, &g) in self.groups.iter().enumerate() {
            agg[g] += raw[j];
        }
        for (g, v) in agg.iter_mut().enumerate() {
            if self.group_counts[g] > 0 {
                *v /= self.group_counts[g] as f64;
            }
        }
        let mut counter_reset = false;
        if self.any_row {
            for &g in &self.reset_watch {
                let prev = self.rate_prev[g];
                let eps = 1e-9 * prev.abs().max(1.0);
                if agg[g] < prev - eps {
                    counter_reset = true;
                    break;
                }
            }
        }
        for (g, v) in agg.iter_mut().enumerate() {
            if !self.counters[g] {
                continue;
            }
            let cur = *v;
            *v = if self.any_row {
                cur - self.rate_prev[g]
            } else {
                0.0
            };
            self.rate_prev[g] = cur;
        }
        self.any_row = true;
        let values = self
            .kept
            .iter()
            .enumerate()
            .map(|(j, &c)| ((agg[c] - self.mean[j]) / self.std[j]).clamp(-self.clip, self.clip))
            .collect();
        PreRow {
            values,
            all_nan,
            counter_reset,
        }
    }
}

/// The batch chain the plan replaced: all groups aggregated, rates,
/// gather, standardization.
fn reference_transform(pre: &Preprocessor, raw: &Matrix) -> Matrix {
    let mut cleaned = raw.clone();
    interpolate_missing(&mut cleaned);
    let mut aggregated = aggregate_groups(&cleaned, &pre.groups);
    rate_convert(&mut aggregated, &pre.counters);
    let reduced = Matrix::from_fn(aggregated.rows(), pre.kept.len(), |r, j| {
        aggregated[(r, pre.kept[j])]
    });
    pre.standardizer.transform(&reduced)
}

/// SplitMix64 over a case seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Group sizes every case carries, whatever its seed.
const SIZES: [usize; 7] = [1, 2, 3, 4, 5, 8, 24];

/// A fitted-looking preprocessor and a hostile raw matrix for it.
fn hostile_case(seed: u64) -> (Preprocessor, Matrix) {
    let mut rng = Rng(seed);
    let mut sizes: Vec<usize> = SIZES.to_vec();
    for _ in 0..rng.below(5) {
        sizes.push(SIZES[rng.below(SIZES.len())]);
    }
    // Group ids in a shuffled order, one left without members.
    let empty = rng.below(sizes.len());
    let n_groups = sizes.len() + 1;
    let mut groups: Vec<usize> = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let g = if i < empty { i } else { i + 1 };
        groups.extend(std::iter::repeat_n(g, n));
    }
    for i in (1..groups.len()).rev() {
        groups.swap(i, rng.below(i + 1));
    }
    let counters: Vec<bool> = (0..n_groups)
        .map(|g| g != empty && rng.chance(0.4))
        .collect();
    // Kept in a shuffled order, the empty group and a repeat included.
    let mut kept: Vec<usize> = (0..n_groups)
        .filter(|&g| g == empty || rng.chance(0.7))
        .collect();
    for i in (1..kept.len()).rev() {
        kept.swap(i, rng.below(i + 1));
    }
    kept.push(kept[rng.below(kept.len())]);
    let mean = (0..kept.len()).map(|_| rng.unit() * 4.0 - 2.0).collect();
    let std = (0..kept.len())
        .map(|_| {
            if rng.chance(0.2) {
                1e-3
            } else {
                0.3 + rng.unit() * 3.0
            }
        })
        .collect();
    let pre = Preprocessor {
        groups: groups.clone(),
        counters: counters.clone(),
        kept,
        standardizer: Standardizer {
            mean,
            std,
            clip: 5.0,
        },
    };

    let rows = 40 + rng.below(60);
    let width = groups.len();
    let mut level: Vec<f64> = (0..width).map(|_| rng.unit() * 100.0).collect();
    let mut raw = Matrix::zeros(rows, width);
    for r in 0..rows {
        for c in 0..width {
            raw[(r, c)] = if counters[groups[c]] {
                // A cumulative counter; now and then the daemon restarts.
                level[c] = if rng.chance(0.03) {
                    rng.unit()
                } else {
                    level[c] + rng.unit() * 10.0
                };
                level[c]
            } else {
                match rng.below(40) {
                    0 => -0.0,
                    1 => f64::from_bits(1 + rng.next() % (1 << 40)), // subnormal
                    2 => -f64::from_bits(1 + rng.next() % (1 << 20)),
                    3 => f64::INFINITY,
                    4 => f64::NEG_INFINITY,
                    5..=9 => raw[(r.saturating_sub(1), c)], // exact repeat
                    _ => rng.unit() * 20.0 - 10.0,
                }
            };
        }
    }
    let mut punch = |r0: usize, r1: usize, c: usize| {
        for r in r0..r1.min(rows) {
            raw[(r, c)] = f64::NAN;
        }
    };
    // A column never observed, head runs, middle runs, tail runs.
    punch(0, rows, rng.below(width));
    for _ in 0..3 {
        punch(0, 1 + rng.below(6), rng.below(width));
    }
    for _ in 0..(width / 2) {
        let r0 = rng.below(rows);
        punch(r0, r0 + 1 + rng.below(6), rng.below(width));
    }
    for _ in 0..3 {
        punch(rows - 1 - rng.below(5), rows, rng.below(width));
    }
    // All-NaN rows: one inside, sometimes the first, sometimes the last.
    let mut blank = vec![5 + rng.below(rows - 10)];
    if rng.chance(0.3) {
        blank.push(0);
    }
    if rng.chance(0.3) {
        blank.push(rows - 1);
    }
    for r in blank {
        for c in 0..width {
            raw[(r, c)] = f64::NAN;
        }
    }
    (pre, raw)
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// A `PreSnap` with every float as bits, so NaN payloads compare too.
fn state_bits(s: &PreSnap) -> impl PartialEq + std::fmt::Debug {
    (
        s.buf.iter().map(|r| bits(r)).collect::<Vec<_>>(),
        s.nan_flags.clone(),
        (s.base, s.n_pushed, s.resolved, s.any_row),
        s.last_obs.clone(),
        bits(&s.last_val),
        bits(&s.rate_prev),
    )
}

fn assert_rows_equal(got: &[PreRow], want: &[PreRow], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(bits(&g.values), bits(&w.values), "{what}: row {i} values");
        assert_eq!(g.all_nan, w.all_nan, "{what}: row {i} all_nan");
        assert_eq!(
            g.counter_reset, w.counter_reset,
            "{what}: row {i} counter_reset"
        );
    }
}

fn check_case(seed: u64) {
    let (pre, raw) = hostile_case(seed);
    let tag = format!("seed {seed:#x}");
    let rows = raw.rows();

    // Batch ≡ reference batch.
    let batch = pre.transform(&raw);
    let reference = reference_transform(&pre, &raw);
    for r in 0..rows {
        assert_eq!(
            bits(batch.row(r)),
            bits(reference.row(r)),
            "{tag}: row {r} of transform vs the reference chain"
        );
    }

    // Stream ≡ reference stream, state after every push included.
    let mut stream = StreamingPreprocessor::new(&pre);
    let mut oracle = Reference::new(&pre);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let mut mid_gap = None;
    for r in 0..rows {
        got.extend(stream.push(raw.row(r)));
        want.extend(oracle.push(raw.row(r)));
        let state = stream.state();
        assert_eq!(
            state_bits(&state),
            state_bits(&oracle.state()),
            "{tag}: state after push {r}"
        );
        if mid_gap.is_none() && r > 2 && !state.buf.is_empty() && r % 3 == (seed % 3) as usize {
            mid_gap = Some((r, state));
        }
    }
    got.extend(stream.flush());
    want.extend(oracle.flush());
    assert_rows_equal(&got, &want, &tag);
    assert_eq!(
        state_bits(&stream.state()),
        state_bits(&oracle.state()),
        "{tag}: state after flush"
    );

    // Stream ≡ batch.
    assert_eq!(got.len(), rows, "{tag}: every row emitted");
    for (r, row) in got.iter().enumerate() {
        assert_eq!(
            bits(&row.values),
            bits(batch.row(r)),
            "{tag}: row {r} vs batch"
        );
    }

    // A state captured mid-gap restores and continues identically.
    let (cut, state) = mid_gap.expect("some row leaves a gap open");
    let mut resumed = StreamingPreprocessor::restore(&pre, state.clone()).expect("restore");
    let mut oracle = Reference::from_state(&pre, state);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for r in cut + 1..rows {
        got.extend(resumed.push(raw.row(r)));
        want.extend(oracle.push(raw.row(r)));
        assert_eq!(
            state_bits(&resumed.state()),
            state_bits(&oracle.state()),
            "{tag}: restored at {cut}, state after push {r}"
        );
    }
    got.extend(resumed.flush());
    want.extend(oracle.flush());
    assert_rows_equal(&got, &want, &format!("{tag} restored at {cut}"));
    let emitted = rows - got.len();
    for (k, row) in got.iter().enumerate() {
        assert_eq!(
            bits(&row.values),
            bits(batch.row(emitted + k)),
            "{tag}: restored at {cut}, row {} vs batch",
            emitted + k
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stream_batch_and_reference_agree_on_hostile_shapes(seed in any::<u64>()) {
        check_case(seed);
    }
}

/// The generator really is hostile: every case carries each group size
/// and an empty group, and across a few seeds the specials, resets,
/// all-NaN rows and never-observed columns all occur.
#[test]
fn hostile_cases_cover_what_they_claim() {
    let (mut resets, mut negzero, mut subnormal, mut inf) = (false, false, false, false);
    for seed in 0..8u64 {
        let (pre, raw) = hostile_case(seed);
        let mut counts = vec![0usize; pre.counters.len()];
        for &g in &pre.groups {
            counts[g] += 1;
        }
        for n in SIZES {
            assert!(counts.contains(&n), "seed {seed}: no group of {n}");
        }
        assert!(counts.contains(&0), "seed {seed}: no empty group");
        let (rows, width) = raw.shape();
        assert!((0..width).any(|c| (0..rows).all(|r| raw[(r, c)].is_nan())));
        assert!((0..rows).any(|r| raw.row(r).iter().all(|v| v.is_nan())));
        let mut stream = StreamingPreprocessor::new(&pre);
        let mut out = Vec::new();
        for r in 0..rows {
            out.extend(stream.push(raw.row(r)));
        }
        out.extend(stream.flush());
        resets |= out.iter().any(|p| p.counter_reset);
        let vals = raw.as_slice();
        negzero |= vals.iter().any(|v| v.to_bits() == (-0.0f64).to_bits());
        subnormal |= vals.iter().any(|v| v.is_subnormal());
        inf |= vals.iter().any(|v| v.is_infinite());
    }
    assert!(resets && negzero && subnormal && inf);
}
