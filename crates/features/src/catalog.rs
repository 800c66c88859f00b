//! The feature catalog: a named, ordered list of feature definitions and
//! the engine that evaluates them over a series or an MTS segment.
//!
//! The default catalog mirrors TSFEL's default configuration in spirit and
//! in size: **134 features** per univariate series, spanning the
//! statistical, temporal and spectral domains (the paper, §3.3, extracts
//! "134 interpretable feature indices for each metric"). A [`compact`]
//! profile with 21 high-discrimination features is provided for
//! latency-sensitive online pattern matching.
//!
//! [`compact`]: FeatureCatalog::compact

use crate::{dwt, fft, spectral, statistical, temporal};
use ns_linalg::matrix::Matrix;
use ns_linalg::stats;
use serde::{Deserialize, Serialize};

/// Feature domain, following the paper's statistical/temporal/spectral
/// taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    Statistical,
    Temporal,
    Spectral,
}

/// A concrete feature to evaluate. Parameterised variants carry their
/// parameter (quantile percent, histogram bin, lag, …).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FeatureKind {
    // --- statistical ---
    Mean,
    Median,
    Std,
    Variance,
    Min,
    Max,
    PeakToPeak,
    Rms,
    Skewness,
    Kurtosis,
    Iqr,
    Mad,
    MeanAbsDeviation,
    AbsEnergy,
    Sum,
    CoefVariation,
    /// Quantile at `percent / 100`.
    Quantile(u8),
    HistEntropy,
    CountAboveMean,
    CountBelowMean,
    ArgmaxRel,
    ArgminRel,
    TrimmedMean,
    /// Histogram bin fraction, bin `i` of 10.
    HistBin(u8),
    // --- temporal ---
    MeanAbsDiff,
    MedianAbsDiff,
    MeanDiff,
    MedianDiff,
    SumAbsDiff,
    MaxDiff,
    MinDiff,
    StdDiff,
    Slope,
    ZeroCrossRate,
    MeanCrossRate,
    PosTurning,
    NegTurning,
    PeakCount,
    TrapzArea,
    AbsTrapzArea,
    TemporalCentroid,
    TotalEnergy,
    EntropyDiff,
    LongestStrikeAbove,
    LongestStrikeBelow,
    FirstLocMax,
    FirstLocMin,
    LastLocMax,
    LastLocMin,
    TimeReversalAsym,
    C3,
    CidCe,
    /// Fraction beyond `r` sigma.
    RatioBeyondSigma(u8),
    /// Autocorrelation at the given lag.
    AutoCorr(u8),
    /// Energy fraction in chunk `i` of 8.
    EnergyChunk(u8),
    // --- spectral ---
    MaxPower,
    FreqAtMaxPower,
    SpectralCentroid,
    SpectralSpread,
    SpectralSkewness,
    SpectralKurtosis,
    SpectralEntropy,
    SpectralSlope,
    SpectralDecrease,
    /// Rolloff at `percent / 100` of the power.
    SpectralRolloff(u8),
    MedianFrequency,
    FundamentalFrequency,
    PowerBandwidth,
    SpectralPosTurning,
    /// Fraction of power in band `i` of 10.
    BandEnergy(u8),
    /// Magnitude of FFT coefficient `i` (1-based, DC excluded).
    FftCoeff(u8),
    /// Haar detail energy at level `i` (0 = finest) of 5.
    WaveletEnergy(u8),
    WaveletEntropy,
}

impl FeatureKind {
    /// The domain this feature belongs to.
    pub fn domain(&self) -> Domain {
        use FeatureKind::*;
        match self {
            Mean | Median | Std | Variance | Min | Max | PeakToPeak | Rms | Skewness | Kurtosis
            | Iqr | Mad | MeanAbsDeviation | AbsEnergy | Sum | CoefVariation | Quantile(_)
            | HistEntropy | CountAboveMean | CountBelowMean | ArgmaxRel | ArgminRel
            | TrimmedMean | HistBin(_) => Domain::Statistical,
            MeanAbsDiff | MedianAbsDiff | MeanDiff | MedianDiff | SumAbsDiff | MaxDiff
            | MinDiff | StdDiff | Slope | ZeroCrossRate | MeanCrossRate | PosTurning
            | NegTurning | PeakCount | TrapzArea | AbsTrapzArea | TemporalCentroid
            | TotalEnergy | EntropyDiff | LongestStrikeAbove | LongestStrikeBelow | FirstLocMax
            | FirstLocMin | LastLocMax | LastLocMin | TimeReversalAsym | C3 | CidCe
            | RatioBeyondSigma(_) | AutoCorr(_) | EnergyChunk(_) => Domain::Temporal,
            _ => Domain::Spectral,
        }
    }

    /// Canonical snake_case name.
    pub fn name(&self) -> String {
        use FeatureKind::*;
        match self {
            Quantile(p) => format!("quantile_{p:02}"),
            HistBin(i) => format!("hist_bin_{i}"),
            RatioBeyondSigma(r) => format!("ratio_beyond_{r}sigma"),
            AutoCorr(l) => format!("autocorr_lag{l}"),
            EnergyChunk(i) => format!("energy_chunk_{i}"),
            SpectralRolloff(p) => format!("spectral_rolloff_{p}"),
            BandEnergy(i) => format!("band_energy_{i}"),
            FftCoeff(i) => format!("fft_coeff_{i}"),
            WaveletEnergy(l) => format!("wavelet_energy_l{l}"),
            other => format!("{other:?}")
                .chars()
                .fold(String::new(), |mut s, c| {
                    if c.is_uppercase() {
                        if !s.is_empty() {
                            s.push('_');
                        }
                        s.push(c.to_ascii_lowercase());
                    } else {
                        s.push(c);
                    }
                    s
                }),
        }
    }
}

/// Reusable working storage for feature extraction: one instance per
/// thread amortises every per-series buffer — the sorted series, the
/// differences, the selection buffer, the transform, the power spectrum
/// and its running sums, the wavelet cascade — across calls, so
/// steady-state extraction over same-length series allocates nothing. The
/// frequency axis is kept per transform size and sample rate; twiddle
/// tables live in [`fft`], once per process.
#[derive(Default)]
pub struct FeatureScratch {
    col: Vec<f64>,
    sorted: Vec<f64>,
    diffs: Vec<f64>,
    select: Vec<f64>,
    spectrum: Vec<fft::Complex>,
    axis: FrequencyAxis,
    power: Vec<f64>,
    cum_power: Vec<f64>,
    wavelet: Vec<f64>,
    haar: Vec<f64>,
}

/// Number of histogram bins used by `HistEntropy` / `HistBin` /
/// `EntropyDiff` (10 in the standard catalog).
const HIST_BINS: usize = 10;

/// The bits of `-0.0`.
const NEG_ZERO: u64 = 1 << 63;

/// The comparator of every sort the primitives run: NaN compares equal to
/// everything, which is not a total order, so results depend on the sort
/// algorithm wherever a NaN is present.
fn order(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
}

/// The one-sided frequency axis of a transform size at a sample rate —
/// `freqs[i] = i·fs / n`, as [`fft::power_spectrum`] builds it, or the
/// single `0` bin of a series too short to transform — with the two sums
/// over it that [`spectral::slope`] takes. None of it depends on the
/// series, so it is computed once per `(n, fs)` instead of per column.
#[derive(Default)]
struct FrequencyAxis {
    key: Option<(usize, u64)>,
    freqs: Vec<f64>,
    /// `Σf / L`: the slope's frequency mean.
    mean: f64,
    /// `Σ(f − mean)²` from `+0.0`: the slope's denominator.
    centered_sq: f64,
}

impl FrequencyAxis {
    /// Point the axis at transform size `n`, or at the one-bin axis when
    /// `n` is 0.
    fn set(&mut self, n: usize, sample_rate: f64) {
        let key = (n, sample_rate.to_bits());
        if self.key == Some(key) {
            return;
        }
        self.key = Some(key);
        self.freqs.clear();
        if n == 0 {
            self.freqs.push(0.0);
        } else {
            self.freqs
                .extend((0..=n / 2).map(|i| i as f64 * sample_rate / n as f64));
        }
        let m = self.freqs.iter().sum::<f64>() / self.freqs.len() as f64;
        self.mean = m;
        self.centered_sq = self.freqs.iter().fold(0.0, |s, f| s + (f - m) * (f - m));
    }
}

/// Histogram counts over `[lo, hi]` with the binning expression of
/// `stats::histogram_entropy` / `statistical::hist_bin_fraction` (the
/// divide included). `valid` is false for the degenerate ranges where
/// those two functions fall back differently; the arms then give the
/// fallback's answer (0 for an entropy, `hist_bin_fraction` for a bin).
#[derive(Default)]
struct Hist {
    valid: bool,
    counts: [usize; HIST_BINS],
    lo: f64,
    range: f64,
}

impl Hist {
    fn over(n: usize, lo: f64, hi: f64) -> Self {
        let range = hi - lo;
        Self {
            valid: n > 0 && range.is_finite() && range >= 1e-24,
            counts: [0; HIST_BINS],
            lo,
            range,
        }
    }

    #[inline]
    fn add(&mut self, v: f64) {
        if self.valid {
            let b = ((v - self.lo) / self.range * HIST_BINS as f64) as usize;
            self.counts[b.min(HIST_BINS - 1)] += 1;
        }
    }
}

/// The sums, counts and extrema every kind of the catalog reads, computed
/// once per series by [`FeatureScratch::prepare`] in fused passes: one
/// over the raw series and its differences, one over each centred on its
/// mean (with the series' extrema known), one over the series scaled by
/// its std, and three short ones over the power spectrum. An arm is then
/// a read, a guard and a divide. Each accumulator keeps the expression
/// and the left-to-right order of the standalone primitive it stands for
/// (`stats::skewness`, `temporal::c3`, `spectral::spread`, …), down to
/// `Sum`'s `-0.0` seed wherever the primitive sums with `.sum()`, so every
/// feature is bit-identical to its standalone evaluation — pinned kind by
/// kind by the `cached_arms_match_standalone_functions` proptest.
#[derive(Default)]
struct SeriesAggregates {
    n: usize,
    // Raw pass.
    sum: f64,
    mean: f64,
    /// `Σx²`: energy, RMS, the temporal centroid's and the wavelet
    /// cascade's denominator.
    energy: f64,
    /// `Σ t·x_t²`, the temporal centroid's numerator.
    weighted_energy: f64,
    /// Fold-based extrema (`stats::min`/`max`), distinct from the sorted
    /// ends: the fold and the sort can surface different ±0.0 bits, and
    /// the location features compare against the fold.
    min: f64,
    max: f64,
    zero_crossings: usize,
    pos_turning: usize,
    neg_turning: usize,
    peaks: usize,
    trapz: f64,
    trapz_abs: f64,
    tra_sum: f64,
    c3_sum: f64,
    // Differences, summed in the raw pass.
    d_mean: f64,
    d_abs_sum: f64,
    d_sq_sum: f64,
    d_min: f64,
    d_max: f64,
    /// The series, or its differences, may hold a NaN (their sum is NaN)
    /// or a `-0.0`: only then can the stable sort's order reach a value —
    /// a NaN breaks the comparator's total order, and `±0.0` are the one
    /// pair of equal values with different bits — so only then must their
    /// order statistics come from it.
    x_unordered: bool,
    d_unordered: bool,
    // Centred passes.
    centered_sq: f64,
    std: f64,
    abs_dev_sum: f64,
    above: usize,
    below: usize,
    mean_crossings: usize,
    strike_above: usize,
    strike_below: usize,
    slope_num: f64,
    slope_den: f64,
    first_max: Option<usize>,
    last_max: Option<usize>,
    first_min: Option<usize>,
    last_min: Option<usize>,
    hist: Hist,
    d_std: f64,
    d_hist: Hist,
    skew_sum: f64,
    kurt_sum: f64,
    // Robust medians, filled only when the catalog has Mad / MedianDiff /
    // MedianAbsDiff.
    mad: f64,
    median_diff: f64,
    median_abs_diff: f64,
    // Power spectrum.
    /// Transform bins an `FftCoeff` may read (0 below two samples).
    fft_bins: usize,
    sp_total: f64,
    sp_centroid: f64,
    sp_spread: f64,
    sp_skew_sum: f64,
    sp_kurt_sum: f64,
    sp_entropy: f64,
    sp_slope: f64,
    sp_max: f64,
    sp_argmax: usize,
    /// `0.0`-seeded fold max, the fundamental frequency's threshold base.
    sp_peak: f64,
    sp_tail: f64,
    sp_decrease_sum: f64,
    sp_turning: usize,
}

impl FeatureScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fill the derived views and the aggregates for `x` and return the
    /// evaluation context. The scratch stays borrowed for the context's
    /// lifetime. `robust` asks for the medians behind
    /// `Mad`/`MedianDiff`/`MedianAbsDiff`; catalogs without those kinds
    /// skip them.
    fn prepare<'a>(
        &'a mut self,
        x: &'a [f64],
        sample_rate: f64,
        robust: bool,
    ) -> SeriesContext<'a> {
        let mut a = SeriesAggregates {
            n: x.len(),
            ..Default::default()
        };
        raw_pass(x, &mut self.diffs, &mut a);
        self.sorted.clear();
        self.sorted.extend_from_slice(x);
        if a.x_unordered {
            self.sorted.sort_by(order);
        } else {
            // Equal values carry equal bits, so any sort leaves these.
            self.sorted.sort_unstable_by(order);
        }
        centred_pass(x, &mut a);
        diff_pass(&self.diffs, &mut a);
        if robust {
            self.robust_medians(x, &mut a);
        }
        self.spectrum_passes(x, sample_rate, &mut a);
        dwt::wavelet_energies_into(x, 5, a.energy, &mut self.wavelet, &mut self.haar);
        SeriesContext {
            x,
            sorted: &self.sorted,
            freqs: &self.axis.freqs,
            power: &self.power,
            cum_power: &self.cum_power,
            spectrum: &self.spectrum[..a.fft_bins],
            wavelet: &self.wavelet,
            agg: a,
        }
    }

    /// The three robust medians, each the 0.5 quantile of a buffer its
    /// standalone primitive sorts. They are taken by selection wherever
    /// that cannot change their bits, and from the primitive's stable sort
    /// elsewhere (see [`median_of`]).
    fn robust_medians(&mut self, x: &[f64], a: &mut SeriesAggregates) {
        let buf = &mut self.select;
        buf.clear();
        buf.extend_from_slice(&self.diffs);
        a.median_diff = median_of(buf, !a.d_unordered);
        // |d| is never -0.0.
        buf.clear();
        buf.extend(self.diffs.iter().map(|d| d.abs()));
        a.median_abs_diff = median_of(buf, !a.d_unordered);
        let med = stats::quantile_sorted(&self.sorted, 0.5);
        a.mad = if a.sum.is_nan() || !med.is_finite() {
            buf.clear();
            buf.extend(x.iter().map(|v| (v - med).abs()));
            median_of(buf, false)
        } else {
            median_deviation(&self.sorted, med)
        };
    }

    /// Transform, power spectrum and its aggregates: one pass over the
    /// power for everything that needs only the bins, one once the total
    /// and centroid are known, one once the spread is.
    fn spectrum_passes(&mut self, x: &[f64], sample_rate: f64, a: &mut SeriesAggregates) {
        let size = if x.len() >= 2 {
            fft::next_pow2(x.len())
        } else {
            0
        };
        self.axis.set(size, sample_rate);
        self.power.clear();
        if size == 0 {
            self.power.push(0.0);
        } else {
            fft::rfft_into(x, &mut self.spectrum);
            let half = size / 2;
            let scale = 1.0 / (size as f64 * size as f64);
            self.power
                .extend(self.spectrum[..=half].iter().enumerate().map(|(i, c)| {
                    let mult = if i == 0 || i == half { 1.0 } else { 2.0 };
                    mult * c.norm_sq() * scale
                }));
            a.fft_bins = half + 1;
        }
        let (f, p) = (&self.axis.freqs[..], &self.power[..]);

        let (mut total, mut moment, mut tail, mut decrease) = (-0.0, -0.0, -0.0, -0.0);
        let (mut max, mut peak, mut acc) = (f64::NEG_INFINITY, 0.0f64, 0.0);
        let (mut argmax, mut turning) = (None::<(usize, f64)>, 0usize);
        self.cum_power.clear();
        for (i, (&fi, &pi)) in f.iter().zip(p).enumerate() {
            total += pi;
            moment += fi * pi;
            max = max.max(pi);
            peak = peak.max(pi);
            match argmax {
                Some((_, best)) if pi <= best => {}
                _ => argmax = Some((i, pi)),
            }
            acc += pi;
            self.cum_power.push(acc);
            if i >= 1 {
                tail += pi;
                decrease += (pi - p[0]) / i as f64;
            }
            if i >= 2 {
                turning += (p[i - 1] > p[i - 2] && p[i - 1] > pi) as usize;
            }
        }
        let centroid = if total < 1e-24 { 0.0 } else { moment / total };

        let (fm, pm) = (self.axis.mean, total / p.len() as f64);
        let (mut spread_sum, mut entropy, mut slope_num) = (-0.0, -0.0, 0.0);
        for (&fi, &pi) in f.iter().zip(p) {
            spread_sum += (fi - centroid) * (fi - centroid) * pi;
            if pi > 1e-24 {
                let q = pi / total;
                entropy += -q * q.ln();
            }
            slope_num += (fi - fm) * (pi - pm);
        }
        let spread = if total < 1e-24 {
            0.0
        } else {
            (spread_sum / total).sqrt()
        };

        let (mut skew, mut kurt) = (-0.0, -0.0);
        if !(spread < 1e-15 || total < 1e-24) {
            for (&fi, &pi) in f.iter().zip(p) {
                let z = (fi - centroid) / spread;
                skew += z.powi(3) * pi;
                kurt += z.powi(4) * pi;
            }
        }

        a.sp_total = total;
        a.sp_centroid = centroid;
        a.sp_spread = spread;
        a.sp_skew_sum = skew;
        a.sp_kurt_sum = kurt;
        a.sp_entropy = entropy;
        a.sp_slope = if p.len() < 2 || self.axis.centered_sq < 1e-24 {
            0.0
        } else {
            slope_num / self.axis.centered_sq
        };
        a.sp_max = max;
        a.sp_argmax = argmax.map_or(0, |(i, _)| i);
        a.sp_peak = peak;
        a.sp_tail = tail;
        a.sp_decrease_sum = decrease;
        a.sp_turning = turning;
    }
}

/// Pass 1, over the raw series, writing its first differences as it goes:
/// every accumulator that needs no other aggregate, the differences' own
/// included.
fn raw_pass(x: &[f64], diffs: &mut Vec<f64>, a: &mut SeriesAggregates) {
    diffs.clear();
    let (mut sum, mut energy, mut weighted) = (-0.0, -0.0, -0.0);
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut trapz, mut trapz_abs, mut tra, mut c3) = (-0.0, -0.0, -0.0, -0.0);
    let (mut zero_crossings, mut pos, mut neg, mut peaks) = (0usize, 0usize, 0usize, 0usize);
    let (mut d_sum, mut d_abs, mut d_sq) = (-0.0, -0.0, -0.0);
    let (mut d_min, mut d_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut neg_zero, mut d_neg_zero) = (false, false);
    for (t, &v) in x.iter().enumerate() {
        sum += v;
        energy += v * v;
        weighted += t as f64 * v * v;
        min = min.min(v);
        max = max.max(v);
        neg_zero |= v.to_bits() == NEG_ZERO;
        if t == 0 {
            continue;
        }
        let w0 = x[t - 1];
        let d = v - w0;
        diffs.push(d);
        zero_crossings += ((w0 >= 0.0) != (v >= 0.0)) as usize;
        trapz += 0.5 * (w0 + v);
        trapz_abs += 0.5 * (w0.abs() + v.abs());
        d_sum += d;
        d_abs += d.abs();
        d_sq += d * d;
        d_min = d_min.min(d);
        d_max = d_max.max(d);
        d_neg_zero |= d.to_bits() == NEG_ZERO;
        if t == 1 {
            continue;
        }
        // The window (w0, w1, w2) = x[t-2..=t]; `v` is w2.
        let (w0, w1) = (x[t - 2], w0);
        pos += (w1 > w0 && w1 > v) as usize;
        neg += (w1 < w0 && w1 < v) as usize;
        peaks += (w1 - w0 > 0.0 && w1 - v > 0.0) as usize;
        tra += v * v * w1 - w1 * w0 * w0;
        c3 += v * w1 * w0;
    }
    let n = x.len();
    a.sum = sum;
    a.mean = if n == 0 { 0.0 } else { sum / n as f64 };
    a.energy = energy;
    a.weighted_energy = weighted;
    a.min = min;
    a.max = max;
    a.zero_crossings = zero_crossings;
    a.pos_turning = pos;
    a.neg_turning = neg;
    a.peaks = peaks;
    a.trapz = trapz;
    a.trapz_abs = trapz_abs;
    a.tra_sum = tra;
    a.c3_sum = c3;
    a.d_mean = if diffs.is_empty() {
        0.0
    } else {
        d_sum / diffs.len() as f64
    };
    a.d_abs_sum = d_abs;
    a.d_sq_sum = d_sq;
    a.d_min = d_min;
    a.d_max = d_max;
    a.x_unordered = sum.is_nan() || neg_zero;
    a.d_unordered = d_sum.is_nan() || d_neg_zero;
}

/// Pass 2, over the series centred on its mean with its extrema known,
/// then — once the std is — the scaled moments.
fn centred_pass(x: &[f64], a: &mut SeriesAggregates) {
    let (m, n) = (a.mean, x.len());
    let tm = (n as f64 - 1.0) / 2.0;
    let mut hist = Hist::over(n, a.min, a.max);
    let (mut csq, mut abs_dev) = (-0.0, -0.0);
    let (mut above, mut below, mut crossings) = (0usize, 0usize, 0usize);
    let (mut run_above, mut run_below, mut best_above, mut best_below) = (0, 0, 0, 0);
    let (mut num, mut den) = (0.0, 0.0);
    let (mut first_max, mut last_max, mut first_min, mut last_min) = (None, None, None, None);
    let mut prev_nonneg = false;
    for (t, &v) in x.iter().enumerate() {
        let c = v - m;
        csq += c * c;
        abs_dev += c.abs();
        above += (v > m) as usize;
        below += (v < m) as usize;
        run_above = if v > m { run_above + 1 } else { 0 };
        run_below = if v < m { run_below + 1 } else { 0 };
        best_above = best_above.max(run_above);
        best_below = best_below.max(run_below);
        let nonneg = c >= 0.0;
        crossings += (t > 0 && nonneg != prev_nonneg) as usize;
        prev_nonneg = nonneg;
        let dt = t as f64 - tm;
        num += dt * c;
        den += dt * dt;
        if v == a.max {
            first_max.get_or_insert(t);
            last_max = Some(t);
        }
        if v == a.min {
            first_min.get_or_insert(t);
            last_min = Some(t);
        }
        hist.add(v);
    }
    a.centered_sq = csq;
    a.std = if n == 0 { 0.0 } else { (csq / n as f64).sqrt() };
    a.abs_dev_sum = abs_dev;
    a.above = above;
    a.below = below;
    a.mean_crossings = crossings;
    a.strike_above = best_above;
    a.strike_below = best_below;
    a.slope_num = num;
    a.slope_den = den;
    (a.first_max, a.last_max, a.first_min, a.last_min) = (first_max, last_max, first_min, last_min);
    a.hist = hist;

    let s = a.std;
    let (mut skew, mut kurt) = (-0.0, -0.0);
    if !(s < 1e-15 || n == 0) {
        for &v in x {
            let z = (v - m) / s;
            skew += z.powi(3);
            kurt += z.powi(4);
        }
    }
    a.skew_sum = skew;
    a.kurt_sum = kurt;
}

/// Pass 3, over the differences centred on their mean, with their
/// extrema known.
fn diff_pass(d: &[f64], a: &mut SeriesAggregates) {
    let dm = a.d_mean;
    let mut hist = Hist::over(d.len(), a.d_min, a.d_max);
    let mut csq = -0.0;
    for &v in d {
        csq += (v - dm) * (v - dm);
        hist.add(v);
    }
    a.d_std = if d.is_empty() {
        0.0
    } else {
        (csq / d.len() as f64).sqrt()
    };
    a.d_hist = hist;
}

/// `stats::quantile_sorted(v, 0.5)` of `v` sorted by [`order`] — the
/// median each robust primitive takes — leaving `v` reordered. With
/// `select` it is found by selection: the element at the lower middle
/// rank and, for even lengths, the least element above it. The caller
/// passes `select` only when `v` holds no NaN (so the comparator is a
/// total order) and no `-0.0` (so equal elements carry equal bits); then
/// both order statistics have the sort's bits. Otherwise `v` takes the
/// stable sort itself.
fn median_of(v: &mut [f64], select: bool) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    if !select {
        v.sort_by(order);
        return stats::quantile_sorted(v, 0.5);
    }
    let pos = 0.5 * (v.len() - 1) as f64;
    let (lo, hi) = ((v.len() - 1) / 2, v.len() / 2);
    let (_, &mut low, above) = v.select_nth_unstable_by(lo, order);
    if lo == hi {
        return low;
    }
    let high = above.iter().copied().fold(f64::INFINITY, f64::min);
    let t = pos - lo as f64;
    low * (1.0 - t) + high * t
}

/// `stats::quantile_sorted(·, 0.5)` of the deviations `|v − med|` of
/// ascending, NaN-free `sorted` from a finite `med` — [`stats::mad`]'s
/// median — without sorting them. Along `sorted` the deviations fall and
/// then rise (and hold no NaN and no `-0.0`), so they are two ascending
/// runs that meet where `v − med` turns non-negative; walking outward from
/// there, always to the smaller head, yields them in ascending order.
fn median_deviation(sorted: &[f64], med: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let dev = |i: usize| (sorted[i] - med).abs();
    let mut right = sorted.partition_point(|&v| v - med < 0.0);
    let mut left = right;
    let mut next = || {
        if left > 0 && (right == n || dev(left - 1) <= dev(right)) {
            left -= 1;
            dev(left)
        } else {
            right += 1;
            dev(right - 1)
        }
    };
    let pos = 0.5 * (n - 1) as f64;
    let (lo, hi) = ((n - 1) / 2, n / 2);
    for _ in 0..lo {
        next();
    }
    let low = next();
    if lo == hi {
        return low;
    }
    let t = pos - lo as f64;
    low * (1.0 - t) + next() * t
}

thread_local! {
    /// Per-thread scratch backing the allocating convenience APIs
    /// ([`FeatureCatalog::extract`], [`FeatureCatalog::extract_mts`]).
    static SCRATCH: std::cell::RefCell<FeatureScratch> =
        std::cell::RefCell::new(FeatureScratch::new());
}

/// One series' views and aggregates, borrowed from a [`FeatureScratch`]:
/// what every kind of the catalog reads.
struct SeriesContext<'a> {
    x: &'a [f64],
    sorted: &'a [f64],
    freqs: &'a [f64],
    power: &'a [f64],
    cum_power: &'a [f64],
    /// The transform's one-sided bins (empty below two samples).
    spectrum: &'a [fft::Complex],
    wavelet: &'a [f64],
    agg: SeriesAggregates,
}

impl SeriesContext<'_> {
    fn eval(&self, kind: FeatureKind) -> f64 {
        use FeatureKind::*;
        let a = &self.agg;
        let n = a.n as f64;
        let nd = a.n.saturating_sub(1);
        // The rates of `zero/mean_crossing_rate` and the relative
        // locations share these denominators.
        let per_window = |count: usize| {
            if a.n < 2 {
                0.0
            } else {
                count as f64 / nd as f64
            }
        };
        let location = |t: Option<usize>| t.map_or(0.0, |t| t as f64 / n);
        let v = match kind {
            Mean => a.mean,
            Median => stats::quantile_sorted(self.sorted, 0.5),
            Std => a.std,
            Variance => {
                if a.n == 0 {
                    0.0
                } else {
                    a.centered_sq / n
                }
            }
            Min | Max | PeakToPeak if a.n == 0 => 0.0,
            Min => self.sorted[0],
            Max => self.sorted[a.n - 1],
            PeakToPeak => self.sorted[a.n - 1] - self.sorted[0],
            Rms => {
                if a.n == 0 {
                    0.0
                } else {
                    (a.energy / n).sqrt()
                }
            }
            Skewness | Kurtosis if a.std < 1e-15 || a.n == 0 => 0.0,
            Skewness => a.skew_sum / n,
            Kurtosis => a.kurt_sum / n - 3.0,
            Iqr => {
                stats::quantile_sorted(self.sorted, 0.75)
                    - stats::quantile_sorted(self.sorted, 0.25)
            }
            Mad => a.mad,
            MeanAbsDeviation => {
                if a.n == 0 {
                    0.0
                } else {
                    a.abs_dev_sum / n
                }
            }
            AbsEnergy => a.energy,
            Sum => a.sum,
            CoefVariation => statistical::coefficient_of_variation_with(a.mean, a.std),
            Quantile(p) => stats::quantile_sorted(self.sorted, p as f64 / 100.0),
            // Where the counts are unusable the two entropies' primitive
            // returns 0 as well.
            HistEntropy if a.hist.valid => {
                stats::histogram_entropy_from_counts(&a.hist.counts, a.n)
            }
            HistEntropy => 0.0,
            CountAboveMean | CountBelowMean if a.n == 0 => 0.0,
            CountAboveMean => a.above as f64 / n,
            CountBelowMean => a.below as f64 / n,
            ArgmaxRel | FirstLocMax => location(a.first_max),
            ArgminRel | FirstLocMin => location(a.first_min),
            LastLocMax => location(a.last_max),
            LastLocMin => location(a.last_min),
            TrimmedMean => stats::mean(stats::trimmed_sorted(self.sorted, 0.05)),
            HistBin(i) if a.hist.valid => {
                statistical::hist_bin_fraction_from_counts(&a.hist.counts, i as usize, a.n)
            }
            HistBin(i) => statistical::hist_bin_fraction(self.x, i as usize, HIST_BINS),
            MeanAbsDiff if a.n < 2 => 0.0,
            MeanAbsDiff => a.d_abs_sum / nd as f64,
            MedianAbsDiff => a.median_abs_diff,
            MeanDiff => a.d_mean,
            MedianDiff => a.median_diff,
            SumAbsDiff => a.d_abs_sum,
            MaxDiff | MinDiff if a.n < 2 => 0.0,
            MaxDiff => a.d_max,
            MinDiff => a.d_min,
            StdDiff => a.d_std,
            Slope if a.n < 2 || a.slope_den < 1e-24 => 0.0,
            Slope => a.slope_num / a.slope_den,
            ZeroCrossRate => per_window(a.zero_crossings),
            MeanCrossRate => per_window(a.mean_crossings),
            PosTurning => a.pos_turning as f64,
            NegTurning => a.neg_turning as f64,
            PeakCount => a.peaks as f64,
            TrapzArea | AbsTrapzArea if a.n < 2 => 0.0,
            TrapzArea => a.trapz,
            AbsTrapzArea => a.trapz_abs,
            TemporalCentroid if a.n < 2 || a.energy < 1e-24 => 0.5,
            TemporalCentroid => a.weighted_energy / (a.energy * nd as f64),
            TotalEnergy => a.energy / a.n.max(1) as f64,
            EntropyDiff if a.d_hist.valid => {
                stats::histogram_entropy_from_counts(&a.d_hist.counts, nd)
            }
            EntropyDiff => 0.0,
            LongestStrikeAbove | LongestStrikeBelow if a.n == 0 => 0.0,
            LongestStrikeAbove => a.strike_above as f64 / n,
            LongestStrikeBelow => a.strike_below as f64 / n,
            TimeReversalAsym | C3 if a.n <= 2 => 0.0,
            TimeReversalAsym => a.tra_sum / (a.n - 2) as f64,
            C3 => a.c3_sum / (a.n - 2) as f64,
            CidCe => a.d_sq_sum.sqrt(),
            RatioBeyondSigma(r) => {
                temporal::ratio_beyond_r_sigma_with(self.x, r as f64, a.mean, a.std)
            }
            AutoCorr(l) => stats::autocorrelation_with(self.x, l as usize, a.mean, a.centered_sq),
            EnergyChunk(i) => temporal::energy_ratio_chunk_with(self.x, i as usize, 8, a.energy),
            MaxPower => a.sp_max.max(0.0),
            FreqAtMaxPower => self.freqs[a.sp_argmax],
            SpectralCentroid => a.sp_centroid,
            SpectralSpread => a.sp_spread,
            SpectralSkewness | SpectralKurtosis if a.sp_spread < 1e-15 || a.sp_total < 1e-24 => 0.0,
            SpectralSkewness => a.sp_skew_sum / a.sp_total,
            SpectralKurtosis => a.sp_kurt_sum / a.sp_total,
            SpectralEntropy if a.sp_total < 1e-24 => 0.0,
            SpectralEntropy => a.sp_entropy,
            SpectralSlope => a.sp_slope,
            SpectralDecrease if self.power.len() < 2 || a.sp_tail < 1e-24 => 0.0,
            SpectralDecrease => a.sp_decrease_sum / a.sp_tail,
            SpectralRolloff(p) => self.rolloff(p as f64 / 100.0),
            MedianFrequency => self.rolloff(0.5),
            FundamentalFrequency => {
                spectral::fundamental_frequency_with(self.freqs, self.power, a.sp_peak)
            }
            PowerBandwidth => (self.rolloff(0.975) - self.rolloff(0.025)).max(0.0),
            SpectralPosTurning => a.sp_turning as f64,
            BandEnergy(i) => spectral::band_energy_with(self.power, i as usize, 10, a.sp_total),
            FftCoeff(i) => self.spectrum.get(i as usize).map_or(0.0, |c| c.abs()),
            WaveletEnergy(l) => self.wavelet.get(l as usize).copied().unwrap_or(0.0),
            // One decomposition serves both wavelet families: the entropy
            // is derived from the energies already in the context.
            WaveletEntropy => dwt::wavelet_entropy_from_energies(self.wavelet),
        };
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    fn rolloff(&self, fraction: f64) -> f64 {
        spectral::rolloff_cumulative(self.freqs, self.cum_power, fraction, self.agg.sp_total)
    }
}

/// An ordered, named feature set.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeatureCatalog {
    kinds: Vec<FeatureKind>,
}

impl FeatureCatalog {
    /// The default 134-feature catalog (TSFEL-default-sized; paper §3.3).
    pub fn standard() -> Self {
        use FeatureKind::*;
        let mut kinds = vec![
            // statistical (38)
            Mean,
            Median,
            Std,
            Variance,
            Min,
            Max,
            PeakToPeak,
            Rms,
            Skewness,
            Kurtosis,
            Iqr,
            Mad,
            MeanAbsDeviation,
            AbsEnergy,
            Sum,
            CoefVariation,
        ];
        for p in [1u8, 5, 25, 75, 95, 99] {
            kinds.push(Quantile(p));
        }
        kinds.extend([
            HistEntropy,
            CountAboveMean,
            CountBelowMean,
            ArgmaxRel,
            ArgminRel,
            TrimmedMean,
        ]);
        for i in 0..10u8 {
            kinds.push(HistBin(i));
        }
        // temporal (44)
        kinds.extend([
            MeanAbsDiff,
            MedianAbsDiff,
            MeanDiff,
            MedianDiff,
            SumAbsDiff,
            MaxDiff,
            MinDiff,
            StdDiff,
            Slope,
            ZeroCrossRate,
            MeanCrossRate,
            PosTurning,
            NegTurning,
            PeakCount,
            TrapzArea,
            AbsTrapzArea,
            TemporalCentroid,
            TotalEnergy,
            EntropyDiff,
            LongestStrikeAbove,
            LongestStrikeBelow,
            FirstLocMax,
            FirstLocMin,
            LastLocMax,
            LastLocMin,
            TimeReversalAsym,
            C3,
            CidCe,
        ]);
        for r in [1u8, 2, 3] {
            kinds.push(RatioBeyondSigma(r));
        }
        for l in [1u8, 2, 3, 5, 10] {
            kinds.push(AutoCorr(l));
        }
        for i in 0..8u8 {
            kinds.push(EnergyChunk(i));
        }
        // spectral (52)
        kinds.extend([
            MaxPower,
            FreqAtMaxPower,
            SpectralCentroid,
            SpectralSpread,
            SpectralSkewness,
            SpectralKurtosis,
            SpectralEntropy,
            SpectralSlope,
            SpectralDecrease,
            SpectralRolloff(85),
            SpectralRolloff(95),
            MedianFrequency,
            FundamentalFrequency,
            PowerBandwidth,
            SpectralPosTurning,
        ]);
        for i in 0..10u8 {
            kinds.push(BandEnergy(i));
        }
        for i in 1..=21u8 {
            kinds.push(FftCoeff(i));
        }
        for l in 0..5u8 {
            kinds.push(WaveletEnergy(l));
        }
        kinds.push(WaveletEntropy);
        Self { kinds }
    }

    /// A compact 21-feature profile covering all three domains, for online
    /// pattern matching where extraction latency matters.
    pub fn compact() -> Self {
        use FeatureKind::*;
        Self {
            kinds: vec![
                Mean,
                Median,
                Std,
                Min,
                Max,
                Rms,
                Skewness,
                Kurtosis,
                Iqr,
                MeanAbsDiff,
                Slope,
                ZeroCrossRate,
                TemporalCentroid,
                CidCe,
                AutoCorr(1),
                MaxPower,
                SpectralCentroid,
                SpectralEntropy,
                MedianFrequency,
                WaveletEnergy(0),
                WaveletEntropy,
            ],
        }
    }

    /// Number of features per univariate series.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The kinds in evaluation order.
    pub fn kinds(&self) -> &[FeatureKind] {
        &self.kinds
    }

    /// Feature names in evaluation order.
    pub fn names(&self) -> Vec<String> {
        self.kinds.iter().map(|k| k.name()).collect()
    }

    /// Count of features per domain `(statistical, temporal, spectral)`.
    pub fn domain_counts(&self) -> (usize, usize, usize) {
        let mut s = 0;
        let mut t = 0;
        let mut p = 0;
        for k in &self.kinds {
            match k.domain() {
                Domain::Statistical => s += 1,
                Domain::Temporal => t += 1,
                Domain::Spectral => p += 1,
            }
        }
        (s, t, p)
    }

    /// Evaluate every feature over one univariate series into a
    /// caller-provided slice of length [`FeatureCatalog::len`], reusing
    /// `scratch` for every derived view. The hot-loop form: repeat calls
    /// over same-length series perform no per-series buffer allocations
    /// beyond what individual feature arms transiently need.
    pub fn extract_into(
        &self,
        x: &[f64],
        sample_rate: f64,
        scratch: &mut FeatureScratch,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), self.kinds.len(), "output slice length");
        let robust = self.kinds.iter().any(|k| {
            matches!(
                k,
                FeatureKind::Mad | FeatureKind::MedianDiff | FeatureKind::MedianAbsDiff
            )
        });
        let ctx = scratch.prepare(x, sample_rate, robust);
        for (slot, &k) in out.iter_mut().zip(&self.kinds) {
            *slot = ctx.eval(k);
        }
    }

    /// Evaluate every feature over one univariate series.
    pub fn extract(&self, x: &[f64], sample_rate: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.kinds.len()];
        SCRATCH.with(|s| self.extract_into(x, sample_rate, &mut s.borrow_mut(), &mut out));
        out
    }

    /// Evaluate over an MTS segment stored as a `T × M` matrix (rows are
    /// timestamps, columns are metrics): per-metric feature vectors are
    /// concatenated column-major, giving a fixed `M * len()` width
    /// regardless of segment length — exactly the property coarse-grained
    /// clustering needs. Metrics are processed one after another on this
    /// thread's [`FeatureScratch`], each writing its block of the output
    /// directly (chunk `c` of the output is metric `c`).
    pub fn extract_mts(&self, segment: &Matrix, sample_rate: f64) -> Vec<f64> {
        let len = self.kinds.len();
        let mut out = vec![0.0; segment.cols() * len];
        if len == 0 {
            return out;
        }
        SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            // Detach the column buffer so the rest of the scratch can back
            // the derived views; reattach afterwards so its capacity
            // survives to the next call.
            let mut col = std::mem::take(&mut scratch.col);
            for (c, chunk) in out.chunks_mut(len).enumerate() {
                col.clear();
                col.extend((0..segment.rows()).map(|r| segment[(r, c)]));
                self.extract_into(&col, sample_rate, scratch, chunk);
            }
            scratch.col = col;
        });
        out
    }
}

impl Default for FeatureCatalog {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_linalg::vecops;

    #[test]
    fn standard_catalog_has_134_features() {
        let c = FeatureCatalog::standard();
        assert_eq!(c.len(), 134, "paper §3.3: 134 features per metric");
        let (s, t, p) = c.domain_counts();
        assert_eq!(s + t + p, 134);
        assert!(
            s >= 30 && t >= 40 && p >= 40,
            "all domains represented: {s}/{t}/{p}"
        );
    }

    #[test]
    fn names_are_unique() {
        let c = FeatureCatalog::standard();
        let mut names = c.names();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate feature names");
    }

    #[test]
    fn extraction_is_finite_on_hostile_inputs() {
        let c = FeatureCatalog::standard();
        for x in [
            vec![],
            vec![1.0],
            vec![0.0, 0.0],
            vec![5.0; 100],
            vec![f64::MAX / 1e10, -f64::MAX / 1e10],
            (0..7).map(|i| i as f64).collect::<Vec<_>>(),
        ] {
            let f = c.extract(&x, 1.0);
            assert_eq!(f.len(), 134);
            assert!(
                f.iter().all(|v| v.is_finite()),
                "non-finite feature for {x:?}"
            );
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let c = FeatureCatalog::standard();
        let x: Vec<f64> = (0..200)
            .map(|i| (i as f64 * 0.13).sin() * 3.0 + 1.0)
            .collect();
        assert_eq!(c.extract(&x, 0.5), c.extract(&x, 0.5));
    }

    #[test]
    fn mts_extraction_concatenates_per_metric() {
        let c = FeatureCatalog::compact();
        let seg = Matrix::from_fn(50, 3, |r, col| (r as f64 * (col + 1) as f64 * 0.1).sin());
        let f = c.extract_mts(&seg, 1.0);
        assert_eq!(f.len(), 3 * c.len());
        // First block equals the standalone extraction of column 0.
        let col0 = seg.col(0);
        assert_eq!(&f[..c.len()], &c.extract(&col0, 1.0)[..]);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_series() {
        let c = FeatureCatalog::standard();
        let mut scratch = FeatureScratch::new();
        let mut out = vec![0.0; c.len()];
        // Lengths deliberately shrink and grow so stale buffer contents
        // would surface as mismatches.
        for len in [200usize, 37, 64, 1, 0, 200] {
            let x: Vec<f64> = (0..len)
                .map(|i| (i as f64 * 0.13).sin() * 3.0 + 1.0)
                .collect();
            c.extract_into(&x, 0.5, &mut scratch, &mut out);
            let reference = c.extract(&x, 0.5);
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&reference), "len={len}");
        }
    }

    #[test]
    fn distinguishes_different_signals() {
        let c = FeatureCatalog::standard();
        let quiet: Vec<f64> = (0..256).map(|i| 0.01 * (i as f64 * 0.05).sin()).collect();
        let busy: Vec<f64> = (0..256)
            .map(|i| 5.0 * (i as f64 * 1.3).sin() + i as f64 * 0.1)
            .collect();
        let fq = c.extract(&quiet, 1.0);
        let fb = c.extract(&busy, 1.0);
        let dist: f64 = fq.iter().zip(&fb).map(|(a, b)| (a - b).abs()).sum();
        assert!(
            dist > 1.0,
            "feature vectors should separate distinct signals"
        );
    }

    #[test]
    fn compact_is_a_strict_subset_size() {
        let c = FeatureCatalog::compact();
        assert!(c.len() < FeatureCatalog::standard().len());
        assert_eq!(c.extract(&[1.0, 2.0, 3.0, 4.0], 1.0).len(), c.len());
    }

    #[test]
    fn kind_names_snake_case() {
        assert_eq!(FeatureKind::MeanAbsDiff.name(), "mean_abs_diff");
        assert_eq!(FeatureKind::Quantile(5).name(), "quantile_05");
        assert_eq!(FeatureKind::FftCoeff(3).name(), "fft_coeff_3");
    }

    /// The derived views the standalone primitives read, each built by its
    /// own public function.
    struct Views {
        diffs: Vec<f64>,
        freqs: Vec<f64>,
        power: Vec<f64>,
        mags: Vec<f64>,
        wavelet: Vec<f64>,
    }

    impl Views {
        fn of(x: &[f64], sample_rate: f64) -> Self {
            let (freqs, power, mags) = if x.len() >= 2 {
                let (f, p) = fft::power_spectrum(x, sample_rate);
                (f, p, fft::magnitude_spectrum(x))
            } else {
                (vec![0.0], vec![0.0], vec![0.0])
            };
            Self {
                diffs: temporal::diffs(x),
                freqs,
                power,
                mags,
                wavelet: dwt::wavelet_energies(x, 5),
            }
        }
    }

    /// One primitive call per feature, nothing shared: the definition the
    /// extractor must reproduce bit for bit. The match is exhaustive on
    /// purpose, so a new kind does not compile until it has an oracle.
    fn standalone(x: &[f64], v: &Views, k: FeatureKind) -> f64 {
        use FeatureKind::*;
        let (d, f, p) = (&v.diffs[..], &v.freqs[..], &v.power[..]);
        let abs = |s: &[f64]| s.iter().map(|e| e.abs()).collect::<Vec<_>>();
        let value = match k {
            Mean => stats::mean(x),
            Median => stats::median(x),
            Std => stats::std_dev(x),
            Variance => stats::variance(x),
            Min => stats::quantile(x, 0.0),
            Max => stats::quantile(x, 1.0),
            PeakToPeak => stats::quantile(x, 1.0) - stats::quantile(x, 0.0),
            Rms => stats::rms(x),
            Skewness => stats::skewness(x),
            Kurtosis => stats::kurtosis(x),
            Iqr => stats::iqr(x),
            Mad => stats::mad(x),
            MeanAbsDeviation => statistical::mean_abs_deviation(x),
            AbsEnergy => statistical::abs_energy(x),
            Sum => x.iter().sum(),
            CoefVariation => statistical::coefficient_of_variation(x),
            Quantile(q) => stats::quantile(x, q as f64 / 100.0),
            HistEntropy => stats::histogram_entropy(x, HIST_BINS),
            CountAboveMean => statistical::count_above_mean(x),
            CountBelowMean => statistical::count_below_mean(x),
            ArgmaxRel | FirstLocMax => temporal::first_location_of_max(x),
            ArgminRel | FirstLocMin => temporal::first_location_of_min(x),
            LastLocMax => temporal::last_location_of_max(x),
            LastLocMin => temporal::last_location_of_min(x),
            TrimmedMean => stats::trimmed_mean_std(x, 0.05).0,
            HistBin(i) => statistical::hist_bin_fraction(x, i as usize, HIST_BINS),
            MeanAbsDiff => stats::mean_abs_change(x),
            MedianAbsDiff => stats::median(&abs(d)),
            MeanDiff => stats::mean(d),
            MedianDiff => stats::median(d),
            SumAbsDiff => abs(d).iter().sum(),
            MaxDiff if d.is_empty() => 0.0,
            MaxDiff => stats::max(d),
            MinDiff if d.is_empty() => 0.0,
            MinDiff => stats::min(d),
            StdDiff => stats::std_dev(d),
            Slope => stats::slope(x),
            ZeroCrossRate => temporal::zero_crossing_rate(x),
            MeanCrossRate => temporal::mean_crossing_rate(x),
            PosTurning => temporal::positive_turning_points(x),
            NegTurning => temporal::negative_turning_points(x),
            PeakCount => temporal::peak_count(x, 0.0),
            TrapzArea => temporal::trapz(x),
            AbsTrapzArea => temporal::trapz(&abs(x)),
            TemporalCentroid => temporal::temporal_centroid(x),
            TotalEnergy => statistical::abs_energy(x) / x.len().max(1) as f64,
            EntropyDiff => stats::histogram_entropy(d, HIST_BINS),
            LongestStrikeAbove => temporal::longest_strike_above_mean(x),
            LongestStrikeBelow => temporal::longest_strike_below_mean(x),
            TimeReversalAsym => temporal::time_reversal_asymmetry(x, 1),
            C3 => temporal::c3(x, 1),
            CidCe => temporal::cid_ce(x),
            RatioBeyondSigma(r) => temporal::ratio_beyond_r_sigma(x, r as f64),
            AutoCorr(l) => stats::autocorrelation(x, l as usize),
            EnergyChunk(i) => temporal::energy_ratio_chunk(x, i as usize, 8),
            MaxPower => stats::max(p).max(0.0),
            FreqAtMaxPower => vecops::argmax(p).map_or(0.0, |i| f[i]),
            SpectralCentroid => spectral::centroid(f, p),
            SpectralSpread => spectral::spread(f, p),
            SpectralSkewness => spectral::skewness(f, p),
            SpectralKurtosis => spectral::kurtosis(f, p),
            SpectralEntropy => spectral::entropy(p),
            SpectralSlope => spectral::slope(f, p),
            SpectralDecrease => spectral::decrease(p),
            SpectralRolloff(q) => spectral::rolloff(f, p, q as f64 / 100.0),
            MedianFrequency => spectral::median_frequency(f, p),
            FundamentalFrequency => spectral::fundamental_frequency(f, p),
            PowerBandwidth => spectral::power_bandwidth(f, p),
            SpectralPosTurning => spectral::positive_turning_points(p),
            BandEnergy(i) => spectral::band_energy(p, i as usize, 10),
            FftCoeff(i) => v.mags.get(i as usize).copied().unwrap_or(0.0),
            WaveletEnergy(l) => v.wavelet.get(l as usize).copied().unwrap_or(0.0),
            WaveletEntropy => dwt::wavelet_entropy(x, 5),
        };
        if value.is_finite() {
            value
        } else {
            0.0
        }
    }

    /// Parameters no built-in catalog carries but a deserialized one may:
    /// off-default percents, lags, bins and levels, and ones past the end
    /// of their range (which must read 0, or clamp, as the primitives do).
    fn off_default() -> FeatureCatalog {
        use FeatureKind::*;
        FeatureCatalog {
            kinds: vec![
                Quantile(50),
                AutoCorr(7),
                HistBin(9),
                FftCoeff(40),
                WaveletEnergy(7),
                RatioBeyondSigma(4),
                BandEnergy(9),
                Quantile(0),
                Quantile(100),
                Quantile(255),
                AutoCorr(0),
                AutoCorr(255),
                HistBin(10),
                EnergyChunk(7),
                EnergyChunk(8),
                RatioBeyondSigma(0),
                SpectralRolloff(0),
                SpectralRolloff(100),
                SpectralRolloff(250),
                BandEnergy(10),
                FftCoeff(0),
                FftCoeff(255),
                WaveletEnergy(4),
                MedianDiff,
                Mad,
                MedianAbsDiff,
            ],
        }
    }

    /// A series built to reach the bit-level corners the extractor must
    /// keep: signed zeros, repeated and constant runs, ±inf, NaN, huge and
    /// subnormal magnitudes, mixed with smooth data so that most features
    /// stay non-trivial.
    fn hostile_series(seed: u64, len: usize) -> Vec<f64> {
        const SPECIAL: [f64; 10] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            f64::MAX,
            5e-324,
            -2.5,
        ];
        let mut state = seed;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let unit = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;
        let mode = next() % 6;
        let (w, phase, trend) = (0.05 + unit(next()), 6.0 * unit(next()), unit(next()) - 0.5);
        let constant = SPECIAL[(next() % 10) as usize];
        let (mut run_val, mut run_left) = (0.0, 0u64);
        let mut x = Vec::with_capacity(len);
        for t in 0..len {
            let smooth = 2.0 * (w * t as f64 + phase).sin()
                + 0.05 * trend * t as f64
                + 0.3 * (unit(next()) - 0.5);
            x.push(match mode {
                0 => smooth,
                1 => {
                    if run_left == 0 {
                        run_left = 1 + next() % 8;
                        run_val = [0.0, -0.0, 1.0, -1.0, 2.5, smooth][(next() % 6) as usize];
                    }
                    run_left -= 1;
                    run_val
                }
                2 if next() % 16 == 0 => SPECIAL[(next() % 10) as usize],
                2 => smooth,
                3 if constant == 0.0 => [0.0, -0.0][(next() % 2) as usize],
                3 => constant,
                4 if next() % 3 == 0 => SPECIAL[(next() % 10) as usize],
                4 => (next() % 5) as f64 - 2.0,
                _ => smooth * 10f64.powi(150 + (next() % 150) as i32),
            });
        }
        x
    }

    /// Extraction and oracle must agree on every kind to the bit — or both
    /// panic: `sort_by` with the NaN-tolerant comparator can detect that a
    /// NaN breaks its total order and panic, and where the sort it shares
    /// with the oracle does, the oracle's does too.
    fn assert_matches_oracle(catalog: &FeatureCatalog, x: &[f64], scratch: &mut FeatureScratch) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        const SAMPLE_RATE: f64 = 1.0 / 30.0;
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let got = catch_unwind(AssertUnwindSafe(|| {
            let mut out = vec![0.0; catalog.len()];
            catalog.extract_into(x, SAMPLE_RATE, scratch, &mut out);
            bits(out)
        }));
        let want = catch_unwind(|| {
            let views = Views::of(x, SAMPLE_RATE);
            bits(
                catalog
                    .kinds()
                    .iter()
                    .map(|&k| standalone(x, &views, k))
                    .collect(),
            )
        });
        match (got, want) {
            (Ok(got), Ok(want)) => {
                for ((g, w), k) in got.iter().zip(&want).zip(catalog.kinds()) {
                    assert_eq!(
                        g,
                        w,
                        "{k:?} diverged on len {} ({} vs {}): {x:?}",
                        x.len(),
                        f64::from_bits(*g),
                        f64::from_bits(*w)
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (got, _) => panic!(
                "extraction {} where the oracle did not, on {x:?}",
                if got.is_ok() { "returned" } else { "panicked" }
            ),
        }
    }

    /// Silence the sort's total-order panic, which the oracle test expects
    /// on some NaN inputs; every other panic still reaches the default hook.
    fn quiet_sort_order_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if !info
                    .to_string()
                    .contains("does not correctly implement a total order")
                {
                    default(info)
                }
            }));
        });
    }

    use proptest::prelude::*;

    // Every kind of the standard, compact and an off-default catalog
    // equals its standalone primitive to the bit, over hostile series of
    // length 0–300 and each one's first `len % 4` samples.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cached_arms_match_standalone_functions(seed in any::<u64>(), len in 0usize..301) {
            quiet_sort_order_panics();
            let x = hostile_series(seed, len);
            let mut scratch = FeatureScratch::new();
            for catalog in [FeatureCatalog::standard(), FeatureCatalog::compact(), off_default()] {
                assert_matches_oracle(&catalog, &x, &mut scratch);
                assert_matches_oracle(&catalog, &x[..len % 4], &mut scratch);
            }
        }
    }
}
