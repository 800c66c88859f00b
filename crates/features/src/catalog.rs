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
use ns_linalg::{stats, vecops};
use rayon::prelude::*;
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
/// thread amortises every per-series buffer — the sort/diff/spectral/
/// wavelet views plus the FFT scratch — across calls, so steady-state
/// extraction over same-length series allocates nothing. Twiddle tables
/// and Hann windows are cached separately, per thread by length, inside
/// [`fft`].
#[derive(Default)]
pub struct FeatureScratch {
    col: Vec<f64>,
    sorted: Vec<f64>,
    diffs: Vec<f64>,
    diffs_sorted: Vec<f64>,
    abs_diffs_sorted: Vec<f64>,
    mad_dev: Vec<f64>,
    freqs: Vec<f64>,
    power: Vec<f64>,
    mags: Vec<f64>,
    wavelet: Vec<f64>,
    fft_buf: Vec<fft::Complex>,
    haar: Vec<f64>,
}

/// Number of histogram bins used by `HistEntropy` / `HistBin` /
/// `EntropyDiff` (10 in the standard catalog).
const HIST_BINS: usize = 10;

/// Per-series scalar aggregates computed once by
/// [`FeatureScratch::prepare`] and shared across feature kinds, so a
/// 134-kind pass stops re-deriving the same mean/std/energy/extrema/
/// histogram/spectral totals dozens of times. Every field is produced by
/// the *same* floating-point expression as the standalone function it
/// feeds (`stats::mean`, `statistical::abs_energy`, `spectral::centroid`,
/// …), so features evaluated through the cache are bit-identical to
/// independent per-kind evaluation — pinned by the
/// `cached_arms_match_standalone_functions` test.
#[derive(Default, Clone, Copy)]
struct SeriesAggregates {
    sum: f64,
    mean: f64,
    /// Raw `Σ(x−m)²`: variance numerator and autocorrelation denominator.
    centered_sq: f64,
    variance: f64,
    std: f64,
    abs_energy: f64,
    /// Fold-based extrema (`stats::min`/`max`). Kept distinct from
    /// `sorted[0]`/`sorted[last]`: the fold and the sort can surface
    /// different ±0.0 bits, and the location features compare against the
    /// fold result.
    fold_min: f64,
    fold_max: f64,
    hist_valid: bool,
    hist: [usize; HIST_BINS],
    // First-difference aggregates (the `*Diff` kinds).
    d_mean: f64,
    d_std: f64,
    d_fold_min: f64,
    d_fold_max: f64,
    d_hist_valid: bool,
    d_hist: [usize; HIST_BINS],
    abs_diff_sum: f64,
    // Robust medians; filled only when the catalog contains
    // Mad/MedianDiff/MedianAbsDiff, so compact profiles skip their sorts.
    mad: f64,
    median_diff: f64,
    median_abs_diff: f64,
    // Power-spectrum aggregates.
    sp_total: f64,
    sp_centroid: f64,
    sp_spread: f64,
}

/// Shared histogram counts over `[lo, hi]`, using the exact binning
/// expression of `stats::histogram_entropy` / `statistical::
/// hist_bin_fraction`. Returns `false` (counts unusable) for the
/// degenerate ranges where those two functions diverge on fallbacks —
/// callers then route through the original function instead.
fn hist_counts(x: &[f64], lo: f64, hi: f64) -> (bool, [usize; HIST_BINS]) {
    let mut counts = [0usize; HIST_BINS];
    let range = hi - lo;
    if x.is_empty() || !range.is_finite() || range < 1e-24 {
        return (false, counts);
    }
    for &v in x {
        let mut b = ((v - lo) / range * HIST_BINS as f64) as usize;
        if b >= HIST_BINS {
            b = HIST_BINS - 1;
        }
        counts[b] += 1;
    }
    (true, counts)
}

impl FeatureScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fill the derived views and shared aggregates for `x` and return the
    /// evaluation context. The scratch stays mutably borrowed for the
    /// context's lifetime. `robust` asks for the sorted-difference /
    /// deviation views behind `Mad`/`MedianDiff`/`MedianAbsDiff`; catalogs
    /// without those kinds skip the three extra sorts.
    fn prepare<'a>(
        &'a mut self,
        x: &'a [f64],
        sample_rate: f64,
        robust: bool,
    ) -> SeriesContext<'a> {
        let cmp = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal);
        self.sorted.clear();
        self.sorted.extend_from_slice(x);
        self.sorted.sort_by(cmp);
        temporal::diffs_into(x, &mut self.diffs);
        if x.len() >= 2 {
            fft::spectra_into(
                x,
                sample_rate,
                &mut self.fft_buf,
                &mut self.freqs,
                &mut self.power,
                &mut self.mags,
            );
        } else {
            self.freqs.clear();
            self.freqs.push(0.0);
            self.power.clear();
            self.power.push(0.0);
            self.mags.clear();
            self.mags.push(0.0);
        }
        dwt::wavelet_energies_into(x, 5, &mut self.wavelet, &mut self.haar);

        let mut agg = SeriesAggregates::default();
        agg.sum = x.iter().sum();
        agg.mean = if x.is_empty() {
            0.0
        } else {
            agg.sum / x.len() as f64
        };
        let m = agg.mean;
        agg.centered_sq = x.iter().map(|v| (v - m) * (v - m)).sum();
        agg.variance = if x.is_empty() {
            0.0
        } else {
            agg.centered_sq / x.len() as f64
        };
        agg.std = agg.variance.sqrt();
        agg.abs_energy = x.iter().map(|v| v * v).sum();
        agg.fold_min = stats::min(x);
        agg.fold_max = stats::max(x);
        (agg.hist_valid, agg.hist) = hist_counts(x, agg.fold_min, agg.fold_max);

        let d = &self.diffs[..];
        agg.abs_diff_sum = d.iter().map(|v| v.abs()).sum();
        agg.d_mean = if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        };
        let dm = agg.d_mean;
        let d_csq: f64 = d.iter().map(|v| (v - dm) * (v - dm)).sum();
        agg.d_std = if d.is_empty() {
            0.0
        } else {
            (d_csq / d.len() as f64).sqrt()
        };
        agg.d_fold_min = stats::min(d);
        agg.d_fold_max = stats::max(d);
        (agg.d_hist_valid, agg.d_hist) = hist_counts(d, agg.d_fold_min, agg.d_fold_max);

        if robust {
            self.diffs_sorted.clear();
            self.diffs_sorted.extend_from_slice(&self.diffs);
            self.diffs_sorted.sort_by(cmp);
            agg.median_diff = stats::quantile_sorted(&self.diffs_sorted, 0.5);
            self.abs_diffs_sorted.clear();
            self.abs_diffs_sorted
                .extend(self.diffs.iter().map(|v| v.abs()));
            self.abs_diffs_sorted.sort_by(cmp);
            agg.median_abs_diff = stats::quantile_sorted(&self.abs_diffs_sorted, 0.5);
            let med = stats::quantile_sorted(&self.sorted, 0.5);
            self.mad_dev.clear();
            self.mad_dev.extend(x.iter().map(|v| (v - med).abs()));
            self.mad_dev.sort_by(cmp);
            agg.mad = stats::quantile_sorted(&self.mad_dev, 0.5);
        }

        agg.sp_total = self.power.iter().sum();
        agg.sp_centroid = spectral::centroid_with(&self.freqs, &self.power, agg.sp_total);
        agg.sp_spread =
            spectral::spread_with(&self.freqs, &self.power, agg.sp_centroid, agg.sp_total);

        SeriesContext {
            x,
            sorted: &self.sorted,
            diffs: &self.diffs,
            freqs: &self.freqs,
            power: &self.power,
            mags: &self.mags,
            wavelet: &self.wavelet,
            agg,
        }
    }
}

thread_local! {
    /// Per-thread scratch backing the allocating convenience APIs
    /// ([`FeatureCatalog::extract`]) and the rayon workers of
    /// [`FeatureCatalog::extract_mts`].
    static SCRATCH: std::cell::RefCell<FeatureScratch> =
        std::cell::RefCell::new(FeatureScratch::new());
}

/// Pre-computed per-series context shared by all feature evaluations, so a
/// 134-feature pass sorts/differences/transforms the series only once and
/// shares the scalar aggregates every kind would otherwise re-derive.
/// All views borrow from a [`FeatureScratch`].
struct SeriesContext<'a> {
    x: &'a [f64],
    sorted: &'a [f64],
    diffs: &'a [f64],
    freqs: &'a [f64],
    power: &'a [f64],
    mags: &'a [f64],
    wavelet: &'a [f64],
    agg: SeriesAggregates,
}

impl SeriesContext<'_> {
    fn eval(&self, kind: FeatureKind) -> f64 {
        use FeatureKind::*;
        let x = self.x;
        let a = &self.agg;
        let v = match kind {
            Mean => a.mean,
            Median => stats::quantile_sorted(self.sorted, 0.5),
            Std => a.std,
            Variance => a.variance,
            Min => {
                if x.is_empty() {
                    0.0
                } else {
                    self.sorted[0]
                }
            }
            Max => {
                if x.is_empty() {
                    0.0
                } else {
                    self.sorted[self.sorted.len() - 1]
                }
            }
            PeakToPeak => {
                if x.is_empty() {
                    0.0
                } else {
                    self.sorted[self.sorted.len() - 1] - self.sorted[0]
                }
            }
            Rms => {
                if x.is_empty() {
                    0.0
                } else {
                    (a.abs_energy / x.len() as f64).sqrt()
                }
            }
            Skewness => stats::skewness_with(x, a.mean, a.std),
            Kurtosis => stats::kurtosis_with(x, a.mean, a.std),
            Iqr => {
                stats::quantile_sorted(self.sorted, 0.75)
                    - stats::quantile_sorted(self.sorted, 0.25)
            }
            Mad => a.mad,
            MeanAbsDeviation => statistical::mean_abs_deviation_with(x, a.mean),
            AbsEnergy => a.abs_energy,
            Sum => a.sum,
            CoefVariation => statistical::coefficient_of_variation_with(a.mean, a.std),
            Quantile(p) => stats::quantile_sorted(self.sorted, p as f64 / 100.0),
            HistEntropy => {
                if a.hist_valid {
                    stats::histogram_entropy_from_counts(&a.hist, x.len())
                } else {
                    stats::histogram_entropy(x, HIST_BINS)
                }
            }
            CountAboveMean => statistical::count_above_mean_with(x, a.mean),
            CountBelowMean => statistical::count_below_mean_with(x, a.mean),
            ArgmaxRel | FirstLocMax => temporal::relative_location_of(x, a.fold_max, true),
            ArgminRel | FirstLocMin => temporal::relative_location_of(x, a.fold_min, true),
            LastLocMax => temporal::relative_location_of(x, a.fold_max, false),
            LastLocMin => temporal::relative_location_of(x, a.fold_min, false),
            TrimmedMean => stats::trimmed_mean_std_sorted(self.sorted, 0.05).0,
            HistBin(i) => {
                if a.hist_valid {
                    statistical::hist_bin_fraction_from_counts(&a.hist, i as usize, x.len())
                } else {
                    statistical::hist_bin_fraction(x, i as usize, HIST_BINS)
                }
            }
            MeanAbsDiff => {
                if x.len() < 2 {
                    0.0
                } else {
                    a.abs_diff_sum / (x.len() - 1) as f64
                }
            }
            MedianAbsDiff => a.median_abs_diff,
            MeanDiff => a.d_mean,
            MedianDiff => a.median_diff,
            SumAbsDiff => a.abs_diff_sum,
            MaxDiff => {
                if self.diffs.is_empty() {
                    0.0
                } else {
                    a.d_fold_max
                }
            }
            MinDiff => {
                if self.diffs.is_empty() {
                    0.0
                } else {
                    a.d_fold_min
                }
            }
            StdDiff => a.d_std,
            Slope => stats::slope_with(x, a.mean),
            ZeroCrossRate => temporal::zero_crossing_rate(x),
            MeanCrossRate => temporal::mean_crossing_rate_with(x, a.mean),
            PosTurning => temporal::positive_turning_points(x),
            NegTurning => temporal::negative_turning_points(x),
            PeakCount => temporal::peak_count(x, 0.0),
            TrapzArea => temporal::trapz(x),
            AbsTrapzArea => temporal::trapz_abs(x),
            TemporalCentroid => temporal::temporal_centroid_with(x, a.abs_energy),
            TotalEnergy => a.abs_energy / x.len().max(1) as f64,
            EntropyDiff => {
                if a.d_hist_valid {
                    stats::histogram_entropy_from_counts(&a.d_hist, self.diffs.len())
                } else {
                    stats::histogram_entropy(self.diffs, HIST_BINS)
                }
            }
            LongestStrikeAbove => temporal::longest_strike_above_mean_with(x, a.mean),
            LongestStrikeBelow => temporal::longest_strike_below_mean_with(x, a.mean),
            TimeReversalAsym => temporal::time_reversal_asymmetry(x, 1),
            C3 => temporal::c3(x, 1),
            CidCe => temporal::cid_ce_from_diffs(self.diffs),
            RatioBeyondSigma(r) => temporal::ratio_beyond_r_sigma_with(x, r as f64, a.mean, a.std),
            AutoCorr(l) => stats::autocorrelation_with(x, l as usize, a.mean, a.centered_sq),
            EnergyChunk(i) => temporal::energy_ratio_chunk_with(x, i as usize, 8, a.abs_energy),
            MaxPower => stats::max(self.power).max(0.0),
            FreqAtMaxPower => vecops::argmax(self.power)
                .map(|i| self.freqs[i])
                .unwrap_or(0.0),
            SpectralCentroid => a.sp_centroid,
            SpectralSpread => a.sp_spread,
            SpectralSkewness => spectral::skewness_with(
                self.freqs,
                self.power,
                a.sp_centroid,
                a.sp_spread,
                a.sp_total,
            ),
            SpectralKurtosis => spectral::kurtosis_with(
                self.freqs,
                self.power,
                a.sp_centroid,
                a.sp_spread,
                a.sp_total,
            ),
            SpectralEntropy => spectral::entropy_with(self.power, a.sp_total),
            SpectralSlope => spectral::slope(self.freqs, self.power),
            SpectralDecrease => spectral::decrease(self.power),
            SpectralRolloff(p) => {
                spectral::rolloff_with(self.freqs, self.power, p as f64 / 100.0, a.sp_total)
            }
            MedianFrequency => spectral::rolloff_with(self.freqs, self.power, 0.5, a.sp_total),
            FundamentalFrequency => spectral::fundamental_frequency(self.freqs, self.power),
            PowerBandwidth => (spectral::rolloff_with(self.freqs, self.power, 0.975, a.sp_total)
                - spectral::rolloff_with(self.freqs, self.power, 0.025, a.sp_total))
            .max(0.0),
            SpectralPosTurning => spectral::positive_turning_points(self.power),
            BandEnergy(i) => spectral::band_energy_with(self.power, i as usize, 10, a.sp_total),
            FftCoeff(i) => self.mags.get(i as usize).copied().unwrap_or(0.0),
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
    /// clustering needs. Metrics are processed in parallel, each rayon
    /// worker reusing its thread-local [`FeatureScratch`] and writing its
    /// block of the output directly (order-preserving by construction —
    /// chunk `c` of the output is metric `c`).
    pub fn extract_mts(&self, segment: &Matrix, sample_rate: f64) -> Vec<f64> {
        let m = segment.cols();
        let len = self.kinds.len();
        let mut out = vec![0.0; m * len];
        if len == 0 {
            return out;
        }
        out.par_chunks_mut(len).enumerate().for_each(|(c, chunk)| {
            SCRATCH.with(|s| {
                let scratch = &mut *s.borrow_mut();
                // Detach the column buffer so the rest of the scratch
                // can back the derived views; reattach afterwards so
                // its capacity survives to the next metric.
                let mut col = std::mem::take(&mut scratch.col);
                col.clear();
                for r in 0..segment.rows() {
                    col.push(segment[(r, c)]);
                }
                self.extract_into(&col, sample_rate, scratch, chunk);
                scratch.col = col;
            });
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

    /// Standalone (one-pass-per-kind) evaluation of the kinds whose eval
    /// arms now read shared aggregates — the pre-cache implementation,
    /// kept here as the bit-exactness oracle.
    fn standalone(
        x: &[f64],
        diffs: &[f64],
        freqs: &[f64],
        power: &[f64],
        k: FeatureKind,
    ) -> Option<f64> {
        use FeatureKind::*;
        Some(match k {
            Mean => stats::mean(x),
            Std => stats::std_dev(x),
            Variance => stats::variance(x),
            Rms => stats::rms(x),
            Skewness => stats::skewness(x),
            Kurtosis => stats::kurtosis(x),
            Mad => stats::mad(x),
            MeanAbsDeviation => statistical::mean_abs_deviation(x),
            AbsEnergy => statistical::abs_energy(x),
            Sum => x.iter().sum(),
            CoefVariation => statistical::coefficient_of_variation(x),
            HistEntropy => stats::histogram_entropy(x, 10),
            CountAboveMean => statistical::count_above_mean(x),
            CountBelowMean => statistical::count_below_mean(x),
            ArgmaxRel | FirstLocMax => temporal::first_location_of_max(x),
            ArgminRel | FirstLocMin => temporal::first_location_of_min(x),
            LastLocMax => temporal::last_location_of_max(x),
            LastLocMin => temporal::last_location_of_min(x),
            TrimmedMean => stats::trimmed_mean_std(x, 0.05).0,
            HistBin(i) => statistical::hist_bin_fraction(x, i as usize, 10),
            MeanAbsDiff => stats::mean_abs_change(x),
            MedianAbsDiff => {
                let a: Vec<f64> = diffs.iter().map(|d| d.abs()).collect();
                stats::median(&a)
            }
            MeanDiff => stats::mean(diffs),
            MedianDiff => stats::median(diffs),
            SumAbsDiff => diffs.iter().map(|d| d.abs()).sum(),
            MaxDiff => {
                if diffs.is_empty() {
                    0.0
                } else {
                    stats::max(diffs)
                }
            }
            MinDiff => {
                if diffs.is_empty() {
                    0.0
                } else {
                    stats::min(diffs)
                }
            }
            StdDiff => stats::std_dev(diffs),
            Slope => stats::slope(x),
            MeanCrossRate => temporal::mean_crossing_rate(x),
            AbsTrapzArea => temporal::trapz(&x.iter().map(|v| v.abs()).collect::<Vec<_>>()),
            TemporalCentroid => temporal::temporal_centroid(x),
            TotalEnergy => statistical::abs_energy(x) / x.len().max(1) as f64,
            EntropyDiff => stats::histogram_entropy(diffs, 10),
            LongestStrikeAbove => temporal::longest_strike_above_mean(x),
            LongestStrikeBelow => temporal::longest_strike_below_mean(x),
            CidCe => temporal::cid_ce(x),
            RatioBeyondSigma(r) => temporal::ratio_beyond_r_sigma(x, r as f64),
            AutoCorr(l) => stats::autocorrelation(x, l as usize),
            EnergyChunk(i) => temporal::energy_ratio_chunk(x, i as usize, 8),
            SpectralCentroid => spectral::centroid(freqs, power),
            SpectralSpread => spectral::spread(freqs, power),
            SpectralSkewness => spectral::skewness(freqs, power),
            SpectralKurtosis => spectral::kurtosis(freqs, power),
            SpectralEntropy => spectral::entropy(power),
            SpectralRolloff(p) => spectral::rolloff(freqs, power, p as f64 / 100.0),
            MedianFrequency => spectral::median_frequency(freqs, power),
            PowerBandwidth => spectral::power_bandwidth(freqs, power),
            BandEnergy(i) => spectral::band_energy(power, i as usize, 10),
            _ => return None,
        })
    }

    #[test]
    fn cached_arms_match_standalone_functions() {
        let c = FeatureCatalog::standard();
        let mut inputs: Vec<Vec<f64>> = vec![
            vec![],
            vec![2.5],
            vec![0.0, -0.0],
            vec![5.0; 64],
            (0..7).map(|i| i as f64).collect(),
        ];
        inputs.push(
            (0..120)
                .map(|i| (i as f64 * 0.37).sin() * 2.0 + 0.01 * i as f64)
                .collect(),
        );
        for x in &inputs {
            let got = c.extract(x, 1.0);
            // Rebuild the derived views exactly as the scratch does.
            let diffs = temporal::diffs(x);
            let (freqs, power) = if x.len() >= 2 {
                fft::power_spectrum(x, 1.0)
            } else {
                (vec![0.0], vec![0.0])
            };
            for (v, &k) in got.iter().zip(c.kinds()) {
                let Some(naive) = standalone(x, &diffs, &freqs, &power, k) else {
                    continue;
                };
                let naive = if naive.is_finite() { naive } else { 0.0 };
                assert_eq!(
                    v.to_bits(),
                    naive.to_bits(),
                    "{k:?} diverged on len {} ({v} vs {naive})",
                    x.len()
                );
            }
        }
    }
}
