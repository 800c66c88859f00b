//! Iterative radix-2 Cooley–Tukey FFT and one-sided power spectra.
//!
//! The spectral half of the feature catalog needs a power spectrum; TSFEL
//! gets one from scipy, we build our own. Inputs of non-power-of-two length
//! are zero-padded to the next power of two, which is the standard choice
//! for feature extraction (it changes resolution, not the spectral shape).

use std::f64::consts::PI;
use std::sync::OnceLock;

/// A complex number as a bare `(re, im)` pair — all we need for the FFT.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    #[inline]
    pub fn zero() -> Self {
        Self { re: 0.0, im: 0.0 }
    }

    #[inline]
    #[allow(clippy::should_implement_trait)] // bare math helpers, not operator overloads
    pub fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }

    #[inline]
    #[allow(clippy::should_implement_trait)] // bare math helpers, not operator overloads
    pub fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }

    #[inline]
    #[allow(clippy::should_implement_trait)] // bare math helpers, not operator overloads
    pub fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }
}

/// Next power of two ≥ `n` (and ≥ 1).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Forward-transform twiddle factors for a size-`n` FFT, stage-major:
/// stage `len = 2, 4, …, n` contributes `len/2` entries. Generated with
/// the **same** `w = w.mul(wlen)` recurrence the butterfly loop used to
/// run inline, so cached and uncached transforms are bit-identical.
fn forward_twiddles(n: usize) -> Vec<Complex> {
    let mut t = Vec::with_capacity(n.saturating_sub(1));
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut w = Complex::new(1.0, 0.0);
        for _ in 0..len / 2 {
            t.push(w);
            w = w.mul(wlen);
        }
        len <<= 1;
    }
    t
}

/// A forward transform's tables for one power-of-two size: the twiddle
/// factors and the bit-reversal permutation.
struct Plan {
    twiddles: Vec<Complex>,
    /// `bitrev[i]` is the input index the permutation moves to `i`.
    bitrev: Vec<usize>,
}

/// One plan slot per power-of-two size (slot `log2 n`), each built once
/// per process on first use and then read without a lock.
static PLANS: [OnceLock<Plan>; usize::BITS as usize] =
    [const { OnceLock::new() }; usize::BITS as usize];

/// The forward plan for power-of-two size `n`.
fn plan(n: usize) -> &'static Plan {
    PLANS[n.trailing_zeros() as usize].get_or_init(|| {
        let mut bitrev: Vec<usize> = (0..n).collect();
        bit_reverse(&mut bitrev);
        Plan {
            twiddles: forward_twiddles(n),
            bitrev,
        }
    })
}

/// Bit-reversal permutation shared by all transform variants.
fn bit_reverse<T>(buf: &mut [T]) {
    let n = buf.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
}

/// The forward butterfly stages over bit-reversed `buf`, stage `len = 2,
/// 4, …, n` reading its `len/2` factors of `twiddles` in turn.
fn forward_stages(buf: &mut [Complex], twiddles: &[Complex]) {
    let mut off = 0usize;
    let mut len = 2;
    while len <= buf.len() {
        let stage = &twiddles[off..off + len / 2];
        for block in buf.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(len / 2);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                let u = *a;
                let v = b.mul(w);
                *a = u.add(v);
                *b = u.sub(v);
            }
        }
        off += len / 2;
        len <<= 1;
    }
}

/// In-place iterative radix-2 FFT. `buf.len()` must be a power of two.
/// `inverse` selects the inverse transform (including the 1/n scaling).
/// Forward transforms read the process-wide twiddle tables.
pub fn fft_in_place(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    assert!(
        n.is_power_of_two(),
        "fft length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    bit_reverse(buf);
    if !inverse {
        forward_stages(buf, &plan(n).twiddles);
        return;
    }
    // Butterfly passes with inline twiddle recurrence (inverse transforms
    // are off the hot path — round-trip tests and nothing else).
    let mut len = 2;
    while len <= n {
        let ang = 2.0 * PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = buf[i + k];
                let v = buf[i + k + len / 2].mul(w);
                buf[i + k] = u.add(v);
                buf[i + k + len / 2] = u.sub(v);
                w = w.mul(wlen);
            }
            i += len;
        }
        len <<= 1;
    }
    let inv = 1.0 / n as f64;
    for c in buf.iter_mut() {
        c.re *= inv;
        c.im *= inv;
    }
}

/// Forward FFT of a real signal into a caller-owned buffer (cleared and
/// refilled), zero-padded to the next power of two. The padded input is
/// loaded straight into bit-reversed order, the one data movement the
/// in-place transform would make before its first stage. Reusing the
/// buffer across calls keeps repeat extraction allocation-free.
pub fn rfft_into(x: &[f64], buf: &mut Vec<Complex>) {
    let plan = plan(next_pow2(x.len()));
    buf.clear();
    buf.extend(
        plan.bitrev
            .iter()
            .map(|&j| Complex::new(x.get(j).copied().unwrap_or(0.0), 0.0)),
    );
    forward_stages(buf, &plan.twiddles);
}

/// Forward FFT of a real signal, zero-padded to the next power of two.
/// Returns the full complex spectrum of length `next_pow2(x.len())`.
pub fn rfft(x: &[f64]) -> Vec<Complex> {
    let mut buf = Vec::new();
    rfft_into(x, &mut buf);
    buf
}

/// One-sided magnitude spectrum (bins `0..=n/2`) of a real signal.
pub fn magnitude_spectrum(x: &[f64]) -> Vec<f64> {
    let spec = rfft(x);
    let half = spec.len() / 2;
    spec[..=half].iter().map(|c| c.abs()).collect()
}

/// One-sided power spectrum with matching frequency axis.
///
/// `sample_rate` is in Hz (for our telemetry: `1 / sampling_interval_s`).
/// Returns `(freqs, power)` with `freqs[i] = i * fs / n`.
pub fn power_spectrum(x: &[f64], sample_rate: f64) -> (Vec<f64>, Vec<f64>) {
    let spec = rfft(x);
    let n = spec.len();
    let half = n / 2;
    let scale = 1.0 / (n as f64 * n as f64);
    let mut freqs = Vec::with_capacity(half + 1);
    let mut power = Vec::with_capacity(half + 1);
    for (i, c) in spec[..=half].iter().enumerate() {
        freqs.push(i as f64 * sample_rate / n as f64);
        // One-sided: interior bins pick up the mirrored energy.
        let mult = if i == 0 || i == half { 1.0 } else { 2.0 };
        power.push(mult * c.norm_sq() * scale);
    }
    (freqs, power)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_roundtrip_recovers_signal() {
        let x: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.3).sin() + 0.1 * i as f64)
            .collect();
        let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
        fft_in_place(&mut buf, false);
        fft_in_place(&mut buf, true);
        for (c, &v) in buf.iter().zip(&x) {
            assert!((c.re - v).abs() < 1e-9);
            assert!(c.im.abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_theorem_holds() {
        let x: Vec<f64> = (0..128).map(|i| ((i * 37 % 11) as f64) - 5.0).collect();
        let spec = rfft(&x);
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sq()).sum::<f64>() / spec.len() as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }

    #[test]
    fn pure_tone_peaks_at_its_bin() {
        let n = 256;
        let fs = 1.0;
        let k = 16; // 16 cycles over n samples → bin 16
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * k as f64 * i as f64 / n as f64).sin())
            .collect();
        let (freqs, power) = power_spectrum(&x, fs);
        let peak = power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, k);
        assert!((freqs[peak] - k as f64 / n as f64).abs() < 1e-12);
        // Total one-sided power ≈ signal variance (0.5 for a unit sine).
        let total: f64 = power.iter().sum();
        assert!(
            (total - 0.5).abs() < 1e-6,
            "total one-sided power was {total}"
        );
    }

    #[test]
    fn dc_signal_has_all_power_at_zero() {
        let x = vec![3.0; 64];
        let (_, power) = power_spectrum(&x, 1.0);
        assert!((power[0] - 9.0).abs() < 1e-9);
        assert!(power[1..].iter().all(|&p| p < 1e-12));
    }

    #[test]
    fn zero_padding_keeps_peak_location() {
        // 100 samples (non power of two) of a 10-cycle tone.
        let n = 100;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 10.0 * i as f64 / n as f64).sin())
            .collect();
        let (freqs, power) = power_spectrum(&x, 1.0);
        let peak = power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        // True frequency is 0.1; padded resolution is 1/128.
        assert!((freqs[peak] - 0.1).abs() < 1.5 / 128.0);
    }

    #[test]
    fn rfft_equals_the_in_place_transform_of_the_padded_input() {
        // `rfft_into` permutes while loading; `fft_in_place` swaps in place.
        let bits = |v: &[Complex]| {
            v.iter()
                .map(|c| (c.re.to_bits(), c.im.to_bits()))
                .collect::<Vec<_>>()
        };
        for len in [0usize, 1, 2, 3, 7, 8, 42, 100, 128] {
            let mut x: Vec<f64> = (0..len).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
            if len > 3 {
                x[1] = f64::INFINITY;
                x[2] = -0.0;
                x[3] = f64::NAN;
            }
            let mut padded: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
            padded.resize(next_pow2(len), Complex::zero());
            fft_in_place(&mut padded, false);
            assert_eq!(bits(&rfft(&x)), bits(&padded), "len {len}");
        }
    }

    #[test]
    fn fft_size_one_is_identity() {
        let mut buf = [Complex::new(5.0, -1.0)];
        fft_in_place(&mut buf, false);
        assert_eq!(buf[0], Complex::new(5.0, -1.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let mut buf = vec![Complex::zero(); 12];
        fft_in_place(&mut buf, false);
    }
}
