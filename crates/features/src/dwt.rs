//! Haar discrete wavelet transform, used for the wavelet-energy features of
//! the spectral catalog family.

/// One level of the Haar DWT: returns `(approximation, detail)` halves.
/// Odd-length inputs drop the final sample (standard truncation).
pub fn haar_step(x: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let pairs = x.len() / 2;
    let mut approx = Vec::with_capacity(pairs);
    let mut detail = Vec::with_capacity(pairs);
    let s = std::f64::consts::FRAC_1_SQRT_2;
    for k in 0..pairs {
        let a = x[2 * k];
        let b = x[2 * k + 1];
        approx.push((a + b) * s);
        detail.push((a - b) * s);
    }
    (approx, detail)
}

/// Multi-level Haar decomposition. Returns the detail coefficients for each
/// level (finest first) and the final approximation. Stops early when the
/// signal can no longer be halved.
pub fn haar_decompose(x: &[f64], levels: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut details = Vec::with_capacity(levels);
    let mut current = x.to_vec();
    for _ in 0..levels {
        if current.len() < 2 {
            break;
        }
        let (a, d) = haar_step(&current);
        details.push(d);
        current = a;
    }
    (details, current)
}

/// Relative energy captured in each detail level (finest first), padded with
/// zeros up to `levels`. Energies are normalised by total input energy, so
/// they sum to ≤ 1 (the remainder sits in the approximation).
pub fn wavelet_energies(x: &[f64], levels: usize) -> Vec<f64> {
    let mut out = Vec::new();
    let total = x.iter().map(|v| v * v).sum();
    wavelet_energies_into(x, levels, total, &mut out, &mut Vec::new());
    out
}

/// Allocation-reusing form of [`wavelet_energies`], given the series'
/// energy `total` (`Σx²` summed in order, as [`wavelet_energies`] sums it):
/// `out` receives the per-level energies, `cur` is working storage for the
/// cascading approximation. Each Haar level is computed in place — detail
/// energy accumulated on the fly, approximation written back over the
/// front of `cur` — so no per-level buffers are materialised.
/// Bit-identical to the decompose-then-sum formulation: the per-level
/// energy sums the squared details in the same left-to-right order.
pub fn wavelet_energies_into(
    x: &[f64],
    levels: usize,
    total: f64,
    out: &mut Vec<f64>,
    cur: &mut Vec<f64>,
) {
    out.clear();
    out.resize(levels, 0.0);
    if total < 1e-24 {
        return;
    }
    cur.clear();
    cur.extend_from_slice(x);
    let s = std::f64::consts::FRAC_1_SQRT_2;
    for slot in out.iter_mut() {
        if cur.len() < 2 {
            break;
        }
        let pairs = cur.len() / 2;
        let mut energy = 0.0;
        for k in 0..pairs {
            // Reads (2k, 2k+1) stay ahead of the write at k.
            let a = cur[2 * k];
            let b = cur[2 * k + 1];
            let d = (a - b) * s;
            energy += d * d;
            cur[k] = (a + b) * s;
        }
        cur.truncate(pairs);
        *slot = energy / total;
    }
}

/// Shannon entropy of the normalised per-level wavelet energy distribution
/// (detail levels plus the approximation remainder).
pub fn wavelet_entropy(x: &[f64], levels: usize) -> f64 {
    wavelet_entropy_from_energies(&wavelet_energies(x, levels))
}

/// [`wavelet_entropy`] over already-computed [`wavelet_energies`] output,
/// so callers holding the energies (e.g. the feature catalog, which needs
/// both) skip a second full decomposition.
pub fn wavelet_entropy_from_energies(energies: &[f64]) -> f64 {
    let detail_sum: f64 = energies.iter().sum();
    let rem = (1.0 - detail_sum).max(0.0); // approximation remainder
    let s = detail_sum + rem;
    if s < 1e-24 {
        return 0.0;
    }
    energies
        .iter()
        .chain(std::iter::once(&rem))
        .filter(|&&p| p > 1e-15)
        .map(|&p| {
            let q = p / s;
            -q * q.ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haar_step_preserves_energy() {
        let x = [1.0, 3.0, -2.0, 0.5, 4.0, 4.0];
        let (a, d) = haar_step(&x);
        let e_in: f64 = x.iter().map(|v| v * v).sum();
        let e_out: f64 = a.iter().chain(&d).map(|v| v * v).sum();
        assert!((e_in - e_out).abs() < 1e-12);
    }

    #[test]
    fn constant_signal_has_zero_detail() {
        let x = [5.0; 16];
        let (details, approx) = haar_decompose(&x, 4);
        for d in &details {
            assert!(d.iter().all(|&v| v.abs() < 1e-12));
        }
        assert_eq!(approx.len(), 1);
        // 4 levels of +/sqrt2 scaling: 5 * 2^(4/2) = 20.
        assert!((approx[0] - 20.0).abs() < 1e-12);
    }

    #[test]
    fn alternating_signal_energy_in_finest_level() {
        let x: Vec<f64> = (0..32)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let e = wavelet_energies(&x, 4);
        assert!((e[0] - 1.0).abs() < 1e-12);
        assert!(e[1..].iter().all(|&v| v < 1e-12));
    }

    #[test]
    fn energies_sum_below_one() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.17).sin() + 0.3).collect();
        let e = wavelet_energies(&x, 5);
        let s: f64 = e.iter().sum();
        assert!(s <= 1.0 + 1e-12);
        assert!(e.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn entropy_degenerate_cases() {
        assert_eq!(wavelet_entropy(&[0.0; 16], 4), 0.0);
        // Concentrated energy → low entropy; mixed signal → higher.
        let alt: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let mixed: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.9).sin() + (i as f64 * 0.1).sin())
            .collect();
        assert!(wavelet_entropy(&alt, 5) < wavelet_entropy(&mixed, 5));
    }

    #[test]
    fn in_place_energies_bit_identical_to_decompose() {
        let signals: Vec<Vec<f64>> = vec![
            (0..64).map(|i| (i as f64 * 0.17).sin() + 0.3).collect(),
            (0..37).map(|i| ((i * 7919 % 101) as f64) - 50.0).collect(),
            vec![0.0; 16],
            vec![2.0],
        ];
        for x in signals {
            // Reference: the original decompose-then-sum formulation.
            let total: f64 = x.iter().map(|v| v * v).sum();
            let (details, _) = haar_decompose(&x, 5);
            let mut reference = vec![0.0; 5];
            if total >= 1e-24 {
                for (l, d) in details.iter().enumerate() {
                    reference[l] = d.iter().map(|v| v * v).sum::<f64>() / total;
                }
            }
            let fast = wavelet_energies(&x, 5);
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&reference), "x={x:?}");
            assert_eq!(
                wavelet_entropy(&x, 5).to_bits(),
                wavelet_entropy_from_energies(&fast).to_bits()
            );
        }
    }

    #[test]
    fn short_inputs_truncate_gracefully() {
        let (details, approx) = haar_decompose(&[1.0], 3);
        assert!(details.is_empty());
        assert_eq!(approx, vec![1.0]);
        let e = wavelet_energies(&[2.0], 3);
        assert_eq!(e, vec![0.0, 0.0, 0.0]);
    }
}
