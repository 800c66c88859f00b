//! Property-based invariants across the workspace (proptest).

use nodesentry::cluster::dtw::dtw_distance;
use nodesentry::cluster::{linkage, Linkage};
use nodesentry::eval::metrics::{point_adjust, roc_auc_adjusted};
use nodesentry::eval::streaming::{StreamingKSigma, StreamingSmoother};
use nodesentry::eval::threshold::{ksigma_detect, smooth_scores, KSigmaConfig};
use nodesentry::features::fft::{fft_in_place, Complex};
use nodesentry::features::FeatureCatalog;
use nodesentry::linalg::{stats, Matrix};
use proptest::prelude::*;

fn series(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 2..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fft_roundtrip_is_identity(x in prop::collection::vec(-50.0f64..50.0, 1..65)) {
        let n = x.len().next_power_of_two();
        let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
        buf.resize(n, Complex::zero());
        fft_in_place(&mut buf, false);
        fft_in_place(&mut buf, true);
        for (c, &v) in buf.iter().zip(&x) {
            prop_assert!((c.re - v).abs() < 1e-8);
            prop_assert!(c.im.abs() < 1e-8);
        }
    }

    #[test]
    fn feature_extraction_is_total_and_fixed_width(x in series(200)) {
        let catalog = FeatureCatalog::standard();
        let f = catalog.extract(&x, 1.0);
        prop_assert_eq!(f.len(), 134);
        prop_assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn feature_shift_invariance_of_std(x in series(100), shift in -50.0f64..50.0) {
        // std/variance/mad features must be shift-invariant.
        let shifted: Vec<f64> = x.iter().map(|v| v + shift).collect();
        prop_assert!((stats::std_dev(&x) - stats::std_dev(&shifted)).abs() < 1e-8);
        prop_assert!((stats::mad(&x) - stats::mad(&shifted)).abs() < 1e-8);
    }

    #[test]
    fn hac_cut_produces_compact_valid_labels(
        pts in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 2), 2..24),
        k_raw in 1usize..10
    ) {
        let dend = linkage(&pts, Linkage::Average);
        let k = k_raw.min(pts.len());
        let labels = dend.cut_k(k);
        prop_assert_eq!(labels.len(), pts.len());
        let mut uniq = labels.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), k);
        prop_assert_eq!(*uniq.iter().max().unwrap(), k - 1);
    }

    #[test]
    fn dtw_symmetry_and_identity(a in series(40), b in series(40)) {
        let d_ab = dtw_distance(&a, &b, None);
        let d_ba = dtw_distance(&b, &a, None);
        prop_assert!((d_ab - d_ba).abs() < 1e-9);
        prop_assert!(dtw_distance(&a, &a, None) < 1e-12);
        prop_assert!(d_ab >= 0.0);
    }

    #[test]
    fn point_adjust_never_removes_predictions(
        pred in prop::collection::vec(any::<bool>(), 1..120),
        truth_seed in prop::collection::vec(any::<bool>(), 1..120)
    ) {
        let n = pred.len().min(truth_seed.len());
        let adjusted = point_adjust(&pred[..n], &truth_seed[..n]);
        for i in 0..n {
            // Adjustment only ever adds positives inside true runs.
            if pred[i] {
                prop_assert!(adjusted[i]);
            }
            if adjusted[i] && !pred[i] {
                prop_assert!(truth_seed[i]);
            }
        }
    }

    #[test]
    fn auc_is_bounded_and_flip_symmetric(
        scores in prop::collection::vec(0.0f64..1.0, 4..80),
        idx in 1usize..3
    ) {
        let truth: Vec<bool> = (0..scores.len()).map(|i| i % (idx + 1) == 0).collect();
        let auc = roc_auc_adjusted(&scores, &truth, None);
        prop_assert!((0.0..=1.0).contains(&auc));
        // Negating scores flips AUC around 0.5 (up to tie handling).
        let neg: Vec<f64> = scores.iter().map(|v| -v).collect();
        let auc_neg = roc_auc_adjusted(&neg, &truth, None);
        prop_assert!((auc + auc_neg - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ksigma_flags_subset_under_larger_k(scores in prop::collection::vec(0.0f64..10.0, 8..200)) {
        let loose = ksigma_detect(&scores, &KSigmaConfig { k: 2.0, ..Default::default() });
        let strict = ksigma_detect(&scores, &KSigmaConfig { k: 6.0, ..Default::default() });
        // A point flagged by the strict detector is flagged by the loose
        // one as long as the reference windows coincide; globally the
        // strict count cannot exceed the loose count.
        let nl = loose.iter().filter(|&&b| b).count();
        let ns = strict.iter().filter(|&&b| b).count();
        prop_assert!(ns <= nl);
    }

    #[test]
    fn smoothing_preserves_mean_and_bounds(scores in prop::collection::vec(0.0f64..5.0, 1..100)) {
        let sm = smooth_scores(&scores, 5);
        prop_assert_eq!(sm.len(), scores.len());
        let lo = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(sm.iter().all(|&v| v >= lo - 1e-12 && v <= hi + 1e-12));
    }

    #[test]
    fn interpolation_is_idempotent_and_total(
        vals in prop::collection::vec(prop::option::of(-10.0f64..10.0), 3..60)
    ) {
        let mut m = Matrix::from_fn(vals.len(), 1, |r, _| vals[r].unwrap_or(f64::NAN));
        nodesentry::core::preprocess::interpolate_missing(&mut m);
        prop_assert!(m.as_slice().iter().all(|v| v.is_finite()));
        let before = m.clone();
        nodesentry::core::preprocess::interpolate_missing(&mut m);
        prop_assert_eq!(before, m);
    }

    #[test]
    fn trimmed_std_never_exceeds_plain_std(x in series(150)) {
        let (_, trimmed) = stats::trimmed_mean_std(&x, 0.05);
        let plain = stats::std_dev(&x);
        prop_assert!(trimmed <= plain + 1e-9);
    }

    #[test]
    fn streaming_smoother_matches_batch_on_arbitrary_series(
        scores in prop::collection::vec(-50.0f64..50.0, 0..160),
        window in 1usize..12
    ) {
        let batch = smooth_scores(&scores, window);
        let mut sm = StreamingSmoother::new(window);
        let mut streamed = Vec::new();
        for &s in &scores {
            streamed.extend(sm.push(s));
        }
        streamed.extend(sm.flush());
        prop_assert_eq!(batch.len(), streamed.len());
        for (a, b) in batch.iter().zip(&streamed) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn streaming_ksigma_matches_batch_on_arbitrary_series(
        scores in prop::collection::vec(-20.0f64..20.0, 0..300),
        window in 1usize..50,
        k_tenths in 10usize..60
    ) {
        let cfg = KSigmaConfig { window, k: k_tenths as f64 / 10.0 };
        let batch = ksigma_detect(&scores, &cfg);
        let mut det = StreamingKSigma::new(cfg);
        let streamed: Vec<bool> = scores.iter().map(|&s| det.push(s)).collect();
        prop_assert_eq!(batch, streamed);
    }

    #[test]
    fn streaming_smooth_then_ksigma_matches_batch_composition(
        scores in prop::collection::vec(0.0f64..10.0, 0..250),
        smooth_w in 1usize..9
    ) {
        let cfg = KSigmaConfig::default();
        let batch = ksigma_detect(&smooth_scores(&scores, smooth_w), &cfg);
        let mut sm = StreamingSmoother::new(smooth_w);
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
        prop_assert_eq!(batch, streamed);
    }
}
