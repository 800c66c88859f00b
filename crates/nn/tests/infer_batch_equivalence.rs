//! Differential test: [`InferenceSession::score_windows_batch`] over a
//! burst of windows must reproduce a loop of `score_window` calls to the
//! bit, for random shapes, burst sizes and block kinds — how a caller
//! groups windows into calls is unobservable.

use ns_linalg::matrix::Matrix;
use ns_nn::{
    BlockKind, InferenceSession, ParamStore, ReconstructionTransformer, TransformerConfig,
    WindowSpec,
};
use proptest::prelude::*;

fn build_model(
    seed: u64,
    input_dim: usize,
    heads: usize,
    n_layers: usize,
    block: BlockKind,
) -> (ParamStore, ReconstructionTransformer) {
    let d_model = heads * 4;
    let mut params = ParamStore::new(seed);
    let model = ReconstructionTransformer::new(
        &mut params,
        TransformerConfig {
            input_dim,
            d_model,
            n_heads: heads,
            n_layers,
            hidden: d_model * 2,
            block,
            aux_weight: 0.01,
        },
    );
    (params, model)
}

fn window(t: usize, m: usize, phase: f64) -> Matrix {
    Matrix::from_fn(t, m, |r, c| {
        ((r as f64 * 0.37 + c as f64 * 1.3 + phase) * 0.9).sin()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn score_windows_batch_bit_identical_to_score_window_loop(
        seed in 0u64..1_000_000,
        input_dim in 1usize..5,
        heads in 1usize..3,
        dense in any::<bool>(),
        series_lens in prop::collection::vec(2usize..30, 1..5),
        win in 3usize..10,
        phase in -2.0f64..2.0,
    ) {
        let block = if dense {
            BlockKind::Dense
        } else {
            BlockKind::Moe { n_experts: 3, top_k: 1 }
        };
        let (params, model) = build_model(seed, input_dim, heads, 2, block);
        let weights: Vec<f64> = (0..input_dim).map(|i| 1.0 / (1.0 + i as f64 * 0.3)).collect();

        // One window tiling per series, exactly as score_series_raw does.
        let series: Vec<Matrix> = series_lens
            .iter()
            .enumerate()
            .map(|(s, &t)| window(t, input_dim, phase + s as f64))
            .collect();
        let pos_fns: Vec<_> = series
            .iter()
            .map(|d| {
                let t = d.rows();
                move |r: usize| r as f64 * 512.0 / t as f64
            })
            .collect();
        let mut specs: Vec<WindowSpec> = Vec::new();
        for (si, data) in series.iter().enumerate() {
            let t = data.rows();
            let w = win.min(t).max(1);
            let mut starts: Vec<usize> = (0..t.saturating_sub(w - 1)).step_by(w).collect();
            if starts.is_empty() {
                starts.push(0);
            }
            if let Some(&last) = starts.last() {
                if last + w < t {
                    starts.push(t - w);
                }
            }
            for s in starts {
                specs.push(WindowSpec {
                    data,
                    start: s,
                    end: s + w,
                    pos_of: &pos_fns[si],
                    weights: &weights,
                });
            }
        }

        // Reference: a fresh session scoring each window alone.
        let mut single = InferenceSession::new();
        let mut want: Vec<f64> = Vec::new();
        for sp in &specs {
            want.extend_from_slice(single.score_window(
                &params, &model, sp.data, sp.start, sp.end, sp.pos_of, sp.weights,
            ));
        }

        let mut batched = InferenceSession::new();
        let got = batched.score_windows_batch(&params, &model, &specs);
        prop_assert_eq!(got.len(), want.len());
        for (i, (a, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(a.to_bits(), w.to_bits(), "err {}: {} vs {}", i, a, w);
        }
    }
}

/// The degenerate burst the proptest ranges skip.
#[test]
fn empty_spec_list_scores_to_an_empty_slice() {
    let (params, model) = build_model(
        7,
        3,
        2,
        1,
        BlockKind::Moe {
            n_experts: 2,
            top_k: 1,
        },
    );
    let mut sess = InferenceSession::new();
    let got = sess.score_windows_batch(&params, &model, &[]);
    assert!(got.is_empty());
}
