//! `ns-nn` — a from-scratch deep-learning substrate for NodeSentry.
//!
//! The paper trains its shared per-cluster models in PyTorch; this crate
//! replaces that stack with a small, fully-tested reverse-mode autodiff
//! engine and the model zoo the reproduction needs:
//!
//! * [`tape`] — define-by-run autodiff [`tape::Graph`] (its buffers, a
//!   [`tape::Tape`], recycled across examples) over 2-D matrices with
//!   the op set required by Transformers, MoE routing, LSTMs and VAEs
//!   (matmul, fused linear, softmax, layer norm, gather/scatter rows,
//!   broadcasts, reductions), generic over the scalar: `f64` trains and
//!   scores, `f32` scores. Every op's backward is verified against
//!   central finite differences ([`gradcheck`]).
//! * [`params`] — shared [`params::ParamStore`] + [`params::GradStore`];
//!   batches train data-parallel by building one graph per example on
//!   rayon workers and merging gradient stores.
//! * [`optim`] — Adam.
//! * [`layers`] — Linear, LayerNorm, FeedForward, multi-head
//!   self-attention, sinusoidal positional encoding.
//! * [`moe`] — the sparse top-k Mixture-of-Experts layer (§3.4, Eq. 3–4)
//!   with Switch-style load-balance auxiliary loss.
//! * [`transformer`] — the reconstruction Transformer whose dense FFN is
//!   replaced by the MoE layer (Fig. 3), plus the dense variant used by
//!   ablation C5.
//! * [`lstm`] — LSTM cell and sequence autoencoder (RUAD baseline).
//! * [`vae`] — variational autoencoder (Prodigy baseline).
//! * [`infer`] — scoring sessions: [`infer::Session`] runs the
//!   transformer's one description into a recycled tape with zero
//!   steady-state heap allocations, and owns what is per tier — input
//!   rounding, the error reduction. Weights come from the store: `f64`
//!   reads its matrices, `f32` the copy the store rounds on first use and
//!   drops on every mutation. [`infer::InferenceSession`] (`f64`) is the
//!   taped forward; [`infer::InferenceSessionF32`] the same at `f32`.

pub mod gradcheck;
pub mod infer;
pub mod layers;
pub mod lstm;
pub mod moe;
pub mod optim;
pub mod params;
pub mod tape;
pub mod transformer;
pub mod vae;

pub use infer::{windows, InferenceSession, InferenceSessionF32, Session, WindowSpec};
pub use layers::{
    sinusoidal_pe, sinusoidal_pe_at, FeedForward, LayerNorm, Linear, MultiHeadAttention,
};
pub use moe::{MoeLayer, MoeOutput};
pub use optim::Adam;
pub use params::{GradStore, ParamId, ParamStore};
pub use tape::{Graph, NodeId, Tape, Tier};
pub use transformer::{BlockKind, EncoderLayer, ReconstructionTransformer, TransformerConfig};
