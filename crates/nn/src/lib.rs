//! `ns-nn` — a from-scratch deep-learning substrate for NodeSentry.
//!
//! The paper trains its shared per-cluster models in PyTorch; this crate
//! replaces that stack with a small, fully-tested reverse-mode autodiff
//! engine and the model zoo the reproduction needs:
//!
//! * [`tape`] — define-by-run autodiff [`tape::Graph`] (its buffers, a
//!   [`tape::Tape`], recycled across examples) over 2-D matrices with
//!   the op set required by Transformers, MoE routing, LSTMs and VAEs
//!   (matmul, softmax, layer norm, gather/scatter rows, broadcasts,
//!   reductions). Every op's backward is verified against central finite
//!   differences ([`gradcheck`]).
//! * [`params`] — shared [`params::ParamStore`] + [`params::GradStore`];
//!   batches train data-parallel by building one graph per example on
//!   rayon workers and merging gradient stores.
//! * [`optim`] — Adam and SGD(+momentum).
//! * [`layers`] — Linear, LayerNorm, FeedForward, multi-head
//!   self-attention, sinusoidal positional encoding.
//! * [`moe`] — the sparse top-k Mixture-of-Experts layer (§3.4, Eq. 3–4)
//!   with Switch-style load-balance auxiliary loss.
//! * [`transformer`] — the reconstruction Transformer whose dense FFN is
//!   replaced by the MoE layer (Fig. 3), plus the dense variant used by
//!   ablation C5.
//! * [`lstm`] — LSTM cell and sequence autoencoder (RUAD baseline).
//! * [`vae`] — variational autoencoder (Prodigy baseline).
//! * [`infer`] — tape-free inference fast path: one [`infer::Session`],
//!   generic over the scoring tier's scalar, reuses preallocated scratch
//!   and multiplies the stored weights in place (no prepacked transposes —
//!   measured slower) to run the transformer forward with zero steady-state
//!   heap allocations. [`infer::InferenceSession`] (`f64`) is bit-identical
//!   to the taped forward; [`infer::InferenceSessionF32`] is the same code
//!   at `f32` over weights baked once per [`params::ParamStore::version`].

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

pub use infer::{
    InferenceSession, InferenceSessionF32, Session, SessionPool, SessionPoolF32, Tier, WindowSpec,
};
pub use layers::{
    sinusoidal_pe, sinusoidal_pe_at, FeedForward, LayerNorm, Linear, MultiHeadAttention,
};
pub use moe::{MoeLayer, MoeOutput};
pub use optim::{Adam, Sgd};
pub use params::{GradStore, ParamId, ParamStore};
pub use tape::{Graph, NodeId, Tape};
pub use transformer::{BlockKind, EncoderLayer, ReconstructionTransformer, TransformerConfig};
