//! `ie-nn` — a small, from-scratch convolutional neural-network library.
//!
//! This crate provides everything the reproduction needs from a deep-learning
//! framework:
//!
//! * concrete layers ([`Conv2d`], [`Dense`], [`Relu`], [`MaxPool2d`],
//!   [`Flatten`]) with forward *and* backward passes,
//! * a [`MultiExitNetwork`] that mirrors the paper's early-exit LeNet backbone
//!   and supports **incremental inference** (run to exit *i*, later continue to
//!   exit *i + 1* without recomputing the shared trunk),
//! * a [`BatchPlan`] for statically planned, **allocation-free** inference:
//!   pre-sized buffers, fused bias+ReLU GEMM epilogues, and N inputs per pass
//!   through one widened GEMM per layer (a single input is a batch of one).
//!   Its planned `*_batch_with` entry points are bit-identical per sample to
//!   the allocating [`MultiExitNetwork::forward_to_exit`]; a sharded
//!   multi-threaded dataset evaluator ([`train::evaluate_batched`]) builds on
//!   it,
//! * a [`BackwardPlan`] for statically planned, **allocation-free** training
//!   steps — bit-identical loss and gradients to the allocating
//!   [`MultiExitNetwork::backward`], with an optional fake-quant-in-the-loop
//!   forward half — and a sharded batched trainer
//!   ([`train::BatchBackwardPlan`]) whose results are byte-identical across
//!   worker counts,
//! * softmax / cross-entropy losses and the **entropy-based confidence**
//!   measure used to decide whether an exit's prediction is trustworthy,
//! * an SGD optimiser and a tiny training loop,
//! * an architecture description ([`spec`]) with exact FLOPs and parameter
//!   accounting, including the paper's 11-layer multi-exit LeNet,
//! * a procedurally generated synthetic image dataset so the full
//!   train→compress→deploy pipeline can run end-to-end without external data.
//!
//! # Example
//!
//! ```
//! use ie_nn::spec::lenet_multi_exit;
//!
//! let arch = lenet_multi_exit();
//! assert_eq!(arch.num_exits(), 3);
//! // The cumulative FLOPs of the three exits are strictly increasing.
//! let flops = arch.exit_flops();
//! assert!(flops[0] < flops[1] && flops[1] < flops[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod backward;
mod batch;
mod conv;
pub mod dataset;
mod dense;
mod error;
mod layer;
pub mod loss;
mod mlp;
mod network;
mod optim;
mod pool;
pub mod quant;
pub mod spec;
pub mod train;

pub use activation::Relu;
pub use backward::{BackwardPlan, GradStore};
pub use batch::{BatchOutput, BatchPlan, PlannedOutput};
pub use conv::Conv2d;
pub use dense::Dense;
pub use error::NnError;
pub use layer::{Flatten, Layer};
pub use mlp::{Mlp, OutputActivation};
pub use network::{ExitOutput, ForwardState, MultiExitNetwork};
pub use optim::Sgd;
pub use pool::MaxPool2d;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
