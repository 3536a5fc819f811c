//! Reverse-mode automatic differentiation and neural-network building
//! blocks for the AeroDiffusion reproduction.
//!
//! The centrepiece is [`Var`], a shared handle to a node in a dynamically
//! built computation graph. Every differentiable operation records a
//! backward closure; calling [`Var::backward`] on a scalar loss walks the
//! graph in reverse topological order and accumulates gradients into the
//! leaf parameters, which [`optim::Adam`] then updates.
//!
//! On top of the autograd core the crate provides the layers the paper's
//! models are assembled from — [`layers::Linear`], [`layers::Conv2d`],
//! [`layers::ConvTranspose2d`], [`layers::Embedding`],
//! [`layers::LayerNorm`], [`layers::GroupNorm`], and
//! [`layers::MultiHeadAttention`] — plus the single-file container every
//! saved model and checkpoint is written in ([`artifact`]) and a
//! finite-difference gradient checker used throughout the test suite.
//!
//! # Example
//!
//! ```
//! use aero_nn::Var;
//! use aero_tensor::Tensor;
//!
//! let x = Var::parameter(Tensor::from_vec(vec![2.0], &[1]));
//! let loss = x.mul(&x).sum(); // d(x²)/dx = 2x = 4
//! loss.backward();
//! assert_eq!(x.grad().expect("gradient").as_slice(), &[4.0]);
//! ```

pub mod artifact;
mod autograd;
pub mod gradcheck;
pub mod init;
pub mod integrity;
pub mod layers;
pub mod optim;

pub use autograd::{no_grad, Var};

/// Trait for anything that owns trainable parameters.
///
/// Implementors return their parameters in a stable order so that
/// optimizers and saved files agree on the layout.
pub trait Module {
    /// All trainable parameters, in a stable deterministic order.
    fn params(&self) -> Vec<Var>;

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.value().numel()).sum()
    }

    /// Zeroes the gradient of every parameter.
    fn zero_grad(&self) {
        for p in self.params() {
            p.zero_grad();
        }
    }
}
