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
//! [`layers::MultiHeadAttention`] — plus weight (de)serialization and a
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

mod autograd;
pub mod gradcheck;
pub mod init;
pub mod integrity;
pub mod layers;
pub mod optim;
pub mod serialize;

pub use aero_tensor::sym::{Dim, ShapeSpec};
pub use autograd::{no_grad, Var};

/// Trait for anything that owns trainable parameters.
///
/// Implementors return their parameters in a stable order so that
/// optimizers and the weight serializer agree on the layout.
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

    /// A short human-readable description of the module's geometry, used
    /// by `aero-analysis` diagnostics (e.g. `"Linear(64 -> 32)"`).
    fn describe(&self) -> String {
        "<module>".to_string()
    }

    /// Symbolic output shape of the module's primary forward pass for a
    /// symbolic input shape (the static shape-inference hook consumed by
    /// `aero-analysis`).
    ///
    /// The default declines inference; layers with well-defined unary
    /// forward geometry override it. Modules with multi-input forwards
    /// (e.g. cross-attention) document which input the spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`](aero_tensor::TensorError) when the input
    /// spec is inconsistent with the module's geometry, or when the module
    /// does not support static inference.
    fn infer_shape(&self, input: &ShapeSpec) -> aero_tensor::Result<ShapeSpec> {
        Err(aero_tensor::TensorError::DimensionMismatch {
            detail: format!(
                "{} does not support static shape inference (input {input})",
                self.describe()
            ),
        })
    }
}
