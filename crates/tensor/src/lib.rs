//! Minimal ND `f32` tensor library backing the AeroDiffusion reproduction.
//!
//! This crate provides the dense numerical substrate every other crate in
//! the workspace builds on: an owned, row-major [`Tensor`] with NumPy-style
//! broadcasting, the convolution/matmul/pooling kernels needed by the
//! neural-network crate, and the small dense linear-algebra routines
//! (symmetric eigendecomposition, matrix square root) needed by the FID
//! metric.
//!
//! The design goal is *correct and predictable* first: everything is
//! plain safe Rust over `Vec<f32>`, seeded and deterministic. The dense
//! kernels additionally fan out over scoped std threads through
//! [`par_kernels`], sharded so the parallel result is bit-identical to
//! the serial reference at any thread count (policy in [`parallel`]).
//!
//! # Example
//!
//! ```
//! use aero_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! ```

pub mod backend;
mod backward;
mod error;
mod linalg;
mod norm;
mod ops;
pub mod par_kernels;
pub mod parallel;
pub mod quant;
mod shape;
mod tensor;

pub use backend::BackendKind;
pub use backward::ConvGrads;
pub use error::TensorError;
pub use linalg::{cholesky, covariance, matrix_sqrt_psd, symmetric_eigen, trace};
pub use norm::GroupNormStats;
pub use parallel::ParallelConfig;
pub use quant::{Q8Tensor, Q8_BLOCK};
pub use shape::{
    bmm_shape, broadcast_shapes, concat_shape, conv2d_shape, conv_out_dim, conv_transpose2d_shape,
    matmul_shape, narrow_shape, permute_shape, pool2d_shape, reshape_check, strides_for,
    upsample2x_shape,
};
pub use tensor::Tensor;

/// Convenience result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
