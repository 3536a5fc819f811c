//! The convolution's backward as one kernel: dX, dW and db of
//! [`Tensor::conv2d`] from slices of the output gradient, each computed
//! only when asked for.
//!
//! Each gradient has the bits of the composition autograd used to build
//! from tensor ops (it survives as the oracle of `aero_nn`'s
//! `backward_oracle` test, DESIGN.md §21):
//!
//! - dX: for each batch row, `wᵀ · grad_b`, each tap's `Σ` over output
//!   channels rounded into the column buffer, which `col2im` folds into
//!   the image in `(cin, ky, kx)` order from 0.0.
//! - dW: for each batch row, `grad_b · cols_bᵀ` (its `Σ` over output
//!   positions rounded), and the rows added in batch order from 0.0.
//! - db: a sum over `w`, then `h`, then `n`, each from 0.0, which is
//!   `sum_axis(3).sum_axis(2).sum_axis(0)`.
//!
//! The products run on [`crate::par_kernels`]'s batched matmul, which
//! reads `wᵀ` and `cols_bᵀ` in place.

use crate::par_kernels::{self, record_kernel, ConvGeom, Operand};
use crate::shape::conv2d_shape;
use crate::tensor::Tensor;

/// Which gradients [`Tensor::conv2d_backward`] computes. Autograd asks
/// for those of the parents that require one; the rest would be dropped
/// unread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGrads {
    /// dX, the input's gradient; it reads the weight.
    pub input: bool,
    /// dW, the weight's gradient; it reads the input.
    pub weight: bool,
    /// db, the bias's gradient; it reads only the output gradient.
    pub bias: bool,
}

impl Tensor {
    /// The gradients of `self.conv2d(weight, bias, stride, pad)` for the
    /// output gradient `grad`: `(dx, dw, db)`, each `Some` exactly when
    /// `want` asks for it. dX is `[n, cin, h, w]`, dW `[cout, cin, kh,
    /// kw]` and db `[cout]`. The bits are those of the composition in the
    /// module docs.
    ///
    /// # Panics
    ///
    /// Panics on the shapes [`Tensor::conv2d`] refuses, or if `grad` is
    /// not the shape of that convolution's output.
    pub fn conv2d_backward(
        &self,
        weight: &Tensor,
        grad: &Tensor,
        stride: usize,
        pad: usize,
        want: ConvGrads,
    ) -> (Option<Tensor>, Option<Tensor>, Option<Tensor>) {
        let out_shape = conv2d_shape(self.shape(), weight.shape(), stride, pad)
            .unwrap_or_else(|e| panic!("conv2d_backward: {e}"));
        assert_eq!(grad.shape(), out_shape, "conv2d_backward: gradient of another output");
        record_kernel!(
            "tensor.conv2d_backward.calls",
            "tensor.conv2d_backward.elements",
            grad.numel()
        );
        let [n, cin, h, w] = self.shape().try_into().expect("conv2d input is rank 4");
        let (cout, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
        let (oh, ow) = (out_shape[2], out_shape[3]);
        let g = ConvGeom { n, c: cin, h, w, kh, kw, stride, pad, oh, ow };
        let (taps, plane) = (cin * kh * kw, oh * ow);
        let gs = grad.as_slice();
        let dx = want.input.then(|| {
            // Column block b is wᵀ · grad_b, `[taps, plane]`, with the
            // weight shared by every batch row.
            let cols = par_kernels::batched_matmul(
                Operand::transposed(weight.as_slice(), 0),
                Operand::rows(gs, cout * plane),
                n,
                taps,
                cout,
                plane,
            );
            Tensor::from_vec(par_kernels::col2im(&cols, g), self.shape())
        });
        let dw = want.weight.then(|| {
            let cols = par_kernels::im2col(self.as_slice(), g);
            let rows = par_kernels::batched_matmul(
                Operand::rows(gs, cout * plane),
                Operand::transposed(&cols, taps * plane),
                n,
                cout,
                plane,
                taps,
            );
            let mut dw = vec![0.0f32; cout * taps];
            for row in rows.chunks_exact(dw.len().max(1)) {
                for (d, &r) in dw.iter_mut().zip(row) {
                    *d += r;
                }
            }
            Tensor::from_vec(dw, weight.shape())
        });
        let db = want.bias.then(|| {
            let mut db = vec![0.0f32; cout];
            for (bc, plane_grad) in gs.chunks_exact(plane).enumerate() {
                let sum = plane_grad
                    .chunks_exact(ow)
                    .fold(0.0, |s, row| s + row.iter().fold(0.0, |r, &v| r + v));
                db[bc % cout] += sum;
            }
            Tensor::from_vec(db, &[cout])
        });
        (dx, dw, db)
    }
}
