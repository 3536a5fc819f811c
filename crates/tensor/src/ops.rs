//! Dense neural-network kernels: matmul, convolution, pooling, softmax.
//!
//! Convolutions use the im2col strategy: patches are gathered into a
//! matrix and the convolution reduces to one matmul, which keeps the inner
//! loop cache-friendly without unsafe code.
//!
//! Every kernel executes through the deterministic sharded layer in
//! [`crate::par_kernels`], fanning out over the thread count resolved by
//! [`crate::parallel::active_threads`]. Sharding assigns each output
//! region to exactly one thread running the identical serial inner loop,
//! so results are bit-identical at every thread count; the `Reference`
//! backend at one thread is the oracle the equivalence suite compares
//! against (see [`crate::backend`]).

use crate::par_kernels::{self, ConvGeom};
use crate::shape::{bmm_shape, conv2d_shape, conv_transpose2d_shape, matmul_shape, pool2d_shape};
use crate::tensor::Tensor;
use crate::TensorError;

impl Tensor {
    /// Matrix product of two rank-2 tensors, sharded over output rows
    /// (bit-identical to the `Reference` backend at any thread count).
    ///
    /// # Panics
    ///
    /// Panics unless `self` is `[m, k]` and `other` is `[k, n]` (see
    /// [`Tensor::try_matmul`] for the fallible variant).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.try_matmul(other).unwrap_or_else(|e| panic!("matmul: {e}"))
    }

    /// Fallible variant of [`Tensor::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] unless `self` is
    /// `[m, k]` and `other` is `[k, n]`.
    pub fn try_matmul(&self, other: &Tensor) -> crate::Result<Tensor> {
        let out_shape = matmul_shape(self.shape(), other.shape())?;
        let (m, n) = (out_shape[0], out_shape[1]);
        let k = self.shape()[1];
        let out = par_kernels::matmul(self.as_slice(), other.as_slice(), m, k, n);
        Ok(Tensor::from_vec(out, &[m, n]))
    }

    /// Batched matrix product of two rank-3 tensors `[b, m, k] x [b, k, n]`,
    /// sharded over all `b * m` output rows.
    ///
    /// # Panics
    ///
    /// Panics on rank or batch/inner dimension mismatch (see
    /// [`Tensor::try_bmm`] for the fallible variant).
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        self.try_bmm(other).unwrap_or_else(|e| panic!("bmm: {e}"))
    }

    /// Fallible variant of [`Tensor::bmm`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] on rank or batch/inner
    /// dimension mismatch.
    pub fn try_bmm(&self, other: &Tensor) -> crate::Result<Tensor> {
        let out_shape = bmm_shape(self.shape(), other.shape())?;
        let (b, m, n) = (out_shape[0], out_shape[1], out_shape[2]);
        let k = self.shape()[2];
        let out = par_kernels::bmm(self.as_slice(), other.as_slice(), b, m, k, n);
        Ok(Tensor::from_vec(out, &[b, m, n]))
    }

    /// Gathers sliding `kh`×`kw` patches of an `[n, c, h, w]` tensor into a
    /// `[n, c*kh*kw, oh*ow]` matrix (the "im2col" layout), sharded over
    /// `(batch, channel)` blocks.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-4 and the padded input fits at
    /// least one window (see [`Tensor::try_im2col`] for the fallible
    /// variant).
    pub fn im2col(&self, kh: usize, kw: usize, stride: usize, pad: usize) -> Tensor {
        self.try_im2col(kh, kw, stride, pad).unwrap_or_else(|e| panic!("im2col: {e}"))
    }

    /// Fallible variant of [`Tensor::im2col`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] unless the tensor is
    /// rank-4 and the padded input fits at least one window.
    pub fn try_im2col(
        &self,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> crate::Result<Tensor> {
        if self.rank() != 4 {
            return Err(TensorError::DimensionMismatch {
                detail: format!("im2col requires [n, c, h, w], got {:?}", self.shape()),
            });
        }
        let (n, c, h, w) = (self.shape()[0], self.shape()[1], self.shape()[2], self.shape()[3]);
        let oh = crate::shape::conv_out_dim(h, kh, stride, pad)?;
        let ow = crate::shape::conv_out_dim(w, kw, stride, pad)?;
        let g = ConvGeom { n, c, h, w, kh, kw, stride, pad, oh, ow };
        let out = par_kernels::im2col(self.as_slice(), g);
        Ok(Tensor::from_vec(out, &[n, c * kh * kw, oh * ow]))
    }

    /// Scatter-adds an im2col matrix back to image layout (adjoint of
    /// [`Tensor::im2col`]), sharded over `(batch, channel)` output planes
    /// with the serial per-element accumulation order.
    ///
    /// # Panics
    ///
    /// Panics if the column layout is inconsistent with the target shape
    /// (see [`Tensor::try_col2im`] for the fallible variant).
    pub fn col2im(
        &self,
        out_shape: &[usize],
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        self.try_col2im(out_shape, kh, kw, stride, pad).unwrap_or_else(|e| panic!("col2im: {e}"))
    }

    /// Fallible variant of [`Tensor::col2im`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if the column layout is
    /// inconsistent with the target shape.
    pub fn try_col2im(
        &self,
        out_shape: &[usize],
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> crate::Result<Tensor> {
        let dim_err = |detail: String| TensorError::DimensionMismatch { detail };
        if self.rank() != 3 {
            return Err(dim_err(format!(
                "col2im requires [n, c*kh*kw, oh*ow], got {:?}",
                self.shape()
            )));
        }
        if out_shape.len() != 4 {
            return Err(dim_err(format!("col2im target must be [n, c, h, w], got {out_shape:?}")));
        }
        let (n, c, h, w) = (out_shape[0], out_shape[1], out_shape[2], out_shape[3]);
        let oh = crate::shape::conv_out_dim(h, kh, stride, pad)?;
        let ow = crate::shape::conv_out_dim(w, kw, stride, pad)?;
        if self.shape()[0] != n {
            return Err(dim_err(format!(
                "col2im batch mismatch: columns have {} but target wants {n}",
                self.shape()[0]
            )));
        }
        if self.shape()[1] != c * kh * kw {
            return Err(dim_err(format!(
                "col2im channel-patch mismatch: columns have {} rows but c*kh*kw is {}",
                self.shape()[1],
                c * kh * kw
            )));
        }
        if self.shape()[2] != oh * ow {
            return Err(dim_err(format!(
                "col2im spatial mismatch: columns have {} positions but oh*ow is {}",
                self.shape()[2],
                oh * ow
            )));
        }
        let g = ConvGeom { n, c, h, w, kh, kw, stride, pad, oh, ow };
        let out = par_kernels::col2im(self.as_slice(), g);
        Ok(Tensor::from_vec(out, out_shape))
    }

    /// 2-D convolution of `[n, cin, h, w]` with weights `[cout, cin, kh, kw]`,
    /// executed by the ambient compute backend ([`crate::backend`]): an
    /// im2col gather plus a sharded batched matmul on the reference
    /// path, a direct tiled kernel for stride-1 1×1/3×3 on the blocked
    /// path — bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatches, including a bias whose
    /// length differs from `cout` (see [`Tensor::try_conv2d`] for the
    /// fallible variant).
    pub fn conv2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        self.try_conv2d(weight, bias, stride, pad).unwrap_or_else(|e| panic!("conv2d: {e}"))
    }

    /// Fallible variant of [`Tensor::conv2d`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] on rank/channel
    /// mismatches — including a `bias` whose element count differs from
    /// `out_channels`, which the panicking path used to let through in
    /// release builds (only a debug assert guarded it).
    pub fn try_conv2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> crate::Result<Tensor> {
        let out_shape = conv2d_shape(self.shape(), weight.shape(), stride, pad)?;
        let (n, cin) = (self.shape()[0], self.shape()[1]);
        let (cout, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
        let (oh, ow) = (out_shape[2], out_shape[3]);
        if let Some(bias) = bias {
            if bias.numel() != cout {
                return Err(TensorError::DimensionMismatch {
                    detail: format!(
                        "conv2d bias has {} elements but out_channels is {cout}",
                        bias.numel()
                    ),
                });
            }
        }
        let g = ConvGeom {
            n,
            c: cin,
            h: self.shape()[2],
            w: self.shape()[3],
            kh,
            kw,
            stride,
            pad,
            oh,
            ow,
        };
        let out_data = par_kernels::conv2d(self.as_slice(), weight.as_slice(), g, cout);
        let mut out = Tensor::from_vec(out_data, &out_shape);
        if let Some(bias) = bias {
            par_kernels::add_channel_bias(out.as_mut_slice(), bias.as_slice(), oh * ow);
        }
        Ok(out)
    }

    /// Transposed 2-D convolution (fractionally strided) of `[n, cin, h, w]`
    /// with weights `[cin, cout, kh, kw]`.
    ///
    /// Output spatial size is `(h - 1) * stride - 2*pad + kh`.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatches (see
    /// [`Tensor::try_conv_transpose2d`] for the fallible variant).
    pub fn conv_transpose2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        self.try_conv_transpose2d(weight, bias, stride, pad)
            .unwrap_or_else(|e| panic!("conv_transpose2d: {e}"))
    }

    /// Fallible variant of [`Tensor::conv_transpose2d`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] on rank/channel
    /// mismatches, including a `bias` whose element count differs from
    /// the output channel count.
    pub fn try_conv_transpose2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> crate::Result<Tensor> {
        let out_shape = conv_transpose2d_shape(self.shape(), weight.shape(), stride, pad)?;
        let (n, cin, h, w) = (self.shape()[0], self.shape()[1], self.shape()[2], self.shape()[3]);
        let (cout, kh, kw) = (weight.shape()[1], weight.shape()[2], weight.shape()[3]);
        let (oh, ow) = (out_shape[2], out_shape[3]);
        if let Some(bias) = bias {
            if bias.numel() != cout {
                return Err(TensorError::DimensionMismatch {
                    detail: format!(
                        "conv_transpose2d bias has {} elements but out_channels is {cout}",
                        bias.numel()
                    ),
                });
            }
        }
        // cols[b] = W^T @ x[b]  with W viewed as [cin, cout*kh*kw]
        let wmat = weight.reshape(&[cin, cout * kh * kw]).transpose(); // [cout*kh*kw, cin]
        let cols = par_kernels::batched_matmul_shared_lhs(
            wmat.as_slice(),
            self.as_slice(),
            n,
            cout * kh * kw,
            cin,
            h * w,
        );
        // The col2im grid dims are the *input* spatial dims.
        let g = ConvGeom { n, c: cout, h: oh, w: ow, kh, kw, stride, pad, oh: h, ow: w };
        let out_data = par_kernels::col2im(&cols, g);
        let mut out = Tensor::from_vec(out_data, &out_shape);
        if let Some(bias) = bias {
            par_kernels::add_channel_bias(out.as_mut_slice(), bias.as_slice(), oh * ow);
        }
        Ok(out)
    }

    /// 2-D average pooling with square window `k` and stride `k`,
    /// sharded over `(batch, channel)` planes.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-4 and `h`, `w` divide by `k`
    /// (see [`Tensor::try_avg_pool2d`] for the fallible variant).
    pub fn avg_pool2d(&self, k: usize) -> Tensor {
        self.try_avg_pool2d(k).unwrap_or_else(|e| panic!("avg_pool2d: {e}"))
    }

    /// Fallible variant of [`Tensor::avg_pool2d`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] unless the tensor is
    /// rank-4 and `h`, `w` divide by `k`.
    pub fn try_avg_pool2d(&self, k: usize) -> crate::Result<Tensor> {
        let out_shape = pool2d_shape(self.shape(), k)?;
        let (h, w) = (self.shape()[2], self.shape()[3]);
        let (oh, ow) = (out_shape[2], out_shape[3]);
        let src = self.as_slice();
        let mut out = vec![0.0f32; out_shape.iter().product()];
        let inv = 1.0 / (k * k) as f32;
        par_kernels::run_units(&mut out, oh * ow, k * k, |bc, out_plane| {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ky in 0..k {
                        for kx in 0..k {
                            acc += src[(bc * h + oy * k + ky) * w + ox * k + kx];
                        }
                    }
                    out_plane[oy * ow + ox] = acc * inv;
                }
            }
        });
        Ok(Tensor::from_vec(out, &out_shape))
    }

    /// 2-D max pooling with square window `k` and stride `k`, sharded
    /// over `(batch, channel)` planes.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-4 and `h`, `w` divide by `k`
    /// (see [`Tensor::try_max_pool2d`] for the fallible variant).
    pub fn max_pool2d(&self, k: usize) -> Tensor {
        self.try_max_pool2d(k).unwrap_or_else(|e| panic!("max_pool2d: {e}"))
    }

    /// Fallible variant of [`Tensor::max_pool2d`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] unless the tensor is
    /// rank-4 and `h`, `w` divide by `k`.
    pub fn try_max_pool2d(&self, k: usize) -> crate::Result<Tensor> {
        let out_shape = pool2d_shape(self.shape(), k)?;
        let (h, w) = (self.shape()[2], self.shape()[3]);
        let (oh, ow) = (out_shape[2], out_shape[3]);
        let src = self.as_slice();
        let mut out = vec![f32::NEG_INFINITY; out_shape.iter().product()];
        par_kernels::run_units(&mut out, oh * ow, k * k, |bc, out_plane| {
            for oy in 0..oh {
                for ox in 0..ow {
                    let dst = oy * ow + ox;
                    for ky in 0..k {
                        for kx in 0..k {
                            let v = src[(bc * h + oy * k + ky) * w + ox * k + kx];
                            if v > out_plane[dst] {
                                out_plane[dst] = v;
                            }
                        }
                    }
                }
            }
        });
        Ok(Tensor::from_vec(out, &out_shape))
    }

    /// Nearest-neighbour 2× upsampling of an `[n, c, h, w]` tensor,
    /// sharded over `(batch, channel)` planes.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank-4 (see
    /// [`Tensor::try_upsample_nearest2x`] for the fallible variant).
    pub fn upsample_nearest2x(&self) -> Tensor {
        self.try_upsample_nearest2x().unwrap_or_else(|e| panic!("upsample_nearest2x: {e}"))
    }

    /// Fallible variant of [`Tensor::upsample_nearest2x`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] unless the tensor is
    /// rank-4.
    pub fn try_upsample_nearest2x(&self) -> crate::Result<Tensor> {
        let out_shape = crate::shape::upsample2x_shape(self.shape())?;
        let (n, c, h, w) = (self.shape()[0], self.shape()[1], self.shape()[2], self.shape()[3]);
        let src = self.as_slice();
        let mut out = vec![0.0f32; n * c * 4 * h * w];
        let (oh, ow) = (out_shape[2], out_shape[3]);
        par_kernels::run_units(&mut out, oh * ow, 1, |bc, out_plane| {
            for y in 0..oh {
                for x in 0..ow {
                    out_plane[y * ow + x] = src[(bc * h + y / 2) * w + x / 2];
                }
            }
        });
        Ok(Tensor::from_vec(out, &out_shape))
    }

    /// Numerically stable softmax along the last axis, sharded over
    /// rows.
    ///
    /// # Panics
    ///
    /// Panics on a rank-0 tensor (see [`Tensor::try_softmax_last_axis`]
    /// for the fallible variant).
    pub fn softmax_last_axis(&self) -> Tensor {
        self.try_softmax_last_axis().unwrap_or_else(|e| panic!("softmax_last_axis: {e}"))
    }

    /// Fallible variant of [`Tensor::softmax_last_axis`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] for a rank-0 tensor.
    pub fn try_softmax_last_axis(&self) -> crate::Result<Tensor> {
        let Some(&last) = self.shape().last() else {
            return Err(TensorError::DimensionMismatch {
                detail: "softmax requires rank >= 1".to_string(),
            });
        };
        let mut out = self.clone();
        par_kernels::softmax(out.as_mut_slice(), last);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{with_backend, BackendKind};
    use crate::parallel::with_threads;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `f` under the one oracle: the `Reference` backend at one thread.
    fn oracle<R>(f: impl FnOnce() -> R) -> R {
        with_threads(1, || with_backend(BackendKind::Reference, f))
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_agrees_bitwise_with_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Tensor::randn(&[7, 5], &mut rng);
        let b = Tensor::randn(&[5, 9], &mut rng);
        let par = a.matmul(&b);
        let ser = oracle(|| a.matmul(&b));
        assert_eq!(par.shape(), ser.shape());
        for (x, y) in par.as_slice().iter().zip(ser.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn bmm_batches_independent() {
        let a = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 2, 2]);
        let b = Tensor::stack(&[&Tensor::eye(2), &Tensor::eye(2).mul_scalar(2.0)]);
        let c = a.bmm(&b);
        assert_eq!(c.narrow(0, 0, 1).reshape(&[2, 2]), a.narrow(0, 0, 1).reshape(&[2, 2]));
        assert_eq!(
            c.narrow(0, 1, 1).reshape(&[2, 2]).as_slice(),
            a.narrow(0, 1, 1).reshape(&[2, 2]).mul_scalar(2.0).as_slice()
        );
    }

    #[test]
    fn conv2d_identity_kernel() {
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let w = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]);
        let y = x.conv2d(&w, None, 1, 0);
        assert_eq!(y, x);
    }

    #[test]
    fn conv2d_box_filter_known() {
        // 3x3 all-ones kernel over a 3x3 all-ones image with pad 1:
        // the centre sees 9 ones, an edge sees 6, a corner sees 4.
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = x.conv2d(&w, None, 1, 1);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.get(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.get(&[0, 0, 0, 1]), 6.0);
        assert_eq!(y.get(&[0, 0, 0, 0]), 4.0);
    }

    #[test]
    fn conv2d_stride_and_bias() {
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[2, 1, 2, 2]);
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let y = x.conv2d(&w, Some(&b), 2, 0);
        assert_eq!(y.shape(), &[1, 2, 2, 2]);
        assert_eq!(y.get(&[0, 0, 0, 0]), 4.5);
        assert_eq!(y.get(&[0, 1, 0, 0]), 3.5);
    }

    #[test]
    fn conv2d_rejects_bias_length_mismatch_typed() {
        // Regression: the release build used to accept a wrong-length
        // bias silently (only a debug assert guarded it).
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[2, 1, 2, 2]);
        let bad_bias = Tensor::from_vec(vec![0.5, -0.5, 1.0], &[3]);
        match x.try_conv2d(&w, Some(&bad_bias), 2, 0) {
            Err(TensorError::DimensionMismatch { detail }) => {
                assert!(detail.contains('3') && detail.contains('2'), "detail: {detail}");
            }
            other => panic!("expected a typed bias mismatch, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "conv2d")]
    fn conv2d_panicking_path_rejects_bias_mismatch() {
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[2, 1, 2, 2]);
        let bad_bias = Tensor::from_vec(vec![0.5], &[1]);
        let _ = x.conv2d(&w, Some(&bad_bias), 2, 0);
    }

    #[test]
    fn conv2d_agrees_bitwise_with_reference() {
        let mut rng = StdRng::seed_from_u64(12);
        let x = Tensor::randn(&[2, 3, 6, 6], &mut rng);
        let w = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let b = Tensor::randn(&[4], &mut rng);
        let par = x.conv2d(&w, Some(&b), 1, 1);
        let ser = oracle(|| x.conv2d(&w, Some(&b), 1, 1));
        assert_eq!(par.shape(), ser.shape());
        for (p, s) in par.as_slice().iter().zip(ser.as_slice()) {
            assert_eq!(p.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn conv_transpose_inverts_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);
        let w = Tensor::randn(&[3, 5, 2, 2], &mut rng);
        let y = x.conv_transpose2d(&w, None, 2, 0);
        assert_eq!(y.shape(), &[2, 5, 8, 8]);
    }

    #[test]
    fn conv_transpose_adjoint_of_conv() {
        // conv_transpose2d is defined as the adjoint of conv2d, so
        // <conv(x; W), y> == <x, conv_transpose(y; W)> with the same W
        // (conv reads it as [cout, cin, kh, kw]; the adjoint reads the
        // identical buffer as [cin_t = cout, cout_t = cin, kh, kw]).
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(&[1, 2, 6, 6], &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], &mut rng);
        let y = Tensor::randn(&[1, 3, 6, 6], &mut rng);
        let conv_x = x.conv2d(&w, None, 1, 1);
        let lhs: f32 = conv_x.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let back = y.conv_transpose2d(&w, None, 1, 1);
        let rhs: f32 = x.as_slice().iter().zip(back.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn pooling_known_values() {
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let a = x.avg_pool2d(2);
        assert_eq!(a.as_slice(), &[2.5, 4.5, 10.5, 12.5]);
        let m = x.max_pool2d(2);
        assert_eq!(m.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn upsample_doubles() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = x.upsample_nearest2x();
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert_eq!(y.get(&[0, 0, 0, 1]), 1.0);
        assert_eq!(y.get(&[0, 0, 3, 3]), 4.0);
    }

    #[test]
    fn softmax_rows_normalize() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let s = x.softmax_last_axis();
        for row in s.as_slice().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!((s.get(&[1, 0]) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]);
        let s = x.softmax_last_axis();
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn try_variants_return_typed_shape_errors() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4, 5]);
        assert!(matches!(a.try_matmul(&b), Err(TensorError::DimensionMismatch { .. })));
        let x3 = Tensor::ones(&[2, 2, 2]);
        assert!(x3.try_bmm(&Tensor::ones(&[3, 2, 2])).is_err());
        assert!(x3.try_im2col(2, 2, 1, 0).is_err());
        assert!(x3.try_col2im(&[1, 1, 3, 3], 2, 2, 1, 0).is_err());
        let x4 = Tensor::ones(&[1, 1, 4, 4]);
        assert!(x4.try_avg_pool2d(3).is_err());
        assert!(x4.try_max_pool2d(0).is_err());
        assert!(x3.try_upsample_nearest2x().is_err());
        assert!(Tensor::from_vec(vec![1.0], &[]).try_softmax_last_axis().is_err());
        let bad_bias = Tensor::ones(&[3]);
        let w = Tensor::ones(&[1, 1, 2, 2]);
        assert!(x4.try_conv_transpose2d(&w, Some(&bad_bias), 1, 0).is_err());
    }

    #[test]
    fn try_variants_agree_bitwise_with_panicking_forms() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = Tensor::randn(&[4, 3], &mut rng);
        let b = Tensor::randn(&[3, 5], &mut rng);
        assert_eq!(a.try_matmul(&b).unwrap(), a.matmul(&b));
        let x = Tensor::randn(&[2, 3, 4, 4], &mut rng);
        assert_eq!(x.try_avg_pool2d(2).unwrap(), x.avg_pool2d(2));
        assert_eq!(x.try_max_pool2d(2).unwrap(), x.max_pool2d(2));
        assert_eq!(x.try_upsample_nearest2x().unwrap(), x.upsample_nearest2x());
        assert_eq!(x.try_softmax_last_axis().unwrap(), x.softmax_last_axis());
        assert_eq!(x.try_im2col(2, 2, 1, 0).unwrap(), x.im2col(2, 2, 1, 0));
    }

    #[test]
    fn im2col_col2im_roundtrip_counts() {
        // col2im(im2col(x)) multiplies each pixel by how many windows cover it.
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let cols = x.im2col(2, 2, 1, 0);
        let back = cols.col2im(&[1, 1, 3, 3], 2, 2, 1, 0);
        // centre pixel covered by 4 windows, corners by 1, edges by 2
        assert_eq!(back.get(&[0, 0, 1, 1]), 4.0);
        assert_eq!(back.get(&[0, 0, 0, 0]), 1.0);
        assert_eq!(back.get(&[0, 0, 0, 1]), 2.0);
    }
}
