//! Block quantization (q8) and the quantized matmul kernel.
//!
//! The serving-scale model artifact format (`aero-model`) stores large
//! weight tensors as **q8 blocks**: runs of [`Q8_BLOCK`] values along the
//! innermost dimension, each run carried as one `f32` scale plus
//! [`Q8_BLOCK`] signed bytes (`x ≈ scale * q`, `q ∈ [-127, 127]`). That
//! is 36 bytes per 32 weights — ~28% of the `f32` footprint — while the
//! worst-case per-element error is bounded by half a quantization step
//! (`block_max_abs / 254`).
//!
//! Blocks never cross a row boundary (a "row" is the innermost
//! dimension), so a `[m, k]` matrix quantizes to `m * ceil(k / 32)`
//! blocks and [`Q8Tensor::matmul`] can dequantize block-by-block inside
//! the same "ikj" accumulation order every other matmul-family kernel in
//! this crate uses. The parallel path shards output rows through
//! [`crate::par_kernels::run_units`] exactly like [`Tensor::matmul`], so
//! it is bit-identical to the `Reference` backend (the oracle) at any
//! thread count.
//!
//! Quantization itself is deterministic — scale selection and rounding
//! involve no ambient state — so the same `f32` tensor always produces
//! the same q8 bytes, which is what makes artifact export byte-stable.

use crate::par_kernels;
use crate::shape::matmul_shape;
use crate::tensor::Tensor;
use crate::TensorError;

/// Values per quantization block (one shared `f32` scale each).
pub const Q8_BLOCK: usize = 32;

/// A block-quantized tensor: `q8` values plus one `f32` scale per block.
///
/// Blocks run along the innermost dimension and never cross a row
/// boundary; the final block of a row is zero-padded. Scalars (rank 0)
/// quantize as a single one-element row.
#[derive(Debug, Clone, PartialEq)]
pub struct Q8Tensor {
    shape: Vec<usize>,
    /// One scale per block, row-major: row `r`'s blocks occupy
    /// `scales[r * blocks_per_row .. (r + 1) * blocks_per_row]`.
    scales: Vec<f32>,
    /// Quantized values, padded to whole blocks per row
    /// (`rows * blocks_per_row * Q8_BLOCK` entries).
    quants: Vec<i8>,
}

/// `ceil(row_len / Q8_BLOCK)`, with a one-block floor so rank-0 tensors
/// still occupy a block.
fn blocks_per_row(row_len: usize) -> usize {
    row_len.div_ceil(Q8_BLOCK).max(1)
}

impl Q8Tensor {
    /// Quantizes a tensor to q8 blocks. Deterministic: the same input
    /// always yields the same scales and bytes.
    #[must_use]
    pub fn quantize(t: &Tensor) -> Q8Tensor {
        let shape = t.shape().to_vec();
        let row_len = shape.last().copied().unwrap_or(1).max(1);
        let rows = t.numel() / row_len;
        let bpr = blocks_per_row(row_len);
        let mut scales = Vec::with_capacity(rows * bpr);
        let mut quants = vec![0i8; rows * bpr * Q8_BLOCK];
        let data = t.as_slice();
        for r in 0..rows {
            let row = &data[r * row_len..(r + 1) * row_len];
            for b in 0..bpr {
                let chunk = &row[b * Q8_BLOCK..row_len.min((b + 1) * Q8_BLOCK)];
                let max_abs = chunk.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 0.0 };
                scales.push(scale);
                if scale > 0.0 {
                    let out = &mut quants[(r * bpr + b) * Q8_BLOCK..];
                    for (o, &v) in out.iter_mut().zip(chunk) {
                        // round-half-away-from-zero, clamped to the q8 range
                        *o = (v / scale).round().clamp(-127.0, 127.0) as i8;
                    }
                }
            }
        }
        Q8Tensor { shape, scales, quants }
    }

    /// The logical (unquantized) shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Logical element count (`shape` product, not the padded q8 count).
    #[must_use]
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// The per-block scales, row-major.
    #[must_use]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The quantized values, padded to whole blocks per row.
    #[must_use]
    pub fn quants(&self) -> &[i8] {
        &self.quants
    }

    /// Rebuilds a [`Q8Tensor`] from its stored parts (the artifact
    /// loader's path).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] when `scales` or
    /// `quants` do not match the block geometry `shape` implies.
    pub fn from_parts(
        shape: &[usize],
        scales: Vec<f32>,
        quants: Vec<i8>,
    ) -> Result<Q8Tensor, TensorError> {
        let row_len = shape.last().copied().unwrap_or(1).max(1);
        let numel: usize = shape.iter().product();
        let rows = numel / row_len;
        let bpr = blocks_per_row(row_len);
        if scales.len() != rows * bpr || quants.len() != rows * bpr * Q8_BLOCK {
            return Err(TensorError::DimensionMismatch {
                detail: format!(
                    "q8 from_parts: shape {shape:?} implies {} scales and {} quants, got {} and {}",
                    rows * bpr,
                    rows * bpr * Q8_BLOCK,
                    scales.len(),
                    quants.len()
                ),
            });
        }
        Ok(Q8Tensor { shape: shape.to_vec(), scales, quants })
    }

    /// Dequantizes back to a dense `f32` tensor.
    #[must_use]
    pub fn dequantize(&self) -> Tensor {
        let row_len = self.shape.last().copied().unwrap_or(1).max(1);
        let rows = self.numel() / row_len;
        let bpr = blocks_per_row(row_len);
        let mut out = Vec::with_capacity(self.numel());
        for r in 0..rows {
            for i in 0..row_len {
                let block = r * bpr + i / Q8_BLOCK;
                let q = self.quants[block * Q8_BLOCK + i % Q8_BLOCK];
                out.push(self.scales[block] * f32::from(q));
            }
        }
        Tensor::from_vec(out, &self.shape)
    }

    /// The worst-case and mean absolute dequantization error against the
    /// original tensor, `(max_abs_err, mean_abs_err)`. The artifact
    /// export report is built from this.
    ///
    /// # Panics
    ///
    /// Panics if `original` has a different shape.
    #[must_use]
    pub fn reconstruction_error(&self, original: &Tensor) -> (f32, f32) {
        assert_eq!(original.shape(), self.shape.as_slice(), "q8 error: shape mismatch");
        let deq = self.dequantize();
        let mut max_abs = 0.0f32;
        let mut sum_abs = 0.0f64;
        for (&a, &b) in original.as_slice().iter().zip(deq.as_slice()) {
            let e = (a - b).abs();
            max_abs = max_abs.max(e);
            sum_abs += f64::from(e);
        }
        let n = original.numel().max(1);
        (max_abs, (sum_abs / n as f64) as f32)
    }

    /// `self @ other` where `self` is a q8 `[m, k]` matrix and `other` a
    /// dense `f32` `[k, n]` matrix, sharded over output rows like
    /// [`Tensor::matmul`]. Each row dequantizes its q8 blocks on the fly
    /// inside the same "ikj" accumulation order, so the parallel result
    /// is bit-identical to the `Reference` backend at any thread count.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is rank 2 and shapes agree (`[m, k] x [k, n]`).
    #[must_use]
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let out_shape =
            matmul_shape(&self.shape, other.shape()).unwrap_or_else(|e| panic!("q8 matmul: {e}"));
        let (m, n) = (out_shape[0], out_shape[1]);
        let k = self.shape[1];
        let bpr = blocks_per_row(k);
        let mut out = vec![0.0f32; m * n];
        let b = other.as_slice();
        let be = crate::backend::active();
        par_kernels::run_slabs(&mut out, n, 2 * k, |row0, slab| {
            let rows = slab.len() / n;
            be.q8_matmul_slab(
                &self.scales[row0 * bpr..(row0 + rows) * bpr],
                &self.quants[row0 * bpr * Q8_BLOCK..(row0 + rows) * bpr * Q8_BLOCK],
                bpr,
                k,
                b,
                n,
                slab,
            );
        });
        Tensor::from_vec(out, &[m, n])
    }
}

/// Accumulates `out_row += dequant(a_row) @ b` for one output row,
/// dequantizing per block and streaming through the rows of `b` in
/// ascending `p` — the q8 twin of
/// [`crate::par_kernels::matmul_row_kernel`], defining the accumulation
/// order for both backends (the `Reference` backend runs it row by row;
/// the blocked backend packs the identical `scale * q` products into its
/// tiles).
#[inline]
pub(crate) fn q8_row_kernel(
    scales: &[f32],
    quants: &[i8],
    k: usize,
    b: &[f32],
    out_row: &mut [f32],
) {
    let n = out_row.len();
    for p in 0..k {
        let block = p / Q8_BLOCK;
        let av = scales[block] * f32::from(quants[block * Q8_BLOCK + p % Q8_BLOCK]);
        let b_row = &b[p * n..(p + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(b_row) {
            *o += av * bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_error_is_within_half_a_step() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&[5, 77], &mut rng);
        let q = Q8Tensor::quantize(&t);
        let (max_err, mean_err) = q.reconstruction_error(&t);
        // Per block, |x - scale*q| <= scale/2 = block_max_abs/254; bound
        // globally by the tensor-wide max instead of per block.
        let global_max = t.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(max_err <= global_max / 254.0 + 1e-6, "max_err {max_err}");
        assert!(mean_err <= max_err);
    }

    #[test]
    fn zeros_quantize_exactly() {
        let t = Tensor::zeros(&[3, 40]);
        let q = Q8Tensor::quantize(&t);
        assert_eq!(q.dequantize(), t);
        assert!(q.scales().iter().all(|&s| s == 0.0));
    }

    #[test]
    fn quantization_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = Tensor::randn(&[4, 33], &mut rng);
        assert_eq!(Q8Tensor::quantize(&t), Q8Tensor::quantize(&t));
    }

    #[test]
    fn parts_round_trip_and_reject_mismatch() {
        let mut rng = StdRng::seed_from_u64(13);
        let t = Tensor::randn(&[2, 50], &mut rng);
        let q = Q8Tensor::quantize(&t);
        let back =
            Q8Tensor::from_parts(q.shape(), q.scales().to_vec(), q.quants().to_vec()).unwrap();
        assert_eq!(back, q);
        assert!(Q8Tensor::from_parts(&[2, 50], vec![0.0; 3], q.quants().to_vec()).is_err());
    }

    #[test]
    fn q8_matmul_matches_dequantized_dense_matmul() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = Tensor::randn(&[6, 70], &mut rng);
        let b = Tensor::randn(&[70, 9], &mut rng);
        let q = Q8Tensor::quantize(&a);
        let via_q8 = q.matmul(&b);
        let via_dense = q.dequantize().matmul(&b);
        // Same multiplications, but the dense path may sum in a different
        // sequence of rounding contexts; allow a tiny tolerance.
        for (x, y) in via_q8.as_slice().iter().zip(via_dense.as_slice()) {
            assert!((x - y).abs() <= 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn q8_matmul_parallel_is_bitwise_reference() {
        use crate::backend::{with_backend, BackendKind};
        use crate::parallel::{with_assumed_cores, with_threads};
        // Above the fan-out floor, with K off the q8 block, so the
        // sharded path runs across scale boundaries; 257 rows (prime)
        // split unevenly at every width.
        let (m, k, n) = (257, 289, 128);
        let work = m * n * 2 * k;
        let planned =
            with_assumed_cores(8, || with_threads(8, || par_kernels::planned_threads(work)));
        assert_eq!(planned, 8, "the q8 matmul fans out over {planned} threads; resize the test");
        let mut rng = StdRng::seed_from_u64(19);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let q = Q8Tensor::quantize(&a);
        let reference = with_threads(1, || with_backend(BackendKind::Reference, || q.matmul(&b)));
        let oracle: Vec<u32> = reference.as_slice().iter().map(|v| v.to_bits()).collect();
        for threads in [1, 2, 3, 8] {
            let got = with_assumed_cores(8, || with_threads(threads, || q.matmul(&b)));
            let bits: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, oracle, "diverged at {threads} threads");
        }
    }

    #[test]
    fn rank1_and_scalar_shapes_quantize() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        let q = Q8Tensor::quantize(&t);
        assert_eq!(q.dequantize().shape(), &[3]);
        let s = Tensor::from_vec(vec![0.5], &[1]);
        assert_eq!(Q8Tensor::quantize(&s).dequantize().shape(), &[1]);
    }
}
