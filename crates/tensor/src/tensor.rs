//! The owned, row-major ND tensor type.

use crate::shape::{
    broadcast_shapes, concat_shape, narrow_shape, numel, permute_shape, reshape_check, strides_for,
};
use crate::TensorError;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// An owned, contiguous, row-major `f32` tensor of arbitrary rank.
///
/// `Tensor` is a plain value type: cloning copies the buffer, all
/// operations return new tensors, and every constructor/operation is
/// deterministic given the caller-supplied RNG. A rank-0 tensor holds a
/// single scalar.
///
/// # Example
///
/// ```
/// use aero_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
/// let y = x.map(|v| v * 2.0);
/// assert_eq!(y.as_slice(), &[2.0, 4.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Default for Tensor {
    /// A rank-0 tensor holding `0.0`.
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl Tensor {
    // ---------------------------------------------------------------- ctor

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        Self::try_from_vec(data, shape).expect("data length must match shape")
    }

    /// Fallible variant of [`Tensor::from_vec`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts differ.
    pub fn try_from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let expected = numel(shape);
        if data.len() != expected {
            return Err(TensorError::ShapeDataMismatch { expected, actual: data.len() });
        }
        Ok(Tensor { data, shape: shape.to_vec() })
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { data: vec![0.0; numel(shape)], shape: shape.to_vec() }
    }

    /// A tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor { data: vec![value; numel(shape)], shape: shape.to_vec() }
    }

    /// A rank-0 tensor holding one scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor { data: vec![value], shape: vec![] }
    }

    /// The `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Values `0, 1, …, n-1` as a rank-1 tensor.
    pub fn arange(n: usize) -> Self {
        Tensor { data: (0..n).map(|i| i as f32).collect(), shape: vec![n] }
    }

    /// `n` evenly spaced values from `start` to `end` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn linspace(start: f32, end: f32, n: usize) -> Self {
        assert!(n > 0, "linspace requires n > 0");
        if n == 1 {
            return Tensor::from_vec(vec![start], &[1]);
        }
        let step = (end - start) / (n - 1) as f32;
        Tensor { data: (0..n).map(|i| start + step * i as f32).collect(), shape: vec![n] }
    }

    /// Standard-normal samples drawn from `rng` (Box–Muller).
    pub fn randn<R: Rng + ?Sized>(shape: &[usize], rng: &mut R) -> Self {
        let n = numel(shape);
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
            let u2: f32 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        Tensor { data, shape: shape.to_vec() }
    }

    /// Uniform samples in `[lo, hi)` drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn rand_uniform<R: Rng + ?Sized>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        assert!(lo < hi, "rand_uniform requires lo < hi");
        let n = numel(shape);
        Tensor { data: (0..n).map(|_| rng.gen_range(lo..hi)).collect(), shape: shape.to_vec() }
    }

    // ------------------------------------------------------------ accessors

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// A view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data[i] = value;
    }

    /// The single value of a rank-0 or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() requires exactly one element");
        self.data[0]
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let strides = strides_for(&self.shape);
        index
            .iter()
            .zip(&self.shape)
            .zip(&strides)
            .map(|((&i, &d), &s)| {
                assert!(i < d, "index {i} out of bounds for axis of size {d}");
                i * s
            })
            .sum()
    }

    // ------------------------------------------------------------- reshape

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        reshape_check(&self.shape, shape)
            .unwrap_or_else(|e| panic!("reshape of {:?} to {shape:?}: {e}", self.shape));
        Tensor { data: self.data.clone(), shape: shape.to_vec() }
    }

    /// Flattens into a rank-1 tensor.
    pub fn flatten(&self) -> Self {
        Tensor { data: self.data.clone(), shape: vec![self.data.len()] }
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transpose(&self) -> Self {
        assert_eq!(self.rank(), 2, "transpose requires a rank-2 tensor");
        self.permute(&[1, 0])
    }

    /// Permutes axes.
    ///
    /// # Panics
    ///
    /// Panics if `axes` is not a permutation of `0..rank`.
    pub fn permute(&self, axes: &[usize]) -> Self {
        let new_shape = permute_shape(&self.shape, axes).unwrap_or_else(|e| panic!("permute: {e}"));
        let old_strides = strides_for(&self.shape);
        let strides: Vec<usize> = axes.iter().map(|&a| old_strides[a]).collect();
        Tensor { data: gather(&self.data, &new_shape, &strides), shape: new_shape }
    }

    /// Materializes a broadcast of this tensor to `shape`.
    ///
    /// # Panics
    ///
    /// Panics if this tensor cannot broadcast to `shape`.
    pub fn broadcast_to(&self, shape: &[usize]) -> Self {
        let target = broadcast_shapes(&self.shape, shape)
            .unwrap_or_else(|e| panic!("broadcast_to failed: {e}"));
        assert_eq!(
            target, shape,
            "tensor of shape {:?} does not broadcast to {:?}",
            self.shape, shape
        );
        // Axes the source lacks or holds at size 1 read at stride 0.
        let offset = shape.len() - self.rank();
        let mut strides = vec![0; shape.len()];
        for (k, (&d, s)) in self.shape.iter().zip(strides_for(&self.shape)).enumerate() {
            if d != 1 {
                strides[offset + k] = s;
            }
        }
        Tensor { data: gather(&self.data, shape, &strides), shape: shape.to_vec() }
    }

    /// Selects a contiguous range along an axis.
    ///
    /// # Panics
    ///
    /// Panics if `axis` or `start + len` is out of bounds.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Self {
        let new_shape =
            narrow_shape(&self.shape, axis, start, len).unwrap_or_else(|e| panic!("narrow: {e}"));
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(numel(&new_shape));
        for o in 0..outer {
            let base = o * self.shape[axis] * inner + start * inner;
            data.extend_from_slice(&self.data[base..base + len * inner]);
        }
        Tensor { data, shape: new_shape }
    }

    /// Concatenates tensors along an axis.
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty or shapes differ off-axis.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Self {
        let shapes: Vec<&[usize]> = tensors.iter().map(|t| t.shape.as_slice()).collect();
        let new_shape = concat_shape(&shapes, axis).unwrap_or_else(|e| panic!("concat: {e}"));
        let first = tensors[0];
        let outer: usize = first.shape[..axis].iter().product();
        let inner: usize = first.shape[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(numel(&new_shape));
        for o in 0..outer {
            for t in tensors {
                let chunk = t.shape[axis] * inner;
                data.extend_from_slice(&t.data[o * chunk..(o + 1) * chunk]);
            }
        }
        Tensor { data, shape: new_shape }
    }

    /// Stacks rank-matched tensors along a new leading axis.
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty or shapes differ.
    pub fn stack(tensors: &[&Tensor]) -> Self {
        assert!(!tensors.is_empty(), "stack requires at least one tensor");
        let shape = tensors[0].shape.clone();
        let mut data = Vec::with_capacity(tensors.len() * tensors[0].numel());
        for t in tensors {
            assert_eq!(t.shape, shape, "stack shape mismatch");
            data.extend_from_slice(&t.data);
        }
        let mut new_shape = vec![tensors.len()];
        new_shape.extend(shape);
        Tensor { data, shape: new_shape }
    }

    /// Selects rows along an axis by index.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Self {
        assert!(axis < self.rank(), "axis out of bounds");
        let mut parts: Vec<Tensor> = Vec::with_capacity(indices.len());
        for &i in indices {
            parts.push(self.narrow(axis, i, 1));
        }
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat(&refs, axis)
    }

    // ---------------------------------------------------------- elementwise

    /// Applies `f` to every element (chunk-parallel for large tensors;
    /// chunking preserves element order, so the result is bit-identical
    /// at any thread count).
    pub fn map<F: Fn(f32) -> f32 + Sync>(&self, f: F) -> Self {
        Tensor { data: crate::par_kernels::map_into(&self.data, f), shape: self.shape.clone() }
    }

    /// Applies `f` in place to every element (chunk-parallel for large
    /// tensors).
    pub fn map_inplace<F: Fn(f32) -> f32 + Sync>(&mut self, f: F) {
        crate::par_kernels::map_inplace(&mut self.data, f);
    }

    /// Broadcasting binary operation (chunk-parallel for large tensors).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn zip<F: Fn(f32, f32) -> f32 + Sync>(&self, other: &Tensor, f: F) -> Self {
        if self.shape == other.shape {
            let data = crate::par_kernels::zip_same(&self.data, &other.data, f);
            return Tensor { data, shape: self.shape.clone() };
        }
        let out_shape = broadcast_shapes(&self.shape, &other.shape)
            .unwrap_or_else(|e| panic!("zip failed: {e}"));
        // An operand already at the output shape is read in place; only
        // the other one is materialized. Fusing the gather into the loop
        // instead measured slower: the contiguous `zip_same` vectorizes.
        let a = self.data_at(&out_shape);
        let b = other.data_at(&out_shape);
        let data = crate::par_kernels::zip_same(&a, &b, f);
        Tensor { data, shape: out_shape }
    }

    /// This tensor's buffer broadcast to `shape`, borrowed when it already
    /// has that shape.
    fn data_at(&self, shape: &[usize]) -> Cow<'_, [f32]> {
        if self.shape == shape {
            Cow::Borrowed(&self.data)
        } else {
            Cow::Owned(self.broadcast_to(shape).data)
        }
    }

    /// Elementwise (broadcasting) addition.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise (broadcasting) subtraction.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (broadcasting) multiplication.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise (broadcasting) division.
    pub fn div(&self, other: &Tensor) -> Self {
        self.zip(other, |a, b| a / b)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|v| v + s)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Self {
        self.map(|v| -v)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Self {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Self {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Self {
        self.map(f32::sqrt)
    }

    /// Elementwise power.
    pub fn powf(&self, p: f32) -> Self {
        self.map(|v| v.powf(p))
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Self {
        self.map(f32::abs)
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Self {
        self.map(|v| v.clamp(lo, hi))
    }

    // ------------------------------------------------------------ reductions

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(!self.data.is_empty(), "max of empty tensor");
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        assert!(!self.data.is_empty(), "min of empty tensor");
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Population variance of all elements.
    pub fn var(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.data.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / self.data.len() as f32
    }

    /// Sum along `axis`, dropping that axis.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of bounds.
    pub fn sum_axis(&self, axis: usize) -> Self {
        self.reduce_axis(axis, 0.0, |acc, v| acc + v)
    }

    /// Mean along `axis`, dropping that axis.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of bounds.
    pub fn mean_axis(&self, axis: usize) -> Self {
        let n = self.shape[axis] as f32;
        self.sum_axis(axis).map(|v| v / n)
    }

    /// Maximum along `axis`, dropping that axis.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of bounds.
    pub fn max_axis(&self, axis: usize) -> Self {
        self.reduce_axis(axis, f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum along the last axis; shape drops that axis.
    ///
    /// # Panics
    ///
    /// Panics on a rank-0 tensor.
    pub fn argmax_last_axis(&self) -> Vec<usize> {
        assert!(self.rank() >= 1, "argmax requires rank >= 1");
        let last = *self.shape.last().expect("nonzero rank");
        assert!(last > 0, "argmax along empty axis");
        self.data
            .chunks(last)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    fn reduce_axis<F: Fn(f32, f32) -> f32>(&self, axis: usize, init: f32, f: F) -> Self {
        assert!(axis < self.rank(), "axis out of bounds");
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut new_shape = self.shape.clone();
        new_shape.remove(axis);
        let mut data = vec![init; outer * inner];
        for o in 0..outer {
            for m in 0..mid {
                for i in 0..inner {
                    let src = o * mid * inner + m * inner + i;
                    let dst = o * inner + i;
                    data[dst] = f(data[dst], self.data[src]);
                }
            }
        }
        Tensor { data, shape: new_shape }
    }

    /// Dot product of two rank-1 tensors.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank-1 or the lengths differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.rank(), 1, "dot requires rank-1 tensors");
        assert_eq!(other.rank(), 1, "dot requires rank-1 tensors");
        assert_eq!(self.numel(), other.numel(), "dot length mismatch");
        self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).sum()
    }

    /// Euclidean (L2) norm of all elements.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }
}

/// Copies the strided view of `src` with output `shape` and one source
/// stride per output axis (0 on a broadcast axis) into a new row-major
/// buffer. An odometer over every axis but the last moves the source
/// offset by one add per step and rewinds an axis when it wraps; each
/// innermost run is one slice copy (stride 1), one fill (stride 0) or a
/// strided loop, and the output is written contiguously.
fn gather(src: &[f32], shape: &[usize], strides: &[usize]) -> Vec<f32> {
    debug_assert_eq!(shape.len(), strides.len());
    let Some((&len, outer)) = shape.split_last() else {
        return vec![src[0]];
    };
    let total = numel(shape);
    if total == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(total);
    let step = strides[outer.len()];
    let mut index = vec![0; outer.len()];
    let mut offset = 0;
    loop {
        match step {
            1 => out.extend_from_slice(&src[offset..offset + len]),
            0 => out.extend(std::iter::repeat_n(src[offset], len)),
            // A mapped range is a trusted-length iterator, so `extend`
            // writes without a per-element capacity check; a `step_by`
            // chain is not, and measured about twice as slow.
            _ => {
                let run = &src[offset..=offset + (len - 1) * step];
                out.extend((0..len).map(|k| run[k * step]));
            }
        }
        let mut axis = outer.len();
        loop {
            if axis == 0 {
                return out;
            }
            axis -= 1;
            index[axis] += 1;
            offset += strides[axis];
            if index[axis] < outer[axis] {
                break;
            }
            index[axis] = 0;
            offset -= outer[axis] * strides[axis];
        }
    }
}

impl std::ops::Add for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        Tensor::add(self, rhs)
    }
}

impl std::ops::Sub for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        Tensor::sub(self, rhs)
    }
}

impl std::ops::Mul for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: &Tensor) -> Tensor {
        Tensor::mul(self, rhs)
    }
}

impl std::ops::Div for &Tensor {
    type Output = Tensor;
    fn div(self, rhs: &Tensor) -> Tensor {
        Tensor::div(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.get(&[1, 2]), 6.0);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    fn try_from_vec_rejects_mismatch() {
        assert!(Tensor::try_from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn eye_and_arange() {
        let i = Tensor::eye(3);
        assert_eq!(i.get(&[1, 1]), 1.0);
        assert_eq!(i.get(&[0, 2]), 0.0);
        assert_eq!(Tensor::arange(4).as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn linspace_endpoints() {
        let t = Tensor::linspace(0.0, 1.0, 5);
        assert_eq!(t.as_slice()[0], 0.0);
        assert!((t.as_slice()[4] - 1.0).abs() < 1e-6);
        assert!((t.as_slice()[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&[10_000], &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        assert!((t.var() - 1.0).abs() < 0.1, "var {}", t.var());
    }

    #[test]
    fn transpose_and_permute_agree() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        assert_eq!(t.transpose(), t.permute(&[1, 0]));
        assert_eq!(t.transpose().shape(), &[3, 2]);
        assert_eq!(t.transpose().get(&[2, 1]), 5.0);
    }

    #[test]
    fn permute_rank3() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.get(&[3, 1, 2]), t.get(&[1, 2, 3]));
    }

    #[test]
    fn broadcast_to_materializes() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = t.broadcast_to(&[2, 3]);
        assert_eq!(b.as_slice(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn zip_broadcasts() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let c = a.add(&b);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.as_slice(), &[11.0, 21.0, 31.0, 12.0, 22.0, 32.0]);
    }

    #[test]
    fn narrow_middle_axis() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]);
        let n = t.narrow(1, 1, 2);
        assert_eq!(n.shape(), &[2, 2, 4]);
        assert_eq!(n.get(&[0, 0, 0]), t.get(&[0, 1, 0]));
        assert_eq!(n.get(&[1, 1, 3]), t.get(&[1, 2, 3]));
    }

    #[test]
    fn concat_axis1() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0], &[2, 1]);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn stack_adds_axis() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        let s = Tensor::stack(&[&a, &b]);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn index_select_rows() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[3, 2]);
        let s = t.index_select(0, &[2, 0]);
        assert_eq!(s.as_slice(), &[4.0, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.sum_axis(0).as_slice(), &[4.0, 6.0]);
        assert_eq!(t.sum_axis(1).as_slice(), &[3.0, 7.0]);
        assert_eq!(t.mean_axis(1).as_slice(), &[1.5, 3.5]);
        assert_eq!(t.max_axis(0).as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn argmax_last_axis_rows() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.2, 0.3, 0.1], &[2, 3]);
        assert_eq!(t.argmax_last_axis(), vec![1, 1]);
    }

    #[test]
    fn operators_delegate() {
        let a = Tensor::from_vec(vec![2.0, 4.0], &[2]);
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_eq!((&a + &b).as_slice(), &[3.0, 6.0]);
        assert_eq!((&a - &b).as_slice(), &[1.0, 2.0]);
        assert_eq!((&a * &b).as_slice(), &[2.0, 8.0]);
        assert_eq!((&a / &b).as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn dot_and_norm() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        let b = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        assert_eq!(a.dot(&b), 7.0);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
        assert_eq!(Tensor::default().item(), 0.0);
    }
}
