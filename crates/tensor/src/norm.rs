//! Group normalization as one kernel: the forward in one sweep per
//! `(sample, group)` block, and its hand-written backward.
//!
//! Both return the bits of the composite they replace. The forward is
//! the op chain `reshape → mean → sub → square → mean → add eps → sqrt
//! → div → reshape → mul γ → add β`; the backward is what reverse-mode
//! autograd computes through that chain. Each element sees the same f32
//! operations in the same order, with every operand in its place (`G·γ`,
//! not `γ·G`). Every mean is a sum from 0.0 in index order times `1/m`,
//! not a divide. The composite survives as the oracle of `aero_nn`'s
//! `group_norm_oracle` test (DESIGN.md §20). Only which NaN a NaN result
//! is can differ: when both operands of a `+` or `*` are NaN, x86 returns
//! the first one's, and the compiler orders the operands of these
//! commutative ops as it likes, here as in the composite's kernels.
//!
//! The kernels are serial: the largest group norm the UNet runs holds
//! 16 Ki elements, far below the elementwise fan-out floor.

use crate::par_kernels::record_kernel;
use crate::tensor::Tensor;

/// What a group-norm forward computed per `(sample, group)` block and
/// its backward reads: each block's mean and `sqrt(var + eps)`.
#[derive(Debug)]
pub struct GroupNormStats {
    groups: usize,
    mean: Vec<f32>,
    den: Vec<f32>,
}

/// The `[n, c, h, w]` dimensions of a group-norm input, checked against
/// the group count and the `[1, c, 1, 1]` affine parameters.
fn dims(x: &Tensor, groups: usize, affine: &[&Tensor]) -> (usize, usize, usize, usize) {
    assert_eq!(x.rank(), 4, "group norm expects [n, c, h, w], got {:?}", x.shape());
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    assert!(groups > 0 && c.is_multiple_of(groups), "groups must divide channels");
    for p in affine {
        assert_eq!(p.shape(), [1, c, 1, 1], "group norm channel mismatch");
    }
    (n, c, h, w)
}

/// Sums `terms` the way autograd's `unbroadcast` reduces one axis: from
/// 0.0 in index order, except that an axis of size 1 is not reduced at
/// all (so a lone `-0.0` stays `-0.0`).
fn reduce_axis(mut terms: impl ExactSizeIterator<Item = f32>) -> f32 {
    match terms.len() {
        1 => terms.next().unwrap_or_default(),
        _ => terms.fold(0.0, |s, t| s + t),
    }
}

/// Reduces the `[n, c, h, w]` field `term(sample, channel, index)` to
/// one value per channel as `unbroadcast` reduces a gradient to `[1, c,
/// 1, 1]`: over axis 0, then axis 2, then axis 3, with [`reduce_axis`]'s
/// rule on each.
fn channel_sums(
    (n, c, h, w): (usize, usize, usize, usize),
    term: impl Fn(usize, usize, usize) -> f32,
) -> Vec<f32> {
    let hw = h * w;
    let mut plane = Vec::with_capacity(c * hw);
    for ch in 0..c {
        for p in 0..hw {
            plane.push(reduce_axis((0..n).map(|b| term(b, ch, (b * c + ch) * hw + p))));
        }
    }
    let rows: Vec<f32> = match h {
        1 => plane,
        _ => (0..c * w)
            .map(|cx| reduce_axis((0..h).map(|y| plane[(cx / w * h + y) * w + cx % w])))
            .collect(),
    };
    match w {
        1 => rows,
        _ => (0..c).map(|ch| reduce_axis(rows[ch * w..(ch + 1) * w].iter().copied())).collect(),
    }
}

impl Tensor {
    /// Group normalization of an `[n, c, h, w]` tensor over `groups`
    /// groups of `c / groups` channels, with per-channel `gamma` and
    /// `beta` of shape `[1, c, 1, 1]`. Returns the output and the
    /// per-block statistics [`Tensor::group_norm_backward`] reads.
    ///
    /// Per block of `m = (c / groups)·h·w` contiguous elements: `mean =
    /// (Σx) · (1/m)`, `var = (Σ(x − mean)²) · (1/m)`, both sums from 0.0
    /// in index order, then `y = ((x − mean) / sqrt(var + eps)) · γ + β`.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is rank 4, `groups` divides its channels, and
    /// `gamma` and `beta` are `[1, c, 1, 1]`.
    pub fn group_norm(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        groups: usize,
        eps: f32,
    ) -> (Tensor, GroupNormStats) {
        let (n, c, h, w) = dims(self, groups, &[gamma, beta]);
        record_kernel!("tensor.group_norm.calls", "tensor.group_norm.elements", self.numel());
        let (hw, per_group) = (h * w, c / groups);
        let m = per_group * hw;
        let inv_m = 1.0 / m as f32;
        let (x, gamma, beta) = (self.as_slice(), gamma.as_slice(), beta.as_slice());
        let mut out = vec![0.0f32; x.len()];
        let mut stats = GroupNormStats {
            groups,
            mean: Vec::with_capacity(n * groups),
            den: Vec::with_capacity(n * groups),
        };
        for block in 0..n * groups {
            let span = block * m..(block + 1) * m;
            let xs = &x[span.clone()];
            let mean = xs.iter().fold(0.0, |s, &v| s + v) * inv_m;
            let var = xs.iter().fold(0.0, |s, &v| s + (v - mean) * (v - mean)) * inv_m;
            let den = (var + eps).sqrt();
            let first = (block % groups) * per_group;
            // `chunks` refuses size 0; an empty plane has no channel rows.
            let channels = out[span].chunks_mut(hw.max(1)).zip(xs.chunks(hw.max(1)));
            for ((ys, xs), (&g, &b)) in channels.zip(gamma[first..].iter().zip(&beta[first..])) {
                for (y, &v) in ys.iter_mut().zip(xs) {
                    *y = ((v - mean) / den) * g + b;
                }
            }
            stats.mean.push(mean);
            stats.den.push(den);
        }
        (Tensor::from_vec(out, self.shape()), stats)
    }

    /// The gradients of x, γ and β of [`Tensor::group_norm`] on `self`,
    /// given the upstream gradient `grad` and the forward's `stats`, as
    /// autograd computes them through the composite.
    ///
    /// `dβ` and `dγ` reduce `G` and `G·((x − mean)/den)` to `[1, c, 1,
    /// 1]` over axis 0, then 2, then 3. Per block, with `gn = G·γ`:
    /// `dden = Σ −((gn·cen)/(den·den))`, `k = ((dden/(den·2))·(1/m))·cen`,
    /// `gc = ((gn/den) + k) + k`, and `dx = gc + (Σ −gc)·(1/m)`, each sum
    /// from 0.0 unless `m` is 1.
    ///
    /// # Panics
    ///
    /// Panics on the shapes [`Tensor::group_norm`] refuses, if `grad`
    /// does not have `self`'s shape, or if `stats` came from an input of
    /// another shape.
    pub fn group_norm_backward(
        &self,
        gamma: &Tensor,
        stats: &GroupNormStats,
        grad: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let groups = stats.groups;
        let (n, c, h, w) = dims(self, groups, &[gamma]);
        assert_eq!(grad.shape(), self.shape(), "group norm gradient shape mismatch");
        assert_eq!(stats.mean.len(), n * groups, "group norm statistics of another input");
        record_kernel!(
            "tensor.group_norm_backward.calls",
            "tensor.group_norm_backward.elements",
            self.numel()
        );
        let (hw, per_group) = (h * w, c / groups);
        let m = per_group * hw;
        let inv_m = 1.0 / m as f32;
        let (x, g, gamma) = (self.as_slice(), grad.as_slice(), gamma.as_slice());
        let (mean, den) = (&stats.mean, &stats.den);

        let dbeta = channel_sums((n, c, h, w), |_, _, at| g[at]);
        let dgamma = channel_sums((n, c, h, w), |b, ch, at| {
            let block = b * groups + ch / per_group;
            g[at] * ((x[at] - mean[block]) / den[block])
        });

        let mut dx = vec![0.0f32; x.len()];
        let mut gn = vec![0.0f32; m];
        for block in 0..n * groups {
            let (mu, d) = (mean[block], den[block]);
            let span = block * m..(block + 1) * m;
            let (xs, gs, out) = (&x[span.clone()], &g[span.clone()], &mut dx[span]);
            let first = (block % groups) * per_group;
            let channels = gn.chunks_mut(hw.max(1)).zip(gs.chunks(hw.max(1)));
            for ((gn, gs), &gamma) in channels.zip(&gamma[first..first + per_group]) {
                for (gn, &g) in gn.iter_mut().zip(gs) {
                    *gn = g * gamma;
                }
            }
            let dd = d * d;
            let dden = reduce_axis(gn.iter().zip(xs).map(|(&gn, &x)| -((gn * (x - mu)) / dd)));
            let ds2 = (dden / (d * 2.0)) * inv_m;
            for ((o, &gn), &x) in out.iter_mut().zip(&gn).zip(xs) {
                let k = ds2 * (x - mu);
                *o = ((gn / d) + k) + k;
            }
            let dmean = reduce_axis(out.iter().map(|&gc| -gc)) * inv_m;
            for o in out.iter_mut() {
                *o += dmean;
            }
        }
        let affine = |v: Vec<f32>| Tensor::from_vec(v, &[1, c, 1, 1]);
        (Tensor::from_vec(dx, self.shape()), affine(dgamma), affine(dbeta))
    }
}
