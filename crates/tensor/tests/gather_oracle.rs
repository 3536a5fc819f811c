//! `broadcast_to`, `permute`, `transpose` and broadcasting `zip`, and
//! `im2col` and its adjoint `col2im`, against their former
//! index-arithmetic bodies, bit for bit.
//!
//! The library moves data through one strided gather (an odometer with
//! one add per step). The oracles below are the loops it replaced, kept
//! verbatim: each output element's source index found with a div and a
//! mod per axis. They exist only here. These ops only move values, and
//! `zip` applies the same closure to the same `(self, other)` pairs, so
//! every comparison is on `f32::to_bits`. `im2col` and `col2im` now copy
//! and add whole in-bounds row runs; their oracles test each element's
//! bounds, and `col2im` must still add each image element's taps in
//! `(ky, kx)` order.
//!
//! Shapes are rank 0–5 with zero-size and size-1 axes. The `zip` closure
//! is non-commutative (`a - 2b`), so reading the wrong operand in place
//! cannot pass.

use aero_tensor::{broadcast_shapes, permute_shape, strides_for, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bitwise_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert_eq!(bits(got), bits(want), "{what}: bit pattern diverged");
}

/// The former `Tensor::transpose` body.
fn oracle_transpose(t: &Tensor) -> Tensor {
    let (r, c) = (t.shape()[0], t.shape()[1]);
    let src = t.as_slice();
    let mut data = vec![0.0; r * c];
    for i in 0..r {
        for j in 0..c {
            data[j * r + i] = src[i * c + j];
        }
    }
    Tensor::from_vec(data, &[c, r])
}

/// The former `Tensor::permute` body.
fn oracle_permute(t: &Tensor, axes: &[usize]) -> Tensor {
    let new_shape = permute_shape(t.shape(), axes).unwrap();
    let old_strides = strides_for(t.shape());
    let new_strides = strides_for(&new_shape);
    let mut data = vec![0.0; t.numel()];
    for (flat, slot) in data.iter_mut().enumerate() {
        // Decompose flat index in new layout, recompose in old layout.
        let mut rem = flat;
        let mut old_flat = 0;
        for (k, &ns) in new_strides.iter().enumerate() {
            let idx = rem / ns;
            rem %= ns;
            old_flat += idx * old_strides[axes[k]];
        }
        *slot = t.as_slice()[old_flat];
    }
    Tensor::from_vec(data, &new_shape)
}

/// The former `Tensor::broadcast_to` body.
fn oracle_broadcast_to(t: &Tensor, shape: &[usize]) -> Tensor {
    assert_eq!(broadcast_shapes(t.shape(), shape).unwrap(), shape);
    let rank = shape.len();
    let offset = rank - t.rank();
    let src_strides = strides_for(t.shape());
    let dst_strides = strides_for(shape);
    let mut data = vec![0.0; shape.iter().product()];
    for (flat, slot) in data.iter_mut().enumerate() {
        let mut rem = flat;
        let mut src = 0;
        for (k, &ds) in dst_strides.iter().enumerate() {
            let idx = rem / ds;
            rem %= ds;
            if k >= offset && t.shape()[k - offset] != 1 {
                src += idx * src_strides[k - offset];
            }
        }
        *slot = t.as_slice()[src];
    }
    Tensor::from_vec(data, shape)
}

/// The former broadcasting `Tensor::zip`: both operands materialized.
fn oracle_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let out = broadcast_shapes(a.shape(), b.shape()).unwrap();
    let (a, b) = (oracle_broadcast_to(a, &out), oracle_broadcast_to(b, &out));
    let data = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| f(x, y)).collect();
    Tensor::from_vec(data, &out)
}

/// Distinct values (a ramp plus noise), so a misplaced element shows.
/// The former `im2col` body: `[n, c, h, w]` to `[n, c·kh·kw, oh·ow]`,
/// each element's bounds tested.
fn oracle_im2col(x: &Tensor, k: usize, stride: usize, pad: usize) -> Tensor {
    let [n, c, h, w] = x.shape().try_into().unwrap();
    let (oh, ow) = ((h + 2 * pad - k) / stride + 1, (w + 2 * pad - k) / stride + 1);
    let mut out = vec![0.0; n * c * k * k * oh * ow];
    for (bc, block) in out.chunks_mut(k * k * oh * ow).enumerate() {
        for ky in 0..k {
            for kx in 0..k {
                let row = (ky * k + kx) * oh * ow;
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        block[row + oy * ow + ox] =
                            x.as_slice()[(bc * h + iy as usize) * w + ix as usize];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c * k * k, oh * ow])
}

/// The former `col2im` body: each plane scatter-adds its channel's taps
/// in `(ky, kx, oy, ox)` order, each element's bounds tested.
fn oracle_col2im(cols: &Tensor, shape: [usize; 4], k: usize, stride: usize, pad: usize) -> Tensor {
    let [n, c, h, w] = shape;
    let (oh, ow) = ((h + 2 * pad - k) / stride + 1, (w + 2 * pad - k) / stride + 1);
    let mut out = vec![0.0f32; n * c * h * w];
    for (bc, plane) in out.chunks_mut(h * w).enumerate() {
        for ky in 0..k {
            for kx in 0..k {
                let row = (bc * k * k + ky * k + kx) * oh * ow;
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        plane[iy as usize * w + ix as usize] += cols.as_slice()[row + oy * ow + ox];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &shape)
}

fn filled(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|i| i as f32 + rng.gen_range(0.0f32..0.5)).collect();
    Tensor::from_vec(data, shape)
}

/// A shape that broadcasts to `out`: some leading axes dropped, and each
/// remaining axis kept or set to 1.
fn broadcast_source(out: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let dropped = rng.gen_range(0..out.len() + 1);
    out[dropped..].iter().map(|&d| if rng.gen_bool(0.5) { 1 } else { d }).collect()
}

/// A random permutation of `0..rank` (Fisher–Yates).
fn permutation(rank: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut axes: Vec<usize> = (0..rank).collect();
    for i in (1..rank).rev() {
        axes.swap(i, rng.gen_range(0..i + 1));
    }
    axes
}

fn skew(a: f32, b: f32) -> f32 {
    a - 2.0 * b
}

fn shape_rank_0_to_5() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..5, 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn broadcast_to_matches_the_index_oracle(out in shape_rank_0_to_5(), seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = filled(&broadcast_source(&out, &mut rng), &mut rng);
        assert_bitwise_eq(&src.broadcast_to(&out), &oracle_broadcast_to(&src, &out), "broadcast_to");
    }

    #[test]
    fn permute_matches_the_index_oracle(shape in shape_rank_0_to_5(), seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = filled(&shape, &mut rng);
        let axes = permutation(shape.len(), &mut rng);
        assert_bitwise_eq(&t.permute(&axes), &oracle_permute(&t, &axes), "permute");
    }

    #[test]
    fn transpose_matches_the_index_oracle(
        r_tiles in 0usize..3,
        r_rem in 1usize..32,
        c_tiles in 0usize..3,
        c_rem in 1usize..32,
        seed in 0u64..10_000,
    ) {
        // Sides that 32 does not divide: partial edges along both axes.
        let (r, c) = (32 * r_tiles + r_rem, 32 * c_tiles + c_rem);
        let t = filled(&[r, c], &mut StdRng::seed_from_u64(seed));
        assert_bitwise_eq(&t.transpose(), &oracle_transpose(&t), "transpose");
    }

    #[test]
    fn zip_matches_the_index_oracle(out in shape_rank_0_to_5(), seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let full = filled(&out, &mut rng);
        let other = filled(&broadcast_source(&out, &mut rng), &mut rng);
        // Complementary operands: each axis held by one side, 1 on the
        // other, so often neither has the output shape.
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for &d in &out {
            let (l, r) = if rng.gen_bool(0.5) { (d, 1) } else { (1, d) };
            left.push(l);
            right.push(r);
        }
        let (left, right) = (filled(&left, &mut rng), filled(&right, &mut rng));
        for (a, b, what) in [
            (&full, &full, "same shape"),
            (&full, &other, "left full"),
            (&other, &full, "right full"),
            (&left, &right, "complementary"),
        ] {
            assert_bitwise_eq(&a.zip(b, skew), &oracle_zip(a, b, skew), what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Planes from 1×1, kernels up to 4×4 (wider than a small plane, so
    /// some taps have no in-bounds run), strides 1–3 and padding 0–3.
    #[test]
    fn im2col_and_col2im_match_the_index_oracle(
        n in 1usize..3,
        c in 1usize..4,
        h in 1usize..9,
        w in 1usize..9,
        k in 1usize..5,
        stride in 1usize..4,
        pad in 0usize..4,
        seed in 0u64..10_000,
    ) {
        if h + 2 * pad < k || w + 2 * pad < k {
            return Ok(()); // no window fits the padded input
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let x = filled(&[n, c, h, w], &mut rng);
        let cols = x.im2col(k, k, stride, pad);
        assert_bitwise_eq(&cols, &oracle_im2col(&x, k, stride, pad), "im2col");
        let cols = filled(cols.shape(), &mut rng);
        let back = cols.col2im(&[n, c, h, w], k, k, stride, pad);
        assert_bitwise_eq(&back, &oracle_col2im(&cols, [n, c, h, w], k, stride, pad), "col2im");
    }
}

#[test]
fn zip_gathers_both_operands_when_neither_is_full() {
    // `[n, 1, w]` against `[1, c, 1]`: neither operand has the output
    // shape, so both are gathered.
    let mut rng = StdRng::seed_from_u64(3);
    let a = filled(&[2, 1, 5], &mut rng);
    let b = filled(&[1, 3, 1], &mut rng);
    assert_bitwise_eq(&a.zip(&b, skew), &oracle_zip(&a, &b, skew), "[2,1,5] ⊙ [1,3,1]");
    assert_bitwise_eq(&b.zip(&a, skew), &oracle_zip(&b, &a, skew), "[1,3,1] ⊙ [2,1,5]");
}

#[test]
fn unet_shaped_moves_match_the_index_oracle() {
    // Shapes the paper UNet moves: the backward transposes of a 1024×32
    // matrix, per-row statistics and a per-channel affine broadcast over
    // its feature maps (the forms of LayerNorm's statistics and FiLM's
    // scale and shift), and the attention head split.
    let mut rng = StdRng::seed_from_u64(5);
    let m = filled(&[1024, 32], &mut rng);
    assert_bitwise_eq(&m.transpose(), &oracle_transpose(&m), "1024x32 transpose");
    let x = filled(&[8, 4, 256], &mut rng);
    let stats = filled(&[8, 4, 1], &mut rng);
    let affine = filled(&[1, 16, 1, 1], &mut rng);
    let grouped = x.zip(&stats, skew);
    assert_bitwise_eq(&grouped, &oracle_zip(&x, &stats, skew), "group statistics");
    let y = grouped.reshape(&[8, 16, 8, 8]);
    assert_bitwise_eq(&affine.zip(&y, skew), &oracle_zip(&affine, &y, skew), "channel affine");
    let heads = filled(&[2, 64, 4, 8], &mut rng);
    let axes = [0, 2, 1, 3];
    assert_bitwise_eq(&heads.permute(&axes), &oracle_permute(&heads, &axes), "head split");
}
