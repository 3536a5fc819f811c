//! The backward of `conv2d`, `conv_transpose2d`, `matmul`, `bmm`, `silu`
//! and `gelu` against the tensor-op compositions autograd used to run,
//! bit for bit.
//!
//! The `*_oracle` functions below are the former backward closure bodies,
//! built from `Tensor` ops; they exist only here. The ops now read `bᵀ`,
//! `aᵀ` and the im2col columns in place (`matmul_nt`, `matmul_tn`,
//! `conv2d_backward`), compute only the gradients of parents that require
//! one, and take SiLU's and GELU's derivative from their forward's `exp`
//! and `tanh`. Each case runs the op on parameter and constant inputs,
//! backpropagates `Σ y·W` (so the upstream gradient is W), and compares
//! every gradient a parameter receives, and the value, with the oracle
//! under both compute backends. A constant must receive none.
//!
//! As in `group_norm_oracle.rs`, a NaN compares equal to any NaN: which
//! NaN an f32 `+` or `*` of two NaNs returns is up to the compiler's
//! operand order (DESIGN.md §20). Its position must still match.

use aero_nn::Var;
use aero_tensor::backend::{with_backend, BackendKind, KC, MR, NR};
use aero_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The former `Var::matmul` backward: `[dA, dB]` for upstream `g`.
fn matmul_oracle(a: &Tensor, b: &Tensor, g: &Tensor) -> Vec<Tensor> {
    vec![g.matmul(&b.transpose()), a.transpose().matmul(g)]
}

/// The former `Var::bmm` backward.
fn bmm_oracle(a: &Tensor, b: &Tensor, g: &Tensor) -> Vec<Tensor> {
    let da = g.bmm(&b.permute(&[0, 2, 1]));
    let db = a.permute(&[0, 2, 1]).bmm(g);
    vec![da, db]
}

/// The former `Var::conv2d` backward: `[dX, dW, db]`.
fn conv2d_oracle(x: &Tensor, w: &Tensor, g: &Tensor, stride: usize, pad: usize) -> Vec<Tensor> {
    let (cout, cin, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    let n = x.shape()[0];
    let (oh, ow) = (g.shape()[2], g.shape()[3]);
    let wmat_t = w.reshape(&[cout, cin * kh * kw]).transpose();
    let mut dcols = Tensor::zeros(&[n, cin * kh * kw, oh * ow]);
    for bi in 0..n {
        let g_b = g.narrow(0, bi, 1).reshape(&[cout, oh * ow]);
        let d_b = wmat_t.matmul(&g_b);
        let len = cin * kh * kw * oh * ow;
        dcols.as_mut_slice()[bi * len..(bi + 1) * len].copy_from_slice(d_b.as_slice());
    }
    let dx = dcols.col2im(x.shape(), kh, kw, stride, pad);
    let cols = x.im2col(kh, kw, stride, pad);
    let mut dw = Tensor::zeros(&[cout, cin * kh * kw]);
    for bi in 0..n {
        let g_b = g.narrow(0, bi, 1).reshape(&[cout, oh * ow]);
        let col_b = cols.narrow(0, bi, 1).reshape(&[cin * kh * kw, oh * ow]);
        dw = dw.add(&g_b.matmul(&col_b.transpose()));
    }
    let dw = dw.reshape(&[cout, cin, kh, kw]);
    let db = g.sum_axis(3).sum_axis(2).sum_axis(0);
    vec![dx, dw, db]
}

/// The former `Var::conv_transpose2d` backward: `[dX, dW, db]`.
fn conv_transpose2d_oracle(
    x: &Tensor,
    w: &Tensor,
    g: &Tensor,
    stride: usize,
    pad: usize,
) -> Vec<Tensor> {
    let (cin, cout, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    let n = x.shape()[0];
    let (h, w_sp) = (x.shape()[2], x.shape()[3]);
    let dx = g.conv2d(w, None, stride, pad);
    let gcols = g.im2col(kh, kw, stride, pad);
    let mut dw = Tensor::zeros(&[cin, cout * kh * kw]);
    for bi in 0..n {
        let x_b = x.narrow(0, bi, 1).reshape(&[cin, h * w_sp]);
        let gc_b = gcols.narrow(0, bi, 1).reshape(&[cout * kh * kw, h * w_sp]);
        dw = dw.add(&x_b.matmul(&gc_b.transpose()));
    }
    let dw = dw.reshape(&[cin, cout, kh, kw]);
    let db = g.sum_axis(3).sum_axis(2).sum_axis(0);
    vec![dx, dw, db]
}

/// The former `Var::silu` forward and backward.
fn silu_oracle(x: &Tensor, g: &Tensor) -> (Tensor, Tensor) {
    let y = x.map(|v| v / (1.0 + (-v).exp()));
    let d = x.map(|v| {
        let s = 1.0 / (1.0 + (-v).exp());
        s * (1.0 + v * (1.0 - s))
    });
    (y, g.mul(&d))
}

/// The former `Var::gelu` forward and backward.
fn gelu_oracle(x: &Tensor, g: &Tensor) -> (Tensor, Tensor) {
    const C: f32 = 0.797_884_6;
    let y = x.map(|v| 0.5 * v * (1.0 + (C * (v + 0.044715 * v * v * v)).tanh()));
    let d = x.map(|v| {
        let inner = C * (v + 0.044715 * v * v * v);
        let t = inner.tanh();
        let dinner = C * (1.0 + 3.0 * 0.044715 * v * v);
        0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner
    });
    (y, g.mul(&d))
}

/// The bit patterns of `t`, every NaN as `f32::NAN`'s.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits()).collect()
}

/// Runs `op` on `inputs`, each a parameter where `trainable` says so and
/// a constant elsewhere, backpropagates `Σ y·W` and returns y with every
/// input's gradient.
fn run(
    inputs: &[&Tensor],
    trainable: &[bool],
    upstream: &Tensor,
    op: &dyn Fn(&[Var]) -> Var,
) -> (Tensor, Vec<Option<Tensor>>) {
    let vars: Vec<Var> = inputs
        .iter()
        .zip(trainable)
        .map(|(&t, &p)| if p { Var::parameter(t.clone()) } else { Var::constant(t.clone()) })
        .collect();
    let y = op(&vars);
    y.mul(&Var::constant(upstream.clone())).sum().backward();
    (y.to_tensor(), vars.iter().map(Var::grad).collect())
}

/// Checks `op` against `oracle` (gradients for upstream W) for every
/// choice of trainable inputs with at least one parameter, under both
/// backends.
fn assert_matches_oracle(
    what: &str,
    inputs: &[&Tensor],
    upstream: &Tensor,
    op: &dyn Fn(&[Var]) -> Var,
    oracle: &dyn Fn(&Tensor) -> Vec<Tensor>,
) {
    for backend in BackendKind::ALL {
        with_backend(backend, || {
            let want = oracle(upstream);
            for mask in 1..1u32 << inputs.len() {
                let trainable: Vec<bool> = (0..inputs.len()).map(|i| mask >> i & 1 == 1).collect();
                let (_, grads) = run(inputs, &trainable, upstream, op);
                for (i, (got, want)) in grads.iter().zip(&want).enumerate() {
                    let case = format!("{what}, {backend}, trainable {trainable:?}, input {i}");
                    match got {
                        Some(got) if trainable[i] => {
                            assert_eq!(got.shape(), want.shape(), "{case}: shape");
                            assert_eq!(bits(got), bits(want), "{case}: gradient diverged");
                        }
                        None if !trainable[i] => {}
                        _ => panic!("{case}: a gradient must reach exactly the parameters"),
                    }
                }
            }
        });
    }
}

fn randn(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let scale = rng.gen_range(0.1f32..4.0);
    Tensor::randn(shape, rng).mul_scalar(scale)
}

fn check_matmul(a: &Tensor, b: &Tensor, upstream: &Tensor, what: &str) {
    assert_matches_oracle(what, &[a, b], upstream, &|v| v[0].matmul(&v[1]), &|g| {
        matmul_oracle(a, b, g)
    });
}

fn check_bmm(a: &Tensor, b: &Tensor, upstream: &Tensor, what: &str) {
    assert_matches_oracle(what, &[a, b], upstream, &|v| v[0].bmm(&v[1]), &|g| bmm_oracle(a, b, g));
}

/// A convolution case: input, weight, bias, stride and padding.
struct Conv<'a> {
    x: &'a Tensor,
    w: &'a Tensor,
    b: &'a Tensor,
    stride: usize,
    pad: usize,
}

fn check_conv2d(c: &Conv<'_>, upstream: &Tensor, what: &str) {
    let Conv { x, w, b, stride, pad } = *c;
    assert_matches_oracle(
        &format!("{what} with bias"),
        &[x, w, b],
        upstream,
        &|v| v[0].conv2d(&v[1], Some(&v[2]), stride, pad),
        &|g| conv2d_oracle(x, w, g, stride, pad),
    );
    assert_matches_oracle(
        &format!("{what} without bias"),
        &[x, w],
        upstream,
        &|v| v[0].conv2d(&v[1], None, stride, pad),
        &|g| conv2d_oracle(x, w, g, stride, pad)[..2].to_vec(),
    );
}

fn check_conv_transpose2d(c: &Conv<'_>, upstream: &Tensor, what: &str) {
    let Conv { x, w, b, stride, pad } = *c;
    assert_matches_oracle(
        what,
        &[x, w, b],
        upstream,
        &|v| v[0].conv_transpose2d(&v[1], Some(&v[2]), stride, pad),
        &|g| conv_transpose2d_oracle(x, w, g, stride, pad),
    );
}

/// SiLU and GELU: the value with and without a tape, and the gradient.
fn check_activations(x: &Tensor, upstream: &Tensor, what: &str) {
    type Act = fn(&Var) -> Var;
    type ActOracle = fn(&Tensor, &Tensor) -> (Tensor, Tensor);
    let acts: [(&str, Act, ActOracle); 2] =
        [("silu", Var::silu, silu_oracle), ("gelu", Var::gelu, gelu_oracle)];
    for (name, act, oracle) in acts {
        let (want_y, want_dx) = oracle(x, upstream);
        let (y, grads) = run(&[x], &[true], upstream, &|v| act(&v[0]));
        let untaped = aero_nn::no_grad(|| act(&Var::parameter(x.clone())).to_tensor());
        assert_eq!(bits(&y), bits(&want_y), "{name} {what}: taped value");
        assert_eq!(bits(&untaped), bits(&want_y), "{name} {what}: value without a tape");
        let dx = grads[0].as_ref().expect("a parameter receives its gradient");
        assert_eq!(bits(dx), bits(&want_dx), "{name} {what}: gradient");
    }
}

/// Conv output side for `d` at kernel `k`, stride and padding.
fn out_dim(d: usize, k: usize, stride: usize, pad: usize) -> usize {
    (d + 2 * pad - k) / stride + 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random matrix sizes, with every dimension drawn from values
    /// around the register tile (`MR`, `NR`) and the k-panel (`KC`).
    #[test]
    fn matmul_matches_the_oracle_bitwise(
        seed in 0u64..10_000,
        mi in 0usize..8,
        ki in 0usize..8,
        ni in 0usize..8,
    ) {
        let dims = [1, MR - 1, MR, MR + 1, NR - 1, NR + 1, KC - 1, KC + 1];
        let (m, k, n) = (dims[mi], dims[ki], dims[ni]);
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b, w) = (randn(&[m, k], &mut rng), randn(&[k, n], &mut rng), randn(&[m, n], &mut rng));
        check_matmul(&a, &b, &w, &format!("matmul [{m}, {k}]·[{k}, {n}]"));
    }

    #[test]
    fn bmm_matches_the_oracle_bitwise(
        seed in 0u64..10_000,
        nb in 1usize..4,
        m in 1usize..9,
        k in 1usize..40,
        n in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randn(&[nb, m, k], &mut rng);
        let b = randn(&[nb, k, n], &mut rng);
        let w = randn(&[nb, m, n], &mut rng);
        check_bmm(&a, &b, &w, &format!("bmm [{nb}, {m}, {k}]·[{nb}, {k}, {n}]"));
    }

    /// Random convolutions: batch 1 to 3, kernels 1×1 to 3×3, strides 1
    /// and 2, padding 0 and 1.
    #[test]
    fn conv2d_matches_the_oracle_bitwise(
        seed in 0u64..10_000,
        n in 1usize..4,
        cin in 1usize..5,
        cout in 1usize..6,
        h in 3usize..10,
        w in 3usize..10,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = randn(&[n, cin, h, w], &mut rng);
        let wt = randn(&[cout, cin, k, k], &mut rng);
        let b = randn(&[cout], &mut rng);
        let up = randn(&[n, cout, out_dim(h, k, stride, pad), out_dim(w, k, stride, pad)], &mut rng);
        let what = format!("conv2d [{n}, {cin}, {h}, {w}]→{cout} k{k} s{stride} p{pad}");
        check_conv2d(&Conv { x: &x, w: &wt, b: &b, stride, pad }, &up, &what);
    }

    #[test]
    fn conv_transpose2d_matches_the_oracle_bitwise(
        seed in 0u64..10_000,
        n in 1usize..3,
        cin in 1usize..4,
        cout in 1usize..4,
        h in 2usize..6,
        w in 2usize..6,
        k in 1usize..4,
        stride in 1usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = randn(&[n, cin, h, w], &mut rng);
        let wt = randn(&[cin, cout, k, k], &mut rng);
        let b = randn(&[cout], &mut rng);
        let (oh, ow) = ((h - 1) * stride + k, (w - 1) * stride + k);
        let up = randn(&[n, cout, oh, ow], &mut rng);
        let what = format!("conv_transpose2d [{n}, {cin}, {h}, {w}]→{cout} k{k} s{stride}");
        check_conv_transpose2d(&Conv { x: &x, w: &wt, b: &b, stride, pad: 0 }, &up, &what);
    }

    #[test]
    fn activations_match_the_oracle_bitwise(seed in 0u64..10_000, len in 1usize..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = randn(&[len], &mut rng).mul_scalar(3.0);
        let w = randn(&[len], &mut rng);
        check_activations(&x, &w, &format!("len {len}"));
    }
}

#[test]
fn training_shapes_match_the_oracle_bitwise() {
    // The convolutions and the projection a paper train runs most: the
    // region augmenter's encoder at batch 1 (its first conv on a
    // constant image), a UNet bottleneck conv and a 1×1 skip at batch 8,
    // and the VAE's output conv.
    let mut rng = StdRng::seed_from_u64(3);
    for (x_shape, cout, k, stride, pad) in [
        ([1, 3, 32, 32], 8, 3, 2, 1),
        ([1, 8, 16, 16], 16, 3, 2, 1),
        ([8, 32, 4, 4], 32, 3, 1, 1),
        ([8, 32, 8, 8], 16, 1, 1, 0),
        ([4, 8, 32, 32], 3, 3, 1, 1),
    ] {
        let [n, cin, h, w] = x_shape;
        let x = randn(&x_shape, &mut rng);
        let wt = randn(&[cout, cin, k, k], &mut rng);
        let b = randn(&[cout], &mut rng);
        let up =
            randn(&[n, cout, out_dim(h, k, stride, pad), out_dim(w, k, stride, pad)], &mut rng);
        let what = format!("conv2d {x_shape:?}→{cout} k{k} s{stride} p{pad}");
        check_conv2d(&Conv { x: &x, w: &wt, b: &b, stride, pad }, &up, &what);
    }
    let (a, b, w) =
        (randn(&[1, 1024], &mut rng), randn(&[1024, 32], &mut rng), randn(&[1, 32], &mut rng));
    check_matmul(&a, &b, &w, "augmenter projection");
    let (a, b, w) =
        (randn(&[8, 64, 8], &mut rng), randn(&[8, 8, 64], &mut rng), randn(&[8, 64, 64], &mut rng));
    check_bmm(&a, &b, &w, "attention scores");
    let x = randn(&[8, 16, 8, 8], &mut rng);
    check_activations(&x, &randn(&[8, 16, 8, 8], &mut rng), "UNet activation");
}

#[test]
fn degenerate_values_match_the_oracle_bitwise() {
    // Zero and constant operands (signed zeros throughout), and NaN and
    // ±∞ in each operand and in the upstream gradient.
    let mut rng = StdRng::seed_from_u64(5);
    let (x0, w0, b0) =
        (randn(&[2, 3, 6, 5], &mut rng), randn(&[4, 3, 3, 3], &mut rng), randn(&[4], &mut rng));
    let up0 = randn(&[2, 4, 3, 3], &mut rng);
    let (a0, m0, mw0) =
        (randn(&[5, 33], &mut rng), randn(&[33, 34], &mut rng), randn(&[5, 34], &mut rng));
    let check =
        |x: &Tensor, w: &Tensor, up: &Tensor, a: &Tensor, m: &Tensor, mw: &Tensor, what: &str| {
            check_conv2d(&Conv { x, w, b: &b0, stride: 2, pad: 1 }, up, what);
            check_matmul(a, m, mw, what);
            let act_x = x.reshape(&[x.numel()]);
            check_activations(&act_x, &randn(&[x.numel()], &mut StdRng::seed_from_u64(9)), what);
        };
    check(&x0, &w0, &up0, &a0, &m0, &mw0, "random");
    let zeros = |t: &Tensor| Tensor::zeros(t.shape());
    check(&zeros(&x0), &w0, &up0, &zeros(&a0), &m0, &mw0, "zero input");
    check(&x0, &zeros(&w0), &up0, &a0, &zeros(&m0), &mw0, "zero weight");
    check(&x0, &w0, &zeros(&up0), &a0, &m0, &zeros(&mw0), "zero upstream");
    check(&x0.mul_scalar(-0.0), &w0, &up0, &a0.mul_scalar(-0.0), &m0, &mw0, "signed zeros");
    let full = |t: &Tensor, v: f32| Tensor::full(t.shape(), v);
    check(&full(&x0, -2.5), &w0, &up0, &full(&a0, 1e30), &m0, &mw0, "constant input");
    for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let poke = |t: &Tensor, at: usize| {
            let mut t = t.clone();
            t.as_mut_slice()[at] = v;
            t
        };
        check(&poke(&x0, 7), &w0, &up0, &poke(&a0, 40), &m0, &mw0, &format!("x has {v}"));
        check(&x0, &poke(&w0, 0), &up0, &a0, &poke(&m0, 3), &mw0, &format!("w has {v}"));
        check(&x0, &w0, &poke(&up0, 5), &a0, &m0, &poke(&mw0, 11), &format!("W has {v}"));
    }
}
