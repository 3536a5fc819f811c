//! `Var::group_norm` against the thirteen-op composite it replaced, bit
//! for bit: the output and the gradients of x, γ and β.
//!
//! The composite below is the former `GroupNorm::forward` body, built
//! from `Var` ops. It exists only here. Autograd differentiates it
//! through its thirteen nodes; the op runs one forward kernel and one
//! hand-written backward. Every comparison is on `f32::to_bits`, so a
//! reordered sum, a divide in place of a multiply by `1/m` or a missing
//! `0.0 +` fails.
//!
//! One thing is left out of the bits: which NaN a NaN result is. When
//! both operands of an f32 `+` or `*` are NaN, x86 returns the first
//! one's, but the compiler treats both ops as commutative and picks the
//! operand order itself, in the composite's kernels as in the op's. So
//! a NaN compares equal to any NaN; its position must still match.

use aero_nn::Var;
use aero_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPS: f32 = 1e-5;

/// The former `GroupNorm::forward` body.
fn composite(x: &Var, gamma: &Var, beta: &Var, groups: usize, eps: f32) -> Var {
    let shape = x.shape();
    let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    let grouped = x.reshape(&[n, groups, (c / groups) * h * w]);
    let mean = grouped.mean_axis_keepdim(2);
    let centered = grouped.sub(&mean);
    let var = centered.mul(&centered).mean_axis_keepdim(2);
    let norm = centered.div(&var.add_scalar(eps).sqrt());
    norm.reshape(&[n, c, h, w]).mul(gamma).add(beta)
}

type Norm = fn(&Var, &Var, &Var, usize, f32) -> Var;

fn op(x: &Var, gamma: &Var, beta: &Var, groups: usize, eps: f32) -> Var {
    x.group_norm(gamma, beta, groups, eps)
}

/// The bit patterns of `t`, every NaN as `f32::NAN`'s.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits()).collect()
}

/// The inputs of one case: x, γ, β and the upstream weights W (the loss
/// is `Σ y·W`, so the upstream gradient is W).
#[derive(Clone)]
struct Case {
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    weights: Tensor,
    groups: usize,
}

/// How the normalized input is fed: x itself, or x also consumed by one
/// or two more ops (a residual add, and a product), so that x's gradient
/// sums several contributions.
#[derive(Clone, Copy, Debug)]
enum Consumers {
    One,
    Two,
    Three,
}

/// Output, dx, dγ and dβ of `norm` on `case`.
fn run(norm: Norm, case: &Case, consumers: Consumers) -> [Vec<u32>; 4] {
    let p = Var::parameter(case.x.clone());
    // An interior node, so its gradient slot sums the contributions of
    // every consumer in `backward`'s order.
    let x = p.scale(1.0);
    let gamma = Var::parameter(case.gamma.clone());
    let beta = Var::parameter(case.beta.clone());
    let weights = Var::constant(case.weights.clone());
    let y = norm(&x, &gamma, &beta, case.groups, EPS);
    let out = match consumers {
        Consumers::One => y.clone(),
        Consumers::Two => y.add(&x),
        Consumers::Three => y.add(&x).add(&x.mul(&weights)),
    };
    out.mul(&weights).sum().backward();
    let grad = |v: &Var| bits(&v.grad().expect("gradient reaches every input"));
    [bits(&y.to_tensor()), grad(&p), grad(&gamma), grad(&beta)]
}

fn assert_matches_composite(case: &Case, what: &str) {
    for consumers in [Consumers::One, Consumers::Two, Consumers::Three] {
        let want = run(composite, case, consumers);
        let got = run(op, case, consumers);
        for (k, name) in ["y", "dx", "dgamma", "dbeta"].iter().enumerate() {
            assert_eq!(got[k], want[k], "{what}, {consumers:?}: {name} diverged");
        }
    }
}

fn randn(shape: &[usize], scale: f32, rng: &mut StdRng) -> Tensor {
    Tensor::randn(shape, rng).mul_scalar(scale)
}

fn random_case(shape: [usize; 4], groups: usize, rng: &mut StdRng) -> Case {
    let c = shape[1];
    let scale = rng.gen_range(0.1f32..8.0);
    let offset = rng.gen_range(-3.0f32..3.0);
    Case {
        x: randn(&shape, scale, rng).add_scalar(offset),
        gamma: randn(&[1, c, 1, 1], 1.0, rng).add_scalar(1.0),
        beta: randn(&[1, c, 1, 1], 0.5, rng),
        weights: randn(&shape, 1.0, rng),
        groups,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random shapes: one to three samples, groups 1, 2 and 4, one to
    /// three channels per group, and planes from 1×1 up to sizes no
    /// vector width divides.
    #[test]
    fn op_matches_the_composite_bitwise(
        seed in 0u64..10_000,
        n in 1usize..4,
        group_pick in 0usize..3,
        per_group in 1usize..4,
        h in 1usize..8,
        w in 1usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let groups = [1, 2, 4][group_pick];
        let shape = [n, groups * per_group, h, w];
        let case = random_case(shape, groups, &mut rng);
        assert_matches_composite(&case, &format!("shape {shape:?}, groups {groups}"));
    }
}

#[test]
fn unet_shapes_match_the_composite_bitwise() {
    // The paper UNet's group norms: 16 channels on the 8×8 latent and
    // 32 on the 4×4 bottleneck, four groups, at batch 1 and 8.
    let mut rng = StdRng::seed_from_u64(7);
    for shape in [[1, 16, 8, 8], [1, 32, 4, 4], [1, 32, 8, 8], [8, 16, 8, 8], [8, 32, 4, 4]] {
        let case = random_case(shape, 4, &mut rng);
        assert_matches_composite(&case, &format!("shape {shape:?}"));
    }
}

#[test]
fn size_one_axes_match_the_composite_bitwise() {
    // n = 1 skips the batch reduction of dγ and dβ, h = 1 and w = 1 skip
    // theirs, and m = 1 (one channel per group on a 1×1 plane) skips the
    // block reductions of the backward.
    let mut rng = StdRng::seed_from_u64(11);
    for (shape, groups) in [
        ([1, 4, 1, 1], 4),
        ([3, 4, 1, 1], 4),
        ([1, 4, 1, 1], 2),
        ([2, 2, 1, 5], 1),
        ([2, 2, 5, 1], 2),
        ([1, 1, 1, 1], 1),
        ([1, 3, 1, 7], 1),
    ] {
        let case = random_case(shape, groups, &mut rng);
        assert_matches_composite(&case, &format!("shape {shape:?}, groups {groups}"));
    }
}

#[test]
fn degenerate_inputs_match_the_composite_bitwise() {
    let mut rng = StdRng::seed_from_u64(13);
    let shape = [2, 4, 3, 5];
    let base = random_case(shape, 2, &mut rng);
    let with_x = |x: Tensor| Case { x, ..base.clone() };
    // Zero and constant blocks have zero variance: den is sqrt(eps).
    assert_matches_composite(&with_x(Tensor::zeros(&shape)), "zero input");
    assert_matches_composite(&with_x(Tensor::full(&shape, -2.5)), "constant input");
    assert_matches_composite(&with_x(Tensor::full(&shape, 1e30)), "huge constant input");
    // A zero upstream gradient and zero γ give signed zeros everywhere.
    assert_matches_composite(
        &Case { weights: Tensor::zeros(&shape), ..base.clone() },
        "zero upstream gradient",
    );
    assert_matches_composite(
        &Case { gamma: Tensor::zeros(&[1, 4, 1, 1]), ..base.clone() },
        "zero gamma",
    );
    // Non-finite values in x, in W and in γ.
    for (at, v) in [(0, f32::NAN), (7, f32::INFINITY), (31, f32::NEG_INFINITY), (119, f32::NAN)] {
        let mut x = base.x.clone();
        x.as_mut_slice()[at] = v;
        assert_matches_composite(&with_x(x), &format!("x[{at}] = {v}"));
        let mut weights = base.weights.clone();
        weights.as_mut_slice()[at] = v;
        assert_matches_composite(&Case { weights, ..base.clone() }, &format!("W[{at}] = {v}"));
    }
    let mut gamma = base.gamma.clone();
    gamma.as_mut_slice()[1] = f32::INFINITY;
    assert_matches_composite(&Case { gamma, ..base.clone() }, "infinite gamma");
}
