//! Property-based tests for autograd invariants, including the parallel
//! backward paths: the sharded tensor kernels run inside every layer's
//! forward *and* backward, so finite-difference checks under a multi-
//! thread policy validate the parallel gradients end to end.

use aero_nn::gradcheck::{check_gradient, check_gradient_with_threads, check_vjp};
use aero_nn::layers::{Conv2d, Linear, MultiHeadAttention};
use aero_nn::{optim::Adam, Module, Var};
use aero_tensor::parallel::with_threads;
use aero_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An op of several inputs, as a function of their vars.
type Op<'a> = &'a dyn Fn(&[Var]) -> Var;

/// A named op with its inputs.
type OpCase = (String, Vec<Tensor>, Box<dyn Fn(&[Var]) -> Var>);

/// The largest [`check_vjp`] error over every input of `op`, each
/// perturbed in turn by `eps` with the others held constant, through one
/// random cotangent of the output's shape.
fn vjp_error(inputs: &[Tensor], op: Op<'_>, eps: f32, rng: &mut StdRng) -> f32 {
    let constants = |t: &[Tensor]| t.iter().map(|t| Var::constant(t.clone())).collect::<Vec<_>>();
    let w = Tensor::randn(&op(&constants(inputs)).shape(), rng);
    (0..inputs.len())
        .map(|i| {
            let f = |x: &Var| {
                let mut vars = constants(inputs);
                vars[i] = x.clone();
                op(&vars)
            };
            check_vjp(f, &inputs[i], &w, eps, 48).max_rel_error
        })
        .fold(0.0, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every input's gradient of the ops whose backward runs its own
    /// kernels (conv2d, conv_transpose2d, matmul, bmm, SiLU, GELU and
    /// GroupNorm), at batch 2 so that each batch row's share of dW counts.
    /// The products are linear in each input, so a wide step costs no
    /// truncation and divides the outputs' f32 rounding by more; the
    /// nonlinear ops take a narrow one.
    #[test]
    fn backward_kernels_pass_the_vjp_gradcheck(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut randn = |shape: &[usize]| Tensor::randn(shape, &mut rng);
        let mut cases: Vec<OpCase> = Vec::new();
        for (k, stride, pad) in [(3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1), (1, 1, 0), (1, 2, 0)] {
            let (x, w, b) = (randn(&[2, 3, 6, 5]), randn(&[4, 3, k, k]), randn(&[4]));
            cases.push((
                format!("conv2d k{k} s{stride} p{pad} with bias"),
                vec![x.clone(), w.clone(), b],
                Box::new(move |v| v[0].conv2d(&v[1], Some(&v[2]), stride, pad)),
            ));
            cases.push((
                format!("conv2d k{k} s{stride} p{pad} without bias"),
                vec![x, w],
                Box::new(move |v| v[0].conv2d(&v[1], None, stride, pad)),
            ));
        }
        for (k, stride) in [(2, 2), (3, 1)] {
            cases.push((
                format!("conv_transpose2d k{k} s{stride}"),
                vec![randn(&[2, 3, 3, 4]), randn(&[3, 2, k, k]), randn(&[2])],
                Box::new(move |v| v[0].conv_transpose2d(&v[1], Some(&v[2]), stride, 0)),
            ));
        }
        cases.push(("matmul".into(), vec![randn(&[3, 5]), randn(&[5, 4])], Box::new(|v| v[0].matmul(&v[1]))));
        cases.push(("bmm".into(), vec![randn(&[2, 3, 5]), randn(&[2, 5, 4])], Box::new(|v| v[0].bmm(&v[1]))));
        let x = randn(&[2, 9]).mul_scalar(2.0);
        let norm = vec![randn(&[2, 4, 3, 3]), randn(&[1, 4, 1, 1]).add_scalar(1.0), randn(&[1, 4, 1, 1])];
        for (name, inputs, op) in &cases {
            let err = vjp_error(inputs, op.as_ref(), 1e-1, &mut rng);
            prop_assert!(err <= 5e-3, "{}: max rel err {}", name, err);
        }
        let nonlinear: [(&str, &[Tensor], Op<'_>); 3] = [
            ("silu", std::slice::from_ref(&x), &|v| v[0].silu()),
            ("gelu", std::slice::from_ref(&x), &|v| v[0].gelu()),
            ("group_norm", &norm, &|v| v[0].group_norm(&v[1], &v[2], 2, 1e-5)),
        ];
        for (name, inputs, op) in nonlinear {
            let err = vjp_error(inputs, op, 1e-2, &mut rng);
            prop_assert!(err <= 5e-3, "{}: max rel err {}", name, err);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sum_gradient_is_ones(seed in 0u64..500, n in 1usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Var::parameter(Tensor::randn(&[n], &mut rng));
        x.sum().backward();
        let g = x.grad().unwrap();
        prop_assert!(g.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn linearity_of_gradients(seed in 0u64..500, a in -3.0f32..3.0) {
        // d(a·sum(x))/dx = a
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Var::parameter(Tensor::randn(&[4], &mut rng));
        x.sum().scale(a).backward();
        let g = x.grad().unwrap();
        prop_assert!(g.as_slice().iter().all(|&v| (v - a).abs() < 1e-5));
    }

    #[test]
    fn gradcheck_random_composites(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0 = Tensor::randn(&[2, 3], &mut rng);
        let report = check_gradient(
            |x| x.silu().mul(&x.sigmoid()).sum().add(&x.tanh().mean()),
            &x0,
            1e-3,
            6,
        );
        prop_assert!(report.passes(5e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn softmax_then_sum_has_zero_gradient(seed in 0u64..300) {
        // sum(softmax(x)) == rows, constant -> gradient must vanish
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Var::parameter(Tensor::randn(&[2, 4], &mut rng));
        x.softmax_last_axis().sum().backward();
        let g = x.grad().unwrap();
        prop_assert!(g.abs().max() < 1e-5, "grad {:?}", g.as_slice());
    }

    #[test]
    fn adam_descends_on_convex_bowl(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Var::parameter(Tensor::randn(&[3], &mut rng).mul_scalar(3.0));
        let start = p.value().powf(2.0).sum();
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        for _ in 0..60 {
            opt.zero_grad();
            p.mul(&p).sum().backward();
            opt.step();
        }
        let end = p.value().powf(2.0).sum();
        prop_assert!(end < start, "{start} -> {end}");
    }

    #[test]
    fn detach_blocks_all_gradient(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Var::parameter(Tensor::randn(&[4], &mut rng));
        x.detach().powf(2.0).sum().backward();
        prop_assert!(x.grad().is_none());
    }

    #[test]
    fn linear_parallel_backward_passes_gradcheck(seed in 0u64..100, threads in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Linear::new(5, 4, &mut rng);
        let x0 = Tensor::randn(&[3, 5], &mut rng);
        let report = check_gradient_with_threads(
            |x| layer.forward(x).tanh().mean(),
            &x0,
            1e-3,
            8,
            threads,
        );
        prop_assert!(report.passes(5e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn conv2d_parallel_backward_passes_gradcheck(seed in 0u64..100, threads in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x0 = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let report = check_gradient_with_threads(
            |x| layer.forward(x).tanh().mean(),
            &x0,
            1e-3,
            8,
            threads,
        );
        prop_assert!(report.passes(5e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn attention_parallel_backward_passes_gradcheck(seed in 0u64..100, threads in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let attn = MultiHeadAttention::new(4, 2, &mut rng);
        let x0 = Tensor::randn(&[1, 3, 4], &mut rng);
        let report = check_gradient_with_threads(
            |x| attn.forward(x, x).mean(),
            &x0,
            1e-3,
            8,
            threads,
        );
        prop_assert!(report.passes(5e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn group_norm_passes_gradcheck(seed in 0u64..100, groups in 1usize..3) {
        // The gradients of x, γ and β of the one-node group norm against
        // central differences, through a random projection of the output.
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = [2, 4, 3, 3];
        let x0 = Tensor::randn(&shape, &mut rng);
        let gamma0 = Tensor::randn(&[1, 4, 1, 1], &mut rng).add_scalar(1.0);
        let beta0 = Tensor::randn(&[1, 4, 1, 1], &mut rng);
        let proj = Var::constant(Tensor::randn(&shape, &mut rng));
        let (x, gamma, beta) =
            (Var::constant(x0.clone()), Var::constant(gamma0.clone()), Var::constant(beta0.clone()));
        let loss = |x: &Var, gamma: &Var, beta: &Var| {
            x.group_norm(gamma, beta, groups, 1e-5).mul(&proj).mean()
        };
        let reports = [
            check_gradient(|x| loss(x, &gamma, &beta), &x0, 1e-2, 24),
            check_gradient(|g| loss(&x, g, &beta), &gamma0, 1e-2, 4),
            check_gradient(|b| loss(&x, &gamma, b), &beta0, 1e-2, 4),
        ];
        for (name, report) in ["x", "gamma", "beta"].iter().zip(reports) {
            prop_assert!(report.passes(5e-2), "{}: max rel err {}", name, report.max_rel_error);
        }
    }

    #[test]
    fn layer_gradients_are_bit_identical_across_thread_counts(seed in 0u64..100) {
        // Forward AND backward through Linear, Conv2d, and attention
        // must produce byte-for-byte identical gradients no matter how
        // wide the kernel pool fans out.
        let mut rng = StdRng::seed_from_u64(seed);
        let lin = Linear::new(6, 5, &mut rng);
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let attn = MultiHeadAttention::new(4, 2, &mut rng);
        let x_lin = Tensor::randn(&[4, 6], &mut rng);
        let x_conv = Tensor::randn(&[2, 2, 6, 6], &mut rng);
        let x_attn = Tensor::randn(&[1, 4, 4], &mut rng);
        let collect = |x: &Var, params: &[Var], out: &mut Vec<Vec<u32>>| {
            let g = x.grad().expect("input grad");
            out.push(g.as_slice().iter().map(|v| v.to_bits()).collect());
            for p in params {
                let pg = p.grad().expect("param grad");
                out.push(pg.as_slice().iter().map(|v| v.to_bits()).collect());
                p.zero_grad();
            }
        };
        let grads = |threads: usize| -> Vec<Vec<u32>> {
            with_threads(threads, || {
                let mut out = Vec::new();
                let x = Var::parameter(x_lin.clone());
                lin.forward(&x).tanh().sum().backward();
                collect(&x, &lin.params(), &mut out);
                let x = Var::parameter(x_conv.clone());
                conv.forward(&x).tanh().sum().backward();
                collect(&x, &conv.params(), &mut out);
                let x = Var::parameter(x_attn.clone());
                attn.forward(&x, &x).tanh().sum().backward();
                collect(&x, &attn.params(), &mut out);
                out
            })
        };
        let reference = grads(1);
        for threads in [2, 4, 8] {
            prop_assert_eq!(&grads(threads), &reference, "grads diverged at {} threads", threads);
        }
    }

    #[test]
    fn serialization_round_trip_any_shapes(dims in prop::collection::vec(1usize..5, 1..4), seed in 0u64..300) {
        use aero_nn::artifact::{load_into_params, ArtifactBuilder, ModelArtifact};
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Var::parameter(Tensor::randn(&dims, &mut rng));
        let mut builder = ArtifactBuilder::new();
        builder.add_f32("p", &p.to_tensor());
        let artifact = ModelArtifact::from_bytes(builder.to_bytes()).unwrap();
        let q = Var::parameter(Tensor::zeros(&dims));
        load_into_params(std::slice::from_ref(&q), vec![artifact.tensor("p").unwrap()]).unwrap();
        prop_assert_eq!(p.to_tensor(), q.to_tensor());
    }
}
