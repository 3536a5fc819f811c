//! Finite-difference gradient checking used by the test suites.

use crate::autograd::Var;
use aero_tensor::Tensor;

/// Outcome of a gradient check: the largest relative error observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Maximum relative error across all checked coordinates.
    pub max_rel_error: f32,
    /// Number of coordinates compared.
    pub checked: usize,
}

impl GradCheckReport {
    /// Whether the check passed under a tolerance.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_error <= tol
    }
}

/// Compares the analytic gradient of `f` at `x0` against central finite
/// differences on up to `max_coords` coordinates.
///
/// `f` must rebuild the graph from a fresh parameter each call and return
/// a scalar loss `Var`.
///
/// # Panics
///
/// Panics if `f` returns a non-scalar or produces no gradient.
pub fn check_gradient<F>(f: F, x0: &Tensor, eps: f32, max_coords: usize) -> GradCheckReport
where
    F: Fn(&Var) -> Var,
{
    let x = Var::parameter(x0.clone());
    let loss = f(&x);
    loss.backward();
    let analytic = x.grad().expect("loss must depend on x");

    let n = x0.numel().min(max_coords);
    // Spread checked coordinates across the tensor.
    let stride = (x0.numel() / n.max(1)).max(1);
    let mut max_rel = 0.0f32;
    let mut checked = 0;
    for k in 0..n {
        let i = (k * stride).min(x0.numel() - 1);
        let mut plus = x0.clone();
        plus.as_mut_slice()[i] += eps;
        let mut minus = x0.clone();
        minus.as_mut_slice()[i] -= eps;
        let fp = f(&Var::constant(plus)).value().item();
        let fm = f(&Var::constant(minus)).value().item();
        let numeric = (fp - fm) / (2.0 * eps);
        let a = analytic.as_slice()[i];
        let denom = a.abs().max(numeric.abs()).max(1e-3);
        let rel = (a - numeric).abs() / denom;
        if rel > max_rel {
            max_rel = rel;
        }
        checked += 1;
    }
    GradCheckReport { max_rel_error: max_rel, checked }
}

/// Compares the gradient of `Σ f(x)·W` at `x0`, for a fixed cotangent `w`
/// of `f`'s output shape, against central differences on up to
/// `max_coords` coordinates.
///
/// The analytic side backpropagates `Σ y·W` through the graph `f`
/// builds. The numeric side sums `f(x ± eps)·W` in f64, so the difference
/// quotient carries no f32 rounding of the loss itself: elements of y
/// that do not depend on the perturbed coordinate round alike in both
/// evaluations and cancel. A random W weighs every output element, so a
/// wrong gradient anywhere in y shows; a `mean` loss (see
/// [`check_gradient`]) scales each gradient below the error floor. Each
/// coordinate's error is relative to the larger of its two sides, or to
/// 1% of the largest analytic entry checked, whichever is larger.
///
/// # Panics
///
/// Panics if `f`'s output is not `w`'s shape or does not depend on x.
pub fn check_vjp<F>(f: F, x0: &Tensor, w: &Tensor, eps: f32, max_coords: usize) -> GradCheckReport
where
    F: Fn(&Var) -> Var,
{
    let x = Var::parameter(x0.clone());
    f(&x).mul(&Var::constant(w.clone())).sum().backward();
    let analytic = x.grad().expect("the output must depend on x");
    let loss = |t: Tensor| -> f64 {
        let y = crate::no_grad(|| f(&Var::constant(t)));
        let y = y.value();
        assert_eq!(y.shape(), w.shape(), "the cotangent must have the output's shape");
        y.as_slice().iter().zip(w.as_slice()).map(|(&v, &c)| f64::from(v) * f64::from(c)).sum()
    };
    let n = x0.numel().min(max_coords);
    let stride = (x0.numel() / n.max(1)).max(1);
    let coords: Vec<usize> = (0..n).map(|k| (k * stride).min(x0.numel() - 1)).collect();
    let a = |i: usize| f64::from(analytic.as_slice()[i]);
    // An entry near zero is judged against 1% of the gradient's scale:
    // its numeric side still carries the f32 rounding of the outputs the
    // coordinate moves.
    let floor = coords.iter().map(|&i| a(i).abs()).fold(0.0, f64::max) * 1e-2;
    let mut max_rel = 0.0f64;
    for &i in &coords {
        let mut plus = x0.clone();
        plus.as_mut_slice()[i] += eps;
        let mut minus = x0.clone();
        minus.as_mut_slice()[i] -= eps;
        let h = f64::from(plus.as_slice()[i]) - f64::from(minus.as_slice()[i]);
        let numeric = (loss(plus) - loss(minus)) / h;
        let rel = (a(i) - numeric).abs() / a(i).abs().max(numeric.abs()).max(floor).max(1e-3);
        max_rel = max_rel.max(rel);
    }
    GradCheckReport { max_rel_error: max_rel as f32, checked: n }
}

/// [`check_gradient`] with the tensor kernels pinned to `threads`
/// workers for both the analytic backward pass and every finite-
/// difference forward evaluation.
///
/// The sharded kernels are bit-identical at any thread count, so this
/// must report exactly the same error as the serial check — the
/// parallel-backward tests assert that, which turns every gradcheck
/// into a determinism check for the backward kernels too.
pub fn check_gradient_with_threads<F>(
    f: F,
    x0: &Tensor,
    eps: f32,
    max_coords: usize,
    threads: usize,
) -> GradCheckReport
where
    F: Fn(&Var) -> Var,
{
    aero_tensor::parallel::with_threads(threads, || check_gradient(f, x0, eps, max_coords))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn passes_for_simple_composite() {
        let mut rng = StdRng::seed_from_u64(31);
        let x0 = Tensor::randn(&[3, 3], &mut rng);
        let report = check_gradient(|x| x.tanh().mul(x).mean(), &x0, 1e-3, 9);
        assert!(report.passes(1e-2), "max rel err {}", report.max_rel_error);
        assert_eq!(report.checked, 9);
    }

    #[test]
    fn threaded_check_reports_identical_error() {
        let mut rng = StdRng::seed_from_u64(32);
        let x0 = Tensor::randn(&[4, 4], &mut rng);
        let f = |x: &Var| x.tanh().mul(x).mean();
        let serial = check_gradient_with_threads(f, &x0, 1e-3, 8, 1);
        for threads in [2, 4, 8] {
            let par = check_gradient_with_threads(f, &x0, 1e-3, 8, threads);
            assert_eq!(
                par.max_rel_error.to_bits(),
                serial.max_rel_error.to_bits(),
                "gradcheck diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn vjp_check_passes_on_a_sum_sized_loss_and_sees_a_small_error() {
        // Σ y·W over 64 outputs: each gradient is O(1) and the loss
        // O(10), where f32 differences of the loss would be noise.
        let mut rng = StdRng::seed_from_u64(33);
        let x0 = Tensor::randn(&[4, 16], &mut rng).mul_scalar(2.0);
        let w = Tensor::randn(&[4, 16], &mut rng);
        let f = |x: &Var| x.tanh().mul(x);
        let report = check_vjp(f, &x0, &w, 1e-2, 64);
        assert!(report.passes(1e-3), "max rel err {}", report.max_rel_error);
        // The same values with every gradient 1% too large.
        let skewed = |x: &Var| {
            let y = f(x);
            y.add(&y.sub(&y.detach()).scale(0.01))
        };
        let report = check_vjp(skewed, &x0, &w, 1e-2, 64);
        assert!(!report.passes(1e-3), "a 1% error passed: {}", report.max_rel_error);
    }

    #[test]
    fn detects_wrong_gradient() {
        // A "loss" whose graph-side gradient is cut by detach will not
        // match finite differences of the true function.
        let x0 = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let report = check_gradient(
            |x| x.detach().mul(x).sum(), // analytic grad misses one factor
            &x0,
            1e-3,
            2,
        );
        assert!(!report.passes(1e-2));
    }
}
