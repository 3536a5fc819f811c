//! Optimizers.
//!
//! The paper trains with Adam (learning rate 1e-5, weight decay 1e-5);
//! [`Adam`] implements that with decoupled weight decay (AdamW-style) so
//! the decay setting matches the reference configuration.

use crate::artifact::ModelError;
use crate::autograd::Var;
use aero_tensor::Tensor;

/// A snapshot of Adam's adaptive state: the bias-correction step counter
/// and both moment estimates, in parameter order.
///
/// Restoring this (plus the parameter values themselves) continues
/// training bit-identically — the checkpoint/resume contract.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Number of updates applied so far (drives bias correction).
    pub step: u64,
    /// First-moment estimates, one per parameter.
    pub m: Vec<Tensor>,
    /// Second-moment estimates, one per parameter.
    pub v: Vec<Tensor>,
}

/// Exponential-decay rate of the first-moment estimate.
const BETA1: f32 = 0.9;
/// Exponential-decay rate of the second-moment estimate.
const BETA2: f32 = 0.999;
/// Denominator floor of the update.
const EPS: f32 = 1e-8;

/// Adam optimizer (betas `(0.9, 0.999)`) with optional decoupled weight
/// decay.
///
/// # Example
///
/// ```
/// use aero_nn::{optim::Adam, Var};
/// use aero_tensor::Tensor;
///
/// let p = Var::parameter(Tensor::from_vec(vec![1.0], &[1]));
/// let mut opt = Adam::new(vec![p.clone()], 0.1);
/// for _ in 0..100 {
///     p.zero_grad();
///     p.mul(&p).sum().backward();
///     opt.step();
/// }
/// assert!(p.value().item().abs() < 0.5);
/// ```
#[derive(Debug)]
pub struct Adam {
    params: Vec<Var>,
    lr: f32,
    weight_decay: f32,
    step: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with no weight decay.
    pub fn new(params: Vec<Var>, lr: f32) -> Self {
        let m = params.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        let v = params.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        Adam { params, lr, weight_decay: 0.0, step: 0, m, v }
    }

    /// Sets decoupled weight decay (the paper uses `1e-5`).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one update using the gradients currently stored on the
    /// parameters. Parameters without a gradient are skipped.
    pub fn step(&mut self) {
        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - BETA1.powf(t);
        let bc2 = 1.0 - BETA2.powf(t);
        for (i, p) in self.params.iter().enumerate() {
            let Some(grad) = p.grad() else { continue };
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mv, vv), g) in
                m.as_mut_slice().iter_mut().zip(v.as_mut_slice().iter_mut()).zip(grad.as_slice())
            {
                *mv = BETA1 * *mv + (1.0 - BETA1) * g;
                *vv = BETA2 * *vv + (1.0 - BETA2) * g * g;
            }
            let mut value = p.to_tensor();
            let lr = self.lr;
            let wd = self.weight_decay;
            for ((x, mv), vv) in value.as_mut_slice().iter_mut().zip(m.as_slice()).zip(v.as_slice())
            {
                let mhat = mv / bc1;
                let vhat = vv / bc2;
                *x -= lr * (mhat / (vhat.sqrt() + EPS) + wd * *x);
            }
            p.assign(value);
        }
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// The parameters this optimizer updates, in registration order
    /// (what a training checkpoint saves and restores).
    pub fn params(&self) -> &[Var] {
        &self.params
    }

    /// Snapshots the adaptive state for checkpointing or rollback.
    pub fn export_state(&self) -> AdamState {
        AdamState { step: self.step, m: self.m.clone(), v: self.v.clone() }
    }

    /// Restores state captured by [`Adam::export_state`], continuing the
    /// update sequence bit-identically.
    ///
    /// # Errors
    ///
    /// [`ModelError::Corrupt`] when the moment count or any moment shape
    /// disagrees with this optimizer's parameters; the optimizer is left
    /// untouched on error.
    pub fn restore_state(&mut self, state: AdamState) -> Result<(), ModelError> {
        if state.m.len() != self.params.len() || state.v.len() != self.params.len() {
            return Err(ModelError::corrupt(format!(
                "adam state holds {}+{} moments for {} parameters",
                state.m.len(),
                state.v.len(),
                self.params.len()
            )));
        }
        for (i, p) in self.params.iter().enumerate() {
            let shape = p.shape();
            if state.m[i].shape() != shape || state.v[i].shape() != shape {
                return Err(ModelError::corrupt(format!(
                    "adam moment {i} shape {:?}/{:?} does not match parameter shape {shape:?}",
                    state.m[i].shape(),
                    state.v[i].shape()
                )));
            }
        }
        self.step = state.step;
        self.m = state.m;
        self.v = state.v;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        let p = Var::parameter(Tensor::from_vec(vec![5.0, -3.0], &[2]));
        let mut opt = Adam::new(vec![p.clone()], 0.2);
        for _ in 0..200 {
            opt.zero_grad();
            let loss = p.mul(&p).sum();
            loss.backward();
            opt.step();
        }
        assert!(p.value().abs().max() < 0.1);
    }

    #[test]
    fn skips_params_without_grad() {
        let p = Var::parameter(Tensor::from_vec(vec![1.0], &[1]));
        let before = p.value().item();
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        opt.step();
        assert_eq!(p.value().item(), before);
    }

    #[test]
    fn weight_decay_shrinks_unused_weights() {
        let p = Var::parameter(Tensor::from_vec(vec![10.0], &[1]));
        let q = Var::parameter(Tensor::from_vec(vec![1.0], &[1]));
        let mut opt = Adam::new(vec![p.clone(), q.clone()], 0.01).with_weight_decay(0.5);
        for _ in 0..50 {
            opt.zero_grad();
            // loss depends only on q; p should still decay
            q.mul(&q).sum().backward();
            // give p a zero-ish grad so it participates
            p.scale(0.0).sum().backward();
            opt.step();
        }
        assert!(p.value().item() < 10.0, "weight decay should shrink p");
    }

    /// The checkpoint contract: restoring exported state (through the
    /// container) continues training on the exact same trajectory, bit
    /// for bit, as never having stopped.
    #[test]
    fn state_round_trip_continues_training_bit_identically() {
        use crate::artifact::{ArtifactBuilder, ModelArtifact};
        let quad_step = |p: &Var, opt: &mut Adam| {
            opt.zero_grad();
            p.mul(p).sum().backward();
            opt.step();
        };
        let p = Var::parameter(Tensor::from_vec(vec![3.0, -1.5, 0.25], &[3]));
        let mut opt = Adam::new(vec![p.clone()], 0.07).with_weight_decay(1e-3);
        for _ in 0..17 {
            quad_step(&p, &mut opt);
        }
        let saved_params = p.to_tensor();
        let state = opt.export_state();
        let mut builder = ArtifactBuilder::new();
        builder.add_f32("m", &state.m[0]);
        builder.add_f32("v", &state.v[0]);
        let saved = ModelArtifact::from_bytes(builder.to_bytes()).unwrap();

        // Reference: the uninterrupted run.
        for _ in 0..25 {
            quad_step(&p, &mut opt);
        }
        let reference = p.to_tensor();

        // Resumed: fresh parameter + optimizer, state restored from bytes.
        let q = Var::parameter(saved_params);
        let mut opt2 = Adam::new(vec![q.clone()], 0.07).with_weight_decay(1e-3);
        let restored = AdamState {
            step: state.step,
            m: vec![saved.tensor("m").unwrap()],
            v: vec![saved.tensor("v").unwrap()],
        };
        opt2.restore_state(restored).unwrap();
        for _ in 0..25 {
            quad_step(&q, &mut opt2);
        }
        assert_eq!(
            reference.as_slice(),
            q.to_tensor().as_slice(),
            "resumed trajectory must be bit-identical"
        );
    }

    #[test]
    fn restore_rejects_mismatched_state() {
        let p = Var::parameter(Tensor::zeros(&[2]));
        let mut opt = Adam::new(vec![p], 0.1);
        let bad = AdamState { step: 1, m: vec![Tensor::zeros(&[3])], v: vec![Tensor::zeros(&[3])] };
        assert!(opt.restore_state(bad).is_err());
        let empty = AdamState { step: 1, m: Vec::new(), v: Vec::new() };
        assert!(opt.restore_state(empty).is_err());
    }
}
