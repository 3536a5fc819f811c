//! The diffusion training loop (Eq. 6 of the paper).

use crate::schedule::NoiseSchedule;
use crate::unet::CondUnet;
use crate::DiffusionConfig;
use aero_nn::optim::Adam;
use aero_nn::{Module, Var};
use aero_tensor::Tensor;
use rand::Rng;

/// One training batch: latents plus (optionally) per-item conditions.
#[derive(Debug, Clone)]
pub struct TrainBatch {
    /// Clean latents `[n, c, h, w]`.
    pub z0: Tensor,
    /// Condition vectors `[n, cond_dim]`, or `None` for unconditional.
    pub cond: Option<Tensor>,
}

/// Trainer minimizing `E‖ε − ε_θ(z_t, t, C)‖²` with condition dropout for
/// classifier-free guidance.
#[derive(Debug)]
pub struct DiffusionTrainer {
    schedule: NoiseSchedule,
    config: DiffusionConfig,
}

impl DiffusionTrainer {
    /// Creates a trainer; the schedule is derived from the config.
    pub fn new(config: DiffusionConfig) -> Self {
        DiffusionTrainer { schedule: NoiseSchedule::new(config.schedule, config.timesteps), config }
    }

    /// The precomputed noise schedule.
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// The configuration.
    pub fn config(&self) -> &DiffusionConfig {
        &self.config
    }

    /// Builds the differentiable loss for one batch without stepping.
    ///
    /// `cond` may carry gradients (a `Var`) so that condition-network
    /// parameters are updated jointly, as the paper specifies.
    pub fn loss<R: Rng + ?Sized>(
        &self,
        unet: &CondUnet,
        z0: &Tensor,
        cond: Option<&Var>,
        rng: &mut R,
    ) -> Var {
        let n = z0.shape()[0];
        let per_item: usize = z0.numel() / n;
        let eps = Tensor::randn(z0.shape(), rng);
        // Per-item timesteps: each sample in the batch trains a different
        // noise level, which substantially improves step efficiency on
        // small datasets.
        let ts: Vec<usize> = (0..n).map(|_| self.schedule.sample_timestep(rng)).collect();
        let mut z_t = Tensor::zeros(z0.shape());
        for (i, &t) in ts.iter().enumerate() {
            let zi = z0.narrow(0, i, 1);
            let ei = eps.narrow(0, i, 1);
            let noised = self.schedule.q_sample(&zi, t, &ei);
            z_t.as_mut_slice()[i * per_item..(i + 1) * per_item].copy_from_slice(noised.as_slice());
        }
        let drop = cond.is_some() && rng.gen_bool(self.config.cond_dropout);
        let effective_cond = if drop { None } else { cond };
        let pred = unet.forward(&Var::constant(z_t), &ts, effective_cond);
        pred.mse_loss(&eps)
    }

    /// One optimizer step on a fixed-condition batch; returns the loss.
    pub fn train_step<R: Rng + ?Sized>(
        &self,
        unet: &CondUnet,
        opt: &mut Adam,
        batch: &TrainBatch,
        rng: &mut R,
    ) -> f32 {
        optimizer_step(opt, || {
            let cond_var = batch.cond.as_ref().map(|c| Var::constant(c.clone()));
            self.loss(unet, &batch.z0, cond_var.as_ref(), rng)
        })
    }

    /// Trains over epochs of shuffled batches; returns per-epoch losses.
    pub fn train<R: Rng + ?Sized>(
        &self,
        unet: &CondUnet,
        data: &[TrainBatch],
        epochs: usize,
        lr: f32,
        rng: &mut R,
    ) -> Vec<f32> {
        let mut opt = Adam::new(unet.params(), lr).with_weight_decay(1e-5);
        let mut history = Vec::with_capacity(epochs);
        let mut order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..epochs {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut total = 0.0;
            for &i in &order {
                total += self.train_step(unet, &mut opt, &data[i], rng);
            }
            history.push(if data.is_empty() { 0.0 } else { total / data.len() as f32 });
        }
        history
    }
}

/// One optimizer step: zero the gradients, build the loss, run backward
/// and step `opt`. Records the `train.step` span and the `train.steps`,
/// `train.last_loss` and `train.step_time_us` metrics; returns the loss.
pub(crate) fn optimizer_step(opt: &mut Adam, loss: impl FnOnce() -> Var) -> f32 {
    let _span = aero_obs::span!("train.step");
    // lint: nondet-ok(wall-clock feeds the step-duration metric only, never tensors)
    let start = std::time::Instant::now();
    opt.zero_grad();
    let loss = loss();
    let value = loss.value().item();
    loss.backward();
    opt.step();
    aero_obs::counter!("train.steps").inc();
    aero_obs::gauge!("train.last_loss").set(f64::from(value));
    aero_obs::histogram!("train.step_time_us", aero_obs::Histogram::exponential_us())
        .observe(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unet::UnetConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_reduces_noise_prediction_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let unet = CondUnet::new(
            UnetConfig {
                in_channels: 2,
                base_channels: 4,
                cond_dim: 0,
                time_embed_dim: 8,
                cond_tokens: 0,
                spatial_cond_cells: 0,
            },
            &mut rng,
        );
        let trainer = DiffusionTrainer::new(DiffusionConfig::small());
        // A single structured latent repeated: the model should learn the
        // noise residual quickly.
        let z0 = {
            let mut t = Tensor::zeros(&[4, 2, 8, 8]);
            for v in t.as_mut_slice().iter_mut().step_by(3) {
                *v = 1.0;
            }
            t
        };
        let data = vec![TrainBatch { z0, cond: None }];
        let history = trainer.train(&unet, &data, 30, 2e-3, &mut rng);
        let early: f32 = history[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = history[history.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(late < early, "loss should fall: early {early} late {late}");
    }

    #[test]
    fn conditional_loss_accepts_var_condition() {
        let mut rng = StdRng::seed_from_u64(2);
        let unet = CondUnet::new(
            UnetConfig {
                in_channels: 2,
                base_channels: 4,
                cond_dim: 3,
                time_embed_dim: 8,
                cond_tokens: 1,
                spatial_cond_cells: 16,
            },
            &mut rng,
        );
        let trainer = DiffusionTrainer::new(DiffusionConfig::small());
        let z0 = Tensor::randn(&[2, 2, 8, 8], &mut rng);
        let cond = Var::parameter(Tensor::randn(&[2, 3], &mut rng));
        // With dropout possible, try a few times: at least one pass must
        // push gradients into the condition.
        let mut got_grad = false;
        for _ in 0..10 {
            cond.zero_grad();
            let loss = trainer.loss(&unet, &z0, Some(&cond), &mut rng);
            loss.backward();
            if cond.grad().is_some() {
                got_grad = true;
                break;
            }
        }
        assert!(got_grad, "condition should receive gradients (joint update)");
    }

    #[test]
    fn paper_config_values() {
        let c = DiffusionConfig::paper();
        assert_eq!(c.timesteps, 1000);
        assert_eq!(c.ddim_steps, 250);
        assert_eq!(c.guidance_scale, 7.0);
    }
}
