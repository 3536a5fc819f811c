//! CLIP-lite: a contrastively trained joint text–image embedding space.
//!
//! The paper uses pretrained CLIP both to encode the target description
//! `G'_i` into the condition branch `C_g` and to compute the CLIP-score
//! metric. No checkpoint is available here, so this model is trained from
//! scratch with the symmetric InfoNCE objective on our paired synthetic
//! dataset. Both encoders run on the sharded parallel kernel layer, so
//! embeddings (and hence CLIP scores) do not vary with the thread count.

use crate::encoders::{ImageEncoder, TextEncoder};
use crate::VisionConfig;
use aero_nn::optim::Adam;
use aero_nn::{Module, Var};
use aero_tensor::Tensor;
use rand::Rng;

/// A paired training example: image tensor `[3, s, s]` + token ids.
#[derive(Debug, Clone)]
pub struct ClipPair {
    /// The image, channel-major.
    pub image: Tensor,
    /// Fixed-length token ids of its caption.
    pub tokens: Vec<usize>,
}

/// CLIP-lite model.
#[derive(Debug, Clone)]
pub struct ClipModel {
    image_encoder: ImageEncoder,
    text_encoder: TextEncoder,
    logit_scale: f32,
    config: VisionConfig,
}

impl ClipModel {
    /// Creates an untrained model.
    pub fn new<R: Rng + ?Sized>(vocab: usize, config: VisionConfig, rng: &mut R) -> Self {
        ClipModel {
            image_encoder: ImageEncoder::new(config, rng),
            text_encoder: TextEncoder::new(vocab, config, rng),
            logit_scale: 10.0,
            config,
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &VisionConfig {
        &self.config
    }

    /// The image tower (shared with BLIP fusion and region augmentation).
    pub fn image_encoder(&self) -> &ImageEncoder {
        &self.image_encoder
    }

    /// The text tower.
    pub fn text_encoder(&self) -> &TextEncoder {
        &self.text_encoder
    }

    /// L2-normalized image embeddings `[n, d]` (no gradient).
    ///
    /// # Panics
    ///
    /// Panics if `images` is not `[n, 3, s, s]` with the configured size.
    pub fn encode_image(&self, images: &Tensor) -> Tensor {
        let v = aero_nn::no_grad(|| self.image_encoder.embed(&Var::constant(images.clone())));
        normalize_rows(&v.to_tensor())
    }

    /// L2-normalized text embeddings `[n, d]` (no gradient).
    pub fn encode_text(&self, batch: &[Vec<usize>]) -> Tensor {
        let v = aero_nn::no_grad(|| self.text_encoder.embed(batch));
        normalize_rows(&v.to_tensor())
    }

    /// CLIP score of (image, caption): `100 · cos(image, text)` averaged
    /// over the batch — the metric reported in Table II.
    ///
    /// # Panics
    ///
    /// Panics if the batch sizes differ.
    pub fn clip_score(&self, images: &Tensor, batch: &[Vec<usize>]) -> f32 {
        let img = self.encode_image(images);
        let txt = self.encode_text(batch);
        assert_eq!(img.shape()[0], txt.shape()[0], "clip_score batch mismatch");
        let n = img.shape()[0];
        let d = img.shape()[1];
        let mut acc = 0.0;
        for i in 0..n {
            let a = img.narrow(0, i, 1).reshape(&[d]);
            let b = txt.narrow(0, i, 1).reshape(&[d]);
            acc += a.dot(&b);
        }
        100.0 * acc / n as f32
    }

    /// One symmetric InfoNCE loss over a batch (differentiable).
    fn contrastive_loss(&self, images: &Tensor, batch: &[Vec<usize>]) -> Var {
        let n = batch.len();
        let img = self.image_encoder.embed(&Var::constant(images.clone()));
        let txt = self.text_encoder.embed(batch);
        let img_n = normalize_rows_var(&img);
        let txt_n = normalize_rows_var(&txt);
        let logits = img_n.matmul(&txt_n.permute(&[1, 0])).scale(self.logit_scale); // [n, n]
        let targets = Tensor::eye(n);
        let loss_i = cross_entropy_rows(&logits, &targets);
        let loss_t = cross_entropy_rows(&logits.permute(&[1, 0]), &targets);
        loss_i.add(&loss_t).scale(0.5)
    }

    /// Trains with InfoNCE over shuffled mini-batches.
    ///
    /// Returns per-epoch mean losses (useful for convergence asserts).
    pub fn train_contrastive<R: Rng + ?Sized>(
        &mut self,
        pairs: &[ClipPair],
        epochs: usize,
        batch_size: usize,
        lr: f32,
        rng: &mut R,
    ) -> Vec<f32> {
        let mut params = self.image_encoder.params();
        params.extend(self.text_encoder.params());
        let mut opt = Adam::new(params, lr);
        let mut history = Vec::with_capacity(epochs);
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        for _ in 0..epochs {
            // Fisher-Yates shuffle with the caller's RNG.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(batch_size.max(2)) {
                if chunk.len() < 2 {
                    continue; // contrastive loss needs negatives
                }
                let images: Vec<Tensor> = chunk.iter().map(|&i| pairs[i].image.clone()).collect();
                let refs: Vec<&Tensor> = images.iter().collect();
                let image_batch = Tensor::stack(&refs);
                let tokens: Vec<Vec<usize>> =
                    chunk.iter().map(|&i| pairs[i].tokens.clone()).collect();
                opt.zero_grad();
                let loss = self.contrastive_loss(&image_batch, &tokens);
                epoch_loss += loss.value().item();
                batches += 1;
                loss.backward();
                opt.step();
            }
            history.push(if batches > 0 { epoch_loss / batches as f32 } else { 0.0 });
        }
        history
    }
}

impl Module for ClipModel {
    fn params(&self) -> Vec<Var> {
        let mut p = self.image_encoder.params();
        p.extend(self.text_encoder.params());
        p
    }
}

/// Row-wise L2 normalization of a `[n, d]` tensor.
fn normalize_rows(x: &Tensor) -> Tensor {
    let (n, d) = (x.shape()[0], x.shape()[1]);
    let mut out = x.clone();
    for i in 0..n {
        let row = &mut out.as_mut_slice()[i * d..(i + 1) * d];
        let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-8);
        for v in row {
            *v /= norm;
        }
    }
    out
}

/// Differentiable row-wise L2 normalization.
fn normalize_rows_var(x: &Var) -> Var {
    let sq = x.mul(x).sum_axis_keepdim(1).add_scalar(1e-8).sqrt();
    x.div(&sq)
}

/// Mean cross-entropy of row-softmax logits against one-hot targets.
fn cross_entropy_rows(logits: &Var, targets: &Tensor) -> Var {
    let n = logits.shape()[0] as f32;
    let probs = logits.softmax_last_axis().add_scalar(1e-9);
    probs.ln().mul(&Var::constant(targets.clone())).sum().scale(-1.0 / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_pairs(n: usize, cfg: VisionConfig, rng: &mut StdRng) -> Vec<ClipPair> {
        // Each pair couples a distinctly colored image with a distinct
        // token pattern so contrastive learning has signal.
        (0..n)
            .map(|i| {
                let mut img = Tensor::zeros(&[3, cfg.image_size, cfg.image_size]);
                let plane = cfg.image_size * cfg.image_size;
                let c = i % 3;
                for v in &mut img.as_mut_slice()[c * plane..(c + 1) * plane] {
                    *v = 0.8;
                }
                // small noise
                let noise =
                    Tensor::randn(&[3, cfg.image_size, cfg.image_size], rng).mul_scalar(0.05);
                let image = img.add(&noise).clamp(0.0, 1.0);
                let tokens = vec![4 + c; cfg.max_text_len];
                ClipPair { image, tokens }
            })
            .collect()
    }

    #[test]
    fn contrastive_training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = VisionConfig::tiny();
        let mut model = ClipModel::new(20, cfg, &mut rng);
        let pairs = toy_pairs(12, cfg, &mut rng);
        let history = model.train_contrastive(&pairs, 6, 6, 5e-3, &mut rng);
        assert!(
            history.last().unwrap() < history.first().unwrap(),
            "loss should fall: {history:?}"
        );
    }

    #[test]
    fn trained_clip_aligns_matching_pairs() {
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = VisionConfig::tiny();
        let mut model = ClipModel::new(20, cfg, &mut rng);
        let pairs = toy_pairs(12, cfg, &mut rng);
        model.train_contrastive(&pairs, 12, 6, 5e-3, &mut rng);
        // matched caption should score higher than a mismatched one
        let img = pairs[0].image.reshape(&[1, 3, cfg.image_size, cfg.image_size]);
        let matched = model.clip_score(&img, &[pairs[0].tokens.clone()]);
        let mismatched = model.clip_score(&img, &[pairs[1].tokens.clone()]);
        assert!(matched > mismatched, "matched {matched} vs mismatched {mismatched}");
    }

    #[test]
    fn embeddings_are_normalized() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = VisionConfig::tiny();
        let model = ClipModel::new(20, cfg, &mut rng);
        let img = Tensor::randn(&[3, 3, cfg.image_size, cfg.image_size], &mut rng);
        let e = model.encode_image(&img);
        for i in 0..3 {
            let norm = e.narrow(0, i, 1).norm();
            assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
        }
    }

    #[test]
    fn clip_score_bounded() {
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = VisionConfig::tiny();
        let model = ClipModel::new(20, cfg, &mut rng);
        let img = Tensor::rand_uniform(&[2, 3, cfg.image_size, cfg.image_size], 0.0, 1.0, &mut rng);
        let score = model.clip_score(&img, &[vec![1; cfg.max_text_len], vec![2; cfg.max_text_len]]);
        assert!((-100.0..=100.0).contains(&score));
    }

    #[test]
    fn cross_entropy_prefers_correct_diagonal() {
        let good = Var::constant(Tensor::from_vec(vec![5.0, -5.0, -5.0, 5.0], &[2, 2]));
        let bad = Var::constant(Tensor::from_vec(vec![-5.0, 5.0, 5.0, -5.0], &[2, 2]));
        let t = Tensor::eye(2);
        assert!(
            cross_entropy_rows(&good, &t).value().item()
                < cross_entropy_rows(&bad, &t).value().item()
        );
    }
}
