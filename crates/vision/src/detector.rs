//! YOLO-lite: a single-scale grid detector supplying regions of interest.
//!
//! The paper trains YOLO on VisDrone and uses its detections as the ROIs
//! for region-level feature augmentation. This is a faithful miniature:
//! a convolutional backbone maps the image to a `g × g` grid; each cell
//! predicts objectness, a box (centre offset + size, all normalized), and
//! class logits; inference applies a confidence threshold and NMS. The
//! backbone convolutions run on the sharded parallel kernel layer, so
//! detections (and the ROIs downstream) are thread-count invariant.

use crate::VisionConfig;
use aero_nn::layers::Conv2d;
use aero_nn::optim::Adam;
use aero_nn::{Module, Var};
use aero_scene::{Annotation, BBox, ObjectClass};
use aero_tensor::Tensor;
use rand::Rng;

/// Channels per cell: objectness + (dx, dy, w, h) + class logits.
const BOX_FIELDS: usize = 5;

/// A detection produced by [`YoloLite::detect`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Predicted class.
    pub class: ObjectClass,
    /// Pixel-space box.
    pub bbox: BBox,
    /// Confidence in `[0, 1]` (objectness × class probability).
    pub confidence: f32,
}

impl Detection {
    /// Converts to an annotation, discarding confidence.
    pub fn to_annotation(&self) -> Annotation {
        Annotation { class: self.class, bbox: self.bbox }
    }
}

/// Single-scale grid detector.
#[derive(Debug, Clone)]
pub struct YoloLite {
    conv1: Conv2d,
    conv2: Conv2d,
    head: Conv2d,
    config: VisionConfig,
}

impl YoloLite {
    /// Creates an untrained detector.
    pub fn new<R: Rng + ?Sized>(config: VisionConfig, rng: &mut R) -> Self {
        let c = config.base_channels;
        let out = BOX_FIELDS + ObjectClass::ALL.len();
        YoloLite {
            conv1: Conv2d::new(3, c, 3, 2, 1, rng),
            conv2: Conv2d::new(c, 2 * c, 3, 2, 1, rng),
            head: Conv2d::new(2 * c, out, 1, 1, 0, rng),
            config,
        }
    }

    /// Grid side length (`image_size / 4`).
    pub fn grid(&self) -> usize {
        self.config.image_size / 4
    }

    fn raw_forward(&self, images: &Var) -> Var {
        let h = self.conv1.forward(images).silu();
        let h = self.conv2.forward(&h).silu();
        self.head.forward(&h) // [n, 5 + classes, g, g]
    }

    /// Builds the per-cell training target `[5 + classes, g, g]` from
    /// ground-truth annotations on an `image_size`² image.
    pub fn build_target(&self, boxes: &[Annotation]) -> Tensor {
        let g = self.grid();
        let s = self.config.image_size as f32;
        let n_class = ObjectClass::ALL.len();
        let mut t = Tensor::zeros(&[BOX_FIELDS + n_class, g, g]);
        for ann in boxes {
            let (cx, cy) = ann.bbox.center();
            let (u, v) = (cx / s, cy / s);
            if !(0.0..1.0).contains(&u) || !(0.0..1.0).contains(&v) {
                continue;
            }
            let gx = ((u * g as f32) as usize).min(g - 1);
            let gy = ((v * g as f32) as usize).min(g - 1);
            let dx = u * g as f32 - gx as f32;
            let dy = v * g as f32 - gy as f32;
            t.set(&[0, gy, gx], 1.0);
            t.set(&[1, gy, gx], dx);
            t.set(&[2, gy, gx], dy);
            t.set(&[3, gy, gx], (ann.bbox.width() / s).clamp(0.0, 1.0));
            t.set(&[4, gy, gx], (ann.bbox.height() / s).clamp(0.0, 1.0));
            for c in 0..n_class {
                t.set(&[BOX_FIELDS + c, gy, gx], 0.0);
            }
            t.set(&[BOX_FIELDS + ann.class.id(), gy, gx], 1.0);
        }
        t
    }

    /// Differentiable detection loss for one batch.
    fn loss(&self, images: &Tensor, targets: &Tensor) -> Var {
        let pred = self.raw_forward(&Var::constant(images.clone()));
        let n_class = ObjectClass::ALL.len();
        let tv = Var::constant(targets.clone());

        let obj_pred = pred.narrow(1, 0, 1).sigmoid();
        let obj_tgt = tv.narrow(1, 0, 1);
        // Positive cells are rare (an object covers one cell out of g²), so a
        // plain MSE is dominated by the easy negatives and objectness never
        // rises above the base rate. Up-weighting positive cells keeps the
        // detector from collapsing to "nothing anywhere".
        let obj_weight = Var::constant(targets.narrow(1, 0, 1).mul_scalar(9.0).add_scalar(1.0));
        let obj_loss = obj_pred.sub(&obj_tgt).powf(2.0).mul(&obj_weight).mean();

        // Positive-cell mask broadcast over box fields and classes. Box and
        // class terms are averaged over *positive* cells only — dividing by
        // n·g² (mostly empty cells) starves localization of gradient signal.
        let n_pos = targets.narrow(1, 0, 1).sum().max(1.0);
        let mask4 = Tensor::concat(&[&targets.narrow(1, 0, 1); 4], 1);
        let box_pred = pred.narrow(1, 1, 4).sigmoid();
        let box_tgt = tv.narrow(1, 1, 4);
        let box_loss =
            box_pred.sub(&box_tgt).mul(&Var::constant(mask4)).powf(2.0).sum().scale(1.0 / n_pos);

        let mask_c = {
            let one = targets.narrow(1, 0, 1);
            let refs: Vec<&Tensor> = std::iter::repeat_n(&one, n_class).collect();
            Tensor::concat(&refs, 1)
        };
        let cls_pred = pred
            .narrow(1, BOX_FIELDS, n_class)
            .permute(&[0, 2, 3, 1])
            .softmax_last_axis()
            .permute(&[0, 3, 1, 2]);
        let cls_tgt = tv.narrow(1, BOX_FIELDS, n_class);
        let cls_loss =
            cls_pred.sub(&cls_tgt).mul(&Var::constant(mask_c)).powf(2.0).sum().scale(1.0 / n_pos);

        obj_loss.scale(2.0).add(&box_loss).add(&cls_loss)
    }

    /// Trains on (image, annotations) pairs; returns per-epoch losses.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        samples: &[(Tensor, Vec<Annotation>)],
        epochs: usize,
        batch_size: usize,
        lr: f32,
        rng: &mut R,
    ) -> Vec<f32> {
        let mut opt = Adam::new(self.params(), lr);
        let targets: Vec<Tensor> = samples.iter().map(|(_, b)| self.build_target(b)).collect();
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut total = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(batch_size.max(1)) {
                let imgs: Vec<&Tensor> = chunk.iter().map(|&i| &samples[i].0).collect();
                let tgts: Vec<&Tensor> = chunk.iter().map(|&i| &targets[i]).collect();
                let x = Tensor::stack(&imgs);
                let t = Tensor::stack(&tgts);
                opt.zero_grad();
                let loss = self.loss(&x, &t);
                total += loss.value().item();
                batches += 1;
                loss.backward();
                opt.step();
            }
            history.push(if batches > 0 { total / batches as f32 } else { 0.0 });
        }
        history
    }

    /// Runs detection on one `[3, s, s]` image.
    pub fn detect(&self, image: &Tensor, conf_threshold: f32, nms_iou: f32) -> Vec<Detection> {
        let batch = image.reshape(&[1, 3, self.config.image_size, self.config.image_size]);
        let pred = aero_nn::no_grad(|| self.raw_forward(&Var::constant(batch))).to_tensor();
        let g = self.grid();
        let s = self.config.image_size as f32;
        let n_class = ObjectClass::ALL.len();
        let sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
        let mut dets = Vec::new();
        for gy in 0..g {
            for gx in 0..g {
                let obj = sigmoid(pred.get(&[0, 0, gy, gx]));
                // class softmax
                let logits: Vec<f32> =
                    (0..n_class).map(|c| pred.get(&[0, BOX_FIELDS + c, gy, gx])).collect();
                let mx = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let exps: Vec<f32> = logits.iter().map(|&l| (l - mx).exp()).collect();
                let sum: f32 = exps.iter().sum();
                let (best_c, best_p) = exps
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, &e)| (i, e / sum))
                    .unwrap_or((0, 0.0));
                let conf = obj * best_p;
                if conf < conf_threshold {
                    continue;
                }
                let dx = sigmoid(pred.get(&[0, 1, gy, gx]));
                let dy = sigmoid(pred.get(&[0, 2, gy, gx]));
                let w = sigmoid(pred.get(&[0, 3, gy, gx])) * s;
                let h = sigmoid(pred.get(&[0, 4, gy, gx])) * s;
                let cx = (gx as f32 + dx) / g as f32 * s;
                let cy = (gy as f32 + dy) / g as f32 * s;
                let bbox = BBox::new(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
                    .clip(self.config.image_size, self.config.image_size);
                if bbox.is_visible() {
                    dets.push(Detection {
                        class: ObjectClass::from_id(best_c),
                        bbox,
                        confidence: conf,
                    });
                }
            }
        }
        non_max_suppression(dets, nms_iou)
    }

    /// The configuration.
    pub fn config(&self) -> &VisionConfig {
        &self.config
    }
}

impl Module for YoloLite {
    fn params(&self) -> Vec<Var> {
        let mut p = self.conv1.params();
        p.extend(self.conv2.params());
        p.extend(self.head.params());
        p
    }
}

/// Greedy class-agnostic non-max suppression, highest confidence first.
pub fn non_max_suppression(mut dets: Vec<Detection>, iou_threshold: f32) -> Vec<Detection> {
    dets.sort_by(|a, b| {
        b.confidence.partial_cmp(&a.confidence).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut kept: Vec<Detection> = Vec::new();
    for d in dets {
        if kept.iter().all(|k| k.bbox.iou(&d.bbox) < iou_threshold) {
            kept.push(d);
        }
    }
    kept
}

/// Precision/recall of detections against ground truth at an IoU
/// threshold (greedy one-to-one matching).
pub fn detection_pr(
    detections: &[Detection],
    truth: &[Annotation],
    iou_threshold: f32,
) -> (f32, f32) {
    let mut matched = vec![false; truth.len()];
    let mut tp = 0usize;
    for d in detections {
        let best = truth
            .iter()
            .enumerate()
            .filter(|(i, t)| !matched[*i] && t.class == d.class)
            .map(|(i, t)| (i, t.bbox.iou(&d.bbox)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        if let Some((i, iou)) = best {
            if iou >= iou_threshold {
                matched[i] = true;
                tp += 1;
            }
        }
    }
    let precision = if detections.is_empty() { 0.0 } else { tp as f32 / detections.len() as f32 };
    let recall = if truth.is_empty() { 1.0 } else { tp as f32 / truth.len() as f32 };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_scene::{DatasetConfig, SceneGeneratorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn target_encoding_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = VisionConfig::tiny(); // 16px, grid 4
        let det = YoloLite::new(cfg, &mut rng);
        let ann = Annotation { class: ObjectClass::Car, bbox: BBox::new(4.0, 4.0, 8.0, 6.0) };
        let t = det.build_target(&[ann]);
        // centre (6, 5) -> cell (1, 1)
        assert_eq!(t.get(&[0, 1, 1]), 1.0);
        assert_eq!(t.get(&[BOX_FIELDS + ObjectClass::Car.id(), 1, 1]), 1.0);
        assert!((t.get(&[3, 1, 1]) - 4.0 / 16.0).abs() < 1e-6);
    }

    #[test]
    fn nms_removes_duplicates() {
        let mk = |x: f32, conf: f32| Detection {
            class: ObjectClass::Car,
            bbox: BBox::new(x, 0.0, x + 4.0, 4.0),
            confidence: conf,
        };
        let kept = non_max_suppression(vec![mk(0.0, 0.9), mk(0.5, 0.8), mk(10.0, 0.7)], 0.3);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].confidence, 0.9);
    }

    #[test]
    fn training_reduces_loss_and_finds_objects() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = VisionConfig::tiny();
        let ds = aero_scene::build_dataset(&DatasetConfig {
            n_scenes: 10,
            image_size: cfg.image_size,
            seed: 7,
            generator: SceneGeneratorConfig {
                min_objects: 5,
                max_objects: 12,
                night_probability: 0.0,
            },
        });
        let samples: Vec<(Tensor, Vec<Annotation>)> = ds
            .iter()
            .map(|item| (item.rendered.image.to_tensor(), item.rendered.boxes.clone()))
            .collect();
        let mut det = YoloLite::new(cfg, &mut rng);
        let history = det.train(&samples, 15, 5, 5e-3, &mut rng);
        assert!(
            history.last().unwrap() < history.first().unwrap(),
            "loss should fall: {history:?}"
        );
        // a trained detector should fire somewhere on a training image
        let dets = det.detect(&samples[0].0, 0.05, 0.4);
        assert!(!dets.is_empty(), "expected at least one detection");
    }

    #[test]
    fn detection_pr_perfect_match() {
        let truth =
            vec![Annotation { class: ObjectClass::Car, bbox: BBox::new(0.0, 0.0, 4.0, 4.0) }];
        let dets = vec![Detection {
            class: ObjectClass::Car,
            bbox: BBox::new(0.0, 0.0, 4.0, 4.0),
            confidence: 0.9,
        }];
        let (p, r) = detection_pr(&dets, &truth, 0.5);
        assert_eq!((p, r), (1.0, 1.0));
    }

    #[test]
    fn detection_pr_class_mismatch_is_fp() {
        let truth =
            vec![Annotation { class: ObjectClass::Car, bbox: BBox::new(0.0, 0.0, 4.0, 4.0) }];
        let dets = vec![Detection {
            class: ObjectClass::Bus,
            bbox: BBox::new(0.0, 0.0, 4.0, 4.0),
            confidence: 0.9,
        }];
        let (p, r) = detection_pr(&dets, &truth, 0.5);
        assert_eq!((p, r), (0.0, 0.0));
    }

    #[test]
    fn empty_inputs_are_safe() {
        let (p, r) = detection_pr(&[], &[], 0.5);
        assert_eq!((p, r), (0.0, 1.0));
        assert!(non_max_suppression(vec![], 0.5).is_empty());
    }
}
