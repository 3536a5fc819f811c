//! One function per table/figure of the paper.

use crate::protocol::{EvalMetrics, ExperimentScale, Protocol};
use aero_baselines::{all_baselines, BaselineConfig};
use aero_metrics::{MetricRow, MetricTable};
use aero_scene::{
    build_classical_dataset, build_dataset, DatasetConfig, Image, ObjectCountStats,
    SceneGeneratorConfig, TimeOfDay, Viewpoint,
};
use aero_tensor::Tensor;
use aero_text::coverage::keypoint_coverage;
use aero_text::llm::{LlmProvider, SimulatedLlm};
use aero_text::prompt::PromptTemplate;
use aerodiffusion::viewpoint::{night_synthesis, viewpoint_transition};
use aerodiffusion::{AblationVariant, AeroDiffusionPipeline, FitOptions, SubstrateBundle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

// ------------------------------------------------------------------ Fig 1

/// Result of the Fig. 1 dataset-complexity comparison.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// Object-count statistics of the aerial dataset.
    pub aerial: ObjectCountStats,
    /// Object-count statistics of the classical dataset.
    pub classical: ObjectCountStats,
}

/// Reproduces Fig. 1: object-count distributions of an aerial
/// (VisDrone-like) vs a classical (FlintStones-like) dataset.
pub fn run_fig1(scale: ExperimentScale, seed: u64) -> Fig1Result {
    let n = match scale {
        ExperimentScale::Smoke => 20,
        ExperimentScale::Small => 200,
        ExperimentScale::Paper => 2000,
    };
    let aerial = build_dataset(&DatasetConfig {
        n_scenes: n,
        image_size: 16,
        seed,
        generator: SceneGeneratorConfig::default(),
    });
    let classical = build_classical_dataset(n, 16, seed);
    Fig1Result { aerial: aerial.object_count_stats(), classical: classical.object_count_stats() }
}

// ------------------------------------------------------------------ Fig 3

/// Result of the Fig. 3 prompt contrast.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// The rendered traditional prompt.
    pub traditional_prompt: String,
    /// Caption produced under the traditional prompt.
    pub traditional_caption: String,
    /// Coverage score of the traditional caption.
    pub traditional_score: f32,
    /// The rendered keypoint-aware prompt.
    pub keypoint_prompt: String,
    /// Caption produced under the keypoint-aware prompt.
    pub keypoint_caption: String,
    /// Coverage score of the keypoint caption.
    pub keypoint_score: f32,
}

/// Reproduces Fig. 3: the traditional vs keypoint-aware prompt contrast
/// on one scene.
pub fn run_fig3(seed: u64) -> Fig3Result {
    let ds = build_dataset(&DatasetConfig {
        n_scenes: 1,
        image_size: 32,
        seed,
        generator: SceneGeneratorConfig::default(),
    });
    let spec = &ds.items[0].spec;
    let llm = SimulatedLlm::new(LlmProvider::KeypointAware);
    let trad = PromptTemplate::traditional();
    let keyp = PromptTemplate::keypoint_aware();
    let traditional_caption = llm.describe(spec, &trad, &mut StdRng::seed_from_u64(seed));
    let keypoint_caption = llm.describe(spec, &keyp, &mut StdRng::seed_from_u64(seed));
    Fig3Result {
        traditional_prompt: trad.render(spec),
        traditional_score: keypoint_coverage(&traditional_caption, spec).score(),
        traditional_caption,
        keypoint_prompt: keyp.render(spec),
        keypoint_score: keypoint_coverage(&keypoint_caption, spec).score(),
        keypoint_caption,
    }
}

// ---------------------------------------------------------------- Table I

/// Result of the Table I SOTA comparison.
#[derive(Debug)]
pub struct Table1Result {
    /// (model name, metrics) in the paper's row order, AeroDiffusion last.
    pub rows: Vec<(String, EvalMetrics)>,
}

impl Table1Result {
    /// Formats the result as the paper's Table I.
    pub fn table(&self) -> MetricTable {
        let mut t = MetricTable::new(
            "Table I: Performance Comparison of SOTA Models for Aerial Image Synthesis",
            &["FID ↓", "PSNR ↑", "KID ↓"],
        );
        for (name, m) in &self.rows {
            t.push(MetricRow::new(name.clone(), vec![m.fid, m.psnr, m.kid]));
        }
        t
    }

    /// Metrics for a named row.
    pub fn metrics(&self, name: &str) -> Option<EvalMetrics> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, m)| *m)
    }
}

/// Reproduces Table I: trains the five baselines and AeroDiffusion under
/// an identical budget and scores FID/PSNR/KID on the eval split.
pub fn run_table1(scale: ExperimentScale, seed: u64) -> Table1Result {
    let protocol = Protocol::new(scale, seed);
    let cfg = scale.pipeline_config();

    // One shared substrate bundle (CLIP/VAE/detector) plays the role of
    // everyone's pretrained components.
    let captions = aerodiffusion::substrate::caption_dataset(
        &protocol.train,
        LlmProvider::KeypointAware,
        &PromptTemplate::keypoint_aware(),
        seed,
    );
    let bundle = SubstrateBundle::train(&protocol.train, &captions, &cfg, seed);

    let base_cfg = match scale {
        ExperimentScale::Smoke => BaselineConfig::smoke(cfg.vision.image_size),
        _ => BaselineConfig {
            image_size: cfg.vision.image_size,
            diffusion: cfg.diffusion,
            epochs: cfg.diffusion_epochs,
            batch_size: cfg.diffusion_batch_size,
            lr: cfg.diffusion_lr,
            unet_channels: cfg.unet_channels,
        },
    };

    let mut rows = Vec::new();
    for (idx, mut model) in all_baselines(base_cfg).into_iter().enumerate() {
        // distinct seeds per model so initializations are independent
        let model_seed = seed.wrapping_add(1 + idx as u64).wrapping_mul(0x9E37_79B9);
        model.fit(&protocol.train, &bundle, model_seed);
        let mut rng = StdRng::seed_from_u64(model_seed ^ 0xBEEF);
        let generated: Vec<Image> =
            protocol.eval.iter().map(|item| model.generate(item, &bundle, &mut rng)).collect();
        rows.push((model.name().to_string(), protocol.score(&generated)));
    }

    let pipeline = AeroDiffusionPipeline::fit(&protocol.train, cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);
    let generated = pipeline.generate_eval(&protocol.eval, &mut rng);
    rows.push(("AeroDiffusion".to_string(), protocol.score(&generated)));

    Table1Result { rows }
}

// --------------------------------------------------------------- Table II

/// Result of the Table II caption-source comparison.
#[derive(Debug)]
pub struct Table2Result {
    /// (provider name, clip score, fid) in the paper's row order.
    pub rows: Vec<(String, f32, f32)>,
}

impl Table2Result {
    /// Formats the result as the paper's Table II.
    pub fn table(&self) -> MetricTable {
        let mut t = MetricTable::new(
            "Table II: Evaluation for Keypoint-Aware Text Generation",
            &["CLIP SCORE ↑", "FID ↓"],
        );
        for (name, clip, fid) in &self.rows {
            t.push(MetricRow::new(name.clone(), vec![*clip, *fid]));
        }
        t
    }

    /// (clip score, fid) of a named row.
    pub fn metrics(&self, name: &str) -> Option<(f32, f32)> {
        self.rows.iter().find(|(n, _, _)| n == name).map(|(_, c, f)| (*c, *f))
    }
}

/// Reproduces Table II: retrains the conditional pipeline with captions
/// from each (simulated) LLM and scores CLIP alignment + FID. A single
/// reference CLIP (trained on keypoint captions, standing in for the
/// pretrained CLIP the paper scores with) scores every provider.
pub fn run_table2(scale: ExperimentScale, seed: u64) -> Table2Result {
    let protocol = Protocol::new(scale, seed);
    let cfg = scale.pipeline_config();

    // Reference scorer.
    let ref_captions = aerodiffusion::substrate::caption_dataset(
        &protocol.train,
        LlmProvider::KeypointAware,
        &PromptTemplate::keypoint_aware(),
        seed,
    );
    let ref_bundle = SubstrateBundle::train(&protocol.train, &ref_captions, &cfg, seed);

    let mut rows = Vec::new();
    for provider in LlmProvider::ALL {
        let options = FitOptions { provider, ..FitOptions::default() };
        let (pipeline, _) = AeroDiffusionPipeline::fit_with(&protocol.train, cfg, seed, &options)
            .expect("uncheckpointed training performs no fallible i/o");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let generated = pipeline.generate_eval(&protocol.eval, &mut rng);

        // Target captions for alignment scoring: this provider's output on
        // the eval scenes.
        let llm = SimulatedLlm::new(provider);
        let targets: Vec<Vec<usize>> = protocol
            .eval
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let cap = llm.describe(
                    &item.spec,
                    &PromptTemplate::keypoint_aware(),
                    &mut StdRng::seed_from_u64(seed ^ i as u64),
                );
                ref_bundle.tokenizer.encode(&cap)
            })
            .collect();
        let tensors: Vec<Tensor> = generated.iter().map(Image::to_tensor).collect();
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let clip_score = ref_bundle.clip.clip_score(&Tensor::stack(&refs), &targets);
        let metrics = protocol.score(&generated);
        rows.push((provider.name().to_string(), clip_score, metrics.fid));
    }
    Table2Result { rows }
}

// -------------------------------------------------------------- Table III

/// One Table III row: a viewpoint transition.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Excerpt of the reference description `G`.
    pub reference_description: String,
    /// Excerpt of the requirement `G'`.
    pub target_description: String,
    /// The requested viewpoint.
    pub target_viewpoint: Viewpoint,
    /// CLIP alignment of the generated image with `G'`.
    pub alignment_to_target: f32,
    /// CLIP alignment of the generated image with the original `G`.
    pub alignment_to_reference: f32,
}

/// Result of the Table III viewpoint-transition study.
#[derive(Debug)]
pub struct Table3Result {
    /// The three transition rows.
    pub rows: Vec<Table3Row>,
    /// Generated images, aligned with `rows`.
    pub images: Vec<Image>,
}

/// Reproduces Table III: three reference scenes re-synthesized from new
/// viewpoints via edited target descriptions `G'`.
pub fn run_table3(scale: ExperimentScale, seed: u64) -> Table3Result {
    let protocol = Protocol::new(scale, seed);
    let cfg = scale.pipeline_config();
    let pipeline = AeroDiffusionPipeline::fit(&protocol.train, cfg, seed);

    let targets = [
        Viewpoint { altitude: 0.85, pitch_deg: 60.0, heading_deg: 20.0 },
        Viewpoint { altitude: 0.45, pitch_deg: 70.0, heading_deg: 0.0 },
        Viewpoint { altitude: 0.9, pitch_deg: 55.0, heading_deg: 180.0 },
    ];
    let mut rows = Vec::new();
    let mut images = Vec::new();
    for (i, vp) in targets.iter().enumerate() {
        let item = &protocol.eval.items[i % protocol.eval.len()];
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64 + 77));
        let result = viewpoint_transition(&pipeline, item, *vp, &mut rng);
        let score = |caption: &str, image: &Image| -> f32 {
            let tokens = pipeline.bundle().tokenizer.encode(caption);
            let t = image.to_tensor();
            let batch = t.reshape(&[1, 3, t.shape()[1], t.shape()[2]]);
            pipeline.bundle().clip.clip_score(&batch, &[tokens])
        };
        rows.push(Table3Row {
            alignment_to_target: score(&result.target_description, &result.image),
            alignment_to_reference: score(&result.reference_description, &result.image),
            reference_description: result.reference_description,
            target_description: result.target_description,
            target_viewpoint: *vp,
        });
        images.push(result.image);
    }
    Table3Result { rows, images }
}

// --------------------------------------------------------------- Table IV

/// Result of the Table IV ablation study.
#[derive(Debug)]
pub struct Table4Result {
    /// (variant label, metrics) in the paper's row order.
    pub rows: Vec<(String, EvalMetrics)>,
}

impl Table4Result {
    /// Formats the result as the paper's Table IV.
    pub fn table(&self) -> MetricTable {
        let mut t = MetricTable::new(
            "Table IV: Ablation study (OD = object detection for feature augmentation)",
            &["FID ↓", "PSNR ↑", "KID ↓"],
        );
        for (name, m) in &self.rows {
            t.push(MetricRow::new(name.clone(), vec![m.fid, m.psnr, m.kid]));
        }
        t
    }

    /// Metrics of a named row.
    pub fn metrics(&self, label: &str) -> Option<EvalMetrics> {
        self.rows.iter().find(|(n, _)| n == label).map(|(_, m)| *m)
    }
}

/// Reproduces Table IV: the cumulative component ladder
/// base SD → +BLIP → +keypoint text → +OD (full).
pub fn run_table4(scale: ExperimentScale, seed: u64) -> Table4Result {
    let protocol = Protocol::new(scale, seed);
    let cfg = scale.pipeline_config();
    let mut rows = Vec::new();
    for variant in AblationVariant::ALL {
        let options = FitOptions { variant, ..FitOptions::default() };
        let (pipeline, _) = AeroDiffusionPipeline::fit_with(&protocol.train, cfg, seed, &options)
            .expect("uncheckpointed training performs no fallible i/o");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAB1A);
        let generated = pipeline.generate_eval(&protocol.eval, &mut rng);
        rows.push((variant.label().to_string(), protocol.score(&generated)));
    }
    Table4Result { rows }
}

// ------------------------------------------------------------- Figs 4 & 5

/// A saved gallery of generated samples.
#[derive(Debug)]
pub struct SampleGallery {
    /// (label, generated image, mean luminance).
    pub samples: Vec<(String, Image, f32)>,
    /// Reference images aligned with `samples` (empty if not applicable).
    pub references: Vec<Image>,
}

impl SampleGallery {
    /// Writes every sample (and reference) as PPM files under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_ppm(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (i, (label, img, _)) in self.samples.iter().enumerate() {
            let safe: String =
                label.chars().map(|c| if c.is_alphanumeric() { c } else { '_' }).collect();
            img.save_ppm(dir.join(format!("{i:02}_{safe}.ppm")))?;
        }
        for (i, r) in self.references.iter().enumerate() {
            r.save_ppm(dir.join(format!("{i:02}_reference.ppm")))?;
        }
        Ok(())
    }
}

/// Reproduces Fig. 4: daytime samples from AeroDiffusion next to their
/// reference scenes.
pub fn run_fig4(scale: ExperimentScale, seed: u64) -> SampleGallery {
    let protocol = Protocol::new(scale, seed);
    let cfg = scale.pipeline_config();
    let pipeline = AeroDiffusionPipeline::fit(&protocol.train, cfg, seed);
    let mut samples = Vec::new();
    let mut references = Vec::new();
    let day_items: Vec<_> =
        protocol.eval.iter().filter(|i| i.spec.time == TimeOfDay::Day).take(4).collect();
    for (i, item) in day_items.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ (1000 + i as u64));
        let img = pipeline.generate(item, &mut rng);
        let lum = img.mean_luminance();
        samples.push((format!("aerodiffusion_day_{i}"), img, lum));
        references.push(item.rendered.image.clone());
    }
    SampleGallery { samples, references }
}

/// Reproduces Fig. 5: nighttime samples with explicit lighting text
/// ("high-noise condition").
pub fn run_fig5(scale: ExperimentScale, seed: u64) -> SampleGallery {
    let protocol = Protocol::new(scale, seed);
    let cfg = scale.pipeline_config();
    let pipeline = AeroDiffusionPipeline::fit(&protocol.train, cfg, seed);
    let mut samples = Vec::new();
    let mut references = Vec::new();
    for (i, item) in protocol.eval.iter().take(3).enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ (2000 + i as u64));
        let result = night_synthesis(&pipeline, item, &mut rng);
        samples.push((format!("aerodiffusion_night_{i}"), result.image, result.luminance));
        references.push(aerodiffusion::viewpoint::night_reference(item, cfg.vision.image_size));
    }
    SampleGallery { samples, references }
}
