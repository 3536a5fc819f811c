//! The typed task/conditioning API.
//!
//! Every generation workload — plain text-to-image, cross-view
//! translation with a homography prior, keypoint-box inpainting, and the
//! super-resolution cascade — is described by one [`TaskSpec`] value.
//! The pipeline lowers a spec to a [`ConditionSource`] (the image, source
//! caption `G`, target description `G'`, and region set that feed
//! `ConditionNetwork::build_batch`) and encodes it with
//! `AeroDiffusionPipeline::encode_task`; serving derives its cache keys
//! from [`TaskSpec::kind`] and [`TaskSpec::source_digest`] so two
//! requests share an encoded condition only when every conditioning input
//! matches.
//!
//! The text-to-image variant carries the reference item + caption pair
//! the pre-task positional encode took, so routing it through the task
//! API is bit-identical to that path — pinned by the serve byte-compare
//! smoke.

use aero_scene::{Annotation, DatasetItem, Homography, Image};

/// Discriminant of a [`TaskSpec`], used in cache keys and the
/// serve/CLI `task` vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Plain text-to-image generation.
    Text,
    /// Cross-view translation of a source image.
    View,
    /// Keypoint-box inpainting of a source image.
    Inpaint,
    /// Super-resolution of a low-resolution base image.
    SuperRes,
}

impl TaskKind {
    /// All kinds, in canonical order.
    pub const ALL: [TaskKind; 4] =
        [TaskKind::Text, TaskKind::View, TaskKind::Inpaint, TaskKind::SuperRes];

    /// Stable wire name (`task` field of serve requests, CLI `--task`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TaskKind::Text => "text",
            TaskKind::View => "view",
            TaskKind::Inpaint => "inpaint",
            TaskKind::SuperRes => "superres",
        }
    }

    /// Parses a wire name back to a kind.
    #[must_use]
    pub fn parse(s: &str) -> Option<TaskKind> {
        TaskKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// One fully specified generation task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskSpec {
    /// Text-to-image: condition on a reference item, its source caption
    /// `G`, and a target description `G'` (the pre-task positional
    /// triple, now typed).
    TextToImage {
        /// Reference dataset item supplying the conditioning image.
        reference: Box<DatasetItem>,
        /// Source caption `G` describing the reference.
        caption_g: String,
        /// Target description `G'` steering generation.
        prompt: String,
    },
    /// Cross-view translation: the source image is warped by the
    /// homography (derived from the parametric drone cameras) before
    /// encoding, HawkI-style.
    ViewTranslation {
        /// Source-view image.
        source: Image,
        /// Source→target re-projection prior.
        homography: Homography,
        /// Target-view description.
        prompt: String,
    },
    /// Keypoint-box inpainting: only latent cells under the region boxes
    /// are re-denoised; everything else is pinned to the source latent.
    Inpaint {
        /// Image to edit.
        source: Image,
        /// Keypoint boxes (with class labels) to re-draw.
        regions: Vec<Annotation>,
        /// Description of the desired content.
        prompt: String,
    },
    /// Super-resolution: a low-resolution base image conditions a
    /// full-resolution denoise (the second stage of the RSDiff-style
    /// cascade; `AeroDiffusionPipeline::super_res_cascade` chains a
    /// text-to-image draft into this variant).
    SuperResolve {
        /// Low-resolution base image (any size; resized for encoding).
        base: Image,
        /// Description of the scene.
        prompt: String,
    },
}

impl TaskSpec {
    /// Text-to-image task from the old positional triple.
    #[must_use]
    pub fn text(reference: &DatasetItem, caption_g: &str, prompt: &str) -> TaskSpec {
        TaskSpec::TextToImage {
            reference: Box::new(reference.clone()),
            caption_g: caption_g.to_string(),
            prompt: prompt.to_string(),
        }
    }

    /// Cross-view translation task.
    #[must_use]
    pub fn view(source: Image, homography: Homography, prompt: &str) -> TaskSpec {
        TaskSpec::ViewTranslation { source, homography, prompt: prompt.to_string() }
    }

    /// Keypoint-box inpainting task.
    #[must_use]
    pub fn inpaint(source: Image, regions: Vec<Annotation>, prompt: &str) -> TaskSpec {
        TaskSpec::Inpaint { source, regions, prompt: prompt.to_string() }
    }

    /// Super-resolution task.
    #[must_use]
    pub fn superres(base: Image, prompt: &str) -> TaskSpec {
        TaskSpec::SuperResolve { base, prompt: prompt.to_string() }
    }

    /// The task discriminant.
    #[must_use]
    pub fn kind(&self) -> TaskKind {
        match self {
            TaskSpec::TextToImage { .. } => TaskKind::Text,
            TaskSpec::ViewTranslation { .. } => TaskKind::View,
            TaskSpec::Inpaint { .. } => TaskKind::Inpaint,
            TaskSpec::SuperResolve { .. } => TaskKind::SuperRes,
        }
    }

    /// The target description `G'` of the task.
    #[must_use]
    pub fn prompt(&self) -> &str {
        match self {
            TaskSpec::TextToImage { prompt, .. }
            | TaskSpec::ViewTranslation { prompt, .. }
            | TaskSpec::Inpaint { prompt, .. }
            | TaskSpec::SuperResolve { prompt, .. } => prompt,
        }
    }

    /// FNV-1a digest of the task's image-side conditioning inputs (the
    /// source pixels plus any geometry/region metadata). Text-to-image
    /// returns 0 — its conditioning is fully captured by the prompt
    /// fields the cache key already carries, so pre-task text keys are
    /// unchanged. Two tasks with equal kind, prompt, and digest encode
    /// the same condition vector.
    #[must_use]
    pub fn source_digest(&self) -> u64 {
        let mut d = Fnv::new();
        match self {
            TaskSpec::TextToImage { .. } => return 0,
            TaskSpec::ViewTranslation { source, homography, .. } => {
                d.image(source);
                d.u64(homography.digest());
            }
            TaskSpec::Inpaint { source, regions, .. } => {
                d.image(source);
                for r in regions {
                    d.u64(r.class.id() as u64);
                    for v in [r.bbox.x0, r.bbox.y0, r.bbox.x1, r.bbox.y1] {
                        d.f32(v);
                    }
                }
            }
            TaskSpec::SuperResolve { base, .. } => d.image(base),
        }
        d.finish()
    }
}

/// The lowered conditioning inputs of a task: what actually feeds
/// `ConditionNetwork::build_batch`. Produced by
/// `AeroDiffusionPipeline::condition_source`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConditionSource {
    /// Conditioning image (reference render, warped source view,
    /// inpainting source, or resized super-res base).
    pub image: Image,
    /// Source caption `G`.
    pub caption_g: String,
    /// Target description `G'`.
    pub g_prime: String,
    /// Region set for the feature-augmentation branch.
    pub rois: Vec<Annotation>,
}

/// Incremental FNV-1a over the little-endian bytes of the fed values
/// (the same basis/prime as `Homography::digest`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn image(&mut self, img: &Image) {
        self.u64(img.width() as u64);
        self.u64(img.height() as u64);
        for &v in img.to_tensor().as_slice() {
            self.f32(v);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_scene::{BBox, ObjectClass, Viewpoint};

    fn gradient_image(size: usize, bias: f32) -> Image {
        let mut img = Image::new(size, size);
        for y in 0..size {
            for x in 0..size {
                let v = (x + y) as f32 / (2 * size) as f32;
                img.set_pixel(x, y, [v, (v + bias).fract(), 1.0 - v]);
            }
        }
        img
    }

    #[test]
    fn kind_wire_names_round_trip() {
        for kind in TaskKind::ALL {
            assert_eq!(TaskKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(TaskKind::parse("nope"), None);
    }

    #[test]
    fn text_task_digest_is_zero() {
        let item = aero_scene::build_dataset(&aero_scene::DatasetConfig {
            n_scenes: 1,
            image_size: 16,
            seed: 3,
            generator: aero_scene::SceneGeneratorConfig::default(),
        })
        .items[0]
            .clone();
        let task = TaskSpec::text(&item, "a caption", "a prompt");
        assert_eq!(task.kind(), TaskKind::Text);
        assert_eq!(task.source_digest(), 0);
        assert_eq!(task.prompt(), "a prompt");
    }

    #[test]
    fn digest_tracks_every_conditioning_input() {
        let img = gradient_image(16, 0.2);
        let vp_a = Viewpoint::default();
        let vp_b = Viewpoint { altitude: 0.5, pitch_deg: 60.0, heading_deg: 15.0 };
        let h_ab = Homography::between(16, 16, &vp_a, &vp_b);
        let view = TaskSpec::view(img.clone(), h_ab, "p");
        assert_eq!(view.source_digest(), TaskSpec::view(img.clone(), h_ab, "p").source_digest());
        // Different homography → different digest.
        let h_id = Homography::identity();
        assert_ne!(view.source_digest(), TaskSpec::view(img.clone(), h_id, "p").source_digest());
        // Different pixels → different digest.
        let other = gradient_image(16, 0.7);
        assert_ne!(view.source_digest(), TaskSpec::view(other, h_ab, "p").source_digest());
        // Region boxes and labels both feed the inpaint digest.
        let region =
            |class: ObjectClass, x0: f32| Annotation { class, bbox: BBox::new(x0, 2.0, 8.0, 9.0) };
        let a = TaskSpec::inpaint(img.clone(), vec![region(ObjectClass::Car, 1.0)], "p");
        let b = TaskSpec::inpaint(img.clone(), vec![region(ObjectClass::Van, 1.0)], "p");
        let c = TaskSpec::inpaint(img.clone(), vec![region(ObjectClass::Car, 3.0)], "p");
        assert_ne!(a.source_digest(), b.source_digest());
        assert_ne!(a.source_digest(), c.source_digest());
        // Kinds with identical inputs still differ via `kind()` (the
        // cache key carries both), but the raw digests may collide only
        // across kinds, never within one.
        let sr = TaskSpec::superres(img, "p");
        assert_eq!(sr.kind(), TaskKind::SuperRes);
    }
}
