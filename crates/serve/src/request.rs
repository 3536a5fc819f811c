//! Serving protocol types: requests, replies, and typed rejections.
//!
//! # Generate request fields
//!
//! | field         | type    | required | default                     |
//! |---------------|---------|----------|-----------------------------|
//! | `prompt`      | string  | yes*     | — (*optional when `task.prompt` is given) |
//! | `id`          | string  | no       | connection-assigned id      |
//! | `seed`        | u64     | no       | `0`                         |
//! | `guidance`    | number  | no       | runtime guidance scale      |
//! | `steps`       | integer | no       | runtime step count          |
//! | `deadline_ms` | integer | no       | no deadline                 |
//! | `tenant`      | string  | no       | `"default"` tenant          |
//! | `stream`      | boolean | no       | `false`                     |
//! | `task`        | object  | no       | text-to-image               |
//!
//! The optional `task` object selects an image-conditioned workload and
//! may override the sampling knobs for just that task:
//!
//! | task field    | type    | applies to      | default                 |
//! |---------------|---------|-----------------|-------------------------|
//! | `kind`        | string  | all             | `"text"` (`text\|view\|inpaint\|superres`) |
//! | `prompt`      | string  | all             | top-level `prompt`      |
//! | `guidance`    | number  | all             | top-level `guidance`    |
//! | `steps`       | integer | all             | top-level `steps`       |
//! | `image`       | object  | view/inpaint/superres | — (required)      |
//! | `source_view` | object  | view            | nadir (`altitude` 1.0, `pitch` 90, `heading` 0) |
//! | `target_view` | object  | view            | nadir                   |
//! | `boxes`       | array   | inpaint         | — (required, may be empty) |
//!
//! `image` is `{"width":…,"height":…,"rgb8_b64":…}` with channel-major
//! (`[3, h, w]`) RGB bytes — the same layout `image` replies use. Each
//! `boxes` entry is `{"label":…,"x0":…,"y0":…,"x1":…,"y1":…}` in pixel
//! coordinates with an object-class label (`"car"`, `"truck"`, …).
//! A request without a `task` key (or with `kind":"text"` and no other
//! task fields) parses exactly as the pre-task schema did.
//!
//! # Backoff guidance
//!
//! Rejections that are worth retrying (`overloaded`, `queue_full`)
//! carry or imply a backoff. `overloaded` replies include a
//! `retry_after_ms` field: treat it as the *minimum* wait and add
//! jitter — e.g. sleep a uniform draw from `[hint, 2·hint]` — before
//! resubmitting. Retrying at exactly the hint from many clients at once
//! re-creates the synchronized spike that shed them in the first place.
//! `queue_full` has no server-side hint; use your own exponential
//! backoff with jitter, starting around one batch interval.

use crate::base64;
use crate::json::Json;
use aero_scene::{Annotation, BBox, Homography, Image, ObjectClass, Viewpoint};
use aero_tensor::Tensor;
use aerodiffusion::{TaskKind, TaskSpec};
use std::fmt;
use std::time::Duration;

/// A client-supplied conditioning image on the wire: channel-major
/// (`[3, h, w]`) RGB bytes, one byte per channel value, base64-encoded
/// as `rgb8_b64` — the same layout `image` replies use, so a reply can
/// be fed straight back in as a task source.
#[derive(Debug, Clone, PartialEq)]
pub struct ImagePayload {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Channel-major RGB bytes (`3 * height * width` of them).
    pub rgb8: Vec<u8>,
}

impl ImagePayload {
    /// Quantizes an image to its wire payload (round-to-nearest byte).
    #[must_use]
    pub fn from_image(image: &Image) -> Self {
        let rgb8 = image
            .to_tensor()
            .as_slice()
            .iter()
            .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
            .collect();
        ImagePayload { width: image.width(), height: image.height(), rgb8 }
    }

    /// Decodes the payload back to an image (`byte / 255`).
    #[must_use]
    pub fn to_image(&self) -> Image {
        let data: Vec<f32> = self.rgb8.iter().map(|&b| f32::from(b) / 255.0).collect();
        Image::from_tensor(&Tensor::from_vec(data, &[3, self.height, self.width]))
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let width = v
            .get("width")
            .and_then(Json::as_u64)
            .ok_or_else(|| "task image needs an integer \"width\"".to_string())?
            as usize;
        let height = v
            .get("height")
            .and_then(Json::as_u64)
            .ok_or_else(|| "task image needs an integer \"height\"".to_string())?
            as usize;
        let b64 = v
            .get("rgb8_b64")
            .and_then(Json::as_str)
            .ok_or_else(|| "task image needs a base64 string \"rgb8_b64\"".to_string())?;
        let rgb8 = base64::decode(b64).map_err(|e| format!("task image rgb8_b64: {e}"))?;
        // Checked: the dimensions are untrusted, and a wrapped product
        // could equal the payload's length.
        let expected = width.checked_mul(height).and_then(|n| n.checked_mul(3));
        if width == 0 || height == 0 || expected != Some(rgb8.len()) {
            return Err(format!(
                "task image must carry 3*{width}*{height} rgb bytes, got {}",
                rgb8.len()
            ));
        }
        Ok(ImagePayload { width, height, rgb8 })
    }

    /// The wire form (`{"width":…,"height":…,"rgb8_b64":…}`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("width", self.width.into()),
            ("height", self.height.into()),
            ("rgb8_b64", base64::encode(&self.rgb8).into()),
        ])
    }
}

/// The image-conditioned workload of a request, if any. `None` on a
/// [`GenerateRequest`] means plain text-to-image — the pre-task schema.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskPayload {
    /// Cross-view translation: re-project `image` from `source_view` to
    /// `target_view` through the parametric-camera homography prior.
    View {
        /// Source-view image.
        image: ImagePayload,
        /// Camera the source image was taken from.
        source_view: Viewpoint,
        /// Camera to re-project into.
        target_view: Viewpoint,
    },
    /// Keypoint-box inpainting: re-draw only the latent cells under
    /// `boxes`, pinning everything else to the source image.
    Inpaint {
        /// Image to edit. Must match the model's native resolution.
        image: ImagePayload,
        /// Labelled pixel-space boxes to re-draw.
        boxes: Vec<Annotation>,
    },
    /// Super-resolution: condition a full-resolution denoise on a
    /// low-resolution base image.
    SuperRes {
        /// Low-resolution base image (any size).
        image: ImagePayload,
    },
}

impl TaskPayload {
    /// The task discriminant.
    #[must_use]
    pub fn kind(&self) -> TaskKind {
        match self {
            TaskPayload::View { .. } => TaskKind::View,
            TaskPayload::Inpaint { .. } => TaskKind::Inpaint,
            TaskPayload::SuperRes { .. } => TaskKind::SuperRes,
        }
    }

    /// Lowers the wire payload to the typed task the pipeline runs.
    #[must_use]
    pub fn to_spec(&self, prompt: &str) -> TaskSpec {
        match self {
            TaskPayload::View { image, source_view, target_view } => {
                let source = image.to_image();
                let homography =
                    Homography::between(image.width, image.height, source_view, target_view);
                TaskSpec::view(source, homography, prompt)
            }
            TaskPayload::Inpaint { image, boxes } => {
                TaskSpec::inpaint(image.to_image(), boxes.clone(), prompt)
            }
            TaskPayload::SuperRes { image } => TaskSpec::superres(image.to_image(), prompt),
        }
    }

    /// The wire form of the `task` object (without the sampling-knob
    /// overrides, which live beside it).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let viewpoint_json = |vp: &Viewpoint| {
            Json::obj(vec![
                ("altitude", f64::from(vp.altitude).into()),
                ("pitch", f64::from(vp.pitch_deg).into()),
                ("heading", f64::from(vp.heading_deg).into()),
            ])
        };
        match self {
            TaskPayload::View { image, source_view, target_view } => Json::obj(vec![
                ("kind", self.kind().as_str().into()),
                ("image", image.to_json()),
                ("source_view", viewpoint_json(source_view)),
                ("target_view", viewpoint_json(target_view)),
            ]),
            TaskPayload::Inpaint { image, boxes } => Json::obj(vec![
                ("kind", self.kind().as_str().into()),
                ("image", image.to_json()),
                (
                    "boxes",
                    Json::Arr(
                        boxes
                            .iter()
                            .map(|b| {
                                Json::obj(vec![
                                    ("label", b.class.label().into()),
                                    ("x0", f64::from(b.bbox.x0).into()),
                                    ("y0", f64::from(b.bbox.y0).into()),
                                    ("x1", f64::from(b.bbox.x1).into()),
                                    ("y1", f64::from(b.bbox.y1).into()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            TaskPayload::SuperRes { image } => {
                Json::obj(vec![("kind", self.kind().as_str().into()), ("image", image.to_json())])
            }
        }
    }
}

/// The parsed `task` object: the payload plus its sampling-knob
/// overrides, all still optional.
struct TaskEnvelope {
    payload: Option<TaskPayload>,
    prompt: Option<String>,
    guidance: Option<f32>,
    steps: Option<usize>,
}

impl TaskEnvelope {
    fn empty() -> Self {
        TaskEnvelope { payload: None, prompt: None, guidance: None, steps: None }
    }

    fn from_json(t: &Json) -> Result<Self, String> {
        let kind_str = match t.get("kind") {
            None => "text",
            Some(k) => k.as_str().ok_or_else(|| "\"task.kind\" must be a string".to_string())?,
        };
        let kind = TaskKind::parse(kind_str).ok_or_else(|| {
            format!("unknown task kind {kind_str:?} (expected text|view|inpaint|superres)")
        })?;
        let payload = match kind {
            TaskKind::Text => None,
            TaskKind::View => Some(TaskPayload::View {
                image: Self::image_field(t)?,
                source_view: Self::viewpoint_field(t, "source_view")?,
                target_view: Self::viewpoint_field(t, "target_view")?,
            }),
            TaskKind::Inpaint => Some(TaskPayload::Inpaint {
                image: Self::image_field(t)?,
                boxes: Self::boxes_field(t)?,
            }),
            TaskKind::SuperRes => Some(TaskPayload::SuperRes { image: Self::image_field(t)? }),
        };
        let prompt = match t.get("prompt") {
            None => None,
            Some(p) => Some(
                p.as_str()
                    .ok_or_else(|| "\"task.prompt\" must be a string".to_string())?
                    .to_string(),
            ),
        };
        let guidance = match t.get("guidance") {
            None => None,
            Some(g) => {
                Some(g.as_f64().ok_or_else(|| "\"task.guidance\" must be a number".to_string())?
                    as f32)
            }
        };
        let steps = match t.get("steps") {
            None => None,
            Some(s) => Some(
                s.as_u64().ok_or_else(|| "\"task.steps\" must be a positive integer".to_string())?
                    as usize,
            ),
        };
        Ok(TaskEnvelope { payload, prompt, guidance, steps })
    }

    fn image_field(t: &Json) -> Result<ImagePayload, String> {
        let v =
            t.get("image").ok_or_else(|| "this task kind needs an \"image\" object".to_string())?;
        ImagePayload::from_json(v)
    }

    fn viewpoint_field(t: &Json, field: &str) -> Result<Viewpoint, String> {
        let Some(v) = t.get(field) else {
            return Ok(Viewpoint::default());
        };
        let angle = |key: &str, default: f32| -> Result<f32, String> {
            match v.get(key) {
                None => Ok(default),
                Some(a) => Ok(a
                    .as_f64()
                    .ok_or_else(|| format!("\"task.{field}.{key}\" must be a number"))?
                    as f32),
            }
        };
        Ok(Viewpoint {
            altitude: angle("altitude", 1.0)?,
            pitch_deg: angle("pitch", 90.0)?,
            heading_deg: angle("heading", 0.0)?,
        })
    }

    fn boxes_field(t: &Json) -> Result<Vec<Annotation>, String> {
        let v = t.get("boxes").ok_or_else(|| "inpaint tasks need a \"boxes\" array".to_string())?;
        let Json::Arr(items) = v else {
            return Err("\"task.boxes\" must be an array".to_string());
        };
        items
            .iter()
            .map(|b| {
                let label = b
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "each box needs a string \"label\"".to_string())?;
                let class = ObjectClass::ALL
                    .into_iter()
                    .find(|c| c.label() == label)
                    .ok_or_else(|| format!("unknown box label {label:?}"))?;
                let coord = |key: &str| -> Result<f32, String> {
                    Ok(b.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("each box needs a number \"{key}\""))?
                        as f32)
                };
                Ok(Annotation {
                    class,
                    bbox: BBox::new(coord("x0")?, coord("y0")?, coord("x1")?, coord("y1")?),
                })
            })
            .collect()
    }
}

/// One text-to-aerial-image generation request.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateRequest {
    /// Client-chosen correlation id, echoed on the reply.
    pub id: String,
    /// The target description `G'` steering generation.
    pub prompt: String,
    /// Seed driving this request's private noise stream. The same seed
    /// yields byte-identical output regardless of how the request was
    /// batched.
    pub seed: u64,
    /// Classifier-free guidance scale override (default: the runtime's).
    pub guidance_scale: Option<f32>,
    /// DDIM step count override (default: the runtime's).
    pub steps: Option<usize>,
    /// Deadline measured from submission; a request still queued when it
    /// expires is rejected instead of sampled.
    pub deadline: Option<Duration>,
    /// Tenant the request is billed against for per-tenant admission
    /// control. Absent means the shared default tenant.
    pub tenant: Option<String>,
    /// When set, the server streams `preview` lines (quantized
    /// intermediate latents) while this request samples, before the
    /// final `image` line.
    pub stream: bool,
    /// The image-conditioned workload, if any. `None` (and `kind:"text"`
    /// on the wire) is plain text-to-image — the pre-task behavior.
    pub task: Option<TaskPayload>,
}

impl GenerateRequest {
    /// A request with defaults for everything but id, prompt and seed.
    #[must_use]
    pub fn new(id: impl Into<String>, prompt: impl Into<String>, seed: u64) -> Self {
        GenerateRequest {
            id: id.into(),
            prompt: prompt.into(),
            seed,
            guidance_scale: None,
            steps: None,
            deadline: None,
            tenant: None,
            stream: false,
            task: None,
        }
    }

    /// The workload discriminant ([`TaskKind::Text`] when no task was
    /// attached).
    #[must_use]
    pub fn task_kind(&self) -> TaskKind {
        self.task.as_ref().map_or(TaskKind::Text, TaskPayload::kind)
    }

    /// The tenant this request bills against (the shared `"default"`
    /// tenant when none was given).
    #[must_use]
    pub fn tenant_id(&self) -> &str {
        self.tenant.as_deref().unwrap_or("default")
    }

    /// Parses the NDJSON form:
    /// `{"type":"generate","id":…,"prompt":…,"seed":…,"guidance":…,"steps":…,"deadline_ms":…,"tenant":…,"stream":…,"task":…}`.
    /// Only `prompt` is required (and it may instead live inside the
    /// optional `task` object); `id` defaults to `fallback_id`. Absent
    /// fields keep their defaults — see the module-level field tables —
    /// so pre-task clients parse unchanged. A nested `task.prompt`,
    /// `task.guidance`, or `task.steps` takes precedence over its
    /// top-level twin.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/mistyped field.
    pub fn from_json(v: &Json, fallback_id: &str) -> Result<Self, String> {
        let envelope = match v.get("task") {
            None => TaskEnvelope::empty(),
            Some(t) => TaskEnvelope::from_json(t)?,
        };
        let prompt = match &envelope.prompt {
            Some(p) => p.as_str(),
            None => v
                .get("prompt")
                .and_then(Json::as_str)
                .ok_or_else(|| "generate request needs a string \"prompt\"".to_string())?,
        };
        let id = v.get("id").and_then(Json::as_str).unwrap_or(fallback_id);
        let seed = match v.get("seed") {
            None => 0,
            Some(s) => {
                s.as_u64().ok_or_else(|| "\"seed\" must be a non-negative integer".to_string())?
            }
        };
        let guidance_scale = match v.get("guidance") {
            None => None,
            Some(g) => {
                Some(g.as_f64().ok_or_else(|| "\"guidance\" must be a number".to_string())? as f32)
            }
        };
        let steps = match v.get("steps") {
            None => None,
            Some(s) => {
                Some(s.as_u64().ok_or_else(|| "\"steps\" must be a positive integer".to_string())?
                    as usize)
            }
        };
        let deadline = match v.get("deadline_ms") {
            None => None,
            Some(d) => Some(Duration::from_millis(
                d.as_u64().ok_or_else(|| "\"deadline_ms\" must be milliseconds".to_string())?,
            )),
        };
        let tenant = match v.get("tenant") {
            None => None,
            Some(t) => Some(
                t.as_str().ok_or_else(|| "\"tenant\" must be a string".to_string())?.to_string(),
            ),
        };
        let stream = match v.get("stream") {
            None => false,
            Some(s) => s.as_bool().ok_or_else(|| "\"stream\" must be a boolean".to_string())?,
        };
        Ok(GenerateRequest {
            id: id.to_string(),
            prompt: prompt.to_string(),
            seed,
            guidance_scale: envelope.guidance.or(guidance_scale),
            steps: envelope.steps.or(steps),
            deadline,
            tenant,
            stream,
            task: envelope.payload,
        })
    }
}

/// Which admission gate shed an [`RejectReason::Overloaded`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadScope {
    /// The submitting tenant's token bucket ran dry; other tenants are
    /// unaffected.
    Tenant,
    /// The whole server is past its load-shedding threshold (queue depth
    /// or p95 latency).
    Global,
}

/// Why the runtime refused to take (or finish) a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue was at capacity — explicit backpressure, the
    /// client should retry later or shed load.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// Admission control shed the request before it was queued. Retry
    /// after at least `retry_after_ms`, with jitter.
    Overloaded {
        /// Minimum milliseconds to wait before resubmitting.
        retry_after_ms: u64,
        /// Which gate shed it (tenant bucket vs. global load).
        scope: OverloadScope,
    },
    /// The runtime is draining and accepts no new work.
    ShuttingDown,
    /// The request's deadline expired while it waited in the queue.
    DeadlineExceeded,
    /// The client cancelled the request before it finished.
    Cancelled,
    /// The serving worker disappeared before answering (worker panic).
    WorkerFailure,
    /// The worker hit a recoverable fault while serving this specific
    /// request (a panic caught mid-request, a non-finite sampler output,
    /// or a task the model cannot serve), or no live worker was left to
    /// serve it; other requests were unaffected.
    WorkerError {
        /// Human-readable description of what failed.
        detail: String,
    },
}

impl RejectReason {
    /// Stable machine-readable tag used on the wire.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue_full",
            RejectReason::Overloaded { .. } => "overloaded",
            RejectReason::ShuttingDown => "shutting_down",
            RejectReason::DeadlineExceeded => "deadline_exceeded",
            RejectReason::Cancelled => "cancelled",
            RejectReason::WorkerFailure => "worker_failure",
            RejectReason::WorkerError { .. } => "worker_error",
        }
    }

    /// The server's backoff hint, when this rejection carries one. Wired
    /// onto error replies as `retry_after_ms`; see the module docs for
    /// the jittered-backoff guidance.
    #[must_use]
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            RejectReason::Overloaded { retry_after_ms, .. } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            RejectReason::Overloaded { retry_after_ms, scope } => {
                let gate = match scope {
                    OverloadScope::Tenant => "tenant rate limit",
                    OverloadScope::Global => "global load shedding",
                };
                write!(f, "overloaded ({gate}); retry after {retry_after_ms}ms with jitter")
            }
            RejectReason::ShuttingDown => write!(f, "runtime is shutting down"),
            RejectReason::DeadlineExceeded => write!(f, "deadline expired while queued"),
            RejectReason::Cancelled => write!(f, "cancelled by the client"),
            RejectReason::WorkerFailure => write!(f, "serving worker failed"),
            RejectReason::WorkerError { detail } => write!(f, "worker error: {detail}"),
        }
    }
}

/// Per-stage wall-clock breakdown of one served request, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageLatency {
    /// Time spent waiting in the request queue.
    pub queue_us: u64,
    /// Condition-encode time (0 on a cache hit).
    pub encode_us: u64,
    /// This request's share context: the wall time of the coalesced
    /// sampler call it rode in.
    pub sample_us: u64,
    /// VAE decode + quantization time.
    pub decode_us: u64,
}

impl StageLatency {
    /// Total latency across stages.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.queue_us + self.encode_us + self.sample_us + self.decode_us
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("queue", self.queue_us.into()),
            ("encode", self.encode_us.into()),
            ("sample", self.sample_us.into()),
            ("decode", self.decode_us.into()),
        ])
    }
}

/// A successfully served image.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedImage {
    /// Echo of the request id.
    pub id: String,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Channel-major (`[3, h, w]`) RGB bytes, one byte per channel value.
    pub rgb8: Vec<u8>,
    /// Per-stage latency breakdown.
    pub latency: StageLatency,
    /// How many requests the sampler call was coalesced over.
    pub batch_size: usize,
    /// Whether the condition embedding came from the cache.
    pub cache_hit: bool,
}

/// One intermediate-step latent preview streamed to a `stream:true`
/// request while it samples.
///
/// The latent is quantized to `u8` (`q = round(255 * (v - min) /
/// (max - min))`) so a preview line stays small; clients reconstruct an
/// approximate latent as `min + q / 255 * (max - min)`. Previews are
/// observational only — they never change the final image bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct LatentPreview {
    /// Echo of the request id.
    pub id: String,
    /// Zero-based index of the completed DDIM step.
    pub step: usize,
    /// Total steps the request will run if not cancelled.
    pub total_steps: usize,
    /// Latent shape `[c, h, w]`.
    pub shape: [usize; 3],
    /// Minimum latent value (dequantization offset).
    pub min: f32,
    /// Maximum latent value (dequantization scale anchor).
    pub max: f32,
    /// Row-major quantized latent bytes, `c*h*w` of them.
    pub latent_q8: Vec<u8>,
}

/// The reply to one submitted request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeReply {
    /// The request was served.
    Image(GeneratedImage),
    /// A streamed intermediate-step preview; zero or more precede the
    /// terminal reply of a `stream:true` request.
    Preview(LatentPreview),
    /// The request was rejected; the reason says at which stage.
    Rejected {
        /// Echo of the request id.
        id: String,
        /// The typed rejection.
        reason: RejectReason,
    },
}

impl ServeReply {
    /// Whether this reply ends its request's stream ([`Image`] and
    /// [`Rejected`] do; [`Preview`] lines are always followed by more).
    ///
    /// [`Image`]: ServeReply::Image
    /// [`Rejected`]: ServeReply::Rejected
    /// [`Preview`]: ServeReply::Preview
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        !matches!(self, ServeReply::Preview(_))
    }

    /// The NDJSON wire form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            ServeReply::Image(img) => Json::obj(vec![
                ("type", "image".into()),
                ("id", img.id.clone().into()),
                ("width", img.width.into()),
                ("height", img.height.into()),
                ("rgb8_b64", base64::encode(&img.rgb8).into()),
                ("batch_size", img.batch_size.into()),
                ("cache_hit", img.cache_hit.into()),
                ("latency_us", img.latency.to_json()),
            ]),
            ServeReply::Preview(p) => Json::obj(vec![
                ("type", "preview".into()),
                ("id", p.id.clone().into()),
                ("step", p.step.into()),
                ("steps", p.total_steps.into()),
                ("shape", Json::Arr(p.shape.iter().map(|&d| d.into()).collect())),
                ("min", f64::from(p.min).into()),
                ("max", f64::from(p.max).into()),
                ("latent_q8_b64", base64::encode(&p.latent_q8).into()),
            ]),
            ServeReply::Rejected { id, reason } => {
                let mut fields = vec![
                    ("type", "error".into()),
                    ("id", id.clone().into()),
                    ("reason", reason.tag().into()),
                    ("detail", reason.to_string().into()),
                ];
                if let Some(ms) = reason.retry_after_ms() {
                    fields.push(("retry_after_ms", ms.into()));
                }
                Json::obj(fields)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_request_parses_full_form() {
        let v = Json::parse(
            r#"{"type":"generate","id":"a","prompt":"a park at night","seed":9,"guidance":3.5,"steps":12,"deadline_ms":250}"#,
        )
        .unwrap();
        let r = GenerateRequest::from_json(&v, "fallback").unwrap();
        assert_eq!(r.id, "a");
        assert_eq!(r.prompt, "a park at night");
        assert_eq!(r.seed, 9);
        assert_eq!(r.guidance_scale, Some(3.5));
        assert_eq!(r.steps, Some(12));
        assert_eq!(r.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn generate_request_defaults() {
        let v = Json::parse(r#"{"prompt":"x"}"#).unwrap();
        let r = GenerateRequest::from_json(&v, "req-3").unwrap();
        assert_eq!(r.id, "req-3");
        assert_eq!(r.seed, 0);
        assert_eq!(r.guidance_scale, None);
        // Fleet-era fields are backward compatible: absent means default.
        assert_eq!(r.tenant, None);
        assert_eq!(r.tenant_id(), "default");
        assert!(!r.stream);
    }

    #[test]
    fn generate_request_parses_tenant_and_stream() {
        let v = Json::parse(r#"{"prompt":"x","tenant":"team-a","stream":true}"#).unwrap();
        let r = GenerateRequest::from_json(&v, "f").unwrap();
        assert_eq!(r.tenant_id(), "team-a");
        assert!(r.stream);
        let bad = Json::parse(r#"{"prompt":"x","stream":"yes"}"#).unwrap();
        assert!(GenerateRequest::from_json(&bad, "f").is_err());
    }

    #[test]
    fn overloaded_reply_carries_retry_after_ms() {
        let reason = RejectReason::Overloaded { retry_after_ms: 40, scope: OverloadScope::Global };
        assert_eq!(reason.tag(), "overloaded");
        assert_eq!(reason.retry_after_ms(), Some(40));
        let wire =
            ServeReply::Rejected { id: "r".into(), reason: reason.clone() }.to_json().render();
        let v = Json::parse(&wire).unwrap();
        assert_eq!(v.get("reason").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(v.get("retry_after_ms").and_then(Json::as_u64), Some(40));
        // Rejections without a hint omit the field entirely.
        let plain = ServeReply::Rejected { id: "r".into(), reason: RejectReason::Cancelled }
            .to_json()
            .render();
        let v = Json::parse(&plain).unwrap();
        assert_eq!(v.get("reason").and_then(Json::as_str), Some("cancelled"));
        assert!(v.get("retry_after_ms").is_none());
    }

    #[test]
    fn preview_wire_form_round_trips() {
        let reply = ServeReply::Preview(LatentPreview {
            id: "p".into(),
            step: 2,
            total_steps: 8,
            shape: [4, 2, 2],
            min: -1.5,
            max: 2.5,
            latent_q8: vec![0, 64, 128, 255],
        });
        assert!(!reply.is_terminal());
        let v = Json::parse(&reply.to_json().render()).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("preview"));
        assert_eq!(v.get("step").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("steps").and_then(Json::as_u64), Some(8));
        assert_eq!(
            base64::decode(v.get("latent_q8_b64").and_then(Json::as_str).unwrap()).unwrap(),
            vec![0, 64, 128, 255]
        );
    }

    #[test]
    fn generate_request_requires_prompt() {
        let v = Json::parse(r#"{"seed":1}"#).unwrap();
        assert!(GenerateRequest::from_json(&v, "x").is_err());
    }

    #[test]
    fn old_format_lines_parse_identically_to_pre_task_schema() {
        // A pre-task wire line must produce exactly the request the old
        // parser did: every new field at its default, nothing re-read.
        let v = Json::parse(
            r#"{"type":"generate","id":"a","prompt":"a park","seed":9,"guidance":3.5,"steps":12,"deadline_ms":250,"tenant":"t","stream":true}"#,
        )
        .unwrap();
        let parsed = GenerateRequest::from_json(&v, "f").unwrap();
        let expected = GenerateRequest {
            id: "a".into(),
            prompt: "a park".into(),
            seed: 9,
            guidance_scale: Some(3.5),
            steps: Some(12),
            deadline: Some(Duration::from_millis(250)),
            tenant: Some("t".into()),
            stream: true,
            task: None,
        };
        assert_eq!(parsed, expected);
        // The missing-prompt error is also byte-identical to the old one.
        let missing = Json::parse(r#"{"seed":1}"#).unwrap();
        assert_eq!(
            GenerateRequest::from_json(&missing, "x").unwrap_err(),
            "generate request needs a string \"prompt\""
        );
        // An explicit `kind:"text"` task object is the same as no task.
        let text = Json::parse(r#"{"prompt":"a park","task":{"kind":"text"}}"#).unwrap();
        assert_eq!(GenerateRequest::from_json(&text, "f").unwrap().task, None);
    }

    #[test]
    fn image_payload_round_trips_and_validates_length() {
        let mut img = Image::new(3, 2);
        img.set_pixel(1, 0, [0.25, 0.5, 1.0]);
        let payload = ImagePayload::from_image(&img);
        assert_eq!(payload.rgb8.len(), 3 * 3 * 2);
        let wire = payload.to_json().render();
        let back = ImagePayload::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, payload);
        // Decoding then re-quantizing is lossless at byte granularity.
        assert_eq!(ImagePayload::from_image(&back.to_image()), payload);
        let short = Json::parse(r#"{"width":3,"height":2,"rgb8_b64":"AAAA"}"#).unwrap();
        assert!(ImagePayload::from_json(&short).unwrap_err().contains("rgb bytes"));
    }

    #[test]
    fn task_requests_round_trip_and_fold_overrides() {
        let image = ImagePayload::from_image(&Image::new(4, 4));
        let boxes =
            vec![Annotation { class: ObjectClass::Car, bbox: BBox::new(0.0, 0.0, 2.0, 2.0) }];
        let payload = TaskPayload::Inpaint { image: image.clone(), boxes: boxes.clone() };
        let wire = Json::obj(vec![
            ("prompt", "outer".into()),
            ("guidance", 2.0.into()),
            (
                "task",
                match payload.to_json() {
                    Json::Obj(mut fields) => {
                        fields.push(("prompt".into(), "inner".into()));
                        fields.push(("steps".into(), 6u64.into()));
                        Json::Obj(fields)
                    }
                    other => other,
                },
            ),
        ])
        .render();
        let r = GenerateRequest::from_json(&Json::parse(&wire).unwrap(), "f").unwrap();
        assert_eq!(r.task, Some(payload));
        assert_eq!(r.task_kind(), TaskKind::Inpaint);
        // task.prompt and task.steps win; guidance falls back to top level.
        assert_eq!(r.prompt, "inner");
        assert_eq!(r.steps, Some(6));
        assert_eq!(r.guidance_scale, Some(2.0));
        // A task-local prompt satisfies the prompt requirement alone.
        let solo = Json::obj(vec![(
            "task",
            match (TaskPayload::SuperRes { image: image.clone() }).to_json() {
                Json::Obj(mut fields) => {
                    fields.push(("prompt".into(), "a harbor".into()));
                    Json::Obj(fields)
                }
                other => other,
            },
        )])
        .render();
        let r = GenerateRequest::from_json(&Json::parse(&solo).unwrap(), "f").unwrap();
        assert_eq!(r.prompt, "a harbor");
        assert_eq!(r.task_kind(), TaskKind::SuperRes);
    }

    #[test]
    fn view_task_defaults_to_nadir_views_and_rejects_bad_kinds() {
        let image = ImagePayload::from_image(&Image::new(4, 4));
        let wire = Json::obj(vec![
            ("prompt", "p".into()),
            ("task", Json::obj(vec![("kind", "view".into()), ("image", image.to_json())])),
        ])
        .render();
        let r = GenerateRequest::from_json(&Json::parse(&wire).unwrap(), "f").unwrap();
        match r.task {
            Some(TaskPayload::View { source_view, target_view, .. }) => {
                assert_eq!(source_view, Viewpoint::default());
                assert_eq!(target_view, Viewpoint::default());
            }
            other => panic!("expected a view task, got {other:?}"),
        }
        let bad = Json::parse(r#"{"prompt":"p","task":{"kind":"zoom"}}"#).unwrap();
        assert!(GenerateRequest::from_json(&bad, "f").unwrap_err().contains("unknown task kind"));
        let bad_label = Json::obj(vec![
            ("prompt", "p".into()),
            (
                "task",
                Json::obj(vec![
                    ("kind", "inpaint".into()),
                    ("image", image.to_json()),
                    (
                        "boxes",
                        Json::Arr(vec![Json::obj(vec![
                            ("label", "spaceship".into()),
                            ("x0", 0.0.into()),
                            ("y0", 0.0.into()),
                            ("x1", 1.0.into()),
                            ("y1", 1.0.into()),
                        ])]),
                    ),
                ]),
            ),
        ])
        .render();
        let err = GenerateRequest::from_json(&Json::parse(&bad_label).unwrap(), "f").unwrap_err();
        assert!(err.contains("unknown box label"), "{err}");
    }

    #[test]
    fn reply_wire_form_round_trips() {
        let reply = ServeReply::Image(GeneratedImage {
            id: "r".into(),
            width: 2,
            height: 1,
            rgb8: vec![0, 128, 255, 1, 2, 3],
            latency: StageLatency { queue_us: 1, encode_us: 2, sample_us: 3, decode_us: 4 },
            batch_size: 4,
            cache_hit: true,
        });
        let wire = reply.to_json().render();
        let v = Json::parse(&wire).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("image"));
        assert_eq!(
            base64::decode(v.get("rgb8_b64").and_then(Json::as_str).unwrap()).unwrap(),
            vec![0, 128, 255, 1, 2, 3]
        );
        assert_eq!(
            v.get("latency_us").and_then(|l| l.get("sample")).and_then(Json::as_u64),
            Some(3)
        );
    }
}
