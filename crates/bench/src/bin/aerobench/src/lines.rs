//! Seeded NDJSON request lines for the two serve traffic mixes.
//!
//! Everything here is a pure function of `(mix, seed, stream)`: the
//! benchmark's `--seed` is the only input that changes what the server
//! receives, and the layer prober regenerates the exact lines a serve run
//! sent when it times request decoding.

use crate::fnv1a;
use crate::json::Json;
use aero_scene::{build_dataset, DatasetConfig, ObjectClass, SceneGeneratorConfig};

/// Native resolution of the smoke model the serve workloads run; source
/// images must match it (inpainting rejects any other size).
pub const SOURCE_SIZE: usize = 16;

/// Scenes rendered per run as source images for `view`/`inpaint` tasks.
const SOURCE_POOL: usize = 32;

/// The `serve_repeat` prompt pool. Popularity is skewed toward the front
/// (index `⌊16·u³⌋`), like a real prompt mix with a few hot phrases.
const PROMPTS: [&str; 16] = [
    "an aerial view of a park",
    "a parking lot at night",
    "a dense downtown block",
    "a river through farmland",
    "a harbor at dawn",
    "a stadium from above",
    "a suburban cul-de-sac",
    "an industrial rail yard",
    "a busy intersection with cars",
    "a highway interchange at noon",
    "a market square with pedestrians",
    "a campus with bicycles",
    "a bus depot seen from a drone",
    "a construction site with trucks",
    "a roundabout in the rain",
    "a riverside promenade at dusk",
];

/// Target cameras a `view` request re-projects into (source: nadir).
const TARGET_VIEWS: [(f64, f64, f64); 4] =
    [(0.6, 60.0, 30.0), (0.8, 75.0, 0.0), (0.5, 45.0, 90.0), (0.7, 60.0, 180.0)];

/// Which traffic mix to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Text-only requests over the skewed 16-prompt pool: after warm-up
    /// every condition comes from the cache.
    Repeat,
    /// Unique prompts, 50% text / 25% view / 25% inpaint, each with its
    /// own source image: the cache never hits.
    Mixed,
}

/// The task a request line carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Plain text-to-image.
    Text,
    /// Cross-view translation of a source image.
    View,
    /// Keypoint-box inpainting of a source image.
    Inpaint,
}

/// One generated request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// The request id (echoed on the reply).
    pub id: String,
    /// The task it carries.
    pub kind: Kind,
    /// The NDJSON text, without the trailing newline.
    pub text: String,
}

/// SplitMix64: a tiny, fully specified generator, so the lines depend on
/// nothing but the seed.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// A source image on the wire (`{"width","height","rgb8_b64"}`).
#[derive(Debug, Clone)]
struct Source {
    json: Json,
}

/// Deterministic request-line generator for one `(mix, seed, stream)`.
pub struct LineGen {
    mix: Mix,
    rng: SplitMix64,
    stream: String,
    sources: Vec<Source>,
    issued: u64,
}

impl LineGen {
    /// A generator; `stream` names an independent sequence (probes, the
    /// measured loop, …) over the same seed-rendered source images.
    pub fn new(mix: Mix, seed: u64, stream: &str) -> Self {
        let sources = match mix {
            Mix::Repeat => Vec::new(),
            Mix::Mixed => render_sources(seed),
        };
        let key = fnv1a(fnv1a(crate::FNV_OFFSET, stream.as_bytes()), &seed.to_le_bytes());
        LineGen { mix, rng: SplitMix64::new(key), stream: stream.to_string(), sources, issued: 0 }
    }

    /// The next line of the sequence.
    pub fn next_line(&mut self) -> Line {
        let n = self.issued;
        self.issued += 1;
        let id = format!("{}-{n}", self.stream);
        // Request seeds stay below 2^31 so every JSON reader holds them
        // exactly.
        let seed = self.rng.next_u64() >> 33;
        let (kind, prompt, task) = match self.mix {
            Mix::Repeat => {
                let u = self.rng.unit();
                let idx = ((PROMPTS.len() as f64) * u * u * u) as usize;
                (Kind::Text, PROMPTS[idx.min(PROMPTS.len() - 1)].to_string(), None)
            }
            Mix::Mixed => {
                let base = PROMPTS[self.rng.below(PROMPTS.len())];
                let prompt = format!("{base} #{}-{n}", self.stream);
                let u = self.rng.unit();
                if u < 0.5 {
                    (Kind::Text, prompt, None)
                } else if u < 0.75 {
                    let image = self.source();
                    let (altitude, pitch, heading) =
                        TARGET_VIEWS[self.rng.below(TARGET_VIEWS.len())];
                    let task = Json::obj([
                        ("kind", "view".into()),
                        ("image", image),
                        (
                            "target_view",
                            Json::obj([
                                ("altitude", altitude.into()),
                                ("pitch", pitch.into()),
                                ("heading", heading.into()),
                            ]),
                        ),
                    ]);
                    (Kind::View, prompt, Some(task))
                } else {
                    let image = self.source();
                    let boxes = (0..=self.rng.below(3)).map(|_| self.inpaint_box()).collect();
                    let task = Json::obj([
                        ("kind", "inpaint".into()),
                        ("image", image),
                        ("boxes", Json::Arr(boxes)),
                    ]);
                    (Kind::Inpaint, prompt, Some(task))
                }
            }
        };
        let mut fields = vec![
            ("type", Json::from("generate")),
            ("id", id.clone().into()),
            ("prompt", prompt.into()),
            ("seed", seed.into()),
        ];
        if let Some(task) = task {
            fields.push(("task", task));
        }
        Line { id, kind, text: Json::obj(fields).render() }
    }

    fn source(&mut self) -> Json {
        self.sources[self.rng.below(self.sources.len())].json.clone()
    }

    fn inpaint_box(&mut self) -> Json {
        let side = SOURCE_SIZE as f64;
        let label = ObjectClass::ALL[self.rng.below(ObjectClass::ALL.len())].label();
        let (x0, y0) =
            (self.rng.below(SOURCE_SIZE - 2) as f64, self.rng.below(SOURCE_SIZE - 2) as f64);
        let (w, h) = (2 + self.rng.below(5), 2 + self.rng.below(5));
        Json::obj([
            ("label", label.into()),
            ("x0", x0.into()),
            ("y0", y0.into()),
            ("x1", (x0 + w as f64).min(side).into()),
            ("y1", (y0 + h as f64).min(side).into()),
        ])
    }
}

/// Renders the run's source-image pool: procedural aerial scenes at the
/// smoke model's native size, quantized to channel-major RGB bytes.
fn render_sources(seed: u64) -> Vec<Source> {
    let dataset = build_dataset(&DatasetConfig {
        n_scenes: SOURCE_POOL,
        image_size: SOURCE_SIZE,
        seed: seed ^ 0xA5A5_5A5A,
        generator: SceneGeneratorConfig::default(),
    });
    dataset
        .items
        .iter()
        .map(|item| {
            let image = &item.rendered.image;
            let (w, h) = (image.width(), image.height());
            let mut rgb8 = Vec::with_capacity(3 * w * h);
            for c in 0..3 {
                for y in 0..h {
                    for x in 0..w {
                        rgb8.push((image.pixel(x, y)[c].clamp(0.0, 1.0) * 255.0).round() as u8);
                    }
                }
            }
            Source {
                json: Json::obj([
                    ("width", w.into()),
                    ("height", h.into()),
                    ("rgb8_b64", base64(&rgb8).into()),
                ]),
            }
        })
        .collect()
}

/// Standard padded base64, the encoding the serve wire uses.
pub fn base64(data: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [chunk[0], chunk.get(1).copied().unwrap_or(0), chunk.get(2).copied().unwrap_or(0)];
        let triple = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        for (i, shift) in [18, 12, 6, 0].into_iter().enumerate() {
            out.push(if i <= chunk.len() {
                ALPHABET[(triple >> shift) as usize & 63] as char
            } else {
                '='
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(mix: Mix, seed: u64, n: usize) -> Vec<Line> {
        let mut gen = LineGen::new(mix, seed, "r");
        (0..n).map(|_| gen.next_line()).collect()
    }

    #[test]
    fn lines_are_deterministic_in_the_seed_and_differ_across_seeds() {
        for mix in [Mix::Repeat, Mix::Mixed] {
            assert_eq!(take(mix, 7, 40), take(mix, 7, 40));
            assert_ne!(take(mix, 7, 40), take(mix, 8, 40));
            // Independent streams over one seed differ too.
            let mut probes = LineGen::new(mix, 7, "probe");
            assert_ne!(probes.next_line().text, take(mix, 7, 1)[0].text);
        }
    }

    #[test]
    fn mixed_lines_carry_unique_prompts_and_every_task_kind() {
        let lines = take(Mix::Mixed, 3, 200);
        let prompts: std::collections::BTreeSet<String> = lines
            .iter()
            .map(|l| Json::parse(&l.text).unwrap().get("prompt").unwrap().as_str().unwrap().into())
            .collect();
        assert_eq!(prompts.len(), lines.len());
        for kind in [Kind::Text, Kind::View, Kind::Inpaint] {
            assert!(lines.iter().any(|l| l.kind == kind), "no {kind:?} line");
        }
        let inpaint = lines.iter().find(|l| l.kind == Kind::Inpaint).unwrap();
        let v = Json::parse(&inpaint.text).unwrap();
        let image = v.get("task").and_then(|t| t.get("image")).unwrap();
        assert_eq!(image.get("width").and_then(Json::as_u64), Some(SOURCE_SIZE as u64));
        // 16·16·3 bytes → 1024 base64 characters.
        assert_eq!(image.get("rgb8_b64").and_then(Json::as_str).map(str::len), Some(1024));
    }

    #[test]
    fn repeat_lines_stay_in_the_prompt_pool_and_favour_its_head() {
        let lines = take(Mix::Repeat, 11, 2000);
        let mut counts = [0usize; PROMPTS.len()];
        for l in &lines {
            let v = Json::parse(&l.text).unwrap();
            let p = v.get("prompt").and_then(Json::as_str).unwrap();
            counts[PROMPTS.iter().position(|q| *q == p).unwrap()] += 1;
        }
        assert!(counts[0] > counts[PROMPTS.len() - 1] * 4, "{counts:?}");
    }

    #[test]
    fn base64_matches_the_rfc_vectors() {
        for (raw, enc) in
            [("", ""), ("f", "Zg=="), ("fo", "Zm8="), ("foo", "Zm9v"), ("foobar", "Zm9vYmFy")]
        {
            assert_eq!(base64(raw.as_bytes()), enc);
        }
    }
}
