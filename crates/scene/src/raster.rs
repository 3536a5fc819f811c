//! Rasterization of scene specs into RGB images with annotations.

use crate::layout::Layout;
use crate::types::{Annotation, BBox, SceneSpec, TimeOfDay, Viewpoint};
use aero_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

/// An RGB image with `f32` channels in `[0, 1]`, stored channel-major
/// (`[3, h, w]`, matching the tensor layout the models consume).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Image {
    /// Creates a black image.
    pub fn new(width: usize, height: usize) -> Self {
        Image { width, height, data: vec![0.0; 3 * width * height] }
    }

    /// Builds an image from a `[3, h, w]` tensor, clamping to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is `[3, h, w]`.
    pub fn from_tensor(t: &Tensor) -> Self {
        assert_eq!(t.rank(), 3, "image tensor must be [3, h, w]");
        assert_eq!(t.shape()[0], 3, "image tensor must have 3 channels");
        let (h, w) = (t.shape()[1], t.shape()[2]);
        Image { width: w, height: h, data: t.clamp(0.0, 1.0).into_vec() }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Reads the RGB value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn pixel(&self, x: usize, y: usize) -> [f32; 3] {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let plane = self.width * self.height;
        let idx = y * self.width + x;
        [self.data[idx], self.data[plane + idx], self.data[2 * plane + idx]]
    }

    /// Writes the RGB value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set_pixel(&mut self, x: usize, y: usize, rgb: [f32; 3]) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let plane = self.width * self.height;
        let idx = y * self.width + x;
        self.data[idx] = rgb[0];
        self.data[plane + idx] = rgb[1];
        self.data[2 * plane + idx] = rgb[2];
    }

    /// The image as a `[3, h, w]` tensor.
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.data.clone(), &[3, self.height, self.width])
    }

    /// Mean luminance (Rec. 601 weights) — used to verify night renders.
    pub fn mean_luminance(&self) -> f32 {
        let plane = self.width * self.height;
        let mut acc = 0.0;
        for i in 0..plane {
            acc += 0.299 * self.data[i]
                + 0.587 * self.data[plane + i]
                + 0.114 * self.data[2 * plane + i];
        }
        acc / plane as f32
    }

    /// Extracts a crop, clamping the window to the image, and resizes it
    /// to `(out_w, out_h)` with nearest-neighbour sampling. Used by the
    /// ROI feature-augmentation path ("each region is resized to match
    /// the dimensions of the original image").
    pub fn crop_resize(&self, bbox: &BBox, out_w: usize, out_h: usize) -> Image {
        let b = bbox.clip(self.width, self.height);
        let (bw, bh) = (b.width().max(1.0), b.height().max(1.0));
        let mut out = Image::new(out_w, out_h);
        for oy in 0..out_h {
            for ox in 0..out_w {
                let sx = (b.x0 + (ox as f32 + 0.5) / out_w as f32 * bw) as usize;
                let sy = (b.y0 + (oy as f32 + 0.5) / out_h as f32 * bh) as usize;
                let sx = sx.min(self.width - 1);
                let sy = sy.min(self.height - 1);
                out.set_pixel(ox, oy, self.pixel(sx, sy));
            }
        }
        out
    }

    /// Nearest-neighbour resize of the whole image.
    pub fn resize(&self, out_w: usize, out_h: usize) -> Image {
        self.crop_resize(&BBox::new(0.0, 0.0, self.width as f32, self.height as f32), out_w, out_h)
    }

    /// Writes the image as a binary PPM (P6) file.
    ///
    /// # Errors
    ///
    /// Propagates any I/O failure.
    pub fn save_ppm<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "P6\n{} {}\n255", self.width, self.height)?;
        let plane = self.width * self.height;
        let mut buf = Vec::with_capacity(3 * plane);
        for i in 0..plane {
            for c in 0..3 {
                buf.push((self.data[c * plane + i].clamp(0.0, 1.0) * 255.0) as u8);
            }
        }
        f.write_all(&buf)
    }

    /// Reads a binary PPM (P6) file written by [`Image::save_ppm`] (or any
    /// 8-bit P6 writer), mapping bytes back into `[0, 1]` channels.
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures or malformed headers/payloads.
    pub fn load_ppm<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::decode_ppm(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Decodes an in-memory binary PPM (P6) payload.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed header field or a
    /// short pixel payload.
    pub fn decode_ppm(bytes: &[u8]) -> Result<Self, String> {
        // Header: "P6" <ws> width <ws> height <ws> maxval <single ws> data.
        let mut pos = 0usize;
        let mut field = |bytes: &[u8]| -> Result<String, String> {
            while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            let start = pos;
            while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if start == pos {
                return Err("truncated PPM header".into());
            }
            String::from_utf8(bytes[start..pos].to_vec()).map_err(|_| "non-ASCII header".into())
        };
        if field(bytes)? != "P6" {
            return Err("not a P6 PPM".into());
        }
        let width: usize = field(bytes)?.parse().map_err(|_| "bad width")?;
        let height: usize = field(bytes)?.parse().map_err(|_| "bad height")?;
        if field(bytes)? != "255" {
            return Err("only maxval 255 is supported".into());
        }
        pos += 1; // the single whitespace byte before the payload
        let plane = width * height;
        let payload = bytes.get(pos..pos + 3 * plane).ok_or("short PPM payload")?;
        let mut data = vec![0.0f32; 3 * plane];
        for i in 0..plane {
            for c in 0..3 {
                data[c * plane + i] = f32::from(payload[3 * i + c]) / 255.0;
            }
        }
        Ok(Image { width, height, data })
    }

    /// Warps this image through a pixel-to-pixel [`Homography`]: output
    /// pixel `(x, y)` samples the source at `h.apply(x, y)` with
    /// nearest-neighbour lookup, clamped to the image (edge extension).
    pub fn warp(&self, h: &Homography) -> Image {
        let mut out = Image::new(self.width, self.height);
        for oy in 0..self.height {
            for ox in 0..self.width {
                let (sx, sy) = h.apply(ox as f32 + 0.5, oy as f32 + 0.5);
                let sx = (sx.floor().max(0.0) as usize).min(self.width - 1);
                let sy = (sy.floor().max(0.0) as usize).min(self.height - 1);
                out.set_pixel(ox, oy, self.pixel(sx, sy));
            }
        }
        out
    }
}

/// An affine pixel-to-pixel homography derived from the parametric drone
/// camera (heading rotation, altitude zoom, pitch foreshortening).
///
/// The camera model in [`Rasterizer::world_to_pixel`] is affine, so the
/// composition `pixel →(view A)→ world →(view B)→ pixel` is exactly
/// representable as a 3×3 matrix with last row `[0, 0, 1]`. This is the
/// cross-view warp prior used by the view-translation workload: warp the
/// source view into the target view's frame before conditioning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Homography {
    /// Row-major 3×3 matrix; maps homogeneous `(x, y, 1)` pixel coords.
    pub m: [[f32; 3]; 3],
}

impl Homography {
    /// The identity warp.
    pub fn identity() -> Self {
        Homography { m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]] }
    }

    /// The warp taking **target-view** pixel coordinates to **source-view**
    /// pixel coordinates on a `width`×`height` raster: the inverse camera
    /// of `target` into world space composed with the forward camera of
    /// `source`. `image.warp(&h)` with this homography renders the source
    /// image as it would appear from the target viewpoint.
    pub fn between(width: usize, height: usize, source: &Viewpoint, target: &Viewpoint) -> Self {
        let to_source = camera_matrix(width, height, source);
        let from_target = invert_affine(&camera_matrix(width, height, target));
        Homography { m: mat_mul(&to_source, &from_target) }
    }

    /// Applies the homography to a pixel coordinate.
    pub fn apply(&self, x: f32, y: f32) -> (f32, f32) {
        let m = &self.m;
        (m[0][0] * x + m[0][1] * y + m[0][2], m[1][0] * x + m[1][1] * y + m[1][2])
    }

    /// The inverse warp.
    pub fn invert(&self) -> Self {
        Homography { m: invert_affine(&self.m) }
    }

    /// A stable 64-bit fingerprint of the matrix (FNV-1a over the f32 bit
    /// patterns), used in condition-cache keys.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for row in &self.m {
            for &value in row {
                for byte in value.to_bits().to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        hash
    }
}

/// The affine world→pixel camera matrix of [`Rasterizer::world_to_pixel`].
fn camera_matrix(width: usize, height: usize, vp: &Viewpoint) -> [[f32; 3]; 3] {
    let theta = vp.heading_deg.to_radians();
    let zoom = 1.0 / vp.altitude.max(0.1);
    let fore = vp.pitch_deg.to_radians().sin().max(0.2);
    let (c, s) = (theta.cos(), theta.sin());
    let (w, h) = (width as f32, height as f32);
    let (sx, sy) = (zoom * w, zoom * fore * h);
    // x = ((u-0.5)c - (v-0.5)s)·zoom·W + 0.5W, y likewise with fore·H.
    [
        [sx * c, -sx * s, sx * (0.5 * s - 0.5 * c) + 0.5 * w],
        [sy * s, sy * c, sy * (-0.5 * s - 0.5 * c) + 0.5 * h],
        [0.0, 0.0, 1.0],
    ]
}

fn mat_mul(a: &[[f32; 3]; 3], b: &[[f32; 3]; 3]) -> [[f32; 3]; 3] {
    let mut out = [[0.0f32; 3]; 3];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = (0..3).map(|k| a[i][k] * b[k][j]).sum();
        }
    }
    out
}

/// Inverts an affine matrix (last row `[0, 0, 1]`). The camera's 2×2
/// block is rotation·diagonal-scale with strictly positive scales, so it
/// is always invertible.
fn invert_affine(m: &[[f32; 3]; 3]) -> [[f32; 3]; 3] {
    let det = m[0][0] * m[1][1] - m[0][1] * m[1][0];
    let inv = [[m[1][1] / det, -m[0][1] / det], [-m[1][0] / det, m[0][0] / det]];
    [
        [inv[0][0], inv[0][1], -(inv[0][0] * m[0][2] + inv[0][1] * m[1][2])],
        [inv[1][0], inv[1][1], -(inv[1][0] * m[0][2] + inv[1][1] * m[1][2])],
        [0.0, 0.0, 1.0],
    ]
}

/// A rendered scene: the image plus its pixel-space annotations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnotatedImage {
    /// The rendered RGB image.
    pub image: Image,
    /// Visible objects' class + clipped pixel boxes.
    pub boxes: Vec<Annotation>,
}

/// Renders [`SceneSpec`]s at a fixed resolution.
///
/// The renderer uses inverse mapping: every pixel is mapped back into the
/// scene's world frame through the drone viewpoint (heading rotation,
/// altitude zoom, oblique pitch foreshortening) and shaded by querying the
/// layout, then objects are composited on top. Night scenes darken the
/// palette and add headlight/streetlight pools, mirroring the "high-noise
/// condition" the paper describes for Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rasterizer {
    width: usize,
    height: usize,
}

impl Rasterizer {
    /// Creates a rasterizer producing `width`×`height` images.
    pub fn new(width: usize, height: usize) -> Self {
        Rasterizer { width, height }
    }

    /// Output width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Output height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Renders the scene and its annotations.
    pub fn render(&self, spec: &SceneSpec) -> AnnotatedImage {
        let vp = &spec.viewpoint;
        let mut image = Image::new(self.width, self.height);
        let night = spec.time == TimeOfDay::Night;

        // Deterministic per-scene noise.
        let mut noise_state = spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut noise = move || {
            noise_state ^= noise_state << 13;
            noise_state ^= noise_state >> 7;
            noise_state ^= noise_state << 17;
            ((noise_state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        };

        for py in 0..self.height {
            for px in 0..self.width {
                let (u, v) = self.pixel_to_world(px as f32 + 0.5, py as f32 + 0.5, vp);
                let mut rgb = self.shade_world(u, v, spec);
                // Object compositing in world space.
                for o in &spec.objects {
                    let (len, wid) = o.class.footprint();
                    let (dx, dy) = (u - o.x, v - o.y);
                    let (c, s) = (o.heading.cos(), o.heading.sin());
                    let local_x = dx * c + dy * s;
                    let local_y = -dx * s + dy * c;
                    if local_x.abs() <= len * 0.5 && local_y.abs() <= wid * 0.5 {
                        let base = o.class.base_color();
                        let t = o.tint * 0.4 - 0.2;
                        rgb = [
                            (base[0] + t).clamp(0.0, 1.0),
                            (base[1] + t).clamp(0.0, 1.0),
                            (base[2] + t).clamp(0.0, 1.0),
                        ];
                        // windshield hint towards the front of vehicles
                        if len > 0.03 && local_x > len * 0.28 {
                            rgb = [0.25, 0.3, 0.38];
                        }
                    }
                }
                if night {
                    rgb = self.apply_night(rgb, u, v, spec);
                }
                let n = noise() * 0.04;
                rgb = [
                    (rgb[0] + n).clamp(0.0, 1.0),
                    (rgb[1] + n).clamp(0.0, 1.0),
                    (rgb[2] + n).clamp(0.0, 1.0),
                ];
                image.set_pixel(px, py, rgb);
            }
        }

        let boxes = self.annotate(spec);
        AnnotatedImage { image, boxes }
    }

    /// Projects a world point into pixel coordinates under a viewpoint.
    pub fn world_to_pixel(&self, u: f32, v: f32, vp: &Viewpoint) -> (f32, f32) {
        let theta = vp.heading_deg.to_radians();
        let zoom = 1.0 / vp.altitude.max(0.1);
        let fore = vp.pitch_deg.to_radians().sin().max(0.2);
        let (c, s) = (theta.cos(), theta.sin());
        let rx = (u - 0.5) * c - (v - 0.5) * s;
        let ry = (u - 0.5) * s + (v - 0.5) * c;
        let x = rx * zoom + 0.5;
        let y = ry * zoom * fore + 0.5;
        (x * self.width as f32, y * self.height as f32)
    }

    /// Maps a pixel coordinate back into the scene's world frame — the
    /// exact inverse of [`Rasterizer::world_to_pixel`]. Public so camera
    /// consumers (e.g. the cross-view homography) can compose the two.
    pub fn pixel_to_world(&self, px: f32, py: f32, vp: &Viewpoint) -> (f32, f32) {
        let theta = vp.heading_deg.to_radians();
        let zoom = 1.0 / vp.altitude.max(0.1);
        let fore = vp.pitch_deg.to_radians().sin().max(0.2);
        let x = px / self.width as f32 - 0.5;
        let y = py / self.height as f32 - 0.5;
        let rx = x / zoom;
        let ry = y / (zoom * fore);
        let (c, s) = (theta.cos(), theta.sin());
        let u = rx * c + ry * s + 0.5;
        let v = -rx * s + ry * c + 0.5;
        (u, v)
    }

    fn shade_world(&self, u: f32, v: f32, spec: &SceneSpec) -> [f32; 3] {
        let layout: &Layout = &spec.layout;
        // Out-of-world margins render as darker earth.
        if !(0.0..=1.0).contains(&u) || !(0.0..=1.0).contains(&v) {
            return [0.22, 0.24, 0.18];
        }
        for w in &layout.water {
            let d = ((u - w.cx).powi(2) + (v - w.cy).powi(2)).sqrt();
            if d <= w.r {
                return [0.16, 0.32, 0.52];
            }
        }
        for road in &layout.roads {
            let d = road.distance_to((u, v));
            if d <= road.half_width {
                // lane markings: thin bright bands between lanes
                let lanes = road.lanes.max(1);
                if lanes > 1 {
                    let rel = (d / road.half_width + 1.0) * 0.5; // 0..1 across road
                    let lane_pos = rel * lanes as f32;
                    if (lane_pos - lane_pos.round()).abs() < 0.06
                        && lane_pos.round() as usize != 0
                        && (lane_pos.round() as usize) < lanes
                    {
                        return [0.85, 0.85, 0.82];
                    }
                }
                return [0.32, 0.32, 0.34];
            }
            if d <= road.half_width * 1.15 {
                return [0.78, 0.78, 0.75]; // kerb / painted edge
            }
        }
        for p in &layout.plazas {
            if (u - p.cx).abs() <= p.hx && (v - p.cy).abs() <= p.hy {
                return [0.62, 0.6, 0.58];
            }
        }
        for b in &layout.buildings {
            if (u - b.cx).abs() <= b.hx && (v - b.cy).abs() <= b.hy {
                // roof palette varies with tint: warm reds through greys
                let t = b.tint;
                return [0.45 + 0.4 * (1.0 - t), 0.28 + 0.22 * t, 0.25 + 0.25 * t];
            }
        }
        for t in &layout.trees {
            let d = ((u - t.cx).powi(2) + (v - t.cy).powi(2)).sqrt();
            if d <= t.r {
                return [0.12, 0.38 + 0.1 * (1.0 - d / t.r), 0.14];
            }
        }
        [0.35, 0.48, 0.26] // grass
    }

    fn apply_night(&self, rgb: [f32; 3], u: f32, v: f32, spec: &SceneSpec) -> [f32; 3] {
        let mut out = [rgb[0] * 0.16, rgb[1] * 0.17, rgb[2] * 0.22];
        // Headlight pools ahead of vehicles.
        for o in &spec.objects {
            let (len, _) = o.class.footprint();
            if len < 0.03 {
                continue; // pedestrians/bicycles carry no headlights
            }
            let hx = o.x + o.heading.cos() * len * 0.7;
            let hy = o.y + o.heading.sin() * len * 0.7;
            let d = ((u - hx).powi(2) + (v - hy).powi(2)).sqrt();
            let glow = (1.0 - d / 0.03).max(0.0);
            if glow > 0.0 {
                out[0] = (out[0] + 0.85 * glow).min(1.0);
                out[1] = (out[1] + 0.8 * glow).min(1.0);
                out[2] = (out[2] + 0.6 * glow).min(1.0);
            }
        }
        // Streetlight pools along roads.
        for road in &spec.layout.roads {
            let mut t = 0.1;
            while t < 1.0 {
                let (lx, ly) = road.point_at(t, road.half_width * 1.1);
                let d = ((u - lx).powi(2) + (v - ly).powi(2)).sqrt();
                let glow = (1.0 - d / 0.05).max(0.0) * 0.5;
                if glow > 0.0 {
                    out[0] = (out[0] + glow * 0.9).min(1.0);
                    out[1] = (out[1] + glow * 0.75).min(1.0);
                    out[2] = (out[2] + glow * 0.4).min(1.0);
                }
                t += 0.2;
            }
        }
        out
    }

    fn annotate(&self, spec: &SceneSpec) -> Vec<Annotation> {
        let mut boxes = Vec::new();
        for o in &spec.objects {
            let (len, wid) = o.class.footprint();
            let (c, s) = (o.heading.cos(), o.heading.sin());
            let corners = [
                (o.x + c * len * 0.5 - s * wid * 0.5, o.y + s * len * 0.5 + c * wid * 0.5),
                (o.x + c * len * 0.5 + s * wid * 0.5, o.y + s * len * 0.5 - c * wid * 0.5),
                (o.x - c * len * 0.5 - s * wid * 0.5, o.y - s * len * 0.5 + c * wid * 0.5),
                (o.x - c * len * 0.5 + s * wid * 0.5, o.y - s * len * 0.5 - c * wid * 0.5),
            ];
            let mut x0 = f32::INFINITY;
            let mut y0 = f32::INFINITY;
            let mut x1 = f32::NEG_INFINITY;
            let mut y1 = f32::NEG_INFINITY;
            for (u, v) in corners {
                let (px, py) = self.world_to_pixel(u, v, &spec.viewpoint);
                x0 = x0.min(px);
                y0 = y0.min(py);
                x1 = x1.max(px);
                y1 = y1.max(py);
            }
            let bbox = BBox::new(x0, y0, x1, y1).clip(self.width, self.height);
            if bbox.is_visible() {
                boxes.push(Annotation { class: o.class, bbox });
            }
        }
        boxes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{SceneGenerator, SceneGeneratorConfig};
    use crate::types::SceneKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_scene(seed: u64) -> SceneSpec {
        let gen = SceneGenerator::new(SceneGeneratorConfig::default());
        gen.generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn image_pixel_round_trip() {
        let mut img = Image::new(4, 4);
        img.set_pixel(2, 1, [0.1, 0.5, 0.9]);
        assert_eq!(img.pixel(2, 1), [0.1, 0.5, 0.9]);
        assert_eq!(img.pixel(0, 0), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn tensor_round_trip() {
        let mut img = Image::new(3, 2);
        img.set_pixel(1, 1, [0.2, 0.4, 0.6]);
        let t = img.to_tensor();
        assert_eq!(t.shape(), &[3, 2, 3]);
        assert_eq!(Image::from_tensor(&t), img);
    }

    #[test]
    fn render_produces_in_range_pixels_and_boxes() {
        let r = Rasterizer::new(32, 32);
        let a = r.render(&sample_scene(1));
        let t = a.image.to_tensor();
        assert!(t.min() >= 0.0 && t.max() <= 1.0);
        assert!(!a.boxes.is_empty());
        for b in &a.boxes {
            assert!(b.bbox.x1 <= 32.0 && b.bbox.y1 <= 32.0);
        }
    }

    #[test]
    fn night_is_darker_than_day() {
        let r = Rasterizer::new(32, 32);
        let spec = sample_scene(2);
        let day = r.render(&spec.with_time(TimeOfDay::Day)).image.mean_luminance();
        let night = r.render(&spec.with_time(TimeOfDay::Night)).image.mean_luminance();
        assert!(night < day * 0.7, "night {night} vs day {day}");
    }

    #[test]
    fn lower_altitude_zooms_in() {
        // At lower altitude the same object covers more pixels.
        let r = Rasterizer::new(64, 64);
        let spec = sample_scene(3);
        let high = r.render(&spec.with_viewpoint(Viewpoint::top_down(1.0)));
        let low = r.render(&spec.with_viewpoint(Viewpoint::top_down(0.5)));
        let area = |a: &AnnotatedImage| -> f32 {
            a.boxes.iter().map(|b| b.bbox.area()).sum::<f32>() / a.boxes.len().max(1) as f32
        };
        assert!(area(&low) > area(&high), "low {} high {}", area(&low), area(&high));
    }

    #[test]
    fn oblique_pitch_compresses_vertically() {
        let r = Rasterizer::new(64, 64);
        let vp_nadir = Viewpoint { altitude: 1.0, pitch_deg: 90.0, heading_deg: 0.0 };
        let vp_oblique = Viewpoint { altitude: 1.0, pitch_deg: 40.0, heading_deg: 0.0 };
        let (_, y_n) = r.world_to_pixel(0.5, 0.9, &vp_nadir);
        let (_, y_o) = r.world_to_pixel(0.5, 0.9, &vp_oblique);
        assert!((y_o - 32.0).abs() < (y_n - 32.0).abs());
    }

    #[test]
    fn render_is_deterministic() {
        let r = Rasterizer::new(32, 32);
        let spec = sample_scene(4);
        assert_eq!(r.render(&spec), r.render(&spec));
    }

    #[test]
    fn crop_resize_shapes() {
        let r = Rasterizer::new(32, 32);
        let a = r.render(&sample_scene(5));
        let b = &a.boxes[0];
        let crop = a.image.crop_resize(&b.bbox, 32, 32);
        assert_eq!((crop.width(), crop.height()), (32, 32));
    }

    #[test]
    fn park_scene_contains_water_pixels() {
        let gen = SceneGenerator::default();
        let mut rng = StdRng::seed_from_u64(8);
        let mut spec = gen.generate_kind(SceneKind::Park, &mut rng);
        spec.time = TimeOfDay::Day;
        spec.viewpoint = Viewpoint::top_down(1.0);
        let img = Rasterizer::new(48, 48).render(&spec).image;
        // count blue-dominant pixels
        let mut blue = 0;
        for y in 0..48 {
            for x in 0..48 {
                let p = img.pixel(x, y);
                if p[2] > p[0] + 0.1 && p[2] > p[1] + 0.1 {
                    blue += 1;
                }
            }
        }
        assert!(blue > 10, "expected pond pixels, found {blue}");
    }

    #[test]
    fn homography_matches_camera_composition() {
        // The matrix form must agree with pixel_to_world ∘ world_to_pixel
        // computed pointwise through the rasterizer.
        let r = Rasterizer::new(32, 32);
        let source = Viewpoint { altitude: 0.6, pitch_deg: 55.0, heading_deg: 25.0 };
        let target = Viewpoint { altitude: 0.9, pitch_deg: 80.0, heading_deg: -40.0 };
        let h = Homography::between(32, 32, &source, &target);
        for &(px, py) in &[(0.5f32, 0.5f32), (17.0, 4.5), (31.5, 31.5), (3.25, 28.0)] {
            let (u, v) = r.pixel_to_world(px, py, &target);
            let (ex, ey) = r.world_to_pixel(u, v, &source);
            let (hx, hy) = h.apply(px, py);
            assert!((hx - ex).abs() < 1e-3 && (hy - ey).abs() < 1e-3, "({hx},{hy}) vs ({ex},{ey})");
        }
    }

    #[test]
    fn homography_inverse_round_trips() {
        let source = Viewpoint { altitude: 0.5, pitch_deg: 45.0, heading_deg: 70.0 };
        let target = Viewpoint::top_down(1.0);
        let h = Homography::between(48, 48, &source, &target);
        let inv = h.invert();
        let (x, y) = h.apply(12.0, 30.0);
        let (bx, by) = inv.apply(x, y);
        assert!((bx - 12.0).abs() < 1e-3 && (by - 30.0).abs() < 1e-3, "({bx}, {by})");
        // Same-viewpoint warp is the identity.
        let id = Homography::between(48, 48, &target, &target);
        let (ix, iy) = id.apply(7.5, 9.5);
        assert!((ix - 7.5).abs() < 1e-4 && (iy - 9.5).abs() < 1e-4);
    }

    #[test]
    fn identity_warp_preserves_the_image() {
        let img = Rasterizer::new(16, 16).render(&sample_scene(9)).image;
        assert_eq!(img.warp(&Homography::identity()), img);
    }

    #[test]
    fn homography_digest_distinguishes_viewpoints() {
        let a = Homography::between(32, 32, &Viewpoint::top_down(1.0), &Viewpoint::top_down(0.5));
        let b = Homography::between(32, 32, &Viewpoint::top_down(1.0), &Viewpoint::top_down(0.6));
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.digest());
    }

    #[test]
    fn ppm_round_trips_through_load() {
        let dir = std::env::temp_dir().join("aero_scene_ppm_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("rt.ppm");
        let img = Rasterizer::new(12, 9).render(&sample_scene(10)).image;
        img.save_ppm(&p).unwrap();
        let back = Image::load_ppm(&p).unwrap();
        assert_eq!((back.width(), back.height()), (12, 9));
        // 8-bit quantization (truncating writer): within one step.
        for y in 0..9 {
            for x in 0..12 {
                let (a, b) = (img.pixel(x, y), back.pixel(x, y));
                for c in 0..3 {
                    assert!((a[c] - b[c]).abs() <= 1.0 / 255.0 + 1e-6, "{a:?} vs {b:?}");
                }
            }
        }
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn ppm_write_succeeds() {
        let dir = std::env::temp_dir().join("aero_scene_ppm");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.ppm");
        Rasterizer::new(8, 8).render(&sample_scene(6)).image.save_ppm(&p).unwrap();
        let meta = std::fs::metadata(&p).unwrap();
        assert!(meta.len() > 8 * 8 * 3);
        let _ = std::fs::remove_file(p);
    }
}
