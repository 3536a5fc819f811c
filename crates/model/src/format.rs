//! The single-file binary artifact format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "AMDL" | u32 format_version | u32 kv_count | u32 tensor_count
//! u64 data_offset                       (absolute, 32-byte aligned)
//! kv section      per entry: u32 key_len | key | u32 val_len | val
//!                 (entries sorted by key — renders byte-stable)
//! tensor table    per entry: u32 name_len | name | u8 dtype |
//!                 u32 rank | u32 dims[rank] |
//!                 u64 offset (relative to data section) | u64 byte_len
//! zero padding to data_offset
//! data section    payloads, each at a 32-byte-aligned offset
//! u32 crc32       over every preceding byte
//! ```
//!
//! The trailing CRC (via `aero_nn::integrity::crc32`) is verified
//! **before** any other byte is interpreted, so a bit flip anywhere —
//! header, metadata, tensor data — surfaces as a typed
//! [`ModelError::Corrupt`], never as a garbage model or a panic. The
//! format version is `aerodiffusion`'s [`PIPELINE_FORMAT_VERSION`], the
//! same constant the directory-manifest layer uses, so the two
//! persistence layers cannot silently diverge.
//!
//! `f32` payloads are raw little-endian values. `q8` payloads are the
//! per-block scales (`f32`) followed by the padded quantized values
//! (`i8`), with block geometry implied by the tensor's shape (see
//! [`aero_tensor::quant`]).

use crate::mmap::ArtifactBytes;
use crate::ModelError;
use aero_nn::integrity::{crc32, write_atomic};
use aero_tensor::{Q8Tensor, Tensor, Q8_BLOCK};
use aerodiffusion::PIPELINE_FORMAT_VERSION;
use std::collections::BTreeMap;
use std::path::Path;

const MAGIC: &[u8; 4] = b"AMDL";

/// Alignment of the data section and of every payload within it.
pub const DATA_ALIGN: usize = 32;

/// magic + version + kv_count + tensor_count + data_offset.
const HEADER_LEN: usize = 4 + 4 + 4 + 4 + 8;

/// Element encoding of one stored tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// Raw little-endian `f32` values.
    F32,
    /// Block-quantized q8: per-block `f32` scales then padded `i8`
    /// values (see [`aero_tensor::quant`]).
    Q8,
}

impl DType {
    fn to_byte(self) -> u8 {
        match self {
            DType::F32 => 0,
            DType::Q8 => 1,
        }
    }

    fn from_byte(b: u8) -> Result<DType, ModelError> {
        match b {
            0 => Ok(DType::F32),
            1 => Ok(DType::Q8),
            other => Err(ModelError::corrupt(format!("unknown dtype byte {other}"))),
        }
    }
}

/// One entry of the tensor-info table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorInfo {
    /// Unique tensor name (`<module>.<index>` for pipeline exports).
    pub name: String,
    /// Element encoding.
    pub dtype: DType,
    /// Logical shape.
    pub shape: Vec<usize>,
    /// Payload offset relative to the data section, 32-byte aligned.
    pub offset: u64,
    /// Payload length in bytes.
    pub byte_len: u64,
}

/// Element count of `shape`, or `None` when it overflows `usize`.
fn checked_numel(shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

/// Per-row q8 geometry for `shape`: `(rows, row_len, blocks_per_row)`,
/// matching [`aero_tensor::quant`]. Callers pass shapes whose element
/// count fits `usize` (in-memory tensors, or headers checked by
/// [`payload_len`]).
fn q8_geometry(shape: &[usize]) -> (usize, usize, usize) {
    let row_len = shape.last().copied().unwrap_or(1).max(1);
    let numel: usize = shape.iter().product();
    let rows = numel / row_len;
    let bpr = row_len.div_ceil(Q8_BLOCK).max(1);
    (rows, row_len, bpr)
}

/// Expected payload length of a stored tensor, or `None` when it
/// overflows `usize` (only a crafted header gets there). `f32` stores
/// raw values; q8 stores per-block scales plus *unpadded* row-major
/// quants. The in-memory [`Q8Tensor`] pads each row's last block to a
/// full [`Q8_BLOCK`] for the kernels; storing the padding would make
/// small-row tensors larger than `f32`, so the artifact keeps only the
/// real elements and the loader re-pads.
fn payload_len(dtype: DType, shape: &[usize]) -> Option<usize> {
    let numel = checked_numel(shape)?;
    match dtype {
        DType::F32 => numel.checked_mul(4),
        DType::Q8 => {
            let (rows, _, bpr) = q8_geometry(shape);
            rows.checked_mul(bpr)?.checked_mul(4)?.checked_add(numel)
        }
    }
}

/// Fewest bytes one tensor-table entry can occupy: an empty name's
/// length prefix, dtype, rank, offset and byte length.
const MIN_TABLE_ENTRY: usize = 4 + 1 + 4 + 8 + 8;

fn align_up(n: usize) -> usize {
    n.div_ceil(DATA_ALIGN) * DATA_ALIGN
}

/// Builds an artifact in memory, then renders it to bytes or writes it
/// atomically. Key/value entries are sorted and tensor payload layout is
/// a pure function of insertion order, so the same inputs always render
/// the same bytes.
#[derive(Debug, Default)]
pub struct ArtifactBuilder {
    kv: BTreeMap<String, String>,
    tensors: Vec<(String, DType, Vec<usize>, Vec<u8>)>,
}

impl ArtifactBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> ArtifactBuilder {
        ArtifactBuilder::default()
    }

    /// Sets a metadata key (last write wins).
    pub fn set(&mut self, key: &str, value: &str) {
        self.kv.insert(key.to_string(), value.to_string());
    }

    /// Adds a dense `f32` tensor.
    pub fn add_f32(&mut self, name: &str, t: &Tensor) {
        let mut payload = Vec::with_capacity(t.numel() * 4);
        for &v in t.as_slice() {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        self.tensors.push((name.to_string(), DType::F32, t.shape().to_vec(), payload));
    }

    /// Adds a block-quantized tensor. The payload stores all scales,
    /// then each row's quants with the last block's padding stripped
    /// (within a padded row, element `p` lives at offset `p`, so the
    /// real elements are the row prefix).
    pub fn add_q8(&mut self, name: &str, q: &Q8Tensor) {
        let (rows, row_len, bpr) = q8_geometry(q.shape());
        let mut payload = Vec::with_capacity(q.scales().len() * 4 + rows * row_len);
        for &s in q.scales() {
            payload.extend_from_slice(&s.to_le_bytes());
        }
        for row in 0..rows {
            let start = row * bpr * Q8_BLOCK;
            payload.extend(q.quants()[start..start + row_len].iter().map(|&v| v as u8));
        }
        self.tensors.push((name.to_string(), DType::Q8, q.shape().to_vec(), payload));
    }

    /// Renders the artifact to its on-disk byte form (CRC included).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut kv_section = Vec::new();
        for (k, v) in &self.kv {
            kv_section.extend_from_slice(&(k.len() as u32).to_le_bytes());
            kv_section.extend_from_slice(k.as_bytes());
            kv_section.extend_from_slice(&(v.len() as u32).to_le_bytes());
            kv_section.extend_from_slice(v.as_bytes());
        }

        // Lay out payloads first so the table can carry final offsets.
        let mut offsets = Vec::with_capacity(self.tensors.len());
        let mut data_len = 0usize;
        for (_, _, _, payload) in &self.tensors {
            offsets.push(data_len as u64);
            data_len = align_up(data_len + payload.len());
        }

        let mut table = Vec::new();
        for ((name, dtype, shape, payload), &offset) in self.tensors.iter().zip(&offsets) {
            table.extend_from_slice(&(name.len() as u32).to_le_bytes());
            table.extend_from_slice(name.as_bytes());
            table.push(dtype.to_byte());
            table.extend_from_slice(&(shape.len() as u32).to_le_bytes());
            for &d in shape {
                table.extend_from_slice(&(d as u32).to_le_bytes());
            }
            table.extend_from_slice(&offset.to_le_bytes());
            table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        }

        let data_offset = align_up(HEADER_LEN + kv_section.len() + table.len());
        let mut out = Vec::with_capacity(data_offset + data_len + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&PIPELINE_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.kv.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.tensors.len() as u32).to_le_bytes());
        out.extend_from_slice(&(data_offset as u64).to_le_bytes());
        out.extend_from_slice(&kv_section);
        out.extend_from_slice(&table);
        out.resize(data_offset, 0);
        for ((_, _, _, payload), &offset) in self.tensors.iter().zip(&offsets) {
            out.resize(data_offset + offset as usize, 0);
            out.extend_from_slice(payload);
        }
        out.resize(data_offset + data_len, 0);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Writes the artifact crash-safely (tmp + rename).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write(&self, path: &Path) -> Result<(), ModelError> {
        write_atomic(path, &self.to_bytes())?;
        Ok(())
    }
}

/// Bounds-checked little-endian reader over the artifact bytes. Every
/// read that would run past the end returns [`ModelError::Corrupt`]
/// instead of panicking.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ModelError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| ModelError::corrupt(format!("truncated reading {what}")))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ModelError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, ModelError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ModelError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn string(&mut self, what: &str) -> Result<String, ModelError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ModelError::corrupt(format!("{what} is not utf-8")))
    }
}

/// A parsed, CRC-verified artifact. Tensor payloads stay in the backing
/// [`ArtifactBytes`] (usually a zero-copy mapping) until decoded.
#[derive(Debug)]
pub struct ModelArtifact {
    bytes: ArtifactBytes,
    kv: BTreeMap<String, String>,
    tensors: Vec<TensorInfo>,
    data_offset: usize,
    data_len: usize,
}

impl ModelArtifact {
    /// Opens and verifies an artifact file, preferring a zero-copy
    /// mapping.
    ///
    /// # Errors
    ///
    /// I/O failures, CRC mismatch, version mismatch, or any structural
    /// damage — all typed, never a panic.
    pub fn read(path: &Path) -> Result<ModelArtifact, ModelError> {
        ModelArtifact::parse(ArtifactBytes::open(path)?)
    }

    /// Verifies and parses an artifact already in memory.
    ///
    /// # Errors
    ///
    /// Same contract as [`ModelArtifact::read`], minus I/O.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<ModelArtifact, ModelError> {
        ModelArtifact::parse(ArtifactBytes::from_vec(bytes))
    }

    fn parse(bytes: ArtifactBytes) -> Result<ModelArtifact, ModelError> {
        // CRC first: nothing else is interpreted until the whole file
        // checks out.
        if bytes.len() < HEADER_LEN + 4 {
            return Err(ModelError::corrupt(format!(
                "file too short for an artifact ({} bytes)",
                bytes.len()
            )));
        }
        let body = &bytes[..bytes.len() - 4];
        let stored = u32::from_le_bytes([
            bytes[bytes.len() - 4],
            bytes[bytes.len() - 3],
            bytes[bytes.len() - 2],
            bytes[bytes.len() - 1],
        ]);
        let actual = crc32(body);
        if stored != actual {
            return Err(ModelError::corrupt(format!(
                "crc mismatch: stored {stored:08x}, computed {actual:08x}"
            )));
        }

        let mut cur = Cursor { bytes: body, pos: 0 };
        if cur.take(4, "magic")? != MAGIC {
            return Err(ModelError::corrupt("bad magic (not an AMDL artifact)".into()));
        }
        let version = cur.u32("format version")?;
        if version != PIPELINE_FORMAT_VERSION {
            return Err(ModelError::VersionMismatch {
                found: version,
                supported: PIPELINE_FORMAT_VERSION,
            });
        }
        let kv_count = cur.u32("kv count")? as usize;
        let tensor_count = cur.u32("tensor count")? as usize;
        let data_offset = cur.u64("data offset")? as usize;
        if data_offset > body.len() {
            return Err(ModelError::corrupt(format!(
                "data offset {data_offset} beyond file body ({} bytes)",
                body.len()
            )));
        }
        let data_len = body.len() - data_offset;

        let mut kv = BTreeMap::new();
        for i in 0..kv_count {
            let key = cur.string(&format!("kv key {i}"))?;
            let value = cur.string(&format!("kv value {i}"))?;
            kv.insert(key, value);
        }

        // The count is untrusted: preallocate no more entries than the
        // remaining header bytes could hold.
        let table_room = data_offset.saturating_sub(cur.pos) / MIN_TABLE_ENTRY;
        let mut tensors = Vec::with_capacity(tensor_count.min(table_room));
        for i in 0..tensor_count {
            let name = cur.string(&format!("tensor name {i}"))?;
            let dtype = DType::from_byte(cur.u8(&format!("tensor dtype {i}"))?)?;
            let rank = cur.u32(&format!("tensor rank {i}"))? as usize;
            if rank > 8 {
                return Err(ModelError::corrupt(format!("tensor {name}: rank {rank} > 8")));
            }
            let mut shape = Vec::with_capacity(rank);
            for d in 0..rank {
                shape.push(cur.u32(&format!("tensor {name} dim {d}"))? as usize);
            }
            let offset = cur.u64(&format!("tensor {name} offset"))?;
            let byte_len = cur.u64(&format!("tensor {name} byte length"))?;
            let end = offset.checked_add(byte_len).filter(|&e| e <= data_len as u64);
            if end.is_none() {
                return Err(ModelError::corrupt(format!(
                    "tensor {name}: payload {offset}+{byte_len} outside data section \
                     ({data_len} bytes)"
                )));
            }
            let Some(expected) = payload_len(dtype, &shape) else {
                return Err(ModelError::corrupt(format!(
                    "tensor {name}: shape {shape:?} overflows the addressable size"
                )));
            };
            if byte_len != expected as u64 {
                return Err(ModelError::corrupt(format!(
                    "tensor {name}: payload length {byte_len} does not match shape \
                     {shape:?} ({expected} expected)"
                )));
            }
            tensors.push(TensorInfo { name, dtype, shape, offset, byte_len });
        }
        if cur.pos > data_offset {
            return Err(ModelError::corrupt("tensor table overruns the data section".into()));
        }

        Ok(ModelArtifact { bytes, kv, tensors, data_offset, data_len })
    }

    /// The metadata section, sorted by key.
    #[must_use]
    pub fn kv(&self) -> &BTreeMap<String, String> {
        &self.kv
    }

    /// A single metadata value.
    #[must_use]
    pub fn value(&self, key: &str) -> Option<&str> {
        self.kv.get(key).map(String::as_str)
    }

    /// The tensor-info table, in stored order.
    #[must_use]
    pub fn tensor_infos(&self) -> &[TensorInfo] {
        &self.tensors
    }

    /// Whether the backing bytes are a zero-copy mapping.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// Total artifact size in bytes (header + metadata + data + CRC).
    #[must_use]
    pub fn file_len(&self) -> usize {
        self.bytes.len()
    }

    /// Total data-section size in bytes.
    #[must_use]
    pub fn data_bytes(&self) -> usize {
        self.data_len
    }

    fn payload(&self, info: &TensorInfo) -> &[u8] {
        // In-bounds by the parse-time check.
        let start = self.data_offset + info.offset as usize;
        &self.bytes[start..start + info.byte_len as usize]
    }

    fn info(&self, name: &str) -> Result<&TensorInfo, ModelError> {
        self.tensors
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| ModelError::Meta(format!("no tensor named {name}")))
    }

    /// Decodes a stored q8 tensor without dequantizing (the quantized
    /// matmul path). Returns `Ok(None)` for an `f32`-stored tensor.
    ///
    /// # Errors
    ///
    /// [`ModelError::Meta`] when no tensor has this name.
    pub fn q8_tensor(&self, name: &str) -> Result<Option<Q8Tensor>, ModelError> {
        let info = self.info(name)?;
        if info.dtype != DType::Q8 {
            return Ok(None);
        }
        Ok(Some(self.decode_q8(info)?))
    }

    fn decode_q8(&self, info: &TensorInfo) -> Result<Q8Tensor, ModelError> {
        let payload = self.payload(info);
        let (rows, row_len, bpr) = q8_geometry(&info.shape);
        // parse() already checked byte_len == payload_len(Q8, shape).
        let scales: Vec<f32> = payload[..rows * bpr * 4]
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        // Re-pad each stored row back to full blocks for the kernels.
        let packed = &payload[rows * bpr * 4..];
        let mut quants = vec![0i8; rows * bpr * Q8_BLOCK];
        for row in 0..rows {
            let src = &packed[row * row_len..(row + 1) * row_len];
            let dst = &mut quants[row * bpr * Q8_BLOCK..];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s as i8;
            }
        }
        Q8Tensor::from_parts(&info.shape, scales, quants)
            .map_err(|e| ModelError::corrupt(format!("tensor {}: {e}", info.name)))
    }

    /// Decodes a stored tensor to dense `f32`, dequantizing q8 payloads.
    ///
    /// # Errors
    ///
    /// [`ModelError::Meta`] when no tensor has this name;
    /// [`ModelError::Corrupt`] when the payload does not decode.
    pub fn tensor(&self, name: &str) -> Result<Tensor, ModelError> {
        let info = self.info(name)?;
        match info.dtype {
            DType::F32 => {
                let data: Vec<f32> = self
                    .payload(info)
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect();
                Tensor::try_from_vec(data, &info.shape)
                    .map_err(|e| ModelError::corrupt(format!("tensor {}: {e}", info.name)))
            }
            DType::Q8 => Ok(self.decode_q8(info)?.dequantize()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_builder() -> ArtifactBuilder {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = ArtifactBuilder::new();
        b.set("zeta", "last");
        b.set("alpha", "first");
        b.add_f32("dense", &Tensor::randn(&[3, 7], &mut rng));
        b.add_q8("packed", &Q8Tensor::quantize(&Tensor::randn(&[4, 40], &mut rng)));
        b
    }

    #[test]
    fn round_trip_preserves_metadata_and_tensors() {
        let b = sample_builder();
        let art = ModelArtifact::from_bytes(b.to_bytes()).unwrap();
        assert_eq!(art.value("alpha"), Some("first"));
        assert_eq!(art.value("zeta"), Some("last"));
        assert_eq!(art.tensor_infos().len(), 2);
        assert_eq!(art.tensor("dense").unwrap().shape(), &[3, 7]);
        assert!(art.q8_tensor("packed").unwrap().is_some());
        assert!(art.q8_tensor("dense").unwrap().is_none());
        assert!(matches!(art.tensor("nope"), Err(ModelError::Meta(_))));
    }

    #[test]
    fn rendering_is_byte_stable() {
        assert_eq!(sample_builder().to_bytes(), sample_builder().to_bytes());
    }

    #[test]
    fn payloads_are_aligned() {
        let art = ModelArtifact::from_bytes(sample_builder().to_bytes()).unwrap();
        for info in art.tensor_infos() {
            assert_eq!(info.offset as usize % DATA_ALIGN, 0, "{}", info.name);
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample_builder().to_bytes();
        // Flip one bit in a spread of positions across header, table and
        // data; each must yield a typed error, never a panic.
        for pos in (0..bytes.len()).step_by(17) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            match ModelArtifact::from_bytes(bad) {
                Err(ModelError::Corrupt { .. }) => {}
                other => panic!("bit flip at {pos} not caught: {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample_builder().to_bytes();
        for keep in (0..bytes.len()).step_by(13) {
            match ModelArtifact::from_bytes(bytes[..keep].to_vec()) {
                Err(ModelError::Corrupt { .. }) => {}
                other => panic!("truncation to {keep} bytes not caught: {other:?}"),
            }
        }
    }

    #[test]
    fn future_version_is_a_typed_mismatch() {
        let mut bytes = sample_builder().to_bytes();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let end = bytes.len() - 4;
        let crc = crc32(&bytes[..end]);
        bytes[end..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            ModelArtifact::from_bytes(bytes),
            Err(ModelError::VersionMismatch { found: 99, .. })
        ));
    }

    #[test]
    fn file_round_trip_is_mapped() {
        let dir = std::env::temp_dir().join("aero_model_format");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.amdl");
        let b = sample_builder();
        b.write(&path).unwrap();
        let art = ModelArtifact::read(&path).unwrap();
        #[cfg(target_os = "linux")]
        assert!(art.is_mapped());
        assert_eq!(
            art.tensor("dense").unwrap(),
            ModelArtifact::from_bytes(b.to_bytes()).unwrap().tensor("dense").unwrap()
        );
    }
}
