//! Crafted `.amdl` headers. The trailing CRC is a checksum, not
//! authentication: a hostile file simply recomputes it. Header counts and
//! sizes read from such a file must be rejected as typed corruption —
//! never an allocation abort, never a size that wrapped around.

use aero_model::{ModelArtifact, ModelError};
use aero_nn::integrity::crc32;
use aerodiffusion::PIPELINE_FORMAT_VERSION;

/// A structurally plausible artifact — magic, version, no metadata,
/// `tensor_count`, the raw tensor `table`, an empty data section — with
/// a correctly recomputed CRC.
fn crafted(tensor_count: u32, table: &[u8]) -> Vec<u8> {
    let header_len = 4 + 4 + 4 + 4 + 8;
    let data_offset = (header_len + table.len()).div_ceil(32) * 32;
    let mut out = Vec::new();
    out.extend_from_slice(b"AMDL");
    out.extend_from_slice(&PIPELINE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&tensor_count.to_le_bytes());
    out.extend_from_slice(&(data_offset as u64).to_le_bytes());
    out.extend_from_slice(table);
    out.resize(data_offset, 0);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// One tensor-table entry named `t` with a 0-byte payload at offset 0.
fn entry(dtype: u8, shape: &[u32]) -> Vec<u8> {
    let mut table = Vec::new();
    table.extend_from_slice(&1u32.to_le_bytes());
    table.push(b't');
    table.push(dtype);
    table.extend_from_slice(&(shape.len() as u32).to_le_bytes());
    for d in shape {
        table.extend_from_slice(&d.to_le_bytes());
    }
    table.extend_from_slice(&0u64.to_le_bytes());
    table.extend_from_slice(&0u64.to_le_bytes());
    table
}

fn assert_corrupt(bytes: Vec<u8>, what: &str) {
    match ModelArtifact::from_bytes(bytes) {
        Err(ModelError::Corrupt { .. }) => {}
        other => panic!("{what}: expected a typed corruption error, got {other:?}"),
    }
}

#[test]
fn huge_tensor_count_is_rejected_without_preallocating_it() {
    // Trusting the count would ask the allocator for ~309 GB up front.
    assert_corrupt(crafted(u32::MAX, &[]), "tensor_count = u32::MAX");
}

#[test]
fn overflowing_payload_size_is_rejected_at_the_header() {
    // 2^31 · 2^31 f32 values are 2^64 bytes: an unchecked product wraps
    // to 0, which the 0-byte payload would match.
    let f32_table = entry(0, &[1 << 31, 1 << 31]);
    assert_corrupt(crafted(1, &f32_table), "f32 [2^31, 2^31]");
    let q8_table = entry(1, &[1 << 31, 1 << 31, 1 << 31]);
    assert_corrupt(crafted(1, &q8_table), "q8 [2^31, 2^31, 2^31]");
}
