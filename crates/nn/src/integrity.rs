//! On-disk integrity primitives shared by every persistence path.
//!
//! Two building blocks keep saved state trustworthy without any external
//! dependency:
//!
//! - [`crc32`] — a hand-rolled CRC-32 (IEEE 802.3, reflected) over a
//!   compile-time table, so a bit flip anywhere in a file is detected;
//!   [`Crc32`] computes it over bytes that arrive in pieces;
//! - [`write_atomic`] — tmp-file-plus-rename writes, so a crash mid-save
//!   never leaves a half-written file under the final name;
//!   [`write_atomic_with`] streams the file's bytes instead of taking
//!   them whole.
//!
//! The container ([`crate::artifact`]) streams every file through
//! [`write_atomic_with`], folding its bytes into a [`Crc32`] on the way,
//! and ends it with that CRC; the model registry's index is written
//! through [`write_atomic`].

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// The CRC-32 lookup tables (IEEE 802.3 reflected polynomial
/// 0xEDB88320), generated at compile time — no runtime init, no network,
/// no deps. `CRC32_TABLES[0]` is the byte-at-a-time table; table `k`
/// advances a byte's contribution by `k` more bytes, so [`crc32`] can
/// fold eight bytes per step (slicing-by-8) to the same result.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3) of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// A running [`crc32`] over bytes that arrive in pieces: any split of
/// the same bytes finishes to the CRC of the whole.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// The CRC state before any byte.
    #[must_use]
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Feeds `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut crc = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][usize::from(w[4])]
                ^ t[2][usize::from(w[5])]
                ^ t[1][usize::from(w[6])]
                ^ t[0][usize::from(w[7])];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The CRC of every byte fed so far.
    #[must_use]
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// Writes `bytes` to `path` crash-safely: the data lands in a sibling
/// `.tmp` file first and is renamed over the final name only once fully
/// written, so readers never observe a truncated file.
///
/// # Errors
///
/// Propagates I/O failures from the write or the rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, |out| out.write_all(bytes))
}

/// [`write_atomic`] of whatever `render` writes, streamed through a
/// buffer, so the file's bytes never have to sit in memory at once.
///
/// # Errors
///
/// Propagates I/O failures from `render`, the write or the rename.
pub fn write_atomic_with(
    path: &Path,
    render: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut out = BufWriter::new(File::create(&tmp)?);
    render(&mut out)?;
    out.into_inner().map_err(io::IntoInnerError::into_error)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_standard_check_vector() {
        // The canonical IEEE CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time definition of the reflected CRC-32, against which
    /// the eight-byte folding is checked at every alignment of the tail.
    #[test]
    fn crc32_matches_the_bitwise_definition_at_every_length() {
        let bitwise = |bytes: &[u8]| {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                }
            }
            !crc
        };
        let data: Vec<u8> =
            (0u32..300).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn crc32_of_pieces_matches_crc32_of_the_whole() {
        let data: Vec<u8> = (0u32..100).map(|i| (i.wrapping_mul(40_503) >> 5) as u8).collect();
        for cut in 0..data.len() {
            for second in cut..data.len() {
                let mut crc = Crc32::new();
                crc.update(&data[..cut]);
                crc.update(&data[cut..second]);
                crc.update(&data[second..]);
                assert_eq!(crc.finish(), crc32(&data), "pieces cut at {cut} and {second}");
            }
        }
    }

    #[test]
    fn crc32_detects_a_single_bit_flip() {
        let mut data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn write_atomic_leaves_no_tmp_file() {
        let dir = std::env::temp_dir().join("aero_nn_integrity_atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        write_atomic(&path, b"payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload");
        assert!(!dir.join("blob.bin.tmp").exists(), "tmp file must be renamed away");
    }
}
