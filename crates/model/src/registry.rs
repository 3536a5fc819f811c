//! A named, versioned registry of model artifacts.
//!
//! A registry is a directory holding artifact files plus one
//! `index.txt`:
//!
//! ```text
//! version=1
//! <name> <version> <file> <crc32hex> <len>
//! ```
//!
//! Publishing assigns the next version for the name, writes the artifact
//! and the updated index atomically (tmp + rename, index last), and
//! records the artifact's CRC32 and length so integrity can be checked
//! without parsing anything. Every read-path call re-reads the index
//! from disk — the registry object itself is stateless, so concurrent
//! publishers on the same directory see each other's entries on the
//! next call.
//!
//! The serving runtime resolves `name[@version]` against a registry to
//! hot-swap models; corrupted artifacts are rejected at load time (the
//! artifact's own trailing CRC is verified before any decode) and the
//! old model keeps serving.
//!
//! The index is untrusted input like any file: an entry is accepted only
//! if its file is the `<name>-v<version>.amdl` that `publish` writes for
//! a valid name, so no index line can point a read outside the registry
//! directory, and every read of an artifact stops one byte past the
//! length the index records.

use crate::{ModelArtifact, ModelError};
use aero_nn::integrity::{crc32, write_atomic};
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};

/// The index format version this build reads and writes.
const INDEX_VERSION: u32 = 1;

/// One published artifact in a registry index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Model name (registry-unique together with `version`).
    pub name: String,
    /// Monotonic version, starting at 1 per name.
    pub version: u32,
    /// Artifact file name relative to the registry directory.
    pub file: String,
    /// The artifact's own trailing CRC32 at publish time. Recorded
    /// rather than a whole-file CRC because the latter is the same
    /// constant for every valid artifact (the CRC residue of a message
    /// followed by its own checksum), which would make index entries
    /// indistinguishable at a glance.
    pub crc32: u32,
    /// Artifact length in bytes at publish time.
    pub len: u64,
}

/// Integrity state of one registry entry, checked against the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityState {
    /// File present, length and CRC match the index.
    Verified,
    /// File missing from the registry directory.
    Missing,
    /// File present but length or CRC disagree with the index.
    Corrupt {
        /// What exactly mismatched.
        detail: String,
    },
}

/// A directory of named, versioned model artifacts.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    dir: PathBuf,
}

/// The artifact's own stored checksum: the little-endian u32 in its
/// last four bytes. Callers guarantee `bytes.len() >= 4` (publish
/// parses the artifact first; verify length-checks against the index).
fn trailing_crc(bytes: &[u8]) -> u32 {
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[bytes.len() - 4..]);
    u32::from_le_bytes(word)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

impl ModelRegistry {
    /// Opens (creating if needed) a registry directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures; a malformed existing
    /// index surfaces from the first read-path call instead.
    pub fn open(dir: &Path) -> Result<ModelRegistry, ModelError> {
        fs::create_dir_all(dir)?;
        Ok(ModelRegistry { dir: dir.to_path_buf() })
    }

    /// The registry directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn index_path(&self) -> PathBuf {
        self.dir.join("index.txt")
    }

    /// All published entries, in index (publish) order.
    ///
    /// # Errors
    ///
    /// [`ModelError::Meta`] on a malformed index, including an entry whose
    /// file is not the `<name>-v<version>.amdl` that [`Self::publish`]
    /// writes; [`ModelError::VersionMismatch`] on an index written by an
    /// unsupported format version.
    pub fn entries(&self) -> Result<Vec<RegistryEntry>, ModelError> {
        let path = self.index_path();
        if !path.exists() {
            return Ok(Vec::new());
        }
        let text = fs::read_to_string(&path)?;
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        let version: u32 = header
            .strip_prefix("version=")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ModelError::Meta(format!("index header malformed: {header:?}")))?;
        if version != INDEX_VERSION {
            return Err(ModelError::VersionMismatch { found: version, supported: INDEX_VERSION });
        }
        let mut entries = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [name, ver, file, crc, len] = fields.as_slice() else {
                return Err(ModelError::Meta(format!("index entry malformed: {line:?}")));
            };
            let version: u32 =
                ver.parse().map_err(|e| ModelError::Meta(format!("index version field: {e}")))?;
            let expected = format!("{name}-v{version}.amdl");
            if !valid_name(name) || *file != expected {
                return Err(ModelError::Meta(format!(
                    "index entry names file {file:?}; publish writes {expected:?} for a valid name"
                )));
            }
            entries.push(RegistryEntry {
                name: (*name).to_string(),
                version,
                file: expected,
                crc32: u32::from_str_radix(crc, 16)
                    .map_err(|e| ModelError::Meta(format!("index crc field: {e}")))?,
                len: len.parse().map_err(|e| ModelError::Meta(format!("index len field: {e}")))?,
            });
        }
        Ok(entries)
    }

    fn write_index(&self, entries: &[RegistryEntry]) -> Result<(), ModelError> {
        let mut out = format!("version={INDEX_VERSION}\n");
        for e in entries {
            out.push_str(&format!(
                "{} {} {} {:08x} {}\n",
                e.name, e.version, e.file, e.crc32, e.len
            ));
        }
        write_atomic(&self.index_path(), out.as_bytes())?;
        Ok(())
    }

    /// Publishes artifact bytes under `name` at the next free version.
    /// The artifact file lands first (atomically), the index last, so a
    /// crash between the two leaves a benign orphan file, never a
    /// dangling index entry.
    ///
    /// # Errors
    ///
    /// Rejects invalid names and bytes that do not verify as an
    /// artifact; propagates I/O failures.
    pub fn publish(&self, name: &str, bytes: &[u8]) -> Result<RegistryEntry, ModelError> {
        if !valid_name(name) {
            return Err(ModelError::Meta(format!(
                "invalid model name {name:?} (ascii alphanumeric, '-', '_', '.' only)"
            )));
        }
        // Refuse to index bytes that could never load.
        ModelArtifact::from_bytes(bytes.to_vec())?;
        let mut entries = self.entries()?;
        let version =
            entries.iter().filter(|e| e.name == name).map(|e| e.version).max().unwrap_or(0) + 1;
        let file = format!("{name}-v{version}.amdl");
        write_atomic(&self.dir.join(&file), bytes)?;
        let entry = RegistryEntry {
            name: name.to_string(),
            version,
            file,
            crc32: trailing_crc(bytes),
            len: bytes.len() as u64,
        };
        entries.push(entry.clone());
        self.write_index(&entries)?;
        aero_obs::counter!("model.registry.publish").inc();
        Ok(entry)
    }

    /// Resolves `name` to its entry: the exact `version` when given, the
    /// latest published version otherwise.
    ///
    /// # Errors
    ///
    /// [`ModelError::Meta`] when no matching entry exists.
    pub fn resolve(&self, name: &str, version: Option<u32>) -> Result<RegistryEntry, ModelError> {
        let entries = self.entries()?;
        let found = match version {
            Some(v) => entries.into_iter().find(|e| e.name == name && e.version == v),
            None => entries.into_iter().filter(|e| e.name == name).max_by_key(|e| e.version),
        };
        found.ok_or_else(|| match version {
            Some(v) => ModelError::Meta(format!("no model {name}@{v} in registry")),
            None => ModelError::Meta(format!("no model named {name} in registry")),
        })
    }

    /// The absolute path of an entry's artifact file.
    #[must_use]
    pub fn path_of(&self, entry: &RegistryEntry) -> PathBuf {
        self.dir.join(&entry.file)
    }

    /// Reads an entry's artifact file, stopping one byte past the length
    /// the index records: a longer file is already not the published one,
    /// and the read cannot grow with whatever the file turns out to be.
    /// Every read of an artifact goes through here.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, [`std::io::ErrorKind::NotFound`] included.
    pub fn read_file(&self, entry: &RegistryEntry) -> std::io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        fs::File::open(self.path_of(entry))?
            .take(entry.len.saturating_add(1))
            .read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    /// Checks an entry's file against the length and CRC recorded at
    /// publish time, without parsing the artifact.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than the file being absent (which
    /// is [`IntegrityState::Missing`], not an error).
    pub fn verify(&self, entry: &RegistryEntry) -> Result<IntegrityState, ModelError> {
        let bytes = match self.read_file(entry) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(IntegrityState::Missing)
            }
            Err(e) => return Err(e.into()),
        };
        if bytes.len() as u64 > entry.len {
            return Ok(IntegrityState::Corrupt {
                detail: format!("longer than the recorded {} bytes", entry.len),
            });
        }
        if bytes.len() as u64 != entry.len {
            return Ok(IntegrityState::Corrupt {
                detail: format!("length {} != recorded {}", bytes.len(), entry.len),
            });
        }
        if bytes.len() < 4 {
            return Ok(IntegrityState::Corrupt { detail: "file too short for a checksum".into() });
        }
        // Two checks: the trailer must still be what was published
        // (catches a corrupted checksum field), and the payload must
        // still hash to the trailer (catches everything else).
        let stored = trailing_crc(&bytes);
        if stored != entry.crc32 {
            return Ok(IntegrityState::Corrupt {
                detail: format!("crc {:08x} != recorded {:08x}", stored, entry.crc32),
            });
        }
        let computed = crc32(&bytes[..bytes.len() - 4]);
        if computed != stored {
            return Ok(IntegrityState::Corrupt {
                detail: format!("crc {computed:08x} != stored {stored:08x}"),
            });
        }
        Ok(IntegrityState::Verified)
    }

    /// Opens and fully verifies an entry's artifact (the artifact's own
    /// trailing CRC runs before any decode), read by [`Self::read_file`].
    ///
    /// # Errors
    ///
    /// I/O, CRC, version, or structural failures — all typed.
    pub fn open_artifact(&self, entry: &RegistryEntry) -> Result<ModelArtifact, ModelError> {
        ModelArtifact::from_bytes(self.read_file(entry)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArtifactBuilder;

    fn artifact_bytes(tag: &str) -> Vec<u8> {
        let mut b = ArtifactBuilder::new();
        b.set("tag", tag);
        b.to_bytes()
    }

    fn temp_registry(name: &str) -> ModelRegistry {
        let dir = std::env::temp_dir().join(format!("aero_model_registry_{name}"));
        let _ = fs::remove_dir_all(&dir);
        ModelRegistry::open(&dir).unwrap()
    }

    #[test]
    fn publish_assigns_monotonic_versions_per_name() {
        let reg = temp_registry("versions");
        assert_eq!(reg.publish("alpha", &artifact_bytes("a1")).unwrap().version, 1);
        assert_eq!(reg.publish("alpha", &artifact_bytes("a2")).unwrap().version, 2);
        assert_eq!(reg.publish("beta", &artifact_bytes("b1")).unwrap().version, 1);
        assert_eq!(reg.resolve("alpha", None).unwrap().version, 2);
        assert_eq!(reg.resolve("alpha", Some(1)).unwrap().version, 1);
        assert!(reg.resolve("alpha", Some(9)).is_err());
        assert!(reg.resolve("gamma", None).is_err());
    }

    #[test]
    fn invalid_names_and_garbage_bytes_are_rejected() {
        let reg = temp_registry("reject");
        assert!(matches!(reg.publish("has space", &artifact_bytes("x")), Err(ModelError::Meta(_))));
        assert!(matches!(reg.publish("", &artifact_bytes("x")), Err(ModelError::Meta(_))));
        assert!(matches!(
            reg.publish("fine", b"not an artifact at all"),
            Err(ModelError::Corrupt { .. })
        ));
        assert!(reg.entries().unwrap().is_empty());
    }

    #[test]
    fn verify_reports_missing_and_corrupt() {
        let reg = temp_registry("verify");
        let entry = reg.publish("m", &artifact_bytes("v")).unwrap();
        assert_eq!(reg.verify(&entry).unwrap(), IntegrityState::Verified);
        let path = reg.path_of(&entry);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(reg.verify(&entry).unwrap(), IntegrityState::Corrupt { .. }));
        // …and actually opening it trips the artifact's own CRC too.
        assert!(matches!(reg.open_artifact(&entry), Err(ModelError::Corrupt { .. })));
        fs::remove_file(&path).unwrap();
        assert_eq!(reg.verify(&entry).unwrap(), IntegrityState::Missing);
    }

    #[test]
    fn malformed_index_is_typed() {
        let reg = temp_registry("badindex");
        reg.publish("m", &artifact_bytes("v")).unwrap();
        let header = format!("version={INDEX_VERSION}");
        fs::write(reg.dir().join("index.txt"), format!("{header}\nonly three fields\n")).unwrap();
        assert!(matches!(reg.entries(), Err(ModelError::Meta(_))));
        fs::write(reg.dir().join("index.txt"), "version=42\n").unwrap();
        assert!(matches!(reg.entries(), Err(ModelError::VersionMismatch { found: 42, .. })));
    }
}
