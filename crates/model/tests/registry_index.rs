//! The registry index is untrusted input: arbitrary and mutated index
//! lines must give `Ok` or a typed error from every read-path call, and
//! no entry may name a file outside the registry directory.

use aero_model::{ArtifactBuilder, IntegrityState, ModelError, ModelRegistry, RegistryEntry};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

/// A fresh directory holding a registry (`reg/`) with one published
/// model `m`, and a valid artifact outside it (`outside.amdl`).
fn setup(name: &str) -> (PathBuf, ModelRegistry, RegistryEntry) {
    let root = std::env::temp_dir().join(format!("aero_registry_index_{name}"));
    let _ = fs::remove_dir_all(&root);
    let reg = ModelRegistry::open(&root.join("reg")).unwrap();
    let mut b = ArtifactBuilder::new();
    b.set("tag", "inside");
    let entry = reg.publish("m", &b.to_bytes()).unwrap();
    let mut b = ArtifactBuilder::new();
    b.set("tag", "outside");
    fs::write(root.join("outside.amdl"), b.to_bytes()).unwrap();
    (root, reg, entry)
}

/// The published entry's index line with its file field replaced.
fn line_naming(entry: &RegistryEntry, file: &str) -> String {
    format!("{} {} {file} {:08x} {}", entry.name, entry.version, entry.crc32, entry.len)
}

/// Writes `index` and runs every read-path call on whatever it yields.
/// Each returns `Ok` or a typed error (a panic fails the test), and every
/// accepted entry names a plain file directly inside the registry.
fn exercise(reg: &ModelRegistry, index: &[u8]) -> Result<Vec<RegistryEntry>, ModelError> {
    fs::write(reg.dir().join("index.txt"), index).unwrap();
    let entries = reg.entries()?;
    for e in &entries {
        assert_eq!(e.file, format!("{}-v{}.amdl", e.name, e.version), "{e:?}");
        assert_eq!(reg.path_of(e).parent(), Some(reg.dir()), "{e:?} escapes the registry");
        let _ = reg.resolve(&e.name, Some(e.version));
        let _ = reg.verify(e);
        let _ = reg.read_file(e);
        let _ = reg.open_artifact(e);
    }
    Ok(entries)
}

#[test]
fn an_index_naming_a_file_outside_the_registry_is_refused() {
    let (root, reg, entry) = setup("outside");
    let outside = root.join("outside.amdl");
    for file in [
        outside.to_str().unwrap(),
        "../outside.amdl",
        "./m-v1.amdl",
        "sub/m-v1.amdl",
        "m-v2.amdl",
        "M-v1.amdl",
    ] {
        let index = format!("version=1\n{}\n", line_naming(&entry, file));
        match exercise(&reg, index.as_bytes()) {
            Err(ModelError::Meta(detail)) => assert!(detail.contains("publish writes"), "{detail}"),
            other => panic!("{file:?}: expected a typed Meta error, got {other:?}"),
        }
    }
    // The line `publish` wrote still reads, verifies and opens.
    let index = format!("version=1\n{}\n", line_naming(&entry, &entry.file));
    let entries = exercise(&reg, index.as_bytes()).unwrap();
    assert_eq!(entries, vec![entry.clone()]);
    assert_eq!(reg.verify(&entry).unwrap(), IntegrityState::Verified);
    assert!(reg.open_artifact(&entry).is_ok());
}

#[test]
fn reads_stop_one_byte_past_the_recorded_length() {
    let (_root, reg, entry) = setup("bounded");
    let published = fs::read(reg.path_of(&entry)).unwrap();
    let mut longer = published.clone();
    longer.extend_from_slice(&[0u8; 4096]);
    fs::write(reg.path_of(&entry), &longer).unwrap();
    assert_eq!(reg.read_file(&entry).unwrap().len() as u64, entry.len + 1);
    assert!(matches!(reg.verify(&entry).unwrap(), IntegrityState::Corrupt { .. }));
    assert!(matches!(reg.open_artifact(&entry), Err(ModelError::Corrupt { .. })));
    // An index that understates the length reads no more than it says.
    let short = RegistryEntry { len: 10, ..entry.clone() };
    assert_eq!(reg.read_file(&short).unwrap().len(), 11);
    fs::write(reg.path_of(&entry), &published).unwrap();
    assert_eq!(reg.verify(&entry).unwrap(), IntegrityState::Verified);
}

/// Paths and names a hostile index line might carry in its file field.
const HOSTILE_FILES: [&str; 8] = [
    "../outside.amdl",
    "/etc/passwd",
    "..",
    ".",
    "m-v1.amdl/..",
    "..\\outside.amdl",
    "m-v01.amdl",
    "",
];

/// `root`'s absolute path to the artifact outside the registry.
fn outside_path(root: &Path) -> String {
    root.join("outside.amdl").to_string_lossy().into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// An index of arbitrary bytes after a valid header.
    #[test]
    fn arbitrary_index_bytes_read_typed(
        body in prop::collection::vec(0u8..=255, 0..200),
        header in 0usize..3,
    ) {
        let (_root, reg, _) = setup("arbitrary");
        let mut index = [&b"version=1\n"[..], b"", b"version=9\n"][header].to_vec();
        index.extend_from_slice(&body);
        let _ = exercise(&reg, &index);
    }

    /// Index lines from a small alphabet of the characters a path or a
    /// field is made of, so that well-formed lines come up often.
    #[test]
    fn arbitrary_index_lines_read_typed(
        lines in prop::collection::vec("[m ./a-c01-9v\\-_]{0,30}", 0..6),
    ) {
        let (_root, reg, _) = setup("lines");
        let index = format!("version=1\n{}\n", lines.join("\n"));
        let _ = exercise(&reg, index.as_bytes());
    }

    /// The published line with its file field replaced by a hostile path
    /// or with one byte flipped anywhere.
    #[test]
    fn mutated_index_lines_read_typed(
        pick in 0usize..10,
        at in 0usize..64,
        bit in 0u8..8,
    ) {
        let (root, reg, entry) = setup("mutated");
        let outside = outside_path(&root);
        let line = match pick {
            0..=7 => line_naming(&entry, HOSTILE_FILES[pick]),
            8 => line_naming(&entry, &outside),
            _ => {
                let mut bytes = line_naming(&entry, &entry.file).into_bytes();
                let i = at % bytes.len();
                bytes[i] ^= 1 << bit;
                String::from_utf8_lossy(&bytes).into_owned()
            }
        };
        let index = format!("version=1\n{line}\n");
        if let Ok(entries) = exercise(&reg, index.as_bytes()) {
            for e in entries {
                prop_assert!(!e.file.contains(['/', '\\']), "{:?}", e);
            }
        }
    }
}
