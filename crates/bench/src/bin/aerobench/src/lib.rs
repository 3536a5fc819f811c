//! Pieces shared by the `aerobench` runner and the `aerobench_layers`
//! prober: seeded request lines, a small JSON value, order statistics,
//! FNV digests and the trace-span line format. Nothing here calls the
//! program under test.

pub mod json;
pub mod lines;
pub mod stats;

use json::Json;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64-bit hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One finished span of the benchmark's own trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within one trace file.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The layer operation (`serve.request`, `core.hydrate`, …).
    pub op: String,
    /// The instance (request id, call index).
    pub name: String,
    /// Start, in nanoseconds since the runner started.
    pub start_ns: u64,
    /// End, in nanoseconds since the runner started.
    pub end_ns: u64,
}

impl Span {
    /// The NDJSON trace line `{id, parent, op, name, start_ns, end_ns}`.
    pub fn to_line(&self) -> String {
        Json::obj([
            ("id", self.id.into()),
            ("parent", self.parent.map_or(Json::Null, Json::from)),
            ("op", self.op.as_str().into()),
            ("name", self.name.as_str().into()),
            ("start_ns", self.start_ns.into()),
            ("end_ns", self.end_ns.into()),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn span_lines_carry_every_field() {
        let span = Span {
            id: 3,
            parent: Some(1),
            op: "serve.queue".into(),
            name: "r-0".into(),
            start_ns: 10,
            end_ns: 25,
        };
        let v = Json::parse(&span.to_line()).unwrap();
        assert_eq!(v.get("parent").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("end_ns").and_then(Json::as_u64), Some(25));
        let root = Span { parent: None, ..span };
        assert_eq!(Json::parse(&root.to_line()).unwrap().get("parent"), Some(&Json::Null));
    }
}
