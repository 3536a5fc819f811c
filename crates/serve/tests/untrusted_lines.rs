//! Untrusted request lines get a typed result: whatever bytes arrive,
//! decoding a line returns `Ok` or a typed error and never unwinds.
//!
//! Decoding is what the server does with a line before it queues the
//! request: UTF-8, [`Json::parse`], [`GenerateRequest::from_json`], and
//! the task's [`TaskPayload::to_spec`]. Random bytes rarely get past the
//! first JSON token, so valid lines are also mutated exhaustively: every
//! byte XOR-ed with 0x01, 0x80 and 0xFF, and every truncation.

use aero_serve::request::{ImagePayload, TaskPayload};
use aero_serve::{GenerateRequest, Json};
use proptest::prelude::*;

/// Decodes one request line as the server does before queueing it.
fn decode(line: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let request = GenerateRequest::from_json(&json, "req-0")?;
    if let Some(task) = &request.task {
        let _ = task.to_spec(&request.prompt);
    }
    Ok(())
}

/// True if decoding `line` unwound.
fn unwinds(line: &[u8]) -> bool {
    std::panic::catch_unwind(|| {
        let _ = decode(line);
    })
    .is_err()
}

fn text_request() -> Vec<u8> {
    br#"{"type":"generate","id":"t-0","prompt":"an aerial view of a park with cars","seed":41,"guidance":7.0,"steps":4,"deadline_ms":500,"tenant":"a","stream":false}"#.to_vec()
}

/// A `serve_mixed`-style inpaint request: a base64 source image and two
/// boxes to repaint.
fn inpaint_request() -> Vec<u8> {
    let rgb8 = (0..3 * 8 * 8).map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    let image = ImagePayload { width: 8, height: 8, rgb8 }.to_json();
    let bbox = |label: &str, x0: f64, y0: f64| {
        Json::obj(vec![
            ("label", label.into()),
            ("x0", x0.into()),
            ("y0", y0.into()),
            ("x1", (x0 + 3.0).into()),
            ("y1", (y0 + 2.5).into()),
        ])
    };
    let task = Json::obj(vec![
        ("kind", "inpaint".into()),
        ("image", image),
        ("boxes", Json::Arr(vec![bbox("car", 1.0, 2.0), bbox("truck", 4.5, 0.0)])),
    ]);
    Json::obj(vec![
        ("type", "generate".into()),
        ("id", "mixed-7".into()),
        ("prompt", "an aerial view of a parking lot #mixed-7".into()),
        ("seed", 1_234_567.0.into()),
        ("task", task),
    ])
    .render()
    .into_bytes()
}

#[test]
fn the_sweep_starts_from_valid_requests() {
    decode(&text_request()).expect("the text request decodes");
    decode(&inpaint_request()).expect("the inpaint request decodes");
    let json = Json::parse(std::str::from_utf8(&inpaint_request()).unwrap()).unwrap();
    let request = GenerateRequest::from_json(&json, "req-0").unwrap();
    assert!(matches!(request.task, Some(TaskPayload::Inpaint { .. })));
}

/// Every byte XOR-ed with 0x01, 0x80 and 0xFF, and every truncation, of
/// a text request and an inpaint request.
#[test]
fn mutated_request_lines_never_unwind() {
    let mut unwound = Vec::new();
    for (name, line) in [("text", text_request()), ("inpaint", inpaint_request())] {
        for pos in 0..line.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = line.clone();
                bad[pos] ^= mask;
                if unwinds(&bad) {
                    unwound.push(format!("{name}: byte {pos} ^ {mask:#04x}"));
                }
            }
        }
        for len in 0..line.len() {
            if unwinds(&line[..len]) {
                unwound.push(format!("{name}: cut to {len} bytes"));
            }
        }
    }
    assert!(unwound.is_empty(), "unwound on {} mutations: {unwound:?}", unwound.len());
}

#[test]
fn image_dimensions_whose_product_overflows_are_refused() {
    // 3 · w · h wraps to 0 (w = 2^63, h = 2) or to 3 (w = 3, h = 3⁻¹ mod
    // 2^64), the length of the payload: the check must not wrap.
    for (width, height, b64) in
        [("9223372036854775808", "2", ""), ("3", "12297829382473034411", "AAAA")]
    {
        let line = format!(
            r#"{{"prompt":"p","task":{{"kind":"view","image":{{"width":{width},"height":{height},"rgb8_b64":"{b64}"}}}}}}"#
        );
        assert!(!unwinds(line.as_bytes()), "{line}");
        assert!(decode(line.as_bytes()).is_err(), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_byte_lines_get_a_typed_result(
        line in prop::collection::vec(0u8..=255, 0..200),
    ) {
        prop_assert!(!unwinds(&line), "unwound on {:?}", String::from_utf8_lossy(&line));
    }

    #[test]
    fn arbitrary_bytes_inside_a_request_get_a_typed_result(
        junk in prop::collection::vec(0u8..=255, 0..40),
        at in 0usize..160,
    ) {
        // Splice the bytes into a valid line, so the parser meets them
        // past the first token.
        let mut line = text_request();
        let at = at.min(line.len());
        line.splice(at..at, junk.iter().copied());
        prop_assert!(!unwinds(&line), "unwound on {:?}", String::from_utf8_lossy(&line));
    }
}
