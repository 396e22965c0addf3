//! What a frame decodes to, pinned case by case: duplicated keys, unknown
//! fields, `null`, integral floats, the messages of missing and mistyped
//! fields with their context path, and trailing characters. Every golden
//! fixture decodes and re-encodes byte for byte, and a lattice path's
//! label matches the join-based rendering it replaced.

use snakes_sandwiches::core::lattice::{Class, LatticeShape};
use snakes_sandwiches::core::path::LatticePath;
use snakes_sandwiches::service::protocol::StrategySpec;
use snakes_sandwiches::service::{Request, Response, PROTOCOL_VERSION};

fn request(frame: &str) -> Request {
    Request::parse(frame).unwrap_or_else(|e| panic!("{frame} decodes: {e}"))
}

fn request_error(frame: &str) -> String {
    match Request::parse(frame) {
        Ok(r) => panic!("{frame} decoded to {r:?}"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn the_first_occurrence_of_a_duplicated_key_wins() {
    let r = request(r#"{"endpoint":"ping","id":1,"endpoint":"stats"}"#);
    assert_eq!(r.endpoint, "ping");
    // Also when a later duplicate is mistyped or null.
    let r = request(r#"{"id":5,"endpoint":"ping","id":"five","id":null,"id":[1]}"#);
    assert_eq!(r.id, 5);
    let r = request(r#"{"env":{"strategy":{"dims":[0,1]},"strategy":7},"endpoint":"price"}"#);
    assert_eq!(
        r.strategy_spec(),
        Some(&StrategySpec::plain_path(vec![0, 1]))
    );
    // A mistyped first occurrence is the error, whatever follows.
    assert_eq!(
        request_error(r#"{"id":"five","id":5}"#),
        "id: expected u64, found string"
    );
    // A later duplicate is still read, so it must be well-formed.
    assert_eq!(
        request_error(r#"{"id":5,"id":[1,}"#),
        "unexpected character at byte 16"
    );
}

#[test]
fn unknown_fields_are_skipped_at_any_depth() {
    let r = request(
        r#"{"v":2,"id":3,"zzz":{"a":[1,{"b":null}],"c":"é"},"endpoint":"price",
            "env":{"schema":{"dims":[{"name":"p","fanouts":[4],"extra":[[[]]]}],"more":true},
                   "unknown":-1.5e3}}"#,
    );
    assert_eq!((r.v, r.id, r.endpoint.as_str()), (2, 3, "price"));
    let schema = r.schema_spec().expect("schema decoded");
    assert_eq!(schema.dims[0].fanouts, vec![4]);
}

#[test]
fn null_gives_the_default_or_none() {
    let r = request(r#"{"v":null,"id":null,"endpoint":"ping","deadline_ms":null,"env":null}"#);
    assert_eq!(r.v, PROTOCOL_VERSION, "`default = \"path\"` on null");
    assert_eq!(r.id, 0);
    assert_eq!(r.deadline_ms, None);
    assert!(r.env.is_none());
    // The first occurrence counts even when it is null.
    assert_eq!(request(r#"{"id":null,"id":9}"#).id, 0);
}

#[test]
fn integral_floats_decode_into_integers() {
    assert_eq!(request(r#"{"id":3.0}"#).id, 3);
    assert_eq!(
        request(r#"{"id":4e2,"deadline_ms":1.0E1}"#).deadline_ms,
        Some(10)
    );
    assert_eq!(
        request_error(r#"{"id":3.5}"#),
        "id: expected u64, found number"
    );
    assert_eq!(
        request_error(r#"{"id":-3}"#),
        "id: expected u64, found integer"
    );
}

#[test]
fn missing_and_mistyped_fields_name_their_path() {
    let cases = [
        (
            r#"{"env":{"schema":{"dims":[{"name":"p","fanouts":[4,"2"]}]}}}"#,
            "env: schema: dims: [0]: fanouts: [1]: expected u64, found string",
        ),
        (
            r#"{"env":{"schema":{"dims":[{"fanouts":[4]}]}}}"#,
            "env: schema: dims: [0]: missing field `name`",
        ),
        (
            r#"{"env":{"schema":{}}}"#,
            "env: schema: missing field `dims`",
        ),
        (
            r#"{"endpoint":["ping"]}"#,
            "endpoint: expected string, found array",
        ),
        (
            r#"{"deltas":[{"updates":[{"rank":1,"weight":true}]}]}"#,
            "deltas: [0]: updates: [0]: weight: expected number, found bool",
        ),
        (r#"{"env":[]}"#, "env: EvalEnvelope: expected object"),
        (r#"[{"id":1}]"#, "Request: expected object"),
        (
            r#"{"env":{"eval":{"engine":"Fastest"}}}"#,
            "env: eval: engine: unknown variant for EvalEngine",
        ),
        // Of several faults the first declared field's is reported, in
        // whatever order the keys come.
        (
            r#"{"endpoint":1,"id":"x"}"#,
            "id: expected u64, found string",
        ),
        (
            r#"{"recluster":{"chunk_pages":"4"},"id":"x"}"#,
            "id: expected u64, found string",
        ),
    ];
    for (frame, message) in cases {
        assert_eq!(request_error(frame), message, "{frame}");
    }
    assert_eq!(
        Response::parse(r#"{"ok":false,"error":{"code":"internal"}}"#)
            .unwrap_err()
            .to_string(),
        "error: missing field `message`"
    );
}

#[test]
fn malformed_text_is_reported_at_its_byte() {
    let cases = [
        (r#"{"endpoint":"ping"} x"#, "trailing characters at byte 20"),
        (r#"{"endpoint":"ping"}}"#, "trailing characters at byte 19"),
        (r#"{"endpoint":"ping",}"#, "expected '\"' at byte 19"),
        (r#"{"endpoint" "ping"}"#, "expected ':' at byte 12"),
        (r#"{"id":1 "v":2}"#, "expected ',' or '}' at byte 8"),
        (r#"{"id":tru}"#, "invalid literal at byte 6"),
        (r#"{"id":1"#, "expected ',' or '}' at byte 7"),
        ("", "unexpected end at byte 0"),
        // A mistyped value inside an object waits for the object's end,
        // so malformed text after it is still the reported error.
        (r#"{"id":"x","v":2,"#, "expected '\"' at byte 16"),
    ];
    for (frame, message) in cases {
        assert_eq!(request_error(frame), message, "{frame}");
    }
}

fn fixture_lines() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/service");
    let mut lines = Vec::new();
    for dir in [root.clone(), root.join("v2")] {
        for entry in std::fs::read_dir(&dir).expect("fixture dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                let raw = std::fs::read_to_string(&path).expect("fixture readable");
                lines.push((path.display().to_string(), raw.trim_end().to_string()));
            }
        }
    }
    assert!(lines.len() >= 14, "every fixture found");
    lines
}

/// Every fixture decodes to a value that survives its own re-encoding.
/// The current (v2) fixtures re-encode byte for byte; the frozen v1
/// documents may lack fields that today's encoder fills with defaults.
#[test]
fn every_fixture_decodes_and_reencodes_byte_for_byte() {
    for (name, line) in fixture_lines() {
        let current = name.contains("/v2/");
        let line_out = if name.contains("request_") {
            let req = Request::parse(&line).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(Request::parse(&req.to_line()).unwrap(), req, "{name}");
            req.to_line()
        } else {
            let resp = Response::parse(&line).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(Response::parse(&resp.to_line()).unwrap(), resp, "{name}");
            let mut framed = Vec::new();
            resp.write_line(&mut framed);
            assert_eq!(framed, format!("{}\n", resp.to_line()).into_bytes());
            resp.to_line()
        };
        if current {
            assert_eq!(line_out, line, "{name}");
        }
        // The tree decoder reads the same document.
        let value: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(serde_json::to_string(&value).unwrap(), line, "{name}");
    }
}

/// The join-based rendering `LatticePath`'s `Display` replaced.
fn joined_points(path: &LatticePath) -> String {
    let inner: Vec<String> = path.points().iter().map(Class::to_string).collect();
    format!("⟨{}⟩", inner.join(","))
}

#[test]
fn path_labels_match_the_joined_rendering() {
    for levels in [vec![2, 2], vec![1, 2, 1], vec![3, 0, 2, 1]] {
        let shape = LatticeShape::new(levels);
        let paths = LatticePath::enumerate(&shape);
        assert!(paths.len() > 1);
        for path in paths {
            assert_eq!(path.to_string(), joined_points(&path));
            assert_eq!(path.display_points(), joined_points(&path));
        }
    }
    let shape = LatticeShape::new(vec![12, 7]);
    let path = LatticePath::row_major(shape, &[1, 0]).unwrap();
    assert_eq!(path.to_string(), joined_points(&path));
}

#[derive(Debug, PartialEq, serde::Deserialize)]
struct Pair(u8, String);

#[derive(Debug, PartialEq, serde::Deserialize)]
enum Mode {
    Fast,
    Slow,
}

#[test]
fn derived_tuple_structs_and_enums_read_off_the_text() {
    assert_eq!(
        serde_json::from_str::<Pair>(r#"[7, "x"]"#).unwrap(),
        Pair(7, "x".into())
    );
    let err = |s: &str| serde_json::from_str::<Pair>(s).unwrap_err().to_string();
    assert_eq!(err(r#"["x"]"#), "wrong tuple arity");
    assert_eq!(err(r#"["x", "y"]"#), "expected u8, found string");
    assert_eq!(err(r#"{"0": 7}"#), "expected array");
    assert_eq!(
        serde_json::from_str::<Vec<Mode>>(r#"["Slow","Fast"]"#).unwrap(),
        vec![Mode::Slow, Mode::Fast]
    );
    assert_eq!(
        serde_json::from_str::<Vec<Mode>>(r#"["Slow",1]"#)
            .unwrap_err()
            .to_string(),
        "[1]: unknown variant for Mode"
    );
}
