//! The JSON text layer's strings: every string survives `to_string` /
//! `from_str`, every valid escaped spelling decodes to the same string,
//! and every lone or mismatched surrogate escape is an error, never a
//! panic. Frames, WAL records and checkpoints all decode through this
//! parser. CI also runs this file in release, where the case count is
//! larger.

use proptest::prelude::*;
use serde_json::Value;

/// Cases per property: the unoptimized build runs fewer.
const CASES: u32 = if cfg!(debug_assertions) { 256 } else { 4096 };

/// One character of a test string, drawn from a class that exercises a
/// distinct decoder path.
fn pick_char(class: u64, draw: u32) -> char {
    const SPECIAL: [char; 8] = ['"', '\\', '/', '\n', '\r', '\t', '\u{08}', '\u{0c}'];
    const MULTIBYTE: [char; 6] = ['é', 'ß', '€', '中', '\u{FFFF}', '😀'];
    match class {
        0 => char::from(b' ' + (draw % 95) as u8),
        1 => char::from_u32(draw % 0x20).expect("controls are chars"),
        2 => SPECIAL[draw as usize % SPECIAL.len()],
        3 => MULTIBYTE[draw as usize % MULTIBYTE.len()],
        // Supplementary planes: encoded as a surrogate pair when escaped.
        4 => char::from_u32(0x10000 + draw % 0x10_0000).expect("in range"),
        // Anywhere in the scalar-value space.
        _ => char::from_u32(draw % 0x11_0000).unwrap_or('\u{D7FF}'),
    }
}

fn arbitrary_string() -> impl Strategy<Value = String> {
    collection::vec((0u64..6, any::<u32>()), 0..48).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(class, draw)| pick_char(class, draw))
            .collect()
    })
}

/// A valid JSON spelling of `s` that escapes each character one of three
/// ways, chosen by `styles`: raw (where JSON allows it), a short escape,
/// or `\uXXXX` (a surrogate pair above the BMP, in either hex case).
fn spell(s: &str, styles: &[u8]) -> String {
    let mut out = String::from("\"");
    for (i, c) in s.chars().enumerate() {
        let style = styles.get(i).copied().unwrap_or(0) % 3;
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            '\u{08}' => Some("\\b"),
            '\u{0c}' => Some("\\f"),
            _ => None,
        };
        match (style, short) {
            (0, None) if c != '"' && c != '\\' && (c as u32) >= 0x20 => out.push(c),
            (0 | 1, Some(esc)) => out.push_str(esc),
            _ => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    if i % 2 == 0 {
                        out.push_str(&format!("\\u{unit:04x}"));
                    } else {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
        }
    }
    out.push('"');
    out
}

/// A `\u` escape sequence that no valid string contains: a lone high
/// surrogate (at the end, or before a plain character or a non-low
/// escape) or a lone low surrogate.
fn bad_surrogate(kind: u64, draw: u32) -> String {
    let high = 0xD800 + draw % 0x400;
    let low = 0xDC00 + draw % 0x400;
    match kind {
        0 => format!("\\u{high:04x}"),
        1 => format!("\\u{high:04x}A"),
        2 => format!("\\u{high:04x}\\u0041"),
        3 => format!("\\u{high:04x}\\u{high:04x}"),
        4 => format!("\\u{high:04x}\\u{:04x}", 0xE000 + draw % 0x2000),
        5 => format!("\\u{high:04x}\\n"),
        _ => format!("\\u{low:04x}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn strings_round_trip_through_the_printers(s in arbitrary_string()) {
        let compact = serde_json::to_string(&s).unwrap();
        prop_assert_eq!(serde_json::from_str::<String>(&compact).unwrap(), s.clone());
        // As an object key and a nested value, compact and pretty.
        let doc = Value::Map(vec![(s.clone(), Value::Seq(vec![Value::Str(s.clone())]))]);
        for text in [serde_json::to_string(&doc).unwrap(), serde_json::to_string_pretty(&doc).unwrap()] {
            prop_assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), doc.clone());
        }
    }

    #[test]
    fn every_valid_spelling_decodes_to_the_same_string(
        s in arbitrary_string(),
        styles in collection::vec(any::<u8>(), 48),
    ) {
        let spelled = spell(&s, &styles);
        prop_assert_eq!(serde_json::from_str::<String>(&spelled).unwrap(), s.clone(), "{}", spelled);
    }

    #[test]
    fn lone_and_mismatched_surrogates_are_errors(
        prefix in arbitrary_string(),
        (kind, draw) in (0u64..7, any::<u32>()),
        suffix in arbitrary_string(),
    ) {
        let text = format!(
            "{}{}{}",
            serde_json::to_string(&prefix).unwrap().strip_suffix('"').unwrap(),
            bad_surrogate(kind, draw),
            serde_json::to_string(&suffix).unwrap().strip_prefix('"').unwrap(),
        );
        prop_assert!(serde_json::from_str::<String>(&text).is_err(), "{} decoded", text);
        let frame = format!("{{\"v\":2,\"id\":1,\"endpoint\":{text}}}");
        prop_assert!(serde_json::from_str::<Value>(&frame).is_err(), "{} decoded", frame);
    }
}
