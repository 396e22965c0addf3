//! The JSON text layer's strings: every string survives `to_string` /
//! `from_str`, every valid escaped spelling decodes to the same string,
//! and every lone or mismatched surrogate escape is an error, never a
//! panic. Frames, WAL records and checkpoints all decode through this
//! parser. The printers write byte for byte what the reference printer
//! they replaced wrote. CI also runs this file in release, where the case
//! count is larger.

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

/// The printer `serde_json` used before it wrote straight into its
/// output: a fresh `String` per number and one `push` per character.
mod reference {
    use serde_json::Value;

    pub fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::F64(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Seq(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_value(out, item, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Map(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, item, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// An arbitrary document, drawn from `seed`: every kind of value, nested
/// up to four levels, with strings from every character class.
fn arbitrary_value(seed: u64) -> Value {
    fn draw(state: &mut u64) -> u64 {
        // SplitMix64.
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn string(state: &mut u64) -> String {
        let len = draw(state) % 12;
        (0..len)
            .map(|_| pick_char(draw(state) % 6, draw(state) as u32))
            .collect()
    }
    fn value(state: &mut u64, depth: u32) -> Value {
        let kinds = if depth == 4 { 6 } else { 8 };
        match draw(state) % kinds {
            0 => Value::Null,
            1 => Value::Bool(draw(state) & 1 == 0),
            2 => Value::U64(draw(state) >> (draw(state) % 64)),
            3 => Value::I64((draw(state) as i64) >> (draw(state) % 64) | i64::MIN),
            4 => Value::F64(match draw(state) % 4 {
                0 => f64::from_bits(draw(state)),
                1 => (draw(state) % 1000) as f64,
                2 => f64::INFINITY,
                _ => (draw(state) as f64) / 3.0,
            }),
            5 => Value::Str(string(state)),
            6 => Value::Seq(
                (0..draw(state) % 4)
                    .map(|_| value(state, depth + 1))
                    .collect(),
            ),
            _ => Value::Map(
                (0..draw(state) % 4)
                    .map(|_| (string(state), value(state, depth + 1)))
                    .collect(),
            ),
        }
    }
    let mut state = seed;
    value(&mut state, 0)
}

#[test]
fn printers_match_the_reference_on_every_ascii_character() {
    // Arbitrary strings reach each control character only rarely, so
    // every ASCII character is also printed on its own and inside text.
    for c in (0u8..0x80).map(char::from).chain(['é', '€', '😀']) {
        for s in [c.to_string(), format!("ab{c}cd{c}")] {
            let doc = Value::Map(vec![(s.clone(), Value::Str(s))]);
            let mut expected = String::new();
            reference::write_value(&mut expected, &doc, None, 0);
            assert_eq!(serde_json::to_string(&doc).unwrap(), expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn printers_match_the_reference_byte_for_byte(seed in any::<u64>()) {
        let doc = arbitrary_value(seed);
        for (indent, text) in [
            (None, serde_json::to_string(&doc).unwrap()),
            (Some(2), serde_json::to_string_pretty(&doc).unwrap()),
        ] {
            let mut expected = String::new();
            reference::write_value(&mut expected, &doc, indent, 0);
            prop_assert_eq!(text, expected);
        }
        // `to_writer` appends the compact form to what the buffer holds.
        let mut buf = b"head ".to_vec();
        serde_json::to_writer(&mut buf, &doc).unwrap();
        prop_assert_eq!(buf, format!("head {}", serde_json::to_string(&doc).unwrap()).into_bytes());
    }

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
