//! Properties of the wire codec (`qp_client::json` plus the frame
//! layer): every finite JSON tree survives an encode/decode round trip,
//! the encoder's bytes are pinned to golden values, and decoding stays
//! linear in the size of the frame.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use qp_client::json::{self, Json};
use qp_client::wire::{self, Answer, Request, Response, WireTuple};

/// Any `char`, with extra weight on the classes the encoder escapes or
/// splits runs around: quotes, backslashes, C0 controls and non-BMP
/// characters (which the decoder also meets as surrogate pairs).
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        prop_oneof![Just('"'), Just('\\'), Just('/'), Just('\u{7f}')],
        (0u32..0x20).prop_filter_map("C0 control", char::from_u32),
        (0x20u32..0x7f).prop_filter_map("printable ASCII", char::from_u32),
        (0u32..=0x10ffff).prop_filter_map("scalar value", char::from_u32),
        (0x10000u32..=0x10ffff).prop_filter_map("non-BMP", char::from_u32),
    ]
}

fn any_string(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..max_len).prop_map(|cs| cs.into_iter().collect())
}

/// Finite numbers: integers in and beyond the exact range, fractions,
/// extreme magnitudes and signed zero.
fn any_number() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<i64>().prop_map(|n| n as f64),
        -1.0e6..1.0e6f64,
        -1.0e300..1.0e300f64,
        any::<f64>(),
        prop_oneof![Just(-0.0), Just(f64::MAX), Just(f64::MIN_POSITIVE), Just(5e-324)],
    ]
}

fn any_json() -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any_number().prop_map(Json::Num),
        any_string(24).prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            prop::collection::vec((any_string(8), inner), 0..6).prop_map(Json::Obj),
        ]
    })
}

/// The encoder's escaping, one character at a time: the shape the
/// run-based encoder must keep byte for byte.
fn escape_per_char(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_then_decode_is_identity(v in any_json()) {
        prop_assert_eq!(json::parse(&v.to_string()), Ok(v));
    }

    #[test]
    fn strings_escape_exactly_as_per_character(s in any_string(64)) {
        let encoded = Json::str(s.as_str()).to_string();
        prop_assert_eq!(&encoded, &escape_per_char(&s));
        prop_assert_eq!(json::parse(&encoded), Ok(Json::Str(s)));
    }
}

#[test]
fn answer_encodes_to_golden_bytes() {
    let answer = Response::Answer(Answer {
        columns: vec!["title".into(), "year".into(), "ticket".into(), "seen".into()],
        tuples: vec![
            WireTuple {
                doi: 0.875,
                row: vec![
                    Json::str("Psycho"),
                    Json::num(1960.0),
                    Json::num(7.25),
                    Json::Bool(true),
                ],
            },
            WireTuple {
                doi: -0.1,
                row: vec![
                    Json::str("Amélie \"Le Fabuleux\"\n"),
                    Json::num(-2001.0),
                    Json::Null,
                    Json::Bool(false),
                ],
            },
        ],
        degraded: true,
        retries: 2,
        elapsed_us: 1234,
    });
    let golden = concat!(
        r#"{"ok":true,"op":"answer","columns":["title","year","ticket","seen"],"#,
        r#""tuples":[{"doi":0.875,"row":["Psycho",1960,7.25,true]},"#,
        r#"{"doi":-0.1,"row":["Amélie \"Le Fabuleux\"\n",-2001,null,false]}],"#,
        r#""degraded":true,"retries":2,"elapsed_us":1234}"#,
    );
    assert_eq!(answer.to_json().to_string(), golden);
    assert_eq!(Json::from(answer.clone()).to_string(), golden);
    assert_eq!(Response::from_json(&json::parse(golden).unwrap()), Ok(answer));

    let mut frame = Vec::new();
    wire::write_frame(&mut frame, &Request::Ping.to_json()).unwrap();
    assert_eq!(frame, b"\0\0\0\x0d{\"op\":\"ping\"}");
}

#[test]
fn every_escape_class_encodes_to_golden_bytes() {
    let doc = Json::obj(vec![
        (
            "k\"\\\u{1}",
            Json::str("q\" b\\ s/ n\n r\r t\t bs\u{8} ff\u{c} nul\0 us\u{1f} del\u{7f}"),
        ),
        ("wide", Json::str("é ß € 中 😀 \u{10ffff}")),
        ("nums", Json::Arr([0.0, -0.0, 1.5e-7, -12.5, 9e15, 1e21].map(Json::num).to_vec())),
        ("empty", Json::Arr(vec![Json::str(""), Json::Obj(vec![]), Json::Arr(vec![])])),
    ]);
    let golden = concat!(
        r#"{"k\"\\\u0001":"q\" b\\ s/ n\n r\r t\t bs\u0008 ff\u000c nul\u0000 us\u001f del"#,
        "\u{7f}",
        r#"","wide":"é ß € 中 😀 "#,
        "\u{10ffff}",
        r#"","nums":[0,0,0.00000015,-12.5,9000000000000000,1000000000000000000000],"#,
        r#""empty":["",{},[]]}"#,
    );
    assert_eq!(doc.to_string(), golden);
}

/// Decoding must stay linear in the frame size. A decoder that
/// re-validated the rest of the buffer per character took tens of
/// seconds on this input in a debug build.
#[test]
fn decoding_a_mebibyte_string_is_linear() {
    let unit = "plain text, \"quoted\" é\n😀 ";
    let body: String = unit.repeat((1 << 20) / unit.len());
    let encoded = Json::str(body.as_str()).to_string();
    assert!(encoded.len() >= 1 << 20);

    let start = Instant::now();
    let decoded = json::parse(&encoded).expect("decodes");
    let took = start.elapsed();
    assert_eq!(decoded.as_str(), Some(body.as_str()));
    assert!(took < Duration::from_secs(1), "decoding 1 MiB took {took:?}");
}
