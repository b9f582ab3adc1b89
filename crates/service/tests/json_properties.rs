//! Property tests of the wire codec: `parse(emit(v)) == v` over arbitrary
//! trees, no panic on arbitrary input, the shared escaper against the
//! character-by-character escaper it replaced, and parse time that grows
//! linearly with the payload.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use engine::report::{json_string, push_json_string};
use proptest::prelude::*;
use service::json::{Json, JsonError, MAX_DEPTH};
use service::{Event, JobState, Request, Response};

/// String pieces that stress the escaper and the run scanner: quotes,
/// backslashes, control characters, multi-byte and astral characters, and
/// plain runs long enough to be copied as slices.
const PIECES: &[&str] = &[
    "a",
    "plain run of report text ",
    "\"",
    "\\",
    "\\u0041",
    "/",
    "\n",
    "\r",
    "\t",
    "\u{0}",
    "\u{1}",
    "\u{8}",
    "\u{c}",
    "\u{1f}",
    "\u{7f}",
    "é",
    "π ≈ 3.14 — ✓",
    "\u{2028}",
    "\u{fffd}",
    "\u{ffff}",
    "🦀",
    "\u{10ffff}",
    "{\"k\": [1, 2]}",
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PIECES.len(), 0..16)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

/// Number tokens in every shape the parser's grammar admits.
fn number() -> impl Strategy<Value = String> {
    (0u64..u64::MAX, 0u8..5).prop_map(|(n, form)| match form {
        0 => n.to_string(),
        1 => format!("-{n}"),
        2 => format!("{}.{}", n >> 40, n % 1000),
        3 => format!("-{}.5e-{}", n >> 50, n % 30),
        _ => format!("{}E+{}", n % 100, n % 7),
    })
}

fn tree() -> BoxedStrategy<Json<'static>> {
    let leaf = prop_oneof![
        Just(Json::Null),
        Just(Json::Bool(true)),
        Just(Json::Bool(false)),
        number().prop_map(|token| Json::Number(Cow::Owned(token))),
        text().prop_map(|s| Json::Str(Cow::Owned(s))),
    ];
    leaf.prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Array),
            prop::collection::vec((text(), inner), 0..4).prop_map(|fields| {
                Json::Object(fields.into_iter().map(|(k, v)| (Cow::Owned(k), v)).collect())
            }),
        ]
    })
}

/// Bytes biased toward JSON syntax, escapes and (broken) UTF-8 sequences.
const SYNTAX: &[u8] =
    b"[]{}\":,\\/unrtbf0123456789-+.eE \n\t\xc3\xa9\xf0\x9f\xa6\x80\xff\xed\xa0\x80";

fn raw_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0usize..SYNTAX.len() + 256, 0..96).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| SYNTAX.get(i).copied().unwrap_or_else(|| (i - SYNTAX.len()) as u8))
            .collect()
    })
}

/// Feeds `text` to every parser on the wire; none may panic.
fn parse_everything(text: &str) {
    let _ = black_box(Json::parse(text));
    let _ = black_box(Request::parse(text));
    let _ = black_box(Response::parse(text));
    let _ = black_box(Event::parse(text));
}

/// The character-by-character escaper the shared run-based one replaced,
/// kept as the oracle.
fn oracle_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn emit_then_parse_is_the_identity(value in tree()) {
        let line = value.emit();
        prop_assert!(!line.contains('\n'), "one value is one line: {line}");
        prop_assert_eq!(Json::parse(&line).expect("emitted JSON parses"), value);
    }

    #[test]
    fn event_payloads_round_trip_byte_exactly(payload in text(), id in 0u64..u64::MAX) {
        let record = Event::Record { id, json: payload.clone() };
        prop_assert_eq!(Event::parse(&record.to_line()).expect("record parses"), record);
        let done = Event::Done {
            id,
            state: JobState::Done,
            failures: Some(0),
            job_cache: None,
            report: Some(payload.clone()),
            error: Some(payload),
        };
        prop_assert_eq!(Event::parse(&done.to_line()).expect("done parses"), done);
    }

    #[test]
    fn arbitrary_lossy_utf8_input_never_panics(raw in raw_bytes()) {
        parse_everything(&String::from_utf8_lossy(&raw));
    }

    #[test]
    fn damaged_documents_never_panic(
        value in tree(),
        at in 0usize..4096,
        byte in 0usize..SYNTAX.len(),
    ) {
        let mut raw = value.emit().into_bytes();
        let at = at % (raw.len() + 1);
        raw.insert(at, SYNTAX[byte]);
        parse_everything(&String::from_utf8_lossy(&raw));
        raw.truncate(at);
        parse_everything(&String::from_utf8_lossy(&raw));
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error(depth in 1usize..3 * MAX_DEPTH, objects in 0u8..2) {
        let (open, close) = if objects == 1 { ("{\"k\":", "}") } else { ("[", "]") };
        let document = format!("{}0{}", open.repeat(depth), close.repeat(depth));
        let parsed = Json::parse(&document);
        if depth <= MAX_DEPTH {
            prop_assert!(parsed.is_ok(), "depth {depth}: {parsed:?}");
        } else {
            prop_assert!(matches!(parsed, Err(JsonError::TooDeep { .. })), "depth {depth}");
        }
        // Unclosed, the same prefix fails the same way — it never recurses
        // past the limit looking for the end.
        let unclosed = open.repeat(depth);
        let too_deep = matches!(Json::parse(&unclosed), Err(JsonError::TooDeep { .. }));
        prop_assert_eq!(too_deep, depth > MAX_DEPTH);
    }

    #[test]
    fn shared_escaper_matches_the_char_by_char_oracle(s in text()) {
        let expected = oracle_escape(&s);
        prop_assert_eq!(json_string(&s), expected.clone());
        let mut appended = String::from("prefix:");
        push_json_string(&mut appended, &s);
        prop_assert_eq!(appended, format!("prefix:{expected}"));
    }
}

#[test]
fn shared_escaper_matches_the_oracle_on_every_latin1_character() {
    for c in (0u32..0x100).filter_map(char::from_u32).chain(['\u{2028}', '\u{ffff}', '🦀']) {
        for s in [c.to_string(), format!("a{c}b{c}{c}"), format!("{c}é")] {
            assert_eq!(json_string(&s), oracle_escape(&s), "{s:?}");
        }
    }
}

/// A report-shaped payload of at least `bytes` bytes: quoted keys,
/// newlines and multi-byte text, like the engine's reports.
fn report_payload(bytes: usize) -> String {
    let unit =
        "{\"circuit\": \"gen-rdag-s42\", \"power_reduction\": 27.31, \"note\": \"π ≈ 3 ✓\"},\n  ";
    unit.repeat(bytes / unit.len() + 1)
}

fn done_line(bytes: usize) -> String {
    Event::Done {
        id: 1,
        state: JobState::Done,
        failures: Some(0),
        job_cache: None,
        report: Some(report_payload(bytes)),
        error: None,
    }
    .to_line()
}

fn best_parse_time(line: &str) -> Duration {
    (0..7)
        .map(|_| {
            let start = Instant::now();
            black_box(Event::parse(black_box(line)).expect("event parses"));
            start.elapsed()
        })
        .min()
        .expect("at least one run")
}

/// Parse time is linear in the payload: twice the bytes take well under
/// three times as long (a parser that re-validates the rest of the line
/// per character takes about four times as long).  A few rounds absorb
/// scheduling noise on a busy machine.
#[test]
fn doubling_the_payload_less_than_triples_parse_time() {
    let (small, large) = (done_line(64 << 10), done_line(128 << 10));
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let ratio = best_parse_time(&large).as_secs_f64() / best_parse_time(&small).as_secs_f64();
        if ratio < 3.0 {
            return;
        }
        ratios.push(ratio);
    }
    panic!("parse time grew superlinearly with the payload: ratios {ratios:?}");
}
