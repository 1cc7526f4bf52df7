//! Equivalence suite for the zero-allocation ingest fast path.
//!
//! `Record::parse` routes clean lines through the borrowed
//! `parse_record_borrowed` parser and everything else through the
//! allocating `JsonObject` slow path. The contract this file pins:
//!
//! * on every input — clean, corrupted, escape-bearing — `Record::parse`
//!   and `Record::parse_slow` return the same accept/reject decision,
//!   the same error class, and the same decoded field values;
//! * when the fast path *commits* (`RawParse::Record` / `Reject`) its
//!   verdict matches the slow path exactly — `Fallback` is its only
//!   escape hatch;
//! * the corpus is seeded (`memdos_stats::rng`), so a failure reproduces
//!   from its case number alone.

use memdos_engine::protocol::Record;
use memdos_metrics::jsonl::{parse_record_borrowed, RawKind, RawParse};
use memdos_stats::rng::{derive_seed, Rng};

/// Asserts every equivalence the fast path promises on one line.
fn assert_equivalent(line: &str) {
    let slow = Record::parse_slow(line);
    let fast = Record::parse(line);
    assert_eq!(fast, slow, "parse vs parse_slow diverged on {line:?}");
    match parse_record_borrowed(line) {
        RawParse::Record(raw) => {
            let record = match &slow {
                Ok(r) => r,
                Err(e) => panic!("fast path accepted {line:?}, slow rejected with {e:?}"),
            };
            assert_eq!(raw.tenant, record.tenant(), "tenant diverged on {line:?}");
            match (&raw.kind, record) {
                (RawKind::Sample { access, miss }, Record::Sample { obs, .. }) => {
                    // Bit-exact: both paths funnel the same text through
                    // `f64::from_str`.
                    assert_eq!(
                        access.to_bits(),
                        obs.access_num.to_bits(),
                        "access diverged on {line:?}"
                    );
                    assert_eq!(
                        miss.to_bits(),
                        obs.miss_num.to_bits(),
                        "miss diverged on {line:?}"
                    );
                }
                (RawKind::Close, Record::Close { .. }) => {}
                (k, r) => panic!("kind diverged on {line:?}: fast {k:?}, slow {r:?}"),
            }
        }
        RawParse::Reject(e) => match &slow {
            Ok(r) => panic!("fast path rejected {line:?} ({e:?}), slow accepted {r:?}"),
            Err(slow_e) => {
                assert_eq!(&e, slow_e, "error class diverged on {line:?}");
            }
        },
        // Deferring to the slow path is always sound; the first
        // assertion above already checked what parse() resolved it to.
        RawParse::Fallback => {}
    }
}

/// Handwritten grammar corners: every accept shape, every reject class,
/// every escape that must force the fallback.
#[test]
fn handwritten_edge_cases_are_equivalent() {
    let lines = [
        // Accepts.
        r#"{"tenant":"vm-0","access":1234,"miss":56}"#,
        r#"{"tenant":"vm-0","ctl":"close"}"#,
        r#" { "tenant" : "vm-1" , "access" : 1e3 , "miss" : 0.5 } "#,
        r#"{"tenant":"vm-0","access":-1.5e-3,"miss":+2.5}"#,
        r#"{"tenant":"vm-0","access":1,"miss":2,"extra":"ignored","n":null,"b":true}"#,
        r#"{"tenant":"a","access":1,"miss":2,"tenant":"b"}"#, // duplicate: first wins
        r#"{"access":9,"tenant":"vm-0","miss":8,"access":1}"#,
        // Rejects, syntactic.
        "",
        "   ",
        "not json",
        "{",
        r#"{"tenant":"vm-0","access":1,"miss":2"#,
        r#"{"tenant":"vm-0","access":1,"miss":2}trailing"#,
        r#"{"tenant":"vm-0",}"#,
        r#"{"tenant":"vm-0" "access":1}"#,
        r#"{"tenant":[1],"access":1,"miss":2}"#,
        r#"{"tenant":"vm-0","access":1..2,"miss":2}"#,
        "{\"tenant\":\"vm\u{1}0\",\"access\":1,\"miss\":2}", // raw control byte
        "{\"tenant\":\"vm\\q\",\"access\":1,\"miss\":2}",    // bad escape
        "{\"tenant\":\"vm\\u00zz\",\"access\":1,\"miss\":2}", // bad \u hex
        // Rejects, semantic.
        "{}",
        r#"{"access":1,"miss":2}"#,
        r#"{"tenant":"","access":1,"miss":2}"#,
        r#"{"tenant":7,"access":1,"miss":2}"#,
        r#"{"tenant":"vm-0","ctl":"open"}"#,
        r#"{"tenant":"vm-0","ctl":7}"#,
        r#"{"tenant":"vm-0","ctl":null}"#,
        r#"{"tenant":"vm-0","miss":2}"#,
        r#"{"tenant":"vm-0","access":1}"#,
        r#"{"tenant":"vm-0","access":"x","miss":2}"#,
        r#"{"tenant":"vm-0","access":1,"miss":true}"#,
        r#"{"tenant":"vm-0","access":1e999,"miss":2}"#, // syntactic number, non-finite value
        // Escapes in protocol strings: fallback territory.
        "{\"tenant\":\"vm\\u002d9\",\"access\":1,\"miss\":2}",
        "{\"tenant\":\"a\\nb\",\"access\":1,\"miss\":2}",
        "{\"\\u0074enant\":\"vm-8\",\"access\":3,\"miss\":4}",
        "{\"tenant\":\"vm-0\",\"ctl\":\"clos\\u0065\"}",
        "{\"tenant\":\"vm-0\",\"ctl\":\"\\u0063lose\"}",
        // Escapes in *ignored* values must not force the fallback result
        // to differ either way.
        "{\"tenant\":\"vm-0\",\"access\":1,\"miss\":2,\"note\":\"a\\tb\"}",
    ];
    for line in lines {
        assert_equivalent(line);
    }
}

/// Seeded clean records through both paths: every case accepted with
/// identical values.
#[test]
fn seeded_clean_corpus_is_equivalent() {
    for case in 0..400u64 {
        let mut rng = Rng::new(derive_seed(0xEA57, case));
        let tenant = format!("vm-{}", rng.next_below(50));
        let line = if rng.next_below(8) == 0 {
            format!(r#"{{"tenant":"{tenant}","ctl":"close"}}"#)
        } else {
            let access = rng.next_below(1_000_000) as f64 / 8.0;
            let miss = rng.next_below(10_000) as f64 / 4.0;
            match rng.next_below(3) {
                0 => format!(r#"{{"tenant":"{tenant}","access":{access},"miss":{miss}}}"#),
                1 => format!(
                    r#" {{ "tenant" : "{tenant}" , "access" : {access} , "miss" : {miss} }}"#
                ),
                _ => format!(
                    r#"{{"host":"n-{}","tenant":"{tenant}","access":{access},"miss":{miss},"up":true}}"#,
                    rng.next_below(9)
                ),
            }
        };
        assert!(Record::parse(&line).is_ok(), "case {case}: clean line rejected {line:?}");
        assert!(
            matches!(parse_record_borrowed(&line), RawParse::Record(_)),
            "case {case}: clean line missed the fast path {line:?}"
        );
        assert_equivalent(&line);
    }
}

/// Seeded fuzz corpus in the `jsonl_fuzz` style: clean records with
/// random in-line byte corruption. Both paths must agree on every
/// mangled line.
#[test]
fn seeded_corrupted_corpus_is_equivalent() {
    for case in 0..400u64 {
        let mut rng = Rng::new(derive_seed(0xFA57, case));
        let base = format!(
            r#"{{"tenant":"vm-{}","access":{},"miss":{}}}"#,
            rng.next_below(10),
            rng.next_below(1_000_000),
            rng.next_below(10_000)
        );
        let mut bytes = base.into_bytes();
        for _ in 0..1 + rng.next_below(6) {
            let pos = rng.next_below(bytes.len() as u64) as usize;
            if let Some(b) = bytes.get_mut(pos) {
                // Printable ASCII keeps the line valid UTF-8 so it can
                // reach the parsers as &str (the line framer owns the
                // invalid-UTF-8 layer).
                *b = (0x20 + rng.next_below(95)) as u8;
            }
        }
        if let Ok(line) = String::from_utf8(bytes) {
            assert_equivalent(&line);
        }
    }
}

/// Arbitrary printable soup: no structure at all, still no divergence
/// and no panic.
#[test]
fn seeded_soup_never_diverges() {
    for case in 0..200u64 {
        let mut rng = Rng::new(derive_seed(0x50FA, case));
        let len = rng.next_below(120) as usize;
        let line: String = (0..len)
            .map(|_| char::from_u32(0x20 + rng.next_below(95) as u32).unwrap_or(' '))
            .collect();
        assert_equivalent(&line);
    }
}
