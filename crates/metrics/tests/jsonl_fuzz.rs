//! Seeded fuzz-style property tests for JSONL stream decoding: the
//! shared line framer (`metrics::jsonl::LineFramer`) followed by
//! per-line resynchronisation (`metrics::jsonl::resync_line`).
//!
//! Std-only and fully deterministic: all "arbitrary" input derives from
//! `memdos_stats::rng` seeds, so a failure reproduces from its seed
//! alone (no proptest dependency, no shrink files). The properties:
//!
//! * decoding arbitrary byte soup never panics, at any chunking;
//! * corrupting arbitrary in-line bytes never costs an *intact* line —
//!   the decoder always resynchronises to the next valid record;
//! * the decoded stream is independent of how the bytes were chunked;
//! * a line over the per-line byte cap is skipped whole, as one span of
//!   its full length, without losing the record that follows it;
//! * clean streams round-trip exactly.

use memdos_metrics::jsonl::{resync_line, JsonObject, LineFramer, Segment, Span, DEFAULT_MAX_LINE};
use memdos_stats::rng::{derive_seed, Rng};

/// Builds a clean JSONL stream of `n` records and returns (bytes, the
/// expected access values in order).
fn clean_stream(rng: &mut Rng, n: u64) -> (Vec<u8>, Vec<f64>) {
    let mut bytes = Vec::new();
    let mut values = Vec::new();
    for i in 0..n {
        let access = (rng.next_below(1_000_000) + i) as f64;
        bytes.extend_from_slice(
            format!(r#"{{"tenant":"vm-{}","access":{access},"miss":7}}"#, i % 5).as_bytes(),
        );
        bytes.push(b'\n');
        values.push(access);
    }
    (bytes, values)
}

/// Frames `chunks` as one stream with the [`LineFramer`] and decodes
/// each line with [`resync_line`] (the recovery the engine runs on a
/// dirty line; a clean line is one object). Framer skips come back as
/// [`Segment::Skipped`] too.
fn decode<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> Vec<Segment> {
    let mut framer = LineFramer::new();
    let mut segments = Vec::new();
    let mut keep = |span: Span<'_>| match span {
        Span::Line(line) => segments.extend(resync_line(line)),
        Span::Skipped { bytes, reason } => {
            segments.push(Segment::Skipped { bytes, reason: reason.to_string() });
        }
    };
    for chunk in chunks {
        framer.push(chunk, &mut keep);
    }
    framer.finish(&mut keep);
    segments
}

/// Decodes `bytes` fed in seeded random chunks of 1–37 bytes.
fn decode_chunked(rng: &mut Rng, bytes: &[u8]) -> Vec<Segment> {
    let mut chunks = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let take = (1 + rng.next_below(37) as usize).min(rest.len());
        let (chunk, tail) = rest.split_at(take);
        chunks.push(chunk);
        rest = tail;
    }
    decode(chunks)
}

#[test]
fn arbitrary_byte_soup_never_panics() {
    for case in 0..200u64 {
        let mut rng = Rng::new(derive_seed(0xF022, case));
        let len = rng.next_below(2_048) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        let segments = decode_chunked(&mut rng, &bytes);
        for segment in &segments {
            match segment {
                Segment::Object(obj) => {
                    // Whatever was recovered must re-serialize as an object.
                    assert!(obj.to_line().starts_with('{'), "case {case}");
                }
                Segment::Skipped { bytes, reason } => {
                    assert!(*bytes > 0, "case {case}: empty skip span");
                    assert!(!reason.is_empty(), "case {case}: silent skip");
                }
            }
        }
    }
}

#[test]
fn corruption_never_costs_an_intact_line() {
    for case in 0..100u64 {
        let mut rng = Rng::new(derive_seed(0xBAD5, case));
        let n = 8 + rng.next_below(24);
        let (mut bytes, values) = clean_stream(&mut rng, n);
        // Overwrite up to 12 in-line bytes (newlines stay, so untouched
        // lines keep their framing), possibly none.
        let hits = rng.next_below(13);
        let mut dirty_lines = std::collections::BTreeSet::new();
        for _ in 0..hits {
            let pos = rng.next_below(bytes.len() as u64) as usize;
            if bytes.get(pos).copied() == Some(b'\n') {
                continue;
            }
            let mut junk = rng.next_below(256) as u8;
            if junk == b'\n' {
                junk = b'#';
            }
            let line_no = bytes
                .iter()
                .take(pos)
                .filter(|b| **b == b'\n')
                .count();
            dirty_lines.insert(line_no);
            if let Some(b) = bytes.get_mut(pos) {
                *b = junk;
            }
        }
        let segments = decode_chunked(&mut rng, &bytes);
        let decoded: Vec<f64> = segments
            .iter()
            .filter_map(|f| match f {
                Segment::Object(obj) => obj.get_f64("access"),
                Segment::Skipped { .. } => None,
            })
            .collect();
        // Every intact line's record must come back, in order: the
        // decoder resynchronised past every corrupted span.
        let expected: Vec<f64> = values
            .iter()
            .enumerate()
            .filter(|(i, _)| !dirty_lines.contains(i))
            .map(|(_, v)| *v)
            .collect();
        let mut cursor = decoded.iter();
        for want in &expected {
            assert!(
                cursor.any(|got| got == want),
                "case {case}: record {want} from an intact line was lost \
                 (dirty lines {dirty_lines:?}, decoded {decoded:?})"
            );
        }
    }
}

#[test]
fn frames_are_independent_of_chunking() {
    for case in 0..50u64 {
        let mut rng = Rng::new(derive_seed(0xC40C, case));
        let (mut bytes, _) = clean_stream(&mut rng, 16);
        // Sprinkle corruption so the resync paths run too.
        for _ in 0..rng.next_below(20) {
            let pos = rng.next_below(bytes.len() as u64) as usize;
            if let Some(b) = bytes.get_mut(pos) {
                *b = rng.next_below(256) as u8;
            }
        }
        let reference = decode([&bytes[..]]);
        let byte_at_a_time = decode(bytes.chunks(1));
        assert_eq!(reference, byte_at_a_time, "case {case}: chunking changed the decoded stream");
        let random_chunks = decode_chunked(&mut rng, &bytes);
        assert_eq!(reference, random_chunks, "case {case}: chunking changed the decoded stream");
    }
}

#[test]
fn oversized_lines_are_bounded_and_do_not_eat_successors() {
    for case in 0..20u64 {
        let mut rng = Rng::new(derive_seed(0x512E, case));
        let mut bytes = Vec::new();
        // A line past the cap, without a single newline.
        let oversized = DEFAULT_MAX_LINE + 1 + rng.next_below(DEFAULT_MAX_LINE as u64) as usize;
        for _ in 0..oversized {
            let mut b = rng.next_below(256) as u8;
            if b == b'\n' {
                b = b'x';
            }
            bytes.push(b);
        }
        bytes.push(b'\n');
        bytes.extend_from_slice(br#"{"tenant":"vm-9","access":42,"miss":7}"#);
        bytes.push(b'\n');
        let segments = decode_chunked(&mut rng, &bytes);
        assert!(
            matches!(
                segments.first(),
                Some(Segment::Skipped { bytes, reason })
                    if *bytes == oversized && reason.contains("byte cap")
            ),
            "case {case}: oversized line not reported as one span of its length"
        );
        assert!(
            matches!(
                &segments[1..],
                [Segment::Object(obj)] if obj.get_f64("access") == Some(42.0)
            ),
            "case {case}: record after the oversized line was lost"
        );
    }
}

#[test]
fn clean_streams_roundtrip_exactly() {
    for case in 0..30u64 {
        let mut rng = Rng::new(derive_seed(0xC1EA, case));
        let n = 1 + rng.next_below(40);
        let (bytes, values) = clean_stream(&mut rng, n);
        let segments = decode_chunked(&mut rng, &bytes);
        assert_eq!(segments.len() as u64, n, "case {case}");
        for (segment, want) in segments.iter().zip(&values) {
            match segment {
                Segment::Object(obj) => {
                    assert_eq!(obj.get_f64("access"), Some(*want), "case {case}")
                }
                Segment::Skipped { reason, .. } => {
                    unreachable!("case {case}: clean line skipped: {reason}")
                }
            }
        }
        // And each line text parses identically through the one-shot
        // object parser.
        let text = String::from_utf8(bytes).expect("clean stream is UTF-8");
        for line in text.lines() {
            assert!(JsonObject::parse(line).is_ok(), "case {case}");
        }
    }
}
