//! The engine's line-delimited JSON wire protocol.
//!
//! Each input line is one flat JSON object (see
//! [`memdos_metrics::jsonl`]) and decodes to one [`Record`]:
//!
//! * a **sample** — `{"tenant":"vm-0","access":1234,"miss":56}` — one
//!   `T_PCM` tick of the tenant's LLC counters, or
//! * a **control** — `{"tenant":"vm-0","ctl":"close"}` — a lifecycle
//!   request.
//!
//! Unknown extra fields are ignored (forward compatibility); missing or
//! mis-typed required fields are an error carrying the reason, so the
//! engine can log and count malformed input without dying.
//!
//! [`decode_line`] is the one line → records step: the engine's
//! [`Engine::ingest_line`](crate::engine::Engine::ingest_line), its
//! JSONL reader and `memdos-engine convert jsonl2bin` all decode
//! through it, so they agree on every line, dirty ones included.

use memdos_core::detector::Observation;
use memdos_metrics::jsonl::{
    parse_record_borrowed, resync_line, JsonObject, RawKind, RawParse, RawRecord, Segment,
};

pub use memdos_metrics::jsonl::RecordError;

/// One decoded input line.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// One PCM tick of a tenant.
    Sample {
        /// Tenant id (session key).
        tenant: String,
        /// The tick's LLC statistics.
        obs: Observation,
    },
    /// A request to close the tenant's session.
    Close {
        /// Tenant id (session key).
        tenant: String,
    },
}

impl Record {
    /// The tenant the record addresses.
    pub fn tenant(&self) -> &str {
        match self {
            Record::Sample { tenant, .. } | Record::Close { tenant } => tenant,
        }
    }

    /// Decodes one JSONL line: the zero-allocation fast path first
    /// ([`parse_record_borrowed`]), with the [`JsonObject`] slow path
    /// covering the escape-bearing lines the fast path defers on. Both
    /// paths accept/reject identically (pinned by the engine's
    /// parser-equivalence suite).
    ///
    /// # Errors
    ///
    /// Returns the [`RecordError`] class — syntax errors, a missing
    /// `tenant`, an unknown `ctl` verb, or missing/non-finite counters.
    /// Render a human-readable reason lazily via
    /// [`RecordError::reason`].
    pub fn parse(line: &str) -> Result<Record, RecordError> {
        match parse_record_borrowed(line) {
            RawParse::Record(raw) => Ok(Record::from_raw(raw)),
            RawParse::Reject(e) => Err(e),
            RawParse::Fallback => Record::parse_slow(line),
        }
    }

    /// Decodes one JSONL line through the allocating [`JsonObject`]
    /// parser only — the reference implementation [`Record::parse`]'s
    /// fast path must agree with.
    ///
    /// # Errors
    ///
    /// Returns the [`RecordError`] class of the first problem.
    pub fn parse_slow(line: &str) -> Result<Record, RecordError> {
        let obj = JsonObject::parse(line).map_err(|_| RecordError::Syntax)?;
        Record::from_object(&obj)
    }

    /// The record as borrowed fields.
    pub fn as_raw(&self) -> RawRecord<'_> {
        match self {
            Record::Sample { tenant, obs } => RawRecord {
                tenant,
                kind: RawKind::Sample { access: obs.access_num, miss: obs.miss_num },
            },
            Record::Close { tenant } => RawRecord { tenant, kind: RawKind::Close },
        }
    }

    /// Takes ownership of a borrowed fast-path record.
    fn from_raw(raw: RawRecord<'_>) -> Record {
        match raw.kind {
            RawKind::Sample { access, miss } => Record::Sample {
                tenant: raw.tenant.to_string(),
                obs: Observation { access_num: access, miss_num: miss },
            },
            RawKind::Close => Record::Close { tenant: raw.tenant.to_string() },
        }
    }

    /// Decodes an already-parsed object — the path resynchronised
    /// records take (see [`memdos_metrics::jsonl::resync_line`]), where
    /// the object comes out of a dirty line rather than a clean one.
    ///
    /// # Errors
    ///
    /// Returns the [`RecordError`] class for a missing `tenant`, an
    /// unknown `ctl` verb, or missing/non-finite counters.
    // lint:allow(hot-propagate) -- the resync decode path owns its tenant key; it runs only after a parse fault, not per sample
    pub fn from_object(obj: &JsonObject) -> Result<Record, RecordError> {
        let tenant = obj
            .get_str("tenant")
            .ok_or(RecordError::MissingTenant)?
            .to_string();
        if tenant.is_empty() {
            return Err(RecordError::EmptyTenant);
        }
        if let Some(ctl) = obj.get("ctl") {
            return match ctl.as_str() {
                Some("close") => Ok(Record::Close { tenant }),
                Some(_) => Err(RecordError::UnknownCtl),
                None => Err(RecordError::CtlNotString),
            };
        }
        let access = obj.get_f64("access").ok_or(RecordError::MissingAccess)?;
        let miss = obj.get_f64("miss").ok_or(RecordError::MissingMiss)?;
        if !access.is_finite() || !miss.is_finite() {
            return Err(RecordError::NonFinite);
        }
        Ok(Record::Sample { tenant, obs: Observation { access_num: access, miss_num: miss } })
    }

    /// Encodes the record as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut obj = JsonObject::new();
        match self {
            Record::Sample { tenant, obs } => {
                obj.push_str("tenant", tenant)
                    .push_num("access", obs.access_num)
                    .push_num("miss", obs.miss_num);
            }
            Record::Close { tenant } => {
                obj.push_str("tenant", tenant).push_str("ctl", "close");
            }
        }
        obj.to_line()
    }
}

/// One item of a decoded line, in line order (see [`decode_line`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LineItem<'a> {
    /// A protocol record.
    Record {
        /// The record's fields, borrowed from the line (or from its
        /// decoded copy when the line needed the fallback).
        record: RawRecord<'a>,
        /// Whether the record was recovered from a dirty line.
        resynced: bool,
    },
    /// A span no parser accepted.
    Malformed {
        /// Why it was rejected.
        reason: &'a str,
        /// Its length, for spans the resync scan skipped; `None` for a
        /// whole object that is not a valid record.
        bytes: Option<usize>,
    },
}

/// Decodes one JSONL line into its records, handing each to `emit` in
/// line order.
///
/// A clean line takes the borrowed zero-allocation parse and yields one
/// record. A line it cannot represent (escapes in protocol strings)
/// falls back to the allocating [`Record::parse_slow`]. A line neither
/// accepts is resynchronised: every embedded valid record is recovered
/// and every corrupted span becomes a [`LineItem::Malformed`] — one bad
/// byte never costs more than its own span.
// hot-path
pub fn decode_line(line: &str, mut emit: impl FnMut(LineItem<'_>)) {
    match parse_record_borrowed(line) {
        RawParse::Record(record) => emit(LineItem::Record { record, resynced: false }),
        // The borrowed parse only rejects what the slow path rejects for
        // the same reason (pinned by the equivalence suite), so resync
        // directly — re-parsing would fail again.
        // lint:allow(hot-propagate) -- resync recovers from corrupt input; the fault path may allocate
        RawParse::Reject(_) => resync(line, &mut emit),
        // lint:allow(hot-propagate) -- the slow parse is the announced fallback; its diagnostics may allocate
        RawParse::Fallback => match Record::parse_slow(line) {
            Ok(record) => emit(LineItem::Record { record: record.as_raw(), resynced: false }),
            Err(_) => resync(line, &mut emit),
        },
    }
}

/// Recovers what it can from a line no parser accepted whole.
fn resync(line: &str, emit: &mut impl FnMut(LineItem<'_>)) {
    for segment in resync_line(line) {
        match segment {
            Segment::Object(obj) => match Record::from_object(&obj) {
                Ok(record) => emit(LineItem::Record { record: record.as_raw(), resynced: true }),
                Err(e) => emit(LineItem::Malformed { reason: e.reason(), bytes: None }),
            },
            Segment::Skipped { bytes, reason } => {
                emit(LineItem::Malformed { reason: &reason, bytes: Some(bytes) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_roundtrips() {
        let r = Record::Sample {
            tenant: "vm-0".to_string(),
            obs: Observation { access_num: 1234.0, miss_num: 56.5 },
        };
        let line = r.to_line();
        assert_eq!(Record::parse(&line).unwrap(), r);
    }

    #[test]
    fn close_roundtrips() {
        let r = Record::Close { tenant: "vm-1".to_string() };
        assert_eq!(r.to_line(), r#"{"tenant":"vm-1","ctl":"close"}"#);
        assert_eq!(Record::parse(&r.to_line()).unwrap(), r);
    }

    #[test]
    fn extra_fields_are_ignored() {
        let r = Record::parse(r#"{"tenant":"vm-0","access":1,"miss":2,"host":"node-7"}"#)
            .unwrap();
        assert_eq!(r.tenant(), "vm-0");
    }

    #[test]
    fn rejects_malformed_records() {
        assert!(Record::parse("not json").is_err());
        assert!(Record::parse(r#"{"access":1,"miss":2}"#).is_err());
        assert!(Record::parse(r#"{"tenant":"","access":1,"miss":2}"#).is_err());
        assert!(Record::parse(r#"{"tenant":"vm-0","access":1}"#).is_err());
        assert!(Record::parse(r#"{"tenant":"vm-0","ctl":"open"}"#).is_err());
        assert!(Record::parse(r#"{"tenant":"vm-0","ctl":7}"#).is_err());
        assert!(Record::parse(r#"{"tenant":"vm-0","access":"x","miss":2}"#).is_err());
    }

    #[test]
    fn fast_and_slow_paths_agree() {
        let lines = [
            r#"{"tenant":"vm-0","access":1234,"miss":56}"#,
            r#"{"tenant":"vm-1","ctl":"close"}"#,
            r#" { "tenant" : "vm-2" , "access" : 1e3 , "miss" : 0.5 } "#,
            "not json",
            r#"{"access":1,"miss":2}"#,
            r#"{"tenant":"","access":1,"miss":2}"#,
            r#"{"tenant":"vm-0","ctl":"open"}"#,
            r#"{"tenant":"vm-0","access":1e999,"miss":2}"#,
            // Escape-bearing lines take the slow path inside parse().
            "{\"tenant\":\"vm\\u002d9\",\"access\":1,\"miss\":2}",
            "{\"\\u0074enant\":\"vm-8\",\"access\":3,\"miss\":4}",
        ];
        for line in lines {
            assert_eq!(Record::parse(line), Record::parse_slow(line), "line {line:?}");
        }
        // The escaped tenant decodes through the fallback.
        let r = Record::parse("{\"tenant\":\"vm\\u002d9\",\"access\":1,\"miss\":2}").unwrap();
        assert_eq!(r.tenant(), "vm-9");
    }

    #[test]
    fn error_classes_render_lazily() {
        let err = Record::parse(r#"{"tenant":"vm-0","ctl":"open"}"#).unwrap_err();
        assert_eq!(err, RecordError::UnknownCtl);
        assert_eq!(err.reason(), "unknown control verb");
        assert_eq!(err.to_string(), err.reason());
    }
}
