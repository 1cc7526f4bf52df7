//! In-memory spans for the traced run. Each span has a name, start and
//! end (ns since the tracer's origin), the span that caused it and a
//! request id (the tick, grid pass or cell it belongs to). Spans are
//! recorded by the benchmark around its calls into the program — never
//! inside the program — and written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `engine.ingest_reader`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start: u64,
    /// End, ns since the tracer origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request id: the tick, pass or cell this span served.
    pub req: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. A disabled tracer reads no clock and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the origin (0 when disabled).
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else {
            return;
        };
        let end = self.now();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end = end;
        }
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Records a finished span whose bounds were stamped elsewhere (with
    /// [`Tracer::now`]), as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, req: u64) {
        if self.enabled {
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
                req,
            });
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// Per-layer self time in ns: each span's duration minus the part its
/// child spans of *other* layers cover. A chain of same-layer spans (a
/// tick inside an ingest call) counts once, at its outermost span, and
/// other-layer spans anywhere inside the chain are subtracted from it.
/// Spans of one thread never overlap their siblings, so the children's
/// durations sum to the covered part.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let parent_of = |i: usize| spans.get(i).and_then(|s| s.parent).map(|p| p as usize);
    // The outermost span of `i`'s same-layer chain.
    let chain_root = |mut i: usize| {
        while let Some(p) = parent_of(i) {
            match (spans.get(p), spans.get(i)) {
                (Some(ps), Some(s)) if ps.layer() == s.layer() => i = p,
                _ => break,
            }
        }
        i
    };
    let mut covered = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let root = chain_root(i);
        if root != i {
            continue;
        }
        if let Some(p) = parent_of(i) {
            if let Some(slot) = covered.get_mut(chain_root(p)) {
                *slot += s.end.saturating_sub(s.start);
            }
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if chain_root(i) != i {
            continue;
        }
        let inside = covered.get(i).copied().unwrap_or(0);
        *out.entry(s.layer()).or_insert(0) += s.end.saturating_sub(s.start).saturating_sub(inside);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_other_layer_children_only() {
        let spans = [
            span("engine.ingest_reader", 0, 100, None),
            span("engine.tick", 10, 40, Some(0)),
            span("sink.copy", 50, 70, Some(0)),
            span("sim.fleet_tick", 100, 130, None),
            span("sink.copy", 20, 25, Some(1)),
        ];
        let own = layer_self_ns(&spans);
        assert_eq!(own.get("engine"), Some(&75));
        assert_eq!(own.get("sink"), Some(&25));
        assert_eq!(own.get("sim"), Some(&30));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("engine.finish", 1);
        t.exit(o);
        t.record("engine.tick", 1, 2, 3);
        assert!(t.spans().is_empty());
        assert_eq!(t.now(), 0);
    }

    #[test]
    fn nesting_links_parents_and_writes_lines() {
        let mut t = Tracer::new(true);
        let outer = t.enter("runner.run_grid", 7);
        let inner = t.enter("sim.capture", 7);
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0"));
    }
}
