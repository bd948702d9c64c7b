//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! id of the request it belongs to. Spans stay in memory while the run
//! measures and are written out when it ends. A span's self time is its
//! duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the span timed.
    pub name: &'static str,
    /// The request, batch or epoch the span belongs to.
    pub request: u32,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// Start, in ns.
    pub start: u64,
    /// End, in ns (`start` until the span is closed).
    pub end: u64,
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the request id that new spans carry.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            request: self.request,
            parent,
            start,
            end: start,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id as usize].end = end;
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let result = f();
        self.exit();
        result
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as a tab-separated line: request, name, parent,
    /// start ns, end ns, self ns.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "request\tname\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let parent = if span.parent == ROOT {
                -1
            } else {
                i64::from(span.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                span.request, span.name, parent, span.start, span.end, own
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != ROOT {
            children[span.parent as usize].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end - span.start) - covered
        })
        .collect()
}

/// Calls and total self time (ns) per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += own;
    }
    totals
}

/// Total duration (ns) of the spans named `name`.
pub fn total_duration(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn nested_children_only_subtract_from_their_own_parent() {
        let spans = [
            span("call", ROOT, 0, 100),
            span("stage", 0, 10, 50),
            span("inner", 1, 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        let spans = [
            span("call", ROOT, 0, 100),
            span("a", 0, 10, 40),
            span("b", 0, 30, 60),
            span("c", 0, 35, 45),
            span("d", 0, 70, 80),
        ];
        // Union of the children: [10, 60) and [70, 80) = 60 ns.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("call", ROOT, 10, 50),
            span("early", 0, 0, 20),
            span("late", 0, 40, 90),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = [
            span("call", ROOT, 0, 100),
            span("a", 0, 5, 25),
            span("b", 0, 25, 70),
            span("call", ROOT, 100, 130),
            span("a", 3, 100, 130),
        ];
        let totals = by_name(&spans);
        assert_eq!(totals["call"], (2, 35));
        assert_eq!(totals["a"], (2, 50));
        let attributed: u64 = totals.values().map(|t| t.1).sum();
        assert_eq!(attributed, total_duration(&spans, "call"));
    }

    #[test]
    fn the_tracer_nests_spans_and_writes_them_out() {
        let mut tracer = Tracer::new();
        tracer.set_request(7);
        tracer.enter("call");
        let x = tracer.span("inner", || 41 + 1);
        tracer.exit();
        assert_eq!(x, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let mut out = Vec::new();
        tracer.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().starts_with("7\tinner\t0\t"));
    }
}
