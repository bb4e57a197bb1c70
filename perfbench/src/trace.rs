//! Benchmark-side spans around calls into the program's layers.
//!
//! A traced run records one span per public call it makes (name, start,
//! end, parent span, request id), keeps them in memory, and writes them
//! out when the run ends. A layer's self time is its span's duration minus
//! the part of that interval covered by its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// An in-memory span recorder. Disabled recorders cost one branch per
/// call and record nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `request`, nested
    /// under whatever span is currently open.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = self.begin(name, request);
        let out = f();
        self.end(idx);
        out
    }

    /// Opens a span explicitly (for spans whose body itself records
    /// children through this tracer).
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    pub fn end(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        assert_eq!(self.open.pop(), Some(idx), "spans must close innermost first");
        self.spans[idx].end = now;
    }

    /// Records a span measured elsewhere (e.g. on a generator thread),
    /// nested under the currently open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start: at(start), end: at(end), parent, request });
    }

    /// Total and self time per span name, in seconds.
    pub fn times_by_name(&self) -> BTreeMap<&'static str, (f64, f64, usize)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end - s.start) as f64 * 1e-9;
            e.1 += self_ns as f64 * 1e-9;
            e.2 += 1;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        f.flush()
    }

    /// Prints total and self time per span name.
    pub fn print_summary(&self) {
        println!("# spans (name: count, total s, self s)");
        for (name, (total, own, count)) in self.times_by_name() {
            println!("#   {name}: {count}, {total:.6}, {own:.6}");
        }
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, request: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a: union is 10..50
            span("c", 90, 120, Some(0)), // clipped to the parent's end
            span("a.x", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 8, 20, 30, 8]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 1, || 7), 7);
        assert!(t.spans.is_empty());
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 3);
        t.span("inner", 3, || ());
        t.end(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, 3);
    }
}
