//! In-memory spans recorded around calls into each layer, and their self
//! times.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the request it serves. A span's self time is its duration minus the
//! part of its interval that its children cover; overlapping children are
//! merged first, so concurrent work is never subtracted twice.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `graph.build`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the parent span in the same request, if any.
    pub parent: Option<usize>,
    /// The request this span serves.
    pub request: u64,
    /// Whether the span's self time counts towards the request's layer
    /// time (`false` for checks and diagnostics that repeat work the
    /// counted spans already did).
    pub counted: bool,
}

/// Self time of every span, in ns: duration minus the union of its
/// children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            duration - covered.min(duration)
        })
        .collect()
}

/// Spans kept for the written trace; beyond this, spans are still
/// aggregated but no longer kept.
const RETAIN_CAP: usize = 20_000;

/// Records spans request by request and folds each finished request into
/// per-layer self-time samples.
pub struct Tracer {
    origin: Instant,
    current: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    retained: Vec<Span>,
    /// Per-layer self time of every call, µs.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Per layer, per request that called it: Σ self time of its calls, µs
    /// (the root's own self time is filed under `request`).
    pub per_request: BTreeMap<&'static str, Vec<f64>>,
    /// Per request: Σ self time of its counted spans except the root, µs.
    pub covered_us: Vec<f64>,
    /// Per request: root duration minus its uncounted spans, µs — the
    /// request's cost with tracing on, for the overhead estimate.
    pub traced_us: Vec<f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            current: Vec::new(),
            open: Vec::new(),
            request: 0,
            retained: Vec::new(),
            layers: BTreeMap::new(),
            per_request: BTreeMap::new(),
            covered_us: Vec::new(),
            traced_us: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, counted: bool) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
            counted,
        };
        self.open.push(self.current.len());
        self.current.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end = self.now_ns();
        if let Some(index) = self.open.pop() {
            self.current[index].end_ns = end;
        }
    }

    /// Runs `f` inside a counted span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name, true);
        let out = f();
        self.end();
        out
    }

    /// Runs `f` inside an uncounted span (a check or a diagnostic).
    pub fn check<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name, false);
        let out = f();
        self.end();
        out
    }

    /// Starts request `id` with its root span.
    pub fn start_request(&mut self, id: u64) {
        self.request = id;
        self.current.clear();
        self.open.clear();
        self.begin("request", false);
    }

    /// Closes the request's root span and folds its spans into the
    /// per-layer samples.
    pub fn finish_request(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
        let selfs = self_times(&self.current);
        let mut covered = 0.0;
        let mut unchecked = 0.0;
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, &ns) in self.current.iter().zip(&selfs) {
            let us = ns as f64 / 1e3;
            *sums.entry(span.name).or_default() += us;
            if span.parent.is_none() {
                continue;
            }
            self.layers.entry(span.name).or_default().push(us);
            if span.counted {
                covered += us;
            } else if span.parent == Some(0) {
                unchecked += (span.end_ns - span.start_ns) as f64 / 1e3;
            }
        }
        if let Some(root) = self.current.first() {
            self.traced_us.push((root.end_ns - root.start_ns) as f64 / 1e3 - unchecked);
        }
        self.covered_us.push(covered);
        for (name, us) in sums {
            self.per_request.entry(name).or_default().push(us);
        }
        let room = RETAIN_CAP.saturating_sub(self.retained.len());
        self.retained.extend(self.current.drain(..).take(room));
    }

    /// Adds an externally measured per-call sample to a layer.
    pub fn record(&mut self, name: &'static str, us: f64) {
        self.layers.entry(name).or_default().push(us);
    }

    /// Writes the retained spans to the benchmark's own
    /// `out/<workload>-seed<seed>.trace.json` and returns the path.
    ///
    /// # Errors
    ///
    /// Errors when the file cannot be written.
    pub fn write_out(&self, workload: &str, seed: u64) -> Result<std::path::PathBuf, String> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, self.chrome_json()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// The retained spans as Chrome trace-event JSON (`ph: "X"`, µs).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .retained
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{},\"parent\":{},\"counted\":{}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.request,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.counted
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: "x", start_ns: start, end_ns: end, parent, request: 0, counted: true }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(5, 25, None)]), vec![20]);
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100) > a [10,60) > b [20,30); c [70,80) under root.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
            span(70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_merged_before_subtracting() {
        // Two concurrent children [10,50) and [30,70) cover [10,70): 60 ns.
        let spans = [span(0, 100, None), span(10, 50, Some(0)), span(30, 70, Some(0))];
        assert_eq!(self_times(&spans)[0], 40);
        // A child contained in another adds nothing.
        let spans = [span(0, 100, None), span(10, 90, Some(0)), span(20, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [span(10, 50, None), span(0, 20, Some(0)), span(40, 90, Some(0))];
        assert_eq!(self_times(&spans)[0], 20);
        // A child covering all of the parent leaves no self time.
        let spans = [span(10, 50, None), span(0, 90, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_folds_requests_into_layers() {
        let mut tracer = Tracer::default();
        for id in 0..3 {
            tracer.start_request(id);
            tracer.span("graph.build", || std::hint::black_box(1 + 1));
            tracer.check("serve.compute", || ());
            tracer.finish_request();
        }
        assert_eq!(tracer.layers["graph.build"].len(), 3);
        assert_eq!(tracer.layers["serve.compute"].len(), 3);
        assert!(!tracer.layers.contains_key("request"));
        assert_eq!(tracer.covered_us.len(), 3);
        assert_eq!(tracer.per_request["graph.build"].len(), 3);
        assert_eq!(tracer.per_request["request"].len(), 3);
        assert_eq!(tracer.traced_us.len(), 3);
        assert!(tracer.chrome_json().contains("\"name\":\"graph.build\""));
    }
}
