//! What a run found, and how it is printed: a human-readable report, then
//! one JSON line with the gated metrics.

use std::collections::BTreeMap;

use crate::gen::Kind;
use crate::speed::Probes;
use crate::stats::{self, median, Summary};
use crate::trace::Tracer;

/// End-to-end metrics every workload reports (the `end_to_end` list of
/// `BENCHMARK.json`), in output order.
pub const END_TO_END: [&str; 4] = ["setup_s", "throughput_rps", "predict_p50_us", "peak_rss_mib"];

/// Per-layer metrics every workload's traced run reports (the `per_layer`
/// list of `BENCHMARK.json`). Layers only some workloads call are printed
/// in the report but not listed here.
pub const PER_LAYER: [&str; 19] = [
    "serve.parse_head_us",
    "serve.parse_predict_us",
    "serve.cache_get_us",
    "serve.cache_hit_ratio",
    "serve.compute_us",
    "serve.serialize_us",
    "graph.build_us",
    "graph.training_graph_us",
    "graph.nodes",
    "graph.drop_us",
    "core.features_us",
    "core.coverage_us",
    "core.predict_iteration_us",
    "core.fit_us",
    "cloud.catalog_us",
    "par.threads",
    "par.map16_us",
    "trace.coverage",
    "trace.overhead_frac",
];

/// Span names whose samples are counts, not times.
const COUNT_SAMPLES: [&str; 1] = ["graph.nodes"];

/// One per-layer row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Value (a median for timings and counts).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Calls behind the value (0 for derived ratios).
    pub calls: usize,
}

/// The per-layer rows of a traced run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Rows by metric name.
    pub rows: BTreeMap<String, Row>,
}

impl Layers {
    /// Median self time per call of every span name the tracer saw.
    pub fn new(tracer: &Tracer) -> Self {
        let mut layers = Layers::default();
        for (name, samples) in &tracer.layers {
            if COUNT_SAMPLES.contains(name) {
                layers.count(name, median(samples), samples.len());
            } else {
                layers.time(&format!("{name}_us"), median(samples), samples.len());
            }
        }
        layers
    }

    /// A timing row, µs.
    pub fn time(&mut self, name: &str, value: f64, calls: usize) {
        self.rows.insert(name.to_string(), Row { value, unit: "us", calls });
    }

    /// A count row.
    pub fn count(&mut self, name: &str, value: f64, calls: usize) {
        self.rows.insert(name.to_string(), Row { value, unit: "count", calls });
    }

    /// A ratio row.
    pub fn ratio(&mut self, name: &str, value: f64) {
        self.rows.insert(name.to_string(), Row { value, unit: "ratio", calls: 0 });
    }

    /// Rows every workload reports the same way: the fit from set-up and
    /// the two `ceer-par` probes.
    pub fn common(&mut self, fit_us: &[f64]) {
        self.time("core.fit_us", median(fit_us), fit_us.len());
        self.count("par.threads", ceer_par::threads() as f64, 1);
        let items = [0u64; 16];
        let mut samples = Vec::with_capacity(PAR_PROBES);
        for _ in 0..PAR_PROBES {
            let started = std::time::Instant::now();
            std::hint::black_box(ceer_par::par_map(std::hint::black_box(&items), |&x| x));
            samples.push(started.elapsed().as_secs_f64() * 1e6);
        }
        self.time("par.map16_us", median(&samples), samples.len());
    }
}

/// Calls behind `par.map16_us`.
const PAR_PROBES: usize = 200;

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Length of the measured window, s.
    pub window_s: f64,
    /// Every completed request: `(endpoint, completion s since the window
    /// opened, round trip or per-request wall µs)`, in completion order.
    pub timeline: Vec<(Kind, f64, f64)>,
    /// Host-speed probe readings over the window.
    pub probes: Probes,
    /// Peak resident set, MiB.
    pub peak_rss_mib: f64,
    /// Requests attempted in the measured window.
    pub attempted: u64,
    /// Requests that failed: transport error, non-200, or wrong bytes.
    pub failed: u64,
    /// The first few failures, for the report.
    pub fail_notes: Vec<String>,
    /// Ways the workload drifted from its purpose; any makes the run fail.
    pub drifts: Vec<String>,
    /// Facts worth printing (cache counters, reloads, …).
    pub notes: Vec<String>,
    /// Per-layer rows, in a traced run.
    pub layers: Option<Layers>,
}

impl Outcome {
    /// Adds a line to the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records that the workload drifted from its purpose.
    pub fn drift(&mut self, line: String) {
        self.drifts.push(line);
    }

    fn samples(&self, kind: Kind) -> Vec<f64> {
        self.timeline.iter().filter(|t| t.0 == kind).map(|t| t.2).collect()
    }

    fn summary(&self, kind: Kind) -> Option<Summary> {
        Summary::of(&self.samples(kind))
    }

    /// Every end-to-end metric with its unit, gated ones first. Metrics of
    /// endpoints the workload did not call are absent. The gated ones are
    /// sliced (see [`stats::sliced_rate`]); the rest are pooled.
    pub fn end_to_end(&self) -> Vec<(String, f64, &'static str)> {
        let ends: Vec<f64> = self.timeline.iter().map(|t| t.1).collect();
        let slowness = self.probes.slowness((self.window_s / stats::SLICE_S).ceil() as usize);
        let mut rows = vec![
            ("setup_s".to_string(), self.setup_s, "s"),
            (
                "throughput_rps".to_string(),
                stats::sliced_rate(&ends, self.window_s, &slowness),
                "1/s",
            ),
        ];
        let predicts: Vec<(f64, f64)> =
            self.timeline.iter().filter(|t| t.0 == Kind::Predict).map(|t| (t.1, t.2)).collect();
        if !predicts.is_empty() {
            let tail = |p| stats::grouped_tail(&predicts, p, &slowness);
            rows.push((
                "predict_p50_us".to_string(),
                stats::sliced_p50(&predicts, &slowness),
                "us",
            ));
            rows.push(("predict_p90_us".to_string(), tail(90.0), "us"));
            rows.push(("predict_p99_us".to_string(), tail(99.0), "us"));
        }
        rows.push(("peak_rss_mib".to_string(), self.peak_rss_mib, "MiB"));
        if let Some(s) = self.summary(Kind::Recommend) {
            rows.push(("recommend_p50_us".to_string(), s.p50, "us"));
            rows.push(("recommend_p99_us".to_string(), s.p99, "us"));
        }
        if let Some(s) = self.summary(Kind::Healthz) {
            rows.push(("healthz_p99_us".to_string(), s.p99, "us"));
        }
        if let Some(s) = self.summary(Kind::Metrics) {
            rows.push(("metrics_p50_us".to_string(), s.p50, "us"));
        }
        if let Some(s) = self.summary(Kind::Reload) {
            rows.push(("reload_p50_us".to_string(), s.p50, "us"));
        }
        rows.push((
            "error_rate".to_string(),
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
        ));
        rows
    }

    /// Prints the report, then the JSON line, and says whether the run was
    /// correct.
    pub fn print(&self, header: &str, trace: bool) -> bool {
        println!("{header}");
        for line in &self.notes {
            println!("note {line}");
        }
        println!(
            "pooled requests={} window_s={:.3} rate={:.1}/s host_probe_us={:.1} (reference {})",
            self.timeline.len(),
            self.window_s,
            self.timeline.len() as f64 / self.window_s.max(f64::MIN_POSITIVE),
            self.probes.median_us(),
            crate::speed::REFERENCE_US
        );
        for kind in [Kind::Predict, Kind::Recommend, Kind::Healthz, Kind::Metrics, Kind::Reload] {
            if let Some(s) = self.summary(kind) {
                println!("latency {kind:?} us {}", s.describe());
                if !s.p99_supported() && kind == Kind::Predict {
                    println!("warning {kind:?} p99 has fewer than 10 samples beyond it");
                }
            }
        }
        let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
        for (name, value, unit) in self.end_to_end() {
            let gated = END_TO_END.contains(&name.as_str());
            println!(
                "e2e {name} {value:.4} {unit}{}",
                if gated { "" } else { " (reported, not gated)" }
            );
            if gated && !trace {
                metrics.push((name, value, unit));
            }
        }
        let mut missing = Vec::new();
        if let Some(layers) = &self.layers {
            for (name, row) in &layers.rows {
                let listed = PER_LAYER.contains(&name.as_str());
                println!(
                    "layer {name} {:.4} {} calls={}{}",
                    row.value,
                    row.unit,
                    row.calls,
                    if listed { "" } else { " (reported, not listed)" }
                );
            }
            for name in PER_LAYER {
                match layers.rows.get(name) {
                    Some(row) => metrics.push((name.to_string(), row.value, row.unit)),
                    None => missing.push(name),
                }
            }
        }
        if !trace {
            for name in END_TO_END {
                if !metrics.iter().any(|(n, _, _)| n == name) {
                    missing.push(name);
                }
            }
        }
        for name in &missing {
            println!("error metric {name} was not measured");
        }
        for line in &self.fail_notes {
            println!("failure {line}");
        }
        for line in &self.drifts {
            println!("drift {line}");
        }
        let correct = self.failed == 0 && self.drifts.is_empty() && missing.is_empty();
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        correct
    }
}

/// A finite JSON number with all its digits.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}
