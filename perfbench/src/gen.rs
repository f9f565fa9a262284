//! Seeded request streams, one generator per traffic shape. Every stream
//! is an infinite, deterministic function of its seed: the same seed gives
//! the same requests, so a stream can be replayed after the timed window
//! to check each answer.

use ceer_core::recommend::Objective;
use ceer_graph::models::CnnId;
use ceer_serve::api::RecommendRequest;

/// SplitMix64: small, fast and good enough for choosing requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed` mixed with a stream label, so the
    /// streams of one run are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// `0..n` in a uniformly random order (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// A stream of shuffled blocks: every block holds each of `0..n` once, in
/// a fresh seeded order. Any stretch of a few blocks then has the same mix
/// of work, so a slice of the measured window differs from another by the
/// host, not by the luck of the draw.
#[derive(Debug, Clone)]
pub struct Blocks {
    n: usize,
    order: Vec<usize>,
}

impl Blocks {
    /// Blocks over `0..n`.
    pub fn new(n: usize) -> Self {
        Blocks { n, order: Vec::new() }
    }

    /// The next index.
    pub fn next(&mut self, rng: &mut Rng) -> usize {
        if self.order.is_empty() {
            self.order = rng.permutation(self.n);
        }
        self.order.pop().unwrap_or(0)
    }
}

/// Zipf(s = 1) over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks.
    pub fn new(n: usize) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `POST /predict`.
    Predict,
    /// `POST /recommend`.
    Recommend,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `POST /reload` (empty body: re-read the model file).
    Reload,
}

/// One request of a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// Endpoint.
    pub kind: Kind,
    /// JSON body (empty for `GET` and reload).
    pub body: String,
    /// For a hot `/predict`: its index among the canonical requests.
    pub hot: Option<usize>,
}

impl Req {
    fn get(kind: Kind) -> Self {
        Req { kind, body: String::new(), hot: None }
    }

    /// HTTP method.
    pub fn method(&self) -> &'static str {
        match self.kind {
            Kind::Healthz | Kind::Metrics => "GET",
            _ => "POST",
        }
    }

    /// HTTP path.
    pub fn path(&self) -> &'static str {
        match self.kind {
            Kind::Predict => "/predict",
            Kind::Recommend => "/recommend",
            Kind::Healthz => "/healthz",
            Kind::Metrics => "/metrics",
            Kind::Reload => "/reload",
        }
    }

    /// The request as it goes on the wire over a kept-alive connection.
    pub fn wire(&self) -> Vec<u8> {
        let mut bytes = format!(
            "{} {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.method(),
            self.path(),
            self.body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }
}

/// Per-GPU batch sizes the streams use.
pub const BATCHES: [u64; 3] = [16, 32, 64];
/// Data-parallel GPU counts the streams use.
pub const GPU_COUNTS: [u32; 3] = [1, 2, 4];
/// Single-GPU filters (AWS family names).
const GPU_FILTERS: [&str; 4] = ["P3", "P2", "G4", "G3"];

/// Number of canonical hot requests.
pub const HOT_KEYS: usize = 64;

fn predict_body(
    cnn: CnnId,
    batch: u64,
    gpus: u32,
    gpu: Option<&str>,
    samples: Option<u64>,
) -> String {
    let mut body = format!("{{\"cnn\": \"{}\", \"batch\": {batch}, \"gpus\": {gpus}", cnn.name());
    if let Some(gpu) = gpu {
        body.push_str(&format!(", \"gpu\": \"{gpu}\""));
    }
    if let Some(samples) = samples {
        body.push_str(&format!(", \"samples\": {samples}"));
    }
    body.push('}');
    body
}

/// The 64 canonical hot `/predict` bodies: every CNN at least five times,
/// across batch sizes and GPU counts. Fixed, so every seed warms the same
/// set and only the draw order varies.
pub fn hot_bodies() -> Vec<String> {
    let cnns = CnnId::all();
    (0..HOT_KEYS)
        .map(|k| {
            let (cnn, shape) = (cnns[k % cnns.len()], k / cnns.len());
            predict_body(cnn, BATCHES[shape % 3], GPU_COUNTS[(shape / 3 + shape) % 3], None, None)
        })
        .collect()
}

/// `predict_miss`: `/predict` over every CNN × batch × GPU count in
/// shuffled blocks of all 108 shapes, a quarter of them with a single-GPU
/// filter, and a fresh `samples` on every request so no answer can come
/// from the cache.
pub struct MissStream {
    rng: Rng,
    blocks: Blocks,
    next_samples: u64,
}

impl MissStream {
    /// The stream for `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng::new(seed, stream);
        let next_samples = 600_000 + rng.below(600_000) as u64;
        let shapes = CnnId::all().len() * BATCHES.len() * GPU_COUNTS.len();
        MissStream { rng, blocks: Blocks::new(shapes), next_samples }
    }
}

impl Iterator for MissStream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let cnns = CnnId::all();
        let shape = self.blocks.next(&mut self.rng);
        let cnn = cnns[shape % cnns.len()];
        let batch = BATCHES[shape / cnns.len() % 3];
        let gpus = GPU_COUNTS[shape / cnns.len() / 3];
        // The filter is a function of the shape, so every block filters the
        // same quarter; which GPU is seeded.
        let gpu =
            (shape / cnns.len() + shape).is_multiple_of(4).then(|| GPU_FILTERS[self.rng.below(4)]);
        self.next_samples += 1 + self.rng.below(7) as u64;
        let body = predict_body(cnn, batch, gpus, gpu, Some(self.next_samples));
        Some(Req { kind: Kind::Predict, body, hot: None })
    }
}

/// `predict_hot`: Zipf draws over the canonical bodies plus about 8%
/// `/healthz` and 2% `/metrics`.
pub struct HotStream {
    rng: Rng,
    zipf: Zipf,
    bodies: Vec<String>,
}

impl HotStream {
    /// The stream for `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        HotStream { rng: Rng::new(seed, stream), zipf: Zipf::new(HOT_KEYS), bodies: hot_bodies() }
    }
}

impl Iterator for HotStream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let roll = self.rng.below(100);
        Some(match roll {
            0..=7 => Req::get(Kind::Healthz),
            8..=9 => Req::get(Kind::Metrics),
            _ => {
                let k = self.zipf.sample(&mut self.rng);
                Req { kind: Kind::Predict, body: self.bodies[k].clone(), hot: Some(k) }
            }
        })
    }
}

/// Heavy requests between two reloads on the `mixed_rw` heavy connection.
pub const RELOAD_EVERY: u64 = 150;

/// `mixed_rw` heavy connection: `/recommend` over every CNN × batch in
/// shuffled blocks, with varied objectives, budgets, pricing and memory
/// filter, never repeating a key, and a `POST /reload` every
/// [`RELOAD_EVERY`] requests.
pub struct HeavyStream {
    rng: Rng,
    blocks: Blocks,
    index: u64,
    next_samples: u64,
}

impl HeavyStream {
    /// The stream for `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng::new(seed, stream);
        let next_samples = 200_000 + rng.below(800_000) as u64;
        HeavyStream {
            rng,
            blocks: Blocks::new(CnnId::all().len() * BATCHES.len()),
            index: 0,
            next_samples,
        }
    }
}

impl Iterator for HeavyStream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        self.index += 1;
        if self.index.is_multiple_of(RELOAD_EVERY) {
            return Some(Req::get(Kind::Reload));
        }
        let cnns = CnnId::all();
        let shape = self.blocks.next(&mut self.rng);
        let (cnn, batch) = (cnns[shape % cnns.len()], BATCHES[shape / cnns.len()]);
        let objective = match self.rng.below(5) {
            0 => Objective::MinimizeCost,
            1 => Objective::MinimizeTime,
            2 => Objective::MinTimeUnderHourlyBudget {
                usd_per_hour: [1.0, 4.0, 16.0][self.rng.below(3)],
            },
            3 => Objective::MinTimeUnderTotalBudget { usd: [2.0, 20.0, 200.0][self.rng.below(3)] },
            _ => {
                Objective::Weighted { time_weight: 1.0, cost_weight: [0.5, 2.0][self.rng.below(2)] }
            }
        };
        self.next_samples += 1 + self.rng.below(97) as u64;
        let request = RecommendRequest {
            cnn: cnn.name().to_string(),
            objective: Some(objective),
            samples: self.next_samples,
            batch,
            max_gpus: 4,
            epochs: 1 + self.rng.below(3) as u64,
            market: self.rng.below(2) == 0,
            memory_fit: self.rng.below(2) == 0,
        };
        let body = serde_json::to_string(&request).expect("a recommend request serializes");
        Some(Req { kind: Kind::Recommend, body, hot: None })
    }
}

/// Cluster requests between two cluster-wide reloads.
pub const CLUSTER_RELOAD_EVERY: u64 = 400;
/// Share of cluster `/predict`s that are fresh misses, percent.
pub const CLUSTER_MISS_PERCENT: usize = 8;

/// `cluster_sim`: mostly Zipf hot predicts, a seeded share of fresh misses
/// across the zoo, and a cluster-wide `/reload` every
/// [`CLUSTER_RELOAD_EVERY`] requests.
pub struct ClusterStream {
    rng: Rng,
    hot: HotStream,
    miss: MissStream,
    index: u64,
}

impl ClusterStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        ClusterStream {
            rng: Rng::new(seed, 30),
            hot: HotStream::new(seed, 31),
            miss: MissStream::new(seed, 32),
            index: 0,
        }
    }
}

impl Iterator for ClusterStream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        self.index += 1;
        if self.index.is_multiple_of(CLUSTER_RELOAD_EVERY) {
            return Some(Req::get(Kind::Reload));
        }
        if self.rng.below(100) < CLUSTER_MISS_PERCENT {
            return self.miss.next();
        }
        loop {
            let req = self.hot.next()?;
            if req.kind == Kind::Predict {
                return Some(req);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(stream: impl Iterator<Item = Req>, n: usize) -> Vec<Req> {
        stream.take(n).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(take(MissStream::new(7, 1), 200), take(MissStream::new(7, 1), 200));
        assert_ne!(take(MissStream::new(7, 1), 200), take(MissStream::new(8, 1), 200));
        assert_eq!(take(HotStream::new(7, 1), 500), take(HotStream::new(7, 1), 500));
        assert_ne!(take(HotStream::new(7, 1), 500), take(HotStream::new(8, 1), 500));
        assert_eq!(take(HeavyStream::new(3, 2), 300), take(HeavyStream::new(3, 2), 300));
        assert_ne!(take(HeavyStream::new(3, 2), 300), take(HeavyStream::new(4, 2), 300));
        assert_eq!(take(ClusterStream::new(5), 900), take(ClusterStream::new(5), 900));
        assert_ne!(take(ClusterStream::new(5), 900), take(ClusterStream::new(6), 900));
    }

    #[test]
    fn miss_keys_never_repeat_and_cover_the_zoo() {
        let reqs = take(MissStream::new(11, 1), 2000);
        let keys: std::collections::BTreeSet<&str> = reqs.iter().map(|r| r.body.as_str()).collect();
        assert_eq!(keys.len(), reqs.len());
        for cnn in CnnId::all() {
            assert!(
                reqs.iter().any(|r| r.body.contains(&format!("\"{}\"", cnn.name()))),
                "{cnn:?}"
            );
        }
        assert!(reqs.iter().any(|r| r.body.contains("\"gpu\"")));
    }

    #[test]
    fn hot_stream_mixes_endpoints_over_the_canonical_set() {
        let bodies = hot_bodies();
        let distinct: std::collections::BTreeSet<&String> = bodies.iter().collect();
        assert_eq!(distinct.len(), HOT_KEYS);
        let reqs = take(HotStream::new(1, 1), 20_000);
        let share =
            |kind| reqs.iter().filter(|r| r.kind == kind).count() as f64 / reqs.len() as f64;
        assert!((share(Kind::Healthz) - 0.08).abs() < 0.01);
        assert!((share(Kind::Metrics) - 0.02).abs() < 0.005);
        // Zipf: rank 0 is drawn far more often than rank 63.
        let count = |k| reqs.iter().filter(|r| r.hot == Some(k)).count();
        assert!(count(0) > 10 * count(63));
        assert!(reqs
            .iter()
            .filter(|r| r.kind == Kind::Predict)
            .all(|r| bodies[r.hot.unwrap()] == r.body));
    }

    #[test]
    fn heavy_stream_reloads_at_fixed_points_and_never_repeats() {
        let reqs = take(HeavyStream::new(9, 2), 3 * RELOAD_EVERY as usize);
        let reloads: Vec<usize> = reqs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind == Kind::Reload)
            .map(|(i, _)| i)
            .collect();
        let every = RELOAD_EVERY as usize;
        assert_eq!(reloads, vec![every - 1, 2 * every - 1, 3 * every - 1]);
        let keys: std::collections::BTreeSet<&str> =
            reqs.iter().filter(|r| r.kind == Kind::Recommend).map(|r| r.body.as_str()).collect();
        assert_eq!(keys.len(), reqs.len() - reloads.len());
        let parsed: RecommendRequest = serde_json::from_str(&reqs[0].body).unwrap();
        assert!(parsed.objective.is_some());
    }

    #[test]
    fn blocks_hold_every_shape_once() {
        let mut rng = Rng::new(1, 1);
        let mut blocks = Blocks::new(108);
        for _ in 0..3 {
            let mut block: Vec<usize> = (0..108).map(|_| blocks.next(&mut rng)).collect();
            block.sort_unstable();
            assert_eq!(block, (0..108).collect::<Vec<_>>());
        }
        // So each block of the miss stream covers all 108 shapes.
        let reqs = take(MissStream::new(3, 1), 108);
        let shapes: std::collections::BTreeSet<String> = reqs
            .iter()
            .map(|r| {
                let v: ceer_serve::api::PredictRequest = serde_json::from_str(&r.body).unwrap();
                format!("{} {} {}", v.cnn, v.batch, v.gpus)
            })
            .collect();
        assert_eq!(shapes.len(), 108);
        assert_eq!(reqs.iter().filter(|r| r.body.contains("\"gpu\"")).count(), 27);
    }

    #[test]
    fn wire_bytes_frame_the_body() {
        let req = Req { kind: Kind::Predict, body: "{\"cnn\": \"VGG-11\"}".into(), hot: None };
        let wire = String::from_utf8(req.wire()).unwrap();
        assert!(wire.starts_with("POST /predict HTTP/1.1\r\n"));
        assert!(wire.ends_with("Content-Length: 17\r\n\r\n{\"cnn\": \"VGG-11\"}"));
    }
}
