//! The three workloads against the real evented server over loopback
//! (`predict_miss`, `predict_hot`, `mixed_rw`), their in-process replays
//! for the traced run, and the answer checks.

use std::time::{Duration, Instant};

use ceer_core::CeerModel;
use ceer_graph::models::CnnId;
use ceer_serve::api::{self, PredictRequest, RecommendRequest};
use ceer_serve::parser::parse_head;
use ceer_serve::{App, ClientConn, EventedServer, MetricsSnapshot, ModelRegistry, ServerConfig};

use crate::gen::{hot_bodies, HeavyStream, HotStream, Kind, MissStream, Req};
use crate::records::Records;
use crate::report::{Layers, Outcome};
use crate::setup::{self, Fitted, TempDir};
use crate::speed::Probes;
use crate::stats::Summary;
use crate::trace::Tracer;

/// The HTTP workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh `/predict` keys on one connection: every request computes.
    PredictMiss,
    /// Zipf-hot `/predict` plus `/healthz` and `/metrics` on one connection.
    PredictHot,
    /// The hot stream beside a heavy `/recommend` + `/reload` connection.
    MixedRw,
}

impl Workload {
    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PredictMiss => "predict_miss",
            Workload::PredictHot => "predict_hot",
            Workload::MixedRw => "mixed_rw",
        }
    }
}

/// Stream labels, so each connection's requests are independent.
const HOT_STREAM: u64 = 1;
const MISS_STREAM: u64 = 2;
const HEAVY_STREAM: u64 = 3;
const WARM_STREAM: u64 = 4;

const HEALTHZ_BODY: &str = "{\n  \"status\": \"ok\"\n}\n";

/// A started server that is shut down when dropped.
struct Running(Option<EventedServer>);

impl Running {
    fn addr(&self) -> std::net::SocketAddr {
        self.0.as_ref().expect("server runs until dropped").addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

/// Everything one set-up produces.
struct Bench {
    fitted: Fitted,
    server: Running,
}

fn request(conn: &mut ClientConn, req: &Req) -> Result<ceer_serve::RawResponse, String> {
    conn.request(req.method(), req.path(), req.body.as_bytes())
}

/// Fit, write and load the model, start the server and warm it: the hot
/// set for the hot workloads, one request per CNN for `predict_miss`.
fn set_up(dir: &TempDir, workload: Workload) -> Result<Bench, String> {
    let fitted = setup::fit_model(dir.path())?;
    let registry = ModelRegistry::load(&fitted.path)?;
    let config = ServerConfig { port: 0, ..ServerConfig::default() };
    let server = Running(Some(EventedServer::start(&config, registry)?));
    let mut conn = ClientConn::new(server.addr());
    let warm: Vec<Req> = match workload {
        Workload::PredictMiss => MissStream::new(0, WARM_STREAM).take(CnnId::all().len()).collect(),
        _ => hot_bodies()
            .into_iter()
            .enumerate()
            .map(|(k, body)| Req { kind: Kind::Predict, body, hot: Some(k) })
            .collect(),
    };
    for req in &warm {
        let response = request(&mut conn, req)?;
        if response.status != 200 {
            return Err(format!("warm-up {} answered {}", req.body, response.status));
        }
    }
    Ok(Bench { fitted, server })
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    /// `(endpoint, completion s since the window opened, round trip µs)`,
    /// read back from the connection's [`Records`] after the window.
    timeline: Vec<(Kind, f64, f64)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// `(stream index, body hash)` of answers checked after the window.
    deferred: Vec<(usize, u64)>,
    hot_predicts: u64,
    probes: Probes,
}

impl ConnLog {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    fn merge(&mut self, other: ConnLog) {
        self.timeline.extend(other.timeline);
        self.timeline.sort_by(|a, b| a.1.total_cmp(&b.1));
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.hot_predicts += other.hot_predicts;
        self.probes.merge(&other.probes);
    }
}

/// FNV-1a, to remember an answer in 8 bytes until its check.
pub(crate) fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Sends `stream` over one kept-alive connection, closed loop, until
/// `deadline`, timing each round trip into `records`. Hot answers are
/// checked against `hot` at once; computed answers are hashed for the
/// check after the window.
fn drive(
    addr: std::net::SocketAddr,
    stream: impl Iterator<Item = Req>,
    window: (Instant, Instant),
    hot: &[String],
    records: &mut Records,
) -> ConnLog {
    let (opened, deadline) = window;
    let mut conn = ClientConn::new(addr);
    let mut log = ConnLog::default();
    for (index, req) in stream.enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        log.probes.tick(opened.elapsed().as_secs_f64());
        log.attempted += 1;
        let started = Instant::now();
        let outcome = request(&mut conn, &req);
        let us = started.elapsed().as_secs_f64() * 1e6;
        let response = match outcome {
            Ok(response) => response,
            Err(error) => {
                log.fail(format!("{} {}: {error}", req.method(), req.path()));
                continue;
            }
        };
        records.push(req.kind, (started - opened).as_secs_f64() + us / 1e6, us);
        if response.status != 200 {
            log.fail(format!("{} {} answered {}", req.method(), req.path(), response.status));
            continue;
        }
        let body = response.body;
        let ok = match (req.kind, req.hot) {
            (Kind::Predict, Some(k)) => {
                log.hot_predicts += 1;
                hot[k] == body
            }
            (Kind::Predict | Kind::Recommend, None) => {
                log.deferred.push((index, fnv(body.as_bytes())));
                true
            }
            (Kind::Healthz, _) => body == HEALTHZ_BODY,
            (Kind::Metrics, _) => body.starts_with('{'),
            (Kind::Reload, _) => body.contains("\"reloaded\""),
            (Kind::Recommend, Some(_)) => false,
        };
        if !ok {
            log.fail(format!("{} {}: wrong body", req.method(), req.path()));
        }
    }
    log
}

/// The oracle: `to_string_pretty` of `api::predict` / `api::recommend` on
/// the served model.
pub(crate) fn expected(model: &CeerModel, req: &Req) -> Result<String, String> {
    let body = match req.kind {
        Kind::Predict => {
            let request: PredictRequest =
                serde_json::from_str(&req.body).map_err(|e| e.to_string())?;
            serde_json::to_string_pretty(&api::predict(model, &request)?)
        }
        Kind::Recommend => {
            let request: RecommendRequest =
                serde_json::from_str(&req.body).map_err(|e| e.to_string())?;
            serde_json::to_string_pretty(&api::recommend(model, &request)?)
        }
        _ => return Err(format!("no oracle for {}", req.path())),
    };
    body.map_err(|e| e.to_string())
}

/// Checks deferred answers against the oracle, regenerating the requests
/// from the stream's seed; `suffix` is what the transport appends to a
/// body. Returns the mismatches.
pub(crate) fn check_deferred(
    model: &CeerModel,
    stream: impl Iterator<Item = Req>,
    deferred: &[(usize, u64)],
    suffix: &str,
) -> Vec<String> {
    let Some(&(last, _)) = deferred.last() else { return Vec::new() };
    let reqs: Vec<Req> = stream.take(last + 1).collect();
    let work: Vec<(&Req, u64)> = deferred.iter().map(|&(i, hash)| (&reqs[i], hash)).collect();
    ceer_par::par_map(&work, |&(req, hash)| match expected(model, req) {
        Ok(expected) if fnv(format!("{expected}{suffix}").as_bytes()) == hash => None,
        Ok(_) => Some(format!("{} {}: body differs from the library's", req.path(), req.body)),
        Err(error) => Some(format!("{} {}: oracle failed: {error}", req.path(), req.body)),
    })
    .into_iter()
    .flatten()
    .collect()
}

fn scrape(addr: std::net::SocketAddr) -> Result<MetricsSnapshot, String> {
    let response = ClientConn::new(addr).request("GET", "/metrics", b"")?;
    serde_json::from_str(&response.body).map_err(|e| format!("unparseable /metrics: {e}"))
}

/// The hot set's expected bodies, as the transport sends them.
fn hot_answers(model: &CeerModel) -> Result<Vec<String>, String> {
    hot_bodies()
        .into_iter()
        .map(|body| {
            expected(model, &Req { kind: Kind::Predict, body, hot: None }).map(|b| b + "\n")
        })
        .collect()
}

/// The untraced measurement over HTTP: both connections of the workload
/// for `seconds`, then every answer checked.
struct HttpRun {
    log: ConnLog,
    wall_s: f64,
    /// Peak RSS when the window closed, before the checks allocate.
    peak_rss_mib: f64,
    hot_count: u64,
    heavy_count: u64,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

fn run_http(
    bench: &Bench,
    dir: &TempDir,
    workload: Workload,
    seed: u64,
    seconds: f64,
    hot: &[String],
) -> Result<HttpRun, String> {
    let addr = bench.server.addr();
    let mut records = Records::create(dir.path().join("records"))?;
    let mut heavy_records = Records::create(dir.path().join("heavy-records"))?;
    let before = scrape(addr)?;
    let started = Instant::now();
    let window = (started, started + Duration::from_secs_f64(seconds));
    let (mut log, heavy) = match workload {
        Workload::PredictMiss => {
            (drive(addr, MissStream::new(seed, MISS_STREAM), window, hot, &mut records), None)
        }
        Workload::PredictHot => {
            (drive(addr, HotStream::new(seed, HOT_STREAM), window, hot, &mut records), None)
        }
        Workload::MixedRw => std::thread::scope(|scope| {
            let heavy = scope.spawn(|| {
                let stream = HeavyStream::new(seed, HEAVY_STREAM);
                drive(addr, stream, window, hot, &mut heavy_records)
            });
            let hot_log = drive(addr, HotStream::new(seed, HOT_STREAM), window, hot, &mut records);
            (hot_log, Some(heavy.join().expect("heavy connection thread")))
        }),
    };
    let wall_s = started.elapsed().as_secs_f64();
    let peak_rss_mib = setup::peak_rss_mib();
    log.timeline = records.read()?;
    let heavy_timeline = heavy_records.read()?;
    let after = scrape(addr)?;
    let model = &bench.fitted.model;
    let mut mismatches = match workload {
        Workload::PredictMiss => setup::unpinned(|| {
            check_deferred(model, MissStream::new(seed, MISS_STREAM), &log.deferred, "\n")
        }),
        _ => Vec::new(),
    };
    let hot_count = log.attempted;
    let mut heavy_count = 0;
    if let Some(mut heavy) = heavy {
        heavy.timeline = heavy_timeline;
        mismatches.extend(setup::unpinned(|| {
            check_deferred(model, HeavyStream::new(seed, HEAVY_STREAM), &heavy.deferred, "\n")
        }));
        heavy_count = heavy.attempted;
        log.merge(heavy);
    }
    for note in mismatches {
        log.fail(note);
    }
    Ok(HttpRun { log, wall_s, peak_rss_mib, hot_count, heavy_count, before, after })
}

/// Checks that the workload did what its name says, from the server's
/// own counters; prints what it found.
fn check_purpose(workload: Workload, run: &HttpRun, out: &mut Outcome) {
    let hits = run.after.cache.hits - run.before.cache.hits;
    let misses = run.after.cache.misses - run.before.cache.misses;
    let ratio = hits as f64 / (hits + misses).max(1) as f64;
    out.note(format!("cache in window: hits={hits} misses={misses} hit_ratio={ratio:.4}"));
    match workload {
        Workload::PredictMiss => {
            if hits != 0 {
                out.drift(format!("predict_miss must never hit the cache, but hit {hits} times"));
            }
        }
        Workload::PredictHot => {
            if ratio < 0.99 {
                out.drift(format!("predict_hot hit ratio {ratio:.4} is below 0.99"));
            }
        }
        Workload::MixedRw => {
            let reloads = run.after.model_reloads - run.before.model_reloads;
            let recommends =
                run.log.timeline.iter().filter(|(kind, _, _)| *kind == Kind::Recommend).count()
                    as u64;
            // Recommend keys never repeat, so every recommend lookup misses;
            // the rest of the misses are hot predicts refilling after a
            // reload or an eviction.
            let hot_misses = misses.saturating_sub(recommends);
            let share = hot_misses as f64 / run.log.hot_predicts.max(1) as f64;
            out.note(format!(
                "mixed_rw: reloads={reloads} recommends={recommends} hot_predicts={} post-reload miss share={share:.4}",
                run.log.hot_predicts
            ));
            if reloads == 0 || recommends == 0 {
                out.drift("mixed_rw must both reload and recommend in its window".to_string());
            }
            if hot_misses == 0 {
                out.drift("mixed_rw reloads must make hot keys miss until they refill".to_string());
            }
        }
    }
}

/// Builds the in-process stream the traced run replays: the warm-up the
/// server got, then the workload's requests; for `mixed_rw` the two
/// connections interleaved in the ratio the HTTP run served them.
fn replay_stream(
    workload: Workload,
    seed: u64,
    hot_per_heavy: u64,
) -> Box<dyn Iterator<Item = Req>> {
    let warm = hot_bodies().into_iter().enumerate().map(|(k, body)| Req {
        kind: Kind::Predict,
        body,
        hot: Some(k),
    });
    match workload {
        Workload::PredictMiss => Box::new(MissStream::new(seed, MISS_STREAM)),
        Workload::PredictHot => Box::new(warm.chain(HotStream::new(seed, HOT_STREAM))),
        Workload::MixedRw => {
            let mut hot = HotStream::new(seed, HOT_STREAM);
            let mut heavy = HeavyStream::new(seed, HEAVY_STREAM);
            let every = hot_per_heavy.max(1) + 1;
            let mixed =
                (1u64..).map(move |i| if i % every == 0 { heavy.next() } else { hot.next() });
            Box::new(warm.chain(mixed.map_while(|r| r)))
        }
    }
}

/// An `App` built the way the server builds its own, over the model file.
pub(crate) fn fresh_app(path: &std::path::Path) -> Result<App, String> {
    Ok(App::new(ModelRegistry::load(path)?, ServerConfig::default().cache_capacity, None))
}

/// In-process `parse_head` + `App::route` of one request, untraced;
/// returns its µs.
fn untraced_request(app: &App, req: &Req) -> Result<f64, String> {
    let wire = req.wire();
    let started = Instant::now();
    let head = parse_head(&wire, ceer_serve::http::MAX_BODY_BYTES)
        .map_err(|e| format!("{e:?}"))?
        .ok_or("incomplete request")?;
    let request = head.request(&wire).ok_or("incomplete body")?;
    let response = app.route(request);
    let us = started.elapsed().as_secs_f64() * 1e6;
    if response.status != 200 {
        return Err(format!("in-process {} answered {}", req.path(), response.status));
    }
    Ok(us)
}

/// Replays `stream` in process until `deadline`, each request once
/// untraced through `plain` and once traced through `traced`, alternating
/// which goes first so both see the same host and neither always gets the
/// warm caches. Returns the untraced µs per request.
fn replay_both(
    plain: &App,
    traced: &App,
    t: &mut Tracer,
    stream: impl Iterator<Item = Req>,
    deadline: Instant,
) -> Result<Vec<f64>, String> {
    let mut untraced = Vec::new();
    for (id, req) in stream.enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let traced_first = id % 2 == 1;
        if traced_first {
            traced_one(t, traced, id, &req)?;
        }
        untraced.push(untraced_request(plain, &req)?);
        if !traced_first {
            traced_one(t, traced, id, &req)?;
        }
    }
    Ok(untraced)
}

fn traced_one(t: &mut Tracer, app: &App, id: usize, req: &Req) -> Result<(), String> {
    t.start_request(id as u64);
    let result = traced_request(t, app, req);
    t.finish_request();
    result
}

/// One request through the layers, each call inside its span; composite
/// calls run afterwards as uncounted checks and must give the same bytes.
pub fn traced_request(t: &mut Tracer, app: &App, req: &Req) -> Result<(), String> {
    let wire = req.wire();
    let head = t
        .span("serve.parse_head", || parse_head(&wire, ceer_serve::http::MAX_BODY_BYTES))
        .map_err(|e| format!("{e:?}"))?
        .ok_or("incomplete request")?;
    let request = head.request(&wire).ok_or("incomplete body")?;
    let model = app.registry.model();
    match req.kind {
        Kind::Predict => {
            let (item, key) = t
                .span("serve.parse_predict", || app.parse_predict(request.body))
                .map_err(|r| format!("parse_predict answered {}", r.status))?;
            if t.span("serve.cache_get", || app.predict_hit(key.as_deref())).is_none() {
                let body = crate::layers::predict(t, &model, &item)? + "\n";
                let composite = t.check("serve.compute", || app.predict_compute(&[(item, key)]));
                if composite.first().map(|r| &r.body) != Some(&body) {
                    return Err(format!(
                        "decomposed /predict differs from App::predict_compute for {}",
                        req.body
                    ));
                }
            }
        }
        Kind::Recommend => {
            let (item, key) = t
                .span("serve.parse_recommend", || {
                    let item: Result<RecommendRequest, _> = serde_json::from_slice(request.body);
                    item.map(|item| {
                        let key =
                            serde_json::to_string(&item).ok().map(|c| format!("/recommend {c}"));
                        (item, key)
                    })
                })
                .map_err(|e| e.to_string())?;
            let key = key.ok_or("recommend request without a canonical key")?;
            if t.span("serve.cache_get", || app.cache.get(&key)).is_none() {
                let body = crate::layers::recommend(t, &model, &item)? + "\n";
                let composite = t.check("serve.route_recommend", || app.route(request));
                if composite.body != body {
                    return Err(format!(
                        "decomposed /recommend differs from App::route for {}",
                        req.body
                    ));
                }
            }
        }
        Kind::Healthz => {
            let response = t.span("serve.healthz_route", || app.route(request));
            if response.body != HEALTHZ_BODY {
                return Err("wrong /healthz body".to_string());
            }
        }
        Kind::Metrics => {
            let response = t.span("serve.metrics_route", || app.route(request));
            if response.status != 200 {
                return Err(format!("/metrics answered {}", response.status));
            }
        }
        Kind::Reload => {
            t.span("serve.reload", || app.registry.reload())?;
            t.span("serve.cache_clear", || app.cache.clear());
        }
    }
    Ok(())
}

/// Replays `stream` through [`traced_request`] until `deadline`.
pub(crate) fn replay_traced(
    t: &mut Tracer,
    app: &App,
    stream: impl Iterator<Item = Req>,
    deadline: Instant,
) -> Result<(), String> {
    for (id, req) in stream.enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        traced_one(t, app, id, &req)?;
    }
    Ok(())
}

/// Runs one HTTP workload; `trace` selects the traced run.
///
/// # Errors
///
/// Errors when the server cannot be set up or a replay goes wrong.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let dir = TempDir::new()?;
    let mut fit_us = Vec::new();
    let (setup_s, bench) = setup::repeated(crate::SETUPS, || {
        let bench = set_up(&dir, workload)?;
        fit_us.push(bench.fitted.fit_us);
        Ok(bench)
    })?;
    let hot = hot_answers(&bench.fitted.model)?;
    let mut out = Outcome { setup_s, ..Outcome::default() };

    // The untraced run over HTTP gets all the time, or a third of it when
    // the traced run also needs its two in-process replays.
    let http_seconds = if trace { seconds / 3.0 } else { seconds };
    let setup_peak = setup::reset_peak_rss()?;
    out.note(format!("set-up peak_rss_mib={setup_peak:.2} (not gated)"));
    let run = run_http(&bench, &dir, workload, seed, http_seconds, &hot)?;
    check_purpose(workload, &run, &mut out);
    out.attempted = run.log.attempted;
    out.failed = run.log.failed;
    out.fail_notes = run.log.notes.clone();
    out.window_s = run.wall_s;
    out.timeline = run.log.timeline.clone();
    out.probes = run.log.probes.clone();
    out.peak_rss_mib = run.peak_rss_mib;
    if !trace {
        return Ok(out);
    }

    // The same stream in process, untraced (for transport time) and traced.
    let hot_per_heavy = run.hot_count / run.heavy_count.max(1);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 2.0 / 3.0);
    let plain = fresh_app(&bench.fitted.path)?;
    let app = fresh_app(&bench.fitted.path)?;
    let mut tracer = Tracer::default();
    let route_us = replay_both(
        &plain,
        &app,
        &mut tracer,
        replay_stream(workload, seed, hot_per_heavy),
        deadline,
    )?;

    let stats = app.cache.stats();
    let mut layers = Layers::new(&tracer);
    layers.ratio(
        "serve.cache_hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    let round_trips: Vec<f64> = run.log.timeline.iter().map(|t| t.2).collect();
    let rt = Summary::of(&round_trips).ok_or("no round trips")?;
    let route = Summary::of(&route_us).ok_or("no in-process requests")?;
    if tracer.traced_us.is_empty() {
        return Err("the traced replay served no request".to_string());
    }
    layers.time("serve.transport_us", rt.p50 - route.p50, rt.n);
    // Means add up where medians of a mixed stream do not: coverage is the
    // mean layer self time plus the mean transport time over the mean
    // round trip.
    let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len().max(1) as f64;
    let (untraced, traced, covered) =
        (mean(&route_us), mean(&tracer.traced_us), mean(&tracer.covered_us));
    layers.ratio("trace.coverage", (covered + rt.mean - untraced) / rt.mean);
    layers.ratio("trace.overhead_frac", traced / untraced - 1.0);
    layers.common(&fit_us);
    out.note(format!(
        "in-process over {} requests: untraced mean={untraced:.1}us, traced mean={traced:.1}us, covered mean={covered:.1}us; round trip mean={:.1}us",
        route_us.len(),
        rt.mean
    ));
    let path = tracer.write_out(workload.name(), seed)?;
    out.note(format!("spans written to {}", path.display()));
    out.layers = Some(layers);
    Ok(out)
}
