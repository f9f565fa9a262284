//! `cluster_sim`: the deterministic simulated cluster on one thread — a
//! router, three shards with R = 2 and a scripted `SimClient` — timed in
//! wall-clock per request.
//!
//! Requests are spaced [`GAP_MS`] of virtual time apart, long enough for
//! each to be answered inside its own window, and the wall time of running
//! one window is that request's cost: router hop, ring, proto frames, shard
//! queue and compute, and the `ceer-sim` loop. The gap equals the shards'
//! heartbeat period, so every window carries exactly one heartbeat round
//! and windows differ only by the request they serve. The run is cut into
//! epochs of a fresh simulation each, so the simulator's in-memory trace
//! stays bounded.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ceer_cluster::{
    ClusterMetrics, RouterConfig, RouterNode, ScriptEntry, ShardConfig, ShardNode, SimClient,
};
use ceer_core::CeerModel;
use ceer_sim::{Event, Net, NetProfile, Node, NodeId, Sim};

use crate::gen::{hot_bodies, ClusterStream, Kind, Req, HOT_KEYS};
use crate::report::{Layers, Outcome};
use crate::serve::{check_deferred, expected, fnv};
use crate::setup::{self, TempDir};
use crate::speed::Probes;
use crate::stats::Summary;
use crate::trace::Tracer;

/// Virtual ms between two requests: the shards' default heartbeat period.
const GAP_MS: u64 = 100;
/// Timed requests per epoch.
const EPOCH: usize = 4000;
/// Shards and replication degree.
const SHARDS: u32 = 3;
const REPLICAS: usize = 2;
/// Requests in the same-seed digest check.
const DIGEST_REQUESTS: usize = 450;

/// Names the spans a wrapped node records.
#[derive(Clone, Copy)]
enum Role {
    Router,
    Shard,
    Client,
}

impl Role {
    fn span(self) -> &'static str {
        match self {
            Role::Router => "cluster.router",
            Role::Shard => "cluster.shard",
            Role::Client => "cluster.client",
        }
    }
}

/// A node wrapped so every `on_event` is a span in the shared tracer.
struct Timed {
    inner: Box<dyn Node>,
    role: Role,
    tracer: Arc<Mutex<Tracer>>,
}

impl Node for Timed {
    fn on_event(&mut self, net: &mut dyn Net, event: Event) {
        self.tracer.lock().unwrap_or_else(PoisonError::into_inner).begin(self.role.span(), true);
        self.inner.on_event(net, event);
        self.tracer.lock().unwrap_or_else(PoisonError::into_inner).end();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
}

/// One simulated cluster with its script: the hot set first (untimed
/// warm-up), then `reqs`, one per window.
struct Epoch {
    sim: Sim,
    router: NodeId,
    client: NodeId,
    reqs: Vec<Req>,
    t0: u64,
}

fn entry(at_ms: u64, req: &Req) -> ScriptEntry {
    match req.method() {
        "GET" => ScriptEntry::get(at_ms, req.path()),
        _ => ScriptEntry::post(at_ms, req.path(), req.body.clone()),
    }
}

fn build(
    seed: u64,
    model: &Arc<CeerModel>,
    json: &Arc<String>,
    reqs: Vec<Req>,
    tracer: Option<&Arc<Mutex<Tracer>>>,
) -> Epoch {
    let wrap = |node: Box<dyn Node>, role| -> Box<dyn Node> {
        match tracer {
            Some(tracer) => Box::new(Timed { inner: node, role, tracer: Arc::clone(tracer) }),
            None => node,
        }
    };
    let mut sim = Sim::with(seed, NetProfile::default(), None);
    let router = NodeId(1);
    let shard_ids: Vec<NodeId> = (0..SHARDS).map(|i| NodeId(2 + i)).collect();
    let labels: Vec<(NodeId, String)> =
        shard_ids.iter().enumerate().map(|(i, &id)| (id, format!("shard-{i}"))).collect();
    let source = Arc::clone(json);
    let reload = Box::new(move || Ok(source.as_str().to_string()));
    let got = sim.add_node(
        "router",
        wrap(Box::new(RouterNode::new(RouterConfig::new(labels, REPLICAS), reload)), Role::Router),
    );
    assert_eq!(got, router, "router is node 1");
    for (i, &id) in shard_ids.iter().enumerate() {
        let mut config = ShardConfig::new(format!("shard-{i}"), router);
        config.peers = shard_ids.iter().copied().filter(|&p| p != id).collect();
        let shard = ShardNode::new(config, Arc::clone(model), None);
        sim.add_node(&format!("shard-{i}"), wrap(Box::new(shard), Role::Shard));
    }
    let t0 = (HOT_KEYS as u64 + 1) * GAP_MS;
    let warm = hot_bodies().into_iter().enumerate().map(|(k, body)| {
        entry(1 + k as u64 * GAP_MS, &Req { kind: Kind::Predict, body, hot: Some(k) })
    });
    let timed = reqs.iter().enumerate().map(|(i, req)| entry(t0 + 1 + i as u64 * GAP_MS, req));
    let script = warm.chain(timed).collect();
    let client =
        sim.add_node("client", wrap(Box::new(SimClient::new(router, script)), Role::Client));
    sim.run_until(t0);
    Epoch { sim, router, client, reqs, t0 }
}

/// Everything the window loop measured.
#[derive(Default)]
struct SimRun {
    /// `(endpoint, window time s at completion, window wall µs)`.
    timeline: Vec<(Kind, f64, f64)>,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    deferred: Vec<(usize, u64)>,
    probes: Probes,
    messages: u64,
    hits: u64,
    lookups: u64,
    reloads: u64,
}

impl SimRun {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }
}

struct Shared {
    path: std::path::PathBuf,
    model: Arc<CeerModel>,
    json: Arc<String>,
    hot: Vec<String>,
}

/// Runs epochs until `seconds` of window time have passed, checking every
/// answer of each epoch as it ends.
fn run_windows(
    shared: &Shared,
    seed: u64,
    seconds: f64,
    tracer: Option<&Arc<Mutex<Tracer>>>,
) -> SimRun {
    let mut run = SimRun::default();
    let budget = Duration::from_secs_f64(seconds);
    let mut spent = Duration::ZERO;
    let mut stream = ClusterStream::new(seed).enumerate();
    let mut epoch_index = 0u64;
    while spent < budget {
        let reqs: Vec<(usize, Req)> = stream.by_ref().take(EPOCH).collect();
        let first = reqs[0].0;
        let mut epoch = build(
            seed.wrapping_mul(1_000).wrapping_add(epoch_index),
            &shared.model,
            &shared.json,
            reqs.iter().map(|(_, r)| r.clone()).collect(),
            tracer,
        );
        let routed = epoch.sim.messages_routed();
        let mut done = 0;
        for (i, req) in epoch.reqs.iter().enumerate() {
            if spent >= budget {
                break;
            }
            run.probes.tick(spent.as_secs_f64());
            let until = epoch.t0 + (i as u64 + 1) * GAP_MS;
            if let Some(tracer) = tracer {
                tracer
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .start_request((first + i) as u64);
            }
            let started = Instant::now();
            epoch.sim.run_until(until);
            let took = started.elapsed();
            if let Some(tracer) = tracer {
                tracer.lock().unwrap_or_else(PoisonError::into_inner).finish_request();
            }
            spent += took;
            run.timeline.push((req.kind, spent.as_secs_f64(), took.as_secs_f64() * 1e6));
            done = i + 1;
        }
        run.messages += epoch.sim.messages_routed() - routed;
        // Let the last answers land, then scrape the router's /metrics.
        let end = epoch.t0 + (done as u64 + 2) * GAP_MS;
        epoch.sim.run_until(end);
        let metrics = scrape(&mut epoch, end);
        check_epoch(shared, &epoch, &reqs[..done], metrics, &mut run);
        epoch_index += 1;
    }
    run.wall_s = spent.as_secs_f64();
    run
}

fn scrape(epoch: &mut Epoch, at: u64) -> Option<ClusterMetrics> {
    let msg = ceer_cluster::Msg::ClientRequest {
        id: u64::MAX,
        method: "GET".into(),
        path: "/metrics".into(),
        body: String::new(),
    };
    epoch.sim.send_external(epoch.router, ceer_cluster::proto::encode(&msg));
    epoch.sim.run_until(at + 200);
    epoch.sim.take_external().into_iter().find_map(|(_, bytes)| {
        match ceer_cluster::proto::decode(&bytes) {
            Ok(ceer_cluster::Msg::ClientResponse { status: 200, body, .. }) => {
                serde_json::from_str(&body).ok()
            }
            _ => None,
        }
    })
}

/// Checks every answer of an epoch: warm-up and hot predicts against the
/// oracle at once, misses deferred, reloads by status.
fn check_epoch(
    shared: &Shared,
    epoch: &Epoch,
    reqs: &[(usize, Req)],
    metrics: Option<ClusterMetrics>,
    run: &mut SimRun,
) {
    let client = epoch.sim.node::<SimClient>(epoch.client).expect("client node");
    let answers = client.answers_by_id();
    let mut answered = vec![false; HOT_KEYS + reqs.len()];
    for answer in &answers {
        let id = answer.id as usize;
        let Some(slot) = answered.get_mut(id) else { continue };
        *slot = true;
        let (req, index) = match id.checked_sub(HOT_KEYS) {
            None => (None, None),
            Some(i) => (Some(&reqs[i].1), Some(reqs[i].0)),
        };
        if answer.status != 200 {
            run.fail(format!("cluster request {id} answered {}", answer.status));
            continue;
        }
        let ok = match req {
            None => answer.body == shared.hot[id],
            Some(req) => match (req.kind, req.hot) {
                (Kind::Predict, Some(k)) => answer.body == shared.hot[k],
                (Kind::Predict, None) => {
                    run.deferred.push((index.unwrap_or(0), fnv(answer.body.as_bytes())));
                    true
                }
                (Kind::Reload, _) => {
                    run.reloads += 1;
                    answer.body.contains("\"status\": \"ok\"")
                }
                _ => false,
            },
        };
        if !ok {
            run.fail(format!("cluster request {id}: wrong body"));
        }
    }
    run.attempted += reqs.len() as u64;
    let unanswered = answered.iter().filter(|a| !**a).count();
    for _ in 0..unanswered {
        run.fail("cluster request never answered".to_string());
    }
    match metrics {
        Some(metrics) => {
            for stats in metrics.shards.values() {
                run.hits += stats.cache_hits;
                run.lookups += stats.cache_hits + stats.cache_misses;
            }
        }
        None => run.fail("cluster /metrics did not answer".to_string()),
    }
}

/// Two fresh simulations of the same seed and script must leave the same
/// digest.
fn digest_check(shared: &Shared, seed: u64) -> Result<(), String> {
    let digest = || {
        let reqs: Vec<Req> = ClusterStream::new(seed).take(DIGEST_REQUESTS).collect();
        let mut epoch = build(seed, &shared.model, &shared.json, reqs, None);
        epoch.sim.run_until(epoch.t0 + (DIGEST_REQUESTS as u64 + 2) * GAP_MS);
        epoch.sim.digest()
    };
    if digest() == digest() {
        Ok(())
    } else {
        Err(format!("two cluster_sim runs with seed {seed} left different digests"))
    }
}

fn set_up(dir: &TempDir, seed: u64) -> Result<(f64, Shared), String> {
    let fitted = setup::fit_model(dir.path())?;
    let text =
        std::fs::read_to_string(&fitted.path).map_err(|e| format!("cannot read the model: {e}"))?;
    let model: CeerModel =
        serde_json::from_str(&text).map_err(|e| format!("model file does not parse: {e}"))?;
    let shared =
        Shared { path: fitted.path, model: Arc::new(model), json: Arc::new(text), hot: Vec::new() };
    // Building a cluster and warming it is part of set-up.
    let epoch = build(seed, &shared.model, &shared.json, Vec::new(), None);
    drop(epoch);
    Ok((fitted.fit_us, shared))
}

/// Checks a run's deferred answers against the oracle and that it did what
/// `cluster_sim` is for, mostly shard cache hits with reloads; notes its
/// counters under `label` and returns its shard hit ratio.
fn settle(shared: &Shared, seed: u64, run: &mut SimRun, out: &mut Outcome, label: &str) -> f64 {
    let mismatches = setup::unpinned(|| {
        check_deferred(&shared.model, ClusterStream::new(seed), &run.deferred, "")
    });
    for note in mismatches {
        run.fail(note);
    }
    let hit_ratio = run.hits as f64 / run.lookups.max(1) as f64;
    out.note(format!(
        "cluster {label}: requests={} reloads={} messages/request={:.2} shard_hit_ratio={hit_ratio:.4}",
        run.timeline.len(),
        run.reloads,
        run.messages as f64 / run.timeline.len().max(1) as f64
    ));
    if run.reloads == 0 || hit_ratio < 0.5 {
        out.drift(format!(
            "cluster_sim ({label}) must be mostly shard cache hits with reloads (hit ratio {hit_ratio:.4}, {} reloads)",
            run.reloads
        ));
    }
    hit_ratio
}

/// Runs `cluster_sim`; `trace` selects the traced run.
///
/// # Errors
///
/// Errors when set-up fails or the same-seed digests differ.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let dir = TempDir::new()?;
    let mut fit_us = Vec::new();
    let (setup_s, (_, mut shared)) = setup::repeated(crate::SETUPS, || {
        let built = set_up(&dir, seed)?;
        fit_us.push(built.0);
        Ok(built)
    })?;
    shared.hot = hot_bodies()
        .into_iter()
        .map(|body| expected(&shared.model, &Req { kind: Kind::Predict, body, hot: None }))
        .collect::<Result<_, _>>()?;

    let mut out = Outcome { setup_s, ..Outcome::default() };
    let window_seconds = if trace { seconds / 3.0 } else { seconds };
    let setup_peak = setup::reset_peak_rss()?;
    out.note(format!("set-up peak_rss_mib={setup_peak:.2} (not gated)"));
    let mut run = run_windows(&shared, seed, window_seconds, None);
    out.peak_rss_mib = setup::peak_rss_mib();
    let hit_ratio = settle(&shared, seed, &mut run, &mut out, "untraced");
    digest_check(&shared, seed)?;
    out.note("cluster: digest_check=ok".to_string());
    out.attempted = run.attempted;
    out.failed = run.failed;
    out.fail_notes = std::mem::take(&mut run.notes);
    out.window_s = run.wall_s;
    out.timeline = std::mem::take(&mut run.timeline);
    out.probes = std::mem::take(&mut run.probes);
    if !trace {
        return Ok(out);
    }

    // Traced windows: every node event is a span under its request's window.
    let tracer = Arc::new(Mutex::new(Tracer::default()));
    let mut traced = run_windows(&shared, seed, seconds / 3.0, Some(&tracer));
    settle(&shared, seed, &mut traced, &mut out, "traced");
    let tracer = Arc::try_unwrap(tracer)
        .map_err(|_| "tracer still shared")?
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let walls: Vec<f64> = out.timeline.iter().map(|t| t.2).collect();
    let untraced = Summary::of(&walls).ok_or("no untraced windows")?;
    let traced_n = traced.timeline.len().max(1) as f64;
    let per_request = |name: &str| tracer.per_request.get(name).map_or(&[][..], Vec::as_slice);

    // The shards' serve, graph and core work, replayed on an App built like
    // a shard's server, layer by layer.
    let app = crate::serve::fresh_app(&shared.path)?;
    let mut layer_tracer = Tracer::default();
    let warm = hot_bodies().into_iter().enumerate().map(|(k, body)| Req {
        kind: Kind::Predict,
        body,
        hot: Some(k),
    });
    crate::serve::replay_traced(
        &mut layer_tracer,
        &app,
        warm.chain(ClusterStream::new(seed)),
        Instant::now() + Duration::from_secs_f64(seconds / 3.0),
    )?;

    let mut layers = Layers::new(&layer_tracer);
    let stats = app.cache.stats();
    layers.ratio(
        "serve.cache_hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    for (metric, span) in [
        ("cluster.router_us", "cluster.router"),
        ("cluster.shard_us", "cluster.shard"),
        ("sim.loop_us", "request"),
    ] {
        let samples = per_request(span);
        layers.time(metric, crate::stats::median(samples), samples.len());
    }
    layers.count(
        "cluster.messages_per_request",
        traced.messages as f64 / traced_n,
        traced.timeline.len(),
    );
    layers.ratio("cluster.shard_hit_ratio", hit_ratio);
    let traced_mean = traced.timeline.iter().map(|t| t.2).sum::<f64>() / traced_n;
    // The nodes' self time only: the root span's self time is the sim loop,
    // which is whatever the nodes leave, so counting it would make the
    // coverage 1 + overhead by construction.
    let covered: f64 = ["cluster.router", "cluster.shard", "cluster.client"]
        .iter()
        .map(|name| per_request(name).iter().sum::<f64>())
        .sum::<f64>()
        / traced_n;
    layers.ratio("trace.coverage", covered / untraced.mean);
    layers.ratio("trace.overhead_frac", traced_mean / untraced.mean - 1.0);
    layers.common(&fit_us);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    out.fail_notes.extend(traced.notes);
    let path = tracer.write_out("cluster_sim", seed)?;
    out.note(format!("spans written to {}", path.display()));
    out.layers = Some(layers);
    Ok(out)
}
