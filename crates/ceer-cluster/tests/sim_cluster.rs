//! The simulated chaos suite: a full cluster — router, shards, scripted
//! client — driven entirely on virtual time through `ceer_sim`.
//!
//! The headline property is **byte-identical replay**: running the same
//! scenario twice with the same seed yields the same whole-run event
//! digest, the same client answers, and the same aggregated `/metrics`
//! document. CI runs this suite under two fixed seeds and one randomized
//! seed (printed for replay), so every assertion here must hold for *any*
//! seed: deterministic-per-seed comparisons are fine, but nothing may
//! depend on one particular interleaving.
//!
//! Scenario shape (the `chaos_*` tests): 5 shards, 2 replicas, a
//! partition that makes one shard miss a `/reload` broadcast, a crash
//! and fresh restart racing the same reload, one shard whose first
//! install is failed by fault injection, and a client mixing predicts,
//! a batch, a bad request, and a `/metrics` scrape. Every divergence
//! must be healed by the end: all shards at v2, every request answered
//! exactly once.

use std::sync::Arc;

use ceer_cluster::{
    ClusterMetrics, RouterConfig, RouterNode, ScriptEntry, ShardConfig, ShardNode, SimClient,
};
use ceer_core::{Ceer, CeerModel, FitConfig};
use ceer_faults::{FaultPlan, Faults};
use ceer_graph::models::CnnId;
use ceer_serve::api::{self, PredictBatchResponse, PredictRequest, PredictResponse};
use ceer_sim::{NetProfile, NodeId, Sim};

fn tiny_model(seed: u64) -> CeerModel {
    Ceer::fit(&FitConfig {
        cnns: vec![CnnId::Vgg11],
        iterations: 2,
        parallel_degrees: vec![1],
        seed,
        ..FitConfig::default()
    })
}

/// The chaos seed: `CEER_SIM_SEED` when set (CI's randomized third run),
/// a fixed default otherwise.
fn chaos_seed() -> u64 {
    std::env::var("CEER_SIM_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(7)
}

/// What a shard would answer directly — the byte-identity oracle.
fn direct(model: &CeerModel, body: &str) -> String {
    let request: PredictRequest = serde_json::from_str(body).unwrap();
    serde_json::to_string_pretty(&api::predict(model, &request).unwrap()).unwrap()
}

struct Built {
    sim: Sim,
    router: NodeId,
    shards: Vec<NodeId>,
    client: NodeId,
    model: Arc<CeerModel>,
    faults: Faults,
}

/// Assembles router + `shard_count` shards + scripted client. Node ids
/// are dense and deterministic: 1 = router, 2.. = shards, last = client.
#[allow(clippy::too_many_arguments)] // a scenario IS its knobs; a builder would just rename them
fn build_cluster(
    seed: u64,
    faults: Faults,
    script: Vec<ScriptEntry>,
    model: &CeerModel,
    next_model: &CeerModel,
    shard_count: u32,
    replicas: usize,
    tweak_router: impl Fn(&mut RouterConfig),
    tweak_shard: impl Fn(&mut ShardConfig),
) -> Built {
    let mut sim = Sim::with(seed, NetProfile::default(), faults.clone());
    let router_id = NodeId(1);
    let shard_ids: Vec<NodeId> = (0..shard_count).map(|i| NodeId(2 + i)).collect();
    let shard_list: Vec<(NodeId, String)> =
        shard_ids.iter().enumerate().map(|(i, &id)| (id, format!("shard-{i}"))).collect();
    let mut router_config = RouterConfig::new(shard_list, replicas);
    tweak_router(&mut router_config);
    let next_json = serde_json::to_string(next_model).unwrap();
    let reload_source = Box::new(move || Ok(next_json.clone()));
    let router = sim.add_node("router", Box::new(RouterNode::new(router_config, reload_source)));
    assert_eq!(router, router_id);
    let model = Arc::new(model.clone());
    for (i, &id) in shard_ids.iter().enumerate() {
        let mut config = ShardConfig::new(format!("shard-{i}"), router_id);
        config.peers = shard_ids.iter().copied().filter(|&p| p != id).collect();
        tweak_shard(&mut config);
        let node = ShardNode::new(config, Arc::clone(&model), faults.clone());
        let got = sim.add_node(&format!("shard-{i}"), Box::new(node));
        assert_eq!(got, id);
    }
    let client = sim.add_node("client", Box::new(SimClient::new(router_id, script)));
    Built { sim, router: router_id, shards: shard_ids, client, model, faults }
}

struct ChaosRun {
    digest: String,
    summary: String,
    answers: Vec<ceer_cluster::Answer>,
    metrics_body: String,
    shard_versions: Vec<u64>,
    router_version: u64,
}

const BODY_B16: &str = "{\"cnn\": \"vgg11\", \"batch\": 16}";
const BODY_B32: &str = "{\"cnn\": \"vgg11\", \"batch\": 32}";
const BODY_B64: &str = "{\"cnn\": \"vgg11\", \"batch\": 64}";

/// One full chaos scenario. Pure in `seed`: same seed ⇒ same output.
fn chaos_run(seed: u64) -> ChaosRun {
    let model_a = tiny_model(1);
    let model_b = tiny_model(2);
    // Extra latency on a fifth of all messages, and shard-3's first
    // reload install fails (its heal retry, call #2, succeeds).
    let plan =
        FaultPlan::parse(seed, "sim.net.delay=delay:30@0.2;cluster.shard.reload.shard-3=err@#1")
            .unwrap();
    let script = vec![
        ScriptEntry::get(10, "/healthz"),
        ScriptEntry::post(50, "/predict", BODY_B16),
        ScriptEntry::post(60, "/predict", BODY_B32),
        ScriptEntry::post(80, "/predict", BODY_B32),
        ScriptEntry::post(90, "/predict", "{\"cnn\": \"bogus\"}"),
        ScriptEntry::post(300, "/reload", ""),
        ScriptEntry::post(600, "/predict", BODY_B64),
        ScriptEntry::post(
            650,
            "/predict_batch",
            "{\"requests\": [{\"cnn\": \"vgg11\", \"batch\": 16}, \
             {\"cnn\": \"vgg11\", \"batch\": 32}, {\"cnn\": \"bogus\"}]}",
        ),
        ScriptEntry::get(900, "/metrics"),
    ];
    let mut built = build_cluster(
        seed,
        ceer_faults::injector(plan),
        script,
        &model_a,
        &model_b,
        5,
        2,
        |rc| {
            // Headroom over the injected 30ms delays so a slow answer is
            // never mistaken for a dead replica under any seed.
            rc.request_timeout_ms = 200;
            rc.metrics_wait_ms = 150;
        },
        |_| {},
    );

    let partitioned = built.shards[4];
    let crashed = built.shards[1];

    // Partition shard-4 from the router before the reload broadcast: it
    // must miss the push and be healed later. Gossip through its peers
    // keeps it "alive" in the router's view the whole time.
    built.sim.run_until(250);
    built.sim.partition(built.router, partitioned);

    // Crash shard-1 while the reload may be in flight to it.
    built.sim.run_until(305);
    built.sim.crash(crashed);

    built.sim.run_until(450);
    built.sim.heal(built.router, partitioned);

    // Fresh restart: new incarnation, old model, version back at v1 —
    // the router must spot the stale heartbeat and re-push v2.
    built.sim.run_until(500);
    let mut config = ShardConfig::new("shard-1", built.router);
    config.peers = built.shards.iter().copied().filter(|&p| p != crashed).collect();
    let node = ShardNode::new(config, Arc::clone(&built.model), built.faults.clone());
    built.sim.restart(crashed, Box::new(node));

    built.sim.run_until(2_000);

    let client = built.sim.node::<SimClient>(built.client).unwrap();
    let answers = client.answers_by_id();
    let summary = client.summary();
    let metrics_body =
        answers.iter().find(|a| a.id == 8).map(|a| a.body.clone()).unwrap_or_default();
    let shard_versions = built
        .shards
        .iter()
        .map(|&id| built.sim.node::<ShardNode>(id).map_or(0, |s| s.version().0))
        .collect();
    let router_version = built.sim.node::<RouterNode>(built.router).map_or(0, |r| r.version().0);
    ChaosRun {
        digest: built.sim.digest(),
        summary,
        answers,
        metrics_body,
        shard_versions,
        router_version,
    }
}

/// The acceptance headline: the full chaos scenario — partitions, a
/// crash racing a reload, an injected install failure — replays byte-
/// identically under the same seed.
#[test]
fn chaos_replays_byte_identically() {
    let seed = chaos_seed();
    let a = chaos_run(seed);
    let b = chaos_run(seed);
    assert_eq!(a.digest, b.digest, "event digest must replay byte-identically (seed {seed})");
    assert_eq!(a.summary, b.summary, "client answers must replay (seed {seed})");
    assert_eq!(a.metrics_body, b.metrics_body, "aggregated /metrics must replay (seed {seed})");
}

/// Seed-agnostic serving invariants of the same scenario: exactly one
/// answer per request, byte-identity with direct evaluation, and every
/// divergence healed by the end of the run.
#[test]
fn chaos_satisfies_serving_invariants() {
    let seed = chaos_seed();
    let run = chaos_run(seed);
    let model_a = tiny_model(1);
    let model_b = tiny_model(2);

    assert_eq!(run.answers.len(), 9, "every request answered exactly once (seed {seed})");
    for (index, answer) in run.answers.iter().enumerate() {
        assert_eq!(answer.id, index as u64, "answers map 1:1 onto requests (seed {seed})");
    }
    let answer = |id: u64| run.answers.iter().find(|a| a.id == id).unwrap();

    assert_eq!(answer(0).status, 200);
    assert_eq!(answer(0).body, "{\"status\": \"ok\"}");

    // Predicts before the reload may be answered at v1 or (with extreme
    // delays) v2; either way the bytes must match a direct evaluation.
    for (id, body) in [(1, BODY_B16), (2, BODY_B32), (3, BODY_B32)] {
        let got = answer(id);
        assert_eq!(got.status, 200, "predict #{id} (seed {seed})");
        let expected_a = direct(&model_a, body);
        let expected_b = direct(&model_b, body);
        assert!(
            got.body == expected_a || got.body == expected_b,
            "predict #{id} must be byte-identical to direct evaluation (seed {seed})"
        );
    }
    assert_eq!(answer(4).status, 400, "unknown CNN rejects (seed {seed})");

    // The reload responds and reports v2, complete or partial.
    let reload = answer(5);
    assert!(
        reload.status == 200 || reload.status == 500,
        "reload answers ({}, seed {seed})",
        reload.status
    );
    assert!(reload.body.contains("\"version\": 2"), "{} (seed {seed})", reload.body);

    // After the reload the router only accepts v2 answers.
    assert_eq!(answer(6).status, 200);
    assert_eq!(answer(6).body, direct(&model_b, BODY_B64), "post-reload predict is v2 bytes");

    let batch = answer(7);
    assert_eq!(batch.status, 200);
    let parsed: PredictBatchResponse = serde_json::from_str(&batch.body).unwrap();
    assert_eq!(parsed.responses.len(), 3);
    for (slot, body) in [(0, BODY_B16), (1, BODY_B32)] {
        let item = &parsed.responses[slot];
        assert!(item.error.is_none(), "batch slot {slot} (seed {seed}): {:?}", item.error);
        let request: PredictRequest = serde_json::from_str(body).unwrap();
        let expected: PredictResponse = api::predict(&model_b, &request).unwrap();
        assert_eq!(item.response.as_ref(), Some(&expected), "batch slot {slot} (seed {seed})");
    }
    assert!(parsed.responses[2].error.is_some(), "bogus batch item errors (seed {seed})");

    let metrics = answer(8);
    assert_eq!(metrics.status, 200);
    let parsed: ClusterMetrics = serde_json::from_str(&metrics.body).unwrap();
    assert_eq!(parsed.version.0, 2, "metrics report the reloaded version (seed {seed})");
    assert_eq!(parsed.health.len(), 5);
    assert!(parsed.health.values().all(|&alive| alive), "all healed by scrape time (seed {seed})");
    assert_eq!(parsed.shards.len(), 5, "all shards reported in time (seed {seed})");

    // Every divergence healed: the partitioned shard, the fresh restart,
    // and the injected install failure all end at v2.
    assert_eq!(run.router_version, 2, "seed {seed}");
    assert_eq!(run.shard_versions, vec![2, 2, 2, 2, 2], "all shards converge to v2 (seed {seed})");
}

/// Message loss on top of everything else: no delivery guarantees
/// asserted, but the run — including which messages die — must still
/// replay byte-identically.
#[test]
fn chaos_with_drops_stays_deterministic() {
    let run = |seed: u64| {
        let model_a = tiny_model(1);
        let model_b = tiny_model(2);
        let plan =
            FaultPlan::parse(seed, "sim.net.drop=err@0.1;sim.net.delay=delay:20@0.2").unwrap();
        let script = vec![
            ScriptEntry::post(40, "/predict", BODY_B16),
            ScriptEntry::post(70, "/predict", BODY_B32),
            ScriptEntry::post(200, "/reload", ""),
            ScriptEntry::post(500, "/predict", BODY_B64),
            ScriptEntry::get(800, "/metrics"),
        ];
        let mut built = build_cluster(
            seed,
            ceer_faults::injector(plan),
            script,
            &model_a,
            &model_b,
            3,
            2,
            |_| {},
            |_| {},
        );
        built.sim.run_until(1_500);
        let summary = built.sim.node::<SimClient>(built.client).map(SimClient::summary);
        (built.sim.digest(), summary)
    };
    let (da, sa) = run(21);
    let (db, sb) = run(21);
    assert_eq!(da, db);
    assert_eq!(sa, sb);
    assert!(da.contains("(fault)"), "p=0.1 over a whole run should drop something");
    let (dc, _) = run(22);
    assert_ne!(da, dc, "different seeds take different trajectories");
}

/// Backpressure: an overloaded shard sheds with a pacing hint, the
/// router honors it (capped) on the virtual clock, and shed requests
/// still complete — the cluster twin of the HTTP client's `Retry-After`
/// handling.
#[test]
fn shedding_paces_retries_on_the_virtual_clock() {
    let model = tiny_model(1);
    let script = vec![
        ScriptEntry::post(20, "/predict", BODY_B16),
        ScriptEntry::post(21, "/predict", BODY_B32),
        ScriptEntry::post(22, "/predict", BODY_B64),
        ScriptEntry::post(23, "/predict", "{\"cnn\": \"vgg11\", \"batch\": 128}"),
    ];
    let mut built = build_cluster(
        7,
        None,
        script,
        &model,
        &model,
        1,
        1,
        |rc| rc.request_timeout_ms = 300,
        |sc| {
            // One slow shard: 40ms per prediction, sheds beyond 10ms of
            // backlog, so the burst of four must trigger shedding.
            sc.service_ms = 40;
            sc.max_backlog_ms = 10;
        },
    );
    built.sim.run_until(3_000);

    let shard = built.sim.node::<ShardNode>(built.shards[0]).unwrap();
    assert!(shard.stats().shed > 0, "the burst must overflow the backlog");
    let router = built.sim.node::<RouterNode>(built.router).unwrap();
    assert!(router.stats().retries_after_hint > 0, "the router must honor the pacing hint");

    let client = built.sim.node::<SimClient>(built.client).unwrap();
    let answers = client.answers_by_id();
    assert_eq!(answers.len(), 4, "every request answered exactly once");
    for answer in &answers {
        match answer.status {
            200 => assert_eq!(answer.body, direct(&model, &built_body(answer.id))),
            503 => assert_eq!(
                answer.retry_after,
                Some(1),
                "5xx shed answers carry Retry-After for the HTTP client"
            ),
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(answers.iter().any(|a| a.status == 200), "pacing lets some of the burst through");
}

fn built_body(id: u64) -> String {
    match id {
        0 => BODY_B16.to_string(),
        1 => BODY_B32.to_string(),
        2 => BODY_B64.to_string(),
        _ => "{\"cnn\": \"vgg11\", \"batch\": 128}".to_string(),
    }
}

/// The shard prediction cache serves byte-identical answers, and a
/// repeated request under a calm network is a hit on the same replica
/// (rendezvous routing pins the key to one primary).
#[test]
fn repeated_requests_hit_the_shard_cache() {
    let model = tiny_model(1);
    let script = vec![
        ScriptEntry::post(30, "/predict", BODY_B32),
        ScriptEntry::post(300, "/predict", BODY_B32),
    ];
    let mut built = build_cluster(7, None, script, &model, &model, 2, 2, |_| {}, |_| {});
    built.sim.run_until(1_000);

    let client = built.sim.node::<SimClient>(built.client).unwrap();
    let answers = client.answers_by_id();
    assert_eq!(answers.len(), 2);
    assert_eq!(answers[0].status, 200);
    assert_eq!(answers[0].body, answers[1].body, "cache hit must be byte-identical");
    assert_eq!(answers[0].body, direct(&model, BODY_B32));

    let hits: u64 = built
        .shards
        .iter()
        .filter_map(|&id| built.sim.node::<ShardNode>(id))
        .map(|s| s.stats().cache_hits)
        .sum();
    assert_eq!(hits, 1, "the second identical request is answered from cache");
}

/// The observation tap: every computed prediction lands in the shared
/// ring (one sample per GPU model), ring-full drops are counted on the
/// shard, and the whole accounting replays deterministically — including
/// under a ring sized to overflow.
#[test]
fn shard_observation_tap_reconciles_and_replays() {
    use ceer_online::{ObservationRing, RingStats, Sample};

    fn run(seed: u64, capacity: usize) -> (Vec<(u64, u64)>, RingStats, Vec<Sample>) {
        let model = tiny_model(1);
        let ring = Arc::new(ObservationRing::new(capacity));
        let mut sim = Sim::with(seed, NetProfile::default(), ceer_faults::none());
        let router_id = NodeId(1);
        let shard_ids: Vec<NodeId> = (0..2).map(|i| NodeId(2 + i)).collect();
        let shard_list: Vec<(NodeId, String)> =
            shard_ids.iter().enumerate().map(|(i, &id)| (id, format!("shard-{i}"))).collect();
        let reload_json = serde_json::to_string(&model).unwrap();
        let reload_source = Box::new(move || Ok(reload_json.clone()));
        let router = sim.add_node(
            "router",
            Box::new(RouterNode::new(RouterConfig::new(shard_list, 1), reload_source)),
        );
        assert_eq!(router, router_id);
        let shared = Arc::new(model);
        for (i, &id) in shard_ids.iter().enumerate() {
            let config = ShardConfig::new(format!("shard-{i}"), router_id);
            let node = ShardNode::new(config, Arc::clone(&shared), ceer_faults::none())
                .with_observation_ring(Arc::clone(&ring));
            assert_eq!(sim.add_node(&format!("shard-{i}"), Box::new(node)), id);
        }
        let script = vec![
            ScriptEntry::post(30, "/predict", BODY_B16),
            ScriptEntry::post(60, "/predict", BODY_B32),
            ScriptEntry::post(90, "/predict", BODY_B64),
            // A repeat: served from the shard cache, so it must NOT tap.
            ScriptEntry::post(300, "/predict", BODY_B32),
        ];
        sim.add_node("client", Box::new(SimClient::new(router_id, script)));
        sim.run_until(2_000);

        let per_shard: Vec<(u64, u64)> = shard_ids
            .iter()
            .map(|&id| {
                let stats = sim.node::<ShardNode>(id).unwrap().stats();
                (stats.observations, stats.observations_shed)
            })
            .collect();
        let stats = ring.stats();
        let drained = ring.drain(usize::MAX);
        (per_shard, stats, drained)
    }

    let (per_shard, stats, drained) = run(7, 4096);
    let pushed: u64 = per_shard.iter().map(|&(obs, _)| obs).sum();
    let shed: u64 = per_shard.iter().map(|&(_, s)| s).sum();
    assert!(pushed > 0, "computed predictions must tap the ring");
    assert_eq!(shed, 0, "a roomy ring sheds nothing");
    assert_eq!(stats.pushed, pushed + shed, "shard counters reconcile with the ring");
    assert_eq!(stats.depth, pushed, "untapped ring holds every accepted sample");
    // Three uncached predicts; the cached repeat adds nothing.
    let expected_kinds =
        drained.iter().filter(|s| matches!(s, Sample::Predict(p) if p.version == 1)).count();
    assert_eq!(expected_kinds as u64, pushed, "every sample is a v1 prediction");
    assert_eq!(pushed % 3, 0, "three computed predicts tap equally many samples each");

    // Byte-identical replay, roomy and overflowing.
    for capacity in [4096usize, 3] {
        let a = run(7, capacity);
        let b = run(7, capacity);
        assert_eq!(a, b, "tap accounting must replay (capacity {capacity})");
        let (per_shard, stats, _) = a;
        let shed: u64 = per_shard.iter().map(|&(_, s)| s).sum();
        assert_eq!(
            stats.pushed,
            per_shard.iter().map(|&(obs, _)| obs).sum::<u64>() + shed,
            "reconciliation holds under overflow too (capacity {capacity})"
        );
        if capacity == 3 {
            assert!(shed > 0, "a 3-deep ring must overflow under 3 multi-GPU predicts");
            assert_eq!(stats.shed, shed, "ring and shard agree on every drop");
        }
    }
}

/// A shard with durability attached survives power loss: the durably
/// installed version and model come back on restart, and the recovered
/// shard's predictions are byte-identical to the model it had installed.
#[test]
fn shard_durability_survives_restart() {
    use ceer_cluster::{proto, Msg};
    use ceer_serve::ModelVersion;
    use ceer_sim::{Event, Net, Node, SimStorage};

    /// A transport stub: records sends and armed timers so the test can
    /// drive the shard's work queue by hand.
    struct StubNet {
        id: NodeId,
        sent: Vec<(NodeId, Vec<u8>)>,
        timers: Vec<u64>,
    }
    impl Net for StubNet {
        fn id(&self) -> NodeId {
            self.id
        }
        fn now_ms(&self) -> u64 {
            0
        }
        fn send(&mut self, to: NodeId, bytes: Vec<u8>) {
            self.sent.push((to, bytes));
        }
        fn set_timer(&mut self, _delay_ms: u64, tag: u64) {
            self.timers.push(tag);
        }
        fn log(&mut self, _line: &str) {}
    }

    let seed = chaos_seed();
    let model_a = tiny_model(31);
    let model_b = tiny_model(32);
    let storage = SimStorage::new();
    let router = NodeId(1);

    let mut shard =
        ShardNode::new(ShardConfig::new("shard-0", router), Arc::new(model_a.clone()), None)
            .with_durability(Arc::new(storage.clone()))
            .unwrap();
    assert_eq!(shard.version(), ModelVersion::INITIAL);
    let mut net = StubNet { id: NodeId(2), sent: Vec::new(), timers: Vec::new() };
    let reload = proto::encode(&Msg::Reload {
        version: ModelVersion(2),
        model: serde_json::to_string(&model_b).unwrap(),
    });
    shard.on_event(&mut net, Event::Message { from: router, bytes: reload });
    assert_eq!(shard.version(), ModelVersion(2), "reload installs v2");
    drop(shard);

    // Power loss: only what the durable log synced survives.
    storage.crash(seed);
    let mut shard =
        ShardNode::new(ShardConfig::new("shard-0", router), Arc::new(model_a.clone()), None)
            .with_durability(Arc::new(storage.clone()))
            .unwrap();
    assert_eq!(shard.version(), ModelVersion(2), "durable install survives restart (seed {seed})");

    // The recovered shard serves model B's bytes, proving the model came
    // back with the version.
    let mut net = StubNet { id: NodeId(2), sent: Vec::new(), timers: Vec::new() };
    let predict = proto::encode(&Msg::Predict {
        id: 1,
        version: ModelVersion(2),
        body: BODY_B16.to_string(),
    });
    shard.on_event(&mut net, Event::Message { from: router, bytes: predict });
    let work = net.timers.pop().expect("predict queues one work timer");
    shard.on_event(&mut net, Event::Timer { tag: work });
    let (_, bytes) = net.sent.pop().expect("work completion answers the router");
    match proto::decode(&bytes).unwrap() {
        Msg::PredictOk { version, body, .. } => {
            assert_eq!(version, ModelVersion(2));
            assert_eq!(
                body,
                direct(&model_b, BODY_B16),
                "recovered model answers byte-identically"
            );
        }
        other => panic!("expected PredictOk, got {other:?}"),
    }

    // A second restart from the same image is stable.
    let shard = ShardNode::new(ShardConfig::new("shard-0", router), Arc::new(model_a), None)
        .with_durability(Arc::new(storage))
        .unwrap();
    assert_eq!(shard.version(), ModelVersion(2));
}

/// A request past a GPU model's largest offering is a bad request, not a
/// shard crash: the shard answers `PredictBad` (a 400 naming the limit),
/// counts it, and stays up to serve the next request.
#[test]
fn out_of_range_request_is_a_400_and_the_shard_stays_up() {
    let model = tiny_model(1);
    let bad = "{\"cnn\": \"vgg11\", \"gpus\": 5}";
    let script =
        vec![ScriptEntry::post(30, "/predict", bad), ScriptEntry::post(300, "/predict", BODY_B32)];
    let mut built = build_cluster(chaos_seed(), None, script, &model, &model, 2, 2, |_| {}, |_| {});
    built.sim.run_until(1_000);

    let client = built.sim.node::<SimClient>(built.client).unwrap();
    let answers = client.answers_by_id();
    assert_eq!(answers.len(), 2, "both requests answered");
    assert_eq!(answers[0].status, 400);
    assert!(answers[0].body.contains("largest P3 offering (4 GPUs)"), "{}", answers[0].body);
    assert_eq!(answers[1].status, 200);
    assert_eq!(answers[1].body, direct(&model, BODY_B32));
    let bad_requests: u64 = built
        .shards
        .iter()
        .filter_map(|&id| built.sim.node::<ShardNode>(id))
        .map(|s| s.stats().bad_requests)
        .sum();
    assert_eq!(bad_requests, 1, "exactly one shard rejected the request, once");
}
