//! Compiled prediction plans are **bit-identical** to walking the graph.
//!
//! The reference below is the per-node estimator a plan replaces: visit
//! the training graph in topological order, extract each heavy
//! operation's features, look its regression up, and accumulate. A plan
//! must reproduce every `f64` of that walk exactly — for random CNNs, for
//! the zoo, for every `EstimateOptions` combination, and for a model with
//! holes in its regressions so the light-median fallback runs — and the
//! recommend sweep, which shares the count-independent terms across GPU
//! counts, must match a per-candidate reference exactly too.

mod common;

use std::sync::OnceLock;

use ceer::cloud::{Catalog, Pricing};
use ceer::gpusim::GpuModel;
use ceer::graph::backward::training_graph;
use ceer::graph::models::{Cnn, CnnId};
use ceer::graph::Graph;
use ceer::model::estimate::IterationEstimate;
use ceer::model::recommend::{Candidate, Workload};
use ceer::model::{features, Ceer, CeerModel, EstimateOptions, FitConfig, OpClass, PredictPlan};
use proptest::prelude::*;

fn fitted() -> &'static CeerModel {
    static MODEL: OnceLock<CeerModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        Ceer::fit(&FitConfig {
            cnns: vec![CnnId::Vgg11, CnnId::InceptionV1, CnnId::ResNet50],
            iterations: 3,
            parallel_degrees: vec![1, 2],
            seed: 41,
            ..FitConfig::default()
        })
    })
}

/// The fitted model with every other (kind, GPU) regression removed, so
/// some heavy kinds lack a regression on some GPUs.
fn holed() -> &'static CeerModel {
    static MODEL: OnceLock<CeerModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut value = serde_json::to_value(fitted());
        let serde_json::Value::Object(fields) = &mut value else { panic!("model is an object") };
        for (name, field) in fields.iter_mut() {
            if let (true, serde_json::Value::Array(models)) = (name == "op_models", field) {
                let mut index = 0;
                models.retain(|_| {
                    index += 1;
                    index % 2 == 0
                });
            }
        }
        serde_json::from_value(&value).unwrap()
    })
}

/// The per-node walk a plan replaces.
fn reference(
    model: &CeerModel,
    graph: &Graph,
    gpu: GpuModel,
    gpus: u32,
    options: &EstimateOptions,
) -> IterationEstimate {
    let mut estimate = IterationEstimate::default();
    for node in graph.topological() {
        match model.classification().class_of(node.kind()) {
            OpClass::Heavy => match model.op_model(node.kind(), gpu) {
                Some(regression) => {
                    estimate.heavy_us += regression.predict_us(&features::extract(node, graph));
                    let s = regression.residual_std_us();
                    estimate.variance_us2 += s * s;
                }
                None => estimate.heavy_us += model.light_median_us(),
            },
            OpClass::Light => {
                if options.include_light {
                    estimate.light_us += model.light_median_us();
                }
            }
            OpClass::Cpu => {
                if options.include_cpu {
                    estimate.cpu_us += model.cpu_median_us();
                }
            }
        }
    }
    if options.include_comm {
        estimate.comm_us =
            model.comm_model().predict_us(gpu, gpus, graph.parameter_count()).unwrap_or(0.0);
        let s = model.comm_model().residual_std_us(gpu, gpus);
        estimate.variance_us2 += s * s;
    }
    estimate
}

fn bits(e: &IterationEstimate) -> [u64; 5] {
    [e.heavy_us, e.light_us, e.cpu_us, e.comm_us, e.variance_us2].map(f64::to_bits)
}

fn options(mask: u8) -> EstimateOptions {
    EstimateOptions {
        include_light: mask & 1 != 0,
        include_cpu: mask & 2 != 0,
        include_comm: mask & 4 != 0,
    }
}

/// Asserts plan evaluation equals the reference walk for every option
/// combination.
fn assert_equivalent(model: &CeerModel, graph: &Graph, gpu: GpuModel, gpus: u32) {
    let plan = PredictPlan::compile(graph);
    for mask in 0..8 {
        let options = options(mask);
        let want = reference(model, graph, gpu, gpus, &options);
        let got = model.predict_plan(&plan, gpu, gpus, &options);
        assert_eq!(bits(&got), bits(&want), "{} {gpu} x{gpus} {options:?}", graph.name());
        let walked = model.predict_iteration(graph, gpu, gpus, &options);
        assert_eq!(bits(&walked), bits(&want));
    }
}

#[test]
fn the_holed_model_takes_the_fallback() {
    let graph = Cnn::build(CnnId::ResNet101, 8).training_graph();
    assert!(fitted().coverage(&graph).is_fully_covered());
    assert!(!holed().coverage(&graph).is_fully_covered(), "some heavy kind lost a regression");
}

#[test]
fn zoo_plans_match_the_walk() {
    for &id in CnnId::all() {
        let graph = Cnn::build(id, 16).training_graph();
        for (i, &gpu) in GpuModel::all().iter().enumerate() {
            let gpus = 1 + i as u32 % 4;
            assert_equivalent(fitted(), &graph, gpu, gpus);
            assert_equivalent(holed(), &graph, gpu, gpus);
        }
    }
}

/// The sweep as it was before plans: one full estimate per candidate.
fn reference_candidates(
    model: &CeerModel,
    cnn: &Cnn,
    catalog: &Catalog,
    workload: &Workload,
) -> Vec<(f64, f64, bool)> {
    let graph = cnn.training_graph();
    let memory = ceer::graph::analysis::estimate_memory(&graph);
    catalog
        .enumerate(workload.max_gpus)
        .iter()
        .map(|instance| {
            let (gpu, k) = (instance.gpu(), instance.gpu_count());
            let iteration = reference(model, &graph, gpu, k, &EstimateOptions::default());
            let iterations = workload.total_samples.div_ceil(cnn.batch() * u64::from(k));
            let time_us = workload.epochs as f64 * (iteration.total_us() * iterations as f64);
            let fits = !workload.enforce_memory_fit || memory.fits_gib(gpu.spec().memory_gib);
            (time_us, time_us * instance.usd_per_microsecond(), fits)
        })
        .collect()
}

#[test]
fn the_recommend_sweep_matches_per_candidate_estimates() {
    for (id, batch) in [(CnnId::AlexNet, 32), (CnnId::InceptionV3, 64), (CnnId::ResNet152, 16)] {
        let cnn = Cnn::build(id, batch);
        for pricing in [Pricing::OnDemand, Pricing::MarketRatio] {
            let catalog = Catalog::new(pricing);
            for workload in [
                Workload::new(1_200_000, 4),
                Workload::new(50_000, 3).with_epochs(3).with_memory_fit(),
            ] {
                for model in [fitted(), holed()] {
                    let got: Vec<(f64, f64, bool)> = model
                        .evaluate_candidates(&cnn, &catalog, &workload)
                        .iter()
                        .map(|c: &Candidate| {
                            (c.predicted_time_us(), c.predicted_cost_usd(), c.fits_memory())
                        })
                        .collect();
                    let want = reference_candidates(model, &cnn, &catalog, &workload);
                    assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(
                            (g.0.to_bits(), g.1.to_bits(), g.2),
                            (w.0.to_bits(), w.1.to_bits(), w.2),
                            "{id} b{batch} {pricing:?} {workload:?}"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_cnn_plans_match_the_walk(
        stages in prop::collection::vec(common::stage_strategy(), 1..8),
        batch in 1u64..=32,
        gpu in 0usize..4,
        gpus in 1u32..=4,
        holes in any::<bool>(),
    ) {
        let (forward, loss) = common::build_cnn(batch, &stages);
        let graph = training_graph(forward, loss);
        let model = if holes { holed() } else { fitted() };
        assert_equivalent(model, &graph, GpuModel::all()[gpu], gpus);
        prop_assert_eq!(PredictPlan::compile(&graph).batch(), Some(batch));
    }
}
