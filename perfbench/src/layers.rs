//! The composite calls taken apart. `App::predict_compute`, `api::predict`
//! and `api::recommend` each hide several layers; these functions call the
//! public functions they are built from, in the same order, each inside a
//! span, and assemble the same response. The caller compares the assembled
//! body with the composite call's, byte for byte.

use ceer_cloud::{Catalog, Pricing};
use ceer_core::recommend::{Objective, Workload};
use ceer_core::{CeerModel, OpClass};
use ceer_gpusim::GpuModel;
use ceer_graph::models::Cnn;
use ceer_serve::api::{self, GpuPrediction, PredictRequest, PredictResponse, RecommendRequest};

use crate::trace::Tracer;

/// `api::predict` + the serialization `App::predict_compute` does, layer by
/// layer. Also times `features::extract` over the heavy nodes as an
/// uncounted diagnostic (`predict_iteration` repeats that work).
///
/// # Errors
///
/// The same validation errors `api::predict` gives.
pub fn predict(
    t: &mut Tracer,
    model: &CeerModel,
    request: &PredictRequest,
) -> Result<String, String> {
    let id = api::parse_cnn(&request.cnn)?;
    if request.batch == 0 {
        return Err("batch must be positive".into());
    }
    let cnn = t.span("graph.build", || Cnn::build(id, request.batch));
    let graph = t.span("graph.training_graph", || cnn.training_graph());
    t.record("graph.nodes", graph.len() as f64);
    t.check("core.features", || {
        for node in graph.topological() {
            if model.classification().class_of(node.kind()) == OpClass::Heavy {
                std::hint::black_box(ceer_core::features::extract(node, &graph));
            }
        }
    });
    if request.gpus == 0 || request.batch == 0 || request.samples == 0 {
        return Err("gpus, batch and samples must be positive".into());
    }
    let targets: Vec<GpuModel> = match &request.gpu {
        Some(gpu) => vec![api::parse_gpu(gpu)?],
        None => GpuModel::all().to_vec(),
    };
    let catalog = t.span("cloud.catalog", || Catalog::new(Pricing::OnDemand));
    let iterations = request.samples.div_ceil(request.batch * u64::from(request.gpus));
    let mut predictions = Vec::with_capacity(targets.len());
    for gpu in targets {
        let estimate = t.span("core.predict_iteration", || {
            model.predict_iteration(&graph, gpu, request.gpus, &request.options)
        });
        let instance = catalog.instance(gpu, request.gpus);
        let epoch_us = estimate.total_us() * iterations as f64;
        predictions.push(GpuPrediction {
            gpu,
            instance: instance.name().to_string(),
            hourly_usd: instance.hourly_usd(),
            iteration_us: estimate.total_us(),
            iteration_std_us: estimate.std_us(),
            iterations_per_epoch: iterations,
            epoch_us,
            epoch_cost_usd: epoch_us * instance.usd_per_microsecond(),
            estimate,
        });
    }
    let fully_covered = t.span("core.coverage", || model.coverage(&graph).is_fully_covered());
    let response = PredictResponse {
        cnn: id.name().to_string(),
        parameters: graph.parameter_count(),
        ops: graph.len() as u64,
        batch: request.batch,
        gpus: request.gpus,
        samples: request.samples,
        fully_covered,
        predictions,
    };
    // Freeing the ~1000-node graph is a cost of its own.
    t.span("graph.drop", || drop((graph, cnn)));
    t.span("serve.serialize", || serde_json::to_string_pretty(&response))
        .map_err(|e| format!("response serialization failed: {e}"))
}

/// `api::recommend` + serialization, layer by layer.
///
/// # Errors
///
/// The same validation errors `api::recommend` gives.
pub fn recommend(
    t: &mut Tracer,
    model: &CeerModel,
    request: &RecommendRequest,
) -> Result<String, String> {
    let id = api::parse_cnn(&request.cnn)?;
    if request.samples == 0 || request.batch == 0 || request.max_gpus == 0 || request.epochs == 0 {
        return Err("samples, batch, max_gpus and epochs must be positive".into());
    }
    let objective = request.objective.unwrap_or(Objective::MinimizeCost);
    let cnn = t.span("graph.build", || Cnn::build(id, request.batch));
    let pricing = if request.market { Pricing::MarketRatio } else { Pricing::OnDemand };
    let catalog = t.span("cloud.catalog", || Catalog::new(pricing));
    let mut workload = Workload::new(request.samples, request.max_gpus).with_epochs(request.epochs);
    if request.memory_fit {
        workload = workload.with_memory_fit();
    }
    // `CeerModel::recommend`: evaluate, rank, take the best if feasible.
    let evaluate = |t: &mut Tracer| {
        let mut ranking = t.span("core.evaluate_candidates", || {
            model.evaluate_candidates(&cnn, &catalog, &workload)
        });
        ceer_stats::total::sort_by_f64_key(&mut ranking, |c| c.score(&objective));
        ranking
    };
    let mut ranking = evaluate(t);
    let best = ranking.first().filter(|c| c.is_feasible(&objective)).cloned();
    if best.is_none() {
        // With no feasible candidate `api::recommend` evaluates the field
        // again to report it.
        ranking = evaluate(t);
    }
    t.span("graph.drop", || drop(cnn));
    let response = api::RecommendResponse { cnn: id.name().to_string(), objective, best, ranking };
    t.span("serve.serialize", || serde_json::to_string_pretty(&response))
        .map_err(|e| format!("response serialization failed: {e}"))
}
