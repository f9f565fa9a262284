//! `ceer predict` — training time/cost prediction for one configuration.

use ceer_core::{plan, EstimateOptions, PredictPlan};
use ceer_graph::Graph;
use ceer_serve::api::{self, PredictRequest};

use crate::args::Args;
use crate::commands::load_model;
use crate::output::{fmt_duration_us, parse_cnn, parse_gpu};

const HELP: &str = "\
ceer predict — predict training time and cost for a CNN on a configuration

OPTIONS:
    --model FILE     fitted model from `ceer fit` (required)
    --cnn NAME       CNN from the zoo, e.g. resnet-101 (this or --graph)
    --graph FILE     a training graph in JSON (see `ceer zoo --export`) —
                     predict for CNNs defined outside the zoo
    --gpu NAME       GPU model (P3/P2/G4/G3 or V100/K80/T4/M60; default: all)
    --gpus K         data-parallel GPU count (default 1)
    --batch B        per-GPU batch size (default 32; for --graph it is
                     inferred from the graph's input placeholder)
    --samples N      also report one epoch over N samples (default 1200000)
    --threads N      worker threads (default: the CEER_THREADS env var, then
                     the host's CPU count)
    --json           emit the prediction as JSON — byte-identical to the
                     `POST /predict` body of `ceer serve`";

pub(crate) fn run(args: &Args) -> Result<(), String> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    let model = load_model(&args.require("--model")?)?;
    let cnn_arg = args.opt("--cnn")?;
    let graph_arg = args.opt("--graph")?;
    let gpu = args.opt("--gpu")?;
    if let Some(name) = &gpu {
        parse_gpu(name)?; // reject bad names before the (costlier) graph build
    }
    let gpus = args.opt_parse("--gpus", 1u32)?;
    let batch = args.opt_parse("--batch", 32u64)?;
    let samples = args.opt_parse("--samples", 1_200_000u64)?;
    let json = args.flag("--json");
    crate::commands::apply_threads(args)?;
    args.finish()?;
    if gpus == 0 || batch == 0 || samples == 0 {
        return Err("--gpus, --batch and --samples must be positive".into());
    }

    let mut request = PredictRequest {
        cnn: String::new(),
        gpu,
        gpus,
        batch,
        samples,
        options: EstimateOptions::default(),
    };
    // The same evaluations the HTTP service runs for `POST /predict`: a zoo
    // CNN from its memoized plan, a custom graph compiled for this call.
    let (response, coverage) = match (cnn_arg, graph_arg) {
        (Some(_), Some(_)) => {
            return Err("pass either --cnn or --graph, not both".into());
        }
        (Some(cnn_name), None) => {
            let id = parse_cnn(&cnn_name)?;
            request.cnn = id.name().to_string();
            let response = api::predict(&model, &request)?;
            (response, model.plan_coverage(&plan::memoized(id, batch)))
        }
        (None, Some(path)) => {
            let json =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
            let graph = Graph::from_json(&json)?;
            request.batch = graph
                .input_batch()
                .ok_or("graph has no rank-4 input placeholder to infer the batch from")?;
            request.cnn = graph.name().to_string();
            let plan = PredictPlan::compile(&graph);
            (api::predict_plan(&model, graph.name(), &plan, &request)?, model.plan_coverage(&plan))
        }
        (None, None) => return Err("missing required option --cnn (or --graph)".into()),
    };
    if !coverage.is_fully_covered() {
        eprintln!(
            "warning: heavy operations without fitted models: {:?} — the paper \
             recommends retraining (§IV-D); predictions use the light-median fallback",
            coverage.uncovered_heavy
        );
    }

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&response)
                .map_err(|e| format!("serialization failed: {e}"))?
        );
        return Ok(());
    }

    println!(
        "{} — {:.1}M parameters, {} ops, batch {}/GPU, {gpus} GPU(s)\n",
        response.cnn,
        response.parameters as f64 / 1e6,
        response.ops,
        response.batch
    );
    println!(
        "{:24} {:>12} {:>10} {:>14} {:>12}",
        "GPU", "iteration", "+/-1sigma", "epoch", "epoch cost"
    );
    for p in &response.predictions {
        println!(
            "{:24} {:>12} {:>10} {:>14} {:>11}",
            p.gpu.to_string(),
            fmt_duration_us(p.iteration_us),
            fmt_duration_us(p.iteration_std_us),
            fmt_duration_us(p.epoch_us),
            format!("${:.2}", p.epoch_cost_usd),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requires_cnn_or_graph() {
        let args = Args::new(vec!["--model".into(), "/nonexistent.json".into()]);
        // Fails at model loading first; drop the model to reach the check.
        assert!(run(&args).is_err());
    }
}
