//! Golden `/predict` response bodies.
//!
//! Every body [`api::predict`] returns for the 12 zoo CNNs × batch
//! {16, 32, 64} × GPU count {1, 2, 4} × {all GPUs, each single-GPU filter},
//! plus the heavy-ops-only estimator over the same shapes, is serialized
//! exactly as the server sends it (`to_string_pretty`) and pinned by
//! digest in `tests/golden/predict_digests.txt`. The full bodies of two
//! CNNs are stored beside it, so a drift shows as a readable diff and not
//! only as a changed hash.
//!
//! The model is the golden-figures fit (`iterations: 12, seed: 0x601d`), so
//! any change to the estimator's arithmetic — including a reordering of a
//! floating-point sum — changes bytes here. To bless an intentional change:
//!
//! ```text
//! CEER_UPDATE_GOLDEN=1 cargo test --test predict_golden
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use ceer::graph::models::CnnId;
use ceer::model::{EstimateOptions, FitConfig};
use ceer::serve::api::{self, PredictRequest};
use ceer_experiments::ExperimentContext;

const BATCHES: [u64; 3] = [16, 32, 64];
const GPU_COUNTS: [u32; 3] = [1, 2, 4];
const FILTERS: [Option<&str>; 5] = [None, Some("P3"), Some("P2"), Some("G4"), Some("G3")];
/// CNNs whose full bodies are stored, not only their digests.
const FULL_BODY_CNNS: [CnnId; 2] = [CnnId::AlexNet, CnnId::InceptionV3];

/// 64-bit FNV-1a: small, dependency-free, and plenty for drift detection.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// One labelled request of the sweep.
fn requests(id: CnnId) -> Vec<(String, PredictRequest)> {
    let mut out = Vec::new();
    for batch in BATCHES {
        for gpus in GPU_COUNTS {
            let base = PredictRequest {
                cnn: id.name().to_string(),
                gpu: None,
                gpus,
                batch,
                samples: 1_200_000,
                options: EstimateOptions::default(),
            };
            for filter in FILTERS {
                let label = format!("{} b{batch} g{gpus} {}", id.name(), filter.unwrap_or("all"));
                out.push((
                    label,
                    PredictRequest { gpu: filter.map(str::to_string), ..base.clone() },
                ));
            }
            let label = format!("{} b{batch} g{gpus} all heavy_only", id.name());
            out.push((label, PredictRequest { options: EstimateOptions::heavy_only(), ..base }));
        }
    }
    out
}

fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var("CEER_UPDATE_GOLDEN").is_ok() {
        fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()));
    if actual != expected {
        let first = actual.lines().zip(expected.lines()).find(|(a, e)| a != e);
        panic!(
            "{name} drifted from its golden snapshot (first differing line: {first:?}); \
             if the change is intended, rerun with CEER_UPDATE_GOLDEN=1 and review the diff"
        );
    }
}

#[test]
fn predict_bodies_match_golden() {
    let model = ExperimentContext::with_config(
        FitConfig { iterations: 12, seed: 0x601d, ..FitConfig::default() },
        8,
    )
    .fitted_model();
    let mut digests = String::new();
    for &id in CnnId::all() {
        let mut full = String::new();
        for (label, request) in requests(id) {
            let response = api::predict(&model, &request).expect("valid sweep request");
            let body = serde_json::to_string_pretty(&response).expect("serializes");
            let _ = writeln!(digests, "{label} {:016x} {}", fnv1a64(body.as_bytes()), body.len());
            if FULL_BODY_CNNS.contains(&id) {
                let _ = writeln!(full, "== {label}\n{body}");
            }
        }
        if FULL_BODY_CNNS.contains(&id) {
            check(&format!("predict_{}.txt", id.name().to_lowercase()), &full);
        }
    }
    check("predict_digests.txt", &digests);
}
