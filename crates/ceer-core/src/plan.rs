//! Compile-once prediction plans.
//!
//! Ceer's estimate is a pure function of the CNN's DAG (§IV-B: every
//! feature is "computable from the CNN's DAG alone"), so everything a
//! prediction needs from the graph can be extracted once and reused: the
//! operation kinds in topological order, each operation's linear features,
//! the parameter count and the training-memory estimate. A [`PredictPlan`]
//! holds exactly that, packed, and is independent of any fitted model —
//! reloads, A/B candidates and online promotions all evaluate the same
//! plan with [`CeerModel::predict_plan`](crate::CeerModel::predict_plan).
//!
//! Plans of zoo CNNs are memoized process-wide by `(CnnId, batch)` in a
//! map of at most [`MEMO_CAPACITY`] plans with least-recently-used
//! eviction ([`memoized`]).
//!
//! # Layout
//!
//! Operations with equal kinds and equal feature bits share one *row*:
//! `row_kinds[r]` indexes the distinct kinds, and the rows' linear
//! features sit back to back in one `f64` arena (a kind's feature count is
//! fixed, [`features::linear_feature_count`]). `node_rows` lists each
//! operation's row in topological order. A ResNet-200 training graph has
//! 1560 operations but 112 rows, so a plan is a few KiB, and a prediction
//! evaluates each row's regression once.
//!
//! # Bit identity
//!
//! Evaluation walks `node_rows` in topological order and adds each
//! operation's term exactly as a per-node walk of the graph would — same
//! values, same order, a repeated `+=` of the medians rather than a
//! multiplication — so every sum is bit-identical to it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError};

use ceer_gpusim::GpuModel;
use ceer_graph::analysis::{estimate_memory, MemoryEstimate};
use ceer_graph::models::{Cnn, CnnId};
use ceer_graph::{Graph, OpKind};

use crate::classify::OpClass;
use crate::estimate::{CeerModel, EstimateOptions, IterationEstimate};
use crate::features;
use crate::opmodel::OpModel;

/// The most plans [`memoized`] keeps: the zoo at five batch sizes. A plan
/// of the largest zoo CNN is about 12 KiB, so a full memo stays under 1 MiB.
pub const MEMO_CAPACITY: usize = 64;

/// A training graph compiled for prediction (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictPlan {
    /// Distinct operation kinds, ascending.
    kinds: Vec<OpKind>,
    /// Per row: index into `kinds`.
    row_kinds: Vec<u8>,
    /// The rows' linear features, back to back.
    arena: Vec<f64>,
    /// Per operation, in topological order: index into the rows.
    node_rows: Vec<u32>,
    parameters: u64,
    batch: Option<u64>,
    memory: MemoryEstimate,
}

impl PredictPlan {
    /// Compiles a *training* graph (forward + backward, as produced by
    /// [`Cnn::training_graph`]).
    pub fn compile(graph: &Graph) -> PredictPlan {
        let kinds: Vec<OpKind> =
            graph.nodes().iter().map(|n| n.kind()).collect::<BTreeSet<_>>().into_iter().collect();
        let mut rows: BTreeMap<(u8, [u64; 3]), u32> = BTreeMap::new();
        let mut row_kinds = Vec::new();
        let mut arena = Vec::new();
        let mut node_rows = Vec::with_capacity(graph.len());
        for node in graph.topological() {
            // A kind's position in the ascending list; OpKind has well under
            // 256 variants, so it fits a byte.
            let kind = kinds.partition_point(|&k| k < node.kind()) as u8;
            let linear = features::extract_linear(node, graph);
            let mut bits = [0u64; 3];
            for (slot, x) in bits.iter_mut().zip(&linear) {
                *slot = x.to_bits();
            }
            let next = rows.len() as u32;
            let row = *rows.entry((kind, bits)).or_insert_with(|| {
                row_kinds.push(kind);
                arena.extend_from_slice(&linear);
                next
            });
            node_rows.push(row);
        }
        PredictPlan {
            kinds,
            row_kinds,
            arena,
            node_rows,
            parameters: graph.parameter_count(),
            batch: graph.input_batch(),
            memory: estimate_memory(graph),
        }
    }

    /// The distinct operation kinds, ascending (what coverage checks).
    pub(crate) fn kinds(&self) -> &[OpKind] {
        &self.kinds
    }

    /// Number of operations in the graph.
    pub fn ops(&self) -> usize {
        self.node_rows.len()
    }

    /// Trainable parameter count of the graph.
    pub fn parameter_count(&self) -> u64 {
        self.parameters
    }

    /// The per-GPU batch the graph was built with ([`Graph::input_batch`]).
    pub fn batch(&self) -> Option<u64> {
        self.batch
    }

    /// Estimated per-GPU training memory of the graph.
    pub fn memory(&self) -> MemoryEstimate {
        self.memory
    }

    /// The per-iteration terms that do not depend on the GPU count — heavy,
    /// light and CPU operations and the heavy-op variance — for `model` on
    /// `gpu`. The communication term goes last, so adding it to these is
    /// exactly a full estimate.
    pub(crate) fn node_terms(
        &self,
        model: &CeerModel,
        gpu: GpuModel,
        options: &EstimateOptions,
    ) -> IterationEstimate {
        // Class and regression, resolved once per distinct kind.
        let resolved: Vec<(OpClass, Option<&OpModel>)> = self
            .kinds
            .iter()
            .map(|&kind| {
                let class = model.classification().class_of(kind);
                let regression =
                    if class == OpClass::Heavy { model.op_model(kind, gpu) } else { None };
                (class, regression)
            })
            .collect();
        // Each row's term, evaluated once.
        let mut offset = 0;
        let terms: Vec<Term> = self
            .row_kinds
            .iter()
            .map(|&kind| {
                let kind = kind as usize;
                let width = features::linear_feature_count(self.kinds[kind]);
                let linear = &self.arena[offset..offset + width];
                offset += width;
                match resolved[kind] {
                    (OpClass::Heavy, Some(regression)) => {
                        let s = regression.residual_std_us();
                        Term::Heavy { us: regression.predict_linear_us(linear), variance: s * s }
                    }
                    // Heavy kind never seen on this GPU during training: the
                    // paper says Ceer must be retrained for truly new ops
                    // (§IV-D); the graceful fallback is the light median,
                    // which at least keeps the op counted.
                    (OpClass::Heavy, None) => Term::Unfitted,
                    (OpClass::Light, _) => Term::Light,
                    (OpClass::Cpu, _) => Term::Cpu,
                }
            })
            .collect();
        let light_us = model.light_median_us();
        let cpu_us = model.cpu_median_us();
        let mut estimate = IterationEstimate::default();
        for &row in &self.node_rows {
            match terms[row as usize] {
                Term::Heavy { us, variance } => {
                    estimate.heavy_us += us;
                    estimate.variance_us2 += variance;
                }
                Term::Unfitted => estimate.heavy_us += light_us,
                Term::Light => {
                    if options.include_light {
                        estimate.light_us += light_us;
                    }
                }
                Term::Cpu => {
                    if options.include_cpu {
                        estimate.cpu_us += cpu_us;
                    }
                }
            }
        }
        estimate
    }
}

/// One row's contribution to an estimate.
#[derive(Debug, Clone, Copy)]
enum Term {
    /// A heavy operation with a fitted regression.
    Heavy {
        us: f64,
        variance: f64,
    },
    /// A heavy operation without one: counted at the light median.
    Unfitted,
    Light,
    Cpu,
}

/// The process-wide plan memo: plans with their last-use tick.
struct Memo {
    plans: BTreeMap<(CnnId, u64), (Arc<PredictPlan>, u64)>,
    tick: u64,
}

/// Every step of a critical section leaves the memo whole (a plan is
/// removed or inserted in one map call), so a poisoned lock is recovered.
static MEMO: Mutex<Memo> = Mutex::new(Memo { plans: BTreeMap::new(), tick: 0 });

/// The plan of zoo CNN `id` at per-GPU `batch`, compiled on first use and
/// memoized (at most [`MEMO_CAPACITY`] plans; the least recently used is
/// evicted first). Compilation runs outside the memo's lock; when two
/// threads race on a key, the first plan stored wins and both are equal.
///
/// # Panics
///
/// Panics if `batch` is zero (as [`Cnn::build`] does).
pub fn memoized(id: CnnId, batch: u64) -> Arc<PredictPlan> {
    let key = (id, batch);
    if let Some(plan) = memo_get(key) {
        return plan;
    }
    let compiled = Arc::new(PredictPlan::compile(&Cnn::build(id, batch).training_graph()));
    memo_insert(key, compiled)
}

/// The memoized plan for `key`, marked as just used.
fn memo_get(key: (CnnId, u64)) -> Option<Arc<PredictPlan>> {
    let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    memo.tick += 1;
    let tick = memo.tick;
    let plan = memo.plans.get_mut(&key).map(|(plan, used)| {
        *used = tick;
        Arc::clone(plan)
    });
    drop(memo);
    plan
}

/// Stores `compiled` under `key` unless a racing thread stored one first,
/// evicting the least recently used plan when full; returns the stored plan.
fn memo_insert(key: (CnnId, u64), compiled: Arc<PredictPlan>) -> Arc<PredictPlan> {
    let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    memo.tick += 1;
    let tick = memo.tick;
    if !memo.plans.contains_key(&key) && memo.plans.len() >= MEMO_CAPACITY {
        let oldest = memo.plans.iter().min_by_key(|(_, (_, used))| *used).map(|(&k, _)| k);
        if let Some(oldest) = oldest {
            memo.plans.remove(&oldest);
        }
    }
    let (plan, used) = memo.plans.entry(key).or_insert((compiled, tick));
    *used = tick;
    let plan = Arc::clone(plan);
    drop(memo);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_summarizes_the_graph() {
        let cnn = Cnn::build(CnnId::ResNet50, 16);
        let graph = cnn.training_graph();
        let plan = PredictPlan::compile(&graph);
        assert_eq!(plan.ops(), graph.len());
        assert_eq!(plan.parameter_count(), graph.parameter_count());
        assert_eq!(plan.batch(), Some(16));
        assert_eq!(plan.memory(), estimate_memory(&graph));
        let kinds: BTreeSet<OpKind> = graph.nodes().iter().map(|n| n.kind()).collect();
        assert_eq!(plan.kinds(), kinds.into_iter().collect::<Vec<_>>().as_slice());
        // Repeated blocks share rows.
        assert!(plan.row_kinds.len() < plan.ops() / 2, "{} rows", plan.row_kinds.len());
    }

    #[test]
    fn rows_hold_each_operations_linear_features() {
        let cnn = Cnn::build(CnnId::InceptionV1, 8);
        let graph = cnn.training_graph();
        let plan = PredictPlan::compile(&graph);
        let mut starts = Vec::new();
        let mut offset = 0;
        for &kind in &plan.row_kinds {
            starts.push(offset);
            offset += features::linear_feature_count(plan.kinds[kind as usize]);
        }
        assert_eq!(offset, plan.arena.len());
        for (node, &row) in graph.topological().zip(&plan.node_rows) {
            let row = row as usize;
            assert_eq!(plan.kinds[plan.row_kinds[row] as usize], node.kind());
            let f = features::extract(node, &graph);
            let stored = &plan.arena[starts[row]..starts[row] + f.linear.len()];
            assert_eq!(stored, f.linear.as_slice(), "{}", node.name());
            assert_eq!(f.quadratic_extra, vec![features::quadratic_extra(node.kind(), stored)]);
        }
    }

    fn memo_len() -> usize {
        MEMO.lock().unwrap_or_else(PoisonError::into_inner).plans.len()
    }

    fn is_memoized(id: CnnId, batch: u64) -> bool {
        MEMO.lock().unwrap_or_else(PoisonError::into_inner).plans.contains_key(&(id, batch))
    }

    #[test]
    fn memo_is_bounded_and_recompiles_evicted_plans_equal() {
        // Batches no other test uses, so concurrent tests cannot refresh them.
        let first = memoized(CnnId::AlexNet, 1001);
        assert!(Arc::ptr_eq(&first, &memoized(CnnId::AlexNet, 1001)));
        for batch in 1002..1002 + MEMO_CAPACITY as u64 + 4 {
            memoized(CnnId::AlexNet, batch);
            assert!(memo_len() <= MEMO_CAPACITY);
        }
        assert!(!is_memoized(CnnId::AlexNet, 1001), "least recently used plan evicted");
        let again = memoized(CnnId::AlexNet, 1001);
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(*first, *again);
        assert_eq!(again.batch(), Some(1001));
        assert!(memo_len() <= MEMO_CAPACITY);
    }

    #[test]
    fn a_full_memo_stays_under_a_mebibyte() {
        let heap = |plan: &PredictPlan| {
            plan.kinds.capacity() * std::mem::size_of::<OpKind>()
                + plan.row_kinds.capacity()
                + plan.arena.capacity() * std::mem::size_of::<f64>()
                + plan.node_rows.capacity() * std::mem::size_of::<u32>()
                + std::mem::size_of::<PredictPlan>()
        };
        // The largest zoo graph at the largest benchmark batch.
        let largest = heap(&memoized(CnnId::InceptionResNetV2, 64));
        assert!(largest * MEMO_CAPACITY < 1 << 20, "{largest} bytes a plan");
    }
}
