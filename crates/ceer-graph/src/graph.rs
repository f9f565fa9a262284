//! The computation DAG.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::op::{DeviceClass, OpAttrs, OpKind};
use crate::shape::TensorShape;

/// Identifier of a node within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The node's index in [`Graph::nodes`].
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index. Only meaningful when the index came
    /// from the same graph's [`NodeId::index`]; passing it to a different
    /// graph yields an unrelated node or a panic.
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index fits in u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One operation in the DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    id: NodeId,
    name: String,
    kind: OpKind,
    attrs: OpAttrs,
    inputs: Vec<NodeId>,
    output_shape: TensorShape,
    /// Trainable parameters *owned* by this operation (e.g. a `Conv2D` owns
    /// its filter weights, a `BiasAdd` its bias vector). Summed by
    /// [`Graph::parameter_count`].
    params: u64,
}

impl Node {
    /// Node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Unique node name (TensorFlow-style scoped path).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operation kind.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Supplemental attributes.
    pub fn attrs(&self) -> OpAttrs {
        self.attrs
    }

    /// Producer nodes whose outputs feed this node.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Shape of this node's output tensor.
    pub fn output_shape(&self) -> &TensorShape {
        &self.output_shape
    }

    /// Trainable parameters owned by this node.
    pub fn params(&self) -> u64 {
        self.params
    }
}

/// Errors raised by [`Graph`] construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An input edge referenced a node that does not exist (forward
    /// reference or out of range).
    DanglingInput {
        /// The node being added.
        node: String,
        /// The offending input id.
        input: NodeId,
    },
    /// Two nodes share a name.
    DuplicateName(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DanglingInput { node, input } => {
                write!(f, "node {node:?} references nonexistent input {input}")
            }
            GraphError::DuplicateName(name) => write!(f, "duplicate node name {name:?}"),
        }
    }
}

impl Error for GraphError {}

/// A CNN computation graph: an append-only DAG of operations.
///
/// Nodes may only reference already-added nodes as inputs, so the graph is
/// acyclic by construction and node ids are already a topological order.
///
/// ```
/// use ceer_graph::{Graph, OpKind, OpAttrs, TensorShape};
///
/// # fn main() -> Result<(), ceer_graph::GraphError> {
/// let mut g = Graph::new("tiny");
/// let input = g.add_node("input", OpKind::Identity, OpAttrs::None, vec![],
///                        TensorShape::nhwc(32, 8, 8, 3), 0)?;
/// g.add_node("relu", OpKind::Relu, OpAttrs::None, vec![input],
///            TensorShape::nhwc(32, 8, 8, 3), 0)?;
/// assert_eq!(g.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
    #[serde(skip)]
    name_index: BTreeMap<String, NodeId>,
}

impl Graph {
    /// Creates an empty graph with a model name.
    pub fn new(name: impl Into<String>) -> Self {
        Graph { name: name.into(), nodes: Vec::new(), name_index: BTreeMap::new() }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an operation.
    ///
    /// # Errors
    ///
    /// - [`GraphError::DanglingInput`] if any input id is not already in the
    ///   graph (this is what makes cycles impossible),
    /// - [`GraphError::DuplicateName`] if `name` is taken.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        attrs: OpAttrs,
        inputs: Vec<NodeId>,
        output_shape: TensorShape,
        params: u64,
    ) -> Result<NodeId, GraphError> {
        let name = name.into();
        if self.name_index.contains_key(&name) {
            return Err(GraphError::DuplicateName(name));
        }
        let id = NodeId(self.nodes.len() as u32);
        for &input in &inputs {
            if input.index() >= self.nodes.len() {
                return Err(GraphError::DanglingInput { node: name, input });
            }
        }
        self.name_index.insert(name.clone(), id);
        self.nodes.push(Node { id, name, kind, attrs, inputs, output_shape, params });
        Ok(id)
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no operations.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<&Node> {
        self.name_index.get(name).map(|&id| self.node(id))
    }

    /// All nodes in insertion (= topological) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Iterates over nodes in topological order. Because inputs must precede
    /// their consumers at insertion time, this is simply insertion order.
    pub fn topological(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// The resolved shapes of a node's input tensors, in edge order.
    pub fn input_shapes(&self, id: NodeId) -> Vec<&TensorShape> {
        self.node(id).inputs().iter().map(|&i| self.node(i).output_shape()).collect()
    }

    /// Total bytes flowing *into* a node — the paper's primary "input size"
    /// feature (§III-C).
    pub fn input_bytes(&self, id: NodeId) -> u64 {
        self.input_shapes(id).iter().map(|s| s.bytes()).sum()
    }

    /// Total trainable parameters (e.g. ~61M for AlexNet, ~144M for VGG-19).
    pub fn parameter_count(&self) -> u64 {
        self.nodes.iter().map(|n| n.params).sum()
    }

    /// The per-GPU batch size the graph was built with: the batch dimension
    /// of its image placeholder, the first input-free rank-4 GPU tensor.
    /// `None` when the graph has no such placeholder.
    pub fn input_batch(&self) -> Option<u64> {
        self.nodes
            .iter()
            .find(|n| {
                n.inputs.is_empty()
                    && n.output_shape.rank() == 4
                    && n.kind.device_class() == DeviceClass::Gpu
            })
            .map(|n| n.output_shape.batch())
    }

    /// Number of operations per kind.
    pub fn op_histogram(&self) -> BTreeMap<OpKind, usize> {
        let mut histogram = BTreeMap::new();
        for node in &self.nodes {
            *histogram.entry(node.kind).or_insert(0) += 1;
        }
        histogram
    }

    /// Number of operations in the given device class.
    pub fn count_device_class(&self, class: DeviceClass) -> usize {
        self.nodes.iter().filter(|n| n.kind.device_class() == class).count()
    }

    /// Rebuilds the name index after deserialization (the index is skipped
    /// by serde). Prefer [`Graph::from_json`], which does this for you.
    pub fn rebuild_index(&mut self) {
        self.name_index = self.nodes.iter().map(|n| (n.name.clone(), n.id)).collect();
    }

    /// Serializes the graph as JSON — the interchange format for defining
    /// CNNs outside this crate (see `ceer predict --graph`).
    ///
    /// # Errors
    ///
    /// Propagates serializer failures (effectively unreachable for valid
    /// graphs).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a graph from JSON, rebuilds the name index and validates the
    /// structure.
    ///
    /// # Errors
    ///
    /// Returns a parse error (stringified) or the first structural
    /// inconsistency found by [`Graph::validate`].
    pub fn from_json(json: &str) -> Result<Self, String> {
        let mut graph: Graph =
            serde_json::from_str(json).map_err(|e| format!("invalid graph JSON: {e}"))?;
        graph.rebuild_index();
        graph.validate().map_err(|e| format!("inconsistent graph: {e}"))?;
        Ok(graph)
    }

    /// Validates internal consistency: ids match positions, inputs precede
    /// consumers, names unique. Graphs built through [`Graph::add_node`]
    /// always pass; this guards deserialized or hand-assembled graphs.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), GraphError> {
        let mut seen = BTreeMap::new();
        for (pos, node) in self.nodes.iter().enumerate() {
            if node.id.index() != pos {
                return Err(GraphError::DanglingInput { node: node.name.clone(), input: node.id });
            }
            if seen.insert(node.name.clone(), node.id).is_some() {
                return Err(GraphError::DuplicateName(node.name.clone()));
            }
            for &input in &node.inputs {
                if input.index() >= pos {
                    return Err(GraphError::DanglingInput { node: node.name.clone(), input });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new("test");
        let a = g
            .add_node(
                "a",
                OpKind::Identity,
                OpAttrs::None,
                vec![],
                TensorShape::nhwc(1, 2, 2, 3),
                0,
            )
            .unwrap();
        let b = g
            .add_node("b", OpKind::Relu, OpAttrs::None, vec![a], TensorShape::nhwc(1, 2, 2, 3), 0)
            .unwrap();
        g.add_node("c", OpKind::AddV2, OpAttrs::None, vec![a, b], TensorShape::nhwc(1, 2, 2, 3), 0)
            .unwrap();
        g
    }

    #[test]
    fn insertion_order_is_topological() {
        let g = tiny_graph();
        for node in g.topological() {
            for &input in node.inputs() {
                assert!(input.index() < node.id().index());
            }
        }
    }

    #[test]
    fn rejects_forward_reference() {
        let mut g = Graph::new("test");
        let err = g
            .add_node("x", OpKind::Relu, OpAttrs::None, vec![NodeId(5)], TensorShape::scalar(), 0)
            .unwrap_err();
        assert!(matches!(err, GraphError::DanglingInput { .. }));
    }

    #[test]
    fn rejects_duplicate_name() {
        let mut g = Graph::new("test");
        g.add_node("x", OpKind::Identity, OpAttrs::None, vec![], TensorShape::scalar(), 0).unwrap();
        let err = g
            .add_node("x", OpKind::Relu, OpAttrs::None, vec![], TensorShape::scalar(), 0)
            .unwrap_err();
        assert_eq!(err, GraphError::DuplicateName("x".into()));
    }

    #[test]
    fn node_lookup_by_name() {
        let g = tiny_graph();
        assert_eq!(g.node_by_name("b").unwrap().kind(), OpKind::Relu);
        assert!(g.node_by_name("missing").is_none());
    }

    #[test]
    fn input_shapes_resolve_producers() {
        let g = tiny_graph();
        let c = g.node_by_name("c").unwrap().id();
        let shapes = g.input_shapes(c);
        assert_eq!(shapes.len(), 2);
        assert_eq!(shapes[0].elements(), 12);
    }

    #[test]
    fn input_bytes_sums_all_edges() {
        let g = tiny_graph();
        let c = g.node_by_name("c").unwrap().id();
        assert_eq!(g.input_bytes(c), 2 * 12 * 4);
    }

    #[test]
    fn parameter_count_sums_nodes() {
        let mut g = Graph::new("params");
        g.add_node("w1", OpKind::Conv2D, OpAttrs::None, vec![], TensorShape::scalar(), 100)
            .unwrap();
        g.add_node("w2", OpKind::BiasAdd, OpAttrs::None, vec![], TensorShape::scalar(), 10)
            .unwrap();
        assert_eq!(g.parameter_count(), 110);
    }

    #[test]
    fn histogram_counts_kinds() {
        let g = tiny_graph();
        let h = g.op_histogram();
        assert_eq!(h[&OpKind::Identity], 1);
        assert_eq!(h[&OpKind::Relu], 1);
        assert_eq!(h[&OpKind::AddV2], 1);
    }

    #[test]
    fn device_class_counting() {
        let mut g = tiny_graph();
        g.add_node("cpu", OpKind::SparseToDense, OpAttrs::None, vec![], TensorShape::vector(32), 0)
            .unwrap();
        assert_eq!(g.count_device_class(DeviceClass::Cpu), 1);
        assert_eq!(g.count_device_class(DeviceClass::Gpu), 3);
    }

    #[test]
    fn validate_accepts_built_graph() {
        assert_eq!(tiny_graph().validate(), Ok(()));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new("empty");
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.parameter_count(), 0);
    }
}

#[cfg(test)]
mod json_tests {
    use super::*;
    use crate::models::{Cnn, CnnId};

    #[test]
    fn input_batch_finds_the_placeholder() {
        let graph = Cnn::build(CnnId::AlexNet, 24).training_graph();
        assert_eq!(graph.input_batch(), Some(24));
    }

    #[test]
    fn input_batch_none_without_rank4_placeholder() {
        assert_eq!(Graph::new("empty").input_batch(), None);
    }

    #[test]
    fn graph_round_trips_through_json() {
        let graph = Cnn::build(CnnId::AlexNet, 8).training_graph();
        let json = graph.to_json().expect("serializes");
        let restored = Graph::from_json(&json).expect("parses");
        assert_eq!(graph, restored);
        // The rebuilt index works.
        assert!(restored.node_by_name("conv1/Conv2D").is_some());
    }

    #[test]
    fn from_json_rejects_garbage_and_corruption() {
        assert!(Graph::from_json("not json").is_err());
        // Structurally corrupt: node referencing a later node.
        let json = r#"{"name":"bad","nodes":[
            {"id":0,"name":"a","kind":"Relu","attrs":"None","inputs":[1],
             "output_shape":{"dims":[1]},"params":0},
            {"id":1,"name":"b","kind":"Identity","attrs":"None","inputs":[],
             "output_shape":{"dims":[1]},"params":0}]}"#;
        let err = Graph::from_json(json).expect_err("must fail");
        assert!(err.contains("inconsistent"), "{err}");
    }
}
