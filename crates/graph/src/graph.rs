//! Operator DAG with residual edges and residual-aware segmentation.
//!
//! The DLS algorithm (Fig. 12(b)) first "partitions the initial graph into k
//! sub-graphs with no residual connections", shrinking the DP search space
//! from O(N^2) to O(N^2 / k). [`ComputeGraph::segments`] implements exactly
//! that: it cuts the topological order at every point not straddled by a
//! residual edge.

use serde::{Deserialize, Serialize};

use crate::op::Operator;
use crate::{GraphError, Result};

/// Index of an operator inside a [`ComputeGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OpId(pub usize);

impl OpId {
    /// Raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A directed acyclic graph of operators. Nodes are stored in construction
/// order, which the builders guarantee to be a valid topological order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ComputeGraph {
    ops: Vec<Operator>,
    /// Dataflow edges `(from, to)` with `from < to`.
    edges: Vec<(OpId, OpId)>,
    /// Residual (skip-connection) edges, a subset of long-range dataflow.
    residual_edges: Vec<(OpId, OpId)>,
}

impl ComputeGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ComputeGraph::default()
    }

    /// Appends an operator, returning its id.
    pub fn add_op(&mut self, op: Operator) -> OpId {
        self.ops.push(op);
        OpId(self.ops.len() - 1)
    }

    /// Adds a dataflow edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidEdge`] when ids are out of range or the
    /// edge points backwards (which would break the topological invariant).
    pub fn add_edge(&mut self, from: OpId, to: OpId) -> Result<()> {
        self.check_edge(from, to)?;
        self.edges.push((from, to));
        Ok(())
    }

    /// Adds a residual (skip) edge. Residual edges are also dataflow edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidEdge`] under the same conditions as
    /// [`ComputeGraph::add_edge`].
    pub fn add_residual_edge(&mut self, from: OpId, to: OpId) -> Result<()> {
        self.check_edge(from, to)?;
        self.edges.push((from, to));
        self.residual_edges.push((from, to));
        Ok(())
    }

    fn check_edge(&self, from: OpId, to: OpId) -> Result<()> {
        if from.0 >= self.ops.len() {
            return Err(GraphError::UnknownOp(from.0));
        }
        if to.0 >= self.ops.len() {
            return Err(GraphError::UnknownOp(to.0));
        }
        if from.0 >= to.0 {
            return Err(GraphError::InvalidEdge {
                from: from.0,
                to: to.0,
                reason: "edges must point forward in construction order".into(),
            });
        }
        Ok(())
    }

    /// Number of operators.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The operator at `id`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownOp`] for out-of-range ids.
    pub fn op(&self, id: OpId) -> Result<&Operator> {
        self.ops.get(id.0).ok_or(GraphError::UnknownOp(id.0))
    }

    /// All operators in topological order.
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    /// All dataflow edges.
    pub fn edges(&self) -> &[(OpId, OpId)] {
        &self.edges
    }

    /// Residual edges only.
    pub fn residual_edges(&self) -> &[(OpId, OpId)] {
        &self.residual_edges
    }

    /// Direct successors of an operator.
    pub fn successors(&self, id: OpId) -> Vec<OpId> {
        self.edges
            .iter()
            .filter(|(f, _)| *f == id)
            .map(|(_, t)| *t)
            .collect()
    }

    /// Direct predecessors of an operator.
    pub fn predecessors(&self, id: OpId) -> Vec<OpId> {
        self.edges
            .iter()
            .filter(|(_, t)| *t == id)
            .map(|(f, _)| *f)
            .collect()
    }

    /// Total forward FLOPs of the graph.
    pub fn total_flops(&self) -> f64 {
        self.ops.iter().map(|o| o.flops()).sum()
    }

    /// Total trained parameters of the graph.
    pub fn total_params(&self) -> u64 {
        self.ops.iter().map(|o| o.kind.weight_params()).sum()
    }

    /// Splits the topological order into maximal segments not straddled by
    /// any residual edge (the DLS graph-partition step).
    ///
    /// A cut between positions `i` and `i+1` is legal iff no residual edge
    /// `(f, t)` has `f <= i < t`. Returned segments are contiguous,
    /// non-empty ranges covering all operators.
    pub fn segments(&self) -> Vec<std::ops::Range<usize>> {
        let n = self.ops.len();
        if n == 0 {
            return Vec::new();
        }
        let mut cut_ok = vec![true; n]; // cut after position i
        for (f, t) in &self.residual_edges {
            for ok in &mut cut_ok[f.0..t.0] {
                *ok = false;
            }
        }
        let mut segments = Vec::new();
        let mut start = 0;
        for (i, item) in cut_ok.iter().enumerate().take(n) {
            let end_of_graph = i + 1 == n;
            if *item || end_of_graph {
                segments.push(start..i + 1);
                start = i + 1;
            }
        }
        segments
    }

    /// Concatenates `other` after `self`, shifting its ids; returns the
    /// offset at which `other`'s operators begin.
    pub fn append(&mut self, other: &ComputeGraph) -> usize {
        let offset = self.ops.len();
        self.ops.extend(other.ops.iter().cloned());
        for (f, t) in &other.edges {
            self.edges.push((OpId(f.0 + offset), OpId(t.0 + offset)));
        }
        for (f, t) in &other.residual_edges {
            self.residual_edges
                .push((OpId(f.0 + offset), OpId(t.0 + offset)));
        }
        offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use crate::tensor::LinearDims;

    fn gemm(name: &str) -> Operator {
        Operator::new(name, OpKind::Gemm(LinearDims::new(1, 16, 16, 16)))
    }

    fn chain(n: usize) -> ComputeGraph {
        let mut g = ComputeGraph::new();
        let ids: Vec<OpId> = (0..n).map(|i| g.add_op(gemm(&format!("op{i}")))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).unwrap();
        }
        g
    }

    #[test]
    fn add_edge_validates_direction_and_range() {
        let mut g = chain(3);
        assert!(matches!(
            g.add_edge(OpId(2), OpId(1)),
            Err(GraphError::InvalidEdge { .. })
        ));
        assert!(matches!(
            g.add_edge(OpId(0), OpId(9)),
            Err(GraphError::UnknownOp(9))
        ));
    }

    #[test]
    fn successors_and_predecessors() {
        let g = chain(3);
        assert_eq!(g.successors(OpId(0)), vec![OpId(1)]);
        assert_eq!(g.predecessors(OpId(2)), vec![OpId(1)]);
        assert!(g.predecessors(OpId(0)).is_empty());
    }

    #[test]
    fn chain_without_residuals_is_fully_segmented() {
        let g = chain(5);
        let segs = g.segments();
        assert_eq!(segs.len(), 5);
        assert!(segs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn residual_edges_merge_segments() {
        // 0 -> 1 -> 2 -> 3 -> 4 with residual 0 -> 2 and 2 -> 4:
        // no legal cut inside [0, 2] or [2, 4] => segments [0..3] and [3..5]?
        // Careful: residual 0->2 blocks cuts after 0 and 1; residual 2->4
        // blocks cuts after 2 and 3. So the only cut is at the very end:
        // one segment [0..5]... unless the first residual ends where the
        // second starts, blocking everything in between.
        let mut g = chain(5);
        g.add_residual_edge(OpId(0), OpId(2)).unwrap();
        g.add_residual_edge(OpId(2), OpId(4)).unwrap();
        let segs = g.segments();
        assert_eq!(segs, vec![0..5]);
    }

    #[test]
    fn disjoint_residual_spans_yield_two_segments() {
        let mut g = chain(6);
        g.add_residual_edge(OpId(0), OpId(2)).unwrap();
        g.add_residual_edge(OpId(3), OpId(5)).unwrap();
        let segs = g.segments();
        assert_eq!(segs, vec![0..3, 3..6]);
    }

    #[test]
    fn segments_cover_all_ops_exactly_once() {
        let mut g = chain(10);
        g.add_residual_edge(OpId(1), OpId(4)).unwrap();
        g.add_residual_edge(OpId(6), OpId(8)).unwrap();
        let segs = g.segments();
        let total: usize = segs.iter().map(|s| s.len()).sum();
        assert_eq!(total, 10);
        let mut expected_start = 0;
        for s in &segs {
            assert_eq!(s.start, expected_start);
            expected_start = s.end;
        }
    }

    #[test]
    fn append_shifts_ids() {
        let mut a = chain(3);
        let b = chain(2);
        let off = a.append(&b);
        assert_eq!(off, 3);
        assert_eq!(a.op_count(), 5);
        assert!(a.edges().contains(&(OpId(3), OpId(4))));
    }

    #[test]
    fn totals_sum_over_ops() {
        let g = chain(4);
        let per = gemm("x").flops();
        assert!((g.total_flops() - 4.0 * per).abs() < 1.0);
        assert_eq!(g.total_params(), 4 * 16 * 16);
    }
}
