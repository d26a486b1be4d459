//! The adjacency-list directed graph.

use std::fmt;

/// Index of a node in a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIx(pub usize);

/// Index of an edge in a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeIx(pub usize);

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Edge<E> {
    pub(crate) from: NodeIx,
    pub(crate) to: NodeIx,
    pub(crate) weight: E,
}

/// A directed graph with node weights `N` and edge weights `E`, stored as
/// adjacency lists. Parallel edges and self-loops are allowed; algorithms
/// that require a DAG say so.
#[derive(Clone, PartialEq, Eq)]
pub struct DiGraph<N, E> {
    pub(crate) nodes: Vec<N>,
    pub(crate) edges: Vec<Edge<E>>,
    pub(crate) out: Vec<Vec<EdgeIx>>,
    pub(crate) inc: Vec<Vec<EdgeIx>>,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out: Vec::new(),
            inc: Vec::new(),
        }
    }
}

impl<N: fmt::Debug, E: fmt::Debug> fmt::Debug for DiGraph<N, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DiGraph({} nodes, {} edges)",
            self.nodes.len(),
            self.edges.len()
        )?;
        for e in &self.edges {
            writeln!(f, "  {:?} -> {:?} [{:?}]", e.from, e.to, e.weight)?;
        }
        Ok(())
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with weight `weight`, returning its index.
    pub fn add_node(&mut self, weight: N) -> NodeIx {
        let ix = NodeIx(self.nodes.len());
        self.nodes.push(weight);
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        ix
    }

    /// Adds a directed edge `from → to`, returning its index.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: NodeIx, to: NodeIx, weight: E) -> EdgeIx {
        assert!(
            from.0 < self.nodes.len() && to.0 < self.nodes.len(),
            "endpoint out of range"
        );
        let ix = EdgeIx(self.edges.len());
        self.edges.push(Edge { from, to, weight });
        self.out[from.0].push(ix);
        self.inc[to.0].push(ix);
        ix
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The weight of node `ix`.
    #[must_use]
    pub fn node(&self, ix: NodeIx) -> &N {
        &self.nodes[ix.0]
    }

    /// The weight of edge `ix`.
    #[must_use]
    pub fn edge(&self, ix: EdgeIx) -> &E {
        &self.edges[ix.0].weight
    }

    /// The `(from, to)` endpoints of edge `ix`.
    #[must_use]
    pub fn endpoints(&self, ix: EdgeIx) -> (NodeIx, NodeIx) {
        let e = &self.edges[ix.0];
        (e.from, e.to)
    }

    /// Iterates over all node indices.
    pub fn node_indices(&self) -> impl Iterator<Item = NodeIx> {
        (0..self.nodes.len()).map(NodeIx)
    }

    /// Iterates over all edge indices.
    pub fn edge_indices(&self) -> impl Iterator<Item = EdgeIx> {
        (0..self.edges.len()).map(EdgeIx)
    }

    /// Successors of `ix` (one entry per outgoing edge).
    pub fn successors(&self, ix: NodeIx) -> impl Iterator<Item = NodeIx> + '_ {
        self.out[ix.0].iter().map(move |&e| self.edges[e.0].to)
    }

    /// Out-degree of `ix`.
    #[must_use]
    pub fn out_degree(&self, ix: NodeIx) -> usize {
        self.out[ix.0].len()
    }

    /// In-degree of `ix`.
    #[must_use]
    pub fn in_degree(&self, ix: NodeIx) -> usize {
        self.inc[ix.0].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<char, u32>, [NodeIx; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node('a');
        let b = g.add_node('b');
        let c = g.add_node('c');
        let d = g.add_node('d');
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        (g, [a, b, c, d])
    }

    #[test]
    fn counts_and_weights() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_indices().count(), 4);
        assert_eq!(*g.node(a), 'a');
        assert_eq!(*g.edge(EdgeIx(3)), 4);
        assert_eq!(g.endpoints(EdgeIx(3)), (NodeIx(2), d));
    }

    #[test]
    fn adjacency() {
        let (g, [a, b, c, d]) = diamond();
        let succ: Vec<_> = g.successors(a).collect();
        assert_eq!(succ, vec![b, c]);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn bad_edge_panics() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeIx(5), ());
    }

    #[test]
    fn parallel_edges_and_self_loops_allowed() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 0);
        g.add_edge(a, b, 1);
        g.add_edge(a, a, 2);
        assert_eq!(g.edge_indices().count(), 3);
        assert_eq!(g.successors(a).count(), 3);
    }
}
