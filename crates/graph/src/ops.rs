//! Graph algorithms: topological sort, reachability, transitive
//! closure.

use std::collections::{BTreeSet, VecDeque};

use crate::digraph::{DiGraph, NodeIx};

impl<N, E> DiGraph<N, E> {
    /// Kahn's algorithm. Returns a topological order of the nodes, or
    /// `None` if the graph contains a cycle.
    #[must_use]
    pub fn topo_sort(&self) -> Option<Vec<NodeIx>> {
        let mut in_deg: Vec<usize> = self.node_indices().map(|n| self.in_degree(n)).collect();
        let mut queue: VecDeque<NodeIx> =
            self.node_indices().filter(|&n| in_deg[n.0] == 0).collect();
        let mut order = Vec::with_capacity(self.node_count());
        while let Some(n) = queue.pop_front() {
            order.push(n);
            for s in self.successors(n) {
                in_deg[s.0] -= 1;
                if in_deg[s.0] == 0 {
                    queue.push_back(s);
                }
            }
        }
        (order.len() == self.node_count()).then_some(order)
    }

    /// Whether the graph contains a directed cycle.
    #[must_use]
    pub fn is_cyclic(&self) -> bool {
        self.topo_sort().is_none()
    }

    /// The set of nodes reachable from `start` (including `start` itself),
    /// as a sorted set.
    #[must_use]
    pub fn reachable_from(&self, start: NodeIx) -> BTreeSet<NodeIx> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                stack.extend(self.successors(n));
            }
        }
        seen
    }

    /// The transitive closure as a boolean adjacency matrix:
    /// `closure[i][j]` is `true` iff node `j` is reachable from node `i`
    /// via at least one edge.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // index loops mirror the matrix math
    pub fn transitive_closure(&self) -> Vec<Vec<bool>> {
        let n = self.node_count();
        let mut m = vec![vec![false; n]; n];
        for e in self.edge_indices() {
            let (from, to) = self.endpoints(e);
            m[from.0][to.0] = true;
        }
        // Floyd–Warshall boolean closure.
        for k in 0..n {
            for i in 0..n {
                if m[i][k] {
                    for j in 0..n {
                        if m[k][j] {
                            m[i][j] = true;
                        }
                    }
                }
            }
        }
        m
    }

    /// Source nodes (in-degree zero).
    #[must_use]
    pub fn sources(&self) -> Vec<NodeIx> {
        self.node_indices()
            .filter(|&n| self.in_degree(n) == 0)
            .collect()
    }

    /// Sink nodes (out-degree zero).
    #[must_use]
    pub fn sinks(&self) -> Vec<NodeIx> {
        self.node_indices()
            .filter(|&n| self.out_degree(n) == 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> DiGraph<usize, ()> {
        let mut g = DiGraph::new();
        let nodes: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        g
    }

    #[test]
    fn topo_sort_of_chain() {
        let g = chain(5);
        let order = g.topo_sort().unwrap();
        assert_eq!(order, (0..5).map(NodeIx).collect::<Vec<_>>());
        assert!(!g.is_cyclic());
    }

    #[test]
    fn cycle_detected() {
        let mut g = chain(3);
        g.add_edge(NodeIx(2), NodeIx(0), ());
        assert!(g.is_cyclic());
        assert!(g.topo_sort().is_none());
    }

    #[test]
    fn reachability() {
        let g = chain(4);
        let r = g.reachable_from(NodeIx(1));
        assert_eq!(r, [1, 2, 3].iter().map(|&i| NodeIx(i)).collect());
    }

    #[test]
    fn closure_of_diamond() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, c, ());
        g.add_edge(b, d, ());
        g.add_edge(c, d, ());
        let m = g.transitive_closure();
        assert!(m[a.0][d.0]);
        assert!(!m[d.0][a.0]);
        assert!(!m[b.0][c.0]);
    }

    #[test]
    fn sources_and_sinks() {
        let g = chain(3);
        assert_eq!(g.sources(), vec![NodeIx(0)]);
        assert_eq!(g.sinks(), vec![NodeIx(2)]);
    }

    #[test]
    fn cycle_in_closure_reaches_itself() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert!(g.transitive_closure()[0][0]);
    }
}
