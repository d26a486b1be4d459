//! Rendering learned dependency functions as dependency graphs
//! (the paper's Figures 4 and 5).

use bbmg_graph::{DiGraph, DotOptions, NodeIx};
use bbmg_lattice::{DependencyFunction, DependencyValue, TaskUniverse};

/// Builds the dependency graph of `d`: one node per task, one edge per
/// forward dependency — solid for unconditional (`→`), dashed-style weight
/// for conditional (`→?`). Backward values (`←`, `←?`) are the converse
/// view and produce no extra edges, matching the paper's figures.
///
/// # Panics
///
/// Panics if `universe` size differs from `d`'s task count.
#[must_use]
pub fn dependency_graph(
    d: &DependencyFunction,
    universe: &TaskUniverse,
) -> DiGraph<String, DependencyValue> {
    assert_eq!(universe.len(), d.task_count(), "universe mismatch");
    let mut g = DiGraph::new();
    for (_, name) in universe.iter() {
        g.add_node(name.to_owned());
    }
    for (t1, t2, v) in d.nontrivial_pairs() {
        if matches!(
            v,
            DependencyValue::Determines | DependencyValue::MayDetermine | DependencyValue::Mutual
        ) {
            g.add_edge(NodeIx(t1.index()), NodeIx(t2.index()), v);
        }
    }
    g
}

/// Renders `d` in Graphviz DOT: solid edges for `→`, dashed for `→?`,
/// bold for `↔` (never observed in practice).
#[must_use]
pub fn to_dot(d: &DependencyFunction, universe: &TaskUniverse, name: &str) -> String {
    let g = dependency_graph(d, universe);
    let options = DotOptions {
        name: name.to_owned(),
        rankdir: "TB".to_owned(),
    };
    g.to_dot(&options, Clone::clone, |v| match v {
        DependencyValue::Determines => String::new(),
        DependencyValue::MayDetermine => "style=dashed".to_owned(),
        _ => "style=bold".to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use bbmg_lattice::TaskId;

    use super::*;

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    /// The paper's d_LUB of the worked example.
    fn dlub() -> (DependencyFunction, TaskUniverse) {
        let d = DependencyFunction::from_rows(&[
            &["||", "->?", "->?", "->"],
            &["<-", "||", "||", "->"],
            &["<-", "||", "||", "->"],
            &["<-", "<-?", "<-?", "||"],
        ])
        .unwrap();
        (d, TaskUniverse::from_names(["t1", "t2", "t3", "t4"]))
    }

    #[test]
    fn figure_4_edge_set() {
        let (d, u) = dlub();
        let g = dependency_graph(&d, &u);
        assert_eq!(g.node_count(), 4);
        // Forward edges only, no converse duplicates: t1->?t2, t1->?t3,
        // t1->t4, t2->t4, t3->t4.
        let edges: Vec<_> = g.edge_indices().map(|e| g.endpoints(e)).collect();
        let forward = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)];
        assert_eq!(edges, forward.map(|(a, b)| (NodeIx(a), NodeIx(b))));
    }

    #[test]
    fn dot_styles_conditional_edges() {
        let (d, u) = dlub();
        let dot = to_dot(&d, &u, "figure4");
        assert!(dot.contains("digraph figure4"));
        assert!(dot.contains("style=dashed"));
        // Unconditional t1 -> t4 edge is bare.
        assert!(dot.contains("n0 -> n3;"));
    }

    #[test]
    fn empty_function_yields_no_edges() {
        let u = TaskUniverse::from_names(["a", "b"]);
        let g = dependency_graph(&DependencyFunction::bottom(2), &u);
        assert_eq!(g.edge_indices().count(), 0);
        let _ = t(0);
    }
}
