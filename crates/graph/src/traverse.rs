//! Connected components, plain and over a filtered edge set.
//!
//! These back the even clustering of the extraction (paper Section V-B):
//! connected components over voted edges.

use crate::{Graph, NodeId};

/// Connected-component labelling.
#[derive(Clone, Debug)]
pub struct Components {
    /// `label[v]` is the component id of `v`, dense in `0..count`.
    pub label: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// Size of each component, indexed by component id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.label {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Members of each component, indexed by component id.
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut groups = vec![Vec::new(); self.count];
        for (v, &l) in self.label.iter().enumerate() {
            groups[l as usize].push(v as NodeId);
        }
        groups
    }
}

/// Connected components of the whole graph via iterative BFS.
pub fn connected_components(g: &Graph) -> Components {
    connected_components_filtered(g, |_, _, _| true)
}

/// Connected components where an edge `(u, v)` with id `e` participates only
/// if `keep(u, v, e)` returns true.
///
/// This is exactly the paper's *even clustering*: remove all edges whose
/// voting result is 0 and report the components of what remains.
pub fn connected_components_filtered<F>(g: &Graph, mut keep: F) -> Components
where
    F: FnMut(NodeId, NodeId, crate::EdgeId) -> bool,
{
    let n = g.n();
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n as NodeId {
        if label[start as usize] != u32::MAX {
            continue;
        }
        label[start as usize] = count;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for (w, e) in g.edges_of(v) {
                if label[w as usize] == u32::MAX && keep(v, w, e) {
                    label[w as usize] = count;
                    queue.push_back(w);
                }
            }
        }
        count += 1;
    }
    Components { label, count: count as usize }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn two_triangles() -> Graph {
        Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn components_basic() {
        let g = two_triangles();
        let c = connected_components(&g);
        assert_eq!(c.count, 2);
        assert_eq!(c.label[0], c.label[1]);
        assert_eq!(c.label[3], c.label[5]);
        assert_ne!(c.label[0], c.label[3]);
        assert_eq!(c.sizes(), vec![3, 3]);
        let groups = c.groups();
        assert_eq!(groups[0], vec![0, 1, 2]);
        assert_eq!(groups[1], vec![3, 4, 5]);
    }

    #[test]
    fn components_filtered_cuts_edges() {
        // A path 0-1-2; cutting (1,2) gives components {0,1},{2}.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let cut = g.edge_id(1, 2).unwrap();
        let c = connected_components_filtered(&g, |_, _, e| e != cut);
        assert_eq!(c.count, 2);
        assert_eq!(c.label[0], c.label[1]);
        assert_ne!(c.label[0], c.label[2]);
    }

    #[test]
    fn components_isolated_nodes() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let c = connected_components(&g);
        assert_eq!(c.count, 3);
    }
}
