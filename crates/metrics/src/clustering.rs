//! The `Clustering` partition type shared by all algorithms and metrics.

use anc_graph::NodeId;

/// Cluster label marking a node as noise / unassigned.
///
/// The paper regards all clusters with fewer than 3 nodes as noise and
/// removes them before scoring (Section VI-A).
pub const NOISE: u32 = u32::MAX;

/// A (possibly partial) partition of `0..n` nodes into clusters.
///
/// Labels are dense in `0..num_clusters()` except for [`NOISE`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clustering {
    assignment: Vec<u32>,
    // Largest non-noise label plus one, and the number of non-noise nodes:
    // functions of `assignment`, stored by every constructor so a summary
    // of a published clustering does not rescan `n` labels.
    num_clusters: usize,
    num_assigned: usize,
}

impl Clustering {
    /// Builds from raw labels; any label value is accepted and will be
    /// re-densified (NOISE is preserved).
    pub fn from_labels(labels: &[u32]) -> Self {
        Self::densified(labels.to_vec())
    }

    /// Builds from labels that are already canonical — dense, numbered in
    /// first-appearance order, [`NOISE`] kept — with their two counts, as
    /// the cluster cache's even repair produces them: no renumbering pass.
    /// Trusted; a debug build checks labels and counts.
    pub fn from_canonical_labels(
        assignment: Vec<u32>,
        num_clusters: usize,
        num_assigned: usize,
    ) -> Self {
        let c = Self { assignment, num_clusters, num_assigned };
        debug_assert!(c.is_canonical(), "labels are not canonical or miscounted");
        c
    }

    /// Whether the labels are in the form [`Self::densified`] gives them and
    /// the stored counts are theirs. Allocation-free, so a debug check of it
    /// does not show in an allocation count.
    fn is_canonical(&self) -> bool {
        let (mut next, mut assigned) = (0u32, 0);
        for &l in self.assignment.iter().filter(|&&l| l != NOISE) {
            if l > next {
                return false;
            }
            next += u32::from(l == next);
            assigned += 1;
        }
        (next as usize, assigned) == (self.num_clusters, self.num_assigned)
    }

    /// Builds from explicit member lists; unmentioned nodes become noise.
    ///
    /// # Panics
    /// Panics if a node appears in two groups or exceeds `n`.
    pub fn from_groups(n: usize, groups: &[Vec<NodeId>]) -> Self {
        let mut assignment = vec![NOISE; n];
        let (mut num_clusters, mut num_assigned) = (0, 0);
        for (c, group) in groups.iter().enumerate() {
            for &v in group {
                assert!(assignment[v as usize] == NOISE, "node {v} assigned to multiple clusters");
                assignment[v as usize] = c as u32;
            }
            if !group.is_empty() {
                num_clusters = c + 1;
                num_assigned += group.len();
            }
        }
        Self { assignment, num_clusters, num_assigned }
    }

    /// The all-noise clustering over `n` nodes.
    pub fn all_noise(n: usize) -> Self {
        Self { assignment: vec![NOISE; n], num_clusters: 0, num_assigned: 0 }
    }

    /// Every node in its own singleton cluster.
    pub fn singletons(n: usize) -> Self {
        Self { assignment: (0..n as u32).collect(), num_clusters: n, num_assigned: n }
    }

    /// Number of nodes (including noise nodes).
    pub fn n(&self) -> usize {
        self.assignment.len()
    }

    /// Label of node `v` ([`NOISE`] if unassigned).
    #[inline]
    pub fn label(&self, v: NodeId) -> u32 {
        self.assignment[v as usize]
    }

    /// Whether node `v` is noise.
    #[inline]
    pub fn is_noise(&self, v: NodeId) -> bool {
        self.assignment[v as usize] == NOISE
    }

    /// Raw label slice.
    pub fn labels(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of clusters (excluding noise).
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Number of non-noise nodes.
    pub fn num_assigned(&self) -> usize {
        self.num_assigned
    }

    /// Sizes per cluster id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_clusters()];
        for &l in &self.assignment {
            if l != NOISE {
                sizes[l as usize] += 1;
            }
        }
        sizes
    }

    /// Member lists per cluster id.
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut groups = vec![Vec::new(); self.num_clusters()];
        for (v, &l) in self.assignment.iter().enumerate() {
            if l != NOISE {
                groups[l as usize].push(v as NodeId);
            }
        }
        groups
    }

    /// Marks every cluster smaller than `min_size` as noise and re-densifies
    /// labels — the paper's "<3 nodes are noise" convention with
    /// `min_size = 3`.
    pub fn filter_small(&self, min_size: usize) -> Self {
        let sizes = self.sizes();
        let mut filtered = self.assignment.clone();
        for l in filtered.iter_mut() {
            if *l != NOISE && sizes[*l as usize] < min_size {
                *l = NOISE;
            }
        }
        Self::densified(filtered)
    }

    /// Remaps labels to a dense `0..k` range in first-appearance order,
    /// preserving noise, and counts clusters and assigned nodes in the same
    /// pass. Labels no larger than a small multiple of `n` — every
    /// extractor's, whose labels are component or cluster ids — go through a
    /// `Vec` remap; anything sparser falls back to a hash map, so any `u32`
    /// is accepted at `O(n)` memory.
    fn densified(mut assignment: Vec<u32>) -> Self {
        let Some(max) = assignment.iter().copied().filter(|&l| l != NOISE).max() else {
            return Self { assignment, num_clusters: 0, num_assigned: 0 };
        };
        let mut next = 0u32;
        let mut fresh = || {
            next += 1;
            next - 1
        };
        let mut num_assigned = 0;
        if (max as usize) < 4 * assignment.len() {
            let mut remap = vec![NOISE; max as usize + 1];
            for l in assignment.iter_mut().filter(|l| **l != NOISE) {
                let slot = &mut remap[*l as usize];
                if *slot == NOISE {
                    *slot = fresh();
                }
                *l = *slot;
                num_assigned += 1;
            }
        } else {
            let mut remap = std::collections::HashMap::new();
            for l in assignment.iter_mut().filter(|l| **l != NOISE) {
                *l = *remap.entry(*l).or_insert_with(&mut fresh);
                num_assigned += 1;
            }
        }
        Self { assignment, num_clusters: next as usize, num_assigned }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_labels_densifies() {
        let c = Clustering::from_labels(&[5, 5, 9, NOISE, 9]);
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.label(0), c.label(1));
        assert_eq!(c.label(2), c.label(4));
        assert_ne!(c.label(0), c.label(2));
        assert!(c.is_noise(3));
        assert_eq!(c.num_assigned(), 4);
    }

    /// Both remaps give first-appearance ids: sparse labels near `u32::MAX`
    /// (hash-map fallback) and the same pattern with small labels (`Vec`
    /// remap) densify identically, and `NOISE` survives either way.
    #[test]
    fn sparse_and_dense_labels_densify_alike() {
        let top = u32::MAX - 1;
        let sparse = Clustering::from_labels(&[top, 7, NOISE, top - 5, 7, top, NOISE, 0]);
        let dense = Clustering::from_labels(&[3, 1, NOISE, 2, 1, 3, NOISE, 0]);
        assert_eq!(sparse.labels(), &[0, 1, NOISE, 2, 1, 0, NOISE, 3]);
        assert_eq!(sparse, dense);
        assert_eq!(sparse.num_clusters(), 4);
        // The largest label the Vec remap takes, and the first it does not.
        assert_eq!(Clustering::from_labels(&[7, 7]).labels(), &[0, 0]);
        assert_eq!(Clustering::from_labels(&[8, 7]).labels(), &[0, 1]);
    }

    #[test]
    fn all_noise_and_empty_input() {
        let c = Clustering::from_labels(&[NOISE; 4]);
        assert_eq!(c, Clustering::all_noise(4));
        assert_eq!(c.num_clusters(), 0);
        let e = Clustering::from_labels(&[]);
        assert_eq!((e.n(), e.num_clusters()), (0, 0));
    }

    #[test]
    fn from_groups_and_back() {
        let c = Clustering::from_groups(5, &[vec![0, 2], vec![1, 3]]);
        assert_eq!(c.groups(), vec![vec![0, 2], vec![1, 3]]);
        assert!(c.is_noise(4));
        assert_eq!(c.sizes(), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "multiple clusters")]
    fn overlapping_groups_panic() {
        Clustering::from_groups(3, &[vec![0, 1], vec![1, 2]]);
    }

    #[test]
    fn filter_small_removes_and_densifies() {
        // cluster 0: 3 nodes, cluster 1: 2 nodes, cluster 2: 1 node
        let c = Clustering::from_labels(&[0, 0, 0, 1, 1, 2]);
        let f = c.filter_small(3);
        assert_eq!(f.num_clusters(), 1);
        assert_eq!(f.label(0), 0);
        assert!(f.is_noise(3));
        assert!(f.is_noise(5));
    }

    /// The stored counts are the definitions, whichever constructor set them.
    #[test]
    fn stored_counts_equal_a_rescan() {
        let top = u32::MAX - 1;
        for c in [
            Clustering::from_labels(&[5, 5, 9, NOISE, 9, 0]),
            Clustering::from_labels(&[top, 7, NOISE, top - 5, 7, top]),
            Clustering::from_labels(&[NOISE; 3]),
            Clustering::from_labels(&[]),
            Clustering::from_groups(6, &[vec![0, 2], vec![], vec![1, 3, 4], vec![]]),
            Clustering::from_groups(4, &[]),
            Clustering::all_noise(5),
            Clustering::singletons(4),
            Clustering::singletons(0),
            Clustering::from_labels(&[0, 0, 0, 1, 1, 2, NOISE]).filter_small(2),
            Clustering::from_labels(&[0, 1, 2]).filter_small(2),
        ] {
            let assigned = || c.labels().iter().filter(|&&l| l != NOISE);
            assert_eq!(c.num_clusters(), assigned().max().map_or(0, |&m| m as usize + 1), "{c:?}");
            assert_eq!(c.num_assigned(), assigned().count(), "{c:?}");
        }
    }

    /// The trusted constructor takes canonical labels as they are, and its
    /// debug check is the densified form's definition.
    #[test]
    fn canonical_labels_are_taken_as_they_are() {
        let labels = vec![0, 1, 0, NOISE, 2, 1];
        let c = Clustering::from_canonical_labels(labels.clone(), 3, 5);
        assert_eq!(c, Clustering::from_labels(&labels));
        for c in [
            Clustering::from_labels(&[4, 4, NOISE, 2, 9, 2]),
            Clustering::all_noise(2),
            Clustering::singletons(3),
            Clustering::from_labels(&[]),
        ] {
            assert!(c.is_canonical(), "{c:?}");
        }
        let skips = Clustering { assignment: vec![0, 2, 1], num_clusters: 3, num_assigned: 3 };
        let miscounted = Clustering { assignment: vec![0, 0, 1], num_clusters: 3, num_assigned: 3 };
        assert!(!skips.is_canonical() && !miscounted.is_canonical());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not canonical")]
    fn non_canonical_labels_fail_the_debug_check() {
        Clustering::from_canonical_labels(vec![1, 0], 2, 2);
    }

    #[test]
    fn degenerate_constructors() {
        assert_eq!(Clustering::all_noise(3).num_clusters(), 0);
        let s = Clustering::singletons(3);
        assert_eq!(s.num_clusters(), 3);
        assert_eq!(s.sizes(), vec![1, 1, 1]);
    }
}
