//! Vote storage and cluster-change monitoring — the paper's Section V-C
//! Remarks: *"Due to the 'local' feature of the update, we can maintain a
//! voting count (among Pyramids) for each level, each edge in real time.
//! This allows us to report changes on user specified nodes at a cost equal
//! to the reporting."*
//!
//! The votes kept current for extraction live in the cluster cache
//! ([`crate::cache`]), as [`EdgeBits`]. [`ClusterMonitor`] reports which
//! watched nodes saw a voting flip on an incident edge by re-reading those
//! edges' votes from the index when polled.

use anc_graph::{EdgeId, Graph, NodeId};

use crate::pyramid::Pyramids;

/// A packed edge bitset (one bit per [`EdgeId`], 64 edges per word) — the
/// storage behind the cluster cache's voted-edge set.
#[derive(Clone, Debug, Default)]
pub struct EdgeBits {
    words: Vec<u64>,
    len: usize,
}

impl EdgeBits {
    /// A bitset over `len` edges, all bits clear.
    pub fn with_len(len: usize) -> Self {
        Self { words: vec![0u64; len.div_ceil(64)], len }
    }

    /// Number of edges covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset covers zero edges.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit for edge `e`.
    #[inline]
    pub fn get(&self, e: EdgeId) -> bool {
        (self.words[e as usize / 64] >> (e % 64)) & 1 != 0
    }

    /// Sets the bit for edge `e` to `val`.
    #[inline]
    pub fn set(&mut self, e: EdgeId, val: bool) {
        let w = &mut self.words[e as usize / 64];
        let mask = 1u64 << (e % 64);
        if val {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Clears every bit.
    pub fn zero(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words (64 edges per word, edge `e` at word `e / 64`, bit
    /// `e % 64`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

/// Watches a set of nodes at one granularity level and reports, when
/// polled, which of them saw the vote `H_l` of an incident edge flip since
/// the last poll — the signal that their cluster may have changed.
///
/// Nothing is hooked into the engine: a poll re-reads the votes from the
/// index, so the report is exact (no false alarms, no misses) whatever moved
/// the index in between — single or batched activations, reinforcement
/// replays, a rebuild or a restore.
#[derive(Clone, Debug)]
pub struct ClusterMonitor {
    /// The watched nodes, sorted and deduplicated.
    nodes: Vec<NodeId>,
    /// `H_l` of every edge incident to a watched node at the last poll,
    /// node by node in adjacency order.
    votes: Vec<bool>,
    level: usize,
}

impl ClusterMonitor {
    /// Creates a monitor over `nodes` at granularity `level` and records
    /// their incident votes.
    pub fn new(g: &Graph, pyr: &Pyramids, nodes: &[NodeId], level: usize) -> Self {
        let mut nodes = nodes.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        let votes = nodes
            .iter()
            .flat_map(|&v| g.edges_of(v).map(move |(y, _)| pyr.same_cluster(v, y, level)))
            .collect();
        Self { nodes, votes, level }
    }

    /// Re-reads the watched nodes' incident votes and returns, sorted, the
    /// watched nodes with an incident edge whose vote differs from the last
    /// poll; the new votes become the baseline of the next poll.
    ///
    /// Cost: `Σ_{v ∈ watched} deg(v)` calls to [`Pyramids::same_cluster`] —
    /// independent of `n`, `m` and the updates since the last poll.
    pub fn poll(&mut self, g: &Graph, pyr: &Pyramids) -> Vec<NodeId> {
        let level = self.level;
        let mut votes = self.votes.iter_mut();
        let changed = self
            .nodes
            .iter()
            .copied()
            .filter(|&v| {
                let mut flipped = false;
                for (y, _) in g.edges_of(v) {
                    let now = pyr.same_cluster(v, y, level);
                    if let Some(was) = votes.next() {
                        flipped |= std::mem::replace(was, now) != now;
                    }
                }
                flipped
            })
            .collect();
        debug_assert!(votes.next().is_none(), "polled against a different graph");
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_graph::gen::paper_figure2;

    /// `H_l` of every edge at every level.
    fn all_votes(g: &Graph, pyr: &Pyramids) -> Vec<Vec<bool>> {
        (0..pyr.num_levels())
            .map(|l| g.iter_edges().map(|(_, u, v)| pyr.same_cluster(u, v, l)).collect())
            .collect()
    }

    #[test]
    fn poll_reports_exactly_the_watched_endpoints_of_flipped_edges() {
        let (g, mut w) = paper_figure2();
        let mut pyr = Pyramids::build(&g, &w, 2, 0.7, 42);
        let levels = pyr.num_levels();
        // Odd nodes plus a repeat: the watch list is deduplicated.
        let odd: Vec<NodeId> = (1..g.n() as NodeId).step_by(2).collect();
        let watched: Vec<NodeId> = odd.iter().copied().chain([1]).collect();
        let mut monitors: Vec<_> =
            (0..levels).map(|l| ClusterMonitor::new(&g, &pyr, &watched, l)).collect();
        let mut before = all_votes(&g, &pyr);
        let (mut reported, mut quiet) = (0, 0);
        let changes: &[(u32, u32, f64)] =
            &[(5, 6, 0.5), (1, 3, 9.0), (7, 8, 0.1), (7, 8, 12.0), (9, 10, 1.0)];
        for &(a, b, new_w) in changes {
            let e = g.edge_id(a - 1, b - 1).unwrap();
            let old = w[e as usize];
            w[e as usize] = new_w;
            let _ = pyr.on_weight_change(&g, &w, e, old);
            let after = all_votes(&g, &pyr);
            for (l, mon) in monitors.iter_mut().enumerate() {
                let mut want: Vec<NodeId> = g
                    .iter_edges()
                    .filter(|&(e, _, _)| before[l][e as usize] != after[l][e as usize])
                    .flat_map(|(_, u, v)| [u, v])
                    .filter(|x| odd.contains(x))
                    .collect();
                want.sort_unstable();
                want.dedup();
                let got = mon.poll(&g, &pyr);
                assert_eq!(got, want, "after ({a},{b})→{new_w}, level {l}");
                if !got.is_empty() {
                    reported += 1;
                    quiet += odd.len() - got.len();
                }
                assert!(mon.poll(&g, &pyr).is_empty(), "a repeat poll reports nothing");
            }
            before = after;
        }
        assert!(reported > 0, "some poll must report a flip");
        assert!(quiet > 0, "some poll that reports must leave a watched node out");
    }

    #[test]
    fn empty_watch_list_polls_to_empty() {
        let (g, mut w) = paper_figure2();
        let mut pyr = Pyramids::build(&g, &w, 2, 0.7, 42);
        let mut mon = ClusterMonitor::new(&g, &pyr, &[], 0);
        let e = g.edge_id(4, 6).unwrap();
        let old = w[e as usize];
        w[e as usize] = 0.0001;
        let _ = pyr.on_weight_change(&g, &w, e, old);
        assert!(mon.poll(&g, &pyr).is_empty());
    }
}
