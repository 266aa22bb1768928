//! Property tests for the quality metrics: axioms that must hold for any
//! partition pair (ranges, symmetry where applicable, permutation
//! invariance, self-agreement).

use anc_metrics::{avg_conductance, avg_f1, modularity, nmi, purity, Clustering};
use proptest::prelude::*;

fn labels_strategy() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (4usize..60).prop_flat_map(|n| {
        let a = prop::collection::vec(0u32..5, n);
        let b = prop::collection::vec(0u32..5, n);
        (a, b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ranges_and_self_agreement((a, b) in labels_strategy()) {
        let ca = Clustering::from_labels(&a);
        let cb = Clustering::from_labels(&b);
        for (name, v) in [
            ("nmi", nmi(&ca, &cb)),
            ("purity", purity(&ca, &cb)),
            ("avg_f1", avg_f1(&ca, &cb)),
        ] {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v), "{} = {} out of range", name, v);
        }
        // Self-agreement is maximal (when the partition is informative).
        if ca.num_clusters() >= 2 {
            prop_assert!((nmi(&ca, &ca) - 1.0).abs() < 1e-9);
            prop_assert!((avg_f1(&ca, &ca) - 1.0).abs() < 1e-9);
        }
        prop_assert!((purity(&ca, &ca) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nmi_is_symmetric((a, b) in labels_strategy()) {
        let ca = Clustering::from_labels(&a);
        let cb = Clustering::from_labels(&b);
        prop_assert!((nmi(&ca, &cb) - nmi(&cb, &ca)).abs() < 1e-9);
        prop_assert!((avg_f1(&ca, &cb) - avg_f1(&cb, &ca)).abs() < 1e-9);
    }

    #[test]
    fn permutation_invariance((a, b) in labels_strategy()) {
        let ca = Clustering::from_labels(&a);
        let cb = Clustering::from_labels(&b);
        // Relabel `a` through a fixed permutation of label ids.
        let perm: Vec<u32> = a.iter().map(|&l| (l * 7 + 3) % 11).collect();
        let cp = Clustering::from_labels(&perm);
        // The permutation map l → (7l+3) mod 11 is injective on 0..5, so cp
        // is the same partition as ca.
        prop_assert!((nmi(&cp, &cb) - nmi(&ca, &cb)).abs() < 1e-9);
        prop_assert!((purity(&cp, &cb) - purity(&ca, &cb)).abs() < 1e-9);
    }

    #[test]
    fn structural_metrics_bounded((a, _) in labels_strategy()) {
        let n = a.len();
        // A ring graph over the same node count.
        let edges: Vec<(u32, u32)> =
            (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        let g = anc_graph::Graph::from_edges(n, &edges);
        let c = Clustering::from_labels(&a);
        let q = modularity(&g, &c, |_| 1.0);
        prop_assert!((-1.0..=1.0).contains(&q), "modularity {}", q);
        let phi = avg_conductance(&g, &c, |_| 1.0);
        prop_assert!((0.0..=1.0).contains(&phi), "conductance {}", phi);
    }

    #[test]
    fn filter_small_only_removes((a, _) in labels_strategy()) {
        let c = Clustering::from_labels(&a);
        let f = c.filter_small(3);
        prop_assert!(f.num_clusters() <= c.num_clusters());
        prop_assert!(f.num_assigned() <= c.num_assigned());
        // Every surviving cluster has >= 3 members.
        prop_assert!(f.sizes().iter().all(|&s| s >= 3));
        // Nodes that survive keep their co-membership.
        for u in 0..f.n() as u32 {
            for v in 0..f.n() as u32 {
                if !f.is_noise(u) && !f.is_noise(v) {
                    prop_assert_eq!(
                        f.label(u) == f.label(v),
                        c.label(u) == c.label(v)
                    );
                }
            }
        }
    }
}
