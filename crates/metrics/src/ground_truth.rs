//! Ground-truth-based quality measures: NMI, Purity, F1.
//!
//! All measures are computed over the nodes that are non-noise in **both**
//! partitions (the paper filters sub-3-node clusters as noise before
//! scoring).

use crate::{Clustering, NOISE};

/// `(counts[ij], row_sums, col_sums, n)` of a contingency table.
type Contingency = (std::collections::BTreeMap<(u32, u32), f64>, Vec<f64>, Vec<f64>, f64);

/// Contingency table between two clusterings restricted to mutually assigned
/// nodes.
fn contingency(found: &Clustering, truth: &Clustering) -> Contingency {
    let kf = found.num_clusters();
    let kt = truth.num_clusters();
    let mut counts = std::collections::BTreeMap::new();
    let mut rows = vec![0.0; kf];
    let mut cols = vec![0.0; kt];
    let mut n = 0.0;
    for v in 0..found.n().min(truth.n()) {
        let (a, b) = (found.label(v as u32), truth.label(v as u32));
        if a == NOISE || b == NOISE {
            continue;
        }
        *counts.entry((a, b)).or_insert(0.0) += 1.0;
        rows[a as usize] += 1.0;
        cols[b as usize] += 1.0;
        n += 1.0;
    }
    (counts, rows, cols, n)
}

/// Normalized Mutual Information with the Strehl & Ghosh (2002) geometric
/// normalization: `NMI = I(X; Y) / sqrt(H(X) · H(Y))` ∈ [0, 1].
///
/// Returns 0 when either partition carries no information (a single cluster
/// or no assigned nodes).
pub fn nmi(found: &Clustering, truth: &Clustering) -> f64 {
    let (counts, rows, cols, n) = contingency(found, truth);
    if n == 0.0 {
        return 0.0;
    }
    let mut mi = 0.0;
    for (&(a, b), &c) in &counts {
        let pij = c / n;
        let pi = rows[a as usize] / n;
        let pj = cols[b as usize] / n;
        if pij > 0.0 {
            mi += pij * (pij / (pi * pj)).ln();
        }
    }
    let h = |sums: &[f64]| -> f64 {
        sums.iter()
            .filter(|&&s| s > 0.0)
            .map(|&s| {
                let p = s / n;
                -p * p.ln()
            })
            .sum()
    };
    let (hx, hy) = (h(&rows), h(&cols));
    if hx <= 0.0 || hy <= 0.0 {
        return 0.0;
    }
    (mi / (hx * hy).sqrt()).clamp(0.0, 1.0)
}

/// Purity: each found cluster is credited with its majority ground-truth
/// label; `purity = (Σ_c max_t |c ∩ t|) / N` ∈ [0, 1].
pub fn purity(found: &Clustering, truth: &Clustering) -> f64 {
    let (counts, rows, _, n) = contingency(found, truth);
    if n == 0.0 {
        return 0.0;
    }
    let mut best = vec![0.0f64; rows.len()];
    for (&(a, _), &c) in &counts {
        best[a as usize] = best[a as usize].max(c);
    }
    best.iter().sum::<f64>() / n
}

/// Best-match average F1 (Yang & Leskovec 2015): the average of
/// (i) the mean over found clusters of the best F1 against any truth cluster
/// and (ii) the symmetric mean over truth clusters.
pub fn avg_f1(found: &Clustering, truth: &Clustering) -> f64 {
    let (counts, rows, cols, n) = contingency(found, truth);
    if n == 0.0 || rows.is_empty() || cols.is_empty() {
        return 0.0;
    }
    // f1[(a,b)] = 2|a∩b| / (|a| + |b|)
    let mut best_for_found = vec![0.0f64; rows.len()];
    let mut best_for_truth = vec![0.0f64; cols.len()];
    for (&(a, b), &c) in &counts {
        let f1 = 2.0 * c / (rows[a as usize] + cols[b as usize]);
        if f1 > best_for_found[a as usize] {
            best_for_found[a as usize] = f1;
        }
        if f1 > best_for_truth[b as usize] {
            best_for_truth[b as usize] = f1;
        }
    }
    // Weight by cluster size so empty-after-filter clusters don't distort.
    let mean_found: f64 = best_for_found.iter().zip(&rows).map(|(f, r)| f * r).sum::<f64>() / n;
    let mean_truth: f64 = best_for_truth.iter().zip(&cols).map(|(f, c)| f * c).sum::<f64>() / n;
    0.5 * (mean_found + mean_truth)
}

/// Adjusted Rand Index (Hubert & Arabie 1985): pair-counting agreement
/// corrected for chance; 1 for identical partitions, ≈0 for independent
/// ones, can be negative for adversarial ones.
pub fn ari(found: &Clustering, truth: &Clustering) -> f64 {
    let (counts, rows, cols, n) = contingency(found, truth);
    if n < 2.0 {
        return 0.0;
    }
    let c2 = |x: f64| x * (x - 1.0) / 2.0;
    let sum_ij: f64 = counts.values().map(|&c| c2(c)).sum();
    let sum_i: f64 = rows.iter().map(|&r| c2(r)).sum();
    let sum_j: f64 = cols.iter().map(|&c| c2(c)).sum();
    let expected = sum_i * sum_j / c2(n);
    let max_index = 0.5 * (sum_i + sum_j);
    if (max_index - expected).abs() < 1e-300 {
        // Degenerate case (e.g. both partitions all singletons): perfect
        // agreement scores 1, anything else 0 — the sklearn convention.
        return if (sum_ij - sum_i).abs() < 1e-12 && (sum_ij - sum_j).abs() < 1e-12 {
            1.0
        } else {
            0.0
        };
    }
    (sum_ij - expected) / (max_index - expected)
}

/// Pairwise F1: precision/recall over node pairs co-clustered in the found
/// vs. truth partitions.
pub fn pairwise_f1(found: &Clustering, truth: &Clustering) -> f64 {
    let (counts, rows, cols, n) = contingency(found, truth);
    if n == 0.0 {
        return 0.0;
    }
    let pairs = |x: f64| x * (x - 1.0) / 2.0;
    let tp: f64 = counts.values().map(|&c| pairs(c)).sum();
    let found_pairs: f64 = rows.iter().map(|&r| pairs(r)).sum();
    let truth_pairs: f64 = cols.iter().map(|&c| pairs(c)).sum();
    if found_pairs == 0.0 || truth_pairs == 0.0 || tp == 0.0 {
        return 0.0;
    }
    let precision = tp / found_pairs;
    let recall = tp / truth_pairs;
    2.0 * precision * recall / (precision + recall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perfect() -> (Clustering, Clustering) {
        let labels = [0u32, 0, 0, 1, 1, 1, 2, 2, 2];
        (Clustering::from_labels(&labels), Clustering::from_labels(&labels))
    }

    #[test]
    fn identical_partitions_score_one() {
        let (a, b) = perfect();
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-12);
        assert!((purity(&a, &b) - 1.0).abs() < 1e-12);
        assert!((avg_f1(&a, &b) - 1.0).abs() < 1e-12);
        assert!((pairwise_f1(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn label_permutation_is_invariant() {
        let truth = Clustering::from_labels(&[0, 0, 0, 1, 1, 1]);
        let permuted = Clustering::from_labels(&[7, 7, 7, 3, 3, 3]);
        assert!((nmi(&permuted, &truth) - 1.0).abs() < 1e-12);
        assert!((purity(&permuted, &truth) - 1.0).abs() < 1e-12);
        assert!((avg_f1(&permuted, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_cluster_has_zero_nmi() {
        let truth = Clustering::from_labels(&[0, 0, 1, 1]);
        let trivial = Clustering::from_labels(&[0, 0, 0, 0]);
        assert_eq!(nmi(&trivial, &truth), 0.0);
        // Purity of the trivial clustering is the largest class share.
        assert!((purity(&trivial, &truth) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn singletons_have_perfect_purity_but_poor_f1() {
        let truth = Clustering::from_labels(&[0, 0, 0, 1, 1, 1]);
        let single = Clustering::singletons(6);
        assert!((purity(&single, &truth) - 1.0).abs() < 1e-12);
        assert!(pairwise_f1(&single, &truth) < 0.01);
        assert!(avg_f1(&single, &truth) < 0.6);
    }

    #[test]
    fn noise_nodes_excluded() {
        let truth = Clustering::from_labels(&[0, 0, 1, 1, NOISE]);
        let found = Clustering::from_labels(&[0, 0, 1, 1, 0]);
        // Node 4 is noise in truth → ignored; scores are perfect.
        assert!((nmi(&found, &truth) - 1.0).abs() < 1e-12);
        assert!((purity(&found, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_half_scores_below_one() {
        let truth = Clustering::from_labels(&[0, 0, 0, 0, 1, 1, 1, 1]);
        let found = Clustering::from_labels(&[0, 0, 1, 1, 0, 0, 1, 1]);
        assert!(nmi(&found, &truth) < 0.1);
        assert!((purity(&found, &truth) - 0.5).abs() < 1e-12);
        assert!(pairwise_f1(&found, &truth) < 0.5);
    }

    #[test]
    fn empty_inputs() {
        let a = Clustering::all_noise(4);
        let b = Clustering::from_labels(&[0, 0, 1, 1]);
        assert_eq!(nmi(&a, &b), 0.0);
        assert_eq!(purity(&a, &b), 0.0);
        assert_eq!(avg_f1(&a, &b), 0.0);
        assert_eq!(pairwise_f1(&a, &b), 0.0);
    }

    #[test]
    fn ari_identical_and_independent() {
        let truth = Clustering::from_labels(&[0, 0, 0, 1, 1, 1, 2, 2, 2]);
        assert!((ari(&truth, &truth) - 1.0).abs() < 1e-12);
        // Round robin splits every true pair — worse than chance, so the
        // chance-corrected index goes negative (here exactly −1/3).
        let rr = Clustering::from_labels(&[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let score = ari(&rr, &truth);
        assert!(score < 0.0, "adversarial partition must be below chance, got {score}");
        assert!((score + 1.0 / 3.0).abs() < 1e-12);
        // Permuted labels stay perfect.
        let perm = Clustering::from_labels(&[5, 5, 5, 9, 9, 9, 1, 1, 1]);
        assert!((ari(&perm, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ari_degenerate_inputs() {
        // Single cluster vs itself: agreement is trivially perfect.
        let a = Clustering::from_labels(&[0, 0, 0, 0]);
        assert_eq!(ari(&a, &a), 1.0);
        // All singletons vs themselves: likewise (sklearn convention).
        let s = Clustering::singletons(4);
        assert_eq!(ari(&s, &s), 1.0);
        // Singletons vs one block: zero pair agreement possible → 0.
        assert_eq!(ari(&s, &a), 0.0);
        let noise = Clustering::all_noise(4);
        assert_eq!(ari(&noise, &a), 0.0);
    }

    #[test]
    fn finer_partition_monotonicity_sanity() {
        // Splitting a true cluster in half retains purity 1 but lowers F1.
        let truth = Clustering::from_labels(&[0, 0, 0, 0, 1, 1, 1, 1]);
        let split = Clustering::from_labels(&[0, 0, 2, 2, 1, 1, 3, 3]);
        assert!((purity(&split, &truth) - 1.0).abs() < 1e-12);
        assert!(avg_f1(&split, &truth) < 1.0);
        assert!(pairwise_f1(&split, &truth) < 1.0);
    }
}
