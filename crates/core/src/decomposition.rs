//! Decomposition with inactive variables (paper Appendix B.1, Algorithm 2).
//!
//! The developer can declare an "interest area": the relations she will work on
//! in the next iteration.  Variables in those relations are *active*; the rest
//! are *inactive*.  Conditioned on the active variables, the inactive variables
//! split into independent groups, and each group — together with the minimal set
//! of active variables it depends on — can be materialized separately.  Greedy
//! merging (line 4–6 of Algorithm 2) avoids materializing the same active
//! variable many times: two groups are merged whenever one group's active
//! boundary contains the other's.

use dd_factorgraph::{FactorGraph, VarId};
use std::collections::BTreeSet;

/// One group of Algorithm 2's output: inactive variables plus the active
/// variables conditioning on which they are independent of the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompositionGroup {
    pub inactive: Vec<VarId>,
    pub active_boundary: Vec<VarId>,
}

impl DecompositionGroup {
    /// All variables of the group (inactive ∪ boundary), the set a per-group
    /// sampler would materialize.
    pub fn all_variables(&self) -> Vec<VarId> {
        let mut v: BTreeSet<VarId> = self.inactive.iter().copied().collect();
        v.extend(self.active_boundary.iter().copied());
        v.into_iter().collect()
    }
}

/// Run Algorithm 2 on a factor graph given the set of active variables
/// (`active[v] == true` means variable `v` is active).
pub fn decompose(graph: &FactorGraph, active: &[bool]) -> Vec<DecompositionGroup> {
    assert_eq!(active.len(), graph.num_variables());

    // Line 1: connected components of the graph restricted to inactive variables.
    let components = graph.components_excluding(&|v| active[v]);

    // Line 2: for each component, the minimal set of active variables adjacent to
    // it (conditioning on them separates the component from everything else).
    let mut groups: Vec<DecompositionGroup> = components
        .into_iter()
        .map(|inactive| {
            let mut boundary: BTreeSet<VarId> = BTreeSet::new();
            for &v in &inactive {
                for &f in graph.factors_of(v) {
                    for u in graph.factor(f).variables() {
                        if active[u] {
                            boundary.insert(u);
                        }
                    }
                }
            }
            DecompositionGroup {
                inactive,
                active_boundary: boundary.into_iter().collect(),
            }
        })
        .collect();

    // Lines 4–6: greedily merge groups whose combined boundary is no larger than
    // the bigger of the two (i.e. one boundary contains the other).
    let mut merged = true;
    while merged {
        merged = false;
        'outer: for i in 0..groups.len() {
            for j in (i + 1)..groups.len() {
                let a: BTreeSet<VarId> = groups[i].active_boundary.iter().copied().collect();
                let b: BTreeSet<VarId> = groups[j].active_boundary.iter().copied().collect();
                let union_size = a.union(&b).count();
                if union_size == a.len().max(b.len()) {
                    let other = groups.remove(j);
                    let target = &mut groups[i];
                    target.inactive.extend(other.inactive);
                    target.inactive.sort_unstable();
                    let boundary: BTreeSet<VarId> = a.union(&b).copied().collect();
                    target.active_boundary = boundary.into_iter().collect();
                    merged = true;
                    break 'outer;
                }
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_factorgraph::{Factor, FactorGraphBuilder};

    /// Chain v0 - v1 - v2 - v3 - v4 with v2 active: removing v2 splits the
    /// inactive variables into {v0, v1} and {v3, v4}, both with boundary {v2}.
    fn chain_graph() -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(5);
        let w = b.tied_weight("w", 1.0, false);
        for i in 1..5 {
            b.add_factor(Factor::equal(w, vs[i - 1], vs[i]));
        }
        b.build()
    }

    #[test]
    fn chain_splits_at_active_variable_and_merges_shared_boundary() {
        let g = chain_graph();
        let active = vec![false, false, true, false, false];
        let groups = decompose(&g, &active);
        // Both sides share the boundary {2}, so the greedy merge joins them.
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].inactive, vec![0, 1, 3, 4]);
        assert_eq!(groups[0].active_boundary, vec![2]);
        assert_eq!(groups[0].all_variables(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn disjoint_boundaries_stay_separate() {
        // Two disconnected pairs: (v0 - v1) and (v2 - v3); v1 and v2 active.
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(4);
        let w = b.tied_weight("w", 1.0, false);
        b.add_factor(Factor::equal(w, vs[0], vs[1]));
        b.add_factor(Factor::equal(w, vs[2], vs[3]));
        let g = b.build();
        let groups = decompose(&g, &[false, true, true, false]);
        assert_eq!(groups.len(), 2);
        let boundaries: Vec<Vec<VarId>> =
            groups.iter().map(|g| g.active_boundary.clone()).collect();
        assert!(boundaries.contains(&vec![1]));
        assert!(boundaries.contains(&vec![2]));
    }

    #[test]
    fn all_active_yields_no_groups() {
        let g = chain_graph();
        let groups = decompose(&g, &[true; 5]);
        assert!(groups.is_empty());
    }

    #[test]
    fn all_inactive_yields_single_component_per_connected_part() {
        let g = chain_graph();
        let groups = decompose(&g, &[false; 5]);
        assert_eq!(groups.len(), 1);
        assert!(groups[0].active_boundary.is_empty());
        assert_eq!(groups[0].inactive.len(), 5);
    }
}
