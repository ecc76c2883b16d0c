//! Figure 14: lesion study of the decomposition optimization (Appendix B.1).
//!
//! Compares materializing and re-sampling the whole factor graph against
//! materializing each Algorithm-2 group independently, for a graph whose active
//! variables ("the interest area for the next iteration") separate the inactive
//! variables into many small groups.  The graph is compiled once, before
//! either timer: both rows time sampling only.
//!
//! Algorithm 2 itself lives here, beside the one figure that runs it.
//!
//! # Algorithm 2
//!
//! The developer can declare an "interest area": the relations they will work on
//! in the next iteration.  Variables in those relations are *active*; the rest
//! are *inactive*.  Conditioned on the active variables, the inactive variables
//! split into independent groups, and each group — together with the minimal set
//! of active variables it depends on — can be materialized separately.  Greedy
//! merging (line 4–6 of Algorithm 2) avoids materializing the same active
//! variable many times: two groups are merged whenever one group's active
//! boundary contains the other's.

use dd_bench::{print_table, secs, timed};
use dd_factorgraph::{Factor, FactorGraph, FactorGraphBuilder, VarId};
use dd_inference::{GibbsOptions, GibbsSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

pub fn run() {
    println!("# Figure 14 — decomposition with inactive variables");
    let (g, active) = block_graph(20, 20, 3);
    let groups = decompose(&g, &active);

    let gibbs = GibbsOptions::new(150, 30);
    let flat = g.compile();
    let (_, t_whole) = timed(|| GibbsSampler::from_flat(&flat, 5).run(&gibbs));
    let (_, t_grouped) = timed(|| {
        for group in &groups {
            let free = group.all_variables();
            let mut sampler = GibbsSampler::from_flat(&flat, 5).with_free_vars(free);
            let _ = sampler.run(&gibbs);
        }
    });

    print_table(
        "Materialization sampling cost: whole graph vs per-group",
        &["configuration", "groups", "time"],
        &[
            vec![
                "NoDecomposition (whole graph)".into(),
                "1".into(),
                secs(t_whole),
            ],
            vec![
                "Decomposition (Algorithm 2)".into(),
                groups.len().to_string(),
                secs(t_grouped),
            ],
        ],
    );
    println!(
        "Paper shape: per-group sampling is comparable or faster for feature/supervision\n\
         workloads because each group touches a fraction of the variables; the analysis\n\
         rule A1 sees little difference."
    );
}

/// `blocks` blocks of `block_size` variables and the active set: the first
/// variable of each block — every `block_size`-th — is in the developer's
/// interest area.  A block's inactive variables form a chain from its own
/// active variable, plus one random pairwise factor each within the block,
/// and its last one is tied to the next block's active variable.  Blocks
/// touch only through active variables, so Algorithm 2 finds one group per
/// block, and lines 4–6 merge the last block into its neighbour, whose
/// boundary contains the last block's.
fn block_graph(blocks: usize, block_size: usize, seed: u64) -> (FactorGraph, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<(VarId, VarId)> = Vec::new();
    for block in 0..blocks {
        let first = block * block_size;
        for v in first + 1..first + block_size {
            pairs.push((v - 1, v));
            let other = first + rng.gen_range(0..block_size);
            if other != v {
                pairs.push((v, other));
            }
        }
        if block + 1 < blocks {
            pairs.push((first + block_size - 1, first + block_size));
        }
    }
    let mut b = FactorGraphBuilder::new();
    b.add_query_variables(blocks * block_size);
    for (i, (x, y)) in pairs.into_iter().enumerate() {
        let w = b.tied_weight(&format!("pair:{i}"), rng.gen_range(-1.0..=1.0), false);
        b.add_factor(Factor::equal(w, x, y));
    }
    let active = (0..blocks * block_size)
        .map(|v| v % block_size == 0)
        .collect();
    (b.build(), active)
}

/// One group of Algorithm 2's output: inactive variables plus the active
/// variables conditioning on which they are independent of the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DecompositionGroup {
    inactive: Vec<VarId>,
    active_boundary: Vec<VarId>,
}

impl DecompositionGroup {
    /// All variables of the group (inactive ∪ boundary), the set a per-group
    /// sampler would materialize.
    fn all_variables(&self) -> Vec<VarId> {
        let mut v: BTreeSet<VarId> = self.inactive.iter().copied().collect();
        v.extend(self.active_boundary.iter().copied());
        v.into_iter().collect()
    }
}

/// Run Algorithm 2 on a factor graph given the set of active variables
/// (`active[v] == true` means variable `v` is active).
fn decompose(graph: &FactorGraph, active: &[bool]) -> Vec<DecompositionGroup> {
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
    fn the_figure_graph_decomposes_into_one_group_per_block() {
        let (g, active) = block_graph(20, 20, 3);
        let groups = decompose(&g, &active);
        assert_eq!(groups.len(), 19);
        // Every group but the merged last pair is one block and the active
        // variables at both of its ends.
        assert_eq!(groups[0].all_variables(), (0..=20).collect::<Vec<_>>());
        let sizes: Vec<usize> = groups.iter().map(|g| g.inactive.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 20 * 19);
        assert_eq!(sizes.iter().filter(|&&n| n == 19).count(), 18);
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
