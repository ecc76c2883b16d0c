//! The variational materialization strategy (paper §3.2.3, Algorithm 1).
//!
//! Instead of storing samples of the original distribution, this strategy stores
//! a *sparser approximate factor graph*: Algorithm 1 draws N samples, estimates
//! the covariance matrix over variable pairs that co-occur in some factor (the
//! `NZ` set), and solves a log-determinant relaxation with an ℓ1/box constraint
//! controlled by the regularization parameter λ; every non-zero off-diagonal
//! entry of the resulting (inverse-covariance-like) matrix becomes one pairwise
//! factor of the approximate graph.  Inference after an update simply applies the
//! update to the approximate graph and runs Gibbs sampling on it — which is fast
//! when λ made the graph sparse (Figure 5c), at a small, λ-controlled cost in
//! quality (Figure 6).
//!
//! Two solvers are provided:
//!
//! * [`VariationalOptions::exact_solver_max_vars`] ≥ n: a dense projected
//!   gradient-ascent solver for `max log det X` subject to `X_kk = M_kk + 1/3`,
//!   `|X_kj − M_kj| ≤ λ`, `X_kj = 0` outside NZ (the literal Algorithm 1);
//! * otherwise a scalable per-edge approximation that inverts each 2×2
//!   covariance block and soft-thresholds the off-diagonal by λ.  It preserves
//!   the property the tradeoff study relies on — larger λ ⇒ fewer factors ⇒
//!   faster inference, at some quality cost — at O(|NZ|) cost.
//!
//! In both cases the approximate graph also carries per-variable unary factors
//! derived from the sample means, so single-variable marginals of the original
//! distribution are preserved before any update is applied.

use crate::change::DistributionChange;
use crate::gibbs::{GibbsOptions, GibbsSampler, SampleSet};
use crate::marginals::Marginals;
use dd_factorgraph::{Factor, FactorGraph, VarId, Weight};
use std::collections::{HashMap, HashSet};

/// Options for the variational materialization.
#[derive(Debug, Clone)]
pub struct VariationalOptions {
    /// Burn-in sweeps before collecting covariance samples.
    pub burn_in: usize,
    /// Regularization parameter λ controlling sparsity (§3.2.3, Figure 6).
    pub lambda: f64,
    /// Use the dense exact log-det solver when the graph has at most this many
    /// query variables; otherwise use the per-edge approximation.
    pub exact_solver_max_vars: usize,
}

impl Default for VariationalOptions {
    fn default() -> Self {
        VariationalOptions {
            burn_in: 100,
            lambda: 0.01,
            exact_solver_max_vars: 120,
        }
    }
}

/// Iterations of projected gradient ascent for the exact solver.
const SOLVER_ITERATIONS: usize = 60;

/// The stored approximate factor graph.
#[derive(Debug, Clone)]
pub struct VariationalMaterialization {
    approx_graph: FactorGraph,
    /// Number of pairwise factors retained (the quantity Figure 6 plots).
    pairwise_factors: usize,
    /// Number of candidate pairs (|NZ|) before sparsification.
    candidate_pairs: usize,
    lambda: f64,
}

impl VariationalMaterialization {
    /// Run Algorithm 1 on `samples`, worlds drawn from `graph` (line 1 of the
    /// algorithm: [`GibbsSampler::draw_samples`]).  The engine shares one
    /// Gibbs run between the sampling and variational materializations, as
    /// §3.3 prescribes: "Both approaches need samples from the original
    /// factor graph, and this is the dominant cost during materialization".
    ///
    /// The approximation covers the sample set's columns — the variables of
    /// the graph's sampled components; the others are enumerated exactly
    /// wherever the approximation would be read.  Without a column there is
    /// nothing to approximate, and the approximate graph is empty.
    pub fn from_samples(
        graph: &FactorGraph,
        samples: &SampleSet,
        options: &VariationalOptions,
    ) -> Self {
        let query: &[VarId] = samples.columns();
        // Dense column index by variable id (`NOT_QUERY` for the others).
        const NOT_QUERY: usize = usize::MAX;
        let mut index_of = vec![NOT_QUERY; graph.num_variables()];
        for (i, &v) in query.iter().enumerate() {
            index_of[v] = i;
        }

        // Line 2: NZ = pairs of columns co-occurring in some factor (none
        // without columns: the factors need not be walked).
        let mut nz: HashSet<(usize, usize)> = HashSet::new();
        let factors = if query.is_empty() {
            &[][..]
        } else {
            graph.factors()
        };
        for f in factors {
            let vars: Vec<usize> = f
                .variables()
                .into_iter()
                .map(|v| index_of[v])
                .filter(|&i| i != NOT_QUERY)
                .collect();
            for i in 0..vars.len() {
                for j in (i + 1)..vars.len() {
                    let (a, b) = (vars[i].min(vars[j]), vars[i].max(vars[j]));
                    if a != b {
                        nz.insert((a, b));
                    }
                }
            }
        }

        // Line 3: means from the arena's word-level column counts, and the
        // covariance matrix restricted to NZ from the two variables' sample
        // columns: E[xa·xb] is the popcount of their AND.  Only columns in
        // some NZ pair are extracted.
        let n_samples = samples.len().max(1) as f64;
        let means: Vec<f64> = samples
            .column_counts()
            .into_iter()
            .map(|count| count as f64 / n_samples)
            .collect();
        let mut columns: Vec<Option<Vec<u64>>> = vec![None; query.len()];
        for &(a, b) in &nz {
            for q in [a, b] {
                columns[q].get_or_insert_with(|| samples.column(q));
            }
        }
        let column = |q: usize| columns[q].as_deref().expect("extracted above");
        let mut cov: HashMap<(usize, usize), f64> = HashMap::new();
        for &(a, b) in &nz {
            let both: u32 = column(a)
                .iter()
                .zip(column(b))
                .map(|(x, y)| (x & y).count_ones())
                .sum();
            cov.insert((a, b), f64::from(both) / n_samples - means[a] * means[b]);
        }
        let variances: Vec<f64> = means.iter().map(|&m| m * (1.0 - m)).collect();

        // Line 4: estimate the sparse coupling matrix Xhat.
        let couplings = if query.len() <= options.exact_solver_max_vars && !query.is_empty() {
            exact_logdet_couplings(&variances, &cov, &nz, options.lambda)
        } else {
            blockwise_couplings(&variances, &cov, &nz, options.lambda)
        };

        // Lines 5-7: build the approximate graph — same variables, new factors.
        let mut approx = if query.is_empty() {
            FactorGraph::new()
        } else {
            graph.variables_only()
        };
        // Unary factors from the sample means preserve original marginals.
        for (qi, &v) in query.iter().enumerate() {
            let p = means[qi].clamp(1e-3, 1.0 - 1e-3);
            let w = approx.add_weight(Weight::fixed(0, (p / (1.0 - p)).ln(), "var:unary"));
            approx.add_factor(Factor::is_true(w, v));
        }
        let mut pairwise = 0usize;
        for ((a, b), x) in couplings {
            if x.abs() < 1e-9 {
                continue;
            }
            let w = approx.add_weight(Weight::fixed(0, x, "var:pairwise"));
            approx.add_factor(Factor::equal(w, query[a], query[b]));
            pairwise += 1;
        }

        VariationalMaterialization {
            approx_graph: approx,
            pairwise_factors: pairwise,
            candidate_pairs: nz.len(),
            lambda: options.lambda,
        }
    }

    /// Rebuild a materialization from its stored parts, exactly (checkpoint
    /// codec access — pairs with the accessors below).
    pub fn from_parts(
        approx_graph: FactorGraph,
        pairwise_factors: usize,
        candidate_pairs: usize,
        lambda: f64,
    ) -> Self {
        VariationalMaterialization {
            approx_graph,
            pairwise_factors,
            candidate_pairs,
            lambda,
        }
    }

    /// The approximate graph (for inspection and tests).
    pub fn approx_graph(&self) -> &FactorGraph {
        &self.approx_graph
    }

    /// Number of pairwise factors retained.
    pub fn num_pairwise_factors(&self) -> usize {
        self.pairwise_factors
    }

    /// Number of candidate pairs before sparsification (|NZ|).
    pub fn num_candidate_pairs(&self) -> usize {
        self.candidate_pairs
    }

    /// The λ used.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Fraction of candidate pairs kept: 1.0 means no sparsification happened.
    pub fn retention(&self) -> f64 {
        if self.candidate_pairs == 0 {
            0.0
        } else {
            self.pairwise_factors as f64 / self.candidate_pairs as f64
        }
    }

    /// Incremental inference (§3.2.3): apply the update to the approximate
    /// graph and run Gibbs sampling on the result.
    ///
    /// `updated` is the model's graph now and `change` what changed since
    /// this approximation was taken — the same pair
    /// [`crate::SampleMaterialization::infer`] reads.  The graph sampled is
    /// `updated`'s variables (current roles, every variable added since),
    /// the approximation's weights and factors, then the model's weights and
    /// each of the change's new factors tied to its model weight.  The ids
    /// line up as long as `updated` only grew since materialization.  A
    /// model weight that changed is not an edit of the approximation's
    /// weights: it reaches the result only through the new factors.  The
    /// result is sampled on `seed`.
    pub fn infer(
        &self,
        updated: &FactorGraph,
        change: &DistributionChange,
        options: &GibbsOptions,
        seed: u64,
    ) -> Marginals {
        let mut g = updated.variables_only();
        for w in self.approx_graph.weights() {
            g.add_weight(w.clone());
        }
        for f in self.approx_graph.factors() {
            g.add_factor(f.clone());
        }
        let model_weights = g.num_weights();
        for w in updated.weights() {
            g.add_weight(w.clone());
        }
        for &f in &change.new_factors {
            let mut factor = updated.factor(f).clone();
            factor.weight_id += model_weights;
            g.add_factor(factor);
        }
        GibbsSampler::new(&g, seed).run(options)
    }
}

/// Per-edge 2×2 block approximation with soft-thresholding by λ.
fn blockwise_couplings(
    variances: &[f64],
    cov: &HashMap<(usize, usize), f64>,
    nz: &HashSet<(usize, usize)>,
    lambda: f64,
) -> Vec<((usize, usize), f64)> {
    let mut out = Vec::new();
    for &(a, b) in nz {
        let c = cov.get(&(a, b)).copied().unwrap_or(0.0);
        // soft-threshold the covariance by λ (the ℓ1/box constraint)
        let shrunk = if c > lambda {
            c - lambda
        } else if c < -lambda {
            c + lambda
        } else {
            0.0
        };
        if shrunk == 0.0 {
            continue;
        }
        // Invert the regularized 2×2 block [[σa²+1/3, c],[c, σb²+1/3]].
        let saa = variances[a] + 1.0 / 3.0;
        let sbb = variances[b] + 1.0 / 3.0;
        let det = saa * sbb - shrunk * shrunk;
        if det <= 1e-9 {
            continue;
        }
        // Precision off-diagonal is −c/det; a positive correlation therefore
        // corresponds to a positive "Equal" coupling weight of c/det.
        let coupling = shrunk / det;
        out.push(((a, b), coupling));
    }
    out.sort_by_key(|&((a, b), _)| (a, b));
    out
}

/// Dense projected-gradient solver for Algorithm 1's optimization problem,
/// returning the retained off-diagonal couplings.
fn exact_logdet_couplings(
    variances: &[f64],
    cov: &HashMap<(usize, usize), f64>,
    nz: &HashSet<(usize, usize)>,
    lambda: f64,
) -> Vec<((usize, usize), f64)> {
    let n = variances.len();
    if n == 0 {
        return Vec::new();
    }
    // X starts at the (feasible) diagonal matrix.
    let mut x = vec![0.0f64; n * n];
    for i in 0..n {
        x[i * n + i] = variances[i] + 1.0 / 3.0;
    }
    let mut step = 0.05;
    for _ in 0..SOLVER_ITERATIONS {
        let Some(inv) = invert_spd(&x, n) else { break };
        // gradient of log det X is X^{-1}; ascend and project.
        let mut candidate = x.clone();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue; // diagonal is fixed by the constraint
                }
                let (a, b) = (i.min(j), i.max(j));
                if !nz.contains(&(a, b)) {
                    continue; // stays exactly zero
                }
                let m = cov.get(&(a, b)).copied().unwrap_or(0.0);
                let updated = candidate[i * n + j] + step * inv[i * n + j];
                candidate[i * n + j] = updated.clamp(m - lambda, m + lambda);
            }
        }
        // keep symmetry
        for i in 0..n {
            for j in (i + 1)..n {
                let s = 0.5 * (candidate[i * n + j] + candidate[j * n + i]);
                candidate[i * n + j] = s;
                candidate[j * n + i] = s;
            }
        }
        if invert_spd(&candidate, n).is_some() {
            x = candidate;
        } else {
            step *= 0.5;
            if step < 1e-6 {
                break;
            }
        }
    }
    // Convert X̂ (a covariance-like matrix) into precision-style couplings by
    // inverting once more; the retained off-diagonals become factors.
    let precision = invert_spd(&x, n);
    let mut out = Vec::new();
    for &(a, b) in nz {
        let value = match &precision {
            Some(p) => -p[a * n + b],
            None => {
                // fall back to the block estimate for this edge
                let c = x[a * n + b];
                let det = x[a * n + a] * x[b * n + b] - c * c;
                if det <= 1e-9 {
                    0.0
                } else {
                    c / det
                }
            }
        };
        // Edges whose optimal X entry collapsed to (near) zero are dropped — this
        // is where λ produces sparsity.
        if x[a * n + b].abs() > 1e-6 && value.abs() > 1e-6 {
            out.push(((a, b), value));
        }
    }
    out.sort_by_key(|&((a, b), _)| (a, b));
    out
}

/// Cholesky-based inverse of a symmetric positive-definite matrix stored
/// row-major.  Returns `None` if the matrix is not positive definite.
fn invert_spd(m: &[f64], n: usize) -> Option<Vec<f64>> {
    // Cholesky decomposition m = L Lᵀ.
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = m[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return None;
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    // Invert L (lower triangular).
    let mut linv = vec![0.0f64; n * n];
    for i in 0..n {
        linv[i * n + i] = 1.0 / l[i * n + i];
        for j in 0..i {
            let mut sum = 0.0;
            for k in j..i {
                sum -= l[i * n + k] * linv[k * n + j];
            }
            linv[i * n + j] = sum / l[i * n + i];
        }
    }
    // m^{-1} = Lᵀ^{-1} L^{-1} = linvᵀ · linv.
    let mut inv = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut sum = 0.0;
            for k in i.max(j)..n {
                sum += linv[k * n + i] * linv[k * n + j];
            }
            inv[i * n + j] = sum;
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_factorgraph::{Factor, FactorGraphBuilder, Variable};

    fn chain(n: usize, coupling: f64) -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(n);
        let wp = b.tied_weight("prior", 0.4, false);
        let wc = b.tied_weight("couple", coupling, false);
        b.add_factor(Factor::is_true(wp, vs[0]));
        for i in 1..n {
            b.add_factor(Factor::equal(wc, vs[i - 1], vs[i]));
        }
        b.build()
    }

    /// Algorithm 1 over `n` worlds drawn from `g` on seed 19, with a column
    /// for every query variable (these graphs are small enough to
    /// enumerate, so a default sampler would store none).
    fn materialize(
        g: &FactorGraph,
        n: usize,
        options: &VariationalOptions,
    ) -> VariationalMaterialization {
        let samples = GibbsSampler::new(g, 19)
            .with_free_vars(g.query_variables())
            .draw_samples(n, options.burn_in);
        VariationalMaterialization::from_samples(g, &samples, options)
    }

    #[test]
    fn without_columns_the_approximation_is_empty() {
        let g = chain(6, 1.0);
        let samples = GibbsSampler::new(&g, 19).draw_samples(300, 10);
        assert!(samples.columns().is_empty());
        let mat = VariationalMaterialization::from_samples(&g, &samples, &Default::default());
        assert_eq!(mat.approx_graph().num_variables(), 0);
        assert_eq!(mat.approx_graph().num_factors(), 0);
        assert_eq!(mat.num_candidate_pairs(), 0);
    }

    #[test]
    fn invert_spd_matches_identity() {
        let m = vec![2.0, 0.5, 0.5, 1.0];
        let inv = invert_spd(&m, 2).unwrap();
        // m * inv = I
        for i in 0..2 {
            for j in 0..2 {
                let mut s = 0.0;
                for k in 0..2 {
                    s += m[i * 2 + k] * inv[k * 2 + j];
                }
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((s - expected).abs() < 1e-9);
            }
        }
        // non-PSD rejected
        assert!(invert_spd(&[1.0, 2.0, 2.0, 1.0], 2).is_none());
    }

    #[test]
    fn approx_graph_has_unary_and_pairwise_factors() {
        let g = chain(6, 1.0);
        let mat = materialize(
            &g,
            400,
            &VariationalOptions {
                lambda: 0.001,
                ..Default::default()
            },
        );
        assert_eq!(mat.approx_graph().num_variables(), 6);
        // 5 chain edges are candidates
        assert_eq!(mat.num_candidate_pairs(), 5);
        assert!(mat.num_pairwise_factors() > 0);
        assert!(mat.num_pairwise_factors() <= 5);
    }

    #[test]
    fn larger_lambda_gives_sparser_graph() {
        let g = chain(10, 0.4);
        let count = |lambda: f64| {
            materialize(
                &g,
                300,
                &VariationalOptions {
                    lambda,
                    exact_solver_max_vars: 0, // force the scalable solver
                    ..Default::default()
                },
            )
            .num_pairwise_factors()
        };
        let dense = count(0.0001);
        let sparse = count(0.2);
        assert!(
            dense >= sparse,
            "λ=0.0001 kept {dense}, λ=0.2 kept {sparse}"
        );
        assert!(sparse < 10);
    }

    #[test]
    fn approximate_marginals_track_original_for_small_lambda() {
        let g = chain(5, 0.8);
        let mat = materialize(
            &g,
            1500,
            &VariationalOptions {
                lambda: 0.005,
                ..Default::default()
            },
        );
        let approx = GibbsSampler::new(&mat.approx_graph, 5).run(&GibbsOptions::new(3000, 300));
        for v in 0..5 {
            let exact = g.exact_marginal(v);
            assert!(
                (approx.get(v) - exact).abs() < 0.12,
                "var {v}: approx {} vs exact {}",
                approx.get(v),
                exact
            );
        }
    }

    #[test]
    fn a_new_factor_reads_its_model_weight() {
        // A factor grounded since materialization, tied to an existing model
        // weight of +5 over a new variable: the sampled graph must price it
        // with that model weight, not with the approximation's weight of the
        // same id.
        let mut g = chain(5, 0.6);
        let strong = g.add_weight(Weight::fixed(0, 5.0, "strong"));
        let mat = materialize(&g, 500, &VariationalOptions::default());
        assert!(
            strong < mat.approx_graph().num_weights(),
            "the model's id also names an approximation weight"
        );
        let mut updated = g.clone();
        let v = updated.add_variable(Variable::query(0));
        let f = updated.add_factor(Factor::is_true(strong, v));
        let change = DistributionChange {
            new_variables: vec![v],
            new_factors: vec![f],
            ..Default::default()
        };
        let m = mat.infer(&updated, &change, &GibbsOptions::new(1500, 200), 9);
        assert_eq!(m.len(), 6);
        assert!(m.get(5) >= 0.95, "new variable at {}", m.get(5));
    }

    #[test]
    fn exact_and_block_solvers_agree_on_sign() {
        let g = chain(4, 1.5);
        let exact = materialize(
            &g,
            800,
            &VariationalOptions {
                lambda: 0.01,
                exact_solver_max_vars: 100,
                ..Default::default()
            },
        );
        let block = materialize(
            &g,
            800,
            &VariationalOptions {
                lambda: 0.01,
                exact_solver_max_vars: 0,
                ..Default::default()
            },
        );
        // Both should keep positive couplings for a positively-coupled chain.
        let positive = |m: &VariationalMaterialization| {
            m.approx_graph()
                .weights()
                .iter()
                .filter(|w| w.description == "var:pairwise")
                .all(|w| w.value > 0.0)
        };
        assert!(positive(&exact));
        assert!(positive(&block));
    }

    #[test]
    fn retention_reports_fraction() {
        let g = chain(6, 0.4);
        let mat = materialize(
            &g,
            500,
            &VariationalOptions {
                lambda: 10.0, // absurdly large λ kills every edge
                exact_solver_max_vars: 0,
                ..Default::default()
            },
        );
        assert_eq!(mat.num_pairwise_factors(), 0);
        assert_eq!(mat.retention(), 0.0);
    }
}
