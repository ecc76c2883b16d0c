//! The five KBC systems and the six rule templates of the evaluation (§4.1).
//!
//! Figure 7 lists the systems (Adversarial, News, Genomics, Pharmacogenomics,
//! Paleontology) with their corpus sizes and factor-graph sizes; Figure 8 lists
//! the rule templates of News (A1 error analysis, FE1/FE2 feature extraction,
//! I1 inference, S1/S2 supervision).  Here each system is a scaled-down synthetic
//! corpus whose parameters (document count, text quality, relation ambiguity)
//! preserve the relative ordering of the real deployments, and the rule
//! templates are [`dd_grounding::KbcUpdate`]s that can be applied one by one to
//! simulate the development iterations of Figures 9 and 10(a).

use crate::corpus::{Corpus, CorpusConfig};
use dd_factorgraph::Semantics;
use dd_grounding::{parse_program, parse_rule, KbcUpdate, Program, Rule};
use dd_relstore::Tuple;
use std::collections::HashSet;

/// The five KBC systems of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    Adversarial,
    News,
    Genomics,
    Pharmacogenomics,
    Paleontology,
}

impl SystemKind {
    /// All systems, in the order of Figure 7.
    pub fn all() -> [SystemKind; 5] {
        [
            SystemKind::Adversarial,
            SystemKind::News,
            SystemKind::Genomics,
            SystemKind::Pharmacogenomics,
            SystemKind::Paleontology,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Adversarial => "Adversarial",
            SystemKind::News => "News",
            SystemKind::Genomics => "Genomics",
            SystemKind::Pharmacogenomics => "Pharmacogenomics",
            SystemKind::Paleontology => "Paleontology",
        }
    }

    /// The statistics the paper reports for the real deployment
    /// (documents, relations, rules, variables, factors) — Figure 7.
    pub fn paper_stats(self) -> PaperStats {
        match self {
            SystemKind::Adversarial => PaperStats::new(5_000_000, 1, 10, 0.1e9, 0.4e9),
            SystemKind::News => PaperStats::new(1_800_000, 34, 22, 0.2e9, 1.2e9),
            SystemKind::Genomics => PaperStats::new(200_000, 3, 15, 0.02e9, 0.1e9),
            SystemKind::Pharmacogenomics => PaperStats::new(600_000, 9, 24, 0.2e9, 1.2e9),
            SystemKind::Paleontology => PaperStats::new(300_000, 8, 29, 0.3e9, 0.4e9),
        }
    }

    /// The corpus configuration of the scaled-down synthetic equivalent.
    ///
    /// * document counts are proportional to the real corpora (÷ ~10⁴ at
    ///   `scale = 1.0`);
    /// * Adversarial gets heavy garbling (1–2 ungrammatical sentences per ad);
    /// * News gets moderate noise ("slightly degraded writing, ambiguous
    ///   relationships");
    /// * Genomics/Pharmacogenomics get precise text but ambiguous relations
    ///   (higher label noise);
    /// * Paleontology gets clean, precise text (low noise).
    pub fn corpus_config(self, scale: f64, seed: u64) -> CorpusConfig {
        let docs = |millions: f64| ((millions * 120.0 * scale).round() as usize).max(20);
        match self {
            SystemKind::Adversarial => CorpusConfig {
                num_documents: docs(5.0),
                num_entities: 80,
                num_true_pairs: 20,
                noise: 0.25,
                garble: 0.35,
                kb_coverage: 0.4,
                el_coverage: 0.8,
                seed,
            },
            SystemKind::News => CorpusConfig {
                num_documents: docs(1.8),
                num_entities: 60,
                num_true_pairs: 18,
                noise: 0.15,
                garble: 0.05,
                kb_coverage: 0.5,
                el_coverage: 0.9,
                seed,
            },
            SystemKind::Genomics => CorpusConfig {
                num_documents: docs(0.2),
                num_entities: 30,
                num_true_pairs: 8,
                noise: 0.2,
                garble: 0.0,
                kb_coverage: 0.5,
                el_coverage: 1.0,
                seed,
            },
            SystemKind::Pharmacogenomics => CorpusConfig {
                num_documents: docs(0.6),
                num_entities: 40,
                num_true_pairs: 12,
                noise: 0.18,
                garble: 0.0,
                kb_coverage: 0.5,
                el_coverage: 1.0,
                seed,
            },
            SystemKind::Paleontology => CorpusConfig {
                num_documents: docs(0.3),
                num_entities: 40,
                num_true_pairs: 12,
                noise: 0.05,
                garble: 0.0,
                kb_coverage: 0.6,
                el_coverage: 1.0,
                seed,
            },
        }
    }
}

/// Figure 7's per-system statistics for the real deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperStats {
    pub documents: usize,
    pub relations: usize,
    pub rules: usize,
    pub variables: f64,
    pub factors: f64,
}

impl PaperStats {
    fn new(documents: usize, relations: usize, rules: usize, variables: f64, factors: f64) -> Self {
        PaperStats {
            documents,
            relations,
            rules,
            variables,
            factors,
        }
    }
}

/// The six rule templates of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleTemplate {
    /// Error analysis: read marginals, change nothing.
    A1,
    /// Shallow NLP features (the phrase between the mentions).
    FE1,
    /// Deeper NLP features (mention-text pair).
    FE2,
    /// Inference rule: symmetry of HasSpouse.
    I1,
    /// Positive examples by distant supervision from the Married KB.
    S1,
    /// Negative examples from the largely-disjoint Sibling relation.
    S2,
}

impl RuleTemplate {
    /// All templates in the order of Figure 9's rows.
    pub fn all() -> [RuleTemplate; 6] {
        [
            RuleTemplate::A1,
            RuleTemplate::FE1,
            RuleTemplate::FE2,
            RuleTemplate::I1,
            RuleTemplate::S1,
            RuleTemplate::S2,
        ]
    }

    /// The order in which the development-iteration snapshots apply the rules
    /// (features first, then supervision, then the inference rule, then the
    /// analysis query) — the sequence behind Figure 10(a).
    pub fn development_order() -> [RuleTemplate; 6] {
        [
            RuleTemplate::FE1,
            RuleTemplate::FE2,
            RuleTemplate::S1,
            RuleTemplate::S2,
            RuleTemplate::I1,
            RuleTemplate::A1,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            RuleTemplate::A1 => "A1",
            RuleTemplate::FE1 => "FE1",
            RuleTemplate::FE2 => "FE2",
            RuleTemplate::I1 => "I1",
            RuleTemplate::S1 => "S1",
            RuleTemplate::S2 => "S2",
        }
    }

    /// Description matching Figure 8.
    pub fn description(self) -> &'static str {
        match self {
            RuleTemplate::A1 => "Calculate marginal probability for variables or variable pairs",
            RuleTemplate::FE1 => "Shallow NLP features (e.g. word sequence)",
            RuleTemplate::FE2 => "Deeper NLP features (e.g. dependency path)",
            RuleTemplate::I1 => "Inference rules (e.g. symmetrical HasSpouse)",
            RuleTemplate::S1 => "Positive examples",
            RuleTemplate::S2 => "Negative examples",
        }
    }

    /// The rule added by this template, under the given semantics.
    pub fn rule(self, semantics: Semantics) -> Rule {
        let text = match self {
            RuleTemplate::A1 => "rule A1 analysis: Marginal(m1, m2) :- MarriedMentions(m1, m2).",
            RuleTemplate::FE1 => {
                "rule FE1 feature: MarriedMentions(m1, m2) :- \
                 MarriedCandidate(m1, m2), PersonCandidate(s, m1, t1), \
                 PersonCandidate(s, m2, t2), Sentence(s, content) \
                 weight = phrase(t1, t2, content)."
            }
            RuleTemplate::FE2 => {
                "rule FE2 feature: MarriedMentions(m1, m2) :- \
                 MarriedCandidate(m1, m2), PersonCandidate(s, m1, t1), \
                 PersonCandidate(s, m2, t2) \
                 weight = concat(t1, t2)."
            }
            RuleTemplate::I1 => {
                "rule I1 inference: MarriedMentions(m2, m1) :- MarriedMentions(m1, m2) \
                 weight = 1.5."
            }
            RuleTemplate::S1 => {
                "rule S1 supervision+: MarriedMentions(m1, m2) :- \
                 MarriedCandidate(m1, m2), EL(m1, e1), EL(m2, e2), Married(e1, e2)."
            }
            RuleTemplate::S2 => {
                "rule S2 supervision-: MarriedMentions(m1, m2) :- \
                 MarriedCandidate(m1, m2), EL(m1, e1), EL(m2, e2), Sibling(e1, e2)."
            }
        };
        parse_rule(text)
            .expect("rule templates are well-formed")
            .with_semantics(semantics)
    }

    /// The [`KbcUpdate`] that adds this template's rule.
    pub fn update(self, semantics: Semantics) -> KbcUpdate {
        let mut u = KbcUpdate::new();
        match self {
            // A1 reads marginals; as an update it changes nothing.
            RuleTemplate::A1 => {}
            _ => {
                u.add_rule(self.rule(semantics));
            }
        }
        u
    }
}

/// A generated KBC system: program, loaded corpus, ground truth.
#[derive(Debug, Clone)]
pub struct KbcSystem {
    pub kind: SystemKind,
    pub corpus: Corpus,
    pub program: Program,
    pub semantics: Semantics,
}

impl KbcSystem {
    /// Generate a system at the given scale (1.0 ≈ a few hundred documents).
    pub fn generate(kind: SystemKind, scale: f64, seed: u64) -> KbcSystem {
        Self::generate_with_semantics(kind, scale, seed, Semantics::Ratio)
    }

    /// Generate with an explicit rule semantics (used by Figure 10(b)).
    pub fn generate_with_semantics(
        kind: SystemKind,
        scale: f64,
        seed: u64,
        semantics: Semantics,
    ) -> KbcSystem {
        let corpus = Corpus::generate(kind.corpus_config(scale, seed));
        KbcSystem {
            kind,
            corpus,
            program: Self::base_program(),
            semantics,
        }
    }

    /// The base program: relation declarations plus the candidate-mapping rule
    /// R1.  Features, supervision, and inference rules arrive as updates.
    pub fn base_program() -> Program {
        parse_program(
            r#"
            relation Sentence(s: int, content: text) base.
            relation PersonCandidate(s: int, m: int, t: text) base.
            relation EL(m: int, e: text) base.
            relation Married(e1: text, e2: text) base.
            relation Sibling(e1: text, e2: text) base.
            relation MarriedCandidate(m1: int, m2: int) derived.
            relation MarriedMentions(m1: int, m2: int) variable.

            rule R1 candidate:
              MarriedCandidate(m1, m2) :-
                PersonCandidate(s, m1, t1), PersonCandidate(s, m2, t2), m1 < m2.
            "#,
        )
        .expect("base program parses")
    }

    /// The ground-truth mention pairs.
    pub fn truth(&self) -> &HashSet<Tuple> {
        &self.corpus.truth
    }

    /// The development-iteration updates (Figure 10(a)'s six snapshots), in
    /// order, under this system's semantics.
    pub fn development_updates(&self) -> Vec<(RuleTemplate, KbcUpdate)> {
        RuleTemplate::development_order()
            .into_iter()
            .map(|t| (t, t.update(self.semantics)))
            .collect()
    }

    /// The update for one rule template under this system's semantics.
    pub fn template_update(&self, template: RuleTemplate) -> KbcUpdate {
        template.update(self.semantics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_grounding::RuleKind;

    #[test]
    fn paper_stats_match_figure_7() {
        let news = SystemKind::News.paper_stats();
        assert_eq!(news.documents, 1_800_000);
        assert_eq!(news.relations, 34);
        assert_eq!(news.rules, 22);
        assert_eq!(SystemKind::all().len(), 5);
        assert_eq!(SystemKind::Paleontology.name(), "Paleontology");
    }

    #[test]
    fn scaled_corpora_preserve_relative_sizes() {
        let sizes: Vec<usize> = SystemKind::all()
            .iter()
            .map(|k| k.corpus_config(1.0, 1).num_documents)
            .collect();
        // Adversarial (5M) > News (1.8M) > Pharma (0.6M) > Paleo (0.3M) > Genomics (0.2M)
        assert!(sizes[0] > sizes[1]);
        assert!(sizes[1] > sizes[3]);
        assert!(sizes[3] > sizes[4]);
        assert!(sizes[4] > sizes[2]);
    }

    #[test]
    fn adversarial_is_noisier_than_paleontology() {
        let adv = SystemKind::Adversarial.corpus_config(0.5, 1);
        let paleo = SystemKind::Paleontology.corpus_config(0.5, 1);
        assert!(adv.garble > paleo.garble);
        assert!(adv.noise > paleo.noise);
    }

    #[test]
    fn rule_templates_parse_and_classify() {
        for t in RuleTemplate::all() {
            let rule = t.rule(Semantics::Ratio);
            assert_eq!(rule.name, t.name());
            assert!(!t.description().is_empty());
        }
        assert_eq!(
            RuleTemplate::S2.rule(Semantics::Ratio).kind,
            RuleKind::Supervision
        );
        assert_eq!(
            RuleTemplate::I1.rule(Semantics::Logical).semantics,
            Semantics::Logical
        );
        // A1 is a no-op update
        assert!(RuleTemplate::A1.update(Semantics::Ratio).is_empty());
        assert!(!RuleTemplate::FE1.update(Semantics::Ratio).is_empty());
    }

    #[test]
    fn generated_system_is_consistent_with_its_program() {
        let sys = KbcSystem::generate(SystemKind::Genomics, 0.2, 9);
        assert!(sys.program.validate().is_ok());
        assert!(!sys.truth().is_empty());
        assert!(sys.corpus.database.table("Sentence").unwrap().len() >= 20);
        let updates = sys.development_updates();
        assert_eq!(updates.len(), 6);
        assert_eq!(updates[0].0, RuleTemplate::FE1);
        assert_eq!(updates[5].0, RuleTemplate::A1);
    }
}
