//! Synthetic corpus generation.
//!
//! The real corpora (1.8 M news articles, 5 M adversarial ads, …) cannot be
//! shipped, so this module plants a ground-truth knowledge base and generates
//! documents whose sentences mention entity pairs with either *indicative*
//! phrases ("and his wife") or *neutral* phrases ("met with"), plus noise and a
//! configurable text-quality level.  The resulting database has exactly the
//! schema of the paper's running example (Figure 2): `Sentence`,
//! `PersonCandidate`, `EL` (entity linking), `Married` (the incomplete KB used
//! for distant supervision), and `Sibling` (a largely-disjoint relation used to
//! generate negative examples, Example 2.4).

use dd_relstore::{DataType, Database, Schema, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Parameters of the synthetic corpus.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of documents (one sentence with one mention pair each).
    pub num_documents: usize,
    /// Number of distinct entities.
    pub num_entities: usize,
    /// Number of truly married entity pairs planted in the ground truth.
    pub num_true_pairs: usize,
    /// Fraction of true pairs present in the (incomplete) `Married` KB used for
    /// distant supervision.
    pub kb_coverage: f64,
    /// Probability that a sentence about a true pair uses a neutral phrase (and
    /// vice versa) — label noise.
    pub noise: f64,
    /// Probability that a sentence is garbled (phrase replaced by junk tokens),
    /// modelling the low text quality of the Adversarial corpus.
    pub garble: f64,
    /// Fraction of mentions that get an entity-linking record.
    pub el_coverage: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            num_documents: 200,
            num_entities: 40,
            num_true_pairs: 12,
            kb_coverage: 0.5,
            noise: 0.1,
            garble: 0.0,
            el_coverage: 1.0,
            seed: 42,
        }
    }
}

/// Indicative phrases correlated with the HasSpouse relation.
pub const INDICATIVE_PHRASES: &[&str] = &[
    "and his wife",
    "and her husband",
    "married",
    "is the spouse of",
    "wed",
];

/// Neutral phrases uncorrelated with the relation.
pub const NEUTRAL_PHRASES: &[&str] = &[
    "met with",
    "talked to",
    "works with",
    "attended a dinner with",
    "was photographed near",
];

/// A generated corpus: the loaded database plus the planted ground truth.
#[derive(Debug, Clone)]
pub struct Corpus {
    pub database: Database,
    /// Ground-truth mention pairs `(m1, m2)` that really are married.
    pub truth: HashSet<Tuple>,
    /// Ground-truth entity pairs.
    pub true_entity_pairs: HashSet<(usize, usize)>,
    pub config: CorpusConfig,
}

impl Corpus {
    /// Generate a corpus.
    pub fn generate(config: CorpusConfig) -> Corpus {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut db = Database::new();
        db.create_table(
            "Sentence",
            Schema::of(&[("s", DataType::Int), ("content", DataType::Text)]),
        )
        .expect("fresh database");
        db.create_table(
            "PersonCandidate",
            Schema::of(&[
                ("s", DataType::Int),
                ("m", DataType::Int),
                ("t", DataType::Text),
            ]),
        )
        .expect("fresh database");
        db.create_table(
            "EL",
            Schema::of(&[("m", DataType::Int), ("e", DataType::Text)]),
        )
        .expect("fresh database");
        db.create_table(
            "Married",
            Schema::of(&[("e1", DataType::Text), ("e2", DataType::Text)]),
        )
        .expect("fresh database");
        db.create_table(
            "Sibling",
            Schema::of(&[("e1", DataType::Text), ("e2", DataType::Text)]),
        )
        .expect("fresh database");

        // Plant the ground-truth entity pairs (disjoint pairs 2k, 2k+1 …).  The
        // construction iterates these lists while drawing random numbers, so they
        // are kept in a deterministic order.
        let mut true_pairs_vec: Vec<(usize, usize)> = Vec::new();
        let mut k = 0usize;
        while true_pairs_vec.len() < config.num_true_pairs && 2 * k + 1 < config.num_entities {
            true_pairs_vec.push((2 * k, 2 * k + 1));
            k += 1;
        }
        // Sibling pairs: disjoint from the married pairs (offset by one).
        let mut sibling_pairs: Vec<(usize, usize)> = Vec::new();
        let mut j = 0usize;
        while sibling_pairs.len() < config.num_true_pairs / 2 && 2 * j + 2 < config.num_entities {
            sibling_pairs.push((2 * j + 1, 2 * j + 2));
            j += 2;
        }
        let true_entity_pairs: HashSet<(usize, usize)> = true_pairs_vec.iter().copied().collect();

        // Distant-supervision KB: an incomplete slice of the true pairs.
        for &(a, b) in &true_pairs_vec {
            if rng.gen::<f64>() < config.kb_coverage {
                db.insert(
                    "Married",
                    Tuple::new(vec![
                        Value::text(entity_name(a)),
                        Value::text(entity_name(b)),
                    ]),
                )
                .expect("schema matches");
            }
        }
        for &(a, b) in &sibling_pairs {
            db.insert(
                "Sibling",
                Tuple::new(vec![
                    Value::text(entity_name(a)),
                    Value::text(entity_name(b)),
                ]),
            )
            .expect("schema matches");
        }

        // Documents.
        let mut truth: HashSet<Tuple> = HashSet::new();
        for doc in 0..config.num_documents {
            let s = doc as i64;
            // Half the documents talk about a true pair, half about a random pair.
            let (e1, e2, is_true) = if !true_pairs_vec.is_empty() && rng.gen::<f64>() < 0.5 {
                let &(a, b) = &true_pairs_vec[rng.gen_range(0..true_pairs_vec.len())];
                (a, b, true)
            } else {
                let a = rng.gen_range(0..config.num_entities);
                let mut b = rng.gen_range(0..config.num_entities);
                if b == a {
                    b = (a + 1) % config.num_entities;
                }
                let canonical = (a.min(b), a.max(b));
                (a, b, true_entity_pairs.contains(&canonical))
            };
            let m1 = (2 * doc) as i64;
            let m2 = (2 * doc + 1) as i64;

            // Choose the connecting phrase.
            let use_indicative = if is_true {
                rng.gen::<f64>() >= config.noise
            } else {
                rng.gen::<f64>() < config.noise
            };
            let phrase = if rng.gen::<f64>() < config.garble {
                format!("zzz{} qqq", rng.gen_range(0..5))
            } else if use_indicative {
                INDICATIVE_PHRASES[rng.gen_range(0..INDICATIVE_PHRASES.len())].to_string()
            } else {
                NEUTRAL_PHRASES[rng.gen_range(0..NEUTRAL_PHRASES.len())].to_string()
            };

            let t1 = entity_mention_text(e1, m1);
            let t2 = entity_mention_text(e2, m2);
            let content = format!("{t1} {phrase} {t2}");
            db.insert(
                "Sentence",
                Tuple::new(vec![Value::Int(s), Value::text(&content)]),
            )
            .expect("schema matches");
            db.insert(
                "PersonCandidate",
                Tuple::new(vec![Value::Int(s), Value::Int(m1), Value::text(&t1)]),
            )
            .expect("schema matches");
            db.insert(
                "PersonCandidate",
                Tuple::new(vec![Value::Int(s), Value::Int(m2), Value::text(&t2)]),
            )
            .expect("schema matches");

            // Entity linking (possibly incomplete).
            for (m, e) in [(m1, e1), (m2, e2)] {
                if rng.gen::<f64>() < config.el_coverage {
                    db.insert(
                        "EL",
                        Tuple::new(vec![Value::Int(m), Value::text(entity_name(e))]),
                    )
                    .expect("schema matches");
                }
            }

            if is_true {
                truth.insert(Tuple::new(vec![Value::Int(m1), Value::Int(m2)]));
            }
        }

        Corpus {
            database: db,
            truth,
            true_entity_pairs,
            config,
        }
    }

    /// Split the corpus into an initial database containing the first
    /// `fraction` of the documents and a list of per-document insertions for the
    /// rest — used to simulate new documents arriving during development.
    pub fn split_for_incremental(&self, fraction: f64) -> (Database, Vec<DocumentDelta>) {
        let cutoff = ((self.config.num_documents as f64) * fraction).round() as i64;
        let mut initial = Database::new();
        for table in self.database.tables() {
            initial.create_or_replace_table(table.name(), table.schema().clone());
        }
        let mut later: Vec<DocumentDelta> = Vec::new();

        for table in self.database.tables() {
            for row in table.iter() {
                let doc_id = match table.name() {
                    "Sentence" | "PersonCandidate" => row.get(0).and_then(|v| v.as_int()),
                    "EL" => row.get(0).and_then(|v| v.as_int()).map(|m| m / 2),
                    _ => None,
                };
                match doc_id {
                    Some(d) if d >= cutoff => {
                        let idx = (d - cutoff) as usize;
                        if later.len() <= idx {
                            later.resize_with(idx + 1, DocumentDelta::default);
                        }
                        later[idx]
                            .rows
                            .push((table.name().to_string(), row.clone()));
                    }
                    _ => {
                        initial
                            .table_mut(table.name())
                            .expect("table just created")
                            .insert(row.clone())
                            .expect("schema matches");
                    }
                }
            }
        }
        (initial, later)
    }
}

/// The rows belonging to one late-arriving document.
#[derive(Debug, Clone, Default)]
pub struct DocumentDelta {
    pub rows: Vec<(String, Tuple)>,
}

fn entity_name(e: usize) -> String {
    format!("Entity_{e}")
}

fn entity_mention_text(e: usize, m: i64) -> String {
    // Mention text is derived from the entity but unique per mention, so the
    // phrase UDF can find it inside the sentence.
    format!("Person{e}m{m}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_sizes() {
        let c = Corpus::generate(CorpusConfig {
            num_documents: 50,
            num_entities: 20,
            num_true_pairs: 6,
            ..Default::default()
        });
        assert_eq!(c.database.table("Sentence").unwrap().len(), 50);
        assert_eq!(c.database.table("PersonCandidate").unwrap().len(), 100);
        assert_eq!(c.true_entity_pairs.len(), 6);
        assert!(!c.truth.is_empty());
        assert!(c.database.table("Married").unwrap().len() <= 6);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = Corpus::generate(CorpusConfig::default());
        let b = Corpus::generate(CorpusConfig::default());
        assert_eq!(a.truth, b.truth);
        assert_eq!(
            a.database.table("Sentence").unwrap().sorted_tuples(),
            b.database.table("Sentence").unwrap().sorted_tuples()
        );
    }

    #[test]
    fn noise_zero_means_phrases_separate_classes() {
        let c = Corpus::generate(CorpusConfig {
            noise: 0.0,
            garble: 0.0,
            num_documents: 80,
            ..Default::default()
        });
        // Every true mention pair's sentence contains an indicative phrase.
        for t in &c.truth {
            let s = t.get(0).unwrap().as_int().unwrap() / 2;
            let sentence = c
                .database
                .table("Sentence")
                .unwrap()
                .iter()
                .find(|row| row.get(0).and_then(|v| v.as_int()) == Some(s))
                .unwrap()
                .clone();
            let content = sentence.get(1).unwrap().as_text().unwrap().to_string();
            assert!(
                INDICATIVE_PHRASES.iter().any(|p| content.contains(p)),
                "sentence `{content}` should contain an indicative phrase"
            );
        }
    }

    #[test]
    fn kb_is_incomplete_subset_of_truth() {
        let c = Corpus::generate(CorpusConfig {
            kb_coverage: 0.5,
            num_true_pairs: 10,
            num_entities: 40,
            ..Default::default()
        });
        let kb = c.database.table("Married").unwrap();
        assert!(kb.len() < 10);
        for row in kb.iter() {
            let e1 = row.get(0).unwrap().as_text().unwrap().to_string();
            assert!(e1.starts_with("Entity_"));
        }
    }

    #[test]
    fn split_for_incremental_partitions_documents() {
        let c = Corpus::generate(CorpusConfig {
            num_documents: 40,
            ..Default::default()
        });
        let (initial, later) = c.split_for_incremental(0.75);
        assert_eq!(initial.table("Sentence").unwrap().len(), 30);
        assert_eq!(later.len(), 10);
        let total_late_sentences: usize = later
            .iter()
            .map(|d| d.rows.iter().filter(|(t, _)| t == "Sentence").count())
            .sum();
        assert_eq!(total_late_sentences, 10);
    }
}
