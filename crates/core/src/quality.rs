//! Precision / recall / F1 evaluation of extracted facts.
//!
//! "Typically, quality is assessed using two complementary measures: precision
//! (how often a claimed tuple is correct) and recall (of the possible tuples to
//! extract, how many are actually extracted)" (paper §1).  The synthetic
//! workloads know their planted ground truth, so quality can be computed exactly.

use dd_relstore::Tuple;
use std::collections::HashSet;

/// Precision / recall / F1 of one extraction run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    pub extracted: usize,
    pub correct: usize,
    pub expected: usize,
}

/// Evaluate extracted facts (tuples claimed true with probability above the
/// engine's threshold) against a ground-truth set.
pub fn evaluate_quality(extracted: &[Tuple], truth: &HashSet<Tuple>) -> QualityReport {
    let extracted_set: HashSet<&Tuple> = extracted.iter().collect();
    let correct = extracted_set.iter().filter(|t| truth.contains(**t)).count();
    let precision = if extracted_set.is_empty() {
        0.0
    } else {
        correct as f64 / extracted_set.len() as f64
    };
    let recall = if truth.is_empty() {
        0.0
    } else {
        correct as f64 / truth.len() as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    QualityReport {
        precision,
        recall,
        f1,
        extracted: extracted_set.len(),
        correct,
        expected: truth.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_relstore::tuple;

    fn truth() -> HashSet<Tuple> {
        [tuple![1i64, 2i64], tuple![3i64, 4i64], tuple![5i64, 6i64]]
            .into_iter()
            .collect()
    }

    #[test]
    fn perfect_extraction() {
        let extracted: Vec<Tuple> = truth().into_iter().collect();
        let q = evaluate_quality(&extracted, &truth());
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.f1, 1.0);
        assert_eq!(q.correct, 3);
    }

    #[test]
    fn partial_extraction() {
        let extracted = vec![tuple![1i64, 2i64], tuple![9i64, 9i64]];
        let q = evaluate_quality(&extracted, &truth());
        assert!((q.precision - 0.5).abs() < 1e-12);
        assert!((q.recall - 1.0 / 3.0).abs() < 1e-12);
        assert!(q.f1 > 0.0 && q.f1 < 1.0);
    }

    #[test]
    fn empty_cases() {
        let q = evaluate_quality(&[], &truth());
        assert_eq!(q.precision, 0.0);
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.f1, 0.0);
        let q2 = evaluate_quality(&[tuple![1i64]], &HashSet::new());
        assert_eq!(q2.recall, 0.0);
        assert_eq!(q2.f1, 0.0);
    }

    #[test]
    fn duplicate_extractions_count_once() {
        let extracted = vec![tuple![1i64, 2i64], tuple![1i64, 2i64]];
        let q = evaluate_quality(&extracted, &truth());
        assert_eq!(q.extracted, 1);
        assert_eq!(q.precision, 1.0);
    }
}
