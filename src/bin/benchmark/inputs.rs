//! Everything the program under test receives, generated from `--seed`.
//!
//! Two families of input: the News KBC system of `dd-workloads` (rule-template
//! development loop and document stream) and a doc-keyed claims KB whose every
//! fact is pinned by supervision, so marginals are exactly 0/1 and a sharded
//! deployment must answer byte-identically to a single engine.

use crate::stats::{Fnv1a, SplitMix64};
use deepdive_repro::engine::EngineConfig;
use deepdive_repro::grounding::{KbcUpdate, Program};
use deepdive_repro::relstore::{DataType, Database, Schema, Tuple, Value};
use deepdive_repro::server::{FactQuerySpec, Op};

/// Every engine the benchmark builds: the paper's default settings with the
/// worker pool pinned to one thread, so the two cores of the box belong to
/// the client threads and results do not depend on pool scheduling.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        num_threads: Some(1),
        ..EngineConfig::default()
    }
}

/// Bytes of user data in one row: 8 per number, the UTF-8 length per text.
pub fn row_bytes(tuple: &Tuple) -> u64 {
    tuple
        .values()
        .iter()
        .map(|v| v.as_text().map_or(8, |t| t.len() as u64))
        .sum()
}

/// Fingerprint of the generated inputs.
#[derive(Debug, Default)]
pub struct InputDigest {
    hash: Fnv1a,
    pub rows: u64,
}

impl InputDigest {
    pub fn text(&mut self, text: &str) {
        self.hash.write(text.as_bytes());
    }

    pub fn program(&mut self, program: &Program) {
        // `Program` holds only vectors, so its debug form is deterministic.
        self.text(&format!("{program:?}"));
    }

    pub fn row(&mut self, relation: &str, tuple: &Tuple) {
        self.text(relation);
        self.text(&tuple.to_string());
        self.rows += 1;
    }

    /// Every table's rows in sorted order.
    pub fn database(&mut self, db: &Database) {
        let mut names = db.table_names();
        names.sort();
        for name in names {
            let table = db.table(&name).expect("listed table exists");
            for tuple in table.sorted_tuples() {
                self.row(&name, &tuple);
            }
        }
    }

    pub fn finish(&self) -> u64 {
        self.hash.finish()
    }
}

// ------------------------------------------------------------- claims KB

/// Doc-keyed claims program: every relation carries `doc` in column 0 (so the
/// KB shards by hash on that column and every rule joins on it), two variable
/// relations, every variable pinned by a supervision rule.
pub const CLAIMS_PROGRAM: &str = "\
    relation Claim(doc: int, id: int) base.\n\
    relation Pos(doc: int, id: int) base.\n\
    relation Neg(doc: int, id: int) base.\n\
    relation Link(doc: int, a: int, b: int) base.\n\
    relation Fact(doc: int, id: int) variable.\n\
    relation Rel(doc: int, a: int, b: int) variable.\n\
    rule F feature: Fact(doc, id) :- Claim(doc, id) weight = 1.5.\n\
    rule SP supervision+: Fact(doc, id) :- Claim(doc, id), Pos(doc, id).\n\
    rule SN supervision-: Fact(doc, id) :- Claim(doc, id), Neg(doc, id).\n\
    rule L feature: Rel(doc, a, b) :- Link(doc, a, b) weight = 0.5.\n\
    rule LP supervision+: Rel(doc, a, b) :- Link(doc, a, b), Pos(doc, a).\n\
    rule LN supervision-: Rel(doc, a, b) :- Link(doc, a, b), Neg(doc, a).\n";

pub const CLAIMS_PER_DOC: i64 = 6;
pub const LINKS_PER_DOC: i64 = 2;

fn ints(values: &[i64]) -> Tuple {
    Tuple::from_iter(values.iter().map(|v| Value::Int(*v)))
}

/// The claims KB of one seed.  A document's rows are a pure function of
/// `(seed, doc)`, so the writer, the checks and the reference engine all
/// agree on them without sharing state.
#[derive(Debug, Clone, Copy)]
pub struct ClaimsKb {
    pub seed: u64,
    /// Documents loaded before serving starts; reads only touch these, the
    /// writer only adds and removes documents beyond them.
    pub base_docs: i64,
}

impl ClaimsKb {
    fn bits(&self, doc: i64) -> u64 {
        SplitMix64::fork(self.seed, doc as u64)
    }

    /// Whether claim `id` of `doc` is labelled positive — also the exact
    /// probability (1.0 / 0.0) the KB must serve for it.
    pub fn is_positive(&self, doc: i64, id: i64) -> bool {
        (self.bits(doc) >> id) & 1 == 1
    }

    pub fn link(&self, doc: i64, index: i64) -> Tuple {
        let b = (self.bits(doc) >> (8 + 4 * index)) % CLAIMS_PER_DOC as u64;
        ints(&[doc, index, b as i64])
    }

    pub fn doc_rows(&self, doc: i64) -> Vec<(&'static str, Tuple)> {
        let mut rows = Vec::new();
        for id in 0..CLAIMS_PER_DOC {
            rows.push(("Claim", ints(&[doc, id])));
            let label = if self.is_positive(doc, id) {
                "Pos"
            } else {
                "Neg"
            };
            rows.push((label, ints(&[doc, id])));
        }
        for index in 0..LINKS_PER_DOC {
            rows.push(("Link", self.link(doc, index)));
        }
        rows
    }

    pub fn database_of(&self, docs: impl Iterator<Item = i64>) -> Database {
        let mut db = Database::new();
        let pair = || Schema::of(&[("doc", DataType::Int), ("id", DataType::Int)]);
        for table in ["Claim", "Pos", "Neg"] {
            db.create_table(table, pair()).expect("fresh database");
        }
        db.create_table(
            "Link",
            Schema::of(&[
                ("doc", DataType::Int),
                ("a", DataType::Int),
                ("b", DataType::Int),
            ]),
        )
        .expect("fresh database");
        for doc in docs {
            for (relation, row) in self.doc_rows(doc) {
                db.insert(relation, row).expect("row matches its schema");
            }
        }
        db
    }

    pub fn insert_docs(&self, docs: &[i64]) -> KbcUpdate {
        let mut update = KbcUpdate::new();
        for doc in docs {
            for (relation, row) in self.doc_rows(*doc) {
                update.insert(relation, row);
            }
        }
        update
    }

    pub fn delete_docs(&self, docs: &[i64]) -> KbcUpdate {
        let mut update = KbcUpdate::new();
        for doc in docs {
            for (relation, row) in self.doc_rows(*doc) {
                update.delete(relation, row);
            }
        }
        update
    }

    pub fn fact(doc: i64, id: i64) -> Tuple {
        ints(&[doc, id])
    }
}

/// The three read classes of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadClass {
    Point,
    TopK,
    Scan,
}

impl ReadClass {
    pub fn index(self) -> usize {
        self as usize
    }
}

pub const TOP_K: usize = 10;
pub const SCAN_LIMIT: usize = 100;
/// Scan offsets are `0..SCAN_PAGES` pages; the base documents' facts must
/// cover them, so every page is full.
pub const SCAN_PAGES: u64 = 4;

/// One read of the mix, with what is needed to check its answer.
#[derive(Debug, Clone)]
pub struct ReadOp {
    pub class: ReadClass,
    pub op: Op,
    /// For point reads: the exact probability the KB must answer.
    pub expected: Option<f64>,
}

/// The read stream of one connection: 60 % `probability_of`, 30 % top-k,
/// 10 % `all_facts` page, uniform keys over the base documents.
#[derive(Debug, Clone)]
pub struct ReadStream {
    kb: ClaimsKb,
    rng: SplitMix64,
}

impl ReadStream {
    pub fn new(kb: ClaimsKb, connection: u64) -> Self {
        ReadStream {
            kb,
            rng: SplitMix64::new(SplitMix64::fork(kb.seed, 1_000_000 + connection)),
        }
    }

    pub fn next_op(&mut self) -> ReadOp {
        let roll = self.rng.below(100);
        if roll < 60 {
            let doc = self.rng.below(self.kb.base_docs as u64) as i64;
            let id = self.rng.below(CLAIMS_PER_DOC as u64) as i64;
            let expected = if self.kb.is_positive(doc, id) {
                1.0
            } else {
                0.0
            };
            ReadOp {
                class: ReadClass::Point,
                op: Op::probability_of("Fact", ClaimsKb::fact(doc, id)),
                expected: Some(expected),
            }
        } else if roll < 90 {
            let relation = if self.rng.below(2) == 0 {
                "Fact"
            } else {
                "Rel"
            };
            ReadOp {
                class: ReadClass::TopK,
                op: Op::query(
                    relation,
                    FactQuerySpec {
                        min_probability: 0.5,
                        top_k: Some(TOP_K),
                        offset: 0,
                        limit: Some(TOP_K),
                    },
                ),
                expected: None,
            }
        } else {
            // The first few pages only: a routed scan asks every shard for
            // `offset + limit` rows, so deep pages would make the router
            // workload a JSON-encoding benchmark.
            ReadOp {
                class: ReadClass::Scan,
                op: Op::AllFacts {
                    min_probability: 0.0,
                    offset: self.rng.below(SCAN_PAGES) as usize * SCAN_LIMIT,
                    limit: SCAN_LIMIT,
                },
                expected: None,
            }
        }
    }

    /// Fold the first `n` ops of this stream into the input digest.
    pub fn digest_prefix(&self, n: usize, digest: &mut InputDigest) {
        let mut copy = self.clone();
        for _ in 0..n {
            digest.text(&format!("{:?}", copy.next_op().op));
        }
    }
}

/// The writer's round script, shared by the document stream and the serving
/// workloads: rounds of eight new documents, every fourth round retracting the
/// eight oldest live ones instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Round {
    Insert(Vec<usize>),
    Delete(Vec<usize>),
}

pub const DOCS_PER_ROUND: usize = 8;

/// The first `rounds` rounds over late-arriving documents `0..`, indices into
/// whatever the caller's document list is.
pub fn round_script(rounds: usize) -> Vec<Round> {
    let mut live = std::collections::VecDeque::new();
    let mut next = 0usize;
    (0..rounds)
        .map(|round| {
            if round % 4 == 3 {
                Round::Delete(
                    (0..DOCS_PER_ROUND)
                        .filter_map(|_| live.pop_front())
                        .collect(),
                )
            } else {
                let docs: Vec<usize> = (next..next + DOCS_PER_ROUND).collect();
                next += DOCS_PER_ROUND;
                live.extend(docs.iter().copied());
                Round::Insert(docs)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_rows_are_a_pure_function_of_seed_and_doc() {
        let kb = ClaimsKb {
            seed: 1,
            base_docs: 10,
        };
        assert_eq!(kb.doc_rows(3), kb.doc_rows(3));
        let other = ClaimsKb {
            seed: 2,
            base_docs: 10,
        };
        assert_ne!(
            (0..10).map(|d| kb.bits(d)).collect::<Vec<_>>(),
            (0..10).map(|d| other.bits(d)).collect::<Vec<_>>()
        );
        // 6 claims + 6 labels + 2 links, every row keyed by the doc.
        let rows = kb.doc_rows(7);
        assert_eq!(rows.len(), 14);
        assert!(rows.iter().all(|(_, t)| t.get(0) == Some(&Value::Int(7))));
        let db = kb.database_of(0..10);
        assert_eq!(db.table("Claim").unwrap().len(), 60);
        assert_eq!(db.table("Link").unwrap().len(), 20);
    }

    #[test]
    fn input_digest_is_stable_and_order_insensitive_for_tables() {
        let kb = ClaimsKb {
            seed: 9,
            base_docs: 4,
        };
        let digest_of = |docs: Vec<i64>| {
            let mut d = InputDigest::default();
            d.text(CLAIMS_PROGRAM);
            d.database(&kb.database_of(docs.into_iter()));
            ReadStream::new(kb, 0).digest_prefix(16, &mut d);
            (d.finish(), d.rows)
        };
        assert_eq!(digest_of(vec![0, 1, 2, 3]), digest_of(vec![3, 1, 0, 2]));
        assert_ne!(digest_of(vec![0, 1, 2, 3]).0, digest_of(vec![0, 1, 2]).0);
        assert_eq!(digest_of(vec![0, 1, 2, 3]).1, 4 * 14);
    }

    #[test]
    fn read_mix_has_the_stated_shares() {
        let kb = ClaimsKb {
            seed: 5,
            base_docs: 1000,
        };
        let mut stream = ReadStream::new(kb, 1);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            let op = stream.next_op();
            counts[op.class.index()] += 1;
            assert_eq!(op.expected.is_some(), op.class == ReadClass::Point);
        }
        assert!((5_700..6_300).contains(&counts[0]), "{counts:?}");
        assert!((2_700..3_300).contains(&counts[1]), "{counts:?}");
        assert!((800..1_200).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn round_script_retracts_the_oldest_live_documents() {
        let script = round_script(8);
        assert_eq!(script[0], Round::Insert((0..8).collect()));
        assert_eq!(script[3], Round::Delete((0..8).collect()));
        assert_eq!(script[4], Round::Insert((24..32).collect()));
        assert_eq!(script[7], Round::Delete((8..16).collect()));
        assert_eq!(
            row_bytes(&Tuple::from_iter([Value::Int(1), Value::text("abc")])),
            11
        );
    }
}
