//! §3.1 / §4.2: incremental grounding speedup.
//!
//! Measures DRed delta-rule maintenance of the candidate-mapping view against
//! full recomputation as the corpus grows; the paper reports up to 360× for rule
//! FE1 on News.

use dd_bench::{print_table, secs, speedup, timed};
use dd_relstore::{
    ConjunctiveQuery, DataType, Database, DeltaRelation, MaterializedView, Schema, Tuple, Value,
};
use dd_relstore::{Filter, QueryAtom, Term};
use std::collections::HashMap;

pub fn run() {
    println!("# Incremental grounding (DRed) vs full recomputation");
    let mut rows = Vec::new();
    for &docs in &[1_000usize, 5_000, 20_000] {
        let mut db = Database::new();
        db.create_table(
            "PersonCandidate",
            Schema::of(&[("s", DataType::Int), ("m", DataType::Int)]),
        )
        .unwrap();
        for d in 0..docs {
            for k in 0..2i64 {
                db.insert(
                    "PersonCandidate",
                    Tuple::new(vec![Value::Int(d as i64), Value::Int(2 * d as i64 + k)]),
                )
                .unwrap();
            }
        }
        let query = ConjunctiveQuery::new(
            "MarriedCandidate",
            vec!["m1".into(), "m2".into()],
            vec![
                QueryAtom::new("PersonCandidate", vec![Term::var("s"), Term::var("m1")]),
                QueryAtom::new("PersonCandidate", vec![Term::var("s"), Term::var("m2")]),
            ],
        )
        .with_filters(vec![Filter::Lt("m1".into(), "m2".into())]);
        let mut view = MaterializedView::materialize(query.clone(), &db).unwrap();

        // One new document arrives.
        let mut delta = DeltaRelation::new("PersonCandidate");
        delta.insert(Tuple::new(vec![
            Value::Int(docs as i64),
            Value::Int(2 * docs as i64),
        ]));
        delta.insert(Tuple::new(vec![
            Value::Int(docs as i64),
            Value::Int(2 * docs as i64 + 1),
        ]));
        let mut deltas = HashMap::new();
        deltas.insert("PersonCandidate".to_string(), delta);

        let (_, t_full) = timed(|| query.evaluate(&db).unwrap());
        let (_, t_inc) = timed(|| view.refresh_dred(&db, &deltas).unwrap());
        rows.push(vec![
            docs.to_string(),
            secs(t_full),
            secs(t_inc),
            speedup(t_full, t_inc),
        ]);
    }
    print_table(
        "Candidate-rule grounding after one new document",
        &[
            "#documents",
            "full recompute",
            "incremental (DRed)",
            "speedup",
        ],
        &rows,
    );
    println!("Paper shape: the speedup grows with corpus size (up to 360× on News).");
}
