//! The spouse-extraction KB the serving tests run: two sentences, one
//! supervised married pair, and one fresh document per update.

use deepdive_repro::prelude::*;

pub const PROGRAM: &str = r#"
    relation Sentence(s: int, content: text) base.
    relation PersonCandidate(s: int, m: int, t: text) base.
    relation EL(m: int, e: text) base.
    relation Married(e1: text, e2: text) base.
    relation MarriedCandidate(m1: int, m2: int) derived.
    relation MarriedMentions(m1: int, m2: int) variable.

    rule R1 candidate:
      MarriedCandidate(m1, m2) :-
        PersonCandidate(s, m1, t1), PersonCandidate(s, m2, t2), m1 < m2.

    rule FE1 feature:
      MarriedMentions(m1, m2) :-
        MarriedCandidate(m1, m2),
        PersonCandidate(s, m1, t1), PersonCandidate(s, m2, t2),
        Sentence(s, content)
      weight = phrase(t1, t2, content).

    rule S1 supervision+:
      MarriedMentions(m1, m2) :-
        MarriedCandidate(m1, m2), EL(m1, e1), EL(m2, e2), Married(e1, e2).
"#;

pub fn engine() -> DeepDive {
    let mut db = Database::new();
    db.create_table(
        "Sentence",
        Schema::of(&[("s", DataType::Int), ("content", DataType::Text)]),
    )
    .unwrap();
    db.create_table(
        "PersonCandidate",
        Schema::of(&[
            ("s", DataType::Int),
            ("m", DataType::Int),
            ("t", DataType::Text),
        ]),
    )
    .unwrap();
    db.create_table(
        "EL",
        Schema::of(&[("m", DataType::Int), ("e", DataType::Text)]),
    )
    .unwrap();
    db.create_table(
        "Married",
        Schema::of(&[("e1", DataType::Text), ("e2", DataType::Text)]),
    )
    .unwrap();
    db.insert_all(
        "Sentence",
        vec![
            Tuple::from_iter([
                Value::Int(1),
                Value::text("Barack and his wife Michelle attended the dinner"),
            ]),
            Tuple::from_iter([
                Value::Int(2),
                Value::text("George and his wife Laura were married"),
            ]),
        ],
    )
    .unwrap();
    db.insert_all(
        "PersonCandidate",
        vec![
            Tuple::from_iter([Value::Int(1), Value::Int(10), Value::text("Barack")]),
            Tuple::from_iter([Value::Int(1), Value::Int(11), Value::text("Michelle")]),
            Tuple::from_iter([Value::Int(2), Value::Int(20), Value::text("George")]),
            Tuple::from_iter([Value::Int(2), Value::Int(21), Value::text("Laura")]),
        ],
    )
    .unwrap();
    db.insert_all(
        "EL",
        vec![
            Tuple::from_iter([Value::Int(10), Value::text("Barack_Obama_1")]),
            Tuple::from_iter([Value::Int(11), Value::text("Michelle_Obama_1")]),
        ],
    )
    .unwrap();
    db.insert_all(
        "Married",
        vec![Tuple::from_iter([
            Value::text("Barack_Obama_1"),
            Value::text("Michelle_Obama_1"),
        ])],
    )
    .unwrap();

    DeepDive::builder()
        .program_text(PROGRAM)
        .database(db)
        .config(EngineConfig::fast())
        .build()
        .expect("engine builds")
}

pub fn supervised() -> Tuple {
    Tuple::from_iter([Value::Int(10), Value::Int(11)])
}

/// One update per epoch: a fresh document introducing a new candidate pair.
pub fn update_for(i: i64) -> KbcUpdate {
    let (s, m1, m2) = (10 + i, 100 + 2 * i, 101 + 2 * i);
    let mut update = KbcUpdate::new();
    update
        .insert(
            "Sentence",
            Tuple::from_iter([
                Value::Int(s),
                Value::text(format!("Person{m1} and his wife Person{m2} appeared")),
            ]),
        )
        .insert(
            "PersonCandidate",
            Tuple::from_iter([
                Value::Int(s),
                Value::Int(m1),
                Value::text(format!("Person{m1}")),
            ]),
        )
        .insert(
            "PersonCandidate",
            Tuple::from_iter([
                Value::Int(s),
                Value::Int(m2),
                Value::text(format!("Person{m2}")),
            ]),
        );
    update
}
