//! A small text syntax for DeepDive programs.
//!
//! The original DeepDive exposes a datalog-flavoured language (DDlog); this
//! module provides an equivalent, deliberately tiny, line-oriented syntax so
//! examples and tests can declare programs as text:
//!
//! ```text
//! # The running spouse example.
//! relation Sentence(s: int, content: text) base.
//! relation PersonCandidate(s: int, m: int, t: text) base.
//! relation MarriedCandidate(m1: int, m2: int) derived.
//! relation MarriedMentions(m1: int, m2: int) variable.
//!
//! rule R1 candidate:
//!   MarriedCandidate(m1, m2) :- PersonCandidate(s, m1, t1), PersonCandidate(s, m2, t2), m1 < m2.
//! rule FE1 feature:
//!   MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2), Sentence(s, content)
//!   weight = phrase(t1, t2, content).
//! rule S1 supervision+:
//!   MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2), Married(m1, m2).
//! ```
//!
//! * relation roles: `base`, `derived`, `variable`;
//! * rule kinds: `candidate`, `feature`, `inference`, `analysis`,
//!   `supervision+` / `supervision-`;
//! * an optional `@linear` / `@ratio` / `@logical` after the kind selects the
//!   rule semantics (Figure 4);
//! * weights: `weight = 1.5` (fixed), `weight = learn(0.0)` (one learnable
//!   weight), `weight = udf(x, y)` (tied through a UDF);
//! * `!Atom(x, y)` negates an atom; `a < b`, `a != b`, `a = b` are filters.

use crate::ast::{Rule, RuleAtom, RuleKind, WeightSpec};
use crate::program::{Program, RelationDecl, RelationRole};
use dd_factorgraph::Semantics;
use dd_relstore::{Column, DataType, Schema, Value};
use dd_relstore::{Filter, QueryAtom, Term};

/// A parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Parse a whole program.  Statements end with `.`; `#` starts a comment.
pub fn parse_program(text: &str) -> Result<Program, ParseError> {
    let mut program = Program::new();
    for statement in split_statements(text) {
        let s = statement.trim();
        if s.is_empty() {
            continue;
        }
        if let Some(rest) = s.strip_prefix("relation ") {
            program.relations.push(parse_relation(rest)?);
        } else if let Some(rest) = s.strip_prefix("rule ") {
            program.rules.push(parse_rule_body(rest)?);
        } else {
            return err(format!("unknown statement: `{s}`"));
        }
    }
    Ok(program)
}

/// Parse one rule written as `rule NAME kind: head :- body …` (without the
/// trailing period).
pub fn parse_rule(text: &str) -> Result<Rule, ParseError> {
    let t = text.trim();
    let t = t.strip_prefix("rule ").unwrap_or(t);
    let t = t.strip_suffix('.').unwrap_or(t);
    parse_rule_body(t)
}

/// Split source text into `.`-terminated statements, dropping comments.
fn split_statements(text: &str) -> Vec<String> {
    let no_comments: String = text
        .lines()
        .map(|l| match l.find('#') {
            Some(i) => &l[..i],
            None => l,
        })
        .collect::<Vec<_>>()
        .join("\n");
    // A '.' ends a statement only when followed by whitespace/EOF, so decimal
    // numbers like 1.5 survive.
    let mut statements = Vec::new();
    let mut current = String::new();
    let chars: Vec<char> = no_comments.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c == '.' {
            let next = chars.get(i + 1);
            if next.is_none() || next.map(|n| n.is_whitespace()).unwrap_or(false) {
                statements.push(std::mem::take(&mut current));
                continue;
            }
        }
        current.push(c);
    }
    if !current.trim().is_empty() {
        statements.push(current);
    }
    statements
}

/// `Name(col: type, …) role`
fn parse_relation(text: &str) -> Result<RelationDecl, ParseError> {
    let open = text.find('(').ok_or(ParseError("expected `(`".into()))?;
    let close = text.rfind(')').ok_or(ParseError("expected `)`".into()))?;
    let name = text[..open].trim().to_string();
    let cols_text = &text[open + 1..close];
    let role_text = text[close + 1..].trim();
    let role = match role_text {
        "base" => RelationRole::Base,
        "derived" => RelationRole::Derived,
        "variable" => RelationRole::Variable,
        other => return err(format!("unknown relation role `{other}`")),
    };
    let mut columns = Vec::new();
    for col in cols_text.split(',') {
        let col = col.trim();
        if col.is_empty() {
            continue;
        }
        let (cname, ctype) = col
            .split_once(':')
            .ok_or_else(|| ParseError(format!("column `{col}` must be `name: type`")))?;
        let dt = match ctype.trim() {
            "int" => DataType::Int,
            "text" => DataType::Text,
            "bool" => DataType::Bool,
            "float" => DataType::Float,
            other => return err(format!("unknown column type `{other}`")),
        };
        columns.push(Column::new(cname.trim(), dt));
    }
    Ok(RelationDecl::new(name, Schema::new(columns), role))
}

/// `NAME kind[@semantics]: head :- body [weight = …]`
fn parse_rule_body(text: &str) -> Result<Rule, ParseError> {
    let (header, rest) = text
        .split_once(':')
        .ok_or(ParseError("expected `:` after the rule header".into()))?;
    let mut header_parts = header.split_whitespace();
    let name = header_parts
        .next()
        .ok_or(ParseError("missing rule name".into()))?
        .to_string();
    let kind_text = header_parts
        .next()
        .ok_or(ParseError("missing rule kind".into()))?;
    let (kind_text, semantics) = match kind_text.split_once('@') {
        Some((k, s)) => (k, parse_semantics(s)?),
        None => (kind_text, Semantics::default()),
    };
    let (kind, label) = match kind_text {
        "candidate" => (RuleKind::CandidateMapping, None),
        "feature" => (RuleKind::FeatureExtraction, None),
        "inference" => (RuleKind::Inference, None),
        "analysis" => (RuleKind::ErrorAnalysis, None),
        "supervision+" => (RuleKind::Supervision, Some(true)),
        "supervision-" => (RuleKind::Supervision, Some(false)),
        other => return err(format!("unknown rule kind `{other}`")),
    };

    // Split off the weight clause, if any.
    let (body_text, weight_text) = match rest.find("weight") {
        Some(i) if rest[i..].trim_start().starts_with("weight") => {
            let clause = &rest[i..];
            let eq = clause
                .find('=')
                .ok_or(ParseError("expected `=` after weight".into()))?;
            (&rest[..i], Some(clause[eq + 1..].trim()))
        }
        _ => (rest, None),
    };

    let (head_text, body_atoms_text) = body_text
        .split_once(":-")
        .map(|(h, b)| (h, Some(b)))
        .unwrap_or((body_text, None));

    let head = parse_atom(head_text.trim())?;
    let mut body = Vec::new();
    let mut filters = Vec::new();
    if let Some(atoms_text) = body_atoms_text {
        for part in split_top_level(atoms_text, ',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some(filter) = try_parse_filter(part) {
                filters.push(filter);
            } else {
                body.push(parse_atom(part)?);
            }
        }
    }

    let weight = match (kind, label, weight_text) {
        (RuleKind::Supervision, Some(polarity), _) => WeightSpec::Label(polarity),
        (RuleKind::CandidateMapping | RuleKind::ErrorAnalysis, _, _) => WeightSpec::None,
        (_, _, None) => WeightSpec::Learnable { initial: 0.0 },
        (_, _, Some(spec)) => parse_weight_spec(spec)?,
    };

    Ok(Rule {
        name,
        kind,
        head,
        body,
        filters,
        weight,
        semantics,
    })
}

fn parse_semantics(s: &str) -> Result<Semantics, ParseError> {
    match s {
        "linear" => Ok(Semantics::Linear),
        "ratio" => Ok(Semantics::Ratio),
        "logical" => Ok(Semantics::Logical),
        other => err(format!("unknown semantics `{other}`")),
    }
}

fn parse_weight_spec(spec: &str) -> Result<WeightSpec, ParseError> {
    let spec = spec.trim();
    if let Ok(v) = spec.parse::<f64>() {
        return Ok(WeightSpec::Fixed(v));
    }
    if let Some(inner) = spec
        .strip_prefix("learn(")
        .and_then(|s| s.strip_suffix(')'))
    {
        let initial = inner.trim().parse::<f64>().unwrap_or(0.0);
        return Ok(WeightSpec::Learnable { initial });
    }
    // udf(arg1, arg2, …)
    let open = spec
        .find('(')
        .ok_or_else(|| ParseError(format!("cannot parse weight spec `{spec}`")))?;
    let close = spec
        .rfind(')')
        .ok_or_else(|| ParseError(format!("cannot parse weight spec `{spec}`")))?;
    let udf = spec[..open].trim().to_string();
    let args = spec[open + 1..close]
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    Ok(WeightSpec::Tied { udf, args })
}

/// `Name(term, …)` possibly prefixed by `!` for negation.
fn parse_atom(text: &str) -> Result<RuleAtom, ParseError> {
    let text = text.trim();
    let (negated, text) = match text.strip_prefix('!') {
        Some(rest) => (true, rest.trim()),
        None => (false, text),
    };
    let open = text
        .find('(')
        .ok_or_else(|| ParseError(format!("atom `{text}` is missing `(`")))?;
    let close = text
        .rfind(')')
        .ok_or_else(|| ParseError(format!("atom `{text}` is missing `)`")))?;
    let relation = text[..open].trim().to_string();
    if relation.is_empty() {
        return err("atom with empty relation name");
    }
    let mut terms = Vec::new();
    for t in split_top_level(&text[open + 1..close], ',') {
        let t = t.trim();
        if t.is_empty() {
            continue;
        }
        terms.push(parse_term(t)?);
    }
    let atom = QueryAtom::new(relation, terms);
    Ok(if negated { atom.negated() } else { atom })
}

fn parse_term(t: &str) -> Result<Term, ParseError> {
    if let Some(s) = t.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')) {
        return Ok(Term::Const(Value::text(s)));
    }
    if let Some(s) = t.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        return Ok(Term::Const(Value::text(s)));
    }
    if let Ok(i) = t.parse::<i64>() {
        return Ok(Term::Const(Value::Int(i)));
    }
    if t == "true" || t == "false" {
        return Ok(Term::Const(Value::Bool(t == "true")));
    }
    if t.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Ok(Term::var(t));
    }
    err(format!("cannot parse term `{t}`"))
}

fn try_parse_filter(text: &str) -> Option<Filter> {
    for (op, build) in [
        ("!=", Filter::Ne as fn(String, String) -> Filter),
        ("<", Filter::Lt as fn(String, String) -> Filter),
        ("=", Filter::Eq as fn(String, String) -> Filter),
    ] {
        if let Some((a, b)) = text.split_once(op) {
            let (a, b) = (a.trim(), b.trim());
            let is_var =
                |s: &str| !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_');
            if is_var(a) && is_var(b) && !text.contains('(') {
                return Some(build(a.to_string(), b.to_string()));
            }
        }
    }
    None
}

/// Split on `sep` at paren depth 0.
fn split_top_level(text: &str, sep: char) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for c in text.chars() {
        match c {
            '(' => {
                depth += 1;
                current.push(c);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                current.push(c);
            }
            c if c == sep && depth == 0 => out.push(std::mem::take(&mut current)),
            c => current.push(c),
        }
    }
    out.push(current);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPOUSE: &str = r#"
        # The running spouse example from the paper (Figure 2).
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

        rule I1 inference@logical:
          MarriedMentions(m2, m1) :- MarriedMentions(m1, m2)
          weight = 3.0.
    "#;

    #[test]
    fn parses_the_spouse_program() {
        let p = parse_program(SPOUSE).unwrap();
        assert_eq!(p.relations.len(), 6);
        assert_eq!(p.rules.len(), 4);
        assert!(p.validate().is_ok());

        let r1 = &p.rules[0];
        assert_eq!(r1.name, "R1");
        assert_eq!(r1.kind, RuleKind::CandidateMapping);
        assert_eq!(r1.body.len(), 2);
        assert_eq!(r1.filters, vec![Filter::Lt("m1".into(), "m2".into())]);

        let fe1 = &p.rules[1];
        assert_eq!(fe1.kind, RuleKind::FeatureExtraction);
        assert_eq!(
            fe1.weight,
            WeightSpec::Tied {
                udf: "phrase".into(),
                args: vec!["t1".into(), "t2".into(), "content".into()],
            }
        );

        let s1 = &p.rules[2];
        assert_eq!(s1.kind, RuleKind::Supervision);
        assert_eq!(s1.weight, WeightSpec::Label(true));

        let i1 = &p.rules[3];
        assert_eq!(i1.kind, RuleKind::Inference);
        assert_eq!(i1.semantics, Semantics::Logical);
        assert_eq!(i1.weight, WeightSpec::Fixed(3.0));
    }

    #[test]
    fn relation_roles_and_types() {
        let p = parse_program("relation R(x: int, y: float, z: bool, w: text) variable.").unwrap();
        let r = &p.relations[0];
        assert_eq!(r.role, RelationRole::Variable);
        assert_eq!(r.schema.arity(), 4);
        assert_eq!(r.schema.type_at(1), Some(DataType::Float));
        assert_eq!(r.schema.type_at(2), Some(DataType::Bool));
    }

    #[test]
    fn constants_and_negation() {
        let rule = parse_rule(
            "rule N supervision-: Spam(m) :- Labeled(m, 'ham'), !Whitelist(m), Count(m, 3).",
        )
        .unwrap();
        assert_eq!(rule.weight, WeightSpec::Label(false));
        assert_eq!(rule.body.len(), 3);
        assert_eq!(rule.body[0].terms[1], Term::Const(Value::text("ham")));
        assert!(rule.body[1].negated);
        assert_eq!(rule.body[2].terms[1], Term::Const(Value::Int(3)));
    }

    #[test]
    fn learnable_weight_and_default_weight() {
        let r = parse_rule("rule F feature: A(x) :- B(x) weight = learn(0.5).").unwrap();
        assert_eq!(r.weight, WeightSpec::Learnable { initial: 0.5 });
        let r2 = parse_rule("rule F feature: A(x) :- B(x).").unwrap();
        assert_eq!(r2.weight, WeightSpec::Learnable { initial: 0.0 });
    }

    #[test]
    fn decimal_weights_do_not_break_statement_splitting() {
        let p = parse_program(
            "relation A(x: int) variable. relation B(x: int) base. rule I inference: A(x) :- B(x) weight = 1.5.",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.rules[0].weight, WeightSpec::Fixed(1.5));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_program("nonsense statement.").is_err());
        assert!(parse_program("relation Broken(x int) base.").is_err());
        assert!(parse_program("relation R(x: int) strange_role.").is_err());
        assert!(parse_rule("rule X weird: A(x) :- B(x).").is_err());
        assert!(parse_rule("rule X feature A(x) B(x)").is_err());
        let e = parse_program("relation R(x: wat) base.").unwrap_err();
        assert!(e.to_string().contains("wat"));
    }

    #[test]
    fn analysis_rules_have_no_weight() {
        let r =
            parse_rule("rule A1 analysis: Marginals(m1, m2) :- MarriedMentions(m1, m2).").unwrap();
        assert_eq!(r.kind, RuleKind::ErrorAnalysis);
        assert_eq!(r.weight, WeightSpec::None);
    }
}
