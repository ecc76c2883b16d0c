//! Factors: weighted functions of small sets of variables.

use crate::semantics::Semantics;
use crate::variable::VarId;
use crate::weight::WeightId;
use crate::world::WorldView;

/// Index of a factor in its [`crate::FactorGraph`].
pub type FactorId = usize;

/// A literal: a variable together with the polarity it is required to have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit {
    pub var: VarId,
    /// `true` means the literal is satisfied when the variable is true.
    pub positive: bool,
}

impl Lit {
    /// A positive literal.
    pub fn pos(var: VarId) -> Self {
        Lit {
            var,
            positive: true,
        }
    }

    /// A negative literal.
    pub fn neg(var: VarId) -> Self {
        Lit {
            var,
            positive: false,
        }
    }

    /// Whether the literal holds in `world`.
    pub(crate) fn holds<W: WorldView + ?Sized>(&self, world: &W) -> bool {
        world.value(self.var) == self.positive
    }
}

/// The functional form of a factor.
///
/// * `Conjunction` and `Imply` are the classic MLN factor functions produced by
///   grounding individual rule instances (and are the Linear special case of
///   Equation 1 with one grounding).
/// * `Equal` encodes symmetry rules such as `HasSpouse(x,y) => HasSpouse(y,x)`.
/// * `IsTrue` is a per-variable prior.
/// * `Aggregate` implements Equation 1 exactly: a head literal, a set of body
///   groundings, and a [`Semantics`] `g`; its energy contribution is
///   `w · sign(head, I) · g(#satisfied groundings)`.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorKind {
    /// Satisfied (energy `w`) iff every literal holds.
    Conjunction(Vec<Lit>),
    /// Satisfied (energy `w`) iff the body implies the head, i.e. body unsat or
    /// head sat — the standard MLN grounding of `head :- body`.
    Imply { body: Vec<Lit>, head: Lit },
    /// Satisfied (energy `w`) iff both variables have the same value.
    Equal(VarId, VarId),
    /// Satisfied (energy `w`) iff the variable is true.
    IsTrue(VarId),
    /// Equation 1: energy `w · sign(head) · g(#satisfied groundings)`.
    Aggregate {
        head: Lit,
        semantics: Semantics,
        groundings: Vec<Vec<Lit>>,
    },
}

/// A factor: a [`FactorKind`] plus a (possibly shared) weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    pub weight_id: WeightId,
    pub kind: FactorKind,
}

impl Factor {
    pub fn new(weight_id: WeightId, kind: FactorKind) -> Self {
        Factor { weight_id, kind }
    }

    /// Convenience: a conjunction factor over positive literals.
    pub fn conjunction(weight_id: WeightId, vars: &[VarId]) -> Self {
        Factor::new(
            weight_id,
            FactorKind::Conjunction(vars.iter().map(|&v| Lit::pos(v)).collect()),
        )
    }

    /// Convenience: an implication factor with positive body and head.
    pub fn imply(weight_id: WeightId, body: &[VarId], head: VarId) -> Self {
        Factor::new(
            weight_id,
            FactorKind::Imply {
                body: body.iter().map(|&v| Lit::pos(v)).collect(),
                head: Lit::pos(head),
            },
        )
    }

    /// Convenience: a pairwise equality factor.
    pub fn equal(weight_id: WeightId, a: VarId, b: VarId) -> Self {
        Factor::new(weight_id, FactorKind::Equal(a, b))
    }

    /// Convenience: a prior factor on a single variable.
    pub fn is_true(weight_id: WeightId, v: VarId) -> Self {
        Factor::new(weight_id, FactorKind::IsTrue(v))
    }

    /// All variables mentioned by this factor (may contain duplicates for
    /// aggregates whose groundings share variables).
    pub fn variables(&self) -> Vec<VarId> {
        match &self.kind {
            FactorKind::Conjunction(lits) => lits.iter().map(|l| l.var).collect(),
            FactorKind::Imply { body, head } => body
                .iter()
                .map(|l| l.var)
                .chain(std::iter::once(head.var))
                .collect(),
            FactorKind::Equal(a, b) => vec![*a, *b],
            FactorKind::IsTrue(v) => vec![*v],
            FactorKind::Aggregate {
                head, groundings, ..
            } => {
                let mut vars: Vec<VarId> = vec![head.var];
                for g in groundings {
                    vars.extend(g.iter().map(|l| l.var));
                }
                vars
            }
        }
    }

    /// Point every reference to variable `from` at `to` instead.
    pub(crate) fn rename_variable(&mut self, from: VarId, to: VarId) {
        let rename = |v: &mut VarId| {
            if *v == from {
                *v = to;
            }
        };
        match &mut self.kind {
            FactorKind::Conjunction(lits) => lits.iter_mut().for_each(|l| rename(&mut l.var)),
            FactorKind::Imply { body, head } => body
                .iter_mut()
                .chain(std::iter::once(head))
                .for_each(|l| rename(&mut l.var)),
            FactorKind::Equal(a, b) => {
                rename(a);
                rename(b);
            }
            FactorKind::IsTrue(v) => rename(v),
            FactorKind::Aggregate {
                head, groundings, ..
            } => std::iter::once(head)
                .chain(groundings.iter_mut().flatten())
                .for_each(|l| rename(&mut l.var)),
        }
    }

    /// The *feature value* φ(I) of this factor in `world`, such that the energy
    /// contribution is `weight · φ(I)`.
    pub fn feature_value<W: WorldView + ?Sized>(&self, world: &W) -> f64 {
        match &self.kind {
            FactorKind::Conjunction(lits) => {
                if lits.iter().all(|l| l.holds(world)) {
                    1.0
                } else {
                    0.0
                }
            }
            FactorKind::Imply { body, head } => {
                if !body.iter().all(|l| l.holds(world)) || head.holds(world) {
                    1.0
                } else {
                    0.0
                }
            }
            FactorKind::Equal(a, b) => {
                if world.value(*a) == world.value(*b) {
                    1.0
                } else {
                    0.0
                }
            }
            FactorKind::IsTrue(v) => {
                if world.value(*v) {
                    1.0
                } else {
                    0.0
                }
            }
            FactorKind::Aggregate {
                head,
                semantics,
                groundings,
            } => {
                let n = groundings
                    .iter()
                    .filter(|g| g.iter().all(|l| l.holds(world)))
                    .count();
                let sign = if head.holds(world) { 1.0 } else { -1.0 };
                sign * semantics.g(n)
            }
        }
    }

    /// Energy contribution `weight · φ(I)`.
    pub fn energy<W: WorldView + ?Sized>(&self, world: &W, weight: f64) -> f64 {
        weight * self.feature_value(world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    fn world(values: &[bool]) -> World {
        World::from_values(values.to_vec())
    }

    #[test]
    fn literal_polarity() {
        let w = world(&[true, false]);
        assert!(Lit::pos(0).holds(&w));
        assert!(!Lit::pos(1).holds(&w));
        assert!(Lit::neg(1).holds(&w));
        assert!(!Lit::neg(0).holds(&w));
    }

    #[test]
    fn conjunction_energy() {
        let f = Factor::conjunction(0, &[0, 1]);
        assert_eq!(f.feature_value(&world(&[true, true])), 1.0);
        assert_eq!(f.feature_value(&world(&[true, false])), 0.0);
        assert_eq!(f.energy(&world(&[true, true]), 2.5), 2.5);
        assert_eq!(f.variables().len(), 2);
    }

    #[test]
    fn imply_energy() {
        // body -> head : satisfied unless body true and head false
        let f = Factor::imply(0, &[0], 1);
        assert_eq!(f.feature_value(&world(&[false, false])), 1.0);
        assert_eq!(f.feature_value(&world(&[true, false])), 0.0);
        assert_eq!(f.feature_value(&world(&[true, true])), 1.0);
        assert_eq!(f.variables(), vec![0, 1]);
    }

    #[test]
    fn equal_and_prior() {
        let eq = Factor::equal(0, 0, 1);
        assert_eq!(eq.feature_value(&world(&[true, true])), 1.0);
        assert_eq!(eq.feature_value(&world(&[false, false])), 1.0);
        assert_eq!(eq.feature_value(&world(&[true, false])), 0.0);

        let prior = Factor::is_true(0, 1);
        assert_eq!(prior.feature_value(&world(&[false, true])), 1.0);
        assert_eq!(prior.feature_value(&world(&[false, false])), 0.0);
    }

    #[test]
    fn aggregate_counts_groundings_and_applies_sign() {
        // Voting program: q() :- Up(x).  head = var 0, up votes = vars 1, 2, 3.
        let f = Factor::new(
            0,
            FactorKind::Aggregate {
                head: Lit::pos(0),
                semantics: Semantics::Linear,
                groundings: vec![vec![Lit::pos(1)], vec![Lit::pos(2)], vec![Lit::pos(3)]],
            },
        );
        // head true, two up-votes true -> +2
        assert_eq!(f.feature_value(&world(&[true, true, true, false])), 2.0);
        // head false, two up-votes true -> -2
        assert_eq!(f.feature_value(&world(&[false, true, true, false])), -2.0);
        // Logical semantics: indicator
        let f_log = Factor::new(
            0,
            FactorKind::Aggregate {
                head: Lit::pos(0),
                semantics: Semantics::Logical,
                groundings: vec![vec![Lit::pos(1)], vec![Lit::pos(2)]],
            },
        );
        assert_eq!(f_log.feature_value(&world(&[true, true, true, false])), 1.0);
        assert_eq!(
            f_log.feature_value(&world(&[true, false, false, false])),
            0.0
        );
    }

    #[test]
    fn aggregate_variables_include_head_and_groundings() {
        let f = Factor::new(
            0,
            FactorKind::Aggregate {
                head: Lit::pos(5),
                semantics: Semantics::Ratio,
                groundings: vec![vec![Lit::pos(1), Lit::neg(2)], vec![Lit::pos(3)]],
            },
        );
        let vars = f.variables();
        assert!(vars.contains(&5));
        assert!(vars.contains(&1));
        assert!(vars.contains(&2));
        assert!(vars.contains(&3));
    }
}
