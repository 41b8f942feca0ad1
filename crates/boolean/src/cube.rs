//! Literals, terms (cubes) and sum-of-products forms.
//!
//! The Blake canonical form machinery (consensus, absorption, syllogistic
//! order) operates on these types rather than on raw [`Formula`] trees.

use std::collections::BTreeMap;
use std::fmt;

use crate::formula::Formula;
use crate::var::{Var, VarTable};

/// A literal: a variable or its complement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Literal {
    /// The underlying variable.
    pub var: Var,
    /// `true` for the positive literal `x`, `false` for `~x`.
    pub positive: bool,
}

impl Literal {
    /// Positive literal of `var`.
    pub fn pos(var: Var) -> Self {
        Literal {
            var,
            positive: true,
        }
    }

    /// Negative literal of `var`.
    pub fn neg(var: Var) -> Self {
        Literal {
            var,
            positive: false,
        }
    }

    /// The literal with opposite polarity.
    pub fn complement(self) -> Self {
        Literal {
            var: self.var,
            positive: !self.positive,
        }
    }

    /// Converts to a formula.
    pub fn to_formula(self) -> Formula {
        if self.positive {
            Formula::var(self.var)
        } else {
            Formula::not(Formula::var(self.var))
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "{}", self.var)
        } else {
            write!(f, "~{}", self.var)
        }
    }
}

/// A *term* (cube): a conjunction of literals over distinct variables.
///
/// The empty cube is the constant `1`. Contradictory cubes (`x & ~x`)
/// cannot be represented; the constructors return `None` instead, which
/// callers interpret as the constant `0`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Cube {
    lits: BTreeMap<Var, bool>,
}

impl Cube {
    /// The empty cube — the constant `1`.
    pub fn one() -> Self {
        Cube::default()
    }

    /// A single-literal cube.
    pub fn literal(l: Literal) -> Self {
        let mut lits = BTreeMap::new();
        lits.insert(l.var, l.positive);
        Cube { lits }
    }

    /// Builds a cube from literals; `None` if two literals clash.
    pub fn from_literals<I: IntoIterator<Item = Literal>>(it: I) -> Option<Self> {
        let mut c = Cube::one();
        for l in it {
            c = c.and_literal(l)?;
        }
        Some(c)
    }

    /// Conjunction with one more literal; `None` on contradiction.
    pub fn and_literal(&self, l: Literal) -> Option<Self> {
        match self.lits.get(&l.var) {
            Some(&p) if p != l.positive => None,
            Some(_) => Some(self.clone()),
            None => {
                let mut lits = self.lits.clone();
                lits.insert(l.var, l.positive);
                Some(Cube { lits })
            }
        }
    }

    /// Conjunction of two cubes; `None` on contradiction.
    pub fn and(&self, other: &Cube) -> Option<Self> {
        let (small, big) = if self.lits.len() <= other.lits.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = big.clone();
        for (&v, &p) in &small.lits {
            out = out.and_literal(Literal {
                var: v,
                positive: p,
            })?;
        }
        Some(out)
    }

    /// Number of literals.
    #[allow(clippy::len_without_is_empty)] // the zero-literal cube is the constant 1 (`is_one`)
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether this is the constant `1` (no literals).
    pub fn is_one(&self) -> bool {
        self.lits.is_empty()
    }

    /// Polarity of `v` in this cube, if present.
    pub fn polarity(&self, v: Var) -> Option<bool> {
        self.lits.get(&v).copied()
    }

    /// Iterates over the literals in variable order.
    pub fn literals(&self) -> impl Iterator<Item = Literal> + '_ {
        self.lits
            .iter()
            .map(|(&var, &positive)| Literal { var, positive })
    }

    /// Whether `self` *subsumes* (absorbs) `other`: every literal of
    /// `self` occurs in `other`, hence `other ≤ self` as functions.
    ///
    /// Absorption rewrites `p ∨ p·q → p`; this predicate is the `p ⊇ p·q`
    /// test.
    pub fn subsumes(&self, other: &Cube) -> bool {
        if self.lits.len() > other.lits.len() {
            return false;
        }
        self.lits.iter().all(|(v, p)| other.lits.get(v) == Some(p))
    }

    /// The *consensus* of two cubes (Quine / Blake).
    ///
    /// If exactly one variable appears with opposite polarity in the two
    /// cubes, the consensus is their conjunction with that variable
    /// removed: `x·p ∨ ~x·q  ⟹  x·p ∨ ~x·q ∨ p·q`. Returns `None` when
    /// the cubes clash in zero or in more than one variable.
    pub fn consensus(&self, other: &Cube) -> Option<Cube> {
        let mut clash: Option<Var> = None;
        for (&v, &p) in &self.lits {
            if let Some(&q) = other.lits.get(&v) {
                if p != q {
                    if clash.is_some() {
                        return None; // two clashes ⇒ consensus is 0
                    }
                    clash = Some(v);
                }
            }
        }
        let clash = clash?;
        let mut lits = BTreeMap::new();
        for (&v, &p) in self.lits.iter().chain(other.lits.iter()) {
            if v != clash {
                lits.insert(v, p);
            }
        }
        Some(Cube { lits })
    }

    /// Two-valued evaluation.
    pub fn eval2<F: Fn(Var) -> bool>(&self, assign: F) -> bool {
        self.lits.iter().all(|(&v, &p)| assign(v) == p)
    }

    /// Converts to a [`Formula`] (meet of the literals).
    pub fn to_formula(&self) -> Formula {
        Formula::and_all(self.literals().map(Literal::to_formula))
    }

    /// The cube with all negative literals dropped.
    ///
    /// Used by Algorithm 2 of the paper when computing the best *upper*
    /// bounding-box approximation: `U_f` keeps only positive atoms.
    pub fn positive_part(&self) -> Cube {
        Cube {
            lits: self
                .lits
                .iter()
                .filter(|(_, &p)| p)
                .map(|(&v, &p)| (v, p))
                .collect(),
        }
    }

    /// Restricts the cube by fixing `v := value`.
    ///
    /// Returns `Some(reduced)` when the cube does not become `0`, i.e.
    /// when `v` is absent or matches `value`; `None` otherwise.
    pub fn cofactor(&self, v: Var, value: bool) -> Option<Cube> {
        match self.lits.get(&v) {
            None => Some(self.clone()),
            Some(&p) if p == value => {
                let mut lits = self.lits.clone();
                lits.remove(&v);
                Some(Cube { lits })
            }
            Some(_) => None,
        }
    }

    /// Pretty-prints with names from `table`.
    pub fn display<'a>(&'a self, table: &'a VarTable) -> CubeDisplay<'a> {
        CubeDisplay { cube: self, table }
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        let mut first = true;
        for l in self.literals() {
            if !first {
                write!(f, " & ")?;
            }
            write!(f, "{l}")?;
            first = false;
        }
        Ok(())
    }
}

/// Pretty-printer for cubes with a name table.
pub struct CubeDisplay<'a> {
    cube: &'a Cube,
    table: &'a VarTable,
}

impl fmt::Display for CubeDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cube.is_one() {
            return write!(f, "1");
        }
        let mut first = true;
        for l in self.cube.literals() {
            if !first {
                write!(f, " & ")?;
            }
            if !l.positive {
                write!(f, "~")?;
            }
            write!(f, "{}", self.table.display(l.var))?;
            first = false;
        }
        Ok(())
    }
}

/// A sum of products: a disjunction of [`Cube`]s.
///
/// The empty SOP is the constant `0`. SOPs are kept *absorbed* (no cube
/// subsumes another) by [`Sop::push`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Sop {
    cubes: Vec<Cube>,
}

impl Sop {
    /// The constant `0` (empty disjunction).
    pub fn zero() -> Self {
        Sop::default()
    }

    /// The constant `1` (the single empty cube).
    pub fn one() -> Self {
        Sop {
            cubes: vec![Cube::one()],
        }
    }

    /// Builds from cubes, applying absorption.
    pub fn from_cubes<I: IntoIterator<Item = Cube>>(it: I) -> Self {
        let mut s = Sop::zero();
        for c in it {
            s.push(c);
        }
        s
    }

    /// Adds a cube unless it is absorbed; drops newly-absorbed cubes.
    ///
    /// Returns `true` if the cube was inserted.
    pub fn push(&mut self, c: Cube) -> bool {
        if self.cubes.iter().any(|existing| existing.subsumes(&c)) {
            return false;
        }
        self.cubes.retain(|existing| !c.subsumes(existing));
        self.cubes.push(c);
        true
    }

    /// The cubes of this SOP.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Whether this is the constant `0`.
    pub fn is_zero(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Whether this SOP contains the empty cube (and hence is `1`).
    pub fn is_one(&self) -> bool {
        self.cubes.iter().any(Cube::is_one)
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Whether there are no cubes.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Disjunction of two SOPs (with absorption).
    pub fn or(&self, other: &Sop) -> Sop {
        let mut out = self.clone();
        for c in &other.cubes {
            out.push(c.clone());
        }
        out
    }

    /// Conjunction of two SOPs by distribution (with absorption).
    pub fn and(&self, other: &Sop) -> Sop {
        let mut out = Sop::zero();
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(c) = a.and(b) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Two-valued evaluation.
    pub fn eval2<F: Fn(Var) -> bool + Copy>(&self, assign: F) -> bool {
        self.cubes.iter().any(|c| c.eval2(assign))
    }

    /// Canonically ordered list of cubes (for deterministic comparisons).
    pub fn sorted_cubes(&self) -> Vec<Cube> {
        let mut v = self.cubes.clone();
        v.sort();
        v
    }

    /// Converts to a [`Formula`].
    pub fn to_formula(&self) -> Formula {
        Formula::or_all(self.cubes.iter().map(Cube::to_formula))
    }

    /// The set of variables mentioned.
    pub fn vars(&self) -> std::collections::BTreeSet<Var> {
        let mut out = std::collections::BTreeSet::new();
        for c in &self.cubes {
            for l in c.literals() {
                out.insert(l.var);
            }
        }
        out
    }
}

impl fmt::Display for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        let mut first = true;
        for c in &self.cubes {
            if !first {
                write!(f, " | ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp(i: u32) -> Literal {
        Literal::pos(Var(i))
    }
    fn ln(i: u32) -> Literal {
        Literal::neg(Var(i))
    }

    #[test]
    fn cube_contradiction_is_none() {
        assert!(Cube::from_literals([lp(0), ln(0)]).is_none());
        let c = Cube::from_literals([lp(0), lp(1)]).unwrap();
        assert!(c.and_literal(ln(1)).is_none());
    }

    #[test]
    fn cube_and_merges() {
        let a = Cube::from_literals([lp(0)]).unwrap();
        let b = Cube::from_literals([ln(1)]).unwrap();
        let ab = a.and(&b).unwrap();
        assert_eq!(ab.len(), 2);
        assert_eq!(ab.polarity(Var(0)), Some(true));
        assert_eq!(ab.polarity(Var(1)), Some(false));
    }

    #[test]
    fn subsumption() {
        let p = Cube::from_literals([lp(0)]).unwrap();
        let pq = Cube::from_literals([lp(0), lp(1)]).unwrap();
        assert!(p.subsumes(&pq));
        assert!(!pq.subsumes(&p));
        assert!(Cube::one().subsumes(&p));
    }

    #[test]
    fn consensus_basic() {
        // x&y and ~x&z clash only on x ⇒ consensus y&z
        let a = Cube::from_literals([lp(0), lp(1)]).unwrap();
        let b = Cube::from_literals([ln(0), lp(2)]).unwrap();
        let c = a.consensus(&b).unwrap();
        assert_eq!(c, Cube::from_literals([lp(1), lp(2)]).unwrap());
    }

    #[test]
    fn consensus_requires_exactly_one_clash() {
        let a = Cube::from_literals([lp(0), lp(1)]).unwrap();
        let b = Cube::from_literals([ln(0), ln(1)]).unwrap();
        assert!(a.consensus(&b).is_none(), "two clashes");
        let c = Cube::from_literals([lp(0), lp(2)]).unwrap();
        let d = Cube::from_literals([lp(0), lp(3)]).unwrap();
        assert!(c.consensus(&d).is_none(), "no clash");
    }

    #[test]
    fn consensus_is_implied() {
        // soundness: a ∨ b ⟹ a ∨ b ∨ consensus(a,b) is an equivalence;
        // check consensus ≤ a ∨ b on all assignments of 3 vars.
        let a = Cube::from_literals([lp(0), lp(1)]).unwrap();
        let b = Cube::from_literals([ln(0), lp(2)]).unwrap();
        let c = a.consensus(&b).unwrap();
        for bits in 0u32..8 {
            let assign = |v: Var| bits >> v.0 & 1 == 1;
            if c.eval2(assign) {
                assert!(a.eval2(assign) || b.eval2(assign));
            }
        }
    }

    #[test]
    fn sop_push_absorbs() {
        let mut s = Sop::zero();
        assert!(s.push(Cube::from_literals([lp(0), lp(1)]).unwrap()));
        assert!(s.push(Cube::from_literals([lp(0)]).unwrap()));
        assert_eq!(s.len(), 1, "x absorbs x&y");
        assert!(!s.push(Cube::from_literals([lp(0), ln(2)]).unwrap()));
    }

    #[test]
    fn sop_and_distributes() {
        // (x | y) & (~x | z) = x&z | y&~x | y&z
        let left = Sop::from_cubes([Cube::literal(lp(0)), Cube::literal(lp(1))]);
        let right = Sop::from_cubes([Cube::literal(ln(0)), Cube::literal(lp(2))]);
        let prod = left.and(&right);
        for bits in 0u32..8 {
            let assign = |v: Var| bits >> v.0 & 1 == 1;
            assert_eq!(
                prod.eval2(assign),
                left.eval2(assign) && right.eval2(assign)
            );
        }
    }

    #[test]
    fn sop_constants() {
        assert!(Sop::zero().is_zero());
        assert!(Sop::one().is_one());
        assert_eq!(Sop::zero().to_formula(), Formula::Zero);
        assert_eq!(Sop::one().to_formula(), Formula::One);
    }

    #[test]
    fn positive_part_drops_negatives() {
        let c = Cube::from_literals([lp(0), ln(1), lp(2)]).unwrap();
        let p = c.positive_part();
        assert_eq!(p, Cube::from_literals([lp(0), lp(2)]).unwrap());
    }

    #[test]
    fn cube_cofactor() {
        let c = Cube::from_literals([lp(0), ln(1)]).unwrap();
        assert_eq!(
            c.cofactor(Var(0), true).unwrap(),
            Cube::from_literals([ln(1)]).unwrap()
        );
        assert!(c.cofactor(Var(0), false).is_none());
        assert_eq!(c.cofactor(Var(5), true).unwrap(), c);
    }

    #[test]
    fn display_cube_and_sop() {
        let c = Cube::from_literals([lp(0), ln(1)]).unwrap();
        assert_eq!(c.to_string(), "x0 & ~x1");
        let s = Sop::from_cubes([c, Cube::literal(lp(2))]);
        assert_eq!(s.to_string(), "x0 & ~x1 | x2");
        assert_eq!(Sop::zero().to_string(), "0");
        assert_eq!(Cube::one().to_string(), "1");
    }
}
