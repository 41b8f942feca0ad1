//! The Boolean formula AST.
//!
//! Formulas are immutable trees with [`Arc`]-shared subterms, so cloning is
//! O(1) and the cofactor/substitution machinery used by the triangularizer
//! can freely duplicate subformulas.
//!
//! All constructors perform *light* simplification (constant folding,
//! involution, idempotence on structurally equal operands). Semantic
//! simplification and equivalence checks are the job of
//! [`crate::Bdd`] and [`crate::bcf`].

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::var::{Var, VarTable};

/// A Boolean formula over [`Var`]s with constants `0` and `1`.
///
/// The representation deliberately keeps only the three classical
/// connectives (complement, meet, join). Derived connectives (xor,
/// difference, implication) are provided as constructor methods.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// The bottom element `0` (the empty region).
    Zero,
    /// The top element `1` (the universe).
    One,
    /// A variable.
    Var(Var),
    /// Complement.
    Not(Arc<Formula>),
    /// Meet (intersection / conjunction).
    And(Arc<Formula>, Arc<Formula>),
    /// Join (union / disjunction).
    Or(Arc<Formula>, Arc<Formula>),
}

impl Formula {
    /// The constant `0`.
    pub fn zero() -> Self {
        Formula::Zero
    }

    /// The constant `1`.
    pub fn one() -> Self {
        Formula::One
    }

    /// A variable atom.
    pub fn var(v: Var) -> Self {
        Formula::Var(v)
    }

    /// Complement with involution and constant folding.
    #[allow(clippy::should_implement_trait)] // algebraic constructor, not unary operator
    pub fn not(f: Formula) -> Self {
        match f {
            Formula::Zero => Formula::One,
            Formula::One => Formula::Zero,
            Formula::Not(inner) => (*inner).clone(),
            other => Formula::Not(Arc::new(other)),
        }
    }

    /// Meet with unit/zero/idempotence folding.
    pub fn and(a: Formula, b: Formula) -> Self {
        match (&a, &b) {
            (Formula::Zero, _) | (_, Formula::Zero) => Formula::Zero,
            (Formula::One, _) => b,
            (_, Formula::One) => a,
            _ if a == b => a,
            _ => Formula::And(Arc::new(a), Arc::new(b)),
        }
    }

    /// Join with unit/zero/idempotence folding.
    pub fn or(a: Formula, b: Formula) -> Self {
        match (&a, &b) {
            (Formula::One, _) | (_, Formula::One) => Formula::One,
            (Formula::Zero, _) => b,
            (_, Formula::Zero) => a,
            _ if a == b => a,
            _ => Formula::Or(Arc::new(a), Arc::new(b)),
        }
    }

    /// `a \ b` — set difference, `a ∧ ¬b`.
    pub fn diff(a: Formula, b: Formula) -> Self {
        Formula::and(a, Formula::not(b))
    }

    /// Symmetric difference `a ⊕ b = (a ∧ ¬b) ∨ (¬a ∧ b)`.
    ///
    /// This is the classical encoding of the equality constraint `a = b`
    /// as a single equation `a ⊕ b = 0` (paper, Theorem 1).
    pub fn xor(a: Formula, b: Formula) -> Self {
        Formula::or(Formula::diff(a.clone(), b.clone()), Formula::diff(b, a))
    }

    /// n-ary join of an iterator of formulas.
    pub fn or_all<I: IntoIterator<Item = Formula>>(it: I) -> Self {
        it.into_iter().fold(Formula::Zero, Formula::or)
    }

    /// n-ary meet of an iterator of formulas.
    pub fn and_all<I: IntoIterator<Item = Formula>>(it: I) -> Self {
        it.into_iter().fold(Formula::One, Formula::and)
    }

    /// Whether this formula is syntactically the constant `0`.
    ///
    /// For a *semantic* zero test use [`crate::Bdd::is_zero_formula`].
    pub fn is_zero(&self) -> bool {
        matches!(self, Formula::Zero)
    }

    /// Whether this formula is syntactically the constant `1`.
    pub fn is_one(&self) -> bool {
        matches!(self, Formula::One)
    }

    /// The set of variables occurring in the formula.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            Formula::Zero | Formula::One => {}
            Formula::Var(v) => {
                out.insert(*v);
            }
            Formula::Not(f) => f.collect_vars(out),
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Whether `v` occurs in the formula.
    pub fn mentions(&self, v: Var) -> bool {
        match self {
            Formula::Zero | Formula::One => false,
            Formula::Var(w) => *w == v,
            Formula::Not(f) => f.mentions(v),
            Formula::And(a, b) | Formula::Or(a, b) => a.mentions(v) || b.mentions(v),
        }
    }

    /// Substitutes `replacement` for every occurrence of `v`, re-running
    /// the simplifying constructors bottom-up.
    pub fn subst(&self, v: Var, replacement: &Formula) -> Formula {
        match self {
            Formula::Zero | Formula::One => self.clone(),
            Formula::Var(w) => {
                if *w == v {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            Formula::Not(f) => Formula::not(f.subst(v, replacement)),
            Formula::And(a, b) => Formula::and(a.subst(v, replacement), b.subst(v, replacement)),
            Formula::Or(a, b) => Formula::or(a.subst(v, replacement), b.subst(v, replacement)),
        }
    }

    /// The cofactor `f[v ← value]`: `v` replaced by a constant.
    ///
    /// Cofactors are the workhorse of Boole's method: the paper writes
    /// `f_x(0)` and `f_x(1)` for `cofactor(x, false)` / `cofactor(x, true)`.
    pub fn cofactor(&self, v: Var, value: bool) -> Formula {
        let c = if value { Formula::One } else { Formula::Zero };
        self.subst(v, &c)
    }

    /// Two-valued evaluation under an assignment of `bool`s to variables.
    ///
    /// This is evaluation in the two-element Boolean algebra; evaluation in
    /// arbitrary algebras lives in `scq-algebra`.
    pub fn eval2<F: Fn(Var) -> bool + Copy>(&self, assign: F) -> bool {
        match self {
            Formula::Zero => false,
            Formula::One => true,
            Formula::Var(v) => assign(*v),
            Formula::Not(f) => !f.eval2(assign),
            Formula::And(a, b) => a.eval2(assign) && b.eval2(assign),
            Formula::Or(a, b) => a.eval2(assign) || b.eval2(assign),
        }
    }

    /// Number of AST nodes — a crude size metric.
    pub fn size(&self) -> usize {
        match self {
            Formula::Zero | Formula::One | Formula::Var(_) => 1,
            Formula::Not(f) => 1 + f.size(),
            Formula::And(a, b) | Formula::Or(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Pretty-prints the formula with names resolved through `table`.
    pub fn display<'a>(&'a self, table: &'a VarTable) -> FormulaDisplay<'a> {
        FormulaDisplay {
            f: self,
            table: Some(table),
        }
    }

    fn fmt_prec(
        &self,
        out: &mut fmt::Formatter<'_>,
        table: Option<&VarTable>,
        prec: u8,
    ) -> fmt::Result {
        // precedence: Or = 1, And = 2, Not = 3, atoms = 4
        match self {
            Formula::Zero => write!(out, "0"),
            Formula::One => write!(out, "1"),
            Formula::Var(v) => match table {
                Some(t) => write!(out, "{}", t.display(*v)),
                None => write!(out, "{v}"),
            },
            Formula::Not(f) => {
                write!(out, "~")?;
                f.fmt_prec(out, table, 3)
            }
            Formula::And(a, b) => {
                let need = prec > 2;
                if need {
                    write!(out, "(")?;
                }
                a.fmt_prec(out, table, 2)?;
                write!(out, " & ")?;
                b.fmt_prec(out, table, 2)?;
                if need {
                    write!(out, ")")?;
                }
                Ok(())
            }
            Formula::Or(a, b) => {
                let need = prec > 1;
                if need {
                    write!(out, "(")?;
                }
                a.fmt_prec(out, table, 1)?;
                write!(out, " | ")?;
                b.fmt_prec(out, table, 1)?;
                if need {
                    write!(out, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, None, 0)
    }
}

/// Helper returned by [`Formula::display`] that prints variable names.
pub struct FormulaDisplay<'a> {
    f: &'a Formula,
    table: Option<&'a VarTable>,
}

impl fmt::Display for FormulaDisplay<'_> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.f.fmt_prec(out, self.table, 0)
    }
}

impl From<Var> for Formula {
    fn from(v: Var) -> Self {
        Formula::Var(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn constructors_fold_constants() {
        assert_eq!(Formula::and(Formula::Zero, v(0)), Formula::Zero);
        assert_eq!(Formula::and(v(0), Formula::One), v(0));
        assert_eq!(Formula::or(Formula::One, v(0)), Formula::One);
        assert_eq!(Formula::or(v(0), Formula::Zero), v(0));
        assert_eq!(Formula::not(Formula::Zero), Formula::One);
        assert_eq!(Formula::not(Formula::not(v(1))), v(1));
    }

    #[test]
    fn idempotence_on_equal_operands() {
        let f = Formula::and(v(0), v(0));
        assert_eq!(f, v(0));
        let g = Formula::or(Formula::and(v(0), v(1)), Formula::and(v(0), v(1)));
        assert_eq!(g, Formula::and(v(0), v(1)));
    }

    #[test]
    fn xor_truth_table() {
        let f = Formula::xor(v(0), v(1));
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let got = f.eval2(|x| if x == Var(0) { a } else { b });
            assert_eq!(got, a ^ b, "xor({a},{b})");
        }
    }

    #[test]
    fn cofactor_eliminates_variable() {
        let f = Formula::or(Formula::and(v(0), v(1)), Formula::not(v(0)));
        let f0 = f.cofactor(Var(0), false);
        let f1 = f.cofactor(Var(0), true);
        assert!(!f0.mentions(Var(0)));
        assert!(!f1.mentions(Var(0)));
        assert_eq!(f0, Formula::One);
        assert_eq!(f1, v(1));
    }

    #[test]
    fn subst_replaces_all_occurrences() {
        let f = Formula::or(v(0), Formula::and(v(0), v(1)));
        let g = f.subst(Var(0), &v(2));
        assert!(!g.mentions(Var(0)));
        assert!(g.mentions(Var(2)));
    }

    #[test]
    fn vars_collects_all() {
        let f = Formula::and(Formula::or(v(0), v(3)), Formula::not(v(1)));
        let vs = f.vars();
        assert_eq!(
            vs.into_iter().collect::<Vec<_>>(),
            vec![Var(0), Var(1), Var(3)]
        );
    }

    #[test]
    fn display_respects_precedence() {
        let f = Formula::and(Formula::or(v(0), v(1)), Formula::not(v(2)));
        assert_eq!(f.to_string(), "(x0 | x1) & ~x2");
        let g = Formula::or(Formula::and(v(0), v(1)), v(2));
        assert_eq!(g.to_string(), "x0 & x1 | x2");
    }

    #[test]
    fn display_with_table_uses_names() {
        let mut t = VarTable::new();
        let a = t.intern("A");
        let b = t.intern("B");
        let f = Formula::and(Formula::var(a), Formula::not(Formula::var(b)));
        assert_eq!(f.display(&t).to_string(), "A & ~B");
    }

    #[test]
    fn size_counts_nodes() {
        let f = Formula::and(v(0), Formula::not(v(1)));
        assert_eq!(f.size(), 4);
    }

    #[test]
    fn n_ary_helpers() {
        let f = Formula::or_all([v(0), v(1), v(2)]);
        assert!(f.eval2(|x| x == Var(2)));
        let g = Formula::and_all([v(0), v(1)]);
        assert!(!g.eval2(|x| x == Var(1)));
        assert_eq!(Formula::or_all(std::iter::empty()), Formula::Zero);
        assert_eq!(Formula::and_all(std::iter::empty()), Formula::One);
    }
}
