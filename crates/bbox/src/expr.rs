//! Bounding-box *functions*: expressions over box variables built from
//! `⊓`, `⊔` and constants.
//!
//! These are the compile-time artifacts of the paper's Algorithm 2: the
//! best lower/upper approximations `L_f`, `U_f` of a Boolean function `f`
//! are bounding-box functions, evaluated at query time on the bounding
//! boxes of already-retrieved regions — much cheaper than the exact
//! region operations they replace.

use std::fmt;
use std::sync::Arc;

use crate::lattice::Bbox;

/// A bounding-box function over variables `0..n` (identified by index).
///
/// Monotone by construction: both `⊓` and `⊔` are monotone in each
/// argument, which is what makes the lower/upper approximation scheme of
/// the paper sound under substitution.
#[derive(Clone, PartialEq, Debug)]
pub enum BboxExpr<const K: usize> {
    /// A variable, resolved at evaluation time.
    Var(usize),
    /// A constant box (including `∅`).
    Const(Bbox<K>),
    /// Lattice meet `⊓` of the operands.
    Meet(Arc<BboxExpr<K>>, Arc<BboxExpr<K>>),
    /// Lattice join `⊔` of the operands.
    Join(Arc<BboxExpr<K>>, Arc<BboxExpr<K>>),
}

impl<const K: usize> BboxExpr<K> {
    /// The constant `∅` (bottom).
    pub fn empty() -> Self {
        BboxExpr::Const(Bbox::Empty)
    }

    /// A variable reference.
    pub fn var(i: usize) -> Self {
        BboxExpr::Var(i)
    }

    /// A constant.
    #[cfg(test)]
    pub(crate) fn constant(b: Bbox<K>) -> Self {
        BboxExpr::Const(b)
    }

    /// Meet with constant folding (`∅ ⊓ e = ∅`, const ⊓ const folded).
    pub fn meet(a: BboxExpr<K>, b: BboxExpr<K>) -> Self {
        match (&a, &b) {
            (BboxExpr::Const(x), _) if x.is_empty() => BboxExpr::empty(),
            (_, BboxExpr::Const(y)) if y.is_empty() => BboxExpr::empty(),
            (BboxExpr::Const(x), BboxExpr::Const(y)) => BboxExpr::Const(x.meet(y)),
            _ if a == b => a,
            _ => BboxExpr::Meet(Arc::new(a), Arc::new(b)),
        }
    }

    /// Join with constant folding (`∅ ⊔ e = e`, const ⊔ const folded).
    pub fn join(a: BboxExpr<K>, b: BboxExpr<K>) -> Self {
        match (&a, &b) {
            (BboxExpr::Const(x), _) if x.is_empty() => b,
            (_, BboxExpr::Const(y)) if y.is_empty() => a,
            (BboxExpr::Const(x), BboxExpr::Const(y)) => BboxExpr::Const(x.join(y)),
            _ if a == b => a,
            _ => BboxExpr::Join(Arc::new(a), Arc::new(b)),
        }
    }

    /// n-ary join; empty iterator gives `∅`.
    pub fn join_all<I: IntoIterator<Item = BboxExpr<K>>>(it: I) -> Self {
        it.into_iter().fold(BboxExpr::empty(), BboxExpr::join)
    }

    /// n-ary meet; empty iterator gives the top element, which has no
    /// finite representation — callers must pass at least one operand.
    ///
    /// # Panics
    /// On an empty iterator.
    pub fn meet_all<I: IntoIterator<Item = BboxExpr<K>>>(it: I) -> Self {
        let mut iter = it.into_iter();
        let first = iter.next().expect("meet_all needs at least one operand");
        iter.fold(first, BboxExpr::meet)
    }

    /// Evaluates under a variable valuation.
    pub fn eval<F: Fn(usize) -> Bbox<K> + Copy>(&self, lookup: F) -> Bbox<K> {
        match self {
            BboxExpr::Var(i) => lookup(*i),
            BboxExpr::Const(b) => *b,
            BboxExpr::Meet(a, b) => a.eval(lookup).meet(&b.eval(lookup)),
            BboxExpr::Join(a, b) => a.eval(lookup).join(&b.eval(lookup)),
        }
    }

    /// Whether the expression is the constant `∅`.
    pub fn is_const_empty(&self) -> bool {
        matches!(self, BboxExpr::Const(b) if b.is_empty())
    }

    /// The set of variable indices mentioned.
    pub fn vars(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<usize>) {
        match self {
            BboxExpr::Var(i) => out.push(*i),
            BboxExpr::Const(_) => {}
            BboxExpr::Meet(a, b) | BboxExpr::Join(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Number of AST nodes.
    #[cfg(test)]
    fn size(&self) -> usize {
        match self {
            BboxExpr::Var(_) | BboxExpr::Const(_) => 1,
            BboxExpr::Meet(a, b) | BboxExpr::Join(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl<const K: usize> fmt::Display for BboxExpr<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BboxExpr::Var(i) => write!(f, "⌈x{i}⌉"),
            BboxExpr::Const(b) => write!(f, "{b}"),
            BboxExpr::Meet(a, b) => write!(f, "({a} ⊓ {b})"),
            BboxExpr::Join(a, b) => write!(f, "({a} ⊔ {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: f64, hi: f64) -> Bbox<1> {
        Bbox::new([lo], [hi])
    }

    #[test]
    fn constant_folding() {
        let e = BboxExpr::meet(
            BboxExpr::constant(b(0.0, 2.0)),
            BboxExpr::constant(b(1.0, 3.0)),
        );
        assert_eq!(e, BboxExpr::Const(b(1.0, 2.0)));
        let z = BboxExpr::meet(BboxExpr::<1>::empty(), BboxExpr::var(0));
        assert!(z.is_const_empty());
        let j = BboxExpr::join(BboxExpr::<1>::empty(), BboxExpr::var(3));
        assert_eq!(j, BboxExpr::var(3));
    }

    #[test]
    fn eval_resolves_vars() {
        let e = BboxExpr::join(
            BboxExpr::meet(BboxExpr::var(0), BboxExpr::var(1)),
            BboxExpr::constant(b(10.0, 11.0)),
        );
        let boxes = [b(0.0, 5.0), b(3.0, 8.0)];
        let got = e.eval(|i| boxes[i]);
        assert_eq!(got, b(3.0, 11.0));
    }

    #[test]
    fn monotonicity() {
        // Enlarging an input can only enlarge the output.
        let e = BboxExpr::join(
            BboxExpr::meet(BboxExpr::var(0), BboxExpr::constant(b(0.0, 4.0))),
            BboxExpr::var(1),
        );
        let small = [b(1.0, 2.0), b(5.0, 6.0)];
        let big = [b(0.0, 3.0), b(5.0, 9.0)];
        let lo = e.eval(|i| small[i]);
        let hi = e.eval(|i| big[i]);
        assert!(lo.le(&hi));
    }

    #[test]
    fn vars_and_size() {
        let e = BboxExpr::<1>::meet(
            BboxExpr::var(2),
            BboxExpr::join(BboxExpr::var(0), BboxExpr::var(2)),
        );
        assert_eq!(e.vars(), vec![0, 2]);
        assert_eq!(e.size(), 5);
    }

    #[test]
    fn join_all_meet_all() {
        let parts = vec![
            BboxExpr::constant(b(0.0, 1.0)),
            BboxExpr::constant(b(4.0, 5.0)),
        ];
        assert_eq!(
            BboxExpr::join_all(parts.clone()),
            BboxExpr::Const(b(0.0, 5.0))
        );
        assert_eq!(BboxExpr::meet_all(parts), BboxExpr::Const(Bbox::Empty));
        assert!(BboxExpr::<1>::join_all(std::iter::empty()).is_const_empty());
    }

    #[test]
    #[should_panic(expected = "at least one operand")]
    fn meet_all_rejects_empty() {
        let _ = BboxExpr::<1>::meet_all(std::iter::empty());
    }

    #[test]
    fn display() {
        let e = BboxExpr::<1>::meet(BboxExpr::var(0), BboxExpr::var(1));
        assert_eq!(e.to_string(), "(⌈x0⌉ ⊓ ⌈x1⌉)");
    }
}
