//! Algorithm 2 of the paper: best lower and upper bounding-box function
//! approximations to a Boolean function.
//!
//! For a Boolean function `f` over region variables, the paper defines
//! (Definitions in §4):
//!
//! * `F ⊑ f` (lower approximation) iff `F(⌈x₁⌉,…,⌈xₙ⌉) ⊑ ⌈f(x₁,…,xₙ)⌉`
//!   for all region values, and
//! * `f ⊑ F` (upper approximation) iff `⌈f(x₁,…,xₙ)⌉ ⊑ F(⌈x₁⌉,…,⌈xₙ⌉)`.
//!
//! The best such bounding-box functions are (Theorems 16 and 18):
//!
//! * `L_f = ⊔ { ⌈x⌉ : atom x with x ≤ f }` — the single-atom terms of
//!   the Blake canonical form;
//! * `U_f = ⊔_{terms t of SOP(f)} ⊓_{positive atoms x of t} ⌈x⌉` —
//!   computed from the BCF by dropping negative literals (Algorithm 2).
//!
//! A term with *no* positive atoms (e.g. `¬x`) has the unbounded meet as
//! its upper approximation; we represent that top element explicitly as
//! [`UpperBound::Top`] since boxes over `ℝᵏ` have no largest element.
//!
//! Note `L_f` for `f ≡ 1` would ideally be the universe box; without a
//! universe constant the atom-join is `∅`, which is still a *sound*
//! lower bound (the theorems in the paper are stated for functions whose
//! only constants are 0 and 1; the compiler never needs a better lower
//! bound for constant-true functions).

use scq_bbox::{Bbox, BboxExpr};
use scq_boolean::bcf::{blake_canonical_form, single_atom_terms};
use scq_boolean::Formula;

/// An upper bounding-box function, possibly the top element (no bound).
#[derive(Clone, PartialEq, Debug)]
pub enum UpperBound<const K: usize> {
    /// No finite bound: every box satisfies it.
    Top,
    /// A concrete bounding-box function.
    Expr(BboxExpr<K>),
}

impl<const K: usize> UpperBound<K> {
    /// Evaluates under a variable valuation; `None` means top.
    pub fn eval<F: Fn(usize) -> Bbox<K> + Copy>(&self, lookup: F) -> Option<Bbox<K>> {
        match self {
            UpperBound::Top => None,
            UpperBound::Expr(e) => Some(e.eval(lookup)),
        }
    }

    /// Whether this is the top element.
    pub fn is_top(&self) -> bool {
        matches!(self, UpperBound::Top)
    }

    /// Whether this is the constant `∅` bound (matches only nothing).
    #[cfg(test)]
    pub(crate) fn is_const_empty(&self) -> bool {
        matches!(self, UpperBound::Expr(e) if e.is_const_empty())
    }
}

impl<const K: usize> std::fmt::Display for UpperBound<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpperBound::Top => write!(f, "⊤"),
            UpperBound::Expr(e) => write!(f, "{e}"),
        }
    }
}

/// The best lower bounding-box function `L_f` (Theorem 16).
///
/// Variables map to [`BboxExpr::Var`] by their [`scq_boolean::Var`]
/// index.
pub fn lower_bbox_fn<const K: usize>(f: &Formula) -> BboxExpr<K> {
    let bcf = blake_canonical_form(f);
    BboxExpr::join_all(
        single_atom_terms(&bcf)
            .into_iter()
            .map(|v| BboxExpr::var(v.index())),
    )
}

/// The best upper bounding-box function `U_f` (Theorem 18 /
/// Algorithm 2): drop negative literals from the Blake canonical form,
/// replace `∧`/`∨` by `⊓`/`⊔`.
pub fn upper_bbox_fn<const K: usize>(f: &Formula) -> UpperBound<K> {
    let bcf = blake_canonical_form(f);
    if bcf.is_zero() {
        return UpperBound::Expr(BboxExpr::empty());
    }
    let mut terms: Vec<BboxExpr<K>> = Vec::with_capacity(bcf.len());
    for cube in bcf.cubes() {
        let pos = cube.positive_part();
        if pos.is_one() {
            // No positive atom bounds this term: the whole join is top.
            return UpperBound::Top;
        }
        terms.push(BboxExpr::meet_all(
            pos.literals().map(|l| BboxExpr::var(l.var.index())),
        ));
    }
    UpperBound::Expr(BboxExpr::join_all(terms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_algebra::{eval_formula, Assignment};
    use scq_boolean::Var;
    use scq_region::{AaBox, Region, RegionAlgebra};

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn paper_example_3() {
        // f = x·y ∨ ¬x·y ∨ x·z·¬w; BCF = y ∨ x·z·¬w.
        // L_f = ⌈y⌉;  U_f = ⌈y⌉ ⊔ (⌈x⌉ ⊓ ⌈z⌉).
        let (x, y, z, w) = (0u32, 1u32, 2u32, 3u32);
        let f = Formula::or_all([
            Formula::and(v(x), v(y)),
            Formula::and(Formula::not(v(x)), v(y)),
            Formula::and_all([v(x), v(z), Formula::not(v(w))]),
        ]);
        let l: BboxExpr<2> = lower_bbox_fn(&f);
        assert_eq!(l, BboxExpr::var(y as usize));
        let u: UpperBound<2> = upper_bbox_fn(&f);
        // Semantically: U_f = ⌈y⌉ ⊔ (⌈x⌉ ⊓ ⌈z⌉). Compare by evaluation
        // (the join's operand order depends on BCF cube ordering).
        let want = BboxExpr::join(
            BboxExpr::var(y as usize),
            BboxExpr::meet(BboxExpr::var(x as usize), BboxExpr::var(z as usize)),
        );
        let samples: [[Bbox<2>; 4]; 3] = [
            [
                Bbox::new([0.0, 0.0], [2.0, 2.0]),
                Bbox::new([5.0, 5.0], [7.0, 7.0]),
                Bbox::new([1.0, 1.0], [3.0, 3.0]),
                Bbox::new([9.0, 9.0], [9.5, 9.5]),
            ],
            [
                Bbox::Empty,
                Bbox::new([5.0, 5.0], [7.0, 7.0]),
                Bbox::new([1.0, 1.0], [3.0, 3.0]),
                Bbox::Empty,
            ],
            [
                Bbox::new([0.0, 0.0], [9.0, 9.0]),
                Bbox::Empty,
                Bbox::Empty,
                Bbox::new([4.0, 4.0], [5.0, 5.0]),
            ],
        ];
        match &u {
            UpperBound::Expr(e) => {
                for boxes in &samples {
                    assert_eq!(e.eval(|i| boxes[i]), want.eval(|i| boxes[i]));
                }
            }
            UpperBound::Top => panic!("U_f must be bounded"),
        }
    }

    #[test]
    fn constants() {
        let l0: BboxExpr<1> = lower_bbox_fn(&Formula::Zero);
        assert!(l0.is_const_empty());
        let u0: UpperBound<1> = upper_bbox_fn(&Formula::Zero);
        assert!(u0.is_const_empty());
        let u1: UpperBound<1> = upper_bbox_fn(&Formula::One);
        assert!(u1.is_top());
        let l1: BboxExpr<1> = lower_bbox_fn(&Formula::One);
        assert!(l1.is_const_empty(), "sound (weak) lower bound for 1");
    }

    #[test]
    fn negative_literal_only_terms_are_top() {
        let u: UpperBound<1> = upper_bbox_fn(&Formula::not(v(0)));
        assert!(u.is_top());
        // but a disjunction with a bounded term is still top overall
        let f = Formula::or(Formula::not(v(0)), v(1));
        let u: UpperBound<1> = upper_bbox_fn(&f);
        assert!(u.is_top());
    }

    #[test]
    fn syntactic_transform_is_not_best_upper() {
        // The paper's example: x·y ∨ x·z and x·(y∨z) denote the same
        // function; naive syntactic translation of the first gives
        // (⌈x⌉⊓⌈y⌉) ⊔ (⌈x⌉⊓⌈z⌉), which can be smaller than
        // ⌈x⌉ ⊓ (⌈y⌉⊔⌈z⌉). Our U_f goes through the BCF, so both
        // syntaxes yield the same (best) function.
        let f1 = Formula::or(Formula::and(v(0), v(1)), Formula::and(v(0), v(2)));
        let f2 = Formula::and(v(0), Formula::or(v(1), v(2)));
        let u1: UpperBound<2> = upper_bbox_fn(&f1);
        let u2: UpperBound<2> = upper_bbox_fn(&f2);
        assert_eq!(u1, u2);
    }

    /// Evaluates f over concrete regions and checks the sandwich
    /// `L_f(boxes) ⊑ ⌈f(regions)⌉ ⊑ U_f(boxes)`.
    fn check_sandwich(f: &Formula, regions: &[Region<2>]) {
        let alg = RegionAlgebra::new(AaBox::new([0.0, 0.0], [100.0, 100.0]));
        let mut assign = Assignment::new();
        for (i, r) in regions.iter().enumerate() {
            assign.bind(Var(i as u32), r.clone());
        }
        let value = eval_formula(&alg, f, &assign).unwrap();
        let exact = value.bbox();
        let lookup = |i: usize| regions[i].bbox();
        let l: BboxExpr<2> = lower_bbox_fn(f);
        assert!(
            l.eval(lookup).le(&exact),
            "L_f ⊑ ⌈f⌉ violated: {} vs {exact} for {f}",
            l.eval(lookup)
        );
        let u: UpperBound<2> = upper_bbox_fn(f);
        if let Some(ub) = u.eval(lookup) {
            assert!(exact.le(&ub), "⌈f⌉ ⊑ U_f violated: {exact} vs {ub} for {f}");
        }
    }

    #[test]
    fn sandwich_on_random_formulas_and_regions() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use scq_boolean::random::{random_formula, FormulaConfig};
        let mut rng = StdRng::seed_from_u64(5150);
        let cfg = FormulaConfig {
            nvars: 4,
            depth: 5,
            const_prob: 0.05,
        };
        for _ in 0..60 {
            let f = random_formula(&mut rng, &cfg);
            let regions: Vec<Region<2>> = (0..4)
                .map(|_| {
                    let nboxes = rng.random_range(1..4);
                    Region::from_boxes((0..nboxes).map(|_| {
                        let lo = [rng.random_range(0.0..80.0), rng.random_range(0.0..80.0)];
                        let w = [rng.random_range(1.0..15.0), rng.random_range(1.0..15.0)];
                        AaBox::new(lo, [lo[0] + w[0], lo[1] + w[1]])
                    }))
                })
                .collect();
            check_sandwich(&f, &regions);
        }
    }

    #[test]
    fn sandwich_with_empty_regions() {
        let f = Formula::or(Formula::and(v(0), v(1)), v(2));
        let regions = vec![
            Region::empty(),
            Region::from_box(AaBox::new([0.0, 0.0], [5.0, 5.0])),
            Region::empty(),
        ];
        check_sandwich(&f, &regions);
    }

    #[test]
    fn upper_bound_display() {
        let u: UpperBound<1> = UpperBound::Top;
        assert_eq!(u.to_string(), "⊤");
        let e: UpperBound<1> = UpperBound::Expr(BboxExpr::var(3));
        assert_eq!(e.to_string(), "⌈x3⌉");
    }
}
