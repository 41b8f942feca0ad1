//! Compilation of a triangular system into per-variable **range-query
//! plans** (Section 4 of the paper, assembled for execution).
//!
//! Each solved row
//!
//! ```text
//! s ≤ xᵢ ≤ t   ∧   ⋀ⱼ ( xᵢ·pⱼ ∨ ¬xᵢ·qⱼ ≠ 0 )
//! ```
//!
//! compiles to bounding-box functions evaluated on the boxes of the
//! already-retrieved prefix:
//!
//! * `L_s ⊑ ⌈xᵢ⌉` — from `s ≤ x ⟹ ⌈s⌉ ⊑ ⌈x⌉` and `L_s ⊑ ⌈s⌉`;
//! * `⌈xᵢ⌉ ⊑ U_t` — from `x ≤ t ⟹ ⌈x⌉ ⊑ ⌈t⌉ ⊑ U_t`;
//! * `⌈xᵢ⌉ ⊓ U_pⱼ ≠ ∅` — applicable only when `qⱼ` is known to be `0`
//!   (compile-time, via BDD) or its upper bound evaluates to `∅` at run
//!   time (`U_q = ∅ ⟹ ⌈q⌉ = ∅ ⟹ q = 0`), since otherwise the
//!   disequation can be satisfied through `¬x·q` and constrains `x` not
//!   at all (paper, §4).
//!
//! All three shapes land in one [`CornerQuery`] — a single spatial range
//! query per retrieval step (Figure 3).

use scq_bbox::{Bbox, BboxExpr, CornerQuery};
use scq_boolean::{Bdd, Var};

use crate::approx::{lower_bbox_fn, upper_bbox_fn, UpperBound};
use crate::constraint::GroundStatus;
use crate::triangular::{SolvedRow, TriangularSystem};

/// A compiled disequation filter.
#[derive(Clone, Debug)]
pub struct OverlapFilter<const K: usize> {
    /// `U_p`: upper bound of the `x`-coefficient.
    pub p_upper: UpperBound<K>,
    /// `U_q`: upper bound of the `¬x`-coefficient (runtime guard).
    pub q_upper: UpperBound<K>,
    /// Whether `q ≡ 0` was proved at compile time.
    pub q_is_zero: bool,
}

/// The compiled plan row for one retrieval step.
#[derive(Clone, Debug)]
pub struct CompiledRow<const K: usize> {
    /// The variable this row retrieves.
    pub var: Var,
    /// `L_s`: lower bounding-box function of the row's lower bound.
    pub lower: BboxExpr<K>,
    /// `U_t`: upper bounding-box function of the row's upper bound.
    pub upper: UpperBound<K>,
    /// Disequation filters.
    pub overlaps: Vec<OverlapFilter<K>>,
    /// The exact solved row, for verification after the bbox filter.
    pub exact: SolvedRow,
}

impl<const K: usize> CompiledRow<K> {
    /// Builds the single corner-transform range query for this step,
    /// given the bounding boxes of the already-bound variables
    /// (`lookup` maps *variable index* to box).
    pub fn corner_query<F: Fn(usize) -> Bbox<K> + Copy>(&self, lookup: F) -> CornerQuery<K> {
        let mut q = CornerQuery::unconstrained();
        let lo = self.lower.eval(lookup);
        if !lo.is_empty() {
            q = q.and_contains(&lo);
        }
        if let Some(ub) = self.upper.eval(lookup) {
            q = q.and_contained_in(&ub);
        }
        for f in &self.overlaps {
            let q_known_zero = f.q_is_zero
                || match f.q_upper.eval(lookup) {
                    Some(b) => b.is_empty(),
                    None => false,
                };
            if !q_known_zero {
                continue; // the ¬x·q side may satisfy the disequation
            }
            // x must overlap U_p; ∅ here means the disequation is
            // unsatisfiable and the query correctly matches nothing. A
            // Top bound imposes no constraint (any nonempty x may
            // overlap p).
            if let Some(pb) = f.p_upper.eval(lookup) {
                q = q.and_overlaps(&pb);
            }
        }
        q
    }

    /// The variable indices [`CompiledRow::corner_query`] reads: those
    /// of `L_s`, of `U_t`, and of every filter's `U_p` and `U_q`. The
    /// query, and so the index probe, can change only when one of
    /// these boxes does.
    pub fn reads(&self) -> Vec<usize> {
        let uppers = std::iter::once(&self.upper)
            .chain(self.overlaps.iter().flat_map(|f| [&f.p_upper, &f.q_upper]));
        let mut out = self.lower.vars();
        for u in uppers {
            if let UpperBound::Expr(e) = u {
                out.extend(e.vars());
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The full compiled plan: one row per retrieval step, in order.
#[derive(Clone, Debug)]
pub struct BboxPlan<const K: usize> {
    /// Retrieval order (same as the triangular system's).
    pub order: Vec<Var>,
    /// Compiled rows, `rows[i]` for `order[i]`.
    pub rows: Vec<CompiledRow<K>>,
    /// Whether the ground residue is satisfiable at all.
    pub satisfiable: bool,
}

impl<const K: usize> BboxPlan<K> {
    /// Compiles a triangular system (Algorithm 2 applied to every row).
    pub fn compile(tri: &TriangularSystem) -> Self {
        let mut bdd = Bdd::new();
        let rows = tri
            .rows
            .iter()
            .map(|row| CompiledRow {
                var: row.var,
                lower: lower_bbox_fn(&row.lower),
                upper: upper_bbox_fn(&row.upper),
                overlaps: row
                    .diseqs
                    .iter()
                    .map(|d| OverlapFilter {
                        p_upper: upper_bbox_fn(&d.p),
                        q_upper: upper_bbox_fn(&d.q),
                        q_is_zero: bdd.is_zero_formula(&d.q),
                    })
                    .collect(),
                exact: row.clone(),
            })
            .collect();
        BboxPlan {
            order: tri.order.clone(),
            rows,
            satisfiable: tri.ground.ground_status() == GroundStatus::Valid,
        }
    }

    /// The compiled row for a variable.
    pub fn row_for(&self, v: Var) -> Option<&CompiledRow<K>> {
        self.rows.iter().find(|r| r.var == v)
    }

    /// EXPLAIN output: one line per retrieval step describing the range
    /// query that will be issued and the exact residual checks.
    pub fn explain(&self, table: &scq_boolean::VarTable) -> String {
        fn render<const K: usize>(e: &BboxExpr<K>, table: &scq_boolean::VarTable) -> String {
            match e {
                BboxExpr::Var(i) => {
                    format!("⌈{}⌉", table.display(Var(*i as u32)))
                }
                BboxExpr::Const(b) => format!("{b}"),
                BboxExpr::Meet(a, b) => {
                    format!("({} ⊓ {})", render(a, table), render(b, table))
                }
                BboxExpr::Join(a, b) => {
                    format!("({} ⊔ {})", render(a, table), render(b, table))
                }
            }
        }
        fn render_upper<const K: usize>(
            u: &UpperBound<K>,
            table: &scq_boolean::VarTable,
        ) -> String {
            match u {
                UpperBound::Top => "⊤".to_string(),
                UpperBound::Expr(e) => render(e, table),
            }
        }
        use std::fmt::Write;
        let mut out = String::new();
        if !self.satisfiable {
            out.push_str(
                "UNSATISFIABLE (ground residue fails; no retrieval)
",
            );
            return out;
        }
        for (i, row) in self.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "step {:>2}: retrieve {}",
                i + 1,
                table.display(row.var)
            );
            if !row.lower.is_const_empty() {
                let _ = writeln!(out, "         contains   {}", render(&row.lower, table));
            }
            match &row.upper {
                UpperBound::Top => {}
                UpperBound::Expr(e) => {
                    let _ = writeln!(out, "         within     {}", render(e, table));
                }
            }
            for f in &row.overlaps {
                let guard = if f.q_is_zero {
                    "".to_string()
                } else {
                    format!("   [if {} = ∅]", render_upper(&f.q_upper, table))
                };
                let _ = writeln!(
                    out,
                    "         overlaps   {}{}",
                    render_upper(&f.p_upper, table),
                    guard
                );
            }
            let _ = writeln!(out, "         verify     {}", row.exact.display(table));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{normalize, Constraint};
    use crate::triangular::triangularize;
    use scq_boolean::Formula;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    fn b1(lo: f64, hi: f64) -> Bbox<1> {
        Bbox::new([lo], [hi])
    }

    /// x1 ⊆ x0 ∧ x1 ∩ x2 ≠ ∅, order x0, x2, x1.
    fn simple_plan() -> BboxPlan<1> {
        let cs = vec![
            Constraint::Subset(v(1), v(0)),
            Constraint::Overlaps(v(1), v(2)),
        ];
        let sys = normalize(&cs);
        let tri = triangularize(&sys, &[Var(0), Var(2), Var(1)]);
        BboxPlan::compile(&tri)
    }

    #[test]
    fn compiles_containment_and_overlap() {
        let plan = simple_plan();
        assert!(plan.satisfiable);
        let row = plan.row_for(Var(1)).unwrap();
        // upper: U_{x0} = ⌈x0⌉
        assert_eq!(row.upper, UpperBound::Expr(BboxExpr::var(0)));
        // one overlap filter with p = x2, q = 0 proved at compile time
        assert_eq!(row.overlaps.len(), 1);
        assert!(row.overlaps[0].q_is_zero);
        assert_eq!(row.overlaps[0].p_upper, UpperBound::Expr(BboxExpr::var(2)));
    }

    #[test]
    fn corner_query_combines_parts() {
        let plan = simple_plan();
        let row = plan.row_for(Var(1)).unwrap();
        let boxes = [b1(0.0, 10.0), Bbox::Empty, b1(4.0, 6.0)];
        let q = row.corner_query(|i| boxes[i]);
        assert!(q.matches(&b1(3.0, 5.0)), "inside x0, overlaps x2");
        assert!(!q.matches(&b1(-1.0, 5.0)), "outside x0");
        assert!(!q.matches(&b1(0.0, 3.0)), "misses x2");
    }

    #[test]
    fn filter_is_necessary_condition() {
        // Soundness on concrete regions: any x1 satisfying the exact row
        // passes the corner query built from the prefix boxes.
        use scq_algebra::Assignment;
        use scq_region::{AaBox, Region, RegionAlgebra};
        let plan = simple_plan();
        let row = plan.row_for(Var(1)).unwrap();
        let alg = RegionAlgebra::new(AaBox::new([0.0], [100.0]));
        let x0 = Region::from_box(AaBox::new([10.0], [50.0]));
        let x2 = Region::from_box(AaBox::new([30.0], [40.0]));
        let boxes = [x0.bbox(), Bbox::Empty, x2.bbox()];
        let q = row.corner_query(|i| boxes[i]);
        // enumerate candidate x1 intervals on a grid
        for lo in 0..60 {
            for w in 1..30 {
                let x1 = Region::from_box(AaBox::new([lo as f64], [(lo + w) as f64]));
                let assign = Assignment::new()
                    .with(Var(0), x0.clone())
                    .with(Var(1), x1.clone())
                    .with(Var(2), x2.clone());
                if row.exact.check(&alg, &assign).unwrap() {
                    assert!(
                        q.matches(&x1.bbox()),
                        "exact solution {:?} rejected by bbox filter",
                        x1.bbox()
                    );
                }
            }
        }
    }

    #[test]
    fn runtime_q_guard() {
        // x0 ≠ x1 gives a diseq with both p and q nonzero: the filter
        // must NOT constrain x (q might satisfy the diseq).
        let cs = vec![Constraint::Neq(v(1), v(0))];
        let sys = normalize(&cs);
        let tri = triangularize(&sys, &[Var(0), Var(1)]);
        let plan: BboxPlan<1> = BboxPlan::compile(&tri);
        let row = plan.row_for(Var(1)).unwrap();
        assert_eq!(row.overlaps.len(), 1);
        assert!(!row.overlaps[0].q_is_zero);
        let boxes = [b1(0.0, 1.0), Bbox::Empty];
        let q = row.corner_query(|i| boxes[i]);
        // any box matches: the disequation can hold via ¬x·q
        assert!(q.matches(&b1(50.0, 60.0)));
    }

    #[test]
    fn unsatisfiable_ground_is_reported() {
        let sys = normalize(&[
            Constraint::Subset(v(0), Formula::Zero),
            Constraint::NotSubset(v(0), Formula::Zero),
        ]);
        let tri = triangularize(&sys, &[Var(0)]);
        let plan: BboxPlan<1> = BboxPlan::compile(&tri);
        assert!(!plan.satisfiable);
    }

    #[test]
    fn explain_renders_plan() {
        use scq_boolean::VarTable;
        let plan = simple_plan();
        let mut table = VarTable::new();
        for n in ["X0", "X2", "X1"] {
            table.intern(n);
        }
        let text = plan.explain(&table);
        assert!(text.contains("step  1: retrieve X0"), "{text}");
        assert!(text.contains("within"), "{text}");
        assert!(text.contains("overlaps"), "{text}");
        assert!(text.contains("verify"), "{text}");

        // unsat plan explains itself
        let sys = normalize(&[
            Constraint::Subset(v(0), Formula::Zero),
            Constraint::NotSubset(v(0), Formula::Zero),
        ]);
        let tri = triangularize(&sys, &[Var(0)]);
        let plan: BboxPlan<1> = BboxPlan::compile(&tri);
        assert!(plan.explain(&table).contains("UNSATISFIABLE"));
    }

    #[test]
    fn empty_lower_adds_no_constraint() {
        let plan = simple_plan();
        let row0 = plan.row_for(Var(0)).unwrap();
        // x0 is first: nothing constrains it from below
        let q = row0.corner_query(|_| Bbox::Empty);
        assert!(q.matches(&b1(0.0, 1.0)));
    }
}
