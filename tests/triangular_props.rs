//! EX-F2: property-based validation of Algorithm 1 (Figure 2).
//!
//! For randomly generated constraint systems:
//! * the triangular form is *triangular* (row i mentions only earlier
//!   variables),
//! * it terminates with a ground residue,
//! * it is a sound necessary condition: every exact solution satisfies
//!   every row (checked exhaustively over small powerset algebras),
//! * and for complete assignments it is an *equivalence*: the rows
//!   accept exactly the solutions of the original system;
//! * a row bound once for a prefix (`SolvedRow::bind_prefix`) admits
//!   exactly the candidates the materialising row check accepts.

use proptest::prelude::*;
use scq_core::SolvedRow;
use scq_integration::prelude::*;

/// Strategy: random formulas over `nvars` variables.
fn formula_strategy(nvars: u32, depth: u32) -> BoxedStrategy<Formula> {
    let leaf = prop_oneof![
        2 => (0..nvars).prop_map(|i| Formula::var(Var(i))),
        1 => Just(Formula::Zero),
        1 => Just(Formula::One),
    ];
    leaf.prop_recursive(depth, 64, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| Formula::or(a, b)),
        ]
    })
    .boxed()
}

fn system_strategy(nvars: u32) -> BoxedStrategy<NormalSystem> {
    (
        formula_strategy(nvars, 3),
        prop::collection::vec(formula_strategy(nvars, 3), 0..3),
    )
        .prop_map(|(eq, neqs)| NormalSystem { eq, neqs })
        .boxed()
}

fn holds(alg: &BitsetAlgebra, s: &NormalSystem, assign: &Assignment<u64>) -> bool {
    check_normal(alg, s, assign).unwrap()
}

/// A random retrieval order of `Var(0)..Var(n)`: the variables sorted by
/// random keys.
fn order_strategy(n: u32) -> BoxedStrategy<Vec<Var>> {
    prop::collection::vec(0u32..1000, n as usize)
        .prop_map(|keys| {
            let mut order: Vec<Var> = (0..keys.len() as u32).map(Var).collect();
            order.sort_by_key(|v| (keys[v.index()], v.index()));
            order
        })
        .boxed()
}

/// Strategy: 0–4 boxes with corners on the integer grid of [0,6]² —
/// empty, fragmented, touching and overlapping regions.
fn grid_region_strategy() -> BoxedStrategy<Region<2>> {
    prop::collection::vec((0u32..7, 0u32..7, 0u32..7, 0u32..7), 0..5)
        .prop_map(|boxes| {
            Region::from_boxes(boxes.into_iter().map(|(x0, x1, y0, y1)| {
                let (x0, x1, y0, y1) = (x0 as f64, x1 as f64, y0 as f64, y1 as f64);
                AaBox::new([x0.min(x1), y0.min(y1)], [x0.max(x1), y0.max(y1)])
            }))
        })
        .boxed()
}

/// The row check before rows were bound once per level, kept as the
/// reference: every bound materialised, `s ≤ x ≤ t` as emptiness of a
/// difference, each disequation's value `x·p ∨ ¬x·q` built and tested
/// for zero.
fn materialising_check<A: BooleanAlgebra>(
    alg: &A,
    row: &SolvedRow,
    assign: &Assignment<A::Elem>,
) -> bool {
    let x = assign.get(row.var).expect("the row's variable is bound");
    let eval = |f| eval_formula(alg, f, assign).expect("prefix is bound");
    alg.is_zero(&alg.diff(&eval(&row.lower), x))
        && alg.is_zero(&alg.diff(x, &eval(&row.upper)))
        && row.diseqs.iter().all(|d| {
            let value = alg.join(&alg.meet(x, &eval(&d.p)), &alg.diff(&eval(&d.q), x));
            !alg.is_zero(&value)
        })
}

/// For every row of `tri`: binds the row once over the prefix taken from
/// `elems` (in retrieval order) and tests every element of `elems` as a
/// candidate against both the bound row and the reference.
fn bound_rows_match_reference<A: BooleanAlgebra>(
    alg: &A,
    tri: &TriangularSystem,
    elems: &[A::Elem],
) {
    for (i, row) in tri.rows.iter().enumerate() {
        let mut prefix = Assignment::new();
        for (j, v) in tri.order[..i].iter().enumerate() {
            prefix.bind(*v, elems[j % elems.len()].clone());
        }
        let bounds = row
            .bind_prefix(alg, &prefix)
            .expect("a row reads only earlier variables");
        for x in elems {
            let full = prefix.clone().with(row.var, x.clone());
            let reference = materialising_check(alg, row, &full);
            assert_eq!(bounds.admits(alg, x), reference, "row {i}, candidate {x:?}");
            assert_eq!(row.check(alg, &full), Ok(reference), "row {i}, check_in");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural triangularity and termination.
    #[test]
    fn triangular_structure(sys in system_strategy(4)) {
        let order = [Var(0), Var(1), Var(2), Var(3)];
        let tri = triangularize(&sys, &order);
        prop_assert_eq!(tri.rows.len(), 4);
        prop_assert!(tri.ground.is_ground());
        for (i, row) in tri.rows.iter().enumerate() {
            prop_assert_eq!(row.var, order[i]);
            for f in [&row.lower, &row.upper]
                .into_iter()
                .chain(row.diseqs.iter().flat_map(|d| [&d.p, &d.q]))
            {
                for v in f.vars() {
                    prop_assert!(
                        order[..i].contains(&v),
                        "row {} mentions {} in {}", i, v, f
                    );
                }
            }
        }
    }

    /// For complete assignments over a small powerset algebra the rows
    /// are equivalent to the original system.
    #[test]
    fn rows_equivalent_to_system(sys in system_strategy(3)) {
        let order = [Var(0), Var(1), Var(2)];
        let tri = triangularize(&sys, &order);
        let alg = BitsetAlgebra::new(2);
        for e0 in alg.elements() {
            for e1 in alg.elements() {
                for e2 in alg.elements() {
                    let assign = Assignment::new()
                        .with(Var(0), e0)
                        .with(Var(1), e1)
                        .with(Var(2), e2);
                    let direct = holds(&alg, &sys, &assign);
                    let via_rows = tri.check_all(&alg, &assign).unwrap();
                    prop_assert_eq!(
                        direct, via_rows,
                        "assignment ({:b},{:b},{:b})", e0, e1, e2
                    );
                }
            }
        }
    }

    /// The ground residue is a sound satisfiability verdict: if any
    /// exact solution exists, the residue must be Valid. (The converse
    /// holds only on atomless algebras.)
    #[test]
    fn ground_residue_sound(sys in system_strategy(3)) {
        let order = [Var(0), Var(1), Var(2)];
        let tri = triangularize(&sys, &order);
        let alg = BitsetAlgebra::new(2);
        let mut any = false;
        'outer: for e0 in alg.elements() {
            for e1 in alg.elements() {
                for e2 in alg.elements() {
                    let assign = Assignment::new()
                        .with(Var(0), e0)
                        .with(Var(1), e1)
                        .with(Var(2), e2);
                    if holds(&alg, &sys, &assign) {
                        any = true;
                        break 'outer;
                    }
                }
            }
        }
        if any {
            prop_assert!(!tri.ground.obviously_unsat());
        }
    }

    /// proj soundness as a standalone property: ∃x S ⟹ proj(S, x).
    #[test]
    fn proj_soundness(sys in system_strategy(3)) {
        let alg = BitsetAlgebra::new(2);
        let p = proj(&sys, Var(0));
        for e1 in alg.elements() {
            for e2 in alg.elements() {
                let base = Assignment::new().with(Var(1), e1).with(Var(2), e2);
                let exists = alg
                    .elements()
                    .any(|x| holds(&alg, &sys, &base.clone().with(Var(0), x)));
                if exists {
                    prop_assert!(holds(&alg, &p, &base));
                }
            }
        }
    }

    /// Retrieval order does not change which complete assignments are
    /// accepted (it only changes pruning power).
    #[test]
    fn order_independence(sys in system_strategy(3), perm in 0usize..6) {
        let orders = [
            [Var(0), Var(1), Var(2)],
            [Var(0), Var(2), Var(1)],
            [Var(1), Var(0), Var(2)],
            [Var(1), Var(2), Var(0)],
            [Var(2), Var(0), Var(1)],
            [Var(2), Var(1), Var(0)],
        ];
        let tri_a = triangularize(&sys, &orders[0]);
        let tri_b = triangularize(&sys, &orders[perm]);
        let alg = BitsetAlgebra::new(2);
        for e0 in alg.elements() {
            for e1 in alg.elements() {
                for e2 in alg.elements() {
                    let assign = Assignment::new()
                        .with(Var(0), e0)
                        .with(Var(1), e1)
                        .with(Var(2), e2);
                    prop_assert_eq!(
                        tri_a.check_all(&alg, &assign).unwrap(),
                        tri_b.check_all(&alg, &assign).unwrap()
                    );
                }
            }
        }
    }

    /// `RowBounds::admits` over the powerset algebra: every row of a
    /// random system under a random order, every element of `2^{0,1}`
    /// as a candidate, over every prefix of the same elements.
    #[test]
    fn bound_rows_match_materialising_check_bitset(
        sys in system_strategy(4),
        order in order_strategy(4),
        elems in prop::collection::vec(0u64..4, 4),
    ) {
        let tri = triangularize(&sys, &order);
        let alg = BitsetAlgebra::new(2);
        let candidates: Vec<u64> = elems.iter().copied().chain(alg.elements()).collect();
        bound_rows_match_reference(&alg, &tri, &candidates);
    }

    /// The same over the region algebra, with fragmented grid regions
    /// (empty, touching, overlapping) as prefixes and candidates.
    #[test]
    fn bound_rows_match_materialising_check_regions(
        sys in system_strategy(4),
        order in order_strategy(4),
        regions in prop::collection::vec(grid_region_strategy(), 6),
    ) {
        let tri = triangularize(&sys, &order);
        let alg = RegionAlgebra::new(AaBox::new([0.0, 0.0], [6.0, 6.0]));
        bound_rows_match_reference(&alg, &tri, &regions);
    }
}
