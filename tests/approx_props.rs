//! Property tests for Algorithm 2: the lower/upper bounding-box
//! sandwich holds for arbitrary formulas and regions, the approximations
//! are invariant under formula syntax, and the compiled corner filters
//! are sound (never reject an exact solution).

use proptest::prelude::*;
use scq_integration::prelude::*;

fn formula_strategy(nvars: u32) -> BoxedStrategy<Formula> {
    let leaf = prop_oneof![
        4 => (0..nvars).prop_map(|i| Formula::var(Var(i))),
        1 => Just(Formula::Zero),
        1 => Just(Formula::One),
    ];
    leaf.prop_recursive(4, 48, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| Formula::or(a, b)),
        ]
    })
    .boxed()
}

fn regions_strategy(n: usize) -> BoxedStrategy<Vec<Region<2>>> {
    prop::collection::vec(
        prop::collection::vec(
            (0.0f64..80.0, 0.0f64..80.0, 1.0f64..15.0, 1.0f64..15.0),
            0..3,
        ),
        n..=n,
    )
    .prop_map(|vv| {
        vv.into_iter()
            .map(|boxes| {
                Region::from_boxes(
                    boxes
                        .into_iter()
                        .map(|(x, y, w, h)| AaBox::new([x, y], [x + w, y + h])),
                )
            })
            .collect()
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// L_f(⌈x⌉) ⊑ ⌈f(x)⌉ ⊑ U_f(⌈x⌉) for arbitrary f and regions.
    #[test]
    fn sandwich(f in formula_strategy(4), regions in regions_strategy(4)) {
        let alg = RegionAlgebra::new(AaBox::new([0.0, 0.0], [100.0, 100.0]));
        let mut assign = Assignment::new();
        for (i, r) in regions.iter().enumerate() {
            assign.bind(Var(i as u32), r.clone());
        }
        let exact = eval_formula(&alg, &f, &assign).unwrap().bbox();
        let lookup = |i: usize| regions[i].bbox();
        let l: BboxExpr<2> = lower_bbox_fn(&f);
        prop_assert!(l.eval(lookup).le(&exact), "L_f violated for {}", f);
        let u: UpperBound<2> = upper_bbox_fn(&f);
        if let Some(ub) = u.eval(lookup) {
            prop_assert!(exact.le(&ub), "U_f violated for {}", f);
        }
    }

    /// Equivalent formulas get identical approximations (they factor
    /// through the Blake canonical form).
    #[test]
    fn syntax_invariance(f in formula_strategy(3)) {
        // Double-negate and distribute a tautology conjunct: same
        // function, different syntax.
        let g = Formula::not(Formula::not(Formula::and(f.clone(), Formula::One)));
        let lf: BboxExpr<2> = lower_bbox_fn(&f);
        let lg: BboxExpr<2> = lower_bbox_fn(&g);
        prop_assert_eq!(lf, lg);
        let uf: UpperBound<2> = upper_bbox_fn(&f);
        let ug: UpperBound<2> = upper_bbox_fn(&g);
        prop_assert_eq!(uf, ug);
    }

    /// Monotonicity of compiled expressions: growing input boxes can
    /// only grow L_f and U_f outputs.
    #[test]
    fn monotone(f in formula_strategy(4), regions in regions_strategy(4)) {
        let small: Vec<Bbox<2>> = regions.iter().map(|r| r.bbox()).collect();
        let grown: Vec<Bbox<2>> = small
            .iter()
            .map(|b| b.join(&Bbox::new([40.0, 40.0], [42.0, 42.0])))
            .collect();
        let l: BboxExpr<2> = lower_bbox_fn(&f);
        prop_assert!(l.eval(|i| small[i]).le(&l.eval(|i| grown[i])));
        let u: UpperBound<2> = upper_bbox_fn(&f);
        if let (Some(a), Some(b)) = (u.eval(|i| small[i]), u.eval(|i| grown[i])) {
            prop_assert!(a.le(&b));
        }
    }

    /// Plan soundness at the row level: an exact solution of a solved
    /// row always passes its compiled corner query.
    #[test]
    fn compiled_row_soundness(
        regions in regions_strategy(3),
        cand in prop::collection::vec((0.0f64..80.0, 0.0f64..80.0, 1.0f64..15.0, 1.0f64..15.0), 1..3),
    ) {
        // System: X ⊆ R0 ∧ X ∩ R1 ≠ ∅ ∧ X ∩ R2 = ∅, solve for X last.
        let sys = parse_system("X <= A; X & B != 0; X & C = 0").unwrap();
        let (a, b, c, x) = (
            sys.table.get("A").unwrap(),
            sys.table.get("B").unwrap(),
            sys.table.get("C").unwrap(),
            sys.table.get("X").unwrap(),
        );
        let tri = triangularize(&sys.normalize(), &[a, b, c, x]);
        let plan: BboxPlan<2> = BboxPlan::compile(&tri);
        let row = plan.row_for(x).unwrap();

        let alg = RegionAlgebra::new(AaBox::new([0.0, 0.0], [100.0, 100.0]));
        let candidate = Region::from_boxes(
            cand.into_iter().map(|(px, py, w, h)| AaBox::new([px, py], [px + w, py + h])),
        );
        let mut assign = Assignment::new();
        assign.bind(a, regions[0].clone());
        assign.bind(b, regions[1].clone());
        assign.bind(c, regions[2].clone());
        assign.bind(x, candidate.clone());

        if row.exact.check(&alg, &assign).unwrap() {
            let boxes = [regions[0].bbox(), regions[1].bbox(), regions[2].bbox(), candidate.bbox()];
            let lookup = |i: usize| boxes[i];
            let q = row.corner_query(lookup);
            if !candidate.is_empty() {
                prop_assert!(
                    q.matches(&candidate.bbox()),
                    "sound filter rejected an exact solution"
                );
            }
        }
    }
}

/// A constraint of any of the parser's seven shapes.
fn constraint_strategy(nvars: u32) -> BoxedStrategy<Constraint> {
    let pair = || (formula_strategy(nvars), formula_strategy(nvars));
    prop_oneof![
        pair().prop_map(|(f, g)| Constraint::Subset(f, g)),
        pair().prop_map(|(f, g)| Constraint::NotSubset(f, g)),
        pair().prop_map(|(f, g)| Constraint::Eq(f, g)),
        pair().prop_map(|(f, g)| Constraint::Neq(f, g)),
        pair().prop_map(|(f, g)| Constraint::ProperSubset(f, g)),
        pair().prop_map(|(f, g)| Constraint::Disjoint(f, g)),
        pair().prop_map(|(f, g)| Constraint::Overlaps(f, g)),
    ]
    .boxed()
}

/// The `rank`-th of the `n!` orders of `Var(0)..Var(n)` (Lehmer code).
fn nth_order(n: u32, mut rank: usize) -> Vec<Var> {
    let mut pool: Vec<Var> = (0..n).map(Var).collect();
    let mut order = Vec::with_capacity(pool.len());
    while !pool.is_empty() {
        let radix = (1..pool.len()).product::<usize>();
        order.push(pool.remove(rank / radix));
        rank %= radix;
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The executors' exact-bound box prefilter is sound, the paper's
    /// theorem one level deeper: with the prefix bound to concrete
    /// regions, the boxes of the row's bound `s` and `t` never reject a
    /// nonempty candidate the exact row admits — neither alone (the
    /// index path) nor met with the compiled corner query (the scan
    /// path). Candidates are drawn both freely and squeezed between
    /// `s` and `t`, so admitted ones are common.
    #[test]
    fn exact_bound_prefilter_is_sound(
        cs in prop::collection::vec(constraint_strategy(4), 1..4),
        rank in 0..24usize,
        level in 0..4usize,
        prefix in regions_strategy(4),
        free in regions_strategy(1),
    ) {
        let alg = RegionAlgebra::new(AaBox::new([0.0, 0.0], [100.0, 100.0]));
        let order = nth_order(4, rank);
        let tri = triangularize(&scq_core::constraint::normalize(&cs), &order);
        let plan: BboxPlan<2> = BboxPlan::compile(&tri);
        let row = &plan.rows[level];
        let mut assign = Assignment::new();
        let mut boxes = [Bbox::Empty; 4];
        for &v in &order[..level] {
            let r = alg.clamp(&prefix[v.index()]);
            boxes[v.index()] = r.bbox();
            assign.bind(v, r);
        }
        let bounds = row.exact.bind_prefix(&alg, &assign).unwrap();
        let s = eval_formula(&alg, &row.exact.lower, &assign).unwrap();
        let t = eval_formula(&alg, &row.exact.upper, &assign).unwrap();
        let free = alg.clamp(&free[0]);
        let squeezed = alg.join(&s, &alg.meet(&free, &t));
        let alone = bounds.box_query(CornerQuery::unconstrained(), Region::bbox);
        let met = bounds.box_query(row.corner_query(|i| boxes[i]), Region::bbox);
        for x in [free, squeezed] {
            if !x.is_empty() && bounds.admits(&alg, &x) {
                prop_assert!(alone.matches(&x.bbox()), "exact bounds rejected an admitted {:?}", x.bbox());
                prop_assert!(met.matches(&x.bbox()), "met query rejected an admitted {:?}", x.bbox());
            }
        }
    }
}
