//! EX-F1 / EX-E1 / EX-E2: executable reproductions of every worked
//! example in the paper (the layers they cross are mapped in
//! `docs/ARCHITECTURE.md`).

use scq_integration::prelude::*;

/// The smuggler constraint system of Figure 1, in the text syntax.
fn smuggler() -> ConstraintSystem {
    parse_system(
        "A <= C
         B <= C
         R <= A | B | T
         R & A != 0
         R & T != 0
         T < C",
    )
    .unwrap()
}

fn var(sys: &ConstraintSystem, name: &str) -> Var {
    sys.table.get(name).unwrap()
}

/// `f ≡ g` under the side condition `ctx = 0` (checked propositionally).
fn equiv_under_ctx(ctx: &Formula, f: &Formula, g: &Formula) -> bool {
    let mut bdd = Bdd::new();
    let xor = Formula::xor(f.clone(), g.clone());
    bdd.is_zero_formula(&Formula::and(Formula::not(ctx.clone()), xor))
}

/// EX-F1 part 1: Theorem 1 turns Figure 1 into one equation and three
/// disequations.
#[test]
fn ex_f1_normal_form_shape() {
    let sys = smuggler();
    let n = sys.normalize();
    assert_eq!(n.neqs.len(), 3, "R∩A ≠ ∅, R∩T ≠ ∅ and T ≠ C");
    assert!(!n.eq.is_zero());
    assert!(!n.obviously_unsat());
}

/// EX-F1 part 2: the triangular form printed in §2,
/// ```text
///   0 ≤ T ≤ C (T forced nonempty)
///   0 ≤ R ≤ C∨T,  A∧R ≠ 0,  R∧T ≠ 0
///   R∧¬A∧¬T ≤ B ≤ C
/// ```
/// modulo the context established by the earlier rows (A ⊆ C, T ⊆ C).
#[test]
fn ex_f1_triangular_form() {
    let sys = smuggler();
    let (c, a, t, r, b) = (
        var(&sys, "C"),
        var(&sys, "A"),
        var(&sys, "T"),
        var(&sys, "R"),
        var(&sys, "B"),
    );
    let order = [c, a, t, r, b]; // known C, A first; then T, R, B as in §2
    let tri = triangularize(&sys.normalize(), &order);

    let fc = Formula::var(c);
    let fa = Formula::var(a);
    let ft = Formula::var(t);
    let fr = Formula::var(r);
    let ctx = Formula::or(
        Formula::diff(fa.clone(), fc.clone()),
        Formula::diff(ft.clone(), fc.clone()),
    );

    // Row B: R∧¬A∧¬T ≤ B ≤ C, no disequations.
    let row_b = tri.row_for(b).unwrap();
    let mut bdd = Bdd::new();
    assert!(bdd.equivalent(&row_b.upper, &fc));
    let want_lower = Formula::and_all([
        fr.clone(),
        Formula::not(fa.clone()),
        Formula::not(ft.clone()),
    ]);
    assert!(equiv_under_ctx(&ctx, &row_b.lower, &want_lower));
    assert!(row_b.diseqs.is_empty());

    // Row R: 0 ≤ R ≤ C∨T with two disequations.
    let row_r = tri.row_for(r).unwrap();
    assert!(equiv_under_ctx(&ctx, &row_r.lower, &Formula::Zero));
    assert!(equiv_under_ctx(
        &ctx,
        &row_r.upper,
        &Formula::or(fc.clone(), ft.clone())
    ));
    assert_eq!(row_r.diseqs.len(), 2);

    // Row T: 0 ≤ T ≤ C, disequations force T nonempty.
    let row_t = tri.row_for(t).unwrap();
    assert!(equiv_under_ctx(&ctx, &row_t.lower, &Formula::Zero));
    assert!(equiv_under_ctx(&ctx, &row_t.upper, &fc));
    assert!(!row_t.diseqs.is_empty());

    // Ground residue: the system is satisfiable.
    assert!(!tri.ground.obviously_unsat());
}

/// EX-F1 part 3: the bounding-box system of §2 —
/// every line is implementable as ONE range query, and on the concrete
/// smuggler geometry the compiled corner queries accept exactly the
/// right candidates.
#[test]
fn ex_f1_bbox_plan() {
    let sys = smuggler();
    let (c, a, t, r, b) = (
        var(&sys, "C"),
        var(&sys, "A"),
        var(&sys, "T"),
        var(&sys, "R"),
        var(&sys, "B"),
    );
    let order = [c, a, t, r, b];
    let tri = triangularize(&sys.normalize(), &order);
    let plan: BboxPlan<2> = BboxPlan::compile(&tri);
    assert!(plan.satisfiable);

    // §2's bbox system: line 2 is
    //   ⌈R⌉ ⊑ ⌈C⌉ ⊔ ⌈T⌉ (upper),  ⌈A⌉⊓⌈R⌉ ≠ ∅,  ⌈R⌉⊓⌈T⌉ ≠ ∅
    let row_r = plan.row_for(r).unwrap();
    assert!(!row_r.upper.is_top(), "R has a finite upper bound");
    assert_eq!(row_r.overlaps.len(), 2, "two overlap filters for R");
    // and line 4 is ⌈B⌉ ⊑ ⌈C⌉:
    let row_b = plan.row_for(b).unwrap();
    assert_eq!(
        row_b.upper.eval(|i| if i == c.index() {
            Bbox::new([0.0, 0.0], [10.0, 10.0])
        } else {
            Bbox::Empty
        }),
        Some(Bbox::new([0.0, 0.0], [10.0, 10.0])),
        "U_t for B is exactly ⌈C⌉"
    );

    // Concrete geometry: country, area, a good town and a decoy.
    let c_box = Bbox::new([0.0, 0.0], [100.0, 100.0]);
    let a_box = Bbox::new([60.0, 40.0], [70.0, 50.0]);
    let t_box = Bbox::new([0.0, 42.0], [4.0, 46.0]);
    let lookup = |i: usize| {
        if i == c.index() {
            c_box
        } else if i == a.index() {
            a_box
        } else if i == t.index() {
            t_box
        } else {
            Bbox::Empty
        }
    };
    let q = row_r.corner_query(lookup);
    assert!(
        q.matches(&Bbox::new([2.0, 43.0], [65.0, 45.0])),
        "corridor road passes"
    );
    assert!(
        !q.matches(&Bbox::new([20.0, 80.0], [80.0, 82.0])),
        "road missing T and A fails"
    );
    assert!(
        !q.matches(&Bbox::new([-20.0, 43.0], [65.0, 45.0])),
        "road leaving ⌈C⌉⊔⌈T⌉ fails"
    );
}

/// EX-E1 part 1: §3 Example 1 — `proj((x·y = 0 ∧ ¬x·y ≠ 0), x) = (y ≠ 0)`.
#[test]
fn ex_e1_projection() {
    let mut table = VarTable::new();
    let x = table.intern("x");
    let y = table.intern("y");
    let s = NormalSystem {
        eq: Formula::and(Formula::var(x), Formula::var(y)),
        neqs: vec![Formula::and(Formula::not(Formula::var(x)), Formula::var(y))],
    };
    let p = proj(&s, x);
    assert_eq!(p.eq, Formula::Zero);
    assert_eq!(p.neqs, vec![Formula::var(y)]);
}

/// EX-E1 part 2: the §3 non-closure example. The system
/// `∃x (x ⊆ y ∧ x ≠ 0 ∧ y∖x ≠ 0)` implies `|y| ≥ 2`, which no Boolean
/// constraint over `y` expresses: `proj` returns `y ≠ 0` (the best
/// approximation), strict on the atomic powerset algebra, exact on the
/// atomless region algebra.
#[test]
fn ex_e1_non_closure() {
    let mut table = VarTable::new();
    let x = table.intern("x");
    let y = table.intern("y");
    let fx = Formula::var(x);
    let fy = Formula::var(y);
    let s = NormalSystem {
        eq: Formula::diff(fx.clone(), fy.clone()),
        neqs: vec![fx.clone(), Formula::diff(fy.clone(), fx.clone())],
    };
    let p = proj(&s, x);
    // best approximation: y ≠ 0 (twice, deduplicated by simplified())
    let simp = p.simplified();
    assert_eq!(simp.eq, Formula::Zero);
    assert_eq!(simp.neqs, vec![fy.clone()]);

    // Atomic algebra: singleton y satisfies proj but has no witness x.
    let alg = BitsetAlgebra::new(3);
    let singleton = alg.singleton(1);
    let holds = |e: u64, xv: u64| {
        let assign = Assignment::new().with(x, xv).with(y, e);
        check_normal(&alg, &s, &assign).unwrap()
    };
    assert!(
        !alg.elements().any(|xv| holds(singleton, xv)),
        "no witness for |y| = 1"
    );
    let pair = alg.singleton(0) | alg.singleton(2);
    assert!(
        alg.elements().any(|xv| holds(pair, xv)),
        "witness exists for |y| = 2"
    );

    // Atomless algebra: every nonzero y has a witness (split y).
    let ralg = RegionAlgebra::new(AaBox::new([0.0], [1.0]));
    let yr = Region::from_box(AaBox::new([0.25], [0.5]));
    let xr = ralg.proper_part(&yr).unwrap();
    assert!(xr.subset_of(&yr) && !xr.is_empty() && !yr.difference(&xr).is_empty());
}

/// EX-E2: §4 Examples 2–3 — BCF by consensus/absorption and the best
/// bounding-box approximations.
#[test]
fn ex_e2_bcf_and_bounds() {
    let mut table = VarTable::new();
    let f = parse_formula("x & y | ~x & y | x & z & ~w", &mut table).unwrap();
    let (x, y, z, w) = (
        table.get("x").unwrap(),
        table.get("y").unwrap(),
        table.get("z").unwrap(),
        table.get("w").unwrap(),
    );
    // Example 2: BCF(f) = y ∨ x·z·¬w.
    let bcf = blake_canonical_form(&f);
    assert_eq!(bcf.len(), 2);
    let cubes = bcf.sorted_cubes();
    let single: Vec<_> = cubes.iter().filter(|c| c.len() == 1).collect();
    assert_eq!(single.len(), 1);
    assert_eq!(single[0].polarity(y), Some(true));
    let triple: Vec<_> = cubes.iter().filter(|c| c.len() == 3).collect();
    assert_eq!(triple.len(), 1);
    assert_eq!(triple[0].polarity(x), Some(true));
    assert_eq!(triple[0].polarity(z), Some(true));
    assert_eq!(triple[0].polarity(w), Some(false));

    // Example 3: L_f = ⌈y⌉ and U_f = ⌈y⌉ ⊔ (⌈x⌉⊓⌈z⌉).
    let l: BboxExpr<2> = lower_bbox_fn(&f);
    assert_eq!(l, BboxExpr::var(y.index()));
    let u: UpperBound<2> = upper_bbox_fn(&f);
    let boxes = [
        Bbox::new([0.0, 0.0], [1.0, 1.0]), // x
        Bbox::new([5.0, 5.0], [6.0, 6.0]), // y
        Bbox::new([0.5, 0.5], [2.0, 2.0]), // z
        Bbox::new([9.0, 9.0], [9.1, 9.1]), // w
    ];
    let lookup = |i: usize| boxes[i];
    let want = boxes[y.index()].join(&boxes[x.index()].meet(&boxes[z.index()]));
    assert_eq!(u.eval(lookup), Some(want));
}

/// The paper's remark before Theorem 15: the naive syntactic transform
/// (∧→⊓, ∨→⊔) is NOT the best approximation —
/// `(⌈x⌉⊓⌈y⌉) ⊔ (⌈x⌉⊓⌈z⌉) ≠ ⌈x⌉ ⊓ (⌈y⌉⊔⌈z⌉)` in general.
#[test]
fn ex_e2_syntactic_transform_counterexample() {
    let x = Bbox::new([0.0], [10.0]);
    let y = Bbox::new([1.0], [2.0]);
    let z = Bbox::new([8.0], [9.0]);
    let lhs = x.meet(&y).join(&x.meet(&z)); // [1,9]
    let rhs = x.meet(&y.join(&z)); // [1,9] — equal here…
    assert_eq!(lhs, rhs);
    // …the inequality needs x to truncate the join asymmetrically:
    let x = Bbox::new([0.0], [5.0]);
    let lhs = x.meet(&y).join(&x.meet(&z)); // [1,2] ⊔ ∅ = [1,2]
    let rhs = x.meet(&y.join(&z)); // [0,5]⊓[1,9] = [1,5]
    assert!(
        lhs.le(&rhs) && lhs != rhs,
        "strict inclusion: {lhs} ⊏ {rhs}"
    );
}

/// EX-F1 executed end-to-end as a query (the full §2 narrative).
#[test]
fn ex_f1_end_to_end() {
    let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [1000.0, 1000.0]));
    let w = scq_engine::workload::map_workload(
        &mut db,
        11,
        &scq_engine::workload::MapParams {
            n_states: 6,
            n_towns: 12,
            n_roads: 30,
            useful_road_fraction: 0.15,
        },
    );
    let q = Query::new(smuggler())
        .known("C", w.country.clone())
        .known("A", w.area.clone())
        .from_collection("T", w.towns)
        .from_collection("R", w.roads)
        .from_collection("B", w.states)
        .with_order(&["T", "R", "B"]);
    let naive = naive_execute(&db, &q).unwrap();
    let opt = bbox_execute(&db, &q, IndexKind::RTree).unwrap();
    // Index traversal order differs; compare as sets.
    let mut a = naive.solutions.clone();
    let mut b = opt.solutions.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert!(!opt.solutions.is_empty(), "a smuggling route exists");
    assert!(opt.stats.partial_tuples < naive.stats.partial_tuples);
}
