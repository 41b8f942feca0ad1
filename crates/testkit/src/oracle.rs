//! One differential oracle for the paper's exactness contract.
//!
//! The triangular solved form is equivalent to the original system
//! (Algorithm 1, Theorem 4) and the bbox plan is sound (Algorithm 2),
//! so every configuration must answer exactly like one naive
//! reference:
//!
//! * stores: unsharded, and `LocalShard` × 1..=4 shards;
//! * indexes: R-tree, grid file, scan;
//! * executions: `triangular_execute`, `bbox_execute` in every
//!   retrieval order (up to 3 unknowns), and the served path,
//!   `order_by_selectivity` → `bbox_execute_compiled`;
//! * caps: `max_solutions` of 0, 1 and none.
//!
//! [`Stores`] feeds every store the same churn and requires each op's
//! effect to be exactly the [`Model`]'s. [`Stores::check`] runs the
//! whole matrix; [`Stores::check_only`] runs a slice of it
//! ([`Checks`], a subset of [`QUERIES`]). The reference answer is
//! `naive_execute` over a database rebuilt from the model, so no
//! update, compaction, plan or cache path decides it; corner queries
//! are checked against the model's regions directly.

use std::collections::BTreeMap;

use scq_boolean::Var;
use scq_core::parse_system;
use scq_engine::{
    bbox_execute_compiled, bbox_execute_opts, integrity, naive_execute, order_by_selectivity,
    triangular_execute, CollectionId, ExecOptions, IndexKind, ObjectRef, Query, QueryResult,
    SpatialDatabase, StoreView,
};
use scq_region::{AaBox, Region};
use scq_shard::ShardedDatabase;

use crate::{corner_queries, create_all, normalize, Model, Op};

/// Every index kind.
pub const KINDS: [IndexKind; 3] = [IndexKind::RTree, IndexKind::GridFile, IndexKind::Scan];
/// Every `max_solutions` cap the matrix runs.
pub const CAPS: [Option<usize>; 3] = [Some(0), Some(1), None];

/// A constraint system and its unknowns, each with the position of its
/// collection in [`Stores::colls`].
pub type System = (&'static str, &'static [(&'static str, usize)]);

/// The query shapes. `K` and `W` are known windows, bound whenever a
/// system names them.
pub const QUERIES: &[System] = &[
    ("X & Y != 0", &[("X", 0), ("Y", 1)]),
    ("X <= K; X & Y != 0", &[("X", 0), ("Y", 1)]),
    ("X !<= Y", &[("X", 0), ("Y", 1)]),
    ("X & Y = 0; X & K != 0", &[("X", 0), ("Y", 1)]),
    ("X <= K | Y", &[("X", 0), ("Y", 1)]),
    ("Y != 0; X < K", &[("X", 0), ("Y", 1)]),
    ("X & Y != 0; X & Y != K", &[("X", 0), ("Y", 1)]),
    (
        "X & Y != 0; Y & Z != 0; X & Z = 0",
        &[("X", 0), ("Y", 1), ("Z", 2)],
    ),
    (
        "X <= W; Y & X != 0; Z & X != 0",
        &[("X", 0), ("Y", 1), ("Z", 1)],
    ),
    ("X <= K", &[("X", 0)]),
    // No unknowns: the answer is the empty tuple, and a cap of 0 still
    // answers nothing.
    ("K & W != 0", &[]),
];

/// The `[0, 100]²` universe the churn draws in.
pub fn universe() -> AaBox<2> {
    AaBox::new([0.0, 0.0], [100.0, 100.0])
}

fn window(lo: f64, hi: f64) -> Region<2> {
    Region::from_box(AaBox::new([lo, lo], [hi, hi]))
}

/// The query for `system` over `colls`, with `K` and `W` bound.
pub fn query((src, unknowns): System, colls: &[CollectionId]) -> Query<2> {
    let mut q = Query::new(parse_system(src).expect("system parses"));
    for &(name, coll) in unknowns {
        q = q.from_collection(name, colls[coll]);
    }
    for (name, region) in [("K", window(25.0, 75.0)), ("W", window(5.0, 90.0))] {
        if q.system.table.get(name).is_some() {
            q = q.known(name, region);
        }
    }
    q
}

/// Every ordering of `names`.
pub fn permutations<'a>(names: &[&'a str]) -> Vec<Vec<&'a str>> {
    if names.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for (i, &first) in names.iter().enumerate() {
        let mut rest = names.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first);
            out.push(tail);
        }
    }
    out
}

/// Which parts of the matrix [`Stores::check_only`] runs. Integrity
/// checks of every store always run.
#[derive(Clone, Copy, Debug)]
pub struct Checks {
    /// Corner queries on every index, against the model's regions and
    /// a fresh rebuild's indexes.
    pub corners: bool,
    /// `triangular_execute`, and `bbox_execute` in every order and cap
    /// with its pruning bound.
    pub executors: bool,
    /// The served path, `order_by_selectivity` →
    /// `bbox_execute_compiled`, in every cap, advancing no epoch.
    pub served: bool,
}

impl Checks {
    /// The whole matrix.
    pub const ALL: Checks = Checks {
        corners: true,
        executors: true,
        served: true,
    };
    /// Corner queries only.
    pub const CORNERS: Checks = Checks {
        corners: true,
        executors: false,
        served: false,
    };
    /// The executors only.
    pub const EXECUTORS: Checks = Checks {
        corners: false,
        executors: true,
        served: false,
    };
    /// The served path only.
    pub const SERVED: Checks = Checks {
        corners: false,
        executors: false,
        served: true,
    };
}

/// The model and the stores under test, fed the same churn over three
/// collections.
pub struct Stores {
    /// The reference.
    pub model: Model,
    /// The unsharded store, when under test.
    pub plain: Option<SpatialDatabase<2>>,
    /// Local-shard stores, one per shard count under test.
    pub sharded: Vec<ShardedDatabase>,
    /// The collections, the same in every store.
    pub colls: Vec<CollectionId>,
}

impl Stores {
    /// The unsharded store and 1..=4 local shards.
    pub fn all() -> Stores {
        Stores::only(true, &[1, 2, 3, 4])
    }

    /// The unsharded store if `unsharded`, and one local-shard store
    /// per count in `shards`.
    pub fn only(unsharded: bool, shards: &[usize]) -> Stores {
        let names = ["a", "b", "c"];
        let mut model = Model::new(universe());
        let colls = create_all(&mut model, &names);
        let plain = unsharded.then(|| {
            let mut db = SpatialDatabase::new(universe());
            assert_eq!(create_all(&mut db, &names), colls);
            db
        });
        let sharded = shards
            .iter()
            .map(|&n| {
                let mut db = ShardedDatabase::new(universe(), n);
                assert_eq!(create_all(&mut db, &names), colls);
                db
            })
            .collect();
        Stores {
            model,
            plain,
            sharded,
            colls,
        }
    }

    /// Applies `op` everywhere; every store must report the model's
    /// effect.
    pub fn apply(&mut self, op: &Op) {
        let want = op.apply(&mut self.model, &self.colls);
        if let Some(plain) = &mut self.plain {
            let got = op.apply(plain, &self.colls);
            assert_eq!(
                got, want,
                "unsharded store diverged from the model on {op:?}"
            );
        }
        for db in &mut self.sharded {
            let got = op.apply(db, &self.colls);
            assert_eq!(
                got,
                want,
                "{} shards diverged from the model on {op:?}",
                db.n_shards()
            );
        }
    }

    /// Integrity of every store, then the whole matrix.
    pub fn check(&self) {
        self.check_only(Checks::ALL, QUERIES);
    }

    /// Integrity of every store, then the `checks` part of the matrix
    /// over `systems`, one store per thread.
    pub fn check_only(&self, checks: Checks, systems: &[System]) {
        if let Some(plain) = &self.plain {
            integrity::check(plain).expect("unsharded store is consistent");
        }
        for db in &self.sharded {
            db.check().expect("sharded store is consistent");
        }
        let reference = self.model.rebuild();
        if checks.corners {
            let fresh = Checks::CORNERS;
            check_store(
                "fresh rebuild",
                &reference,
                fresh,
                &self.model,
                &self.colls,
                &[],
            );
        }
        let answers = &systems
            .iter()
            .map(|&system| {
                let q = query(system, &self.colls);
                let naive = naive_execute(&reference, &q).expect("naive executes");
                let order: Vec<Var> = q
                    .retrieval_order(&reference)
                    .into_iter()
                    .filter(|v| q.unknown_vars().iter().any(|(u, _)| u == v))
                    .collect();
                assert_eq!(
                    naive.stats.partial_tuples,
                    naive_partial_tuples(&self.model, &q, &order),
                    "`{}`: the naive bound counts what naive enumerates",
                    system.0
                );
                (system, q, normalize(&naive))
            })
            .collect::<Vec<_>>();
        let (model, colls) = (&self.model, &self.colls[..]);
        std::thread::scope(|scope| {
            if let Some(plain) = &self.plain {
                scope.spawn(move || check_store("unsharded", plain, checks, model, colls, answers));
            }
            for db in &self.sharded {
                let label = format!("{} shards", db.n_shards());
                scope.spawn(move || check_store(&label, db, checks, model, colls, answers));
            }
        });
    }
}

/// A system, its query and its reference answer.
type Answer = (System, Query<2>, Vec<BTreeMap<Var, ObjectRef>>);

/// What the naive executor enumerates in `order` without a cap: every
/// live object at every level under every prefix.
fn naive_partial_tuples(model: &Model, q: &Query<2>, order: &[Var]) -> usize {
    let colls: BTreeMap<Var, CollectionId> = q.unknown_vars().into_iter().collect();
    let mut product = 1;
    order
        .iter()
        .map(|v| {
            product *= model.live_len(colls[v]);
            product
        })
        .sum()
}

/// An answer equal to `want` (so complete), or under a cap of `k`
/// exactly `min(k, |want|)` of its tuples.
fn assert_answers(
    got: &QueryResult,
    want: &[BTreeMap<Var, ObjectRef>],
    cap: Option<usize>,
    ctx: &str,
) {
    let got = normalize(got);
    match cap {
        None => assert_eq!(got, want, "{ctx}"),
        Some(k) => {
            assert_eq!(got.len(), k.min(want.len()), "{ctx}: cap {k}");
            for tuple in &got {
                assert!(
                    want.binary_search(tuple).is_ok(),
                    "{ctx}: {tuple:?} is no solution"
                );
            }
        }
    }
}

fn check_store<V: StoreView<2>>(
    label: &str,
    store: &V,
    checks: Checks,
    model: &Model,
    colls: &[CollectionId],
    answers: &[Answer],
) {
    if checks.corners {
        for &coll in colls {
            assert_eq!(store.live_len(coll), model.live_len(coll), "{label}");
            for q in corner_queries() {
                let want = model.corner_answer(coll, &q);
                for kind in KINDS {
                    let mut got = Vec::new();
                    store.query_collection(coll, kind, &q, &mut got);
                    got.sort_unstable();
                    assert_eq!(got, want, "{label}: {kind:?} corner query {q:?}");
                }
            }
        }
    }
    for ((src, unknowns), q, want) in answers {
        if checks.executors {
            let tri = triangular_execute(store, q).expect("triangular executes");
            assert_answers(&tri, want, None, &format!("{label}: `{src}` triangular"));

            let names: Vec<&str> = unknowns.iter().map(|&(name, _)| name).collect();
            for order in permutations(&names) {
                let ordered = q.clone().with_order(&order);
                let bound =
                    naive_partial_tuples(model, &ordered, ordered.order.as_deref().unwrap());
                for kind in KINDS {
                    for cap in CAPS {
                        let options = ExecOptions { max_solutions: cap };
                        let r = bbox_execute_opts(store, &ordered, kind, options)
                            .expect("bbox executes");
                        let ctx = format!("{label}: `{src}` {kind:?} order {order:?}");
                        assert_answers(&r, want, cap, &ctx);
                        if cap.is_none() {
                            assert!(
                                r.stats.partial_tuples <= bound,
                                "{ctx}: pruning expanded the search ({} > {bound})",
                                r.stats.partial_tuples
                            );
                        }
                    }
                }
            }
        }

        if checks.served {
            for kind in KINDS {
                let epochs =
                    |store: &V| -> Vec<u64> { colls.iter().map(|&c| store.epoch(c)).collect() };
                let before = epochs(store);
                let plan = order_by_selectivity(store, q, kind).expect("the planner runs");
                assert_eq!(epochs(store), before, "{label}: planning advanced an epoch");
                let mut planned = q.clone();
                planned.order = Some(plan.order.clone());
                for cap in CAPS {
                    let options = ExecOptions { max_solutions: cap };
                    let r = bbox_execute_compiled(store, &planned, &plan.plan, kind, options)
                        .expect("the compiled plan executes");
                    assert_answers(&r, want, cap, &format!("{label}: `{src}` {kind:?} served"));
                }
            }
        }
    }
}
