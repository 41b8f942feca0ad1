//! Query definition: a constraint system plus variable bindings and an
//! optional retrieval order.

use std::collections::BTreeMap;

use scq_boolean::Var;
use scq_core::ConstraintSystem;
use scq_region::Region;

use crate::database::CollectionId;
use crate::view::StoreView;

/// Which index structure the bbox executor probes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexKind {
    /// Guttman R-tree.
    RTree,
    /// Grid file over corner points.
    GridFile,
    /// Linear scan (still applies the corner filter per object).
    Scan,
}

/// How a query variable gets its value.
#[derive(Clone, Debug)]
pub enum VarBinding<const K: usize> {
    /// The value is given with the query (e.g. the country `C` and the
    /// destination area `A` of the paper's smuggler example).
    Known(Region<K>),
    /// The value ranges over a database collection.
    Collection(CollectionId),
}

/// A constraint query against a [`crate::SpatialDatabase`].
#[derive(Clone, Debug)]
pub struct Query<const K: usize> {
    /// The constraints.
    pub system: ConstraintSystem,
    /// Binding for every variable of the system.
    pub bindings: BTreeMap<Var, VarBinding<K>>,
    /// Retrieval order for the *unknown* (collection-bound) variables.
    /// `None` lets the planner choose (ascending collection size).
    pub order: Option<Vec<Var>>,
}

impl<const K: usize> Query<K> {
    /// Creates a query with no bindings yet.
    pub fn new(system: ConstraintSystem) -> Self {
        Query {
            system,
            bindings: BTreeMap::new(),
            order: None,
        }
    }

    /// Binds a variable (by name) to a known region.
    ///
    /// # Panics
    /// If the name is not a variable of the system.
    pub fn known(mut self, name: &str, region: Region<K>) -> Self {
        let v = self.system.table.get(name).expect("unknown variable name");
        self.bindings.insert(v, VarBinding::Known(region));
        self
    }

    /// Binds a variable (by name) to a collection.
    pub fn from_collection(mut self, name: &str, coll: CollectionId) -> Self {
        let v = self.system.table.get(name).expect("unknown variable name");
        self.bindings.insert(v, VarBinding::Collection(coll));
        self
    }

    /// Fixes the retrieval order of the unknown variables (by name).
    pub fn with_order(mut self, names: &[&str]) -> Self {
        let order = names
            .iter()
            .map(|n| self.system.table.get(n).expect("unknown variable name"))
            .collect();
        self.order = Some(order);
        self
    }

    /// The known variables (with their regions) in variable order.
    pub fn known_vars(&self) -> Vec<(Var, &Region<K>)> {
        self.bindings
            .iter()
            .filter_map(|(&v, b)| match b {
                VarBinding::Known(r) => Some((v, r)),
                VarBinding::Collection(_) => None,
            })
            .collect()
    }

    /// The unknown variables with their collections, in variable order.
    pub fn unknown_vars(&self) -> Vec<(Var, CollectionId)> {
        self.bindings
            .iter()
            .filter_map(|(&v, b)| match b {
                VarBinding::Known(_) => None,
                VarBinding::Collection(c) => Some((v, *c)),
            })
            .collect()
    }

    /// The full retrieval order: known variables first (they are "bound"
    /// before any retrieval), then the unknowns in the requested order,
    /// or by ascending collection size if none was given — smaller
    /// collections earlier mean cheaper backtracking levels on top.
    pub fn retrieval_order<V: StoreView<K>>(&self, db: &V) -> Vec<Var> {
        let mut order: Vec<Var> = self.known_vars().iter().map(|&(v, _)| v).collect();
        match &self.order {
            Some(unknowns) => order.extend(unknowns.iter().copied()),
            None => {
                let mut unknowns = self.unknown_vars();
                unknowns.sort_by_key(|&(v, c)| (db.live_len(c), v));
                order.extend(unknowns.into_iter().map(|(v, _)| v));
            }
        }
        order
    }

    /// Checks that every system variable is bound and every ordered
    /// variable is an unknown of the system; returns a description of
    /// the first problem.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for v in self.system.vars() {
            if !self.bindings.contains_key(&v) {
                return Err(format!(
                    "variable {} is not bound",
                    self.system.table.display(v)
                ));
            }
        }
        if let Some(order) = &self.order {
            let unknowns: std::collections::BTreeSet<Var> =
                self.unknown_vars().iter().map(|&(v, _)| v).collect();
            for v in order {
                if !unknowns.contains(v) {
                    return Err(format!(
                        "ordered variable {} is not an unknown of the query",
                        self.system.table.display(*v)
                    ));
                }
            }
            if order.len() != unknowns.len() {
                return Err("retrieval order must list every unknown exactly once".into());
            }
            let mut seen = std::collections::BTreeSet::new();
            for v in order {
                if !seen.insert(*v) {
                    return Err("duplicate variable in retrieval order".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::SpatialDatabase;
    use scq_core::parse_system;
    use scq_region::AaBox;

    fn setup() -> (SpatialDatabase<2>, Query<2>) {
        let mut db = SpatialDatabase::new(AaBox::new([0.0, 0.0], [10.0, 10.0]));
        let towns = db.collection("towns");
        let roads = db.collection("roads");
        for i in 0..5 {
            let x = i as f64;
            db.insert(
                towns,
                Region::from_box(AaBox::new([x, 0.0], [x + 0.5, 0.5])),
            );
        }
        db.insert(roads, Region::from_box(AaBox::new([0.0, 0.0], [9.0, 1.0])));
        let sys = parse_system("T <= C; R & T != 0").unwrap();
        let q = Query::new(sys)
            .known("C", Region::from_box(AaBox::new([0.0, 0.0], [10.0, 10.0])))
            .from_collection("T", towns)
            .from_collection("R", roads);
        (db, q)
    }

    #[test]
    fn bindings_partition() {
        let (_, q) = setup();
        assert_eq!(q.known_vars().len(), 1);
        assert_eq!(q.unknown_vars().len(), 2);
        assert!(q.validate().is_ok());
    }

    #[test]
    fn default_order_by_collection_size() {
        let (db, q) = setup();
        let order = q.retrieval_order(&db);
        // C (known) first, then R (1 road) before T (5 towns)
        let names: Vec<&str> = order.iter().map(|&v| q.system.table.name(v)).collect();
        assert_eq!(names, vec!["C", "R", "T"]);
    }

    #[test]
    fn explicit_order_is_respected() {
        let (db, q) = setup();
        let q = q.with_order(&["T", "R"]);
        let names: Vec<String> = q
            .retrieval_order(&db)
            .iter()
            .map(|&v| q.system.table.display(v))
            .collect();
        assert_eq!(names, vec!["C", "T", "R"]);
        assert!(q.validate().is_ok());
    }

    #[test]
    fn validation_catches_unbound() {
        let sys = parse_system("X <= Y").unwrap();
        let q: Query<2> = Query::new(sys);
        assert!(q.validate().unwrap_err().contains("not bound"));
    }

    #[test]
    fn validation_catches_bad_order() {
        let (_, q) = setup();
        let bad = q.clone().with_order(&["T"]);
        assert!(bad.validate().is_err());
        let dup = q.with_order(&["T", "T"]);
        assert!(dup.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "unknown variable name")]
    fn binding_unknown_name_panics() {
        let sys = parse_system("A <= B").unwrap();
        let _ = Query::<2>::new(sys).known("Z", Region::empty());
    }
}
