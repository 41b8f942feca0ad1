//! Variable assignments: partial maps from [`Var`] to algebra elements.
//!
//! Two implementations share the [`VarLookup`] read interface:
//!
//! * [`Assignment`] — an owning `BTreeMap`, convenient for query inputs
//!   and tests;
//! * [`FlatAssignment`] — slot-based storage of *borrowed* elements,
//!   indexed by [`Var::index`]. This is the executor's hot-path
//!   representation: binding a candidate is writing one `Option<&E>`
//!   slot, with no element clone and no tree rebalancing.

use std::collections::BTreeMap;

use scq_boolean::Var;

/// Read access to a variable assignment, generic over storage.
///
/// The evaluators ([`crate::eval::eval_formula_in`],
/// `SolvedRow::bind_prefix` in `scq-core`) are written against this trait
/// so that both owning and borrowing assignments evaluate without
/// cloning elements at variable leaves.
pub trait VarLookup<E> {
    /// The element bound to `v`, if any.
    fn lookup(&self, v: Var) -> Option<&E>;
}

/// A partial assignment of algebra elements to variables.
///
/// Used both for *known* query inputs (e.g. the country `C` and target
/// area `A` in the paper's smuggler example) and for the growing partial
/// solution tuples of the incremental evaluation strategy.
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment<E> {
    map: BTreeMap<Var, E>,
}

impl<E> Default for Assignment<E> {
    fn default() -> Self {
        Assignment {
            map: BTreeMap::new(),
        }
    }
}

impl<E: Clone> Assignment<E> {
    /// The empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `v` to `e`, replacing any previous binding.
    pub fn bind(&mut self, v: Var, e: E) -> &mut Self {
        self.map.insert(v, e);
        self
    }

    /// Builder-style binding.
    pub fn with(mut self, v: Var, e: E) -> Self {
        self.map.insert(v, e);
        self
    }

    /// Removes a binding.
    pub fn unbind(&mut self, v: Var) -> Option<E> {
        self.map.remove(&v)
    }

    /// Looks up the element bound to `v`.
    pub fn get(&self, v: Var) -> Option<&E> {
        self.map.get(&v)
    }

    /// Whether `v` is bound.
    pub fn is_bound(&self, v: Var) -> bool {
        self.map.contains_key(&v)
    }

    /// The bound variables in order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.map.keys().copied()
    }

    /// Iterates over bindings.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &E)> + '_ {
        self.map.iter().map(|(&v, e)| (v, e))
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether there are no bindings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl<E> VarLookup<E> for Assignment<E> {
    fn lookup(&self, v: Var) -> Option<&E> {
        self.map.get(&v)
    }
}

/// A partial assignment of **borrowed** elements, stored flat in a slot
/// per variable index.
///
/// The executors bind `&Region` straight out of the database instead of
/// cloning regions into a map: a bind is `slots[v.index()] = Some(r)`,
/// a lookup is one indexed load. Slots beyond the preallocated capacity
/// grow on demand, so `Var` indices need not be dense.
#[derive(Clone, Debug)]
pub struct FlatAssignment<'e, E> {
    slots: Vec<Option<&'e E>>,
    bound: usize,
}

impl<'e, E> FlatAssignment<'e, E> {
    /// An empty assignment with room for variable indices `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        FlatAssignment {
            slots: vec![None; n],
            bound: 0,
        }
    }

    /// Binds `v` to a borrowed element, replacing any previous binding.
    pub fn bind(&mut self, v: Var, e: &'e E) -> &mut Self {
        let i = v.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        if self.slots[i].is_none() {
            self.bound += 1;
        }
        self.slots[i] = Some(e);
        self
    }

    /// Removes a binding, returning the borrow if one was present.
    pub fn unbind(&mut self, v: Var) -> Option<&'e E> {
        let slot = self.slots.get_mut(v.index())?;
        let old = slot.take();
        if old.is_some() {
            self.bound -= 1;
        }
        old
    }

    /// The element bound to `v`.
    pub fn get(&self, v: Var) -> Option<&'e E> {
        self.slots.get(v.index()).copied().flatten()
    }

    /// Whether `v` is bound.
    pub fn is_bound(&self, v: Var) -> bool {
        self.get(v).is_some()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bound
    }

    /// Whether there are no bindings.
    pub fn is_empty(&self) -> bool {
        self.bound == 0
    }
}

impl<E> VarLookup<E> for FlatAssignment<'_, E> {
    fn lookup(&self, v: Var) -> Option<&E> {
        self.get(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_get_unbind() {
        let mut a: Assignment<u64> = Assignment::new();
        a.bind(Var(0), 5).bind(Var(1), 7);
        assert_eq!(a.get(Var(0)), Some(&5));
        assert!(a.is_bound(Var(1)));
        assert_eq!(a.len(), 2);
        assert_eq!(a.unbind(Var(0)), Some(5));
        assert!(!a.is_bound(Var(0)));
    }

    #[test]
    fn with_builder_and_iter() {
        let a = Assignment::new().with(Var(2), "x").with(Var(0), "y");
        let vars: Vec<Var> = a.vars().collect();
        assert_eq!(vars, vec![Var(0), Var(2)], "iteration in variable order");
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn rebinding_replaces() {
        let mut a: Assignment<i32> = Assignment::new();
        a.bind(Var(0), 1);
        a.bind(Var(0), 2);
        assert_eq!(a.get(Var(0)), Some(&2));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn flat_bind_get_unbind() {
        let (x, y) = (5u64, 7u64);
        let mut a: FlatAssignment<'_, u64> = FlatAssignment::with_capacity(2);
        a.bind(Var(0), &x).bind(Var(1), &y);
        assert_eq!(a.get(Var(0)), Some(&5));
        assert!(a.is_bound(Var(1)));
        assert_eq!(a.len(), 2);
        assert_eq!(a.unbind(Var(0)), Some(&5));
        assert!(!a.is_bound(Var(0)));
        assert_eq!(a.len(), 1);
        assert_eq!(a.unbind(Var(0)), None, "double unbind is a no-op");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn flat_grows_beyond_capacity() {
        let v = 3i32;
        let mut a: FlatAssignment<'_, i32> = FlatAssignment::with_capacity(1);
        a.bind(Var(9), &v);
        assert_eq!(a.get(Var(9)), Some(&3));
        assert_eq!(a.get(Var(4)), None);
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
    }

    #[test]
    fn flat_rebinding_keeps_count() {
        let (x, y) = (1u8, 2u8);
        let mut a: FlatAssignment<'_, u8> = FlatAssignment::with_capacity(4);
        a.bind(Var(2), &x);
        a.bind(Var(2), &y);
        assert_eq!(a.get(Var(2)), Some(&2));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn both_implementations_agree_through_var_lookup() {
        fn read<E, L: VarLookup<E>>(l: &L, v: Var) -> Option<&E> {
            l.lookup(v)
        }
        let owned = Assignment::new().with(Var(1), 42u64);
        let x = 42u64;
        let mut flat: FlatAssignment<'_, u64> = FlatAssignment::with_capacity(2);
        flat.bind(Var(1), &x);
        assert_eq!(read(&owned, Var(1)), read(&flat, Var(1)));
        assert_eq!(read(&owned, Var(0)), None);
        assert_eq!(read(&flat, Var(0)), None);
    }
}
