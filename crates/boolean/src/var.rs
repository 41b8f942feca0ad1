//! Variables and the name table mapping them to human-readable identifiers.

use std::collections::HashMap;
use std::fmt;

/// A Boolean variable, identified by a dense non-negative index.
///
/// Variables are pure identities; display names are kept externally in a
/// [`VarTable`] so that formulas stay tiny and `Copy`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(pub u32);

impl Var {
    /// The dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Bidirectional mapping between variable names and [`Var`] identities.
///
/// Interning the same name twice yields the same variable:
///
/// ```
/// use scq_boolean::VarTable;
/// let mut t = VarTable::new();
/// let a = t.intern("A");
/// assert_eq!(a, t.intern("A"));
/// assert_eq!(t.name(a), "A");
/// ```
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    names: Vec<String>,
    by_name: HashMap<String, Var>,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the variable for `name`, creating it if necessary.
    pub fn intern(&mut self, name: &str) -> Var {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let v = Var(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), v);
        v
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<Var> {
        self.by_name.get(name).copied()
    }

    /// The display name of `v`. Falls back to `x<index>` for variables that
    /// were never interned through this table.
    pub fn name(&self, v: Var) -> &str {
        self.names.get(v.index()).map(String::as_str).unwrap_or("")
    }

    /// Resolves `v` to its name, or a synthesized `x<index>` name.
    pub fn display(&self, v: Var) -> String {
        match self.names.get(v.index()) {
            Some(n) => n.clone(),
            None => format!("{v}"),
        }
    }

    /// Number of interned variables.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// Iterates over all interned variables in index order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.names.len() as u32).map(Var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = VarTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        assert_ne!(a, b);
        assert_eq!(t.intern("alpha"), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn get_and_name_round_trip() {
        let mut t = VarTable::new();
        let a = t.intern("A");
        assert_eq!(t.get("A"), Some(a));
        assert_eq!(t.get("missing"), None);
        assert_eq!(t.name(a), "A");
        assert_eq!(t.display(a), "A");
        assert_eq!(t.display(Var(99)), "x99");
    }

    #[test]
    fn iter_yields_in_index_order() {
        let mut t = VarTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let got: Vec<Var> = t.iter().collect();
        assert_eq!(got, vec![a, b]);
    }

    #[test]
    fn var_display_and_ord() {
        assert_eq!(Var(3).to_string(), "x3");
        assert!(Var(1) < Var(2));
        assert_eq!(Var(7).index(), 7);
    }
}
