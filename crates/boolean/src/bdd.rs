//! A reduced ordered binary decision diagram (ROBDD) engine.
//!
//! The optimizer needs fast *semantic* answers about formulas produced by
//! repeated cofactoring — is this constraint identically `0` (so the
//! disequation `g ≠ 0` is unsatisfiable)? identically `1`? are two
//! formulas equivalent? By Theorem 8 of the paper, equivalence of
//! constraint formulas over all (atomless) Boolean algebras coincides with
//! propositional equivalence, which BDDs decide canonically.
//!
//! The implementation is a classic Bryant-style manager: a node arena, a
//! unique table enforcing sharing, and a memoized binary `apply`.

use std::collections::HashMap;

use crate::formula::Formula;
use crate::var::Var;

/// Index of a BDD node inside a [`Bdd`] manager.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(u32);

/// The terminal `0`.
pub const ZERO: NodeId = NodeId(0);
/// The terminal `1`.
pub const ONE: NodeId = NodeId(1);

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Node {
    /// Variable level (order position). Terminals use `u32::MAX`.
    level: u32,
    lo: NodeId,
    hi: NodeId,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Op {
    And,
    Or,
    Xor,
}

/// A BDD manager. Variables are ordered by their [`Var`] index.
///
/// ```
/// use scq_boolean::{Bdd, Formula, Var};
/// let mut bdd = Bdd::new();
/// let f = Formula::and(Formula::var(Var(0)), Formula::not(Formula::var(Var(0))));
/// assert!(bdd.is_zero_formula(&f));
/// ```
pub struct Bdd {
    nodes: Vec<Node>,
    unique: HashMap<Node, NodeId>,
    apply_memo: HashMap<(Op, NodeId, NodeId), NodeId>,
    not_memo: HashMap<NodeId, NodeId>,
}

impl Default for Bdd {
    fn default() -> Self {
        Self::new()
    }
}

impl Bdd {
    /// Creates a manager containing only the two terminals.
    pub fn new() -> Self {
        let nodes = vec![
            Node {
                level: u32::MAX,
                lo: ZERO,
                hi: ZERO,
            }, // 0
            Node {
                level: u32::MAX,
                lo: ONE,
                hi: ONE,
            }, // 1
        ];
        Bdd {
            nodes,
            unique: HashMap::new(),
            apply_memo: HashMap::new(),
            not_memo: HashMap::new(),
        }
    }

    /// Number of live nodes (including terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn level(&self, n: NodeId) -> u32 {
        self.nodes[n.0 as usize].level
    }

    fn node(&self, n: NodeId) -> Node {
        self.nodes[n.0 as usize]
    }

    /// Hash-consed node constructor maintaining the reduction invariants.
    fn mk(&mut self, level: u32, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        let node = Node { level, lo, hi };
        if let Some(&id) = self.unique.get(&node) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, id);
        id
    }

    /// The BDD of a single variable.
    pub fn var(&mut self, v: Var) -> NodeId {
        self.mk(v.0, ZERO, ONE)
    }

    /// Conjunction.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::And, a, b)
    }

    /// Disjunction.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::Or, a, b)
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::Xor, a, b)
    }

    /// Complement.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        if a == ZERO {
            return ONE;
        }
        if a == ONE {
            return ZERO;
        }
        if let Some(&r) = self.not_memo.get(&a) {
            return r;
        }
        let n = self.node(a);
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.level, lo, hi);
        self.not_memo.insert(a, r);
        r
    }

    #[allow(clippy::if_same_then_else)] // symmetric unit cases read clearer unmerged
    fn terminal_op(op: Op, a: NodeId, b: NodeId) -> Option<NodeId> {
        match op {
            Op::And => {
                if a == ZERO || b == ZERO {
                    Some(ZERO)
                } else if a == ONE {
                    Some(b)
                } else if b == ONE {
                    Some(a)
                } else if a == b {
                    Some(a)
                } else {
                    None
                }
            }
            Op::Or => {
                if a == ONE || b == ONE {
                    Some(ONE)
                } else if a == ZERO {
                    Some(b)
                } else if b == ZERO {
                    Some(a)
                } else if a == b {
                    Some(a)
                } else {
                    None
                }
            }
            Op::Xor => {
                if a == b {
                    Some(ZERO)
                } else if a == ZERO {
                    Some(b)
                } else if b == ZERO {
                    Some(a)
                } else {
                    None
                }
            }
        }
    }

    fn apply(&mut self, op: Op, a: NodeId, b: NodeId) -> NodeId {
        if let Some(t) = Self::terminal_op(op, a, b) {
            return t;
        }
        // Commutative ops: canonicalize the memo key.
        let key = if a <= b { (op, a, b) } else { (op, b, a) };
        if let Some(&r) = self.apply_memo.get(&key) {
            return r;
        }
        let (na, nb) = (self.node(a), self.node(b));
        let level = na.level.min(nb.level);
        let (alo, ahi) = if na.level == level {
            (na.lo, na.hi)
        } else {
            (a, a)
        };
        let (blo, bhi) = if nb.level == level {
            (nb.lo, nb.hi)
        } else {
            (b, b)
        };
        let lo = self.apply(op, alo, blo);
        let hi = self.apply(op, ahi, bhi);
        let r = self.mk(level, lo, hi);
        self.apply_memo.insert(key, r);
        r
    }

    /// Builds the BDD of a formula.
    pub fn from_formula(&mut self, f: &Formula) -> NodeId {
        match f {
            Formula::Zero => ZERO,
            Formula::One => ONE,
            Formula::Var(v) => self.var(*v),
            Formula::Not(g) => {
                let n = self.from_formula(g);
                self.not(n)
            }
            Formula::And(a, b) => {
                let x = self.from_formula(a);
                let y = self.from_formula(b);
                self.and(x, y)
            }
            Formula::Or(a, b) => {
                let x = self.from_formula(a);
                let y = self.from_formula(b);
                self.or(x, y)
            }
        }
    }

    /// Existential quantification `∃v. n`.
    pub fn exists(&mut self, n: NodeId, v: Var) -> NodeId {
        let (lo, hi) = self.cofactors(n, v);
        self.or(lo, hi)
    }

    /// Both cofactors of `n` by `v`.
    pub fn cofactors(&mut self, n: NodeId, v: Var) -> (NodeId, NodeId) {
        (self.restrict(n, v, false), self.restrict(n, v, true))
    }

    /// Restriction `n[v ← value]`.
    pub fn restrict(&mut self, n: NodeId, v: Var, value: bool) -> NodeId {
        if n == ZERO || n == ONE {
            return n;
        }
        let node = self.node(n);
        if node.level > v.0 {
            return n; // v does not occur below
        }
        if node.level == v.0 {
            return if value { node.hi } else { node.lo };
        }
        let lo = self.restrict(node.lo, v, value);
        let hi = self.restrict(node.hi, v, value);
        self.mk(node.level, lo, hi)
    }

    /// Whether the node denotes the constant `0` (unsatisfiable).
    pub fn is_zero(&self, n: NodeId) -> bool {
        n == ZERO
    }

    /// Whether the node denotes the constant `1` (valid).
    pub fn is_one(&self, n: NodeId) -> bool {
        n == ONE
    }

    /// Semantic zero test for a formula: `f ≡ 0`?
    pub fn is_zero_formula(&mut self, f: &Formula) -> bool {
        self.from_formula(f) == ZERO
    }

    /// Semantic one test for a formula: `f ≡ 1`?
    pub fn is_one_formula(&mut self, f: &Formula) -> bool {
        self.from_formula(f) == ONE
    }

    /// Semantic equivalence of two formulas.
    pub fn equivalent(&mut self, f: &Formula, g: &Formula) -> bool {
        self.from_formula(f) == self.from_formula(g)
    }

    /// Semantic implication `f ⟹ g`.
    pub fn implies(&mut self, f: &Formula, g: &Formula) -> bool {
        let a = self.from_formula(f);
        let ng = {
            let b = self.from_formula(g);
            self.not(b)
        };
        self.and(a, ng) == ZERO
    }

    /// Counts satisfying assignments over exactly `nvars` variables
    /// `x0..x{nvars-1}` (all of which must be ≥ every level in `n`).
    pub fn sat_count(&self, n: NodeId, nvars: u32) -> u64 {
        fn go(
            bdd: &Bdd,
            n: NodeId,
            level: u32,
            nvars: u32,
            memo: &mut HashMap<(NodeId, u32), u64>,
        ) -> u64 {
            if n == ZERO {
                return 0;
            }
            let node_level = if n == ONE {
                nvars
            } else {
                bdd.level(n).min(nvars)
            };
            if n == ONE {
                return 1u64 << (nvars - level);
            }
            if let Some(&c) = memo.get(&(n, level)) {
                return c;
            }
            let skipped = node_level - level;
            let node = bdd.node(n);
            let below = go(bdd, node.lo, node_level + 1, nvars, memo)
                + go(bdd, node.hi, node_level + 1, nvars, memo);
            let c = below << skipped;
            memo.insert((n, level), c);
            c
        }
        let mut memo = HashMap::new();
        go(self, n, 0, nvars, &mut memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    #[test]
    fn terminals() {
        let mut b = Bdd::new();
        assert!(b.is_zero_formula(&Formula::Zero));
        assert!(b.is_one_formula(&Formula::One));
        assert!(!b.is_zero_formula(&v(0)));
    }

    #[test]
    fn contradiction_and_tautology() {
        let mut b = Bdd::new();
        let f = Formula::And(
            std::sync::Arc::new(v(0)),
            std::sync::Arc::new(Formula::not(v(0))),
        );
        assert!(b.is_zero_formula(&f));
        let g = Formula::Or(
            std::sync::Arc::new(v(0)),
            std::sync::Arc::new(Formula::not(v(0))),
        );
        assert!(b.is_one_formula(&g));
    }

    #[test]
    fn equivalence_of_distinct_syntaxes() {
        let mut b = Bdd::new();
        // De Morgan
        let f = Formula::not(Formula::and(v(0), v(1)));
        let g = Formula::or(Formula::not(v(0)), Formula::not(v(1)));
        assert!(b.equivalent(&f, &g));
        // absorption law
        let h = Formula::Or(
            std::sync::Arc::new(v(0)),
            std::sync::Arc::new(Formula::and(v(0), v(1))),
        );
        assert!(b.equivalent(&h, &v(0)));
    }

    #[test]
    fn implication() {
        let mut b = Bdd::new();
        assert!(b.implies(&Formula::and(v(0), v(1)), &v(0)));
        assert!(!b.implies(&v(0), &Formula::and(v(0), v(1))));
        assert!(b.implies(&Formula::Zero, &v(5)));
    }

    #[test]
    fn sharing_via_unique_table() {
        let mut b = Bdd::new();
        let f1 = b.from_formula(&Formula::and(v(0), v(1)));
        let before = b.node_count();
        let f2 = b.from_formula(&Formula::and(v(0), v(1)));
        assert_eq!(f1, f2);
        assert_eq!(
            b.node_count(),
            before,
            "no new nodes for an existing function"
        );
    }

    #[test]
    fn restrict_and_cofactors() {
        let mut b = Bdd::new();
        let f = Formula::or(
            Formula::and(v(0), v(1)),
            Formula::and(Formula::not(v(0)), v(2)),
        );
        let n = b.from_formula(&f);
        let (lo, hi) = b.cofactors(n, Var(0));
        let want_lo = b.from_formula(&v(2));
        let want_hi = b.from_formula(&v(1));
        assert_eq!(lo, want_lo);
        assert_eq!(hi, want_hi);
    }

    #[test]
    fn exists_matches_boole() {
        // ∃x. f should equal f0 | f1 built through formulas.
        let mut b = Bdd::new();
        let f = Formula::or(
            Formula::and(v(0), v(1)),
            Formula::and(Formula::not(v(0)), v(2)),
        );
        let n = b.from_formula(&f);
        let e = b.exists(n, Var(0));
        let or01 = Formula::or(f.cofactor(Var(0), false), f.cofactor(Var(0), true));
        let want = b.from_formula(&or01);
        assert_eq!(e, want);
    }

    #[test]
    fn sat_count_small() {
        let mut b = Bdd::new();
        let f = Formula::or(v(0), v(1)); // 3 of 4
        let n = b.from_formula(&f);
        assert_eq!(b.sat_count(n, 2), 3);
        let g = Formula::xor(v(0), v(1)); // 2 of 4
        let m = b.from_formula(&g);
        assert_eq!(b.sat_count(m, 2), 2);
        assert_eq!(b.sat_count(ONE, 3), 8);
        assert_eq!(b.sat_count(ZERO, 3), 0);
    }

    #[test]
    fn xor_op() {
        let mut b = Bdd::new();
        let x = b.var(Var(0));
        let y = b.var(Var(1));
        let viaxor = b.xor(x, y);
        let f = Formula::xor(v(0), v(1));
        let direct = b.from_formula(&f);
        assert_eq!(viaxor, direct);
        let self_xor = b.xor(x, x);
        assert_eq!(self_xor, ZERO);
    }
}
