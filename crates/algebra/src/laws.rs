//! Reusable Boolean-algebra law checkers.
//!
//! Every concrete algebra in the workspace (including `scq-region`'s
//! geometric algebra) runs these checks over a sample of elements; they
//! exhaustively verify the Huntington axioms plus useful derived laws on
//! all pairs/triples drawn from the sample.

use crate::traits::BooleanAlgebra;

/// Checks commutativity, associativity, absorption, distributivity,
/// identity, complementation, De Morgan and involution over all
/// pairs/triples from `elems`.
///
/// # Panics
/// On the first violated law, with a message naming it.
pub fn check_all<A: BooleanAlgebra>(alg: &A, elems: &[A::Elem]) {
    check_constants(alg);
    for a in elems {
        check_unary(alg, a);
        for b in elems {
            check_binary(alg, a, b);
            for c in elems {
                check_ternary(alg, a, b, c);
            }
        }
    }
}

/// `0 ≠ 1` sanity and constant behaviour.
pub fn check_constants<A: BooleanAlgebra>(alg: &A) {
    assert!(alg.is_zero(&alg.zero()), "0 must be zero");
    assert!(
        !alg.is_zero(&alg.one()),
        "1 must not be zero (degenerate algebra)"
    );
    assert!(alg.is_one(&alg.one()), "1 must be one");
    assert!(
        alg.eq_elem(&alg.complement(&alg.zero()), &alg.one()),
        "~0 = 1"
    );
    assert!(
        alg.eq_elem(&alg.complement(&alg.one()), &alg.zero()),
        "~1 = 0"
    );
}

/// Laws in one element.
pub fn check_unary<A: BooleanAlgebra>(alg: &A, a: &A::Elem) {
    let not_a = alg.complement(a);
    assert!(alg.is_zero(&alg.meet(a, &not_a)), "a & ~a = 0");
    assert!(alg.is_one(&alg.join(a, &not_a)), "a | ~a = 1");
    assert!(alg.eq_elem(&alg.complement(&not_a), a), "~~a = a");
    assert!(alg.eq_elem(&alg.meet(a, a), a), "idempotence of meet");
    assert!(alg.eq_elem(&alg.join(a, a), a), "idempotence of join");
    assert!(alg.eq_elem(&alg.meet(a, &alg.one()), a), "a & 1 = a");
    assert!(alg.eq_elem(&alg.join(a, &alg.zero()), a), "a | 0 = a");
    assert!(alg.is_zero(&alg.meet(a, &alg.zero())), "a & 0 = 0");
    assert!(alg.is_one(&alg.join(a, &alg.one())), "a | 1 = 1");
    assert!(alg.le(&alg.zero(), a), "0 ≤ a");
    assert!(alg.le(a, &alg.one()), "a ≤ 1");
    assert!(alg.le(a, a), "reflexivity");
}

/// Laws in two elements.
pub fn check_binary<A: BooleanAlgebra>(alg: &A, a: &A::Elem, b: &A::Elem) {
    assert!(
        alg.eq_elem(&alg.meet(a, b), &alg.meet(b, a)),
        "meet commutes"
    );
    assert!(
        alg.eq_elem(&alg.join(a, b), &alg.join(b, a)),
        "join commutes"
    );
    // absorption
    assert!(
        alg.eq_elem(&alg.meet(a, &alg.join(a, b)), a),
        "a & (a|b) = a"
    );
    assert!(
        alg.eq_elem(&alg.join(a, &alg.meet(a, b)), a),
        "a | (a&b) = a"
    );
    // De Morgan
    assert!(
        alg.eq_elem(
            &alg.complement(&alg.meet(a, b)),
            &alg.join(&alg.complement(a), &alg.complement(b))
        ),
        "~(a&b) = ~a | ~b"
    );
    assert!(
        alg.eq_elem(
            &alg.complement(&alg.join(a, b)),
            &alg.meet(&alg.complement(a), &alg.complement(b))
        ),
        "~(a|b) = ~a & ~b"
    );
    // order is antisymmetric w.r.t. semantic equality
    if alg.le(a, b) && alg.le(b, a) {
        assert!(alg.eq_elem(a, b), "antisymmetry");
    }
    assert_eq!(
        alg.overlaps(a, b),
        !alg.is_zero(&alg.meet(a, b)),
        "overlaps(a, b) ⟺ a&b ≠ 0"
    );
    // meet is the infimum
    assert!(alg.le(&alg.meet(a, b), a), "a&b ≤ a");
    assert!(alg.le(a, &alg.join(a, b)), "a ≤ a|b");
}

/// Laws in three elements.
pub fn check_ternary<A: BooleanAlgebra>(alg: &A, a: &A::Elem, b: &A::Elem, c: &A::Elem) {
    assert!(
        alg.eq_elem(&alg.meet(a, &alg.meet(b, c)), &alg.meet(&alg.meet(a, b), c)),
        "meet associates"
    );
    assert!(
        alg.eq_elem(&alg.join(a, &alg.join(b, c)), &alg.join(&alg.join(a, b), c)),
        "join associates"
    );
    assert!(
        alg.eq_elem(
            &alg.meet(a, &alg.join(b, c)),
            &alg.join(&alg.meet(a, b), &alg.meet(a, c))
        ),
        "meet distributes over join"
    );
    assert!(
        alg.eq_elem(
            &alg.join(a, &alg.meet(b, c)),
            &alg.meet(&alg.join(a, b), &alg.join(a, c))
        ),
        "join distributes over meet"
    );
}

/// Checks that [`crate::Atomless::proper_part`] really witnesses
/// atomlessness on the given sample: for nonzero `a` it returns `b` with
/// `0 < b < a`, and for zero it returns `None`.
pub fn check_atomless<A: crate::Atomless>(alg: &A, elems: &[A::Elem]) {
    assert!(
        alg.proper_part(&alg.zero()).is_none(),
        "zero has no proper part"
    );
    for a in elems {
        if alg.is_zero(a) {
            continue;
        }
        let b = alg
            .proper_part(a)
            .unwrap_or_else(|| panic!("nonzero element {a:?} must have a proper part"));
        assert!(!alg.is_zero(&b), "proper part must be nonzero");
        assert!(alg.le(&b, a), "proper part must be below");
        assert!(!alg.eq_elem(&b, a), "proper part must be strict");
    }
}
