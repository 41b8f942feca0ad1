//! Text syntax for constraint systems — the "high-level query language"
//! of the paper's introduction.
//!
//! A system is a sequence of statements separated by `;` or newlines.
//! Each statement relates two formulas (formula syntax per
//! [`scq_boolean::parse_formula`]):
//!
//! ```text
//! f <= g     f ⊆ g           (positive)
//! f >= g     f ⊇ g
//! f <  g     f ⊂ g           (strict containment)
//! f >  g     f ⊃ g
//! f =  g     f = g
//! f != g     f ≠ g
//! f !<= g    f ⊄ g           (negative containment)
//! f !>= g    f ⊉ g
//! ```
//!
//! Disjointness and overlap are written through the formula language:
//! `A & B = 0`, `R & T != 0`. Comments start with `#` and run to the end
//! of the line.
//!
//! ```
//! use scq_core::parse_system;
//! let sys = parse_system("
//!     A <= C;  B <= C
//!     R <= A | B | T
//!     R & A != 0;  R & T != 0
//!     T < C
//! ").unwrap();
//! assert_eq!(sys.constraints.len(), 6);
//! ```

use scq_boolean::{parse_formula, Formula, ParseError};

use crate::constraint::{Constraint, ConstraintSystem};

/// Error from [`parse_system`]: the statement index plus the underlying
/// cause.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemParseError {
    /// Zero-based statement number.
    pub statement: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SystemParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "statement {}: {}", self.statement + 1, self.message)
    }
}

impl std::error::Error for SystemParseError {}

fn formula_err(statement: usize, e: ParseError) -> SystemParseError {
    SystemParseError {
        statement,
        message: e.to_string(),
    }
}

/// Builds a constraint from the two operand formulas of a statement.
type ConstraintBuilder = fn(Formula, Formula) -> Constraint;

/// The relational operators, longest first so scanning is unambiguous.
/// Superset forms are sugar for their mirrored subset forms.
const OPS: [(&str, ConstraintBuilder); 8] = [
    ("!<=", |a, b| Constraint::NotSubset(a, b)),
    ("!>=", |a, b| Constraint::NotSubset(b, a)),
    ("!=", |a, b| Constraint::Neq(a, b)),
    ("<=", |a, b| Constraint::Subset(a, b)),
    (">=", |a, b| Constraint::Subset(b, a)),
    ("<", |a, b| Constraint::ProperSubset(a, b)),
    (">", |a, b| Constraint::ProperSubset(b, a)),
    ("=", |a, b| Constraint::Eq(a, b)),
];

/// Finds the single top-level relational operator in a statement.
fn find_op(stmt: &str) -> Option<(usize, &'static str, ConstraintBuilder)> {
    let bytes = stmt.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        for (tok, build) in OPS {
            if stmt[i..].starts_with(tok) {
                // "!" alone is negation; only treat '!' as operator start
                // when it begins "!=" or "!<=" (ensured by token list).
                return Some((i, tok, build));
            }
        }
        i += 1;
    }
    None
}

/// Parses a constraint system. Special forms `f = 0`, `f != 0` map to
/// the dedicated equation/disequation constraints via `Eq`/`Neq` with a
/// zero right-hand side (normalization treats them identically).
pub fn parse_system(input: &str) -> Result<ConstraintSystem, SystemParseError> {
    let mut sys = ConstraintSystem::new();
    let mut statement = 0usize;
    for raw in input.split([';', '\n']) {
        let stmt = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        let (pos, tok, build) = find_op(stmt).ok_or_else(|| SystemParseError {
            statement,
            message: format!("no relational operator in {stmt:?}"),
        })?;
        let lhs_src = &stmt[..pos];
        let rhs_src = &stmt[pos + tok.len()..];
        let lhs = parse_formula(lhs_src, &mut sys.table).map_err(|e| formula_err(statement, e))?;
        let rhs = parse_formula(rhs_src, &mut sys.table).map_err(|e| formula_err(statement, e))?;
        sys.push(build(lhs, rhs));
        statement += 1;
    }
    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smuggler_system_parses() {
        let sys =
            parse_system("A <= C; B <= C; R <= A | B | T; R & A != 0; R & T != 0; T < C").unwrap();
        assert_eq!(sys.constraints.len(), 6);
        assert!(matches!(sys.constraints[0], Constraint::Subset(..)));
        assert!(matches!(sys.constraints[3], Constraint::Neq(..)));
        assert!(matches!(sys.constraints[5], Constraint::ProperSubset(..)));
        assert_eq!(sys.vars().len(), 5);
    }

    #[test]
    fn newlines_and_comments() {
        let sys = parse_system("# the country\nA <= C   # area inside country\n\nB != 0").unwrap();
        assert_eq!(sys.constraints.len(), 2);
    }

    #[test]
    fn not_subset_vs_negation() {
        let sys = parse_system("~A <= B; A !<= B").unwrap();
        assert!(
            matches!(&sys.constraints[0], Constraint::Subset(f, _) if f.to_string().starts_with('~'))
        );
        assert!(matches!(sys.constraints[1], Constraint::NotSubset(..)));
    }

    #[test]
    fn neq_and_eq_zero_forms() {
        let sys = parse_system("A & B = 0; A | B != 0").unwrap();
        assert!(matches!(sys.constraints[0], Constraint::Eq(..)));
        assert!(matches!(sys.constraints[1], Constraint::Neq(..)));
        // normalization turns them into the expected shapes
        let n = sys.normalize();
        assert_eq!(n.neqs.len(), 1);
    }

    #[test]
    fn errors_carry_statement_numbers() {
        let err = parse_system("A <= B; C <").unwrap_err();
        assert_eq!(err.statement, 1);
        assert!(err.to_string().contains("statement 2"));
        let err = parse_system("A B").unwrap_err();
        assert!(err.message.contains("no relational operator"));
    }

    #[test]
    fn shared_names_share_variables() {
        let sys = parse_system("A <= B; B <= C; C & A = 0").unwrap();
        assert_eq!(sys.vars().len(), 3);
    }

    #[test]
    fn superset_forms_mirror() {
        let sys = parse_system("A >= B; A > B; A !>= B").unwrap();
        match &sys.constraints[0] {
            Constraint::Subset(f, g) => {
                assert_eq!(f.to_string(), "x1");
                assert_eq!(g.to_string(), "x0");
            }
            other => panic!("expected mirrored Subset, got {other:?}"),
        }
        assert!(matches!(sys.constraints[1], Constraint::ProperSubset(..)));
        assert!(matches!(sys.constraints[2], Constraint::NotSubset(..)));
    }
}
