//! Error types for the relational substrate.

use std::fmt;

/// Errors raised while building, parsing, or completing relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// An attribute name was not found in the schema.
    UnknownAttribute(String),
    /// A row had the wrong number of values.
    ArityMismatch {
        /// Number of attributes in the schema.
        expected: usize,
        /// Number of values supplied.
        found: usize,
    },
    /// A constant is not a member of the attribute's finite domain.
    ConstantNotInDomain {
        /// The offending constant text.
        constant: String,
        /// The attribute whose domain was violated.
        attribute: String,
    },
    /// An operation required a finite domain but the attribute's domain
    /// is unbounded (completions cannot be enumerated).
    UnboundedDomain {
        /// The attribute with the unbounded domain.
        attribute: String,
    },
    /// A completion enumeration would exceed the configured work bound.
    TooManyCompletions {
        /// The number of completions that would be generated (saturated).
        count: u128,
        /// The configured bound.
        limit: u128,
    },
    /// Free-form parse error with a line number (1-based).
    Parse {
        /// 1-based line number within the parsed text.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Too many attributes for the bitset representation.
    TooManyAttributes {
        /// Number requested.
        requested: usize,
        /// The hard limit.
        limit: usize,
    },
    /// Every null id below `u32::MAX` has been allocated, so a fresh
    /// null cannot be minted without reusing one.
    NullIdsExhausted,
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::UnknownAttribute(name) => {
                write!(f, "unknown attribute {name:?}")
            }
            RelationError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "row has {found} values but the schema has {expected} attributes"
                )
            }
            RelationError::ConstantNotInDomain {
                constant,
                attribute,
            } => {
                write!(
                    f,
                    "constant {constant:?} is not in the domain of attribute {attribute}"
                )
            }
            RelationError::UnboundedDomain { attribute } => {
                write!(
                    f,
                    "attribute {attribute} has an unbounded domain; completions cannot be enumerated"
                )
            }
            RelationError::TooManyCompletions { count, limit } => {
                write!(
                    f,
                    "completion enumeration of {count} tuples exceeds the limit {limit}"
                )
            }
            RelationError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            RelationError::TooManyAttributes { requested, limit } => {
                write!(
                    f,
                    "{requested} attributes requested but at most {limit} are supported"
                )
            }
            RelationError::NullIdsExhausted => {
                write!(f, "null ids exhausted: no fresh null can be allocated")
            }
        }
    }
}

impl std::error::Error for RelationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = RelationError::ConstantNotInDomain {
            constant: "x9".into(),
            attribute: "SL".into(),
        };
        assert!(e.to_string().contains("x9"));
        assert!(e.to_string().contains("SL"));
        let e = RelationError::ArityMismatch {
            expected: 4,
            found: 3,
        };
        assert!(e.to_string().contains('4'));
        assert!(e.to_string().contains('3'));
    }
}
