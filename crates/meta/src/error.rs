//! Error types for the modeling substrate.

use std::fmt;

/// Errors produced by metamodel construction, model manipulation,
/// conformance checking, parsing, and constraint evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaError {
    /// A metamodel is ill-formed (duplicate names, missing supertypes,
    /// inheritance cycles, dangling reference targets, ...).
    IllFormedMetamodel(String),
    /// A named element (class, attribute, reference, enum, literal) was not
    /// found where one was required.
    Unknown {
        /// Kind of element looked up, e.g. `"class"` or `"attribute"`.
        kind: &'static str,
        /// The name that failed to resolve.
        name: String,
    },
    /// An object id does not refer to a live object in the model.
    DanglingObject(String),
    /// A model does not conform to its metamodel; carries all violations.
    NonConformant(Vec<String>),
    /// Syntax error while parsing the textual model format or a constraint.
    Syntax {
        /// 1-based line of the offending token.
        line: u32,
        /// 1-based column of the offending token.
        col: u32,
        /// What went wrong.
        message: String,
    },
    /// A constraint expression failed to evaluate (type error, unknown
    /// variable, division by zero, ...).
    Eval(String),
    /// A change list could not be applied to a model.
    ApplyFailed(String),
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::IllFormedMetamodel(m) => write!(f, "ill-formed metamodel: {m}"),
            MetaError::Unknown { kind, name } => write!(f, "unknown {kind}: `{name}`"),
            MetaError::DanglingObject(id) => write!(f, "dangling object id: {id}"),
            MetaError::NonConformant(v) => {
                write!(
                    f,
                    "model does not conform to metamodel ({} violation(s)):",
                    v.len()
                )?;
                for msg in v {
                    write!(f, "\n  - {msg}")?;
                }
                Ok(())
            }
            MetaError::Syntax { line, col, message } => {
                write!(f, "syntax error at {line}:{col}: {message}")
            }
            MetaError::Eval(m) => write!(f, "constraint evaluation error: {m}"),
            MetaError::ApplyFailed(m) => write!(f, "failed to apply change list: {m}"),
        }
    }
}

impl std::error::Error for MetaError {}

impl MetaError {
    /// Shorthand for an [`MetaError::Unknown`] error.
    pub fn unknown(kind: &'static str, name: impl Into<String>) -> Self {
        MetaError::Unknown {
            kind,
            name: name.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MetaError::unknown("class", "Foo");
        assert_eq!(e.to_string(), "unknown class: `Foo`");
        let e = MetaError::NonConformant(vec!["a".into(), "b".into()]);
        let s = e.to_string();
        assert!(s.contains("2 violation(s)"));
        assert!(s.contains("- a"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&MetaError::Eval("x".into()));
    }
}
