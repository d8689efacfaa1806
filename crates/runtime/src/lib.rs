//! Generic runtime environment for MD-DSM (paper §V-A).
//!
//! The paper's metamodel-based approach is "complemented by a generic,
//! domain-independent, runtime environment responsible for loading and
//! executing middleware models […] with a component factory that generates
//! each middleware component based on code templates that are parameterized
//! with metadata from the middleware model. It also provides threads (and
//! the underlying concurrency model) to run the middleware components."
//!
//! This crate is that runtime environment, with one concurrency model in
//! place of the paper's threads: a deterministic, single-threaded
//! [`container::Container`] that runs every component of the experiments
//! and tests, so that a seeded run replays in one order.
//!
//! * [`metadata`] — [`metadata::Metadata`] extracted from middleware-model
//!   objects, the parameters fed to code templates.
//! * [`component`] — the [`component::Component`] trait, messages, and
//!   lifecycle states.
//! * [`factory`] — the [`factory::ComponentFactory`]: named code templates
//!   instantiated with metadata.
//! * [`container`] — the [`container::Container`]: holds components, routes
//!   messages by topic (deterministic dispatch), and manages lifecycle; a
//!   component that fails stops receiving messages until started again.
//! * [`runtime_model`] — models@runtime: the platform's own model held
//!   behind a versioned read-write lock; reflective changes take immediate
//!   effect and notify watchers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod component;
pub mod container;
pub mod factory;
pub mod metadata;
pub mod runtime_model;

pub use component::{Component, Ctx, Lifecycle, Message};
pub use container::Container;
pub use factory::ComponentFactory;
pub use metadata::Metadata;
pub use runtime_model::RuntimeModel;

/// Errors produced by the runtime environment.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// No template registered under the requested name.
    UnknownTemplate(String),
    /// No component registered under the requested name.
    UnknownComponent(String),
    /// A component with this name already exists.
    DuplicateComponent(String),
    /// A template rejected its metadata.
    BadMetadata(String),
    /// A component failed while starting, stopping, or handling a message.
    ComponentFailed {
        /// Component name.
        component: String,
        /// Failure reason.
        reason: String,
    },
    /// An operation was attempted in an invalid lifecycle state.
    BadLifecycle {
        /// Component name.
        component: String,
        /// What was attempted.
        operation: &'static str,
        /// The state it was in.
        state: String,
    },
    /// An error bubbled up from the modeling substrate.
    Meta(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::UnknownTemplate(n) => write!(f, "unknown template `{n}`"),
            RuntimeError::UnknownComponent(n) => write!(f, "unknown component `{n}`"),
            RuntimeError::DuplicateComponent(n) => write!(f, "duplicate component `{n}`"),
            RuntimeError::BadMetadata(m) => write!(f, "bad metadata: {m}"),
            RuntimeError::ComponentFailed { component, reason } => {
                write!(f, "component `{component}` failed: {reason}")
            }
            RuntimeError::BadLifecycle {
                component,
                operation,
                state,
            } => {
                write!(
                    f,
                    "cannot {operation} component `{component}` in state {state}"
                )
            }
            RuntimeError::Meta(m) => write!(f, "model error: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<mddsm_meta::MetaError> for RuntimeError {
    fn from(e: mddsm_meta::MetaError) -> Self {
        RuntimeError::Meta(e.to_string())
    }
}

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;
