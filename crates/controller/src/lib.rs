//! Controller layer of the MD-DSM reference architecture.
//!
//! "The main layer that addresses operational variability is the middleware
//! control layer (Controller). Its main purpose is to execute the command
//! scripts received from the Synthesis layer […] by isolating the commands
//! contained in a script and dynamically generating, for each command, an
//! executable model that conveys the operational semantics of the command
//! in accordance with the current context and user-defined rules" (§V-B).
//!
//! The layer's design pillars, mapped to modules:
//!
//! * **Classification** — [`dsc`]: Domain-Specific Classifiers categorize
//!   operations and data by their goal; they demarcate the domain-specific
//!   concerns and act as interfaces with implicit domain constraints.
//! * **Procedures and execution units** — [`procedure`]: the units that
//!   undertake domain-specific operations, each classified by exactly one
//!   DSC and declaring DSC-typed dependencies; their EUs are sequences of
//!   domain-independent instructions (memory management, event handling,
//!   message passing, broker/remote calls).
//! * **Intent Models** — [`intent`]: recursive dependency matching over
//!   procedure metadata produces a procedure dependency tree (the IM),
//!   validated for acyclicity and selected among alternatives by
//!   [`policy`]-driven scoring; generated IMs are memoized per
//!   (DSC, context, repository revision).
//! * **Stack machine** — [`machine`]: "the execution engine of the
//!   Controller is a stack machine that operates by executing the EUs of
//!   the procedure currently on top of the stack"; DSC-based calls push the
//!   matched dependency, completion pops.
//! * **Case 1 / Case 2 co-existence** — [`actions`] holds predefined action
//!   handlers; [`classify`] implements the command-classification step of
//!   Fig. 8 that chooses, per command, between predefined actions (Case 1)
//!   and dynamic IM generation (Case 2) using policies and context.
//! * **Façade** — [`engine::ControllerEngine`]: script and event intake,
//!   command parsing, execution, failure-driven adaptation (failed
//!   procedures are excluded from the context and the IM regenerated), and
//!   the non-adaptive baseline used by experiment E4.
//!
//! The crate contains **no domain vocabulary**: DSCs, procedures, actions,
//! and command maps are all data supplied by the domain crates — this is
//! the separation of domain-specific knowledge (DSK) from the model of
//! execution (MoE) that experiment E5 measures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Failures must surface as typed `ControllerError`s (and, since the
// resilience work, as recoverable `on_error` paths) — library code never
// panics. Tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod actions;
pub mod classify;
pub mod context;
pub mod dsc;
pub mod engine;
pub mod intent;
pub mod machine;
pub mod policy;
pub mod procedure;
pub mod repository;

pub use actions::{Action, ActionRegistry};
pub use classify::{Case, ClassificationPolicy, CommandClassifier};
pub use context::ControllerContext;
pub use dsc::{Category, Dsc, DscId, DscRegistry};
pub use engine::{ControllerEngine, EngineConfig, ExecutionReport};
pub use intent::{GenerationConfig, ImCache, IntentModel};
pub use machine::{BrokerPort, PortResponse, StackMachine};
pub use policy::PolicyObjective;
pub use procedure::{ExecutionUnit, Instr, Operand, ProcId, Procedure};
pub use repository::ProcedureRepository;

/// Errors produced by the Controller layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerError {
    /// A DSC id did not resolve.
    UnknownDsc(String),
    /// A procedure id did not resolve.
    UnknownProcedure(String),
    /// A registry rejected a definition (duplicate id, bad parent, ...).
    IllFormed(String),
    /// No valid intent model could be generated for a DSC in the current
    /// context.
    NoValidConfiguration {
        /// The requested classifier.
        dsc: String,
        /// Why generation failed.
        reason: String,
    },
    /// A generated intent model failed validation.
    InvalidIntentModel(String),
    /// The stack machine fell off a step or depth limit.
    ExecutionLimit(String),
    /// A broker call failed during execution.
    BrokerFailure {
        /// Procedure whose EU issued the failing call.
        proc: String,
        /// Broker API name.
        api: String,
        /// Operation name.
        op: String,
        /// Failure reason.
        reason: String,
    },
    /// A command could not be mapped to a DSC.
    UnmappedCommand(String),
    /// No predefined action exists for a command classified as Case 1.
    NoAction(String),
    /// Execution kept failing after the configured number of adaptations
    /// or retries.
    Exhausted(String),
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::UnknownDsc(d) => write!(f, "unknown DSC `{d}`"),
            ControllerError::UnknownProcedure(p) => write!(f, "unknown procedure `{p}`"),
            ControllerError::IllFormed(m) => write!(f, "ill-formed definition: {m}"),
            ControllerError::NoValidConfiguration { dsc, reason } => {
                write!(f, "no valid configuration for DSC `{dsc}`: {reason}")
            }
            ControllerError::InvalidIntentModel(m) => write!(f, "invalid intent model: {m}"),
            ControllerError::ExecutionLimit(m) => write!(f, "execution limit exceeded: {m}"),
            ControllerError::BrokerFailure {
                proc,
                api,
                op,
                reason,
            } => {
                write!(
                    f,
                    "broker call {api}.{op} failed in procedure `{proc}`: {reason}"
                )
            }
            ControllerError::UnmappedCommand(c) => write!(f, "command `{c}` maps to no DSC"),
            ControllerError::NoAction(c) => write!(f, "no predefined action for command `{c}`"),
            ControllerError::Exhausted(m) => write!(f, "execution exhausted: {m}"),
        }
    }
}

impl std::error::Error for ControllerError {}

/// Result alias for controller operations.
pub type Result<T> = std::result::Result<T, ControllerError>;
