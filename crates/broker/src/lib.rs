//! Broker layer of the MD-DSM reference architecture.
//!
//! "The Broker layer is responsible for interacting with the underlying
//! resources and services for the actual execution of commands, considering
//! systems issues such as heterogeneity and concurrency" (§III). The layer
//! is *model-defined*: its structure — managers, handlers, actions,
//! policies, autonomic rules — is an instance of the Fig. 6 metamodel, and
//! a single generic engine ([`engine::GenericBroker`]) interprets any such
//! model.
//!
//! * [`model`] — the Broker-layer metamodel (Fig. 6) and a builder for
//!   broker models: the main `Manager` exposing the
//!   layer interface, plus specialized managers for state, policy,
//!   autonomic, and resource management, with `Handler`s selecting
//!   `Action`s for calls and events.
//! * [`state`] — the state manager: the layer's runtime model, stored as a
//!   (what else) model, so policies can be evaluated against it with the
//!   OCL-lite engine.
//! * [`engine`] — the generic broker: dispatches calls/events to handlers,
//!   selects actions by policy guard, executes them against the simulated
//!   [`ResourceHub`](mddsm_sim::ResourceHub), and tracks failures.
//! * [`autonomic`] — the autonomic manager: a MAPE-K loop over model-defined
//!   symptoms → change requests → change plans, plus the brownout
//!   controller that moves the platform through model-declared degraded
//!   modes under overload.
//! * [`admission`] — model-defined overload control: per-class token-bucket
//!   admission with deadline-aware shedding, limits stored OCL-addressably
//!   in the state manager so change plans can retune them at runtime.
//! * [`monitor`] — online runtime verification: the model's OCL-lite
//!   invariants and temporal properties compiled into incremental
//!   in-stream monitors with pre-resolved state paths, evaluated as
//!   journal records are produced (primary) or applied (standby), tripping
//!   *before* a violating command becomes externally visible.
//! * [`replication`] — replicated models@runtime: the primary ships its
//!   journal over the simulated network to the peers of a model-defined
//!   replica set (a hot standby is the one-peer set with quorum 2), each
//!   replaying it into its own state manager; promotion fences the old
//!   primary behind a journaled epoch number, and reconciliation replays
//!   the divergent journal suffix through the normal recovery path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A crashed middleware is the opposite of graceful degradation: library
// code must surface failures as typed `BrokerError`s, never panic. Tests
// are exempt (the test harness is the right place for unwrap).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod admission;
pub mod analysis;
pub mod autonomic;
pub mod components;
pub mod engine;
pub mod evolution;
pub mod journal;
pub mod model;
pub mod monitor;
pub mod replication;
pub mod state;
pub mod supervisor;

pub use admission::{AdmissionController, AdmissionDecision, CallMeta, ShedReason};
pub use analysis::{analyze, op_footprint};
pub use autonomic::{BrownoutController, BrownoutMode, BrownoutTransition};
pub use engine::{AdmittedOutcome, BrokerCallResult, GenericBroker, RecoveryReport};
pub use evolution::{
    classify_changes, recover_versioned, DeltaClass, LiveUpgrade, UpgradeOutcome, UpgradePhase,
};
pub use journal::{Journal, JournalSink, MemorySink, TornTail};
pub use model::{broker_metamodel, BrokerModelBuilder, Resilience};
pub use monitor::{CompiledMonitor, MonitorSet, MonitorTrip};
pub use replication::{
    recover_with_quorum, repair_journal, select_repair_source, JournalRepair, QuorumReplicator,
    QuorumShipReport, ReplicaPeer, ReplicaSetConfig, ShipMode, Standby,
};
pub use state::StateManager;
pub use supervisor::{RestartPolicy, Supervisor, SupervisorDecision};

/// Errors produced by the Broker layer.
#[derive(Debug, Clone, PartialEq)]
pub enum BrokerError {
    /// The broker model does not conform to the Fig. 6 metamodel.
    InvalidModel(String),
    /// Load-time static analysis found error-level defects: the model is
    /// refused before it ever executes. Carries every error-level
    /// diagnostic (with model-path provenance), not just the first.
    AnalysisRejected(Vec<mddsm_meta::analysis::Diagnostic>),
    /// No handler accepts the given call/event.
    NoHandler(String),
    /// A handler matched but no action's guard was satisfied.
    NoAction(String),
    /// A policy guard failed to evaluate.
    PolicyFailed(String),
    /// A change-plan step could not be parsed or applied.
    BadPlanStep(String),
    /// Crash recovery found the journal and the rebuilt runtime model in
    /// disagreement (LSN gap, corrupt record, or a violated invariant).
    RecoveryDiverged(String),
    /// The durable journal failed verification *inside* committed history:
    /// a record whose CRC or parse failed (or an LSN gap) with readable
    /// records after it — bit-rot or a lying disk, not a crash-torn tail.
    /// Recovery refuses to guess; the journal must be healed (anti-entropy
    /// from a standby's mirror, [`replication::repair_journal`]) or the
    /// component quarantined.
    JournalDamaged {
        /// Last LSN known good before the damaged region.
        lsn: u64,
        /// Byte offset of the first unreadable (or gap-revealing) record.
        offset: u64,
        /// What failed verification.
        why: String,
    },
    /// A replicator was handed a journal shorter than the bytes it has
    /// already ingested — e.g. one a recovery cut back to its intact
    /// prefix while the replicator kept its read cursor. Nothing is
    /// shipped or changed; the caller rebuilds the replicator.
    JournalBehindCursor {
        /// Journal bytes the replicator had already ingested.
        cursor: u64,
        /// Length of the journal it was handed.
        len: u64,
    },
    /// Split-brain fence: a journal record arrived from an epoch older
    /// than the receiver's — a stale primary kept writing after a standby
    /// was promoted, and its writes are refused.
    StaleEpoch {
        /// Epoch the rejected record was shipped under.
        got: u64,
        /// Epoch the receiver currently serves under.
        current: u64,
    },
    /// A runtime monitor's property source failed to compile — distinct
    /// from [`BrokerError::MonitorTripped`] so callers can tell a broken
    /// property from a violated one.
    MonitorParse {
        /// The monitor whose source is broken.
        monitor: String,
        /// The underlying parse error.
        error: String,
    },
    /// An online runtime monitor tripped: the runtime model violates a
    /// compiled invariant or temporal property. The violating call is
    /// refused before its command record becomes externally visible.
    MonitorTripped {
        /// The tripped monitor's name.
        monitor: String,
        /// What the monitor saw.
        detail: String,
    },
    /// A live model upgrade was refused at a named stage of the evolution
    /// protocol (gate, shadow, cutover) before any state changed — the
    /// running broker keeps serving under its current model.
    UpgradeRefused {
        /// The protocol stage that refused (`gate`, `shadow`, `cutover`).
        stage: String,
        /// Every reason for the refusal, not just the first.
        reasons: Vec<String>,
    },
    /// An error bubbled up from the modeling substrate.
    Meta(String),
}

impl std::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerError::InvalidModel(m) => write!(f, "invalid broker model: {m}"),
            BrokerError::AnalysisRejected(diags) => {
                write!(
                    f,
                    "static analysis rejected the model ({} error(s))",
                    diags.len()
                )?;
                for d in diags {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
            BrokerError::NoHandler(m) => write!(f, "no handler for `{m}`"),
            BrokerError::NoAction(m) => write!(f, "no applicable action for `{m}`"),
            BrokerError::PolicyFailed(m) => write!(f, "policy evaluation failed: {m}"),
            BrokerError::BadPlanStep(m) => write!(f, "bad change-plan step: {m}"),
            BrokerError::RecoveryDiverged(m) => write!(f, "recovery diverged: {m}"),
            BrokerError::JournalDamaged { lsn, offset, why } => write!(
                f,
                "journal damaged after lsn {lsn} (byte offset {offset}): {why}"
            ),
            BrokerError::JournalBehindCursor { cursor, len } => write!(
                f,
                "journal of {len} byte(s) ends before the replication cursor at byte {cursor}"
            ),
            BrokerError::StaleEpoch { got, current } => write!(
                f,
                "stale epoch: record from epoch {got} refused by epoch {current}"
            ),
            BrokerError::MonitorParse { monitor, error } => {
                write!(f, "monitor `{monitor}` failed to parse: {error}")
            }
            BrokerError::MonitorTripped { monitor, detail } => {
                write!(f, "runtime monitor `{monitor}` tripped: {detail}")
            }
            BrokerError::UpgradeRefused { stage, reasons } => {
                write!(
                    f,
                    "live upgrade refused at stage `{stage}` ({} reason(s))",
                    reasons.len()
                )?;
                for r in reasons {
                    write!(f, "; {r}")?;
                }
                Ok(())
            }
            BrokerError::Meta(m) => write!(f, "model error: {m}"),
        }
    }
}

impl std::error::Error for BrokerError {}

impl From<mddsm_meta::MetaError> for BrokerError {
    fn from(e: mddsm_meta::MetaError) -> Self {
        BrokerError::Meta(e.to_string())
    }
}

/// Result alias for broker operations.
pub type Result<T> = std::result::Result<T, BrokerError>;
