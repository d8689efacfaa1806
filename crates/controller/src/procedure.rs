//! Procedures and their execution units (EUs).
//!
//! "Procedures, and their accompanying execution units, undertake the
//! domain specific operations of the controller. They are classified by
//! DSCs (to reduce complexity, current constraints limit a single procedure
//! to be classified by a single DSC)" (§V-B). EU instructions are the
//! *domain-independent operations* available to a running EU: "memory
//! management, event handling, message passing and remote calls" — plus
//! calls to the Broker layer APIs.

use crate::dsc::DscId;
use std::collections::BTreeMap;

/// Identifier of a procedure (its unique name within the repository).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub String);

impl ProcId {
    /// Creates an id from a name.
    pub fn new(name: impl Into<String>) -> Self {
        ProcId(name.into())
    }

    /// The name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for ProcId {
    fn from(s: &str) -> Self {
        ProcId(s.to_owned())
    }
}

/// An operand of an EU instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// A literal string.
    Lit(String),
    /// The value of a local variable (empty string when unset).
    Var(String),
    /// The value of a command argument (empty string when absent).
    Arg(String),
}

impl Operand {
    /// Literal shorthand.
    pub fn lit(s: impl Into<String>) -> Self {
        Operand::Lit(s.into())
    }

    /// Variable shorthand.
    pub fn var(s: impl Into<String>) -> Self {
        Operand::Var(s.into())
    }

    /// Command-argument shorthand.
    pub fn arg(s: impl Into<String>) -> Self {
        Operand::Arg(s.into())
    }
}

/// One EU instruction — the domain-independent operation set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// Memory management: bind a local variable.
    SetVar {
        /// Variable name.
        name: String,
        /// Value source.
        value: Operand,
    },
    /// Memory management: drop a local variable.
    Free(String),
    /// Call a Broker-layer API operation; result values are merged into
    /// the local variables under `result.<key>`.
    BrokerCall {
        /// Broker API (resource/manager) name.
        api: String,
        /// Operation name.
        op: String,
        /// Named arguments.
        args: Vec<(String, Operand)>,
    },
    /// Remote call: like [`Instr::BrokerCall`] but routed to a named remote
    /// node through the broker's remote-communication API.
    RemoteCall {
        /// Remote node name.
        node: String,
        /// Operation name.
        op: String,
        /// Named arguments.
        args: Vec<(String, Operand)>,
    },
    /// Event handling: raise a Controller-layer event.
    EmitEvent {
        /// Event topic.
        topic: String,
        /// Named payload values.
        payload: Vec<(String, Operand)>,
    },
    /// Message passing: send an asynchronous message to another component.
    SendMessage {
        /// Destination component.
        to: String,
        /// Message topic.
        topic: String,
        /// Named payload values.
        payload: Vec<(String, Operand)>,
    },
    /// DSC-based call: invoke the dependency at this index of the owning
    /// procedure's `dependencies` list (pushes the matched procedure).
    CallDep(usize),
    /// Conditional: run `then` when `var == equals`, else `otherwise`.
    IfVar {
        /// Local variable inspected.
        var: String,
        /// Comparison literal.
        equals: String,
        /// Instructions when equal.
        then: Vec<Instr>,
        /// Instructions when different.
        otherwise: Vec<Instr>,
    },
    /// Signal that the procedure has completed (pops the stack frame).
    Complete,
}

/// An execution unit: a named sequence of instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionUnit {
    /// EU name (for diagnostics).
    pub name: String,
    /// Instructions, executed in order.
    pub instructions: Vec<Instr>,
}

impl ExecutionUnit {
    /// Creates an EU.
    pub fn new(name: impl Into<String>, instructions: Vec<Instr>) -> Self {
        ExecutionUnit {
            name: name.into(),
            instructions,
        }
    }
}

/// Selection metadata of a procedure, consumed by IM generation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcMeta {
    /// Abstract execution cost (lower is better).
    pub cost: f64,
    /// Reliability in `[0, 1]` (higher is better).
    pub reliability: f64,
    /// Memory footprint in abstract units (lower is better).
    pub memory: f64,
    /// Context requirements: every `(key, value)` must be present in the
    /// controller context for the procedure to be a candidate.
    pub requires: Vec<(String, String)>,
}

impl Default for ProcMeta {
    fn default() -> Self {
        ProcMeta {
            cost: 1.0,
            reliability: 1.0,
            memory: 1.0,
            requires: Vec::new(),
        }
    }
}

/// A procedure: one DSC classification, DSC-typed dependencies, selection
/// metadata, and the EUs that implement it.
#[derive(Debug, Clone, PartialEq)]
pub struct Procedure {
    /// Unique id.
    pub id: ProcId,
    /// The single classifying DSC.
    pub classifier: DscId,
    /// DSC-typed dependencies, invoked by [`Instr::CallDep`] index.
    pub dependencies: Vec<DscId>,
    /// Selection metadata.
    pub meta: ProcMeta,
    /// Execution units, run in order by the stack machine.
    pub eus: Vec<ExecutionUnit>,
    /// Compensation EU: when a broker call fails in this procedure (or in
    /// one of its transitive dependencies with no handler of its own), the
    /// stack machine unwinds to this procedure's frame and runs these
    /// instructions instead of aborting the execution. The failure context
    /// is exposed as the locals `error.reason`, `error.api`, `error.op`
    /// and `error.proc`.
    pub on_error: Option<ExecutionUnit>,
}

impl Procedure {
    /// Creates a procedure with default metadata and a single EU.
    pub fn simple(id: &str, classifier: &str, instructions: Vec<Instr>) -> Self {
        Procedure {
            id: ProcId::new(id),
            classifier: DscId::new(classifier),
            dependencies: Vec::new(),
            meta: ProcMeta::default(),
            eus: vec![ExecutionUnit::new("main", instructions)],
            on_error: None,
        }
    }

    /// Builder-style dependency addition.
    pub fn with_dependency(mut self, dsc: &str) -> Self {
        self.dependencies.push(DscId::new(dsc));
        self
    }

    /// Builder-style cost override.
    pub fn with_cost(mut self, cost: f64) -> Self {
        self.meta.cost = cost;
        self
    }

    /// Builder-style reliability override.
    pub fn with_reliability(mut self, reliability: f64) -> Self {
        self.meta.reliability = reliability;
        self
    }

    /// Builder-style memory override.
    pub fn with_memory(mut self, memory: f64) -> Self {
        self.meta.memory = memory;
        self
    }

    /// Builder-style compensation handler: instructions run when a broker
    /// call fails inside this procedure (or an unhandled dependency).
    pub fn with_on_error(mut self, instructions: Vec<Instr>) -> Self {
        self.on_error = Some(ExecutionUnit::new("on_error", instructions));
        self
    }

    /// Builder-style context requirement.
    pub fn requires(mut self, key: &str, value: &str) -> Self {
        self.meta.requires.push((key.to_owned(), value.to_owned()));
        self
    }

    /// Returns `true` when every context requirement is satisfied.
    pub fn context_compatible(&self, ctx: &BTreeMap<String, String>) -> bool {
        self.meta
            .requires
            .iter()
            .all(|(k, v)| ctx.get(k) == Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let p = Procedure::simple("openAV", "Connect", vec![Instr::Complete])
            .with_dependency("Auth")
            .with_dependency("Media")
            .with_cost(4.0)
            .with_reliability(0.9)
            .with_memory(2.0)
            .requires("network", "wifi");
        assert_eq!(p.dependencies.len(), 2);
        assert_eq!(p.meta.cost, 4.0);
        assert_eq!(p.meta.requires.len(), 1);
        assert_eq!(p.eus.len(), 1);
    }

    #[test]
    fn context_compatibility() {
        let p = Procedure::simple("x", "C", vec![])
            .requires("net", "wifi")
            .requires("pow", "ac");
        let mut ctx = BTreeMap::new();
        assert!(!p.context_compatible(&ctx));
        ctx.insert("net".into(), "wifi".into());
        assert!(!p.context_compatible(&ctx));
        ctx.insert("pow".into(), "ac".into());
        assert!(p.context_compatible(&ctx));
        ctx.insert("net".into(), "lte".into());
        assert!(!p.context_compatible(&ctx));
        // No requirements: always compatible.
        assert!(Procedure::simple("y", "C", vec![]).context_compatible(&BTreeMap::new()));
    }
}
