//! The Broker-layer metamodel (Fig. 6) and a builder for broker models.
//!
//! A *broker model* is an instance of this metamodel: it defines the
//! managers present in a concrete configuration, the handlers exposed by
//! the main manager, the actions available to each handler (with policy
//! guards and argument mappings), and the autonomic rules. The middleware
//! engineer "models a configuration of the Broker layer by instantiating
//! and appropriately initializing the elements of this metamodel" (§V-A).

use crate::admission::AdmissionClassSpec;
use crate::journal::CommandKind;
use mddsm_meta::constraint::{self, Expr};
use mddsm_meta::metamodel::{DataType, Metamodel, MetamodelBuilder, Multiplicity};
use mddsm_meta::model::{Model, ObjectId};
use mddsm_meta::Value;

/// Name under which the broker metamodel registers.
pub const BROKER_METAMODEL: &str = "mddsm.broker";

/// Builds the Fig. 6 metamodel.
///
/// Class inventory: the abstract `Manager` with its six concrete
/// specializations (`MainManager`, `StateManager`, `PolicyManager`,
/// `AutonomicManager`, `ResourceManager`, `AdmissionManager`), the
/// `Handler`/`Action` pair for call/event dispatch, `Policy` guards, the
/// autonomic triple `Symptom`/`ChangeRequest`/`ChangePlan`,
/// `ResourceBinding`, and the overload-control pair
/// `AdmissionClass`/`BrownoutMode`.
pub fn broker_metamodel() -> Metamodel {
    MetamodelBuilder::new(BROKER_METAMODEL)
        .enumeration("HandlerKind", ["Call", "Event"])
        // Journal-shipping discipline of a `ReplicaNode` lane: `Async`
        // ships best-effort (one attempt per tick, no delivery guarantee);
        // `AckWindowed` keeps an in-flight window and retransmits until the
        // replica acknowledges, so commit implies replicated.
        .enumeration("ShipMode", ["Async", "AckWindowed"])
        .class("BrokerLayer", |c| {
            c.attr("name", DataType::Str)
                .contains("managers", "Manager", Multiplicity::SOME)
        })
        .class("Manager", |c| {
            c.abstract_class().attr("name", DataType::Str)
        })
        .class("MainManager", |c| {
            c.extends("Manager")
                .contains("handlers", "Handler", Multiplicity::MANY)
                .invariant("has-name", "self.name <> \"\"")
        })
        .class("StateManager", |c| {
            c.extends("Manager")
                // Declared state migrations a live upgrade to this model
                // applies atomically inside its journaled cutover record.
                .contains("migrations", "StateMigration", Multiplicity::MANY)
        })
        .class("PolicyManager", |c| {
            c.extends("Manager")
                .contains("policies", "Policy", Multiplicity::MANY)
        })
        .class("AutonomicManager", |c| {
            c.extends("Manager")
                .contains("symptoms", "Symptom", Multiplicity::MANY)
                .contains("requests", "ChangeRequest", Multiplicity::MANY)
                .contains("plans", "ChangePlan", Multiplicity::MANY)
        })
        .class("ResourceManager", |c| {
            c.extends("Manager")
                .contains("bindings", "ResourceBinding", Multiplicity::MANY)
        })
        .class("AdmissionManager", |c| {
            c.extends("Manager")
                .contains("classes", "AdmissionClass", Multiplicity::MANY)
                .contains("modes", "BrownoutMode", Multiplicity::MANY)
        })
        // A replica *set*: N independently-shipped peers with a declared
        // quorum. A journal record is durable once the quorum-th largest
        // per-peer acked LSN reaches it (counting the primary's own copy),
        // so any majority of nodes holds every committed update. A hot
        // standby is the one-peer set with quorum 2.
        .class("ReplicaSet", |c| {
            c.extends("Manager")
                // Nodes (replicas + primary) that must hold a record before
                // it commits; 0 = computed majority of the total node count.
                .attr_default("quorum", DataType::Int, Value::from(0))
                .contains("replicas", "ReplicaNode", Multiplicity::SOME)
        })
        // One member of a `ReplicaSet`: the simulated-network node it
        // listens on plus its private shipping discipline — peers may mix
        // `Async` and `AckWindowed` lanes in one set.
        .class("ReplicaNode", |c| {
            c.attr("name", DataType::Str)
                .attr("node", DataType::Str)
                .attr("mode", DataType::Enum("ShipMode".into()))
                // AckWindowed: max unacknowledged journal records in flight.
                .attr_default("windowRecords", DataType::Int, Value::from(32))
                // Virtual time before an unacked batch is retransmitted
                // (go-back-N from the acked cursor).
                .attr_default("ackTimeoutUs", DataType::Int, Value::from(10_000))
        })
        .class("MonitorManager", |c| {
            c.extends("Manager")
                .contains("monitors", "Monitor", Multiplicity::MANY)
        })
        // An online runtime monitor: the property source is a bare OCL-lite
        // invariant, `always <expr>`, `never <expr> during <expr>`, or
        // `at-most-one <key> per <key>`; the engine compiles it into an
        // incremental in-stream journal monitor at `from_model` time.
        .class("Monitor", |c| {
            c.attr("name", DataType::Str)
                .attr("property", DataType::Str)
        })
        // A declared state migration: when a live upgrade cuts over to a
        // model carrying one, `key` is written to `value` (parsed as an
        // integer when it is one, a string otherwise; an empty value
        // unsets the key) as an ordinary LSN'd op *inside* the journaled
        // cutover record, so migrations are exactly as atomic and
        // replayable as the cutover itself.
        .class("StateMigration", |c| {
            c.attr("name", DataType::Str)
                .attr("key", DataType::Str)
                .attr_default("value", DataType::Str, Value::from(""))
        })
        .class("Handler", |c| {
            c.attr("name", DataType::Str)
                .attr("kind", DataType::Enum("HandlerKind".into()))
                // The call operation / event topic this handler accepts.
                .attr("selector", DataType::Str)
                .reference("actions", "Action", Multiplicity::SOME)
        })
        .class("Action", |c| {
            c.attr("name", DataType::Str)
                // Resource the action drives and the operation it invokes.
                .attr("resource", DataType::Str)
                .attr("operation", DataType::Str)
                // `k=v` argument mappings; `$x` pulls call argument `x`.
                .attr_full("argMapping", DataType::Str, Multiplicity::MANY, Vec::new())
                // Optional guard: name of a Policy that must hold.
                .opt_attr("guard", DataType::Str)
                // State bumps applied after a successful run (`k=+1`/`k=v`).
                .attr_full(
                    "stateEffects",
                    DataType::Str,
                    Multiplicity::MANY,
                    Vec::new(),
                )
                // Resilience: retries with deterministic virtual-time
                // exponential backoff, a per-call timeout budget, a circuit
                // breaker, and a fallback action (all disabled at 0/absent).
                .attr_default("maxRetries", DataType::Int, Value::from(0))
                .attr_default("backoffMs", DataType::Int, Value::from(0))
                .attr_default("timeoutMs", DataType::Int, Value::from(0))
                .attr_default("breakerThreshold", DataType::Int, Value::from(0))
                .attr_default("breakerCooldownMs", DataType::Int, Value::from(0))
                // Name of a sibling action dispatched when this one fails.
                .opt_attr("fallback", DataType::Str)
                // Declared virtual-time cost of one execution, charged
                // against the admission class's token bucket (0 = free).
                .attr_default("costUs", DataType::Int, Value::from(0))
                // Admission class this action's calls are accounted to.
                .opt_attr("admissionClass", DataType::Str)
        })
        .class("Policy", |c| {
            c.attr("name", DataType::Str)
                // OCL-lite expression over the state object (`self`).
                .attr("expression", DataType::Str)
        })
        .class("Symptom", |c| {
            c.attr("name", DataType::Str)
                // OCL-lite condition over the state object.
                .attr("condition", DataType::Str)
        })
        .class("ChangeRequest", |c| {
            c.attr("name", DataType::Str).attr("symptom", DataType::Str)
        })
        .class("ChangePlan", |c| {
            c.attr("name", DataType::Str)
                .attr("request", DataType::Str)
                // Steps: `heal <res>` | `fail <res>` | `degrade <res> <ms>` |
                // `set <key> <value>` | `emit <topic>`.
                .attr_full("steps", DataType::Str, Multiplicity::SOME, Vec::new())
        })
        .class("ResourceBinding", |c| {
            c.attr("name", DataType::Str)
                .attr("resource", DataType::Str)
        })
        .class("AdmissionClass", |c| {
            c.attr("name", DataType::Str)
                // Token bucket: `rateUsPerMs` µs of admitted work refilled
                // per virtual millisecond, capped at `burstUs` (0 = the
                // class is not rate-limited).
                .attr_default("rateUsPerMs", DataType::Int, Value::from(0))
                .attr_default("burstUs", DataType::Int, Value::from(0))
                // Bound on the queueing delay a waiting call may absorb
                // before it is shed (0 = unbounded queue).
                .attr_default("queueBoundUs", DataType::Int, Value::from(0))
                // Default relative deadline for calls that carry none.
                .attr_default("deadlineUs", DataType::Int, Value::from(0))
        })
        .class("BrownoutMode", |c| {
            c.attr("name", DataType::Str)
                // Severity order: higher levels are deeper degradations.
                .attr_default("level", DataType::Int, Value::from(1))
                // Enter when queue delay or the per-tick shed count crosses
                // the enter threshold; exit (with hysteresis) only once both
                // metrics fall back to the exit thresholds. A zero enter
                // threshold disables that trigger.
                .attr_default("enterDelayUs", DataType::Int, Value::from(0))
                .attr_default("exitDelayUs", DataType::Int, Value::from(0))
                .attr_default("enterShed", DataType::Int, Value::from(0))
                .attr_default("exitShed", DataType::Int, Value::from(0))
                // Plan steps run on entering / leaving the mode (same verbs
                // as ChangePlan steps).
                .attr_full("enterSteps", DataType::Str, Multiplicity::MANY, Vec::new())
                .attr_full("exitSteps", DataType::Str, Multiplicity::MANY, Vec::new())
        })
        .build()
        .expect("broker metamodel is well-formed")
}

/// Resilience parameters carried by an `Action` (all model-defined; every
/// field disabled by default so plain actions behave exactly as before).
///
/// Retries and backoff run on *virtual* time: the engine charges the
/// deterministic exponential backoff (`backoff_ms << attempt`) to the
/// call's virtual cost instead of sleeping, so fault campaigns replay
/// bit-for-bit. Circuit-breaker state is kept in the broker's
/// `StateManager` under `breaker_<resource>` keys, observable by OCL-lite
/// policies and autonomic symptoms.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Resilience {
    /// Additional attempts after the first failure (0 = no retry).
    pub max_retries: u32,
    /// Base virtual-time backoff before retry `n`, doubled each attempt.
    pub backoff_ms: u64,
    /// Per-attempt virtual-time budget; slower invocations count as failed
    /// and are charged exactly this budget (0 = no timeout).
    pub timeout_ms: u64,
    /// Consecutive failures that trip the circuit breaker (0 = no breaker).
    pub breaker_threshold: u32,
    /// Virtual time an open breaker waits before allowing a half-open
    /// trial invocation.
    pub breaker_cooldown_ms: u64,
    /// Sibling action (same handler) dispatched when this one fails.
    pub fallback: Option<String>,
}

impl Resilience {
    /// Convenience: retry policy only.
    pub fn retries(max_retries: u32, backoff_ms: u64) -> Self {
        Resilience {
            max_retries,
            backoff_ms,
            ..Resilience::default()
        }
    }

    /// Convenience: circuit breaker only.
    pub fn breaker(threshold: u32, cooldown_ms: u64) -> Self {
        Resilience {
            breaker_threshold: threshold,
            breaker_cooldown_ms: cooldown_ms,
            ..Resilience::default()
        }
    }

    /// Adds a circuit breaker to an existing policy.
    pub fn with_breaker(mut self, threshold: u32, cooldown_ms: u64) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown_ms = cooldown_ms;
        self
    }

    /// Adds a per-attempt timeout budget.
    pub fn with_timeout(mut self, timeout_ms: u64) -> Self {
        self.timeout_ms = timeout_ms;
        self
    }

    /// Adds a fallback action name.
    pub fn with_fallback(mut self, action: &str) -> Self {
        self.fallback = Some(action.to_owned());
        self
    }
}

/// One `Action` as its model declares it.
#[derive(Debug, Clone)]
pub(crate) struct ActionSpec {
    pub(crate) name: String,
    /// Logical resource, bound to a hub resource by a `ResourceBinding`.
    pub(crate) resource: String,
    pub(crate) operation: String,
    /// `k=v` argument mappings; `$x` reads call argument `x`.
    pub(crate) arg_mapping: Vec<(String, String)>,
    /// The policy the action guards on.
    pub(crate) guard: Option<String>,
    pub(crate) state_effects: Vec<String>,
    pub(crate) resilience: Resilience,
    /// Work cost in virtual µs (`costUs`), billed to the action's
    /// admission class; 0 = uncontrolled.
    pub(crate) cost_us: u64,
    /// The admission class billed; the caller's when absent.
    pub(crate) admission_class: Option<String>,
}

/// One `Handler` with its actions in declaration order.
#[derive(Debug, Clone)]
pub(crate) struct HandlerSpec {
    pub(crate) name: String,
    /// `None` when `kind` is no `HandlerKind` literal.
    pub(crate) kind: Option<CommandKind>,
    pub(crate) selector: String,
    pub(crate) actions: Vec<ActionSpec>,
}

/// A named OCL-lite expression (a policy, a symptom condition), parsed.
#[derive(Debug, Clone)]
pub(crate) struct ExprSpec {
    pub(crate) name: String,
    pub(crate) source: String,
    /// The expression, or the parse error's text.
    pub(crate) expr: std::result::Result<Expr, String>,
}

/// What the engine and the analyzer read of a broker model, once.
#[derive(Debug, Clone)]
pub(crate) struct ModelSpec {
    pub(crate) handlers: Vec<HandlerSpec>,
    pub(crate) policies: Vec<ExprSpec>,
    /// `(name, hub resource)` per `ResourceBinding`.
    pub(crate) bindings: Vec<(String, String)>,
    /// Each `Symptom` with the steps of the first plan of the first
    /// change request naming it: the autonomic rule join.
    pub(crate) symptoms: Vec<(ExprSpec, Vec<String>)>,
    /// `(name, symptom)` per `ChangeRequest`.
    pub(crate) requests: Vec<(String, String)>,
    /// `(name, request, steps)` per `ChangePlan`.
    pub(crate) plans: Vec<(String, String, Vec<String>)>,
    /// `(name, property)` per `Monitor`.
    pub(crate) monitors: Vec<(String, String)>,
    /// `(name, enter steps, exit steps)` per `BrownoutMode`.
    pub(crate) brownouts: Vec<(String, Vec<String>, Vec<String>)>,
    pub(crate) classes: Vec<AdmissionClassSpec>,
}

/// Reads the parts of `model` the engine and the analyzer share.
pub(crate) fn read(model: &Model) -> ModelSpec {
    let text = |id: ObjectId, name: &str| model.attr_str(id, name).unwrap_or_default().to_owned();
    let texts = |id: ObjectId, name: &str| -> Vec<String> {
        let values = model.attr_all(id, name).iter();
        values
            .filter_map(|v| Some(v.as_str()?.to_owned()))
            .collect()
    };
    let parsed = |id: ObjectId, attr: &str| {
        let source = text(id, attr);
        ExprSpec {
            name: text(id, "name"),
            expr: constraint::parse(&source).map_err(|e| e.to_string()),
            source,
        }
    };
    let uint = |id: ObjectId, name: &str| model.attr_int(id, name).unwrap_or(0).max(0) as u64;
    let action = |a: ObjectId| {
        let int_attr = |name: &str| uint(a, name);
        ActionSpec {
            name: text(a, "name"),
            resource: text(a, "resource"),
            operation: text(a, "operation"),
            arg_mapping: texts(a, "argMapping")
                .iter()
                .filter_map(|m| m.split_once('='))
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
            guard: model.attr_str(a, "guard").map(str::to_owned),
            state_effects: texts(a, "stateEffects"),
            resilience: Resilience {
                max_retries: int_attr("maxRetries") as u32,
                backoff_ms: int_attr("backoffMs"),
                timeout_ms: int_attr("timeoutMs"),
                breaker_threshold: int_attr("breakerThreshold") as u32,
                breaker_cooldown_ms: int_attr("breakerCooldownMs"),
                fallback: model.attr_str(a, "fallback").map(str::to_owned),
            },
            cost_us: int_attr("costUs"),
            admission_class: model.attr_str(a, "admissionClass").map(str::to_owned),
        }
    };
    let all = |class: &str| model.all_of_class(class).into_iter();
    let handlers = all("Handler")
        .map(|h| HandlerSpec {
            name: text(h, "name"),
            kind: match model.attr(h, "kind").and_then(|v| v.as_enum_literal()) {
                Some("Call") => Some(CommandKind::Call),
                Some("Event") => Some(CommandKind::Event),
                _ => None,
            },
            selector: text(h, "selector"),
            actions: model
                .refs(h, "actions")
                .iter()
                .map(|&a| action(a))
                .collect(),
        })
        .collect();
    let requests: Vec<(String, String)> = all("ChangeRequest")
        .map(|r| (text(r, "name"), text(r, "symptom")))
        .collect();
    let plans: Vec<(String, String, Vec<String>)> = all("ChangePlan")
        .map(|p| (text(p, "name"), text(p, "request"), texts(p, "steps")))
        .collect();
    let symptoms = all("Symptom")
        .map(|s| {
            let condition = parsed(s, "condition");
            let steps = requests
                .iter()
                .find(|(_, symptom)| *symptom == condition.name)
                .and_then(|(r, _)| plans.iter().find(|(_, request, _)| request == r))
                .map(|(_, _, steps)| steps.clone());
            (condition, steps.unwrap_or_default())
        })
        .collect();
    ModelSpec {
        handlers,
        policies: all("Policy").map(|p| parsed(p, "expression")).collect(),
        bindings: all("ResourceBinding")
            .map(|b| (text(b, "name"), text(b, "resource")))
            .collect(),
        symptoms,
        requests,
        plans,
        monitors: all("Monitor")
            .map(|m| (text(m, "name"), text(m, "property")))
            .collect(),
        classes: all("AdmissionClass")
            .map(|c| AdmissionClassSpec {
                name: text(c, "name"),
                rate_us_per_ms: uint(c, "rateUsPerMs"),
                burst_us: uint(c, "burstUs"),
                queue_bound_us: uint(c, "queueBoundUs"),
                deadline_us: uint(c, "deadlineUs"),
            })
            .collect(),
        brownouts: all("BrownoutMode")
            .map(|m| {
                (
                    text(m, "name"),
                    texts(m, "enterSteps"),
                    texts(m, "exitSteps"),
                )
            })
            .collect(),
    }
}

/// Convenience builder producing broker models (instances of the Fig. 6
/// metamodel) without manual object wiring.
#[derive(Debug)]
pub struct BrokerModelBuilder {
    model: Model,
    layer: ObjectId,
    main: ObjectId,
    policy_mgr: ObjectId,
    autonomic_mgr: ObjectId,
    resource_mgr: ObjectId,
    state_mgr: ObjectId,
    // Created lazily on the first admission-class or brownout-mode
    // declaration, so models without overload control stay lean.
    admission_mgr: Option<ObjectId>,
    // Created lazily by `replica_set`, so unreplicated models stay lean.
    replica_set_mgr: Option<ObjectId>,
    // Created lazily by `monitor`, so unmonitored models stay lean.
    monitor_mgr: Option<ObjectId>,
}

impl BrokerModelBuilder {
    /// Starts a broker model with the five standard managers.
    pub fn new(name: &str) -> Self {
        let mut model = Model::new(BROKER_METAMODEL);
        let layer = model.create("BrokerLayer");
        model.set_attr(layer, "name", Value::from(name));
        let main = model.create("MainManager");
        model.set_attr(main, "name", Value::from("main"));
        let state = model.create("StateManager");
        model.set_attr(state, "name", Value::from("state"));
        let policy_mgr = model.create("PolicyManager");
        model.set_attr(policy_mgr, "name", Value::from("policy"));
        let autonomic_mgr = model.create("AutonomicManager");
        model.set_attr(autonomic_mgr, "name", Value::from("autonomic"));
        let resource_mgr = model.create("ResourceManager");
        model.set_attr(resource_mgr, "name", Value::from("resource"));
        for m in [main, state, policy_mgr, autonomic_mgr, resource_mgr] {
            model.add_ref(layer, "managers", m);
        }
        BrokerModelBuilder {
            model,
            layer,
            main,
            policy_mgr,
            autonomic_mgr,
            resource_mgr,
            state_mgr: state,
            admission_mgr: None,
            replica_set_mgr: None,
            monitor_mgr: None,
        }
    }

    /// Starts a *lean* broker model: main manager only (the Fig. 8 remark
    /// that "leaner configurations … featuring only the strictly required
    /// components" compensate model-interpretation overhead).
    pub fn lean(name: &str) -> Self {
        let mut b = Self::new(name);
        // Drop the optional managers from the layer.
        for mgr in [b.policy_mgr, b.autonomic_mgr, b.resource_mgr] {
            b.model.remove_ref(b.layer, "managers", mgr);
            // `new` created the manager a moment ago; destroying an
            // already-absent object is a no-op rather than a crash.
            let _ = b.model.destroy(mgr, None);
        }
        b
    }

    /// Declares a handler for a call operation; returns `self` for
    /// chaining. Actions are attached by [`BrokerModelBuilder::action`]
    /// using the handler name.
    pub fn call_handler(self, name: &str, selector: &str) -> Self {
        self.handler(name, selector, "Call")
    }

    /// Declares a handler for an event topic.
    pub fn event_handler(self, name: &str, selector: &str) -> Self {
        self.handler(name, selector, "Event")
    }

    fn handler(mut self, name: &str, selector: &str, kind: &str) -> Self {
        let h = self.model.create("Handler");
        self.model.set_attr(h, "name", Value::from(name));
        self.model.set_attr(h, "selector", Value::from(selector));
        self.model
            .set_attr(h, "kind", Value::enumeration("HandlerKind", kind));
        self.model.add_ref(self.main, "handlers", h);
        self
    }

    /// Attaches an action to a handler (by handler name). `arg_mapping`
    /// entries are `k=v` with `$x` reading call argument `x`; `guard`
    /// optionally names a policy; `state_effects` are applied on success.
    #[allow(clippy::too_many_arguments)]
    pub fn action(
        mut self,
        handler: &str,
        name: &str,
        resource: &str,
        operation: &str,
        arg_mapping: &[&str],
        guard: Option<&str>,
        state_effects: &[&str],
    ) -> Self {
        let a = self.model.create("Action");
        self.model.set_attr(a, "name", Value::from(name));
        self.model.set_attr(a, "resource", Value::from(resource));
        self.model.set_attr(a, "operation", Value::from(operation));
        self.model.set_attr_many(
            a,
            "argMapping",
            arg_mapping.iter().map(|s| Value::from(*s)).collect(),
        );
        if let Some(g) = guard {
            self.model.set_attr(a, "guard", Value::from(g));
        }
        self.model.set_attr_many(
            a,
            "stateEffects",
            state_effects.iter().map(|s| Value::from(*s)).collect(),
        );
        let h = self.find_handler(handler);
        self.model.add_ref(h, "actions", a);
        self
    }

    /// Attaches a resilient action: like [`BrokerModelBuilder::action`]
    /// but with model-defined retry/timeout/breaker/fallback parameters.
    #[allow(clippy::too_many_arguments)]
    pub fn resilient_action(
        self,
        handler: &str,
        name: &str,
        resource: &str,
        operation: &str,
        arg_mapping: &[&str],
        guard: Option<&str>,
        state_effects: &[&str],
        resilience: &Resilience,
    ) -> Self {
        let mut b = self.action(
            handler,
            name,
            resource,
            operation,
            arg_mapping,
            guard,
            state_effects,
        );
        let h = b.find_handler(handler);
        // `action` appended the new action to this handler a moment ago.
        if let Some(a) = b.model.refs(h, "actions").last().copied() {
            b.model.set_attr(
                a,
                "maxRetries",
                Value::from(i64::from(resilience.max_retries)),
            );
            b.model
                .set_attr(a, "backoffMs", Value::from(resilience.backoff_ms as i64));
            b.model
                .set_attr(a, "timeoutMs", Value::from(resilience.timeout_ms as i64));
            b.model.set_attr(
                a,
                "breakerThreshold",
                Value::from(i64::from(resilience.breaker_threshold)),
            );
            b.model.set_attr(
                a,
                "breakerCooldownMs",
                Value::from(resilience.breaker_cooldown_ms as i64),
            );
            if let Some(f) = &resilience.fallback {
                b.model.set_attr(a, "fallback", Value::from(f.as_str()));
            }
        }
        b
    }

    /// Declares a policy (OCL-lite expression over the state object).
    pub fn policy(mut self, name: &str, expression: &str) -> Self {
        let p = self.model.create("Policy");
        self.model.set_attr(p, "name", Value::from(name));
        self.model
            .set_attr(p, "expression", Value::from(expression));
        self.model.add_ref(self.policy_mgr, "policies", p);
        self
    }

    /// Declares an autonomic rule: symptom condition → change request →
    /// plan steps.
    pub fn autonomic_rule(mut self, name: &str, condition: &str, steps: &[&str]) -> Self {
        let s = self.model.create("Symptom");
        self.model.set_attr(s, "name", Value::from(name));
        self.model.set_attr(s, "condition", Value::from(condition));
        self.model.add_ref(self.autonomic_mgr, "symptoms", s);
        let r = self.model.create("ChangeRequest");
        self.model
            .set_attr(r, "name", Value::from(format!("{name}-request")));
        self.model.set_attr(r, "symptom", Value::from(name));
        self.model.add_ref(self.autonomic_mgr, "requests", r);
        let p = self.model.create("ChangePlan");
        self.model
            .set_attr(p, "name", Value::from(format!("{name}-plan")));
        self.model
            .set_attr(p, "request", Value::from(format!("{name}-request")));
        self.model
            .set_attr_many(p, "steps", steps.iter().map(|s| Value::from(*s)).collect());
        self.model.add_ref(self.autonomic_mgr, "plans", p);
        self
    }

    fn ensure_admission_mgr(&mut self) -> ObjectId {
        if let Some(m) = self.admission_mgr {
            return m;
        }
        let m = self.model.create("AdmissionManager");
        self.model.set_attr(m, "name", Value::from("admission"));
        self.model.add_ref(self.layer, "managers", m);
        self.admission_mgr = Some(m);
        m
    }

    /// Declares an admission class: a token bucket of `rate_us_per_ms` µs
    /// of work per virtual millisecond (burst `burst_us`), a queueing-delay
    /// bound, and a default relative deadline. All limits live in the
    /// broker's `StateManager` under `adm_<class>_*` keys at runtime, so
    /// autonomic plans can retune them with `set` steps.
    pub fn admission_class(
        mut self,
        name: &str,
        rate_us_per_ms: u64,
        burst_us: u64,
        queue_bound_us: u64,
        deadline_us: u64,
    ) -> Self {
        let mgr = self.ensure_admission_mgr();
        let c = self.model.create("AdmissionClass");
        self.model.set_attr(c, "name", Value::from(name));
        self.model
            .set_attr(c, "rateUsPerMs", Value::from(rate_us_per_ms as i64));
        self.model
            .set_attr(c, "burstUs", Value::from(burst_us as i64));
        self.model
            .set_attr(c, "queueBoundUs", Value::from(queue_bound_us as i64));
        self.model
            .set_attr(c, "deadlineUs", Value::from(deadline_us as i64));
        self.model.add_ref(mgr, "classes", c);
        self
    }

    /// Declares a brownout (degraded-service) mode. The broker enters the
    /// mode when `adm_queue_delay_us >= enter_delay_us` or the per-tick
    /// shed count reaches `enter_shed` (zero thresholds never trigger),
    /// runs `enter_steps`, and — with hysteresis — leaves it only once the
    /// delay is back at or below `exit_delay_us` *and* the tick sheds at or
    /// below `exit_shed`, running `exit_steps`.
    #[allow(clippy::too_many_arguments)]
    pub fn brownout_mode(
        mut self,
        name: &str,
        level: i64,
        enter_delay_us: u64,
        exit_delay_us: u64,
        enter_shed: u64,
        exit_shed: u64,
        enter_steps: &[&str],
        exit_steps: &[&str],
    ) -> Self {
        let mgr = self.ensure_admission_mgr();
        let m = self.model.create("BrownoutMode");
        self.model.set_attr(m, "name", Value::from(name));
        self.model.set_attr(m, "level", Value::from(level));
        self.model
            .set_attr(m, "enterDelayUs", Value::from(enter_delay_us as i64));
        self.model
            .set_attr(m, "exitDelayUs", Value::from(exit_delay_us as i64));
        self.model
            .set_attr(m, "enterShed", Value::from(enter_shed as i64));
        self.model
            .set_attr(m, "exitShed", Value::from(exit_shed as i64));
        self.model.set_attr_many(
            m,
            "enterSteps",
            enter_steps.iter().map(|s| Value::from(*s)).collect(),
        );
        self.model.set_attr_many(
            m,
            "exitSteps",
            exit_steps.iter().map(|s| Value::from(*s)).collect(),
        );
        self.model.add_ref(mgr, "modes", m);
        self
    }

    /// Annotates the most recently attached action of `handler` with a
    /// declared per-execution cost (µs of work) and the admission class it
    /// is accounted to.
    pub fn with_admission(mut self, handler: &str, cost_us: u64, class: &str) -> Self {
        let h = self.find_handler(handler);
        if let Some(a) = self.model.refs(h, "actions").last().copied() {
            self.model
                .set_attr(a, "costUs", Value::from(cost_us as i64));
            self.model.set_attr(a, "admissionClass", Value::from(class));
        }
        self
    }

    /// Declares a quorum-replicated replica set: each `(node, mode,
    /// window_records, ack_timeout_us)` entry adds one peer with its own
    /// shipping lane (`mode` is `"Async"` or `"AckWindowed"`, per-lane
    /// window and retransmit timeout). `quorum` is the number of nodes —
    /// counting the primary itself — that must hold a journal record before
    /// it commits; 0 asks the interpreter to compute a majority of the
    /// total node count. Re-declaring replaces the membership wholesale on
    /// the same manager instead of adding a second set.
    pub fn replica_set(mut self, quorum: u64, peers: &[(&str, &str, u64, u64)]) -> Self {
        let m = match self.replica_set_mgr {
            Some(m) => m,
            None => {
                let m = self.model.create("ReplicaSet");
                self.model.set_attr(m, "name", Value::from("replicaset"));
                self.model.add_ref(self.layer, "managers", m);
                self.replica_set_mgr = Some(m);
                m
            }
        };
        self.model.set_attr(m, "quorum", Value::from(quorum as i64));
        for old in self.model.refs(m, "replicas").to_vec() {
            self.model.remove_ref(m, "replicas", old);
            let _ = self.model.destroy(old, None);
        }
        for (node, mode, window_records, ack_timeout_us) in peers {
            let r = self.model.create("ReplicaNode");
            self.model.set_attr(r, "name", Value::from(*node));
            self.model.set_attr(r, "node", Value::from(*node));
            self.model
                .set_attr(r, "mode", Value::enumeration("ShipMode", *mode));
            self.model
                .set_attr(r, "windowRecords", Value::from(*window_records as i64));
            self.model
                .set_attr(r, "ackTimeoutUs", Value::from(*ack_timeout_us as i64));
            self.model.add_ref(m, "replicas", r);
        }
        self
    }

    /// Declares an online runtime monitor. `property` is a bare OCL-lite
    /// invariant (`self.opens >= 0`), an `always <expr>`, a
    /// `never <expr> during <expr>`, or an `at-most-one <key> per <key>`
    /// temporal property; the engine compiles it at `from_model` time into
    /// an incremental in-stream journal monitor that trips *before* a
    /// violating command becomes externally visible.
    pub fn monitor(mut self, name: &str, property: &str) -> Self {
        let mgr = match self.monitor_mgr {
            Some(m) => m,
            None => {
                let m = self.model.create("MonitorManager");
                self.model.set_attr(m, "name", Value::from("monitor"));
                self.model.add_ref(self.layer, "managers", m);
                self.monitor_mgr = Some(m);
                m
            }
        };
        let mon = self.model.create("Monitor");
        self.model.set_attr(mon, "name", Value::from(name));
        self.model.set_attr(mon, "property", Value::from(property));
        self.model.add_ref(mgr, "monitors", mon);
        self
    }

    /// Declares a state migration a live upgrade to this model applies
    /// atomically at cutover: `key` is written to `value` (parsed as an
    /// integer when it is one; an empty value unsets the key) inside the
    /// journaled `Upgrade` record.
    pub fn migration(mut self, name: &str, key: &str, value: &str) -> Self {
        let m = self.model.create("StateMigration");
        self.model.set_attr(m, "name", Value::from(name));
        self.model.set_attr(m, "key", Value::from(key));
        self.model.set_attr(m, "value", Value::from(value));
        self.model.add_ref(self.state_mgr, "migrations", m);
        self
    }

    /// Binds a logical resource name used by actions to a hub resource.
    pub fn bind_resource(mut self, name: &str, resource: &str) -> Self {
        let b = self.model.create("ResourceBinding");
        self.model.set_attr(b, "name", Value::from(name));
        self.model.set_attr(b, "resource", Value::from(resource));
        self.model.add_ref(self.resource_mgr, "bindings", b);
        self
    }

    fn find_handler(&self, name: &str) -> ObjectId {
        self.model
            .refs(self.main, "handlers")
            .iter()
            .copied()
            .find(|h| self.model.attr_str(*h, "name") == Some(name))
            .unwrap_or_else(|| panic!("handler `{name}` not declared"))
    }

    /// Finishes and returns the broker model, enforcing build-time
    /// hygiene: duplicate component/monitor names and domain state
    /// effects writing the reserved `mon_*` monitor memory are refused
    /// with a typed [`BrokerError::InvalidModel`](crate::BrokerError).
    /// (Historically both were accepted silently and only surfaced as
    /// runtime misbehavior.)
    pub fn try_build(self) -> crate::Result<Model> {
        let report = crate::analysis::hygiene(&self.model, &read(&self.model));
        if let Some(first) = report.errors().next() {
            return Err(crate::BrokerError::InvalidModel(format!(
                "build hygiene: {first}"
            )));
        }
        Ok(self.model)
    }

    /// Finishes and returns the broker model.
    ///
    /// # Panics
    ///
    /// Panics on the hygiene defects [`BrokerModelBuilder::try_build`]
    /// reports — a duplicate name or a reserved-`mon_*` state effect in a
    /// hand-built model is a programming error at the construction site.
    pub fn build(self) -> Model {
        match self.try_build() {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mddsm_meta::conformance;

    #[test]
    fn metamodel_is_well_formed() {
        let mm = broker_metamodel();
        assert_eq!(mm.name(), BROKER_METAMODEL);
        assert!(mm.class("MainManager").is_some());
        assert!(mm.is_subclass_of("AutonomicManager", "Manager"));
        assert!(mm.class("Manager").unwrap().is_abstract);
    }

    #[test]
    fn built_models_conform() {
        let mm = broker_metamodel();
        let model = BrokerModelBuilder::new("ncb")
            .call_handler("open", "openSession")
            .action(
                "open",
                "openDirect",
                "media",
                "open",
                &["peer=$peer"],
                None,
                &["opens=+1"],
            )
            .policy("preferDirect", "self.mode = \"direct\"")
            .autonomic_rule(
                "mediaFlaky",
                "self.failures_media > 2",
                &["heal media", "set mode direct"],
            )
            .bind_resource("media", "sim.media")
            .build();
        conformance::check(&model, &mm).unwrap();
    }

    #[test]
    fn try_build_refuses_duplicate_names() {
        // Regression: duplicate handler names used to build silently and
        // only misbehave at dispatch time (the second handler shadowed).
        let err = BrokerModelBuilder::new("dup")
            .call_handler("open", "openSession")
            .call_handler("open", "openOther")
            .try_build()
            .unwrap_err();
        assert!(matches!(err, crate::BrokerError::InvalidModel(_)));
        assert!(err.to_string().contains("duplicate-name"), "{err}");

        let err = BrokerModelBuilder::new("dup")
            .monitor("m", "self.a >= 0")
            .monitor("m", "self.b >= 0")
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate-name"), "{err}");
    }

    #[test]
    fn try_build_refuses_reserved_monitor_keys() {
        // Regression: a domain state effect writing `mon_*` could forge or
        // clear runtime-monitor trip latches.
        let err = BrokerModelBuilder::new("forge")
            .call_handler("h", "op")
            .action("h", "a", "r", "o", &[], None, &["mon_trips=+1"])
            .try_build()
            .unwrap_err();
        assert!(matches!(err, crate::BrokerError::InvalidModel(_)));
        assert!(err.to_string().contains("reserved-key"), "{err}");

        let err = BrokerModelBuilder::new("forge2")
            .autonomic_rule("s", "self.x > 0", &["set mon_trips 0"])
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("reserved-key"), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate-name")]
    fn build_panics_on_hygiene_defects() {
        let _ = BrokerModelBuilder::new("dup")
            .call_handler("open", "a")
            .call_handler("open", "b")
            .build();
    }

    #[test]
    fn lean_models_conform_with_fewer_managers() {
        let mm = broker_metamodel();
        let model = BrokerModelBuilder::lean("tiny")
            .call_handler("h", "op")
            .action("h", "a", "r", "o", &[], None, &[])
            .build();
        conformance::check(&model, &mm).unwrap();
        assert_eq!(model.all_of_class("PolicyManager").len(), 0);
        assert_eq!(model.all_of_class("MainManager").len(), 1);
    }

    #[test]
    fn admission_models_conform_and_the_manager_is_lazy() {
        let mm = broker_metamodel();
        // No admission declarations -> no AdmissionManager instance.
        let plain = BrokerModelBuilder::new("p").build();
        assert_eq!(plain.all_of_class("AdmissionManager").len(), 0);

        let model = BrokerModelBuilder::new("ac")
            .call_handler("h", "op")
            .action("h", "a", "r", "o", &[], None, &[])
            .with_admission("h", 700, "interactive")
            .admission_class("interactive", 800, 4_000, 50_000, 100_000)
            .brownout_mode(
                "lite",
                1,
                20_000,
                5_000,
                3,
                0,
                &["set svc_mode lite"],
                &["set svc_mode full"],
            )
            .build();
        conformance::check(&model, &mm).unwrap();
        assert_eq!(model.all_of_class("AdmissionManager").len(), 1);
        assert_eq!(model.all_of_class("AdmissionClass").len(), 1);
        assert_eq!(model.all_of_class("BrownoutMode").len(), 1);
    }

    #[test]
    fn replica_set_models_conform_and_redeclaring_replaces_membership() {
        let mm = broker_metamodel();
        let plain = BrokerModelBuilder::new("p").build();
        assert_eq!(plain.all_of_class("ReplicaSet").len(), 0);

        let model = BrokerModelBuilder::new("rs")
            .replica_set(
                2,
                &[("b", "AckWindowed", 16, 8_000), ("c", "Async", 32, 10_000)],
            )
            .build();
        conformance::check(&model, &mm).unwrap();
        let sets = model.all_of_class("ReplicaSet");
        assert_eq!(sets.len(), 1);
        assert_eq!(model.attr_int(sets[0], "quorum"), Some(2));
        assert_eq!(model.refs(sets[0], "replicas").len(), 2);

        // Re-declaring replaces the membership on the same manager; no
        // orphaned ReplicaNode objects survive the swap.
        let retuned = BrokerModelBuilder::new("rs2")
            .replica_set(0, &[("b", "Async", 32, 10_000)])
            .replica_set(
                3,
                &[
                    ("b", "AckWindowed", 16, 8_000),
                    ("c", "AckWindowed", 16, 8_000),
                    ("d", "AckWindowed", 16, 8_000),
                    ("e", "AckWindowed", 16, 8_000),
                ],
            )
            .build();
        conformance::check(&retuned, &mm).unwrap();
        assert_eq!(retuned.all_of_class("ReplicaSet").len(), 1);
        assert_eq!(retuned.all_of_class("ReplicaNode").len(), 4);
        let set = retuned.all_of_class("ReplicaSet")[0];
        assert_eq!(retuned.attr_int(set, "quorum"), Some(3));
        let nodes: Vec<&str> = retuned
            .refs(set, "replicas")
            .iter()
            .filter_map(|&r| retuned.attr_str(r, "node"))
            .collect();
        assert_eq!(nodes, ["b", "c", "d", "e"]);
    }

    #[test]
    fn monitor_builder_declares_conforming_monitors() {
        let mm = broker_metamodel();
        let plain = BrokerModelBuilder::new("p").build();
        assert_eq!(plain.all_of_class("Monitor").len(), 0);

        let model = BrokerModelBuilder::new("mon")
            .monitor("nonneg", "always self.opens >= 0")
            .monitor("onePrimary", "at-most-one primary per epoch")
            .build();
        conformance::check(&model, &mm).unwrap();
        let monitors = model.all_of_class("Monitor");
        assert_eq!(monitors.len(), 2);
        let mut pairs: Vec<(String, String)> = monitors
            .iter()
            .map(|&m| {
                (
                    model.attr_str(m, "name").unwrap().to_owned(),
                    model.attr_str(m, "property").unwrap().to_owned(),
                )
            })
            .collect();
        pairs.sort();
        assert_eq!(pairs[0].0, "nonneg");
        assert_eq!(pairs[0].1, "always self.opens >= 0");
        assert_eq!(
            pairs[1],
            ("onePrimary".into(), "at-most-one primary per epoch".into())
        );
        // One MonitorManager holds both.
        assert_eq!(model.all_of_class("MonitorManager").len(), 1);
    }

    #[test]
    #[should_panic(expected = "handler `nope` not declared")]
    fn action_on_unknown_handler_panics() {
        let _ = BrokerModelBuilder::new("x").action("nope", "a", "r", "o", &[], None, &[]);
    }

    #[test]
    fn nonconforming_model_detected() {
        let mm = broker_metamodel();
        let mut model = BrokerModelBuilder::new("x").build();
        // Handler with a bogus enum literal.
        let h = model.create("Handler");
        model.set_attr(h, "name", Value::from("h"));
        model.set_attr(h, "selector", Value::from("s"));
        model.set_attr(h, "kind", Value::enumeration("HandlerKind", "Bogus"));
        assert!(conformance::check(&model, &mm).is_err());
    }
}
