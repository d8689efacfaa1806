//! Model-driven fault injection: fault *plans* are models@runtime.
//!
//! Following the paper's core theme — everything the middleware consumes is
//! a model conforming to a metamodel, interpreted by a generic engine — the
//! failure scenarios used by the resilience experiments are themselves
//! models. A [`fault_metamodel`] defines `FaultPlan`/`FaultEvent`; plans
//! are authored with [`FaultPlanBuilder`] (or generated randomly from a
//! seed with [`random_campaign`]), conformance-checked, compiled by
//! [`FaultPlan::from_model`], and executed against the simulation substrate
//! by a [`FaultDriver`] on the virtual clock.
//!
//! A harness calls [`FaultDriver::advance_to`] with the current virtual
//! time before each resource invocation. It applies the due resource
//! events to the [`ResourceHub`] and the due network events to a
//! [`Network`], when one is supplied. It returns the due middleware-level
//! [`FaultAction`]s (component crashes, load changes, storage damage, ...)
//! in plan order, for the caller to act on.

use crate::net::Network;
use crate::resource::ResourceHub;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use mddsm_meta::metamodel::{DataType, Metamodel, MetamodelBuilder, Multiplicity};
use mddsm_meta::model::{Model, ObjectId};
use mddsm_meta::{conformance, Value};

/// Name under which the fault metamodel registers.
pub const FAULT_METAMODEL: &str = "mddsm.fault";

/// Builds the fault metamodel: a `FaultPlan` (name, seed) containing timed
/// `FaultEvent`s. Every event has a virtual-time instant (`atUs`), a kind,
/// and a target; link events add a `peer`, degradations an `amountUs`, and
/// loss spikes a `loss` probability.
pub fn fault_metamodel() -> Metamodel {
    MetamodelBuilder::new(FAULT_METAMODEL)
        .enumeration(
            "FaultKind",
            [
                "Crash",
                "Heal",
                "Degrade",
                "LinkDown",
                "LinkUp",
                "LossSpike",
                "Partition",
                "HealNode",
                "CrashComponent",
                "StallComponent",
                "LoadSpike",
                "LoadNormal",
                "FailoverTo",
                "CorruptState",
                "TornWrite",
                "BitFlip",
                "DropUnsynced",
                "TruncateSnapshot",
                "BeginUpgrade",
            ],
        )
        .class("FaultPlan", |c| {
            c.attr("name", DataType::Str)
                .attr_default("seed", DataType::Int, Value::from(0))
                .contains("events", "FaultEvent", Multiplicity::MANY)
                .invariant("nonneg-times", "self.events->forAll(e | e.atUs >= 0)")
        })
        .class("FaultEvent", |c| {
            c.attr("atUs", DataType::Int)
                .attr("kind", DataType::Enum("FaultKind".into()))
                .attr("target", DataType::Str)
                .opt_attr("peer", DataType::Str)
                .attr_default("amountUs", DataType::Int, Value::from(0))
                .attr_default("loss", DataType::Float, Value::from(0.0))
                .attr_default("factor", DataType::Float, Value::from(1.0))
        })
        .build()
        .expect("fault metamodel is well-formed")
}

/// Errors raised while compiling or executing a fault plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// The model does not describe a usable plan.
    BadPlan(String),
    /// An error bubbled up from the modeling substrate.
    Meta(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::BadPlan(m) => write!(f, "bad fault plan: {m}"),
            FaultError::Meta(m) => write!(f, "model error: {m}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// What a fault event does when it fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Mark a hub resource unhealthy (invocations time out).
    Crash {
        /// Resource name in the hub.
        resource: String,
    },
    /// Mark a hub resource healthy again and clear its degradation.
    Heal {
        /// Resource name in the hub.
        resource: String,
    },
    /// Add constant extra latency to every invocation of a resource.
    Degrade {
        /// Resource name in the hub.
        resource: String,
        /// Extra per-invocation latency.
        extra: SimDuration,
    },
    /// Take a directed network link down.
    LinkDown {
        /// Source node.
        from: String,
        /// Destination node.
        to: String,
    },
    /// Bring a directed network link back up.
    LinkUp {
        /// Source node.
        from: String,
        /// Destination node.
        to: String,
    },
    /// Set the loss probability of a directed link.
    LossSpike {
        /// Source node.
        from: String,
        /// Destination node.
        to: String,
        /// New loss probability in `[0, 1]`.
        loss: f64,
    },
    /// Partition a node from every configured peer.
    Partition {
        /// Node name.
        node: String,
    },
    /// Heal all links touching a node.
    HealNode {
        /// Node name.
        node: String,
    },
    /// Kill a *middleware* component (a broker engine, a controller, a
    /// container slot) — the process dies, its in-memory runtime model with
    /// it. Unlike [`FaultAction::Crash`], the underlying resources stay up.
    CrashComponent {
        /// Middleware component name.
        component: String,
    },
    /// Wedge a middleware component: it stays "alive" but stops making
    /// progress (and stops heartbeating), so only staleness detection can
    /// catch it.
    StallComponent {
        /// Middleware component name.
        component: String,
    },
    /// Multiply the arrival rate of a workload class — the overload
    /// campaigns of experiment E8. Unlike the other kinds, this targets
    /// neither a resource nor the network: the driver returns it to the
    /// caller (typically to steer an arrival generator).
    LoadSpike {
        /// Workload class whose arrivals spike.
        class: String,
        /// Arrival-rate multiplier (> 1 means overload).
        factor: f64,
    },
    /// Return a workload class to its baseline arrival rate.
    LoadNormal {
        /// Workload class whose arrivals return to baseline.
        class: String,
    },
    /// Force a failover: the named middleware component hands its primary
    /// role to `standby`. Returned by the driver like the other
    /// middleware events — the supervisor (or harness) decides what
    /// promotion actually means.
    FailoverTo {
        /// Component currently holding the primary role.
        component: String,
        /// Component that should take over.
        standby: String,
    },
    /// Corrupt one variable of a component's runtime model — the
    /// invariant-violating mutation of the E10 verification campaigns,
    /// standing in for a buggy change plan, a bad reflective write, or
    /// bit-rot. The component's process stays alive and keeps serving:
    /// only an online monitor can notice.
    CorruptState {
        /// Middleware component whose runtime model is corrupted.
        component: String,
        /// State variable to overwrite.
        key: String,
        /// The corrupt value (integers are written as ints).
        value: String,
    },
    /// A crash mid-append tears the final journal record of a component's
    /// durable store: only the first `bytes` bytes of the last record make
    /// it to disk (the E13 storage campaigns). Apply with [`tear_tail`].
    TornWrite {
        /// Middleware component whose journal is torn.
        component: String,
        /// Bytes of the final record that survive the tear.
        bytes: u64,
    },
    /// Bit-rot: one bit of the component's durable journal flips in place
    /// (a lying disk, a decaying medium). Apply with [`flip_bit`].
    BitFlip {
        /// Middleware component whose journal rots.
        component: String,
        /// Byte position to corrupt (reduced modulo the journal length).
        offset: u64,
    },
    /// A power cut drops unsynced writes: the last `records` complete
    /// journal records vanish without a trace (clean truncation — nothing
    /// for a checksum to catch). Apply with [`drop_tail_records`].
    DropUnsynced {
        /// Middleware component whose tail writes are lost.
        component: String,
        /// Complete records dropped from the tail.
        records: u64,
    },
    /// The newest snapshot record is cut short on disk (a torn multi-block
    /// write inside the journal's largest record). Apply with
    /// [`truncate_newest_snapshot`].
    TruncateSnapshot {
        /// Middleware component whose snapshot is truncated.
        component: String,
    },
    /// Operations pushes a model upgrade while the campaign rages: the
    /// component must begin a live hot-upgrade to the named candidate
    /// model (the E14 evolution campaigns). Not itself a fault — the
    /// point is interleaving upgrades with the crash, corruption, and
    /// storage events around them.
    BeginUpgrade {
        /// Middleware component asked to upgrade.
        component: String,
        /// Name of the candidate model to upgrade to (resolved by the
        /// harness).
        candidate: String,
    },
}

impl FaultAction {
    /// Whether this action damages a component's durable storage (its
    /// journal or snapshots) rather than its process, its resources, or
    /// the network.
    pub fn is_storage(&self) -> bool {
        matches!(
            self,
            FaultAction::TornWrite { .. }
                | FaultAction::BitFlip { .. }
                | FaultAction::DropUnsynced { .. }
                | FaultAction::TruncateSnapshot { .. }
        )
    }

    /// The journal bytes a storage action leaves behind when it strikes
    /// `bytes`, through the matching transform ([`tear_tail`],
    /// [`flip_bit`], [`drop_tail_records`] or [`truncate_newest_snapshot`]).
    /// `None` for every action that is not a storage fault.
    pub fn damage(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        match self {
            FaultAction::TornWrite { bytes: keep, .. } => Some(tear_tail(bytes, *keep)),
            FaultAction::BitFlip { offset, .. } => Some(flip_bit(bytes, *offset)),
            FaultAction::DropUnsynced { records, .. } => Some(drop_tail_records(bytes, *records)),
            FaultAction::TruncateSnapshot { .. } => Some(truncate_newest_snapshot(bytes)),
            _ => None,
        }
    }
}

/// A compiled fault event: an action at a virtual-time instant.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What it does.
    pub action: FaultAction,
}

/// A compiled fault plan: events sorted by time (ties keep model order).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Plan name (from the model).
    pub name: String,
    /// Seed recorded in the model (0 for hand-written plans).
    pub seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Conformance-checks `model` against the fault metamodel and compiles
    /// it into a time-sorted plan.
    pub fn from_model(model: &Model) -> Result<FaultPlan, FaultError> {
        let mm = fault_metamodel();
        conformance::check(model, &mm).map_err(|e| FaultError::Meta(e.to_string()))?;
        let plans = model.all_of_class("FaultPlan");
        let plan = match plans.as_slice() {
            [p] => *p,
            [] => return Err(FaultError::BadPlan("model contains no FaultPlan".into())),
            _ => {
                return Err(FaultError::BadPlan(
                    "model contains multiple FaultPlans".into(),
                ))
            }
        };
        let name = model
            .attr_str(plan, "name")
            .ok_or_else(|| FaultError::BadPlan("FaultPlan has no name".into()))?
            .to_owned();
        let seed = model.attr_int(plan, "seed").unwrap_or(0).max(0) as u64;
        let mut events = Vec::new();
        for &e in model.refs(plan, "events") {
            events.push(compile_event(model, e)?);
        }
        events.sort_by_key(|e| e.at); // stable: same-instant events keep model order
        Ok(FaultPlan { name, seed, events })
    }

    /// The compiled events, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events in the plan.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Parses a `key=value` peer field into a `u64` parameter.
fn peer_u64(kv: &str, key: &str, kind: &str, target: &str) -> Result<u64, FaultError> {
    kv.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| {
            FaultError::BadPlan(format!(
                "{kind} event on `{target}` needs peer `{key}=<u64>`, got `{kv}`"
            ))
        })
}

fn compile_event(model: &Model, e: ObjectId) -> Result<FaultEvent, FaultError> {
    let at_us = model
        .attr_int(e, "atUs")
        .ok_or_else(|| FaultError::BadPlan("FaultEvent has no atUs".into()))?;
    if at_us < 0 {
        return Err(FaultError::BadPlan(format!("negative event time {at_us}")));
    }
    let target = model
        .attr_str(e, "target")
        .ok_or_else(|| FaultError::BadPlan("FaultEvent has no target".into()))?
        .to_owned();
    let kind = match model.attr(e, "kind") {
        Some(Value::Enum(_, literal)) => literal.clone(),
        _ => return Err(FaultError::BadPlan("FaultEvent has no kind".into())),
    };
    let peer = model
        .attr_str(e, "peer")
        .map(str::to_owned)
        .ok_or_else(|| FaultError::BadPlan(format!("{kind} event on `{target}` needs a peer")));
    let action = match kind.as_str() {
        "Crash" => FaultAction::Crash { resource: target },
        "Heal" => FaultAction::Heal { resource: target },
        "Degrade" => {
            let us = model.attr_int(e, "amountUs").unwrap_or(0).max(0) as u64;
            FaultAction::Degrade {
                resource: target,
                extra: SimDuration::from_micros(us),
            }
        }
        "LinkDown" => FaultAction::LinkDown {
            from: target,
            to: peer?,
        },
        "LinkUp" => FaultAction::LinkUp {
            from: target,
            to: peer?,
        },
        "LossSpike" => {
            let loss = model.attr_float(e, "loss").unwrap_or(0.0).clamp(0.0, 1.0);
            FaultAction::LossSpike {
                from: target,
                to: peer?,
                loss,
            }
        }
        "Partition" => FaultAction::Partition { node: target },
        "HealNode" => FaultAction::HealNode { node: target },
        "CrashComponent" => FaultAction::CrashComponent { component: target },
        "StallComponent" => FaultAction::StallComponent { component: target },
        "LoadSpike" => {
            let factor = model.attr_float(e, "factor").unwrap_or(1.0).max(0.0);
            FaultAction::LoadSpike {
                class: target,
                factor,
            }
        }
        "LoadNormal" => FaultAction::LoadNormal { class: target },
        "FailoverTo" => FaultAction::FailoverTo {
            component: target,
            standby: peer?,
        },
        // The corrupt write rides in `peer` as `key=value` (the fault
        // metamodel stays a flat event record).
        "CorruptState" => {
            let kv = peer?;
            let (key, value) = kv.split_once('=').ok_or_else(|| {
                FaultError::BadPlan(format!(
                    "CorruptState event on `{target}` needs peer `key=value`, got `{kv}`"
                ))
            })?;
            FaultAction::CorruptState {
                component: target,
                key: key.to_owned(),
                value: value.to_owned(),
            }
        }
        // The storage-fault parameters ride in `peer` as `key=value`, like
        // CorruptState (the fault metamodel stays a flat event record).
        "TornWrite" => FaultAction::TornWrite {
            bytes: peer_u64(&peer?, "bytes", "TornWrite", &target)?,
            component: target,
        },
        "BitFlip" => FaultAction::BitFlip {
            offset: peer_u64(&peer?, "offset", "BitFlip", &target)?,
            component: target,
        },
        "DropUnsynced" => FaultAction::DropUnsynced {
            records: peer_u64(&peer?, "records", "DropUnsynced", &target)?,
            component: target,
        },
        "TruncateSnapshot" => FaultAction::TruncateSnapshot { component: target },
        // The candidate model name rides in `peer`, like a failover's
        // standby.
        "BeginUpgrade" => FaultAction::BeginUpgrade {
            component: target,
            candidate: peer?,
        },
        other => return Err(FaultError::BadPlan(format!("unknown fault kind `{other}`"))),
    };
    Ok(FaultEvent {
        at: SimTime::from_micros(at_us as u64),
        action,
    })
}

/// Fluent builder producing fault-plan *models* (instances of the fault
/// metamodel). `build()` returns the model; compile it with
/// [`FaultPlan::from_model`].
#[derive(Debug)]
pub struct FaultPlanBuilder {
    model: Model,
    plan: ObjectId,
}

impl FaultPlanBuilder {
    /// Starts an empty plan.
    pub fn new(name: &str) -> Self {
        let mut model = Model::new(FAULT_METAMODEL);
        let plan = model.create("FaultPlan");
        model.set_attr(plan, "name", Value::from(name));
        model.set_attr(plan, "seed", Value::from(0));
        FaultPlanBuilder { model, plan }
    }

    /// Records the seed the plan was generated from (informational).
    pub fn seed(mut self, seed: u64) -> Self {
        self.model
            .set_attr(self.plan, "seed", Value::from(seed as i64));
        self
    }

    fn event(mut self, at: SimTime, kind: &str, target: &str) -> Self {
        let e = self.model.create("FaultEvent");
        self.model
            .set_attr(e, "atUs", Value::from(at.as_micros() as i64));
        self.model
            .set_attr(e, "kind", Value::enumeration("FaultKind", kind));
        self.model.set_attr(e, "target", Value::from(target));
        self.model.add_ref(self.plan, "events", e);
        self
    }

    fn last_event(&self) -> ObjectId {
        *self
            .model
            .refs(self.plan, "events")
            .last()
            .expect("event just added")
    }

    /// Crashes a hub resource at `at`.
    pub fn crash(self, at: SimTime, resource: &str) -> Self {
        self.event(at, "Crash", resource)
    }

    /// Heals a hub resource at `at` (also clears degradation).
    pub fn heal(self, at: SimTime, resource: &str) -> Self {
        self.event(at, "Heal", resource)
    }

    /// Degrades a hub resource by `extra` per invocation from `at` on.
    pub fn degrade(self, at: SimTime, resource: &str, extra: SimDuration) -> Self {
        let mut b = self.event(at, "Degrade", resource);
        let e = b.last_event();
        b.model
            .set_attr(e, "amountUs", Value::from(extra.as_micros() as i64));
        b
    }

    /// Takes the directed link `from -> to` down at `at`.
    pub fn link_down(self, at: SimTime, from: &str, to: &str) -> Self {
        let mut b = self.event(at, "LinkDown", from);
        let e = b.last_event();
        b.model.set_attr(e, "peer", Value::from(to));
        b
    }

    /// Brings the directed link `from -> to` back up at `at`.
    pub fn link_up(self, at: SimTime, from: &str, to: &str) -> Self {
        let mut b = self.event(at, "LinkUp", from);
        let e = b.last_event();
        b.model.set_attr(e, "peer", Value::from(to));
        b
    }

    /// Sets the loss probability of `from -> to` at `at`.
    pub fn loss_spike(self, at: SimTime, from: &str, to: &str, loss: f64) -> Self {
        let mut b = self.event(at, "LossSpike", from);
        let e = b.last_event();
        b.model.set_attr(e, "peer", Value::from(to));
        b.model.set_attr(e, "loss", Value::from(loss));
        b
    }

    /// Partitions `node` from every configured peer at `at`.
    pub fn partition(self, at: SimTime, node: &str) -> Self {
        self.event(at, "Partition", node)
    }

    /// Heals all links touching `node` at `at`.
    pub fn heal_node(self, at: SimTime, node: &str) -> Self {
        self.event(at, "HealNode", node)
    }

    /// Crashes the middleware component `component` at `at`.
    pub fn crash_component(self, at: SimTime, component: &str) -> Self {
        self.event(at, "CrashComponent", component)
    }

    /// Wedges the middleware component `component` at `at`.
    pub fn stall_component(self, at: SimTime, component: &str) -> Self {
        self.event(at, "StallComponent", component)
    }

    /// Multiplies the arrival rate of workload class `class` by `factor`
    /// from `at` on.
    pub fn load_spike(self, at: SimTime, class: &str, factor: f64) -> Self {
        let mut b = self.event(at, "LoadSpike", class);
        let e = b.last_event();
        b.model.set_attr(e, "factor", Value::from(factor));
        b
    }

    /// Returns workload class `class` to its baseline arrival rate at `at`.
    pub fn load_normal(self, at: SimTime, class: &str) -> Self {
        self.event(at, "LoadNormal", class)
    }

    /// Forces `component` to hand its primary role to `standby` at `at`.
    pub fn failover_to(self, at: SimTime, component: &str, standby: &str) -> Self {
        let mut b = self.event(at, "FailoverTo", component);
        let e = b.last_event();
        b.model.set_attr(e, "peer", Value::from(standby));
        b
    }

    /// Overwrites `key` in `component`'s runtime model with `value` at
    /// `at` (an invariant-violating mutation for verification campaigns).
    pub fn corrupt_state(self, at: SimTime, component: &str, key: &str, value: &str) -> Self {
        let mut b = self.event(at, "CorruptState", component);
        let e = b.last_event();
        b.model
            .set_attr(e, "peer", Value::from(format!("{key}={value}").as_str()));
        b
    }

    /// Tears the final journal record of `component` at `at`: only its
    /// first `bytes` bytes survive on disk.
    pub fn torn_write(self, at: SimTime, component: &str, bytes: u64) -> Self {
        let mut b = self.event(at, "TornWrite", component);
        let e = b.last_event();
        b.model
            .set_attr(e, "peer", Value::from(format!("bytes={bytes}").as_str()));
        b
    }

    /// Flips one bit of `component`'s durable journal at byte `offset`
    /// (reduced modulo the journal length) at `at`.
    pub fn bit_flip(self, at: SimTime, component: &str, offset: u64) -> Self {
        let mut b = self.event(at, "BitFlip", component);
        let e = b.last_event();
        b.model
            .set_attr(e, "peer", Value::from(format!("offset={offset}").as_str()));
        b
    }

    /// Drops the last `records` complete journal records of `component`
    /// at `at` (unsynced writes lost to a power cut).
    pub fn drop_unsynced(self, at: SimTime, component: &str, records: u64) -> Self {
        let mut b = self.event(at, "DropUnsynced", component);
        let e = b.last_event();
        b.model.set_attr(
            e,
            "peer",
            Value::from(format!("records={records}").as_str()),
        );
        b
    }

    /// Cuts `component`'s newest on-disk snapshot record short at `at`.
    pub fn truncate_snapshot(self, at: SimTime, component: &str) -> Self {
        self.event(at, "TruncateSnapshot", component)
    }

    /// Asks `component` to begin a live hot-upgrade to the candidate
    /// model named `candidate` at `at`.
    pub fn begin_upgrade(self, at: SimTime, component: &str, candidate: &str) -> Self {
        let mut b = self.event(at, "BeginUpgrade", component);
        let e = b.last_event();
        b.model.set_attr(e, "peer", Value::from(candidate));
        b
    }

    /// Finishes and returns the fault-plan model.
    pub fn build(self) -> Model {
        self.model
    }
}

/// Shape of a randomized crash/heal campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Hub resources subjected to faults.
    pub resources: Vec<String>,
    /// Campaign horizon: no event fires at or after this instant.
    pub horizon: SimDuration,
    /// Mean time between failures per resource (exponential).
    pub mean_uptime: SimDuration,
    /// Mean time to repair per outage (exponential).
    pub mean_downtime: SimDuration,
    /// Probability a failure is a degradation instead of a crash.
    pub degrade_chance: f64,
    /// Extra per-invocation latency applied by degradations.
    pub degrade_extra: SimDuration,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            resources: Vec::new(),
            horizon: SimDuration::from_millis(10_000),
            mean_uptime: SimDuration::from_millis(1_500),
            mean_downtime: SimDuration::from_millis(400),
            degrade_chance: 0.25,
            degrade_extra: SimDuration::from_millis(50),
        }
    }
}

/// Generates a randomized fault-plan model: each resource alternates
/// exponentially-distributed uptime and downtime windows until the horizon;
/// a failure is a crash (healed at the end of the outage) or, with
/// `degrade_chance`, a degradation (cleared by the heal). Deterministic in
/// `seed` — the same seed always yields the identical model.
pub fn random_campaign(name: &str, seed: u64, cfg: &CampaignConfig) -> Model {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut b = FaultPlanBuilder::new(name).seed(seed);
    for resource in &cfg.resources {
        let mut t = 0u64;
        loop {
            let up = rng.exponential(cfg.mean_uptime.as_micros() as f64).max(1.0) as u64;
            t = t.saturating_add(up);
            if t >= cfg.horizon.as_micros() {
                break;
            }
            let fail_at = SimTime::from_micros(t);
            let down = rng
                .exponential(cfg.mean_downtime.as_micros() as f64)
                .max(1.0) as u64;
            let degrade = rng.chance(cfg.degrade_chance);
            b = if degrade {
                b.degrade(fail_at, resource, cfg.degrade_extra)
            } else {
                b.crash(fail_at, resource)
            };
            t = t.saturating_add(down);
            let heal_at = t.min(cfg.horizon.as_micros().saturating_sub(1));
            b = b.heal(SimTime::from_micros(heal_at), resource);
            if t >= cfg.horizon.as_micros() {
                break;
            }
        }
    }
    b.build()
}

/// Shape of a randomized *middleware* crash/stall campaign (the E7
/// workload): components die or wedge at seeded instants and stay down
/// until a supervisor restarts them — there are no Heal events, recovery
/// is the supervisor's job.
#[derive(Debug, Clone)]
pub struct CrashCampaignConfig {
    /// Middleware components subjected to crashes.
    pub components: Vec<String>,
    /// Campaign horizon: no event fires at or after this instant.
    pub horizon: SimDuration,
    /// Mean time between middleware failures per component (exponential).
    pub mean_uptime: SimDuration,
    /// Probability a failure is a stall (wedged) instead of a crash.
    pub stall_chance: f64,
}

impl Default for CrashCampaignConfig {
    fn default() -> Self {
        CrashCampaignConfig {
            components: Vec::new(),
            horizon: SimDuration::from_millis(10_000),
            mean_uptime: SimDuration::from_millis(2_000),
            stall_chance: 0.25,
        }
    }
}

/// Generates a randomized middleware-crash plan: each component fails at
/// exponentially-distributed intervals until the horizon; each failure is
/// a [`FaultAction::CrashComponent`] or, with `stall_chance`, a
/// [`FaultAction::StallComponent`]. Deterministic in `seed`.
pub fn random_crash_campaign(name: &str, seed: u64, cfg: &CrashCampaignConfig) -> Model {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut b = FaultPlanBuilder::new(name).seed(seed);
    for component in &cfg.components {
        let mut t = 0u64;
        loop {
            let up = rng.exponential(cfg.mean_uptime.as_micros() as f64).max(1.0) as u64;
            t = t.saturating_add(up);
            if t >= cfg.horizon.as_micros() {
                break;
            }
            let at = SimTime::from_micros(t);
            b = if rng.chance(cfg.stall_chance) {
                b.stall_component(at, component)
            } else {
                b.crash_component(at, component)
            };
        }
    }
    b.build()
}

/// Shape of a randomized *failover* campaign (the E9 workload): one flaky
/// node alternates healthy windows with outages that are partitions,
/// middleware crashes, or loss spikes on its links; partitions and loss
/// spikes heal after the outage, crashes are left for a supervisor.
#[derive(Debug, Clone)]
pub struct FailoverCampaignConfig {
    /// Network node the campaign picks on.
    pub node: String,
    /// Middleware component hosted on `node` (crash events target it).
    pub component: String,
    /// Peers of `node`; loss spikes hit the directed links both ways.
    pub peers: Vec<String>,
    /// Campaign horizon: no event fires at or after this instant.
    pub horizon: SimDuration,
    /// Mean healthy time between outages (exponential).
    pub mean_uptime: SimDuration,
    /// Mean outage duration for partitions and loss spikes (exponential).
    pub mean_downtime: SimDuration,
    /// Probability an outage is a network partition of `node`.
    pub partition_chance: f64,
    /// Probability an outage is a loss spike (else a component crash).
    pub loss_chance: f64,
    /// Loss probability applied on `node`'s links during a spike.
    pub spike_loss: f64,
}

impl Default for FailoverCampaignConfig {
    fn default() -> Self {
        FailoverCampaignConfig {
            node: String::new(),
            component: String::new(),
            peers: Vec::new(),
            horizon: SimDuration::from_millis(10_000),
            mean_uptime: SimDuration::from_millis(2_000),
            mean_downtime: SimDuration::from_millis(500),
            partition_chance: 0.4,
            loss_chance: 0.3,
            spike_loss: 0.6,
        }
    }
}

/// Generates a randomized failover plan for one flaky node: outages arrive
/// at exponentially-distributed intervals and are, per the configured
/// chances, a [`FaultAction::Partition`] (healed by a `HealNode` after the
/// outage), a [`FaultAction::LossSpike`] on every directed link touching
/// the node (reset to lossless after the outage), or a
/// [`FaultAction::CrashComponent`] whose recovery is the supervisor's job.
/// Deterministic in `seed`.
pub fn random_failover_campaign(name: &str, seed: u64, cfg: &FailoverCampaignConfig) -> Model {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut b = FaultPlanBuilder::new(name).seed(seed);
    let mut t = 0u64;
    loop {
        let up = rng.exponential(cfg.mean_uptime.as_micros() as f64).max(1.0) as u64;
        t = t.saturating_add(up);
        if t >= cfg.horizon.as_micros() {
            break;
        }
        let at = SimTime::from_micros(t);
        let down = rng
            .exponential(cfg.mean_downtime.as_micros() as f64)
            .max(1.0) as u64;
        let heal_at = SimTime::from_micros(
            t.saturating_add(down)
                .min(cfg.horizon.as_micros().saturating_sub(1)),
        );
        let roll = rng.unit();
        if roll < cfg.partition_chance {
            b = b.partition(at, &cfg.node).heal_node(heal_at, &cfg.node);
        } else if roll < cfg.partition_chance + cfg.loss_chance {
            for peer in &cfg.peers {
                b = b
                    .loss_spike(at, &cfg.node, peer, cfg.spike_loss)
                    .loss_spike(at, peer, &cfg.node, cfg.spike_loss)
                    .loss_spike(heal_at, &cfg.node, peer, 0.0)
                    .loss_spike(heal_at, peer, &cfg.node, 0.0);
            }
        } else {
            b = b.crash_component(at, &cfg.component);
        }
        t = t.saturating_add(down);
        if t >= cfg.horizon.as_micros() {
            break;
        }
    }
    b.build()
}

/// Shape of a randomized *state-corruption* campaign (the E10 workload):
/// a component's runtime model is hit by invariant-violating mutations at
/// seeded instants; each mutation picks one of the configured
/// `(key, corrupt value)` pairs. There are no heal events — undoing the
/// damage is the runtime verifier's job (refuse, quarantine, roll back).
#[derive(Debug, Clone)]
pub struct CorruptionCampaignConfig {
    /// Middleware component whose runtime model is corrupted.
    pub component: String,
    /// Candidate corruptions: `(state key, corrupt value)` pairs, each
    /// chosen to violate a deployed invariant.
    pub corruptions: Vec<(String, String)>,
    /// Campaign horizon: no event fires at or after this instant.
    pub horizon: SimDuration,
    /// Mean time between corruptions (exponential).
    pub mean_uptime: SimDuration,
}

impl Default for CorruptionCampaignConfig {
    fn default() -> Self {
        CorruptionCampaignConfig {
            component: String::new(),
            corruptions: Vec::new(),
            horizon: SimDuration::from_millis(10_000),
            mean_uptime: SimDuration::from_millis(1_500),
        }
    }
}

/// Generates a randomized corruption plan: mutations arrive at
/// exponentially-distributed intervals until the horizon, each drawing a
/// uniform `(key, value)` pair from `cfg.corruptions`. Deterministic in
/// `seed` — the same seed always yields the identical model.
pub fn random_corruption_campaign(name: &str, seed: u64, cfg: &CorruptionCampaignConfig) -> Model {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut b = FaultPlanBuilder::new(name).seed(seed);
    if cfg.corruptions.is_empty() {
        return b.build();
    }
    let mut t = 0u64;
    loop {
        let up = rng.exponential(cfg.mean_uptime.as_micros() as f64).max(1.0) as u64;
        t = t.saturating_add(up);
        if t >= cfg.horizon.as_micros() {
            break;
        }
        let pick = (rng.unit() * cfg.corruptions.len() as f64) as usize;
        let (key, value) = &cfg.corruptions[pick.min(cfg.corruptions.len() - 1)];
        b = b.corrupt_state(SimTime::from_micros(t), &cfg.component, key, value);
    }
    b.build()
}

// -- Storage-fault byte transforms ------------------------------------------
//
// Pure functions over newline-delimited journal bytes: the fault driver
// returns a storage event to the harness, which applies the matching
// transform to the bytes it holds (`FaultAction::damage`). Keeping
// them here (not in the broker) keeps the damage model independent of the
// journal's record grammar — these functions know only about lines.

/// A crash mid-append: every complete record survives, but only the first
/// `keep` bytes of the final line do. The result never ends on a clean
/// record boundary (at least one byte of the final line is always cut, so
/// the tear is visible as a partial record, not mistaken for a clean
/// shorter journal).
pub fn tear_tail(bytes: &[u8], keep: u64) -> Vec<u8> {
    if bytes.is_empty() {
        return Vec::new();
    }
    let start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let line_len = bytes.len() - start;
    // Keep at most line_len - 1 bytes: the trailing newline (and at least
    // one byte before it, when the line has any) never survives.
    let kept = (keep as usize).min(line_len.saturating_sub(1));
    bytes[..start + kept].to_vec()
}

/// Bit-rot: XORs the low bit of one byte, at `offset` reduced modulo the
/// journal length. Newline bytes are skipped (the next non-newline byte is
/// hit instead) so the damage corrupts a record's *content* rather than
/// splicing two records together — the lying-disk scenario, not a framing
/// rewrite.
pub fn flip_bit(bytes: &[u8], offset: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return out;
    }
    let start = (offset as usize) % out.len();
    let idx = (0..out.len())
        .map(|d| (start + d) % out.len())
        .find(|&i| out[i] != b'\n');
    if let Some(i) = idx {
        out[i] ^= 0x01;
    }
    out
}

/// A power cut drops unsynced writes: the last `records` complete lines
/// vanish without a trace. The cut is clean — every surviving byte is
/// intact — which is exactly why a checksum alone cannot detect it.
pub fn drop_tail_records(bytes: &[u8], records: u64) -> Vec<u8> {
    let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
    let keep = lines.len().saturating_sub(records as usize);
    lines[..keep].concat()
}

/// Cuts the newest snapshot record short: the last line whose payload
/// starts with `snap ` (seen through an optional `v1 <crc> ` frame) loses
/// the second half of its content, keeping the trailing newline so the
/// line count is preserved — a torn multi-block write inside the journal's
/// largest record. Journals without a snapshot are returned unchanged.
pub fn truncate_newest_snapshot(bytes: &[u8]) -> Vec<u8> {
    fn is_snap(line: &[u8]) -> bool {
        let payload = match line.strip_prefix(b"v1 ") {
            // `v1 <8 hex> <payload>`: skip the checksum field.
            Some(rest) if rest.len() > 9 && rest[8] == b' ' => &rest[9..],
            _ => line,
        };
        payload.starts_with(b"snap ")
    }
    let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
    let Some(target) = lines
        .iter()
        .rposition(|l| is_snap(l.strip_suffix(b"\n").unwrap_or(l)))
    else {
        return bytes.to_vec();
    };
    let mut out = Vec::with_capacity(bytes.len());
    for (i, line) in lines.iter().enumerate() {
        if i != target {
            out.extend_from_slice(line);
            continue;
        }
        let content = line.strip_suffix(b"\n").unwrap_or(line);
        out.extend_from_slice(&content[..content.len() / 2]);
        if line.ends_with(b"\n") {
            out.push(b'\n');
        }
    }
    out
}

/// Shape of a randomized *storage* campaign (the E13 workload): a
/// component's durable journal is hit by torn writes, bit flips, dropped
/// unsynced tails, and truncated snapshots at seeded instants. There are
/// no heal events — detecting and repairing the damage is the job of the
/// checksummed journal and the anti-entropy path.
#[derive(Debug, Clone)]
pub struct StorageCampaignConfig {
    /// Middleware component whose durable storage is damaged.
    pub component: String,
    /// Campaign horizon: no event fires at or after this instant.
    pub horizon: SimDuration,
    /// Mean time between storage faults (exponential).
    pub mean_uptime: SimDuration,
    /// Probability a fault is a torn final write.
    pub torn_chance: f64,
    /// Probability a fault is a bit flip (after the torn roll).
    pub flip_chance: f64,
    /// Probability a fault drops unsynced tail records (after torn and
    /// flip); the remainder truncates the newest snapshot.
    pub drop_chance: f64,
    /// Upper bound on the bytes a torn write leaves of the final record.
    pub max_torn_bytes: u64,
    /// Upper bound on the records a power cut drops from the tail.
    pub max_drop_records: u64,
}

impl Default for StorageCampaignConfig {
    fn default() -> Self {
        StorageCampaignConfig {
            component: String::new(),
            horizon: SimDuration::from_millis(10_000),
            mean_uptime: SimDuration::from_millis(1_500),
            torn_chance: 0.35,
            flip_chance: 0.3,
            drop_chance: 0.2,
            max_torn_bytes: 24,
            max_drop_records: 3,
        }
    }
}

/// Generates a randomized storage plan: faults arrive at exponentially-
/// distributed intervals until the horizon, each rolled into a torn write,
/// a bit flip (at a seeded offset), a dropped unsynced tail, or a
/// truncated snapshot per the configured chances. Deterministic in `seed`
/// — the same seed always yields the identical model.
pub fn random_storage_campaign(name: &str, seed: u64, cfg: &StorageCampaignConfig) -> Model {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut b = FaultPlanBuilder::new(name).seed(seed);
    let mut t = 0u64;
    loop {
        let up = rng.exponential(cfg.mean_uptime.as_micros() as f64).max(1.0) as u64;
        t = t.saturating_add(up);
        if t >= cfg.horizon.as_micros() {
            break;
        }
        let at = SimTime::from_micros(t);
        let roll = rng.unit();
        b = if roll < cfg.torn_chance {
            let bytes = rng.range(1, cfg.max_torn_bytes.max(1) + 1);
            b.torn_write(at, &cfg.component, bytes)
        } else if roll < cfg.torn_chance + cfg.flip_chance {
            b.bit_flip(at, &cfg.component, rng.next_u64() >> 16)
        } else if roll < cfg.torn_chance + cfg.flip_chance + cfg.drop_chance {
            let records = rng.range(1, cfg.max_drop_records.max(1) + 1);
            b.drop_unsynced(at, &cfg.component, records)
        } else {
            b.truncate_snapshot(at, &cfg.component)
        };
    }
    b.build()
}

/// Shape of a randomized *upgrade* campaign (the E14 workload): live model
/// upgrades are pushed at a component while crash, state-corruption, and
/// storage faults rage around them — the worst week of operations,
/// compressed. Candidates are drawn round-robin so every configured model
/// gets its turn; the faults draw from the same distributions as the E7,
/// E10, and E13 campaigns.
#[derive(Debug, Clone)]
pub struct UpgradeCampaignConfig {
    /// Middleware component being upgraded (and crashed, and corrupted).
    pub component: String,
    /// Candidate model names pushed by `BeginUpgrade` events, in rotation.
    pub candidates: Vec<String>,
    /// Candidate corruptions: `(state key, corrupt value)` pairs.
    pub corruptions: Vec<(String, String)>,
    /// Campaign horizon: no event fires at or after this instant.
    pub horizon: SimDuration,
    /// Mean time between campaign events (exponential).
    pub mean_gap: SimDuration,
    /// Probability an event is an upgrade push.
    pub upgrade_chance: f64,
    /// Probability an event is a component crash (after the upgrade roll).
    pub crash_chance: f64,
    /// Probability an event is a state corruption (after upgrade and
    /// crash); the remainder is a storage fault (torn write or dropped
    /// unsynced tail, even odds).
    pub corrupt_chance: f64,
    /// Upper bound on the bytes a torn write leaves of the final record.
    pub max_torn_bytes: u64,
}

impl Default for UpgradeCampaignConfig {
    fn default() -> Self {
        UpgradeCampaignConfig {
            component: String::new(),
            candidates: Vec::new(),
            corruptions: Vec::new(),
            horizon: SimDuration::from_millis(10_000),
            mean_gap: SimDuration::from_millis(800),
            upgrade_chance: 0.3,
            crash_chance: 0.25,
            corrupt_chance: 0.2,
            max_torn_bytes: 24,
        }
    }
}

/// Generates a randomized upgrade-under-fire plan: events arrive at
/// exponentially-distributed intervals until the horizon, each rolled into
/// a [`FaultAction::BeginUpgrade`] (candidates rotate), a component crash,
/// a state corruption, or a storage fault per the configured chances.
/// Deterministic in `seed` — the same seed always yields the identical
/// model.
pub fn random_upgrade_campaign(name: &str, seed: u64, cfg: &UpgradeCampaignConfig) -> Model {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut b = FaultPlanBuilder::new(name).seed(seed);
    if cfg.candidates.is_empty() {
        return b.build();
    }
    let mut next_candidate = 0usize;
    let mut t = 0u64;
    loop {
        let gap = rng.exponential(cfg.mean_gap.as_micros() as f64).max(1.0) as u64;
        t = t.saturating_add(gap);
        if t >= cfg.horizon.as_micros() {
            break;
        }
        let at = SimTime::from_micros(t);
        let roll = rng.unit();
        b = if roll < cfg.upgrade_chance {
            let candidate = &cfg.candidates[next_candidate % cfg.candidates.len()];
            next_candidate += 1;
            b.begin_upgrade(at, &cfg.component, candidate)
        } else if roll < cfg.upgrade_chance + cfg.crash_chance {
            b.crash_component(at, &cfg.component)
        } else if roll < cfg.upgrade_chance + cfg.crash_chance + cfg.corrupt_chance
            && !cfg.corruptions.is_empty()
        {
            let pick = (rng.unit() * cfg.corruptions.len() as f64) as usize;
            let (key, value) = &cfg.corruptions[pick.min(cfg.corruptions.len() - 1)];
            b.corrupt_state(at, &cfg.component, key, value)
        } else if rng.chance(0.5) {
            let bytes = rng.range(1, cfg.max_torn_bytes.max(1) + 1);
            b.torn_write(at, &cfg.component, bytes)
        } else {
            let records = rng.range(1, 3);
            b.drop_unsynced(at, &cfg.component, records)
        };
    }
    b.build()
}

/// Shape of a randomized *quorum* campaign (the E15 workload): every fault
/// family the simulator knows — node crashes, full and asymmetric
/// partitions, loss spikes, storage faults on any replica's journal, state
/// corruption, live upgrades — composed against an N-node replica set.
///
/// The generator tracks which nodes are currently incapacitated (crashed or
/// partitioned) and never lets that count exceed `max_faulty`, so the
/// quorum-safety claims ("no quorum-committed update lost with at most a
/// minority faulty") are stated over exactly the schedules the campaign can
/// produce. Non-incapacitating faults — one-direction link outages, loss
/// spikes, journal damage, corruption, upgrades — land on any node at any
/// time.
#[derive(Debug, Clone)]
pub struct QuorumCampaignConfig {
    /// Replica-set members; the first entry is the initial primary.
    pub nodes: Vec<String>,
    /// Candidate corruptions: `(state key, corrupt value)` pairs, applied
    /// by the harness to whichever node is primary when the event fires.
    pub corruptions: Vec<(String, String)>,
    /// Candidate model names pushed by `BeginUpgrade` events, in rotation;
    /// leave empty to exclude live upgrades from the campaign.
    pub candidates: Vec<String>,
    /// Campaign horizon: no event fires at or after this instant.
    pub horizon: SimDuration,
    /// Mean time between campaign events (exponential).
    pub mean_gap: SimDuration,
    /// Mean time an incapacitating fault keeps its victim down
    /// (exponential); also paces heal events for links and loss spikes.
    pub mean_downtime: SimDuration,
    /// Upper bound on simultaneously incapacitated nodes; `0` means a
    /// strict minority of `nodes` (`(n - 1) / 2`).
    pub max_faulty: u64,
    /// Probability an event is a component crash (node process dies).
    pub crash_chance: f64,
    /// Probability an event is a full node partition (after the crash
    /// roll). Crash and partition rolls degrade to one-direction link
    /// outages when the `max_faulty` budget is already spent.
    pub partition_chance: f64,
    /// Probability an event is a one-direction link outage.
    pub link_chance: f64,
    /// Probability an event is a loss spike on a directed link.
    pub loss_chance: f64,
    /// Loss probability installed by a spike (restored to 0 at heal time).
    pub spike_loss: f64,
    /// Probability an event is a state corruption.
    pub corrupt_chance: f64,
    /// Probability an event is an upgrade push; the remainder of the
    /// probability mass is a storage fault (torn write, bit flip, dropped
    /// unsynced tail, or truncated snapshot) on a random node's journal.
    pub upgrade_chance: f64,
    /// Upper bound on the bytes a torn write leaves of the final record.
    pub max_torn_bytes: u64,
}

impl Default for QuorumCampaignConfig {
    fn default() -> Self {
        QuorumCampaignConfig {
            nodes: Vec::new(),
            corruptions: Vec::new(),
            candidates: Vec::new(),
            horizon: SimDuration::from_millis(10_000),
            mean_gap: SimDuration::from_millis(700),
            mean_downtime: SimDuration::from_millis(1_200),
            max_faulty: 0,
            crash_chance: 0.18,
            partition_chance: 0.15,
            link_chance: 0.1,
            loss_chance: 0.12,
            spike_loss: 0.4,
            corrupt_chance: 0.12,
            upgrade_chance: 0.08,
            max_torn_bytes: 24,
        }
    }
}

/// Generates a randomized composed-chaos plan over a replica set: events
/// arrive at exponentially-distributed intervals until the horizon, each
/// rolled into one of the configured fault families against a seeded
/// victim node (or directed node pair). Incapacitating faults (crashes,
/// full partitions) respect the `max_faulty` budget — when it is spent the
/// roll degrades to an asymmetric link outage, which a quorum tolerates.
/// Partitions, link outages, and loss spikes emit their own heal events,
/// clamped inside the horizon. Deterministic in `seed` — the same seed
/// always yields the identical model.
pub fn random_quorum_campaign(name: &str, seed: u64, cfg: &QuorumCampaignConfig) -> Model {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut b = FaultPlanBuilder::new(name).seed(seed);
    let n = cfg.nodes.len();
    if n < 2 {
        return b.build();
    }
    let max_faulty = if cfg.max_faulty == 0 {
        (n as u64 - 1) / 2
    } else {
        cfg.max_faulty
    };
    let horizon = cfg.horizon.as_micros();
    // Virtual instant each node becomes healthy again; a node is
    // incapacitated while its entry exceeds the current event time.
    let mut faulty_until = vec![0u64; n];
    let mut next_candidate = 0usize;
    let mut t = 0u64;
    loop {
        let gap = rng.exponential(cfg.mean_gap.as_micros() as f64).max(1.0) as u64;
        t = t.saturating_add(gap);
        if t >= horizon {
            break;
        }
        let at = SimTime::from_micros(t);
        let down = rng
            .exponential(cfg.mean_downtime.as_micros() as f64)
            .max(1.0) as u64;
        let heal_us = t.saturating_add(down).min(horizon - 1).max(t + 1);
        let heal_at = SimTime::from_micros(heal_us);
        let idx = rng.range(0, n as u64) as usize;
        let node = &cfg.nodes[idx];
        // A second, distinct node for directed-link faults.
        let jdx = (idx + 1 + rng.range(0, n as u64 - 1) as usize) % n;
        let to = &cfg.nodes[jdx];
        let currently_faulty = faulty_until.iter().filter(|&&u| u > t).count() as u64;
        let can_incap = currently_faulty < max_faulty && faulty_until[idx] <= t;
        let roll = rng.unit();
        let c1 = cfg.crash_chance;
        let c2 = c1 + cfg.partition_chance;
        let c3 = c2 + cfg.link_chance;
        let c4 = c3 + cfg.loss_chance;
        let c5 = c4 + cfg.corrupt_chance;
        let c6 = c5 + cfg.upgrade_chance;
        b = if roll < c1 && can_incap {
            faulty_until[idx] = heal_us;
            b.crash_component(at, node)
        } else if roll < c2 && can_incap {
            faulty_until[idx] = heal_us;
            b.partition(at, node).heal_node(heal_at, node)
        } else if roll < c3 {
            // Also the degraded form of crash/partition rolls once the
            // minority budget is spent: one direction of one link.
            b.link_down(at, node, to).link_up(heal_at, node, to)
        } else if roll < c4 {
            b.loss_spike(at, node, to, cfg.spike_loss)
                .loss_spike(heal_at, node, to, 0.0)
        } else if roll < c5 && !cfg.corruptions.is_empty() {
            let pick = (rng.unit() * cfg.corruptions.len() as f64) as usize;
            let (key, value) = &cfg.corruptions[pick.min(cfg.corruptions.len() - 1)];
            b.corrupt_state(at, node, key, value)
        } else if roll < c6 && !cfg.candidates.is_empty() {
            let candidate = &cfg.candidates[next_candidate % cfg.candidates.len()];
            next_candidate += 1;
            b.begin_upgrade(at, node, candidate)
        } else {
            let r2 = rng.unit();
            if r2 < 0.4 {
                let bytes = rng.range(1, cfg.max_torn_bytes.max(1) + 1);
                b.torn_write(at, node, bytes)
            } else if r2 < 0.75 {
                b.bit_flip(at, node, rng.next_u64() >> 16)
            } else if r2 < 0.9 {
                b.drop_unsynced(at, node, rng.range(1, 3))
            } else {
                b.truncate_snapshot(at, node)
            }
        };
    }
    b.build()
}

/// Executes a compiled [`FaultPlan`] against the simulation substrate as
/// virtual time advances.
///
/// The driver keeps a cursor into the time-sorted event list; each call to
/// [`FaultDriver::advance_to`] consumes every event due at or before `now`.
/// Resource events are applied to the [`ResourceHub`]; network events are
/// applied to the [`Network`] when one is supplied and are skipped
/// otherwise. Middleware-level events are returned to the caller.
#[derive(Debug, Clone)]
pub struct FaultDriver {
    events: Vec<FaultEvent>,
    next: usize,
}

impl FaultDriver {
    /// Builds a driver over a compiled plan.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultDriver {
            events: plan.events.clone(),
            next: 0,
        }
    }

    /// Compiles `model` and builds a driver in one step.
    pub fn from_model(model: &Model) -> Result<Self, FaultError> {
        Ok(Self::new(&FaultPlan::from_model(model)?))
    }

    /// Events not yet consumed.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }

    /// Consumes every event due at or before `now`: resource and network
    /// actions are applied here, and the middleware-level actions (every
    /// other kind) are returned in plan order for the caller to act on.
    pub fn advance_to(
        &mut self,
        now: SimTime,
        hub: &mut ResourceHub,
        net: Option<&Network>,
    ) -> Vec<FaultAction> {
        let mut due = Vec::new();
        while let Some(e) = self.events.get(self.next) {
            if e.at > now {
                break;
            }
            if !apply_action(&e.action, hub, net) {
                due.push(e.action.clone());
            }
            self.next += 1;
        }
        due
    }

    /// The firing instant of the next pending event, if any — lets a
    /// harness align its virtual clock with the campaign.
    pub fn next_at(&self) -> Option<SimTime> {
        self.events.get(self.next).map(|e| e.at)
    }
}

/// Applies a resource or network action to the substrate. Returns `false`,
/// untouched, for the middleware-level actions only a harness can apply.
fn apply_action(action: &FaultAction, hub: &mut ResourceHub, net: Option<&Network>) -> bool {
    match action {
        FaultAction::Crash { resource } => {
            hub.set_healthy(resource, false);
        }
        FaultAction::Heal { resource } => {
            hub.set_healthy(resource, true);
            hub.degrade(resource, SimDuration::ZERO);
        }
        FaultAction::Degrade { resource, extra } => {
            hub.degrade(resource, *extra);
        }
        FaultAction::LinkDown { from, to } => {
            if let Some(n) = net {
                n.set_link_up(from, to, false);
            }
        }
        FaultAction::LinkUp { from, to } => {
            if let Some(n) = net {
                n.set_link_up(from, to, true);
            }
        }
        FaultAction::LossSpike { from, to, loss } => {
            if let Some(n) = net {
                n.set_link_loss(from, to, *loss);
            }
        }
        FaultAction::Partition { node } => {
            if let Some(n) = net {
                n.partition_node(node);
            }
        }
        FaultAction::HealNode { node } => {
            if let Some(n) = net {
                n.heal_node(node);
            }
        }
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::net::Link;
    use crate::resource::{Args, Outcome};

    fn hub() -> ResourceHub {
        let mut hub = ResourceHub::new(3);
        hub.register(
            "svc",
            LatencyModel::fixed_ms(2),
            SimDuration::from_millis(100),
            Box::new(|_: &str, _: &Args| Outcome::ok()),
        );
        hub
    }

    #[test]
    fn metamodel_and_built_plans_conform() {
        let mm = fault_metamodel();
        let model = FaultPlanBuilder::new("p")
            .crash(SimTime::from_millis(10), "svc")
            .heal(SimTime::from_millis(20), "svc")
            .degrade(SimTime::from_millis(30), "svc", SimDuration::from_millis(5))
            .link_down(SimTime::from_millis(40), "a", "b")
            .loss_spike(SimTime::from_millis(50), "a", "b", 0.5)
            .partition(SimTime::from_millis(60), "a")
            .heal_node(SimTime::from_millis(70), "a")
            .link_up(SimTime::from_millis(80), "a", "b")
            .build();
        conformance::check(&model, &mm).unwrap();
        let plan = FaultPlan::from_model(&model).unwrap();
        assert_eq!(plan.len(), 8);
        assert!(plan.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn events_sort_by_time_with_stable_ties() {
        let model = FaultPlanBuilder::new("p")
            .heal(SimTime::from_millis(20), "svc")
            .crash(SimTime::from_millis(10), "svc")
            .degrade(SimTime::from_millis(10), "svc", SimDuration::from_millis(1))
            .build();
        let plan = FaultPlan::from_model(&model).unwrap();
        assert!(matches!(plan.events()[0].action, FaultAction::Crash { .. }));
        assert!(matches!(
            plan.events()[1].action,
            FaultAction::Degrade { .. }
        ));
        assert!(matches!(plan.events()[2].action, FaultAction::Heal { .. }));
    }

    #[test]
    fn link_event_without_peer_rejected() {
        let mut model = FaultPlanBuilder::new("p").build();
        let plan = model.all_of_class("FaultPlan")[0];
        let e = model.create("FaultEvent");
        model.set_attr(e, "atUs", Value::from(0));
        model.set_attr(e, "kind", Value::enumeration("FaultKind", "LinkDown"));
        model.set_attr(e, "target", Value::from("a"));
        model.add_ref(plan, "events", e);
        let err = FaultPlan::from_model(&model).unwrap_err();
        assert!(matches!(err, FaultError::BadPlan(m) if m.contains("needs a peer")));
    }

    #[test]
    fn driver_applies_due_events_in_order() {
        let model = FaultPlanBuilder::new("p")
            .crash(SimTime::from_millis(10), "svc")
            .heal(SimTime::from_millis(30), "svc")
            .build();
        let mut driver = FaultDriver::from_model(&model).unwrap();
        let mut hub = hub();
        // Resource events are applied to the hub, never returned.
        assert!(driver
            .advance_to(SimTime::from_millis(5), &mut hub, None)
            .is_empty());
        assert_eq!(driver.remaining(), 2);
        assert!(hub.is_healthy("svc"));
        assert!(driver
            .advance_to(SimTime::from_millis(10), &mut hub, None)
            .is_empty());
        assert_eq!(driver.remaining(), 1);
        assert!(!hub.is_healthy("svc"));
        assert!(driver
            .advance_to(SimTime::from_millis(100), &mut hub, None)
            .is_empty());
        assert!(hub.is_healthy("svc"));
        assert_eq!(driver.remaining(), 0);
    }

    #[test]
    fn heal_clears_degradation() {
        let model = FaultPlanBuilder::new("p")
            .degrade(SimTime::from_millis(1), "svc", SimDuration::from_millis(40))
            .heal(SimTime::from_millis(2), "svc")
            .build();
        let mut driver = FaultDriver::from_model(&model).unwrap();
        let mut hub = hub();
        driver.advance_to(SimTime::from_millis(1), &mut hub, None);
        let (_, cost) = hub.invoke("svc", "op", &Args::new());
        assert_eq!(cost, SimDuration::from_millis(42));
        driver.advance_to(SimTime::from_millis(2), &mut hub, None);
        let (_, cost) = hub.invoke("svc", "op", &Args::new());
        assert_eq!(cost, SimDuration::from_millis(2));
    }

    #[test]
    fn network_events_apply_through_driver() {
        let model = FaultPlanBuilder::new("p")
            .link_down(SimTime::from_millis(10), "a", "b")
            .link_up(SimTime::from_millis(20), "a", "b")
            .build();
        let mut driver = FaultDriver::from_model(&model).unwrap();
        let mut hub = hub();
        let net = Network::new(Link::default(), 1);
        driver.advance_to(SimTime::from_millis(10), &mut hub, Some(&net));
        assert_eq!(net.transmit("a", "b"), crate::net::SendOutcome::Dropped);
        driver.advance_to(SimTime::from_millis(20), &mut hub, Some(&net));
        assert!(matches!(
            net.transmit("a", "b"),
            crate::net::SendOutcome::Scheduled(_)
        ));
    }

    #[test]
    fn component_events_are_returned_in_plan_order() {
        let model = FaultPlanBuilder::new("p")
            .crash_component(SimTime::from_millis(10), "broker")
            .stall_component(SimTime::from_millis(20), "controller")
            .crash(SimTime::from_millis(30), "svc")
            .build();
        conformance::check(&model, &fault_metamodel()).unwrap();
        let plan = FaultPlan::from_model(&model).unwrap();

        let mut driver = FaultDriver::new(&plan);
        assert_eq!(driver.next_at(), Some(SimTime::from_millis(10)));
        let mut hub = hub();
        let due = driver.advance_to(SimTime::from_millis(25), &mut hub, None);
        assert_eq!(
            due,
            vec![
                FaultAction::CrashComponent {
                    component: "broker".into()
                },
                FaultAction::StallComponent {
                    component: "controller".into()
                },
            ]
        );
        assert_eq!(driver.remaining(), 1);
        assert!(hub.is_healthy("svc"));
        // The resource event is applied to the hub and never returned.
        assert!(driver
            .advance_to(SimTime::from_millis(30), &mut hub, None)
            .is_empty());
        assert!(!hub.is_healthy("svc"));
        assert_eq!(driver.next_at(), None);
    }

    #[test]
    fn random_crash_campaigns_are_deterministic_and_component_only() {
        let cfg = CrashCampaignConfig {
            components: vec!["broker".into()],
            horizon: SimDuration::from_millis(60_000),
            ..CrashCampaignConfig::default()
        };
        let a = random_crash_campaign("c", 11, &cfg);
        let b = random_crash_campaign("c", 11, &cfg);
        assert_eq!(mddsm_meta::text::write(&a), mddsm_meta::text::write(&b));
        conformance::check(&a, &fault_metamodel()).unwrap();
        let plan = FaultPlan::from_model(&a).unwrap();
        assert!(!plan.is_empty(), "default config produces events");
        assert!(plan.events().iter().all(|e| matches!(
            e.action,
            FaultAction::CrashComponent { .. } | FaultAction::StallComponent { .. }
        )));
        for e in plan.events() {
            assert!(e.at.as_micros() < cfg.horizon.as_micros());
        }
        let c = random_crash_campaign("c", 12, &cfg);
        assert_ne!(mddsm_meta::text::write(&a), mddsm_meta::text::write(&c));
    }

    #[test]
    fn failover_events_are_returned_to_the_caller() {
        let model = FaultPlanBuilder::new("p")
            .failover_to(SimTime::from_millis(10), "broker.a", "broker.b")
            .build();
        conformance::check(&model, &fault_metamodel()).unwrap();
        let plan = FaultPlan::from_model(&model).unwrap();

        let mut driver = FaultDriver::new(&plan);
        let mut hub = hub();
        assert_eq!(
            driver.advance_to(SimTime::from_millis(10), &mut hub, None),
            vec![FaultAction::FailoverTo {
                component: "broker.a".into(),
                standby: "broker.b".into(),
            }]
        );

        // A FailoverTo without a standby peer does not compile.
        let mut bad = FaultPlanBuilder::new("p").build();
        let p = bad.all_of_class("FaultPlan")[0];
        let e = bad.create("FaultEvent");
        bad.set_attr(e, "atUs", Value::from(0));
        bad.set_attr(e, "kind", Value::enumeration("FaultKind", "FailoverTo"));
        bad.set_attr(e, "target", Value::from("broker.a"));
        bad.add_ref(p, "events", e);
        let err = FaultPlan::from_model(&bad).unwrap_err();
        assert!(matches!(err, FaultError::BadPlan(m) if m.contains("needs a peer")));
    }

    #[test]
    fn random_failover_campaigns_are_deterministic_and_self_healing() {
        let cfg = FailoverCampaignConfig {
            node: "a".into(),
            component: "broker.a".into(),
            peers: vec!["b".into()],
            horizon: SimDuration::from_millis(60_000),
            ..FailoverCampaignConfig::default()
        };
        let a = random_failover_campaign("f", 5, &cfg);
        let b = random_failover_campaign("f", 5, &cfg);
        assert_eq!(mddsm_meta::text::write(&a), mddsm_meta::text::write(&b));
        conformance::check(&a, &fault_metamodel()).unwrap();
        let plan = FaultPlan::from_model(&a).unwrap();
        assert!(!plan.is_empty(), "default config produces events");
        // Every partition is paired with a later heal, and loss spikes come
        // in onset/reset pairs per directed link; crashes have no heal.
        let mut parts = 0i64;
        for e in plan.events() {
            assert!(e.at.as_micros() < cfg.horizon.as_micros());
            match &e.action {
                FaultAction::Partition { node } => {
                    assert_eq!(node, "a");
                    parts += 1;
                }
                FaultAction::HealNode { node } => {
                    assert_eq!(node, "a");
                    parts -= 1;
                }
                FaultAction::LossSpike { from, to, .. } => {
                    assert!(from == "a" || to == "a");
                }
                FaultAction::CrashComponent { component } => {
                    assert_eq!(component, "broker.a");
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(parts, 0, "every partition heals inside the horizon");
        let c = random_failover_campaign("f", 6, &cfg);
        assert_ne!(mddsm_meta::text::write(&a), mddsm_meta::text::write(&c));
    }

    #[test]
    fn corrupt_state_events_are_returned_to_the_caller() {
        let model = FaultPlanBuilder::new("p")
            .corrupt_state(SimTime::from_millis(10), "broker.a", "opens", "-7")
            .build();
        conformance::check(&model, &fault_metamodel()).unwrap();
        let plan = FaultPlan::from_model(&model).unwrap();

        let mut driver = FaultDriver::new(&plan);
        let mut hub = hub();
        assert_eq!(
            driver.advance_to(SimTime::from_millis(10), &mut hub, None),
            vec![FaultAction::CorruptState {
                component: "broker.a".into(),
                key: "opens".into(),
                value: "-7".into(),
            }]
        );

        // A CorruptState without a `key=value` peer does not compile.
        let mut bad = FaultPlanBuilder::new("p").build();
        let p = bad.all_of_class("FaultPlan")[0];
        let e = bad.create("FaultEvent");
        bad.set_attr(e, "atUs", Value::from(0));
        bad.set_attr(e, "kind", Value::enumeration("FaultKind", "CorruptState"));
        bad.set_attr(e, "target", Value::from("broker.a"));
        bad.set_attr(e, "peer", Value::from("no-equals-sign"));
        bad.add_ref(p, "events", e);
        let err = FaultPlan::from_model(&bad).unwrap_err();
        assert!(matches!(err, FaultError::BadPlan(m) if m.contains("key=value")));
    }

    #[test]
    fn random_corruption_campaigns_are_deterministic_and_well_formed() {
        let cfg = CorruptionCampaignConfig {
            component: "broker.a".into(),
            corruptions: vec![
                ("opens".into(), "-3".into()),
                ("brownout_mode".into(), "bogus".into()),
            ],
            horizon: SimDuration::from_millis(60_000),
            ..CorruptionCampaignConfig::default()
        };
        let a = random_corruption_campaign("x", 7, &cfg);
        let b = random_corruption_campaign("x", 7, &cfg);
        assert_eq!(mddsm_meta::text::write(&a), mddsm_meta::text::write(&b));
        conformance::check(&a, &fault_metamodel()).unwrap();
        let plan = FaultPlan::from_model(&a).unwrap();
        assert!(!plan.is_empty(), "default config produces events");
        for e in plan.events() {
            assert!(e.at.as_micros() < cfg.horizon.as_micros());
            match &e.action {
                FaultAction::CorruptState {
                    component,
                    key,
                    value,
                } => {
                    assert_eq!(component, "broker.a");
                    assert!(cfg.corruptions.iter().any(|(k, v)| k == key && v == value));
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        let c = random_corruption_campaign("x", 8, &cfg);
        assert_ne!(mddsm_meta::text::write(&a), mddsm_meta::text::write(&c));
        // No corruption pairs configured: an empty (but valid) plan.
        let empty = random_corruption_campaign(
            "x",
            7,
            &CorruptionCampaignConfig {
                component: "broker.a".into(),
                ..CorruptionCampaignConfig::default()
            },
        );
        assert!(FaultPlan::from_model(&empty).unwrap().is_empty());
    }

    #[test]
    fn storage_events_are_returned_with_their_damage() {
        let model = FaultPlanBuilder::new("p")
            .torn_write(SimTime::from_millis(10), "broker.a", 7)
            .bit_flip(SimTime::from_millis(20), "broker.a", 12345)
            .drop_unsynced(SimTime::from_millis(30), "broker.a", 2)
            .truncate_snapshot(SimTime::from_millis(40), "broker.a")
            .build();
        conformance::check(&model, &fault_metamodel()).unwrap();
        let plan = FaultPlan::from_model(&model).unwrap();
        assert!(plan.events().iter().all(|e| e.action.is_storage()));

        let mut driver = FaultDriver::new(&plan);
        let mut hub = hub();
        let due = driver.advance_to(SimTime::from_millis(40), &mut hub, None);
        let c = || "broker.a".to_string();
        assert_eq!(
            due,
            vec![
                FaultAction::TornWrite {
                    component: c(),
                    bytes: 7
                },
                FaultAction::BitFlip {
                    component: c(),
                    offset: 12345
                },
                FaultAction::DropUnsynced {
                    component: c(),
                    records: 2
                },
                FaultAction::TruncateSnapshot { component: c() },
            ]
        );
        // Each storage action damages bytes through its transform; no
        // other action does.
        let journal = b"v1 00000000 snap a=1 b=2\nv1 00000000 cmd x\n";
        assert_eq!(due[0].damage(journal), Some(tear_tail(journal, 7)));
        assert_eq!(due[1].damage(journal), Some(flip_bit(journal, 12345)));
        assert_eq!(due[2].damage(journal), Some(drop_tail_records(journal, 2)));
        assert_eq!(
            due[3].damage(journal),
            Some(truncate_newest_snapshot(journal))
        );
        assert_ne!(due[3].damage(journal).unwrap(), journal.to_vec());
        let crash = FaultAction::CrashComponent { component: c() };
        assert_eq!(crash.damage(journal), None);

        // A storage event with a malformed parameter does not compile.
        let mut bad = FaultPlanBuilder::new("p").build();
        let p = bad.all_of_class("FaultPlan")[0];
        let e = bad.create("FaultEvent");
        bad.set_attr(e, "atUs", Value::from(0));
        bad.set_attr(e, "kind", Value::enumeration("FaultKind", "BitFlip"));
        bad.set_attr(e, "target", Value::from("broker.a"));
        bad.set_attr(e, "peer", Value::from("offset=lots"));
        bad.add_ref(p, "events", e);
        let err = FaultPlan::from_model(&bad).unwrap_err();
        assert!(matches!(err, FaultError::BadPlan(m) if m.contains("offset=<u64>")));
    }

    #[test]
    fn tear_tail_always_leaves_a_partial_final_record() {
        let bytes = b"op 1 int x 1\nop 2 int x 2\n";
        // Even a generous keep never preserves the whole final line.
        for keep in 0..64u64 {
            let torn = tear_tail(bytes, keep);
            assert!(torn.len() < bytes.len(), "keep={keep}");
            assert!(torn.starts_with(b"op 1 int x 1\n"), "keep={keep}");
            assert!(!torn.ends_with(b"\n") || torn == b"op 1 int x 1\n");
        }
        assert_eq!(tear_tail(bytes, 3), b"op 1 int x 1\nop ".to_vec());
        assert_eq!(tear_tail(b"", 5), Vec::<u8>::new());
        // A single-line journal tears to a prefix of that line.
        assert_eq!(tear_tail(b"op 1 int x 1\n", 4), b"op 1".to_vec());
    }

    #[test]
    fn flip_bit_changes_exactly_one_non_newline_byte() {
        let bytes = b"op 1 int x 1\nop 2 int x 2\n";
        for offset in [0u64, 5, 12, 13, 25, 26, 1_000_003] {
            let flipped = flip_bit(bytes, offset);
            assert_eq!(flipped.len(), bytes.len());
            let diffs: Vec<usize> = (0..bytes.len())
                .filter(|&i| flipped[i] != bytes[i])
                .collect();
            assert_eq!(diffs.len(), 1, "offset={offset}");
            assert_ne!(bytes[diffs[0]], b'\n', "newlines are never the victim");
            assert_eq!(flipped[diffs[0]], bytes[diffs[0]] ^ 0x01);
        }
        assert!(flip_bit(b"", 9).is_empty());
    }

    #[test]
    fn drop_tail_records_cuts_cleanly() {
        let bytes = b"a 1\nb 2\nc 3\n";
        assert_eq!(drop_tail_records(bytes, 0), bytes.to_vec());
        assert_eq!(drop_tail_records(bytes, 1), b"a 1\nb 2\n".to_vec());
        assert_eq!(drop_tail_records(bytes, 2), b"a 1\n".to_vec());
        assert_eq!(drop_tail_records(bytes, 99), Vec::<u8>::new());
    }

    #[test]
    fn truncate_newest_snapshot_halves_the_last_snap_line() {
        // Legacy and CRC-framed snap lines are both recognized; only the
        // newest one is cut, and the line count is preserved.
        let bytes =
            b"snap 1 0 0 0 k int 1\nop 2 int x 2\nsnap 2 0 0 0 k int 1 x int 2\nop 3 int x 3\n";
        let cut = truncate_newest_snapshot(bytes);
        let lines: Vec<&[u8]> = cut.split_inclusive(|&b| b == b'\n').collect();
        assert_eq!(lines.len(), 4, "line count preserved");
        assert_eq!(lines[0], b"snap 1 0 0 0 k int 1\n", "older snap untouched");
        assert!(lines[2].len() < b"snap 2 0 0 0 k int 1 x int 2\n".len());
        assert!(lines[2].ends_with(b"\n"));
        assert_eq!(lines[3], b"op 3 int x 3\n", "tail untouched");
        // Framed dialect: the v1-prefixed snap line is found too.
        let framed = b"v1 0123abcd op 1 int x 1\nv1 89abcdef snap 1 0 0 0 x int 1\n";
        let cut = truncate_newest_snapshot(framed);
        assert!(cut.len() < framed.len());
        assert!(cut.ends_with(b"\n"));
        assert!(cut.starts_with(b"v1 0123abcd op 1 int x 1\n"));
        // No snapshot: unchanged.
        assert_eq!(
            truncate_newest_snapshot(b"op 1 int x 1\n"),
            b"op 1 int x 1\n".to_vec()
        );
    }

    #[test]
    fn random_storage_campaigns_are_deterministic_and_storage_only() {
        let cfg = StorageCampaignConfig {
            component: "broker.a".into(),
            horizon: SimDuration::from_millis(60_000),
            ..StorageCampaignConfig::default()
        };
        let a = random_storage_campaign("s", 21, &cfg);
        let b = random_storage_campaign("s", 21, &cfg);
        assert_eq!(mddsm_meta::text::write(&a), mddsm_meta::text::write(&b));
        conformance::check(&a, &fault_metamodel()).unwrap();
        let plan = FaultPlan::from_model(&a).unwrap();
        assert!(!plan.is_empty(), "default config produces events");
        for e in plan.events() {
            assert!(e.at.as_micros() < cfg.horizon.as_micros());
            assert!(e.action.is_storage(), "{:?}", e.action);
            match &e.action {
                FaultAction::TornWrite { component, bytes } => {
                    assert_eq!(component, "broker.a");
                    assert!(*bytes >= 1 && *bytes <= cfg.max_torn_bytes);
                }
                FaultAction::DropUnsynced { component, records } => {
                    assert_eq!(component, "broker.a");
                    assert!(*records >= 1 && *records <= cfg.max_drop_records);
                }
                FaultAction::BitFlip { component, .. }
                | FaultAction::TruncateSnapshot { component } => {
                    assert_eq!(component, "broker.a");
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        let c = random_storage_campaign("s", 22, &cfg);
        assert_ne!(mddsm_meta::text::write(&a), mddsm_meta::text::write(&c));
    }

    #[test]
    fn random_upgrade_campaigns_interleave_upgrades_with_faults() {
        let cfg = UpgradeCampaignConfig {
            component: "broker.a".into(),
            candidates: vec!["v2".into(), "v3".into()],
            corruptions: vec![("svc_tier".into(), "mystery".into())],
            horizon: SimDuration::from_millis(60_000),
            ..UpgradeCampaignConfig::default()
        };
        let a = random_upgrade_campaign("u", 31, &cfg);
        let b = random_upgrade_campaign("u", 31, &cfg);
        assert_eq!(mddsm_meta::text::write(&a), mddsm_meta::text::write(&b));
        conformance::check(&a, &fault_metamodel()).unwrap();
        let plan = FaultPlan::from_model(&a).unwrap();
        let mut upgrades = 0;
        let mut faults = 0;
        let mut candidates_seen = std::collections::BTreeSet::new();
        for e in plan.events() {
            assert!(e.at.as_micros() < cfg.horizon.as_micros());
            match &e.action {
                FaultAction::BeginUpgrade {
                    component,
                    candidate,
                } => {
                    assert_eq!(component, "broker.a");
                    candidates_seen.insert(candidate.clone());
                    upgrades += 1;
                }
                FaultAction::CrashComponent { .. }
                | FaultAction::CorruptState { .. }
                | FaultAction::TornWrite { .. }
                | FaultAction::DropUnsynced { .. } => faults += 1,
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert!(upgrades > 0, "campaign pushes upgrades");
        assert!(faults > 0, "campaign interleaves faults");
        assert_eq!(
            candidates_seen.len(),
            2,
            "round-robin reaches every candidate"
        );
        // Without candidates there is nothing to upgrade: empty plan.
        let empty = random_upgrade_campaign(
            "u",
            31,
            &UpgradeCampaignConfig {
                candidates: Vec::new(),
                ..cfg.clone()
            },
        );
        assert!(FaultPlan::from_model(&empty).unwrap().is_empty());
    }

    #[test]
    fn random_quorum_campaigns_stay_inside_the_minority_budget() {
        let nodes: Vec<String> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = QuorumCampaignConfig {
            nodes: nodes.clone(),
            corruptions: vec![("tier".into(), "gamma".into())],
            candidates: vec!["v2".into()],
            horizon: SimDuration::from_millis(120_000),
            ..QuorumCampaignConfig::default()
        };
        let a = random_quorum_campaign("q", 17, &cfg);
        let b = random_quorum_campaign("q", 17, &cfg);
        assert_eq!(mddsm_meta::text::write(&a), mddsm_meta::text::write(&b));
        conformance::check(&a, &fault_metamodel()).unwrap();
        let c = random_quorum_campaign("q", 18, &cfg);
        assert_ne!(mddsm_meta::text::write(&a), mddsm_meta::text::write(&c));

        let known: std::collections::BTreeSet<&str> = nodes.iter().map(|s| s.as_str()).collect();
        let mut families = std::collections::BTreeSet::new();
        // The minority budget covers crashes too, but crash durations are
        // internal to the generator; partitions carry their heal events, so
        // the partition overlap bound is externally checkable.
        let mut partitioned = std::collections::BTreeSet::new();
        let mut max_partitioned = 0usize;
        for seed in 0..8u64 {
            let plan = FaultPlan::from_model(&random_quorum_campaign("q", seed, &cfg)).unwrap();
            assert!(!plan.is_empty(), "seed {seed} produces events");
            partitioned.clear();
            for e in plan.events() {
                assert!(e.at.as_micros() < cfg.horizon.as_micros() + cfg.horizon.as_micros());
                match &e.action {
                    FaultAction::CrashComponent { component } => {
                        assert!(known.contains(component.as_str()));
                        families.insert("crash");
                    }
                    FaultAction::Partition { node } => {
                        assert!(known.contains(node.as_str()));
                        assert!(
                            partitioned.insert(node.clone()),
                            "node partitioned while already partitioned"
                        );
                        max_partitioned = max_partitioned.max(partitioned.len());
                        families.insert("partition");
                    }
                    FaultAction::HealNode { node } => {
                        partitioned.remove(node);
                    }
                    FaultAction::LinkDown { from, to } | FaultAction::LinkUp { from, to } => {
                        assert!(known.contains(from.as_str()) && known.contains(to.as_str()));
                        assert_ne!(from, to, "link faults connect distinct nodes");
                        families.insert("link");
                    }
                    FaultAction::LossSpike { from, to, .. } => {
                        assert!(known.contains(from.as_str()) && known.contains(to.as_str()));
                        assert_ne!(from, to);
                        families.insert("loss");
                    }
                    FaultAction::CorruptState { key, value, .. } => {
                        assert_eq!((key.as_str(), value.as_str()), ("tier", "gamma"));
                        families.insert("corrupt");
                    }
                    FaultAction::BeginUpgrade { candidate, .. } => {
                        assert_eq!(candidate, "v2");
                        families.insert("upgrade");
                    }
                    FaultAction::TornWrite { component, .. }
                    | FaultAction::BitFlip { component, .. }
                    | FaultAction::DropUnsynced { component, .. }
                    | FaultAction::TruncateSnapshot { component } => {
                        assert!(known.contains(component.as_str()));
                        families.insert("storage");
                    }
                    other => panic!("unexpected action {other:?}"),
                }
            }
            // Every partition heals before the horizon.
            assert!(
                partitioned.is_empty(),
                "seed {seed} leaves a partition open"
            );
        }
        assert!(
            max_partitioned <= 2,
            "never more than a minority of 5 simultaneously partitioned"
        );
        assert!(
            families.len() >= 6,
            "campaign interleaves the fault families, saw {families:?}"
        );
        // Fewer than two nodes cannot form a quorum: empty plan.
        let solo = random_quorum_campaign(
            "q",
            17,
            &QuorumCampaignConfig {
                nodes: vec!["a".into()],
                ..cfg.clone()
            },
        );
        assert!(FaultPlan::from_model(&solo).unwrap().is_empty());
    }

    #[test]
    fn random_campaigns_are_deterministic_and_conform() {
        let cfg = CampaignConfig {
            resources: vec!["svc".into(), "db".into()],
            ..CampaignConfig::default()
        };
        let a = random_campaign("c", 99, &cfg);
        let b = random_campaign("c", 99, &cfg);
        assert_eq!(mddsm_meta::text::write(&a), mddsm_meta::text::write(&b));
        conformance::check(&a, &fault_metamodel()).unwrap();
        let plan = FaultPlan::from_model(&a).unwrap();
        assert!(!plan.is_empty(), "default config produces events");
        assert_eq!(plan.seed, 99);
        // Crashes and heals alternate per resource, all inside the horizon.
        for e in plan.events() {
            assert!(e.at.as_micros() < cfg.horizon.as_micros());
        }
        let c = random_campaign("c", 100, &cfg);
        assert_ne!(mddsm_meta::text::write(&a), mddsm_meta::text::write(&c));
    }
}
