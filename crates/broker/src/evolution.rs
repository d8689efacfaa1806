//! Live model evolution: hot upgrade of a running broker's model under
//! traffic.
//!
//! The paper's Synthesis layer already names the pieces — a model
//! comparator producing a change list and a change interpreter enacting
//! it — and the models@runtime line (KMF, arXiv:1405.6817) argues runtime
//! models must be cheap to clone and swap precisely so adaptation happens
//! *live*. This module composes those pieces with every robustness
//! substrate built so far into a staged, crash-consistent upgrade
//! protocol:
//!
//! 1. **Gate** — the candidate runs the full load-time validation
//!    pipeline (conformance, eager expression parsing, monitor
//!    compilation, static analysis), and the [`mddsm_meta::diff`] change
//!    list against the live model is classified into [`DeltaClass`]es; a
//!    breaking delta is the typed [`BrokerError::UpgradeRefused`] before
//!    anything moves.
//! 2. **Shadow** — the candidate's compiled monitors and policies are
//!    evaluated side-by-side with the live model over real calls
//!    ([`LiveUpgrade::observe_call`]), counting divergences; the cutover
//!    refuses while the evidence is thin or divergent.
//! 3. **Cutover** — one atomic, journaled
//!    [`JournalRecord::Upgrade`](crate::journal::JournalRecord::Upgrade)
//!    line carries the new model version plus every declared state
//!    migration as embedded LSN'd ops
//!    ([`GenericBroker::commit_upgrade`]). The torn-tail replay policy
//!    keeps or drops that line wholesale, so a crash anywhere recovers to
//!    pure old-model or pure new-model state — never a hybrid — and the
//!    record ships to the standby like any other, so failover mid-upgrade
//!    resolves to one consistent version under epoch fencing.
//! 4. **Probation** — a window of post-cutover ticks in which a monitor
//!    trip or a deepened brownout raises
//!    [`SupervisorDecision::RollbackUpgrade`](crate::supervisor::SupervisorDecision::RollbackUpgrade)
//!    and [`LiveUpgrade::rollback`] restores the pre-upgrade model and
//!    the captured pre-values of every migration-touched key — through
//!    the same journaled cutover primitive, so the rollback is exactly as
//!    durable as the upgrade. Domain writes committed during probation
//!    survive: each was monitor-verified at commit, and only the
//!    migration-touched keys are restored.

use crate::admission::AdmissionController;
use crate::engine::{GenericBroker, RecoveryReport};
use crate::journal;
use crate::model::read;
use crate::monitor::{owner_key, period_key, trip_key, MonitorSet, TRIP_COUNTER_KEY};
use crate::pred::Pred;
use crate::state::{SnapValue, StateManager};
use crate::supervisor::Supervisor;
use crate::{BrokerError, Result};
use mddsm_meta::diff::{diff, Change, ChangeList};
use mddsm_meta::model::Model;
use mddsm_sim::ResourceHub;
use std::collections::{BTreeMap, BTreeSet};

/// How one model delta affects a running broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaClass {
    /// Swappable in place: the running state needs no change (policies,
    /// monitors, brownout modes, action tuning, new handlers).
    Compatible,
    /// Swappable only together with journaled state migrations (declared
    /// `StateMigration` objects, admission classes whose cells must be
    /// seeded or retired).
    StateMigrating,
    /// Not swappable live: the change removes or re-keys part of the
    /// serving interface (a handler, its selector or kind, the layer
    /// itself) out from under in-flight callers — a typed refusal.
    Breaking,
}

/// Classifies every change in a [`ChangeList`] (as produced by
/// [`mddsm_meta::diff::diff`] between the live and candidate models),
/// pairing each class with a human-readable description of the change.
pub fn classify_changes(changes: &ChangeList) -> Vec<(DeltaClass, String)> {
    changes
        .iter()
        .map(|c| {
            let subject = c.subject();
            let class = match (subject.class.as_str(), c) {
                // The layer object is the serving identity: reshaping it
                // breaks every caller's addressing.
                ("BrokerLayer", _) => DeltaClass::Breaking,
                // Removing a handler — or changing what it answers to —
                // pulls the interface out from under in-flight traffic.
                ("Handler", Change::Delete { .. }) => DeltaClass::Breaking,
                ("Handler", Change::SetAttr { attr, .. })
                    if attr == "selector" || attr == "kind" =>
                {
                    DeltaClass::Breaking
                }
                // Declared migrations and admission classes carry state:
                // their deltas must ride inside the journaled cutover.
                ("StateMigration", _) => DeltaClass::StateMigrating,
                ("AdmissionClass", Change::Create { .. })
                | ("AdmissionClass", Change::Delete { .. }) => DeltaClass::StateMigrating,
                _ => DeltaClass::Compatible,
            };
            (class, format!("{c:?}"))
        })
        .collect()
}

/// Where an in-flight [`LiveUpgrade`] currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradePhase {
    /// Gated and classified; the candidate is being evaluated shadow-mode
    /// against real calls.
    Shadow,
    /// Cut over; a regression in this window triggers rollback.
    Probation,
    /// Probation passed: the upgrade is final.
    Committed,
    /// Rolled back to the pre-upgrade model and state.
    RolledBack,
}

/// How a settled upgrade ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradeOutcome {
    /// The candidate survived probation and is the live model.
    Committed,
    /// The candidate regressed and the pre-upgrade model is live again.
    RolledBack,
}

/// One planned migration write, applied inside the cutover record:
/// the key and its new value (`None` unsets it).
type MigrationWrite = (String, Option<SnapValue>);

/// Every policy of `model` that parses, compiled, by name.
fn policies(model: &Model) -> BTreeMap<String, Pred> {
    let policies = read(model).policies.into_iter();
    policies
        .filter_map(|p| Some((p.name, Pred::new(p.expr.ok()?))))
        .collect()
}

fn refused(stage: &str, reasons: Vec<String>) -> BrokerError {
    BrokerError::UpgradeRefused {
        stage: stage.to_owned(),
        reasons,
    }
}

/// A staged hot upgrade of one broker's runtime model. Construct with
/// [`LiveUpgrade::prepare`] (stage 1), feed real traffic through
/// [`LiveUpgrade::observe_call`] (stage 2), commit with
/// [`LiveUpgrade::cutover`] (stage 3), then drive
/// [`LiveUpgrade::probation_tick`] until the phase settles (stage 4),
/// calling [`LiveUpgrade::rollback`] when the supervisor decides
/// [`RollbackUpgrade`](crate::supervisor::SupervisorDecision::RollbackUpgrade).
#[derive(Debug)]
pub struct LiveUpgrade {
    old: Model,
    candidate: Model,
    tag: String,
    pre_version: u64,
    new_version: u64,
    phase: UpgradePhase,
    classified: Vec<(DeltaClass, String)>,
    // -- shadow phase --------------------------------------------------
    shadow_monitors: MonitorSet,
    shadow_memory: BTreeMap<String, String>,
    candidate_policies: BTreeMap<String, Pred>,
    live_policies: BTreeMap<String, Pred>,
    shadow_calls: u64,
    monitor_divergences: u64,
    policy_divergences: u64,
    // -- cutover / rollback bookkeeping --------------------------------
    /// Pre-cutover values captured for rollback (`None`: absent).
    pre_values: Vec<(String, Option<SnapValue>)>,
    baseline_brownout: i64,
    probation_target: u64,
    probation_healthy: u64,
}

impl LiveUpgrade {
    /// Stage 1: gates `candidate` and classifies its delta against the
    /// live model. Refuses (typed [`BrokerError::UpgradeRefused`], stage
    /// `gate`) when the candidate fails any load-time validation, when
    /// the delta contains a breaking change, or when the live broker has
    /// a latched monitor trip (upgrading a broker that is refusing
    /// traffic would mask the violation). `old` must be the model
    /// `broker` currently interprets; `probation_target` is how many
    /// consecutive healthy probation ticks commit the upgrade.
    pub fn prepare(
        broker: &GenericBroker,
        old: &Model,
        candidate: &Model,
        tag: &str,
        probation_target: u64,
    ) -> Result<LiveUpgrade> {
        // The full from_model pipeline — conformance, eager parsing,
        // monitor compilation, static analysis — against a throwaway hub.
        if let Err(e) = GenericBroker::from_model(candidate, ResourceHub::new(0)) {
            return Err(refused("gate", vec![format!("candidate invalid: {e}")]));
        }
        if broker.monitor_latched() {
            return Err(refused(
                "gate",
                vec!["live broker has a latched monitor trip; repair before upgrading".into()],
            ));
        }
        let changes = diff(old, candidate);
        let classified = classify_changes(&changes);
        let breaking: Vec<String> = classified
            .iter()
            .filter(|(c, _)| *c == DeltaClass::Breaking)
            .map(|(_, what)| format!("breaking delta: {what}"))
            .collect();
        if !breaking.is_empty() {
            return Err(refused("gate", breaking));
        }
        Ok(LiveUpgrade {
            old: old.clone(),
            candidate: candidate.clone(),
            tag: tag.to_owned(),
            pre_version: broker.model_version(),
            new_version: broker.model_version() + 1,
            phase: UpgradePhase::Shadow,
            classified,
            shadow_monitors: MonitorSet::compile(&read(candidate).monitors)?,
            shadow_memory: BTreeMap::new(),
            candidate_policies: policies(candidate),
            live_policies: policies(old),
            shadow_calls: 0,
            monitor_divergences: 0,
            policy_divergences: 0,
            pre_values: Vec::new(),
            baseline_brownout: 0,
            probation_target,
            probation_healthy: 0,
        })
    }

    /// The phase the upgrade is in.
    pub fn phase(&self) -> UpgradePhase {
        self.phase
    }

    /// The version the cutover will journal (pre-upgrade version + 1).
    pub fn new_version(&self) -> u64 {
        self.new_version
    }

    /// The per-change [`DeltaClass`] classification from stage 1.
    pub fn classified(&self) -> &[(DeltaClass, String)] {
        &self.classified
    }

    /// Calls observed in the shadow phase so far.
    pub fn shadow_calls(&self) -> u64 {
        self.shadow_calls
    }

    /// `(monitor, policy)` divergences counted in the shadow phase.
    pub fn divergences(&self) -> (u64, u64) {
        (self.monitor_divergences, self.policy_divergences)
    }

    /// Stage 2: evaluates the candidate's compiled monitors and policies
    /// side-by-side with the live model over the broker's *current* state
    /// — call it after each real call while shadowing. A candidate
    /// monitor tripping where the live model serves cleanly, or a policy
    /// (same name in both models) whose verdict differs, is a
    /// divergence. The candidate's temporal-monitor memory lives in a
    /// local shadow map, so shadowing never writes the live runtime
    /// model.
    pub fn observe_call(&mut self, broker: &GenericBroker) {
        if self.phase != UpgradePhase::Shadow {
            return;
        }
        self.shadow_calls += 1;
        let state = broker.state();
        if !self.shadow_monitors.is_empty() {
            let watched = self.shadow_monitors.watched_keys();
            let dirty: Vec<&str> = watched.iter().map(String::as_str).collect();
            let trips = self
                .shadow_monitors
                .check_observed(state, &dirty, &mut self.shadow_memory);
            self.monitor_divergences += trips.len() as u64;
        }
        for (name, cand) in &self.candidate_policies {
            if let Some(live) = self.live_policies.get(name) {
                let diverged = match (live.eval(state), cand.eval(state)) {
                    (Ok(a), Ok(b)) => a != b,
                    (Err(_), Err(_)) => false,
                    _ => true,
                };
                if diverged {
                    self.policy_divergences += 1;
                }
            }
        }
    }

    /// The migration writes a cutover to the candidate applies: seeds
    /// for admission cells the live state lacks, the candidate's
    /// declared `StateMigration`s, and the retirement of monitor memory
    /// belonging to monitors the candidate removed or re-defined.
    fn migration_plan(&self, live: &StateManager) -> Vec<MigrationWrite> {
        let mut plan = Vec::new();
        // New admission classes need their OCL-addressable cells seeded
        // exactly as `from_model` would have; cells the live state
        // already holds (existing classes, possibly retuned at runtime)
        // are kept.
        if let Some(ctrl) = AdmissionController::from_model(&self.candidate) {
            let mut scratch = StateManager::new();
            ctrl.seed_state(&mut scratch);
            for (key, value) in scratch.snapshot().vars {
                if live.value(&key).is_none() {
                    plan.push((key, Some(value)));
                }
            }
        }
        // Declared migrations: an integer-shaped value writes an int, an
        // empty value unsets, anything else writes a string.
        for m in self.candidate.all_of_class("StateMigration") {
            let key = self
                .candidate
                .attr_str(m, "key")
                .unwrap_or_default()
                .to_owned();
            if key.is_empty() {
                continue;
            }
            let value = self.candidate.attr_str(m, "value").unwrap_or_default();
            let value = if value.is_empty() {
                None
            } else if let Ok(i) = value.parse::<i64>() {
                Some(SnapValue::Int(i))
            } else {
                Some(SnapValue::Str(value.to_owned()))
            };
            plan.push((key, value));
        }
        // Monitor memory carryover: a monitor the candidate keeps (same
        // name, same property) keeps its latches and temporal cells; one
        // the candidate removed or re-defined has its memory retired so
        // stale cells can't confuse the new property.
        let cand: BTreeMap<String, String> = read(&self.candidate).monitors.into_iter().collect();
        for (name, property) in read(&self.old).monitors {
            if cand.get(&name) == Some(&property) {
                continue;
            }
            for key in [trip_key(&name), period_key(&name), owner_key(&name)] {
                if live.value(&key).is_some() {
                    plan.push((key, None));
                }
            }
        }
        plan
    }

    /// Stage 3: the atomic journaled cutover. Refuses (stage `cutover`)
    /// while the shadow evidence is thin (`min_shadow_calls`), divergent
    /// (more than `max_divergences` monitor + policy divergences), or
    /// the live broker is latched. On success the broker interprets the
    /// candidate, the migrations ride inside one journaled `Upgrade`
    /// record, and probation begins. Returns the state version at the
    /// commit point.
    pub fn cutover(
        &mut self,
        broker: &mut GenericBroker,
        min_shadow_calls: u64,
        max_divergences: u64,
    ) -> Result<u64> {
        if self.phase != UpgradePhase::Shadow {
            return Err(refused(
                "cutover",
                vec![format!("upgrade is in phase {:?}, not Shadow", self.phase)],
            ));
        }
        let mut reasons = Vec::new();
        if self.shadow_calls < min_shadow_calls {
            reasons.push(format!(
                "shadow phase too short: {} of {min_shadow_calls} required calls observed",
                self.shadow_calls
            ));
        }
        let diverged = self.monitor_divergences + self.policy_divergences;
        if diverged > max_divergences {
            reasons.push(format!(
                "candidate diverged from the live model on real traffic: \
                 {} monitor trip(s), {} policy verdict(s) (allowed {max_divergences})",
                self.monitor_divergences, self.policy_divergences
            ));
        }
        if broker.monitor_latched() {
            reasons.push("live broker has a latched monitor trip".into());
        }
        if !reasons.is_empty() {
            return Err(refused("cutover", reasons));
        }

        let plan = self.migration_plan(broker.state());
        // Capture the pre-value of every key the cutover (or a probation
        // window under the candidate's monitors) can touch, so rollback
        // restores exactly the migration-affected keys and nothing else.
        let mut keys: BTreeSet<String> = plan.iter().map(|(k, _)| k.clone()).collect();
        keys.insert(TRIP_COUNTER_KEY.to_owned());
        for (name, _) in read(&self.candidate).monitors {
            keys.insert(trip_key(&name));
            keys.insert(period_key(&name));
            keys.insert(owner_key(&name));
        }
        self.pre_values = keys
            .into_iter()
            .map(|k| {
                let v = broker.state().value(&k).cloned();
                (k, v)
            })
            .collect();

        broker.adopt_model(&self.candidate)?;
        let tag = self.tag.clone();
        let version = broker.commit_upgrade(self.new_version, &tag, &mut |state| {
            for (key, value) in &plan {
                state.put_value(key, value.as_ref());
            }
        })?;
        self.baseline_brownout = broker.state().int("brownout_level").unwrap_or(0);
        self.phase = UpgradePhase::Probation;
        self.probation_healthy = 0;
        Ok(version)
    }

    /// Stage 4: one probation heartbeat. A latched monitor trip or a
    /// brownout deeper than the cutover baseline is a regression — it is
    /// fed to the supervisor as an upgrade-regression symptom (the next
    /// [`Supervisor::tick`] decides
    /// [`RollbackUpgrade`](crate::supervisor::SupervisorDecision::RollbackUpgrade));
    /// `probation_target` consecutive healthy ticks commit the upgrade.
    /// Returns the phase after the tick.
    pub fn probation_tick(
        &mut self,
        broker: &GenericBroker,
        supervisor: &mut Supervisor,
        component: &str,
    ) -> UpgradePhase {
        if self.phase != UpgradePhase::Probation {
            return self.phase;
        }
        if broker.monitor_latched() {
            let monitor = broker
                .monitor_trips()
                .last()
                .map(|t| t.monitor.clone())
                .unwrap_or_else(|| "unknown".to_owned());
            supervisor.note_upgrade_regression(component, &format!("monitor `{monitor}` tripped"));
            return self.phase;
        }
        let level = broker.state().int("brownout_level").unwrap_or(0);
        if level > self.baseline_brownout {
            supervisor.note_upgrade_regression(
                component,
                &format!(
                    "brownout deepened under the candidate: level {level} > baseline {}",
                    self.baseline_brownout
                ),
            );
            return self.phase;
        }
        self.probation_healthy += 1;
        if self.probation_healthy >= self.probation_target {
            self.phase = UpgradePhase::Committed;
        }
        self.phase
    }

    /// Rolls a probation-phase upgrade back: restores the captured
    /// pre-value of every migration-touched key (including the monitor
    /// trip counter and any candidate-monitor memory written during
    /// probation) and re-journals the pre-upgrade model version —
    /// through the same atomic [`GenericBroker::commit_upgrade`]
    /// primitive, so the rollback is exactly as crash-consistent as the
    /// cutover. Domain writes committed during probation are preserved
    /// (each one was monitor-verified when it committed). Returns the
    /// state version at the rollback point.
    pub fn rollback(&mut self, broker: &mut GenericBroker, reason: &str) -> Result<u64> {
        if self.phase != UpgradePhase::Probation {
            return Err(refused(
                "rollback",
                vec![format!(
                    "upgrade is in phase {:?}, not Probation",
                    self.phase
                )],
            ));
        }
        broker.adopt_model(&self.old)?;
        let tag = format!("rollback({}): {reason}", self.tag);
        let pre_values = std::mem::take(&mut self.pre_values);
        let version = broker.commit_upgrade(self.pre_version, &tag, &mut |state| {
            // Compare before writing: `unset` on an absent key still
            // records an op, and a no-op `set_*` would churn the LSN.
            for (key, pre) in &pre_values {
                if state.value(key) != pre.as_ref() {
                    state.put_value(key, pre.as_ref());
                }
            }
        })?;
        self.phase = UpgradePhase::RolledBack;
        Ok(version)
    }

    /// The final outcome, once the upgrade has settled.
    pub fn outcome(&self) -> Option<UpgradeOutcome> {
        match self.phase {
            UpgradePhase::Committed => Some(UpgradeOutcome::Committed),
            UpgradePhase::RolledBack => Some(UpgradeOutcome::RolledBack),
            _ => None,
        }
    }
}

/// Version-aware crash recovery: replays the journal to find which model
/// version its newest `Upgrade` record put live, picks that model from
/// `versions` (a `(version, model)` table; version 1 is the
/// pre-evolution model), and runs the ordinary [`GenericBroker::recover`]
/// path with it. A crash mid-upgrade therefore resolves to *one*
/// consistent model — whichever side of the atomic cutover record
/// survived — and never to a hybrid. Refuses with
/// [`BrokerError::RecoveryDiverged`] when the journal pins a version the
/// caller did not supply.
pub fn recover_versioned(
    versions: &[(u64, &Model)],
    hub: ResourceHub,
    journal_bytes: &[u8],
    invariants: &[&str],
) -> Result<(GenericBroker, RecoveryReport)> {
    let pinned = journal::replay(journal_bytes)?.model_version;
    let model = versions
        .iter()
        .find(|(v, _)| *v == pinned)
        .map(|(_, m)| *m)
        .ok_or_else(|| {
            BrokerError::RecoveryDiverged(format!(
                "journal pins model version {pinned}, but no such model was supplied \
                 (have: {:?})",
                versions.iter().map(|(v, _)| *v).collect::<Vec<_>>()
            ))
        })?;
    GenericBroker::recover(model, hub, journal_bytes, invariants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BrokerModelBuilder;
    use crate::supervisor::{RestartPolicy, SupervisorDecision};
    use mddsm_sim::resource::{args, Outcome};
    use mddsm_sim::SimTime;

    fn hub() -> ResourceHub {
        let mut h = ResourceHub::new(7);
        h.register_fn("sim.media", |_, _| Outcome::ok());
        h
    }

    fn v1() -> Model {
        BrokerModelBuilder::new("ncb")
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
            .policy("boundedOpens", "self.opens < 1000")
            .monitor("opens_nonneg", "self.opens >= 0")
            .bind_resource("media", "sim.media")
            .build()
    }

    /// v2 keeps the serving interface, adds a migration, and adds a
    /// second monitor over the migrated key.
    fn v2() -> Model {
        BrokerModelBuilder::new("ncb")
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
            .policy("boundedOpens", "self.opens < 1000")
            .monitor("opens_nonneg", "self.opens >= 0")
            .monitor(
                "tier_known",
                "self.svc_tier = \"gold\" or self.svc_tier = \"lite\"",
            )
            .migration("seed-tier", "svc_tier", "gold")
            .bind_resource("media", "sim.media")
            .build()
    }

    /// A breaking v2: the handler's selector changes.
    fn v2_breaking() -> Model {
        BrokerModelBuilder::new("ncb")
            .call_handler("open", "openSessionV2")
            .action(
                "open",
                "openDirect",
                "media",
                "open",
                &["peer=$peer"],
                None,
                &["opens=+1"],
            )
            .bind_resource("media", "sim.media")
            .build()
    }

    fn serving_broker(model: &Model) -> GenericBroker {
        let mut b = GenericBroker::from_model(model, hub()).unwrap();
        b.enable_journal(64);
        b
    }

    fn call(b: &mut GenericBroker) {
        b.call("openSession", &args(&[("peer", "p1")])).unwrap();
    }

    #[test]
    fn breaking_deltas_are_refused_at_the_gate() {
        let old = v1();
        let broker = serving_broker(&old);
        let err = LiveUpgrade::prepare(&broker, &old, &v2_breaking(), "v2", 3).unwrap_err();
        match err {
            BrokerError::UpgradeRefused { stage, reasons } => {
                assert_eq!(stage, "gate");
                assert!(
                    reasons.iter().any(|r| r.contains("breaking delta")),
                    "{reasons:?}"
                );
            }
            other => panic!("expected UpgradeRefused, got {other}"),
        }
    }

    #[test]
    fn delta_classification_separates_the_three_classes() {
        let old = v1();
        let classes: Vec<DeltaClass> = classify_changes(&diff(&old, &v2()))
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        assert!(classes.contains(&DeltaClass::StateMigrating), "{classes:?}");
        assert!(!classes.contains(&DeltaClass::Breaking), "{classes:?}");
        let breaking: Vec<DeltaClass> = classify_changes(&diff(&old, &v2_breaking()))
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        assert!(breaking.contains(&DeltaClass::Breaking), "{breaking:?}");
    }

    #[test]
    fn full_protocol_commits_a_clean_candidate() {
        let old = v1();
        let new = v2();
        let mut broker = serving_broker(&old);
        for _ in 0..3 {
            call(&mut broker);
        }
        let mut up = LiveUpgrade::prepare(&broker, &old, &new, "v2", 2).unwrap();
        // Too little shadow evidence: refused.
        assert!(matches!(
            up.cutover(&mut broker, 5, 0),
            Err(BrokerError::UpgradeRefused { .. })
        ));
        for _ in 0..5 {
            call(&mut broker);
            up.observe_call(&broker);
        }
        // The v2-only monitor watches `svc_tier`, which is unset while
        // shadowing — a real pre-migration divergence the shadow phase
        // must surface (and the cutover threshold must acknowledge).
        let (mon_div, pol_div) = up.divergences();
        assert_eq!(pol_div, 0);
        assert_eq!(mon_div, 1);
        let v = up.cutover(&mut broker, 5, 1).unwrap();
        assert!(v > 0);
        assert_eq!(broker.model_version(), 2);
        assert_eq!(broker.state().str("svc_tier"), Some("gold"));
        // Probation: clean ticks commit.
        let mut sup = Supervisor::new(&["broker"], RestartPolicy::default());
        for _ in 0..2 {
            call(&mut broker);
            up.probation_tick(&broker, &mut sup, "broker");
        }
        assert_eq!(up.phase(), UpgradePhase::Committed);
        assert_eq!(up.outcome(), Some(UpgradeOutcome::Committed));
        assert!(sup.tick(SimTime::from_micros(1)).unwrap().is_empty());
        // Recovery resolves to v2 byte-for-byte.
        let bytes = broker.journal_bytes().unwrap().to_vec();
        let (rec, _) = recover_versioned(&[(1, &old), (2, &new)], hub(), &bytes, &[]).unwrap();
        assert_eq!(rec.model_version(), 2);
        assert_eq!(rec.state().snapshot(), broker.state().snapshot());
    }

    #[test]
    fn probation_regression_rolls_back_via_the_supervisor() {
        let old = v1();
        let new = v2();
        let mut broker = serving_broker(&old);
        let mut up = LiveUpgrade::prepare(&broker, &old, &new, "v2", 10).unwrap();
        for _ in 0..4 {
            call(&mut broker);
            up.observe_call(&broker);
        }
        assert_eq!(broker.state().str("svc_tier"), None);
        up.cutover(&mut broker, 3, 1).unwrap();
        // A probation-window corruption trips the candidate's monitor.
        let trips = broker.corrupt_state("svc_tier", "mystery");
        assert!(!trips.is_empty());
        let mut sup = Supervisor::new(&["broker"], RestartPolicy::default());
        up.probation_tick(&broker, &mut sup, "broker");
        let decisions = sup.tick(SimTime::from_micros(10)).unwrap();
        let rolled: Vec<_> = decisions
            .iter()
            .filter(|d| matches!(d, SupervisorDecision::RollbackUpgrade { .. }))
            .collect();
        assert_eq!(rolled.len(), 1, "{decisions:?}");
        up.rollback(&mut broker, "monitor tripped in probation")
            .unwrap();
        assert_eq!(up.outcome(), Some(UpgradeOutcome::RolledBack));
        assert_eq!(broker.model_version(), 1);
        // The migration and the candidate's monitor memory are gone; the
        // broker serves again under the old model.
        assert_eq!(broker.state().str("svc_tier"), None);
        assert!(!broker.monitor_latched());
        call(&mut broker);
        // Recovery over the full journal resolves to v1 byte-for-byte.
        let bytes = broker.journal_bytes().unwrap().to_vec();
        let (rec, _) = recover_versioned(&[(1, &old), (2, &new)], hub(), &bytes, &[]).unwrap();
        assert_eq!(rec.model_version(), 1);
        assert_eq!(rec.state().snapshot(), broker.state().snapshot());
    }

    #[test]
    fn recover_versioned_refuses_an_unknown_version() {
        let old = v1();
        let mut broker = serving_broker(&old);
        call(&mut broker);
        let bytes = broker.journal_bytes().unwrap().to_vec();
        // Only version 2 supplied; the journal pins version 1.
        let err = recover_versioned(&[(2, &v2())], hub(), &bytes, &[]).unwrap_err();
        assert!(matches!(err, BrokerError::RecoveryDiverged(_)), "{err}");
    }
}
