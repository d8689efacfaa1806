//! The autonomic manager: a MAPE-K loop over model-defined rules.
//!
//! The Fig. 6 `AutonomicManager` supports self-configuration: "different
//! symptoms, change requests and change plans may be defined to specify the
//! different situations in which autonomic behavior is triggered and how to
//! handle each such occurrence" (§V-A). Monitoring data lives in the
//! [`StateManager`] (the K of MAPE-K); symptoms are OCL-lite conditions
//! over it; plans are small step programs over resources and state.

use crate::admission::{QUEUE_DELAY_KEY, SHED_RECENT_KEY};
use crate::pred::Pred;
use crate::state::StateManager;
use crate::{BrokerError, Result};
use mddsm_meta::model::Model;
use mddsm_sim::{ResourceHub, SimDuration};
use std::collections::BTreeMap;

/// One step of a change plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanStep {
    /// Mark a (logical) resource healthy.
    Heal(String),
    /// Mark a (logical) resource failed.
    Fail(String),
    /// Add constant latency to a resource (0 clears degradation).
    Degrade(String, u64),
    /// Set a state variable (`k=v` semantics of
    /// [`StateManager::apply_effect`]).
    Set(String, String),
    /// Emit an event topic to the upper layer.
    Emit(String),
    /// Close the circuit breaker of a (logical) resource and zero its
    /// failure count — lets autonomic plans re-enable a resource that the
    /// resilience layer fenced off.
    ResetBreaker(String),
}

/// Parses a plan-step string: `heal r` | `fail r` | `degrade r ms` |
/// `set k v` | `emit topic` | `reset_breaker r`.
pub fn parse_step(s: &str) -> Result<PlanStep> {
    let mut parts = s.split_whitespace();
    let Some(verb) = parts.next() else {
        return Err(BrokerError::BadPlanStep(format!("empty plan step `{s}`")));
    };
    let mut next = |what: &str| {
        parts
            .next()
            .map(str::to_owned)
            .ok_or_else(|| BrokerError::BadPlanStep(format!("`{s}`: missing {what}")))
    };
    match verb {
        "heal" => Ok(PlanStep::Heal(next("resource")?)),
        "fail" => Ok(PlanStep::Fail(next("resource")?)),
        "degrade" => {
            let r = next("resource")?;
            let ms = next("milliseconds")?
                .parse::<u64>()
                .map_err(|e| BrokerError::BadPlanStep(format!("`{s}`: bad ms: {e}")))?;
            Ok(PlanStep::Degrade(r, ms))
        }
        "set" => {
            let k = next("key")?;
            let v = next("value")?;
            Ok(PlanStep::Set(k, v))
        }
        "emit" => Ok(PlanStep::Emit(next("topic")?)),
        "reset_breaker" => Ok(PlanStep::ResetBreaker(next("resource")?)),
        other => Err(BrokerError::BadPlanStep(format!(
            "unknown verb `{other}` in `{s}`"
        ))),
    }
}

/// Executes a sequence of plan steps against the runtime model and hub;
/// returns the emitted event topics. `bindings` maps logical resource
/// names to hub resources. Shared by autonomic plans and brownout mode
/// transitions.
pub(crate) fn run_steps(
    steps: &[PlanStep],
    state: &mut StateManager,
    hub: &mut ResourceHub,
    bindings: &BTreeMap<String, String>,
) -> Result<Vec<String>> {
    let mut emitted = Vec::new();
    let resolve = |r: &String| bindings.get(r).cloned().unwrap_or_else(|| r.clone());
    for step in steps {
        match step {
            PlanStep::Heal(r) => {
                hub.set_healthy(&resolve(r), true);
            }
            PlanStep::Fail(r) => {
                hub.set_healthy(&resolve(r), false);
            }
            PlanStep::Degrade(r, ms) => {
                hub.degrade(&resolve(r), SimDuration::from_millis(*ms));
            }
            PlanStep::Set(k, v) => state.apply_effect(&format!("{k}={v}"))?,
            PlanStep::Emit(topic) => emitted.push(topic.clone()),
            PlanStep::ResetBreaker(r) => {
                // Breaker keys use the logical resource name (the same
                // scheme the engine writes).
                state.set_str(&crate::engine::breaker_key(r, ""), "closed");
                state.set_int(&crate::engine::breaker_key(r, "failures"), 0);
            }
        }
    }
    Ok(emitted)
}

/// A compiled autonomic rule: symptom condition plus plan steps.
#[derive(Debug, Clone)]
pub struct AutonomicRule {
    /// Symptom name (diagnostics).
    pub symptom: String,
    /// Condition over the state object, compiled.
    pub condition: Pred,
    /// Plan steps executed when the condition holds.
    pub steps: Vec<PlanStep>,
}

/// The autonomic manager: holds rules and runs the MAPE loop on demand.
#[derive(Debug, Clone, Default)]
pub struct AutonomicManager {
    rules: Vec<AutonomicRule>,
    fired: BTreeMap<String, u64>,
}

impl AutonomicManager {
    /// Creates a manager with no rules.
    pub fn new(rules: Vec<AutonomicRule>) -> Self {
        AutonomicManager {
            rules,
            fired: BTreeMap::new(),
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` when the manager has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// How many times a symptom's plan has fired.
    pub fn fired(&self, symptom: &str) -> u64 {
        self.fired.get(symptom).copied().unwrap_or(0)
    }

    /// One MAPE cycle: evaluate all symptoms against the state, execute
    /// plans of those that hold. `bindings` maps logical resource names to
    /// hub resources. Returns the emitted event topics.
    pub fn tick(
        &mut self,
        state: &mut StateManager,
        hub: &mut ResourceHub,
        bindings: &BTreeMap<String, String>,
    ) -> Result<Vec<String>> {
        let mut emitted = Vec::new();
        // Evaluate all conditions first against a consistent state snapshot
        // (plans of earlier rules must not enable later rules in the same
        // cycle — classic MAPE batching).
        let mut due = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.condition.eval(state)? {
                due.push(i);
            }
        }
        for i in due {
            let rule = &self.rules[i];
            *self.fired.entry(rule.symptom.clone()).or_insert(0) += 1;
            emitted.extend(run_steps(&rule.steps, state, hub, bindings)?);
        }
        Ok(emitted)
    }
}

/// The standard autonomic rules for a replicated broker, expressed over
/// the [`crate::QuorumReplicator`]'s OCL-addressable metrics (`repl_lag`,
/// `repl_fenced`). The rules raise `repl_lag_alert` and emit
/// `replicationLagging` once the unacked journal lines, summed over every
/// lane, reach `lag_alert` records; for a hot standby (the one-peer set)
/// that is its single lane's lag. They clear the alert (emitting
/// `replicationCaughtUp`) when every peer has caught back up, and surface
/// a fenced stale primary as a `staleEpochFenced` event. Run them against
/// the replicator's metrics state, not the journaled runtime model.
pub fn replication_rules(lag_alert: i64) -> Result<Vec<AutonomicRule>> {
    let rule = |symptom: &str, condition: &str, steps: &[&str]| -> Result<AutonomicRule> {
        Ok(AutonomicRule {
            symptom: symptom.to_owned(),
            condition: Pred::new(
                mddsm_meta::constraint::parse(condition)
                    .map_err(|e| BrokerError::InvalidModel(e.to_string()))?,
            ),
            steps: steps.iter().map(|s| parse_step(s)).collect::<Result<_>>()?,
        })
    };
    let mut rules = Vec::new();
    if lag_alert > 0 {
        rules.push(rule(
            "replLagging",
            &format!(
                "self.repl_lag <> null and self.repl_lag >= {lag_alert} \
                 and self.repl_lag_alert <> 1"
            ),
            &["set repl_lag_alert 1", "emit replicationLagging"],
        )?);
        rules.push(rule(
            "replCaughtUp",
            "self.repl_lag_alert = 1 and (self.repl_lag = null or self.repl_lag = 0)",
            &["set repl_lag_alert 0", "emit replicationCaughtUp"],
        )?);
    }
    rules.push(rule(
        "replFenced",
        "self.repl_fenced <> null and self.repl_fenced > 0 and self.repl_fenced_alert <> 1",
        &["set repl_fenced_alert 1", "emit staleEpochFenced"],
    )?);
    Ok(rules)
}

/// A declared brownout (degraded-service) mode, compiled from a
/// `BrownoutMode` model object.
#[derive(Debug, Clone)]
pub struct BrownoutMode {
    /// Mode name (`lite`, `audio-only`, …). Level 0 — full service — is
    /// implicit and needs no declaration.
    pub name: String,
    /// Severity order; deeper degradations have higher levels.
    pub level: i64,
    /// Enter when `adm_queue_delay_us` reaches this (0 = trigger off).
    pub enter_delay_us: i64,
    /// Exit hysteresis: leave only once the delay is back at or below
    /// this (strictly less than `enter_delay_us` for real hysteresis).
    pub exit_delay_us: i64,
    /// Enter when the per-tick shed count reaches this (0 = trigger off).
    pub enter_shed: i64,
    /// Exit only once the per-tick shed count is at or below this.
    pub exit_shed: i64,
    /// Steps run on entering the mode.
    pub enter_steps: Vec<PlanStep>,
    /// Steps run on leaving the mode.
    pub exit_steps: Vec<PlanStep>,
}

/// One brownout mode change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrownoutTransition {
    /// Mode left (`full` for level 0).
    pub from: String,
    /// Mode entered (`full` for level 0).
    pub to: String,
    /// Level entered.
    pub level: i64,
}

/// The brownout controller: switches the platform between model-declared
/// degraded modes when overload metrics (`adm_queue_delay_us`, per-tick
/// `adm_shed_recent`) cross the modes' enter thresholds, and restores
/// service with hysteresis once both metrics are back under the exit
/// thresholds.
///
/// The controller holds **no mutable mode state of its own**: the current
/// mode lives in the state manager (`brownout_mode` / `brownout_level`),
/// so mode transitions are journaled like any other state write and crash
/// recovery resumes in the correct degraded mode.
#[derive(Debug, Clone, Default)]
pub struct BrownoutController {
    /// Declared modes, sorted by ascending level.
    modes: Vec<BrownoutMode>,
    transitions: u64,
}

impl BrownoutController {
    /// Compiles the `BrownoutMode` objects of a broker model (empty
    /// controller when the model declares none).
    pub fn from_model(model: &Model) -> Result<Self> {
        let mut modes = Vec::new();
        for m in model.all_of_class("BrownoutMode") {
            let int_attr = |name: &str| model.attr_int(m, name).unwrap_or(0);
            let steps = |attr: &str| -> Result<Vec<PlanStep>> {
                model
                    .attr_all(m, attr)
                    .iter()
                    .filter_map(|v| v.as_str())
                    .map(parse_step)
                    .collect()
            };
            modes.push(BrownoutMode {
                name: model.attr_str(m, "name").unwrap_or_default().to_owned(),
                level: int_attr("level").max(1),
                enter_delay_us: int_attr("enterDelayUs").max(0),
                exit_delay_us: int_attr("exitDelayUs").max(0),
                enter_shed: int_attr("enterShed").max(0),
                exit_shed: int_attr("exitShed").max(0),
                enter_steps: steps("enterSteps")?,
                exit_steps: steps("exitSteps")?,
            });
        }
        modes.sort_by(|a, b| a.level.cmp(&b.level).then_with(|| a.name.cmp(&b.name)));
        Ok(BrownoutController {
            modes,
            transitions: 0,
        })
    }

    /// The declared modes.
    pub fn modes(&self) -> &[BrownoutMode] {
        &self.modes
    }

    /// Mode transitions performed so far (diagnostics only; not part of
    /// the replayed state).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    fn mode_at(&self, level: i64) -> Option<&BrownoutMode> {
        self.modes.iter().find(|m| m.level == level)
    }

    /// The deepest mode whose enter condition holds for the metrics.
    fn target_level(&self, delay: i64, shed: i64) -> i64 {
        self.modes
            .iter()
            .filter(|m| {
                (m.enter_delay_us > 0 && delay >= m.enter_delay_us)
                    || (m.enter_shed > 0 && shed >= m.enter_shed)
            })
            .map(|m| m.level)
            .max()
            .unwrap_or(0)
    }

    /// One control cycle: reads the overload metrics from the runtime
    /// model, decides the mode, runs enter/exit steps on a change, and
    /// resets the per-tick shed window. Returns the transition (if any)
    /// and the event topics the steps emitted.
    pub fn tick(
        &mut self,
        state: &mut StateManager,
        hub: &mut ResourceHub,
        bindings: &BTreeMap<String, String>,
    ) -> Result<(Option<BrownoutTransition>, Vec<String>)> {
        if self.modes.is_empty() {
            return Ok((None, Vec::new()));
        }
        let delay = state.int(QUEUE_DELAY_KEY).unwrap_or(0);
        let shed = state.int(SHED_RECENT_KEY).unwrap_or(0);
        let current = state.int("brownout_level").unwrap_or(0);
        let target = self.target_level(delay, shed);

        let mut transition = None;
        let mut emitted = Vec::new();
        if target > current {
            // Escalate straight to the deepest triggered mode.
            if let Some(mode) = self.mode_at(target).cloned() {
                emitted.extend(run_steps(&mode.enter_steps, state, hub, bindings)?);
                let from = state.str("brownout_mode").unwrap_or("full").to_owned();
                state.set_str("brownout_mode", &mode.name);
                state.set_int("brownout_level", mode.level);
                self.transitions += 1;
                transition = Some(BrownoutTransition {
                    from,
                    to: mode.name,
                    level: mode.level,
                });
            }
        } else if target < current {
            // Hysteresis: leave the current mode only once both metrics
            // are back at or below its exit thresholds.
            let calm = self
                .mode_at(current)
                .is_none_or(|m| delay <= m.exit_delay_us && shed <= m.exit_shed);
            if calm {
                if let Some(m) = self.mode_at(current) {
                    let steps = m.exit_steps.clone();
                    emitted.extend(run_steps(&steps, state, hub, bindings)?);
                }
                let from = state.str("brownout_mode").unwrap_or("full").to_owned();
                let (to, level) = match self.mode_at(target) {
                    Some(m) if target > 0 => {
                        let steps = m.enter_steps.clone();
                        let name = m.name.clone();
                        let level = m.level;
                        emitted.extend(run_steps(&steps, state, hub, bindings)?);
                        (name, level)
                    }
                    _ => ("full".to_owned(), 0),
                };
                state.set_str("brownout_mode", &to);
                state.set_int("brownout_level", level);
                self.transitions += 1;
                transition = Some(BrownoutTransition { from, to, level });
            }
        }

        // The shed window is per control cycle; only touch the key when it
        // carries a non-zero count so idle ticks journal nothing.
        if shed != 0 {
            state.set_int(SHED_RECENT_KEY, 0);
        }
        Ok((transition, emitted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mddsm_meta::constraint::parse;
    use mddsm_sim::resource::Outcome;

    fn hub() -> ResourceHub {
        let mut h = ResourceHub::new(1);
        h.register_fn("sim.media", |_, _| Outcome::ok());
        h
    }

    #[test]
    fn step_parsing() {
        assert_eq!(
            parse_step("heal media").unwrap(),
            PlanStep::Heal("media".into())
        );
        assert_eq!(
            parse_step("fail media").unwrap(),
            PlanStep::Fail("media".into())
        );
        assert_eq!(
            parse_step("degrade media 40").unwrap(),
            PlanStep::Degrade("media".into(), 40)
        );
        assert_eq!(
            parse_step("set mode relay").unwrap(),
            PlanStep::Set("mode".into(), "relay".into())
        );
        assert_eq!(
            parse_step("emit recovered").unwrap(),
            PlanStep::Emit("recovered".into())
        );
        assert_eq!(
            parse_step("reset_breaker media").unwrap(),
            PlanStep::ResetBreaker("media".into())
        );
        assert!(parse_step("explode").is_err());
        assert!(parse_step("heal").is_err());
        assert!(parse_step("degrade media soon").is_err());
    }

    #[test]
    fn empty_steps_are_rejected_with_a_clear_error() {
        // Regression: `parse_step("")` used to panic on the missing verb.
        for s in ["", "   ", "\t"] {
            match parse_step(s) {
                Err(BrokerError::BadPlanStep(m)) => assert!(m.contains("empty"), "{m}"),
                other => panic!("expected BadPlanStep for {s:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn reset_breaker_clears_breaker_state() {
        let rule = AutonomicRule {
            symptom: "s".into(),
            condition: Pred::new(parse("true").unwrap()),
            steps: vec![parse_step("reset_breaker media").unwrap()],
        };
        let mut mgr = AutonomicManager::new(vec![rule]);
        let mut state = StateManager::new();
        state.set_str("breaker_media", "open");
        state.set_int("breaker_media_failures", 7);
        let mut hub = hub();
        mgr.tick(&mut state, &mut hub, &BTreeMap::new()).unwrap();
        assert_eq!(state.str("breaker_media"), Some("closed"));
        assert_eq!(state.int("breaker_media_failures"), Some(0));
    }

    #[test]
    fn rule_fires_when_condition_holds() {
        let rule = AutonomicRule {
            symptom: "mediaFlaky".into(),
            condition: Pred::new(
                parse("self.failures_media <> null and self.failures_media > 2").unwrap(),
            ),
            steps: vec![
                parse_step("heal media").unwrap(),
                parse_step("set failures_media 0").unwrap(),
                parse_step("emit mediaRecovered").unwrap(),
            ],
        };
        let mut mgr = AutonomicManager::new(vec![rule]);
        let mut state = StateManager::new();
        let mut hub = hub();
        hub.set_healthy("sim.media", false);
        let bindings = BTreeMap::from([("media".to_string(), "sim.media".to_string())]);

        // Below threshold: nothing happens.
        state.set_int("failures_media", 2);
        let emitted = mgr.tick(&mut state, &mut hub, &bindings).unwrap();
        assert!(emitted.is_empty());
        assert!(!hub.is_healthy("sim.media"));
        assert_eq!(mgr.fired("mediaFlaky"), 0);

        // Above threshold: heal + reset + emit.
        state.set_int("failures_media", 3);
        let emitted = mgr.tick(&mut state, &mut hub, &bindings).unwrap();
        assert_eq!(emitted, vec!["mediaRecovered".to_string()]);
        assert!(hub.is_healthy("sim.media"));
        assert_eq!(state.int("failures_media"), Some(0));
        assert_eq!(mgr.fired("mediaFlaky"), 1);

        // Condition cleared: does not fire again.
        let emitted = mgr.tick(&mut state, &mut hub, &bindings).unwrap();
        assert!(emitted.is_empty());
        assert_eq!(mgr.fired("mediaFlaky"), 1);
    }

    #[test]
    fn plans_in_one_cycle_see_the_same_snapshot() {
        // Rule A sets trigger=1; rule B fires on trigger=1. In one cycle B
        // must NOT fire (batched analysis), only on the next.
        let a = AutonomicRule {
            symptom: "a".into(),
            condition: Pred::new(parse("self.go = 1").unwrap()),
            steps: vec![parse_step("set trigger 1").unwrap()],
        };
        let b = AutonomicRule {
            symptom: "b".into(),
            condition: Pred::new(parse("self.trigger = 1").unwrap()),
            steps: vec![parse_step("emit late").unwrap()],
        };
        let mut mgr = AutonomicManager::new(vec![a, b]);
        assert_eq!(mgr.len(), 2);
        let mut state = StateManager::new();
        state.set_int("go", 1);
        let mut hub = hub();
        let bindings = BTreeMap::new();
        let emitted = mgr.tick(&mut state, &mut hub, &bindings).unwrap();
        assert!(emitted.is_empty());
        let emitted = mgr.tick(&mut state, &mut hub, &bindings).unwrap();
        assert_eq!(emitted, vec!["late".to_string()]);
    }

    #[test]
    fn replication_rules_alert_and_clear_on_lag() {
        let mut mgr = AutonomicManager::new(replication_rules(8).unwrap());
        let mut metrics = StateManager::new();
        let mut hub = hub();
        let bindings = BTreeMap::new();

        // No metrics yet: nothing fires (null-safe conditions).
        assert!(mgr
            .tick(&mut metrics, &mut hub, &bindings)
            .unwrap()
            .is_empty());

        metrics.set_int("repl_lag", 9);
        let emitted = mgr.tick(&mut metrics, &mut hub, &bindings).unwrap();
        assert_eq!(emitted, vec!["replicationLagging".to_string()]);
        // Alert latched: no re-emission while still lagging.
        assert!(mgr
            .tick(&mut metrics, &mut hub, &bindings)
            .unwrap()
            .is_empty());

        metrics.set_int("repl_lag", 0);
        let emitted = mgr.tick(&mut metrics, &mut hub, &bindings).unwrap();
        assert_eq!(emitted, vec!["replicationCaughtUp".to_string()]);

        // A fenced stale primary surfaces exactly once.
        metrics.set_int("repl_fenced", 2);
        let emitted = mgr.tick(&mut metrics, &mut hub, &bindings).unwrap();
        assert_eq!(emitted, vec!["staleEpochFenced".to_string()]);
        assert!(mgr
            .tick(&mut metrics, &mut hub, &bindings)
            .unwrap()
            .is_empty());

        // lag_alert = 0 disables the lag rules but keeps the fence rule.
        assert_eq!(replication_rules(0).unwrap().len(), 1);
    }

    fn lite_mode() -> BrownoutMode {
        BrownoutMode {
            name: "lite".into(),
            level: 1,
            enter_delay_us: 10_000,
            exit_delay_us: 2_000,
            enter_shed: 5,
            exit_shed: 0,
            enter_steps: vec![parse_step("set svc lite").unwrap()],
            exit_steps: vec![parse_step("set svc full").unwrap()],
        }
    }

    #[test]
    fn brownout_enters_and_exits_with_hysteresis() {
        let mut ctl = BrownoutController {
            modes: vec![lite_mode()],
            transitions: 0,
        };
        let mut state = StateManager::new();
        let mut hub = hub();
        let bindings = BTreeMap::new();

        // Calm: nothing happens.
        let (t, _) = ctl.tick(&mut state, &mut hub, &bindings).unwrap();
        assert!(t.is_none());

        // Queue delay over the enter threshold: enter `lite`.
        state.set_int("adm_queue_delay_us", 12_000);
        let (t, _) = ctl.tick(&mut state, &mut hub, &bindings).unwrap();
        assert_eq!(t.unwrap().to, "lite");
        assert_eq!(state.str("brownout_mode"), Some("lite"));
        assert_eq!(state.int("brownout_level"), Some(1));
        assert_eq!(state.str("svc"), Some("lite"));

        // Delay back below enter but above exit: hysteresis holds the mode.
        state.set_int("adm_queue_delay_us", 5_000);
        let (t, _) = ctl.tick(&mut state, &mut hub, &bindings).unwrap();
        assert!(t.is_none());
        assert_eq!(state.str("brownout_mode"), Some("lite"));

        // Delay at the exit threshold: restore full service.
        state.set_int("adm_queue_delay_us", 2_000);
        let (t, _) = ctl.tick(&mut state, &mut hub, &bindings).unwrap();
        let t = t.unwrap();
        assert_eq!(
            (t.from.as_str(), t.to.as_str(), t.level),
            ("lite", "full", 0)
        );
        assert_eq!(state.str("svc"), Some("full"));
        assert_eq!(ctl.transitions(), 2);
    }

    #[test]
    fn brownout_shed_trigger_fires_and_window_resets() {
        let mut ctl = BrownoutController {
            modes: vec![lite_mode()],
            transitions: 0,
        };
        let mut state = StateManager::new();
        let mut hub = hub();
        let bindings = BTreeMap::new();
        state.set_int("adm_shed_recent", 6);
        let (t, _) = ctl.tick(&mut state, &mut hub, &bindings).unwrap();
        assert_eq!(t.unwrap().to, "lite");
        // The per-tick shed window was consumed.
        assert_eq!(state.int("adm_shed_recent"), Some(0));
        // Next tick: sheds stopped and delay is zero -> exit.
        let (t, _) = ctl.tick(&mut state, &mut hub, &bindings).unwrap();
        assert_eq!(t.unwrap().to, "full");
    }

    #[test]
    fn brownout_escalates_straight_to_the_deepest_triggered_mode() {
        let audio = BrownoutMode {
            name: "audio-only".into(),
            level: 2,
            enter_delay_us: 50_000,
            exit_delay_us: 10_000,
            enter_shed: 0,
            exit_shed: 0,
            enter_steps: vec![parse_step("set svc audio").unwrap()],
            exit_steps: vec![],
        };
        let mut ctl = BrownoutController {
            modes: vec![lite_mode(), audio],
            transitions: 0,
        };
        let mut state = StateManager::new();
        let mut hub = hub();
        let bindings = BTreeMap::new();
        state.set_int("adm_queue_delay_us", 60_000);
        let (t, _) = ctl.tick(&mut state, &mut hub, &bindings).unwrap();
        let t = t.unwrap();
        assert_eq!((t.to.as_str(), t.level), ("audio-only", 2));
        // Calming to lite territory steps down one declared mode, running
        // the deeper mode's exit steps and the lighter mode's enter steps.
        state.set_int("adm_queue_delay_us", 10_000);
        let (t, _) = ctl.tick(&mut state, &mut hub, &bindings).unwrap();
        let t = t.unwrap();
        assert_eq!((t.from.as_str(), t.to.as_str()), ("audio-only", "lite"));
        assert_eq!(state.str("svc"), Some("lite"));
    }

    #[test]
    fn unbound_resources_fall_back_to_literal_names() {
        let rule = AutonomicRule {
            symptom: "s".into(),
            condition: Pred::new(parse("true").unwrap()),
            steps: vec![parse_step("fail sim.media").unwrap()],
        };
        let mut mgr = AutonomicManager::new(vec![rule]);
        let mut state = StateManager::new();
        let mut hub = hub();
        mgr.tick(&mut state, &mut hub, &BTreeMap::new()).unwrap();
        assert!(!hub.is_healthy("sim.media"));
    }
}
