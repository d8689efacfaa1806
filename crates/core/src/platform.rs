//! The generated MD-DSM platform: a four-layer model-execution engine.

use crate::dsk::DomainKnowledge;
use crate::mwmodel::PlatformSpec;
use crate::port::BrokerAdapter;
use crate::{CoreError, Result};
use mddsm_broker::GenericBroker;
use mddsm_controller::{
    ClassificationPolicy, CommandClassifier, ControllerEngine, ExecutionReport,
};
use mddsm_meta::model::Model;
use mddsm_sim::ResourceHub;
use mddsm_synthesis::{ChangeInterpreter, ControlScript, InterpreterConfig, SynthesisEngine};
use mddsm_ui::{DsmlEnvironment, EditingSession};
use std::sync::Arc;

/// Builder generating a platform from its two input models (Fig. 2):
/// the structural platform model and the domain knowledge.
pub struct PlatformBuilder {
    spec: PlatformSpec,
    dsk: DomainKnowledge,
    broker_model: Option<Model>,
    hub: Option<ResourceHub>,
}

impl PlatformBuilder {
    /// Starts from a platform model and domain knowledge.
    pub fn new(platform_model: &Model, dsk: DomainKnowledge) -> Result<Self> {
        let spec = PlatformSpec::from_model(platform_model)?;
        dsk.validate()?;
        if let Some(dsml) = &spec.ui_dsml {
            if dsml != dsk.dsml.name() {
                return Err(CoreError::InvalidDomainKnowledge(format!(
                    "platform UI expects DSML `{dsml}` but domain knowledge provides `{}`",
                    dsk.dsml.name()
                )));
            }
        }
        Ok(PlatformBuilder {
            spec,
            dsk,
            broker_model: None,
            hub: None,
        })
    }

    /// Supplies the broker model referenced by the platform's broker spec.
    pub fn broker_model(mut self, model: Model) -> Self {
        self.broker_model = Some(model);
        self
    }

    /// Supplies the resource hub (the simulated underlying services).
    pub fn resources(mut self, hub: ResourceHub) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Generates the platform.
    pub fn build(self) -> Result<MdDsmPlatform> {
        let PlatformBuilder {
            spec,
            dsk,
            broker_model,
            hub,
        } = self;

        // UI layer.
        let ui = spec.ui_dsml.as_ref().map(|_| {
            let mut env = DsmlEnvironment::new();
            env.register(dsk.dsml.clone());
            env
        });

        // Synthesis layer.
        let synthesis = spec.synthesis_unmatched.map(|unmatched| {
            SynthesisEngine::new(
                Arc::new(dsk.dsml.clone()),
                ChangeInterpreter::new(dsk.lts.clone(), InterpreterConfig { unmatched }),
            )
        });

        // Controller layer.
        let controller = match &spec.controller {
            None => None,
            Some(config) => {
                let mut classifier = CommandClassifier::new(ClassificationPolicy {
                    prefer: spec
                        .controller_prefer
                        .unwrap_or(mddsm_controller::Case::Predefined),
                    low_memory_prefers_dynamic: spec.controller_low_memory_dynamic,
                    overrides: Default::default(),
                });
                for (cmd, dsc) in &dsk.command_map {
                    classifier.map_command(cmd, dsc);
                }
                let mut engine = ControllerEngine::new(
                    dsk.dscs.clone(),
                    dsk.procedures.clone(),
                    dsk.actions.clone(),
                    classifier,
                    config.clone(),
                )?;
                for (topic, cmd) in &dsk.event_commands {
                    engine.map_event(topic, cmd.clone());
                }
                Some(engine)
            }
        };

        // Broker layer.
        let broker = match (&spec.broker_model, broker_model) {
            (None, _) => None,
            (Some(name), Some(model)) => {
                let hub = hub.unwrap_or_else(|| ResourceHub::new(0));
                let b = GenericBroker::from_model(&model, hub)?;
                if b.name() != name {
                    return Err(CoreError::InvalidPlatformModel(format!(
                        "platform references broker model `{name}` but `{}` was supplied",
                        b.name()
                    )));
                }
                Some(b)
            }
            (Some(name), None) => {
                return Err(CoreError::InvalidPlatformModel(format!(
                    "platform references broker model `{name}` but none was supplied"
                )))
            }
        };

        Ok(MdDsmPlatform {
            name: spec.name,
            domain: spec.domain,
            ui,
            synthesis,
            controller,
            broker,
            installed: Vec::new(),
            outbox: Vec::new(),
        })
    }
}

/// Aggregate report of one platform interaction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlatformReport {
    /// Immediate commands synthesized.
    pub synthesized_commands: usize,
    /// Scripts installed for later event-triggered execution.
    pub installed_scripts: usize,
    /// Controller execution metrics.
    pub execution: ExecutionReport,
}

/// A generated MD-DSM platform: the model-execution engine for one domain.
pub struct MdDsmPlatform {
    name: String,
    domain: String,
    ui: Option<DsmlEnvironment>,
    synthesis: Option<SynthesisEngine>,
    controller: Option<ControllerEngine>,
    broker: Option<GenericBroker>,
    installed: Vec<ControlScript>,
    outbox: Vec<ControlScript>,
}

impl MdDsmPlatform {
    /// Platform name (from the platform model).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Domain label.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// Opens a UI editing session for the platform's DSML.
    pub fn open_session(&self) -> Result<EditingSession> {
        let ui = self.ui.as_ref().ok_or(CoreError::LayerSuppressed("ui"))?;
        let dsml = self
            .synthesis
            .as_ref()
            .map(|s| s.metamodel().name().to_owned())
            .or_else(|| ui.dsmls().first().map(|s| (*s).to_owned()))
            .ok_or(CoreError::LayerSuppressed("synthesis"))?;
        Ok(ui.open(&dsml)?)
    }

    /// Submits an application model (the models@runtime entry point): the
    /// full UI → Synthesis → Controller → Broker pipeline.
    pub fn submit_model(&mut self, model: Model) -> Result<PlatformReport> {
        let synthesis = self
            .synthesis
            .as_mut()
            .ok_or(CoreError::LayerSuppressed("synthesis"))?;
        let out = synthesis.submit(model)?;
        let mut report = PlatformReport {
            synthesized_commands: out.immediate.len(),
            installed_scripts: out.installed.len(),
            execution: ExecutionReport::default(),
        };
        self.installed.extend(out.installed);
        let exec = self.run_script_internal(&out.immediate)?;
        report.execution = exec;
        // Controller events feed back into the Synthesis LTS, which may
        // emit follow-up commands (single feedback round).
        let follow_up: Vec<String> = report.execution.events.clone();
        for topic in follow_up {
            let script = self
                .synthesis
                .as_mut()
                .expect("synthesis present")
                .notify_event(&topic)
                .map_err(CoreError::Synthesis)?;
            if !script.is_empty() {
                let r = self.run_script_internal(&script)?;
                report.execution.merge(&r);
            }
        }
        Ok(report)
    }

    /// Submits an application model written in the textual format.
    pub fn submit_text(&mut self, source: &str) -> Result<PlatformReport> {
        let model = mddsm_meta::text::parse(source).map_err(mddsm_ui::UiError::from)?;
        self.submit_model(model)
    }

    /// Weaves multiple concern models into one application model and
    /// submits the result — the §IX aspect-oriented execution step
    /// ("simultaneously executing (through a weaving step) multiple
    /// related models that describe the different concerns of an
    /// application"). Contradicting concerns are rejected with the full
    /// conflict list.
    pub fn submit_woven(&mut self, concerns: &[Model]) -> Result<PlatformReport> {
        let woven = mddsm_meta::weave::weave_or_err(concerns).map_err(mddsm_ui::UiError::from)?;
        self.submit_model(woven)
    }

    /// Executes a control script directly — the entry point of nodes whose
    /// upper layers are suppressed (e.g. 2SVM smart objects).
    pub fn run_script(&mut self, script: &ControlScript) -> Result<ExecutionReport> {
        self.run_script_internal(script)
    }

    fn run_script_internal(&mut self, script: &ControlScript) -> Result<ExecutionReport> {
        if script.is_empty() {
            return Ok(ExecutionReport::default());
        }
        match (&mut self.controller, &mut self.broker) {
            (Some(controller), Some(broker)) => {
                let mut port = BrokerAdapter::new(broker);
                Ok(controller.execute_script(script, &mut port)?)
            }
            (None, Some(broker)) => {
                // Controller suppressed: commands dispatch straight to the
                // broker, command name as selector.
                let mut report = ExecutionReport::default();
                for cmd in &script.commands {
                    let result = broker
                        .call(&cmd.name, &cmd.args.to_vec())
                        .map_err(CoreError::Broker)?;
                    report.commands += 1;
                    report.broker_calls += 1;
                    report.virtual_cost_us += result.cost.as_micros();
                }
                Ok(report)
            }
            (_, None) => {
                // No executor layers on this node: scripts go to the outbox
                // for an external dispatcher (the split deployments of
                // 2SVM/CSVM, §IV-C/D).
                self.outbox.push(script.clone());
                Ok(ExecutionReport::default())
            }
        }
    }

    /// Drains scripts produced by a node without executor layers.
    pub fn drain_outbox(&mut self) -> Vec<ControlScript> {
        std::mem::take(&mut self.outbox)
    }

    /// Removes and returns the installed (event-triggered) scripts — used
    /// by split deployments that install them on remote nodes.
    pub fn take_installed(&mut self) -> Vec<ControlScript> {
        std::mem::take(&mut self.installed)
    }

    /// Installs an event-triggered script on this node.
    pub fn install_script(&mut self, script: ControlScript) {
        self.installed.push(script);
    }

    /// Delivers an environmental event: runs any installed (triggered)
    /// scripts matching it and routes the event through the Controller's
    /// event handler.
    pub fn notify_event(&mut self, topic: &str) -> Result<ExecutionReport> {
        let mut report = ExecutionReport::default();
        let matching: Vec<ControlScript> = self
            .installed
            .iter()
            .filter(|s| s.trigger.as_ref().is_some_and(|t| t.topic == topic))
            .cloned()
            .collect();
        for script in matching {
            let r = self.run_script_internal(&script)?;
            report.merge(&r);
        }
        if let (Some(controller), Some(broker)) = (&mut self.controller, &mut self.broker) {
            let mut port = BrokerAdapter::new(broker);
            let r = controller.notify_event(topic, &mut port)?;
            report.merge(&r);
        }
        Ok(report)
    }

    /// Runs one autonomic MAPE cycle on the Broker layer; emitted events
    /// are routed like [`MdDsmPlatform::notify_event`].
    pub fn autonomic_tick(&mut self) -> Result<ExecutionReport> {
        let broker = self
            .broker
            .as_mut()
            .ok_or(CoreError::LayerSuppressed("broker"))?;
        let emitted = broker.autonomic_tick()?;
        let mut report = ExecutionReport::default();
        for topic in emitted {
            let r = self.notify_event(&topic)?;
            report.merge(&r);
            report.events.push(topic);
        }
        Ok(report)
    }

    /// The Broker layer, when present.
    pub fn broker(&self) -> Option<&GenericBroker> {
        self.broker.as_ref()
    }

    /// Mutable Broker access (failure injection in tests/benches).
    pub fn broker_mut(&mut self) -> Option<&mut GenericBroker> {
        self.broker.as_mut()
    }

    /// The Controller layer, when present.
    pub fn controller(&self) -> Option<&ControllerEngine> {
        self.controller.as_ref()
    }

    /// Mutable Controller access (context/policy tuning at runtime).
    pub fn controller_mut(&mut self) -> Option<&mut ControllerEngine> {
        self.controller.as_mut()
    }

    /// The Synthesis layer, when present.
    pub fn synthesis(&self) -> Option<&SynthesisEngine> {
        self.synthesis.as_ref()
    }

    /// The command trace of the underlying resources (experiment E1's
    /// observable).
    pub fn command_trace(&self) -> Vec<String> {
        self.broker
            .as_ref()
            .map(|b| b.hub().command_trace())
            .unwrap_or_default()
    }
}

impl std::fmt::Debug for MdDsmPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MdDsmPlatform")
            .field("name", &self.name)
            .field("domain", &self.domain)
            .field("ui", &self.ui.is_some())
            .field("synthesis", &self.synthesis.is_some())
            .field("controller", &self.controller.is_some())
            .field("broker", &self.broker.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mwmodel::PlatformModelBuilder;
    use mddsm_broker::BrokerModelBuilder;
    use mddsm_controller::procedure::{Instr, Procedure};
    use mddsm_controller::{ActionRegistry, DscRegistry, ProcedureRepository};
    use mddsm_meta::metamodel::{DataType, MetamodelBuilder};
    use mddsm_meta::Value;
    use mddsm_sim::resource::Outcome;
    use mddsm_synthesis::lts::{ChangePattern, CommandTemplate};
    use mddsm_synthesis::LtsBuilder;

    /// A minimal "lamp" domain: models declare lamps; synthesis emits
    /// `turnOn` commands; the controller's procedure calls `power.on`.
    fn dsk() -> DomainKnowledge {
        let dsml = MetamodelBuilder::new("lamps")
            .class("Lamp", |c| c.attr("name", DataType::Str))
            .build()
            .unwrap();
        let lts = LtsBuilder::new()
            .state("s")
            .initial("s")
            .transition("s", "s", ChangePattern::create("Lamp"), |t| {
                t.emit(CommandTemplate::new("turnOn", "$key").with("lamp", "$id"))
            })
            .transition("s", "s", ChangePattern::delete("Lamp"), |t| {
                t.emit(CommandTemplate::new("turnOff", "$key").with("lamp", "$id"))
            })
            .build()
            .unwrap();
        let mut dscs = DscRegistry::new();
        dscs.operation("Switch", None, "switch a lamp").unwrap();
        let mut procedures = ProcedureRepository::new();
        procedures
            .add(Procedure::simple(
                "switchOn",
                "Switch",
                vec![
                    Instr::BrokerCall {
                        api: "power".into(),
                        op: "set".into(),
                        args: vec![(
                            "lamp".into(),
                            mddsm_controller::procedure::Operand::arg("lamp"),
                        )],
                    },
                    Instr::Complete,
                ],
            ))
            .unwrap();
        DomainKnowledge {
            dsml,
            lts,
            dscs,
            procedures,
            actions: ActionRegistry::new(),
            command_map: vec![
                ("turnOn".into(), "Switch".into()),
                ("turnOff".into(), "Switch".into()),
            ],
            event_commands: vec![],
        }
    }

    fn broker_model() -> Model {
        BrokerModelBuilder::new("lampBroker")
            .call_handler("power", "power.set")
            .action(
                "power",
                "set",
                "sim.power",
                "set",
                &["lamp=$lamp"],
                None,
                &["switches=+1"],
            )
            .build()
    }

    fn hub() -> ResourceHub {
        let mut h = ResourceHub::new(3);
        h.register_fn("sim.power", |_, _| Outcome::ok());
        h
    }

    fn platform() -> MdDsmPlatform {
        let pm = PlatformModelBuilder::new("lampvm", "lighting")
            .ui("lamps")
            .synthesis("Skip")
            .controller(|_, _| {})
            .broker("lampBroker")
            .build();
        PlatformBuilder::new(&pm, dsk())
            .unwrap()
            .broker_model(broker_model())
            .resources(hub())
            .build()
            .unwrap()
    }

    #[test]
    fn end_to_end_model_execution() {
        let mut p = platform();
        assert_eq!(p.name(), "lampvm");
        let mut session = p.open_session().unwrap();
        let lamp = session.create("Lamp").unwrap();
        session.set(lamp, "name", "desk").unwrap();
        let model = session.submit().unwrap();
        let report = p.submit_model(model).unwrap();
        assert_eq!(report.synthesized_commands, 1);
        assert_eq!(report.execution.commands, 1);
        assert_eq!(p.command_trace(), vec!["sim.power.set(lamp=desk)"]);
        assert_eq!(p.broker().unwrap().state().int("switches"), Some(1));
    }

    #[test]
    fn incremental_model_updates() {
        let mut p = platform();
        let mut session = p.open_session().unwrap();
        let a = session.create("Lamp").unwrap();
        session.set(a, "name", "a").unwrap();
        p.submit_model(session.submit().unwrap()).unwrap();
        // Add a second lamp: only the delta executes.
        let b = session.create("Lamp").unwrap();
        session.set(b, "name", "b").unwrap();
        let r = p.submit_model(session.submit().unwrap()).unwrap();
        assert_eq!(r.synthesized_commands, 1);
        assert_eq!(p.command_trace().len(), 2);
        // Remove lamp a: turnOff command.
        session.delete(a).unwrap();
        let r = p.submit_model(session.submit().unwrap()).unwrap();
        assert_eq!(r.synthesized_commands, 1);
        assert_eq!(p.command_trace()[2], "sim.power.set(lamp=a)");
    }

    #[test]
    fn text_submission() {
        let mut p = platform();
        let r = p
            .submit_text("model m conformsTo lamps { Lamp l { name = \"hall\" } }")
            .unwrap();
        assert_eq!(r.execution.commands, 1);
        assert!(p
            .submit_text("model m conformsTo lamps { Lamp l { } }")
            .is_err());
        assert!(p.submit_text("garbage").is_err());
    }

    #[test]
    fn suppressed_layers_are_reported() {
        let pm = PlatformModelBuilder::new("obj", "lighting")
            .controller(|_, _| {})
            .broker("lampBroker")
            .build();
        let mut p = PlatformBuilder::new(&pm, dsk())
            .unwrap()
            .broker_model(broker_model())
            .resources(hub())
            .build()
            .unwrap();
        assert!(matches!(
            p.open_session(),
            Err(CoreError::LayerSuppressed("ui"))
        ));
        assert!(matches!(
            p.submit_model(Model::new("lamps")),
            Err(CoreError::LayerSuppressed("synthesis"))
        ));
        // But direct script execution works (smart-object mode).
        let script = ControlScript::immediate(vec![
            mddsm_synthesis::Command::new("turnOn", "").with("lamp", "desk")
        ]);
        let r = p.run_script(&script).unwrap();
        assert_eq!(r.commands, 1);
        assert_eq!(p.command_trace(), vec!["sim.power.set(lamp=desk)"]);
    }

    #[test]
    fn controllerless_node_calls_broker_directly() {
        let pm = PlatformModelBuilder::new("thin", "lighting")
            .broker("lampBroker")
            .build();
        let mut p = PlatformBuilder::new(&pm, dsk())
            .unwrap()
            .broker_model(broker_model())
            .resources(hub())
            .build()
            .unwrap();
        let script = ControlScript::immediate(vec![
            mddsm_synthesis::Command::new("power.set", "").with("lamp", "x")
        ]);
        let r = p.run_script(&script).unwrap();
        assert_eq!(r.broker_calls, 1);
        assert_eq!(p.command_trace(), vec!["sim.power.set(lamp=x)"]);
    }

    #[test]
    fn builder_rejects_mismatches() {
        // DSML mismatch.
        let pm = PlatformModelBuilder::new("x", "d").ui("other").build();
        assert!(PlatformBuilder::new(&pm, dsk()).is_err());
        // Missing broker model.
        let pm = PlatformModelBuilder::new("x", "d")
            .broker("lampBroker")
            .build();
        assert!(PlatformBuilder::new(&pm, dsk())
            .unwrap()
            .resources(hub())
            .build()
            .is_err());
        // Broker model name mismatch.
        let pm = PlatformModelBuilder::new("x", "d")
            .broker("otherBroker")
            .build();
        let r = PlatformBuilder::new(&pm, dsk())
            .unwrap()
            .broker_model(broker_model())
            .resources(hub())
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn reflective_platform_model_defaults_apply() {
        // ControllerLayerSpec defaults flow into the engine config.
        let pm = PlatformModelBuilder::new("x", "d")
            .ui("lamps")
            .synthesis("Skip")
            .controller(|m, c| m.set_attr(c, "adaptive", Value::from(false)))
            .broker("lampBroker")
            .build();
        let p = PlatformBuilder::new(&pm, dsk())
            .unwrap()
            .broker_model(broker_model())
            .resources(hub())
            .build()
            .unwrap();
        assert!(p.controller().is_some());
    }
}
