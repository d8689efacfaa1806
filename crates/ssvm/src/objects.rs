//! Smart-object nodes: the bottom-two-layer 2SVM instances.
//!
//! Each node hosts the Controller and Broker layers plus a simulated
//! device bus (`sim.object`): the programmable smart objects the node
//! manages. Scripts arrive from the central node via the deployment.

use mddsm_broker::BrokerModelBuilder;
use mddsm_controller::procedure::{ExecutionUnit, Instr, Operand, ProcMeta, Procedure};
use mddsm_controller::{ActionRegistry, DscRegistry, ProcedureRepository};
use mddsm_core::{DomainKnowledge, MdDsmPlatform, PlatformBuilder, PlatformModelBuilder};
use mddsm_sim::resource::{Args, Outcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Observable state of one simulated smart object.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeviceState {
    /// Device kind (Lamp, Door, ...).
    pub kind: String,
    /// Last action applied (`on`, `off`, `unlock`, ...).
    pub state: String,
    /// Number of actuations.
    pub actuations: u64,
}

/// Shared device registry for assertions in tests and examples.
pub type SharedDevices = Arc<Mutex<BTreeMap<String, DeviceState>>>;

/// Creates an empty shared device registry.
pub fn shared_devices() -> SharedDevices {
    Arc::new(Mutex::new(BTreeMap::new()))
}

fn arg<'a>(args: &'a Args, key: &str) -> &'a str {
    args.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or("")
}

/// Registers the device bus resource on a hub.
pub fn register_devices(hub: &mut ResourceHub, devices: SharedDevices) {
    hub.register(
        "sim.object",
        LatencyModel::uniform_ms(1, 3),
        SimDuration::from_millis(300),
        Box::new(move |op: &str, args: &Args| {
            let mut devices = devices.lock().expect("device lock");
            match op {
                "configure" => {
                    let d = devices.entry(arg(args, "object").to_owned()).or_default();
                    d.kind = arg(args, "kind").to_owned();
                    Outcome::ok()
                }
                "actuate" => {
                    let name = arg(args, "object");
                    match devices.get_mut(name) {
                        Some(d) => {
                            d.state = arg(args, "action").to_owned();
                            d.actuations += 1;
                            Outcome::ok_with("state", d.state.clone())
                        }
                        None => Outcome::Failed(format!("unknown object `{name}`")),
                    }
                }
                "remove" => {
                    if devices.remove(arg(args, "object")).is_some() {
                        Outcome::ok()
                    } else {
                        Outcome::Failed(format!("unknown object `{}`", arg(args, "object")))
                    }
                }
                other => Outcome::Failed(format!("object bus: unknown op `{other}`")),
            }
        }),
    );
}

/// DSCs of the object-node controller.
pub fn object_dscs() -> DscRegistry {
    let mut d = DscRegistry::new();
    d.operation("ConfigureObject", None, "enroll a smart object")
        .expect("unique DSC");
    d.operation("Actuate", None, "apply an action to an object")
        .expect("unique DSC");
    d.operation("RemoveObject", None, "retire a smart object")
        .expect("unique DSC");
    d
}

/// Procedures of the object-node controller.
pub fn object_procedures() -> ProcedureRepository {
    let mut r = ProcedureRepository::new();
    let a = Operand::arg;
    let bus = |op: &str, args: &[(&str, Operand)]| Instr::BrokerCall {
        api: "object".into(),
        op: op.into(),
        args: args
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
    };
    r.add(Procedure {
        id: "configure".into(),
        classifier: "ConfigureObject".into(),
        dependencies: vec![],
        meta: ProcMeta::default(),
        on_error: None,
        eus: vec![ExecutionUnit::new(
            "main",
            vec![
                bus("configure", &[("object", a("object")), ("kind", a("kind"))]),
                Instr::Complete,
            ],
        )],
    })
    .expect("unique procedure");
    r.add(Procedure {
        id: "actuate".into(),
        classifier: "Actuate".into(),
        dependencies: vec![],
        meta: ProcMeta::default(),
        on_error: None,
        eus: vec![ExecutionUnit::new(
            "main",
            vec![
                bus(
                    "actuate",
                    &[("object", a("object")), ("action", a("action"))],
                ),
                Instr::Complete,
            ],
        )],
    })
    .expect("unique procedure");
    r.add(Procedure {
        id: "remove".into(),
        classifier: "RemoveObject".into(),
        dependencies: vec![],
        meta: ProcMeta::default(),
        on_error: None,
        eus: vec![ExecutionUnit::new(
            "main",
            vec![bus("remove", &[("object", a("object"))]), Instr::Complete],
        )],
    })
    .expect("unique procedure");
    r
}

/// The object-node broker model.
pub fn object_broker_model(name: &str) -> mddsm_meta::Model {
    BrokerModelBuilder::new(name)
        .call_handler("configure", "object.configure")
        .action(
            "configure",
            "configure",
            "bus",
            "configure",
            &["object=$object", "kind=$kind"],
            None,
            &[],
        )
        .call_handler("actuate", "object.actuate")
        .action(
            "actuate",
            "actuate",
            "bus",
            "actuate",
            &["object=$object", "action=$action"],
            None,
            &["actuations=+1"],
        )
        .call_handler("remove", "object.remove")
        .action(
            "remove",
            "remove",
            "bus",
            "remove",
            &["object=$object"],
            None,
            &[],
        )
        .bind_resource("bus", "sim.object")
        .build()
}

/// Builds one smart-object node: Controller + Broker layers only.
pub fn build_object_node(name: &str, seed: u64, devices: SharedDevices) -> MdDsmPlatform {
    let platform_model = PlatformModelBuilder::new(name, "smart-spaces")
        .controller(|_, _| {})
        .broker(name)
        .build();
    let dsk = DomainKnowledge {
        dsml: crate::twosml::twosml_metamodel(),
        lts: crate::twosml::twosml_lts(),
        dscs: object_dscs(),
        procedures: object_procedures(),
        actions: ActionRegistry::new(),
        command_map: vec![
            ("configureObject".into(), "ConfigureObject".into()),
            ("actuate".into(), "Actuate".into()),
            ("removeObject".into(), "RemoveObject".into()),
        ],
        event_commands: vec![],
    };
    let mut hub = ResourceHub::new(seed);
    register_devices(&mut hub, devices);
    PlatformBuilder::new(&platform_model, dsk)
        .expect("object node model and DSK are consistent")
        .broker_model(object_broker_model(name))
        .resources(hub)
        .build()
        .expect("object node assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mddsm_synthesis::{Command, ControlScript};

    #[test]
    fn object_model_analyzes_clean() {
        // Load-time gate: zero diagnostics on the shipped broker model.
        let report = mddsm_broker::analyze(&object_broker_model("lamp-1"));
        assert!(report.is_clean(), "diagnostics: {:?}", report.diagnostics);
    }

    #[test]
    fn object_node_runs_scripts_without_upper_layers() {
        let devices = shared_devices();
        let mut node = build_object_node("node1", 1, devices.clone());
        assert!(node.open_session().is_err());
        let script = ControlScript::immediate(vec![
            Command::new("configureObject", "")
                .with("object", "lamp1")
                .with("kind", "Lamp"),
            Command::new("actuate", "")
                .with("object", "lamp1")
                .with("action", "on"),
        ]);
        let report = node.run_script(&script).unwrap();
        assert_eq!(report.commands, 2);
        let devices = devices.lock().unwrap();
        assert_eq!(devices["lamp1"].state, "on");
        assert_eq!(devices["lamp1"].kind, "Lamp");
    }

    #[test]
    fn actuating_unknown_object_exhausts_nonadaptively() {
        let devices = shared_devices();
        let mut node = build_object_node("node1", 1, devices);
        let script = ControlScript::immediate(vec![Command::new("actuate", "")
            .with("object", "ghost")
            .with("action", "on")]);
        assert!(node.run_script(&script).is_err());
    }

    #[test]
    fn triggered_scripts_run_on_events() {
        let devices = shared_devices();
        let mut node = build_object_node("node1", 1, devices.clone());
        node.run_script(&ControlScript::immediate(vec![Command::new(
            "configureObject",
            "",
        )
        .with("object", "lamp1")
        .with("kind", "Lamp")]))
            .unwrap();
        node.install_script(ControlScript::triggered(
            mddsm_synthesis::script::EventTrigger::on("objectEntered"),
            vec![Command::new("actuate", "")
                .with("object", "lamp1")
                .with("action", "on")],
        ));
        let report = node.notify_event("objectEntered").unwrap();
        assert_eq!(report.commands, 1);
        assert_eq!(devices.lock().unwrap()["lamp1"].state, "on");
        // Non-matching events do nothing.
        let report = node.notify_event("objectLeft").unwrap();
        assert_eq!(report.commands, 0);
    }
}
