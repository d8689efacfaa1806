//! The split 2SVM deployment: central node + smart-object nodes.
//!
//! "Model synthesis only happens in the smart space controller, which
//! dispatches the synthesized control scripts to the middleware layer on
//! the smart objects" (§IV-C). The central node runs UI + Synthesis; every
//! synthesized script is routed over the simulated network to the object
//! node named by each command's `object` argument (broadcast when absent).
//! Installed (event-triggered) scripts are installed on the object nodes
//! and fire when the environment reports events.

use crate::objects::{build_object_node, shared_devices, SharedDevices};
use crate::twosml::{twosml_lts, twosml_metamodel, TWOSML};
use mddsm_controller::ExecutionReport;
use mddsm_core::{DomainKnowledge, MdDsmPlatform, PlatformBuilder, PlatformModelBuilder};
use mddsm_meta::model::Model;
use mddsm_sim::{SimDuration, SimRng};
use mddsm_synthesis::{Command, ControlScript};
use std::collections::BTreeMap;

/// A smart space: one central node and N object nodes.
pub struct SmartSpaceDeployment {
    central: MdDsmPlatform,
    nodes: BTreeMap<String, MdDsmPlatform>,
    devices: SharedDevices,
    /// Virtual network cost per dispatched script.
    dispatch_latency: SimDuration,
    dispatched_scripts: u64,
    virtual_network_us: u64,
    rng: SimRng,
}

impl SmartSpaceDeployment {
    /// Builds a deployment with the given object-node names.
    pub fn new(space: &str, node_names: &[&str], seed: u64) -> Self {
        let central_model = PlatformModelBuilder::new(space, "smart-spaces")
            .ui(TWOSML)
            .synthesis("Skip")
            .build();
        let dsk = DomainKnowledge {
            dsml: twosml_metamodel(),
            lts: twosml_lts(),
            dscs: mddsm_controller::DscRegistry::new(),
            procedures: mddsm_controller::ProcedureRepository::new(),
            actions: mddsm_controller::ActionRegistry::new(),
            command_map: vec![],
            event_commands: vec![],
        };
        let central = PlatformBuilder::new(&central_model, dsk)
            .expect("central node is consistent")
            .build()
            .expect("central node assembles");
        let devices = shared_devices();
        let nodes = node_names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                (
                    (*n).to_owned(),
                    build_object_node(n, seed.wrapping_add(i as u64), devices.clone()),
                )
            })
            .collect();
        SmartSpaceDeployment {
            central,
            nodes,
            devices,
            dispatch_latency: SimDuration::from_millis(5),
            dispatched_scripts: 0,
            virtual_network_us: 0,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// The shared simulated devices (for assertions).
    pub fn devices(&self) -> &SharedDevices {
        &self.devices
    }

    /// Opens an editing session on the central node's 2SML environment.
    pub fn open_session(&self) -> mddsm_core::Result<mddsm_ui::EditingSession> {
        self.central.open_session()
    }

    /// Scripts dispatched to object nodes so far.
    pub fn dispatched_scripts(&self) -> u64 {
        self.dispatched_scripts
    }

    /// Accumulated virtual network cost of dispatches (µs).
    pub fn virtual_network_us(&self) -> u64 {
        self.virtual_network_us
    }

    /// Submits a 2SML model at the central node; immediate scripts are
    /// dispatched to object nodes, triggered scripts installed on them.
    pub fn submit_model(&mut self, model: Model) -> mddsm_core::Result<ExecutionReport> {
        self.central.submit_model(model)?;
        let mut report = ExecutionReport::default();
        // Immediate scripts left the central node through its outbox.
        for script in self.central.drain_outbox() {
            let r = self.dispatch(&script)?;
            report.merge(&r);
        }
        // Triggered scripts are installed on the object nodes they target.
        for script in self.central.take_installed() {
            self.dispatched_scripts += 1;
            self.virtual_network_us += self.dispatch_latency.as_micros();
            for (node_name, node) in self.nodes.iter_mut() {
                if script_targets(&script).is_none_or(|t| t == *node_name) {
                    node.install_script(script.clone());
                }
            }
        }
        Ok(report)
    }

    /// Routes each command of a script to the object node named by its
    /// `object` argument (every node when absent or unknown).
    fn dispatch(&mut self, script: &ControlScript) -> mddsm_core::Result<ExecutionReport> {
        self.dispatched_scripts += 1;
        self.virtual_network_us += self.dispatch_latency.as_micros() + self.rng.range(0, 2_000);
        let mut report = ExecutionReport::default();
        for cmd in &script.commands {
            let target = cmd.arg("object").map(node_of);
            let mut routed = false;
            // Route to the matching node, or broadcast.
            let names: Vec<String> = self.nodes.keys().cloned().collect();
            for name in names {
                let matches = target.as_deref().is_none_or(|t| t == name);
                if matches {
                    let node = self.nodes.get_mut(&name).expect("node exists");
                    let single = ControlScript::immediate(vec![cmd.clone()]);
                    let r = node.run_script(&single)?;
                    report.merge(&r);
                    routed = true;
                    if target.is_some() {
                        break;
                    }
                }
            }
            if !routed && target.is_some() {
                // Unknown target: broadcast (the object may enroll later on
                // any node).
                for node in self.nodes.values_mut() {
                    let single = ControlScript::immediate(vec![cmd.clone()]);
                    let r = node.run_script(&single)?;
                    report.merge(&r);
                }
            }
        }
        Ok(report)
    }

    /// Reports an environmental event to every object node (triggered
    /// scripts fire where installed).
    pub fn notify_event(&mut self, topic: &str) -> mddsm_core::Result<ExecutionReport> {
        let mut report = ExecutionReport::default();
        for node in self.nodes.values_mut() {
            let r = node.notify_event(topic)?;
            report.merge(&r);
        }
        Ok(report)
    }

    /// Borrow an object node by name.
    pub fn node(&self, name: &str) -> Option<&MdDsmPlatform> {
        self.nodes.get(name)
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// The node responsible for an object: objects are hosted on the node
/// whose name prefixes theirs (`node1:lamp` → `node1`), else `node1`-style
/// names are taken as-is.
fn node_of(object: &str) -> String {
    match object.split_once(':') {
        Some((node, _)) => node.to_owned(),
        None => object.to_owned(),
    }
}

fn script_targets(script: &ControlScript) -> Option<String> {
    script
        .commands
        .first()
        .and_then(|c: &Command| c.arg("object"))
        .map(node_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deployment() -> SmartSpaceDeployment {
        SmartSpaceDeployment::new("lab", &["node1", "node2"], 7)
    }

    #[test]
    fn central_synthesizes_objects_onto_nodes() {
        let mut d = deployment();
        assert_eq!(d.node_count(), 2);
        let mut s = d.open_session().unwrap();
        let lamp = s.create("SmartObject").unwrap();
        s.set(lamp, "name", "node1:lamp").unwrap();
        s.set(lamp, "kind", "Lamp").unwrap();
        let report = d.submit_model(s.submit().unwrap()).unwrap();
        assert_eq!(report.commands, 1);
        assert!(d.dispatched_scripts() >= 1);
        assert!(d.virtual_network_us() > 0);
        // The device was configured on node1 only.
        let trace1 = d.node("node1").unwrap().command_trace();
        let trace2 = d.node("node2").unwrap().command_trace();
        assert_eq!(trace1.len(), 1, "{trace1:?}");
        assert!(trace2.is_empty(), "{trace2:?}");
        assert!(d.devices().lock().unwrap().contains_key("node1:lamp"));
    }

    #[test]
    fn rules_install_and_fire_on_events() {
        let mut d = deployment();
        let mut s = d.open_session().unwrap();
        let lamp = s.create("SmartObject").unwrap();
        s.set(lamp, "name", "node1:lamp").unwrap();
        s.set(lamp, "kind", "Lamp").unwrap();
        let rule = s.create("AutomationRule").unwrap();
        s.set(rule, "name", "welcome").unwrap();
        s.set(rule, "onEvent", "objectEntered").unwrap();
        s.set(rule, "object", "node1:lamp").unwrap();
        s.set(rule, "action", "on").unwrap();
        let report = d.submit_model(s.submit().unwrap()).unwrap();
        // The rule produced no immediate actuation...
        assert_eq!(d.devices().lock().unwrap()["node1:lamp"].state, "");
        assert_eq!(report.commands, 1); // only configureObject
                                        // ...until the event arrives.
        let report = d.notify_event("objectEntered").unwrap();
        assert_eq!(report.commands, 1);
        assert_eq!(d.devices().lock().unwrap()["node1:lamp"].state, "on");
        assert_eq!(d.devices().lock().unwrap()["node1:lamp"].actuations, 1);
        // Events keep firing the installed script.
        d.notify_event("objectEntered").unwrap();
        assert_eq!(d.devices().lock().unwrap()["node1:lamp"].actuations, 2);
    }

    #[test]
    fn removing_an_object_routes_to_its_node() {
        let mut d = deployment();
        let mut s = d.open_session().unwrap();
        let lamp = s.create("SmartObject").unwrap();
        s.set(lamp, "name", "node2:door").unwrap();
        s.set(lamp, "kind", "Door").unwrap();
        d.submit_model(s.submit().unwrap()).unwrap();
        assert!(d.devices().lock().unwrap().contains_key("node2:door"));
        s.delete(lamp).unwrap();
        d.submit_model(s.submit().unwrap()).unwrap();
        assert!(!d.devices().lock().unwrap().contains_key("node2:door"));
    }
}
