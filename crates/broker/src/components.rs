//! Manager components: the Broker layer hosted in the generic runtime
//! environment.
//!
//! §V-A: the runtime environment "is used to generate and execute the
//! appropriate middleware components defined in the model. It does so with
//! a component factory that generates each middleware component based on
//! code templates that are parameterized with metadata from the middleware
//! model. It also provides threads (and the underlying concurrency model)
//! to run the middleware components."
//!
//! [`managers_container`] realizes exactly that: for every `Manager` object
//! of a broker model, the matching code template is instantiated with the
//! object's metadata, yielding a [`Container`] whose components expose the
//! broker over the message bus:
//!
//! * `MainManager` — handles `broker.call` / `broker.event` messages and
//!   emits `broker.result`s;
//! * `StateManager` — handles `broker.setState` (`effect` payload);
//! * `AutonomicManager` — handles `broker.tick`, runs the MAPE cycle, and
//!   re-emits autonomic events as `broker.autonomic` messages;
//! * `PolicyManager` / `ResourceManager` — passive bookkeeping components
//!   (their logic lives inside the interpreted model; the components give
//!   them lifecycle presence and introspection).

use crate::engine::GenericBroker;
use crate::{BrokerError, Result};
use mddsm_meta::model::Model;
use mddsm_runtime::{Component, ComponentFactory, Container, Ctx, Message, Metadata};
use std::sync::{Arc, Mutex};

/// Shared handle to a broker driven by components.
pub type SharedBroker = Arc<Mutex<GenericBroker>>;

/// Wraps a broker for component-based hosting.
pub fn share(broker: GenericBroker) -> SharedBroker {
    Arc::new(Mutex::new(broker))
}

/// Locks the shared broker, surfacing mutex poisoning as a component
/// failure instead of a middleware crash.
fn lock_broker<'a>(
    component: &str,
    broker: &'a SharedBroker,
) -> mddsm_runtime::Result<std::sync::MutexGuard<'a, GenericBroker>> {
    broker
        .lock()
        .map_err(|_| mddsm_runtime::RuntimeError::ComponentFailed {
            component: component.to_owned(),
            reason: "broker mutex poisoned".to_owned(),
        })
}

struct MainManagerComponent {
    name: String,
    broker: SharedBroker,
}

impl Component for MainManagerComponent {
    fn subscriptions(&self) -> Vec<String> {
        vec!["broker.call".into(), "broker.event".into()]
    }

    fn handle(&mut self, msg: &Message, ctx: &mut Ctx) -> mddsm_runtime::Result<()> {
        let op = msg.get("op").unwrap_or_default().to_owned();
        let args: Vec<(String, String)> = msg
            .payload
            .iter()
            .filter(|(k, _)| k.as_str() != "op")
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut broker = lock_broker(&self.name, &self.broker)?;
        let result = if msg.topic == "broker.call" {
            broker.call(&op, &args)
        } else {
            broker.event(&op, &args)
        };
        let mut out = Message::new("broker.result").with("op", op);
        match result {
            Ok(r) => {
                out = out
                    .with("ok", r.outcome.is_ok().to_string())
                    .with("action", r.action)
                    .with("cost_us", r.cost.as_micros().to_string());
            }
            Err(e) => {
                out = out.with("ok", "false").with("error", e.to_string());
            }
        }
        ctx.emit(out);
        Ok(())
    }
}

struct StateManagerComponent {
    broker: SharedBroker,
}

impl Component for StateManagerComponent {
    fn subscriptions(&self) -> Vec<String> {
        vec!["broker.setState".into()]
    }

    fn handle(&mut self, msg: &Message, _ctx: &mut Ctx) -> mddsm_runtime::Result<()> {
        if let Some(effect) = msg.get("effect") {
            let mut broker = lock_broker("StateManager", &self.broker)?;
            broker
                .apply_effect(effect)
                .map_err(|e| mddsm_runtime::RuntimeError::BadMetadata(e.to_string()))?;
        }
        Ok(())
    }
}

struct AutonomicManagerComponent {
    broker: SharedBroker,
}

impl Component for AutonomicManagerComponent {
    fn subscriptions(&self) -> Vec<String> {
        vec!["broker.tick".into()]
    }

    fn handle(&mut self, _msg: &Message, ctx: &mut Ctx) -> mddsm_runtime::Result<()> {
        let emitted = {
            let mut broker = lock_broker("AutonomicManager", &self.broker)?;
            broker
                .autonomic_tick()
                .map_err(|e| mddsm_runtime::RuntimeError::BadMetadata(e.to_string()))?
        };
        for topic in emitted {
            ctx.emit(Message::new("broker.autonomic").with("event", topic));
        }
        Ok(())
    }
}

/// A passive manager: present for lifecycle and introspection only.
struct PassiveManagerComponent {
    handled: u64,
}

impl Component for PassiveManagerComponent {
    fn subscriptions(&self) -> Vec<String> {
        Vec::new()
    }
    fn handle(&mut self, _msg: &Message, _ctx: &mut Ctx) -> mddsm_runtime::Result<()> {
        self.handled += 1;
        Ok(())
    }
}

/// The code-template registry for broker managers; every template is
/// parameterized with the manager object's metadata (at minimum its
/// `name` and `__class`).
pub fn broker_component_factory(broker: SharedBroker) -> ComponentFactory {
    let mut factory = ComponentFactory::new();
    let b = broker.clone();
    factory.register("mainManager", move |md: &Metadata| {
        Ok(Box::new(MainManagerComponent {
            name: md.require_str("name")?.to_owned(),
            broker: b.clone(),
        }) as Box<dyn Component>)
    });
    let b = broker.clone();
    factory.register("stateManager", move |_md| {
        Ok(Box::new(StateManagerComponent { broker: b.clone() }) as Box<dyn Component>)
    });
    let b = broker.clone();
    factory.register("autonomicManager", move |_md| {
        Ok(Box::new(AutonomicManagerComponent { broker: b.clone() }) as Box<dyn Component>)
    });
    factory.register("passiveManager", |_md| {
        Ok(Box::new(PassiveManagerComponent { handled: 0 }) as Box<dyn Component>)
    });
    factory
}

/// Instantiates one component per `Manager` object of the broker model and
/// starts them in a [`Container`] — the Fig. 2 generation step for the
/// Broker layer's structure.
pub fn managers_container(model: &Model, broker: SharedBroker) -> Result<Container> {
    let factory = broker_component_factory(broker);
    let mut container = Container::new();
    for (id, obj) in model.iter() {
        let template = match obj.class.as_str() {
            "MainManager" => "mainManager",
            "StateManager" => "stateManager",
            "AutonomicManager" => "autonomicManager",
            "PolicyManager" | "ResourceManager" => "passiveManager",
            _ => continue,
        };
        let metadata = Metadata::from_object(model, id)
            .map_err(|e| BrokerError::InvalidModel(e.to_string()))?;
        let name = model.attr_str(id, "name").unwrap_or(template).to_owned();
        let component = factory
            .instantiate(template, &metadata)
            .map_err(|e| BrokerError::InvalidModel(e.to_string()))?;
        container
            .add(&name, component)
            .map_err(|e| BrokerError::InvalidModel(e.to_string()))?;
    }
    container
        .start_all()
        .map_err(|e| BrokerError::InvalidModel(e.to_string()))?;
    Ok(container)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BrokerModelBuilder;
    use mddsm_sim::resource::Outcome;
    use mddsm_sim::ResourceHub;

    fn shared() -> (SharedBroker, Model) {
        let mut hub = ResourceHub::new(1);
        hub.register_fn("svc", |op, _| {
            if op == "boom" {
                Outcome::Failed("boom".into())
            } else {
                Outcome::ok()
            }
        });
        let model = BrokerModelBuilder::new("b")
            .call_handler("ping", "ping")
            .action(
                "ping",
                "pong",
                "svc",
                "ping",
                &["x=$x"],
                None,
                &["pings=+1"],
            )
            .autonomic_rule(
                "tooMany",
                "self.pings <> null and self.pings > 1",
                &["set pings 0", "emit cooled"],
            )
            .build();
        let broker = GenericBroker::from_model(&model, hub).unwrap();
        (share(broker), model)
    }

    #[test]
    fn managers_are_generated_from_the_model() {
        let (broker, model) = shared();
        let container = managers_container(&model, broker).unwrap();
        // The standard builder declares all five managers.
        assert_eq!(
            container.names(),
            vec!["main", "state", "policy", "autonomic", "resource"]
        );
    }

    #[test]
    fn calls_flow_through_the_main_manager_component() {
        let (broker, model) = shared();
        let mut container = managers_container(&model, broker.clone()).unwrap();
        container
            .dispatch(
                Message::new("broker.call")
                    .with("op", "ping")
                    .with("x", "1"),
            )
            .unwrap();
        assert_eq!(
            broker.lock().unwrap().hub().command_trace(),
            vec!["svc.ping(x=1)"]
        );
        assert_eq!(broker.lock().unwrap().state().int("pings"), Some(1));
    }

    #[test]
    fn autonomic_component_runs_mape_and_reemits_events() {
        let (broker, model) = shared();
        let mut container = managers_container(&model, broker.clone()).unwrap();
        for _ in 0..2 {
            container
                .dispatch(Message::new("broker.call").with("op", "ping"))
                .unwrap();
        }
        assert_eq!(broker.lock().unwrap().state().int("pings"), Some(2));
        container.dispatch(Message::new("broker.tick")).unwrap();
        assert_eq!(broker.lock().unwrap().state().int("pings"), Some(0));
    }

    #[test]
    fn state_manager_component_applies_effects() {
        let (broker, model) = shared();
        let mut container = managers_container(&model, broker.clone()).unwrap();
        container
            .dispatch(Message::new("broker.setState").with("effect", "mode=relay"))
            .unwrap();
        assert_eq!(broker.lock().unwrap().state().str("mode"), Some("relay"));
        // A malformed effect fails the component (isolated by the container).
        let r = container.dispatch(Message::new("broker.setState").with("effect", "broken"));
        assert!(r.is_err());
    }

    #[test]
    fn lean_models_generate_fewer_components() {
        let (broker, _) = shared();
        let lean = BrokerModelBuilder::lean("tiny")
            .call_handler("h", "op")
            .action("h", "a", "svc", "ping", &[], None, &[])
            .build();
        let container = managers_container(&lean, broker).unwrap();
        assert_eq!(container.names(), vec!["main", "state"]);
    }
}
