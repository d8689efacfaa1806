//! The Smart Space Modeling Language (2SML).

use mddsm_meta::metamodel::{DataType, Metamodel, MetamodelBuilder, Multiplicity};
use mddsm_meta::Value;
use mddsm_synthesis::lts::{ChangePattern, CommandTemplate};
use mddsm_synthesis::{Lts, LtsBuilder};

/// Name of the 2SML metamodel.
pub const TWOSML: &str = "2sml";

/// Builds the 2SML metamodel: users, smart objects, ubiquitous apps, and
/// automation rules binding events to object actions.
pub fn twosml_metamodel() -> Metamodel {
    MetamodelBuilder::new(TWOSML)
        .enumeration(
            "ObjectKind",
            ["Lamp", "Door", "Thermostat", "Speaker", "Sensor"],
        )
        .enumeration(
            "SpaceEvent",
            ["objectEntered", "objectLeft", "motionDetected"],
        )
        .class("SmartSpace", |c| {
            c.attr("name", DataType::Str)
                .contains("users", "User", Multiplicity::MANY)
                .contains("objects", "SmartObject", Multiplicity::MANY)
                .contains("apps", "UbiApp", Multiplicity::MANY)
                .contains("rules", "AutomationRule", Multiplicity::MANY)
        })
        .class("User", |c| c.attr("name", DataType::Str))
        .class("SmartObject", |c| {
            c.attr("name", DataType::Str)
                .attr("kind", DataType::Enum("ObjectKind".into()))
                .attr_default("location", DataType::Str, Value::from("unknown"))
        })
        .class("UbiApp", |c| {
            c.attr("name", DataType::Str)
                .reference("controls", "SmartObject", Multiplicity::MANY)
        })
        .class("AutomationRule", |c| {
            c.attr("name", DataType::Str)
                .attr("onEvent", DataType::Enum("SpaceEvent".into()))
                .attr("object", DataType::Str)
                .attr("action", DataType::Str)
                .invariant("action-not-empty", "self.action <> \"\"")
        })
        .build()
        .expect("2SML metamodel is well-formed")
}

/// The 2SML synthesis LTS.
///
/// Smart-object creations configure the device immediately; automation
/// rules become *installed* scripts triggered by their event (the guard
/// reads the rule's `onEvent`, the template its `object`/`action`
/// attributes via `$attr_*` variables).
pub fn twosml_lts() -> Lts {
    let mut b = LtsBuilder::new().state("running").initial("running");
    b = b.transition(
        "running",
        "running",
        ChangePattern::create("SmartObject"),
        |t| {
            t.emit(
                CommandTemplate::new("configureObject", "$key")
                    .with("object", "$attr_name")
                    .with("kind", "$attr_kind"),
            )
        },
    );
    b = b.transition(
        "running",
        "running",
        ChangePattern::delete("SmartObject"),
        |t| t.emit(CommandTemplate::new("removeObject", "$key").with("object", "$id")),
    );
    for event in ["objectEntered", "objectLeft", "motionDetected"] {
        b = b.transition(
            "running",
            "running",
            ChangePattern::create("AutomationRule"),
            |t| {
                t.guard(&format!("self.onEvent = SpaceEvent::{event}"))
                    .install_on(event)
                    .emit(
                        CommandTemplate::new("actuate", "$key")
                            .with("object", "$attr_object")
                            .with("action", "$attr_action"),
                    )
            },
        );
    }
    b.build().expect("2SML LTS is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mddsm_meta::conformance;
    use mddsm_meta::model::Model;

    #[test]
    fn metamodel_accepts_a_space() {
        let mm = twosml_metamodel();
        let mut m = Model::new(TWOSML);
        let space = m.create("SmartSpace");
        m.set_attr(space, "name", Value::from("lab"));
        let lamp = m.create("SmartObject");
        m.set_attr(lamp, "name", Value::from("lamp1"));
        m.set_attr(lamp, "kind", Value::enumeration("ObjectKind", "Lamp"));
        let rule = m.create("AutomationRule");
        m.set_attr(rule, "name", Value::from("welcome"));
        m.set_attr(
            rule,
            "onEvent",
            Value::enumeration("SpaceEvent", "objectEntered"),
        );
        m.set_attr(rule, "object", Value::from("lamp1"));
        m.set_attr(rule, "action", Value::from("on"));
        m.add_ref(space, "objects", lamp);
        m.add_ref(space, "rules", rule);
        conformance::check(&m, &mm).unwrap();
        // Empty action violates the invariant.
        m.set_attr(rule, "action", Value::from(""));
        assert!(conformance::check(&m, &mm).is_err());
    }

    #[test]
    fn lts_installs_rule_scripts() {
        use mddsm_meta::diff::diff;
        use mddsm_synthesis::{ChangeInterpreter, InterpreterConfig};
        let mm = twosml_metamodel();
        let mut interp = ChangeInterpreter::new(twosml_lts(), InterpreterConfig::default());
        let old = Model::new(TWOSML);
        let mut new = Model::new(TWOSML);
        let rule = new.create("AutomationRule");
        new.set_attr(rule, "name", Value::from("welcome"));
        new.set_attr(
            rule,
            "onEvent",
            Value::enumeration("SpaceEvent", "objectLeft"),
        );
        new.set_attr(rule, "object", Value::from("lamp1"));
        new.set_attr(rule, "action", Value::from("off"));
        let changes = diff(&old, &new);
        let out = interp.interpret(&changes, &new, &mm).unwrap();
        assert!(out.immediate.is_empty());
        assert_eq!(out.installed.len(), 1);
        let script = &out.installed[0];
        assert_eq!(script.trigger.as_ref().unwrap().topic, "objectLeft");
        assert_eq!(
            script.render(),
            "actuate@AutomationRule[\"welcome\"](object=lamp1, action=off)"
        );
    }
}
