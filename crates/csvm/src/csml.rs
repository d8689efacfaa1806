//! The Crowdsensing Modeling Language (CSML).

use mddsm_meta::metamodel::{DataType, Metamodel, MetamodelBuilder};
use mddsm_meta::Value;
use mddsm_synthesis::lts::{ChangePattern, CommandTemplate};
use mddsm_synthesis::{Lts, LtsBuilder};

/// Name of the CSML metamodel.
pub const CSML: &str = "csml";

/// Builds the CSML metamodel: a sensing query names a sensor, a region of
/// interest, a sampling rate, and an aggregation function.
pub fn csml_metamodel() -> Metamodel {
    MetamodelBuilder::new(CSML)
        .enumeration(
            "Sensor",
            ["Gps", "Accelerometer", "Temperature", "Noise", "AirQuality"],
        )
        .enumeration("Aggregation", ["Mean", "Min", "Max", "Count"])
        .class("SensingQuery", |c| {
            c.attr("name", DataType::Str)
                .attr("sensor", DataType::Enum("Sensor".into()))
                .attr("region", DataType::Str)
                .attr_default("sampleRateHz", DataType::Int, Value::from(1))
                .attr_default(
                    "aggregation",
                    DataType::Enum("Aggregation".into()),
                    Value::enumeration("Aggregation", "Mean"),
                )
                .invariant("rate-positive", "self.sampleRateHz > 0")
                .invariant("region-set", "self.region <> \"\"")
        })
        .build()
        .expect("CSML metamodel is well-formed")
}

/// The CSML synthesis LTS: query creation starts acquisition, attribute
/// edits retarget the running query on the fly, deletion stops it.
pub fn csml_lts() -> Lts {
    LtsBuilder::new()
        .state("serving")
        .initial("serving")
        .transition(
            "serving",
            "serving",
            ChangePattern::create("SensingQuery"),
            |t| {
                t.emit(
                    CommandTemplate::new("startQuery", "$key")
                        .with("query", "$attr_name")
                        .with("sensor", "$attr_sensor")
                        .with("region", "$attr_region")
                        .with("rate", "$attr_sampleRateHz")
                        .with("aggregation", "$attr_aggregation"),
                )
            },
        )
        .transition(
            "serving",
            "serving",
            ChangePattern::set_attr("SensingQuery", "sampleRateHz").on_existing(),
            |t| {
                t.emit(
                    CommandTemplate::new("retargetQuery", "$key")
                        .with("query", "$attr_name")
                        .with("rate", "$value"),
                )
            },
        )
        .transition(
            "serving",
            "serving",
            ChangePattern::set_attr("SensingQuery", "region").on_existing(),
            |t| {
                t.emit(
                    CommandTemplate::new("retargetQuery", "$key")
                        .with("query", "$attr_name")
                        .with("region", "$value"),
                )
            },
        )
        .transition(
            "serving",
            "serving",
            ChangePattern::delete("SensingQuery"),
            |t| t.emit(CommandTemplate::new("stopQuery", "$key").with("query", "$id")),
        )
        .build()
        .expect("CSML LTS is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mddsm_meta::conformance;
    use mddsm_meta::model::Model;

    fn query_model() -> Model {
        let mut m = Model::new(CSML);
        let q = m.create("SensingQuery");
        m.set_attr(q, "name", Value::from("noise-downtown"));
        m.set_attr(q, "sensor", Value::enumeration("Sensor", "Noise"));
        m.set_attr(q, "region", Value::from("downtown"));
        m.set_attr(q, "sampleRateHz", Value::from(2));
        m
    }

    #[test]
    fn query_models_conform() {
        conformance::check(&query_model(), &csml_metamodel()).unwrap();
    }

    #[test]
    fn invariants_enforced() {
        let mm = csml_metamodel();
        let mut m = query_model();
        let q = m.all_of_class("SensingQuery")[0];
        m.set_attr(q, "sampleRateHz", Value::from(0));
        assert!(conformance::check(&m, &mm).is_err());
        let mut m = query_model();
        let q = m.all_of_class("SensingQuery")[0];
        m.set_attr(q, "region", Value::from(""));
        assert!(conformance::check(&m, &mm).is_err());
    }

    #[test]
    fn lts_emits_query_lifecycle() {
        use mddsm_meta::diff::diff;
        use mddsm_synthesis::{ChangeInterpreter, InterpreterConfig};
        let mm = csml_metamodel();
        let mut interp = ChangeInterpreter::new(csml_lts(), InterpreterConfig::default());
        let empty = Model::new(CSML);
        let m = query_model();
        let changes = diff(&empty, &m);
        let out = interp.interpret(&changes, &m, &mm).unwrap();
        let rendered = out.immediate.render();
        assert!(rendered.contains("startQuery"), "{rendered}");
        assert!(rendered.contains("rate=2"), "{rendered}");
        assert!(rendered.contains("region=downtown"), "{rendered}");

        // On-the-fly rate change -> retarget.
        let mut m2 = m.clone();
        let q = m2.all_of_class("SensingQuery")[0];
        m2.set_attr(q, "sampleRateHz", Value::from(10));
        let changes = diff(&m, &m2);
        let out = interp.interpret(&changes, &m2, &mm).unwrap();
        assert!(
            out.immediate.render().contains("retargetQuery"),
            "{}",
            out.immediate.render()
        );
        assert!(out.immediate.render().contains("rate=10"));

        // Deletion stops.
        let changes = diff(&m2, &empty);
        let out = interp.interpret(&changes, &empty, &mm).unwrap();
        assert!(out.immediate.render().contains("stopQuery"));
    }
}
