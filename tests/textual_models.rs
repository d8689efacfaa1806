//! The textual model format as the user-facing artifact: hand-written
//! models for all four domain DSMLs parse, validate, round-trip, and
//! execute.

use mddsm::meta::diff::equivalent;
use mddsm::meta::text;

const CML_MODEL: &str = r#"
// A three-party conference with voice and screen share.
model conference conformsTo cml {
    CommSchema s { name = "standup" persons -> [ana, bob, cj] media -> [voice, screen] connections -> [main] }
    Person ana { name = "ana" userId = "ana@cvm" device = "desktop" }
    Person bob { name = "bob" userId = "bob@cvm" device = "mobile" }
    Person cj  { name = "cj"  userId = "cj@cvm" }
    Medium voice  { name = "voice" kind = MediaKind::Audio bandwidthKbps = 64 codec = "opus" }
    Medium screen { name = "screen" kind = MediaKind::Video bandwidthKbps = 1024 codec = "h264" }
    Connection main { name = "main" parties -> [ana, bob, cj] media -> [voice, screen] }
}
"#;

const MGRID_MODEL: &str = r#"
model home conformsTo mgridml {
    Microgrid g { name = "home" sources -> [pv, gen] storage -> [batt] loads -> [hvac, pool] }
    PowerSource pv  { name = "pv"  kind = SourceKind::Solar capacityKw = 4.5 }
    PowerSource gen { name = "gen" kind = SourceKind::Generator capacityKw = 2.0 online = true }
    StorageUnit batt { name = "batt" capacityKwh = 10.0 chargeKwh = 6.5 }
    Load hvac { name = "hvac" demandKw = 3.0 priority = LoadPriority::Critical }
    Load pool { name = "pool" demandKw = 1.5 priority = LoadPriority::Deferrable enabled = true }
}
"#;

const TWOSML_MODEL: &str = r#"
model lab conformsTo "2sml" {
    SmartSpace lab { name = "lab" users -> [u] objects -> [lamp] rules -> [welcome] }
    User u { name = "dana" }
    SmartObject lamp { name = "hall:lamp" kind = ObjectKind::Lamp location = "hall" }
    AutomationRule welcome { name = "welcome" onEvent = SpaceEvent::objectEntered object = "hall:lamp" action = "on" }
}
"#;

const CSML_MODEL: &str = r#"
model survey conformsTo csml {
    SensingQuery air { name = "air" sensor = Sensor::AirQuality region = "harbor" sampleRateHz = 4 aggregation = Aggregation::Max }
}
"#;

fn roundtrip(src: &str, mm: &mddsm::meta::Metamodel) {
    let model = text::parse(src).expect("fixture parses");
    mddsm::meta::conformance::check(&model, mm).expect("fixture conforms");
    let written = text::write(&model);
    let reparsed = text::parse(&written).expect("written form parses");
    assert!(equivalent(&model, &reparsed));
}

#[test]
fn all_domain_fixtures_roundtrip() {
    roundtrip(CML_MODEL, &mddsm::cvm::cml::cml_metamodel());
    roundtrip(MGRID_MODEL, &mddsm::mgridvm::mgridml::mgridml_metamodel());
    roundtrip(TWOSML_MODEL, &mddsm::ssvm::twosml::twosml_metamodel());
    roundtrip(CSML_MODEL, &mddsm::csvm::csml::csml_metamodel());
}

#[test]
fn cml_fixture_executes_on_cvm() {
    let mut p = mddsm::cvm::build_cvm(13, 20);
    let report = p.submit_text(CML_MODEL).unwrap();
    assert!(report.execution.commands >= 1);
    assert!(p
        .command_trace()
        .iter()
        .any(|t| t.starts_with("sim.signaling.invite")));
}

#[test]
fn mgrid_fixture_executes_on_mgridvm() {
    let plant = mddsm::mgridvm::plant::shared_plant();
    let mut p = mddsm::mgridvm::build_mgridvm(13, plant.clone());
    p.submit_text(MGRID_MODEL).unwrap();
    assert!(plant.lock().unwrap().dispatches() >= 1);
}

#[test]
fn csml_fixture_executes_on_csvm() {
    let fleet = mddsm::csvm::fleet::shared_fleet(8, &["harbor"], 13);
    let mut p = mddsm::csvm::build_csvm(13, fleet.clone());
    p.submit_text(CSML_MODEL).unwrap();
    assert_eq!(fleet.lock().unwrap().running(), vec!["air"]);
}

#[test]
fn broken_fixtures_fail_with_positions() {
    // Unknown enum type literal.
    let e = text::parse("model m conformsTo cml { Medium v { kind = 5x } }").unwrap_err();
    assert!(e.to_string().contains("syntax error"));
    // A structurally fine model that violates the DSML still parses but is
    // rejected at conformance.
    let m = text::parse("model m conformsTo cml { Connection c { name = \"x\" } }").unwrap();
    assert!(mddsm::meta::conformance::check(&m, &mddsm::cvm::cml::cml_metamodel()).is_err());
}
