//! The §IV-C/§IV-D split deployments: layers suppressed per node, scripts
//! and models crossing node boundaries.

use mddsm::csvm::fleet::shared_fleet;
use mddsm::csvm::CrowdsensingDeployment;
use mddsm::ssvm::SmartSpaceDeployment;

#[test]
fn smart_space_routes_scripts_to_the_right_node() {
    let mut space = SmartSpaceDeployment::new("lab", &["hall", "office"], 5);
    let mut s = space.open_session().unwrap();
    for (name, kind) in [("hall:lamp", "Lamp"), ("office:thermo", "Thermostat")] {
        let o = s.create("SmartObject").unwrap();
        s.set(o, "name", name).unwrap();
        s.set(o, "kind", kind).unwrap();
    }
    space.submit_model(s.submit().unwrap()).unwrap();
    // Each node saw exactly its own object.
    assert_eq!(space.node("hall").unwrap().command_trace().len(), 1);
    assert_eq!(space.node("office").unwrap().command_trace().len(), 1);
    assert!(space.node("hall").unwrap().command_trace()[0].contains("hall:lamp"));
}

#[test]
fn rules_fire_repeatedly_and_only_on_their_event() {
    let mut space = SmartSpaceDeployment::new("lab", &["hall"], 5);
    let mut s = space.open_session().unwrap();
    let lamp = s.create("SmartObject").unwrap();
    s.set(lamp, "name", "hall:lamp").unwrap();
    s.set(lamp, "kind", "Lamp").unwrap();
    let on_enter = s.create("AutomationRule").unwrap();
    s.set(on_enter, "name", "welcome").unwrap();
    s.set(on_enter, "onEvent", "objectEntered").unwrap();
    s.set(on_enter, "object", "hall:lamp").unwrap();
    s.set(on_enter, "action", "on").unwrap();
    let on_leave = s.create("AutomationRule").unwrap();
    s.set(on_leave, "name", "goodbye").unwrap();
    s.set(on_leave, "onEvent", "objectLeft").unwrap();
    s.set(on_leave, "object", "hall:lamp").unwrap();
    s.set(on_leave, "action", "off").unwrap();
    space.submit_model(s.submit().unwrap()).unwrap();

    space.notify_event("objectEntered").unwrap();
    assert_eq!(space.devices().lock().unwrap()["hall:lamp"].state, "on");
    space.notify_event("objectLeft").unwrap();
    assert_eq!(space.devices().lock().unwrap()["hall:lamp"].state, "off");
    space.notify_event("objectEntered").unwrap();
    assert_eq!(space.devices().lock().unwrap()["hall:lamp"].state, "on");
    assert_eq!(space.devices().lock().unwrap()["hall:lamp"].actuations, 3);
    // Unrelated events do nothing.
    space.notify_event("motionDetected").unwrap();
    assert_eq!(space.devices().lock().unwrap()["hall:lamp"].actuations, 3);
}

#[test]
fn smart_object_nodes_have_no_upper_layers() {
    let space = SmartSpaceDeployment::new("lab", &["hall"], 5);
    let node = space.node("hall").unwrap();
    assert!(
        node.open_session().is_err(),
        "object nodes must not host the UI layer"
    );
    assert!(node.synthesis().is_none());
    assert!(node.controller().is_some());
    assert!(node.broker().is_some());
}

#[test]
fn crowdsensing_models_author_on_device_execute_on_provider() {
    let fleet = shared_fleet(10, &["park"], 11);
    let mut d = CrowdsensingDeployment::new(2, fleet.clone());
    let mut s = d.open_session().unwrap();
    let q = s.create("SensingQuery").unwrap();
    s.set(q, "name", "temp").unwrap();
    s.set(q, "sensor", "Temperature").unwrap();
    s.set(q, "region", "park").unwrap();
    let report = d.upload(s.submit().unwrap()).unwrap();
    assert!(report.commands >= 1);
    assert_eq!(fleet.lock().unwrap().running(), vec!["temp"]);
    // On-the-fly change from the device, reflected by the provider.
    s.set(q, "sampleRateHz", "7").unwrap();
    d.upload(s.submit().unwrap()).unwrap();
    assert!(d
        .provider_trace()
        .iter()
        .any(|t| t.contains("retarget") && t.contains("rate=7")));
}

#[test]
fn crowdsensing_collection_follows_participant_mobility() {
    let fleet = shared_fleet(6, &["a", "b"], 11);
    let mut d = CrowdsensingDeployment::new(2, fleet.clone());
    let mut s = d.open_session().unwrap();
    let q = s.create("SensingQuery").unwrap();
    s.set(q, "name", "cnt").unwrap();
    s.set(q, "sensor", "Noise").unwrap();
    s.set(q, "region", "a").unwrap();
    s.set(q, "aggregation", "Count").unwrap();
    d.upload(s.submit().unwrap()).unwrap();
    // Devices are spread round-robin: 3 sit in region "a".
    assert_eq!(fleet.lock().unwrap().devices_in("a"), 3);
    // Two participants move in; subsequent collections see 5.
    {
        let mut fleet = fleet.lock().unwrap();
        assert!(fleet.move_device("phone1", "a"));
        assert!(fleet.move_device("phone3", "a"));
        assert_eq!(fleet.devices_in("a"), 5);
    }
}
