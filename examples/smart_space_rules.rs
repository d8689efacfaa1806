//! The smart-spaces domain end-to-end (§IV-C): the split 2SVM deployment.
//! The central node synthesizes models into scripts; *immediate* scripts
//! configure the smart objects over the network, while rule-derived
//! scripts are *installed* and fire on asynchronous environment events.
//!
//! ```text
//! cargo run --example smart_space_rules
//! ```

use mddsm::ssvm::SmartSpaceDeployment;

fn main() {
    let mut space = SmartSpaceDeployment::new("lab", &["hall", "office"], 3);
    println!("smart space with {} object nodes\n", space.node_count());

    let mut session = space.open_session().expect("central node has the UI layer");

    println!("1) enrolling smart objects (immediate scripts, routed per node):");
    let lamp = session.create("SmartObject").unwrap();
    session.set(lamp, "name", "hall:lamp").unwrap();
    session.set(lamp, "kind", "Lamp").unwrap();
    let door = session.create("SmartObject").unwrap();
    session.set(door, "name", "office:door").unwrap();
    session.set(door, "kind", "Door").unwrap();
    let report = space.submit_model(session.submit().unwrap()).unwrap();
    println!(
        "   {} commands executed across nodes; {} script(s) dispatched",
        report.commands,
        space.dispatched_scripts()
    );

    println!("\n2) an automation rule: when someone enters, the hall lamp goes on");
    let rule = session.create("AutomationRule").unwrap();
    session.set(rule, "name", "welcome").unwrap();
    session.set(rule, "onEvent", "objectEntered").unwrap();
    session.set(rule, "object", "hall:lamp").unwrap();
    session.set(rule, "action", "on").unwrap();
    space.submit_model(session.submit().unwrap()).unwrap();
    println!("   rule installed (not executed yet)");
    println!(
        "   hall lamp state: {:?}",
        space.devices().lock().unwrap()["hall:lamp"].state
    );

    println!("\n3) the event arrives — the installed script fires on the object node:");
    space.notify_event("objectEntered").unwrap();
    println!(
        "   hall lamp state: {:?}",
        space.devices().lock().unwrap()["hall:lamp"].state
    );

    println!("\nper-node command traces:");
    for node in ["hall", "office"] {
        println!("   [{node}]");
        for line in space.node(node).unwrap().command_trace() {
            println!("      {line}");
        }
    }
    println!(
        "\nvirtual network cost of dispatches: {:.1} ms",
        space.virtual_network_us() as f64 / 1000.0
    );
}
