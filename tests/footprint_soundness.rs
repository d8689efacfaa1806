//! Footprint soundness: random fault-free executions of the four domain
//! broker models never **write** a state key outside the statically
//! computed footprint of the unit that ran.
//!
//! The static analyzer ([`mddsm::broker::analyze`]) computes per-action
//! read/write key sets and exposes their per-operation union through
//! [`mddsm::broker::op_footprint`] — the row a shard router would key on.
//! This test drives each domain broker with seeded random call streams
//! (including calls with junk arguments, whose failure paths bump failure
//! counters) and interleaved autonomic ticks, and diffs a state snapshot
//! around every step: every changed key must lie inside the static write
//! set of the dispatched operation (for calls) or inside the union of the
//! autonomic/brownout unit write sets plus the keys the analyzer reserves
//! to the engine ([`mddsm::broker::analysis::is_engine_key`]) (for ticks).
//!
//! Reads are not observable behaviourally (the state manager records
//! writes, not lookups), but the read sets are extracted from the same
//! guard/condition expressions the engine evaluates, so the write-side
//! check is the half that can actually drift.

use mddsm::broker::analysis::is_engine_key;
use mddsm::broker::{analyze, op_footprint, GenericBroker};
use mddsm::meta::{Model, Value};
use mddsm::sim::resource::{args, Args};
use mddsm::sim::{ResourceHub, SimRng};
use std::collections::BTreeSet;

/// Call selectors of a broker model (handlers with `kind = Call`).
fn call_selectors(model: &Model) -> Vec<String> {
    model
        .all_of_class("Handler")
        .into_iter()
        .filter(|h| {
            matches!(
                model.attr(*h, "kind"),
                Some(Value::Enum(_, lit)) if lit == "Call"
            )
        })
        .filter_map(|h| model.attr_str(h, "selector").map(str::to_owned))
        .collect()
}

/// All keys currently set in the runtime model, with their rendered
/// values (so overwrites count as writes, not just insertions).
fn state_map(broker: &GenericBroker) -> Vec<(String, String)> {
    broker
        .state()
        .snapshot()
        .vars
        .into_iter()
        .map(|(k, v)| (k, format!("{v:?}")))
        .collect()
}

/// Keys whose value changed (or appeared/disappeared) between two maps.
fn written_keys(before: &[(String, String)], after: &[(String, String)]) -> BTreeSet<String> {
    let b: std::collections::BTreeMap<&str, &str> = before
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let a: std::collections::BTreeMap<&str, &str> = after
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let mut out = BTreeSet::new();
    for (k, v) in &a {
        if b.get(k) != Some(v) {
            out.insert((*k).to_owned());
        }
    }
    for k in b.keys() {
        if !a.contains_key(k) {
            out.insert((*k).to_owned());
        }
    }
    out
}

/// A junk-but-plausible argument set; domain resources that dislike the
/// values fail the invocation, which is itself a legal (and footprinted)
/// path: failure counters live under `failures_*`.
fn random_args(rng: &mut SimRng) -> Args {
    let n = rng.range(0, 1000).to_string();
    args(&[
        ("session", "s1"),
        ("from", "alice"),
        ("to", "bob"),
        ("who", "carol"),
        ("kind", "audio"),
        ("codec", "g711"),
        ("stream", "st1"),
        ("device", "lamp-1"),
        ("command", "on"),
        ("region", "north"),
        ("n", &n),
    ])
}

/// Drives one model: seeded random calls and autonomic ticks, asserting
/// every observed write stays inside the static footprint tables.
fn assert_footprint_sound(name: &str, model: &Model, hub: ResourceHub, seed: u64, calls: u64) {
    let report = analyze(model);
    assert!(
        report.is_accepted(),
        "{name}: shipped model must analyze clean: {:?}",
        report.errors().collect::<Vec<_>>()
    );
    let selectors = call_selectors(model);
    assert!(!selectors.is_empty(), "{name}: no call handlers");

    // The union write set of every autonomic plan and brownout unit — a
    // tick may fire any armed symptom.
    let mut tick_writes: BTreeSet<String> = BTreeSet::new();
    for (unit, fp) in &report.footprints {
        if unit.starts_with("plan:") || unit.starts_with("brownout:") {
            tick_writes.extend(fp.writes.iter().cloned());
        }
    }

    let mut broker = GenericBroker::from_model(model, hub).expect("model loads");
    let mut rng = SimRng::seed_from_u64(seed);
    for i in 0..calls {
        let op = selectors[rng.index(selectors.len())].clone();
        let fp = op_footprint(model, &report, &op)
            .unwrap_or_else(|| panic!("{name}: no footprint for `{op}`"));
        let before = state_map(&broker);
        let _ = broker.call(&op, &random_args(&mut rng));
        let after = state_map(&broker);
        for k in written_keys(&before, &after) {
            assert!(
                fp.writes.contains(&k),
                "{name}: call {i} `{op}` wrote `{k}`, outside its static write set {:?}",
                fp.writes
            );
        }

        if rng.chance(0.2) {
            let before = state_map(&broker);
            let _ = broker.autonomic_tick();
            let after = state_map(&broker);
            for k in written_keys(&before, &after) {
                assert!(
                    tick_writes.contains(&k) || is_engine_key(&k),
                    "{name}: autonomic tick after call {i} wrote `{k}`, outside the plan/brownout write union {tick_writes:?}"
                );
            }
        }
    }
}

#[test]
fn cvm_ncb_writes_stay_inside_static_footprints() {
    for seed in [1, 7, 42] {
        let model = cvm::ncb::ncb_broker_model();
        let hub = cvm::services::service_hub(seed, 0);
        assert_footprint_sound("cvm", &model, hub, seed, 200);
    }
}

#[test]
fn mgridvm_mhb_writes_stay_inside_static_footprints() {
    for seed in [1, 7, 42] {
        let model = mgridvm::platform::mhb_broker_model();
        let mut hub = ResourceHub::new(seed);
        mgridvm::plant::register_plant(&mut hub, mgridvm::plant::shared_plant());
        assert_footprint_sound("mgridvm", &model, hub, seed, 200);
    }
}

#[test]
fn ssvm_object_writes_stay_inside_static_footprints() {
    for seed in [1, 7, 42] {
        let model = ssvm::objects::object_broker_model("lamp-1");
        let mut hub = ResourceHub::new(seed);
        ssvm::objects::register_devices(&mut hub, ssvm::objects::shared_devices());
        assert_footprint_sound("ssvm", &model, hub, seed, 200);
    }
}

#[test]
fn csvm_fleet_writes_stay_inside_static_footprints() {
    for seed in [1, 7, 42] {
        let model = csvm::platform::cs_broker_model();
        let mut hub = ResourceHub::new(seed);
        csvm::fleet::register_fleet(
            &mut hub,
            csvm::fleet::shared_fleet(5, &["north", "south"], seed),
        );
        assert_footprint_sound("csvm", &model, hub, seed, 200);
    }
}
