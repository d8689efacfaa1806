//! Exact [`NetStats`] accounting under injected network failures.
//!
//! Faults are driven through the model-defined fault plans of
//! [`mddsm_sim::fault`], so these tests double as an end-to-end check of
//! the fault metamodel → compiled plan → driver → [`Network`] path.

use mddsm_sim::fault::{FaultDriver, FaultPlan, FaultPlanBuilder};
use mddsm_sim::net::{Link, Network, SendOutcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimTime};

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

/// A network where every configured link is lossless and deterministic.
fn clean_net(seed: u64) -> Network {
    Network::new(
        Link {
            latency: LatencyModel::fixed_ms(1),
            loss: 0.0,
            up: true,
        },
        seed,
    )
}

fn driver(model: &mddsm_meta::Model) -> FaultDriver {
    FaultDriver::from_model(model).expect("plan conforms to the fault metamodel")
}

#[test]
fn link_down_counts_exactly_as_partitioned() {
    let plan = FaultPlanBuilder::new("linkdown")
        .link_down(ms(10), "a", "b")
        .link_up(ms(20), "a", "b")
        .build();
    let mut drv = driver(&plan);
    let mut hub = ResourceHub::new(0);
    let net = clean_net(7);

    // Before the fault: 3 sends, all delivered.
    for _ in 0..3 {
        assert!(matches!(net.transmit("a", "b"), SendOutcome::Scheduled(_)));
    }
    // t=10ms..20ms: the a->b link is down; 4 sends dropped as partitioned.
    drv.advance_to(ms(10), &mut hub, Some(&net));
    for _ in 0..4 {
        assert_eq!(net.transmit("a", "b"), SendOutcome::Dropped);
    }
    // The reverse direction is unaffected by a directed link-down.
    assert!(matches!(net.transmit("b", "a"), SendOutcome::Scheduled(_)));
    // After the heal: 2 more deliveries.
    drv.advance_to(ms(20), &mut hub, Some(&net));
    for _ in 0..2 {
        assert!(matches!(net.transmit("a", "b"), SendOutcome::Scheduled(_)));
    }

    let s = net.stats();
    assert_eq!(s.delivered, 3 + 1 + 2);
    assert_eq!(s.partitioned, 4);
    assert_eq!(s.lost, 0);
    assert_eq!(drv.remaining(), 0);
}

#[test]
fn total_loss_spike_counts_every_message_as_lost() {
    let plan = FaultPlanBuilder::new("loss")
        .loss_spike(ms(5), "a", "b", 1.0)
        .loss_spike(ms(15), "a", "b", 0.0)
        .build();
    let mut drv = driver(&plan);
    let mut hub = ResourceHub::new(0);
    let net = clean_net(11);

    for _ in 0..2 {
        assert!(matches!(net.transmit("a", "b"), SendOutcome::Scheduled(_)));
    }
    drv.advance_to(ms(5), &mut hub, Some(&net));
    // loss = 1.0: every message is lost — exactly, not probabilistically.
    for _ in 0..5 {
        assert_eq!(net.transmit("a", "b"), SendOutcome::Dropped);
    }
    drv.advance_to(ms(15), &mut hub, Some(&net));
    for _ in 0..3 {
        assert!(matches!(net.transmit("a", "b"), SendOutcome::Scheduled(_)));
    }

    let s = net.stats();
    assert_eq!(s.delivered, 5);
    assert_eq!(s.lost, 5);
    assert_eq!(s.partitioned, 0);
}

#[test]
fn partition_event_isolates_the_node_in_both_directions() {
    let plan = FaultPlanBuilder::new("part")
        .partition(ms(10), "hub")
        .heal_node(ms(30), "hub")
        .build();
    let mut drv = driver(&plan);
    let mut rhub = ResourceHub::new(0);
    let net = clean_net(3);
    // Configure a star so the stats below have known link setups (node-
    // level partitioning severs unconfigured pairs too).
    for peer in ["n1", "n2"] {
        net.set_link("hub", peer, Link::default());
        net.set_link(peer, "hub", Link::default());
    }

    drv.advance_to(ms(10), &mut rhub, Some(&net));
    assert_eq!(net.transmit("hub", "n1"), SendOutcome::Dropped);
    assert_eq!(net.transmit("n1", "hub"), SendOutcome::Dropped);
    assert_eq!(net.transmit("n2", "hub"), SendOutcome::Dropped);
    // A link not touching the partitioned node still works.
    assert!(matches!(
        net.transmit("n1", "n2"),
        SendOutcome::Scheduled(_)
    ));

    drv.advance_to(ms(30), &mut rhub, Some(&net));
    assert!(matches!(
        net.transmit("hub", "n1"),
        SendOutcome::Scheduled(_)
    ));

    let s = net.stats();
    assert_eq!(s.delivered, 2);
    assert_eq!(s.partitioned, 3);
    assert_eq!(s.lost, 0);
}

/// Sends `n` messages over a half-lossy link and returns the stats.
fn lossy_run(seed: u64, n: u32) -> mddsm_sim::net::NetStats {
    let net = clean_net(seed);
    net.set_link(
        "a",
        "b",
        Link {
            loss: 0.5,
            ..Link::default()
        },
    );
    for _ in 0..n {
        net.transmit("a", "b");
    }
    net.stats()
}

#[test]
fn loss_is_deterministic_in_the_network_seed() {
    let a = lossy_run(42, 500);
    let b = lossy_run(42, 500);
    assert_eq!(a, b, "same seed must reproduce identical NetStats");
    assert_eq!(a.delivered + a.lost, 500);
    // Sanity: the rate is actually applied.
    assert!((150..350).contains(&a.lost), "lost {}", a.lost);
    // A different seed draws a different loss pattern (the counts may
    // coincide, so compare against a third seed too).
    let c = lossy_run(43, 500);
    let d = lossy_run(44, 500);
    assert!(a != c || a != d, "distinct seeds should not all collide");
}

#[test]
fn fault_plans_replay_identically_from_their_model() {
    // Compiling the same plan model twice and replaying it against two
    // identically-seeded networks yields identical statistics.
    let plan = FaultPlanBuilder::new("replay")
        .loss_spike(ms(2), "a", "b", 0.3)
        .link_down(ms(8), "b", "a")
        .partition(ms(12), "c")
        .build();
    let compiled = FaultPlan::from_model(&plan).expect("conforms");
    assert_eq!(compiled.len(), 3);

    let run = || {
        let mut drv = driver(&plan);
        let mut hub = ResourceHub::new(0);
        let net = clean_net(9);
        net.set_link("c", "a", Link::default());
        for step in 0u64..20 {
            drv.advance_to(ms(step), &mut hub, Some(&net));
            net.transmit("a", "b");
            net.transmit("b", "a");
            net.transmit("c", "a");
        }
        net.stats()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
    assert_eq!(first.delivered + first.lost + first.partitioned, 60);
    // The link-down at 8ms kills b->a for the remaining 12 steps, and the
    // partition at 12ms kills c->a for the remaining 8 — exact floors.
    assert!(first.partitioned >= 12 + 8);
}
