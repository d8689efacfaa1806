//! Quorum-commit safety, property-style: across seeded random
//! minority-failure schedules over 3- and 5-node replica sets, every
//! journal record at or below the quorum commit point survives — byte
//! for byte — on whichever replica a post-crash election would promote.
//!
//! The schedule generator is the simulator's [`SimRng`] over fixed
//! seeds, keeping the suite deterministic without an external
//! property-testing dependency. Each round the schedule may crash or
//! partition replicas (never more than a strict minority at once),
//! heal them again, and interleave client calls with shipping ticks; at
//! every step the committed prefix pinned by
//! [`journal::prefix_through_lsn`] at the replicator's commit LSN must
//! be a byte-prefix of the election winner's mirror.

use std::collections::BTreeMap;

use mddsm_broker::journal;
use mddsm_broker::{
    BrokerModelBuilder, GenericBroker, QuorumReplicator, ReplicaPeer, ReplicaSetConfig, ShipMode,
    Standby,
};
use mddsm_sim::net::{Link, Network};
use mddsm_sim::resource::{args, Args, Outcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration, SimRng, SimTime};

const ACK_TIMEOUT_US: u64 = 5_000;

fn hub(seed: u64) -> ResourceHub {
    let mut h = ResourceHub::new(seed);
    h.register(
        "svc",
        LatencyModel::fixed_ms(2),
        SimDuration::from_millis(250),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    h
}

/// A counter model whose journal grows by an op + command per call.
fn counter_model(members: &[String], quorum: u64) -> mddsm_meta::Model {
    let peers: Vec<(&str, &str, u64, u64)> = members[1..]
        .iter()
        .map(|n| (n.as_str(), "AckWindowed", 16, ACK_TIMEOUT_US))
        .collect();
    BrokerModelBuilder::new("qsafe")
        .call_handler("h", "bump")
        .action("h", "doBump", "svc", "bump", &["n=$n"], None, &["count=+1"])
        .replica_set(quorum, &peers)
        .build()
}

/// The replica a quorum election would promote: reachable (not crashed,
/// not partitioned from the set) with the longest applied prefix,
/// first-wins on ties — the supervisor's rule.
fn elect<'a>(standbys: &'a BTreeMap<String, Standby>, down: &[String]) -> Option<&'a Standby> {
    standbys
        .values()
        .filter(|s| !down.contains(&s.node().to_string()))
        .max_by(|a, b| {
            a.applied_lsn()
                .cmp(&b.applied_lsn())
                // BTreeMap iterates name-ascending; reverse the name
                // order so `max_by` keeps the *first* of equals.
                .then_with(|| b.node().cmp(a.node()))
        })
}

/// One seeded schedule over one replica set: returns the worst case the
/// run observed so the caller can assert across seeds.
fn run_schedule(seed: u64, n: usize, quorum: u64, rounds: u64) {
    let members: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    let minority = (n - 1) / 2;
    let model = counter_model(&members, quorum);
    let mut broker = GenericBroker::from_model(&model, hub(seed)).expect("model valid");
    broker.enable_journal(8);
    let mut rep = QuorumReplicator::new(
        ReplicaSetConfig {
            quorum,
            peers: members[1..]
                .iter()
                .map(|m| ReplicaPeer {
                    node: m.clone(),
                    mode: ShipMode::AckWindowed,
                    window_records: 16,
                    ack_timeout: SimDuration::from_micros(ACK_TIMEOUT_US),
                })
                .collect(),
        },
        &members[0],
    );
    let mut standbys: BTreeMap<String, Standby> = members[1..]
        .iter()
        .map(|m| (m.clone(), Standby::new(m)))
        .collect();
    let net = Network::new(Link::default(), seed ^ 0x9a);
    let mut rng = SimRng::seed_from_u64(seed);
    // Replicas currently incapacitated (crashed or cut off). Their
    // Standby stays in the map — a crashed node keeps its durable
    // mirror — but shipping skips them.
    let mut down: Vec<String> = Vec::new();
    let mut elections = 0u64;

    for round in 0..rounds {
        let t = SimTime::from_micros(round * 20_000);

        // Mutate the failure schedule, never exceeding a strict
        // minority of the *whole* set (the primary stays up: this test
        // pins commit safety, not failover; the elected replica must
        // hold the prefix even while the primary still runs).
        if rng.chance(0.35) && down.len() < minority {
            let victim = members[1 + rng.range(0, (n - 1) as u64) as usize].clone();
            if !down.contains(&victim) {
                down.push(victim);
            }
        }
        if rng.chance(0.30) && !down.is_empty() {
            let i = rng.range(0, down.len() as u64) as usize;
            down.remove(i);
        }

        // A client call, then shipping ticks to the reachable replicas.
        let nn = round.to_string();
        broker.call("bump", &args(&[("n", &nn)])).expect("serves");
        for k in 0..3 {
            let now = SimTime::from_micros(t.as_micros() + k * ACK_TIMEOUT_US);
            let mut peers: Vec<&mut Standby> = standbys
                .iter_mut()
                .filter(|(m, _)| !down.contains(m))
                .map(|(_, s)| s)
                .collect();
            rep.tick(
                now,
                broker.epoch(),
                &net,
                broker.journal_bytes().expect("journaling on"),
                &mut peers,
            )
            .expect("shipping healthy");
            if rep.quorum_synced() {
                break;
            }
        }

        // THE PROPERTY. The committed prefix — the journal sliced at
        // the quorum commit LSN — must survive byte-identically on the
        // replica an election over the reachable set would pick.
        let commit = rep.commit_lsn();
        let committed =
            journal::prefix_through_lsn(broker.journal_bytes().expect("journaling on"), commit)
                .expect("commit lsn is inside the primary's journal");
        let winner = elect(&standbys, &down).expect("a majority is reachable");
        elections += 1;
        assert!(
            winner.journal_bytes().starts_with(committed),
            "seed {seed} n {n} round {round}: commit lsn {commit} ({} bytes) \
             not a byte-prefix of elected replica {} ({} applied, {} bytes)",
            committed.len(),
            winner.node(),
            winner.applied_lsn(),
            winner.journal_bytes().len()
        );
        assert!(
            winner.applied_lsn() >= commit,
            "seed {seed} round {round}: elected replica {} applied {} < commit {commit}",
            winner.node(),
            winner.applied_lsn()
        );
    }
    assert!(elections > 0);
}

/// 3-node sets, quorum 2, across seeded minority-failure schedules.
#[test]
fn committed_prefix_survives_election_on_3_node_sets() {
    for seed in 0..12u64 {
        run_schedule(0x3_0000 + seed, 3, 2, 60);
    }
}

/// 5-node sets, quorum 3: two replicas may be down at once and the
/// committed prefix must still be electable.
#[test]
fn committed_prefix_survives_election_on_5_node_sets() {
    for seed in 0..12u64 {
        run_schedule(0x5_0000 + seed, 5, 3, 60);
    }
}

/// The pinned slice itself is stable: slicing the growing journal at a
/// fixed commit LSN always yields the same bytes (no in-place rewrite
/// of committed history).
#[test]
fn committed_slices_never_change_under_later_growth() {
    for seed in 0..6u64 {
        let members: Vec<String> = (0..3).map(|i| format!("n{i}")).collect();
        let model = counter_model(&members, 2);
        let mut broker = GenericBroker::from_model(&model, hub(seed)).expect("model valid");
        broker.enable_journal(8);
        let mut pinned: Vec<(u64, Vec<u8>)> = Vec::new();
        for round in 0..40u64 {
            let nn = round.to_string();
            broker.call("bump", &args(&[("n", &nn)])).expect("serves");
            let bytes = broker.journal_bytes().expect("journaling on");
            let head = broker.state().version();
            for (lsn, slice) in &pinned {
                assert_eq!(
                    journal::prefix_through_lsn(bytes, *lsn).expect("still inside"),
                    &slice[..],
                    "seed {seed}: committed slice at lsn {lsn} changed"
                );
            }
            if round % 7 == 0 {
                pinned.push((
                    head,
                    journal::prefix_through_lsn(bytes, head)
                        .expect("head is inside")
                        .to_vec(),
                ));
            }
        }
        assert!(pinned.len() >= 5);
    }
}
