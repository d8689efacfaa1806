//! Scaffolding the replication and recovery experiments share: the
//! resource hubs their broker models bind, the serve-counter sum of the
//! tier flip-flop, and the two ways a journal reaches a standby — shipped
//! line by line without a network, or drained over the simulated network
//! by a [`QuorumReplicator`].

use mddsm_broker::{GenericBroker, QuorumReplicator, Standby};
use mddsm_sim::net::Network;
use mddsm_sim::resource::{Args, Outcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration, SimTime};

/// The tier flip-flop's hub (E9, E10, E15): `sim.alpha` answers in 3 ms,
/// `sim.beta` in 5 ms, both always succeed.
pub(crate) fn hub(seed: u64) -> ResourceHub {
    let mut h = ResourceHub::new(seed);
    h.register(
        "sim.alpha",
        LatencyModel::fixed_ms(3),
        SimDuration::from_millis(250),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    h.register(
        "sim.beta",
        LatencyModel::fixed_ms(5),
        SimDuration::from_millis(250),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    h
}

/// The storage experiments' hub (E13, E14): `sim.store` answers in 3 ms
/// and always succeeds.
pub(crate) fn store_hub(seed: u64) -> ResourceHub {
    let mut h = ResourceHub::new(seed);
    h.register(
        "sim.store",
        LatencyModel::fixed_ms(3),
        SimDuration::from_millis(250),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    h
}

/// Sum of the tier flip-flop's serve counters — how many committed
/// updates the runtime model actually holds.
pub(crate) fn applied_updates(broker: &GenericBroker) -> u64 {
    (broker.state().int("served_alpha").unwrap_or(0)
        + broker.state().int("served_beta").unwrap_or(0)) as u64
}

/// Ships every not-yet-shipped journal line to the standby, in order and
/// without a network; `shipped` is the line cursor. Does nothing when the
/// configuration runs no standby.
pub(crate) fn ship(broker: &GenericBroker, standby: Option<&mut Standby>, shipped: &mut usize) {
    let Some(sb) = standby else {
        return;
    };
    let text = std::str::from_utf8(broker.journal_bytes().expect("journaling on"))
        .expect("journal is UTF-8");
    for line in text.lines().skip(*shipped) {
        sb.receive(*shipped as u64, line, broker.epoch())
            .expect("shipping is healthy");
        *shipped += 1;
    }
}

/// Ships until a quorum of lanes is fully acknowledged or `rounds`
/// timeouts elapse; rounds start at `from_us` and are spaced `step_us`
/// (one ack timeout) apart, so each retries what the previous one lost.
/// Returns whether the journal is quorum-committed. For a hot standby
/// (one peer, quorum 2) that means the standby is caught up.
pub(crate) fn drain(
    rep: &mut QuorumReplicator,
    broker: &GenericBroker,
    net: &Network,
    peers: &mut [&mut Standby],
    from_us: u64,
    rounds: u64,
    step_us: u64,
) -> bool {
    for k in 0..rounds {
        let now = SimTime::from_micros(from_us + k * step_us);
        rep.tick(
            now,
            broker.epoch(),
            net,
            broker.journal_bytes().expect("journaling on"),
            peers,
        )
        .expect("replication tick is healthy");
        if rep.quorum_synced() {
            return true;
        }
    }
    false
}
