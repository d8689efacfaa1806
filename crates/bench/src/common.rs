//! Scaffolding the campaign experiments share: the resource hubs their
//! broker models bind, the campaign supervisor and the hand-off of fault
//! actions meant for it, the serve-counter sum of the tier flip-flop, the
//! two ways a journal reaches a standby — shipped line by line without a
//! network, or drained over the simulated network by a
//! [`QuorumReplicator`] — and the failover steps of E9 and E15: promotion
//! with its recovery penalty, fencing and reconciling a healed stale
//! primary, and the end-of-run divergence and replay checks.

use mddsm_broker::journal::{self, JournalRecord};
use mddsm_broker::replication::reconcile;
use mddsm_broker::{
    GenericBroker, QuorumReplicator, RecoveryReport, RestartPolicy, Standby, Supervisor,
};
use mddsm_meta::Model;
use mddsm_sim::fault::FaultAction;
use mddsm_sim::net::Network;
use mddsm_sim::resource::{Args, Outcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration, SimTime};

/// Virtual cost of bringing a promoted, recovered or restarted broker up
/// (µs).
pub const RESTART_PENALTY_US: u64 = 5_000;
/// Virtual cost of replaying one journal entry during recovery (µs).
pub const REPLAY_COST_PER_ENTRY_US: u64 = 20;

/// The tier flip-flop's hub (E7, E9, E10, E15): `sim.alpha` answers in 3 ms,
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

/// The supervisor of a seeded campaign over `members` (E9, E10, E13, E14,
/// E15). Liveness comes from the crash and partition flags the campaign
/// raises, not heartbeat staleness, so the stall deadline is parked at
/// four times the campaign `horizon`; the 1 ms restart window keeps
/// repeated restart decisions (a partitioned standby's, say) from ever
/// escalating.
pub(crate) fn campaign_supervisor(members: &[&str], horizon: SimDuration) -> Supervisor {
    Supervisor::new(
        members,
        RestartPolicy {
            max_restarts: 10_000,
            window: SimDuration::from_millis(1),
            stall_after: SimDuration::from_micros(4 * horizon.as_micros()),
        },
    )
}

/// Hands a campaign action meant for the supervisor — a component crash,
/// stall or forced failover — to `supervisor`; ignores every other action.
pub(crate) fn deliver(supervisor: &mut Supervisor, action: &FaultAction) {
    match action {
        FaultAction::CrashComponent { component } => supervisor.crash_component(component),
        FaultAction::StallComponent { component } => supervisor.stall_component(component),
        FaultAction::FailoverTo { component, standby } => {
            supervisor.failover_to(component, standby);
        }
        _ => {}
    }
}

/// The virtual downtime of one recovery: the restart penalty plus the
/// per-entry replay cost of everything `report` replayed.
pub(crate) fn recovery_penalty_us(report: &RecoveryReport) -> u64 {
    RESTART_PENALTY_US + REPLAY_COST_PER_ENTRY_US * (report.ops_replayed + report.commands_replayed)
}

/// Moves `broker`'s clock forward to `target_us`; a clock already past it
/// stays where it is.
pub(crate) fn clock_to(broker: &mut GenericBroker, target_us: u64) {
    let now_us = broker.now().as_micros();
    if target_us > now_us {
        broker.advance_clock(SimDuration::from_micros(target_us - now_us));
    }
}

/// Promotes `standby` to primary under `epoch`: recovery from its mirror
/// onto `hub`, the snapshot cadence restored, and the clock moved to `now`
/// plus the recovery penalty. Returns the promoted broker and the penalty
/// (µs).
pub(crate) fn promote(
    standby: &mut Standby,
    epoch: u64,
    model: &Model,
    hub: ResourceHub,
    invariants: &[&str],
    snapshot_every: u64,
    now: SimTime,
) -> (GenericBroker, u64) {
    let (mut promoted, report) = standby
        .promote(epoch, model, hub, invariants)
        .expect("promotion recovers from the mirror");
    promoted.set_snapshot_every(snapshot_every);
    let penalty_us = recovery_penalty_us(&report);
    clock_to(&mut promoted, now.as_micros() + penalty_us);
    (promoted, penalty_us)
}

/// The healed stale primary's first tick: its replicator ships the stale
/// journal to `peers`, whose epoch fence refuses it. Returns whether any
/// peer fenced it.
pub(crate) fn fence_stale(
    stale: &GenericBroker,
    rep: &mut QuorumReplicator,
    net: &Network,
    now: SimTime,
    peers: &mut [&mut Standby],
) -> bool {
    let bytes = stale.journal_bytes().expect("journaling on");
    let report = rep
        .tick(now, stale.epoch(), net, bytes, peers)
        .expect("stale tick is healthy");
    report.fenced > 0
}

/// Reconciles a fenced stale primary's journal with the authoritative one
/// of `primary` on `primary_node`; returns the stale suffix lines
/// discarded.
pub(crate) fn reconcile_stale(
    primary: &GenericBroker,
    primary_node: &str,
    stale: &GenericBroker,
    model: &Model,
    invariants: &[&str],
    seed: u64,
) -> u64 {
    let (_, report) = reconcile(
        primary.journal_bytes().expect("journaling on"),
        stale.journal_bytes().expect("journaling on"),
        primary_node,
        model,
        hub(seed ^ 0xace),
        invariants,
    )
    .expect("reconciliation rebuilds from the authoritative journal");
    debug_assert_eq!(report.source_node, primary_node);
    report.discarded_stale_lines as u64
}

/// Committed actions missing from `broker`'s surviving journal: every
/// action acknowledged as committed must still appear, in order, among
/// the journal's successful commands.
pub(crate) fn divergent_commits(broker: &GenericBroker, committed_actions: &[String]) -> u64 {
    let bytes = broker.journal_bytes().expect("journaling on");
    let mut trace = Vec::new();
    for line in std::str::from_utf8(bytes)
        .expect("journal is UTF-8")
        .lines()
    {
        if let JournalRecord::Command {
            action, ok: true, ..
        } = journal::parse_line(line).expect("surviving journal parses")
        {
            trace.push(action);
        }
    }
    let mut j = 0usize;
    let mut divergent = 0u64;
    for a in committed_actions {
        match trace[j..].iter().position(|x| x == a) {
            Some(p) => j += p + 1,
            None => divergent += 1,
        }
    }
    divergent
}

/// Whether an independent replay of `broker`'s journal agrees with its
/// live runtime model.
pub(crate) fn replay_consistent(broker: &GenericBroker) -> bool {
    let bytes = broker.journal_bytes().expect("journaling on");
    let replayed = journal::replay(bytes).expect("surviving journal replays");
    broker.state().first_divergence(&replayed.state).is_none()
}

/// Mean and worst of a run's recovery times (µs), in virtual ms; zero when
/// nothing recovered.
pub(crate) fn mean_max_ms(times_us: &[u64]) -> (f64, f64) {
    let mean = if times_us.is_empty() {
        0.0
    } else {
        times_us.iter().sum::<u64>() as f64 / times_us.len() as f64 / 1000.0
    };
    let max = times_us.iter().max().copied().unwrap_or(0) as f64 / 1000.0;
    (mean, max)
}
