//! E15 — quorum-replicated models@runtime: model-defined replica sets
//! with majority commit, quorum-elected failover, and a composed chaos
//! campaign over every fault family the simulator knows.
//!
//! E9 replicated the runtime model to *one* hot standby: losing that
//! standby forfeits either availability (CP shipping rejects calls) or
//! committed updates (async shipping loses them). E15 generalizes the
//! topology: the broker model declares a **replica set** (N nodes, a
//! quorum size, per-peer shipping lanes) that a [`QuorumReplicator`]
//! interprets — the journal ships go-back-N to each peer independently
//! and a record is *committed* once the quorum-th largest acknowledged
//! LSN reaches it. On primary loss the [`Supervisor`] polls the
//! reachable replicas, elects the one with the longest quorum-committed
//! prefix under a bumped fencing epoch, and re-parents the survivors;
//! lagging or damaged replicas catch up by anti-entropy from the
//! freshest quorum source ([`select_repair_source`]).
//!
//! The campaign ([`mddsm_sim::fault::random_quorum_campaign`]) composes
//! every prior experiment's fault family — node crashes, full and
//! asymmetric partitions, loss spikes, torn writes / bit flips / dropped
//! tails / truncated snapshots on any replica's journal, state
//! corruption, and mid-campaign live upgrades — while never
//! incapacitating more than a strict minority of the set at once. Each
//! seed runs four configurations over the *same* schedules:
//!
//! * **baseline** (per node set) — the E9 shape: one primary, one
//!   ack-gated standby (a 2-node set with quorum 2). The 3- and 5-node
//!   campaigns both run it, so the quorum variants are compared against
//!   the single-standby design under identical fault schedules;
//! * **quorum** — the full 3-node (quorum 2) or 5-node (quorum 3) set.
//!
//! Expected on every seed with at most a minority faulty: the quorum
//! variants lose **zero** quorum-committed updates and show **zero**
//! committed-trace divergence, every surviving journal replays to the
//! live runtime model, the shipped `onePrimaryPerEpoch` temporal monitor
//! never trips, every applied upgrade propagates to every live replica —
//! and measured unavailability (rejected + dead-primary calls) is
//! strictly lower than the single-standby baseline's, because a quorum
//! keeps serving while any majority is reachable.

use std::collections::BTreeMap;

use crate::artifacts::{array, campaign_row, document, row, rows, Fixed, Str};
use crate::common::{
    applied_updates, campaign_supervisor, clock_to, divergent_commits, drain, fence_stale, hub,
    mean_max_ms, promote, reconcile_stale, recovery_penalty_us, replay_consistent,
};
use mddsm_broker::{
    recover_with_quorum, repair_journal, select_repair_source, BrokerModelBuilder, GenericBroker,
    QuorumReplicator, ReplicaPeer, ReplicaSetConfig, ShipMode, Standby, Supervisor,
    SupervisorDecision,
};
use mddsm_meta::Model;
use mddsm_sim::fault::{random_quorum_campaign, FaultAction, FaultDriver, QuorumCampaignConfig};
use mddsm_sim::net::{Link, Network};
use mddsm_sim::resource::args;
use mddsm_sim::{SimDuration, SimTime};

pub use crate::common::{REPLAY_COST_PER_ENTRY_US, RESTART_PENALTY_US};

/// Journal snapshot cadence (entries between snapshots).
pub const SNAPSHOT_EVERY: u64 = 24;
/// Calls between supervisor monitoring cycles.
pub const SUPERVISE_EVERY: u64 = 5;
/// Replication ack timeout (µs); also the spacing of drain rounds.
pub const ACK_TIMEOUT_US: u64 = 5_000;
/// Shipping window (records in flight) per ack-windowed lane.
pub const WINDOW_RECORDS: u64 = 32;
/// Drain rounds the primary attempts per call before declaring the
/// quorum unreachable.
pub const DRAIN_ROUNDS: u64 = 3;

/// The 3-node set (and the prefix instantiated by its baseline).
pub const NODES3: &[&str] = &["a", "b", "c"];
/// The 5-node set.
pub const NODES5: &[&str] = &["a", "b", "c", "d", "e"];

/// Invariants every promotion, reconciliation, and repair must
/// re-establish.
pub const INVARIANTS: &[&str] = &[
    "self.tier = null or self.tier = \"alpha\" or self.tier = \"beta\"",
    "self.served_alpha = null or self.served_alpha >= 0",
    "self.served_beta = null or self.served_beta >= 0",
];

/// The E15 broker model: the E9 tier flip-flop (routing depends on
/// journaled state, so lost history visibly diverges the command trace),
/// a `tierValid` monitor so state corruption trips online verification,
/// and a model-defined **replica set** over `members[1..]` — the first
/// member is the initial primary.
pub fn e15_broker_model(members: &[&str], quorum: u64) -> Model {
    let peers: Vec<(&str, &str, u64, u64)> = members[1..]
        .iter()
        .map(|n| (*n, "AckWindowed", WINDOW_RECORDS, ACK_TIMEOUT_US))
        .collect();
    BrokerModelBuilder::new("e15")
        .call_handler("h", "op")
        .policy("tierAlpha", "self.tier = null or self.tier = \"alpha\"")
        .action(
            "h",
            "serveAlpha",
            "sim.alpha",
            "serve",
            &["n=$n"],
            Some("tierAlpha"),
            &["tier=beta", "served_alpha=+1"],
        )
        .action(
            "h",
            "serveBeta",
            "sim.beta",
            "serve",
            &["n=$n"],
            None,
            &["tier=alpha", "served_beta=+1"],
        )
        .monitor(
            "tierValid",
            "self.tier = null or self.tier = \"alpha\" or self.tier = \"beta\"",
        )
        .replica_set(quorum, &peers)
        .build()
}

/// Metrics of one configuration under one campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct E15Run {
    /// Members this configuration instantiates (primary first).
    pub members: u64,
    /// Quorum size (counting the primary).
    pub quorum: u64,
    /// Calls issued.
    pub calls: u64,
    /// Calls the primary executed successfully.
    pub served: u64,
    /// Updates acknowledged to clients as quorum-committed.
    pub committed: u64,
    /// Calls refused by the commit gate (quorum unreachable).
    pub rejected: u64,
    /// Calls that found the primary dead (crash not yet detected).
    pub failed_dead: u64,
    /// Calls executed but never quorum-acknowledged.
    pub uncertain: u64,
    /// Unavailable calls: rejected + failed while the primary was dead.
    pub unavailable: u64,
    /// Quorum-elected promotions performed.
    pub failovers: u64,
    /// Fresh-model restarts (no electable replica remained).
    pub restarts: u64,
    /// Crashed replicas revived from their durable mirrors.
    pub replica_revivals: u64,
    /// Replica mirrors healed by anti-entropy from a quorum source
    /// (including primary journals healed by [`recover_with_quorum`]).
    pub anti_entropy_repairs: u64,
    /// Replica mirrors rebuilt in full from the primary's journal.
    pub standby_resyncs: u64,
    /// Healed ex-primaries that rejoined the set as replicas.
    pub rejoins: u64,
    /// Stale-epoch refusals observed when a healed stale primary tried
    /// to ship its divergent journal.
    pub fenced_events: u64,
    /// Journal reconciliations run for healed stale primaries.
    pub reconciles: u64,
    /// Stale journal-suffix lines discarded across reconciliations.
    pub discarded_stale_lines: u64,
    /// Component crashes delivered to instantiated members.
    pub crashes: u64,
    /// State corruptions injected at the primary.
    pub corruptions: u64,
    /// Online monitor trips observed (corruption caught in-stream).
    pub monitor_trips: u64,
    /// Quarantine recoveries via snapshot rollback.
    pub snapshot_rollbacks: u64,
    /// Storage faults injected on instantiated members' journals.
    pub storage_faults: u64,
    /// Storage injections that left the journal bytes unchanged.
    pub harmless: u64,
    /// Live-upgrade pushes delivered by the campaign.
    pub upgrades_pushed: u64,
    /// Upgrades journaled at the primary (one `Upgrade` record each).
    pub upgrades_applied: u64,
    /// Pushes skipped (primary dead, monitor latched, or refused).
    pub upgrades_skipped: u64,
    /// Every live replica ended on the primary's model version.
    pub upgrades_propagated: bool,
    /// Worst committed-but-lost count observed at any promotion or
    /// recovery: quorum-committed updates the surviving history lacks.
    pub committed_lost: u64,
    /// Committed actions missing from the final primary's command trace
    /// (order-preserving comparison against the surviving journal).
    pub divergent_commits: u64,
    /// Mean failover time (virtual ms): detection + penalty + replay.
    pub mean_failover_ms: f64,
    /// Worst single failover (virtual ms).
    pub max_failover_ms: f64,
    /// Replication retransmission events across all replicator lanes.
    pub retransmits: u64,
    /// Final quorum commit LSN on the last primary's replicator.
    pub commit_lsn: u64,
    /// Final primary's journal size (bytes).
    pub journal_bytes: u64,
    /// Final `served_alpha` / `served_beta` counters on the primary.
    pub served_counters: (i64, i64),
    /// Final state-model version (journal LSN head).
    pub state_version: u64,
    /// Messages the simulated network delivered (all directed links).
    pub net_delivered: u64,
    /// Messages lost to random loss.
    pub net_lost: u64,
    /// Messages refused by a down link or partition.
    pub net_partitioned: u64,
    /// Whether an independent replay of the surviving journal agrees
    /// with the live runtime model.
    pub replay_consistent: bool,
    /// Whether the supervisor gave up on a component.
    pub escalated: bool,
    /// Whether the shipped `onePrimaryPerEpoch` temporal property held
    /// through every supervision cycle (zero observed trips).
    pub one_primary_per_epoch: bool,
}

/// The replica-set lane layout for `primary` over `members`.
fn cfg_for(members: &[String], quorum: u64, primary: &str) -> ReplicaSetConfig {
    ReplicaSetConfig {
        quorum,
        peers: members
            .iter()
            .filter(|n| n.as_str() != primary)
            .map(|n| ReplicaPeer {
                node: n.clone(),
                mode: ShipMode::AckWindowed,
                window_records: WINDOW_RECORDS,
                ack_timeout: SimDuration::from_micros(ACK_TIMEOUT_US),
            })
            .collect(),
    }
}

/// A node is cut when every other member is unreachable in at least one
/// direction — the node-centric view a full partition produces.
fn is_cut(net: &Network, node: &str, members: &[String]) -> bool {
    members
        .iter()
        .filter(|m| m.as_str() != node)
        .all(|m| !net.is_up(node, m) || !net.is_up(m, node))
}

/// Rebuilds a replica's mirror after damage or downtime: keep it when it
/// is intact and still a prefix of the authoritative history, heal it by
/// anti-entropy from the freshest quorum source otherwise, and fall back
/// to a full resync from the primary's journal as the last resort.
fn rebuild_standby(
    node: &str,
    mirror: &[u8],
    authoritative: &[u8],
    sources: &[&Standby],
    epoch: u64,
    anti_entropy_repairs: &mut u64,
    standby_resyncs: &mut u64,
) -> Standby {
    if authoritative.starts_with(mirror) {
        if let Ok(sb) = Standby::from_mirror(node, mirror, epoch) {
            return sb;
        }
    }
    if let Some(source) = select_repair_source(sources) {
        if let Ok((healed, _repair)) = repair_journal(mirror, source) {
            if authoritative.starts_with(&healed) {
                if let Ok(sb) = Standby::from_mirror(node, &healed, epoch) {
                    *anti_entropy_repairs += 1;
                    return sb;
                }
            }
        }
    }
    *standby_resyncs += 1;
    Standby::from_mirror(node, authoritative, epoch).expect("authoritative journal rebuilds")
}

/// Fences every survivor at `epoch` and resyncs any whose mirror is no
/// longer a prefix of the (possibly rewritten) authoritative journal.
fn resync_survivors(
    standbys: &mut BTreeMap<String, Standby>,
    broker: &GenericBroker,
    epoch: u64,
    standby_resyncs: &mut u64,
) {
    let auth = broker.journal_bytes().expect("journaling on").to_vec();
    for (node, sb) in standbys.iter_mut() {
        sb.fence(epoch);
        if !auth.starts_with(sb.journal_bytes()) {
            *sb = Standby::from_mirror(node, &auth, epoch).expect("authoritative journal rebuilds");
            *standby_resyncs += 1;
        }
    }
}

/// Runs one configuration (`members`, `quorum`) against the campaign
/// generated by `seed` over `campaign_nodes`. The campaign is a function
/// of `(seed, campaign_nodes)` only, so a baseline and a quorum variant
/// with the same arguments face identical fault schedules.
#[allow(clippy::too_many_lines)]
pub fn run_variant(
    seed: u64,
    campaign_nodes: &[&str],
    members: &[&str],
    quorum: u64,
    calls: u64,
    period_ms: u64,
) -> E15Run {
    let model = e15_broker_model(members, quorum);
    let horizon = SimDuration::from_millis(calls * period_ms);
    let mut supervisor = campaign_supervisor(members, horizon);
    supervisor.designate_replica_set(members[0], &members[1..]);
    let members: Vec<String> = members.iter().map(|n| (*n).to_string()).collect();
    let mut primary_node = members[0].clone();

    let mut broker = GenericBroker::from_model(&model, hub(seed)).expect("E15 model valid");
    broker.enable_journal(SNAPSHOT_EVERY);
    let mut standbys: BTreeMap<String, Standby> = members[1..]
        .iter()
        .map(|n| (n.clone(), Standby::new(n)))
        .collect();
    let mut rep = QuorumReplicator::new(cfg_for(&members, quorum, &primary_node), &primary_node);
    // Durable mirrors of crashed replicas, damage applied while down.
    let mut dead_mirrors: BTreeMap<String, Vec<u8>> = BTreeMap::new();

    let net = Network::new(Link::default(), seed ^ 0x5eed);
    let campaign = random_quorum_campaign(
        "e15",
        seed,
        &QuorumCampaignConfig {
            nodes: campaign_nodes.iter().map(|n| (*n).to_string()).collect(),
            corruptions: vec![("tier".into(), "gamma".into())],
            candidates: vec!["v2".into(), "v3".into()],
            horizon,
            mean_gap: SimDuration::from_millis(450),
            mean_downtime: SimDuration::from_millis(900),
            ..QuorumCampaignConfig::default()
        },
    );
    let mut driver = FaultDriver::from_model(&campaign).expect("campaign conforms");

    let period = SimDuration::from_millis(period_ms);
    let mut run = E15Run {
        members: members.len() as u64,
        quorum,
        calls,
        ..E15Run::default()
    };
    let mut committed_actions: Vec<String> = Vec::new();
    let mut retrans_retired = 0u64;
    let mut fo_times_us: Vec<u64> = Vec::new();
    // Virtual instant the currently-unhandled primary fault fired.
    let mut fault_at: Option<u64> = None;
    // A partitioned-out old primary (with its replicator and node name),
    // parked until the heal lets the fence and reconciliation run.
    let mut parked: Option<(GenericBroker, QuorumReplicator, String)> = None;

    let crashed =
        |sup: &Supervisor, node: &str| sup.state().int(&format!("crashed_{node}")) == Some(1);

    for i in 0..calls {
        let t = broker.now();

        // Deliver due fault events at their exact instants so detection
        // delay is measured from the true fault time. Network faults are
        // already applied by the driver.
        while let Some(te) = driver.next_at() {
            if te > t {
                break;
            }
            for action in driver.advance_to(te, broker.hub_mut(), Some(&net)) {
                match &action {
                    FaultAction::CrashComponent { component: node } => {
                        if !members.contains(node) {
                            continue;
                        }
                        run.crashes += 1;
                        supervisor.crash_component(node);
                        if *node != primary_node {
                            if let Some(sb) = standbys.remove(node) {
                                dead_mirrors.insert(node.clone(), sb.journal_bytes().to_vec());
                            }
                        } else if fault_at.is_none() {
                            fault_at = Some(te.as_micros());
                        }
                    }
                    // State corruption always lands on whichever node
                    // serves as primary when the event fires.
                    FaultAction::CorruptState { key, value, .. } => {
                        if crashed(&supervisor, &primary_node) {
                            continue;
                        }
                        run.corruptions += 1;
                        let before = applied_updates(&broker);
                        let trips = broker.corrupt_state(key, value);
                        if !trips.is_empty() {
                            run.monitor_trips += trips.len() as u64;
                            // Quarantine: roll the runtime model back to
                            // the newest trip-free snapshot (the E10
                            // path). The rewound updates stay in the
                            // journal; only the loss accounting follows.
                            broker
                                .rollback_to_snapshot()
                                .expect("a trip-free snapshot exists");
                            run.snapshot_rollbacks += 1;
                            let after = applied_updates(&broker);
                            run.committed =
                                run.committed.saturating_sub(before.saturating_sub(after));
                        }
                    }
                    FaultAction::BeginUpgrade { candidate, .. }
                        if !crashed(&supervisor, &primary_node) =>
                    {
                        run.upgrades_pushed += 1;
                        if broker.monitor_latched() {
                            run.upgrades_skipped += 1;
                        } else {
                            let next = broker.model_version() + 1;
                            match broker.commit_upgrade(next, candidate, &mut |_| {}) {
                                Ok(_) => run.upgrades_applied += 1,
                                Err(_) => run.upgrades_skipped += 1,
                            }
                        }
                    }
                    FaultAction::TornWrite {
                        component: node, ..
                    }
                    | FaultAction::BitFlip {
                        component: node, ..
                    }
                    | FaultAction::DropUnsynced {
                        component: node, ..
                    }
                    | FaultAction::TruncateSnapshot { component: node } => {
                        if !members.contains(node) {
                            continue;
                        }
                        if *node == primary_node {
                            if crashed(&supervisor, node) {
                                continue;
                            }
                            run.storage_faults += 1;
                            let pristine = broker.journal_bytes().expect("journaling on").to_vec();
                            let damaged = action.damage(&pristine).expect("storage damages");
                            if damaged == pristine {
                                run.harmless += 1;
                                continue;
                            }
                            // Power cut: the primary dies with its disk
                            // damage and recovers through anti-entropy
                            // from the freshest quorum source.
                            let dead = broker;
                            let epoch = supervisor.epoch();
                            let sources: Vec<&Standby> = standbys.values().collect();
                            let recovered = recover_with_quorum(
                                &model,
                                dead.into_hub(),
                                &damaged,
                                INVARIANTS,
                                &sources,
                            );
                            let (mut next, penalty) = match recovered {
                                Ok((b, report, repair)) => {
                                    if repair.is_some() {
                                        run.anti_entropy_repairs += 1;
                                    }
                                    (b, recovery_penalty_us(&report))
                                }
                                // No reachable mirror: plain recovery over
                                // the damaged bytes, else a fresh model
                                // (history gone).
                                Err(_) => match GenericBroker::recover(
                                    &model,
                                    hub(seed ^ 0xd15c),
                                    &damaged,
                                    INVARIANTS,
                                ) {
                                    Ok((b, report)) => (b, recovery_penalty_us(&report)),
                                    Err(_) => {
                                        let mut fresh =
                                            GenericBroker::from_model(&model, hub(seed ^ 0xf0e5))
                                                .expect("E15 model valid");
                                        fresh.enable_journal(SNAPSHOT_EVERY);
                                        run.restarts += 1;
                                        run.committed_lost = run.committed_lost.max(run.committed);
                                        (fresh, RESTART_PENALTY_US)
                                    }
                                },
                            };
                            next.set_snapshot_every(SNAPSHOT_EVERY);
                            if next.epoch() < epoch {
                                next.adopt_epoch(epoch);
                            }
                            clock_to(&mut next, te.as_micros() + penalty);
                            broker = next;
                            run.committed_lost = run
                                .committed_lost
                                .max(run.committed.saturating_sub(applied_updates(&broker)));
                            retrans_retired += rep.retransmits();
                            rep = QuorumReplicator::new(
                                cfg_for(&members, quorum, &primary_node),
                                &primary_node,
                            );
                            resync_survivors(
                                &mut standbys,
                                &broker,
                                epoch,
                                &mut run.standby_resyncs,
                            );
                        } else if let Some(sb) = standbys.get(node) {
                            run.storage_faults += 1;
                            let pristine = sb.journal_bytes().to_vec();
                            let damaged = action.damage(&pristine).expect("storage damages");
                            if damaged == pristine {
                                run.harmless += 1;
                                continue;
                            }
                            let auth = broker.journal_bytes().expect("journaling on").to_vec();
                            let epoch = supervisor.epoch();
                            let revived = {
                                let sources: Vec<&Standby> = standbys
                                    .iter()
                                    .filter(|(n, _)| *n != node)
                                    .map(|(_, s)| s)
                                    .collect();
                                rebuild_standby(
                                    node,
                                    &damaged,
                                    &auth,
                                    &sources,
                                    epoch,
                                    &mut run.anti_entropy_repairs,
                                    &mut run.standby_resyncs,
                                )
                            };
                            // The rebuilt mirror may be shorter than the
                            // lane's cumulative ack; rewind the lane so
                            // the retained outbox re-ships from 0.
                            rep.reset_peer(node);
                            standbys.insert(node.clone(), revived);
                        } else if let Some(bytes) = dead_mirrors.get_mut(node) {
                            // The replica is down; the damage lands on
                            // its durable mirror and is discovered at
                            // revival.
                            run.storage_faults += 1;
                            *bytes = action.damage(bytes).expect("storage damages");
                        }
                    }
                    _ => {}
                }
            }
            // A freshly-applied partition opens the RTO window.
            if fault_at.is_none()
                && (crashed(&supervisor, &primary_node) || is_cut(&net, &primary_node, &members))
            {
                fault_at = Some(te.as_micros());
            }
        }

        // Node-centric partition flags, every iteration (the supervisor's
        // symptom inputs), plus heartbeats and replica LSN polls.
        for n in &members {
            supervisor.note_partitioned(n, is_cut(&net, n, &members));
            supervisor.heartbeat(n, t);
        }
        if !crashed(&supervisor, &primary_node) && !is_cut(&net, &primary_node, &members) {
            fault_at = None;
        }
        for (n, sb) in &standbys {
            supervisor.note_replica_lsn(n, sb.applied_lsn());
        }

        if i % SUPERVISE_EVERY == 0 {
            let mut failover: Option<(String, u64, String)> = None;
            let mut primary_restart = false;
            let mut revive: Vec<String> = Vec::new();
            for d in supervisor.tick(t).expect("liveness symptoms evaluate") {
                match d {
                    SupervisorDecision::Escalate { .. } => run.escalated = true,
                    SupervisorDecision::Failover {
                        component,
                        standby: promoted_to,
                        reason,
                        epoch,
                    } => {
                        debug_assert_eq!(component, primary_node);
                        failover = Some((promoted_to, epoch, reason));
                    }
                    SupervisorDecision::Restart {
                        component, reason, ..
                    } => {
                        if component == primary_node {
                            primary_restart = reason == "crashed";
                        } else if reason == "crashed" {
                            revive.push(component);
                        }
                        // A partitioned replica needs no restart: its
                        // lane retransmits once the partition heals.
                    }
                    // Corruption is quarantined inline at the event, and
                    // E15 reports no journal damage or upgrade
                    // regressions to the supervisor.
                    SupervisorDecision::Quarantine { .. }
                    | SupervisorDecision::RepairJournal { .. }
                    | SupervisorDecision::RollbackUpgrade { .. } => {}
                }
            }

            if let Some((promoted_to, epoch, reason)) = failover {
                let mut sb = standbys
                    .remove(&promoted_to)
                    .expect("elected replica has a live mirror");
                let dead = broker;
                let (promoted_hub, stale) = if reason == "crashed" {
                    // The node died: its journal is gone, but the world
                    // (the resource hub) survives the middleware.
                    (dead.into_hub(), None)
                } else {
                    // Partitioned: the stale primary lives on, unaware
                    // it was deposed. Park it for fencing at the heal.
                    (hub(seed ^ (0x9e00 + epoch)), Some(dead))
                };
                let (promoted, penalty_us) = promote(
                    &mut sb,
                    epoch,
                    &model,
                    promoted_hub,
                    INVARIANTS,
                    SNAPSHOT_EVERY,
                    t,
                );
                let old_rep = std::mem::replace(
                    &mut rep,
                    QuorumReplicator::new(cfg_for(&members, quorum, &promoted_to), &promoted_to),
                );
                let old_primary = std::mem::replace(&mut primary_node, promoted_to);
                broker = promoted;
                run.failovers += 1;
                run.committed_lost = run
                    .committed_lost
                    .max(run.committed.saturating_sub(applied_updates(&broker)));
                let detect_us = t.as_micros() - fault_at.take().unwrap_or_else(|| t.as_micros());
                fo_times_us.push(detect_us + penalty_us);
                match stale {
                    Some(d) => parked = Some((d, old_rep, old_primary)),
                    None => retrans_retired += old_rep.retransmits(),
                }
                resync_survivors(
                    &mut standbys,
                    &broker,
                    supervisor.epoch(),
                    &mut run.standby_resyncs,
                );
            } else if primary_restart {
                // No electable replica remained: a fresh model on the
                // same node. The journal died with the process.
                let epoch = supervisor.epoch();
                let dead = broker;
                let mut fresh =
                    GenericBroker::from_model(&model, dead.into_hub()).expect("E15 model valid");
                fresh.enable_journal(SNAPSHOT_EVERY);
                if fresh.epoch() < epoch {
                    fresh.adopt_epoch(epoch);
                }
                fresh.advance_clock(SimDuration::from_micros(t.as_micros() + RESTART_PENALTY_US));
                broker = fresh;
                run.restarts += 1;
                run.committed_lost = run.committed_lost.max(run.committed);
                let detect_us = t.as_micros() - fault_at.take().unwrap_or_else(|| t.as_micros());
                fo_times_us.push(detect_us + RESTART_PENALTY_US);
                retrans_retired += rep.retransmits();
                rep =
                    QuorumReplicator::new(cfg_for(&members, quorum, &primary_node), &primary_node);
                resync_survivors(&mut standbys, &broker, epoch, &mut run.standby_resyncs);
            }

            for node in revive {
                if standbys.contains_key(&node) {
                    continue;
                }
                let mirror = dead_mirrors.remove(&node).unwrap_or_default();
                let auth = broker.journal_bytes().expect("journaling on").to_vec();
                let epoch = supervisor.epoch();
                let sb = {
                    let sources: Vec<&Standby> = standbys.values().collect();
                    rebuild_standby(
                        &node,
                        &mirror,
                        &auth,
                        &sources,
                        epoch,
                        &mut run.anti_entropy_repairs,
                        &mut run.standby_resyncs,
                    )
                };
                // The revived mirror is older than the lane's cumulative
                // ack; rewind the lane so the outbox re-ships from 0.
                rep.reset_peer(&node);
                standbys.insert(node, sb);
                run.replica_revivals += 1;
            }

            // A failed-over node that is reachable again rejoins: fence
            // its stale journal against the survivors' epoch, reconcile
            // it with the authoritative history, and re-arm it as a
            // replica of the current primary.
            let healed: Vec<String> = members
                .iter()
                .filter(|n| {
                    n.as_str() != primary_node
                        && supervisor.awaiting_rejoin(n)
                        && !is_cut(&net, n, &members)
                })
                .cloned()
                .collect();
            for old in healed {
                if let Some((stale, mut stale_rep, pnode)) = parked.take() {
                    if pnode != old {
                        parked = Some((stale, stale_rep, pnode));
                    } else {
                        // Unless a later crash took the parked journal
                        // with it, leaving nothing to fence or reconcile.
                        if !crashed(&supervisor, &old) {
                            let mut peers: Vec<&mut Standby> = standbys.values_mut().collect();
                            if fence_stale(&stale, &mut stale_rep, &net, t, &mut peers) {
                                run.fenced_events += 1;
                            }
                            run.reconciles += 1;
                            run.discarded_stale_lines += reconcile_stale(
                                &broker,
                                &primary_node,
                                &stale,
                                &model,
                                INVARIANTS,
                                seed,
                            );
                        }
                        retrans_retired += stale_rep.retransmits();
                    }
                }
                supervisor.rejoin(&old, t);
                supervisor.add_replica(&primary_node, &old);
                let auth = broker.journal_bytes().expect("journaling on").to_vec();
                let sb = Standby::from_mirror(&old, &auth, supervisor.epoch())
                    .expect("authoritative journal rebuilds");
                standbys.insert(old, sb);
                run.rejoins += 1;
            }
        }

        // A crashed-but-undetected primary serves nothing.
        if crashed(&supervisor, &primary_node) {
            run.failed_dead += 1;
            broker.advance_clock(period);
            continue;
        }

        // Commit gate: the primary refuses calls it could not
        // quorum-commit — fewer than `quorum - 1` lanes can catch up.
        if !drain(
            &mut rep,
            &broker,
            &net,
            &mut standbys.values_mut().collect::<Vec<_>>(),
            t.as_micros(),
            DRAIN_ROUNDS,
            ACK_TIMEOUT_US,
        ) {
            run.rejected += 1;
            broker.advance_clock(period);
            continue;
        }

        let n = i.to_string();
        let r = broker
            .call("op", &args(&[("n", &n)]))
            .map_err(|e| e.to_string());
        match r {
            Ok(r) => {
                let ok = r.outcome.is_ok();
                if ok {
                    run.served += 1;
                }
                let acked = drain(
                    &mut rep,
                    &broker,
                    &net,
                    &mut standbys.values_mut().collect::<Vec<_>>(),
                    broker.now().as_micros(),
                    DRAIN_ROUNDS,
                    ACK_TIMEOUT_US,
                );
                if ok && acked {
                    run.committed += 1;
                    committed_actions.push(r.action.clone());
                } else if ok {
                    // Executed but not quorum-acknowledged: the client
                    // is told "uncertain", never "committed".
                    run.uncertain += 1;
                }
            }
            Err(_) => {
                // A latched monitor refuses the call: quarantine and
                // restore service from the newest trip-free snapshot.
                broker
                    .rollback_to_snapshot()
                    .expect("a trip-free snapshot exists");
                run.snapshot_rollbacks += 1;
            }
        }
        broker.advance_clock(period);
    }

    // Quiesce: let replication drain the campaign's tail before the
    // propagation check — a replica still behind here is cut off by a
    // partition that outlived the horizon, not by a lost upgrade.
    let mut stalled = 0u64;
    let mut last_lag = u64::MAX;
    for k in 0..200u64 {
        let now = SimTime::from_micros(broker.now().as_micros() + k * ACK_TIMEOUT_US);
        let bytes = broker.journal_bytes().expect("journaling on").to_vec();
        let mut peers: Vec<&mut Standby> = standbys.values_mut().collect();
        rep.tick(now, broker.epoch(), &net, &bytes, &mut peers)
            .expect("replication tick is healthy");
        if rep.synced() {
            break;
        }
        // A lane that stops catching up is cut off or dead (its node
        // sits in `dead_mirrors`), not slow — give retransmission a few
        // timeouts, then stop.
        let lag = rep.lag();
        stalled = if lag < last_lag { 0 } else { stalled + 1 };
        if stalled >= 3 {
            break;
        }
        last_lag = lag;
    }
    run.upgrades_propagated = standbys
        .iter()
        .filter(|(n, _)| net.is_up(&primary_node, n) && net.is_up(n, &primary_node))
        .all(|(_, s)| s.model_version() == broker.model_version());

    // Post-campaign command-trace divergence: every action acknowledged
    // as quorum-committed must still appear, in order, in the surviving
    // journal.
    run.divergent_commits = divergent_commits(&broker, &committed_actions);
    run.replay_consistent = replay_consistent(&broker);
    run.unavailable = run.rejected + run.failed_dead;
    run.retransmits = retrans_retired + rep.retransmits();
    if let Some((_, r, _)) = parked.as_ref() {
        run.retransmits += r.retransmits();
    }
    run.commit_lsn = rep.commit_lsn();
    run.journal_bytes = broker.journal_bytes().map_or(0, |b| b.len() as u64);
    run.served_counters = (
        broker.state().int("served_alpha").unwrap_or(0),
        broker.state().int("served_beta").unwrap_or(0),
    );
    run.state_version = broker.state().version();
    for ((_, _), s) in net.link_stats_all() {
        run.net_delivered += s.delivered;
        run.net_lost += s.lost;
        run.net_partitioned += s.partitioned;
    }
    (run.mean_failover_ms, run.max_failover_ms) = mean_max_ms(&fo_times_us);
    run.one_primary_per_epoch = supervisor.property_trips() == 0;
    run
}

/// The four configurations over one campaign seed: each node set runs
/// the single-standby baseline and the full quorum set against the same
/// schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct E15Campaign {
    /// Campaign seed.
    pub seed: u64,
    /// 2-node single-standby baseline under the 3-node schedule.
    pub baseline3: E15Run,
    /// 3-node replica set, quorum 2.
    pub quorum3: E15Run,
    /// 2-node single-standby baseline under the 5-node schedule.
    pub baseline5: E15Run,
    /// 5-node replica set, quorum 3.
    pub quorum5: E15Run,
}

/// Runs the four configurations over the campaigns generated by `seed`.
pub fn run_campaign(seed: u64, calls: u64, period_ms: u64) -> E15Campaign {
    E15Campaign {
        seed,
        baseline3: run_variant(seed, NODES3, &NODES3[..2], 2, calls, period_ms),
        quorum3: run_variant(seed, NODES3, NODES3, 2, calls, period_ms),
        baseline5: run_variant(seed, NODES5, &NODES5[..2], 2, calls, period_ms),
        quorum5: run_variant(seed, NODES5, NODES5, 3, calls, period_ms),
    }
}

/// The full experiment: four configurations across several seeded
/// campaigns, with the claims checked across all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct E15Result {
    /// Campaign seeds, in run order.
    pub seeds: Vec<u64>,
    /// Calls per configuration per campaign.
    pub calls: u64,
    /// Virtual milliseconds between calls.
    pub period_ms: u64,
    /// Per-seed results.
    pub campaigns: Vec<E15Campaign>,
    /// The quorum variants lost zero quorum-committed updates on every
    /// seed (3- and 5-node sets alike).
    pub quorum_zero_lost: bool,
    /// The quorum variants show zero committed-trace divergence on
    /// every seed.
    pub quorum_zero_divergence: bool,
    /// Aggregate quorum unavailability is strictly below the baseline's
    /// and never worse on any seed or node set.
    pub availability_strictly_better: bool,
    /// Every surviving journal replays to the live runtime model, in
    /// every configuration, on every seed.
    pub replays_consistent: bool,
    /// The online `onePrimaryPerEpoch` temporal property held in every
    /// configuration on every seed.
    pub one_primary_per_epoch: bool,
    /// Every applied upgrade reached every live replica, in the quorum
    /// variants, on every seed.
    pub upgrades_propagated: bool,
    /// Aggregate unavailable calls across the quorum variants.
    pub unavailable_quorum: u64,
    /// Aggregate unavailable calls across the baselines.
    pub unavailable_baseline: u64,
}

/// Runs E15 across `seeds`.
pub fn run(seeds: &[u64], calls: u64, period_ms: u64) -> E15Result {
    let campaigns: Vec<E15Campaign> = seeds
        .iter()
        .map(|&s| run_campaign(s, calls, period_ms))
        .collect();
    let quorum_zero_lost = campaigns
        .iter()
        .all(|c| c.quorum3.committed_lost == 0 && c.quorum5.committed_lost == 0);
    let quorum_zero_divergence = campaigns
        .iter()
        .all(|c| c.quorum3.divergent_commits == 0 && c.quorum5.divergent_commits == 0);
    let unavailable_quorum: u64 = campaigns
        .iter()
        .map(|c| c.quorum3.unavailable + c.quorum5.unavailable)
        .sum();
    let unavailable_baseline: u64 = campaigns
        .iter()
        .map(|c| c.baseline3.unavailable + c.baseline5.unavailable)
        .sum();
    let availability_strictly_better = unavailable_quorum < unavailable_baseline
        && campaigns.iter().all(|c| {
            c.quorum3.unavailable <= c.baseline3.unavailable
                && c.quorum5.unavailable <= c.baseline5.unavailable
        });
    let replays_consistent = campaigns.iter().all(|c| {
        c.baseline3.replay_consistent
            && c.quorum3.replay_consistent
            && c.baseline5.replay_consistent
            && c.quorum5.replay_consistent
    });
    let one_primary_per_epoch = campaigns.iter().all(|c| {
        c.baseline3.one_primary_per_epoch
            && c.quorum3.one_primary_per_epoch
            && c.baseline5.one_primary_per_epoch
            && c.quorum5.one_primary_per_epoch
    });
    let upgrades_propagated = campaigns
        .iter()
        .all(|c| c.quorum3.upgrades_propagated && c.quorum5.upgrades_propagated);
    E15Result {
        seeds: seeds.to_vec(),
        calls,
        period_ms,
        campaigns,
        quorum_zero_lost,
        quorum_zero_divergence,
        availability_strictly_better,
        replays_consistent,
        one_primary_per_epoch,
        upgrades_propagated,
        unavailable_quorum,
        unavailable_baseline,
    }
}

fn json_run(r: &E15Run) -> String {
    row(&[
        ("members", &r.members),
        ("quorum", &r.quorum),
        ("calls", &r.calls),
        ("served", &r.served),
        ("committed", &r.committed),
        ("rejected", &r.rejected),
        ("failed_dead", &r.failed_dead),
        ("uncertain", &r.uncertain),
        ("unavailable", &r.unavailable),
        ("failovers", &r.failovers),
        ("restarts", &r.restarts),
        ("replica_revivals", &r.replica_revivals),
        ("anti_entropy_repairs", &r.anti_entropy_repairs),
        ("standby_resyncs", &r.standby_resyncs),
        ("rejoins", &r.rejoins),
        ("fenced_events", &r.fenced_events),
        ("reconciles", &r.reconciles),
        ("discarded_stale_lines", &r.discarded_stale_lines),
        ("crashes", &r.crashes),
        ("corruptions", &r.corruptions),
        ("monitor_trips", &r.monitor_trips),
        ("snapshot_rollbacks", &r.snapshot_rollbacks),
        ("storage_faults", &r.storage_faults),
        ("harmless", &r.harmless),
        ("upgrades_pushed", &r.upgrades_pushed),
        ("upgrades_applied", &r.upgrades_applied),
        ("upgrades_skipped", &r.upgrades_skipped),
        ("upgrades_propagated", &r.upgrades_propagated),
        ("committed_lost", &r.committed_lost),
        ("divergent_commits", &r.divergent_commits),
        ("mean_failover_ms", &Fixed(r.mean_failover_ms, 3)),
        ("max_failover_ms", &Fixed(r.max_failover_ms, 3)),
        ("retransmits", &r.retransmits),
        ("commit_lsn", &r.commit_lsn),
        ("journal_bytes", &r.journal_bytes),
        ("served_alpha", &r.served_counters.0),
        ("served_beta", &r.served_counters.1),
        ("state_version", &r.state_version),
        ("net_delivered", &r.net_delivered),
        ("net_lost", &r.net_lost),
        ("net_partitioned", &r.net_partitioned),
        ("replay_consistent", &r.replay_consistent),
        ("escalated", &r.escalated),
        ("one_primary_per_epoch", &r.one_primary_per_epoch),
    ])
}

impl E15Result {
    /// Renders the `BENCH_e15.json` artifact. Deterministic in the seeds.
    pub fn to_json(&self) -> String {
        let campaigns: Vec<String> = self
            .campaigns
            .iter()
            .map(|c| {
                campaign_row(
                    c.seed,
                    &[
                        ("baseline3", &json_run(&c.baseline3)),
                        ("quorum3", &json_run(&c.quorum3)),
                        ("baseline5", &json_run(&c.baseline5)),
                        ("quorum5", &json_run(&c.quorum5)),
                    ],
                )
            })
            .collect();
        document(&[
            ("experiment", &Str("e15")),
            ("seed", &self.seeds.first().copied().unwrap_or(0)),
            ("seeds", &array(&self.seeds)),
            ("calls", &self.calls),
            ("period_ms", &self.period_ms),
            ("supervise_every", &SUPERVISE_EVERY),
            ("quorum_zero_lost", &self.quorum_zero_lost),
            ("quorum_zero_divergence", &self.quorum_zero_divergence),
            (
                "availability_strictly_better",
                &self.availability_strictly_better,
            ),
            ("replays_consistent", &self.replays_consistent),
            ("one_primary_per_epoch", &self.one_primary_per_epoch),
            ("upgrades_propagated", &self.upgrades_propagated),
            ("unavailable_quorum", &self.unavailable_quorum),
            ("unavailable_baseline", &self.unavailable_baseline),
            ("campaigns", &rows(&campaigns)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sets_lose_no_committed_update_under_composed_chaos() {
        let r = run(&[1, 3, 7], 300, 20);
        let failovers: u64 = r
            .campaigns
            .iter()
            .map(|c| c.quorum3.failovers + c.quorum5.failovers)
            .sum();
        assert!(failovers > 0, "campaigns promoted no replica");
        assert!(r.quorum_zero_lost, "a quorum set lost committed updates");
        assert!(r.quorum_zero_divergence, "a committed trace diverged");
        assert!(r.replays_consistent);
        assert!(
            r.one_primary_per_epoch,
            "two primaries promoted under one epoch"
        );
        for c in &r.campaigns {
            for (tag, v) in [("quorum3", &c.quorum3), ("quorum5", &c.quorum5)] {
                assert!(!v.escalated, "seed {}/{tag}", c.seed);
                assert_eq!(v.committed_lost, 0, "seed {}/{tag}", c.seed);
                assert_eq!(v.divergent_commits, 0, "seed {}/{tag}", c.seed);
            }
        }
    }

    #[test]
    fn quorum_availability_beats_the_single_standby_baseline() {
        let r = run(&[1, 3, 7], 300, 20);
        assert!(
            r.availability_strictly_better,
            "quorum {} vs baseline {} unavailable calls",
            r.unavailable_quorum, r.unavailable_baseline
        );
    }

    #[test]
    fn the_campaign_actually_composes_every_fault_family() {
        let r = run(&[1, 3, 7], 300, 20);
        let sum = |f: fn(&E15Run) -> u64| -> u64 {
            r.campaigns
                .iter()
                .map(|c| f(&c.quorum3) + f(&c.quorum5))
                .sum()
        };
        assert!(sum(|v| v.crashes) > 0, "no crashes delivered");
        assert!(sum(|v| v.storage_faults) > 0, "no storage faults");
        assert!(sum(|v| v.corruptions) > 0, "no corruptions");
        assert!(sum(|v| v.upgrades_pushed) > 0, "no upgrades pushed");
        assert!(sum(|v| v.monitor_trips) > 0, "no monitor ever tripped");
        assert!(
            sum(|v| v.replica_revivals + v.rejoins) > 0,
            "no replica ever came back"
        );
        assert!(r.upgrades_propagated, "an upgrade failed to propagate");
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let a = run(&[7], 150, 20);
        let b = run(&[7], 150, 20);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let j = run(&[3], 120, 20).to_json();
        assert!(j.contains("\"experiment\": \"e15\""));
        for key in [
            "\"quorum_zero_lost\"",
            "\"quorum_zero_divergence\"",
            "\"availability_strictly_better\"",
            "\"upgrades_propagated\"",
            "\"campaigns\"",
            "\"commit_lsn\"",
            "\"anti_entropy_repairs\"",
            "\"net_partitioned\"",
            "\"one_primary_per_epoch\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
