//! E9 — replicated models@runtime: journal shipping to a hot standby,
//! partition-aware failover, and split-brain fencing.
//!
//! E7 showed that one broker can crash and recover its runtime model from
//! the local journal. E9 removes the assumption that the journal survives
//! the fault: the node itself dies or is cut off. The primary
//! ([`GenericBroker`] on node `a`) ships its journal over the simulated
//! [`Network`] to a hot [`Standby`] on node `b` — the model declares a
//! one-peer replica set with quorum 2, run by a [`QuorumReplicator`]. The
//! [`Supervisor`] detects a crashed or partitioned primary and promotes
//! the standby, which fences the old primary behind a journaled epoch. A
//! seeded
//! crash/partition/loss-spike campaign
//! ([`mddsm_sim::fault::random_failover_campaign`]) targets node `a`
//! while a steady call stream runs whose routing depends on the runtime
//! model (the E7 `tier` flip-flop). Three configurations over the same
//! campaign:
//!
//! * **no-replica** — local journal only: a node crash loses it and the
//!   middleware restarts from a fresh model (every committed update is
//!   gone);
//! * **async** — best-effort shipping: calls commit immediately and the
//!   journal follows when the network allows. A partitioned primary keeps
//!   committing writes the standby never sees — after failover those are
//!   **committed-but-lost**, and the healed stale primary must be fenced
//!   ([`BrokerError::StaleEpoch`]) and reconciled;
//! * **ack-windowed** — CP behaviour: a call is served only when the
//!   standby is caught up, and committed only once its records are
//!   acknowledged. Partitions cost availability (rejected calls), never
//!   committed updates.
//!
//! Measured per configuration: failover time (detection + promotion +
//! replay), committed-but-lost updates, and post-failover command-trace
//! divergence (committed actions the final journal no longer carries).
//! Expected: ack-windowed shows **zero** loss and **zero** divergence on
//! every seed; async shows measurable loss under partition; no-replica
//! loses everything at each crash. Everything is virtual-time and seeded,
//! so `BENCH_e9.json` reproduces byte-for-byte.
//!
//! [`Supervisor`]: mddsm_broker::Supervisor
//! [`BrokerError::StaleEpoch`]: mddsm_broker::BrokerError::StaleEpoch

use crate::artifacts::{array, campaign_row, document, row, rows, Fixed, Str};
use crate::common::{
    applied_updates, campaign_supervisor, deliver, divergent_commits, drain, fence_stale, hub,
    mean_max_ms, promote, reconcile_stale, replay_consistent,
};
use mddsm_broker::{
    BrokerModelBuilder, GenericBroker, QuorumReplicator, ReplicaSetConfig, Standby,
    SupervisorDecision,
};
use mddsm_meta::Model;
use mddsm_sim::fault::{random_failover_campaign, FailoverCampaignConfig, FaultDriver};
use mddsm_sim::net::{Link, Network};
use mddsm_sim::resource::args;
use mddsm_sim::SimDuration;

pub use crate::common::{REPLAY_COST_PER_ENTRY_US, RESTART_PENALTY_US};

/// Journal snapshot cadence (entries between snapshots).
pub const SNAPSHOT_EVERY: u64 = 32;
/// Calls between supervisor monitoring cycles — the control plane is
/// slower than the data plane, so partitions go undetected for up to this
/// many calls (that window is where async shipping loses writes).
pub const SUPERVISE_EVERY: u64 = 5;
/// Replication ack timeout (µs); also the spacing of drain rounds.
pub const ACK_TIMEOUT_US: u64 = 5_000;
/// Shipping window (records in flight) for the ack-windowed mode.
pub const WINDOW_RECORDS: u64 = 32;
/// Replication drain rounds the ack-windowed primary attempts per call
/// before declaring the standby unreachable.
pub const DRAIN_ROUNDS: u64 = 3;

/// Invariants every promotion and reconciliation must re-establish.
pub const INVARIANTS: &[&str] = &[
    "self.tier = null or self.tier = \"alpha\" or self.tier = \"beta\"",
    "self.served_alpha = null or self.served_alpha >= 0",
    "self.served_beta = null or self.served_beta >= 0",
];

/// The E9 broker model: the E7 tier flip-flop (routing depends on
/// journaled state, so losing the journal visibly diverges the command
/// trace), plus — for the replicated configurations, with `mode`
/// `"Async"` or `"AckWindowed"` — a one-peer `ReplicaSet` with quorum 2
/// declaring the standby `b` and its shipping mode.
pub fn e9_broker_model(mode: Option<&str>) -> Model {
    let b = BrokerModelBuilder::new("e9")
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
        );
    match mode {
        Some(m) => b
            .replica_set(2, &[("b", m, WINDOW_RECORDS, ACK_TIMEOUT_US)])
            .build(),
        None => b.build(),
    }
}

/// How a configuration replicates (or does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Local journal only; a node crash loses it.
    NoReplica,
    /// Best-effort journal shipping; commits never wait.
    AsyncShip,
    /// Ack-windowed shipping; serve and commit gate on the standby.
    AckWindowed,
}

/// Metrics of one configuration under one campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct E9Run {
    /// Calls issued.
    pub calls: u64,
    /// Calls the primary executed successfully.
    pub served: u64,
    /// Updates acknowledged to clients as committed.
    pub committed: u64,
    /// Calls refused by the ack-windowed gate (standby unreachable).
    pub rejected: u64,
    /// Calls that found the primary dead (crash not yet detected).
    pub failed_dead: u64,
    /// Calls executed but never acknowledged (post-serve ack drain failed).
    pub uncertain: u64,
    /// Standby promotions performed.
    pub failovers: u64,
    /// Fresh-model restarts (no-replica configuration only).
    pub restarts: u64,
    /// Standby mirrors rebuilt from scratch after a standby crash.
    pub standby_resyncs: u64,
    /// Times the failed-over node healed and rejoined as the new standby.
    pub rejoins: u64,
    /// Stale-epoch refusals observed when a healed stale primary tried to
    /// ship its divergent journal
    /// ([`BrokerError::StaleEpoch`](mddsm_broker::BrokerError::StaleEpoch)).
    pub fenced_events: u64,
    /// Journal reconciliations run for healed stale primaries.
    pub reconciles: u64,
    /// Stale journal-suffix lines discarded across all reconciliations.
    pub discarded_stale_lines: u64,
    /// Worst committed-but-lost count observed at any promotion: updates
    /// acknowledged to clients that the surviving history does not hold.
    pub committed_lost: u64,
    /// Committed actions missing from the final primary's command trace
    /// (order-preserving comparison against the surviving journal).
    pub divergent_commits: u64,
    /// Mean failover time (virtual ms): detection + penalty + replay.
    pub mean_failover_ms: f64,
    /// Worst single failover (virtual ms).
    pub max_failover_ms: f64,
    /// Replication retransmission events across all replicator instances.
    pub retransmits: u64,
    /// Final primary's journal size (bytes).
    pub journal_bytes: u64,
    /// Final `served_alpha` / `served_beta` counters on the primary.
    pub served_counters: (i64, i64),
    /// Final state-model version (journal LSN head).
    pub state_version: u64,
    /// Whether an independent replay of the surviving journal agrees with
    /// the live runtime model ([`StateManager::first_divergence`] is
    /// `None`).
    ///
    /// [`StateManager::first_divergence`]: mddsm_broker::StateManager::first_divergence
    pub replay_consistent: bool,
    /// Whether the supervisor gave up on a component.
    pub escalated: bool,
    /// Whether the online `onePrimaryPerEpoch` temporal property held
    /// through every supervision cycle (zero observed trips).
    pub one_primary_per_epoch: bool,
}

fn other(node: &str) -> &'static str {
    if node == "a" {
        "b"
    } else {
        "a"
    }
}

/// The model's one-peer set with its standby moved to `standby_node`.
fn cfg_to(base: &ReplicaSetConfig, standby_node: &str) -> ReplicaSetConfig {
    let mut c = base.clone();
    c.peers[0].node = standby_node.to_owned();
    c
}

/// Runs one configuration over the campaign generated by `seed`.
pub fn run_variant(seed: u64, calls: u64, period_ms: u64, variant: Variant) -> E9Run {
    let mode = match variant {
        Variant::NoReplica => None,
        Variant::AsyncShip => Some("Async"),
        Variant::AckWindowed => Some("AckWindowed"),
    };
    let model = e9_broker_model(mode);
    let replicated = mode.is_some();
    let base_cfg = ReplicaSetConfig::from_model(&model).expect("replica set conforms");

    let mut broker = GenericBroker::from_model(&model, hub(seed)).expect("E9 model valid");
    broker.enable_journal(SNAPSHOT_EVERY);
    let mut primary_node = "a".to_owned();

    let horizon = SimDuration::from_millis(calls * period_ms);
    let mut supervisor = campaign_supervisor(&["a", "b"], horizon);
    let mut standby: Option<Standby> = None;
    let mut rep: Option<QuorumReplicator> = None;
    if replicated {
        let cfg = base_cfg
            .clone()
            .expect("replicated model declares a replica set");
        supervisor.designate_replica_set("a", &["b"]);
        standby = Some(Standby::new("b"));
        rep = Some(QuorumReplicator::new(cfg, "a"));
    }

    let net = Network::new(Link::default(), seed ^ 0x5eed);
    let campaign = random_failover_campaign(
        "e9",
        seed,
        &FailoverCampaignConfig {
            node: "a".into(),
            component: "a".into(),
            peers: vec!["b".into()],
            horizon,
            mean_uptime: SimDuration::from_millis(1_200),
            mean_downtime: SimDuration::from_millis(400),
            ..FailoverCampaignConfig::default()
        },
    );
    let mut driver = FaultDriver::from_model(&campaign).expect("campaign conforms");

    let period = SimDuration::from_millis(period_ms);
    let mut run = E9Run {
        calls,
        ..E9Run::default()
    };
    let mut committed_actions: Vec<String> = Vec::new();
    let mut retrans_retired = 0u64;
    let mut fo_times_us: Vec<u64> = Vec::new();
    // Virtual instant the currently-unhandled primary fault fired.
    let mut fault_at: Option<u64> = None;
    // A partitioned-out old primary (with its replicator and the promoted
    // standby shell that now acts as its fence), parked until the heal.
    let mut parked: Option<(GenericBroker, QuorumReplicator, Standby)> = None;

    for i in 0..calls {
        let t = broker.now();

        // Deliver due fault events at their exact instants so detection
        // delay is measured from the true fault time.
        while let Some(te) = driver.next_at() {
            if te > t {
                break;
            }
            for action in driver.advance_to(te, broker.hub_mut(), Some(&net)) {
                deliver(&mut supervisor, &action);
            }
            let crashed = supervisor.state().int("crashed_a") == Some(1);
            // The campaign only ever faults node `a`; a fault opens an RTO
            // window only while `a` holds the primary role.
            if fault_at.is_none()
                && primary_node == "a"
                && (crashed || (replicated && !net.is_up("a", "b")))
            {
                fault_at = Some(te.as_micros());
            }
        }

        let a_up = net.is_up("a", "b");
        if replicated {
            supervisor.note_partitioned("a", !a_up);
            // A partition that healed before anyone noticed needs no
            // failover; close the RTO window unless the node also crashed.
            if primary_node == "a" && a_up && supervisor.state().int("crashed_a") != Some(1) {
                fault_at = None;
            }
        }
        supervisor.heartbeat("a", t);
        supervisor.heartbeat("b", t);

        if i % SUPERVISE_EVERY == 0 {
            let mut failover: Option<(String, u64, String)> = None;
            let mut primary_restart = false;
            let mut sb_reset = false;
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
                            // The standby's in-memory mirror died with it;
                            // a partition merely delays it (retransmission
                            // catches it up), but a crash forces a resync.
                            sb_reset = true;
                        }
                    }
                    // E9 arms no runtime-verification monitors on the
                    // broker, so no trip symptom ever reaches the
                    // supervisor (that is E10's territory).
                    SupervisorDecision::Quarantine { .. } => {
                        unreachable!("no monitors armed in E9")
                    }
                    SupervisorDecision::RepairJournal { .. } => {
                        unreachable!("no journal damage reported in E9")
                    }
                    SupervisorDecision::RollbackUpgrade { .. } => {
                        unreachable!("no live upgrade in flight in E9")
                    }
                }
            }

            if let Some((promoted_to, epoch, reason)) = failover {
                let mut sb = standby.take().expect("failover requires a standby");
                let old_rep = rep.take().expect("replicated variants ship the journal");
                let dead = broker;
                let (promoted_hub, stale) = if reason == "crashed" {
                    // The node died: its journal is gone, but the world
                    // (the resource hub) survives the middleware.
                    (dead.into_hub(), None)
                } else {
                    // Partitioned: the stale primary lives on, unaware it
                    // was deposed. Park it for fencing at the heal; the
                    // promoted side starts from its own node's resources.
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
                broker = promoted;
                run.failovers += 1;
                run.committed_lost = run
                    .committed_lost
                    .max(run.committed.saturating_sub(applied_updates(&broker)));
                let detect_us = t.as_micros() - fault_at.take().unwrap_or_else(|| t.as_micros());
                fo_times_us.push(detect_us + penalty_us);
                primary_node = promoted_to;
                match stale {
                    Some(dead) => parked = Some((dead, old_rep, sb)),
                    None => retrans_retired += old_rep.retransmits(),
                }
            } else if primary_restart {
                // No standby to promote: a fresh model on the same node
                // (the no-replica configuration's only move). The journal
                // died with the node.
                let dead = broker;
                let mut fresh =
                    GenericBroker::from_model(&model, dead.into_hub()).expect("E9 model valid");
                fresh.enable_journal(SNAPSHOT_EVERY);
                fresh.advance_clock(SimDuration::from_micros(t.as_micros() + RESTART_PENALTY_US));
                broker = fresh;
                run.restarts += 1;
                run.committed_lost = run.committed_lost.max(run.committed);
                let detect_us = t.as_micros() - fault_at.take().unwrap_or_else(|| t.as_micros());
                fo_times_us.push(detect_us + RESTART_PENALTY_US);
            }

            if sb_reset && standby.is_some() {
                let sb_node = other(&primary_node).to_owned();
                let mut nsb = Standby::new(&sb_node);
                nsb.fence(supervisor.epoch());
                standby = Some(nsb);
                if let Some(r) = rep.take() {
                    retrans_retired += r.retransmits();
                }
                rep = Some(QuorumReplicator::new(
                    cfg_to(base_cfg.as_ref().expect("replicated"), &sb_node),
                    &primary_node,
                ));
                run.standby_resyncs += 1;
            }

            // A failed-over node that is reachable again rejoins: fence
            // its stale journal, reconcile, and re-arm it as the standby.
            if replicated && supervisor.awaiting_rejoin("a") && net.is_up("a", "b") {
                if let Some((stale, mut stale_rep, mut fence)) = parked.take() {
                    // Unless a later crash took the parked journal with
                    // it, leaving nothing to fence or reconcile.
                    if supervisor.state().int("crashed_a") != Some(1) {
                        if fence_stale(&stale, &mut stale_rep, &net, t, &mut [&mut fence]) {
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
                supervisor.rejoin("a", t);
                supervisor.designate_replica_set(&primary_node, &["a"]);
                let mut nsb = Standby::new("a");
                nsb.fence(supervisor.epoch());
                standby = Some(nsb);
                rep = Some(QuorumReplicator::new(
                    cfg_to(base_cfg.as_ref().expect("replicated"), "a"),
                    &primary_node,
                ));
                run.rejoins += 1;
            }
        }

        // A crashed-but-undetected primary serves nothing.
        if supervisor.state().int(&format!("crashed_{primary_node}")) == Some(1) {
            run.failed_dead += 1;
            broker.advance_clock(period);
            continue;
        }

        // CP gate: the ack-windowed primary refuses calls it could not
        // commit — no standby, or a standby it cannot catch up.
        if variant == Variant::AckWindowed {
            let caught_up = match (rep.as_mut(), standby.as_mut()) {
                (Some(r), Some(s)) => drain(
                    r,
                    &broker,
                    &net,
                    &mut [s],
                    t.as_micros(),
                    DRAIN_ROUNDS,
                    ACK_TIMEOUT_US,
                ),
                _ => false,
            };
            if !caught_up {
                run.rejected += 1;
                broker.advance_clock(period);
                continue;
            }
        }

        let n = i.to_string();
        let r = broker
            .call("op", &args(&[("n", &n)]))
            .expect("handler accepts op");
        let ok = r.outcome.is_ok();
        if ok {
            run.served += 1;
        }
        // Only the ack-windowed primary waits for the standby before it
        // acknowledges a commit.
        let acked = match variant {
            Variant::NoReplica => true,
            Variant::AsyncShip => {
                // AP: commit first, ship when the network allows.
                if let (Some(rp), Some(s)) = (rep.as_mut(), standby.as_mut()) {
                    rp.tick(
                        broker.now(),
                        broker.epoch(),
                        &net,
                        broker.journal_bytes().expect("journaling on"),
                        &mut [s],
                    )
                    .expect("replication tick is healthy");
                }
                true
            }
            Variant::AckWindowed => drain(
                rep.as_mut().expect("gate passed"),
                &broker,
                &net,
                &mut [standby.as_mut().expect("gate passed")],
                broker.now().as_micros(),
                DRAIN_ROUNDS,
                ACK_TIMEOUT_US,
            ),
        };
        if ok && acked {
            run.committed += 1;
            committed_actions.push(r.action.clone());
        } else if ok {
            // Executed but unacknowledged: the client is told
            // "uncertain", never "committed" — so it can never be
            // committed-but-lost.
            run.uncertain += 1;
        }
        broker.advance_clock(period);
    }

    // Post-failover command-trace divergence: every action acknowledged as
    // committed must still appear, in order, in the surviving journal.
    run.divergent_commits = divergent_commits(&broker, &committed_actions);
    run.replay_consistent = replay_consistent(&broker);
    run.retransmits = retrans_retired;
    if let Some(r) = rep.as_ref() {
        run.retransmits += r.retransmits();
    }
    if let Some((_, r, _)) = parked.as_ref() {
        run.retransmits += r.retransmits();
    }
    (run.mean_failover_ms, run.max_failover_ms) = mean_max_ms(&fo_times_us);
    run.journal_bytes = broker.journal_bytes().map_or(0, |b| b.len() as u64);
    run.served_counters = (
        broker.state().int("served_alpha").unwrap_or(0),
        broker.state().int("served_beta").unwrap_or(0),
    );
    run.state_version = broker.state().version();
    run.one_primary_per_epoch = supervisor.property_trips() == 0;
    run
}

/// All three configurations over one campaign seed.
#[derive(Debug, Clone, PartialEq)]
pub struct E9Campaign {
    /// Campaign seed.
    pub seed: u64,
    /// Local journal only.
    pub no_replica: E9Run,
    /// Best-effort shipping.
    pub async_ship: E9Run,
    /// Ack-windowed shipping.
    pub ack_ship: E9Run,
}

/// Runs the three configurations over the campaign generated by `seed`.
pub fn run_campaign(seed: u64, calls: u64, period_ms: u64) -> E9Campaign {
    E9Campaign {
        seed,
        no_replica: run_variant(seed, calls, period_ms, Variant::NoReplica),
        async_ship: run_variant(seed, calls, period_ms, Variant::AsyncShip),
        ack_ship: run_variant(seed, calls, period_ms, Variant::AckWindowed),
    }
}

/// The full experiment: the three configurations across several seeded
/// campaigns, with the claims checked across all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct E9Result {
    /// Campaign seeds, in run order.
    pub seeds: Vec<u64>,
    /// Calls per configuration per campaign.
    pub calls: u64,
    /// Virtual milliseconds between calls.
    pub period_ms: u64,
    /// Per-seed results.
    pub campaigns: Vec<E9Campaign>,
    /// Ack-windowed shipping lost zero committed updates on every seed.
    pub ack_zero_lost: bool,
    /// Ack-windowed shipping shows zero committed-trace divergence on
    /// every seed.
    pub ack_zero_divergence: bool,
    /// Async shipping measurably lost committed updates on some seed.
    pub async_loss_observed: bool,
    /// Every surviving journal replays to the live runtime model, in every
    /// configuration, on every seed.
    pub replays_consistent: bool,
    /// The online `onePrimaryPerEpoch` temporal property held in every
    /// configuration on every seed.
    pub one_primary_per_epoch: bool,
}

/// Runs E9 across `seeds`.
pub fn run(seeds: &[u64], calls: u64, period_ms: u64) -> E9Result {
    let campaigns: Vec<E9Campaign> = seeds
        .iter()
        .map(|&s| run_campaign(s, calls, period_ms))
        .collect();
    let ack_zero_lost = campaigns.iter().all(|c| c.ack_ship.committed_lost == 0);
    let ack_zero_divergence = campaigns.iter().all(|c| c.ack_ship.divergent_commits == 0);
    let async_loss_observed = campaigns
        .iter()
        .any(|c| c.async_ship.committed_lost > 0 || c.async_ship.divergent_commits > 0);
    let replays_consistent = campaigns.iter().all(|c| {
        c.no_replica.replay_consistent
            && c.async_ship.replay_consistent
            && c.ack_ship.replay_consistent
    });
    let one_primary_per_epoch = campaigns.iter().all(|c| {
        c.no_replica.one_primary_per_epoch
            && c.async_ship.one_primary_per_epoch
            && c.ack_ship.one_primary_per_epoch
    });
    E9Result {
        seeds: seeds.to_vec(),
        calls,
        period_ms,
        campaigns,
        ack_zero_lost,
        ack_zero_divergence,
        async_loss_observed,
        replays_consistent,
        one_primary_per_epoch,
    }
}

fn json_run(r: &E9Run) -> String {
    row(&[
        ("calls", &r.calls),
        ("served", &r.served),
        ("committed", &r.committed),
        ("rejected", &r.rejected),
        ("failed_dead", &r.failed_dead),
        ("uncertain", &r.uncertain),
        ("failovers", &r.failovers),
        ("restarts", &r.restarts),
        ("standby_resyncs", &r.standby_resyncs),
        ("rejoins", &r.rejoins),
        ("fenced_events", &r.fenced_events),
        ("reconciles", &r.reconciles),
        ("discarded_stale_lines", &r.discarded_stale_lines),
        ("committed_lost", &r.committed_lost),
        ("divergent_commits", &r.divergent_commits),
        ("mean_failover_ms", &Fixed(r.mean_failover_ms, 3)),
        ("max_failover_ms", &Fixed(r.max_failover_ms, 3)),
        ("retransmits", &r.retransmits),
        ("journal_bytes", &r.journal_bytes),
        ("served_alpha", &r.served_counters.0),
        ("served_beta", &r.served_counters.1),
        ("state_version", &r.state_version),
        ("replay_consistent", &r.replay_consistent),
        ("escalated", &r.escalated),
        ("one_primary_per_epoch", &r.one_primary_per_epoch),
    ])
}

impl E9Result {
    /// Renders the `BENCH_e9.json` artifact. Deterministic in the seeds.
    pub fn to_json(&self) -> String {
        let campaigns: Vec<String> = self
            .campaigns
            .iter()
            .map(|c| {
                campaign_row(
                    c.seed,
                    &[
                        ("no_replica", &json_run(&c.no_replica)),
                        ("async_ship", &json_run(&c.async_ship)),
                        ("ack_ship", &json_run(&c.ack_ship)),
                    ],
                )
            })
            .collect();
        document(&[
            ("experiment", &Str("e9")),
            ("seed", &self.seeds.first().copied().unwrap_or(0)),
            ("seeds", &array(&self.seeds)),
            ("calls", &self.calls),
            ("period_ms", &self.period_ms),
            ("supervise_every", &SUPERVISE_EVERY),
            ("ack_zero_lost", &self.ack_zero_lost),
            ("ack_zero_divergence", &self.ack_zero_divergence),
            ("async_loss_observed", &self.async_loss_observed),
            ("replays_consistent", &self.replays_consistent),
            ("one_primary_per_epoch", &self.one_primary_per_epoch),
            ("campaigns", &rows(&campaigns)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_windowed_shipping_never_loses_a_committed_update() {
        let r = run(&[1, 3, 7], 400, 20);
        let failovers: u64 = r.campaigns.iter().map(|c| c.ack_ship.failovers).sum();
        assert!(failovers > 0, "campaigns promoted no standby");
        assert!(r.ack_zero_lost, "ack-windowed lost committed updates");
        assert!(
            r.ack_zero_divergence,
            "ack-windowed committed trace diverged"
        );
        assert!(r.replays_consistent);
        assert!(
            r.one_primary_per_epoch,
            "two primaries promoted under one epoch"
        );
        for c in &r.campaigns {
            assert!(!c.ack_ship.escalated);
            assert_eq!(c.ack_ship.committed_lost, 0, "seed {}", c.seed);
            assert_eq!(c.ack_ship.divergent_commits, 0, "seed {}", c.seed);
        }
    }

    #[test]
    fn async_shipping_loses_committed_updates_under_partition() {
        let r = run(&[1, 3, 7], 400, 20);
        assert!(
            r.async_loss_observed,
            "no campaign made async shipping lose a committed update"
        );
        let lost: u64 = r
            .campaigns
            .iter()
            .map(|c| c.async_ship.committed_lost)
            .sum();
        let divergent: u64 = r
            .campaigns
            .iter()
            .map(|c| c.async_ship.divergent_commits)
            .sum();
        assert!(lost > 0);
        assert!(
            divergent > 0,
            "lost commits must show up as trace divergence"
        );
    }

    #[test]
    fn healed_stale_primaries_are_fenced_and_reconciled() {
        let r = run(&[1, 3, 7], 400, 20);
        let fenced: u64 = r.campaigns.iter().map(|c| c.async_ship.fenced_events).sum();
        let reconciles: u64 = r.campaigns.iter().map(|c| c.async_ship.reconciles).sum();
        let discarded: u64 = r
            .campaigns
            .iter()
            .map(|c| c.async_ship.discarded_stale_lines)
            .sum();
        assert!(fenced > 0, "no stale primary was ever fenced");
        assert!(reconciles > 0);
        assert!(discarded > 0, "reconciliation discarded no stale writes");
    }

    #[test]
    fn no_replica_crashes_lose_the_whole_committed_history() {
        let r = run(&[1, 3, 7], 400, 20);
        let restarts: u64 = r.campaigns.iter().map(|c| c.no_replica.restarts).sum();
        assert!(restarts > 0, "no campaign crashed the no-replica node");
        let lost: u64 = r
            .campaigns
            .iter()
            .map(|c| c.no_replica.committed_lost)
            .sum();
        assert!(lost > 0);
        for c in &r.campaigns {
            if c.no_replica.restarts > 0 {
                assert!(
                    c.no_replica.committed_lost >= c.async_ship.committed_lost,
                    "seed {}: a replica should never lose more than none",
                    c.seed
                );
            }
        }
    }

    #[test]
    fn failover_takes_detection_plus_promotion_time() {
        let r = run_variant(2024, 400, 20, Variant::AckWindowed);
        assert!(r.failovers > 0);
        assert!(r.mean_failover_ms >= RESTART_PENALTY_US as f64 / 1000.0);
        assert!(r.max_failover_ms >= r.mean_failover_ms);
        // CP behaviour: partitions show up as refused calls, not losses.
        assert!(r.rejected > 0, "partitions never cost any availability");
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let a = run(&[7], 200, 20);
        let b = run(&[7], 200, 20);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let j = run(&[3], 120, 20).to_json();
        assert!(j.contains("\"experiment\": \"e9\""));
        for key in [
            "\"ack_zero_lost\"",
            "\"ack_zero_divergence\"",
            "\"async_loss_observed\"",
            "\"campaigns\"",
            "\"committed_lost\"",
            "\"divergent_commits\"",
            "\"fenced_events\"",
            "\"mean_failover_ms\"",
            "\"one_primary_per_epoch\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
