//! E10 — online runtime verification: in-stream journal monitors vs an
//! unverified broker under a seeded invariant-violating-mutation
//! campaign.
//!
//! E7–E9 protect the runtime model against crashes and partitions; E10
//! protects it against *wrong writes* — a buggy change plan, a corrupted
//! mutation, an operator fat-finger — that leave the middleware running
//! but semantically divergent. The broker model declares OCL-lite
//! invariants and temporal properties ([`MONITORS`]); the engine compiles
//! them into incremental monitors evaluated in-stream as journal records
//! are applied. A seeded corruption campaign
//! ([`mddsm_sim::fault::random_corruption_campaign`]) injects
//! invariant-violating writes into the runtime model while a steady call
//! stream runs. Three configurations over the same campaign:
//!
//! * **unmonitored** — violations land silently; every later command
//!   executes against the divergent model (counted by an offline oracle
//!   that re-evaluates the invariants before each call);
//! * **monitored** — the primary's compiled monitors trip on the
//!   violating write itself, latch, and refuse every subsequent command
//!   ([`BrokerError::MonitorTripped`]) until the [`Supervisor`] turns the
//!   trip symptom into a [`SupervisorDecision::Quarantine`] and the
//!   broker rolls back to the newest verified snapshot;
//! * **replicated** — additionally the journal is shipped to a
//!   [`Standby`] whose armed observer detects the same violations from
//!   the record stream alone, without touching its byte-identical mirror.
//!
//! Expected on every seed: the monitored configurations catch **100%**
//! of injected violations, **zero** commands execute against a violated
//! model, the standby's verdicts match the primary's, and the surviving
//! journals replay byte-identically. The unmonitored broker measurably
//! executes divergent commands. The artifact holds only seeded numbers:
//! the monitors' hot-path cost is perfbench's traced
//! `broker.monitor.ns_per_call`.
//!
//! [`BrokerError::MonitorTripped`]: mddsm_broker::BrokerError::MonitorTripped
//! [`Supervisor`]: mddsm_broker::Supervisor

use crate::artifacts::{array, campaign_row, document, row, rows, Str};
use crate::common::{campaign_supervisor, hub, replay_consistent, ship};
use mddsm_broker::monitor::MonitorSet;
use mddsm_broker::{BrokerError, BrokerModelBuilder, GenericBroker, Standby, SupervisorDecision};
use mddsm_meta::Model;
use mddsm_sim::fault::{
    random_corruption_campaign, CorruptionCampaignConfig, FaultAction, FaultDriver,
};
use mddsm_sim::resource::args;
use mddsm_sim::SimDuration;

/// Journal snapshot cadence (entries between snapshots) — also the
/// rollback granularity after a quarantine.
pub const SNAPSHOT_EVERY: u64 = 32;
/// Calls between supervisor monitoring cycles; a tripped monitor refuses
/// calls for up to this long before the quarantine repair lands.
pub const SUPERVISE_EVERY: u64 = 5;

/// The monitored properties the E10 broker model declares. Null-guarded
/// so a fresh model (no `opens`, no `tier`) is vacuously healthy.
pub const MONITORS: &[(&str, &str)] = &[
    ("nonNegOpens", "always self.opens = null or self.opens >= 0"),
    (
        "tierDomain",
        "always self.tier = null or self.tier = \"alpha\" or self.tier = \"beta\"",
    ),
];

/// The same properties as plain OCL-lite invariants — the offline oracle
/// that decides, independently of the in-stream monitors, whether a
/// command executed against a violated model.
pub const INVARIANTS: &[&str] = &[
    "self.opens = null or self.opens >= 0",
    "self.tier = null or self.tier = \"alpha\" or self.tier = \"beta\"",
];

/// The invariant-violating mutations the campaign draws from; each one
/// violates exactly one of [`MONITORS`].
pub const CORRUPTIONS: &[(&str, &str)] = &[("opens", "-7"), ("opens", "-1"), ("tier", "gamma")];

/// The E10 broker model: the E9 tier flip-flop (routing depends on the
/// runtime model, so a corrupted model visibly changes behaviour), with
/// the [`MONITORS`] declared when `monitored`.
pub fn e10_broker_model(monitored: bool) -> Model {
    let mut b = BrokerModelBuilder::new("e10")
        .call_handler("h", "op")
        .policy("tierAlpha", "self.tier = null or self.tier = \"alpha\"")
        .action(
            "h",
            "serveAlpha",
            "sim.alpha",
            "serve",
            &["n=$n"],
            Some("tierAlpha"),
            &["tier=beta", "opens=+1"],
        )
        .action(
            "h",
            "serveBeta",
            "sim.beta",
            "serve",
            &["n=$n"],
            None,
            &["tier=alpha", "opens=+1"],
        );
    if monitored {
        for (name, property) in MONITORS {
            b = b.monitor(name, property);
        }
    }
    b.build()
}

/// How a configuration verifies (or does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// No monitors anywhere; corruption lands silently.
    Unmonitored,
    /// Compiled monitors on the primary, quarantine + rollback repair.
    Monitored,
    /// Monitored primary plus a standby observing the shipped journal.
    Replicated,
}

/// Metrics of one configuration under one campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct E10Run {
    /// Calls issued.
    pub calls: u64,
    /// Calls that executed successfully.
    pub served: u64,
    /// Invariant-violating mutations injected.
    pub injected: u64,
    /// Violations the primary's monitors caught on the violating write.
    pub caught: u64,
    /// Injections that landed while a latch was already holding the
    /// broker fail-stopped (covered, but not a fresh trip).
    pub masked: u64,
    /// Injections the armed monitors failed to catch (must be zero).
    pub missed: u64,
    /// Calls refused by the tripped-latch gate before the repair landed.
    pub refused_latched: u64,
    /// Quarantine decisions the supervisor derived from trip symptoms.
    pub quarantines: u64,
    /// Rollbacks to a verified snapshot performed as repair.
    pub rollbacks: u64,
    /// Commands that executed while the model violated an invariant
    /// (offline oracle; the monitored configurations must show zero).
    pub divergent_commands: u64,
    /// Violations the standby's observer detected from the shipped
    /// journal (replicated configuration only).
    pub standby_trips: u64,
    /// Final journal size (bytes).
    pub journal_bytes: u64,
    /// Final state-model version (journal LSN head).
    pub state_version: u64,
    /// Whether an independent replay of the journal agrees with the live
    /// runtime model.
    pub replay_consistent: bool,
}

/// Runs one configuration over the campaign generated by `seed`.
pub fn run_variant(seed: u64, calls: u64, period_ms: u64, variant: Variant) -> E10Run {
    let has_monitors = variant != Variant::Unmonitored;
    let model = e10_broker_model(has_monitors);
    let mut broker = GenericBroker::from_model(&model, hub(seed)).expect("E10 model valid");
    broker.enable_journal(SNAPSHOT_EVERY);

    // The offline oracle: plain invariants, re-evaluated from scratch
    // before every command — slow, but independent of the monitors under
    // test.
    let oracle = MonitorSet::from_invariants(INVARIANTS).expect("oracle invariants parse");

    let horizon = SimDuration::from_millis(calls * period_ms);
    let mut supervisor = campaign_supervisor(&["a"], horizon);
    let mut standby: Option<Standby> = None;
    let mut shipped = 0usize;
    if variant == Variant::Replicated {
        let mut sb = Standby::new("b");
        sb.arm_monitors(MonitorSet::compile(MONITORS).expect("monitors compile"));
        standby = Some(sb);
    }

    let campaign = random_corruption_campaign(
        "e10",
        seed,
        &CorruptionCampaignConfig {
            component: "a".into(),
            corruptions: CORRUPTIONS
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            horizon,
            mean_uptime: SimDuration::from_millis(600),
        },
    );
    let mut driver = FaultDriver::from_model(&campaign).expect("campaign conforms");

    let period = SimDuration::from_millis(period_ms);
    let mut run = E10Run {
        calls,
        ..E10Run::default()
    };

    for i in 0..calls {
        let t = broker.now();

        // Deliver due corruption events straight into the runtime model;
        // the monitors (when armed) see each write in-stream.
        for action in driver.advance_to(t, broker.hub_mut(), None) {
            let FaultAction::CorruptState { key, value, .. } = action else {
                continue;
            };
            run.injected += 1;
            let was_latched = broker.monitor_latched();
            let trips = broker.corrupt_state(&key, &value);
            if !trips.is_empty() {
                run.caught += 1;
                for trip in &trips {
                    supervisor.note_monitor_trip("a", &trip.monitor);
                }
            } else if has_monitors {
                if was_latched {
                    run.masked += 1;
                } else {
                    run.missed += 1;
                }
            }
        }

        // The violating write (and its latch) reaches the wire before the
        // control plane reacts — the standby must detect it from the
        // record stream alone.
        ship(&broker, standby.as_mut(), &mut shipped);

        supervisor.heartbeat("a", t);
        if i % SUPERVISE_EVERY == 0 {
            for d in supervisor.tick(t).expect("symptoms evaluate") {
                if let SupervisorDecision::Quarantine { .. } = d {
                    run.quarantines += 1;
                    broker
                        .rollback_to_snapshot()
                        .expect("a verified snapshot exists");
                    run.rollbacks += 1;
                    // Ship the rolled-back snapshot, then resume the
                    // observer: its next verdicts start from the repaired
                    // state, like the primary's.
                    ship(&broker, standby.as_mut(), &mut shipped);
                    if let Some(sb) = standby.as_mut() {
                        run.standby_trips += sb.monitor_trips().len() as u64;
                        sb.clear_monitor_trips();
                    }
                }
            }
        }

        let violated_before = oracle.check_full(broker.state()).is_err();
        let n = i.to_string();
        match broker.call("op", &args(&[("n", &n)])) {
            Ok(r) => {
                if r.outcome.is_ok() {
                    run.served += 1;
                }
                if violated_before {
                    run.divergent_commands += 1;
                }
            }
            Err(BrokerError::MonitorTripped { .. }) => run.refused_latched += 1,
            Err(e) => panic!("unexpected refusal: {e}"),
        }
        broker.advance_clock(period);
        ship(&broker, standby.as_mut(), &mut shipped);
    }

    run.standby_trips += standby
        .as_ref()
        .map_or(0, |s| s.monitor_trips().len() as u64);
    run.journal_bytes = broker.journal_bytes().map_or(0, |b| b.len() as u64);
    run.state_version = broker.state().version();
    run.replay_consistent = replay_consistent(&broker);
    run
}

/// All three configurations over one campaign seed.
#[derive(Debug, Clone, PartialEq)]
pub struct E10Campaign {
    /// Campaign seed.
    pub seed: u64,
    /// No monitors anywhere.
    pub unmonitored: E10Run,
    /// Monitored primary.
    pub monitored: E10Run,
    /// Monitored primary plus standby observer.
    pub replicated: E10Run,
}

/// Runs the three configurations over the campaign generated by `seed`.
pub fn run_campaign(seed: u64, calls: u64, period_ms: u64) -> E10Campaign {
    E10Campaign {
        seed,
        unmonitored: run_variant(seed, calls, period_ms, Variant::Unmonitored),
        monitored: run_variant(seed, calls, period_ms, Variant::Monitored),
        replicated: run_variant(seed, calls, period_ms, Variant::Replicated),
    }
}

/// The full experiment: three configurations across several seeded
/// campaigns, with the claims checked across all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct E10Result {
    /// Campaign seeds, in run order.
    pub seeds: Vec<u64>,
    /// Calls per configuration per campaign.
    pub calls: u64,
    /// Virtual milliseconds between calls.
    pub period_ms: u64,
    /// Per-seed results.
    pub campaigns: Vec<E10Campaign>,
    /// The unmonitored broker executed commands against a violated model
    /// on some seed (the hazard the monitors remove).
    pub unmonitored_divergence_observed: bool,
    /// Armed monitors caught every injection on every seed (no misses;
    /// latch-masked injections are covered by the fail-stop).
    pub monitors_caught_all: bool,
    /// Zero commands executed against a violated model in the monitored
    /// configurations, on every seed.
    pub zero_divergence_monitored: bool,
    /// The standby observer's verdicts matched the primary's on every
    /// seed (every fresh trip seen on the wire too).
    pub standby_caught_all: bool,
    /// Every journal replays to the live runtime model, in every
    /// configuration, on every seed.
    pub replays_consistent: bool,
}

/// Runs E10 across `seeds`. Deterministic in the seeds.
pub fn run(seeds: &[u64], calls: u64, period_ms: u64) -> E10Result {
    let campaigns: Vec<E10Campaign> = seeds
        .iter()
        .map(|&s| run_campaign(s, calls, period_ms))
        .collect();
    let unmonitored_divergence_observed = campaigns
        .iter()
        .any(|c| c.unmonitored.divergent_commands > 0);
    let monitors_caught_all = campaigns.iter().all(|c| {
        c.monitored.missed == 0
            && c.replicated.missed == 0
            && c.monitored.caught + c.monitored.masked == c.monitored.injected
    });
    let zero_divergence_monitored = campaigns
        .iter()
        .all(|c| c.monitored.divergent_commands == 0 && c.replicated.divergent_commands == 0);
    let standby_caught_all = campaigns
        .iter()
        .all(|c| c.replicated.standby_trips == c.replicated.caught);
    let replays_consistent = campaigns.iter().all(|c| {
        c.unmonitored.replay_consistent
            && c.monitored.replay_consistent
            && c.replicated.replay_consistent
    });
    E10Result {
        seeds: seeds.to_vec(),
        calls,
        period_ms,
        campaigns,
        unmonitored_divergence_observed,
        monitors_caught_all,
        zero_divergence_monitored,
        standby_caught_all,
        replays_consistent,
    }
}

fn json_run(r: &E10Run) -> String {
    row(&[
        ("calls", &r.calls),
        ("served", &r.served),
        ("injected", &r.injected),
        ("caught", &r.caught),
        ("masked", &r.masked),
        ("missed", &r.missed),
        ("refused_latched", &r.refused_latched),
        ("quarantines", &r.quarantines),
        ("rollbacks", &r.rollbacks),
        ("divergent_commands", &r.divergent_commands),
        ("standby_trips", &r.standby_trips),
        ("journal_bytes", &r.journal_bytes),
        ("state_version", &r.state_version),
        ("replay_consistent", &r.replay_consistent),
    ])
}

impl E10Result {
    /// Renders the `BENCH_e10.json` artifact. Deterministic in the seeds.
    pub fn to_json(&self) -> String {
        let campaigns: Vec<String> = self
            .campaigns
            .iter()
            .map(|c| {
                campaign_row(
                    c.seed,
                    &[
                        ("unmonitored", &json_run(&c.unmonitored)),
                        ("monitored", &json_run(&c.monitored)),
                        ("replicated", &json_run(&c.replicated)),
                    ],
                )
            })
            .collect();
        document(&[
            ("experiment", &Str("e10")),
            ("seed", &self.seeds.first().copied().unwrap_or(0)),
            ("seeds", &array(&self.seeds)),
            ("calls", &self.calls),
            ("period_ms", &self.period_ms),
            ("supervise_every", &SUPERVISE_EVERY),
            (
                "unmonitored_divergence_observed",
                &self.unmonitored_divergence_observed,
            ),
            ("monitors_caught_all", &self.monitors_caught_all),
            ("zero_divergence_monitored", &self.zero_divergence_monitored),
            ("standby_caught_all", &self.standby_caught_all),
            ("replays_consistent", &self.replays_consistent),
            ("campaigns", &rows(&campaigns)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitors_catch_every_injection_before_any_divergent_command() {
        let r = run(&[1, 3, 7], 400, 20);
        for c in &r.campaigns {
            assert!(
                c.monitored.injected > 0,
                "seed {}: campaign was empty",
                c.seed
            );
            assert_eq!(c.monitored.missed, 0, "seed {}", c.seed);
            assert_eq!(c.monitored.divergent_commands, 0, "seed {}", c.seed);
            assert!(c.monitored.caught > 0, "seed {}", c.seed);
            assert!(
                c.monitored.quarantines > 0,
                "seed {}: no repair ran",
                c.seed
            );
            assert_eq!(c.monitored.rollbacks, c.monitored.quarantines);
        }
        assert!(r.monitors_caught_all);
        assert!(r.zero_divergence_monitored);
        assert!(r.replays_consistent);
    }

    #[test]
    fn standby_observer_matches_the_primary_verdicts() {
        let r = run(&[1, 3, 7], 400, 20);
        assert!(r.standby_caught_all);
        for c in &r.campaigns {
            assert_eq!(
                c.replicated.standby_trips, c.replicated.caught,
                "seed {}",
                c.seed
            );
            assert!(c.replicated.caught > 0, "seed {}", c.seed);
        }
    }

    #[test]
    fn unmonitored_broker_executes_divergent_commands() {
        let r = run(&[1, 3, 7], 400, 20);
        assert!(r.unmonitored_divergence_observed);
        let divergent: u64 = r
            .campaigns
            .iter()
            .map(|c| c.unmonitored.divergent_commands)
            .sum();
        assert!(divergent > 0);
        // Everything is caught or silently hazardous — never "missed",
        // because nothing is armed.
        for c in &r.campaigns {
            assert_eq!(c.unmonitored.caught, 0);
            assert_eq!(c.unmonitored.refused_latched, 0);
        }
    }

    #[test]
    fn latched_broker_refuses_calls_until_the_quarantine_repair() {
        let r = run_variant(7, 400, 20, Variant::Monitored);
        assert!(r.refused_latched > 0, "no fail-stop window observed");
        assert!(r.served > r.refused_latched, "service never resumed");
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
        assert!(j.contains("\"experiment\": \"e10\""));
        for key in [
            "\"monitors_caught_all\"",
            "\"zero_divergence_monitored\"",
            "\"standby_caught_all\"",
            "\"unmonitored_divergence_observed\"",
            "\"replays_consistent\"",
            "\"campaigns\"",
            "\"divergent_commands\"",
            "\"standby_trips\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
