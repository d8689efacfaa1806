//! E7 — crash-consistent models@runtime: journal + checkpoint recovery
//! under a supervised middleware-crash campaign.
//!
//! E6 faults the *resources* under the Broker; E7 faults the **middleware
//! itself**. A seeded crash campaign ([`mddsm_sim::fault::random_crash_campaign`])
//! kills and wedges the broker component while it serves a steady call
//! stream whose routing depends on its runtime model (a `tier` variable
//! that alternates between two services through guarded actions). A
//! [`Supervisor`] watches heartbeats, detects each death, and restarts the
//! broker. Three variants over the **same** campaign and call stream:
//!
//! * **baseline** — no crashes: the reference command trace;
//! * **supervised** — crashes, recovery from the write-ahead journal
//!   ([`GenericBroker::recover`]): snapshot + LSN-checked replay +
//!   OCL-lite invariants. The post-recovery command trace must be
//!   **byte-identical** to the baseline's;
//! * **naive** — crashes, restart from a *fresh* model (no journal): the
//!   runtime state is lost, routing resets, and the trace diverges — the
//!   negative control showing the journal is doing real work.
//!
//! Recovery time (RTO) is virtual and fully deterministic: detection
//! delay (fault instant → next supervisor tick) plus a fixed restart
//! penalty plus a per-replayed-entry cost. A fixed seed therefore
//! reproduces `BENCH_e7.json` byte-for-byte.

use crate::artifacts::{document, row, Fixed, Str};
use crate::common::{deliver, hub, mean_max_ms, recovery_penalty_us};
use mddsm_broker::{
    BrokerModelBuilder, GenericBroker, RestartPolicy, Supervisor, SupervisorDecision,
};
use mddsm_meta::Model;
use mddsm_sim::fault::{random_crash_campaign, CrashCampaignConfig, FaultDriver};
use mddsm_sim::resource::args;
use mddsm_sim::SimDuration;

pub use crate::common::{REPLAY_COST_PER_ENTRY_US, RESTART_PENALTY_US};

/// Journal snapshot cadence (entries between snapshots).
pub const SNAPSHOT_EVERY: u64 = 32;

/// Invariants every recovery must re-establish on the recovered model.
pub const INVARIANTS: &[&str] = &[
    "self.tier = null or self.tier = \"alpha\" or self.tier = \"beta\"",
    "self.served_alpha = null or self.served_alpha >= 0",
    "self.served_beta = null or self.served_beta >= 0",
];

/// The E7 broker model: routing alternates between `sim.alpha` and
/// `sim.beta` through a `tier` state variable flipped by state effects —
/// so the command trace depends on the runtime model, which is exactly
/// what a crash destroys and the journal must restore. Deliberately no
/// breakers or timeouts: routing must depend only on journaled state, not
/// on the (restart-shifted) clock.
pub fn e7_broker_model() -> Model {
    BrokerModelBuilder::new("e7")
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
        .build()
}

/// How a variant handles middleware faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// No faults injected.
    NoFaults,
    /// Crash campaign + journal recovery under the supervisor.
    Supervised,
    /// Crash campaign + fresh-model restarts (journal ignored).
    Naive,
}

/// Metrics of one variant run.
#[derive(Debug, Clone, PartialEq)]
pub struct E7Run {
    /// Calls issued.
    pub calls: u64,
    /// Calls that completed successfully.
    pub succeeded: u64,
    /// Middleware crashes injected.
    pub crashes: u64,
    /// Middleware stalls injected.
    pub stalls: u64,
    /// Supervisor restarts performed.
    pub restarts: u64,
    /// Whether the supervisor gave up (restart intensity exceeded).
    pub escalated: bool,
    /// State ops replayed across all recoveries.
    pub replayed_ops: u64,
    /// Command records replayed across all recoveries.
    pub replayed_commands: u64,
    /// Mean recovery time (virtual ms): detection + restart + replay.
    pub mean_rto_ms: f64,
    /// Worst single recovery (virtual ms).
    pub max_rto_ms: f64,
    /// Journal size at the end of the run (bytes; 0 when unjournaled).
    pub journal_bytes: u64,
    /// The hub's command trace — the ground truth the variants are
    /// compared on, byte for byte.
    pub trace: Vec<String>,
    /// Final `served_alpha` / `served_beta` counters.
    pub served: (i64, i64),
    /// Final state-model version (journal LSN head).
    pub state_version: u64,
}

/// Runs one variant over the campaign generated by `seed`.
pub fn run_variant(seed: u64, calls: u64, period_ms: u64, variant: Variant) -> E7Run {
    let model = e7_broker_model();
    let mut broker = GenericBroker::from_model(&model, hub(seed)).expect("E7 model valid");
    if variant == Variant::Supervised {
        broker.enable_journal(SNAPSHOT_EVERY);
    }
    let mut supervisor = Supervisor::new(
        &["broker"],
        RestartPolicy {
            max_restarts: 10,
            window: SimDuration::from_millis(1_000),
            stall_after: SimDuration::from_millis(2 * period_ms),
        },
    );
    let mut driver = (variant != Variant::NoFaults).then(|| {
        let cfg = CrashCampaignConfig {
            components: vec!["broker".into()],
            horizon: SimDuration::from_millis(calls * period_ms),
            mean_uptime: SimDuration::from_millis(900),
            stall_chance: 0.3,
        };
        let plan = random_crash_campaign("e7", seed, &cfg);
        FaultDriver::from_model(&plan).expect("campaign conforms")
    });

    let mut succeeded = 0u64;
    let mut crashes = 0u64;
    let mut stalls = 0u64;
    let mut restarts = 0u64;
    let mut escalated = false;
    let mut replayed_ops = 0u64;
    let mut replayed_commands = 0u64;
    let mut rtos_us: Vec<u64> = Vec::new();
    // Virtual instant the currently-unrecovered fault fired, if any.
    let mut fault_at: Option<u64> = None;

    for i in 0..calls {
        let t = broker.now();
        if let Some(driver) = driver.as_mut() {
            // Deliver due fault events at their exact instants, so the
            // fault time (start of the RTO window) is known precisely.
            while let Some(te) = driver.next_at() {
                if te > t {
                    break;
                }
                for action in driver.advance_to(te, broker.hub_mut(), None) {
                    deliver(&mut supervisor, &action);
                }
                if fault_at.is_none()
                    && (supervisor.state().int("crashed_broker") == Some(1)
                        || supervisor.state().int("wedged_broker") == Some(1))
                {
                    fault_at = Some(te.as_micros());
                }
            }
        }
        supervisor.heartbeat("broker", t);
        let decision = supervisor
            .tick(t)
            .expect("liveness symptoms evaluate")
            .into_iter()
            .next();
        match decision {
            None => {}
            Some(SupervisorDecision::Escalate { .. }) => {
                escalated = true;
                break;
            }
            // E7 designates no standby and arms no monitors, so the
            // supervisor can never decide to fail over or quarantine
            // (E9's and E10's territory respectively).
            Some(SupervisorDecision::Failover { .. }) => {
                unreachable!("no standby designated in E7")
            }
            Some(SupervisorDecision::Quarantine { .. }) => {
                unreachable!("no monitors armed in E7")
            }
            Some(SupervisorDecision::RepairJournal { .. }) => {
                unreachable!("no journal damage reported in E7")
            }
            Some(SupervisorDecision::RollbackUpgrade { .. }) => {
                unreachable!("no live upgrade in flight in E7")
            }
            Some(SupervisorDecision::Restart { reason, .. }) => {
                restarts += 1;
                if reason == "crashed" {
                    crashes += 1;
                } else {
                    stalls += 1;
                }
                let dead = broker;
                let penalty_us;
                match variant {
                    Variant::Supervised => {
                        let bytes = dead.journal_bytes().expect("journaling on").to_vec();
                        let hub = dead.into_hub();
                        let (mut recovered, report) =
                            GenericBroker::recover(&model, hub, &bytes, INVARIANTS)
                                .expect("journal recovery succeeds");
                        recovered.set_snapshot_every(SNAPSHOT_EVERY);
                        replayed_ops += report.ops_replayed;
                        replayed_commands += report.commands_replayed;
                        penalty_us = recovery_penalty_us(&report);
                        recovered.advance_clock(SimDuration::from_micros(penalty_us));
                        broker = recovered;
                    }
                    _ => {
                        // Naive: the hub (the outside world) survives, the
                        // runtime model does not. Clock continuity is kept
                        // (a real restart does not rewind wall time).
                        let hub = dead.into_hub();
                        let mut fresh =
                            GenericBroker::from_model(&model, hub).expect("E7 model valid");
                        penalty_us = RESTART_PENALTY_US;
                        fresh.advance_clock(SimDuration::from_micros(t.as_micros() + penalty_us));
                        broker = fresh;
                    }
                }
                let detect_us = t.as_micros() - fault_at.take().unwrap_or(t.as_micros());
                rtos_us.push(detect_us + penalty_us);
            }
        }

        let n = i.to_string();
        let r = broker
            .call("op", &args(&[("n", &n)]))
            .expect("handler accepts op");
        if r.outcome.is_ok() {
            succeeded += 1;
        }
        broker.advance_clock(SimDuration::from_millis(period_ms));
    }

    let (mean_rto_ms, max_rto_ms) = mean_max_ms(&rtos_us);
    E7Run {
        calls,
        succeeded,
        crashes,
        stalls,
        restarts,
        escalated,
        replayed_ops,
        replayed_commands,
        mean_rto_ms,
        max_rto_ms,
        journal_bytes: broker.journal_bytes().map_or(0, |b| b.len() as u64),
        trace: broker.hub().command_trace(),
        served: (
            broker.state().int("served_alpha").unwrap_or(0),
            broker.state().int("served_beta").unwrap_or(0),
        ),
        state_version: broker.state().version(),
    }
}

/// The full experiment: all three variants over the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct E7Result {
    /// Campaign seed.
    pub seed: u64,
    /// Calls per variant.
    pub calls: u64,
    /// Virtual milliseconds between calls.
    pub period_ms: u64,
    /// No faults — the reference trace.
    pub baseline: E7Run,
    /// Crashes + journal recovery.
    pub supervised: E7Run,
    /// Crashes + fresh-model restarts.
    pub naive: E7Run,
    /// Whether the supervised trace is byte-identical to the baseline's.
    pub supervised_trace_identical: bool,
    /// Whether the naive trace matched (expected `false` whenever a crash
    /// landed after routing state diverged from its initial value).
    pub naive_trace_identical: bool,
}

/// Runs E7.
pub fn run(seed: u64, calls: u64, period_ms: u64) -> E7Result {
    let baseline = run_variant(seed, calls, period_ms, Variant::NoFaults);
    let supervised = run_variant(seed, calls, period_ms, Variant::Supervised);
    let naive = run_variant(seed, calls, period_ms, Variant::Naive);
    let supervised_trace_identical = supervised.trace == baseline.trace;
    let naive_trace_identical = naive.trace == baseline.trace;
    E7Result {
        seed,
        calls,
        period_ms,
        baseline,
        supervised,
        naive,
        supervised_trace_identical,
        naive_trace_identical,
    }
}

fn json_run(r: &E7Run) -> String {
    row(&[
        ("calls", &r.calls),
        ("succeeded", &r.succeeded),
        ("crashes", &r.crashes),
        ("stalls", &r.stalls),
        ("restarts", &r.restarts),
        ("escalated", &r.escalated),
        ("replayed_ops", &r.replayed_ops),
        ("replayed_commands", &r.replayed_commands),
        ("mean_rto_ms", &Fixed(r.mean_rto_ms, 3)),
        ("max_rto_ms", &Fixed(r.max_rto_ms, 3)),
        ("journal_bytes", &r.journal_bytes),
        ("served_alpha", &r.served.0),
        ("served_beta", &r.served.1),
        ("state_version", &r.state_version),
    ])
}

impl E7Result {
    /// Renders the `BENCH_e7.json` artifact. Deterministic in the seed.
    pub fn to_json(&self) -> String {
        document(&[
            ("experiment", &Str("e7")),
            ("seed", &self.seed),
            ("calls", &self.calls),
            ("period_ms", &self.period_ms),
            (
                "supervised_trace_identical",
                &self.supervised_trace_identical,
            ),
            ("naive_trace_identical", &self.naive_trace_identical),
            ("baseline", &json_run(&self.baseline)),
            ("supervised", &json_run(&self.supervised)),
            ("naive", &json_run(&self.naive)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_kills_the_middleware_and_the_supervisor_recovers_every_crash() {
        let r = run_variant(2024, 300, 20, Variant::Supervised);
        assert_eq!(r.calls, 300);
        assert_eq!(r.succeeded, 300, "every call must be served");
        assert!(r.crashes + r.stalls > 0, "campaign produced no faults");
        assert_eq!(r.restarts, r.crashes + r.stalls);
        assert!(!r.escalated);
        assert!(r.replayed_ops > 0, "recovery replayed nothing");
        assert!(r.mean_rto_ms > 0.0);
        assert!(r.journal_bytes > 0);
    }

    #[test]
    fn recovered_traces_are_byte_identical_to_the_uncrashed_run() {
        let r = run(2024, 300, 20);
        assert!(r.supervised.restarts > 0, "no crash ever happened");
        assert_eq!(r.supervised.trace, r.baseline.trace);
        assert!(r.supervised_trace_identical);
        // The recovered runtime model ends at the exact same place too.
        assert_eq!(r.supervised.served, r.baseline.served);
        assert_eq!(r.supervised.state_version, r.baseline.state_version);
    }

    #[test]
    fn naive_restarts_lose_runtime_state_and_diverge() {
        let r = run(2024, 300, 20);
        assert!(r.naive.restarts > 0);
        assert!(
            !r.naive_trace_identical,
            "fresh-model restart should reset routing and diverge"
        );
        assert_ne!(r.naive.trace, r.baseline.trace);
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let a = run(7, 200, 20);
        let b = run(7, 200, 20);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        // A different seed yields a different campaign (the recovered trace
        // stays equal to the baseline either way — that is E7's point — so
        // the seed shows up in the crash/RTO statistics, not the trace).
        let c = run(8, 200, 20);
        assert_ne!(
            (
                a.supervised.crashes,
                a.supervised.stalls,
                a.supervised.max_rto_ms
            ),
            (
                c.supervised.crashes,
                c.supervised.stalls,
                c.supervised.max_rto_ms
            ),
        );
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let j = run(3, 80, 20).to_json();
        assert!(j.contains("\"experiment\": \"e7\""));
        for key in [
            "\"supervised_trace_identical\"",
            "\"baseline\"",
            "\"supervised\"",
            "\"naive\"",
            "\"mean_rto_ms\"",
            "\"replayed_ops\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
