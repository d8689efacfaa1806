//! E6 — fault recovery under model-driven fault campaigns.
//!
//! The paper's evaluation (§VII) measures the middleware under nominal and
//! adaptation scenarios; E6 extends it with a *chaos* scenario: a seeded,
//! model-defined fault campaign ([`mddsm_sim::fault`]) crashes and degrades
//! the primary service while a broker serves a steady stream of calls. Two
//! broker models are compared over the **same** campaign:
//!
//! * **baseline** — the plain Fig. 6 model: every call goes to the primary
//!   and each one issued during an outage burns the full resource timeout;
//! * **resilient** — the same model with the resilience extension: a
//!   retry-with-backoff + per-attempt timeout budget, a circuit breaker
//!   (threshold 2, cooldown 400 ms), and a fallback action routed to a
//!   standby service.
//!
//! Everything runs in virtual time, so a fixed seed reproduces the exact
//! trace byte-for-byte — the integration suite relies on that.

use crate::artifacts::{document, row, Fixed, Str};
use mddsm_broker::{BrokerModelBuilder, GenericBroker, Resilience};
use mddsm_meta::Model;
use mddsm_sim::fault::{random_campaign, CampaignConfig, FaultDriver};
use mddsm_sim::resource::{Args, Outcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration};

/// Per-attempt timeout budget of the resilient model (ms).
pub const TIMEOUT_MS: u64 = 100;
/// Resource-level timeout: what a call into a crashed service costs (ms).
pub const RESOURCE_TIMEOUT_MS: u64 = 250;

fn hub(seed: u64) -> ResourceHub {
    let mut h = ResourceHub::new(seed);
    h.register(
        "sim.primary",
        LatencyModel::uniform_ms(2, 5),
        SimDuration::from_millis(RESOURCE_TIMEOUT_MS),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    h.register(
        "sim.backup",
        LatencyModel::fixed_ms(12),
        SimDuration::from_millis(RESOURCE_TIMEOUT_MS),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    h
}

/// The broker model under test; `resilient` toggles the extension.
pub fn e6_broker_model(resilient: bool) -> Model {
    let b = BrokerModelBuilder::lean("e6").call_handler("h", "op");
    if resilient {
        b.resilient_action(
            "h",
            "primary",
            "sim.primary",
            "serve",
            &[],
            None,
            &[],
            &Resilience::retries(1, 10)
                .with_breaker(2, 400)
                .with_timeout(TIMEOUT_MS)
                .with_fallback("backup"),
        )
        .action("h", "backup", "sim.backup", "serve", &[], None, &[])
        .build()
    } else {
        b.action("h", "primary", "sim.primary", "serve", &[], None, &[])
            .build()
    }
}

/// Metrics of one variant run over a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct E6Run {
    /// Calls issued.
    pub calls: u64,
    /// Calls that completed successfully (including via fallback).
    pub succeeded: u64,
    /// `succeeded / calls`.
    pub success_rate: f64,
    /// Distinct outages observed (failure followed by a later success).
    pub recoveries: u64,
    /// Mean virtual time from the first failed call of an outage to the
    /// next successful call (ms); 0 when no outage was observed.
    pub mean_recovery_ms: f64,
    /// Worst single recovery (ms).
    pub max_recovery_ms: f64,
    /// Mean virtual cost per call (ms).
    pub mean_call_ms: f64,
    /// One line per call: `<t_us> <action> <ok> <cost_us>`. Deterministic
    /// in the seed — the integration tests compare it byte-for-byte.
    pub trace: Vec<String>,
}

/// Runs one variant against the campaign generated by `seed`.
pub fn run_variant(seed: u64, calls: u64, period_ms: u64, resilient: bool) -> E6Run {
    // Denser than the campaign defaults so even short (CI-sized) runs see
    // several outages; mostly crashes, occasionally a degradation.
    let cfg = CampaignConfig {
        resources: vec!["sim.primary".into()],
        horizon: SimDuration::from_millis(calls * period_ms),
        mean_uptime: SimDuration::from_millis(700),
        mean_downtime: SimDuration::from_millis(450),
        degrade_chance: 0.15,
        ..CampaignConfig::default()
    };
    let plan = random_campaign("e6", seed, &cfg);
    let mut driver = FaultDriver::from_model(&plan).expect("campaign conforms");
    let mut broker =
        GenericBroker::from_model(&e6_broker_model(resilient), hub(seed)).expect("E6 model valid");

    let mut trace = Vec::with_capacity(calls as usize);
    let mut succeeded = 0u64;
    let mut total_cost_us = 0u64;
    let mut outage_start = None;
    let mut recoveries_us: Vec<u64> = Vec::new();
    for _ in 0..calls {
        driver.advance_to(broker.now(), broker.hub_mut(), None);
        let t = broker.now();
        let r = broker.call("op", &Args::new()).expect("handler accepts op");
        let ok = r.outcome.is_ok();
        trace.push(format!(
            "{} {} {} {}",
            t.as_micros(),
            r.action,
            ok,
            r.cost.as_micros()
        ));
        total_cost_us += r.cost.as_micros();
        if ok {
            succeeded += 1;
            if let Some(t0) = outage_start.take() {
                recoveries_us.push(t.as_micros() - t0);
            }
        } else if outage_start.is_none() {
            outage_start = Some(t.as_micros());
        }
        broker.advance_clock(SimDuration::from_millis(period_ms));
    }
    // An outage still open at the end of the horizon counts in full.
    if let Some(t0) = outage_start {
        recoveries_us.push(broker.now().as_micros() - t0);
    }

    let mean_recovery_ms = if recoveries_us.is_empty() {
        0.0
    } else {
        recoveries_us.iter().sum::<u64>() as f64 / recoveries_us.len() as f64 / 1000.0
    };
    E6Run {
        calls,
        succeeded,
        success_rate: succeeded as f64 / calls.max(1) as f64,
        recoveries: recoveries_us.len() as u64,
        mean_recovery_ms,
        max_recovery_ms: recoveries_us.iter().max().copied().unwrap_or(0) as f64 / 1000.0,
        mean_call_ms: total_cost_us as f64 / calls.max(1) as f64 / 1000.0,
        trace,
    }
}

/// The full experiment: both variants over the same campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct E6Result {
    /// Campaign seed.
    pub seed: u64,
    /// Calls per variant.
    pub calls: u64,
    /// Virtual milliseconds between calls.
    pub period_ms: u64,
    /// The plain broker model.
    pub baseline: E6Run,
    /// The model with the resilience extension.
    pub resilient: E6Run,
}

/// Runs E6.
pub fn run(seed: u64, calls: u64, period_ms: u64) -> E6Result {
    E6Result {
        seed,
        calls,
        period_ms,
        baseline: run_variant(seed, calls, period_ms, false),
        resilient: run_variant(seed, calls, period_ms, true),
    }
}

fn json_run(r: &E6Run) -> String {
    row(&[
        ("calls", &r.calls),
        ("succeeded", &r.succeeded),
        ("success_rate", &Fixed(r.success_rate, 4)),
        ("recoveries", &r.recoveries),
        ("mean_recovery_ms", &Fixed(r.mean_recovery_ms, 3)),
        ("max_recovery_ms", &Fixed(r.max_recovery_ms, 3)),
        ("mean_call_ms", &Fixed(r.mean_call_ms, 3)),
    ])
}

impl E6Result {
    /// Renders the `BENCH_e6.json` artifact.
    pub fn to_json(&self) -> String {
        document(&[
            ("experiment", &Str("e6")),
            ("seed", &self.seed),
            ("calls", &self.calls),
            ("period_ms", &self.period_ms),
            ("baseline", &json_run(&self.baseline)),
            ("resilient", &json_run(&self.resilient)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_actually_faults_the_baseline() {
        let r = run_variant(2024, 300, 20, false);
        assert_eq!(r.calls, 300);
        assert!(r.succeeded < r.calls, "campaign produced no failures");
        assert!(r.recoveries > 0);
    }

    #[test]
    fn resilience_improves_success_rate_and_recovery() {
        let r = run(2024, 300, 20);
        assert!(
            r.resilient.success_rate > r.baseline.success_rate,
            "resilient {:.3} vs baseline {:.3}",
            r.resilient.success_rate,
            r.baseline.success_rate
        );
        assert!(
            r.resilient.mean_recovery_ms <= r.baseline.mean_recovery_ms,
            "resilient {:.1} ms vs baseline {:.1} ms",
            r.resilient.mean_recovery_ms,
            r.baseline.mean_recovery_ms
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_traces_and_metrics() {
        let a = run(7, 200, 20);
        let b = run(7, 200, 20);
        assert_eq!(a, b);
        assert_eq!(a.baseline.trace, b.baseline.trace);
        assert_eq!(a.resilient.trace, b.resilient.trace);
        // A different seed yields a different campaign.
        let c = run(8, 200, 20);
        assert_ne!(a.baseline.trace, c.baseline.trace);
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let j = run(3, 50, 20).to_json();
        assert!(j.contains("\"experiment\": \"e6\""));
        assert!(j.contains("\"baseline\""));
        assert!(j.contains("\"resilient\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
