//! E8 — overload robustness: model-defined admission control,
//! backpressure, and brownout degradation under a seeded load spike.
//!
//! E6 faults the resources and E7 the middleware process; E8 faults the
//! **workload**: an open-loop arrival campaign
//! ([`mddsm_sim::ArrivalGenerator`]) multiplies the interactive arrival
//! rate well past the broker's service capacity for a window of virtual
//! time ([`FaultPlanBuilder::load_spike`](mddsm_sim::FaultPlanBuilder)).
//! Three middleware variants face the byte-identical arrival schedule:
//!
//! * **naive** — plain FIFO: every request is executed in arrival order,
//!   however stale. Under overload the queue (and therefore latency)
//!   grows without bound and almost nothing finishes by its deadline.
//! * **shed** — model-defined admission control
//!   ([`GenericBroker::call_admitted`]): per-class token buckets declared
//!   in the broker model defer (backpressure) or shed work the server
//!   cannot finish in time, so admitted requests stay fresh.
//! * **brownout** — admission plus the model's declared degraded mode:
//!   when queueing delay or shed rate crosses the model's thresholds the
//!   [`BrownoutController`](mddsm_broker::BrownoutController) flips the
//!   broker to a cheaper guarded action (`serveLite`), trading fidelity
//!   for capacity; hysteresis restores full service after the spike.
//!
//! The brownout variant also reruns with a **mid-overload crash**: the
//! broker process dies at the middle of the spike and is recovered from
//! its write-ahead journal. Because admission-bucket state and the
//! brownout mode live in the journaled runtime model, the recovered run
//! resumes *in the same degraded mode* and its command trace is
//! byte-identical to the uncrashed run — E7's crash-consistency contract
//! extended to overload control.
//!
//! Everything runs on the virtual clock from a fixed seed, so repeated
//! runs reproduce `BENCH_e8.json` byte-for-byte.

use crate::artifacts::{document, row, Fixed, Str};
use mddsm_broker::{AdmittedOutcome, BrokerModelBuilder, CallMeta, GenericBroker};
use mddsm_meta::Model;
use mddsm_sim::resource::{args, Args, Outcome};
use mddsm_sim::{
    ArrivalGenerator, FaultPlan, FaultPlanBuilder, LatencyModel, ResourceHub, SimDuration, SimTime,
};

/// Virtual cost (and declared `costUs`) of full-fidelity service.
pub const FULL_COST_US: u64 = 1_000;
/// Virtual cost (and declared `costUs`) of degraded (lite) service.
pub const LITE_COST_US: u64 = 300;
/// Interactive-class relative deadline (µs).
pub const INTERACTIVE_DEADLINE_US: u64 = 20_000;
/// Batch-class relative deadline (µs).
pub const BATCH_DEADLINE_US: u64 = 200_000;
/// Virtual time between brownout-controller ticks (µs).
pub const TICK_US: u64 = 5_000;
/// Journal snapshot cadence (entries between snapshots).
pub const SNAPSHOT_EVERY: u64 = 64;
/// How many times a deferred request retries before it is dropped.
pub const DEFER_RETRIES: u32 = 4;
/// Arrival-rate multiplier applied to the interactive class in the spike.
pub const SPIKE_FACTOR: f64 = 6.0;

fn hub(seed: u64) -> ResourceHub {
    let mut h = ResourceHub::new(seed);
    h.register(
        "sim.srv",
        LatencyModel::Fixed(SimDuration::from_micros(FULL_COST_US)),
        SimDuration::from_millis(250),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    h.register(
        "sim.lite",
        LatencyModel::Fixed(SimDuration::from_micros(LITE_COST_US)),
        SimDuration::from_millis(250),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    h
}

/// The E8 broker model: an interactive handler with a guarded lite action
/// (active only in the `lite` brownout mode) ahead of the full-fidelity
/// one, a batch handler, per-class token-bucket admission limits, and one
/// declared brownout mode — all of it data in the model, none of it code.
pub fn e8_broker_model() -> Model {
    BrokerModelBuilder::new("e8")
        .call_handler("req", "serve")
        .policy("liteMode", "self.svc_mode = \"lite\"")
        .action(
            "req",
            "serveLite",
            "sim.lite",
            "serve",
            &["n=$n"],
            Some("liteMode"),
            &["served_lite=+1"],
        )
        .with_admission("req", LITE_COST_US, "interactive")
        .action(
            "req",
            "serveFull",
            "sim.srv",
            "serve",
            &["n=$n"],
            None,
            &["served_full=+1"],
        )
        .with_admission("req", FULL_COST_US, "interactive")
        .call_handler("bg", "crunch")
        .action(
            "bg",
            "crunchFull",
            "sim.srv",
            "crunch",
            &["n=$n"],
            None,
            &["served_batch=+1"],
        )
        .with_admission("bg", FULL_COST_US, "batch")
        // Interactive may spend 800 µs of work per virtual ms — below the
        // 1000 µs/ms the server could burn, so the token bucket (not the
        // server) is the binding limit and deferral backpressure actually
        // engages; batch gets 400. Both are additionally bounded by
        // queueing delay and a relative deadline.
        .admission_class("interactive", 800, 2_000, 25_000, INTERACTIVE_DEADLINE_US)
        .admission_class("batch", 400, 4_000, 200_000, BATCH_DEADLINE_US)
        .brownout_mode(
            "lite",
            1,
            6_000,
            1_500,
            8,
            1,
            &["set svc_mode lite"],
            &["set svc_mode full"],
        )
        .build()
}

/// The overload campaign: a load spike multiplying interactive arrivals
/// by [`SPIKE_FACTOR`] over the middle window `[horizon/4, horizon/2)`.
pub fn e8_load_plan(horizon_ms: u64) -> FaultPlan {
    let model = FaultPlanBuilder::new("e8-overload")
        .load_spike(
            SimTime::from_millis(horizon_ms / 4),
            "interactive",
            SPIKE_FACTOR,
        )
        .load_normal(SimTime::from_millis(horizon_ms / 2), "interactive")
        .build();
    FaultPlan::from_model(&model).expect("load plan conforms")
}

/// How a variant treats overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Plain FIFO: execute everything, in order, however stale.
    Naive,
    /// Admission control: defer (backpressure) and shed per the model.
    Shed,
    /// Admission control plus the model's brownout degradation mode.
    Brownout,
}

/// What the mid-overload crash recovery observed (brownout variant only).
#[derive(Debug, Clone, PartialEq)]
pub struct CrashRecovery {
    /// Brownout mode the broker was in when it died.
    pub pre_mode: String,
    /// Brownout mode immediately after journal recovery.
    pub post_mode: String,
    /// State ops replayed from the journal.
    pub replayed_ops: u64,
    /// Command records replayed from the journal.
    pub replayed_commands: u64,
}

/// Metrics of one variant run over the shared arrival schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct E8Run {
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests that executed (timely or late).
    pub executed: u64,
    /// Requests that finished within their class deadline.
    pub timely: u64,
    /// Requests that executed but finished past their deadline.
    pub late: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests dropped after exhausting their deferral retries.
    pub dropped: u64,
    /// Deferred (backpressure) outcomes observed, including retries.
    pub deferrals: u64,
    /// Timely completions per virtual second of campaign horizon.
    pub goodput_per_s: f64,
    /// Fraction of arrivals that missed their deadline (late + shed +
    /// dropped).
    pub miss_rate: f64,
    /// 99th-percentile latency of executed requests (virtual ms).
    pub p99_latency_ms: f64,
    /// Brownout mode transitions performed.
    pub brownout_transitions: u64,
    /// Brownout mode at the end of the run.
    pub final_mode: String,
    /// Mid-overload crash recovery, when one was injected.
    pub crash: Option<CrashRecovery>,
    /// The hub's command trace — the ground truth crash recovery is
    /// compared on, byte for byte.
    pub trace: Vec<String>,
    /// Final state-model version (journal LSN head).
    pub state_version: u64,
}

fn class_deadline(class: &str) -> u64 {
    if class == "batch" {
        BATCH_DEADLINE_US
    } else {
        INTERACTIVE_DEADLINE_US
    }
}

fn op_of(class: &str) -> &'static str {
    if class == "batch" {
        "crunch"
    } else {
        "serve"
    }
}

/// Runs one variant over a pre-generated arrival schedule. `crash_at`
/// kills and journal-recovers the broker at the first arrival at or after
/// that instant (µs) — meaningful for the brownout variant, which is the
/// one that journals.
pub fn run_variant(
    seed: u64,
    horizon_ms: u64,
    arrivals: &[mddsm_sim::Arrival],
    variant: Variant,
    crash_at: Option<u64>,
) -> E8Run {
    let model = e8_broker_model();
    let mut broker = GenericBroker::from_model(&model, hub(seed)).expect("E8 model valid");
    if variant == Variant::Brownout {
        broker.enable_journal(SNAPSHOT_EVERY);
    }

    let mut executed = 0u64;
    let mut timely = 0u64;
    let mut late = 0u64;
    let mut shed = 0u64;
    let mut dropped = 0u64;
    let mut deferrals = 0u64;
    let mut latencies_us: Vec<u64> = Vec::new();
    let mut last_tick_us = 0u64;
    let mut crash_pending = crash_at;
    let mut crash_report: Option<CrashRecovery> = None;

    for a in arrivals {
        let at = a.at.as_micros();
        // Crash the middleware at the first arrival inside the overload
        // window, then recover it from its own journal. No virtual-time
        // penalty is charged: the comparison isolates *state* recovery
        // (identical admission decisions and mode), and any clock skew
        // would change every subsequent decision by construction.
        if variant == Variant::Brownout {
            if let Some(t) = crash_pending {
                if at >= t {
                    crash_pending = None;
                    let pre_mode = broker.brownout_mode();
                    let bytes = broker.journal_bytes().expect("journaling on").to_vec();
                    let hub = broker.into_hub();
                    let (mut recovered, report) = GenericBroker::recover(&model, hub, &bytes, &[])
                        .expect("journal recovery succeeds");
                    recovered.set_snapshot_every(SNAPSHOT_EVERY);
                    crash_report = Some(CrashRecovery {
                        pre_mode,
                        post_mode: recovered.brownout_mode(),
                        replayed_ops: report.ops_replayed,
                        replayed_commands: report.commands_replayed,
                    });
                    broker = recovered;
                }
            }
        }
        // Open loop: the clock never waits for the server, but the server
        // may already be past the arrival instant (that gap *is* the
        // queueing delay admission control reasons about).
        let now = broker.now().as_micros();
        if now < at {
            broker.advance_clock(SimDuration::from_micros(at - now));
        }
        if variant == Variant::Brownout && broker.now().as_micros() - last_tick_us >= TICK_US {
            last_tick_us = broker.now().as_micros();
            broker.brownout_tick().expect("brownout tick evaluates");
        }

        let op = op_of(&a.class);
        let n = at.to_string();
        let call_args = args(&[("n", &n)]);
        match variant {
            Variant::Naive => {
                let r = broker.call(op, &call_args).expect("handler accepts op");
                executed += 1;
                let completion = broker.now().as_micros();
                let lat = completion - at;
                latencies_us.push(lat);
                if r.outcome.is_ok() && lat <= class_deadline(&a.class) {
                    timely += 1;
                } else {
                    late += 1;
                }
            }
            Variant::Shed | Variant::Brownout => {
                let meta = CallMeta::new(&a.class, at);
                let mut tries = 0u32;
                loop {
                    match broker
                        .call_admitted(op, &call_args, &meta)
                        .expect("handler accepts op")
                    {
                        AdmittedOutcome::Executed {
                            result,
                            deadline_us,
                            ..
                        } => {
                            executed += 1;
                            let completion = broker.now().as_micros();
                            latencies_us.push(completion - at);
                            if result.outcome.is_ok() && completion <= deadline_us {
                                timely += 1;
                            } else {
                                late += 1;
                            }
                            break;
                        }
                        AdmittedOutcome::Deferred { wait } => {
                            deferrals += 1;
                            if tries >= DEFER_RETRIES {
                                dropped += 1;
                                break;
                            }
                            tries += 1;
                            // Backpressure: hold the (FIFO) intake until
                            // the bucket has refilled enough.
                            broker.advance_clock(wait.max(SimDuration::from_micros(1)));
                        }
                        AdmittedOutcome::Shed { .. } => {
                            shed += 1;
                            break;
                        }
                    }
                }
            }
        }
    }

    latencies_us.sort_unstable();
    let p99_us = if latencies_us.is_empty() {
        0
    } else {
        let idx = (latencies_us.len() * 99).div_ceil(100) - 1;
        latencies_us[idx]
    };
    let arrivals_n = arrivals.len() as u64;
    E8Run {
        arrivals: arrivals_n,
        executed,
        timely,
        late,
        shed,
        dropped,
        deferrals,
        goodput_per_s: timely as f64 / (horizon_ms as f64 / 1000.0),
        miss_rate: if arrivals_n == 0 {
            0.0
        } else {
            (arrivals_n - timely) as f64 / arrivals_n as f64
        },
        p99_latency_ms: p99_us as f64 / 1000.0,
        brownout_transitions: broker.brownout_transitions(),
        final_mode: broker.brownout_mode(),
        crash: crash_report,
        trace: broker.hub().command_trace(),
        state_version: broker.state().version(),
    }
}

/// The full experiment: the three variants (plus the crashed brownout
/// rerun) over the same seed and arrival schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct E8Result {
    /// Campaign seed.
    pub seed: u64,
    /// Campaign horizon (virtual ms).
    pub horizon_ms: u64,
    /// Arrival-rate multiplier of the spike.
    pub spike_factor: f64,
    /// Spike window start (virtual ms).
    pub spike_start_ms: u64,
    /// Spike window end (virtual ms).
    pub spike_end_ms: u64,
    /// Plain FIFO.
    pub naive: E8Run,
    /// Admission control only.
    pub shed: E8Run,
    /// Admission control + brownout degradation.
    pub brownout: E8Run,
    /// Whether admission alone strictly beat FIFO on goodput and misses.
    pub shed_beats_naive: bool,
    /// Whether admission+brownout strictly beat FIFO on goodput and
    /// misses (the E8 acceptance criterion).
    pub brownout_beats_naive: bool,
    /// Whether the mid-overload-crashed run's command trace is
    /// byte-identical to the uncrashed brownout run's.
    pub crash_trace_identical: bool,
    /// Whether recovery resumed in the exact brownout mode the broker
    /// died in.
    pub recovered_mode_matches: bool,
}

/// Runs E8: generates the shared overload arrival schedule, then the
/// three variants and the crashed brownout rerun.
pub fn run(seed: u64, horizon_ms: u64) -> E8Result {
    let plan = e8_load_plan(horizon_ms);
    let generator = ArrivalGenerator::new(seed)
        .with_class("interactive", SimDuration::from_micros(2_000))
        .with_class("batch", SimDuration::from_micros(5_000));
    let arrivals = generator.schedule_under(SimDuration::from_millis(horizon_ms), &plan);

    let naive = run_variant(seed, horizon_ms, &arrivals, Variant::Naive, None);
    let shed = run_variant(seed, horizon_ms, &arrivals, Variant::Shed, None);
    let brownout = run_variant(seed, horizon_ms, &arrivals, Variant::Brownout, None);
    // Kill the broker in the middle of the spike window, where the
    // degraded mode is active and admission state is hot.
    let crash_at = (horizon_ms / 4 + horizon_ms / 2) / 2 * 1_000;
    let crashed = run_variant(
        seed,
        horizon_ms,
        &arrivals,
        Variant::Brownout,
        Some(crash_at),
    );

    let beats =
        |a: &E8Run, b: &E8Run| a.goodput_per_s > b.goodput_per_s && a.miss_rate < b.miss_rate;
    let crash_trace_identical = crashed.trace == brownout.trace
        && crashed.state_version == brownout.state_version
        && crashed.final_mode == brownout.final_mode;
    let recovered_mode_matches = crashed
        .crash
        .as_ref()
        .is_some_and(|c| c.pre_mode == c.post_mode);
    E8Result {
        seed,
        horizon_ms,
        spike_factor: SPIKE_FACTOR,
        spike_start_ms: horizon_ms / 4,
        spike_end_ms: horizon_ms / 2,
        shed_beats_naive: beats(&shed, &naive),
        brownout_beats_naive: beats(&brownout, &naive),
        crash_trace_identical,
        recovered_mode_matches,
        naive,
        shed,
        brownout,
    }
}

fn json_run(r: &E8Run) -> String {
    row(&[
        ("arrivals", &r.arrivals),
        ("executed", &r.executed),
        ("timely", &r.timely),
        ("late", &r.late),
        ("shed", &r.shed),
        ("dropped", &r.dropped),
        ("deferrals", &r.deferrals),
        ("goodput_per_s", &Fixed(r.goodput_per_s, 1)),
        ("miss_rate", &Fixed(r.miss_rate, 4)),
        ("p99_latency_ms", &Fixed(r.p99_latency_ms, 3)),
        ("brownout_transitions", &r.brownout_transitions),
        ("final_mode", &Str(&r.final_mode)),
        ("state_version", &r.state_version),
    ])
}

impl E8Result {
    /// Renders the `BENCH_e8.json` artifact. Deterministic in the seed.
    pub fn to_json(&self) -> String {
        document(&[
            ("experiment", &Str("e8")),
            ("seed", &self.seed),
            ("horizon_ms", &self.horizon_ms),
            ("spike_factor", &Fixed(self.spike_factor, 1)),
            ("spike_start_ms", &self.spike_start_ms),
            ("spike_end_ms", &self.spike_end_ms),
            ("shed_beats_naive", &self.shed_beats_naive),
            ("brownout_beats_naive", &self.brownout_beats_naive),
            ("crash_trace_identical", &self.crash_trace_identical),
            ("recovered_mode_matches", &self.recovered_mode_matches),
            ("naive", &json_run(&self.naive)),
            ("shed", &json_run(&self.shed)),
            ("brownout", &json_run(&self.brownout)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_spike_overloads_naive_fifo() {
        let r = run(2024, 400);
        assert!(r.naive.arrivals > 0);
        assert_eq!(r.naive.executed, r.naive.arrivals, "FIFO executes all");
        assert!(
            r.naive.late > r.naive.arrivals / 4,
            "the spike should blow a large fraction of FIFO deadlines \
             (late={} of {})",
            r.naive.late,
            r.naive.arrivals
        );
        assert!(r.naive.p99_latency_ms > INTERACTIVE_DEADLINE_US as f64 / 1000.0);
    }

    #[test]
    fn admission_sheds_and_brownout_degrades() {
        let r = run(2024, 400);
        assert!(r.shed.shed > 0, "overload must shed something");
        assert!(r.shed.deferrals > 0, "backpressure must engage");
        assert_eq!(r.shed.brownout_transitions, 0);
        assert!(
            r.brownout.brownout_transitions >= 2,
            "brownout must enter and leave the degraded mode"
        );
        assert_eq!(r.brownout.final_mode, "full", "hysteresis must restore");
    }

    #[test]
    fn brownout_strictly_beats_naive_fifo_and_plain_shedding_beats_it_too() {
        let r = run(2024, 400);
        assert!(
            r.shed_beats_naive,
            "admission should beat FIFO: shed goodput {} vs naive {}, miss {} vs {}",
            r.shed.goodput_per_s, r.naive.goodput_per_s, r.shed.miss_rate, r.naive.miss_rate
        );
        assert!(
            r.brownout_beats_naive,
            "brownout should beat FIFO: goodput {} vs {}, miss {} vs {}",
            r.brownout.goodput_per_s,
            r.naive.goodput_per_s,
            r.brownout.miss_rate,
            r.naive.miss_rate
        );
        assert!(
            r.brownout.goodput_per_s > r.shed.goodput_per_s,
            "degrading should buy capacity over shedding alone"
        );
    }

    #[test]
    fn mid_overload_crash_recovers_into_the_same_mode_with_an_identical_trace() {
        let r = run(2024, 400);
        assert!(r.crash_trace_identical, "crashed trace diverged");
        assert!(r.recovered_mode_matches, "recovered into a different mode");
        // The crash landed inside the spike, so the mode it preserved was
        // the degraded one — otherwise this test is vacuous.
        let crashed = run_variant(
            2024,
            400,
            &ArrivalGenerator::new(2024)
                .with_class("interactive", SimDuration::from_micros(2_000))
                .with_class("batch", SimDuration::from_micros(5_000))
                .schedule_under(SimDuration::from_millis(400), &e8_load_plan(400)),
            Variant::Brownout,
            Some(150_000),
        );
        let c = crashed.crash.expect("crash was injected");
        assert_eq!(c.pre_mode, "lite", "crash should land mid-brownout");
        assert_eq!(c.post_mode, "lite");
        assert!(c.replayed_ops + c.replayed_commands > 0);
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let a = run(7, 300);
        let b = run(7, 300);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        let c = run(8, 300);
        assert_ne!(
            (a.naive.arrivals, a.shed.shed, a.brownout.timely),
            (c.naive.arrivals, c.shed.shed, c.brownout.timely)
        );
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let j = run(3, 300).to_json();
        assert!(j.contains("\"experiment\": \"e8\""));
        for key in [
            "\"brownout_beats_naive\"",
            "\"crash_trace_identical\"",
            "\"recovered_mode_matches\"",
            "\"naive\"",
            "\"shed\"",
            "\"brownout\"",
            "\"goodput_per_s\"",
            "\"p99_latency_ms\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.ends_with('\n'));
    }
}
