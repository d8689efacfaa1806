//! `broker_mixed`: one `GenericBroker` with every in-process layer on —
//! guarded handler selection, two admission classes, one brownout mode,
//! two runtime monitors and a framed journal with snapshots.
//!
//! The op stream is mostly guard-evaluating reads with no state effects; a
//! seeded minority writes state. Arrivals are open-loop on the virtual
//! clock (seeded exponential gaps), and the batch class is offered above
//! its token rate, so a fixed share of it is deferred or shed.

use crate::episode::{Bench, Status, Tally};
use crate::trace::{ratio, Acc, Tracer};
use crate::{best, middle, BrokerCounts, Layers};
use mddsm_broker::journal;
use mddsm_broker::{AdmittedOutcome, BrokerModelBuilder, CallMeta, GenericBroker};
use mddsm_meta::constraint::Expr;
use mddsm_meta::Model;
use mddsm_sim::resource::{Args, Outcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration, SimRng};
use std::time::Instant;

/// Ops per episode.
pub const OPS: usize = 10_000;
/// Read handlers (interactive class).
const READS: usize = 20;
/// Scan handlers (batch class).
const SCANS: usize = 4;
/// Write handlers (interactive class).
const WRITES: usize = 6;
/// Share of ops that write state.
const WRITE_SHARE: f64 = 0.10;
/// Share of ops that scan (batch class).
const SCAN_SHARE: f64 = 0.10;
/// Mean virtual gap between arrivals (µs).
const MEAN_GAP_US: f64 = 300.0;
/// Calls between brownout-controller ticks.
const TICK_EVERY: usize = 64;
/// Journal entries between snapshots.
const SNAPSHOT_EVERY: u64 = 64;
/// Distinct argument keys.
const KEYS: u64 = 1_000;

const LITE_US: u64 = 50;
const READ_US: u64 = 150;
const FAR_US: u64 = 400;
const SCAN_US: u64 = 1_000;
const WRITE_US: u64 = 300;

/// Which layers a broker build carries: the ladder rungs of the traced
/// run, from the bare engine up to the full configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// Admission classes and the brownout mode.
    pub admission: bool,
    /// The two runtime monitors.
    pub monitors: bool,
    /// The framed journal with snapshots.
    pub journal: bool,
}

/// Bare engine: the same handlers, nothing else.
pub const BARE: Rung = Rung {
    admission: false,
    monitors: false,
    journal: false,
};
/// Every layer on: the configuration the untraced run measures.
pub const FULL: Rung = Rung {
    admission: true,
    monitors: true,
    journal: true,
};
/// The traced run's ladder, bottom to top.
const LADDER: [Rung; 4] = [
    BARE,
    Rung {
        admission: true,
        ..BARE
    },
    Rung {
        admission: true,
        monitors: true,
        journal: false,
    },
    FULL,
];

/// The `broker_mixed` broker model at one rung.
pub fn model(rung: Rung) -> Model {
    let mut b = BrokerModelBuilder::new("mixed")
        .policy("liteMode", "self.svc_mode = \"lite\"")
        .policy(
            "regionOpen",
            "self.region = null or self.region <> \"closed\"",
        )
        .policy(
            "quotaLeft",
            "self.writes = null or self.writes < 1000000000",
        );
    let adm = |b: BrokerModelBuilder, h: &str, cost: u64, class: &str| {
        if rung.admission {
            b.with_admission(h, cost, class)
        } else {
            b
        }
    };
    for i in 0..READS {
        let h = format!("read{i}");
        b = b.call_handler(&h, &format!("get{i}"));
        b = b.action(
            &h,
            &format!("{h}Lite"),
            "lite",
            "get",
            &["k=$k"],
            Some("liteMode"),
            &[],
        );
        b = adm(b, &h, LITE_US, "interactive");
        b = b.action(
            &h,
            &format!("{h}Near"),
            "cache",
            "get",
            &["k=$k"],
            Some("regionOpen"),
            &[],
        );
        b = adm(b, &h, READ_US, "interactive");
        b = b.action(&h, &format!("{h}Far"), "store", "get", &["k=$k"], None, &[]);
        b = adm(b, &h, FAR_US, "interactive");
    }
    for i in 0..SCANS {
        let h = format!("scan{i}");
        b = b.call_handler(&h, &format!("scan{i}"));
        b = b.action(
            &h,
            &format!("{h}Near"),
            "scan",
            "scan",
            &["k=$k"],
            Some("regionOpen"),
            &[],
        );
        b = adm(b, &h, SCAN_US, "batch");
        b = b.action(
            &h,
            &format!("{h}Far"),
            "store",
            "scan",
            &["k=$k"],
            None,
            &[],
        );
        b = adm(b, &h, SCAN_US, "batch");
    }
    for i in 0..WRITES {
        let h = format!("write{i}");
        let counter = format!("w{i}=+1");
        let effects = ["writes=+1", counter.as_str(), "region=open"];
        b = b.call_handler(&h, &format!("put{i}"));
        b = b.action(
            &h,
            &format!("{h}Quota"),
            "store",
            "put",
            &["k=$k"],
            Some("quotaLeft"),
            &effects,
        );
        b = adm(b, &h, WRITE_US, "interactive");
        b = b.action(
            &h,
            &format!("{h}Any"),
            "store",
            "put",
            &["k=$k"],
            None,
            &effects,
        );
        b = adm(b, &h, WRITE_US, "interactive");
    }
    if rung.admission {
        b = b
            .admission_class("interactive", 800, 4_000, 20_000, 50_000)
            .admission_class("batch", 150, 2_000, 8_000, 200_000)
            .brownout_mode(
                "lite",
                1,
                1_500,
                300,
                4,
                1,
                &["set svc_mode lite"],
                &["set svc_mode full"],
            );
    }
    if rung.monitors {
        b = b
            .monitor("writesNonNeg", "self.writes = null or self.writes >= 0")
            .monitor(
                "modeKnown",
                "self.svc_mode = null or self.svc_mode = \"full\" or self.svc_mode = \"lite\"",
            );
    }
    b.bind_resource("lite", "sim.lite")
        .bind_resource("cache", "sim.cache")
        .bind_resource("store", "sim.store")
        .bind_resource("scan", "sim.scan")
        .build()
}

fn hub(seed: u64) -> ResourceHub {
    let mut h = ResourceHub::new(seed);
    for (name, us) in [
        ("sim.lite", LITE_US),
        ("sim.cache", READ_US),
        ("sim.store", FAR_US),
        ("sim.scan", SCAN_US),
    ] {
        h.register(
            name,
            LatencyModel::Fixed(SimDuration::from_micros(us)),
            SimDuration::from_millis(250),
            Box::new(|_: &str, _: &Args| Outcome::ok()),
        );
    }
    h
}

/// One generated call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Handler selector.
    pub selector: String,
    /// Call arguments.
    pub args: Args,
    /// Admission metadata: class and virtual arrival instant.
    pub meta: CallMeta,
    /// Whether the handler writes state.
    pub write: bool,
}

/// The seeded op stream.
pub fn ops(seed: u64) -> Vec<Op> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x6d69_7865_6400);
    let mut at = 0u64;
    (0..OPS)
        .map(|_| {
            at += (rng.exponential(MEAN_GAP_US).round() as u64).max(1);
            let r = rng.unit();
            let (selector, class, write) = if r < WRITE_SHARE {
                (format!("put{}", rng.index(WRITES)), "interactive", true)
            } else if r < WRITE_SHARE + SCAN_SHARE {
                (format!("scan{}", rng.index(SCANS)), "batch", false)
            } else {
                (format!("get{}", rng.index(READS)), "interactive", false)
            };
            Op {
                selector,
                args: vec![("k".to_owned(), format!("k{}", rng.range(0, KEYS)))],
                meta: CallMeta::new(class, at),
                write,
            }
        })
        .collect()
}

/// The workload at one ladder rung.
pub struct Mixed {
    seed: u64,
    rung: Rung,
    model: Model,
    ops: Vec<Op>,
}

/// A broker plus the benchmark's own count of executed writes.
pub struct System {
    /// The broker under test.
    pub broker: GenericBroker,
    /// Write ops the broker executed, as counted by the caller.
    pub writes: i64,
}

impl Mixed {
    /// The full configuration over the stream of `seed`.
    pub fn new(seed: u64) -> Self {
        Self::at_rung(seed, FULL)
    }

    fn at_rung(seed: u64, rung: Rung) -> Self {
        Mixed {
            seed,
            rung,
            model: model(rung),
            ops: ops(seed),
        }
    }
}

impl Bench for Mixed {
    type System = System;

    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn setup(&self) -> Result<System, String> {
        let mut broker =
            GenericBroker::from_model(&self.model, hub(self.seed)).map_err(|e| e.to_string())?;
        if self.rung.journal {
            broker.enable_journal(SNAPSHOT_EVERY);
        }
        Ok(System { broker, writes: 0 })
    }

    fn prepare(&self, sys: &mut System, i: usize) -> Result<(), String> {
        advance_to_arrival(&mut sys.broker, &self.ops[i]);
        if self.rung.admission && tick_due(i) {
            sys.broker.brownout_tick().map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn op(&self, sys: &mut System, i: usize) -> Result<Status, String> {
        let op = &self.ops[i];
        let status = match sys
            .broker
            .call_admitted(&op.selector, &op.args, &op.meta)
            .map_err(|e| e.to_string())?
        {
            AdmittedOutcome::Executed { result, .. } if result.outcome.is_ok() => Status::Done,
            AdmittedOutcome::Executed { .. } => Status::Failed,
            AdmittedOutcome::Deferred { .. } => Status::Deferred,
            AdmittedOutcome::Shed { .. } => Status::Shed,
        };
        if op.write && status == Status::Done {
            sys.writes += 1;
        }
        Ok(status)
    }

    fn check(&self, sys: &mut System, tally: &Tally) -> Result<(), String> {
        check(&sys.broker, sys.writes, tally, self.ops.len() as u64)
    }
}

/// Whether the brownout controller ticks before op `i`.
fn tick_due(i: usize) -> bool {
    i > 0 && i.is_multiple_of(TICK_EVERY)
}

fn advance_to_arrival(broker: &mut GenericBroker, op: &Op) {
    let now = broker.now().as_micros();
    if now < op.meta.arrival_us {
        broker.advance_clock(SimDuration::from_micros(op.meta.arrival_us - now));
    }
}

fn adm_count(broker: &GenericBroker, suffix: &str) -> i64 {
    ["interactive", "batch"]
        .iter()
        .map(|c| {
            broker
                .state()
                .int(&format!("adm_{c}_{suffix}"))
                .unwrap_or(0)
        })
        .sum()
}

/// The output checks of one full-configuration episode.
pub fn check(broker: &GenericBroker, writes: i64, tally: &Tally, ops: u64) -> Result<(), String> {
    let bytes = broker.journal_bytes().ok_or("journaling is off")?;
    let replayed = journal::replay(bytes).map_err(|e| format!("journal replay failed: {e}"))?;
    if let Some(d) = broker.state().first_divergence(&replayed.state) {
        return Err(format!("journal replay differs from the live state: {d}"));
    }
    if !broker.monitor_trips().is_empty() {
        return Err(format!(
            "{} monitor trip(s), first: {:?}",
            broker.monitor_trips().len(),
            broker.monitor_trips()[0]
        ));
    }
    let (admitted, deferred, shed) = (
        adm_count(broker, "admitted"),
        adm_count(broker, "deferred"),
        adm_count(broker, "shed"),
    );
    if (admitted + deferred + shed) as u64 != ops {
        return Err(format!(
            "admitted {admitted} + deferred {deferred} + shed {shed} != {ops} attempted"
        ));
    }
    if (deferred as u64, shed as u64) != (tally.deferred, tally.shed) {
        return Err(format!(
            "admission counters (deferred {deferred}, shed {shed}) differ from the caller's {tally:?}"
        ));
    }
    let counted = broker.state().int("writes").unwrap_or(0);
    let per_handler: i64 = (0..WRITES)
        .map(|i| broker.state().int(&format!("w{i}")).unwrap_or(0))
        .sum();
    if counted != writes || per_handler != writes {
        return Err(format!(
            "state counts {counted} writes ({per_handler} per handler), the caller executed {writes}"
        ));
    }
    Ok(())
}

/// Per-round figures of the traced run.
struct Round {
    rungs: [Acc; 4],
    untraced_ns: f64,
    traced_ns: f64,
    call: Acc,
    tick: Acc,
    clock: Acc,
    guard: Acc,
    loop_allocs: u64,
    counts: BrokerCounts,
    /// Admitted, deferred and shed calls.
    admission: [i64; 3],
    transitions: u64,
}

/// Replays the stream at `rung`, one span per call.
fn replay_rung(seed: u64, rung: Rung, tracer: &Tracer) -> Result<Acc, String> {
    let bench = Mixed::at_rung(seed, rung);
    let mut sys = bench.setup()?;
    let mut acc = Acc::default();
    for i in 0..bench.ops() {
        bench.prepare(&mut sys, i)?;
        tracer.span(&mut acc, || bench.op(&mut sys, i))?;
    }
    Ok(acc)
}

fn round(bench: &Mixed, policies: &[Expr], tracer: &Tracer) -> Result<Round, String> {
    let mut rungs = [Acc::default(); 4];
    for (acc, rung) in rungs.iter_mut().zip(LADDER) {
        *acc = replay_rung(bench.seed, rung, tracer)?;
    }
    let n = bench.ops();

    // Untraced pass: the loop the untraced run times, counting off.
    tracer.pause();
    let mut sys = bench.setup()?;
    let t = Instant::now();
    for i in 0..n {
        bench.prepare(&mut sys, i)?;
        bench.op(&mut sys, i)?;
    }
    let untraced_ns = t.elapsed().as_nanos() as f64 / n as f64;
    tracer.resume();

    // Traced pass: spans around every call into the broker.
    let mut sys = bench.setup()?;
    let (mut call, mut tick, mut clock, mut guard) = Default::default();
    let mut tally = Tally::default();
    let a0 = tracer.allocs();
    let t = Instant::now();
    for i in 0..n {
        let op = &bench.ops[i];
        tracer.span(&mut clock, || advance_to_arrival(&mut sys.broker, op));
        if tick_due(i) {
            tracer
                .span(&mut tick, || sys.broker.brownout_tick())
                .map_err(|e| e.to_string())?;
        }
        tally.record(tracer.span(&mut call, || bench.op(&mut sys, i))?);
    }
    let traced_ns = t.elapsed().as_nanos() as f64 / n as f64;
    let loop_allocs = tracer.allocs() - a0;
    check(&sys.broker, sys.writes, &tally, n as u64)?;

    // Guard evaluation against the final live state, off the op loop.
    crate::time_guards(tracer, &mut guard, sys.broker.state(), policies)?;
    Ok(Round {
        rungs,
        untraced_ns,
        traced_ns,
        call,
        tick,
        clock,
        guard,
        loop_allocs,
        counts: BrokerCounts::of(&sys.broker),
        admission: ["admitted", "deferred", "shed"].map(|k| adm_count(&sys.broker, k)),
        transitions: sys.broker.brownout_transitions(),
    })
}

/// The traced run: ladder rungs, an untraced and a traced pass of the
/// full configuration, and guard evaluation, repeated for `seconds`.
pub fn traced(seed: u64, seconds: u64, tracer: &Tracer) -> Result<Layers, String> {
    let bench = Mixed::new(seed);
    let policies = crate::model_policies(&bench.model)?;
    let rounds = crate::rounds(seconds, || round(&bench, &policies, tracer))?;
    let n = bench.ops() as f64;
    let mut l = Layers::default();
    let rung_ns = |k: usize| best(&rounds, |r| r.rungs[k].ns_per_span());
    let rung_allocs = |k: usize| rounds[0].rungs[k].allocs_per_span();
    l.set("broker.engine.ns_per_call", rung_ns(0));
    l.set("broker.engine.allocs_per_call", rung_allocs(0));
    l.set("broker.admission.ns_per_call", rung_ns(1) - rung_ns(0));
    l.set(
        "broker.admission.allocs_per_call",
        rung_allocs(1) - rung_allocs(0),
    );
    l.set("broker.monitor.ns_per_call", rung_ns(2) - rung_ns(1));
    l.set(
        "broker.monitor.allocs_per_call",
        rung_allocs(2) - rung_allocs(1),
    );
    l.set("broker.journal.ns_per_call", rung_ns(3) - rung_ns(2));
    l.set(
        "broker.journal.allocs_per_call",
        rung_allocs(3) - rung_allocs(2),
    );
    l.set(
        "broker.state.guard_eval_ns",
        best(&rounds, |r| r.guard.ns_per_span()),
    );
    l.set(
        "broker.autonomic.brownout_tick_ns",
        best(&rounds, |r| r.tick.ns_per_span()),
    );
    let first = &rounds[0];
    let [admitted, deferred, shed] = first.admission;
    l.set("broker.admission.admitted_ratio", ratio(admitted as f64, n));
    l.set("broker.admission.deferred", deferred as f64);
    l.set("broker.admission.shed", shed as f64);
    first.counts.report(&mut l, n);
    l.set("broker.autonomic.transitions", first.transitions as f64);
    let traced_ns = best(&rounds, |r| r.traced_ns);
    l.set("trace.ns_per_op", traced_ns);
    l.set("trace.allocs_per_op", rounds[0].loop_allocs as f64 / n);
    l.set(
        "trace.overhead_pct",
        (traced_ns / best(&rounds, |r| r.untraced_ns) - 1.0) * 100.0,
    );
    l.set(
        "trace.layer_coverage",
        middle(&rounds, |r| {
            (r.call.ns + r.tick.ns + r.clock.ns) as f64 / n / r.traced_ns
        }),
    );
    l.rounds = rounds.len();
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_model_analyzes_clean() {
        let report = mddsm_broker::analyze(&model(FULL));
        assert!(report.is_clean(), "diagnostics: {:?}", report.diagnostics);
        for rung in LADDER {
            GenericBroker::from_model(&model(rung), hub(1)).unwrap();
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));
        let writes = ops(7).iter().filter(|o| o.write).count();
        assert!(writes > 0 && writes < OPS / 4, "{writes} writes");
    }

    fn episode(seed: u64) -> (System, Tally) {
        let bench = Mixed::new(seed);
        let mut sys = bench.setup().unwrap();
        let mut tally = Tally::default();
        for i in 0..bench.ops() {
            bench.prepare(&mut sys, i).unwrap();
            tally.record(bench.op(&mut sys, i).unwrap());
        }
        (sys, tally)
    }

    #[test]
    fn an_episode_passes_its_checks_and_defers_batch_work() {
        let (sys, tally) = episode(3);
        check(&sys.broker, sys.writes, &tally, OPS as u64).unwrap();
        assert!(tally.deferred + tally.shed > 0, "{tally:?}");
        assert_eq!(tally.failed, 0);
    }

    #[test]
    fn checks_reject_corrupted_results() {
        let (mut sys, tally) = episode(3);
        // The caller's own write count disagrees with the state counters.
        assert!(check(&sys.broker, sys.writes + 1, &tally, OPS as u64).is_err());
        // Admission outcomes that do not add up to the attempted ops.
        assert!(check(&sys.broker, sys.writes, &tally, OPS as u64 + 1).is_err());
        // A state write that never reached the journal.
        sys.broker.state_mut().set_int("writes", -5);
        assert!(check(&sys.broker, sys.writes, &tally, OPS as u64).is_err());
    }
}
