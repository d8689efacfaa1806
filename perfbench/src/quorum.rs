//! `quorum_commit`: the E15-shaped broker (tier flip-flop, `tierValid`
//! monitor, framed journal) with a 3-node replica set. Every op writes
//! state; one op is one `call` followed by `QuorumReplicator::tick` until
//! the quorum commit LSN covers the call's LSN — a committed write.
//!
//! Links carry the default 1 virtual ms delay and a small seeded loss, so
//! go-back-N retransmission runs.

use crate::episode::{Bench, Status, Tally};
use crate::trace::{ratio, Acc, Tracer};
use crate::{best, middle, BrokerCounts, Layers};
use mddsm_broker::{BrokerModelBuilder, GenericBroker, QuorumReplicator, Standby};
use mddsm_meta::constraint::Expr;
use mddsm_meta::Model;
use mddsm_sim::net::{Link, Network};
use mddsm_sim::resource::{Args, Outcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration, SimRng, SimTime};
use std::time::Instant;

/// Committed writes per episode. The replicator's outbox keeps the whole
/// shipped history, so the per-op cost depends on this length.
pub const OPS: usize = 2_000;
/// Journal entries between snapshots (as in E15).
const SNAPSHOT_EVERY: u64 = 24;
/// Records in flight per ack-windowed lane (as in E15).
const WINDOW_RECORDS: u64 = 32;
/// Lane ack timeout (µs); also the spacing of retry ticks.
const ACK_TIMEOUT_US: u64 = 5_000;
/// Per-leg loss probability on every link.
const LINK_LOSS: f64 = 0.01;
/// Ticks one commit may take before the run is declared stalled.
const MAX_TICKS_PER_COMMIT: u64 = 64;
/// Replica-set members; the first is the primary.
const NODES: [&str; 3] = ["a", "b", "c"];

/// The E15-shaped broker model over a 3-node set (quorum = majority).
pub fn model(monitor: bool) -> Model {
    let peers: Vec<(&str, &str, u64, u64)> = NODES[1..]
        .iter()
        .map(|n| (*n, "AckWindowed", WINDOW_RECORDS, ACK_TIMEOUT_US))
        .collect();
    let mut b = BrokerModelBuilder::new("quorum")
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
    if monitor {
        b = b.monitor(
            "tierValid",
            "self.tier = null or self.tier = \"alpha\" or self.tier = \"beta\"",
        );
    }
    b.replica_set(0, &peers).build()
}

fn hub(seed: u64) -> ResourceHub {
    let mut h = ResourceHub::new(seed);
    for (name, ms) in [("sim.alpha", 3), ("sim.beta", 5)] {
        h.register(
            name,
            LatencyModel::fixed_ms(ms),
            SimDuration::from_millis(250),
            Box::new(|_: &str, _: &Args| Outcome::ok()),
        );
    }
    h
}

/// The seeded op stream: one argument list per write.
pub fn ops(seed: u64) -> Vec<Args> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x7175_6f72_756d);
    (0..OPS)
        .map(|_| vec![("n".to_owned(), rng.range(0, 1_000_000).to_string())])
        .collect()
}

/// A primary with its replicator, two standbys and the network between
/// them.
pub struct System {
    /// The primary broker.
    pub broker: GenericBroker,
    /// The primary's quorum replicator.
    pub rep: QuorumReplicator,
    /// The two replicas, reachable in-process.
    pub standbys: Vec<Standby>,
    net: Network,
    /// Virtual instant of the latest replication tick (µs).
    now_us: u64,
}

impl System {
    /// One replication tick at the current replication instant.
    fn tick(&mut self) -> Result<mddsm_broker::QuorumShipReport, String> {
        self.now_us = self.now_us.max(self.broker.now().as_micros());
        let mut peers: Vec<&mut Standby> = self.standbys.iter_mut().collect();
        self.rep
            .tick(
                SimTime::from_micros(self.now_us),
                self.broker.epoch(),
                &self.net,
                self.broker.journal_bytes().ok_or("journaling is off")?,
                &mut peers,
            )
            .map_err(|e| e.to_string())
    }

    /// Ticks (through `on_tick`) until the commit LSN covers `lsn`, one
    /// ack timeout apart.
    fn commit(
        &mut self,
        lsn: u64,
        mut on_tick: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut ticks = 0;
        while self.rep.commit_lsn() < lsn {
            if ticks == MAX_TICKS_PER_COMMIT {
                return Err(format!("commit of lsn {lsn} stalled after {ticks} ticks"));
            }
            if ticks > 0 {
                self.now_us += ACK_TIMEOUT_US;
            }
            on_tick(self)?;
            ticks += 1;
        }
        Ok(())
    }
}

/// The workload, with or without the monitor and the journal (the
/// traced run's ladder) and with or without replication.
pub struct Quorum {
    seed: u64,
    model: Model,
    journal: bool,
    replicate: bool,
    ops: Vec<Args>,
}

impl Quorum {
    /// The full configuration over the stream of `seed`.
    pub fn new(seed: u64) -> Self {
        Self::configured(seed, true, true, true)
    }

    fn configured(seed: u64, monitor: bool, journal: bool, replicate: bool) -> Self {
        Quorum {
            seed,
            model: model(monitor),
            journal,
            replicate,
            ops: ops(seed),
        }
    }
}

impl Bench for Quorum {
    type System = System;

    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn setup(&self) -> Result<System, String> {
        let mut broker =
            GenericBroker::from_model(&self.model, hub(self.seed)).map_err(|e| e.to_string())?;
        if self.journal {
            broker.enable_journal(SNAPSHOT_EVERY);
        }
        let rep = QuorumReplicator::from_model(&self.model, NODES[0])
            .map_err(|e| e.to_string())?
            .ok_or("the model declares no replica set")?;
        let link = Link {
            latency: LatencyModel::fixed_ms(1),
            loss: LINK_LOSS,
            up: true,
        };
        Ok(System {
            broker,
            rep,
            standbys: NODES[1..].iter().map(|n| Standby::new(n)).collect(),
            net: Network::new(link, self.seed ^ 0x006e_6574),
            now_us: 0,
        })
    }

    fn op(&self, sys: &mut System, i: usize) -> Result<Status, String> {
        let r = sys
            .broker
            .call("op", &self.ops[i])
            .map_err(|e| e.to_string())?;
        if self.replicate {
            let lsn = sys.broker.state().version();
            sys.commit(lsn, |s| s.tick().map(drop))?;
        }
        Ok(if r.outcome.is_ok() {
            Status::Done
        } else {
            Status::Failed
        })
    }

    fn check(&self, sys: &mut System, _tally: &Tally) -> Result<(), String> {
        drain(sys)?;
        check(sys)
    }
}

/// Ticks until every lane acknowledged the whole journal.
fn drain(sys: &mut System) -> Result<(), String> {
    for _ in 0..MAX_TICKS_PER_COMMIT {
        if sys.rep.synced() {
            return Ok(());
        }
        sys.now_us += ACK_TIMEOUT_US;
        sys.tick()?;
    }
    Err("replicas did not catch up after the final commit".to_owned())
}

/// The output checks after the final tick.
pub fn check(sys: &System) -> Result<(), String> {
    let version = sys.broker.state().version();
    if sys.rep.commit_lsn() != version {
        return Err(format!(
            "commit lsn {} != primary state version {version}",
            sys.rep.commit_lsn()
        ));
    }
    let primary = sys.broker.journal_bytes().ok_or("journaling is off")?;
    for sb in &sys.standbys {
        if sb.journal_bytes() != primary {
            return Err(format!(
                "standby {} mirrors {} journal bytes, the primary holds {}",
                sb.node(),
                sb.journal_bytes().len(),
                primary.len()
            ));
        }
        if let Some(d) = sb.state().first_divergence(sys.broker.state()) {
            return Err(format!("standby {} state diverges: {d}", sb.node()));
        }
    }
    if !sys.broker.monitor_trips().is_empty() {
        return Err("the tierValid monitor tripped".to_owned());
    }
    Ok(())
}

struct Round {
    rungs: [Acc; 3],
    untraced_ns: f64,
    traced_ns: f64,
    call: Acc,
    tick: Acc,
    guard: Acc,
    /// Tick time per op, op by op (ns).
    tick_ns: Vec<u64>,
    shipped: u64,
    loop_allocs: u64,
    counts: BrokerCounts,
    retransmits: u64,
}

fn round(seed: u64, policies: &[Expr], tracer: &Tracer) -> Result<Round, String> {
    // Ladder: bare engine, +monitor, +journal — calls only, no shipping.
    let ladder = [
        Quorum::configured(seed, false, false, false),
        Quorum::configured(seed, true, false, false),
        Quorum::configured(seed, true, true, false),
    ];
    let mut rungs = [Acc::default(); 3];
    for (acc, bench) in rungs.iter_mut().zip(&ladder) {
        let mut sys = bench.setup()?;
        for i in 0..bench.ops() {
            tracer.span(acc, || bench.op(&mut sys, i))?;
        }
    }

    let bench = Quorum::new(seed);
    let n = bench.ops();
    tracer.pause();
    let mut sys = bench.setup()?;
    let t = Instant::now();
    for i in 0..n {
        bench.op(&mut sys, i)?;
    }
    let untraced_ns = t.elapsed().as_nanos() as f64 / n as f64;
    tracer.resume();

    let mut sys = bench.setup()?;
    let (mut call, mut tick, mut guard) = (Acc::default(), Acc::default(), Acc::default());
    let mut tick_ns = Vec::with_capacity(n);
    let mut shipped = 0u64;
    let a0 = tracer.allocs();
    let t = Instant::now();
    for args in &bench.ops {
        let r = tracer
            .span(&mut call, || sys.broker.call("op", args))
            .map_err(|e| e.to_string())?;
        if !r.outcome.is_ok() {
            return Err("a write failed".to_owned());
        }
        let before = tick.ns;
        let lsn = sys.broker.state().version();
        sys.commit(lsn, |s| {
            let report = tracer.span(&mut tick, || s.tick())?;
            shipped += report.shipped;
            Ok(())
        })?;
        tick_ns.push(tick.ns - before);
    }
    let traced_ns = t.elapsed().as_nanos() as f64 / n as f64;
    let loop_allocs = tracer.allocs() - a0;
    crate::time_guards(tracer, &mut guard, sys.broker.state(), policies)?;
    drain(&mut sys)?;
    check(&sys)?;
    Ok(Round {
        rungs,
        untraced_ns,
        traced_ns,
        call,
        tick,
        guard,
        tick_ns,
        shipped,
        loop_allocs,
        counts: BrokerCounts::of(&sys.broker),
        retransmits: sys.rep.retransmits(),
    })
}

/// The traced run: the broker ladder, then an untraced and a traced pass
/// of committed writes, repeated for `seconds`.
pub fn traced(seed: u64, seconds: u64, tracer: &Tracer) -> Result<Layers, String> {
    let policies = crate::model_policies(&model(true))?;
    let rounds = crate::rounds(seconds, || round(seed, &policies, tracer))?;
    let n = OPS as f64;
    let first = &rounds[0];
    let mut l = Layers::default();
    let rung_ns = |k: usize| best(&rounds, |r| r.rungs[k].ns_per_span());
    let rung_allocs = |k: usize| first.rungs[k].allocs_per_span();
    l.set("broker.engine.ns_per_call", rung_ns(0));
    l.set("broker.engine.allocs_per_call", rung_allocs(0));
    l.set("broker.monitor.ns_per_call", rung_ns(1) - rung_ns(0));
    l.set(
        "broker.monitor.allocs_per_call",
        rung_allocs(1) - rung_allocs(0),
    );
    l.set("broker.journal.ns_per_call", rung_ns(2) - rung_ns(1));
    l.set(
        "broker.journal.allocs_per_call",
        rung_allocs(2) - rung_allocs(1),
    );
    l.set(
        "broker.state.guard_eval_ns",
        best(&rounds, |r| r.guard.ns_per_span()),
    );
    first.counts.report(&mut l, n);
    l.set(
        "broker.replication.tick_ns_per_op",
        best(&rounds, |r| r.tick.ns as f64 / n),
    );
    let quarter = |r: &Round, from: usize| {
        let q = &r.tick_ns[from..from + OPS / 4];
        q.iter().sum::<u64>() as f64 / q.len() as f64
    };
    l.set(
        "broker.replication.tick_ns_first_quarter",
        best(&rounds, |r| quarter(r, 0)),
    );
    l.set(
        "broker.replication.tick_ns_last_quarter",
        best(&rounds, |r| quarter(r, OPS - OPS / 4)),
    );
    l.set(
        "broker.replication.allocs_per_op",
        first.tick.allocs as f64 / n,
    );
    l.set(
        "broker.replication.lines_shipped_per_commit",
        first.shipped as f64 / n,
    );
    l.set(
        "broker.replication.ticks_per_commit",
        first.tick.n as f64 / n,
    );
    l.set("broker.replication.retransmits", first.retransmits as f64);
    let traced_ns = best(&rounds, |r| r.traced_ns);
    l.set("trace.ns_per_op", traced_ns);
    l.set("trace.allocs_per_op", first.loop_allocs as f64 / n);
    l.set(
        "trace.overhead_pct",
        (traced_ns / best(&rounds, |r| r.untraced_ns) - 1.0) * 100.0,
    );
    l.set(
        "trace.layer_coverage",
        middle(&rounds, |r| {
            ratio((r.call.ns + r.tick.ns) as f64 / n, r.traced_ns)
        }),
    );
    l.rounds = rounds.len();
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(ops(5), ops(5));
        assert_ne!(ops(5), ops(6));
    }

    fn episode(seed: u64) -> System {
        let bench = Quorum::new(seed);
        let mut sys = bench.setup().unwrap();
        for i in 0..200 {
            assert_eq!(bench.op(&mut sys, i).unwrap(), Status::Done);
        }
        drain(&mut sys).unwrap();
        sys
    }

    #[test]
    fn committed_writes_reach_every_replica() {
        let sys = episode(11);
        check(&sys).unwrap();
        assert!(sys.rep.commit_lsn() > 0);
    }

    #[test]
    fn checks_reject_a_diverged_standby() {
        let mut sys = episode(11);
        // A standby whose state differs from the primary's.
        let mut bytes = sys.standbys[0].journal_bytes().to_vec();
        bytes.truncate(bytes.len() / 2);
        let cut = bytes.iter().rposition(|&b| b == b'\n').unwrap() + 1;
        sys.standbys[0] = Standby::from_mirror("b", &bytes[..cut], 1).unwrap();
        assert!(check(&sys).is_err());
        // A primary that wrote past the commit point.
        let mut sys = episode(11);
        sys.broker.call("op", &ops(11)[0]).unwrap();
        assert!(check(&sys).is_err());
    }
}
