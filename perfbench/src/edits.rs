//! `model_edits`: the CVM platform (`build_cvm`) driven through
//! `submit_text` — the models@runtime path. One op is one submission of
//! the whole edited CML model; the platform parses it, diffs it against
//! the running model, synthesizes commands through the LTS, and the
//! controller runs them as Case-1 actions or Case-2 intent models over the
//! NCB broker.
//!
//! Edits are a seeded sequence of creates, updates and deletes of one
//! connection at a time. A seeded few percent run while `sim.media` is
//! unhealthy, so the controller adapts and regenerates intent models.

use crate::episode::{Bench, Status, Tally};
use crate::trace::{ratio, Acc, Tracer};
use crate::{best, middle, Layers};
use cvm::ncb::ncb_broker_model;
use cvm::platform::{cvm_domain_knowledge, cvm_platform_model};
use cvm::services::service_hub;
use mddsm_broker::GenericBroker;
use mddsm_controller::{
    BrokerPort, ClassificationPolicy, CommandClassifier, ControllerEngine, ExecutionReport,
    PortResponse,
};
use mddsm_core::port::BrokerAdapter;
use mddsm_core::{MdDsmPlatform, PlatformSpec};
use mddsm_meta::constraint::Expr;
use mddsm_synthesis::{ChangeInterpreter, InterpreterConfig, SynthesisEngine};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Edits per episode.
pub const OPS: usize = 1_000;
/// Busy-work rounds per simulated service call: small, so the middleware
/// layers, not the simulated services, dominate an edit.
const WORK: u32 = 10;
/// The people every model declares.
const PEOPLE: [&str; 6] = ["ana", "bob", "carol", "dave", "erin", "frank"];
/// Codecs an update cycles through.
const CODECS: [&str; 4] = ["opus", "opus-hd", "g722", "pcmu"];
/// Most media one connection carries.
const MAX_MEDIA: usize = 3;
/// Share of connection creations that run while `sim.media` is down.
const UNHEALTHY_CREATES: f64 = 0.25;

/// The kind of one edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A new connection with two parties and one medium.
    Create,
    /// A medium's codec changes (Case 1: `fastReconfigure`).
    Codec,
    /// A person joins the connection (Case 2).
    AddParty,
    /// A new medium joins the connection (Case 2).
    AddMedium,
    /// The connection and its media are removed (Case 1: `fastTeardown`).
    Delete,
}

/// One generated edit: the full model text after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// What changed.
    pub kind: Kind,
    /// The whole model after the edit, in the textual format.
    pub text: String,
    /// Whether `sim.media` is down while the edit runs.
    pub unhealthy: bool,
}

struct Conn {
    id: u64,
    parties: Vec<usize>,
    /// `(medium id, codec, reconfigurable)`. Only a medium the creation
    /// opened on the healthy media engine is a stream of its own: one
    /// opened while `sim.media` was down runs over the relay, and media
    /// added later open as one joint stream.
    media: Vec<(u64, &'static str, bool)>,
}

fn render(conn: Option<&Conn>) -> String {
    let mut s =
        String::from("model m conformsTo cml {\n  CommSchema s { name = \"bench\" persons -> [");
    let persons: Vec<String> = (0..PEOPLE.len()).map(|p| format!("p{p}")).collect();
    s.push_str(&persons.join(", "));
    s.push(']');
    if let Some(c) = conn {
        let media: Vec<String> = c.media.iter().map(|(m, ..)| format!("v{m}")).collect();
        let _ = write!(
            s,
            " media -> [{}] connections -> [c{}]",
            media.join(", "),
            c.id
        );
    }
    s.push_str(" }\n");
    for (p, name) in PEOPLE.iter().enumerate() {
        let _ = writeln!(
            s,
            "  Person p{p} {{ name = \"{name}\" userId = \"{name}@cvm\" }}"
        );
    }
    if let Some(c) = conn {
        for (m, codec, _) in &c.media {
            let _ = writeln!(
                s,
                "  Medium v{m} {{ name = \"v{m}\" kind = MediaKind::Audio codec = \"{codec}\" }}"
            );
        }
        let parties: Vec<String> = c.parties.iter().map(|p| format!("p{p}")).collect();
        let media: Vec<String> = c.media.iter().map(|(m, ..)| format!("v{m}")).collect();
        let _ = writeln!(
            s,
            "  Connection c{id} {{ name = \"c{id}\" parties -> [{}] media -> [{}] }}",
            parties.join(", "),
            media.join(", "),
            id = c.id
        );
    }
    s.push_str("}\n");
    s
}

/// The seeded edit stream.
pub fn ops(seed: u64) -> Vec<Edit> {
    let mut rng = mddsm_sim::SimRng::seed_from_u64(seed ^ 0x6564_6974);
    let mut live: Option<Conn> = None;
    let mut next_id = 0u64;
    let mut fresh = || {
        next_id += 1;
        next_id
    };
    (0..OPS)
        .map(|_| {
            let mut unhealthy = false;
            let kind = match &mut live {
                None => {
                    let a = rng.index(PEOPLE.len());
                    let b = (a + 1 + rng.index(PEOPLE.len() - 1)) % PEOPLE.len();
                    unhealthy = rng.chance(UNHEALTHY_CREATES);
                    live = Some(Conn {
                        id: fresh(),
                        parties: vec![a, b],
                        media: vec![(fresh(), "opus", !unhealthy)],
                    });
                    Kind::Create
                }
                Some(c) => {
                    let r = rng.unit();
                    let outsider = (0..PEOPLE.len()).find(|p| !c.parties.contains(p));
                    let streams: Vec<usize> =
                        (0..c.media.len()).filter(|m| c.media[*m].2).collect();
                    if r < 0.15 {
                        Kind::Delete
                    } else if let (true, Some(p)) = (r < 0.45, outsider) {
                        c.parties.push(p);
                        Kind::AddParty
                    } else if (r < 0.60 || streams.is_empty()) && c.media.len() < MAX_MEDIA {
                        c.media.push((fresh(), "opus", false));
                        Kind::AddMedium
                    } else if streams.is_empty() {
                        Kind::Delete
                    } else {
                        let codec = &mut c.media[streams[rng.index(streams.len())]].1;
                        let now = CODECS.iter().position(|x| x == codec).unwrap_or(0);
                        *codec = CODECS[(now + 1 + rng.index(CODECS.len() - 1)) % CODECS.len()];
                        Kind::Codec
                    }
                }
            };
            if kind == Kind::Delete {
                live = None;
            }
            Edit {
                kind,
                text: render(live.as_ref()),
                unhealthy,
            }
        })
        .collect()
}

/// The workload over the stream of one seed.
pub struct Edits {
    seed: u64,
    ops: Vec<Edit>,
}

/// The platform plus the caller's accounting of resource invocations.
pub struct System {
    /// The generated CVM platform.
    pub platform: MdDsmPlatform,
    /// Sum of `broker_calls` over every report.
    pub broker_calls: u64,
    /// Invocations beyond their report on edits that ran with `sim.media`
    /// down: a failed intent-model attempt reports one broker call, though
    /// it may have made more before the failing one.
    pub unreported: u64,
    /// Edits whose invocations the report does not account for: a healthy
    /// edit logging other than its `broker_calls`, or an adapted one
    /// logging fewer.
    pub miscounted: u64,
    logged: u64,
    media_down: bool,
}

impl Edits {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Self {
        Edits {
            seed,
            ops: ops(seed),
        }
    }
}

impl Bench for Edits {
    type System = System;

    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn setup(&self) -> Result<System, String> {
        Ok(System {
            platform: cvm::build_cvm(self.seed, WORK),
            broker_calls: 0,
            unreported: 0,
            miscounted: 0,
            logged: 0,
            media_down: false,
        })
    }

    fn prepare(&self, sys: &mut System, i: usize) -> Result<(), String> {
        let down = self.ops[i].unhealthy;
        if down != sys.media_down {
            let broker = sys.platform.broker_mut().ok_or("no broker layer")?;
            broker.hub_mut().set_healthy("sim.media", !down);
            if !down {
                let ctl = sys.platform.controller_mut().ok_or("no controller layer")?;
                ctl.context_mut().clear_failures();
            }
            sys.media_down = down;
        }
        Ok(())
    }

    fn op(&self, sys: &mut System, i: usize) -> Result<Status, String> {
        let report = sys
            .platform
            .submit_text(&self.ops[i].text)
            .map_err(|e| format!("edit {i} ({:?}) failed: {e}", self.ops[i].kind))?;
        let calls = report.execution.broker_calls;
        let logged = sys.platform.broker().map_or(0, |b| b.hub().log().len()) as u64;
        let delta = logged - sys.logged;
        sys.logged = logged;
        sys.broker_calls += calls;
        match (sys.media_down, delta.checked_sub(calls)) {
            (_, Some(0)) => {}
            (true, Some(extra)) => sys.unreported += extra,
            _ => sys.miscounted += 1,
        }
        Ok(Status::Done)
    }

    fn check(&self, sys: &mut System, _tally: &Tally) -> Result<(), String> {
        check(sys)
    }
}

/// The output check: the hub's command trace is as long as the reported
/// `broker_calls` add up to, every healthy edit exactly so.
pub fn check(sys: &System) -> Result<(), String> {
    let logged = sys.platform.broker().map_or(0, |b| b.hub().log().len()) as u64;
    if sys.miscounted > 0 || logged != sys.broker_calls + sys.unreported {
        return Err(format!(
            "the hub logged {logged} invocations, the reports {} broker calls \
             ({} more on adapted edits, {} edits miscounted)",
            sys.broker_calls, sys.unreported, sys.miscounted
        ));
    }
    Ok(())
}

/// Times the broker port: every call the controller makes into the broker
/// layer.
struct TimingPort<'a, 't> {
    inner: BrokerAdapter<'a>,
    tracer: &'t Tracer,
    acc: Acc,
}

impl BrokerPort for TimingPort<'_, '_> {
    fn invoke(&mut self, api: &str, op: &str, args: &[(String, String)]) -> PortResponse {
        let inner = &mut self.inner;
        self.tracer
            .span(&mut self.acc, || inner.invoke(api, op, args))
    }
}

/// The platform's layer objects, assembled from the same public
/// constructors and domain knowledge `PlatformBuilder::build` uses.
struct Assembled {
    synthesis: SynthesisEngine,
    controller: ControllerEngine,
    broker: GenericBroker,
}

fn assemble(seed: u64) -> Result<Assembled, String> {
    let spec = PlatformSpec::from_model(&cvm_platform_model()).map_err(|e| e.to_string())?;
    let dsk = cvm_domain_knowledge();
    let unmatched = spec
        .synthesis_unmatched
        .ok_or("CVM declares a synthesis layer")?;
    let synthesis = SynthesisEngine::new(
        Arc::new(dsk.dsml.clone()),
        ChangeInterpreter::new(dsk.lts.clone(), InterpreterConfig { unmatched }),
    );
    let config = spec
        .controller
        .clone()
        .ok_or("CVM declares a controller layer")?;
    let mut classifier = CommandClassifier::new(ClassificationPolicy {
        prefer: spec
            .controller_prefer
            .unwrap_or(mddsm_controller::Case::Predefined),
        low_memory_prefers_dynamic: spec.controller_low_memory_dynamic,
        overrides: Default::default(),
    });
    for (cmd, dsc) in &dsk.command_map {
        classifier.map_command(cmd, dsc);
    }
    let mut controller = ControllerEngine::new(
        dsk.dscs.clone(),
        dsk.procedures.clone(),
        dsk.actions.clone(),
        classifier,
        config,
    )
    .map_err(|e| e.to_string())?;
    for (topic, cmd) in &dsk.event_commands {
        controller.map_event(topic, cmd.clone());
    }
    let broker = GenericBroker::from_model(&ncb_broker_model(), service_hub(seed, WORK))
        .map_err(|e| e.to_string())?;
    Ok(Assembled {
        synthesis,
        controller,
        broker,
    })
}

#[derive(Default)]
struct Spans {
    parse: Acc,
    submit: Acc,
    notify: Acc,
    /// `execute_script`, including the port time inside it.
    controller: Acc,
    port: Acc,
    guard: Acc,
    commands: u64,
    report: ExecutionReport,
}

/// Runs one edit through the assembled layers in `submit_model`'s order,
/// including the single event follow-up round.
fn traced_edit(a: &mut Assembled, edit: &Edit, t: &Tracer, s: &mut Spans) -> Result<(), String> {
    let model = t
        .span(&mut s.parse, || mddsm_meta::text::parse(&edit.text))
        .map_err(|e| e.to_string())?;
    let out = t
        .span(&mut s.submit, || a.synthesis.submit(model))
        .map_err(|e| e.to_string())?;
    s.commands += out.immediate.len() as u64;
    let mut port = TimingPort {
        inner: BrokerAdapter::new(&mut a.broker),
        tracer: t,
        acc: Acc::default(),
    };
    let mut report = ExecutionReport::default();
    if !out.immediate.is_empty() {
        let controller = &mut a.controller;
        report = t
            .span(&mut s.controller, || {
                controller.execute_script(&out.immediate, &mut port)
            })
            .map_err(|e| e.to_string())?;
    }
    for topic in report.events.clone() {
        let synthesis = &mut a.synthesis;
        let script = t
            .span(&mut s.notify, || synthesis.notify_event(&topic))
            .map_err(|e| e.to_string())?;
        if !script.is_empty() {
            let controller = &mut a.controller;
            let r = t
                .span(&mut s.controller, || {
                    controller.execute_script(&script, &mut port)
                })
                .map_err(|e| e.to_string())?;
            report.merge(&r);
        }
    }
    s.port.ns += port.acc.ns;
    s.port.allocs += port.acc.allocs;
    s.port.n += port.acc.n;
    s.report.merge(&report);
    Ok(())
}

struct Round {
    untraced_ns: f64,
    traced_ns: f64,
    spans: Spans,
    loop_allocs: u64,
    cache: (u64, u64),
}

fn round(bench: &Edits, policies: &[Expr], tracer: &Tracer) -> Result<Round, String> {
    let n = bench.ops();
    // Untraced pass through the generated platform.
    tracer.pause();
    let mut sys = bench.setup()?;
    let t = Instant::now();
    for i in 0..n {
        bench.prepare(&mut sys, i)?;
        bench.op(&mut sys, i)?;
    }
    let untraced_ns = t.elapsed().as_nanos() as f64 / n as f64;
    tracer.resume();
    check(&sys)?;

    // Traced pass through the hand-assembled layers.
    let mut a = assemble(bench.seed)?;
    let mut spans = Spans::default();
    let mut down = false;
    let a0 = tracer.allocs();
    let t = Instant::now();
    for edit in &bench.ops {
        if edit.unhealthy != down {
            down = edit.unhealthy;
            a.broker.hub_mut().set_healthy("sim.media", !down);
            if !down {
                a.controller.context_mut().clear_failures();
            }
        }
        traced_edit(&mut a, edit, tracer, &mut spans)?;
    }
    let traced_ns = t.elapsed().as_nanos() as f64 / n as f64;
    let loop_allocs = tracer.allocs() - a0;
    if a.broker.hub().command_trace() != sys.platform.command_trace() {
        return Err("the traced layers' command trace differs from the platform's".to_owned());
    }
    crate::time_guards(tracer, &mut spans.guard, a.broker.state(), policies)?;
    let (hits, misses, _) = a.controller.cache_stats();
    Ok(Round {
        untraced_ns,
        traced_ns,
        spans,
        loop_allocs,
        cache: (hits, misses),
    })
}

/// The traced run: an untraced platform pass and a traced pass over the
/// hand-assembled layers, repeated for `seconds`.
pub fn traced(seed: u64, seconds: u64, tracer: &Tracer) -> Result<Layers, String> {
    let bench = Edits::new(seed);
    let policies = crate::model_policies(&ncb_broker_model())?;
    let rounds = crate::rounds(seconds, || round(&bench, &policies, tracer))?;
    let n = bench.ops() as f64;
    let first = &rounds[0].spans;
    let mut l = Layers::default();
    l.set(
        "meta.text.parse_ns_per_edit",
        best(&rounds, |r| r.spans.parse.ns as f64 / n),
    );
    l.set("meta.text.allocs_per_edit", first.parse.allocs as f64 / n);
    l.set(
        "synthesis.submit_ns_per_edit",
        best(&rounds, |r| r.spans.submit.ns as f64 / n),
    );
    l.set("synthesis.commands_per_edit", first.commands as f64 / n);
    l.set(
        "controller.engine.self_ns_per_edit",
        best(&rounds, |r| {
            (r.spans.controller.ns - r.spans.port.ns) as f64 / n
        }),
    );
    l.set("controller.case1_per_edit", first.report.case1 as f64 / n);
    l.set("controller.case2_per_edit", first.report.case2 as f64 / n);
    l.set("controller.adaptations", first.report.adaptations as f64);
    let (hits, misses) = rounds[0].cache;
    l.set(
        "controller.intent.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    l.set(
        "broker.engine.port_ns_per_edit",
        best(&rounds, |r| r.spans.port.ns as f64 / n),
    );
    l.set("broker.calls_per_edit", first.port.n as f64 / n);
    l.set(
        "broker.engine.ns_per_call",
        best(&rounds, |r| r.spans.port.ns_per_span()),
    );
    l.set(
        "broker.engine.allocs_per_call",
        first.port.allocs_per_span(),
    );
    l.set(
        "broker.state.guard_eval_ns",
        best(&rounds, |r| r.spans.guard.ns_per_span()),
    );
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
            let s = &r.spans;
            (s.parse.ns + s.submit.ns + s.notify.ns + s.controller.ns) as f64 / n / r.traced_ns
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
        assert_eq!(ops(2), ops(2));
        assert_ne!(ops(2), ops(3));
        let stream = ops(2);
        for kind in [
            Kind::Create,
            Kind::Codec,
            Kind::AddParty,
            Kind::AddMedium,
            Kind::Delete,
        ] {
            assert!(stream.iter().any(|e| e.kind == kind), "no {kind:?} edit");
        }
        assert!(stream.iter().any(|e| e.unhealthy));
    }

    #[test]
    fn every_edit_submits_and_the_calls_add_up() {
        let bench = Edits::new(4);
        let mut sys = bench.setup().unwrap();
        for i in 0..bench.ops() {
            bench.prepare(&mut sys, i).unwrap();
            bench.op(&mut sys, i).unwrap();
        }
        check(&sys).unwrap();
        assert!(
            sys.unreported > 0,
            "no edit adapted around the media failure"
        );
        // A report that lost one broker call is caught.
        sys.broker_calls -= 1;
        assert!(check(&sys).is_err());
    }
}
