//! The broker's one commit frame: every write to the runtime model — a
//! command's effects, an admission verdict, an autonomic plan, a brownout
//! step, a raw write — is checked by the monitors inside the frame that
//! made it, then journaled. A journal changes what is kept, never what is
//! verified, so a journaled and an unjournaled broker agree step by step.

use mddsm_broker::journal;
use mddsm_broker::{
    AdmittedOutcome, BrokerError, BrokerModelBuilder, CallMeta, GenericBroker, MonitorTrip, Standby,
};
use mddsm_meta::Model;
use mddsm_sim::resource::{Args, Outcome};
use mddsm_sim::{LatencyModel, ResourceHub, SimDuration, SimRng};

fn hub() -> ResourceHub {
    let mut h = ResourceHub::new(3);
    h.register(
        "sim.svc",
        LatencyModel::fixed_ms(1),
        SimDuration::from_millis(100),
        Box::new(|_: &str, _: &Args| Outcome::ok()),
    );
    // Every third invocation fails, so breakers and failure counters move.
    let mut calls = 0u64;
    h.register_fn("sim.flaky", move |_, _| {
        calls += 1;
        if calls.is_multiple_of(3) {
            Outcome::Failed("flaky".into())
        } else {
            Outcome::ok()
        }
    });
    h
}

fn broker(model: &Model, journaled: bool) -> GenericBroker {
    let mut b = GenericBroker::from_model(model, hub()).expect("model loads");
    if journaled {
        b.enable_journal(8);
    }
    b
}

fn names(trips: &[MonitorTrip]) -> Vec<&str> {
    trips.iter().map(|t| t.monitor.as_str()).collect()
}

/// The monitors a standby armed like `b` reports when fed `b`'s journal.
fn standby_trips(b: &GenericBroker) -> Vec<String> {
    let mut sb = Standby::new("sb");
    sb.arm_monitors(b.monitors().expect("monitored").clone());
    let text = std::str::from_utf8(b.journal_bytes().expect("journaled")).unwrap();
    for (i, line) in text.lines().enumerate() {
        sb.receive(i as u64, line, b.epoch()).unwrap();
    }
    sb.monitor_trips()
        .iter()
        .map(|t| t.monitor.clone())
        .collect()
}

/// After a frame tripped `monitor`: the broker is latched and logged the
/// trip, the next call is refused, and a standby fed the journal (when
/// there is one) reports the same trip.
fn assert_tripped_in_frame(b: &mut GenericBroker, monitor: &str, journaled: bool) {
    assert!(b.monitor_latched(), "journaled={journaled}: not latched");
    assert_eq!(names(b.monitor_trips()), [monitor], "journaled={journaled}");
    assert!(
        matches!(
            b.call("serve", &Args::new()),
            Err(BrokerError::MonitorTripped { .. })
        ),
        "journaled={journaled}: the next call was served"
    );
    if journaled {
        assert_eq!(standby_trips(b), [monitor]);
    }
}

/// One admission-controlled `serve` handler on `sim.svc`, billed to class
/// `c`, plus whatever `extend` adds.
fn served(name: &str, extend: impl Fn(BrokerModelBuilder) -> BrokerModelBuilder) -> Model {
    let b = BrokerModelBuilder::new(name)
        .call_handler("h", "serve")
        .action("h", "doServe", "svc", "go", &[], None, &["served=+1"])
        .with_admission("h", 100, "c")
        .admission_class("c", 100, 1_000, 0, 0)
        .bind_resource("svc", "sim.svc");
    extend(b).build()
}

/// A call whose deadline passed before it arrived: admission sheds it.
fn expired() -> CallMeta {
    CallMeta::new("c", 0).with_deadline(1)
}

#[test]
fn an_autonomic_plan_write_trips_inside_its_tick() {
    let model = served("plan", |b| {
        b.autonomic_rule(
            "busy",
            "self.served <> null and self.served >= 1",
            &["set k 5"],
        )
        .monitor("kLow", "self.k = null or self.k < 3")
    });
    for journaled in [false, true] {
        let mut b = broker(&model, journaled);
        b.call("serve", &Args::new()).unwrap();
        assert!(b.autonomic_tick().unwrap().is_empty());
        assert_eq!(b.state().int("k"), Some(5));
        assert_tripped_in_frame(&mut b, "kLow", journaled);
    }
}

#[test]
fn a_brownout_enter_step_trips_inside_its_tick() {
    let model = served("bo", |b| {
        b.brownout_mode(
            "lite",
            1,
            1_000_000,
            2_000,
            2,
            0,
            &["set svc_mode bogus"],
            &["set svc_mode full"],
        )
        .monitor(
            "modeKnown",
            "self.svc_mode = null or self.svc_mode = \"full\" or self.svc_mode = \"lite\"",
        )
    });
    for journaled in [false, true] {
        let mut b = broker(&model, journaled);
        b.advance_clock(SimDuration::from_millis(1));
        for _ in 0..2 {
            let r = b.call_admitted("serve", &Args::new(), &expired()).unwrap();
            assert!(matches!(r, AdmittedOutcome::Shed { .. }), "{r:?}");
        }
        let (t, _) = b.brownout_tick().unwrap();
        assert_eq!(t.map(|t| t.to), Some("lite".to_owned()));
        assert_tripped_in_frame(&mut b, "modeKnown", journaled);
    }
}

#[test]
fn an_admission_shed_write_trips_and_refuses_its_call() {
    let model = served("shed", |b| {
        b.monitor("noShed", "self.adm_c_shed = null or self.adm_c_shed < 1")
    });
    for journaled in [false, true] {
        let mut b = broker(&model, journaled);
        b.advance_clock(SimDuration::from_millis(1));
        let r = b.call_admitted("serve", &Args::new(), &expired());
        assert!(
            matches!(&r, Err(BrokerError::MonitorTripped { monitor, .. }) if monitor == "noShed"),
            "journaled={journaled}: {r:?}"
        );
        assert_eq!(b.state().int("adm_c_shed"), Some(1));
        assert_tripped_in_frame(&mut b, "noShed", journaled);
    }
}

#[test]
fn unjournaled_sheds_leave_no_pending_ops() {
    // A monitor arms op recording; this one never trips, so every call
    // below is shed.
    let model = served("sheds", |b| {
        b.monitor("servedNonNeg", "self.served = null or self.served >= 0")
    });
    let mut b = broker(&model, false);
    b.advance_clock(SimDuration::from_millis(1));
    for _ in 0..10_000 {
        let r = b.call_admitted("serve", &Args::new(), &expired()).unwrap();
        assert!(matches!(r, AdmittedOutcome::Shed { .. }), "{r:?}");
    }
    assert_eq!(b.state().int("adm_c_shed"), Some(10_000));
    assert!(b.state().pending_ops().is_empty());
}

/// Calls, admitted calls and events; an autonomic plan and a brownout mode
/// whose writes the monitors watch; a flaky resource behind a breaker.
fn differential_model() -> Model {
    BrokerModelBuilder::new("diff")
        .policy("lite", "self.svc_mode = \"lite\"")
        .call_handler("put", "put")
        .action(
            "put",
            "doPut",
            "svc",
            "put",
            &[],
            None,
            &["k=+1", "puts=+1"],
        )
        .with_admission("put", 300, "c")
        .call_handler("get", "get")
        .action("get", "getLite", "svc", "get", &[], Some("lite"), &[])
        .with_admission("get", 50, "c")
        .action("get", "getFull", "svc", "get", &[], None, &[])
        .with_admission("get", 200, "c")
        .call_handler("try", "try")
        .resilient_action(
            "try",
            "doTry",
            "flaky",
            "go",
            &[],
            None,
            &["tries=+1"],
            &mddsm_broker::Resilience::breaker(2, 5),
        )
        .event_handler("ping", "ping")
        .action("ping", "onPing", "svc", "ack", &[], None, &["pings=+1"])
        .autonomic_rule(
            "pingStorm",
            "self.pings <> null and self.pings >= 3",
            &["set pings 9"],
        )
        .admission_class("c", 50, 1_000, 20_000, 0)
        .brownout_mode(
            "lite",
            1,
            1_000_000,
            2_000,
            2,
            0,
            &["set svc_mode lite"],
            &["set svc_mode full"],
        )
        .monitor("kLow", "self.k = null or self.k < 6")
        .monitor("pingsCap", "self.pings = null or self.pings < 5")
        .monitor(
            "modeKnown",
            "self.svc_mode = null or self.svc_mode = \"full\" or self.svc_mode = \"lite\"",
        )
        .monitor("shedCap", "self.adm_c_shed = null or self.adm_c_shed < 2")
        .bind_resource("svc", "sim.svc")
        .bind_resource("flaky", "sim.flaky")
        .build()
}

/// Kinds of op in the differential stream, drawn uniformly.
const PICKS: u64 = 13;

/// Applies op `pick` to `b` and renders what it returned.
fn step(b: &mut GenericBroker, pick: u64, arg: u64) -> String {
    let now = b.now().as_micros();
    match pick {
        0..=3 => {
            let op = if arg.is_multiple_of(2) { "put" } else { "get" };
            let meta = match arg % 5 {
                0 => CallMeta::new("c", now).with_deadline(1),
                _ => CallMeta::new("c", now),
            };
            format!("{:?}", b.call_admitted(op, &Args::new(), &meta))
        }
        4 | 5 => {
            let op = ["put", "try", "get"][arg as usize % 3];
            format!("{:?}", b.call(op, &Args::new()))
        }
        6 => format!("{:?}", b.event("ping", &Args::new())),
        7 => format!("{:?}", b.autonomic_tick()),
        8 => format!("{:?}", b.brownout_tick()),
        9 => {
            let (key, value) = [
                ("k", "7"),
                ("svc_mode", "bogus"),
                ("pings", "1"),
                ("k", "2"),
            ][arg as usize % 4];
            format!("{:?}", b.corrupt_state(key, value))
        }
        10 | 11 => {
            b.advance_clock(SimDuration::from_millis(arg % 7));
            String::new()
        }
        _ => {
            // An operator repair: reset every watched key, then the latch.
            let effects = [
                "k=0",
                "pings=0",
                "svc_mode=full",
                "adm_c_shed=0",
                "mon_trips=0",
            ];
            effects
                .iter()
                .map(|e| format!("{:?}", b.apply_effect(e)))
                .collect()
        }
    }
}

#[test]
fn journaled_and_unjournaled_brokers_settle_every_frame_alike() {
    let model = differential_model();
    for seed in 0..8 {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut plain = broker(&model, false);
        let mut journaled = broker(&model, true);
        for i in 0..400 {
            let (pick, arg) = (rng.range(0, PICKS), rng.next_u64());
            let a = step(&mut plain, pick, arg);
            let b = step(&mut journaled, pick, arg);
            assert_eq!(a, b, "seed {seed}, op {i} ({pick}): outcomes differ");
            assert_eq!(
                plain.monitor_trips(),
                journaled.monitor_trips(),
                "seed {seed}, op {i}: trip sequences differ"
            );
        }
        assert!(
            !plain.monitor_trips().is_empty(),
            "seed {seed}: the stream never tripped a monitor"
        );
        assert_eq!(plain.state().snapshot(), journaled.state().snapshot());
        assert_eq!(
            (plain.now(), plain.stats()),
            (journaled.now(), journaled.stats())
        );
        let replayed = journal::replay(journaled.journal_bytes().unwrap()).unwrap();
        assert_eq!(
            replayed.state.snapshot(),
            journaled.state().snapshot(),
            "seed {seed}: replay diverges from the live state"
        );
    }
}
