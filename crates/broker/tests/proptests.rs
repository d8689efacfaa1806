//! Property-style tests for the Broker layer: any well-formed broker model
//! dispatches deterministically, honours guard fall-through, and keeps its
//! monitoring counters consistent with the invocation log.
//!
//! Cases are generated with the simulator's [`SimRng`] over fixed seeds,
//! keeping the suite deterministic without an external property-testing
//! dependency.

use mddsm_broker::journal::{self, Journal, JournalRecord};
use mddsm_broker::{BrokerModelBuilder, GenericBroker, StateManager};
use mddsm_sim::resource::{args, Args, Outcome};
use mddsm_sim::{ResourceHub, SimRng};

fn hub() -> ResourceHub {
    let mut hub = ResourceHub::new(5);
    hub.register_fn("svc", |op, _| {
        if op.starts_with("bad") {
            Outcome::Failed("bad op".into())
        } else {
            Outcome::ok()
        }
    });
    hub
}

/// A broker with `n` handlers, each with `k` actions whose guards are
/// mode-indexed: action `j` of handler `i` requires `mode = j`.
fn guarded_broker(n: usize, k: usize) -> GenericBroker {
    let mut b = BrokerModelBuilder::new("pb");
    for j in 0..k {
        b = b.policy(&format!("mode{j}"), &format!("self.mode = {j}"));
    }
    for i in 0..n {
        let hname = format!("h{i}");
        b = b.call_handler(&hname, &format!("op{i}"));
        for j in 0..k {
            b = b.action(
                &hname,
                &format!("a{i}_{j}"),
                "svc",
                &format!("do{i}_{j}"),
                &[],
                Some(&format!("mode{j}")),
                &[],
            );
        }
        // Unguarded fallback.
        b = b.action(
            &hname,
            &format!("a{i}_fallback"),
            "svc",
            &format!("do{i}_fb"),
            &[],
            None,
            &[],
        );
    }
    GenericBroker::from_model(&b.build(), hub()).expect("generated model is valid")
}

/// The selected action is exactly the one whose guard matches the current
/// mode, falling back when none does.
#[test]
fn guard_selection_matches_mode() {
    for case in 0..48u64 {
        let mut gen = SimRng::seed_from_u64(0xB1_0000 + case);
        let n = gen.range(1, 4) as usize;
        let k = gen.range(1, 4) as usize;
        let mode = gen.range(0, 6) as i64;
        let op_idx = gen.range(0, 4) as usize;

        let mut broker = guarded_broker(n, k);
        broker.state_mut().set_int("mode", mode);
        let op = format!("op{}", op_idx % n);
        let result = broker.call(&op, &Args::new()).expect("handler exists");
        let expected = if (mode as usize) < k && mode >= 0 {
            format!("a{}_{}", op_idx % n, mode)
        } else {
            format!("a{}_fallback", op_idx % n)
        };
        assert_eq!(result.action, expected);
    }
}

/// Stats and failure counters always agree with the hub log.
#[test]
fn counters_agree_with_log() {
    for case in 0..48u64 {
        let mut gen = SimRng::seed_from_u64(0xB2_0000 + case);
        let len = gen.range(0, 20) as usize;
        let ops: Vec<(usize, bool)> = (0..len)
            .map(|_| (gen.range(0, 3) as usize, gen.chance(0.5)))
            .collect();

        let mut b = BrokerModelBuilder::new("cb");
        for i in 0..3 {
            b = b
                .call_handler(&format!("h{i}"), &format!("op{i}"))
                .action(
                    &format!("h{i}"),
                    &format!("ok{i}"),
                    "svc",
                    &format!("go{i}"),
                    &[],
                    None,
                    &[],
                )
                .call_handler(&format!("hb{i}"), &format!("bad{i}"))
                .action(
                    &format!("hb{i}"),
                    &format!("bad{i}"),
                    "svc",
                    &format!("bad{i}"),
                    &[],
                    None,
                    &[],
                );
        }
        let mut broker = GenericBroker::from_model(&b.build(), hub()).unwrap();
        let mut expected_calls = 0u64;
        let mut expected_failures = 0i64;
        for (i, fail) in &ops {
            let op = if *fail {
                format!("bad{i}")
            } else {
                format!("op{i}")
            };
            let r = broker.call(&op, &args(&[("k", "v")])).unwrap();
            expected_calls += 1;
            if *fail {
                assert!(!r.outcome.is_ok());
                expected_failures += 1;
            } else {
                assert!(r.outcome.is_ok());
            }
        }
        let (calls, events) = broker.stats();
        assert_eq!(calls, expected_calls);
        assert_eq!(events, 0);
        assert_eq!(broker.hub().log().len() as u64, expected_calls);
        assert_eq!(
            broker.state().int("failures_svc").unwrap_or(0),
            expected_failures
        );
    }
}

/// Any random seeded mutation sequence, journaled as it happens (with
/// snapshots dropped in at arbitrary points), replays to the exact same
/// model and version counter. This is the crash-consistency contract the
/// Broker's recovery path relies on.
///
/// The journals hold every record kind, in both wire dialects, so each case
/// also pins two more contracts: a standby rebuilt from the bytes reaches
/// the same model as recovery (one applier), and every line re-encodes
/// byte for byte (`encode(decode(line)) == line`, the frozen wire format).
#[test]
fn snapshot_plus_replay_reproduces_any_mutation_sequence() {
    use mddsm_broker::journal::CommandKind;
    use mddsm_broker::Standby;

    // Values exercise the journal's percent-escaping: spaces, %, newlines,
    // tabs, multi-byte UTF-8, and the empty string.
    const STRINGS: &[&str] = &[
        "plain",
        "a b",
        "100%",
        "line\nbreak",
        "tab\there",
        "αβ→γ",
        "",
    ];
    const KEYS: &[&str] = &["tier", "mode", "served", "failures_svc", "hb_x", "w"];
    let pick =
        |gen: &mut SimRng, from: &[&str]| from[gen.range(0, from.len() as u64) as usize].to_owned();
    let write = |state: &mut StateManager, gen: &mut SimRng, key: &str| match gen.range(0, 4) {
        0 => state.set_str(key, &pick(gen, STRINGS)),
        1 => state.set_int(key, gen.range(0, 2_000) as i64 - 1_000),
        2 => {
            state.bump(key, gen.range(0, 10) as i64 - 5);
        }
        _ => state.unset(key),
    };

    for case in 0..64u64 {
        let mut gen = SimRng::seed_from_u64(0xB4_0000 + case);
        let mut state = StateManager::new();
        state.record_ops(true);
        // snapshot_every = 0 disables size-triggered snapshots; the test
        // drops snapshots in by chance instead, so some journals replay
        // from scratch and some from a mid-sequence snapshot.
        let mut journal = Journal::in_memory(0);
        journal.set_framed(case % 2 == 0);
        let (mut clock_us, mut calls, mut events, mut model_version) = (0, 0, 0, 1);

        let steps = gen.range(1, 40);
        for _ in 0..steps {
            let key = pick(&mut gen, KEYS);
            let rec = match gen.range(0, 10) {
                // Two writes to one key in a frame coalesce.
                0 => {
                    write(&mut state, &mut gen, &key);
                    write(&mut state, &mut gen, &key);
                    let ops = state.take_ops();
                    JournalRecord::OpCoalesced {
                        first_lsn: ops[0].lsn(),
                        op: ops[1].clone(),
                    }
                }
                1 => {
                    if gen.chance(0.7) {
                        write(&mut state, &mut gen, &key);
                    }
                    model_version += 1;
                    JournalRecord::Upgrade {
                        version: model_version,
                        tag: pick(&mut gen, STRINGS),
                        ops: state.take_ops(),
                    }
                }
                2 => {
                    clock_us += gen.range(1, 500);
                    let kind = if gen.chance(0.5) {
                        calls += 1;
                        CommandKind::Call
                    } else {
                        events += 1;
                        CommandKind::Event
                    };
                    JournalRecord::Command {
                        clock_us,
                        kind,
                        selector: pick(&mut gen, STRINGS),
                        action: pick(&mut gen, STRINGS),
                        ok: gen.chance(0.5),
                        attempts: gen.range(0, 4) as u32,
                        cost_us: gen.range(0, 1_000),
                    }
                }
                3 => {
                    clock_us += gen.range(1, 500);
                    JournalRecord::Clock { clock_us }
                }
                4 => JournalRecord::Epoch {
                    epoch: gen.range(1, 6),
                },
                5 => JournalRecord::Note {
                    text: pick(&mut gen, STRINGS),
                },
                _ => {
                    write(&mut state, &mut gen, &key);
                    JournalRecord::Op(state.take_ops().remove(0))
                }
            };
            journal.record(&rec);
            if gen.chance(0.15) {
                journal.record(&JournalRecord::Snapshot {
                    state: state.snapshot(),
                    clock_us,
                    calls,
                    events,
                });
            }
        }

        let bytes = journal.bytes();
        let recovered = journal::replay(bytes).expect("journal replays");
        assert_eq!(
            recovered.state.snapshot(),
            state.snapshot(),
            "case {case}: replayed model diverged"
        );
        assert_eq!(recovered.state.version(), state.version());
        let counters = (recovered.clock_us, recovered.calls, recovered.events);
        assert_eq!(counters, (clock_us, calls, events), "case {case}");
        assert_eq!(recovered.model_version, model_version, "case {case}");

        let (sb, r) = (Standby::from_mirror("b", bytes, 1).unwrap(), &recovered);
        assert_eq!(sb.state().snapshot(), r.state.snapshot(), "case {case}");
        let standby = (sb.applied_lsn(), sb.model_version(), sb.epoch());
        let replayed = (r.state.version(), r.model_version, r.epoch);
        assert_eq!(
            standby, replayed,
            "case {case}: standby and replay disagree"
        );

        for line in std::str::from_utf8(bytes).unwrap().split_inclusive('\n') {
            let rec = journal::parse_line(line.trim_end_matches('\n')).expect("line parses");
            let again = if line.starts_with("v1 ") {
                journal::frame_record_checked(&rec)
            } else {
                journal::frame_record(&rec)
            };
            assert_eq!(again, line, "case {case}: line does not re-encode");
        }
    }
}

/// Any seeded interleaving of admitted calls, shed calls, deferred calls,
/// clock advances, and brownout-controller ticks, journaled as it runs,
/// recovers to the exact same runtime model — same state snapshot, same
/// version, same brownout mode, same counters, same clock. This is the
/// overload-control extension of the crash-consistency contract: admission
/// buckets and degraded modes live in the journaled state, so a crashed
/// broker resumes shedding and serving in exactly the mode it died in.
#[test]
fn overload_interleavings_replay_to_exact_state_and_mode() {
    use mddsm_broker::CallMeta;
    use mddsm_sim::SimDuration;

    for case in 0..32u64 {
        let mut gen = SimRng::seed_from_u64(0xB8_0000 + case);
        let model = BrokerModelBuilder::new("ob")
            .call_handler("req", "serve")
            .policy("lite", "self.svc_mode = \"lite\"")
            .action("req", "serveLite", "svc", "lite", &[], Some("lite"), &[])
            .action("req", "serveFull", "svc", "full", &[], None, &[])
            .with_admission("req", 800, "interactive")
            .admission_class(
                "interactive",
                gen.range(50, 400),
                gen.range(500, 3_000),
                15_000,
                40_000,
            )
            .brownout_mode(
                "lite",
                1,
                8_000,
                1_000,
                gen.range(1, 4),
                0,
                &["set svc_mode lite"],
                &["set svc_mode full"],
            )
            .build();
        let mut broker = GenericBroker::from_model(&model, hub()).unwrap();
        broker.enable_journal(0);

        let steps = gen.range(5, 60);
        for _ in 0..steps {
            match gen.range(0, 5) {
                0 | 1 => {
                    // A call that queued for a random while; may admit,
                    // defer, or shed depending on bucket and bounds.
                    let now = broker.now().as_micros();
                    let back = gen.range(0, 30_000);
                    let meta = CallMeta::new("interactive", now.saturating_sub(back));
                    broker.call_admitted("serve", &Args::new(), &meta).unwrap();
                }
                2 => {
                    broker.advance_clock(SimDuration::from_micros(gen.range(100, 10_000)));
                }
                3 => {
                    broker.brownout_tick().unwrap();
                }
                _ => {
                    // A call whose deadline is already behind the clock:
                    // guaranteed shed once the clock has moved at all.
                    let now = broker.now().as_micros();
                    let meta = CallMeta::new("interactive", now).with_deadline(1);
                    broker.call_admitted("serve", &Args::new(), &meta).unwrap();
                }
            }
        }

        let bytes = broker.journal_bytes().expect("journaling on").to_vec();
        let snap = broker.state().snapshot();
        let mode = broker.brownout_mode();
        let stats = broker.stats();
        let clock = broker.now().as_micros();
        let (rec, _) =
            GenericBroker::recover(&model, broker.into_hub(), &bytes, &[]).expect("recovers");
        assert_eq!(rec.state().snapshot(), snap, "case {case}: state diverged");
        assert_eq!(rec.state().version(), snap.version, "case {case}");
        assert_eq!(rec.brownout_mode(), mode, "case {case}: mode diverged");
        assert_eq!(rec.stats(), stats, "case {case}");
        assert_eq!(rec.now().as_micros(), clock, "case {case}");
    }
}

/// Any seeded interleaving of crash, stall, heal, and partition events
/// against a supervised primary and its hot standby (a one-member replica
/// set) yields exactly one promoted primary per epoch: epochs are unique
/// and strictly increasing, every promotion names exactly one component,
/// and a failed-over component produces no further decisions until it
/// rejoins.
#[test]
fn failover_interleavings_yield_one_primary_per_epoch() {
    use mddsm_broker::supervisor::{RestartPolicy, Supervisor, SupervisorDecision};
    use mddsm_sim::{SimDuration, SimTime};
    use std::collections::BTreeSet;

    const NODES: &[&str] = &["a", "b", "c"];
    for case in 0..64u64 {
        let mut gen = SimRng::seed_from_u64(0xB9_0000 + case);
        let mut sup = Supervisor::new(
            NODES,
            RestartPolicy {
                max_restarts: 1_000, // keep escalation out of this property
                window: SimDuration::from_millis(60_000),
                stall_after: SimDuration::from_millis(300),
            },
        );
        let mut primary = "a".to_string();
        sup.designate_replica_set("a", &["b"]);

        let mut t_us = 0u64;
        let mut seen_epochs = BTreeSet::new();
        let steps = gen.range(10, 60);
        for _ in 0..steps {
            t_us += gen.range(1_000, 400_000);
            let now = SimTime::from_micros(t_us);
            let node = NODES[gen.index(NODES.len())];
            match gen.range(0, 6) {
                0 => sup.crash_component(node),
                1 => sup.stall_component(node),
                2 => sup.note_partitioned(node, true),
                3 => sup.note_partitioned(node, false),
                _ => {
                    for n in NODES {
                        sup.heartbeat(n, now);
                    }
                }
            }
            // Sometimes a failed-over node finishes fencing + reconcile
            // and rejoins as the standby of the current primary.
            if gen.chance(0.3) {
                for n in NODES {
                    if sup.awaiting_rejoin(n) {
                        sup.rejoin(n, now);
                        sup.designate_replica_set(&primary, &[n]);
                        break;
                    }
                }
            }

            for d in sup.tick(now).unwrap() {
                assert!(
                    !sup.awaiting_rejoin(d.component())
                        || matches!(d, SupervisorDecision::Failover { .. }),
                    "case {case}: decision about a node that already left supervision: {d:?}"
                );
                if let SupervisorDecision::Failover {
                    component,
                    standby,
                    epoch,
                    ..
                } = d
                {
                    assert!(
                        seen_epochs.insert(epoch),
                        "case {case}: two promotions share epoch {epoch}"
                    );
                    assert_eq!(epoch, sup.epoch(), "case {case}");
                    assert_ne!(component, standby, "case {case}");
                    primary = standby;
                }
            }
        }

        // The promotion log agrees: one promoted component per epoch,
        // epochs strictly increasing from 2.
        let epochs: Vec<u64> = sup.promotions().iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs.len(), seen_epochs.len(), "case {case}");
        assert!(
            epochs.windows(2).all(|w| w[0] < w[1]),
            "case {case}: epochs not strictly increasing: {epochs:?}"
        );
        for (e, promoted) in sup.promotions() {
            assert!(*e >= 2, "case {case}");
            assert!(NODES.contains(&promoted.as_str()), "case {case}");
        }
    }
}

/// Any seeded interleaving of clean calls, corrupting writes (violating
/// and benign), quarantine rollbacks, and journal truncations yields
/// **identical monitor verdicts** between the live run and an independent
/// replay of its journal: same state (trip latches and counters are
/// journaled writes), and a recovered broker is latched exactly when the
/// live one was — refusing commands iff the live one would.
#[test]
fn monitor_verdicts_identical_between_live_run_and_replay() {
    use mddsm_broker::BrokerError;

    for case in 0..32u64 {
        let mut gen = SimRng::seed_from_u64(0xBA_0000 + case);
        let model = BrokerModelBuilder::new("mb")
            .call_handler("h", "open")
            .action("h", "doOpen", "svc", "open", &[], None, &["opens=+1"])
            .monitor("nonneg", "always self.opens = null or self.opens >= 0")
            .build();
        let mut broker = GenericBroker::from_model(&model, hub()).unwrap();
        broker.enable_journal(gen.range(0, 6));

        let steps = gen.range(5, 50);
        let mut live_trips = 0usize;
        for _ in 0..steps {
            match gen.range(0, 8) {
                0 => {
                    // A write that violates the invariant ~half the time.
                    let v = gen.range(0, 7) as i64 - 3;
                    live_trips += broker.corrupt_state("opens", &v.to_string()).len();
                }
                1 if broker.monitor_latched() => {
                    // The quarantine repair; may legitimately fail when a
                    // truncation discarded every verified snapshot.
                    let _ = broker.rollback_to_snapshot();
                }
                2 => {
                    broker.truncate_journal_to(broker.state().version());
                }
                _ => match broker.call("open", &Args::new()) {
                    Ok(_) | Err(BrokerError::MonitorTripped { .. }) => {}
                    Err(e) => panic!("case {case}: unexpected refusal: {e}"),
                },
            }
        }

        let bytes = broker.journal_bytes().unwrap().to_vec();
        let replayed = journal::replay(&bytes).expect("journal replays");
        assert_eq!(
            replayed.state.snapshot(),
            broker.state().snapshot(),
            "case {case}: replayed monitor state diverged"
        );
        let latched = broker.monitor_latched();
        if live_trips > 0 {
            assert!(
                broker.monitor_trips().len() >= live_trips,
                "case {case}: trips lost"
            );
        }
        let (mut rec, _) =
            GenericBroker::recover(&model, broker.into_hub(), &bytes, &[]).expect("recovers");
        assert_eq!(rec.monitor_latched(), latched, "case {case}");
        assert_eq!(
            rec.call("open", &Args::new()).is_err(),
            latched,
            "case {case}: recovered broker's refusal disagrees with the live latch"
        );
    }
}

/// A standby with armed monitors detects an invariant violation purely
/// from the shipped record stream — even when the primary itself is
/// unmonitored and keeps serving against the divergent model — without
/// ever diverging its byte-identical mirror.
#[test]
fn armed_standby_detects_divergence_an_unmonitored_primary_misses() {
    use mddsm_broker::monitor::MonitorSet;
    use mddsm_broker::Standby;

    let model = BrokerModelBuilder::new("ub")
        .call_handler("h", "open")
        .action("h", "doOpen", "svc", "open", &[], None, &["opens=+1"])
        .build();
    let mut primary = GenericBroker::from_model(&model, hub()).unwrap();
    primary.enable_journal(0);
    for _ in 0..3 {
        primary.call("open", &Args::new()).unwrap();
    }
    // Nothing armed on the primary: the violation lands silently and the
    // primary keeps executing commands against the corrupt model.
    assert!(primary.corrupt_state("opens", "-2").is_empty());
    assert!(!primary.monitor_latched());
    primary.call("open", &Args::new()).unwrap();

    let mut sb = Standby::new("b");
    sb.arm_monitors(
        MonitorSet::from_invariants(&["self.opens = null or self.opens >= 0"]).unwrap(),
    );
    let text = String::from_utf8(primary.journal_bytes().unwrap().to_vec()).unwrap();
    for (i, line) in text.lines().enumerate() {
        sb.receive(i as u64, line, primary.epoch()).unwrap();
    }
    // One trip (the latch holds through the follow-up write), and the
    // mirror still matches the primary byte for byte.
    assert_eq!(sb.monitor_trips().len(), 1);
    assert!(
        sb.monitor_trips()[0].detail.contains("does not hold"),
        "{}",
        sb.monitor_trips()[0].detail
    );
    assert_eq!(primary.state().first_divergence(sb.state()), None);
}

/// A tripped latch is ordinary journaled state: it survives journal
/// truncation (the retained suffix's snapshot carries it) and a crash —
/// the recovered broker resumes fail-stopped, mid-violation.
#[test]
fn monitor_latch_survives_truncation_and_crash_recovery() {
    let model = BrokerModelBuilder::new("tb")
        .call_handler("h", "open")
        .action("h", "doOpen", "svc", "open", &[], None, &["opens=+1"])
        .monitor("nonneg", "always self.opens = null or self.opens >= 0")
        .build();
    let mut b = GenericBroker::from_model(&model, hub()).unwrap();
    b.enable_journal(2);
    for _ in 0..5 {
        b.call("open", &Args::new()).unwrap();
    }
    assert_eq!(b.corrupt_state("opens", "-9").len(), 1);
    // Compact past the violating write: the snapshot heading the retained
    // suffix captured the latched state.
    let reclaimed = b.truncate_journal_to(b.state().version());
    assert!(reclaimed > 0, "truncation reclaimed nothing");
    let bytes = b.journal_bytes().unwrap().to_vec();
    let live_snap = b.state().snapshot();
    let (mut rec, _) = GenericBroker::recover(&model, b.into_hub(), &bytes, &[]).expect("recovers");
    assert_eq!(rec.state().snapshot(), live_snap);
    assert!(rec.monitor_latched(), "latch lost across truncate + crash");
    assert!(rec.call("open", &Args::new()).is_err());
}

/// Dispatch is deterministic: same model, same state, same call -> same
/// action and outcome.
#[test]
fn dispatch_is_deterministic() {
    for mode in 0i64..4 {
        let run = || {
            let mut broker = guarded_broker(2, 3);
            broker.state_mut().set_int("mode", mode);
            let r = broker.call("op1", &Args::new()).unwrap();
            (r.action, r.outcome.is_ok())
        };
        assert_eq!(run(), run());
    }
}
