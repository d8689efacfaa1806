//! Differential oracle for the broker's predicate compiler: every
//! predicate is evaluated both compiled (`mddsm_broker::pred::Pred`) and
//! through the OCL-lite interpreter over a one-object model of the same
//! state, and the two must agree on the value or both be errors.
//!
//! Two corpora: the predicates of every shipped broker model (the E11
//! domain corpus plus the E8, E10 and E15 models), evaluated at every
//! step of seeded call streams, and generated predicates (unset keys,
//! Int/Str mismatches, ordering on `null`, logical operators whose right
//! side would error) over seeded random states.

use bench::{e10, e11, e15, e8};
use mddsm_broker::pred::Pred;
use mddsm_broker::state::SnapValue;
use mddsm_broker::{CallMeta, GenericBroker, StateManager};
use mddsm_meta::analysis::self_paths;
use mddsm_meta::constraint::temporal::{parse_property, Property};
use mddsm_meta::constraint::{self, eval_bool, EvalEnv, Expr};
use mddsm_meta::metamodel::Metamodel;
use mddsm_meta::{Model, Value};
use mddsm_sim::resource::{Args, Outcome};
use mddsm_sim::{ResourceHub, SimDuration, SimRng};

/// The reference verdict: the interpreter over a fresh one-object model.
fn interpret(state: &StateManager, expr: &Expr) -> Result<bool, String> {
    let mut model = Model::new("oracle");
    let obj = model.create("State");
    for (key, value) in state.snapshot().vars {
        let value = match value {
            SnapValue::Str(s) => Value::Str(s),
            SnapValue::Int(i) => Value::Int(i),
        };
        model.set_attr(obj, key, value);
    }
    let mm = Metamodel::empty("oracle");
    eval_bool(expr, &EvalEnv::for_object(&model, &mm, obj)).map_err(|e| e.to_string())
}

/// Checks one predicate against the reference at one state.
fn agree(pred: &Pred, state: &StateManager, what: &str) {
    let reference = interpret(state, pred.expr());
    match pred.decide(state) {
        Some(v) => assert_eq!(reference, Ok(v), "compiled verdict on {what}"),
        // A fully compiled predicate defers only where the interpreter
        // raises an error.
        None if !pred.is_interpreted() => {
            assert!(
                reference.is_err(),
                "{what} deferred, but the interpreter decides {reference:?}"
            )
        }
        None => {}
    }
    match (pred.eval(state), &reference) {
        (Ok(a), Ok(b)) => assert_eq!(a, *b, "{what}"),
        (Err(e), Err(r)) => assert!(e.to_string().contains(r.as_str()), "{what}: {e} vs {r}"),
        (got, _) => panic!("{what}: compiled {got:?}, interpreter {reference:?}"),
    }
}

/// Every predicate a broker model declares: policies, monitor properties
/// and symptom conditions.
fn predicates(model: &Model) -> Vec<(String, Pred)> {
    let mut out = Vec::new();
    let text = |id, attr| model.attr_str(id, attr).unwrap_or_default().to_owned();
    for p in model.all_of_class("Policy") {
        let e = constraint::parse(&text(p, "expression")).expect("shipped policies parse");
        out.push((format!("policy:{}", text(p, "name")), Pred::new(e)));
    }
    for s in model.all_of_class("Symptom") {
        let e = constraint::parse(&text(s, "condition")).expect("shipped conditions parse");
        out.push((format!("symptom:{}", text(s, "name")), Pred::new(e)));
    }
    for m in model.all_of_class("Monitor") {
        let path = format!("monitor:{}", text(m, "name"));
        match parse_property(&text(m, "property")).expect("shipped monitors parse") {
            Property::Always(e) => out.push((path, Pred::new(e))),
            Property::NeverDuring { never, during } => {
                out.push((path.clone(), Pred::new(never)));
                out.push((path, Pred::new(during)));
            }
            Property::AtMostOnePer { .. } => {}
        }
    }
    out
}

/// A hub where every resource a model names answers, failing at random.
fn hub(model: &Model, seed: u64) -> ResourceHub {
    let mut hub = ResourceHub::new(seed);
    let mut names: Vec<String> = Vec::new();
    for b in model.all_of_class("ResourceBinding") {
        names.extend(model.attr_str(b, "resource").map(str::to_owned));
    }
    for a in model.all_of_class("Action") {
        names.extend(model.attr_str(a, "resource").map(str::to_owned));
    }
    for (i, name) in names.into_iter().enumerate() {
        let mut rng = SimRng::seed_from_u64(seed ^ i as u64);
        hub.register_fn(name, move |_: &str, _: &Args| {
            if rng.chance(0.2) {
                Outcome::Failed("flaky".into())
            } else {
                Outcome::ok()
            }
        });
    }
    hub
}

/// Drives a seeded call stream through `model`'s broker and checks every
/// predicate after every step.
fn run_stream(name: &str, model: &Model, seed: u64, steps: usize) {
    let preds = predicates(model);
    let mut keys: Vec<String> = preds
        .iter()
        .flat_map(|(_, p)| self_paths(p.expr()))
        .collect();
    keys.sort();
    keys.dedup();
    let selectors: Vec<String> = model
        .all_of_class("Handler")
        .into_iter()
        .filter_map(|h| model.attr_str(h, "selector").map(str::to_owned))
        .collect();
    let classes: Vec<String> = model
        .all_of_class("AdmissionClass")
        .into_iter()
        .filter_map(|c| model.attr_str(c, "name").map(str::to_owned))
        .collect();
    let mut broker =
        GenericBroker::from_model(model, hub(model, seed)).expect("shipped model loads");
    broker.enable_journal(16);
    let mut rng = SimRng::seed_from_u64(seed);
    for step in 0..steps {
        let args = vec![("k".to_owned(), format!("v{}", rng.range(0, 3)))];
        match rng.index(10) {
            0 if !keys.is_empty() => {
                // A raw write of either type to a key some predicate reads.
                let key = &keys[rng.index(keys.len())];
                let value = match rng.index(3) {
                    0 => rng.range(0, 4).to_string(),
                    1 => "-1".to_owned(),
                    _ => ["alpha", "beta", "x"][rng.index(3)].to_owned(),
                };
                broker.corrupt_state(key, &value);
            }
            1 => {
                let _ = broker.autonomic_tick();
                let _ = broker.brownout_tick();
            }
            2 => broker.advance_clock(SimDuration::from_micros(rng.range(0, 5_000))),
            3 if broker.monitor_latched() => {
                let _ = broker.rollback_to_snapshot();
            }
            _ if !selectors.is_empty() => {
                let op = &selectors[rng.index(selectors.len())];
                let _ = if classes.is_empty() || rng.chance(0.3) {
                    broker.call(op, &args).map(|_| ())
                } else {
                    let class = &classes[rng.index(classes.len())];
                    let meta = CallMeta::new(class, broker.now().as_micros());
                    broker.call_admitted(op, &args, &meta).map(|_| ())
                };
                let _ = broker.event(op, &args);
            }
            _ => {}
        }
        for (path, pred) in &preds {
            agree(
                pred,
                broker.state(),
                &format!("{name} {path} at step {step}"),
            );
        }
    }
}

#[test]
fn shipped_predicates_agree_with_the_interpreter_along_call_streams() {
    let mut models: Vec<(String, Model)> = e11::corpus()
        .into_iter()
        .map(|(n, m)| (n.to_owned(), m))
        .collect();
    models.push(("e8".into(), e8::e8_broker_model()));
    models.push(("e10".into(), e10::e10_broker_model(true)));
    models.push(("e15".into(), e15::e15_broker_model(e15::NODES3, 2)));
    let declared: usize = models.iter().map(|(_, m)| predicates(m).len()).sum();
    assert!(declared >= 9, "only {declared} predicates");
    for (name, model) in &models {
        for seed in 1..=3 {
            run_stream(name, model, seed, 300);
        }
    }
}

/// A random comparison operand over the keys `a`, `b`, `c`.
fn operand(rng: &mut SimRng) -> String {
    match rng.index(8) {
        0..=2 => format!("self.{}", ["a", "b", "c"][rng.index(3)]),
        3 => "null".to_owned(),
        4 => format!("{}", rng.range(0, 5) as i64 - 2),
        5 => ["\"x\"", "\"y\"", "\"\""][rng.index(3)].to_owned(),
        6 => ["true", "1.5", "-3"][rng.index(3)].to_owned(),
        _ => "self.a + 1".to_owned(),
    }
}

/// A random predicate of depth at most `depth`.
fn predicate(rng: &mut SimRng, depth: u32) -> String {
    if depth == 0 || rng.chance(0.35) {
        return match rng.index(10) {
            0 => ["true", "false"][rng.index(2)].to_owned(),
            _ => {
                let op = ["=", "<>", "<", "<=", ">", ">="][rng.index(6)];
                format!("{} {op} {}", operand(rng), operand(rng))
            }
        };
    }
    match rng.index(4) {
        3 => format!("not ({})", predicate(rng, depth - 1)),
        i => {
            let op = ["and", "or", "implies"][i];
            format!(
                "({}) {op} ({})",
                predicate(rng, depth - 1),
                predicate(rng, depth - 1)
            )
        }
    }
}

#[test]
fn generated_predicates_agree_with_the_interpreter() {
    let mut rng = SimRng::seed_from_u64(0x0c1);
    // The shapes the monitor-only compiler handled, kept as fixed cases.
    let mut sources: Vec<String> = [
        "self.n >= 0",
        "self.n < 10",
        "0 <= self.n",
        "self.mode = \"direct\"",
        "self.mode <> \"relay\"",
        "self.gone = null",
        "self.n <> null",
        "self.n >= 0 and self.mode = \"direct\"",
        "self.n < 0 or self.mode = \"direct\"",
        "self.n > 100 implies self.mode = \"relay\"",
        "not (self.n > 100)",
        "self.n + 1 > self.m",
        "self.absent >= 0",
        "false and self.absent < 1",
        "true or self.absent < 1",
        "false implies self.absent < 1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    sources.extend((0..400).map(|_| predicate(&mut rng, 3)));
    let preds: Vec<(String, Pred)> = sources
        .into_iter()
        .map(|s| {
            let e = constraint::parse(&s).unwrap_or_else(|e| panic!("`{s}`: {e}"));
            (s, Pred::new(e))
        })
        .collect();
    for _ in 0..60 {
        let mut state = StateManager::new();
        for key in ["a", "b", "c", "n", "m", "mode"] {
            match rng.index(4) {
                0 => {}
                1 => state.set_int(key, rng.range(0, 5) as i64 - 2),
                2 => state.set_str(key, ["x", "y", "direct", "relay"][rng.index(4)]),
                _ => state.set_int(key, 5),
            }
        }
        for (src, pred) in &preds {
            agree(pred, &state, &format!("`{src}`"));
        }
    }
}
