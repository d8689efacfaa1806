//! E11 — static model verification: analyzer detection rate over a seeded
//! model-mutation corpus.
//!
//! E10 verifies the runtime model *online*; E11 measures what the
//! load-time static analyzer ([`mddsm_broker::analysis`]) catches before a
//! model ever executes. The corpus is built from the four shipped domain
//! broker models (CVM, MGridVM, 2SVM, CSVM): each trial takes a fresh copy
//! of one model, applies one seeded mutation operator from [`deck`]
//! (dangling guard references, reserved-key writes, type clashes, broken
//! plan steps, vacuous monitors, conflicting write sets, ...), and re-runs
//! the analyzer. A mutation counts as *detected* when the mutated report
//! contains a diagnostic `(code, path)` or a conflict edge absent from the
//! unmutated model's baseline report.
//!
//! Two numbers matter:
//!
//! * **detection rate** — detected / applied trials, expected ≥ 0.95 (the
//!   shipped deck is designed to be fully detectable, so in practice 1.0);
//! * **false positives** — error-level diagnostics on the four *unmutated*
//!   models, expected **zero**: the analyzer gates model loading
//!   ([`BrokerError::AnalysisRejected`]), so an error here would refuse a
//!   known-good platform.
//!
//! The per-model baseline section also records the analyzer's footprint
//! and conflict tables — the read/write sets that the planned
//! footprint-driven sharding work will consume as its routing input.
//!
//! [`BrokerError::AnalysisRejected`]: mddsm_broker::BrokerError::AnalysisRejected

use crate::artifacts::{array, document, row, rows, Fixed, Str};
use mddsm_broker::analysis::analyze;
use mddsm_meta::analysis::AnalysisReport;
use mddsm_meta::{Model, Value};
use mddsm_sim::mutate::MutationDeck;
use mddsm_sim::SimRng;
use std::collections::BTreeSet;

/// A mutation operator: applies one seeded defect to the model in place.
/// Returns `false` when the model lacks the structure the operator needs
/// (e.g. a second handler to duplicate) — the trial is then skipped.
pub type Mutator = fn(&mut Model, &mut SimRng) -> bool;

/// All `(handler, action)` object pairs of a broker model.
fn actions_of(model: &Model) -> Vec<(mddsm_meta::ObjectId, mddsm_meta::ObjectId)> {
    let mut out = Vec::new();
    for h in model.all_of_class("Handler") {
        for a in model.refs(h, "actions").to_vec() {
            out.push((h, a));
        }
    }
    out
}

fn pick_action(
    model: &Model,
    rng: &mut SimRng,
) -> Option<(mddsm_meta::ObjectId, mddsm_meta::ObjectId)> {
    let actions = actions_of(model);
    if actions.is_empty() {
        None
    } else {
        Some(actions[rng.index(actions.len())])
    }
}

/// Creates a full symptom → request → plan chain so the plan's steps are
/// live (not dangling) in the analyzer's autonomic-rule join.
fn add_chain(model: &mut Model, tag: &str, condition: &str, steps: &[&str]) {
    let s = model.create("Symptom");
    model.set_attr(s, "name", Value::from(format!("mutSym_{tag}").as_str()));
    model.set_attr(s, "condition", Value::from(condition));
    let r = model.create("ChangeRequest");
    model.set_attr(r, "name", Value::from(format!("mutReq_{tag}").as_str()));
    model.set_attr(r, "symptom", Value::from(format!("mutSym_{tag}").as_str()));
    let p = model.create("ChangePlan");
    model.set_attr(p, "name", Value::from(format!("mutPlan_{tag}").as_str()));
    model.set_attr(p, "request", Value::from(format!("mutReq_{tag}").as_str()));
    model.set_attr_many(p, "steps", steps.iter().map(|s| Value::from(*s)).collect());
}

fn guard_ghost(model: &mut Model, rng: &mut SimRng) -> bool {
    let Some((_, a)) = pick_action(model, rng) else {
        return false;
    };
    model.set_attr(a, "guard", Value::from("ghost_policy_zz"));
    true
}

fn fallback_ghost(model: &mut Model, rng: &mut SimRng) -> bool {
    let Some((_, a)) = pick_action(model, rng) else {
        return false;
    };
    model.set_attr(a, "fallback", Value::from("ghost_action_zz"));
    true
}

fn self_fallback(model: &mut Model, rng: &mut SimRng) -> bool {
    let Some((_, a)) = pick_action(model, rng) else {
        return false;
    };
    let name = model.attr_str(a, "name").unwrap_or_default().to_owned();
    model.set_attr(a, "fallback", Value::from(name.as_str()));
    true
}

fn admission_ghost(model: &mut Model, rng: &mut SimRng) -> bool {
    let Some((_, a)) = pick_action(model, rng) else {
        return false;
    };
    model.set_attr(a, "admissionClass", Value::from("ghost_class_zz"));
    true
}

fn reserved_effect(model: &mut Model, rng: &mut SimRng) -> bool {
    let Some((_, a)) = pick_action(model, rng) else {
        return false;
    };
    let mut effects: Vec<Value> = model.attr_all(a, "stateEffects").to_vec();
    effects.push(Value::from("mon_trips=+1"));
    model.set_attr_many(a, "stateEffects", effects);
    true
}

fn duplicate_handler(model: &mut Model, rng: &mut SimRng) -> bool {
    let handlers = model.all_of_class("Handler");
    if handlers.len() < 2 {
        return false;
    }
    let victim = handlers[1 + rng.index(handlers.len() - 1)];
    let name = model
        .attr_str(handlers[0], "name")
        .unwrap_or_default()
        .to_owned();
    model.set_attr(victim, "name", Value::from(name.as_str()));
    true
}

fn policy_syntax(model: &mut Model, rng: &mut SimRng) -> bool {
    let policies = model.all_of_class("Policy");
    if policies.is_empty() {
        return false;
    }
    let victim = policies[rng.index(policies.len())];
    model.set_attr(victim, "expression", Value::from("self.x >"));
    true
}

fn type_mismatch(model: &mut Model, _rng: &mut SimRng) -> bool {
    // `mon_trips` is always in the typed key universe as Int; comparing it
    // to a string literal is a guaranteed type clash.
    let p = model.create("Policy");
    model.set_attr(p, "name", Value::from("mutPolicy_type"));
    model.set_attr(p, "expression", Value::from("self.mon_trips = \"often\""));
    true
}

fn bad_plan_step(model: &mut Model, _rng: &mut SimRng) -> bool {
    add_chain(
        model,
        "badstep",
        "self.mon_trips > 1000000",
        &["explode now"],
    );
    true
}

fn unknown_resource_step(model: &mut Model, _rng: &mut SimRng) -> bool {
    add_chain(
        model,
        "ghostres",
        "self.mon_trips > 1000000",
        &["heal ghost_resource_zz"],
    );
    true
}

fn ghost_condition(model: &mut Model, _rng: &mut SimRng) -> bool {
    add_chain(
        model,
        "ghostkey",
        "self.ghost_key_zz > 0",
        &["emit mutProbe"],
    );
    true
}

fn vacuous_monitor(model: &mut Model, _rng: &mut SimRng) -> bool {
    let m = model.create("Monitor");
    model.set_attr(m, "name", Value::from("mutMonVacuous"));
    model.set_attr(
        m,
        "property",
        Value::from("always self.ghost_watch_zz = null or self.ghost_watch_zz >= 0"),
    );
    true
}

fn monitor_syntax(model: &mut Model, _rng: &mut SimRng) -> bool {
    let m = model.create("Monitor");
    model.set_attr(m, "name", Value::from("mutMonBroken"));
    model.set_attr(m, "property", Value::from("always self.x >"));
    true
}

fn dangling_request(model: &mut Model, _rng: &mut SimRng) -> bool {
    let r = model.create("ChangeRequest");
    model.set_attr(r, "name", Value::from("mutReq_dangling"));
    model.set_attr(r, "symptom", Value::from("ghost_symptom_zz"));
    true
}

fn duplicate_binding(model: &mut Model, _rng: &mut SimRng) -> bool {
    for _ in 0..2 {
        let b = model.create("ResourceBinding");
        model.set_attr(b, "name", Value::from("mut_binding_zz"));
    }
    true
}

fn unreachable_action(model: &mut Model, rng: &mut SimRng) -> bool {
    let handlers = model.all_of_class("Handler");
    if handlers.is_empty() {
        return false;
    }
    let h = handlers[rng.index(handlers.len())];
    // An unguarded action followed by anything makes the tail dead: the
    // first guard-free action always wins selection.
    for name in ["mut_shadow_a", "mut_shadow_b"] {
        let a = model.create("Action");
        model.set_attr(a, "name", Value::from(name));
        model.set_attr(a, "resource", Value::from("mut.res"));
        model.add_ref(h, "actions", a);
    }
    true
}

fn plan_conflict(model: &mut Model, _rng: &mut SimRng) -> bool {
    // Two independently-dispatchable plans writing the same fresh key: a
    // write-write edge that cannot exist in the baseline conflict graph.
    add_chain(
        model,
        "confA",
        "self.mon_trips > 1000000",
        &["set mut_shared 1"],
    );
    add_chain(
        model,
        "confB",
        "self.mon_trips > 2000000",
        &["set mut_shared 2"],
    );
    true
}

/// The shipped mutation deck: one operator per defect family the analyzer
/// claims to detect.
pub fn deck() -> MutationDeck<Mutator> {
    let mut d: MutationDeck<Mutator> = MutationDeck::new();
    d.push("guard-ghost-policy", guard_ghost);
    d.push("fallback-ghost", fallback_ghost);
    d.push("self-fallback", self_fallback);
    d.push("admission-ghost", admission_ghost);
    d.push("reserved-mon-effect", reserved_effect);
    d.push("duplicate-handler", duplicate_handler);
    d.push("policy-syntax", policy_syntax);
    d.push("type-mismatch", type_mismatch);
    d.push("bad-plan-step", bad_plan_step);
    d.push("unknown-resource-step", unknown_resource_step);
    d.push("ghost-condition-key", ghost_condition);
    d.push("vacuous-monitor", vacuous_monitor);
    d.push("monitor-syntax", monitor_syntax);
    d.push("dangling-request", dangling_request);
    d.push("duplicate-binding", duplicate_binding);
    d.push("unreachable-action", unreachable_action);
    d.push("plan-write-conflict", plan_conflict);
    d
}

/// The four shipped domain broker models, in fixed corpus order.
pub fn corpus() -> Vec<(&'static str, Model)> {
    vec![
        ("cvm", cvm::ncb::ncb_broker_model()),
        ("mgridvm", mgridvm::platform::mhb_broker_model()),
        ("ssvm", ssvm::objects::object_broker_model("lamp-1")),
        ("csvm", csvm::platform::cs_broker_model()),
    ]
}

fn diag_set(r: &AnalysisReport) -> BTreeSet<(String, String)> {
    r.diagnostics
        .iter()
        .map(|d| (d.code.clone(), d.path.clone()))
        .collect()
}

fn conflict_set(r: &AnalysisReport) -> BTreeSet<(String, String, String)> {
    r.conflicts
        .iter()
        .map(|c| (c.a.clone(), c.b.clone(), c.key.clone()))
        .collect()
}

/// One mutated-model trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E11Trial {
    /// Corpus seed the operator draw came from.
    pub seed: u64,
    /// Domain model mutated.
    pub model: String,
    /// Mutation operator applied.
    pub mutation: String,
    /// Diagnostics `(code, path)` present only in the mutated report.
    pub new_diagnostics: u64,
    /// Conflict edges present only in the mutated report.
    pub new_conflicts: u64,
    /// Whether the analyzer surfaced the mutation at all.
    pub detected: bool,
}

/// Baseline analyzer verdict on one unmutated domain model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E11Baseline {
    /// Domain model name.
    pub model: String,
    /// Error-level diagnostics (each one is a false positive).
    pub errors: u64,
    /// Warning-level diagnostics (allowed; journaled at load time).
    pub warnings: u64,
    /// Dispatchable units with a computed read/write footprint.
    pub footprints: u64,
    /// Benign conflict edges in the baseline graph.
    pub conflicts: u64,
}

/// The full experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct E11Result {
    /// Corpus seeds, in run order.
    pub seeds: Vec<u64>,
    /// Operators drawn per model per seed.
    pub draws_per_model: usize,
    /// Analyzer verdicts on the unmutated models.
    pub baselines: Vec<E11Baseline>,
    /// Every applied trial.
    pub trials: Vec<E11Trial>,
    /// Trials where the mutation surfaced.
    pub detected: u64,
    /// detected / trials.
    pub detection_rate: f64,
    /// Error-level diagnostics across the unmutated models (must be 0).
    pub false_positives: u64,
}

/// Runs E11: for each seed and each corpus model, draws
/// `draws_per_model` distinct operators and applies each to a fresh copy.
pub fn run(seeds: &[u64], draws_per_model: usize) -> E11Result {
    let deck = deck();
    let baseline_models = corpus();
    let baselines: Vec<(String, AnalysisReport)> = baseline_models
        .iter()
        .map(|(name, m)| ((*name).to_owned(), analyze(m)))
        .collect();
    let baseline_rows: Vec<E11Baseline> = baselines
        .iter()
        .map(|(name, r)| E11Baseline {
            model: name.clone(),
            errors: r.errors().count() as u64,
            warnings: r.warnings().count() as u64,
            footprints: r.footprints.len() as u64,
            conflicts: r.conflicts.len() as u64,
        })
        .collect();
    let false_positives: u64 = baseline_rows.iter().map(|b| b.errors).sum();

    let mut trials = Vec::new();
    for &seed in seeds {
        let mut rng = SimRng::seed_from_u64(seed);
        for (mi, (name, model)) in corpus().into_iter().enumerate() {
            let base_diags = diag_set(&baselines[mi].1);
            let base_conflicts = conflict_set(&baselines[mi].1);
            for (op_name, op) in deck.draw(draws_per_model, &mut rng) {
                let mut mutated = model.clone();
                if !op(&mut mutated, &mut rng) {
                    continue;
                }
                let report = analyze(&mutated);
                let new_diagnostics = diag_set(&report).difference(&base_diags).count() as u64;
                let new_conflicts =
                    conflict_set(&report).difference(&base_conflicts).count() as u64;
                trials.push(E11Trial {
                    seed,
                    model: name.to_owned(),
                    mutation: op_name.to_owned(),
                    new_diagnostics,
                    new_conflicts,
                    detected: new_diagnostics + new_conflicts > 0,
                });
            }
        }
    }
    let detected = trials.iter().filter(|t| t.detected).count() as u64;
    let detection_rate = if trials.is_empty() {
        0.0
    } else {
        detected as f64 / trials.len() as f64
    };
    E11Result {
        seeds: seeds.to_vec(),
        draws_per_model,
        baselines: baseline_rows,
        trials,
        detected,
        detection_rate,
        false_positives,
    }
}

impl E11Result {
    /// Renders the `BENCH_e11.json` artifact. Deterministic in the seeds.
    pub fn to_json(&self) -> String {
        let baselines: Vec<String> = self
            .baselines
            .iter()
            .map(|b| {
                row(&[
                    ("model", &Str(&b.model)),
                    ("errors", &b.errors),
                    ("warnings", &b.warnings),
                    ("footprints", &b.footprints),
                    ("conflicts", &b.conflicts),
                ])
            })
            .collect();
        let trials: Vec<String> = self
            .trials
            .iter()
            .map(|t| {
                row(&[
                    ("seed", &t.seed),
                    ("model", &Str(&t.model)),
                    ("mutation", &Str(&t.mutation)),
                    ("new_diagnostics", &t.new_diagnostics),
                    ("new_conflicts", &t.new_conflicts),
                    ("detected", &t.detected),
                ])
            })
            .collect();
        document(&[
            ("experiment", &Str("e11")),
            ("seed", &self.seeds.first().copied().unwrap_or(0)),
            ("seeds", &array(&self.seeds)),
            ("draws_per_model", &self.draws_per_model),
            ("trials_run", &self.trials.len()),
            ("detected", &self.detected),
            ("detection_rate", &Fixed(self.detection_rate, 4)),
            ("false_positives", &self.false_positives),
            ("baselines", &rows(&baselines)),
            ("trials", &rows(&trials)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmutated_models_have_zero_false_positives() {
        for (name, model) in corpus() {
            let r = analyze(&model);
            assert!(
                r.is_accepted(),
                "{name}: {:?}",
                r.errors().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn every_operator_is_detected_on_every_model() {
        // Exhaustive sweep (no sampling): one trial per (model, operator),
        // fixed RNG per trial so target picks are reproducible.
        let deck = deck();
        let mut misses = Vec::new();
        for (name, model) in corpus() {
            let base = analyze(&model);
            let (bd, bc) = (diag_set(&base), conflict_set(&base));
            for (op_name, op) in deck.ops() {
                let mut rng = SimRng::seed_from_u64(7);
                let mut mutated = model.clone();
                if !op(&mut mutated, &mut rng) {
                    continue;
                }
                let r = analyze(&mutated);
                let new_d = diag_set(&r).difference(&bd).count();
                let new_c = conflict_set(&r).difference(&bc).count();
                if new_d + new_c == 0 {
                    misses.push(format!("{name}/{op_name}"));
                }
            }
        }
        assert!(misses.is_empty(), "undetected mutations: {misses:?}");
    }

    #[test]
    fn detection_rate_meets_the_acceptance_bar() {
        let r = run(&[1, 2], 6);
        assert!(!r.trials.is_empty());
        assert!(
            r.detection_rate >= 0.95,
            "detection rate {} below bar",
            r.detection_rate
        );
        assert_eq!(r.false_positives, 0);
    }

    #[test]
    fn footprint_tables_are_populated_for_every_model() {
        for (name, model) in corpus() {
            let r = analyze(&model);
            assert!(!r.footprints.is_empty(), "{name}: no footprints");
            assert!(
                r.footprints.values().any(|f| !f.writes.is_empty()),
                "{name}: no unit writes anything"
            );
        }
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let a = run(&[7, 9], 5);
        let b = run(&[7, 9], 5);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_artifact_is_well_formed_enough() {
        let r = run(&[3], 4);
        let j = r.to_json();
        assert!(j.contains("\"experiment\": \"e11\""));
        for key in [
            "\"detection_rate\"",
            "\"false_positives\"",
            "\"baselines\"",
            "\"trials\"",
            "\"footprints\"",
            "\"conflicts\"",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
