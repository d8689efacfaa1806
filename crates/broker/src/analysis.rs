//! Load-time static analysis of broker models.
//!
//! E10's monitors verify the model *while it runs*; this pass verifies it
//! *before* it runs. [`analyze`] walks a complete broker model (an
//! instance of the Fig. 6 metamodel) and produces an
//! [`AnalysisReport`]: typed diagnostics with model-path provenance, the
//! per-unit read/write **footprint table** (the routing input for shard
//! placement), and the pairwise **conflict graph** between units the
//! engine may dispatch concurrently.
//!
//! Passes, in order:
//!
//! 1. **Hygiene** — duplicate handler/action/policy/symptom/monitor/
//!    class/binding names, and domain writes into the reserved `mon_*`
//!    monitor memory, are errors (`hygiene` alone backs the builder's
//!    [`crate::model::BrokerModelBuilder::try_build`]).
//! 2. **Path/type resolution** — every OCL-lite expression (policies,
//!    symptom conditions, monitor properties) parses; every `self.<key>`
//!    navigation resolves against the typed key universe inferred from
//!    state effects, plan steps, and the engine's reserved keys; and
//!    comparisons are type-compatible. Guards must name declared
//!    policies, fallbacks declared sibling actions, `admissionClass`
//!    attributes declared classes, and plan steps known verbs.
//! 3. **Footprint + conflict analysis** — per-action, per-plan, and
//!    per-brownout-mode read/write key sets, then conflict edges
//!    (write-write, read-write) between every concurrently-dispatchable
//!    pair. Edges over engine-serialized bookkeeping keys
//!    ([`is_engine_key`]) are suppressed: the engine orders those writes
//!    by construction, only *domain* keys race meaningfully.
//! 4. **Monitor staticization** — a monitor none of whose watched keys is
//!    writable by any unit (or the engine) can never change verdict after
//!    deployment: the property is vacuous, and warned about.
//!
//! Errors refuse the model at [`crate::GenericBroker::from_model`] time
//! with the typed [`crate::BrokerError::AnalysisRejected`]; warnings ride
//! along on the broker and are journaled once journaling is enabled.

use crate::admission::{adm_key, QUEUE_DELAY_KEY, SHED_RECENT_KEY};
use crate::autonomic::{parse_step, PlanStep};
use crate::engine::{breaker_key, failures_key};
use crate::model::{read, ModelSpec};
use crate::monitor::{trip_key, TRIP_COUNTER_KEY};
use mddsm_meta::analysis::{check_expr, self_paths, AnalysisReport, Footprint, KeyType};
use mddsm_meta::constraint::temporal::{parse_property, Property};
use mddsm_meta::constraint::Expr;
use mddsm_meta::model::Model;
use mddsm_meta::ObjectId;
use std::collections::{BTreeMap, BTreeSet};

/// Key prefixes the engine itself writes (breaker state, failure
/// counters, admission accounting, monitor memory, brownout mode). Conflict edges over these are suppressed — the engine
/// serializes them by construction.
pub const ENGINE_KEY_PREFIXES: &[&str] = &["breaker_", "failures_", "adm_", "mon_", "brownout_"];

/// `true` for keys in the engine-reserved namespaces.
pub fn is_engine_key(key: &str) -> bool {
    ENGINE_KEY_PREFIXES.iter().any(|p| key.starts_with(p))
}

/// The key and inferred type a `k=v` state effect (or plan `set k v`
/// step) writes, per [`crate::state::StateManager::apply_effect`]
/// semantics: `+n`/`-n` bump an int, an integer literal sets an int,
/// anything else sets a string.
pub fn effect_key_type(effect: &str) -> Option<(String, KeyType)> {
    let (k, v) = effect.split_once('=')?;
    let body = v.strip_prefix('+').unwrap_or(v);
    let ty = if body.parse::<i64>().is_ok() {
        KeyType::Int
    } else {
        KeyType::Str
    };
    Some((k.to_owned(), ty))
}

/// One dispatchable unit's identity in the footprint table.
fn action_unit(handler: &str, action: &str) -> String {
    format!("action:{handler}/{action}")
}

fn plan_unit(symptom: &str) -> String {
    format!("plan:{symptom}")
}

fn brownout_unit(mode: &str) -> String {
    format!("brownout:{mode}")
}

fn attr_or_empty(model: &Model, id: ObjectId, name: &str) -> String {
    model.attr_str(id, name).unwrap_or_default().to_owned()
}

/// Reports duplicates within one name list.
fn check_duplicates(names: &[(String, String)], report: &mut AnalysisReport) {
    let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
    for (path, name) in names {
        if name.is_empty() {
            continue;
        }
        if let Some(first) = seen.insert(name.as_str(), path.as_str()) {
            report.error(
                "duplicate-name",
                path,
                format!("`{name}` is already declared at {first}"),
            );
        }
    }
}

/// Pass 1 only: build-time hygiene. Duplicate component/monitor names and
/// domain state writes into the reserved `mon_*` monitor memory are
/// errors. This is the subset the model builder enforces at `try_build`
/// time, before the model ever reaches an engine.
pub(crate) fn hygiene(model: &Model, spec: &ModelSpec) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    let handlers = &spec.handlers;

    let mut handler_names = Vec::new();
    for h in handlers {
        handler_names.push((format!("handler:{}", h.name), h.name.clone()));
        let action_names: Vec<(String, String)> = h
            .actions
            .iter()
            .map(|a| {
                (
                    format!("handler:{}/action:{}", h.name, a.name),
                    a.name.clone(),
                )
            })
            .collect();
        check_duplicates(&action_names, &mut report);
    }
    check_duplicates(&handler_names, &mut report);

    for (class, tag) in [
        ("Policy", "policy"),
        ("Symptom", "symptom"),
        ("ChangeRequest", "request"),
        ("ChangePlan", "plan"),
        ("Monitor", "monitor"),
        ("AdmissionClass", "admission-class"),
        ("BrownoutMode", "brownout-mode"),
        ("ResourceBinding", "binding"),
        ("StateMigration", "migration"),
    ] {
        let names: Vec<(String, String)> = model
            .all_of_class(class)
            .into_iter()
            .map(|o| {
                let n = attr_or_empty(model, o, "name");
                (format!("{tag}:{n}"), n)
            })
            .collect();
        check_duplicates(&names, &mut report);
    }

    // Domain writes into the reserved monitor memory would let an action
    // forge or clear trip latches — always an error.
    for h in handlers {
        for a in &h.actions {
            let path = format!("handler:{}/action:{}", h.name, a.name);
            for e in &a.state_effects {
                if let Some((k, _)) = effect_key_type(e) {
                    if k.starts_with("mon_") {
                        report.error(
                            "reserved-key",
                            &path,
                            format!("state effect `{e}` writes reserved monitor memory `{k}`"),
                        );
                    }
                }
            }
        }
    }
    for (path, steps) in all_plan_steps(spec) {
        for s in &steps {
            if let Ok(PlanStep::Set(k, _)) = parse_step(s) {
                if k.starts_with("mon_") {
                    report.error(
                        "reserved-key",
                        &path,
                        format!("plan step `{s}` writes reserved monitor memory `{k}`"),
                    );
                }
            }
        }
    }
    // Declared state migrations are domain writes too: one that targets
    // the reserved monitor memory could forge or clear trip latches at
    // cutover (the evolution protocol manages `mon_*` carryover itself).
    for m in model.all_of_class("StateMigration") {
        let name = attr_or_empty(model, m, "name");
        let key = attr_or_empty(model, m, "key");
        if key.starts_with("mon_") {
            report.error(
                "reserved-key",
                &format!("migration:{name}"),
                format!("state migration writes reserved monitor memory `{key}`"),
            );
        }
    }
    report
}

/// Every (path, raw step list) in the model: autonomic change plans plus
/// brownout enter/exit transitions.
fn all_plan_steps(spec: &ModelSpec) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = spec
        .plans
        .iter()
        .map(|(name, _, steps)| (format!("plan:{name}"), steps.clone()))
        .collect();
    for (name, enter, exit) in &spec.brownouts {
        out.push((format!("brownout:{name}/enterSteps"), enter.clone()));
        out.push((format!("brownout:{name}/exitSteps"), exit.clone()));
    }
    out
}

/// The write footprint of a parsed step sequence (state keys only — hub
/// effects like `heal`/`degrade` touch resources, not the model).
fn steps_writes(steps: &[PlanStep]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for s in steps {
        match s {
            PlanStep::Set(k, _) => {
                out.insert(k.clone());
            }
            PlanStep::ResetBreaker(r) => {
                out.insert(breaker_key(r, ""));
                out.insert(breaker_key(r, "failures"));
            }
            PlanStep::Heal(_) | PlanStep::Fail(_) | PlanStep::Degrade(_, _) | PlanStep::Emit(_) => {
            }
        }
    }
    out
}

/// Full static analysis of a broker model. Never fails — defects are
/// diagnostics in the returned report; [`AnalysisReport::is_accepted`]
/// decides whether an engine may load the model.
pub fn analyze(model: &Model) -> AnalysisReport {
    analyze_read(model, &read(model)).0
}

/// [`analyze`] over the model's already-read handlers and policies; also
/// returns the typed key universe: every state variable some unit or the
/// engine may write.
pub(crate) fn analyze_read(
    model: &Model,
    spec: &ModelSpec,
) -> (AnalysisReport, BTreeMap<String, KeyType>) {
    let mut report = hygiene(model, spec);
    let handlers = &spec.handlers;

    // -- Declared names ----------------------------------------------------
    let mut policies: BTreeMap<&str, Option<&Expr>> = BTreeMap::new();
    for p in &spec.policies {
        if let Err(e) = &p.expr {
            report.error(
                "policy-parse",
                &format!("policy:{}", p.name),
                format!("`{}`: {e}", p.source),
            );
        }
        policies.insert(&p.name, p.expr.as_ref().ok());
    }
    let admission_classes: BTreeSet<&str> = spec.classes.iter().map(|c| c.name.as_str()).collect();
    let bindings: BTreeSet<String> = spec.bindings.iter().map(|(n, _)| n.clone()).collect();
    let mut resources: BTreeSet<String> = bindings.clone();
    for h in handlers {
        for a in &h.actions {
            if !a.resource.is_empty() {
                resources.insert(a.resource.clone());
            }
        }
    }

    let (symptoms, requests) = (&spec.symptoms, &spec.requests);
    // Dead steps: a request naming no symptom, or a plan naming no
    // request, can never fire.
    for (rname, symptom) in requests {
        if !symptoms.iter().any(|(s, _)| s.name == *symptom) {
            report.warning(
                "dangling-request",
                &format!("request:{rname}"),
                format!("references unknown symptom `{symptom}` — its plan can never fire"),
            );
        }
    }
    for (pname, request, _) in &spec.plans {
        if !requests.iter().any(|(r, _)| r == request) {
            report.warning(
                "dangling-plan",
                &format!("plan:{pname}"),
                format!("references unknown change request `{request}` — its steps are dead"),
            );
        }
    }

    // -- Typed key universe ------------------------------------------------
    // Everything some unit or the engine may write, with inferred types.
    let mut keys: BTreeMap<String, KeyType> = BTreeMap::new();
    let note_key = |keys: &mut BTreeMap<String, KeyType>, k: String, t: KeyType| {
        // A key written as Int somewhere and Str elsewhere degrades to Any.
        keys.entry(k)
            .and_modify(|old| {
                if *old != t {
                    *old = KeyType::Any;
                }
            })
            .or_insert(t);
    };
    for h in handlers {
        for a in &h.actions {
            for e in &a.state_effects {
                if let Some((k, t)) = effect_key_type(e) {
                    note_key(&mut keys, k, t);
                }
            }
        }
    }
    let mut parsed_steps: BTreeMap<String, Vec<PlanStep>> = BTreeMap::new();
    for (path, steps) in all_plan_steps(spec) {
        let mut ok_steps = Vec::new();
        for s in &steps {
            match parse_step(s) {
                Ok(step) => {
                    if let PlanStep::Set(k, v) = &step {
                        if let Some((k, t)) = effect_key_type(&format!("{k}={v}")) {
                            note_key(&mut keys, k, t);
                        }
                    }
                    // Resource-directed verbs should name a bound logical
                    // resource; the runtime falls back to the raw name, so
                    // an unknown one is a (likely-typo) warning.
                    let res = match &step {
                        PlanStep::Heal(r)
                        | PlanStep::Fail(r)
                        | PlanStep::Degrade(r, _)
                        | PlanStep::ResetBreaker(r) => Some(r.clone()),
                        _ => None,
                    };
                    if let Some(r) = res {
                        if !resources.contains(&r) {
                            report.warning(
                                "unknown-resource",
                                &path,
                                format!(
                                    "step `{s}` targets `{r}`, which no binding or action declares"
                                ),
                            );
                        }
                    }
                    ok_steps.push(step);
                }
                Err(e) => report.error("bad-plan-step", &path, e.to_string()),
            }
        }
        parsed_steps.insert(path, ok_steps);
    }
    for r in &resources {
        note_key(&mut keys, failures_key(r), KeyType::Int);
        note_key(&mut keys, breaker_key(r, ""), KeyType::Str);
        note_key(&mut keys, breaker_key(r, "failures"), KeyType::Int);
        note_key(&mut keys, breaker_key(r, "opened_at_us"), KeyType::Int);
    }
    for c in &admission_classes {
        for suffix in [
            "rate",
            "burst",
            "queue_us",
            "deadline_us",
            "tokens",
            "last_us",
            "admitted",
            "deferred",
            "shed",
        ] {
            note_key(&mut keys, adm_key(c, suffix), KeyType::Int);
        }
    }
    if !admission_classes.is_empty() {
        note_key(&mut keys, QUEUE_DELAY_KEY.into(), KeyType::Int);
        note_key(&mut keys, SHED_RECENT_KEY.into(), KeyType::Int);
    }
    if !spec.brownouts.is_empty() {
        note_key(&mut keys, "brownout_mode".into(), KeyType::Str);
        note_key(&mut keys, "brownout_level".into(), KeyType::Int);
    }
    // Declared state migrations introduce their target keys at cutover,
    // so candidate policies/monitors may reference them; the value's
    // shape decides the type (an empty value unsets and adds no key).
    for m in model.all_of_class("StateMigration") {
        let key = attr_or_empty(model, m, "key");
        let value = attr_or_empty(model, m, "value");
        if !key.is_empty() && !value.is_empty() {
            let ty = if value.parse::<i64>().is_ok() {
                KeyType::Int
            } else {
                KeyType::Str
            };
            note_key(&mut keys, key, ty);
        }
    }
    note_key(&mut keys, TRIP_COUNTER_KEY.into(), KeyType::Int);
    for (name, _) in &spec.monitors {
        note_key(&mut keys, trip_key(name), KeyType::Str);
    }

    // -- Pass 2: path/type resolution --------------------------------------
    for (name, expr) in &policies {
        if let Some(e) = expr {
            check_expr(e, &keys, &format!("policy:{name}"), &mut report);
            check_only_self_free(e, &format!("policy:{name}"), &mut report);
        }
    }
    for (symptom, _) in symptoms {
        let path = format!("symptom:{}", symptom.name);
        match &symptom.expr {
            Ok(e) => {
                check_expr(e, &keys, &path, &mut report);
                check_only_self_free(e, &path, &mut report);
            }
            Err(e) => report.error(
                "condition-parse",
                &path,
                format!("`{}`: {e}", symptom.source),
            ),
        }
    }
    for h in handlers {
        for a in &h.actions {
            let path = format!("handler:{}/action:{}", h.name, a.name);
            if let Some(g) = &a.guard {
                if !policies.contains_key(g.as_str()) {
                    report.error(
                        "unknown-policy",
                        &path,
                        format!("guard references undeclared policy `{g}`"),
                    );
                }
            }
            if let Some(c) = &a.admission_class {
                if !admission_classes.contains(c.as_str()) {
                    report.error(
                        "unknown-admission-class",
                        &path,
                        format!("accounted to undeclared admission class `{c}`"),
                    );
                }
            }
            if let Some(f) = &a.resilience.fallback {
                if f == &a.name {
                    report.error("self-fallback", &path, "action falls back to itself");
                } else if !h.actions.iter().any(|s| &s.name == f) {
                    report.error(
                        "unknown-fallback",
                        &path,
                        format!("falls back to unknown sibling action `{f}`"),
                    );
                }
            }
            if !a.resource.is_empty() && !bindings.is_empty() && !bindings.contains(&a.resource) {
                report.warning(
                    "unbound-resource",
                    &path,
                    format!(
                        "resource `{}` has no ResourceBinding — invocations go to the raw name",
                        a.resource
                    ),
                );
            }
        }
    }

    // -- Unreachable actions ------------------------------------------------
    // Selection takes the first guard-passing action; an action after an
    // unguarded one is only reachable as some sibling's fallback.
    for h in handlers {
        let mut shadowed = false;
        for a in &h.actions {
            let is_fallback_target = h
                .actions
                .iter()
                .any(|s| s.resilience.fallback.as_deref() == Some(a.name.as_str()));
            if shadowed && !is_fallback_target {
                report.warning(
                    "unreachable-action",
                    &format!("handler:{}/action:{}", h.name, a.name),
                    "an earlier unguarded action always wins selection, and no sibling falls back here",
                );
            }
            if a.guard.is_none() {
                shadowed = true;
            }
        }
    }

    // -- Monitors: parse, resolve, staticize --------------------------------
    for (name, source) in &spec.monitors {
        let path = format!("monitor:{name}");
        let property = match parse_property(source) {
            Ok(p) => p,
            Err(e) => {
                report.error("monitor-parse", &path, format!("`{source}`: {e}"));
                continue;
            }
        };
        match &property {
            Property::Always(e) => check_expr(e, &keys, &path, &mut report),
            Property::NeverDuring { never, during } => {
                check_expr(never, &keys, &path, &mut report);
                check_expr(during, &keys, &path, &mut report);
            }
            Property::AtMostOnePer { .. } => {}
        }
        let watched = property.watched_keys();
        if !watched.is_empty() && !watched.iter().any(|k| keys.contains_key(k)) {
            report.warning(
                "vacuous-monitor",
                &path,
                format!(
                    "no watched key ({}) is ever written by an action, plan, or the engine — the property can never change verdict",
                    watched.join(", ")
                ),
            );
        }
    }

    // -- Pass 3: footprints -------------------------------------------------
    for h in handlers {
        for a in &h.actions {
            let unit = action_unit(&h.name, &a.name);
            let mut fp = Footprint::default();
            if let Some(Some(e)) = a.guard.as_ref().and_then(|g| policies.get(g.as_str())) {
                fp.reads.extend(self_paths(e));
            }
            for e in &a.state_effects {
                if let Some((k, _)) = effect_key_type(e) {
                    fp.writes.insert(k);
                }
            }
            if !a.resource.is_empty() {
                fp.writes.insert(failures_key(&a.resource));
                if a.resilience.breaker_threshold > 0 {
                    for suffix in ["", "failures", "opened_at_us"] {
                        fp.writes.insert(breaker_key(&a.resource, suffix));
                    }
                }
            }
            if let Some(c) = &a.admission_class {
                for suffix in ["rate", "burst", "queue_us", "deadline_us"] {
                    fp.reads.insert(adm_key(c, suffix));
                }
                for suffix in ["tokens", "last_us", "admitted", "deferred", "shed"] {
                    fp.writes.insert(adm_key(c, suffix));
                }
                fp.writes.insert(QUEUE_DELAY_KEY.into());
                fp.writes.insert(SHED_RECENT_KEY.into());
            }
            report.footprints.insert(unit, fp);
        }
    }
    // One plan unit per *armed* symptom (the engine joins the same way).
    for (symptom, steps) in symptoms {
        let mut fp = Footprint::default();
        if let Ok(cond) = &symptom.expr {
            fp.reads.extend(self_paths(cond));
        }
        let steps: Vec<PlanStep> = steps.iter().filter_map(|s| parse_step(s).ok()).collect();
        fp.writes.extend(steps_writes(&steps));
        report.footprints.insert(plan_unit(&symptom.name), fp);
    }
    for (name, ..) in &spec.brownouts {
        let mut fp = Footprint::default();
        fp.reads.insert(QUEUE_DELAY_KEY.into());
        fp.reads.insert(SHED_RECENT_KEY.into());
        fp.writes.insert("brownout_mode".into());
        fp.writes.insert("brownout_level".into());
        fp.writes.insert(SHED_RECENT_KEY.into());
        for attr in ["enterSteps", "exitSteps"] {
            if let Some(steps) = parsed_steps.get(&format!("brownout:{name}/{attr}")) {
                fp.writes.extend(steps_writes(steps));
            }
        }
        report.footprints.insert(brownout_unit(name), fp);
    }

    // -- Pass 3: conflict graph ---------------------------------------------
    // Concurrently dispatchable pairs: actions of *different* handlers
    // (within one handler, actions are guarded alternatives), plans of
    // different symptoms, brownout transitions, and every cross-kind pair.
    let mut units: Vec<(usize, String)> = Vec::new(); // (group, unit)
    for (gi, h) in handlers.iter().enumerate() {
        for a in &h.actions {
            units.push((gi, action_unit(&h.name, &a.name)));
        }
    }
    let base = handlers.len();
    for (i, (symptom, _)) in symptoms.iter().enumerate() {
        units.push((base + i, plan_unit(&symptom.name)));
    }
    let base = base + symptoms.len();
    for (i, (name, ..)) in spec.brownouts.iter().enumerate() {
        units.push((base + i, brownout_unit(name)));
    }
    for i in 0..units.len() {
        for j in (i + 1)..units.len() {
            if units[i].0 == units[j].0 {
                continue;
            }
            report.conflict_edges(&units[i].1, &units[j].1, &is_engine_key);
        }
    }

    (report, keys)
}

/// Guards and conditions are evaluated with `self` bound to the state
/// object and nothing else; any other free variable is a latent runtime
/// eval failure.
fn check_only_self_free(e: &Expr, path: &str, report: &mut AnalysisReport) {
    for v in e.free_vars() {
        if v != "self" {
            report.warning(
                "free-variable",
                path,
                format!("free variable `{v}` has no binding at evaluation time"),
            );
        }
    }
}

/// The union footprint of every action a given call/event selector may
/// dispatch — the per-operation row a shard router keys on. Returns
/// `None` when no handler matches the selector.
pub fn op_footprint(model: &Model, report: &AnalysisReport, selector: &str) -> Option<Footprint> {
    let mut fp = Footprint::default();
    let mut found = false;
    for h in read(model).handlers {
        if h.selector != selector {
            continue;
        }
        for a in &h.actions {
            let unit = action_unit(&h.name, &a.name);
            if let Some(afp) = report.footprints.get(&unit) {
                fp.absorb(afp);
                found = true;
            }
        }
    }
    found.then_some(fp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BrokerModelBuilder, Resilience};
    use mddsm_meta::analysis::ConflictKind;

    fn base() -> BrokerModelBuilder {
        BrokerModelBuilder::new("b")
            .call_handler("open", "open")
            .action(
                "open",
                "doOpen",
                "media",
                "open",
                &[],
                None,
                &["streams=+1"],
            )
            .bind_resource("media", "sim.media")
    }

    #[test]
    fn clean_model_is_accepted_with_footprints() {
        let model = base().build();
        let r = analyze(&model);
        assert!(r.is_accepted(), "{:?}", r.diagnostics);
        let fp = &r.footprints["action:open/doOpen"];
        assert!(fp.writes.contains("streams"));
        assert!(fp.writes.contains("failures_media"));
    }

    #[test]
    fn engine_owned_keys_are_rendered_as_the_engine_writes_them() {
        // The engine flattens the dot of an admission class name.
        let model = base()
            .with_admission("open", 100, "tenant.a")
            .admission_class("tenant.a", 10, 1_000, 0, 0)
            .policy("hasTokens", "self.adm_tenant_a_tokens > 0")
            .build();
        let r = analyze(&model);
        assert!(
            !r.warnings().any(|d| d.code == "unresolved-key"),
            "{:?}",
            r.diagnostics
        );
        let fp = &r.footprints["action:open/doOpen"];
        assert!(fp.reads.contains("adm_tenant_a_rate"), "{fp:?}");
        assert!(fp.writes.contains("adm_tenant_a_tokens"), "{fp:?}");
        let mut broker =
            crate::GenericBroker::from_model(&model, mddsm_sim::ResourceHub::new(1)).unwrap();
        let meta = crate::CallMeta::new("tenant.a", 0);
        broker.call_admitted("open", &Vec::new(), &meta).unwrap();
        let written: Vec<String> = broker
            .state()
            .snapshot()
            .vars
            .into_iter()
            .map(|(k, _)| k)
            .filter(|k| k.starts_with("adm_tenant"))
            .collect();
        assert!(!written.is_empty());
        for key in &written {
            assert!(
                fp.reads.contains(key) || fp.writes.contains(key),
                "engine wrote `{key}` outside the footprint {fp:?}"
            );
        }
    }

    #[test]
    fn unknown_guard_policy_is_an_error() {
        let model = base()
            .call_handler("close", "close")
            .action(
                "close",
                "doClose",
                "media",
                "close",
                &[],
                Some("ghost"),
                &[],
            )
            .build();
        let r = analyze(&model);
        assert!(r.errors().any(|d| d.code == "unknown-policy"));
    }

    #[test]
    fn type_clash_between_policy_and_effect_is_an_error() {
        let model = base().policy("odd", "self.streams = \"many\"").build();
        let r = analyze(&model);
        assert!(
            r.errors().any(|d| d.code == "type-mismatch"),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn dangling_path_is_a_warning() {
        let model = base().policy("ghostly", "self.ghost > 0").build();
        let r = analyze(&model);
        assert!(r.is_accepted());
        assert!(r.warnings().any(|d| d.code == "unresolved-key"));
    }

    #[test]
    fn a_replica_set_adds_no_key_to_the_state() {
        // The replicator keeps its health in its own fields: a policy
        // reading `repl_lag` reads a key no broker state ever holds.
        let model = base()
            .replica_set(2, &[("b", "AckWindowed", 16, 5_000)])
            .policy("lagging", "self.repl_lag > 10")
            .build();
        let r = analyze(&model);
        assert!(
            r.warnings()
                .any(|d| d.code == "unresolved-key" && d.message.contains("self.repl_lag")),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn duplicate_handler_name_is_an_error() {
        // `build()` refuses duplicates now, so inject one reflectively —
        // the analyzer must still catch models from other provenances.
        let mut model = base().call_handler("other", "open2").build();
        let dup = model.all_of_class("Handler")[1];
        model.set_attr(dup, "name", mddsm_meta::Value::from("open"));
        let r = analyze(&model);
        assert!(r.errors().any(|d| d.code == "duplicate-name"));
    }

    #[test]
    fn mon_prefixed_effect_is_an_error() {
        let mut model = base().build();
        let a = model.all_of_class("Action")[0];
        model.set_attr_many(
            a,
            "stateEffects",
            vec![mddsm_meta::Value::from("mon_trips=+1")],
        );
        let r = analyze(&model);
        assert!(r.errors().any(|d| d.code == "reserved-key"));
    }

    #[test]
    fn bad_plan_step_is_an_error() {
        let model = base()
            .autonomic_rule("odd", "self.streams > 0", &["explode now"])
            .build();
        let r = analyze(&model);
        assert!(r.errors().any(|d| d.code == "bad-plan-step"));
    }

    #[test]
    fn write_write_race_is_a_conflict_edge() {
        let model = base()
            .call_handler("other", "other")
            .action(
                "other",
                "alsoOpen",
                "media",
                "op",
                &[],
                None,
                &["streams=+1"],
            )
            .build();
        let r = analyze(&model);
        assert!(r.is_accepted());
        assert!(r
            .conflicts
            .iter()
            .any(|c| c.key == "streams" && c.kind == ConflictKind::WriteWrite));
    }

    #[test]
    fn within_handler_alternatives_do_not_conflict() {
        let model = BrokerModelBuilder::new("b")
            .policy("direct", "self.mode = null or self.mode = \"direct\"")
            .call_handler("open", "open")
            .action(
                "open",
                "a1",
                "media",
                "op",
                &[],
                Some("direct"),
                &["streams=+1"],
            )
            .action("open", "a2", "media", "op", &[], None, &["streams=+1"])
            .bind_resource("media", "sim.media")
            .build();
        let r = analyze(&model);
        assert!(r.conflicts.iter().all(|c| c.key != "streams"));
    }

    #[test]
    fn plan_racing_an_action_conflicts() {
        let model = base()
            .autonomic_rule(
                "reset",
                "self.failures_media <> null and self.failures_media > 0",
                &["set streams 0"],
            )
            .build();
        let r = analyze(&model);
        assert!(r
            .conflicts
            .iter()
            .any(|c| c.key == "streams" && c.kind == ConflictKind::WriteWrite));
    }

    #[test]
    fn vacuous_monitor_is_a_warning() {
        let model = base().monitor("ghostly", "self.phantom >= 0").build();
        let r = analyze(&model);
        assert!(r.is_accepted());
        assert!(r.warnings().any(|d| d.code == "vacuous-monitor"));
    }

    #[test]
    fn grounded_monitor_is_not_vacuous() {
        let model = base().monitor("sane", "self.streams >= 0").build();
        let r = analyze(&model);
        assert!(!r.warnings().any(|d| d.code == "vacuous-monitor"));
    }

    #[test]
    fn unreachable_action_is_warned_unless_fallback_target() {
        let model = BrokerModelBuilder::new("b")
            .call_handler("open", "open")
            .action("open", "first", "media", "op", &[], None, &[])
            .action("open", "shadowed", "media", "op", &[], None, &[])
            .bind_resource("media", "sim.media")
            .build();
        let r = analyze(&model);
        assert!(r.warnings().any(|d| d.code == "unreachable-action"));

        let model = BrokerModelBuilder::new("b")
            .call_handler("open", "open")
            .resilient_action(
                "open",
                "first",
                "media",
                "op",
                &[],
                None,
                &[],
                &Resilience {
                    fallback: Some("shadowed".into()),
                    ..Resilience::default()
                },
            )
            .action("open", "shadowed", "media", "op", &[], None, &[])
            .bind_resource("media", "sim.media")
            .build();
        let r = analyze(&model);
        assert!(!r.warnings().any(|d| d.code == "unreachable-action"));
    }

    #[test]
    fn dangling_plan_is_dead_steps_warning() {
        let mut model = base().build();
        let p = model.create("ChangePlan");
        model.set_attr(p, "name", mddsm_meta::Value::from("orphan"));
        model.set_attr(p, "request", mddsm_meta::Value::from("no-such-request"));
        model.set_attr_many(p, "steps", vec![mddsm_meta::Value::from("heal media")]);
        let r = analyze(&model);
        assert!(r.warnings().any(|d| d.code == "dangling-plan"));
    }

    #[test]
    fn op_footprint_unions_handler_actions() {
        let model = base().build();
        let r = analyze(&model);
        let fp = op_footprint(&model, &r, "open").unwrap();
        assert!(fp.writes.contains("streams"));
        assert!(op_footprint(&model, &r, "nope").is_none());
    }
}
