//! The change interpreter: walks a change list, drives the domain LTS, and
//! emits control scripts.

use crate::lts::{ChangeKind, CommandTemplate, Label, Lts, StateId};
use crate::script::{Command, ControlScript, EventTrigger};
use crate::{Result, SynthesisError};
use mddsm_meta::constraint::{eval_bool, EvalEnv, Val};
use mddsm_meta::diff::{Change, ChangeList, KeyIndex};
use mddsm_meta::metamodel::Metamodel;
use mddsm_meta::model::{Model, ObjectId};
use mddsm_meta::Value;
use std::collections::{BTreeMap, BTreeSet};

/// What to do with a model change no transition matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnmatchedPolicy {
    /// Ignore the change (the default: not every model edit has runtime
    /// meaning).
    #[default]
    Skip,
    /// Fail synthesis.
    Error,
    /// Emit a generic command named after the change kind, so downstream
    /// layers can decide.
    Passthrough,
}

/// Interpreter configuration.
#[derive(Debug, Clone, Default)]
pub struct InterpreterConfig {
    /// Policy for unmatched changes.
    pub unmatched: UnmatchedPolicy,
}

/// The change interpreter; owns the LTS's current state.
#[derive(Debug, Clone)]
pub struct ChangeInterpreter {
    lts: Lts,
    state: StateId,
    config: InterpreterConfig,
}

/// Output of one interpretation pass.
#[derive(Debug, Clone, Default)]
pub struct Interpretation {
    /// Commands to execute immediately, in order.
    pub immediate: ControlScript,
    /// Scripts installed to run on future events.
    pub installed: Vec<ControlScript>,
}

impl ChangeInterpreter {
    /// Creates an interpreter positioned at the LTS initial state.
    pub fn new(lts: Lts, config: InterpreterConfig) -> Self {
        let state = lts.initial();
        ChangeInterpreter { lts, state, config }
    }

    /// The current LTS state name.
    pub fn state_name(&self) -> &str {
        self.lts.state_name(self.state)
    }

    /// Resets to the initial state.
    pub fn reset(&mut self) {
        self.state = self.lts.initial();
    }

    /// Interprets a change list against the *new* model, producing control
    /// scripts. First enabled transition (declaration order) wins per
    /// change. On an error the LTS state is left as it was.
    pub fn interpret(
        &mut self,
        changes: &ChangeList,
        new_model: &Model,
        mm: &Metamodel,
    ) -> Result<Interpretation> {
        let keys = KeyIndex::new(new_model);
        let (out, state) = self.interpret_indexed(changes, new_model, &keys, mm)?;
        self.state = state;
        Ok(out)
    }

    /// The interpretation pass: runs `changes` from the current state
    /// against the new model and its key index, returning the scripts and
    /// the state reached without entering it (see
    /// [`ChangeInterpreter::enter`]), so a refused pass changes nothing.
    pub(crate) fn interpret_indexed(
        &self,
        changes: &ChangeList,
        new_model: &Model,
        keys: &KeyIndex,
        mm: &Metamodel,
    ) -> Result<(Interpretation, StateId)> {
        let mut out = Interpretation::default();
        let mut state = self.state;
        let passthrough = self.config.unmatched == UnmatchedPolicy::Passthrough;
        // Objects created by this very change list ("new" objects, whose
        // initial SetAttr/SetRefs changes `existing_only` patterns skip).
        let created: BTreeSet<_> = changes
            .iter()
            .filter_map(|c| match c {
                Change::Create { key } => Some(key.clone()),
                _ => None,
            })
            .collect();

        for change in changes.iter() {
            let mut candidates = self
                .lts
                .transitions
                .iter()
                .filter(|t| {
                    t.from == state
                        && matches!(&t.label, Label::Change(p) if p.matches_in(change, &created))
                })
                .peekable();
            if candidates.peek().is_none() && !passthrough {
                if self.config.unmatched == UnmatchedPolicy::Error {
                    return Err(unmatched(change, self.lts.state_name(state)));
                }
                continue;
            }
            // Only a change some transition may take (or one passed
            // through) needs its `$`-bindings. A guard reads all of them,
            // and so does a passthrough command; a first candidate without
            // a guard is taken, and only its templates' placeholders are
            // read.
            let subject = keys.id(change.subject());
            let wanted: Option<Vec<&str>> =
                (candidates.peek()).filter(|t| t.guard.is_none()).map(|t| {
                    t.emit
                        .iter()
                        .flat_map(CommandTemplate::placeholders)
                        .collect()
                });
            let want = |prefix: &str, name: &str| {
                (wanted.as_ref())
                    .is_none_or(|w| w.iter().any(|v| v.strip_prefix(prefix) == Some(name)))
            };
            let vars = bindings(change, subject, new_model, mm, &want);
            let mut taken = None;
            for t in candidates {
                if let Some(guard) = &t.guard {
                    let mut env = EvalEnv::new(new_model, mm);
                    for (k, v) in &vars {
                        env.bind(k, Val::Scalar(Value::Str(v.clone())));
                    }
                    // Bind `self` to the changed object when it still
                    // exists in the new model.
                    if let Some(id) = subject {
                        env.bind("self", Val::Obj(id));
                    }
                    match eval_bool(guard, &env) {
                        Ok(true) => {}
                        Ok(false) => continue,
                        Err(e) => {
                            return Err(SynthesisError::GuardFailed(format!(
                                "{e} (change {change:?})"
                            )))
                        }
                    }
                }
                let commands: Vec<Command> =
                    t.emit.iter().map(|tmpl| tmpl.instantiate(&vars)).collect();
                match &t.install_on {
                    None => out.immediate.commands.extend(commands),
                    Some(topic) => out.installed.push(ControlScript::triggered(
                        EventTrigger::on(topic.clone()),
                        commands,
                    )),
                }
                taken = Some(t.to);
                break;
            }

            match (taken, self.config.unmatched) {
                (Some(to), _) => state = to,
                (None, UnmatchedPolicy::Skip) => {}
                (None, UnmatchedPolicy::Error) => {
                    return Err(unmatched(change, self.lts.state_name(state)))
                }
                (None, UnmatchedPolicy::Passthrough) => {
                    let name = match ChangeKind::of(change) {
                        ChangeKind::Create => "create",
                        ChangeKind::Delete => "delete",
                        ChangeKind::SetAttr => "setAttr",
                        ChangeKind::SetRefs => "setRefs",
                    };
                    let mut cmd = Command::new(name, vars["key"].clone());
                    for (k, v) in &vars {
                        if k != "key" {
                            cmd = cmd.with(k.clone(), v.clone());
                        }
                    }
                    out.immediate.commands.push(cmd);
                }
            }
        }
        Ok((out, state))
    }

    /// Enters a state an [`ChangeInterpreter::interpret_indexed`] pass
    /// reached.
    pub(crate) fn enter(&mut self, state: StateId) {
        self.state = state;
    }

    /// Feeds a Controller-layer event to the LTS; event transitions may
    /// also emit commands (e.g. failure-recovery commands).
    pub fn interpret_event(&mut self, topic: &str) -> Result<ControlScript> {
        let candidate = self.lts.transitions.iter().position(|t| {
            t.from == self.state && matches!(&t.label, Label::Event(e) if e == topic)
        });
        let mut script = ControlScript::default();
        if let Some(idx) = candidate {
            let t = &self.lts.transitions[idx];
            let vars = BTreeMap::from([("event".to_string(), topic.to_string())]);
            script.commands = t.emit.iter().map(|tmpl| tmpl.instantiate(&vars)).collect();
            self.state = t.to;
        }
        Ok(script)
    }
}

fn unmatched(change: &Change, state: &str) -> SynthesisError {
    SynthesisError::UnmatchedChange(format!("{change:?} in state `{state}`"))
}

/// Which `$`-bindings to build, by prefix (empty, `attr_` or `ref_`) and
/// name.
type Want<'a> = dyn Fn(&str, &str) -> bool + 'a;

/// The `$`-bindings of a change that `want` asks for: those of
/// [`change_vars`], plus, when the changed object (`subject`) is in the
/// new model, its attribute values as `attr_<name>` (so command templates
/// can carry domain data, e.g. `$attr_action` for an automation rule's
/// action) and its reference slots as `ref_<slot>`.
fn bindings(
    change: &Change,
    subject: Option<ObjectId>,
    new_model: &Model,
    mm: &Metamodel,
    want: &Want<'_>,
) -> BTreeMap<String, String> {
    let mut vars = change_vars(change, want);
    let Some(obj) = subject.and_then(|id| new_model.object(id).ok()) else {
        return vars;
    };
    // Declared defaults first, so explicit values override.
    for attr in mm.all_attributes(obj.class()) {
        if let Some(d) = attr.default.first().filter(|_| want("attr_", &attr.name)) {
            vars.insert(format!("attr_{}", attr.name), render_value(d));
        }
    }
    for (name, values) in obj.attrs() {
        if let Some(v) = values.first().filter(|_| want("attr_", name)) {
            vars.insert(format!("attr_{name}"), render_value(v));
        }
    }
    // Reference slots render as the targets' `name`/`id` attributes
    // (comma-joined), so creation commands can carry related element
    // names.
    for (slot, targets) in obj.refs().filter(|(slot, _)| want("ref_", slot)) {
        let names = targets.iter().filter_map(|t| {
            (new_model.attr_str(*t, "id")).or_else(|| new_model.attr_str(*t, "name"))
        });
        let mut rendered = String::new();
        for (i, name) in names.enumerate() {
            if i > 0 {
                rendered.push(',');
            }
            rendered.push_str(name);
        }
        vars.insert(format!("ref_{slot}"), rendered);
    }
    vars
}

/// Substitution variables derived from a change, those `want` asks for.
fn change_vars(change: &Change, want: &Want<'_>) -> BTreeMap<String, String> {
    let mut vars = BTreeMap::new();
    let mut put = |name: &str, value: &dyn Fn() -> String| {
        if want("", name) {
            vars.insert(name.to_owned(), value());
        }
    };
    let key = change.subject();
    put("key", &|| key.to_string());
    put("class", &|| key.class.clone());
    put("id", &|| key.key.trim_matches('"').to_owned());
    match change {
        Change::SetAttr { attr, values, .. } => {
            put("slot", &|| attr.clone());
            if let Some(v) = values.first() {
                put("value", &|| render_value(v));
            }
            put("values", &|| {
                let values: Vec<String> = values.iter().map(render_value).collect();
                values.join(",")
            });
        }
        Change::SetRefs {
            reference, targets, ..
        } => {
            put("slot", &|| reference.clone());
            put("targets", &|| {
                let targets: Vec<&str> = targets.iter().map(|t| t.key.trim_matches('"')).collect();
                targets.join(",")
            });
        }
        _ => {}
    }
    vars
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        // Commands carry the bare literal; the enum type is metamodel-side
        // knowledge the Broker layer does not share.
        Value::Enum(_, literal) => literal.clone(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lts::{ChangePattern, CommandTemplate, LtsBuilder};
    use mddsm_meta::diff::diff;
    use mddsm_meta::metamodel::{DataType, MetamodelBuilder, Multiplicity};

    fn mm() -> Metamodel {
        MetamodelBuilder::new("cml")
            .class("Session", |c| {
                c.attr("name", DataType::Str)
                    .opt_attr("kind", DataType::Str)
                    .reference("parties", "Party", Multiplicity::MANY)
            })
            .class("Party", |c| {
                c.attr("name", DataType::Str).opt_attr("bw", DataType::Int)
            })
            .build()
            .unwrap()
    }

    fn lts() -> Lts {
        LtsBuilder::new()
            .state("idle")
            .state("open")
            .initial("idle")
            .transition("idle", "open", ChangePattern::create("Session"), |t| {
                t.emit(CommandTemplate::new("openSession", "$key"))
            })
            .transition("open", "open", ChangePattern::create("Party"), |t| {
                t.guard("self.bw <> null and self.bw > 0")
                    .emit(CommandTemplate::new("addParty", "$key").with("id", "$id"))
            })
            .transition("open", "idle", ChangePattern::delete("Session"), |t| {
                t.emit(CommandTemplate::new("closeSession", "$key"))
            })
            .on_event("open", "idle", "sessionFailed", |t| {
                t.emit(CommandTemplate::new("recover", ""))
            })
            .build()
            .unwrap()
    }

    fn session_model(with_party: bool, bw: i64) -> Model {
        let mut m = Model::new("cml");
        let s = m.create("Session");
        m.set_attr(s, "name", Value::from("s1"));
        if with_party {
            let p = m.create("Party");
            m.set_attr(p, "name", Value::from("ana"));
            m.set_attr(p, "bw", Value::from(bw));
            m.add_ref(s, "parties", p);
        }
        m
    }

    /// Every `$`-variable a change can bind, plus an unbound one.
    fn all_vars() -> CommandTemplate {
        let vars = "$key|$class|$id|$slot|$value|$values|$targets|$attr_name|$attr_kind";
        CommandTemplate::new("run", "$key")
            .with("all", vars)
            .with("refs", "$ref_parties;$ref_none;$$x$")
    }

    /// The same transitions, guarded by `true` or not.
    fn every_kind(guarded: bool) -> Lts {
        let patterns = [
            ChangePattern::create("Session"),
            ChangePattern::set_attr("Session", "kind"),
            ChangePattern::set_refs("Session", "parties"),
            ChangePattern::create("Party"),
            ChangePattern::delete("Party"),
        ];
        let mut b = LtsBuilder::new().state("s").initial("s");
        for p in patterns {
            b = b.transition("s", "s", p, |t| {
                let t = t.emit(all_vars());
                if guarded {
                    t.guard("true")
                } else {
                    t
                }
            });
        }
        b.build().unwrap()
    }

    #[test]
    fn unguarded_transitions_bind_what_their_templates_read() {
        // Unguarded, a transition binds only its placeholders; guarded, it
        // binds everything. The commands must not tell them apart.
        let mm = mm();
        let mut with_kind = session_model(true, 5);
        let s = with_kind.all_of_class("Session")[0];
        with_kind.set_attr(s, "kind", Value::from("video"));
        let models = [
            Model::new("cml"),
            session_model(false, 0),
            session_model(true, 5),
            with_kind,
            session_model(false, 0),
        ];
        let mut lazy = ChangeInterpreter::new(every_kind(false), InterpreterConfig::default());
        let mut full = ChangeInterpreter::new(every_kind(true), InterpreterConfig::default());
        let mut emitted = 0;
        for pair in models.windows(2) {
            let changes = diff(&pair[0], &pair[1]);
            let got = lazy.interpret(&changes, &pair[1], &mm).unwrap();
            let want = full.interpret(&changes, &pair[1], &mm).unwrap();
            assert_eq!(got.immediate.render(), want.immediate.render());
            emitted += got.immediate.len();
        }
        assert_eq!(emitted, 7);
    }

    #[test]
    fn create_session_emits_open() {
        let mm = mm();
        let mut interp = ChangeInterpreter::new(lts(), InterpreterConfig::default());
        assert_eq!(interp.state_name(), "idle");
        let old = Model::new("cml");
        let new = session_model(false, 0);
        let changes = diff(&old, &new);
        let out = interp.interpret(&changes, &new, &mm).unwrap();
        assert_eq!(out.immediate.render(), "openSession@Session[\"s1\"]()");
        assert_eq!(interp.state_name(), "open");
    }

    #[test]
    fn guard_filters_transitions() {
        let mm = mm();
        // Incremental submissions: session first, then the party joins.
        let run = |bw: i64| {
            let mut interp = ChangeInterpreter::new(lts(), InterpreterConfig::default());
            let empty = Model::new("cml");
            let base = session_model(false, 0);
            let changes = diff(&empty, &base);
            let first = interp.interpret(&changes, &base, &mm).unwrap();
            assert_eq!(first.immediate.render(), "openSession@Session[\"s1\"]()");
            let withparty = session_model(true, bw);
            let changes = diff(&base, &withparty);
            interp.interpret(&changes, &withparty, &mm).unwrap()
        };
        // Party with bw=0 fails the guard -> addParty not emitted.
        let out = run(0);
        assert!(out.immediate.is_empty(), "{}", out.immediate.render());
        // With bw>0 the guard passes.
        let out = run(100);
        assert!(
            out.immediate
                .render()
                .contains("addParty@Party[\"ana\"](id=ana)"),
            "{}",
            out.immediate.render()
        );
    }

    #[test]
    fn unmatched_policies() {
        let mm = mm();
        let old = session_model(false, 0);
        let mut new = old.clone();
        let s = new.all_of_class("Session")[0];
        new.set_attr(s, "kind", Value::from("video"));
        let changes = diff(&old, &new);
        assert_eq!(changes.len(), 1);

        // Skip (default): nothing emitted.
        let mut interp = ChangeInterpreter::new(lts(), InterpreterConfig::default());
        let out = interp.interpret(&changes, &new, &mm).unwrap();
        assert!(out.immediate.is_empty());

        // Error.
        let mut interp = ChangeInterpreter::new(
            lts(),
            InterpreterConfig {
                unmatched: UnmatchedPolicy::Error,
            },
        );
        assert!(matches!(
            interp.interpret(&changes, &new, &mm),
            Err(SynthesisError::UnmatchedChange(_))
        ));

        // Passthrough.
        let mut interp = ChangeInterpreter::new(
            lts(),
            InterpreterConfig {
                unmatched: UnmatchedPolicy::Passthrough,
            },
        );
        let out = interp.interpret(&changes, &new, &mm).unwrap();
        assert_eq!(out.immediate.len(), 1);
        assert_eq!(out.immediate.commands[0].name, "setAttr");
        assert_eq!(out.immediate.commands[0].arg("slot"), Some("kind"));
        assert_eq!(out.immediate.commands[0].arg("value"), Some("video"));
    }

    #[test]
    fn event_transitions_fire_and_move_state() {
        let mm = mm();
        let mut interp = ChangeInterpreter::new(lts(), InterpreterConfig::default());
        let old = Model::new("cml");
        let new = session_model(false, 0);
        let changes = diff(&old, &new);
        interp.interpret(&changes, &new, &mm).unwrap();
        assert_eq!(interp.state_name(), "open");
        let script = interp.interpret_event("sessionFailed").unwrap();
        assert_eq!(script.render(), "recover()");
        assert_eq!(interp.state_name(), "idle");
        // Unknown events are ignored.
        let script = interp.interpret_event("nothing").unwrap();
        assert!(script.is_empty());
    }

    #[test]
    fn delete_closes_session_and_reset_restores_initial() {
        let mm = mm();
        let mut interp = ChangeInterpreter::new(lts(), InterpreterConfig::default());
        let old = Model::new("cml");
        let new = session_model(false, 0);
        let changes = diff(&old, &new);
        interp.interpret(&changes, &new, &mm).unwrap();
        let back = diff(&new, &old);
        let out = interp.interpret(&back, &old, &mm).unwrap();
        assert_eq!(out.immediate.render(), "closeSession@Session[\"s1\"]()");
        assert_eq!(interp.state_name(), "idle");
        interp.reset();
        assert_eq!(interp.state_name(), "idle");
    }

    #[test]
    fn install_on_produces_triggered_scripts() {
        let lts = LtsBuilder::new()
            .state("s")
            .initial("s")
            .transition("s", "s", ChangePattern::create("Rule"), |t| {
                t.install_on("objectEntered")
                    .emit(CommandTemplate::new("applyRule", "$key"))
            })
            .build()
            .unwrap();
        let mm = MetamodelBuilder::new("mm")
            .class("Rule", |c| c.attr("name", DataType::Str))
            .build()
            .unwrap();
        let mut interp = ChangeInterpreter::new(lts, InterpreterConfig::default());
        let old = Model::new("mm");
        let mut new = Model::new("mm");
        let r = new.create("Rule");
        new.set_attr(r, "name", Value::from("r1"));
        let changes = diff(&old, &new);
        let out = interp.interpret(&changes, &new, &mm).unwrap();
        assert!(out.immediate.is_empty());
        assert_eq!(out.installed.len(), 1);
        let t = out.installed[0].trigger.as_ref().unwrap();
        assert_eq!(t.topic, "objectEntered");
        assert_eq!(out.installed[0].render(), "applyRule@Rule[\"r1\"]()");
    }
}
