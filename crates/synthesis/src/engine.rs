//! The synthesis engine: comparator + interpreter + dispatcher in one
//! façade, owning the currently-executing runtime model.

use crate::interpreter::{ChangeInterpreter, Interpretation};
use crate::{Result, SynthesisError};
use mddsm_meta::conformance;
use mddsm_meta::diff::{compare, KeyIndex};
use mddsm_meta::metamodel::Metamodel;
use mddsm_meta::model::Model;
use std::sync::Arc;

/// The Synthesis layer façade.
///
/// Holds the DSML metamodel (domain-specific knowledge), the change
/// interpreter (with its domain LTS), and the currently-running model. User
/// model submissions flow through [`SynthesisEngine::submit`]:
///
/// 1. validate the new model against the DSML metamodel (conformance and
///    invariants);
/// 2. index the new model's object keys, and compare it with the current
///    runtime model through the index the engine keeps of that model (the
///    *model comparator*);
/// 3. interpret the change list through the LTS from its current state,
///    binding `$`-variables only for changes a transition may take (the
///    *change interpreter*);
/// 4. only if every step succeeded, install the new model, its index and
///    the LTS state reached as current (the *dispatcher*). A refused
///    submission changes nothing.
pub struct SynthesisEngine {
    metamodel: Arc<Metamodel>,
    interpreter: ChangeInterpreter,
    current: Model,
    /// The key index of `current`, swapped with each accepted model.
    current_keys: KeyIndex,
    submissions: u64,
}

impl SynthesisEngine {
    /// Creates an engine with an empty current model.
    pub fn new(metamodel: Arc<Metamodel>, interpreter: ChangeInterpreter) -> Self {
        let current = Model::new(metamodel.name());
        SynthesisEngine {
            metamodel,
            interpreter,
            current_keys: KeyIndex::new(&current),
            current,
            submissions: 0,
        }
    }

    /// The currently-executing runtime model.
    pub fn current_model(&self) -> &Model {
        &self.current
    }

    /// The DSML metamodel.
    pub fn metamodel(&self) -> &Metamodel {
        &self.metamodel
    }

    /// Number of accepted submissions.
    pub fn submissions(&self) -> u64 {
        self.submissions
    }

    /// The current LTS state name (exposed for diagnostics).
    pub fn lts_state(&self) -> &str {
        self.interpreter.state_name()
    }

    /// Submits a new user model; on success the model becomes current and
    /// the resulting scripts are returned.
    pub fn submit(&mut self, new_model: Model) -> Result<Interpretation> {
        if new_model.metamodel_name() != self.metamodel.name() {
            return Err(SynthesisError::InvalidModel(format!(
                "model conforms to `{}`, engine expects `{}`",
                new_model.metamodel_name(),
                self.metamodel.name()
            )));
        }
        conformance::check(&new_model, &self.metamodel)
            .map_err(|e| SynthesisError::InvalidModel(e.to_string()))?;
        let new_keys = KeyIndex::new(&new_model);
        let changes = compare(&self.current, &self.current_keys, &new_model, &new_keys);
        let (out, state) =
            self.interpreter
                .interpret_indexed(&changes, &new_model, &new_keys, &self.metamodel)?;
        self.interpreter.enter(state);
        self.current = new_model;
        self.current_keys = new_keys;
        self.submissions += 1;
        Ok(out)
    }

    /// Feeds a Controller-layer event to the LTS (e.g. a failure
    /// notification); may emit recovery commands.
    pub fn notify_event(&mut self, topic: &str) -> Result<crate::script::ControlScript> {
        self.interpreter.interpret_event(topic)
    }

    /// Clears the runtime model and resets the LTS — a full restart.
    pub fn reset(&mut self) {
        self.current = Model::new(self.metamodel.name());
        self.current_keys = KeyIndex::new(&self.current);
        self.interpreter.reset();
    }
}

impl std::fmt::Debug for SynthesisEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthesisEngine")
            .field("metamodel", &self.metamodel.name())
            .field("state", &self.lts_state())
            .field("submissions", &self.submissions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::{InterpreterConfig, UnmatchedPolicy};
    use crate::lts::{ChangePattern, CommandTemplate, LtsBuilder};
    use mddsm_meta::metamodel::{DataType, MetamodelBuilder, Multiplicity};
    use mddsm_meta::Value;

    fn mm() -> Arc<Metamodel> {
        Arc::new(
            MetamodelBuilder::new("cml")
                .class("Session", |c| {
                    c.attr("name", DataType::Str)
                        .reference("parties", "Party", Multiplicity::MANY)
                })
                .class("Party", |c| c.attr("name", DataType::Str))
                .build()
                .unwrap(),
        )
    }

    fn engine() -> SynthesisEngine {
        let lts = LtsBuilder::new()
            .state("idle")
            .state("open")
            .initial("idle")
            .transition("idle", "open", ChangePattern::create("Session"), |t| {
                t.emit(CommandTemplate::new("openSession", "$key"))
            })
            .transition("open", "open", ChangePattern::create("Party"), |t| {
                t.emit(CommandTemplate::new("addParty", "$key"))
            })
            .transition("open", "idle", ChangePattern::delete("Session"), |t| {
                t.emit(CommandTemplate::new("closeSession", "$key"))
            })
            .build()
            .unwrap();
        SynthesisEngine::new(
            mm(),
            ChangeInterpreter::new(lts, InterpreterConfig::default()),
        )
    }

    fn model_with_session() -> Model {
        let mut m = Model::new("cml");
        let s = m.create("Session");
        m.set_attr(s, "name", Value::from("s1"));
        m
    }

    #[test]
    fn incremental_submissions() {
        let mut e = engine();
        assert!(e.current_model().is_empty());

        let m1 = model_with_session();
        let out = e.submit(m1.clone()).unwrap();
        assert_eq!(out.immediate.render(), "openSession@Session[\"s1\"]()");
        assert_eq!(e.lts_state(), "open");
        assert_eq!(e.submissions(), 1);

        // Second submission adds a party; only the delta is synthesized.
        let mut m2 = m1.clone();
        let s = m2.all_of_class("Session")[0];
        let p = m2.create("Party");
        m2.set_attr(p, "name", Value::from("ana"));
        m2.add_ref(s, "parties", p);
        let out = e.submit(m2).unwrap();
        assert_eq!(out.immediate.render(), "addParty@Party[\"ana\"]()");
        assert_eq!(e.current_model().len(), 2);
    }

    #[test]
    fn invalid_model_rejected_and_state_unchanged() {
        let mut e = engine();
        let mut bad = Model::new("cml");
        bad.create("Session"); // missing mandatory `name`
        let err = e.submit(bad).unwrap_err();
        assert!(matches!(err, SynthesisError::InvalidModel(_)));
        assert!(e.current_model().is_empty());
        assert_eq!(e.lts_state(), "idle");
        assert_eq!(e.submissions(), 0);
    }

    #[test]
    fn a_refused_submission_changes_nothing() {
        // `create Session` has a transition; the session's `SetAttr name`
        // has none, so the submission is refused after the LTS took the
        // creation. The refusal must not leave the LTS in `open` while the
        // running model is still the old one.
        let lts = LtsBuilder::new()
            .state("idle")
            .state("open")
            .initial("idle")
            .transition("idle", "open", ChangePattern::create("Session"), |t| {
                t.emit(CommandTemplate::new("openSession", "$key"))
            })
            .build()
            .unwrap();
        let config = InterpreterConfig {
            unmatched: UnmatchedPolicy::Error,
        };
        let mut e = SynthesisEngine::new(mm(), ChangeInterpreter::new(lts, config));
        let err = e.submit(model_with_session()).unwrap_err();
        assert!(matches!(err, SynthesisError::UnmatchedChange(_)), "{err}");
        assert_eq!(e.lts_state(), "idle");
        assert!(e.current_model().is_empty());
        assert_eq!(e.submissions(), 0);
        // The kept index is still the empty model's: an empty submission
        // is a no-op in the initial state.
        let out = e.submit(Model::new("cml")).unwrap();
        assert!(out.immediate.is_empty() && out.installed.is_empty());
        assert_eq!(e.lts_state(), "idle");
    }

    #[test]
    fn wrong_metamodel_rejected() {
        let mut e = engine();
        let err = e.submit(Model::new("other")).unwrap_err();
        assert!(matches!(err, SynthesisError::InvalidModel(_)));
    }

    #[test]
    fn resubmitting_same_model_is_a_noop() {
        let mut e = engine();
        let m = model_with_session();
        e.submit(m.clone()).unwrap();
        let out = e.submit(m).unwrap();
        assert!(out.immediate.is_empty());
        assert!(out.installed.is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let mut e = engine();
        e.submit(model_with_session()).unwrap();
        e.reset();
        assert!(e.current_model().is_empty());
        assert_eq!(e.lts_state(), "idle");
        // Resubmitting the same model now re-generates the open command.
        let out = e.submit(model_with_session()).unwrap();
        assert_eq!(out.immediate.len(), 1);
    }
}
