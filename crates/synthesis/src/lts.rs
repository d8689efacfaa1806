//! Labeled transition systems encoding domain-specific synthesis semantics.
//!
//! "The labeled transition systems contain the behavior for the level of
//! abstraction relevant to the synthesis process" (§V-B). States track the
//! synthesis-relevant mode of the system (e.g. *idle*, *session open*);
//! transitions are labeled with model-change patterns (or Controller
//! events), optionally guarded by OCL-lite expressions, and emit control
//! command templates when taken.

use crate::{Result, SynthesisError};
use mddsm_meta::constraint::{self, Expr};
use mddsm_meta::diff::Change;
use std::collections::BTreeMap;

/// Identifier of an LTS state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) usize);

/// The kind of model change a pattern matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// Object creation.
    Create,
    /// Object deletion.
    Delete,
    /// Attribute slot replacement.
    SetAttr,
    /// Reference slot replacement.
    SetRefs,
}

impl ChangeKind {
    /// The kind of a concrete [`Change`].
    pub fn of(change: &Change) -> ChangeKind {
        match change {
            Change::Create { .. } => ChangeKind::Create,
            Change::Delete { .. } => ChangeKind::Delete,
            Change::SetAttr { .. } => ChangeKind::SetAttr,
            Change::SetRefs { .. } => ChangeKind::SetRefs,
        }
    }
}

/// A pattern over model changes; `None` fields match anything.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChangePattern {
    /// Change kind to match.
    pub kind: Option<ChangeKind>,
    /// Class of the changed object.
    pub class: Option<String>,
    /// Slot (attribute or reference) name, for `SetAttr`/`SetRefs`.
    pub slot: Option<String>,
    /// When `true`, the pattern does not match changes whose subject is
    /// created in the same change list — use for "update of an existing
    /// element" semantics (a new object's initial attribute values arrive
    /// as `SetAttr` changes alongside its `Create`).
    pub existing_only: bool,
}

impl ChangePattern {
    /// Matches any change.
    pub fn any() -> Self {
        Self::default()
    }

    /// Matches creations of the given class.
    pub fn create(class: &str) -> Self {
        ChangePattern {
            kind: Some(ChangeKind::Create),
            class: Some(class.into()),
            slot: None,
            existing_only: false,
        }
    }

    /// Matches deletions of the given class.
    pub fn delete(class: &str) -> Self {
        ChangePattern {
            kind: Some(ChangeKind::Delete),
            class: Some(class.into()),
            slot: None,
            existing_only: false,
        }
    }

    /// Matches attribute updates of `class.slot`.
    pub fn set_attr(class: &str, slot: &str) -> Self {
        ChangePattern {
            kind: Some(ChangeKind::SetAttr),
            class: Some(class.into()),
            slot: Some(slot.into()),
            existing_only: false,
        }
    }

    /// Matches reference updates of `class.slot`.
    pub fn set_refs(class: &str, slot: &str) -> Self {
        ChangePattern {
            kind: Some(ChangeKind::SetRefs),
            class: Some(class.into()),
            slot: Some(slot.into()),
            existing_only: false,
        }
    }

    /// Restricts the pattern to objects that already existed before this
    /// change list (see [`ChangePattern::existing_only`]).
    pub fn on_existing(mut self) -> Self {
        self.existing_only = true;
        self
    }

    /// Returns `true` if the pattern matches the change, given the set of
    /// object keys created in the same change list.
    pub fn matches_in(
        &self,
        change: &Change,
        created: &std::collections::BTreeSet<mddsm_meta::diff::ObjectKey>,
    ) -> bool {
        if self.existing_only && created.contains(change.subject()) {
            return false;
        }
        self.matches(change)
    }

    /// Returns `true` if the pattern matches the change (ignoring the
    /// `existing_only` restriction; see [`ChangePattern::matches_in`]).
    pub fn matches(&self, change: &Change) -> bool {
        if let Some(k) = self.kind {
            if k != ChangeKind::of(change) {
                return false;
            }
        }
        if let Some(class) = &self.class {
            if &change.subject().class != class {
                return false;
            }
        }
        if let Some(slot) = &self.slot {
            let actual = match change {
                Change::SetAttr { attr, .. } => Some(attr.as_str()),
                Change::SetRefs { reference, .. } => Some(reference.as_str()),
                _ => None,
            };
            if actual != Some(slot.as_str()) {
                return false;
            }
        }
        true
    }
}

/// A transition label: a model-change pattern or a Controller-layer event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Label {
    /// Taken when a model change matches.
    Change(ChangePattern),
    /// Taken when the Controller reports an event with this topic.
    Event(String),
}

/// A command template; `$`-placeholders are substituted from the change
/// context: `$key`, `$class`, `$slot`, `$value` (first value), `$values`
/// (comma-joined), `$targets` (comma-joined reference targets), plus any
/// extra variables supplied by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandTemplate {
    /// Command name (may contain placeholders).
    pub name: String,
    /// Command target (may contain placeholders).
    pub target: String,
    /// Arguments (keys fixed, values may contain placeholders).
    pub args: Vec<(String, String)>,
}

impl CommandTemplate {
    /// Creates a template with no arguments.
    pub fn new(name: impl Into<String>, target: impl Into<String>) -> Self {
        CommandTemplate {
            name: name.into(),
            target: target.into(),
            args: Vec::new(),
        }
    }

    /// Builder-style argument.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.args.push((key.into(), value.into()));
        self
    }

    /// Instantiates the template against a substitution map.
    pub fn instantiate(&self, vars: &BTreeMap<String, String>) -> crate::script::Command {
        crate::script::Command {
            name: subst(&self.name, vars),
            target: subst(&self.target, vars),
            args: self
                .args
                .iter()
                .map(|(k, v)| (k.clone(), subst(v, vars)))
                .collect(),
        }
    }

    /// The `$`-placeholders of the name, the target and the argument
    /// values, as [`CommandTemplate::instantiate`] reads them.
    pub(crate) fn placeholders(&self) -> impl Iterator<Item = &str> {
        let texts = [&self.name, &self.target].into_iter();
        texts
            .chain(self.args.iter().map(|(_, v)| v))
            .flat_map(|text| {
                text.split('$')
                    .skip(1)
                    .map(|after| &after[..placeholder_end(after)])
            })
    }
}

/// The length of the placeholder name at the start of `after` (the text
/// after a `$`).
fn placeholder_end(after: &str) -> usize {
    (after.find(|c: char| !(c.is_alphanumeric() || c == '_'))).unwrap_or(after.len())
}

fn subst(template: &str, vars: &BTreeMap<String, String>) -> String {
    let mut out = String::with_capacity(template.len());
    let mut rest = template;
    while let Some(at) = rest.find('$') {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 1..];
        let end = placeholder_end(tail);
        let name = &tail[..end];
        match vars.get(name) {
            Some(v) => out.push_str(v),
            None => {
                out.push('$');
                out.push_str(name);
            }
        }
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// One LTS transition.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Source state.
    pub from: StateId,
    /// What takes this transition.
    pub label: Label,
    /// Optional OCL-lite guard over the change context.
    pub guard: Option<Expr>,
    /// Commands emitted when the transition fires.
    pub emit: Vec<CommandTemplate>,
    /// When set, emitted commands form a *triggered* script installed to
    /// run on this event topic instead of executing immediately.
    pub install_on: Option<String>,
    /// Destination state.
    pub to: StateId,
}

/// A labeled transition system with named states.
#[derive(Debug, Clone)]
pub struct Lts {
    pub(crate) states: Vec<String>,
    pub(crate) initial: StateId,
    pub(crate) transitions: Vec<Transition>,
}

impl Lts {
    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The name of a state.
    pub fn state_name(&self, id: StateId) -> &str {
        &self.states[id.0]
    }

    /// Looks up a state id by name.
    pub fn state(&self, name: &str) -> Option<StateId> {
        self.states.iter().position(|s| s == name).map(StateId)
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }
}

/// Fluent builder for [`Lts`].
///
/// ```
/// use mddsm_synthesis::lts::{ChangePattern, CommandTemplate, LtsBuilder};
/// let lts = LtsBuilder::new()
///     .state("idle")
///     .state("open")
///     .initial("idle")
///     .transition("idle", "open", ChangePattern::create("Session"), |t| {
///         t.emit(CommandTemplate::new("openSession", "$key"))
///     })
///     .build()
///     .unwrap();
/// assert_eq!(lts.state_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct LtsBuilder {
    states: Vec<String>,
    initial: Option<String>,
    transitions: Vec<PendingTransition>,
    errors: Vec<String>,
}

#[derive(Debug)]
struct PendingTransition {
    from: String,
    to: String,
    label: Label,
    guard: Option<String>,
    emit: Vec<CommandTemplate>,
    install_on: Option<String>,
}

/// Configures one transition inside [`LtsBuilder::transition`].
#[derive(Debug, Default)]
pub struct TransitionBuilder {
    guard: Option<String>,
    emit: Vec<CommandTemplate>,
    install_on: Option<String>,
}

impl TransitionBuilder {
    /// Adds an OCL-lite guard (parsed at [`LtsBuilder::build`]).
    pub fn guard(mut self, source: &str) -> Self {
        self.guard = Some(source.to_owned());
        self
    }

    /// Adds an emitted command template.
    pub fn emit(mut self, t: CommandTemplate) -> Self {
        self.emit.push(t);
        self
    }

    /// Marks emissions as a triggered script installed on the given topic.
    pub fn install_on(mut self, topic: &str) -> Self {
        self.install_on = Some(topic.to_owned());
        self
    }
}

impl LtsBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a state.
    pub fn state(mut self, name: &str) -> Self {
        if self.states.iter().any(|s| s == name) {
            self.errors.push(format!("duplicate state `{name}`"));
        }
        self.states.push(name.to_owned());
        self
    }

    /// Selects the initial state.
    pub fn initial(mut self, name: &str) -> Self {
        self.initial = Some(name.to_owned());
        self
    }

    /// Adds a transition on a model-change pattern.
    pub fn transition(
        self,
        from: &str,
        to: &str,
        pattern: ChangePattern,
        f: impl FnOnce(TransitionBuilder) -> TransitionBuilder,
    ) -> Self {
        self.add(from, to, Label::Change(pattern), f)
    }

    /// Adds a transition on a Controller event topic.
    pub fn on_event(
        self,
        from: &str,
        to: &str,
        topic: &str,
        f: impl FnOnce(TransitionBuilder) -> TransitionBuilder,
    ) -> Self {
        self.add(from, to, Label::Event(topic.to_owned()), f)
    }

    fn add(
        mut self,
        from: &str,
        to: &str,
        label: Label,
        f: impl FnOnce(TransitionBuilder) -> TransitionBuilder,
    ) -> Self {
        let tb = f(TransitionBuilder::default());
        self.transitions.push(PendingTransition {
            from: from.to_owned(),
            to: to.to_owned(),
            label,
            guard: tb.guard,
            emit: tb.emit,
            install_on: tb.install_on,
        });
        self
    }

    /// Validates and builds the LTS.
    pub fn build(self) -> Result<Lts> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(SynthesisError::IllFormedLts(e));
        }
        if self.states.is_empty() {
            return Err(SynthesisError::IllFormedLts("no states declared".into()));
        }
        let initial_name = self
            .initial
            .ok_or_else(|| SynthesisError::IllFormedLts("no initial state".into()))?;
        let find = |name: &str| -> Result<StateId> {
            self.states
                .iter()
                .position(|s| s == name)
                .map(StateId)
                .ok_or_else(|| SynthesisError::IllFormedLts(format!("unknown state `{name}`")))
        };
        let initial = find(&initial_name)?;
        let mut transitions = Vec::with_capacity(self.transitions.len());
        for p in self.transitions {
            let guard = match p.guard {
                None => None,
                Some(src) => Some(constraint::parse(&src).map_err(|e| {
                    SynthesisError::IllFormedLts(format!("guard `{src}` failed to parse: {e}"))
                })?),
            };
            transitions.push(Transition {
                from: find(&p.from)?,
                to: find(&p.to)?,
                label: p.label,
                guard,
                emit: p.emit,
                install_on: p.install_on,
            });
        }
        Ok(Lts {
            states: self.states,
            initial,
            transitions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mddsm_meta::diff::ObjectKey;

    fn key(class: &str, k: &str) -> ObjectKey {
        ObjectKey {
            class: class.into(),
            key: k.into(),
        }
    }

    #[test]
    fn pattern_matching() {
        let create = Change::Create {
            key: key("Session", "\"s\""),
        };
        let set = Change::SetAttr {
            key: key("Session", "\"s\""),
            attr: "kind".into(),
            values: vec![],
        };
        assert!(ChangePattern::any().matches(&create));
        assert!(ChangePattern::create("Session").matches(&create));
        assert!(!ChangePattern::create("Party").matches(&create));
        assert!(!ChangePattern::create("Session").matches(&set));
        assert!(ChangePattern::set_attr("Session", "kind").matches(&set));
        assert!(!ChangePattern::set_attr("Session", "name").matches(&set));
        let refs = Change::SetRefs {
            key: key("Session", "\"s\""),
            reference: "parties".into(),
            targets: vec![],
        };
        assert!(ChangePattern::set_refs("Session", "parties").matches(&refs));
        assert!(ChangePattern::delete("Session").matches(&Change::Delete {
            key: key("Session", "\"s\"")
        }));
    }

    #[test]
    fn template_substitution() {
        let mut vars = BTreeMap::new();
        vars.insert("key".to_string(), "Session[\"s\"]".to_string());
        vars.insert("value".to_string(), "video".to_string());
        let t = CommandTemplate::new("open_$value", "$key").with("mode", "$value/$missing");
        let c = t.instantiate(&vars);
        assert_eq!(c.name, "open_video");
        assert_eq!(c.target, "Session[\"s\"]");
        assert_eq!(c.arg("mode"), Some("video/$missing"));
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            LtsBuilder::new().build(),
            Err(SynthesisError::IllFormedLts(_))
        ));
        assert!(LtsBuilder::new().state("a").build().is_err()); // no initial
        assert!(LtsBuilder::new()
            .state("a")
            .state("a")
            .initial("a")
            .build()
            .is_err());
        assert!(LtsBuilder::new().state("a").initial("b").build().is_err());
        let r = LtsBuilder::new()
            .state("a")
            .initial("a")
            .transition("a", "nope", ChangePattern::any(), |t| t)
            .build();
        assert!(r.is_err());
        let r = LtsBuilder::new()
            .state("a")
            .initial("a")
            .transition("a", "a", ChangePattern::any(), |t| t.guard("1 +"))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn builds_and_navigates() {
        let lts = LtsBuilder::new()
            .state("idle")
            .state("open")
            .initial("idle")
            .transition("idle", "open", ChangePattern::create("Session"), |t| {
                t.emit(CommandTemplate::new("openSession", "$key"))
            })
            .on_event("open", "idle", "sessionClosed", |t| t)
            .build()
            .unwrap();
        assert_eq!(lts.state_name(lts.initial()), "idle");
        assert_eq!(lts.state("open"), Some(StateId(1)));
        assert_eq!(lts.state("zzz"), None);
        let sources: Vec<StateId> = lts.transitions.iter().map(|t| t.from).collect();
        assert_eq!(sources, vec![lts.initial(), StateId(1)]);
    }
}
