//! Command classification: the step preceding execution that chooses, per
//! command, between Case 1 (predefined actions) and Case 2 (dynamic intent
//! models).
//!
//! "The choice of which approach to use for each received command is
//! determined by a command classification step that precedes actual
//! command execution. Command classification takes into account domain
//! policies and context information to choose between cases 1 and 2 for
//! each command" (§VI).

use crate::actions::ActionRegistry;
use crate::context::ControllerContext;
use crate::dsc::DscId;
use crate::{ControllerError, Result};
use mddsm_synthesis::Command;
use std::collections::BTreeMap;

/// The execution approach chosen for a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// Case 1: a predefined action handler.
    Predefined,
    /// Case 2: dynamic intent-model generation.
    Dynamic,
}

/// The Fig. 8 rationales for preferring one case over the other.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationPolicy {
    /// The default preference: `Predefined` "for domains where efficiency
    /// is more important than flexibility", `Dynamic` "for domains with
    /// highly dynamic behavior".
    pub prefer: Case,
    /// When the context reports `memory=low`, prefer dynamic generation
    /// ("dynamic IM generation avoids having to store a large number of
    /// predefined actions for each available command").
    pub low_memory_prefers_dynamic: bool,
    /// Per-command overrides, consulted first.
    pub overrides: BTreeMap<String, Case>,
}

impl Default for ClassificationPolicy {
    fn default() -> Self {
        ClassificationPolicy {
            prefer: Case::Predefined,
            low_memory_prefers_dynamic: true,
            overrides: BTreeMap::new(),
        }
    }
}

impl ClassificationPolicy {
    /// A policy that always generates dynamically.
    pub fn always_dynamic() -> Self {
        ClassificationPolicy {
            prefer: Case::Dynamic,
            low_memory_prefers_dynamic: true,
            overrides: BTreeMap::new(),
        }
    }

    /// Adds a per-command override.
    pub fn with_override(mut self, command: &str, case: Case) -> Self {
        self.overrides.insert(command.to_owned(), case);
        self
    }
}

/// Maps command names to their classifying DSCs and applies the
/// classification policy.
#[derive(Debug, Clone, Default)]
pub struct CommandClassifier {
    command_dscs: BTreeMap<String, DscId>,
    policy: ClassificationPolicy,
}

impl CommandClassifier {
    /// Creates a classifier with the given policy.
    pub fn new(policy: ClassificationPolicy) -> Self {
        CommandClassifier {
            command_dscs: BTreeMap::new(),
            policy,
        }
    }

    /// Maps a command name to its classifying DSC.
    pub fn map_command(&mut self, command: &str, dsc: &str) -> &mut Self {
        self.command_dscs
            .insert(command.to_owned(), DscId::new(dsc));
        self
    }

    /// The active policy.
    pub fn policy(&self) -> &ClassificationPolicy {
        &self.policy
    }

    /// Replaces the policy (a reflective, models@runtime-style change).
    pub fn set_policy(&mut self, policy: ClassificationPolicy) {
        self.policy = policy;
    }

    /// The DSC a command is classified by.
    pub fn dsc_of(&self, command: &Command) -> Result<&DscId> {
        self.command_dscs
            .get(&command.name)
            .ok_or_else(|| ControllerError::UnmappedCommand(command.name.clone()))
    }

    /// Classifies a command: resolves its DSC and chooses a case, falling
    /// back to the other case when the preferred one cannot serve (no
    /// action registered / command explicitly overridden).
    pub fn classify(
        &self,
        command: &Command,
        ctx: &ControllerContext,
        actions: &ActionRegistry,
    ) -> Result<(DscId, Case)> {
        let dsc = self.dsc_of(command)?.clone();
        if let Some(case) = self.policy.overrides.get(&command.name) {
            return Ok((dsc, *case));
        }
        let mut case = self.policy.prefer;
        if self.policy.low_memory_prefers_dynamic && ctx.get("memory") == Some("low") {
            case = Case::Dynamic;
        }
        // A Case-1 choice without a registered action degrades to Case 2.
        if case == Case::Predefined && !actions.has(&dsc) {
            case = Case::Dynamic;
        }
        Ok((dsc, case))
    }

    /// Number of mapped commands.
    pub fn len(&self) -> usize {
        self.command_dscs.len()
    }

    /// Returns `true` when no commands are mapped.
    pub fn is_empty(&self) -> bool {
        self.command_dscs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::ActionOutcome;

    fn actions_with_connect() -> ActionRegistry {
        let mut a = ActionRegistry::new();
        a.register("c", "Connect", |_, _| Ok(ActionOutcome::default()));
        a
    }

    fn classifier() -> CommandClassifier {
        let mut c = CommandClassifier::new(ClassificationPolicy::default());
        c.map_command("openSession", "Connect")
            .map_command("analyze", "Analyze");
        c
    }

    #[test]
    fn unmapped_command_rejected() {
        let c = classifier();
        let e = c
            .classify(
                &Command::new("zzz", ""),
                &ControllerContext::new(),
                &ActionRegistry::new(),
            )
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(e, ControllerError::UnmappedCommand(_)));
    }

    #[test]
    fn prefers_predefined_when_action_exists() {
        let c = classifier();
        let (dsc, case) = c
            .classify(
                &Command::new("openSession", ""),
                &ControllerContext::new(),
                &actions_with_connect(),
            )
            .unwrap();
        assert_eq!(dsc, DscId::new("Connect"));
        assert_eq!(case, Case::Predefined);
    }

    #[test]
    fn degrades_to_dynamic_without_action() {
        let c = classifier();
        let (_, case) = c
            .classify(
                &Command::new("analyze", ""),
                &ControllerContext::new(),
                &actions_with_connect(),
            )
            .unwrap();
        assert_eq!(case, Case::Dynamic);
    }

    #[test]
    fn low_memory_flips_to_dynamic() {
        let c = classifier();
        let ctx = ControllerContext::new().with("memory", "low");
        let (_, case) = c
            .classify(
                &Command::new("openSession", ""),
                &ctx,
                &actions_with_connect(),
            )
            .unwrap();
        assert_eq!(case, Case::Dynamic);
    }

    #[test]
    fn overrides_win() {
        let policy = ClassificationPolicy::default().with_override("openSession", Case::Dynamic);
        let mut c = CommandClassifier::new(policy);
        c.map_command("openSession", "Connect");
        let (_, case) = c
            .classify(
                &Command::new("openSession", ""),
                &ControllerContext::new(),
                &actions_with_connect(),
            )
            .unwrap();
        assert_eq!(case, Case::Dynamic);
    }

    #[test]
    fn policy_replacement_is_immediate() {
        let mut c = classifier();
        let ctx = ControllerContext::new();
        let a = actions_with_connect();
        let (_, case) = c
            .classify(&Command::new("openSession", ""), &ctx, &a)
            .unwrap();
        assert_eq!(case, Case::Predefined);
        c.set_policy(ClassificationPolicy::always_dynamic());
        let (_, case) = c
            .classify(&Command::new("openSession", ""), &ctx, &a)
            .unwrap();
        assert_eq!(case, Case::Dynamic);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }
}
