//! Control scripts: the output of the Synthesis layer and the input of the
//! Controller layer.

use std::fmt;

/// One command of a control script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Operation name, in the domain vocabulary (e.g. `openSession`).
    pub name: String,
    /// The model element the command concerns (an [`ObjectKey`]-style
    /// rendering such as `Party["ana"]`, or empty).
    ///
    /// [`ObjectKey`]: mddsm_meta::diff::ObjectKey
    pub target: String,
    /// Named arguments.
    pub args: Vec<(String, String)>,
}

impl Command {
    /// Creates a command with no arguments.
    pub fn new(name: impl Into<String>, target: impl Into<String>) -> Self {
        Command {
            name: name.into(),
            target: target.into(),
            args: Vec::new(),
        }
    }

    /// Builder-style argument insertion.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.args.push((key.into(), value.into()));
        self
    }

    /// Looks up an argument value.
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let args: Vec<String> = self.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
        if self.target.is_empty() {
            write!(f, "{}({})", self.name, args.join(", "))
        } else {
            write!(f, "{}@{}({})", self.name, self.target, args.join(", "))
        }
    }
}

/// An event pattern that triggers installed scripts (used by domains such
/// as smart spaces, where scripts run when objects enter/leave).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventTrigger {
    /// Event topic to wait for, e.g. `objectEntered`.
    pub topic: String,
}

impl EventTrigger {
    /// Creates a trigger on a topic.
    pub fn on(topic: impl Into<String>) -> Self {
        EventTrigger {
            topic: topic.into(),
        }
    }
}

/// A sequence of commands, optionally gated behind an event trigger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ControlScript {
    /// Commands in execution order.
    pub commands: Vec<Command>,
    /// When present, the script is *installed* rather than executed
    /// immediately, and runs each time a matching event arrives.
    pub trigger: Option<EventTrigger>,
}

impl ControlScript {
    /// An immediate (untriggered) script.
    pub fn immediate(commands: Vec<Command>) -> Self {
        ControlScript {
            commands,
            trigger: None,
        }
    }

    /// A script installed to run on matching events.
    pub fn triggered(trigger: EventTrigger, commands: Vec<Command>) -> Self {
        ControlScript {
            commands,
            trigger: Some(trigger),
        }
    }

    /// Returns `true` when the script has no commands.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Number of commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Canonical rendering, one command per line.
    pub fn render(&self) -> String {
        self.commands
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_builder_and_display() {
        let c = Command::new("openSession", "Session[\"s\"]").with("kind", "video");
        assert_eq!(c.arg("kind"), Some("video"));
        assert_eq!(c.arg("nope"), None);
        assert_eq!(c.to_string(), "openSession@Session[\"s\"](kind=video)");
        let c2 = Command::new("shutdown", "");
        assert_eq!(c2.to_string(), "shutdown()");
    }

    #[test]
    fn script_render() {
        let s = ControlScript::immediate(vec![
            Command::new("a", "t1"),
            Command::new("b", "").with("x", "1"),
        ]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.render(), "a@t1()\nb(x=1)");
        assert!(s.trigger.is_none());
        let t = ControlScript::triggered(EventTrigger::on("e"), vec![]);
        assert!(t.is_empty());
        assert!(t.trigger.is_some());
    }
}
