//! The container: owns components, routes messages by topic, and manages
//! lifecycle — the deterministic (single-threaded) concurrency model.
//!
//! Dispatch is depth-first with a bounded depth: a handler's emitted
//! messages are delivered after it returns. Determinism makes the container
//! the execution vehicle for tests and for the paper's performance
//! experiments.

use crate::component::{Component, Ctx, Lifecycle, Message};
use crate::{Result, RuntimeError};
use std::collections::{BTreeMap, VecDeque};

/// Maximum dispatch depth before the container reports a cycle.
const MAX_DEPTH: u32 = 64;

struct Slot {
    component: Box<dyn Component>,
    state: Lifecycle,
    subscriptions: Vec<String>,
    handled: u64,
}

/// A deterministic component container.
#[derive(Default)]
pub struct Container {
    slots: BTreeMap<String, Slot>,
    /// Insertion order; dispatch within a topic follows it.
    order: Vec<String>,
    delivered: u64,
}

impl Container {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a component under a unique name.
    pub fn add(&mut self, name: &str, component: Box<dyn Component>) -> Result<()> {
        if self.slots.contains_key(name) {
            return Err(RuntimeError::DuplicateComponent(name.to_owned()));
        }
        let subscriptions = component.subscriptions();
        self.slots.insert(
            name.to_owned(),
            Slot {
                component,
                state: Lifecycle::Created,
                subscriptions,
                handled: 0,
            },
        );
        self.order.push(name.to_owned());
        Ok(())
    }

    /// Removes a component (stopping it first when started).
    pub fn remove(&mut self, name: &str) -> Result<()> {
        if matches!(self.state(name)?, Lifecycle::Started) {
            self.stop(name)?;
        }
        self.slots.remove(name);
        self.order.retain(|n| n != name);
        Ok(())
    }

    /// Component names in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.order.iter().map(String::as_str).collect()
    }

    /// Lifecycle state of a component.
    pub fn state(&self, name: &str) -> Result<&Lifecycle> {
        self.slots
            .get(name)
            .map(|s| &s.state)
            .ok_or_else(|| RuntimeError::UnknownComponent(name.to_owned()))
    }

    /// Messages handled by a component since it was added.
    pub fn handled(&self, name: &str) -> Result<u64> {
        self.slots
            .get(name)
            .map(|s| s.handled)
            .ok_or_else(|| RuntimeError::UnknownComponent(name.to_owned()))
    }

    /// Total messages delivered by the container.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Starts one component.
    pub fn start(&mut self, name: &str) -> Result<()> {
        let slot = self
            .slots
            .get_mut(name)
            .ok_or_else(|| RuntimeError::UnknownComponent(name.to_owned()))?;
        match &slot.state {
            Lifecycle::Created | Lifecycle::Stopped | Lifecycle::Failed(_) => {
                match slot.component.on_start() {
                    Ok(()) => {
                        slot.state = Lifecycle::Started;
                        Ok(())
                    }
                    Err(e) => {
                        let reason = e.to_string();
                        slot.state = Lifecycle::Failed(reason.clone());
                        Err(RuntimeError::ComponentFailed {
                            component: name.to_owned(),
                            reason,
                        })
                    }
                }
            }
            s => Err(RuntimeError::BadLifecycle {
                component: name.to_owned(),
                operation: "start",
                state: s.to_string(),
            }),
        }
    }

    /// Stops one component.
    pub fn stop(&mut self, name: &str) -> Result<()> {
        let slot = self
            .slots
            .get_mut(name)
            .ok_or_else(|| RuntimeError::UnknownComponent(name.to_owned()))?;
        match &slot.state {
            Lifecycle::Started => match slot.component.on_stop() {
                Ok(()) => {
                    slot.state = Lifecycle::Stopped;
                    Ok(())
                }
                Err(e) => {
                    let reason = e.to_string();
                    slot.state = Lifecycle::Failed(reason.clone());
                    Err(RuntimeError::ComponentFailed {
                        component: name.to_owned(),
                        reason,
                    })
                }
            },
            s => Err(RuntimeError::BadLifecycle {
                component: name.to_owned(),
                operation: "stop",
                state: s.to_string(),
            }),
        }
    }

    /// Starts every component in insertion order.
    pub fn start_all(&mut self) -> Result<()> {
        for name in self.order.clone() {
            if matches!(self.state(&name)?, Lifecycle::Created | Lifecycle::Stopped) {
                self.start(&name)?;
            }
        }
        Ok(())
    }

    /// Dispatches a message to every started subscriber of its topic, then
    /// (breadth-first) every message those handlers emitted. A component
    /// that returns an error is marked [`Lifecycle::Failed`] and stops
    /// receiving messages; dispatch continues and the first error is
    /// returned at the end.
    pub fn dispatch(&mut self, msg: Message) -> Result<u64> {
        let mut queue = VecDeque::new();
        queue.push_back((msg, 1u32));
        let mut first_err = None;
        let mut count = 0u64;
        while let Some((msg, depth)) = queue.pop_front() {
            if depth > MAX_DEPTH {
                return Err(RuntimeError::ComponentFailed {
                    component: msg.from.clone(),
                    reason: format!("dispatch depth exceeded {MAX_DEPTH} (message cycle?)"),
                });
            }
            for name in self.order.clone() {
                let Some(slot) = self.slots.get_mut(&name) else {
                    continue;
                };
                if slot.state != Lifecycle::Started || !slot.subscriptions.contains(&msg.topic) {
                    continue;
                }
                let mut ctx = Ctx::at_depth(depth);
                let result = slot.component.handle(&msg, &mut ctx);
                slot.handled += 1;
                self.delivered += 1;
                count += 1;
                match result {
                    Ok(()) => {
                        for mut out in ctx.take_outbox() {
                            out.from = name.clone();
                            queue.push_back((out, depth + 1));
                        }
                    }
                    Err(e) => {
                        let reason = e.to_string();
                        slot.state = Lifecycle::Failed(reason.clone());
                        first_err.get_or_insert(RuntimeError::ComponentFailed {
                            component: name.clone(),
                            reason,
                        });
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(count),
        }
    }
}

impl std::fmt::Debug for Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let states: Vec<String> = self
            .order
            .iter()
            .map(|n| format!("{n}:{}", self.slots[n].state))
            .collect();
        f.debug_struct("Container")
            .field("components", &states)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    struct Probe {
        topics: Vec<String>,
        seen: Arc<AtomicU32>,
        fail_on: Option<String>,
        relay_to: Option<String>,
    }

    impl Probe {
        fn new(topics: &[&str], seen: Arc<AtomicU32>) -> Box<Self> {
            Box::new(Probe {
                topics: topics.iter().map(|s| (*s).to_string()).collect(),
                seen,
                fail_on: None,
                relay_to: None,
            })
        }
    }

    impl Component for Probe {
        fn subscriptions(&self) -> Vec<String> {
            self.topics.clone()
        }
        fn handle(&mut self, msg: &Message, ctx: &mut Ctx) -> Result<()> {
            if self.fail_on.as_deref() == Some(msg.topic.as_str()) {
                return Err(RuntimeError::BadMetadata("induced".into()));
            }
            self.seen.fetch_add(1, Ordering::SeqCst);
            if let Some(t) = &self.relay_to {
                ctx.emit(Message::new(t.clone()));
            }
            Ok(())
        }
    }

    #[test]
    fn lifecycle_transitions() {
        let mut c = Container::new();
        let seen = Arc::new(AtomicU32::new(0));
        c.add("p", Probe::new(&["t"], seen.clone())).unwrap();
        assert_eq!(*c.state("p").unwrap(), Lifecycle::Created);
        // Not started: receives nothing.
        c.dispatch(Message::new("t")).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 0);
        c.start("p").unwrap();
        assert_eq!(*c.state("p").unwrap(), Lifecycle::Started);
        // Double start rejected.
        assert!(matches!(
            c.start("p"),
            Err(RuntimeError::BadLifecycle { .. })
        ));
        c.dispatch(Message::new("t")).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 1);
        c.stop("p").unwrap();
        c.dispatch(Message::new("t")).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 1);
        // Restart after stop.
        c.start("p").unwrap();
        c.dispatch(Message::new("t")).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Container::new();
        let seen = Arc::new(AtomicU32::new(0));
        c.add("p", Probe::new(&["t"], seen.clone())).unwrap();
        assert!(matches!(
            c.add("p", Probe::new(&["t"], seen)),
            Err(RuntimeError::DuplicateComponent(_))
        ));
    }

    #[test]
    fn topic_routing_is_selective() {
        let mut c = Container::new();
        let a = Arc::new(AtomicU32::new(0));
        let b = Arc::new(AtomicU32::new(0));
        c.add("a", Probe::new(&["x"], a.clone())).unwrap();
        c.add("b", Probe::new(&["y"], b.clone())).unwrap();
        c.start_all().unwrap();
        c.dispatch(Message::new("x")).unwrap();
        c.dispatch(Message::new("x")).unwrap();
        c.dispatch(Message::new("y")).unwrap();
        assert_eq!(a.load(Ordering::SeqCst), 2);
        assert_eq!(b.load(Ordering::SeqCst), 1);
        assert_eq!(c.delivered(), 3);
        assert_eq!(c.handled("a").unwrap(), 2);
    }

    #[test]
    fn emitted_messages_are_relayed_with_sender() {
        let mut c = Container::new();
        let a = Arc::new(AtomicU32::new(0));
        let b = Arc::new(AtomicU32::new(0));
        let mut relay = Probe::new(&["in"], a.clone());
        relay.relay_to = Some("out".into());
        c.add("relay", relay).unwrap();
        c.add("sink", Probe::new(&["out"], b.clone())).unwrap();
        c.start_all().unwrap();
        let n = c.dispatch(Message::new("in")).unwrap();
        assert_eq!(n, 2);
        assert_eq!(a.load(Ordering::SeqCst), 1);
        assert_eq!(b.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn failing_component_is_isolated() {
        let mut c = Container::new();
        let a = Arc::new(AtomicU32::new(0));
        let b = Arc::new(AtomicU32::new(0));
        let mut bad = Probe::new(&["t"], a.clone());
        bad.fail_on = Some("t".into());
        c.add("bad", bad).unwrap();
        c.add("good", Probe::new(&["t"], b.clone())).unwrap();
        c.start_all().unwrap();
        let e = c.dispatch(Message::new("t")).unwrap_err();
        assert!(matches!(e, RuntimeError::ComponentFailed { .. }));
        // The healthy component still got the message.
        assert_eq!(b.load(Ordering::SeqCst), 1);
        assert!(matches!(c.state("bad").unwrap(), Lifecycle::Failed(_)));
        // Failed components receive nothing further, but can be restarted.
        c.dispatch(Message::new("t")).unwrap();
        assert_eq!(a.load(Ordering::SeqCst), 0);
        c.start("bad").unwrap();
        assert_eq!(*c.state("bad").unwrap(), Lifecycle::Started);
    }

    #[test]
    fn message_cycles_are_detected() {
        struct Looper;
        impl Component for Looper {
            fn subscriptions(&self) -> Vec<String> {
                vec!["loop".into()]
            }
            fn handle(&mut self, _msg: &Message, ctx: &mut Ctx) -> Result<()> {
                ctx.emit(Message::new("loop"));
                Ok(())
            }
        }
        let mut c = Container::new();
        c.add("l", Box::new(Looper)).unwrap();
        c.start_all().unwrap();
        let e = c.dispatch(Message::new("loop")).unwrap_err();
        assert!(e.to_string().contains("depth"));
    }

    #[test]
    fn remove_stops_component() {
        let mut c = Container::new();
        let seen = Arc::new(AtomicU32::new(0));
        c.add("p", Probe::new(&["t"], seen)).unwrap();
        c.start_all().unwrap();
        c.remove("p").unwrap();
        assert!(c.names().is_empty());
        assert!(c.state("p").is_err());
    }

    #[test]
    fn start_all_skips_failed() {
        let mut c = Container::new();
        let seen = Arc::new(AtomicU32::new(0));
        let mut bad = Probe::new(&["t"], seen.clone());
        bad.fail_on = Some("t".into());
        c.add("bad", bad).unwrap();
        c.start_all().unwrap();
        let _ = c.dispatch(Message::new("t"));
        assert!(matches!(c.state("bad").unwrap(), Lifecycle::Failed(_)));
        // start_all leaves failed components alone (an explicit start revives them).
        c.start_all().unwrap();
        assert!(matches!(c.state("bad").unwrap(), Lifecycle::Failed(_)));
    }
}
