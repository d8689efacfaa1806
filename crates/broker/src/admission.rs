//! Model-defined admission control: bounded, deadline-aware admission in
//! front of command execution.
//!
//! Following the paper's core move — domain-independent mechanism, policy
//! in models — every admission parameter is declared on `AdmissionClass`
//! metaclass instances (token-bucket rate and burst, queueing-delay bound,
//! default deadline) and mirrored into the broker's [`StateManager`] under
//! `adm_<class>_*` keys at load time. The limits are therefore
//! OCL-addressable (`self.adm_interactive_rate`), observable by autonomic
//! symptoms, and retunable by plan `set` steps; and because the bucket
//! *state* (`adm_<class>_tokens` / `adm_<class>_last_us`) lives in the
//! same journaled model, crash recovery restores admission decisions
//! exactly.
//!
//! All token math is integer µs-of-work on the virtual clock, so admission
//! decisions are deterministic and replay bit-for-bit.

use crate::state::{Key, StateManager};
use mddsm_meta::model::Model;
use mddsm_sim::SimDuration;

/// The most recent queueing delay admission observed (µs).
pub(crate) const QUEUE_DELAY_KEY: &str = "adm_queue_delay_us";
/// Calls shed since the brownout controller's last tick.
pub(crate) const SHED_RECENT_KEY: &str = "adm_shed_recent";

/// State-manager key for an admission variable of a class:
/// `adm_<class>` plus a suffix, with dots flattened so the keys stay
/// OCL-addressable (`self.adm_interactive_tokens`).
pub(crate) fn adm_key(class: &str, suffix: &str) -> String {
    format!("adm_{}_{suffix}", class.replace('.', "_"))
}

/// The `adm_<class>_*` variables of one class, rendered at load.
#[derive(Debug, Clone)]
pub(crate) struct ClassKeys {
    rate: Key,
    burst: Key,
    queue_us: Key,
    deadline_us: Key,
    tokens: Key,
    last_us: Key,
    admitted: Key,
    deferred: Key,
    shed: Key,
}

/// Per-class admission parameters, parsed from an `AdmissionClass` object.
///
/// These are the *declared* (model) values; the live values the engine
/// consults sit in the state manager, where plans may have retuned them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionClassSpec {
    /// Class name (`interactive`, `batch`, `control`, …).
    pub name: String,
    /// µs of admitted work refilled per virtual millisecond (0 = the
    /// class is not rate-limited).
    pub rate_us_per_ms: u64,
    /// Token-bucket capacity in µs of work.
    pub burst_us: u64,
    /// Maximum queueing delay a call may have absorbed before it is shed
    /// (0 = unbounded).
    pub queue_bound_us: u64,
    /// Default relative deadline for calls that carry none (0 = none).
    pub deadline_us: u64,
}

/// Admission metadata accompanying one call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallMeta {
    /// Admission class the call is accounted to. A class the model does
    /// not declare is not admission-controlled.
    pub class: String,
    /// Virtual arrival instant (µs); `now - arrival` is the queueing
    /// delay the call has already absorbed.
    pub arrival_us: u64,
    /// Absolute virtual-time deadline (µs); 0 means "use the class's
    /// declared default relative to arrival".
    pub deadline_us: u64,
    /// Declared work (µs) if the action's model carries no `costUs`.
    pub cost_us: u64,
}

impl CallMeta {
    /// Metadata with the class default deadline and the action-declared
    /// cost.
    pub fn new(class: &str, arrival_us: u64) -> Self {
        CallMeta {
            class: class.to_owned(),
            arrival_us,
            deadline_us: 0,
            cost_us: 0,
        }
    }

    /// Sets an explicit absolute deadline.
    pub fn with_deadline(mut self, deadline_us: u64) -> Self {
        self.deadline_us = deadline_us;
        self
    }
}

/// Why a call was shed rather than executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The deadline had already passed on arrival at the admission gate —
    /// executing would only waste capacity on a worthless result.
    DeadlineExpired,
    /// The call had queued longer than the class's declared bound.
    QueueOverflow,
    /// The token bucket cannot cover the call's cost before its deadline.
    RateLimited,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShedReason::DeadlineExpired => "deadline-expired",
            ShedReason::QueueOverflow => "queue-overflow",
            ShedReason::RateLimited => "rate-limited",
        })
    }
}

/// The admission verdict for one call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Execute now.
    Admit {
        /// Queueing delay the call absorbed before admission (µs).
        queue_delay_us: u64,
        /// Resolved absolute deadline (0 = none).
        deadline_us: u64,
    },
    /// Backpressure: tokens will cover the cost after `wait`; resubmit
    /// then.
    Defer {
        /// Virtual time until the bucket holds enough tokens.
        wait: SimDuration,
    },
    /// Drop the call without touching the resource.
    Shed {
        /// Why the call was dropped.
        reason: ShedReason,
    },
}

/// Interprets the model's `AdmissionClass` declarations over the broker's
/// runtime state. The controller itself is stateless — every limit and
/// every bucket variable lives in the [`StateManager`], so journal replay
/// reconstructs admission behaviour exactly.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    classes: Vec<AdmissionClassSpec>,
    /// Per class, in `classes` order.
    keys: Vec<ClassKeys>,
    queue_delay: Key,
    shed_recent: Key,
}

impl AdmissionController {
    /// The controller of `classes`; `None` when there are none.
    pub(crate) fn new(classes: Vec<AdmissionClassSpec>) -> Option<Self> {
        if classes.is_empty() {
            return None;
        }
        let keys = classes
            .iter()
            .map(|c| {
                let key = |suffix: &str| Key::new(adm_key(&c.name, suffix));
                ClassKeys {
                    rate: key("rate"),
                    burst: key("burst"),
                    queue_us: key("queue_us"),
                    deadline_us: key("deadline_us"),
                    tokens: key("tokens"),
                    last_us: key("last_us"),
                    admitted: key("admitted"),
                    deferred: key("deferred"),
                    shed: key("shed"),
                }
            })
            .collect();
        Some(AdmissionController {
            classes,
            keys,
            queue_delay: Key::new(QUEUE_DELAY_KEY),
            shed_recent: Key::new(SHED_RECENT_KEY),
        })
    }

    /// Parses the `AdmissionClass` objects of a broker model; `None` when
    /// the model declares no classes (no admission control, zero
    /// overhead).
    pub fn from_model(model: &Model) -> Option<Self> {
        Self::new(crate::model::read(model).classes)
    }

    /// The declared classes.
    pub fn classes(&self) -> &[AdmissionClassSpec] {
        &self.classes
    }

    /// The position of the admission-controlled class named `class`.
    fn class(&self, class: &str) -> Option<usize> {
        self.classes.iter().position(|c| c.name == class)
    }

    /// Mirrors every declared limit into the state manager and fills each
    /// bucket to its burst capacity. Called once at broker construction;
    /// after that the state values are authoritative (plans may retune
    /// them, and recovery restores them from the journal).
    pub fn seed_state(&self, state: &mut StateManager) {
        for (c, k) in self.classes.iter().zip(&self.keys) {
            state.set_int(&k.rate, c.rate_us_per_ms as i64);
            state.set_int(&k.burst, c.burst_us as i64);
            state.set_int(&k.queue_us, c.queue_bound_us as i64);
            state.set_int(&k.deadline_us, c.deadline_us as i64);
            state.set_int(&k.tokens, c.burst_us as i64);
            state.set_int(&k.last_us, 0);
        }
    }

    /// Decides admission for one call billed to `class` (whatever
    /// `meta.class` names) at virtual time `now_us`, and counts the verdict
    /// in the class's `adm_<class>_{admitted,deferred,shed}` cells (a shed
    /// also in `adm_shed_recent`). `action_cost_us` is the selected
    /// action's declared `costUs` (0 falls back to the call's own
    /// `cost_us`). All reads and writes go through the state manager, so
    /// the decision is journaled alongside the command that triggered it.
    pub fn decide(
        &self,
        class: &str,
        state: &mut StateManager,
        now_us: u64,
        meta: &CallMeta,
        action_cost_us: u64,
    ) -> AdmissionDecision {
        let class = self.class(class);
        let decision = self.verdict(class, state, now_us, meta, action_cost_us);
        if let Some(k) = class.map(|c| &self.keys[c]) {
            match decision {
                AdmissionDecision::Admit { .. } => state.bump(&k.admitted, 1),
                AdmissionDecision::Defer { .. } => state.bump(&k.deferred, 1),
                AdmissionDecision::Shed { .. } => {
                    state.bump(&k.shed, 1);
                    state.bump(&self.shed_recent, 1)
                }
            };
        }
        decision
    }

    /// The verdict for a call billed to the class at `class` (`None`: not
    /// admission-controlled).
    fn verdict(
        &self,
        class: Option<usize>,
        state: &mut StateManager,
        now_us: u64,
        meta: &CallMeta,
        action_cost_us: u64,
    ) -> AdmissionDecision {
        let queue_delay_us = now_us.saturating_sub(meta.arrival_us);
        let Some(k) = class.map(|c| &self.keys[c]) else {
            return AdmissionDecision::Admit {
                queue_delay_us,
                deadline_us: meta.deadline_us,
            };
        };
        let read = |state: &StateManager, key: &Key| state.int(key).unwrap_or(0).max(0) as u64;
        let rate = read(state, &k.rate);
        let burst = read(state, &k.burst);
        let queue_bound = read(state, &k.queue_us);
        let default_deadline = read(state, &k.deadline_us);

        let cost = if action_cost_us > 0 {
            action_cost_us
        } else {
            meta.cost_us
        };
        let deadline_us = if meta.deadline_us > 0 {
            meta.deadline_us
        } else if default_deadline > 0 {
            meta.arrival_us.saturating_add(default_deadline)
        } else {
            0
        };

        // The most recent observed queueing delay is a first-class metric
        // of the runtime model — the brownout controller's main input.
        state.set_int(&self.queue_delay, queue_delay_us as i64);

        if deadline_us > 0 && now_us >= deadline_us {
            return AdmissionDecision::Shed {
                reason: ShedReason::DeadlineExpired,
            };
        }
        if queue_bound > 0 && queue_delay_us > queue_bound {
            return AdmissionDecision::Shed {
                reason: ShedReason::QueueOverflow,
            };
        }
        if rate == 0 || cost == 0 {
            return AdmissionDecision::Admit {
                queue_delay_us,
                deadline_us,
            };
        }

        // Token bucket, integer µs-of-work. The cap is at least one call's
        // cost so a burst declared below the cost still admits eventually
        // instead of deferring forever.
        let last = read(state, &k.last_us);
        let credit = rate.saturating_mul(now_us.saturating_sub(last)) / 1_000;
        let tokens = read(state, &k.tokens)
            .saturating_add(credit)
            .min(burst.max(cost));
        state.set_int(&k.last_us, now_us as i64);

        if tokens >= cost {
            state.set_int(&k.tokens, (tokens - cost) as i64);
            return AdmissionDecision::Admit {
                queue_delay_us,
                deadline_us,
            };
        }
        state.set_int(&k.tokens, tokens as i64);
        let wait_us = (cost - tokens).saturating_mul(1_000).div_ceil(rate);
        if deadline_us > 0 && now_us.saturating_add(wait_us) >= deadline_us {
            AdmissionDecision::Shed {
                reason: ShedReason::RateLimited,
            }
        } else {
            AdmissionDecision::Defer {
                wait: SimDuration::from_micros(wait_us),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(spec: AdmissionClassSpec) -> (AdmissionController, StateManager) {
        let ctrl = AdmissionController::new(vec![spec]).unwrap();
        let mut state = StateManager::new();
        ctrl.seed_state(&mut state);
        (ctrl, state)
    }

    fn spec() -> AdmissionClassSpec {
        AdmissionClassSpec {
            name: "interactive".into(),
            rate_us_per_ms: 500, // half the wall: 500µs of work per ms
            burst_us: 2_000,
            queue_bound_us: 10_000,
            deadline_us: 50_000,
        }
    }

    #[test]
    fn unknown_class_is_not_controlled() {
        let (ctrl, mut state) = controller(spec());
        let meta = CallMeta::new("ghost", 0);
        assert!(matches!(
            ctrl.decide(&meta.class, &mut state, 5_000, &meta, 1_000),
            AdmissionDecision::Admit { .. }
        ));
    }

    #[test]
    fn bucket_admits_until_empty_then_defers_then_refills() {
        let (ctrl, mut state) = controller(spec());
        // Burst 2000µs, cost 1000µs: two immediate admits.
        for _ in 0..2 {
            let meta = CallMeta::new("interactive", 0);
            assert!(matches!(
                ctrl.decide(&meta.class, &mut state, 0, &meta, 1_000),
                AdmissionDecision::Admit { .. }
            ));
        }
        // Third call: bucket empty; no deadline pressure -> defer exactly
        // the refill time (1000µs of work at 500µs/ms = 2ms).
        let meta = CallMeta {
            class: "interactive".into(),
            arrival_us: 0,
            deadline_us: 1_000_000,
            cost_us: 0,
        };
        let d = ctrl.decide(&meta.class, &mut state, 0, &meta, 1_000);
        let AdmissionDecision::Defer { wait } = d else {
            panic!("expected defer, got {d:?}");
        };
        assert_eq!(wait, SimDuration::from_micros(2_000));
        // After waiting exactly that long, the call is admitted.
        let now = wait.as_micros();
        assert!(matches!(
            ctrl.decide(&meta.class, &mut state, now, &meta, 1_000),
            AdmissionDecision::Admit { .. }
        ));
    }

    #[test]
    fn expired_deadline_and_overlong_queue_shed() {
        let (ctrl, mut state) = controller(spec());
        // Class default deadline 50ms; arrival at 0, now 60ms -> expired.
        let meta = CallMeta::new("interactive", 0);
        assert_eq!(
            ctrl.decide(&meta.class, &mut state, 60_000, &meta, 100),
            AdmissionDecision::Shed {
                reason: ShedReason::DeadlineExpired
            }
        );
        // Queue bound 10ms; queued 20ms with a far deadline -> overflow.
        let meta = CallMeta {
            class: "interactive".into(),
            arrival_us: 0,
            deadline_us: 1_000_000,
            cost_us: 100,
        };
        assert_eq!(
            ctrl.decide(&meta.class, &mut state, 20_000, &meta, 0),
            AdmissionDecision::Shed {
                reason: ShedReason::QueueOverflow
            }
        );
        assert_eq!(state.int("adm_queue_delay_us"), Some(20_000));
    }

    #[test]
    fn rate_limited_shed_when_wait_cannot_meet_deadline() {
        let (ctrl, mut state) = controller(spec());
        // Drain the bucket.
        let drain = CallMeta {
            class: "interactive".into(),
            arrival_us: 0,
            deadline_us: 1_000_000,
            cost_us: 0,
        };
        for _ in 0..2 {
            assert!(matches!(
                ctrl.decide(&drain.class, &mut state, 0, &drain, 1_000),
                AdmissionDecision::Admit { .. }
            ));
        }
        // Deadline 1ms away but the refill needs 2ms -> shed, not defer.
        let meta = CallMeta {
            class: "interactive".into(),
            arrival_us: 0,
            deadline_us: 1_000,
            cost_us: 0,
        };
        assert_eq!(
            ctrl.decide(&meta.class, &mut state, 0, &meta, 1_000),
            AdmissionDecision::Shed {
                reason: ShedReason::RateLimited
            }
        );
    }

    #[test]
    fn plans_can_retune_limits_through_state() {
        let (ctrl, mut state) = controller(spec());
        // An autonomic plan halves the rate at runtime.
        state.set_int(&adm_key("interactive", "rate"), 0);
        // Rate 0 = unlimited: always admit.
        let meta = CallMeta::new("interactive", 0);
        for _ in 0..10 {
            assert!(matches!(
                ctrl.decide(&meta.class, &mut state, 0, &meta, 5_000),
                AdmissionDecision::Admit { .. }
            ));
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let (ctrl, mut state) = controller(spec());
            let mut outcomes = Vec::new();
            for i in 0..20u64 {
                let meta = CallMeta::new("interactive", i * 300);
                outcomes.push(format!(
                    "{:?}",
                    ctrl.decide(&meta.class, &mut state, i * 400, &meta, 700)
                ));
            }
            (outcomes, state.snapshot())
        };
        assert_eq!(run(), run());
    }
}
