//! Online runtime verification: invariants and temporal properties
//! compiled into in-stream journal monitors.
//!
//! Before this module, OCL-lite invariants were checked only at recovery
//! time — a corrupted or buggy mutation could drive divergent commands
//! long before anyone re-parsed the invariant strings. Here the model's
//! invariants plus the temporal properties of
//! [`mddsm_meta::constraint::temporal`] are *compiled once* into
//! [`CompiledMonitor`]s and evaluated incrementally, in-stream, as journal
//! records are produced (on the primary, in the broker's one commit frame)
//! or applied (on the standby, inside [`crate::replication::Standby`]'s
//! apply path).
//!
//! Two compilation steps keep monitoring off the hot path, following
//! KMF's pre-resolved-access lesson:
//!
//! * **Pre-resolved watched keys.** Each property's `self.<key>`
//!   navigations are extracted at compile time; a monitor is re-evaluated
//!   only when a journaled op touches one of its watched keys.
//! * **Pre-resolved predicates.** Every property expression compiles
//!   through the broker's one predicate compiler, [`crate::pred::Pred`],
//!   into direct slot reads over the [`StateManager`], with verdicts
//!   exactly those of [`StateManager::eval`].
//!
//! Monitor *memory* (the period/owner cells of `at-most-one`, the tripped
//! latches) lives in ordinary `mon_*` state variables, so it is journaled,
//! snapshotted, truncated, and replicated like every other part of the
//! runtime model — recovery and failover resume monitoring byte-identically
//! for free. A standby evaluating replicated records keeps its memory in a
//! local shadow map instead ([`MonitorSet::check_observed`]): the mirror
//! must stay byte-identical to the primary's journal, so observation must
//! not write.

use std::collections::BTreeMap;

use crate::pred::Pred;
use crate::state::{Key, StateManager};
use crate::{BrokerError, Result};
use mddsm_meta::constraint::temporal::{parse_property, Property};

/// State variable counting monitor trips; non-zero latches the broker
/// into refusing calls until the violation is repaired or rolled back.
pub const TRIP_COUNTER_KEY: &str = "mon_trips";

/// The tripped-latch state variable of one monitor.
pub fn trip_key(monitor: &str) -> String {
    format!("mon_{monitor}_tripped")
}

pub(crate) fn period_key(monitor: &str) -> String {
    format!("mon_{monitor}_per")
}

pub(crate) fn owner_key(monitor: &str) -> String {
    format!("mon_{monitor}_owner")
}

/// A monitor verdict: which monitor tripped, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorTrip {
    /// The tripped monitor's name.
    pub monitor: String,
    /// Human-readable description of the violation.
    pub detail: String,
}

/// The compiled (pre-resolved) form of one property.
#[derive(Debug, Clone)]
enum CompiledProperty {
    Always(Pred),
    NeverDuring {
        never: Pred,
        during: Pred,
    },
    AtMostOnePer {
        key: String,
        per: String,
        period_key: String,
        owner_key: String,
    },
}

/// One compiled monitor: a named property plus its pre-resolved watched
/// keys and predicates.
#[derive(Debug, Clone)]
pub struct CompiledMonitor {
    name: String,
    source: String,
    property: CompiledProperty,
    watched: Vec<String>,
    /// Pre-rendered tripped-latch key — the hot path must not `format!`.
    trip_key: Key,
}

impl CompiledMonitor {
    /// Compiles one property source. Parse failures are the typed
    /// [`BrokerError::MonitorParse`], never a generic recovery error.
    pub fn compile(name: &str, source: &str) -> Result<CompiledMonitor> {
        let property = parse_property(source).map_err(|e| BrokerError::MonitorParse {
            monitor: name.to_owned(),
            error: e.to_string(),
        })?;
        let watched = property.watched_keys();
        let property = match property {
            Property::Always(expr) => CompiledProperty::Always(Pred::new(expr)),
            Property::NeverDuring { never, during } => CompiledProperty::NeverDuring {
                never: Pred::new(never),
                during: Pred::new(during),
            },
            Property::AtMostOnePer { key, per } => CompiledProperty::AtMostOnePer {
                period_key: period_key(name),
                owner_key: owner_key(name),
                key,
                per,
            },
        };
        Ok(CompiledMonitor {
            name: name.to_owned(),
            source: source.to_owned(),
            property,
            watched,
            trip_key: Key::new(trip_key(name)),
        })
    }

    /// The monitor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The property source the monitor was compiled from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The pre-resolved state variables the monitor watches.
    pub fn watched_keys(&self) -> &[String] {
        &self.watched
    }

    /// The journaled tripped-latch state variable of this monitor
    /// (pre-rendered at compile time).
    pub fn trip_key(&self) -> &str {
        self.trip_key.name()
    }

    fn watches_any(&self, dirty: &[&str]) -> bool {
        dirty.iter().any(|d| self.watched.iter().any(|w| w == d))
    }

    /// Evaluates the stateless part of the property against `state`;
    /// `memory` resolves the monitor's journaled (or shadowed) cells.
    /// Returns a violation description, and for `at-most-one` the memory
    /// writes that bring its cells up to date.
    fn evaluate(
        &self,
        state: &StateManager,
        memory: &dyn Fn(&str) -> Option<String>,
    ) -> (Option<String>, Vec<(String, String)>) {
        let (kind, violated, verdict) = match &self.property {
            CompiledProperty::Always(pred) => {
                ("invariant", "does not hold", pred.eval(state).map(|v| !v))
            }
            CompiledProperty::NeverDuring { never, during } => (
                "property",
                "is violated",
                during
                    .eval(state)
                    .and_then(|d| if d { never.eval(state) } else { Ok(false) }),
            ),
            CompiledProperty::AtMostOnePer {
                key,
                per,
                period_key,
                owner_key,
            } => {
                let cur_per = render(state, per);
                let cur_key = render(state, key);
                let mem_per = memory(period_key);
                if mem_per.as_deref() != Some(cur_per.as_str()) {
                    // A new period: remember it and its first owner.
                    return (
                        None,
                        vec![(period_key.clone(), cur_per), (owner_key.clone(), cur_key)],
                    );
                }
                let owner = memory(owner_key).unwrap_or_else(|| NULL_RENDER.to_owned());
                if owner == NULL_RENDER && cur_key != NULL_RENDER {
                    return (None, vec![(owner_key.clone(), cur_key)]);
                }
                if owner != NULL_RENDER && cur_key != NULL_RENDER && cur_key != owner {
                    let detail = format!(
                        "property `{}` is violated: `{key}` changed from {owner} to {cur_key} \
                         within one `{per}` period ({cur_per})",
                        self.source
                    );
                    return (Some(detail), Vec::new());
                }
                return (None, Vec::new());
            }
        };
        let violation = match verdict {
            Ok(false) => None,
            Ok(true) => Some(format!("{kind} `{}` {violated}", self.source)),
            Err(e) => Some(format!("{kind} `{}` failed to evaluate: {e}", self.source)),
        };
        (violation, Vec::new())
    }
}

/// Rendering of a state variable's value for monitor memory cells:
/// tagged so `1` and `"1"` stay distinct, `-` for unset.
const NULL_RENDER: &str = "-";

fn render(state: &StateManager, key: &str) -> String {
    if let Some(s) = state.str(key) {
        format!("s:{s}")
    } else if let Some(i) = state.int(key) {
        format!("i:{i}")
    } else {
        NULL_RENDER.to_owned()
    }
}

/// An ordered set of compiled monitors sharing one stream of states.
#[derive(Debug, Clone)]
pub struct MonitorSet {
    monitors: Vec<CompiledMonitor>,
    /// [`TRIP_COUNTER_KEY`].
    trips: Key,
}

impl Default for MonitorSet {
    fn default() -> Self {
        MonitorSet {
            monitors: Vec::new(),
            trips: Key::new(TRIP_COUNTER_KEY),
        }
    }
}

impl MonitorSet {
    /// Compiles named `(name, property-source)` pairs.
    pub fn compile<N: AsRef<str>, S: AsRef<str>>(specs: &[(N, S)]) -> Result<MonitorSet> {
        let monitors = specs
            .iter()
            .map(|(n, s)| CompiledMonitor::compile(n.as_ref(), s.as_ref()))
            .collect::<Result<Vec<_>>>()?;
        Ok(MonitorSet {
            monitors,
            ..MonitorSet::default()
        })
    }

    /// Compiles bare invariant strings; each monitor is named by its
    /// source, so violation reports read like the invariant.
    pub fn from_invariants(invariants: &[&str]) -> Result<MonitorSet> {
        let specs: Vec<(&str, &str)> = invariants.iter().map(|inv| (*inv, *inv)).collect();
        MonitorSet::compile(&specs)
    }

    /// `true` while any monitor's trip is latched in `state`.
    pub fn latched(&self, state: &StateManager) -> bool {
        state.int(&self.trips).unwrap_or(0) != 0
    }

    /// No monitors compiled.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// Number of compiled monitors.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// The compiled monitors.
    pub fn monitors(&self) -> &[CompiledMonitor] {
        &self.monitors
    }

    /// In-stream check on the **primary**: evaluates every monitor whose
    /// watched keys the state manager's pending ops touch — the ops of
    /// the frame being settled, so the dirty set needs no tracking of its
    /// own — and records verdicts *into the runtime model*: `at-most-one`
    /// memory cells, tripped latches and the [`TRIP_COUNTER_KEY`] counter
    /// are ordinary journaled state writes, which is what makes monitoring
    /// survive recovery and failover byte-identically. Already-tripped
    /// monitors stay silent until their latch is cleared (by repair or
    /// rollback). A monitor tripping earlier in the pass only writes its
    /// own `mon_*` cells, which no property watches, so the remaining
    /// monitors see the frame's state unchanged.
    pub fn check_live_pending(&self, state: &mut StateManager) -> Vec<MonitorTrip> {
        let mut trips = Vec::new();
        // One counter read: while it is zero no per-monitor latch is set,
        // and the latch lookups are skipped.
        let any_latched = self.latched(state);
        for m in &self.monitors {
            let hit = state
                .pending_ops()
                .iter()
                .any(|o| m.watched.iter().any(|w| w == o.key()));
            if !hit || any_latched && state.str(&m.trip_key).is_some() {
                continue;
            }
            let (violation, writes) = {
                let s: &StateManager = state;
                m.evaluate(s, &|k| s.str(k).map(str::to_owned))
            };
            for (k, v) in writes {
                state.set_str(&k, &v);
            }
            if let Some(detail) = violation {
                state.set_str(&m.trip_key, "1");
                state.bump(&self.trips, 1);
                trips.push(MonitorTrip {
                    monitor: m.name.clone(),
                    detail,
                });
            }
        }
        trips
    }

    /// In-stream check on a **standby** (or any pure observer): identical
    /// verdicts, but memory lives in the caller's `shadow` map and the
    /// observed state is never written — the standby's mirror must stay
    /// byte-identical to what the primary shipped.
    pub fn check_observed(
        &self,
        state: &StateManager,
        dirty: &[&str],
        shadow: &mut BTreeMap<String, String>,
    ) -> Vec<MonitorTrip> {
        let mut trips = Vec::new();
        for m in &self.monitors {
            if !m.watches_any(dirty) {
                continue;
            }
            if shadow.contains_key(m.trip_key()) {
                continue;
            }
            let (violation, writes) = m.evaluate(state, &|k| shadow.get(k).cloned());
            for (k, v) in writes {
                shadow.insert(k, v);
            }
            if let Some(detail) = violation {
                shadow.insert(m.trip_key().to_owned(), "1".to_owned());
                trips.push(MonitorTrip {
                    monitor: m.name.clone(),
                    detail,
                });
            }
        }
        trips
    }

    /// Clears an observer's tripped latches (after the primary repaired
    /// or rolled back the violation) so monitoring resumes.
    pub fn clear_observed_trips(&self, shadow: &mut BTreeMap<String, String>) {
        for m in &self.monitors {
            shadow.remove(m.trip_key());
        }
    }

    /// Full (non-incremental) sweep, used at recovery time and when
    /// monitors are first armed: every monitor is evaluated against
    /// `state`, memory cells are read from the journaled `mon_*`
    /// variables, and nothing is written. The first violation is
    /// returned as the typed [`BrokerError::MonitorTripped`].
    pub fn check_full(&self, state: &StateManager) -> Result<()> {
        for m in &self.monitors {
            if state.str(&m.trip_key).is_some() {
                // An already-journaled trip is a finding, not a failure:
                // recovery must resume exactly where the live run was.
                continue;
            }
            let (violation, _writes) = m.evaluate(state, &|k| state.str(k).map(str::to_owned));
            if let Some(detail) = violation {
                return Err(BrokerError::MonitorTripped {
                    monitor: m.name.clone(),
                    detail,
                });
            }
        }
        Ok(())
    }

    /// The union of every monitor's watched keys, sorted.
    pub fn watched_keys(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .monitors
            .iter()
            .flat_map(|m| m.watched.iter().cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

/// The temporal properties every replicated deployment ships with: the
/// E9 failover guarantee "at most one primary is promoted per epoch",
/// which every [`crate::Supervisor`] observes over its own runtime model
/// at the end of each tick.
pub fn failover_properties() -> MonitorSet {
    // The sources are compile-time constants; a failure here would be a
    // defect in this module, caught by the test right below.
    MonitorSet::compile(&[("onePrimaryPerEpoch", "at-most-one primary per epoch")])
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state manager recording its writes as pending ops, the way the
    /// broker's runtime model does while monitors are armed.
    fn recording() -> StateManager {
        let mut s = StateManager::new();
        s.record_ops(true);
        s
    }

    /// Settles one frame: the live check over the writes made since the
    /// last frame, which are then drained.
    fn live(set: &MonitorSet, s: &mut StateManager) -> Vec<MonitorTrip> {
        let trips = set.check_live_pending(s);
        s.take_ops();
        trips
    }

    #[test]
    fn always_monitors_trip_on_violation_and_latch() {
        let set = MonitorSet::compile(&[("nonneg", "always self.opens >= 0")]).unwrap();
        let mut s = recording();
        s.set_int("opens", 2);
        assert!(live(&set, &mut s).is_empty());
        s.set_int("opens", -1);
        let trips = live(&set, &mut s);
        assert_eq!(trips.len(), 1);
        assert_eq!(trips[0].monitor, "nonneg");
        assert!(
            trips[0].detail.contains("does not hold"),
            "{}",
            trips[0].detail
        );
        assert_eq!(s.str("mon_nonneg_tripped"), Some("1"));
        assert_eq!(s.int(TRIP_COUNTER_KEY), Some(1));
        // Latched: no second trip for the same violation.
        s.set_int("opens", -1);
        assert!(live(&set, &mut s).is_empty());
    }

    #[test]
    fn monitors_skip_unwatched_keys() {
        let set = MonitorSet::compile(&[("nonneg", "self.opens >= 0")]).unwrap();
        let mut s = StateManager::new();
        s.set_int("opens", -5);
        s.record_ops(true);
        // `other` is not watched: the violation goes unexamined.
        s.set_int("other", 1);
        assert!(live(&set, &mut s).is_empty());
        s.set_int("opens", -5);
        s.set_int("other", 2);
        assert_eq!(live(&set, &mut s).len(), 1);
    }

    #[test]
    fn never_during_requires_both_conditions() {
        let set = MonitorSet::compile(&[(
            "frozenBeta",
            "never self.frozen = 1 during self.tier = \"beta\"",
        )])
        .unwrap();
        let mut s = recording();
        s.set_str("tier", "beta");
        assert!(live(&set, &mut s).is_empty());
        s.set_int("frozen", 1);
        assert_eq!(live(&set, &mut s).len(), 1);
        let mut s2 = recording();
        s2.set_str("tier", "alpha");
        s2.set_int("frozen", 1);
        assert!(live(&set, &mut s2).is_empty());
    }

    #[test]
    fn at_most_one_per_trips_on_a_second_owner() {
        let set = failover_properties();
        let mut s = recording();
        s.set_int("epoch", 1);
        s.set_str("primary", "a");
        assert!(live(&set, &mut s).is_empty());
        // Same epoch, new primary: violation.
        s.set_str("primary", "b");
        let trips = live(&set, &mut s);
        assert_eq!(trips.len(), 1);
        assert!(trips[0].detail.contains("primary"), "{}", trips[0].detail);

        // A fresh epoch resets the period: promotion is legal again.
        let mut s = recording();
        s.set_int("epoch", 1);
        s.set_str("primary", "a");
        live(&set, &mut s);
        s.set_int("epoch", 2);
        s.set_str("primary", "b");
        assert!(live(&set, &mut s).is_empty());
    }

    #[test]
    fn observed_checks_match_live_checks_without_writing() {
        let set = MonitorSet::compile(&[
            ("nonneg", "self.opens >= 0"),
            ("onePer", "at-most-one primary per epoch"),
        ])
        .unwrap();
        let mut live_state = recording();
        let mut observed = StateManager::new();
        let mut shadow = BTreeMap::new();
        let script: &[(&str, Option<i64>, Option<&str>)] = &[
            ("epoch", Some(1), None),
            ("primary", None, Some("a")),
            ("opens", Some(3), None),
            ("opens", Some(-2), None),
            ("primary", None, Some("b")),
        ];
        for (key, int, strv) in script {
            match (int, strv) {
                (Some(i), _) => {
                    live_state.set_int(key, *i);
                    observed.set_int(key, *i);
                }
                (_, Some(v)) => {
                    live_state.set_str(key, v);
                    observed.set_str(key, v);
                }
                _ => unreachable!(),
            }
            let lt = live(&set, &mut live_state);
            let ot = set.check_observed(&observed, &[*key], &mut shadow);
            assert_eq!(
                lt.iter().map(|t| &t.monitor).collect::<Vec<_>>(),
                ot.iter().map(|t| &t.monitor).collect::<Vec<_>>(),
                "live and observed verdicts diverge at {key}"
            );
        }
        let ver = observed.version();
        set.check_observed(&observed, &["opens"], &mut shadow);
        assert_eq!(observed.version(), ver, "observation must not write");
    }

    #[test]
    fn check_full_reports_the_typed_violation() {
        let set = MonitorSet::from_invariants(&["self.opens >= 0"]).unwrap();
        let mut s = StateManager::new();
        s.set_int("opens", 1);
        assert!(set.check_full(&s).is_ok());
        s.set_int("opens", -1);
        match set.check_full(&s) {
            Err(BrokerError::MonitorTripped { monitor, detail }) => {
                assert_eq!(monitor, "self.opens >= 0");
                assert!(detail.contains("does not hold"), "{detail}");
            }
            other => panic!("expected MonitorTripped, got {other:?}"),
        }
    }

    #[test]
    fn parse_failures_are_typed_and_name_the_monitor() {
        match MonitorSet::compile(&[("broken", "self.")]) {
            Err(BrokerError::MonitorParse { monitor, error }) => {
                assert_eq!(monitor, "broken");
                assert!(!error.is_empty());
            }
            other => panic!("expected MonitorParse, got {other:?}"),
        }
        assert!(MonitorSet::compile(&[("bad", "never self.x = 1")]).is_err());
    }

    #[test]
    fn watched_keys_are_the_union() {
        let set = MonitorSet::compile(&[
            ("a", "self.x >= 0 and self.y = null"),
            ("b", "at-most-one primary per epoch"),
        ])
        .unwrap();
        assert_eq!(
            set.watched_keys(),
            vec![
                "epoch".to_string(),
                "primary".to_string(),
                "x".to_string(),
                "y".to_string()
            ]
        );
    }
}
