//! The state manager: the Broker layer's runtime model.
//!
//! The Fig. 6 `StateManager` "stores and manipulates the layer's
//! runtime model". The runtime state is one `State` object whose attribute
//! slots hold the state variables, so policies and autonomic symptoms are
//! plain OCL-lite expressions evaluated with `self` bound to that object.
//! The slots live in a vector behind a name table, seeded at load with
//! every variable the model may write: access through a [`Key`] reads the
//! slot without a name lookup, and [`crate::pred`] compiles predicates
//! into such reads. The OCL-lite interpreter sees the slots through a
//! one-object model built only when a predicate falls back to it.

use crate::{BrokerError, Result};
use mddsm_meta::constraint::{eval_bool, EvalEnv, Expr};
use mddsm_meta::metamodel::Metamodel;
use mddsm_meta::model::Model;
use mddsm_meta::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One journaled primitive mutation of the runtime model. The `lsn` is the
/// [`StateManager::version`] value *after* the write — versions bump by one
/// per primitive write, so LSNs of consecutive ops are contiguous, which
/// recovery exploits to detect lost entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateOp {
    /// A string variable was set.
    SetStr {
        /// Log sequence number (the version after the write).
        lsn: u64,
        /// Variable name.
        key: String,
        /// New value.
        value: String,
    },
    /// An integer variable was set.
    SetInt {
        /// Log sequence number (the version after the write).
        lsn: u64,
        /// Variable name.
        key: String,
        /// New value.
        value: i64,
    },
    /// A variable was removed.
    Unset {
        /// Log sequence number (the version after the write).
        lsn: u64,
        /// Variable name.
        key: String,
    },
}

impl StateOp {
    /// The op's log sequence number.
    pub fn lsn(&self) -> u64 {
        match self {
            StateOp::SetStr { lsn, .. }
            | StateOp::SetInt { lsn, .. }
            | StateOp::Unset { lsn, .. } => *lsn,
        }
    }

    /// The variable the op writes.
    pub fn key(&self) -> &str {
        match self {
            StateOp::SetStr { key, .. }
            | StateOp::SetInt { key, .. }
            | StateOp::Unset { key, .. } => key,
        }
    }
}

/// A point-in-time copy of every state variable plus the version counter —
/// what a journal snapshot stores and what recovery restores before replay.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSnapshot {
    /// The version (LSN) at snapshot time.
    pub version: u64,
    /// All variables, in key order.
    pub vars: Vec<(String, SnapValue)>,
}

/// A snapshotted variable value (the state model only holds these two).
#[derive(Debug, Clone, PartialEq)]
pub enum SnapValue {
    /// String variable.
    Str(String),
    /// Integer variable.
    Int(i64),
}

/// A state variable's name plus the slot it was last found at: the first
/// access through a key looks the name up, later ones go straight to the
/// slot while it still holds that name.
#[derive(Debug)]
pub struct Key {
    name: String,
    // Relaxed is enough: the slot is a hint that every access checks
    // against the name, and it publishes no other data.
    slot: AtomicUsize,
}

impl Key {
    /// A key that has found no slot yet.
    pub fn new(name: impl Into<String>) -> Key {
        Key {
            name: name.into(),
            slot: AtomicUsize::new(usize::MAX),
        }
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Clone for Key {
    fn clone(&self) -> Key {
        Key {
            name: self.name.clone(),
            slot: AtomicUsize::new(self.slot.load(Ordering::Relaxed)),
        }
    }
}

/// What names a state variable: any string, or a [`Key`].
pub trait Var {
    /// The name, and the key caching its slot when there is one.
    fn var(&self) -> (&str, Option<&Key>);
}

impl<T: AsRef<str> + ?Sized> Var for T {
    fn var(&self) -> (&str, Option<&Key>) {
        (self.as_ref(), None)
    }
}

impl Var for Key {
    fn var(&self) -> (&str, Option<&Key>) {
        (&self.name, Some(self))
    }
}

/// The Broker layer's mutable runtime state.
#[derive(Debug, Clone, Default)]
pub struct StateManager {
    /// Slot -> (name, value); an unset variable keeps its slot with no
    /// value, so resolved keys stay valid.
    slots: Vec<(String, Option<SnapValue>)>,
    /// Name -> slot, in key order: the order snapshots list variables in.
    index: BTreeMap<String, usize>,
    version: u64,
    /// When `true`, every primitive write is mirrored into `pending` for a
    /// journal to drain; off by default so unjournaled managers pay nothing.
    recording: bool,
    pending: Vec<StateOp>,
}

impl StateManager {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns journaling support on or off: while on, primitive writes are
    /// mirrored as [`StateOp`]s retrievable with [`StateManager::take_ops`].
    pub fn record_ops(&mut self, on: bool) {
        self.recording = on;
        if !on {
            self.pending.clear();
        }
    }

    /// Drains the ops recorded since the last drain.
    pub fn take_ops(&mut self) -> Vec<StateOp> {
        std::mem::take(&mut self.pending)
    }

    /// The ops recorded since the last drain, without draining them.
    /// In-stream monitors peek here for the dirty keys of the current
    /// command frame before the journal drains the queue.
    pub fn pending_ops(&self) -> &[StateOp] {
        &self.pending
    }

    /// The slot `var` names, if its name has one.
    fn find<K: Var + ?Sized>(&self, var: &K) -> Option<usize> {
        let (name, key) = var.var();
        let hint = key.map_or(usize::MAX, |k| k.slot.load(Ordering::Relaxed));
        if self.slots.get(hint).is_some_and(|(n, _)| n == name) {
            return Some(hint);
        }
        let i = *self.index.get(name)?;
        key.inspect(|k| k.slot.store(i, Ordering::Relaxed));
        Some(i)
    }

    /// The slot `var` names, created unset when its name is new. A new
    /// slot is not a write: versions, recorded ops and snapshots do not
    /// see it.
    pub(crate) fn slot<K: Var + ?Sized>(&mut self, var: &K) -> usize {
        if let Some(i) = self.find(var) {
            return i;
        }
        let (name, key) = var.var();
        let i = self.slots.len();
        self.slots.push((name.to_owned(), None));
        self.index.insert(name.to_owned(), i);
        key.inspect(|k| k.slot.store(i, Ordering::Relaxed));
        i
    }

    /// The value `var` holds, if set.
    pub(crate) fn value<K: Var + ?Sized>(&self, var: &K) -> Option<&SnapValue> {
        self.find(var).and_then(|i| self.slots[i].1.as_ref())
    }

    /// Stores `value` in `var`'s slot; `None` unsets it.
    fn put<K: Var + ?Sized>(&mut self, var: &K, value: Option<SnapValue>) {
        let i = self.slot(var);
        self.slots[i].1 = value;
    }

    /// Applies `op`'s write to the slots; the version is the caller's to
    /// advance.
    fn write(&mut self, op: &StateOp) {
        let (key, value) = match op {
            StateOp::SetStr { key, value, .. } => (key, Some(SnapValue::Str(value.clone()))),
            StateOp::SetInt { key, value, .. } => (key, Some(SnapValue::Int(*value))),
            StateOp::Unset { key, .. } => (key, None),
        };
        self.put(key, value);
    }

    /// Sets a string variable.
    pub fn set_str<K: Var + ?Sized>(&mut self, key: &K, value: &str) {
        self.put(key, Some(SnapValue::Str(value.to_owned())));
        self.version += 1;
        if self.recording {
            self.pending.push(StateOp::SetStr {
                lsn: self.version,
                key: key.var().0.to_owned(),
                value: value.to_owned(),
            });
        }
    }

    /// Sets an integer variable.
    pub fn set_int<K: Var + ?Sized>(&mut self, key: &K, value: i64) {
        self.put(key, Some(SnapValue::Int(value)));
        self.version += 1;
        if self.recording {
            self.pending.push(StateOp::SetInt {
                lsn: self.version,
                key: key.var().0.to_owned(),
                value,
            });
        }
    }

    /// Adds `delta` to an integer variable (0 when unset).
    pub fn bump<K: Var + ?Sized>(&mut self, key: &K, delta: i64) -> i64 {
        let next = self.int(key).unwrap_or(0) + delta;
        self.set_int(key, next);
        next
    }

    /// Reads a string variable.
    pub fn str<K: Var + ?Sized>(&self, key: &K) -> Option<&str> {
        match self.value(key)? {
            SnapValue::Str(s) => Some(s),
            SnapValue::Int(_) => None,
        }
    }

    /// Reads an integer variable.
    pub fn int<K: Var + ?Sized>(&self, key: &K) -> Option<i64> {
        match self.value(key)? {
            SnapValue::Int(i) => Some(*i),
            SnapValue::Str(_) => None,
        }
    }

    /// Removes a variable.
    pub fn unset<K: Var + ?Sized>(&mut self, key: &K) {
        self.put(key, None);
        self.version += 1;
        if self.recording {
            self.pending.push(StateOp::Unset {
                lsn: self.version,
                key: key.var().0.to_owned(),
            });
        }
    }

    /// Writes `value` into `key`; `None` unsets it.
    pub(crate) fn put_value(&mut self, key: &str, value: Option<&SnapValue>) {
        match value {
            Some(SnapValue::Str(s)) => self.set_str(key, s),
            Some(SnapValue::Int(i)) => self.set_int(key, *i),
            None => self.unset(key),
        }
    }

    /// Mutation counter (each write bumps it). Doubles as the journal LSN.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Captures every variable plus the version counter.
    pub fn snapshot(&self) -> StateSnapshot {
        let vars = self
            .index
            .iter()
            .filter_map(|(key, &i)| {
                let value = self.slots[i].1.as_ref()?;
                Some((key.clone(), value.clone()))
            })
            .collect();
        StateSnapshot {
            version: self.version,
            vars,
        }
    }

    /// Replaces the entire state with a snapshot's contents (recording and
    /// pending ops are untouched — restore is not itself a mutation).
    /// Slots survive, so keys keep finding theirs.
    pub fn restore(&mut self, snap: &StateSnapshot) {
        for (_, value) in &mut self.slots {
            *value = None;
        }
        for (key, value) in &snap.vars {
            self.put(key, Some(value.clone()));
        }
        self.version = snap.version;
    }

    /// Replays one journaled op. Refuses (with a typed error) when the
    /// op's LSN is not exactly `version + 1` — a gap or reorder means the
    /// journal and the model have diverged.
    pub fn apply_op(&mut self, op: &StateOp) -> Result<()> {
        if op.lsn() != self.version + 1 {
            return Err(BrokerError::RecoveryDiverged(format!(
                "journal LSN {} does not follow state version {}",
                op.lsn(),
                self.version
            )));
        }
        self.write(op);
        self.version = op.lsn();
        Ok(())
    }

    /// Replays a coalesced journal record: `op` is the *last* of a run of
    /// consecutive writes to the same key whose first LSN was `first_lsn`
    /// — only the final value matters, so the intermediate writes were
    /// never journaled. Requires the run to start exactly at
    /// `version + 1` (same gap detection as [`StateManager::apply_op`])
    /// and advances the version over the whole run in one step.
    pub fn apply_coalesced(&mut self, first_lsn: u64, op: &StateOp) -> Result<()> {
        if first_lsn != self.version + 1 || op.lsn() < first_lsn {
            return Err(BrokerError::RecoveryDiverged(format!(
                "coalesced journal run {first_lsn}..={} does not follow state version {}",
                op.lsn(),
                self.version
            )));
        }
        self.write(op);
        self.version = op.lsn();
        Ok(())
    }

    /// Compares two states variable-by-variable and reports the first
    /// difference (in key order) as a human-readable description, or `None`
    /// when the states agree on every variable. Versions are compared too:
    /// reconciliation uses this to prove a promoted standby converged with
    /// what the failed primary had committed.
    pub fn first_divergence(&self, other: &StateManager) -> Option<String> {
        let (a, b) = (self.snapshot(), other.snapshot());
        if a.version != b.version {
            return Some(format!("version {} vs {}", a.version, b.version));
        }
        let show = |v: &SnapValue| match v {
            SnapValue::Str(s) => format!("\"{s}\""),
            SnapValue::Int(i) => i.to_string(),
        };
        let mut left = a.vars.iter();
        let mut right = b.vars.iter();
        loop {
            match (left.next(), right.next()) {
                (None, None) => return None,
                (Some((k, v)), None) => {
                    return Some(format!("{k}={} vs unset", show(v)));
                }
                (None, Some((k, v))) => {
                    return Some(format!("{k} unset vs {}", show(v)));
                }
                (Some((ka, va)), Some((kb, vb))) => {
                    if ka != kb {
                        return Some(format!("key {ka} vs {kb}"));
                    }
                    if va != vb {
                        return Some(format!("{ka}={} vs {}", show(va), show(vb)));
                    }
                }
            }
        }
    }

    /// Evaluates an OCL-lite expression with `self` bound to the state
    /// object; missing variables read as `null`. The expression goes
    /// through the one predicate compiler, [`crate::pred::Pred`], which
    /// leaves to `StateManager::interpret` only what it cannot decide.
    pub fn eval(&self, expr: &Expr) -> Result<bool> {
        crate::pred::eval(self, expr)
    }

    /// Evaluates `expr` with the OCL-lite interpreter, over a one-object
    /// model of the current variables built for this evaluation: the
    /// semantic reference the compiled predicates match, and the source
    /// of every evaluation error's text.
    pub(crate) fn interpret(&self, expr: &Expr) -> Result<bool> {
        let mut model = Model::new("mddsm.broker.state");
        let obj = model.create("State");
        for (key, value) in self.snapshot().vars {
            let value = match value {
                SnapValue::Str(s) => Value::Str(s),
                SnapValue::Int(i) => Value::Int(i),
            };
            model.set_attr(obj, key, value);
        }
        let mm = Metamodel::empty("mddsm.broker.state");
        eval_bool(expr, &EvalEnv::for_object(&model, &mm, obj))
            .map_err(|e| BrokerError::PolicyFailed(e.to_string()))
    }

    /// Applies a `k=v` or `k=+n` effect string: `=+n` bumps an integer,
    /// otherwise the value is stored as string (or int when it parses).
    pub fn apply_effect(&mut self, effect: &str) -> Result<()> {
        let (key, value) = effect.split_once('=').ok_or_else(|| {
            BrokerError::BadPlanStep(format!("state effect `{effect}` is not `k=v`"))
        })?;
        if let Some(delta) = value.strip_prefix('+').and_then(|d| d.parse::<i64>().ok()) {
            self.bump(key, delta);
        } else if let Some(delta) = value.strip_prefix('-').and_then(|d| d.parse::<i64>().ok()) {
            self.bump(key, -delta);
        } else if let Ok(n) = value.parse::<i64>() {
            self.set_int(key, n);
        } else {
            self.set_str(key, value);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mddsm_meta::constraint::parse;

    #[test]
    fn variables_and_versioning() {
        let mut s = StateManager::new();
        assert_eq!(s.version(), 0);
        s.set_str("mode", "direct");
        s.set_int("opens", 2);
        assert_eq!(s.str("mode"), Some("direct"));
        assert_eq!(s.int("opens"), Some(2));
        assert_eq!(s.bump("opens", 3), 5);
        assert_eq!(s.bump("fresh", 1), 1);
        s.unset("mode");
        assert_eq!(s.str("mode"), None);
        assert_eq!(s.version(), 5);
    }

    #[test]
    fn policy_evaluation_over_state() {
        let mut s = StateManager::new();
        s.set_str("mode", "direct");
        s.set_int("failures", 3);
        assert!(s.eval(&parse("self.mode = \"direct\"").unwrap()).unwrap());
        assert!(s.eval(&parse("self.failures > 2").unwrap()).unwrap());
        assert!(s.eval(&parse("self.missing = null").unwrap()).unwrap());
        assert!(!s.eval(&parse("self.failures > 5").unwrap()).unwrap());
        // Non-boolean expression is a policy failure.
        assert!(s.eval(&parse("self.failures + 1").unwrap()).is_err());
    }

    #[test]
    fn recording_mirrors_primitive_writes() {
        let mut s = StateManager::new();
        s.set_int("quiet", 1); // not recording yet
        s.record_ops(true);
        s.set_str("mode", "direct");
        s.bump("opens", 2);
        s.unset("mode");
        let ops = s.take_ops();
        assert_eq!(
            ops,
            vec![
                StateOp::SetStr {
                    lsn: 2,
                    key: "mode".into(),
                    value: "direct".into()
                },
                StateOp::SetInt {
                    lsn: 3,
                    key: "opens".into(),
                    value: 2
                },
                StateOp::Unset {
                    lsn: 4,
                    key: "mode".into()
                },
            ]
        );
        assert!(s.take_ops().is_empty());
        s.record_ops(false);
        s.set_int("quiet", 2);
        assert!(s.take_ops().is_empty());
    }

    #[test]
    fn snapshot_restore_and_replay_roundtrip() {
        let mut s = StateManager::new();
        s.set_str("mode", "direct");
        s.set_int("opens", 3);
        let snap = s.snapshot();
        assert_eq!(snap.version, 2);

        s.record_ops(true);
        s.set_int("opens", 4);
        s.unset("mode");
        let ops = s.take_ops();

        // Restore the snapshot into a fresh manager and replay the tail.
        let mut r = StateManager::new();
        r.restore(&snap);
        assert_eq!(r.int("opens"), Some(3));
        assert_eq!(r.str("mode"), Some("direct"));
        for op in &ops {
            r.apply_op(op).unwrap();
        }
        assert_eq!(r.version(), s.version());
        assert_eq!(r.int("opens"), Some(4));
        assert_eq!(r.str("mode"), None);
        assert_eq!(r.snapshot(), s.snapshot());
    }

    #[test]
    fn replay_refuses_lsn_gaps() {
        let mut s = StateManager::new();
        let op = StateOp::SetInt {
            lsn: 5,
            key: "x".into(),
            value: 1,
        };
        match s.apply_op(&op) {
            Err(BrokerError::RecoveryDiverged(m)) => assert!(m.contains("LSN 5"), "{m}"),
            other => panic!("expected RecoveryDiverged, got {other:?}"),
        }
    }

    #[test]
    fn first_divergence_reports_the_difference() {
        let mut a = StateManager::new();
        let mut b = StateManager::new();
        assert_eq!(a.first_divergence(&b), None);
        a.set_int("x", 1);
        // Version mismatch is itself a divergence.
        assert_eq!(a.first_divergence(&b), Some("version 1 vs 0".into()));
        b.set_int("x", 2);
        let d = a.first_divergence(&b).unwrap();
        assert!(d.contains("x=1 vs 2"), "{d}");
        a.set_str("m", "on"); // a now v2
        b.set_str("n", "on"); // b now v2 with a different inventory
        let d = a.first_divergence(&b).unwrap();
        assert!(d.contains('m'), "{d}");
        // Restoring a's snapshot into b makes them agree again.
        b.restore(&a.snapshot());
        assert_eq!(a.first_divergence(&b), None);
    }

    #[test]
    fn effects() {
        let mut s = StateManager::new();
        s.apply_effect("opens=+1").unwrap();
        s.apply_effect("opens=+1").unwrap();
        assert_eq!(s.int("opens"), Some(2));
        s.apply_effect("opens=-1").unwrap();
        assert_eq!(s.int("opens"), Some(1));
        s.apply_effect("mode=relay").unwrap();
        assert_eq!(s.str("mode"), Some("relay"));
        s.apply_effect("limit=42").unwrap();
        assert_eq!(s.int("limit"), Some(42));
        assert!(s.apply_effect("broken").is_err());
    }
}
