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
use std::borrow::Cow;
use std::collections::{btree_map, BTreeMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One journaled primitive mutation of the runtime model. The `lsn` is the
/// [`StateManager::version`] value *after* the write — versions bump by one
/// per primitive write, so LSNs of consecutive ops are contiguous, which
/// recovery exploits to detect lost entries. The key is the written slot's
/// own name, shared rather than copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateOp {
    /// A string variable was set.
    SetStr {
        /// Log sequence number (the version after the write).
        lsn: u64,
        /// Variable name.
        key: Arc<str>,
        /// New value.
        value: String,
    },
    /// An integer variable was set.
    SetInt {
        /// Log sequence number (the version after the write).
        lsn: u64,
        /// Variable name.
        key: Arc<str>,
        /// New value.
        value: i64,
    },
    /// A variable was removed.
    Unset {
        /// Log sequence number (the version after the write).
        lsn: u64,
        /// Variable name.
        key: Arc<str>,
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

    /// The op as a journal record carries it, borrowing its key and value.
    pub fn view(&self) -> OpView<'_> {
        let (lsn, key, value) = match self {
            StateOp::SetStr { lsn, key, value } => {
                (*lsn, key, Some(ValueView::Str(Cow::Borrowed(value))))
            }
            StateOp::SetInt { lsn, key, value } => (*lsn, key, Some(ValueView::Int(*value))),
            StateOp::Unset { lsn, key } => (*lsn, key, None),
        };
        OpView {
            lsn,
            key: Cow::Borrowed(key),
            value,
        }
    }
}

/// One primitive write as a journal record carries it: borrowed from a
/// pending [`StateOp`] when the record is encoded, from the journal line
/// when it is decoded (owned only where the line held an escape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpView<'a> {
    /// Log sequence number (the version after the write).
    pub lsn: u64,
    /// Variable name.
    pub key: Cow<'a, str>,
    /// New value; `None` removes the variable.
    pub value: Option<ValueView<'a>>,
}

/// A variable's value as a journal record carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueView<'a> {
    /// String value.
    Str(Cow<'a, str>),
    /// Integer value.
    Int(i64),
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

impl SnapValue {
    /// The value as a journal record carries it, borrowed.
    pub fn view(&self) -> ValueView<'_> {
        match self {
            SnapValue::Str(s) => ValueView::Str(Cow::Borrowed(s)),
            SnapValue::Int(i) => ValueView::Int(*i),
        }
    }
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

/// One state variable: its name, shared with every pending op that writes
/// it, and its value. An unset variable keeps its slot, so resolved keys
/// stay valid, and its last value's buffer, so a later write reuses it.
#[derive(Debug, Clone)]
struct Slot {
    name: Arc<str>,
    value: SnapValue,
    set: bool,
}

impl Slot {
    /// Overwrites the value in place: a string lands in the buffer the
    /// slot already holds when it holds one.
    fn write(&mut self, value: Option<&ValueView<'_>>) {
        let Some(value) = value else {
            self.set = false;
            return;
        };
        match (&mut self.value, value) {
            (SnapValue::Str(s), ValueView::Str(v)) => {
                s.clear();
                s.push_str(v);
            }
            (slot, ValueView::Str(v)) => *slot = SnapValue::Str(v.as_ref().to_owned()),
            (slot, ValueView::Int(i)) => *slot = SnapValue::Int(*i),
        }
        self.set = true;
    }
}

/// The set variables of a state in key order, as
/// [`StateManager::vars`] lists them.
#[derive(Debug, Clone)]
pub struct Vars<'a> {
    index: btree_map::Iter<'a, Arc<str>, usize>,
    slots: &'a [Slot],
}

impl<'a> Iterator for Vars<'a> {
    type Item = (&'a str, &'a SnapValue);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (name, &i) = self.index.next()?;
            let slot = &self.slots[i];
            if slot.set {
                return Some((name, &slot.value));
            }
        }
    }
}

/// The Broker layer's mutable runtime state.
#[derive(Debug, Clone, Default)]
pub struct StateManager {
    slots: Vec<Slot>,
    /// Name -> slot, in key order: the order snapshots list variables in.
    index: BTreeMap<Arc<str>, usize>,
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
    /// mirrored as [`StateOp`]s retrievable with [`StateManager::drain_ops`].
    pub fn record_ops(&mut self, on: bool) {
        self.recording = on;
        if !on {
            self.pending.clear();
        }
    }

    /// Drains the ops recorded since the last drain. The queue keeps its
    /// buffer, so recording allocates nothing in steady state.
    pub fn drain_ops(&mut self) -> std::vec::Drain<'_, StateOp> {
        self.pending.drain(..)
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
        if self.slots.get(hint).is_some_and(|s| *s.name == *name) {
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
        let name: Arc<str> = Arc::from(name);
        self.index.insert(Arc::clone(&name), i);
        self.slots.push(Slot {
            name,
            value: SnapValue::Int(0),
            set: false,
        });
        key.inspect(|k| k.slot.store(i, Ordering::Relaxed));
        i
    }

    /// The value `var` holds, if set.
    pub(crate) fn value<K: Var + ?Sized>(&self, var: &K) -> Option<&SnapValue> {
        let slot = &self.slots[self.find(var)?];
        slot.set.then_some(&slot.value)
    }

    /// One primitive write: stores `value` in `var`'s slot (`None` unsets
    /// it), advances the version, and records the op when recording.
    fn put<K: Var + ?Sized>(&mut self, var: &K, value: Option<&ValueView<'_>>) {
        let i = self.slot(var);
        let slot = &mut self.slots[i];
        slot.write(value);
        self.version += 1;
        if self.recording {
            let (lsn, key) = (self.version, Arc::clone(&slot.name));
            self.pending.push(match value {
                Some(ValueView::Str(v)) => StateOp::SetStr {
                    lsn,
                    key,
                    value: v.as_ref().to_owned(),
                },
                Some(ValueView::Int(value)) => StateOp::SetInt {
                    lsn,
                    key,
                    value: *value,
                },
                None => StateOp::Unset { lsn, key },
            });
        }
    }

    /// Sets a string variable.
    pub fn set_str<K: Var + ?Sized>(&mut self, key: &K, value: &str) {
        self.put(key, Some(&ValueView::Str(Cow::Borrowed(value))));
    }

    /// Sets an integer variable.
    pub fn set_int<K: Var + ?Sized>(&mut self, key: &K, value: i64) {
        self.put(key, Some(&ValueView::Int(value)));
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
    }

    /// Writes `value` into `key`; `None` unsets it.
    pub(crate) fn put_value(&mut self, key: &str, value: Option<&SnapValue>) {
        self.put(key, value.map(SnapValue::view).as_ref());
    }

    /// Mutation counter (each write bumps it). Doubles as the journal LSN.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Every set variable with its value, in key order.
    pub fn vars(&self) -> Vars<'_> {
        Vars {
            index: self.index.iter(),
            slots: &self.slots,
        }
    }

    /// Captures every variable plus the version counter.
    pub fn snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            version: self.version,
            vars: self
                .vars()
                .map(|(key, value)| (key.to_owned(), value.clone()))
                .collect(),
        }
    }

    /// Replaces the entire state with a snapshot's variables at `version`
    /// (recording and pending ops are untouched — restore is not itself a
    /// mutation). Values are overwritten in place: slots survive, so keys
    /// keep finding theirs, and a string lands in the buffer its slot
    /// already holds.
    pub fn restore<'v, K: AsRef<str>>(
        &mut self,
        version: u64,
        vars: impl IntoIterator<Item = (K, ValueView<'v>)>,
    ) {
        for slot in &mut self.slots {
            slot.set = false;
        }
        for (key, value) in vars {
            let i = self.slot(key.as_ref());
            self.slots[i].write(Some(&value));
        }
        self.version = version;
    }

    /// Replays one journaled op, writing its slot in place. Refuses (with
    /// a typed error) when the op's LSN is not exactly `version + 1` — a
    /// gap or reorder means the journal and the model have diverged.
    pub fn apply_op(&mut self, op: &OpView<'_>) -> Result<()> {
        if op.lsn != self.version + 1 {
            return Err(BrokerError::RecoveryDiverged(format!(
                "journal LSN {} does not follow state version {}",
                op.lsn, self.version
            )));
        }
        self.replay_write(op);
        Ok(())
    }

    /// Replays a coalesced journal record: `op` is the *last* of a run of
    /// consecutive writes to the same key whose first LSN was `first_lsn`
    /// — only the final value matters, so the intermediate writes were
    /// never journaled. Requires the run to start exactly at
    /// `version + 1` (same gap detection as [`StateManager::apply_op`])
    /// and advances the version over the whole run in one step.
    pub fn apply_coalesced(&mut self, first_lsn: u64, op: &OpView<'_>) -> Result<()> {
        if first_lsn != self.version + 1 || op.lsn < first_lsn {
            return Err(BrokerError::RecoveryDiverged(format!(
                "coalesced journal run {first_lsn}..={} does not follow state version {}",
                op.lsn, self.version
            )));
        }
        self.replay_write(op);
        Ok(())
    }

    /// Applies a checked op's write to its slot and adopts its LSN as the
    /// version. Replay is not a new mutation: nothing is recorded.
    fn replay_write(&mut self, op: &OpView<'_>) {
        let i = self.slot(op.key.as_ref());
        self.slots[i].write(op.value.as_ref());
        self.version = op.lsn;
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
        for (key, value) in self.vars() {
            let value = match value {
                SnapValue::Str(s) => Value::Str(s.clone()),
                SnapValue::Int(i) => Value::Int(*i),
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
        let ops: Vec<StateOp> = s.drain_ops().collect();
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
        // The op shares its slot's name instead of copying it.
        let StateOp::SetStr { key, .. } = &ops[0] else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(key, &s.slots[s.find("mode").unwrap()].name));
        assert_eq!(s.drain_ops().len(), 0);
        s.record_ops(false);
        s.set_int("quiet", 2);
        assert_eq!(s.drain_ops().len(), 0);
    }

    #[test]
    fn snapshot_restore_and_replay_roundtrip() {
        let mut s = StateManager::new();
        s.set_str("mode", "direct");
        s.set_int("opens", 3);
        let snap = s.clone();
        assert_eq!(snap.version(), 2);

        s.record_ops(true);
        s.set_int("opens", 4);
        s.unset("mode");
        let ops: Vec<StateOp> = s.drain_ops().collect();

        // Restore the snapshot into a fresh manager and replay the tail.
        let mut r = StateManager::new();
        r.restore(snap.version(), snap.vars().map(|(k, v)| (k, v.view())));
        assert_eq!(r.int("opens"), Some(3));
        assert_eq!(r.str("mode"), Some("direct"));
        for op in &ops {
            r.apply_op(&op.view()).unwrap();
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
        match s.apply_op(&op.view()) {
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
        b.restore(a.version(), a.vars().map(|(k, v)| (k, v.view())));
        assert_eq!(a.first_divergence(&b), None);
    }

    #[test]
    fn restore_and_replay_overwrite_string_slots_in_place() {
        let mut s = StateManager::new();
        s.set_str("mode", "direct-and-then-some");
        s.set_int("n", 1);
        let buffer = |s: &StateManager| match &s.slots[s.find("mode").unwrap()].value {
            SnapValue::Str(v) => (v.as_ptr(), v.capacity()),
            SnapValue::Int(_) => unreachable!(),
        };
        let before = buffer(&s);
        s.set_str("mode", "lite");
        s.restore(9, [("mode", ValueView::Str(Cow::Borrowed("relay")))]);
        assert_eq!(buffer(&s), before, "one buffer across writes and restores");
        assert_eq!(
            (s.str("mode"), s.int("n"), s.version()),
            (Some("relay"), None, 9)
        );
        s.unset("mode");
        let op = OpView {
            lsn: 11,
            key: Cow::Borrowed("mode"),
            value: Some(ValueView::Str(Cow::Borrowed("full"))),
        };
        s.apply_op(&op).unwrap();
        assert_eq!(buffer(&s), before);
        assert_eq!(s.str("mode"), Some("full"));
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
