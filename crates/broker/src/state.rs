//! The state manager: the Broker layer's runtime model.
//!
//! The Fig. 6 `StateManager` "stores and manipulates the layer's
//! runtime model". True to MD-DSM, the runtime state *is a model*: a single
//! `State` object whose attribute slots hold the state variables, so
//! policies and autonomic symptoms are plain OCL-lite expressions evaluated
//! with `self` bound to that object.

use crate::{BrokerError, Result};
use mddsm_meta::constraint::{eval_bool, EvalEnv, Expr};
use mddsm_meta::metamodel::Metamodel;
use mddsm_meta::model::{Model, ObjectId};
use mddsm_meta::Value;

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

/// The Broker layer's mutable runtime state.
#[derive(Debug, Clone)]
pub struct StateManager {
    model: Model,
    state_obj: ObjectId,
    // Empty metamodel: state attribute slots resolve through the raw-slot
    // fallback of the constraint evaluator.
    mm: Metamodel,
    version: u64,
    /// When `true`, every primitive write is mirrored into `pending` for a
    /// journal to drain; off by default so unjournaled managers pay nothing.
    recording: bool,
    pending: Vec<StateOp>,
}

impl Default for StateManager {
    fn default() -> Self {
        Self::new()
    }
}

impl StateManager {
    /// Creates an empty state. Infallible: the empty metamodel is trivially
    /// well-formed, so no failure path (and no panic path) exists.
    pub fn new() -> Self {
        let mut model = Model::new("mddsm.broker.state");
        let state_obj = model.create("State");
        StateManager {
            model,
            state_obj,
            mm: Metamodel::empty("mddsm.broker.state"),
            version: 0,
            recording: false,
            pending: Vec::new(),
        }
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

    /// Stores `value` in `key`'s slot, overwriting an existing slot in
    /// place: rewriting a variable allocates neither a key nor a slot.
    fn put(&mut self, key: &str, value: Value) {
        let Ok(obj) = self.model.object_mut(self.state_obj) else {
            return;
        };
        match obj.attrs.get_mut(key) {
            Some(slot) => {
                slot.clear();
                slot.push(value);
            }
            None => {
                obj.attrs.insert(key.to_owned(), vec![value]);
            }
        }
    }

    /// Applies `op`'s write to the state object; the version is the
    /// caller's to advance.
    fn write(&mut self, op: &StateOp) {
        match op {
            StateOp::SetStr { key, value, .. } => self.put(key, Value::from(value.as_str())),
            StateOp::SetInt { key, value, .. } => self.put(key, Value::from(*value)),
            StateOp::Unset { key, .. } => self.model.unset_attr(self.state_obj, key),
        }
    }

    /// Sets a string variable.
    pub fn set_str(&mut self, key: &str, value: &str) {
        self.put(key, Value::from(value));
        self.version += 1;
        if self.recording {
            self.pending.push(StateOp::SetStr {
                lsn: self.version,
                key: key.to_owned(),
                value: value.to_owned(),
            });
        }
    }

    /// Sets an integer variable.
    pub fn set_int(&mut self, key: &str, value: i64) {
        self.put(key, Value::from(value));
        self.version += 1;
        if self.recording {
            self.pending.push(StateOp::SetInt {
                lsn: self.version,
                key: key.to_owned(),
                value,
            });
        }
    }

    /// Adds `delta` to an integer variable (0 when unset).
    pub fn bump(&mut self, key: &str, delta: i64) -> i64 {
        let cur = self.int(key).unwrap_or(0);
        let next = cur + delta;
        self.set_int(key, next);
        next
    }

    /// Reads a string variable.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.model.attr_str(self.state_obj, key)
    }

    /// Reads an integer variable.
    pub fn int(&self, key: &str) -> Option<i64> {
        self.model.attr_int(self.state_obj, key)
    }

    /// Removes a variable.
    pub fn unset(&mut self, key: &str) {
        self.model.unset_attr(self.state_obj, key);
        self.version += 1;
        if self.recording {
            self.pending.push(StateOp::Unset {
                lsn: self.version,
                key: key.to_owned(),
            });
        }
    }

    /// Mutation counter (each write bumps it). Doubles as the journal LSN.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Captures every variable plus the version counter.
    pub fn snapshot(&self) -> StateSnapshot {
        let mut vars = Vec::new();
        if let Ok(obj) = self.model.object(self.state_obj) {
            for (key, values) in &obj.attrs {
                let Some(v) = values.first() else { continue };
                if let Some(s) = v.as_str() {
                    vars.push((key.clone(), SnapValue::Str(s.to_owned())));
                } else if let Some(i) = v.as_int() {
                    vars.push((key.clone(), SnapValue::Int(i)));
                }
            }
        }
        StateSnapshot {
            version: self.version,
            vars,
        }
    }

    /// Replaces the entire state with a snapshot's contents (recording and
    /// pending ops are untouched — restore is not itself a mutation).
    pub fn restore(&mut self, snap: &StateSnapshot) {
        let mut model = Model::new("mddsm.broker.state");
        let state_obj = model.create("State");
        for (key, value) in &snap.vars {
            match value {
                SnapValue::Str(s) => model.set_attr(state_obj, key, Value::from(s.as_str())),
                SnapValue::Int(i) => model.set_attr(state_obj, key, Value::from(*i)),
            }
        }
        self.model = model;
        self.state_obj = state_obj;
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
    /// object; missing variables read as `null`.
    pub fn eval(&self, expr: &Expr) -> Result<bool> {
        let env = EvalEnv::for_object(&self.model, &self.mm, self.state_obj);
        eval_bool(expr, &env).map_err(|e| BrokerError::PolicyFailed(e.to_string()))
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
