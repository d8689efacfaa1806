//! Model comparison: the substrate of the Synthesis layer's *model
//! comparator*.
//!
//! [`diff`] compares two models of the same metamodel and produces a
//! [`ChangeList`] — the "change list" of the MD-DSM Synthesis layer, which
//! the change interpreter turns into control scripts. [`apply`] replays a
//! change list onto a model; `apply(old, diff(old, new))` makes `old`
//! equivalent to `new` (checked by [`equivalent`]).
//!
//! Objects are matched across models by a *key*: the value of the first
//! present key attribute, `id` then `name`; unkeyed objects are matched
//! positionally within their class. A [`KeyIndex`] holds one
//! model's keys both ways.
//!
//! There is one comparison, [`compare`]. It walks two indexed models in
//! key order and compares each matched pair of objects in place: attribute
//! slots are borrowed, reference targets are compared key by key through
//! each side's index, and values are cloned only into the changes it
//! emits. An index shares each object's class name with its model, so
//! indexing copies only the key texts. [`diff`] indexes both models and calls it; the synthesis engine
//! keeps the running model's index, so a submission indexes only the new
//! model.

use crate::error::MetaError;
use crate::model::{MObject, Model, Name, ObjectId};
use crate::{Result, Value};
use std::collections::BTreeMap;

/// Attribute names tried in order to key an object.
const KEY_ATTRS: [&str; 2] = ["id", "name"];

/// A stable, model-independent identity for an object: its class plus a key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectKey {
    /// The object's class name.
    pub class: String,
    /// Key attribute value, or a synthesized positional key `~N`.
    pub key: String,
}

impl std::fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.class, self.key)
    }
}

/// One atomic model change.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// Create an object of `key.class` addressable as `key`.
    Create {
        /// Identity of the new object.
        key: ObjectKey,
    },
    /// Delete the object addressed by `key`.
    Delete {
        /// Identity of the object to remove.
        key: ObjectKey,
    },
    /// Replace the values of an attribute slot (empty = unset).
    SetAttr {
        /// Object addressed.
        key: ObjectKey,
        /// Attribute slot name.
        attr: String,
        /// New values.
        values: Vec<Value>,
    },
    /// Replace the targets of a reference slot (empty = unset).
    SetRefs {
        /// Object addressed.
        key: ObjectKey,
        /// Reference slot name.
        reference: String,
        /// New targets, by key.
        targets: Vec<ObjectKey>,
    },
}

impl Change {
    /// The object this change addresses.
    pub fn subject(&self) -> &ObjectKey {
        match self {
            Change::Create { key }
            | Change::Delete { key }
            | Change::SetAttr { key, .. }
            | Change::SetRefs { key, .. } => key,
        }
    }
}

/// An ordered list of changes: creations first, then slot updates, then
/// deletions, so that reference targets always resolve during [`apply`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChangeList {
    /// The changes, in application order.
    pub changes: Vec<Change>,
}

impl ChangeList {
    /// `true` when the two models were equivalent.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Number of changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Iterates over the changes in application order.
    pub fn iter(&self) -> impl Iterator<Item = &Change> {
        self.changes.iter()
    }
}

/// One model's object keys, both ways: the key of every live object, and
/// the object each key addresses. When live objects share a key, the later
/// one (by id) owns it; references to either render as that key.
#[derive(Debug, Clone)]
pub struct KeyIndex {
    /// The key of the live object in each id slot; `None` for dead slots.
    keys: Vec<Option<Key>>,
    /// The key owners, in key order.
    owners: Vec<ObjectId>,
}

/// An [`ObjectKey`] as an index holds it, (class, key text), the class
/// name shared with the model's object. Keys order as their `ObjectKey`s
/// do.
pub(crate) type Key = (Name, String);

/// The [`ObjectKey`] a held key stands for.
impl From<&Key> for ObjectKey {
    fn from((class, key): &Key) -> Self {
        ObjectKey {
            class: class.to_string(),
            key: key.clone(),
        }
    }
}

impl KeyIndex {
    /// Indexes the live objects of `model`.
    pub fn new(model: &Model) -> Self {
        let mut keys = Vec::with_capacity(model.id_bound());
        let mut owners = Vec::with_capacity(model.len());
        let mut ordinal: BTreeMap<&str, u32> = BTreeMap::new();
        for (id, obj) in model.iter() {
            let key = match KEY_ATTRS.iter().find_map(|a| obj.attr_slot(a)?.first()) {
                Some(value) => key_text(value),
                None => {
                    let n = ordinal.entry(obj.class()).or_insert(0);
                    *n += 1;
                    format!("~{}", *n - 1)
                }
            };
            keys.resize(id.index() as usize, None);
            keys.push(Some((obj.class().clone(), key)));
            owners.push(id);
        }
        // Equal keys sort later-id first, so dedup keeps the later owner.
        let key_of = |id: &ObjectId| keys[id.index() as usize].as_ref();
        owners.sort_by(|a, b| key_of(a).cmp(&key_of(b)).then(b.cmp(a)));
        owners.dedup_by(|later, kept| key_of(later) == key_of(kept));
        KeyIndex { keys, owners }
    }

    /// The key of a live object.
    pub(crate) fn key(&self, id: ObjectId) -> Option<&Key> {
        self.keys.get(id.index() as usize)?.as_ref()
    }

    /// The object that owns `key`.
    pub fn id(&self, key: &ObjectKey) -> Option<ObjectId> {
        self.owner(&key.class, &key.key)
    }

    /// The object that owns the key (`class`, `key`).
    pub(crate) fn owner(&self, class: &str, key: &str) -> Option<ObjectId> {
        self.position(class, key).ok().map(|i| self.owners[i])
    }

    /// Whether two live objects share a key (keyed matching cannot tell
    /// them apart).
    pub fn has_shared_keys(&self) -> bool {
        self.owners.len() != self.keys.iter().flatten().count()
    }

    fn position(&self, class: &str, key: &str) -> std::result::Result<usize, usize> {
        let held = |id: ObjectId| self.key(id).map(|(c, k)| (&**c, k.as_str()));
        self.owners
            .binary_search_by(|&id| held(id).cmp(&Some((class, key))))
    }

    /// The owners of `model` (which this index must be of) with their
    /// keys, in key order.
    fn owned<'a>(&'a self, model: &'a Model) -> impl Iterator<Item = (&'a Key, &'a MObject)> {
        self.owners
            .iter()
            .filter_map(move |&id| Some((self.key(id)?, model.object(id).ok()?)))
    }

    /// The keys of a reference slot's live targets, in slot order.
    fn targets<'a>(
        &'a self,
        targets: &'a [ObjectId],
    ) -> impl Iterator<Item = &'a Key> + Clone + 'a {
        targets.iter().filter_map(move |&t| self.key(t))
    }

    /// Records a created object under `key`, which no object owns.
    fn insert(&mut self, id: ObjectId, key: &ObjectKey) {
        let at = self.position(&key.class, &key.key).unwrap_or_else(|at| at);
        let slot = id.index() as usize;
        if self.keys.len() <= slot {
            self.keys.resize(slot + 1, None);
        }
        self.keys[slot] = Some((key.class.as_str().into(), key.key.clone()));
        self.owners.insert(at, id);
    }

    /// Forgets the owner of `key`.
    fn remove(&mut self, key: &ObjectKey) {
        if let Ok(at) = self.position(&key.class, &key.key) {
            let id = self.owners.remove(at);
            self.keys[id.index() as usize] = None;
        }
    }
}

/// A key value as `Value::to_string` renders it. A string of printable
/// ASCII other than `"` and `\` is one that `Debug` leaves unescaped, so
/// it is copied between quotes directly.
fn key_text(value: &Value) -> String {
    match value {
        Value::Str(s)
            if s.bytes()
                .all(|b| matches!(b, b' '..=b'~') && b != b'"' && b != b'\\') =>
        {
            let mut key = String::with_capacity(s.len() + 2);
            key.push('"');
            key.push_str(s);
            key.push('"');
            key
        }
        value => value.to_string(),
    }
}

/// Returns `true` if two models are equivalent up to object identity.
pub fn equivalent(a: &Model, b: &Model) -> bool {
    diff(a, b).is_empty()
}

/// Compares `old` and `new`, producing the change list that transforms
/// `old` into `new`.
pub fn diff(old: &Model, new: &Model) -> ChangeList {
    compare(old, &KeyIndex::new(old), new, &KeyIndex::new(new))
}

/// The comparison behind [`diff`], over models already indexed (each
/// index must be its own model's). Objects are matched by key; the list
/// holds the creations in key order, then each object's slot updates
/// (attributes, then references, each in slot-name order, objects in key
/// order), then the deletions in key order. Empty slots and references to
/// dead objects count as absent.
pub fn compare(old: &Model, old_keys: &KeyIndex, new: &Model, new_keys: &KeyIndex) -> ChangeList {
    let mut creates = Vec::new();
    let mut updates = Vec::new();
    let mut deletes = Vec::new();
    let mut olds = old_keys.owned(old).peekable();
    for (key, now) in new_keys.owned(new) {
        while let Some((gone, _)) = olds.next_if(|(k, _)| *k < key) {
            deletes.push(Change::Delete { key: gone.into() });
        }
        let was = olds.next_if(|(k, _)| *k == key).map(|(_, o)| o);
        if was.is_none() {
            creates.push(Change::Create { key: key.into() });
        }
        let set_attr = |attr: &str, values: &[Value]| Change::SetAttr {
            key: key.into(),
            attr: attr.to_owned(),
            values: values.to_vec(),
        };
        let set_refs = |reference: &str, targets: Vec<ObjectKey>| Change::SetRefs {
            key: key.into(),
            reference: reference.to_owned(),
            targets,
        };
        for (attr, values) in present(now) {
            if was.and_then(|o| attr_of(o, attr)) != Some(values) {
                updates.push(set_attr(attr, values));
            }
        }
        for (attr, _) in was.into_iter().flat_map(present) {
            if attr_of(now, attr).is_none() {
                updates.push(set_attr(attr, &[]));
            }
        }
        for (reference, targets) in now.refs() {
            let mut targets = new_keys.targets(targets).peekable();
            if targets.peek().is_none() {
                continue;
            }
            let before = was.and_then(|o| o.ref_slot(reference));
            let same = before.is_some_and(|b| targets.clone().eq(old_keys.targets(b)));
            if !same {
                updates.push(set_refs(reference, targets.map(ObjectKey::from).collect()));
            }
        }
        for (reference, targets) in was.into_iter().flat_map(MObject::refs) {
            let had = old_keys.targets(targets).next().is_some();
            let has =
                (now.ref_slot(reference)).is_some_and(|t| new_keys.targets(t).next().is_some());
            if had && !has {
                updates.push(set_refs(reference, Vec::new()));
            }
        }
    }
    deletes.extend(olds.map(|(gone, _)| Change::Delete { key: gone.into() }));

    let mut changes = creates;
    changes.extend(updates);
    changes.extend(deletes);
    ChangeList { changes }
}

/// An object's attribute slots that hold values.
fn present(obj: &MObject) -> impl Iterator<Item = (&Name, &[Value])> {
    obj.attrs().filter(|(_, v)| !v.is_empty())
}

/// An attribute slot's values, if it holds any.
fn attr_of<'a>(obj: &'a MObject, attr: &str) -> Option<&'a [Value]> {
    obj.attr_slot(attr).filter(|v| !v.is_empty())
}

/// Applies a change list to a model in place.
pub fn apply(model: &mut Model, changes: &ChangeList) -> Result<()> {
    // Kept up to date as creations and deletions happen.
    let mut index = KeyIndex::new(model);
    let resolve = |index: &KeyIndex, key: &ObjectKey| -> Result<ObjectId> {
        index
            .id(key)
            .ok_or_else(|| MetaError::ApplyFailed(format!("no object with key {key}")))
    };

    for change in &changes.changes {
        match change {
            Change::Create { key } => {
                if index.id(key).is_some() {
                    return Err(MetaError::ApplyFailed(format!(
                        "object {key} already exists"
                    )));
                }
                let id = model.create(key.class.as_str());
                index.insert(id, key);
            }
            Change::Delete { key } => {
                let id = resolve(&index, key)?;
                model.destroy(id, None)?;
                index.remove(key);
            }
            Change::SetAttr { key, attr, values } => {
                let id = resolve(&index, key)?;
                if values.is_empty() {
                    model.unset_attr(id, attr);
                } else {
                    model.set_attr_many(id, attr.as_str(), values.iter().cloned());
                }
            }
            Change::SetRefs {
                key,
                reference,
                targets,
            } => {
                let id = resolve(&index, key)?;
                let ids: Vec<_> = targets
                    .iter()
                    .map(|t| resolve(&index, t))
                    .collect::<Result<_>>()?;
                if ids.is_empty() {
                    model.unset_refs(id, reference);
                } else {
                    model.set_refs(id, reference.as_str(), ids);
                }
            }
        }
    }

    // Keyed objects must remain unique; catch collisions introduced by
    // attribute edits that changed a key attribute.
    if KeyIndex::new(model).has_shared_keys() {
        return Err(MetaError::ApplyFailed(
            "duplicate object keys after apply".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_render_as_values_display() {
        let strings = [
            "name-1 (x)'~",
            "a\"b",
            "a\\b",
            "a\nb",
            "\u{7f}",
            "e\u{301}",
            "é",
            "🦀",
            "",
        ];
        let others = [
            Value::Int(-7),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Bool(true),
            Value::enumeration("Kind", "Video"),
        ];
        for v in strings.map(Value::from).into_iter().chain(others) {
            assert_eq!(key_text(&v), v.to_string(), "{v:?}");
        }
    }

    fn named(m: &mut Model, class: &str, name: &str) -> ObjectId {
        let id = m.create(class);
        m.set_attr(id, "name", Value::from(name));
        id
    }

    #[test]
    fn identical_models_produce_empty_diff() {
        let mut a = Model::new("m");
        named(&mut a, "Node", "x");
        let b = a.clone();
        assert!(diff(&a, &b).is_empty());
        assert!(equivalent(&a, &b));
    }

    #[test]
    fn create_delete_and_update_detected() {
        let mut old = Model::new("m");
        let a = named(&mut old, "Node", "a");
        named(&mut old, "Node", "b");
        let mut new = Model::new("m");
        let a2 = named(&mut new, "Node", "a");
        named(&mut new, "Node", "c");
        new.set_attr(a2, "w", Value::from(5));
        let _ = a;

        let cl = diff(&old, &new);
        assert!(cl
            .iter()
            .any(|c| matches!(c, Change::Create { key } if key.key == "\"c\"")));
        assert!(cl
            .iter()
            .any(|c| matches!(c, Change::Delete { key } if key.key == "\"b\"")));
        assert!(cl
            .iter()
            .any(|c| matches!(c, Change::SetAttr { attr, .. } if attr == "w")));
    }

    #[test]
    fn diff_apply_roundtrip() {
        let mut old = Model::new("m");
        let a = named(&mut old, "Node", "a");
        let b = named(&mut old, "Node", "b");
        let g = named(&mut old, "Graph", "g");
        old.add_ref(g, "nodes", a);
        old.add_ref(g, "nodes", b);

        let mut new = Model::new("m");
        let b2 = named(&mut new, "Node", "b");
        let c2 = named(&mut new, "Node", "c");
        let g2 = named(&mut new, "Graph", "g");
        new.add_ref(g2, "nodes", c2);
        new.add_ref(g2, "nodes", b2);
        new.set_attr(b2, "w", Value::from(9));

        let cl = diff(&old, &new);
        let mut patched = old.clone();
        apply(&mut patched, &cl).unwrap();
        assert!(equivalent(&patched, &new));
        // And the reverse direction also works.
        let back = diff(&new, &old);
        let mut reverted = new.clone();
        apply(&mut reverted, &back).unwrap();
        assert!(equivalent(&reverted, &old));
    }

    #[test]
    fn reference_retargeting() {
        let mut old = Model::new("m");
        let a = named(&mut old, "Node", "a");
        let b = named(&mut old, "Node", "b");
        let g = named(&mut old, "Graph", "g");
        old.add_ref(g, "root", a);
        let _ = b;

        let mut new = old.clone();
        let gid = new.all_of_class("Graph")[0];
        let bid = new
            .iter()
            .find(|(id, _)| new.attr_str(*id, "name") == Some("b"))
            .unwrap()
            .0;
        new.set_refs(gid, "root", vec![bid]);

        let cl = diff(&old, &new);
        assert_eq!(cl.len(), 1);
        let mut patched = old.clone();
        apply(&mut patched, &cl).unwrap();
        assert!(equivalent(&patched, &new));
    }

    #[test]
    fn unkeyed_objects_match_positionally() {
        let mut old = Model::new("m");
        old.create("Anon");
        old.create("Anon");
        let mut new = Model::new("m");
        new.create("Anon");
        let cl = diff(&old, &new);
        assert_eq!(cl.len(), 1);
        assert!(matches!(&cl.changes[0], Change::Delete { .. }));
    }

    #[test]
    fn apply_rejects_unknown_key() {
        let mut m = Model::new("m");
        let cl = ChangeList {
            changes: vec![Change::Delete {
                key: ObjectKey {
                    class: "X".into(),
                    key: "\"nope\"".into(),
                },
            }],
        };
        assert!(apply(&mut m, &cl).is_err());
    }

    #[test]
    fn apply_rejects_duplicate_create() {
        let mut m = Model::new("m");
        named(&mut m, "Node", "a");
        let cl = ChangeList {
            changes: vec![Change::Create {
                key: ObjectKey {
                    class: "Node".into(),
                    key: "\"a\"".into(),
                },
            }],
        };
        // The created object has no name attr yet, so its key would be
        // positional; but the ChangeList addresses it by the keyed name —
        // creating a key that already exists must fail.
        assert!(apply(&mut m, &cl).is_err());
    }

    #[test]
    fn key_attr_preference_order() {
        let mut m = Model::new("m");
        let o = m.create("X");
        m.set_attr(o, "name", Value::from("n"));
        m.set_attr(o, "id", Value::from("i"));
        let keys = KeyIndex::new(&m);
        assert_eq!(keys.key(o).unwrap().1, "\"i\"");
    }
}
