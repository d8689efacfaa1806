//! Dynamic model instances — the analogue of EMF's dynamic `EObject`s.
//!
//! A [`Model`] is an arena of [`MObject`]s, each an instance of a metaclass,
//! manipulated reflectively through string-named slots. Models are the
//! universal currency of MD-DSM: middleware configurations, application
//! models, runtime models, and control scripts are all [`Model`]s.
//!
//! Objects are laid out for runtime use, as KMF argues models@runtime
//! need (arXiv:1405.6817), and the layout is private to this crate:
//!
//! * an object names its class and its slots through shared [`Name`]s, so
//!   cloning or dropping a model copies or frees no name text. A name is
//!   reference-counted and held only by the objects that use it (there is
//!   no process-wide table); [`crate::text::parse`] shares one per
//!   distinct name in its text;
//! * its attribute slots and its reference slots each live in one vector
//!   sorted by name, where a slot of a single value or target holds it
//!   inline. Slots list, compare and write in name order, as a map's
//!   would, and an empty slot stays distinct from an absent one.

use crate::error::MetaError;
use crate::metamodel::Metamodel;
use crate::{Result, Value};
use std::fmt;
use std::sync::Arc;

/// A class or slot name, shared by the objects (and model clones) that
/// use it.
pub type Name = Arc<str>;

/// Opaque handle to an object within one [`Model`].
///
/// Ids are stable for the lifetime of the object and never reused within a
/// model, which makes them safe to embed in change lists and runtime state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(u32);

impl ObjectId {
    /// The raw index, exposed for diagnostics and deterministic ordering.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One object of a model: its class plus attribute and reference slots.
#[derive(Debug, Clone, PartialEq)]
pub struct MObject {
    class: Name,
    attrs: Slots<Value>,
    refs: Slots<ObjectId>,
}

impl MObject {
    /// Name of the instantiated metaclass.
    pub fn class(&self) -> &Name {
        &self.class
    }

    /// Attribute slots in name order; a multi-valued slot holds several
    /// values in order, an empty one none.
    pub fn attrs(&self) -> impl Iterator<Item = (&Name, &[Value])> {
        self.attrs.iter()
    }

    /// Reference slots in name order; targets are ids within the same
    /// model.
    pub fn refs(&self) -> impl Iterator<Item = (&Name, &[ObjectId])> {
        self.refs.iter()
    }

    /// The values of attribute slot `name`, if the object has that slot.
    pub fn attr_slot(&self, name: &str) -> Option<&[Value]> {
        self.attrs.get(name)
    }

    /// The targets of reference slot `name`, if the object has that slot.
    pub fn ref_slot(&self, name: &str) -> Option<&[ObjectId]> {
        self.refs.get(name)
    }
}

/// Named slots, sorted by name, each name once.
#[derive(Clone, PartialEq)]
struct Slots<T>(Vec<(Name, Slot<T>)>);

/// Slots print as the name-ordered map they stand for.
impl<T: fmt::Debug> fmt::Debug for Slots<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T> Slots<T> {
    fn find(&self, name: &str) -> std::result::Result<usize, usize> {
        self.0.binary_search_by(|(n, _)| (**n).cmp(name))
    }

    fn get(&self, name: &str) -> Option<&[T]> {
        Some(self.0[self.find(name).ok()?].1.as_slice())
    }

    /// Slot `name`, inserted empty in name order when absent (keeping the
    /// name already held when present).
    fn entry(&mut self, name: Name) -> &mut Slot<T> {
        let i = (self.find(&name)).unwrap_or_else(|i| {
            self.0.insert(i, (name, Slot::Many(Vec::new())));
            i
        });
        &mut self.0[i].1
    }

    fn iter(&self) -> impl Iterator<Item = (&Name, &[T])> {
        self.0.iter().map(|(n, s)| (n, s.as_slice()))
    }
}

/// A slot's values: a single one inline, any other number in a vector.
#[derive(Clone)]
enum Slot<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> Slot<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            Slot::One(v) => std::slice::from_ref(v),
            Slot::Many(v) => v,
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match self {
            Slot::One(v) if !keep(v) => *self = Slot::Many(Vec::new()),
            Slot::One(_) => {}
            Slot::Many(values) => values.retain(keep),
        }
    }
}

impl<T> FromIterator<T> for Slot<T> {
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> Self {
        let mut values = values.into_iter();
        match (values.next(), values.next()) {
            (Some(one), None) => Slot::One(one),
            (first, second) => Slot::Many(first.into_iter().chain(second).chain(values).collect()),
        }
    }
}

/// Slots compare by their values, however they are held.
impl<T: PartialEq> PartialEq for Slot<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A model: an arena of objects claimed to conform to a named metamodel.
///
/// The model itself is metamodel-agnostic (objects can be created and
/// mutated freely); [`crate::conformance::check`] verifies conformance on
/// demand, mirroring EMF's separation of construction and validation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Model {
    metamodel: Name,
    objects: Vec<Option<MObject>>,
}

impl Model {
    /// Creates an empty model claiming conformance to `metamodel`.
    pub fn new(metamodel: impl Into<Name>) -> Self {
        Self::with_capacity(metamodel.into(), 0)
    }

    /// An empty model with room for `objects` objects, so a reader that
    /// knows its object count sizes the arena once.
    pub(crate) fn with_capacity(metamodel: Name, objects: usize) -> Self {
        Model {
            metamodel,
            objects: Vec::with_capacity(objects),
        }
    }

    /// Name of the metamodel this model claims to conform to.
    pub fn metamodel_name(&self) -> &str {
        &self.metamodel
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.iter().filter(|o| o.is_some()).count()
    }

    /// Returns `true` if the model has no live objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the largest id the model has issued: every id, live or
    /// dead, indexes below it.
    pub(crate) fn id_bound(&self) -> usize {
        self.objects.len()
    }

    /// Creates an object of the given class and returns its id.
    pub fn create(&mut self, class: impl Into<Name>) -> ObjectId {
        let id = ObjectId(self.objects.len() as u32);
        self.objects.push(Some(MObject {
            class: class.into(),
            attrs: Slots(Vec::new()),
            refs: Slots(Vec::new()),
        }));
        id
    }

    /// Creates an object and installs the metaclass's attribute defaults.
    pub fn create_with_defaults(&mut self, class: &str, mm: &Metamodel) -> Result<ObjectId> {
        let mc = mm.class_or_err(class)?;
        if mc.is_abstract {
            return Err(MetaError::IllFormedMetamodel(format!(
                "cannot instantiate abstract class `{class}`"
            )));
        }
        let id = self.create(class);
        for a in mm.all_attributes(class) {
            if !a.default.is_empty() {
                self.set_attr_many(id, a.name.as_str(), a.default.iter().cloned());
            }
        }
        Ok(id)
    }

    /// Destroys an object, removing all references to it from other objects
    /// and (recursively) destroying objects it contains via `mm`'s
    /// containment references. With `mm` absent, only direct removal and
    /// incoming-reference cleanup are performed.
    pub fn destroy(&mut self, id: ObjectId, mm: Option<&Metamodel>) -> Result<()> {
        let obj = self
            .objects
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or_else(|| MetaError::DanglingObject(id.to_string()))?;
        if let Some(mm) = mm {
            for (slot, targets) in obj.refs() {
                if mm
                    .reference(&obj.class, slot)
                    .is_some_and(|r| r.containment)
                {
                    for t in targets {
                        // Contained objects die with their container.
                        let _ = self.destroy(*t, Some(mm));
                    }
                }
            }
        }
        for o in self.objects.iter_mut().flatten() {
            for (_, targets) in &mut o.refs.0 {
                targets.retain(|t| *t != id);
            }
        }
        Ok(())
    }

    /// Returns `true` if `id` refers to a live object.
    pub fn contains(&self, id: ObjectId) -> bool {
        matches!(self.objects.get(id.0 as usize), Some(Some(_)))
    }

    /// Borrows an object.
    pub fn object(&self, id: ObjectId) -> Result<&MObject> {
        self.objects
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or_else(|| MetaError::DanglingObject(id.to_string()))
    }

    /// Mutably borrows an object.
    fn object_mut(&mut self, id: ObjectId) -> Option<&mut MObject> {
        self.objects.get_mut(id.0 as usize).and_then(Option::as_mut)
    }

    /// Iterates over `(id, object)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &MObject)> {
        self.objects
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_ref().map(|o| (ObjectId(i as u32), o)))
    }

    /// Ids of all live objects of the given class (exact match).
    pub fn all_of_class(&self, class: &str) -> Vec<ObjectId> {
        self.iter()
            .filter(|(_, o)| *o.class == *class)
            .map(|(i, _)| i)
            .collect()
    }

    /// Sets a single-valued attribute, replacing previous values.
    pub fn set_attr(&mut self, id: ObjectId, name: impl Into<Name>, value: Value) {
        self.set_attr_many(id, name, [value]);
    }

    /// Sets a multi-valued attribute, replacing previous values.
    pub fn set_attr_many(
        &mut self,
        id: ObjectId,
        name: impl Into<Name>,
        values: impl IntoIterator<Item = Value>,
    ) {
        if let Some(o) = self.object_mut(id) {
            *o.attrs.entry(name.into()) = values.into_iter().collect();
        }
    }

    /// Removes an attribute slot entirely.
    pub fn unset_attr(&mut self, id: ObjectId, name: &str) {
        if let Some(o) = self.object_mut(id) {
            o.attrs.0.retain(|(n, _)| **n != *name);
        }
    }

    /// The first value of an attribute slot, if present.
    pub fn attr(&self, id: ObjectId, name: &str) -> Option<&Value> {
        self.attr_all(id, name).first()
    }

    /// All values of an attribute slot (empty if unset).
    pub fn attr_all(&self, id: ObjectId, name: &str) -> &[Value] {
        self.object(id)
            .map_or(&[], |o| o.attrs.get(name).unwrap_or_default())
    }

    /// String shorthand: the attribute's first value, as `&str`.
    pub fn attr_str(&self, id: ObjectId, name: &str) -> Option<&str> {
        self.attr(id, name).and_then(Value::as_str)
    }

    /// Integer shorthand: the attribute's first value, as `i64`.
    pub fn attr_int(&self, id: ObjectId, name: &str) -> Option<i64> {
        self.attr(id, name).and_then(Value::as_int)
    }

    /// Float shorthand (integers widen): the attribute's first value.
    pub fn attr_float(&self, id: ObjectId, name: &str) -> Option<f64> {
        self.attr(id, name).and_then(Value::as_float)
    }

    /// Boolean shorthand: the attribute's first value, as `bool`.
    pub fn attr_bool(&self, id: ObjectId, name: &str) -> Option<bool> {
        self.attr(id, name).and_then(Value::as_bool)
    }

    /// Appends a target to a reference slot (duplicates are kept; model
    /// semantics treat reference slots as ordered lists, like EMF `EList`s).
    pub fn add_ref(&mut self, id: ObjectId, name: impl Into<Name>, target: ObjectId) {
        if let Some(o) = self.object_mut(id) {
            match o.refs.entry(name.into()) {
                Slot::Many(targets) if !targets.is_empty() => targets.push(target),
                slot => *slot = slot.as_slice().iter().copied().chain([target]).collect(),
            }
        }
    }

    /// Removes the first occurrence of a target from a reference slot.
    pub fn remove_ref(&mut self, id: ObjectId, name: &str, target: ObjectId) {
        let Some(o) = self.object_mut(id) else { return };
        if let Ok(i) = o.refs.find(name) {
            let mut found = false;
            o.refs.0[i].1.retain(|t| {
                let first = !found && *t == target;
                found |= first;
                !first
            });
        }
    }

    /// Replaces the entire contents of a reference slot.
    pub fn set_refs(
        &mut self,
        id: ObjectId,
        name: impl Into<Name>,
        targets: impl IntoIterator<Item = ObjectId>,
    ) {
        if let Some(o) = self.object_mut(id) {
            *o.refs.entry(name.into()) = targets.into_iter().collect();
        }
    }

    /// Removes a reference slot entirely.
    pub(crate) fn unset_refs(&mut self, id: ObjectId, name: &str) {
        if let Some(o) = self.object_mut(id) {
            o.refs.0.retain(|(n, _)| **n != *name);
        }
    }

    /// All targets of a reference slot (empty if unset).
    pub fn refs(&self, id: ObjectId, name: &str) -> &[ObjectId] {
        self.object(id)
            .map_or(&[], |o| o.refs.get(name).unwrap_or_default())
    }

    /// The first target of a reference slot, if any.
    pub fn ref_one(&self, id: ObjectId, name: &str) -> Option<ObjectId> {
        self.refs(id, name).first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metamodel::{DataType, MetamodelBuilder, Multiplicity};

    fn mm() -> Metamodel {
        MetamodelBuilder::new("m")
            .class("Node", |c| {
                c.attr_default("w", DataType::Int, Value::from(7))
                    .opt_attr("name", DataType::Str)
            })
            .class("Graph", |c| {
                c.contains("nodes", "Node", Multiplicity::MANY).reference(
                    "root",
                    "Node",
                    Multiplicity::OPT,
                )
            })
            .build()
            .unwrap()
    }

    #[test]
    fn create_set_get() {
        let mut m = Model::new("m");
        let a = m.create("Node");
        m.set_attr(a, "name", Value::from("a"));
        assert_eq!(m.attr_str(a, "name"), Some("a"));
        assert_eq!(m.attr_int(a, "name"), None);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn defaults_installed() {
        let mm = mm();
        let mut m = Model::new("m");
        let a = m.create_with_defaults("Node", &mm).unwrap();
        assert_eq!(m.attr_int(a, "w"), Some(7));
        assert_eq!(m.attr(a, "name"), None);
    }

    #[test]
    fn abstract_class_not_instantiable() {
        let mm = MetamodelBuilder::new("m")
            .class("A", |c| c.abstract_class())
            .build()
            .unwrap();
        let mut m = Model::new("m");
        assert!(m.create_with_defaults("A", &mm).is_err());
    }

    #[test]
    fn destroy_cleans_incoming_refs_and_containment() {
        let mm = mm();
        let mut m = Model::new("m");
        let g = m.create("Graph");
        let n1 = m.create("Node");
        let n2 = m.create("Node");
        m.add_ref(g, "nodes", n1);
        m.add_ref(g, "nodes", n2);
        m.add_ref(g, "root", n1);
        m.destroy(n1, Some(&mm)).unwrap();
        assert!(!m.contains(n1));
        assert_eq!(m.refs(g, "nodes"), &[n2]);
        assert_eq!(m.ref_one(g, "root"), None);
        // Destroying the container kills contained objects too.
        m.destroy(g, Some(&mm)).unwrap();
        assert!(!m.contains(n2));
        assert!(m.is_empty());
    }

    #[test]
    fn ids_never_reused() {
        let mut m = Model::new("m");
        let a = m.create("Node");
        m.destroy(a, None).unwrap();
        let b = m.create("Node");
        assert_ne!(a, b);
        assert!(m.object(a).is_err());
    }

    #[test]
    fn all_of_class_lists_instances() {
        let mut m = Model::new("m");
        let g = m.create("Graph");
        let n = m.create("Node");
        m.add_ref(g, "nodes", n);
        assert_eq!(m.all_of_class("Node"), vec![n]);
    }

    #[test]
    fn remove_ref_removes_first_occurrence_only() {
        let mut m = Model::new("m");
        let g = m.create("Graph");
        let n = m.create("Node");
        m.add_ref(g, "nodes", n);
        m.add_ref(g, "nodes", n);
        m.remove_ref(g, "nodes", n);
        assert_eq!(m.refs(g, "nodes").len(), 1);
    }

    #[test]
    fn multi_valued_attrs() {
        let mut m = Model::new("m");
        let a = m.create("Node");
        m.set_attr_many(a, "tags", vec![Value::from("x"), Value::from("y")]);
        assert_eq!(m.attr_all(a, "tags").len(), 2);
        m.unset_attr(a, "tags");
        assert!(m.attr_all(a, "tags").is_empty());
    }
}
