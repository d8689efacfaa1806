//! Dynamic model instances — the analogue of EMF's dynamic `EObject`s.
//!
//! A [`Model`] is an arena of [`MObject`]s, each an instance of a metaclass,
//! manipulated reflectively through string-named slots. Models are the
//! universal currency of MD-DSM: middleware configurations, application
//! models, runtime models, and control scripts are all [`Model`]s.

use crate::error::MetaError;
use crate::metamodel::Metamodel;
use crate::{Result, Value};
use std::collections::BTreeMap;
use std::fmt;

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
    /// Name of the instantiated metaclass.
    pub class: String,
    /// Attribute slots; multi-valued slots hold several values in order.
    pub attrs: BTreeMap<String, Vec<Value>>,
    /// Reference slots; targets are ids within the same model.
    pub refs: BTreeMap<String, Vec<ObjectId>>,
}

/// A model: an arena of objects claimed to conform to a named metamodel.
///
/// The model itself is metamodel-agnostic (objects can be created and
/// mutated freely); [`crate::conformance::check`] verifies conformance on
/// demand, mirroring EMF's separation of construction and validation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Model {
    metamodel: String,
    objects: Vec<Option<MObject>>,
}

impl Model {
    /// Creates an empty model claiming conformance to `metamodel`.
    pub fn new(metamodel: impl Into<String>) -> Self {
        Model {
            metamodel: metamodel.into(),
            objects: Vec::new(),
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

    /// Creates an object of the given class and returns its id.
    pub fn create(&mut self, class: impl Into<String>) -> ObjectId {
        let id = ObjectId(self.objects.len() as u32);
        self.objects.push(Some(MObject {
            class: class.into(),
            attrs: BTreeMap::new(),
            refs: BTreeMap::new(),
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
                self.object_mut(id)?
                    .attrs
                    .insert(a.name.clone(), a.default.clone());
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
            for (slot, targets) in &obj.refs {
                let is_containment = mm
                    .reference(&obj.class, slot)
                    .map(|r| r.containment)
                    .unwrap_or(false);
                if is_containment {
                    for t in targets {
                        // Contained objects die with their container.
                        let _ = self.destroy(*t, Some(mm));
                    }
                }
            }
        }
        for o in self.objects.iter_mut().flatten() {
            for targets in o.refs.values_mut() {
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
    pub fn object_mut(&mut self, id: ObjectId) -> Result<&mut MObject> {
        self.objects
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or_else(|| MetaError::DanglingObject(id.to_string()))
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
            .filter(|(_, o)| o.class == class)
            .map(|(i, _)| i)
            .collect()
    }

    /// Sets a single-valued attribute, replacing previous values.
    pub fn set_attr(&mut self, id: ObjectId, name: impl Into<String>, value: Value) {
        if let Ok(o) = self.object_mut(id) {
            o.attrs.insert(name.into(), vec![value]);
        }
    }

    /// Sets a multi-valued attribute, replacing previous values.
    pub fn set_attr_many(&mut self, id: ObjectId, name: impl Into<String>, values: Vec<Value>) {
        if let Ok(o) = self.object_mut(id) {
            o.attrs.insert(name.into(), values);
        }
    }

    /// Removes an attribute slot entirely.
    pub fn unset_attr(&mut self, id: ObjectId, name: &str) {
        if let Ok(o) = self.object_mut(id) {
            o.attrs.remove(name);
        }
    }

    /// The first value of an attribute slot, if present.
    pub fn attr(&self, id: ObjectId, name: &str) -> Option<&Value> {
        self.object(id)
            .ok()
            .and_then(|o| o.attrs.get(name))
            .and_then(|v| v.first())
    }

    /// All values of an attribute slot (empty if unset).
    pub fn attr_all(&self, id: ObjectId, name: &str) -> &[Value] {
        self.object(id)
            .ok()
            .and_then(|o| o.attrs.get(name))
            .map_or(&[], Vec::as_slice)
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
    pub fn add_ref(&mut self, id: ObjectId, name: impl Into<String>, target: ObjectId) {
        if let Ok(o) = self.object_mut(id) {
            o.refs.entry(name.into()).or_default().push(target);
        }
    }

    /// Removes the first occurrence of a target from a reference slot.
    pub fn remove_ref(&mut self, id: ObjectId, name: &str, target: ObjectId) {
        if let Ok(o) = self.object_mut(id) {
            if let Some(v) = o.refs.get_mut(name) {
                if let Some(pos) = v.iter().position(|t| *t == target) {
                    v.remove(pos);
                }
            }
        }
    }

    /// Replaces the entire contents of a reference slot.
    pub fn set_refs(&mut self, id: ObjectId, name: impl Into<String>, targets: Vec<ObjectId>) {
        if let Ok(o) = self.object_mut(id) {
            o.refs.insert(name.into(), targets);
        }
    }

    /// All targets of a reference slot (empty if unset).
    pub fn refs(&self, id: ObjectId, name: &str) -> &[ObjectId] {
        self.object(id)
            .ok()
            .and_then(|o| o.refs.get(name))
            .map_or(&[], Vec::as_slice)
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
