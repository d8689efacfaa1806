//! Metadata: the template parameters extracted from middleware-model
//! objects.
//!
//! When the component factory instantiates a code template, it passes the
//! template a [`Metadata`] bag holding the attributes of the middleware
//! model object that requested the component — this is how "code templates
//! are parameterized with metadata from the middleware model" (§V-A).

use crate::{Result, RuntimeError};
use mddsm_meta::model::{Model, ObjectId};
use mddsm_meta::Value;
use std::collections::BTreeMap;

/// An ordered bag of named values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metadata {
    values: BTreeMap<String, Vec<Value>>,
}

impl Metadata {
    /// Creates an empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts metadata from a model object: every attribute slot becomes
    /// an entry. The object's class is stored under the reserved key
    /// `__class`.
    pub fn from_object(model: &Model, id: ObjectId) -> Result<Self> {
        let obj = model.object(id)?;
        let mut values: BTreeMap<String, Vec<Value>> = obj
            .attrs()
            .map(|(name, vals)| (name.to_string(), vals.to_vec()))
            .collect();
        values.insert("__class".into(), vec![Value::Str(obj.class().to_string())]);
        Ok(Metadata { values })
    }

    /// Sets a single value.
    pub fn set(&mut self, key: impl Into<String>, value: Value) -> &mut Self {
        self.values.insert(key.into(), vec![value]);
        self
    }

    /// Builder-style [`Metadata::set`].
    pub fn with(mut self, key: impl Into<String>, value: Value) -> Self {
        self.set(key, value);
        self
    }

    /// The first value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.values.get(key).and_then(|v| v.first())
    }

    /// String accessor.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// Integer accessor.
    pub fn int(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Value::as_int)
    }

    /// String accessor that errors when absent — for mandatory template
    /// parameters.
    pub fn require_str(&self, key: &str) -> Result<&str> {
        self.str(key)
            .ok_or_else(|| RuntimeError::BadMetadata(format!("missing required key `{key}`")))
    }

    /// The keys present, sorted.
    pub fn keys(&self) -> Vec<&str> {
        self.values.keys().map(String::as_str).collect()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_builders() {
        let md = Metadata::new()
            .with("name", Value::from("broker"))
            .with("threads", Value::from(4))
            .with("verbose", Value::from(true))
            .with("rate", Value::from(1.5));
        assert_eq!(md.str("name"), Some("broker"));
        assert_eq!(md.int("threads"), Some(4));
        assert_eq!(md.str("missing"), None);
        assert_eq!(md.len(), 4);
        assert!(!md.is_empty());
    }

    #[test]
    fn require_reports_key() {
        let md = Metadata::new();
        let e = md.require_str("queueSize").unwrap_err();
        assert!(e.to_string().contains("queueSize"));
    }

    #[test]
    fn from_object_includes_class() {
        let mut m = Model::new("mm");
        let o = m.create("Manager");
        m.set_attr(o, "name", Value::from("main"));
        m.set_attr_many(o, "topics", vec![Value::from("a"), Value::from("b")]);
        let md = Metadata::from_object(&m, o).unwrap();
        assert_eq!(md.str("__class"), Some("Manager"));
        assert_eq!(md.str("name"), Some("main"));
        assert_eq!(md.keys(), vec!["__class", "name", "topics"]);
        assert_eq!(md.str("topics"), Some("a"));
    }

    #[test]
    fn from_dead_object_errors() {
        let mut m = Model::new("mm");
        let o = m.create("X");
        m.destroy(o, None).unwrap();
        assert!(Metadata::from_object(&m, o).is_err());
    }
}
