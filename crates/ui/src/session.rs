//! Typed model-editing sessions: the generated-editor analogue.

use crate::{Result, UiError};
use mddsm_meta::conformance;
use mddsm_meta::metamodel::{DataType, Metamodel};
use mddsm_meta::model::{Model, ObjectId};
use mddsm_meta::Value;
use std::sync::Arc;

/// Severity of a validation diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Blocks submission.
    Error,
    /// Informational.
    Warning,
}

/// One validation diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
}

/// An editing session over one application model.
///
/// Edits are typed against the DSML metamodel: slot names must be declared
/// and textual values are converted to the declared data type, mirroring
/// what an EMF-generated form editor enforces. Every mutating operation
/// pushes an undo snapshot.
#[derive(Debug, Clone)]
pub struct EditingSession {
    metamodel: Arc<Metamodel>,
    model: Model,
    undo: Vec<Model>,
}

impl EditingSession {
    /// Starts with an empty model.
    pub fn new(metamodel: Arc<Metamodel>) -> Self {
        let model = Model::new(metamodel.name());
        EditingSession {
            metamodel,
            model,
            undo: Vec::new(),
        }
    }

    /// The current model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The DSML metamodel.
    pub fn metamodel(&self) -> &Metamodel {
        &self.metamodel
    }

    fn checkpoint(&mut self) {
        self.undo.push(self.model.clone());
        // Bound the history; editors don't need unbounded undo here.
        if self.undo.len() > 256 {
            self.undo.remove(0);
        }
    }

    /// Undoes the last mutating operation; returns `false` when there is
    /// nothing to undo.
    pub fn undo(&mut self) -> bool {
        match self.undo.pop() {
            Some(m) => {
                self.model = m;
                true
            }
            None => false,
        }
    }

    /// Creates an element of a (non-abstract, declared) class, installing
    /// attribute defaults.
    pub fn create(&mut self, class: &str) -> Result<ObjectId> {
        self.metamodel
            .class(class)
            .ok_or_else(|| UiError::BadEdit(format!("unknown class `{class}`")))?;
        self.checkpoint();
        let id = self
            .model
            .create_with_defaults(class, &self.metamodel)
            .map_err(|e| UiError::BadEdit(e.to_string()))?;
        Ok(id)
    }

    /// Deletes an element (cleaning references, cascading containment).
    pub fn delete(&mut self, id: ObjectId) -> Result<()> {
        self.checkpoint();
        self.model
            .destroy(id, Some(&self.metamodel))
            .map_err(|e| UiError::BadEdit(e.to_string()))
    }

    /// Sets an attribute from text, converting to the declared type.
    pub fn set(&mut self, id: ObjectId, slot: &str, text: &str) -> Result<()> {
        let obj = self
            .model
            .object(id)
            .map_err(|e| UiError::BadEdit(e.to_string()))?;
        let attr = self.metamodel.attribute(obj.class(), slot).ok_or_else(|| {
            UiError::BadEdit(format!("class `{}` has no attribute `{slot}`", obj.class()))
        })?;
        let value = convert(text, &attr.ty, slot)?;
        self.checkpoint();
        self.model.set_attr(id, slot, value);
        Ok(())
    }

    /// Unsets an attribute slot.
    pub fn unset(&mut self, id: ObjectId, slot: &str) -> Result<()> {
        self.checkpoint();
        self.model.unset_attr(id, slot);
        Ok(())
    }

    /// Adds a reference target; the slot must be declared and the target
    /// class-compatible.
    pub fn link(&mut self, from: ObjectId, slot: &str, to: ObjectId) -> Result<()> {
        let obj = self
            .model
            .object(from)
            .map_err(|e| UiError::BadEdit(e.to_string()))?;
        let r = self.metamodel.reference(obj.class(), slot).ok_or_else(|| {
            UiError::BadEdit(format!("class `{}` has no reference `{slot}`", obj.class()))
        })?;
        let target = self
            .model
            .object(to)
            .map_err(|e| UiError::BadEdit(e.to_string()))?;
        if !self.metamodel.is_subclass_of(target.class(), &r.target) {
            return Err(UiError::BadEdit(format!(
                "reference `{slot}` expects `{}`, got `{}`",
                r.target,
                target.class()
            )));
        }
        self.checkpoint();
        self.model.add_ref(from, slot, to);
        Ok(())
    }

    /// Finds elements by class and (optionally) `name` attribute.
    pub fn find(&self, class: &str, name: Option<&str>) -> Vec<ObjectId> {
        self.model
            .all_of_class(class)
            .into_iter()
            .filter(|id| match name {
                None => true,
                Some(n) => self.model.attr_str(*id, "name") == Some(n),
            })
            .collect()
    }

    /// Validates the model: conformance violations become error
    /// diagnostics.
    pub fn validate(&self) -> Vec<Diagnostic> {
        conformance::violations(&self.model, &self.metamodel)
            .into_iter()
            .map(|message| Diagnostic {
                severity: Severity::Error,
                message,
            })
            .collect()
    }

    /// Submits the model: validation must be clean; returns a clone for
    /// the Synthesis layer.
    pub fn submit(&self) -> Result<Model> {
        let errors: Vec<String> = self
            .validate()
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.message)
            .collect();
        if errors.is_empty() {
            Ok(self.model.clone())
        } else {
            Err(UiError::InvalidModel(errors))
        }
    }
}

fn convert(text: &str, ty: &DataType, slot: &str) -> Result<Value> {
    let bad = || UiError::BadValue {
        slot: slot.to_owned(),
        text: text.to_owned(),
        expected: ty.to_string(),
    };
    match ty {
        DataType::Str => Ok(Value::from(text)),
        DataType::Int => text.parse::<i64>().map(Value::Int).map_err(|_| bad()),
        DataType::Float => text.parse::<f64>().map(Value::Float).map_err(|_| bad()),
        DataType::Bool => match text {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(bad()),
        },
        DataType::Enum(e) => Ok(Value::Enum(e.clone(), text.to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mddsm_meta::metamodel::{MetamodelBuilder, Multiplicity};

    fn mm() -> Arc<Metamodel> {
        Arc::new(
            MetamodelBuilder::new("toy")
                .enumeration("Color", ["Red", "Blue"])
                .class("Thing", |c| {
                    c.attr("name", DataType::Str)
                        .opt_attr("size", DataType::Int)
                        .opt_attr("rate", DataType::Float)
                        .opt_attr("on", DataType::Bool)
                        .opt_attr("color", DataType::Enum("Color".into()))
                })
                .class("Bag", |c| {
                    c.attr("name", DataType::Str)
                        .contains("things", "Thing", Multiplicity::MANY)
                })
                .build()
                .unwrap(),
        )
    }

    fn session() -> EditingSession {
        EditingSession::new(mm())
    }

    #[test]
    fn typed_editing() {
        let mut s = session();
        let t = s.create("Thing").unwrap();
        s.set(t, "name", "widget").unwrap();
        s.set(t, "size", "42").unwrap();
        s.set(t, "rate", "1.5").unwrap();
        s.set(t, "on", "true").unwrap();
        s.set(t, "color", "Red").unwrap();
        let m = s.submit().unwrap();
        assert_eq!(m.attr_int(t, "size"), Some(42));
        assert_eq!(m.attr_bool(t, "on"), Some(true));
    }

    #[test]
    fn conversion_failures_are_typed() {
        let mut s = session();
        let t = s.create("Thing").unwrap();
        assert!(matches!(
            s.set(t, "size", "many"),
            Err(UiError::BadValue { .. })
        ));
        assert!(matches!(
            s.set(t, "on", "yes"),
            Err(UiError::BadValue { .. })
        ));
        assert!(matches!(s.set(t, "bogus", "1"), Err(UiError::BadEdit(_))));
        // Bad enum literal converts but fails validation.
        s.set(t, "name", "x").unwrap();
        s.set(t, "color", "Green").unwrap();
        assert!(s.submit().is_err());
    }

    #[test]
    fn linking_is_class_checked() {
        let mut s = session();
        let b = s.create("Bag").unwrap();
        let t = s.create("Thing").unwrap();
        s.set(b, "name", "bag").unwrap();
        s.set(t, "name", "thing").unwrap();
        s.link(b, "things", t).unwrap();
        assert!(matches!(s.link(b, "things", b), Err(UiError::BadEdit(_))));
        assert!(matches!(s.link(t, "things", b), Err(UiError::BadEdit(_))));
        assert_eq!(s.model().refs(b, "things"), [t]);
    }

    #[test]
    fn cannot_create_unknown_or_abstract() {
        let mut s = session();
        assert!(matches!(s.create("Nope"), Err(UiError::BadEdit(_))));
    }

    #[test]
    fn submit_requires_valid_model() {
        let mut s = session();
        let t = s.create("Thing").unwrap();
        // Missing mandatory name.
        let e = s.submit().map(|_| ()).unwrap_err();
        assert!(matches!(e, UiError::InvalidModel(_)));
        s.set(t, "name", "ok").unwrap();
        assert!(s.submit().is_ok());
        assert_eq!(s.validate().len(), 0);
    }

    #[test]
    fn undo_restores_previous_states() {
        let mut s = session();
        let t = s.create("Thing").unwrap();
        s.set(t, "name", "first").unwrap();
        s.set(t, "name", "second").unwrap();
        assert_eq!(s.model().attr_str(t, "name"), Some("second"));
        assert!(s.undo());
        assert_eq!(s.model().attr_str(t, "name"), Some("first"));
        assert!(s.undo());
        assert_eq!(s.model().attr_str(t, "name"), None);
        assert!(s.undo()); // undo the create
        assert!(s.model().is_empty());
        assert!(!s.undo());
    }

    #[test]
    fn find_filters_by_class_and_name() {
        let mut s = session();
        let t = s.create("Thing").unwrap();
        s.set(t, "name", "widget").unwrap();
        assert_eq!(s.find("Thing", Some("widget")), vec![t]);
        assert_eq!(s.find("Thing", Some("other")), vec![]);
        assert_eq!(s.find("Thing", None).len(), 1);
    }

    #[test]
    fn delete_cascades_containment() {
        let mut s = session();
        let b = s.create("Bag").unwrap();
        let t = s.create("Thing").unwrap();
        s.set(b, "name", "bag").unwrap();
        s.set(t, "name", "thing").unwrap();
        s.link(b, "things", t).unwrap();
        s.delete(b).unwrap();
        assert!(s.model().is_empty());
    }
}
