//! Model weaving: composing multiple concern models into one executable
//! model.
//!
//! Paper §IX lists as a research challenge that "an MD-DSM platform should
//! be capable of simultaneously executing (through a weaving step) multiple
//! related models that describe the different concerns of an application"
//! (aspect-oriented modeling). This module implements that weaving step:
//!
//! * objects are matched across concern models by [`ObjectKey`]
//!   (class + key attribute), like the model comparator;
//! * unmatched objects are unioned;
//! * matched objects merge slot-wise — disjoint slots union, identical
//!   values agree, and contradicting attribute values are reported as
//!   [`WeaveConflict`]s;
//! * reference slots union their target lists (duplicates collapsed).
//!
//! [`ObjectKey`]: crate::diff::ObjectKey

use crate::diff::{KeyIndex, ObjectKey};
use crate::error::MetaError;
use crate::model::{Model, ObjectId};
use crate::{Result, Value};
use std::collections::BTreeMap;

/// A contradiction between two concern models.
#[derive(Debug, Clone, PartialEq)]
pub struct WeaveConflict {
    /// The object both models define.
    pub key: ObjectKey,
    /// The attribute that disagrees.
    pub attr: String,
    /// Rendered value in the already-woven result.
    pub existing: String,
    /// Rendered value in the model being woven in.
    pub incoming: String,
}

impl std::fmt::Display for WeaveConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}.{}: `{}` vs `{}`",
            self.key, self.attr, self.existing, self.incoming
        )
    }
}

/// Weaves concern models into a single model.
///
/// All models must claim the same metamodel. Returns the woven model, or
/// the full list of conflicts when any attribute contradicts.
pub fn weave(models: &[Model]) -> std::result::Result<Model, Vec<WeaveConflict>> {
    let mut iter = models.iter();
    let Some(first) = iter.next() else {
        return Ok(Model::default());
    };
    let mut woven = first.clone();
    let mut conflicts = Vec::new();
    for model in iter {
        weave_into(&mut woven, model, &mut conflicts);
    }
    if conflicts.is_empty() {
        Ok(woven)
    } else {
        Err(conflicts)
    }
}

/// Like [`weave`] but with an error type suitable for `?` chains.
pub fn weave_or_err(models: &[Model]) -> Result<Model> {
    weave(models).map_err(|conflicts| {
        MetaError::ApplyFailed(format!(
            "weaving failed with {} conflict(s): {}",
            conflicts.len(),
            conflicts
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        ))
    })
}

fn weave_into(woven: &mut Model, incoming: &Model, conflicts: &mut Vec<WeaveConflict>) {
    let woven_keys = KeyIndex::new(woven);
    let incoming_keys = KeyIndex::new(incoming);
    let keyed = || {
        incoming
            .iter()
            .filter_map(|(id, obj)| Some((id, obj, incoming_keys.key(id)?)))
    };

    // First pass: create missing objects, remember the id mapping.
    let mut id_map: BTreeMap<ObjectId, ObjectId> = BTreeMap::new();
    for (in_id, obj, key) in keyed() {
        match woven_keys.owner(&key.0, &key.1) {
            Some(existing) => {
                id_map.insert(in_id, existing);
            }
            None => {
                let new_id = woven.create(obj.class().clone());
                for (attr, values) in obj.attrs() {
                    woven.set_attr_many(new_id, attr.clone(), values.iter().cloned());
                }
                id_map.insert(in_id, new_id);
            }
        }
    }

    // Second pass: merge attributes of matched objects and union refs.
    for (in_id, obj, key) in keyed() {
        let target = id_map[&in_id];
        if woven_keys.owner(&key.0, &key.1).is_some() {
            for (attr, values) in obj.attrs() {
                let existing = woven.attr_all(target, attr);
                if existing.is_empty() {
                    woven.set_attr_many(target, attr.clone(), values.iter().cloned());
                } else if existing != values {
                    conflicts.push(WeaveConflict {
                        key: key.into(),
                        attr: attr.to_string(),
                        existing: rendered(existing),
                        incoming: rendered(values),
                    });
                }
            }
        }
        for (slot, targets) in obj.refs() {
            for t in targets {
                let Some(mapped) = id_map.get(t) else {
                    continue;
                };
                if !woven.refs(target, slot).contains(mapped) {
                    woven.add_ref(target, slot.clone(), *mapped);
                }
            }
        }
    }
}

/// A slot's values, comma-joined.
fn rendered(values: &[Value]) -> String {
    let values: Vec<String> = values.iter().map(ToString::to_string).collect();
    values.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(m: &mut Model, class: &str, name: &str) -> ObjectId {
        let id = m.create(class);
        m.set_attr(id, "name", Value::from(name));
        id
    }

    #[test]
    fn weaving_empty_and_singleton() {
        assert!(weave(&[]).unwrap().is_empty());
        let mut m = Model::new("mm");
        named(&mut m, "A", "x");
        let w = weave(std::slice::from_ref(&m)).unwrap();
        assert_eq!(w, m);
    }

    #[test]
    fn disjoint_concerns_union() {
        let mut structural = Model::new("mm");
        named(&mut structural, "Node", "a");
        let mut behavioural = Model::new("mm");
        named(&mut behavioural, "Rule", "r");
        let w = weave(&[structural, behavioural]).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.all_of_class("Node").len(), 1);
        assert_eq!(w.all_of_class("Rule").len(), 1);
    }

    #[test]
    fn matched_objects_merge_slotwise() {
        // Concern 1 declares the node; concern 2 adds a QoS attribute to
        // the *same* node (matched by name).
        let mut base = Model::new("mm");
        let a = named(&mut base, "Node", "a");
        base.set_attr(a, "kind", Value::from("lamp"));
        let mut qos = Model::new("mm");
        let a2 = named(&mut qos, "Node", "a");
        qos.set_attr(a2, "priority", Value::from(7));
        let w = weave(&[base, qos]).unwrap();
        assert_eq!(w.len(), 1);
        let id = w.all_of_class("Node")[0];
        assert_eq!(w.attr_str(id, "kind"), Some("lamp"));
        assert_eq!(w.attr_int(id, "priority"), Some(7));
    }

    #[test]
    fn contradictions_are_reported_not_silently_overwritten() {
        let mut c1 = Model::new("mm");
        let a = named(&mut c1, "Node", "a");
        c1.set_attr(a, "power", Value::from(10));
        let mut c2 = Model::new("mm");
        let a2 = named(&mut c2, "Node", "a");
        c2.set_attr(a2, "power", Value::from(99));
        let conflicts = weave(&[c1.clone(), c2.clone()]).unwrap_err();
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0].attr, "power");
        assert!(conflicts[0].to_string().contains("10"));
        assert!(weave_or_err(&[c1, c2]).is_err());
    }

    #[test]
    fn references_union_across_concerns() {
        let mut topo = Model::new("mm");
        let g = named(&mut topo, "Graph", "g");
        let a = named(&mut topo, "Node", "a");
        topo.add_ref(g, "nodes", a);
        let mut extra = Model::new("mm");
        let g2 = named(&mut extra, "Graph", "g");
        let b = named(&mut extra, "Node", "b");
        let a2 = named(&mut extra, "Node", "a");
        extra.add_ref(g2, "nodes", b);
        extra.add_ref(g2, "nodes", a2); // already present in topo
        let w = weave(&[topo, extra]).unwrap();
        let g = w.all_of_class("Graph")[0];
        assert_eq!(w.refs(g, "nodes").len(), 2, "no duplicate edge for `a`");
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn three_way_weave_associates() {
        let mk = |n: &str| {
            let mut m = Model::new("mm");
            named(&mut m, "Node", n);
            m
        };
        let w = weave(&[mk("a"), mk("b"), mk("c")]).unwrap();
        assert_eq!(w.len(), 3);
    }
}
