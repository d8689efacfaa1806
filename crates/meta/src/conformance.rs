//! Conformance checking: does a model conform to a metamodel?
//!
//! The check covers the structural rules of the metamodel — known,
//! non-abstract classes; declared, well-typed, multiplicity-respecting
//! slots; reference-target class compatibility; single containment; acyclic
//! containment — and all OCL-lite class invariants.

use crate::constraint::{eval_bool, EvalEnv, Val};
use crate::error::MetaError;
use crate::metamodel::{DataType, Metamodel};
use crate::model::{Model, ObjectId};
use crate::Result;

/// Checks `model` against `mm`, returning all violations at once.
pub fn check(model: &Model, mm: &Metamodel) -> Result<()> {
    let violations = violations(model, mm);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(MetaError::NonConformant(violations))
    }
}

/// Like [`check`], but returns the violation messages instead of an error.
pub fn violations(model: &Model, mm: &Metamodel) -> Vec<String> {
    let mut out = Vec::new();
    if model.metamodel_name() != mm.name() {
        out.push(format!(
            "model claims metamodel `{}` but was checked against `{}`",
            model.metamodel_name(),
            mm.name()
        ));
    }

    // Containment bookkeeping by object id: the object's first container
    // and how many containment references target it.
    let slots = model.id_bound();
    let mut containers: Vec<(Option<ObjectId>, usize)> = vec![(None, 0); slots];

    for (id, obj) in model.iter() {
        let class_name = obj.class();
        let Some(class) = mm.class(class_name) else {
            out.push(format!("{id}: unknown class `{class_name}`"));
            continue;
        };
        if class.is_abstract {
            out.push(format!("{id}: instantiates abstract class `{class_name}`"));
        }

        // Attributes, each slot against the class's features in slot-name
        // order: declared, typed, multiplicity.
        let attrs = mm.all_attributes(class_name);
        for (name, vals) in obj.attrs() {
            match attrs.clone().find(|a| *a.name == **name) {
                None => out.push(format!(
                    "{id} ({class_name}): undeclared attribute `{name}`"
                )),
                Some(a) => {
                    for v in vals {
                        if !v.conforms_to(&a.ty) {
                            out.push(format!(
                                "{id} ({class_name}): attribute `{name}` expects {}, got {}",
                                a.ty,
                                v.type_name()
                            ));
                        }
                        if let (crate::Value::Enum(ty, lit), DataType::Enum(ety)) = (v, &a.ty) {
                            if ty == ety
                                && !mm.enum_def(ety).is_some_and(|e| e.literals.contains(lit))
                            {
                                out.push(format!(
                                    "{id} ({class_name}): `{lit}` is not a literal of enum `{ety}`"
                                ));
                            }
                        }
                    }
                }
            }
        }
        for a in attrs {
            let n = obj.attr_slot(&a.name).map_or(0, <[_]>::len);
            // An unset slot with a declared default is implicitly populated
            // by that default (EMF semantics).
            if n == 0 && !a.default.is_empty() {
                continue;
            }
            if !a.multiplicity.admits(n) {
                out.push(format!(
                    "{id} ({class_name}): attribute `{}` has {n} value(s), multiplicity {}",
                    a.name, a.multiplicity
                ));
            }
        }

        // References: declared, live and class-compatible targets,
        // multiplicity, containment bookkeeping.
        let refs = mm.all_references(class_name);
        for (name, targets) in obj.refs() {
            match refs.clone().find(|r| *r.name == **name) {
                None => out.push(format!(
                    "{id} ({class_name}): undeclared reference `{name}`"
                )),
                Some(r) => {
                    for t in targets {
                        match model.object(*t) {
                            Err(_) => out.push(format!(
                                "{id} ({class_name}): reference `{name}` targets dead object {t}"
                            )),
                            Ok(to) => {
                                if !mm.is_subclass_of(to.class(), &r.target) {
                                    out.push(format!(
                                        "{id} ({class_name}): reference `{name}` expects `{}`, got `{}` ({t})",
                                        r.target,
                                        to.class()
                                    ));
                                }
                                if r.containment {
                                    let (first, n) = &mut containers[t.index() as usize];
                                    first.get_or_insert(id);
                                    *n += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        for r in refs {
            let n = obj.ref_slot(&r.name).map_or(0, <[_]>::len);
            if !r.multiplicity.admits(n) {
                out.push(format!(
                    "{id} ({class_name}): reference `{}` has {n} target(s), multiplicity {}",
                    r.name, r.multiplicity
                ));
            }
        }
    }

    // Single containment (every contained object is live).
    for (id, _) in model.iter() {
        let n = containers[id.index() as usize].1;
        if n > 1 {
            out.push(format!(
                "{id}: contained by {n} objects (must be at most 1)"
            ));
        }
    }

    // Acyclic containment. Without a cycle, a walk up first containers
    // visits each id at most once, so one that takes more steps than
    // there are ids has entered a cycle.
    for (id, _) in model.iter() {
        let mut cur = id;
        let cyclic = (0..=slots).all(|_| match containers[cur.index() as usize].0 {
            Some(parent) => {
                cur = parent;
                true
            }
            None => false,
        });
        if cyclic {
            out.push(format!("{id}: containment cycle detected"));
        }
    }

    // Class invariants (only for structurally-known classes), with `self`
    // rebound per object in one environment.
    let mut env = EvalEnv::new(model, mm);
    for (id, obj) in model.iter() {
        let mut invariants = mm.all_constraints(obj.class()).peekable();
        if invariants.peek().is_none() {
            continue;
        }
        env.bind("self", Val::Obj(id));
        for c in invariants {
            match eval_bool(&c.expr, &env) {
                Ok(true) => {}
                Ok(false) => out.push(format!(
                    "{id} ({}): invariant `{}` violated: {}",
                    obj.class(),
                    c.name,
                    c.source
                )),
                Err(e) => out.push(format!(
                    "{id} ({}): invariant `{}` failed to evaluate: {e}",
                    obj.class(),
                    c.name
                )),
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metamodel::{DataType, MetamodelBuilder, Multiplicity};
    use crate::Value;

    fn mm() -> Metamodel {
        MetamodelBuilder::new("m")
            .enumeration("Color", ["Red", "Blue"])
            .class("Node", |c| {
                c.attr("name", DataType::Str)
                    .opt_attr("color", DataType::Enum("Color".into()))
                    .invariant("named", "self.name <> null and self.name <> \"\"")
            })
            .class("Graph", |c| {
                c.contains("nodes", "Node", Multiplicity::SOME).reference(
                    "root",
                    "Node",
                    Multiplicity::OPT,
                )
            })
            .build()
            .unwrap()
    }

    fn valid_model() -> Model {
        let mut m = Model::new("m");
        let g = m.create("Graph");
        let n = m.create("Node");
        m.set_attr(n, "name", Value::from("n1"));
        m.add_ref(g, "nodes", n);
        m
    }

    #[test]
    fn containment_violations_are_listed_in_order() {
        let mm = MetamodelBuilder::new("m")
            .class("Box", |c| c.contains("kids", "Box", Multiplicity::MANY))
            .build()
            .unwrap();
        let mut m = Model::new("m");
        let [a, b, c, d, e, f] = [(); 6].map(|_| m.create("Box"));
        // A 2-cycle, an object contained by one of its members, and an
        // object with two containers.
        m.set_refs(a, "kids", vec![b, c]);
        m.set_refs(b, "kids", vec![a]);
        m.set_refs(d, "kids", vec![f]);
        m.set_refs(e, "kids", vec![f]);
        assert_eq!(
            violations(&m, &mm),
            [
                "#5: contained by 2 objects (must be at most 1)",
                "#0: containment cycle detected",
                "#1: containment cycle detected",
                "#2: containment cycle detected",
            ]
        );
    }

    #[test]
    fn valid_model_passes() {
        assert!(check(&valid_model(), &mm()).is_ok());
    }

    #[test]
    fn wrong_metamodel_name() {
        let m = Model::new("other");
        let v = violations(&m, &mm());
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("claims metamodel"));
    }

    #[test]
    fn unknown_class_reported() {
        let mut m = valid_model();
        m.create("Bogus");
        assert!(violations(&m, &mm())
            .iter()
            .any(|v| v.contains("unknown class")));
    }

    #[test]
    fn missing_mandatory_attr() {
        let mut m = valid_model();
        let n2 = m.create("Node");
        let g = m.all_of_class("Graph")[0];
        m.add_ref(g, "nodes", n2);
        let v = violations(&m, &mm());
        assert!(v
            .iter()
            .any(|v| v.contains("attribute `name` has 0 value(s)")));
    }

    #[test]
    fn wrong_attr_type() {
        let mut m = valid_model();
        let n = m.all_of_class("Node")[0];
        m.set_attr(n, "name", Value::from(3));
        assert!(violations(&m, &mm())
            .iter()
            .any(|v| v.contains("expects Str")));
    }

    #[test]
    fn bad_enum_literal() {
        let mut m = valid_model();
        let n = m.all_of_class("Node")[0];
        m.set_attr(n, "color", Value::enumeration("Color", "Green"));
        assert!(violations(&m, &mm())
            .iter()
            .any(|v| v.contains("not a literal")));
    }

    #[test]
    fn undeclared_slots() {
        let mut m = valid_model();
        let n = m.all_of_class("Node")[0];
        m.set_attr(n, "bogus", Value::from(1));
        let g = m.all_of_class("Graph")[0];
        m.add_ref(g, "bogusref", n);
        let v = violations(&m, &mm());
        assert!(v.iter().any(|v| v.contains("undeclared attribute")));
        assert!(v.iter().any(|v| v.contains("undeclared reference")));
    }

    #[test]
    fn reference_target_class_mismatch() {
        let mut m = valid_model();
        let g = m.all_of_class("Graph")[0];
        m.add_ref(g, "root", g);
        assert!(violations(&m, &mm())
            .iter()
            .any(|v| v.contains("expects `Node`")));
    }

    #[test]
    fn multiplicity_lower_bound_on_refs() {
        let mut m = Model::new("m");
        m.create("Graph");
        let v = violations(&m, &mm());
        assert!(v
            .iter()
            .any(|v| v.contains("reference `nodes` has 0 target(s)")));
    }

    #[test]
    fn double_containment_detected() {
        let mut m = valid_model();
        let n = m.all_of_class("Node")[0];
        let g2 = m.create("Graph");
        m.add_ref(g2, "nodes", n);
        assert!(violations(&m, &mm())
            .iter()
            .any(|v| v.contains("contained by 2")));
    }

    #[test]
    fn containment_cycle_detected() {
        let mm = MetamodelBuilder::new("m")
            .class("Box", |c| c.contains("inner", "Box", Multiplicity::MANY))
            .build()
            .unwrap();
        let mut m = Model::new("m");
        let a = m.create("Box");
        let b = m.create("Box");
        m.add_ref(a, "inner", b);
        m.add_ref(b, "inner", a);
        assert!(violations(&m, &mm)
            .iter()
            .any(|v| v.contains("containment cycle")));
    }

    #[test]
    fn invariant_violation_reported() {
        let mut m = valid_model();
        let n = m.all_of_class("Node")[0];
        m.set_attr(n, "name", Value::from(""));
        assert!(violations(&m, &mm())
            .iter()
            .any(|v| v.contains("invariant `named` violated")));
    }

    #[test]
    fn dead_reference_target() {
        let mut m = valid_model();
        let g = m.all_of_class("Graph")[0];
        let n2 = m.create("Node");
        m.set_attr(n2, "name", Value::from("x"));
        m.add_ref(g, "root", n2);
        // Bypass destroy()'s cleanup by rebuilding the ref afterwards.
        m.destroy(n2, None).unwrap();
        m.add_ref(g, "root", n2);
        assert!(violations(&m, &mm())
            .iter()
            .any(|v| v.contains("dead object")));
    }
}
