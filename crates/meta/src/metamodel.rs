//! Metamodels: the domain-independent building blocks from which middleware
//! models (and application DSMLs) are defined.
//!
//! A [`Metamodel`] is a set of [`MetaClass`]es and [`EnumDef`]s. Classes own
//! typed [`Attribute`]s and [`Reference`]s (possibly containment), support
//! multiple inheritance, and may carry OCL-lite [`Constraint`]s that are
//! checked during model validation.

use crate::constraint::{self, Expr};
use crate::error::MetaError;
use crate::Result;
use std::collections::{BTreeMap, BTreeSet};

/// Primitive data types available to attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataType {
    /// UTF-8 string.
    Str,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// Boolean.
    Bool,
    /// Enumeration; the payload names an [`EnumDef`] of the metamodel.
    Enum(String),
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataType::Str => write!(f, "Str"),
            DataType::Int => write!(f, "Int"),
            DataType::Float => write!(f, "Float"),
            DataType::Bool => write!(f, "Bool"),
            DataType::Enum(e) => write!(f, "{e}"),
        }
    }
}

/// Allowed number of values of an attribute or reference slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Multiplicity {
    /// Minimum number of values (0 or 1 in practice).
    pub lower: u32,
    /// Maximum number of values; `None` means unbounded (`*`).
    pub upper: Option<u32>,
}

impl Multiplicity {
    /// Exactly one value (`1..1`), the default for attributes.
    pub const ONE: Multiplicity = Multiplicity {
        lower: 1,
        upper: Some(1),
    };
    /// Zero or one value (`0..1`).
    pub const OPT: Multiplicity = Multiplicity {
        lower: 0,
        upper: Some(1),
    };
    /// Any number of values (`0..*`), the default for references.
    pub const MANY: Multiplicity = Multiplicity {
        lower: 0,
        upper: None,
    };
    /// At least one value (`1..*`).
    pub const SOME: Multiplicity = Multiplicity {
        lower: 1,
        upper: None,
    };

    /// Returns `true` if a slot with `n` values satisfies this multiplicity.
    pub fn admits(&self, n: usize) -> bool {
        n >= self.lower as usize && self.upper.is_none_or(|u| n <= u as usize)
    }
}

impl std::fmt::Display for Multiplicity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.upper {
            Some(u) => write!(f, "{}..{}", self.lower, u),
            None => write!(f, "{}..*", self.lower),
        }
    }
}

/// A typed attribute of a metaclass.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute name, unique within the class (including inherited slots).
    pub name: String,
    /// Type of each value.
    pub ty: DataType,
    /// How many values the slot admits.
    pub multiplicity: Multiplicity,
    /// Default values installed when an object is created, if any.
    pub default: Vec<crate::Value>,
}

/// A reference from one metaclass to another.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Reference name, unique within the class (including inherited slots).
    pub name: String,
    /// Name of the target metaclass (subclasses are admitted).
    pub target: String,
    /// Whether referenced objects are *contained* (owned) by the source.
    pub containment: bool,
    /// How many targets the slot admits.
    pub multiplicity: Multiplicity,
}

/// A named invariant attached to a metaclass, written in the OCL-lite
/// constraint language and evaluated with `self` bound to each instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Constraint name, used in diagnostics.
    pub name: String,
    /// Original source text.
    pub source: String,
    /// Parsed expression.
    pub expr: Expr,
}

/// A class of the metamodel.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaClass {
    /// Class name, unique within the metamodel.
    pub name: String,
    /// Abstract classes cannot be instantiated.
    pub is_abstract: bool,
    /// Names of direct superclasses.
    pub supers: Vec<String>,
    /// Attributes declared directly on this class.
    pub attributes: Vec<Attribute>,
    /// References declared directly on this class.
    pub references: Vec<Reference>,
    /// Invariants declared directly on this class.
    pub constraints: Vec<Constraint>,
}

/// A named enumeration with its literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumDef {
    /// Enum name, unique within the metamodel.
    pub name: String,
    /// Literal names, in declaration order.
    pub literals: Vec<String>,
}

/// A complete, validated metamodel.
///
/// Construct through [`MetamodelBuilder`]; [`MetamodelBuilder::build`]
/// rejects ill-formed metamodels (duplicate names, unknown supertypes,
/// inheritance cycles, dangling reference targets, shadowed slots).
///
/// Inheritance is resolved once, at build: each class records its
/// supertypes linearized, so the feature lookups ([`Metamodel::attribute`],
/// [`Metamodel::all_attributes`], ...) borrow through that record and
/// allocate nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Metamodel {
    name: String,
    /// Classes in name order.
    classes: Vec<MetaClass>,
    /// Per class (same order), the indices of its supertypes,
    /// supertype-first with each class once; empty for a class without
    /// supertypes.
    lineage: Vec<Box<[u32]>>,
    enums: BTreeMap<String, EnumDef>,
}

impl Metamodel {
    /// An empty metamodel (no classes, no enums) under the given name.
    ///
    /// Trivially well-formed, so — unlike [`MetamodelBuilder::build`] —
    /// this constructor is infallible. Useful for runtime models whose
    /// attribute slots resolve through the constraint evaluator's raw-slot
    /// fallback rather than declared metaclasses.
    pub fn empty(name: impl Into<String>) -> Self {
        Metamodel {
            name: name.into(),
            classes: Vec::new(),
            lineage: Vec::new(),
            enums: BTreeMap::new(),
        }
    }

    /// The metamodel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up a class by name.
    pub fn class(&self, name: &str) -> Option<&MetaClass> {
        self.index_of(name).map(|i| &self.classes[i])
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.classes
            .binary_search_by(|c| c.name.as_str().cmp(name))
            .ok()
    }

    /// Looks up a class by name, returning an error when absent.
    pub fn class_or_err(&self, name: &str) -> Result<&MetaClass> {
        self.class(name)
            .ok_or_else(|| MetaError::unknown("class", name))
    }

    /// Iterates over all classes in name order.
    pub fn classes(&self) -> impl Iterator<Item = &MetaClass> {
        self.classes.iter()
    }

    /// Looks up an enumeration by name.
    pub fn enum_def(&self, name: &str) -> Option<&EnumDef> {
        self.enums.get(name)
    }

    /// Iterates over all enumerations in name order.
    pub fn enums(&self) -> impl Iterator<Item = &EnumDef> {
        self.enums.values()
    }

    /// Returns `true` if `sub` equals `sup` or transitively inherits from it.
    pub fn is_subclass_of(&self, sub: &str, sup: &str) -> bool {
        sub == sup || self.lineage(sub).any(|c| c.name == sup)
    }

    /// The class and all its supertypes, supertype-first, each once
    /// (a diamond's apex appears once); empty for an unknown class.
    fn lineage(&self, class: &str) -> impl Iterator<Item = &MetaClass> + Clone + '_ {
        let (supers, own) = match self.index_of(class) {
            Some(i) => (&*self.lineage[i], Some(&self.classes[i])),
            None => (&[][..], None),
        };
        supers
            .iter()
            .map(move |&s| &self.classes[s as usize])
            .chain(own)
    }

    /// All attributes of a class, including inherited ones, supertype-first.
    pub fn all_attributes(&self, class: &str) -> impl Iterator<Item = &Attribute> + Clone + '_ {
        self.lineage(class).flat_map(|c| &c.attributes)
    }

    /// All references of a class, including inherited ones, supertype-first.
    pub fn all_references(&self, class: &str) -> impl Iterator<Item = &Reference> + Clone + '_ {
        self.lineage(class).flat_map(|c| &c.references)
    }

    /// All constraints applying to a class, including inherited ones.
    pub fn all_constraints(&self, class: &str) -> impl Iterator<Item = &Constraint> + Clone + '_ {
        self.lineage(class).flat_map(|c| &c.constraints)
    }

    /// Finds the attribute `name` on `class`, searching supertypes.
    pub fn attribute(&self, class: &str, name: &str) -> Option<&Attribute> {
        self.all_attributes(class).find(|a| a.name == name)
    }

    /// Finds the reference `name` on `class`, searching supertypes.
    pub fn reference(&self, class: &str, name: &str) -> Option<&Reference> {
        self.all_references(class).find(|r| r.name == name)
    }

    /// Records each class's linearized supertypes: the post-order of a
    /// depth-first walk over the declared supertypes, visiting each class
    /// once, minus the class itself (visited last). The inheritance graph
    /// must already be known to be acyclic.
    fn linearize(&self) -> Vec<Box<[u32]>> {
        fn visit(mm: &Metamodel, i: usize, seen: &mut [bool], order: &mut Vec<u32>) {
            if std::mem::replace(&mut seen[i], true) {
                return;
            }
            for s in &mm.classes[i].supers {
                if let Some(j) = mm.index_of(s) {
                    visit(mm, j, seen, order);
                }
            }
            order.push(i as u32);
        }
        let mut seen = vec![false; self.classes.len()];
        let mut order = Vec::new();
        (0..self.classes.len())
            .map(|i| {
                if self.classes[i].supers.is_empty() {
                    return Box::default();
                }
                seen.fill(false);
                order.clear();
                visit(self, i, &mut seen, &mut order);
                order.pop();
                order.as_slice().into()
            })
            .collect()
    }
}

/// Fluent builder for [`Metamodel`]s.
///
/// ```
/// use mddsm_meta::metamodel::{DataType, MetamodelBuilder, Multiplicity};
/// let mm = MetamodelBuilder::new("net")
///     .enumeration("State", ["Up", "Down"])
///     .class("Node", |c| c.attr("name", DataType::Str))
///     .class("Link", |c| {
///         c.attr("state", DataType::Enum("State".into()))
///          .reference("ends", "Node", Multiplicity { lower: 2, upper: Some(2) })
///     })
///     .build()
///     .unwrap();
/// assert!(mm.class("Link").is_some());
/// ```
#[derive(Debug, Default)]
pub struct MetamodelBuilder {
    name: String,
    classes: Vec<MetaClass>,
    enums: Vec<EnumDef>,
}

/// Builder for a single class inside [`MetamodelBuilder::class`].
#[derive(Debug)]
pub struct ClassBuilder {
    class: MetaClass,
    error: Option<MetaError>,
}

impl ClassBuilder {
    /// Marks the class abstract (non-instantiable).
    pub fn abstract_class(mut self) -> Self {
        self.class.is_abstract = true;
        self
    }

    /// Adds a direct superclass.
    pub fn extends(mut self, sup: impl Into<String>) -> Self {
        self.class.supers.push(sup.into());
        self
    }

    /// Adds a mandatory single-valued attribute.
    pub fn attr(self, name: impl Into<String>, ty: DataType) -> Self {
        self.attr_full(name, ty, Multiplicity::ONE, Vec::new())
    }

    /// Adds an optional (`0..1`) attribute.
    pub fn opt_attr(self, name: impl Into<String>, ty: DataType) -> Self {
        self.attr_full(name, ty, Multiplicity::OPT, Vec::new())
    }

    /// Adds a single-valued attribute with a default value.
    pub fn attr_default(
        self,
        name: impl Into<String>,
        ty: DataType,
        default: crate::Value,
    ) -> Self {
        self.attr_full(name, ty, Multiplicity::ONE, vec![default])
    }

    /// Adds an attribute with explicit multiplicity and defaults.
    pub fn attr_full(
        mut self,
        name: impl Into<String>,
        ty: DataType,
        multiplicity: Multiplicity,
        default: Vec<crate::Value>,
    ) -> Self {
        self.class.attributes.push(Attribute {
            name: name.into(),
            ty,
            multiplicity,
            default,
        });
        self
    }

    /// Adds a non-containment reference.
    pub fn reference(
        mut self,
        name: impl Into<String>,
        target: impl Into<String>,
        multiplicity: Multiplicity,
    ) -> Self {
        self.class.references.push(Reference {
            name: name.into(),
            target: target.into(),
            containment: false,
            multiplicity,
        });
        self
    }

    /// Adds a containment reference (the source *owns* the targets).
    pub fn contains(
        mut self,
        name: impl Into<String>,
        target: impl Into<String>,
        multiplicity: Multiplicity,
    ) -> Self {
        self.class.references.push(Reference {
            name: name.into(),
            target: target.into(),
            containment: true,
            multiplicity,
        });
        self
    }

    /// Attaches a named OCL-lite invariant; parse errors surface at
    /// [`MetamodelBuilder::build`].
    pub fn invariant(mut self, name: impl Into<String>, source: &str) -> Self {
        match constraint::parse(source) {
            Ok(expr) => self.class.constraints.push(Constraint {
                name: name.into(),
                source: source.to_owned(),
                expr,
            }),
            Err(e) => {
                self.error
                    .get_or_insert(MetaError::IllFormedMetamodel(format!(
                        "constraint `{}` on class `{}` failed to parse: {e}",
                        name.into(),
                        self.class.name
                    )));
            }
        }
        self
    }
}

impl MetamodelBuilder {
    /// Starts a new metamodel with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        MetamodelBuilder {
            name: name.into(),
            classes: Vec::new(),
            enums: Vec::new(),
        }
    }

    /// Declares an enumeration.
    pub fn enumeration<I, S>(mut self, name: impl Into<String>, literals: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.enums.push(EnumDef {
            name: name.into(),
            literals: literals.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Declares a class, configured by the closure.
    pub fn class(
        mut self,
        name: impl Into<String>,
        f: impl FnOnce(ClassBuilder) -> ClassBuilder,
    ) -> Self {
        let cb = ClassBuilder {
            class: MetaClass {
                name: name.into(),
                is_abstract: false,
                supers: Vec::new(),
                attributes: Vec::new(),
                references: Vec::new(),
                constraints: Vec::new(),
            },
            error: None,
        };
        let cb = f(cb);
        if let Some(e) = cb.error {
            // Record the error as a poisoned class; surfaced in build().
            self.classes.push(MetaClass {
                name: format!("!error:{e}"),
                ..cb.class
            });
        } else {
            self.classes.push(cb.class);
        }
        self
    }

    /// Validates and produces the metamodel.
    pub fn build(self) -> Result<Metamodel> {
        let mut names = BTreeSet::new();
        for c in &self.classes {
            if let Some(msg) = c.name.strip_prefix("!error:") {
                return Err(MetaError::IllFormedMetamodel(msg.to_owned()));
            }
            if !names.insert(c.name.as_str()) {
                return Err(MetaError::IllFormedMetamodel(format!(
                    "duplicate class `{}`",
                    c.name
                )));
            }
        }
        let mut classes = self.classes;
        classes.sort_by(|a, b| a.name.cmp(&b.name));
        let mut enums = BTreeMap::new();
        for e in self.enums {
            if e.literals.is_empty() {
                return Err(MetaError::IllFormedMetamodel(format!(
                    "enum `{}` has no literals",
                    e.name
                )));
            }
            let uniq: BTreeSet<_> = e.literals.iter().collect();
            if uniq.len() != e.literals.len() {
                return Err(MetaError::IllFormedMetamodel(format!(
                    "enum `{}` has duplicate literals",
                    e.name
                )));
            }
            if enums.contains_key(&e.name) {
                return Err(MetaError::IllFormedMetamodel(format!(
                    "duplicate enum `{}`",
                    e.name
                )));
            }
            enums.insert(e.name.clone(), e);
        }
        let mut mm = Metamodel {
            name: self.name,
            classes,
            lineage: Vec::new(),
            enums,
        };
        mm.check_inheritance()?;
        mm.lineage = mm.linearize();
        mm.check_slots()?;
        Ok(mm)
    }
}

impl Metamodel {
    /// Supertypes exist and the inheritance graph is acyclic.
    fn check_inheritance(&self) -> Result<()> {
        for c in &self.classes {
            for s in &c.supers {
                if self.index_of(s).is_none() {
                    return Err(MetaError::IllFormedMetamodel(format!(
                        "class `{}` extends unknown class `{s}`",
                        c.name
                    )));
                }
            }
        }
        for c in &self.classes {
            let mut stack = vec![c.name.as_str()];
            let mut seen = BTreeSet::new();
            while let Some(n) = stack.pop() {
                if !seen.insert(n) {
                    continue;
                }
                let Some(cc) = self.class(n) else { continue };
                for s in &cc.supers {
                    if *s == c.name {
                        return Err(MetaError::IllFormedMetamodel(format!(
                            "inheritance cycle through `{}`",
                            c.name
                        )));
                    }
                    stack.push(s);
                }
            }
        }
        Ok(())
    }

    /// Slot names unique per class (including inherited); targets and
    /// enums exist; defaults conform.
    fn check_slots(&self) -> Result<()> {
        for c in &self.classes {
            let mut names = BTreeSet::new();
            for a in self.all_attributes(&c.name) {
                if !names.insert(a.name.clone()) {
                    return Err(MetaError::IllFormedMetamodel(format!(
                        "class `{}`: duplicate slot `{}`",
                        c.name, a.name
                    )));
                }
                if let DataType::Enum(e) = &a.ty {
                    if !self.enums.contains_key(e) {
                        return Err(MetaError::IllFormedMetamodel(format!(
                            "attribute `{}.{}` has unknown enum type `{e}`",
                            c.name, a.name
                        )));
                    }
                }
                for d in &a.default {
                    if !d.conforms_to(&a.ty) {
                        return Err(MetaError::IllFormedMetamodel(format!(
                            "attribute `{}.{}`: default {d} not of type {}",
                            c.name, a.name, a.ty
                        )));
                    }
                }
            }
            for r in self.all_references(&c.name) {
                if !names.insert(r.name.clone()) {
                    return Err(MetaError::IllFormedMetamodel(format!(
                        "class `{}`: duplicate slot `{}`",
                        c.name, r.name
                    )));
                }
                if self.index_of(&r.target).is_none() {
                    return Err(MetaError::IllFormedMetamodel(format!(
                        "reference `{}.{}` targets unknown class `{}`",
                        c.name, r.name, r.target
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Metamodel {
        MetamodelBuilder::new("m")
            .enumeration("Color", ["Red", "Blue"])
            .class("Named", |c| c.abstract_class().attr("name", DataType::Str))
            .class("Node", |c| {
                c.extends("Named")
                    .attr_default("weight", DataType::Int, crate::Value::from(1))
                    .opt_attr("color", DataType::Enum("Color".into()))
            })
            .class("Graph", |c| {
                c.extends("Named")
                    .contains("nodes", "Node", Multiplicity::MANY)
                    .reference("root", "Node", Multiplicity::OPT)
            })
            .build()
            .unwrap()
    }

    #[test]
    fn inheritance_resolution() {
        let mm = simple();
        let names: Vec<_> = mm.all_attributes("Node").map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["name", "weight", "color"]);
        assert!(mm.is_subclass_of("Node", "Named"));
        assert!(mm.is_subclass_of("Node", "Node"));
        assert!(!mm.is_subclass_of("Named", "Node"));
        assert!(mm.attribute("Graph", "name").is_some());
        assert!(mm.reference("Graph", "nodes").unwrap().containment);
    }

    #[test]
    fn multiplicity_admits() {
        assert!(Multiplicity::ONE.admits(1));
        assert!(!Multiplicity::ONE.admits(0));
        assert!(!Multiplicity::ONE.admits(2));
        assert!(Multiplicity::OPT.admits(0));
        assert!(Multiplicity::MANY.admits(100));
        assert!(!Multiplicity::SOME.admits(0));
        assert_eq!(Multiplicity::MANY.to_string(), "0..*");
        assert_eq!(Multiplicity::ONE.to_string(), "1..1");
    }

    #[test]
    fn rejects_duplicate_class() {
        let r = MetamodelBuilder::new("m")
            .class("A", |c| c)
            .class("A", |c| c)
            .build();
        assert!(matches!(r, Err(MetaError::IllFormedMetamodel(_))));
    }

    #[test]
    fn rejects_unknown_supertype() {
        let r = MetamodelBuilder::new("m")
            .class("A", |c| c.extends("B"))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn rejects_inheritance_cycle() {
        let r = MetamodelBuilder::new("m")
            .class("A", |c| c.extends("B"))
            .class("B", |c| c.extends("A"))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn rejects_dangling_reference_target() {
        let r = MetamodelBuilder::new("m")
            .class("A", |c| c.reference("x", "Nope", Multiplicity::MANY))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn rejects_unknown_enum_type() {
        let r = MetamodelBuilder::new("m")
            .class("A", |c| c.attr("x", DataType::Enum("Nope".into())))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn rejects_shadowed_slot() {
        let r = MetamodelBuilder::new("m")
            .class("A", |c| c.attr("x", DataType::Int))
            .class("B", |c| c.extends("A").attr("x", DataType::Str))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn rejects_bad_default() {
        let r = MetamodelBuilder::new("m")
            .class("A", |c| {
                c.attr_default("x", DataType::Int, crate::Value::from("no"))
            })
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn rejects_empty_enum_and_dup_literals() {
        assert!(MetamodelBuilder::new("m")
            .enumeration("E", Vec::<String>::new())
            .build()
            .is_err());
        assert!(MetamodelBuilder::new("m")
            .enumeration("E", ["A", "A"])
            .build()
            .is_err());
    }

    #[test]
    fn rejects_bad_invariant_syntax() {
        let r = MetamodelBuilder::new("m")
            .class("A", |c| c.invariant("inv", "self."))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn invariant_nesting_is_bounded() {
        use crate::constraint::MAX_NESTING;
        // Each shape nests `n` levels deep and, for an even `n`, holds on
        // an object with no `x` slot.
        let shapes: [fn(usize) -> String; 7] = [
            |n| format!("{}true{}", "(".repeat(n), ")".repeat(n)),
            |n| format!("{}true", "not ".repeat(n)),
            |n| format!("true{}", " and true".repeat(n)),
            |n| format!("0{} = {n}", " + 1".repeat(n)),
            |n| format!("{}1 <> 0", "- ".repeat(n)),
            |n| format!("{}true", "false implies ".repeat(n)),
            |n| format!("self{} = null", ".x".repeat(n)),
        ];
        let mut m = crate::model::Model::new("m");
        m.create("A");
        for shape in shapes {
            let build = |n: usize| {
                MetamodelBuilder::new("m")
                    .class("A", |c| c.invariant("deep", &shape(n)))
                    .build()
            };
            // At the bound the invariant parses and evaluates (on a
            // default-sized test thread).
            let mm = build(MAX_NESTING).unwrap();
            crate::conformance::check(&m, &mm).unwrap();
            // One level past it, the metamodel is refused.
            let err = build(MAX_NESTING + 1).unwrap_err();
            assert!(err.to_string().contains("nested deeper than"), "{err}");
        }
    }

    #[test]
    fn linearized_lookups_match_a_supertype_walk() {
        // The walk the lookups used before inheritance was resolved at
        // build: supertypes first, in declaration order, each class once.
        fn walk<'a>(
            mm: &'a Metamodel,
            class: &str,
            seen: &mut Vec<String>,
            out: &mut Vec<&'a str>,
        ) {
            if seen.iter().any(|s| s == class) {
                return;
            }
            seen.push(class.to_owned());
            if let Some(c) = mm.class(class) {
                for s in &c.supers {
                    walk(mm, s, seen, out);
                }
                out.push(&c.name);
            }
        }
        // A lattice with diamonds, repeated supertypes and classes
        // declared out of name order.
        let mm = MetamodelBuilder::new("m")
            .class("Z", |c| c.attr("z", DataType::Int).invariant("zi", "true"))
            .class("M", |c| c.extends("Z").attr("m", DataType::Int))
            .class("A", |c| {
                c.extends("Z").reference("a", "Z", Multiplicity::MANY)
            })
            .class("Q", |c| {
                c.extends("M").extends("A").attr("q", DataType::Int)
            })
            .class("B", |c| c.extends("A").extends("M").invariant("bi", "true"))
            .class("K", |c| {
                c.extends("B")
                    .extends("Q")
                    .extends("Z")
                    .attr("k", DataType::Int)
            })
            .build()
            .unwrap();
        for class in ["Z", "M", "A", "Q", "B", "K", "Unknown"] {
            let mut order = Vec::new();
            walk(&mm, class, &mut Vec::new(), &mut order);
            let expected = |f: fn(&MetaClass) -> Vec<&str>| -> Vec<&str> {
                order.iter().flat_map(|c| f(mm.class(c).unwrap())).collect()
            };
            assert_eq!(
                mm.all_attributes(class)
                    .map(|a| a.name.as_str())
                    .collect::<Vec<_>>(),
                expected(|c| c.attributes.iter().map(|a| a.name.as_str()).collect()),
                "{class}"
            );
            assert_eq!(
                mm.all_references(class)
                    .map(|r| r.name.as_str())
                    .collect::<Vec<_>>(),
                expected(|c| c.references.iter().map(|r| r.name.as_str()).collect()),
                "{class}"
            );
            assert_eq!(
                mm.all_constraints(class)
                    .map(|r| r.name.as_str())
                    .collect::<Vec<_>>(),
                expected(|c| c.constraints.iter().map(|r| r.name.as_str()).collect()),
                "{class}"
            );
            for sup in ["Z", "M", "A", "Q", "B", "K"] {
                assert_eq!(
                    mm.is_subclass_of(class, sup),
                    class == sup || order.contains(&sup),
                    "{class} <: {sup}"
                );
            }
        }
        assert_eq!(
            mm.all_attributes("K")
                .map(|a| a.name.as_str())
                .collect::<Vec<_>>(),
            ["z", "m", "q", "k"]
        );
    }

    #[test]
    fn diamond_inheritance_collects_once() {
        let mm = MetamodelBuilder::new("m")
            .class("Top", |c| c.attr("t", DataType::Int))
            .class("L", |c| c.extends("Top"))
            .class("R", |c| c.extends("Top"))
            .class("Bottom", |c| c.extends("L").extends("R"))
            .build()
            .unwrap();
        assert_eq!(mm.all_attributes("Bottom").count(), 1);
    }
}
