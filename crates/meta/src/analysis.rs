//! Static analysis core: diagnostics, key typing, footprints, conflicts.
//!
//! E10 verifies models *while they run*; this module is the other half —
//! the vocabulary for verifying them *before* they run. It is deliberately
//! domain-agnostic: it knows OCL-lite expressions, metamodels, and state
//! keys, but nothing about brokers or controllers. The Broker and
//! Controller layers build their own analysis passes on top of it and
//! merge everything into one [`AnalysisReport`]:
//!
//! * [`Diagnostic`] — one finding, with a severity, a stable machine
//!   `code`, and model-path provenance (`policy:directMode`,
//!   `handler:mediaOpen/action:openRelay`, ...).
//! * [`Footprint`] — the read/write state-key sets of one dispatchable
//!   unit; the table of footprints is the routing input for sharding.
//! * [`Conflict`] — a write-write or read-write edge between two units
//!   that may be dispatched concurrently.
//! * [`KeyType`] + [`check_expr`] — a soft type system over state keys:
//!   every `self.<key>` navigation is resolved against an inferred key
//!   universe and comparisons must be type-compatible.
//! * [`analyze_metamodel`] — checks every class invariant of a metamodel
//!   against its own declared attributes (the registry-level pass).

use crate::constraint::temporal::parse_property;
use crate::constraint::{BinOp, Expr, UnOp};
use crate::metamodel::DataType;
use crate::Metamodel;
use crate::Value;
use std::collections::{BTreeMap, BTreeSet};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not fatal — the model loads, the finding is logged.
    Warning,
    /// The model is refused at load time.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable code (`unresolved-key`, `type-mismatch`,
    /// `duplicate-name`, ...): what kind of defect this is.
    pub code: String,
    /// Model-path provenance: which object the finding is about, in
    /// `kind:name[/kind:name...]` form.
    pub path: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.path, self.message
        )
    }
}

/// The read/write state-key sets of one dispatchable unit (an action, a
/// change plan, a brownout transition, a procedure).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Keys the unit may read (guard/condition navigations).
    pub reads: BTreeSet<String>,
    /// Keys the unit may write (state effects, plan `set` steps, ...).
    pub writes: BTreeSet<String>,
}

impl Footprint {
    /// Union with another footprint.
    pub fn absorb(&mut self, other: &Footprint) {
        self.reads.extend(other.reads.iter().cloned());
        self.writes.extend(other.writes.iter().cloned());
    }
}

/// The flavor of a conflict edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConflictKind {
    /// Both units write the key.
    WriteWrite,
    /// One unit reads what the other writes.
    ReadWrite,
}

impl std::fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConflictKind::WriteWrite => write!(f, "write-write"),
            ConflictKind::ReadWrite => write!(f, "read-write"),
        }
    }
}

/// One edge of the pairwise conflict graph: two concurrently-dispatchable
/// units touch the same state key incompatibly.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Conflict {
    /// First unit (footprint-table name).
    pub a: String,
    /// Second unit.
    pub b: String,
    /// The contested state key.
    pub key: String,
    /// Write-write or read-write.
    pub kind: ConflictKind,
}

/// The product of a static analysis run: diagnostics plus the footprint
/// and conflict tables (which are data, not findings — a conflict edge is
/// only a defect if the domain says so).
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// All findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-unit read/write sets, keyed by unit name.
    pub footprints: BTreeMap<String, Footprint>,
    /// Pairwise conflict edges between concurrently-dispatchable units.
    pub conflicts: Vec<Conflict>,
}

impl AnalysisReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an error-level diagnostic.
    pub fn error(&mut self, code: &str, path: &str, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            severity: Severity::Error,
            code: code.to_owned(),
            path: path.to_owned(),
            message: message.into(),
        });
    }

    /// Records a warning-level diagnostic.
    pub fn warning(&mut self, code: &str, path: &str, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            severity: Severity::Warning,
            code: code.to_owned(),
            path: path.to_owned(),
            message: message.into(),
        });
    }

    /// The error-level diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning-level diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// `true` when no error-level diagnostic was recorded.
    pub fn is_accepted(&self) -> bool {
        self.errors().next().is_none()
    }

    /// `true` when nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Absorbs another report (diagnostics appended, footprints merged by
    /// name, conflicts appended).
    pub fn merge(&mut self, other: AnalysisReport) {
        self.diagnostics.extend(other.diagnostics);
        for (name, fp) in other.footprints {
            self.footprints.entry(name).or_default().absorb(&fp);
        }
        self.conflicts.extend(other.conflicts);
    }

    /// Computes the conflict edges between two named units and appends
    /// them. Keys in `ignore` (engine-serialized bookkeeping) never
    /// conflict. Call once per *concurrently dispatchable* pair — the
    /// caller knows the dispatch semantics, this report does not.
    pub fn conflict_edges(&mut self, a: &str, b: &str, ignore: &dyn Fn(&str) -> bool) {
        let (Some(fa), Some(fb)) = (self.footprints.get(a), self.footprints.get(b)) else {
            return;
        };
        let mut edges = Vec::new();
        for k in fa.writes.intersection(&fb.writes) {
            if !ignore(k) {
                edges.push(Conflict {
                    a: a.to_owned(),
                    b: b.to_owned(),
                    key: k.clone(),
                    kind: ConflictKind::WriteWrite,
                });
            }
        }
        for k in fa.reads.intersection(&fb.writes) {
            if !ignore(k) && !fa.writes.contains(k) {
                edges.push(Conflict {
                    a: a.to_owned(),
                    b: b.to_owned(),
                    key: k.clone(),
                    kind: ConflictKind::ReadWrite,
                });
            }
        }
        for k in fb.reads.intersection(&fa.writes) {
            if !ignore(k) && !fb.writes.contains(k) {
                edges.push(Conflict {
                    a: b.to_owned(),
                    b: a.to_owned(),
                    key: k.clone(),
                    kind: ConflictKind::ReadWrite,
                });
            }
        }
        self.conflicts.extend(edges);
    }
}

/// The inferred type of a state key or expression — a soft lattice: `Any`
/// is compatible with everything, `Int` and `Float` are mutually
/// compatible (numeric), everything else only with itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyType {
    /// Integer-valued.
    Int,
    /// Float-valued.
    Float,
    /// Boolean-valued.
    Bool,
    /// String-valued.
    Str,
    /// Unknown or dynamic.
    Any,
}

impl KeyType {
    /// Whether two types may legally meet in a comparison.
    pub fn compatible(self, other: KeyType) -> bool {
        use KeyType::*;
        match (self, other) {
            (Any, _) | (_, Any) => true,
            (Int, Float) | (Float, Int) => true,
            (a, b) => a == b,
        }
    }

    /// `true` for `Int`/`Float`.
    pub fn is_numeric(self) -> bool {
        matches!(self, KeyType::Int | KeyType::Float | KeyType::Any)
    }
}

impl From<&DataType> for KeyType {
    fn from(ty: &DataType) -> Self {
        match ty {
            DataType::Str => KeyType::Str,
            DataType::Int => KeyType::Int,
            DataType::Float => KeyType::Float,
            DataType::Bool => KeyType::Bool,
            DataType::Enum(_) => KeyType::Any,
        }
    }
}

impl std::fmt::Display for KeyType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            KeyType::Int => "Int",
            KeyType::Float => "Float",
            KeyType::Bool => "Bool",
            KeyType::Str => "Str",
            KeyType::Any => "Any",
        };
        write!(f, "{s}")
    }
}

/// Collects every `self.<name>` navigation of `e`, sorted and deduplicated
/// — the state keys the expression depends on.
/// [`crate::constraint::temporal::Property::watched_keys`] walks its
/// expressions with the same walker.
pub fn self_paths(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    collect_self_paths(e, &mut out);
    out.sort();
    out.dedup();
    out
}

/// Pushes every `self.<name>` navigation of `e` onto `out`, unsorted.
pub(crate) fn collect_self_paths(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Lit(_) | Expr::Null | Expr::Var(_) | Expr::EnumLit(_, _) => {}
        Expr::Prop(recv, name) => {
            if matches!(recv.as_ref(), Expr::Var(v) if v == "self") {
                out.push(name.clone());
            }
            collect_self_paths(recv, out);
        }
        Expr::Call(recv, _, args) => {
            collect_self_paths(recv, out);
            for a in args {
                collect_self_paths(a, out);
            }
        }
        Expr::CollOp { recv, body, .. } => {
            collect_self_paths(recv, out);
            if let Some(b) = body {
                collect_self_paths(b, out);
            }
        }
        Expr::Unary(_, e) => collect_self_paths(e, out),
        Expr::Binary(_, a, b) => {
            collect_self_paths(a, out);
            collect_self_paths(b, out);
        }
    }
}

/// Shallow type inference for an expression over a typed key universe.
pub fn infer_type(e: &Expr, keys: &BTreeMap<String, KeyType>) -> KeyType {
    match e {
        Expr::Lit(Value::Int(_)) => KeyType::Int,
        Expr::Lit(Value::Float(_)) => KeyType::Float,
        Expr::Lit(Value::Bool(_)) => KeyType::Bool,
        Expr::Lit(Value::Str(_)) => KeyType::Str,
        Expr::Lit(_) | Expr::Null | Expr::EnumLit(_, _) | Expr::Var(_) => KeyType::Any,
        Expr::Prop(recv, name) => {
            if matches!(recv.as_ref(), Expr::Var(v) if v == "self") {
                keys.get(name).copied().unwrap_or(KeyType::Any)
            } else {
                KeyType::Any
            }
        }
        Expr::Call(_, name, _) => match name.as_str() {
            "isKindOf" => KeyType::Bool,
            _ => KeyType::Any,
        },
        Expr::CollOp { op, .. } => match op.as_str() {
            "size" | "sum" => KeyType::Int,
            "isEmpty" | "notEmpty" | "includes" | "excludes" | "forAll" | "exists" => KeyType::Bool,
            _ => KeyType::Any,
        },
        Expr::Unary(UnOp::Not, _) => KeyType::Bool,
        Expr::Unary(UnOp::Neg, e) => {
            let t = infer_type(e, keys);
            if t.is_numeric() {
                t
            } else {
                KeyType::Any
            }
        }
        Expr::Binary(op, a, b) => match op {
            BinOp::Eq
            | BinOp::Neq
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::And
            | BinOp::Or
            | BinOp::Implies => KeyType::Bool,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let (ta, tb) = (infer_type(a, keys), infer_type(b, keys));
                match (ta, tb) {
                    (KeyType::Str, _) | (_, KeyType::Str) if *op == BinOp::Add => KeyType::Str,
                    (KeyType::Int, KeyType::Int) => KeyType::Int,
                    (KeyType::Float, KeyType::Float)
                    | (KeyType::Int, KeyType::Float)
                    | (KeyType::Float, KeyType::Int) => KeyType::Float,
                    _ => KeyType::Any,
                }
            }
        },
    }
}

/// Checks one expression against a typed key universe: every `self.<key>`
/// navigation must resolve (else an `unresolved-key` warning — state keys
/// are dynamic, so absence is suspicious but not fatal) and both sides of
/// a comparison must be type-compatible (else a `type-mismatch` error).
/// Comparisons against `null` are always legal (the presence-check idiom).
pub fn check_expr(
    e: &Expr,
    keys: &BTreeMap<String, KeyType>,
    path: &str,
    report: &mut AnalysisReport,
) {
    for key in self_paths(e) {
        if !keys.contains_key(&key) {
            report.warning(
                "unresolved-key",
                path,
                format!("`self.{key}` resolves to no known state key — never written by any action, plan, or the engine"),
            );
        }
    }
    check_comparisons(e, keys, path, report);
}

fn check_comparisons(
    e: &Expr,
    keys: &BTreeMap<String, KeyType>,
    path: &str,
    report: &mut AnalysisReport,
) {
    match e {
        Expr::Binary(op, a, b) => {
            if matches!(
                op,
                BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
            ) && !matches!(a.as_ref(), Expr::Null)
                && !matches!(b.as_ref(), Expr::Null)
            {
                let (ta, tb) = (infer_type(a, keys), infer_type(b, keys));
                if !ta.compatible(tb) {
                    report.error(
                        "type-mismatch",
                        path,
                        format!("comparison `{op}` between incompatible types {ta} and {tb}"),
                    );
                }
                if matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
                    && (ta == KeyType::Bool || tb == KeyType::Bool)
                {
                    report.error(
                        "type-mismatch",
                        path,
                        format!("ordering `{op}` applied to a Bool operand"),
                    );
                }
            }
            check_comparisons(a, keys, path, report);
            check_comparisons(b, keys, path, report);
        }
        Expr::Unary(_, e) => check_comparisons(e, keys, path, report),
        Expr::Prop(r, _) => check_comparisons(r, keys, path, report),
        Expr::Call(r, _, args) => {
            check_comparisons(r, keys, path, report);
            for a in args {
                check_comparisons(a, keys, path, report);
            }
        }
        Expr::CollOp { recv, body, .. } => {
            check_comparisons(recv, keys, path, report);
            if let Some(b) = body {
                check_comparisons(b, keys, path, report);
            }
        }
        Expr::Lit(_) | Expr::Null | Expr::Var(_) | Expr::EnumLit(_, _) => {}
    }
}

/// The registry-level pass: every class invariant of a metamodel must
/// parse as a temporal property, and every `self.<name>` navigation of it
/// must resolve to a declared attribute or reference of the class (these
/// are *declared*, so an unresolved path is an error, not a warning),
/// with type-compatible comparisons.
pub fn analyze_metamodel(mm: &Metamodel) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    for class in mm.classes() {
        let mut keys: BTreeMap<String, KeyType> = BTreeMap::new();
        for attr in mm.all_attributes(&class.name) {
            keys.insert(attr.name.clone(), KeyType::from(&attr.ty));
        }
        for r in mm.all_references(&class.name) {
            keys.insert(r.name.clone(), KeyType::Any);
        }
        for inv in mm.all_constraints(&class.name) {
            let path = format!("class:{}/invariant:{}", class.name, inv.name);
            let property = match parse_property(&inv.source) {
                Ok(p) => p,
                Err(e) => {
                    report.error("invariant-parse", &path, e.to_string());
                    continue;
                }
            };
            for key in property.watched_keys() {
                // `at-most-one` keys may be dotted paths; check the head.
                let head = key.split('.').next().unwrap_or(&key);
                if !keys.contains_key(head) {
                    report.error(
                        "unresolved-attr",
                        &path,
                        format!(
                            "`self.{key}` names no attribute or reference of `{}`",
                            class.name
                        ),
                    );
                }
            }
            use crate::constraint::temporal::Property;
            match &property {
                Property::Always(e) => check_comparisons(e, &keys, &path, &mut report),
                Property::NeverDuring { never, during } => {
                    check_comparisons(never, &keys, &path, &mut report);
                    check_comparisons(during, &keys, &path, &mut report);
                }
                Property::AtMostOnePer { .. } => {}
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::parse;
    use crate::metamodel::MetamodelBuilder;

    fn keys(pairs: &[(&str, KeyType)]) -> BTreeMap<String, KeyType> {
        pairs.iter().map(|(k, t)| (k.to_string(), *t)).collect()
    }

    #[test]
    fn self_paths_collects_navigations() {
        let e = parse("self.a > 0 and (self.b = null or self.a < self.c)").unwrap();
        assert_eq!(self_paths(&e), vec!["a", "b", "c"]);
    }

    #[test]
    fn unresolved_key_is_a_warning() {
        let e = parse("self.ghost > 0").unwrap();
        let mut r = AnalysisReport::new();
        check_expr(&e, &keys(&[("real", KeyType::Int)]), "policy:p", &mut r);
        assert_eq!(r.warnings().count(), 1);
        assert!(r.is_accepted());
        assert_eq!(r.diagnostics[0].code, "unresolved-key");
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let e = parse("self.streams = \"many\"").unwrap();
        let mut r = AnalysisReport::new();
        check_expr(&e, &keys(&[("streams", KeyType::Int)]), "policy:p", &mut r);
        assert!(!r.is_accepted());
        assert_eq!(
            r.errors().next().map(|d| d.code.as_str()),
            Some("type-mismatch")
        );
    }

    #[test]
    fn null_comparisons_are_always_legal() {
        let e = parse("self.streams <> null and self.streams > 0").unwrap();
        let mut r = AnalysisReport::new();
        check_expr(&e, &keys(&[("streams", KeyType::Int)]), "p", &mut r);
        assert!(r.is_clean());
    }

    #[test]
    fn numeric_types_are_mutually_compatible() {
        let e = parse("self.load > 0.5").unwrap();
        let mut r = AnalysisReport::new();
        check_expr(&e, &keys(&[("load", KeyType::Int)]), "p", &mut r);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn conflict_edges_classify_kinds() {
        let mut r = AnalysisReport::new();
        let mut a = Footprint::default();
        a.writes.insert("mode".into());
        a.reads.insert("level".into());
        let mut b = Footprint::default();
        b.writes.insert("mode".into());
        b.writes.insert("level".into());
        r.footprints.insert("A".into(), a);
        r.footprints.insert("B".into(), b);
        r.conflict_edges("A", "B", &|_| false);
        assert_eq!(r.conflicts.len(), 2);
        assert!(r
            .conflicts
            .iter()
            .any(|c| c.key == "mode" && c.kind == ConflictKind::WriteWrite));
        assert!(r
            .conflicts
            .iter()
            .any(|c| c.key == "level" && c.kind == ConflictKind::ReadWrite));
    }

    #[test]
    fn conflict_edges_respect_ignore() {
        let mut r = AnalysisReport::new();
        let mut a = Footprint::default();
        a.writes.insert("failures_x".into());
        r.footprints.insert("A".into(), a.clone());
        r.footprints.insert("B".into(), a);
        r.conflict_edges("A", "B", &|k| k.starts_with("failures_"));
        assert!(r.conflicts.is_empty());
    }

    #[test]
    fn metamodel_invariants_resolve_against_declared_attrs() {
        let mm = MetamodelBuilder::new("t")
            .class("Session", |c| {
                c.attr("name", DataType::Str)
                    .attr("streams", DataType::Int)
                    .invariant("has-name", "self.name <> \"\"")
                    .invariant("dangling", "self.ghost > 0")
                    .invariant("clash", "self.streams = \"many\"")
            })
            .build()
            .unwrap();
        let r = analyze_metamodel(&mm);
        assert_eq!(r.errors().count(), 2, "{:?}", r.diagnostics);
        let codes: Vec<&str> = r.errors().map(|d| d.code.as_str()).collect();
        assert!(codes.contains(&"unresolved-attr"));
        assert!(codes.contains(&"type-mismatch"));
    }

    #[test]
    fn merge_combines_reports() {
        let mut a = AnalysisReport::new();
        a.warning("w", "p", "warn");
        let mut b = AnalysisReport::new();
        b.error("e", "q", "err");
        b.footprints.insert("U".into(), Footprint::default());
        a.merge(b);
        assert_eq!(a.diagnostics.len(), 2);
        assert!(a.footprints.contains_key("U"));
        assert!(!a.is_accepted());
    }
}
