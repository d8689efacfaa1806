//! Simulated resources and services — the "underlying resources" the
//! Broker layer orchestrates.
//!
//! Each resource implements [`SimResource`]: a named service with
//! string-typed operations. The [`ResourceHub`] registers resources,
//! records every invocation (the command trace compared by the
//! behavioural-equivalence experiment E1), charges a virtual-time cost per
//! invocation, and supports failure injection (unhealthy resources fail
//! after their configured timeout; degraded resources cost extra).

use crate::latency::LatencyModel;
use crate::rng::SimRng;
use crate::time::SimDuration;
use std::collections::BTreeMap;

/// Key-value arguments of an operation.
pub type Args = Vec<(String, String)>;

/// Result payload of an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Success, with named result values.
    Ok(BTreeMap<String, String>),
    /// Failure, with a reason.
    Failed(String),
}

impl Outcome {
    /// Success with no payload.
    pub fn ok() -> Self {
        Outcome::Ok(BTreeMap::new())
    }

    /// Success with a single named value.
    pub fn ok_with(key: &str, value: impl Into<String>) -> Self {
        let mut m = BTreeMap::new();
        m.insert(key.to_owned(), value.into());
        Outcome::Ok(m)
    }

    /// Returns `true` for [`Outcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok(_))
    }

    /// Looks up a payload value.
    pub fn get(&self, key: &str) -> Option<&str> {
        match self {
            Outcome::Ok(m) => m.get(key).map(String::as_str),
            Outcome::Failed(_) => None,
        }
    }
}

/// One recorded resource invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invocation {
    /// Monotonic sequence number within the hub.
    pub seq: u64,
    /// Resource name.
    pub resource: String,
    /// Operation name.
    pub op: String,
    /// Operation arguments.
    pub args: Args,
    /// Whether the invocation succeeded.
    pub ok: bool,
}

impl Invocation {
    /// Canonical one-line rendering, e.g. `media.open(codec=h264, peer=bob)`.
    pub fn render(&self) -> String {
        let args: Vec<String> = self.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}.{}({})", self.resource, self.op, args.join(", "))
    }
}

/// A simulated resource: a named service accepting string-typed operations.
pub trait SimResource: Send {
    /// Executes an operation against the resource's internal state.
    fn invoke(&mut self, op: &str, args: &Args) -> Outcome;
}

impl<F> SimResource for F
where
    F: FnMut(&str, &Args) -> Outcome + Send,
{
    fn invoke(&mut self, op: &str, args: &Args) -> Outcome {
        self(op, args)
    }
}

struct Entry {
    resource: Box<dyn SimResource>,
    latency: LatencyModel,
    timeout: SimDuration,
    healthy: bool,
    degradation: SimDuration,
}

/// Registry and invocation front-end for simulated resources.
pub struct ResourceHub {
    entries: BTreeMap<String, Entry>,
    log: Vec<Invocation>,
    rng: SimRng,
    seq: u64,
}

impl ResourceHub {
    /// Creates an empty hub with deterministic latency sampling.
    pub fn new(seed: u64) -> Self {
        ResourceHub {
            entries: BTreeMap::new(),
            log: Vec::new(),
            rng: SimRng::seed_from_u64(seed),
            seq: 0,
        }
    }

    /// Registers a resource with its per-invocation latency model and the
    /// timeout charged when the resource is unhealthy.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        latency: LatencyModel,
        timeout: SimDuration,
        resource: Box<dyn SimResource>,
    ) {
        self.entries.insert(
            name.into(),
            Entry {
                resource,
                latency,
                timeout,
                healthy: true,
                degradation: SimDuration::ZERO,
            },
        );
    }

    /// Registers a closure-backed resource with zero latency and a default
    /// 2 s timeout — convenient in tests.
    pub fn register_fn(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(&str, &Args) -> Outcome + Send + 'static,
    ) {
        self.register(
            name,
            LatencyModel::zero(),
            SimDuration::from_millis(2_000),
            Box::new(f),
        );
    }

    /// Names of registered resources, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Returns `true` if the resource exists and is healthy.
    pub fn is_healthy(&self, name: &str) -> bool {
        self.entries.get(name).map(|e| e.healthy).unwrap_or(false)
    }

    /// Marks a resource healthy or failed; returns `false` if unknown.
    pub fn set_healthy(&mut self, name: &str, healthy: bool) -> bool {
        match self.entries.get_mut(name) {
            Some(e) => {
                e.healthy = healthy;
                true
            }
            None => false,
        }
    }

    /// Adds a constant extra latency to every invocation of the resource
    /// (degradation); returns `false` if unknown.
    pub fn degrade(&mut self, name: &str, extra: SimDuration) -> bool {
        match self.entries.get_mut(name) {
            Some(e) => {
                e.degradation = extra;
                true
            }
            None => false,
        }
    }

    /// Invokes `op` on resource `name`. Returns the outcome and the
    /// virtual-time cost: the sampled latency plus degradation on success,
    /// or the configured timeout when the resource is missing or unhealthy.
    pub fn invoke(&mut self, name: &str, op: &str, args: &Args) -> (Outcome, SimDuration) {
        let seq = self.seq;
        self.seq += 1;
        match self.entries.get_mut(name) {
            None => {
                let outcome = Outcome::Failed(format!("unknown resource `{name}`"));
                self.log.push(Invocation {
                    seq,
                    resource: name.to_owned(),
                    op: op.to_owned(),
                    args: args.clone(),
                    ok: false,
                });
                (outcome, SimDuration::ZERO)
            }
            Some(e) => {
                if !e.healthy {
                    self.log.push(Invocation {
                        seq,
                        resource: name.to_owned(),
                        op: op.to_owned(),
                        args: args.clone(),
                        ok: false,
                    });
                    return (
                        Outcome::Failed(format!("resource `{name}` timed out")),
                        e.timeout,
                    );
                }
                let outcome = e.resource.invoke(op, args);
                let cost = e.latency.sample(&mut self.rng) + e.degradation;
                self.log.push(Invocation {
                    seq,
                    resource: name.to_owned(),
                    op: op.to_owned(),
                    args: args.clone(),
                    ok: outcome.is_ok(),
                });
                (outcome, cost)
            }
        }
    }

    /// The full invocation log.
    pub fn log(&self) -> &[Invocation] {
        &self.log
    }

    /// The rendered command trace — one line per invocation, in order.
    pub fn command_trace(&self) -> Vec<String> {
        self.log.iter().map(Invocation::render).collect()
    }
}

/// Builds `Args` from `(&str, &str)` pairs.
pub fn args(pairs: &[(&str, &str)]) -> Args {
    pairs
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_resource() -> impl SimResource {
        let mut count = 0u32;
        move |op: &str, _args: &Args| -> Outcome {
            match op {
                "inc" => {
                    count += 1;
                    Outcome::ok_with("count", count.to_string())
                }
                "get" => Outcome::ok_with("count", count.to_string()),
                other => Outcome::Failed(format!("unknown op `{other}`")),
            }
        }
    }

    #[test]
    fn invoke_and_log() {
        let mut hub = ResourceHub::new(1);
        hub.register(
            "ctr",
            LatencyModel::fixed_ms(2),
            SimDuration::from_millis(100),
            Box::new(counter_resource()),
        );
        let (o, cost) = hub.invoke("ctr", "inc", &args(&[("by", "1")]));
        assert_eq!(o.get("count"), Some("1"));
        assert_eq!(cost, SimDuration::from_millis(2));
        let (o, _) = hub.invoke("ctr", "get", &Args::new());
        assert_eq!(o.get("count"), Some("1"));
        assert_eq!(hub.command_trace(), vec!["ctr.inc(by=1)", "ctr.get()"]);
        assert_eq!(hub.log()[0].seq, 0);
        assert_eq!(hub.log()[1].seq, 1);
    }

    #[test]
    fn unknown_resource_fails_cheaply() {
        let mut hub = ResourceHub::new(1);
        let (o, cost) = hub.invoke("nope", "x", &Args::new());
        assert!(!o.is_ok());
        assert_eq!(cost, SimDuration::ZERO);
        assert_eq!(hub.log().len(), 1);
        assert!(!hub.log()[0].ok);
    }

    #[test]
    fn unhealthy_resource_times_out() {
        let mut hub = ResourceHub::new(1);
        hub.register(
            "svc",
            LatencyModel::fixed_ms(1),
            SimDuration::from_millis(500),
            Box::new(counter_resource()),
        );
        assert!(hub.set_healthy("svc", false));
        let (o, cost) = hub.invoke("svc", "inc", &Args::new());
        assert!(!o.is_ok());
        assert_eq!(cost, SimDuration::from_millis(500));
        assert!(!hub.is_healthy("svc"));
        assert!(hub.set_healthy("svc", true));
        let (o, cost) = hub.invoke("svc", "inc", &Args::new());
        assert!(o.is_ok());
        assert_eq!(cost, SimDuration::from_millis(1));
    }

    #[test]
    fn degradation_adds_cost() {
        let mut hub = ResourceHub::new(1);
        hub.register_fn("svc", |_, _| Outcome::ok());
        assert!(hub.degrade("svc", SimDuration::from_millis(40)));
        let (_, cost) = hub.invoke("svc", "x", &Args::new());
        assert_eq!(cost, SimDuration::from_millis(40));
        assert!(hub.degrade("svc", SimDuration::ZERO));
        let (_, cost) = hub.invoke("svc", "x", &Args::new());
        assert_eq!(cost, SimDuration::ZERO);
    }

    #[test]
    fn failed_op_recorded_as_not_ok() {
        let mut hub = ResourceHub::new(1);
        hub.register_fn("svc", |op, _| {
            if op == "good" {
                Outcome::ok()
            } else {
                Outcome::Failed("bad".into())
            }
        });
        hub.invoke("svc", "good", &Args::new());
        hub.invoke("svc", "bad", &Args::new());
        assert!(hub.log()[0].ok);
        assert!(!hub.log()[1].ok);
        assert!(!hub.set_healthy("missing", true));
        assert!(!hub.degrade("missing", SimDuration::ZERO));
    }
}
