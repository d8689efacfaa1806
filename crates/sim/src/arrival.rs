//! Open-loop arrival generation for the overload experiments (E8).
//!
//! Overload robustness can only be measured against an *open-loop* workload:
//! a closed loop (issue a request, wait, issue the next) self-throttles and
//! can never overrun the server, so admission control would never trigger.
//! An [`ArrivalGenerator`] therefore emits Poisson arrival streams, one per
//! workload class, on the virtual clock — requests arrive when the model
//! says they arrive, whether or not the middleware has kept up.
//!
//! Load spikes are fault-plan events: [`FaultPlanBuilder::load_spike`]
//! multiplies a class's arrival rate from an instant on, and
//! [`FaultPlanBuilder::load_normal`] restores the baseline.
//! [`ArrivalGenerator::schedule_under`] compiles a plan's load events into a
//! complete, time-sorted arrival schedule up to a horizon — what the E8
//! harness replays against each middleware variant so all variants face the
//! byte-identical workload.
//!
//! Determinism: each class draws from its own [`SimRng`] seeded
//! `seed ^ (index + 1)`, so adding a class never perturbs the streams of
//! the classes before it, and the same seed always yields the identical
//! schedule.
//!
//! [`FaultPlanBuilder::load_spike`]: crate::fault::FaultPlanBuilder::load_spike
//! [`FaultPlanBuilder::load_normal`]: crate::fault::FaultPlanBuilder::load_normal

use crate::fault::{FaultAction, FaultPlan};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A workload class emitting an open-loop Poisson arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalClass {
    /// Class name; matches the Broker `AdmissionClass` the requests bill
    /// against and the `target` of load fault events.
    pub name: String,
    /// Mean time between arrivals at baseline (multiplier 1.0) load.
    pub mean_interarrival: SimDuration,
}

/// A single request arrival: a virtual-time instant and its class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// When the request arrives.
    pub at: SimTime,
    /// Name of the arriving class.
    pub class: String,
}

/// Deterministic open-loop arrival generator over a set of
/// [`ArrivalClass`]es.
#[derive(Debug, Clone)]
pub struct ArrivalGenerator {
    classes: Vec<ArrivalClass>,
    seed: u64,
}

impl ArrivalGenerator {
    /// Creates a generator with no classes.
    pub fn new(seed: u64) -> Self {
        ArrivalGenerator {
            classes: Vec::new(),
            seed,
        }
    }

    /// Adds a workload class with the given baseline mean interarrival.
    pub fn with_class(mut self, name: &str, mean_interarrival: SimDuration) -> Self {
        self.classes.push(ArrivalClass {
            name: name.to_owned(),
            mean_interarrival,
        });
        self
    }

    /// Generates the complete arrival schedule up to `horizon`, applying
    /// the load-spike/load-normal events of `plan` as timed rate changes
    /// (a spike sets the class's multiplier to its factor; `LoadNormal`
    /// restores the baseline 1.0). The multiplier in effect when an arrival
    /// is drawn governs its interarrival gap. Arrivals are merged across
    /// classes, sorted by time with ties broken by class declaration order.
    pub fn schedule_under(&self, horizon: SimDuration, plan: &FaultPlan) -> Vec<Arrival> {
        let mut out = Vec::new();
        for (idx, class) in self.classes.iter().enumerate() {
            // The class's time-sorted `(at_us, factor)` rate-change points.
            let changes: Vec<(u64, f64)> = plan
                .events()
                .iter()
                .filter_map(|e| match &e.action {
                    FaultAction::LoadSpike { class: c, factor } if *c == class.name => {
                        Some((e.at.as_micros(), *factor))
                    }
                    FaultAction::LoadNormal { class: c } if *c == class.name => {
                        Some((e.at.as_micros(), 1.0))
                    }
                    _ => None,
                })
                .collect();
            let mut rng = SimRng::seed_from_u64(self.seed ^ (idx as u64 + 1));
            let mut mult = 1.0;
            let mut next_change = 0usize;
            let mean = class.mean_interarrival.as_micros() as f64;
            let mut t = 0u64;
            loop {
                while next_change < changes.len() && changes[next_change].0 <= t {
                    mult = changes[next_change].1.max(0.0);
                    next_change += 1;
                }
                if mult <= 0.0 {
                    // Rate zero: jump to the next change point (or stop).
                    match changes.get(next_change) {
                        Some(&(at, _)) if at < horizon.as_micros() => {
                            t = at;
                            continue;
                        }
                        _ => break,
                    }
                }
                let gap = (rng.exponential(mean) / mult).max(1.0) as u64;
                t = t.saturating_add(gap);
                if t >= horizon.as_micros() {
                    break;
                }
                out.push(Arrival {
                    at: SimTime::from_micros(t),
                    class: class.name.clone(),
                });
            }
        }
        // Stable sort: same-instant arrivals keep class declaration order.
        out.sort_by_key(|a| a.at);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlanBuilder;

    fn generator() -> ArrivalGenerator {
        ArrivalGenerator::new(0xE8)
            .with_class("interactive", SimDuration::from_micros(2_000))
            .with_class("batch", SimDuration::from_micros(5_000))
    }

    fn steady() -> FaultPlan {
        FaultPlan::from_model(&FaultPlanBuilder::new("steady").build()).unwrap()
    }

    #[test]
    fn schedules_are_deterministic_and_sorted() {
        let horizon = SimDuration::from_millis(200);
        let a = generator().schedule_under(horizon, &steady());
        let b = generator().schedule_under(horizon, &steady());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().all(|x| x.at.as_micros() < horizon.as_micros()));
        assert!(a.iter().any(|x| x.class == "interactive"));
        assert!(a.iter().any(|x| x.class == "batch"));
    }

    #[test]
    fn adding_a_class_does_not_perturb_earlier_streams() {
        let horizon = SimDuration::from_millis(100);
        let one = ArrivalGenerator::new(7)
            .with_class("interactive", SimDuration::from_micros(2_000))
            .schedule_under(horizon, &steady());
        let two: Vec<Arrival> = ArrivalGenerator::new(7)
            .with_class("interactive", SimDuration::from_micros(2_000))
            .with_class("batch", SimDuration::from_micros(9_000))
            .schedule_under(horizon, &steady())
            .into_iter()
            .filter(|a| a.class == "interactive")
            .collect();
        assert_eq!(one, two);
    }

    #[test]
    fn load_spikes_multiply_the_arrival_rate_inside_the_window() {
        let horizon = SimDuration::from_millis(300);
        let plan_model = FaultPlanBuilder::new("spike")
            .load_spike(SimTime::from_millis(100), "interactive", 5.0)
            .load_normal(SimTime::from_millis(200), "interactive")
            .build();
        let plan = FaultPlan::from_model(&plan_model).unwrap();
        let arrivals = generator().schedule_under(horizon, &plan);
        let count_in = |lo: u64, hi: u64| {
            arrivals
                .iter()
                .filter(|a| {
                    a.class == "interactive" && a.at.as_micros() >= lo && a.at.as_micros() < hi
                })
                .count()
        };
        let before = count_in(0, 100_000);
        let during = count_in(100_000, 200_000);
        let after = count_in(200_000, 300_000);
        assert!(
            during > 2 * before.max(after),
            "spike window should carry several times the baseline arrivals \
             (before={before}, during={during}, after={after})"
        );
        // Batch was not targeted, so its stream is the un-spiked one.
        let plain = generator().schedule_under(horizon, &steady());
        let batch = |v: &[Arrival]| {
            v.iter()
                .filter(|a| a.class == "batch")
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(batch(&arrivals), batch(&plain));
    }

    #[test]
    fn zero_multiplier_silences_a_class_until_restored() {
        let horizon = SimDuration::from_millis(100);
        let plan_model = FaultPlanBuilder::new("mute")
            .load_spike(SimTime::from_micros(0), "interactive", 0.0)
            .load_normal(SimTime::from_millis(50), "interactive")
            .build();
        let plan = FaultPlan::from_model(&plan_model).unwrap();
        let arrivals = generator().schedule_under(horizon, &plan);
        assert!(arrivals
            .iter()
            .filter(|a| a.class == "interactive")
            .all(|a| a.at.as_micros() > 50_000));
        assert!(arrivals.iter().any(|a| a.class == "interactive"));
    }
}
