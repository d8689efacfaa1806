//! Discrete-event simulation substrate for MD-DSM.
//!
//! The paper's evaluation ran against real communication services, microgrid
//! plant controllers, smart objects, and smartphone fleets. None of those
//! are available here, so this crate provides the closest synthetic
//! equivalent (see DESIGN.md §2): a deterministic discrete-event engine with
//! a virtual clock, parameterizable latency models, a point-to-point network
//! abstraction with loss and partitions, and a [`resource::ResourceHub`]
//! that stands in for "the underlying resources and services" the Broker
//! layer orchestrates.
//!
//! Two usage styles are supported:
//!
//! * **Event-driven** ([`engine::Simulator`]): schedule closures at virtual
//!   times; used by the domain simulations (device fleets, smart spaces).
//! * **Synchronous-with-cost** ([`resource::ResourceHub`]): middleware
//!   layers invoke resources synchronously; every invocation is logged (the
//!   basis of the behavioural-equivalence experiment E1) and returns a
//!   virtual-time cost that virtual-time experiments (E4) accumulate.
//!
//! Determinism: all randomness flows through a seeded [`rng::SimRng`], so a
//! simulation with the same seed reproduces the same trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod engine;
pub mod fault;
pub mod latency;
pub mod mutate;
pub mod net;
pub mod resource;
pub mod rng;
pub mod time;

pub use arrival::{Arrival, ArrivalClass, ArrivalGenerator};
pub use engine::Simulator;
pub use fault::{FaultDriver, FaultPlan, FaultPlanBuilder};
pub use latency::LatencyModel;
pub use mutate::MutationDeck;
pub use resource::{Invocation, Outcome, ResourceHub};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
