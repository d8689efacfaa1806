//! Evaluation harness for the MD-DSM reproduction.
//!
//! Every measurement of the paper's §VII is regenerated here (E1–E5), next
//! to the experiments that extend it (E6 onwards; see DESIGN.md §4 for the
//! experiment index):
//!
//! | id | claim | module |
//! |----|-------|--------|
//! | E1 | behavioural equivalence of model-based vs handcrafted Broker | [`e1`] |
//! | E2 | ≈17% average overhead of the model-based Broker across 8 scenarios | [`e2`] |
//! | E3 | IM generation cycle < 120 ms; average → ~1 ms toward 100 000 cycles | [`e3`] |
//! | E4 | adaptive ≈800 ms vs non-adaptive ≈4000 ms when adaptation helps | [`e4`] |
//! | E5 | LoC reduction 1402 → 1176 from separating domain concerns | [`e5`] |
//! | E6 | fault recovery: resilience model on vs off under fault campaigns | [`e6`] |
//! | E7 | crash-consistent recovery: journal + supervisor vs naive restart | [`e7`] |
//! | E8 | overload robustness: admission control + brownout vs naive FIFO | [`e8`] |
//! | E9 | replicated models@runtime: journal shipping, failover, fencing | [`e9`] |
//! | E10 | online runtime verification: in-stream journal monitors | [`e10`] |
//! | E11 | static model verification: analyzer mutation-detection rate | [`e11`] |
//! | E13 | durable-storage fault tolerance: self-healing journal | [`e13`] |
//! | E14 | live model evolution: hot upgrade under traffic vs stop-the-world | [`e14`] |
//! | E15 | quorum-replicated models@runtime: replica sets, majority commit | [`e15`] |
//!
//! The same functions back the micro-benches (`benches/`, via [`micro`])
//! and the `experiments` binary that prints the paper-style tables.
//! [`artifacts`] writes the emitted `BENCH_*.json` files and validates them
//! in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod artifacts;
mod common;
pub mod e1;
pub mod e10;
pub mod e11;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod micro;
pub mod port;

/// Formats a microsecond value as milliseconds with 3 decimals.
pub fn ms(us: u64) -> String {
    format!("{:.3}", us as f64 / 1000.0)
}
