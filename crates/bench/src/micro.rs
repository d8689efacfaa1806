//! A minimal wall-clock micro-benchmark harness.
//!
//! Stands in for Criterion so the evaluation harness builds with zero
//! external dependencies (offline/air-gapped environments). The protocol is
//! deliberately simple: warm up, then time batches until a time budget is
//! spent, and report the median per-iteration latency. Use the
//! `experiments` binary for the paper-style tables; these benches exist to
//! watch for regressions in the per-call prices behind E2/E3.
//!
//! [`hotpath_cost`] is the one protocol the experiments use for their
//! wall-clock hot-path figures (the `overhead_pct` of E10 and E13).

use std::time::{Duration, Instant};

use mddsm_broker::GenericBroker;
use mddsm_sim::resource::args;

/// Wall-clock cost of a broker feature on the clean call path (see
/// [`hotpath_cost`]).
#[derive(Debug, Clone, Copy)]
pub struct HotpathCost {
    /// Nanoseconds per clean call, feature off.
    pub off_ns_per_call: f64,
    /// Nanoseconds per clean call, feature on.
    pub on_ns_per_call: f64,
    /// Relative cost of the feature, percent of the call with it off.
    pub pct: f64,
}

/// Wall-clock cost of a broker feature: minima over `reps` interleaved
/// clean runs of `calls` `op` calls each, on brokers set up by
/// `setup(on, rep)` with the feature off, then on. The per-side *minimum*
/// is the least preemption-contaminated estimate of the true cost
/// (standard microbenchmark practice). Positive percent = the feature
/// costs time. Set-up is not timed.
pub fn hotpath_cost(
    calls: u64,
    reps: u64,
    setup: impl Fn(bool, u64) -> GenericBroker,
) -> HotpathCost {
    let time = |on: bool, rep: u64| {
        let mut b = setup(on, rep);
        let t0 = Instant::now();
        for i in 0..calls {
            let n = i.to_string();
            let r = b.call("op", &args(&[("n", &n)])).expect("clean call");
            assert!(r.outcome.is_ok());
        }
        t0.elapsed().as_nanos()
    };
    let (mut off, mut on) = (u128::MAX, u128::MAX);
    for rep in 0..reps.max(1) {
        off = off.min(time(false, rep));
        on = on.min(time(true, rep));
    }
    let per = |total: u128| total as f64 / calls.max(1) as f64;
    HotpathCost {
        off_ns_per_call: per(off),
        on_ns_per_call: per(on),
        pct: if off == 0 {
            0.0
        } else {
            (on as f64 - off as f64) / off as f64 * 100.0
        },
    }
}

/// Target measurement time per benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(400);
/// Warm-up time per benchmark.
const WARMUP_BUDGET: Duration = Duration::from_millis(100);

/// A named group of micro-benchmarks (mirrors Criterion's group API
/// closely enough that porting a bench is mechanical).
pub struct BenchGroup {
    name: String,
}

impl BenchGroup {
    /// Starts a group; prints its header.
    pub fn new(name: &str) -> Self {
        println!("group {name}");
        BenchGroup {
            name: name.to_owned(),
        }
    }

    /// Times `f`, printing the median per-iteration latency.
    pub fn bench_function<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &mut Self {
        // Warm up and pick a batch size aiming at ~1 ms per batch.
        let warm_start = Instant::now();
        let mut iters_in_warmup = 0u64;
        while warm_start.elapsed() < WARMUP_BUDGET {
            std::hint::black_box(f());
            iters_in_warmup += 1;
        }
        let per_iter = WARMUP_BUDGET.as_nanos() as u64 / iters_in_warmup.max(1);
        let batch = (1_000_000 / per_iter.max(1)).clamp(1, 100_000);

        let mut samples: Vec<f64> = Vec::new();
        let measure_start = Instant::now();
        while measure_start.elapsed() < MEASURE_BUDGET {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        println!(
            "  {}/{name}: {:.1} ns/iter ({} samples)",
            self.name,
            median,
            samples.len()
        );
        self
    }

    /// Finishes the group (prints a trailing newline for readability).
    pub fn finish(&mut self) {
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_reports() {
        let mut g = BenchGroup::new("smoke");
        let mut acc = 0u64;
        g.bench_function("add", || {
            acc = acc.wrapping_add(1);
            acc
        });
        g.finish();
        assert!(acc > 0);
    }
}
