//! A minimal wall-clock micro-benchmark harness.
//!
//! Stands in for Criterion so the evaluation harness builds with zero
//! external dependencies (offline/air-gapped environments). The protocol is
//! deliberately simple: warm up, then time batches until a time budget is
//! spent, and report the median per-iteration latency. Use the
//! `experiments` binary for the paper-style tables; these benches exist to
//! watch for regressions in the per-call prices behind E2/E3.

use std::time::{Duration, Instant};

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
