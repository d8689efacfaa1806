//! Spans recorded from the benchmark's own code around calls into each
//! layer, with wall time and heap allocations per span.

use std::time::Instant;

/// Records spans against the traced binary's counting allocator. Library
/// code allocates through the system allocator only; the counter lives in
/// the binary that installs it.
#[derive(Clone, Copy)]
pub struct Tracer {
    /// Allocations (including reallocations) counted so far.
    pub count: fn() -> u64,
    /// Turns counting on or off (off costs one relaxed load per allocation).
    pub set_enabled: fn(bool),
}

impl Tracer {
    /// Counting off: an untraced pass inside the traced binary.
    pub fn pause(&self) {
        (self.set_enabled)(false);
    }

    /// Counting on: a traced pass.
    pub fn resume(&self) {
        (self.set_enabled)(true);
    }

    /// The allocation counter's current value.
    pub fn allocs(&self) -> u64 {
        (self.count)()
    }

    /// Runs `f` as one span of `acc`.
    pub fn span<R>(&self, acc: &mut Acc, f: impl FnOnce() -> R) -> R {
        let a0 = self.allocs();
        let t0 = Instant::now();
        let r = f();
        acc.ns += t0.elapsed().as_nanos() as u64;
        acc.allocs += self.allocs() - a0;
        acc.n += 1;
        r
    }
}

/// Accumulated spans of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Wall time inside the spans (ns).
    pub ns: u64,
    /// Heap allocations inside the spans.
    pub allocs: u64,
    /// Spans recorded.
    pub n: u64,
}

impl Acc {
    /// Mean wall time per span (ns); 0 when no span was recorded.
    pub fn ns_per_span(&self) -> f64 {
        ratio(self.ns as f64, self.n as f64)
    }

    /// Mean allocations per span; 0 when no span was recorded.
    pub fn allocs_per_span(&self) -> f64 {
        ratio(self.allocs as f64, self.n as f64)
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never entered).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
