//! Instrumented broker ports used by the experiments.

use mddsm_controller::{BrokerPort, PortResponse};

/// Wraps a port, accumulating the virtual cost of *every* invocation —
/// including failed attempts, whose cost the Controller's execution report
/// does not retain (the failed execution is discarded on adaptation).
pub struct CountingPort<P> {
    inner: P,
    total_us: u64,
    calls: u64,
    failures: u64,
}

impl<P: BrokerPort> CountingPort<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        CountingPort {
            inner,
            total_us: 0,
            calls: 0,
            failures: 0,
        }
    }

    /// Total virtual cost accumulated (µs).
    pub fn total_us(&self) -> u64 {
        self.total_us
    }

    /// Invocations observed.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Failed invocations observed.
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

impl<P: BrokerPort> BrokerPort for CountingPort<P> {
    fn invoke(&mut self, api: &str, op: &str, args: &[(String, String)]) -> PortResponse {
        let resp = self.inner.invoke(api, op, args);
        self.calls += 1;
        self.total_us += resp.cost_us;
        if !resp.ok {
            self.failures += 1;
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_all_costs_including_failures() {
        let mut flip = false;
        let port = move |_: &str, _: &str, _: &[(String, String)]| {
            flip = !flip;
            if flip {
                let mut r = PortResponse::ok();
                r.cost_us = 10;
                r
            } else {
                PortResponse::failed("down", 500)
            }
        };
        let mut counting = CountingPort::new(port);
        counting.invoke("a", "b", &[]);
        counting.invoke("a", "b", &[]);
        assert_eq!(counting.calls(), 2);
        assert_eq!(counting.failures(), 1);
        assert_eq!(counting.total_us(), 510);
    }
}
