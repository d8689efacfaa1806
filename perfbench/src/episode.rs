//! Closed-loop episodes: one caller on one thread replays a workload's
//! op stream against a freshly set-up system, episode after episode, until
//! the run's time is spent.
//!
//! Each episode replays the *same* op stream from a fresh set-up, so the
//! state the system accumulates (journal, hub log, replication outbox) and
//! therefore the per-op cost are the same in every episode, whatever the
//! run length. Timings are per-episode order statistics; the run reports
//! the best episode's (the min-of-repetitions protocol of E2 and
//! `hotpath_cost`): on a shared host the same episode runs up to twice as
//! slow while a neighbour holds the core, and the best of many identical
//! episodes is the figure that repeats from run to run.

use crate::stats::{median, percentile};
use std::time::{Duration, Instant};

/// Outcome of one op, as a domain application sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Executed, and the resource outcome was a success.
    Done,
    /// Admission deferred it (backpressure).
    Deferred,
    /// Admission shed it.
    Shed,
    /// Executed, but the resource outcome was a failure.
    Failed,
}

/// Per-episode counts of op outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops that executed successfully.
    pub done: u64,
    /// Ops admission deferred.
    pub deferred: u64,
    /// Ops admission shed.
    pub shed: u64,
    /// Ops that executed with a failed outcome.
    pub failed: u64,
}

impl Tally {
    /// Counts one op.
    pub fn record(&mut self, s: Status) {
        match s {
            Status::Done => self.done += 1,
            Status::Deferred => self.deferred += 1,
            Status::Shed => self.shed += 1,
            Status::Failed => self.failed += 1,
        }
    }

    /// Ops counted.
    pub fn attempted(&self) -> u64 {
        self.done + self.deferred + self.shed + self.failed
    }
}

/// One workload: how to set its system up, drive one op, and check the
/// system's outputs after an episode.
pub trait Bench {
    /// The system under test, ready to serve.
    type System;

    /// Ops in one episode.
    fn ops(&self) -> usize;

    /// Builds the system from its model: everything a deployment does
    /// before it can serve the first op.
    fn setup(&self) -> Result<Self::System, String>;

    /// Untimed work the caller does before op `i` (open-loop clock
    /// advance, periodic control ticks, fault toggles). Counted in
    /// throughput, not in per-op latency.
    fn prepare(&self, _sys: &mut Self::System, _i: usize) -> Result<(), String> {
        Ok(())
    }

    /// Op `i` of the stream. `Err` is an operation failure.
    fn op(&self, sys: &mut Self::System, i: usize) -> Result<Status, String>;

    /// Checks the system's outputs after a full episode; `Err` fails the
    /// run.
    fn check(&self, sys: &mut Self::System, tally: &Tally) -> Result<(), String>;
}

/// End-to-end figures of one untraced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Ops per wall second over the best episode's timed loop.
    pub ops_per_s: f64,
    /// p50 op latency of the best episode (µs).
    pub op_p50_us: f64,
    /// p99 op latency of the best episode (µs).
    pub op_p99_us: f64,
    /// Fastest set-up (s).
    pub setup_s: f64,
    /// Peak resident memory of the process when the first episode has
    /// served its last op (MB). Later episodes repeat the same work; what
    /// the process holds after them also reflects the output checks'
    /// transient replays and the allocator's reuse of their memory, which
    /// put 22 or 29 MB on `broker_mixed` depending on the seed.
    pub peak_rss_mb: f64,
    /// Ops attempted over all episodes.
    pub attempted: u64,
    /// Ops that returned a failed outcome.
    pub failed: u64,
    /// Ops that failed, were shed or were deferred, per op attempted
    /// (deterministic per seed: every episode replays the same stream).
    pub failed_ratio: f64,
    /// Episodes run.
    pub episodes: usize,
    /// Latency samples behind each episode's percentiles.
    pub samples_per_episode: usize,
    /// Median over episodes of the per-episode p50 (µs), for comparison
    /// with the best episode's.
    pub median_p50_us: f64,
}

/// Fewest episodes a run makes, however short its time budget.
pub const MIN_EPISODES: usize = 3;

/// Replays `bench` episode after episode for `seconds` (at least
/// [`MIN_EPISODES`] episodes), checking outputs after every episode.
pub fn measure<B: Bench>(bench: &B, seconds: u64) -> Result<Measured, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let n = bench.ops();
    let mut samples: Vec<u64> = Vec::with_capacity(n);
    let (mut setups, mut rates, mut p50s, mut p99s) = (vec![], vec![], vec![], vec![]);
    let (mut first, mut peak_rss) = (None, None);
    let mut total = Tally::default();
    while setups.len() < MIN_EPISODES || Instant::now() < deadline {
        let t0 = Instant::now();
        let mut sys = bench.setup()?;
        setups.push(t0.elapsed().as_secs_f64());

        samples.clear();
        let mut tally = Tally::default();
        let loop_start = Instant::now();
        for i in 0..n {
            bench.prepare(&mut sys, i)?;
            let t = Instant::now();
            let status = bench.op(&mut sys, i)?;
            samples.push(t.elapsed().as_nanos() as u64);
            tally.record(status);
        }
        rates.push(n as f64 / loop_start.elapsed().as_secs_f64());
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }

        bench.check(&mut sys, &tally)?;
        drop(sys);
        samples.sort_unstable();
        p50s.push(percentile(&samples, 0.50)?.value as f64 / 1e3);
        p99s.push(percentile(&samples, 0.99)?.value as f64 / 1e3);
        match first {
            None => first = Some(tally),
            Some(t) if t != tally => {
                return Err(format!(
                    "episode {} tallied {tally:?}, the first {t:?}: the stream does not replay \
                     deterministically",
                    setups.len()
                ))
            }
            Some(_) => {}
        }
        total.done += tally.done;
        total.deferred += tally.deferred;
        total.shed += tally.shed;
        total.failed += tally.failed;
    }
    let attempted = total.attempted();
    let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    Ok(Measured {
        ops_per_s: rates.iter().copied().fold(0.0, f64::max),
        op_p50_us: best(&p50s),
        op_p99_us: best(&p99s),
        setup_s: best(&setups),
        peak_rss_mb: peak_rss.unwrap_or_default(),
        attempted,
        failed: total.failed,
        failed_ratio: (total.failed + total.deferred + total.shed) as f64 / attempted as f64,
        episodes: setups.len(),
        samples_per_episode: n,
        median_p50_us: median(&p50s),
    })
}

/// Peak resident set size of this process (MB), from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}
