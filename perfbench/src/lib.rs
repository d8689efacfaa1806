//! The repository benchmark: three seeded workloads, each driven by one
//! closed-loop caller on one thread, reporting end-to-end metrics with
//! tracing off, or per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <broker_mixed|quorum_commit|model_edits> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed output check
//! fails the run: it exits non-zero without printing the object.

#![forbid(unsafe_code)]

mod edits;
mod episode;
mod mixed;
mod quorum;
mod stats;
pub mod trace;

use mddsm_broker::{GenericBroker, StateManager};
use mddsm_meta::constraint::{self, Expr};
use mddsm_meta::Model;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Acc, Tracer};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["broker_mixed", "quorum_commit", "model_edits"];

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit. Every traced run
/// reports all of them; a layer its workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("broker.engine.ns_per_call", "ns"),
    ("broker.engine.allocs_per_call", "count"),
    ("broker.state.guard_eval_ns", "ns"),
    ("broker.admission.ns_per_call", "ns"),
    ("broker.admission.allocs_per_call", "count"),
    ("broker.admission.admitted_ratio", "ratio"),
    ("broker.admission.deferred", "count"),
    ("broker.admission.shed", "count"),
    ("broker.monitor.ns_per_call", "ns"),
    ("broker.monitor.allocs_per_call", "count"),
    ("broker.monitor.trips", "count"),
    ("broker.journal.ns_per_call", "ns"),
    ("broker.journal.allocs_per_call", "count"),
    ("broker.journal.bytes_per_call", "bytes"),
    ("broker.journal.snapshots", "count"),
    ("broker.autonomic.brownout_tick_ns", "ns"),
    ("broker.autonomic.transitions", "count"),
    ("broker.replication.tick_ns_per_op", "ns"),
    ("broker.replication.tick_ns_first_quarter", "ns"),
    ("broker.replication.tick_ns_last_quarter", "ns"),
    ("broker.replication.allocs_per_op", "count"),
    ("broker.replication.lines_shipped_per_commit", "count"),
    ("broker.replication.ticks_per_commit", "count"),
    ("broker.replication.retransmits", "count"),
    ("meta.text.parse_ns_per_edit", "ns"),
    ("meta.text.allocs_per_edit", "count"),
    ("synthesis.submit_ns_per_edit", "ns"),
    ("synthesis.commands_per_edit", "count"),
    ("controller.engine.self_ns_per_edit", "ns"),
    ("controller.case1_per_edit", "count"),
    ("controller.case2_per_edit", "count"),
    ("controller.adaptations", "count"),
    ("controller.intent.cache_hit_ratio", "ratio"),
    ("broker.engine.port_ns_per_edit", "ns"),
    ("broker.calls_per_edit", "count"),
    ("trace.ns_per_op", "ns"),
    ("trace.allocs_per_op", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.layer_coverage", "ratio"),
];

/// Fewest rounds a traced run makes.
pub const MIN_ROUNDS: usize = 3;

/// Counts read off a broker after a traced pass, so a round keeps a few
/// numbers rather than the whole system.
pub(crate) struct BrokerCounts {
    trips: usize,
    journal_bytes: usize,
    snapshots: u64,
}

impl BrokerCounts {
    pub(crate) fn of(broker: &GenericBroker) -> Self {
        BrokerCounts {
            trips: broker.monitor_trips().len(),
            journal_bytes: broker.journal_bytes().map_or(0, <[u8]>::len),
            snapshots: broker.journal_stats().map_or(0, |(_, s)| s),
        }
    }

    /// Records the monitor and journal counts of a pass of `ops` calls.
    pub(crate) fn report(&self, l: &mut Layers, ops: f64) {
        l.set("broker.monitor.trips", self.trips as f64);
        l.set(
            "broker.journal.bytes_per_call",
            self.journal_bytes as f64 / ops,
        );
        l.set("broker.journal.snapshots", self.snapshots as f64);
    }
}

/// Evaluations of each policy per guard-timing pass.
const GUARD_REPS: usize = 300;

/// Repeats `round` for `seconds` (at least [`MIN_ROUNDS`] times).
pub(crate) fn rounds<T>(
    seconds: u64,
    mut round: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut out = Vec::new();
    while out.len() < MIN_ROUNDS || Instant::now() < deadline {
        out.push(round()?);
    }
    Ok(out)
}

/// Times `StateManager::eval` of every policy against `state`, one span
/// per evaluation.
pub(crate) fn time_guards(
    tracer: &Tracer,
    acc: &mut Acc,
    state: &StateManager,
    policies: &[Expr],
) -> Result<(), String> {
    for _ in 0..GUARD_REPS {
        for p in policies {
            tracer
                .span(acc, || state.eval(p))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Every policy guard a broker model declares, parsed.
pub(crate) fn model_policies(model: &Model) -> Result<Vec<Expr>, String> {
    model
        .all_of_class("Policy")
        .into_iter()
        .filter_map(|p| model.attr_str(p, "expression"))
        .map(|e| constraint::parse(e).map_err(|e| e.to_string()))
        .collect()
}

/// The fastest of the rounds' values: timings follow the episode loop's
/// min-of-repetitions protocol.
pub(crate) fn best<T>(rounds: &[T], f: impl Fn(&T) -> f64) -> f64 {
    rounds.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// The median of the rounds' values: for ratios of two timings taken in
/// the same round, which a slow phase of the host scales out of.
pub(crate) fn middle<T>(rounds: &[T], f: impl Fn(&T) -> f64) -> f64 {
    stats::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Per-layer figures of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Rounds the figures are taken over.
    pub rounds: usize,
}

impl Layers {
    /// Records a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name [`PER_LAYER`] does not declare (a typo in this
    /// crate).
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric `{name}`"));
        self.values.insert(name, value);
    }

    /// A recorded metric; 0 for a layer the workload never entered.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Measurement time (s).
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace"].contains(n))
            .ok_or(format!("unknown argument `{flag}`"))?;
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        flags.insert(name, value.as_str());
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing --{name}"));
    let number = |name: &str| {
        get(name)?
            .parse::<u64>()
            .map_err(|e| format!("--{name}: {e}"))
    };
    let workload = get("workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Config {
        workload,
        seed: number("seed")?,
        seconds,
        trace,
    })
}

/// Renders the result object: `metrics` maps each name to its value and
/// unit.
pub fn result_json(
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        out.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    out.push_str("}}");
    Ok(out)
}

fn untraced(cfg: &Config) -> Result<String, String> {
    let m = match cfg.workload.as_str() {
        "broker_mixed" => episode::measure(&mixed::Mixed::new(cfg.seed), cfg.seconds)?,
        "quorum_commit" => episode::measure(&quorum::Quorum::new(cfg.seed), cfg.seconds)?,
        _ => episode::measure(&edits::Edits::new(cfg.seed), cfg.seconds)?,
    };
    println!(
        "{} seed={} episodes={} samples/episode={} p50={:.3}us (median episode {:.3}us) \
         p99={:.3}us ops/s={:.1} setup={:.6}s peak_rss={:.2}MB attempted={} failed_ratio={:.6}",
        cfg.workload,
        cfg.seed,
        m.episodes,
        m.samples_per_episode,
        m.op_p50_us,
        m.median_p50_us,
        m.op_p99_us,
        m.ops_per_s,
        m.setup_s,
        m.peak_rss_mb,
        m.attempted,
        m.failed_ratio
    );
    let values = [
        m.ops_per_s,
        m.op_p50_us,
        m.op_p99_us,
        m.setup_s,
        m.peak_rss_mb,
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u), v)| (*n, *u, v))
        .collect();
    result_json(m.attempted, m.failed, &metrics)
}

fn traced(cfg: &Config, tracer: &Tracer) -> Result<String, String> {
    let (layers, ops) = match cfg.workload.as_str() {
        "broker_mixed" => (mixed::traced(cfg.seed, cfg.seconds, tracer)?, mixed::OPS),
        "quorum_commit" => (quorum::traced(cfg.seed, cfg.seconds, tracer)?, quorum::OPS),
        _ => (edits::traced(cfg.seed, cfg.seconds, tracer)?, edits::OPS),
    };
    println!(
        "{} seed={} traced rounds={} ops/round={}",
        cfg.workload, cfg.seed, layers.rounds, ops
    );
    for (name, unit) in PER_LAYER {
        println!("  {name:<48} {:>16.3} {unit}", layers.get(name));
    }
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|(n, u)| (*n, *u, layers.get(n)))
        .collect();
    result_json((layers.rounds * ops) as u64, 0, &metrics)
}

/// Runs the benchmark from the process arguments. `tracer` reads the
/// traced binary's allocation counter; the untraced binary has none and
/// refuses `--trace 1`.
pub fn main_with(tracer: Option<Tracer>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|cfg| match (cfg.trace, tracer) {
        (false, tracer) => {
            if let Some(t) = tracer {
                t.pause();
            }
            untraced(&cfg)
        }
        (true, Some(t)) => {
            t.resume();
            traced(&cfg, &t)
        }
        (true, None) => Err("traced runs use the `traced` binary".to_owned()),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let cfg = parse_args(&args(
            "--workload quorum_commit --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cfg,
            Config {
                workload: "quorum_commit".into(),
                seed: 9,
                seconds: 3,
                trace: true
            }
        );
        assert!(parse_args(&args("--workload nope --seed 9 --seconds 3 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload model_edits --seed 9 --seconds 3 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload model_edits --seed 9 --trace 0")).is_err());
    }

    #[test]
    fn result_object_has_the_documented_keys() {
        let json = result_json(10, 0, &[("setup_s", "s", 0.25)]).unwrap();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_json(1, 0, &[("x", "s", f64::NAN)]).is_err());
    }

    /// The metric and workload lists here and in `BENCHMARK.json` agree.
    #[test]
    fn benchmark_json_declares_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{w}\"")),
                "no workload {w}"
            );
        }
        assert_eq!(
            text.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
