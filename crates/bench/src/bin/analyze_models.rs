//! CI gate: check every shipped broker model — the four domain platforms
//! plus the models the experiments run — against the Fig. 6 metamodel and
//! the load-time static analyzer, print every violation, diagnostic and
//! the footprint/conflict table sizes, list the predicates left on the
//! OCL-lite interpreter fallback, and exit nonzero if any model carries a
//! conformance violation or an error-level diagnostic, or guards a call
//! on an interpreted policy.
//!
//! ```text
//! cargo run --release -p bench --bin analyze_models
//! ```
//!
//! Warnings are printed but do not fail the gate (at runtime they are
//! journaled as `note` records); violations and errors would make
//! `GenericBroker::from_model` refuse the model, so they fail CI here,
//! before a release ships an unloadable platform.

use bench::{e10, e11, e14, e15, e6, e7, e8, e9};
use mddsm_broker::{analyze, broker_metamodel, pred};
use mddsm_meta::analysis::Severity;
use mddsm_meta::{conformance, Model};

/// Every way `model` fails to conform to the broker metamodel — each one
/// would make `GenericBroker::from_model` refuse it.
fn conformance_errors(model: &Model) -> Vec<String> {
    conformance::violations(model, &broker_metamodel())
}

fn main() {
    let mut models = e11::corpus()
        .into_iter()
        .map(|(n, m)| (n.to_owned(), m))
        .collect::<Vec<_>>();
    models.push(("bench-e6".into(), e6::e6_broker_model(true)));
    models.push(("bench-e7".into(), e7::e7_broker_model()));
    models.push(("bench-e8".into(), e8::e8_broker_model()));
    models.push(("bench-e9".into(), e9::e9_broker_model(Some("AckWindowed"))));
    models.push(("bench-e10".into(), e10::e10_broker_model(true)));
    // The E14 live-evolution candidates shipped under examples/: an
    // unsound candidate must fail here, before it can reach a shadow
    // phase against live traffic.
    models.push(("bench-e14-v1".into(), e14::e14_model_v1()));
    models.push(("bench-e14-v2".into(), e14::e14_model_v2()));
    models.push(("bench-e14-v3".into(), e14::e14_model_v3()));
    // The E15 replica-set topologies (examples/replica_set.rs walks the
    // 3-node one): a malformed replica set must be refused at load time,
    // not discovered at the first failover.
    models.push(("bench-e15-3".into(), e15::e15_broker_model(e15::NODES3, 2)));
    models.push(("bench-e15-5".into(), e15::e15_broker_model(e15::NODES5, 3)));

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut interpreted_guards = 0usize;
    for (name, model) in &models {
        let violations = conformance_errors(model);
        let report = analyze(model);
        let e = violations.len() + report.errors().count();
        let w = report.warnings().count();
        errors += e;
        warnings += w;
        println!(
            "{name:<10} errors {e:>2}  warnings {w:>2}  footprint units {:>3}  benign conflict edges {:>3}",
            report.footprints.len(),
            report.conflicts.len()
        );
        for v in &violations {
            println!("  ERROR [conformance] {v}");
        }
        for d in &report.diagnostics {
            let tag = match d.severity {
                Severity::Error => "ERROR",
                Severity::Warning => "warn ",
            };
            println!("  {tag} [{}] {}: {}", d.code, d.path, d.message);
        }
        // Not analysis warnings: no journal gains a `note` for these.
        let interpreted = pred::interpreted(model);
        interpreted_guards += interpreted
            .iter()
            .filter(|p| p.starts_with("policy:"))
            .count();
        if !interpreted.is_empty() {
            println!("  interpreted: {}", interpreted.join(", "));
        }
    }
    println!(
        "\nanalyzed {} models: {errors} error(s), {warnings} warning(s)",
        models.len()
    );
    if errors > 0 {
        eprintln!(
            "FAIL: error-level diagnostics present — these models would be refused at load time"
        );
        std::process::exit(1);
    }
    if interpreted_guards > 0 {
        eprintln!("FAIL: {interpreted_guards} policy guard(s) run on the interpreter fallback");
        std::process::exit(1);
    }
    println!("PASS: every shipped model conforms and is accepted by the static analyzer");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_non_literal_ship_mode_is_a_gate_error() {
        let violations = conformance_errors(&e9::e9_broker_model(Some("ack")));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("`ack` is not a literal of enum `ShipMode`"),
            "{violations:?}"
        );
        assert!(conformance_errors(&e9::e9_broker_model(Some("AckWindowed"))).is_empty());
    }
}
