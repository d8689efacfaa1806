//! Ablation benches for the design choices DESIGN.md calls out: the costs
//! of the modeling substrate (diff, conformance, textual parsing, OCL-lite
//! evaluation) and of the execution machinery (stack machine, model-driven
//! broker dispatch). These are the per-call prices behind E2/E3.

use bench::micro::BenchGroup;
use mddsm_broker::journal::{parse_line, Journal, JournalRecord};
use mddsm_broker::state::{OpView, ValueView};
use mddsm_meta::constraint::{self, eval_bool, EvalEnv};
use mddsm_meta::diff::diff;
use mddsm_meta::metamodel::{DataType, Metamodel, MetamodelBuilder, Multiplicity};
use mddsm_meta::model::Model;
use mddsm_meta::{conformance, text, Value};

fn mm() -> Metamodel {
    MetamodelBuilder::new("bench")
        .class("Node", |c| {
            c.attr("name", DataType::Str)
                .attr_default("weight", DataType::Int, Value::from(1))
                .invariant("positive", "self.weight > 0")
        })
        .class("Graph", |c| {
            c.attr("name", DataType::Str)
                .contains("nodes", "Node", Multiplicity::MANY)
        })
        .build()
        .unwrap()
}

fn model(n: usize) -> Model {
    let mut m = Model::new("bench");
    let g = m.create("Graph");
    m.set_attr(g, "name", Value::from("g"));
    for i in 0..n {
        let node = m.create("Node");
        m.set_attr(node, "name", Value::from(format!("n{i}")));
        m.set_attr(node, "weight", Value::from(i as i64 + 1));
        m.add_ref(g, "nodes", node);
    }
    m
}

fn main() {
    let metamodel = mm();
    let m100 = model(100);
    let mut m100b = m100.clone();
    // Touch ~10% of the objects for a realistic incremental diff.
    for id in m100b.all_of_class("Node").into_iter().take(10) {
        m100b.set_attr(id, "weight", Value::from(999));
    }

    let mut group = BenchGroup::new("substrate");
    group.bench_function("conformance_check_100_objects", || {
        conformance::check(&m100, &metamodel).unwrap()
    });
    group.bench_function("model_diff_100_objects_10_changed", || diff(&m100, &m100b));
    for (name, n) in [
        ("text_parse_10_objects", 10),
        ("text_parse_100_objects", 100),
        ("text_parse_1000_objects", 1_000),
    ] {
        let written = text::write(&model(n));
        group.bench_function(name, || text::parse(&written).unwrap());
    }
    group.bench_function("text_write_100_objects", || text::write(&m100));
    let expr =
        constraint::parse("self.nodes->forAll(n | n.weight > 0) and self.nodes->size() >= 100")
            .unwrap();
    let g = m100.all_of_class("Graph")[0];
    let env = EvalEnv::for_object(&m100, &metamodel, g);
    group.bench_function("ocl_forall_over_100_nodes", || {
        eval_bool(&expr, &env).unwrap()
    });
    group.bench_function("constraint_parse", || {
        constraint::parse("self.kind = MediaKind::Video implies self.bandwidth > 100").unwrap()
    });
    // What E13's CRC32 framing costs: the two rows differ by the frame
    // (CRC32 plus the `v1` header) on each of 1 000 short op records.
    group.bench_function("journal_append_1k_records_unframed", || {
        journal_append(false).bytes().len()
    });
    group.bench_function("journal_append_1k_records_framed", || {
        journal_append(true).bytes().len()
    });
    // What reading them back costs: the framed row's lines through the
    // one decoder, CRC check included.
    let framed = journal_append(true);
    let lines: Vec<&str> = std::str::from_utf8(framed.bytes())
        .unwrap()
        .lines()
        .collect();
    group.bench_function("journal_parse_1k_records_framed", || {
        lines
            .iter()
            .map(|line| parse_line(line).unwrap().lsn().unwrap_or(0))
            .sum::<u64>()
    });
    group.finish();
}

/// A fresh journal holding 1 000 short op records.
fn journal_append(framed: bool) -> Journal {
    let mut j = Journal::in_memory(0);
    j.set_framed(framed);
    for i in 0..1_000u64 {
        j.record(&JournalRecord::Op(OpView {
            lsn: i + 1,
            key: "count".into(),
            value: Some(ValueView::Int(i as i64)),
        }));
    }
    j
}
