//! The `model_edits` workload's shape as CML model text: a seeded stream
//! of edits to one live connection, with non-conformant models
//! interleaved. Shared by the synthesis and text parser oracles.

use mddsm_sim::SimRng;

const PEOPLE: [&str; 6] = ["ana", "bob", "carol", "dave", "erin", "frank"];
const CODECS: [&str; 4] = ["opus", "opus-hd", "g722", "pcmu"];

/// A medium: id, kind literal, codec, bandwidth (kbps, `None` = default).
pub type Medium = (u64, &'static str, &'static str, Option<i64>);

/// One connection of a CML model.
#[derive(Clone)]
pub struct Conn {
    pub id: u64,
    pub parties: Vec<usize>,
    pub media: Vec<Medium>,
}

/// Renders a CML model in the textual format, in the `model_edits`
/// workload's shape.
pub fn render(conns: &[Conn]) -> String {
    let mut s =
        String::from("model m conformsTo cml {\n  CommSchema s { name = \"bench\" persons -> [");
    let persons: Vec<String> = (0..PEOPLE.len()).map(|p| format!("p{p}")).collect();
    s.push_str(&persons.join(", "));
    s.push(']');
    if !conns.is_empty() {
        let media: Vec<String> = conns
            .iter()
            .flat_map(|c| c.media.iter().map(|m| format!("v{}", m.0)))
            .collect();
        let ids: Vec<String> = conns.iter().map(|c| format!("c{}", c.id)).collect();
        s.push_str(&format!(
            " media -> [{}] connections -> [{}]",
            media.join(", "),
            ids.join(", ")
        ));
    }
    s.push_str(" }\n");
    for (p, name) in PEOPLE.iter().enumerate() {
        s.push_str(&format!(
            "  Person p{p} {{ name = \"{name}\" userId = \"{name}@cvm\" }}\n"
        ));
    }
    for c in conns {
        for (m, kind, codec, bw) in &c.media {
            let bw = bw
                .map(|b| format!(" bandwidthKbps = {b}"))
                .unwrap_or_default();
            s.push_str(&format!(
                "  Medium v{m} {{ name = \"v{m}\" kind = MediaKind::{kind} codec = \"{codec}\"{bw} }}\n"
            ));
        }
        let parties: Vec<String> = c.parties.iter().map(|p| format!("p{p}")).collect();
        let media: Vec<String> = c.media.iter().map(|m| format!("v{}", m.0)).collect();
        s.push_str(&format!(
            "  Connection c{id} {{ name = \"c{id}\" parties -> [{}] media -> [{}] }}\n",
            parties.join(", "),
            media.join(", "),
            id = c.id
        ));
    }
    s.push_str("}\n");
    s
}

/// A model the engine must refuse at conformance: one party, a video
/// medium without its bandwidth, or an undeclared attribute.
fn broken(conns: &[Conn], rng: &mut SimRng) -> String {
    let mut conns = conns.to_vec();
    if conns.is_empty() {
        conns.push(Conn {
            id: 99,
            parties: vec![0, 1],
            media: vec![(98, "Audio", "opus", None)],
        });
    }
    match rng.index(3) {
        0 => conns[0].parties.truncate(1),
        1 => conns[0].media[0] = (97, "Video", "h264", Some(64)),
        _ => {
            return render(&conns).replace("CommSchema s {", "CommSchema s { bogus = 1");
        }
    }
    render(&conns)
}

/// A medium's bandwidth: mostly the default; 16 and 32 kbps make the
/// guarded LTS's guard false and fail to evaluate.
fn bandwidth(rng: &mut SimRng) -> Option<i64> {
    [None, None, Some(128), Some(16), Some(32)][rng.index(5)]
}

/// The `model_edits` generator's edit stream (one live connection;
/// creates, codec changes, added parties and media, deletes), with a
/// non-conformant model interleaved every few edits.
pub fn cml_edit_stream(seed: u64, edits: usize) -> Vec<String> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x6564_6974);
    let mut live: Option<Conn> = None;
    let mut next = 0u64;
    let mut out = Vec::new();
    for _ in 0..edits {
        if rng.chance(0.1) {
            out.push(broken(live.as_slice(), &mut rng));
        }
        match &mut live {
            None => {
                let a = rng.index(PEOPLE.len());
                let b = (a + 1 + rng.index(PEOPLE.len() - 1)) % PEOPLE.len();
                next += 2;
                live = Some(Conn {
                    id: next - 1,
                    parties: vec![a, b],
                    media: vec![(next, "Audio", "opus", bandwidth(&mut rng))],
                });
            }
            Some(c) => {
                let r = rng.unit();
                let outsider = (0..PEOPLE.len()).find(|p| !c.parties.contains(p));
                if r < 0.15 {
                    live = None;
                } else if let (true, Some(p)) = (r < 0.45, outsider) {
                    c.parties.push(p);
                } else if r < 0.6 && c.media.len() < 3 {
                    next += 1;
                    c.media.push((next, "Audio", "opus", bandwidth(&mut rng)));
                } else {
                    let m = rng.index(c.media.len());
                    c.media[m].2 = CODECS[rng.index(CODECS.len())];
                }
            }
        }
        out.push(render(live.as_slice()));
    }
    out
}
