//! The OCL-lite predicate generator the predicate and constraint oracles
//! share: comparisons of keys, literals and sums (unset keys, `Int`/`Str`
//! mismatches, ordering on `null`) under `and`, `or`, `implies` and `not`.

use mddsm_sim::SimRng;

/// A random comparison operand over the keys `a`, `b`, `c`.
fn operand(rng: &mut SimRng) -> String {
    match rng.index(8) {
        0..=2 => format!("self.{}", ["a", "b", "c"][rng.index(3)]),
        3 => "null".to_owned(),
        4 => format!("{}", rng.range(0, 5) as i64 - 2),
        5 => ["\"x\"", "\"y\"", "\"\""][rng.index(3)].to_owned(),
        6 => ["true", "1.5", "-3"][rng.index(3)].to_owned(),
        _ => "self.a + 1".to_owned(),
    }
}

/// A random predicate of depth at most `depth`.
pub fn predicate(rng: &mut SimRng, depth: u32) -> String {
    if depth == 0 || rng.chance(0.35) {
        return match rng.index(10) {
            0 => ["true", "false"][rng.index(2)].to_owned(),
            _ => {
                let op = ["=", "<>", "<", "<=", ">", ">="][rng.index(6)];
                format!("{} {op} {}", operand(rng), operand(rng))
            }
        };
    }
    match rng.index(4) {
        3 => format!("not ({})", predicate(rng, depth - 1)),
        i => {
            let op = ["and", "or", "implies"][i];
            format!(
                "({}) {op} ({})",
                predicate(rng, depth - 1),
                predicate(rng, depth - 1)
            )
        }
    }
}
