//! Property-style tests for the simulation substrate.
//!
//! Cases are generated with the crate's own [`SimRng`] over a fixed set of
//! seeds, so the suite is deterministic and needs no external
//! property-testing dependency while still exercising randomized inputs.

use mddsm_sim::{LatencyModel, SimDuration, SimRng};

const CASES: u64 = 128;

/// Latency samples stay within the declared bounds.
#[test]
fn uniform_latency_in_bounds() {
    for case in 0..CASES {
        let mut gen = SimRng::seed_from_u64(0x53_0000 + case);
        let lo = gen.range(0, 1_000);
        let width = gen.range(0, 1_000);
        let seed = gen.next_u64();
        let model = LatencyModel::Uniform(
            SimDuration::from_micros(lo),
            SimDuration::from_micros(lo + width),
        );
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            let d = model.sample(&mut rng).as_micros();
            assert!((lo..=lo + width).contains(&d));
        }
    }
}

/// Same seed, same trace — over any op sequence.
#[test]
fn rng_determinism() {
    let run = |seed: u64, ops: &[u8]| -> Vec<u64> {
        let mut rng = SimRng::seed_from_u64(seed);
        ops.iter()
            .map(|op| match op {
                0 => rng.range(0, 1_000),
                1 => (rng.unit() * 1e6) as u64,
                _ => u64::from(rng.chance(0.5)),
            })
            .collect()
    };
    for case in 0..CASES {
        let mut gen = SimRng::seed_from_u64(0x54_0000 + case);
        let seed = gen.next_u64();
        let n = gen.range(0, 50) as usize;
        let ops: Vec<u8> = (0..n).map(|_| gen.range(0, 3) as u8).collect();
        assert_eq!(run(seed, &ops), run(seed, &ops));
    }
}
