//! Seeded sampling utilities for mutation-style experiments.
//!
//! Experiment E11 measures the static analyzer's detection rate by seeding
//! defects ("mutations") into known-good models and checking that each one
//! surfaces as a diagnostic. That needs deterministic, seed-reproducible
//! sampling over a fixed deck of mutation operators — draw *k* distinct
//! operators per trial, shuffle application order — which is generic
//! sampling machinery, not experiment logic, so it lives here next to
//! [`SimRng`].

use crate::rng::SimRng;

/// Fisher–Yates shuffle of a slice, driven by the simulation RNG.
pub fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        let j = rng.index(i + 1);
        items.swap(i, j);
    }
}

/// Draws `k` distinct indices from `[0, n)` in a seeded random order
/// (partial Fisher–Yates). Returns fewer than `k` when `n < k`.
pub fn sample_indices(n: usize, k: usize, rng: &mut SimRng) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    shuffle(&mut pool, rng);
    pool.truncate(k.min(n));
    pool
}

/// A deck of named mutation operators for detection-rate experiments: each
/// trial draws a seeded sample of distinct operators to apply.
pub struct MutationDeck<M> {
    ops: Vec<(String, M)>,
}

impl<M> MutationDeck<M> {
    /// Creates an empty deck.
    pub fn new() -> Self {
        MutationDeck { ops: Vec::new() }
    }

    /// Adds a named operator.
    pub fn push(&mut self, name: impl Into<String>, op: M) {
        self.ops.push((name.into(), op));
    }

    /// Number of operators in the deck.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the deck is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// All operators, in insertion order.
    pub fn ops(&self) -> impl Iterator<Item = (&str, &M)> {
        self.ops.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Draws `k` distinct operators in seeded random order.
    pub fn draw(&self, k: usize, rng: &mut SimRng) -> Vec<(&str, &M)> {
        sample_indices(self.ops.len(), k, rng)
            .into_iter()
            .map(|i| (self.ops[i].0.as_str(), &self.ops[i].1))
            .collect()
    }
}

impl<M> Default for MutationDeck<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_distinct_and_bounded() {
        let mut rng = SimRng::seed_from_u64(9);
        let s = sample_indices(10, 4, &mut rng);
        assert_eq!(s.len(), 4);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "indices must be distinct: {s:?}");
        assert!(s.iter().all(|&i| i < 10));
    }

    #[test]
    fn sample_caps_at_population() {
        let mut rng = SimRng::seed_from_u64(9);
        assert_eq!(sample_indices(3, 10, &mut rng).len(), 3);
        assert!(sample_indices(0, 5, &mut rng).is_empty());
    }

    #[test]
    fn same_seed_same_draw() {
        let mut deck = MutationDeck::new();
        for name in ["a", "b", "c", "d", "e"] {
            deck.push(name, ());
        }
        let a: Vec<&str> = deck
            .draw(3, &mut SimRng::seed_from_u64(42))
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let b: Vec<&str> = deck
            .draw(3, &mut SimRng::seed_from_u64(42))
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<u32> = (0..16).collect();
        let mut rng = SimRng::seed_from_u64(1);
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 16-element shuffle virtually never lands sorted"
        );
    }
}
