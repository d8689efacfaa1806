//! A point-to-point network abstraction with latency, loss, and partitions.
//!
//! Used by the distributed domain simulations (crowdsensing fleets, smart
//! spaces) to model message delivery between nodes, and by failure-recovery
//! scenarios to inject link failures.

use crate::engine::Simulator;
use crate::latency::LatencyModel;
use crate::rng::SimRng;
use crate::time::SimDuration;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Properties of one directed link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Latency distribution per message.
    pub latency: LatencyModel,
    /// Probability a message is silently dropped.
    pub loss: f64,
    /// Whether the link is currently up; messages on a down link are lost.
    pub up: bool,
}

impl Default for Link {
    fn default() -> Self {
        Link {
            latency: LatencyModel::fixed_ms(1),
            loss: 0.0,
            up: true,
        }
    }
}

/// Outcome of a [`Network::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Message scheduled for delivery after the returned latency.
    Scheduled(SimDuration),
    /// Message dropped (loss or down link).
    Dropped,
}

/// Delivery statistics kept by the network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages successfully scheduled for delivery.
    pub delivered: u64,
    /// Messages lost to random loss.
    pub lost: u64,
    /// Messages lost to a down link or partition.
    pub partitioned: u64,
}

/// A network of named nodes connected by configurable directed links.
///
/// Cloning shares the underlying state (`Rc`), so the network can be
/// captured by many scheduled events.
#[derive(Clone)]
pub struct Network {
    inner: Rc<RefCell<NetworkInner>>,
}

/// Directed-pair table keyed `from → to`, so a lookup borrows both names
/// instead of building an owned key. Iterates in (from, to) order.
type PairMap<V> = BTreeMap<String, BTreeMap<String, V>>;

/// The `from → to` entry of `map`, if any.
fn pair<'m, V>(map: &'m PairMap<V>, from: &str, to: &str) -> Option<&'m V> {
    map.get(from)?.get(to)
}

/// The `from → to` slot of `map`, created by `make` on first use (the only
/// time the names are copied).
fn pair_slot<'m, V>(
    map: &'m mut PairMap<V>,
    from: &str,
    to: &str,
    make: impl FnOnce() -> V,
) -> &'m mut V {
    if !map.contains_key(from) {
        map.insert(from.to_owned(), BTreeMap::new());
    }
    let row = map.get_mut(from).expect("row inserted above");
    if !row.contains_key(to) {
        row.insert(to.to_owned(), make());
    }
    row.get_mut(to).expect("slot inserted above")
}

/// Every value of `map` whose pair has `node` at either end.
fn touching<'m, V>(map: &'m mut PairMap<V>, node: &'m str) -> impl Iterator<Item = &'m mut V> {
    map.iter_mut().flat_map(move |(from, row)| {
        row.iter_mut()
            .filter(move |(to, _)| from == node || *to == node)
            .map(|(_, v)| v)
    })
}

struct NetworkInner {
    default_link: Link,
    links: PairMap<Link>,
    /// Nodes currently cut off from everyone. Tracked at node level so a
    /// partition also severs pairs that never had a configured link (those
    /// would otherwise fall back to the default link and sail through).
    partitioned: BTreeSet<String>,
    rng: SimRng,
    stats: NetStats,
    /// Per-directed-pair breakdown of `stats`, so failure analysis can
    /// attribute loss to a specific link (E15 quorum campaigns).
    link_stats: PairMap<NetStats>,
}

impl NetworkInner {
    /// Classifies the attempt and samples loss/latency; both [`Network::send`]
    /// and [`Network::transmit`] go through here so down links, partitions,
    /// and random loss are accounted identically regardless of entry point.
    fn attempt(&mut self, from: &str, to: &str) -> SendOutcome {
        let cut = self.partitioned.contains(from) || self.partitioned.contains(to);
        let per_link = pair_slot(&mut self.link_stats, from, to, NetStats::default);
        let link = pair(&self.links, from, to).unwrap_or(&self.default_link);
        if !link.up || cut {
            self.stats.partitioned += 1;
            per_link.partitioned += 1;
            return SendOutcome::Dropped;
        }
        if self.rng.chance(link.loss) {
            self.stats.lost += 1;
            per_link.lost += 1;
            return SendOutcome::Dropped;
        }
        let latency = link.latency.sample(&mut self.rng);
        self.stats.delivered += 1;
        per_link.delivered += 1;
        SendOutcome::Scheduled(latency)
    }
}

impl Network {
    /// Creates a network where unspecified links use `default_link`.
    pub fn new(default_link: Link, seed: u64) -> Self {
        Network {
            inner: Rc::new(RefCell::new(NetworkInner {
                default_link,
                links: BTreeMap::new(),
                partitioned: BTreeSet::new(),
                rng: SimRng::seed_from_u64(seed),
                stats: NetStats::default(),
                link_stats: BTreeMap::new(),
            })),
        }
    }

    /// Configures the directed link `from -> to`.
    pub fn set_link(&self, from: &str, to: &str, link: Link) {
        self.inner
            .borrow_mut()
            .links
            .entry(from.into())
            .or_default()
            .insert(to.into(), link);
    }

    /// Brings a directed link up or down (creating it from the default if
    /// it was not configured).
    pub fn set_link_up(&self, from: &str, to: &str, up: bool) {
        let inner = &mut *self.inner.borrow_mut();
        let default = &inner.default_link;
        pair_slot(&mut inner.links, from, to, || default.clone()).up = up;
    }

    /// Sets the loss probability of the directed link `from -> to`
    /// (creating it from the default if it was not configured).
    pub fn set_link_loss(&self, from: &str, to: &str, loss: f64) {
        let inner = &mut *self.inner.borrow_mut();
        let default = &inner.default_link;
        pair_slot(&mut inner.links, from, to, || default.clone()).loss = loss.clamp(0.0, 1.0);
    }

    /// Takes the directed link `from -> to` down. Equivalent to
    /// [`Network::set_link_up`] with `false`; messages dropped on the link
    /// count under [`NetStats::partitioned`], exactly as partition drops do.
    pub fn set_link_down(&self, from: &str, to: &str) {
        self.set_link_up(from, to, false);
    }

    /// Partitions `node` from *every* peer, in both directions — including
    /// pairs with no configured link (which would otherwise use the default
    /// link). Configured links touching the node are also taken down;
    /// returns how many were. Idempotent.
    pub fn partition_node(&self, node: &str) -> usize {
        let mut inner = self.inner.borrow_mut();
        if !inner.partitioned.insert(node.to_owned()) {
            return 0;
        }
        let mut n = 0;
        for link in touching(&mut inner.links, node) {
            if link.up {
                link.up = false;
                n += 1;
            }
        }
        n
    }

    /// Heals all links touching `node` and lifts its node-level partition.
    pub fn heal_node(&self, node: &str) -> usize {
        let mut inner = self.inner.borrow_mut();
        if !inner.partitioned.remove(node) {
            return 0;
        }
        let mut n = 0;
        for link in touching(&mut inner.links, node) {
            if !link.up {
                link.up = true;
                n += 1;
            }
        }
        n
    }

    /// Whether `from -> to` is currently traversable (link up and neither
    /// endpoint partitioned). Does not touch statistics or the RNG.
    pub fn is_up(&self, from: &str, to: &str) -> bool {
        let inner = self.inner.borrow();
        if inner.partitioned.contains(from) || inner.partitioned.contains(to) {
            return false;
        }
        pair(&inner.links, from, to).map_or(inner.default_link.up, |l| l.up)
    }

    /// Current delivery statistics.
    pub fn stats(&self) -> NetStats {
        self.inner.borrow().stats
    }

    /// Delivery statistics of the directed link `from -> to` alone. Every
    /// attempt accounted in [`Network::stats`] is also accounted here
    /// under its (from, to) pair; a pair never attempted reads as zeros.
    pub fn link_stats(&self, from: &str, to: &str) -> NetStats {
        pair(&self.inner.borrow().link_stats, from, to)
            .copied()
            .unwrap_or_default()
    }

    /// All directed pairs that ever attempted a message, with their
    /// per-link statistics, in deterministic (from, to) order.
    pub fn link_stats_all(&self) -> Vec<((String, String), NetStats)> {
        let inner = self.inner.borrow();
        let mut all = Vec::new();
        for (from, row) in &inner.link_stats {
            for (to, stats) in row {
                all.push(((from.clone(), to.clone()), *stats));
            }
        }
        all
    }

    /// Attempts one message `from -> to` *synchronously*: samples the link
    /// exactly like [`Network::send`] (same loss/partition accounting, same
    /// RNG stream) but returns the outcome instead of scheduling a
    /// delivery closure. This is the building block for request/ack
    /// protocols driven on a virtual clock outside the event loop — the
    /// caller charges the returned latency itself and decides whether to
    /// retransmit on a dropped leg.
    pub fn transmit(&self, from: &str, to: &str) -> SendOutcome {
        self.inner.borrow_mut().attempt(from, to)
    }

    /// One request/ack round trip: a `from -> to` leg followed, when the
    /// first leg is delivered, by a `to -> from` leg. Returns the total
    /// latency when both legs are delivered, `None` when either drops —
    /// the ack-timeout case the caller retransmits on.
    pub fn round_trip(&self, from: &str, to: &str) -> Option<SimDuration> {
        let mut inner = self.inner.borrow_mut();
        let SendOutcome::Scheduled(out) = inner.attempt(from, to) else {
            return None;
        };
        let SendOutcome::Scheduled(back) = inner.attempt(to, from) else {
            return None;
        };
        Some(out + back)
    }

    /// Sends a message from `from` to `to`; on success `deliver` is
    /// scheduled on the simulator after the sampled link latency.
    pub fn send(
        &self,
        sim: &mut Simulator,
        from: &str,
        to: &str,
        deliver: impl FnOnce(&mut Simulator) + 'static,
    ) -> SendOutcome {
        let outcome = self.inner.borrow_mut().attempt(from, to);
        if let SendOutcome::Scheduled(latency) = outcome {
            sim.schedule(latency, deliver);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn setup() -> (Simulator, Network) {
        (Simulator::new(), Network::new(Link::default(), 42))
    }

    #[test]
    fn delivery_takes_link_latency() {
        let (mut sim, net) = setup();
        net.set_link(
            "a",
            "b",
            Link {
                latency: LatencyModel::fixed_ms(7),
                ..Link::default()
            },
        );
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let out = net.send(&mut sim, "a", "b", move |s| {
            *g.borrow_mut() = Some(s.now().as_micros());
        });
        assert_eq!(out, SendOutcome::Scheduled(SimDuration::from_millis(7)));
        sim.run();
        assert_eq!(*got.borrow(), Some(7_000));
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn default_link_used_for_unknown_pairs() {
        let (mut sim, net) = setup();
        let out = net.send(&mut sim, "x", "y", |_| {});
        assert_eq!(out, SendOutcome::Scheduled(SimDuration::from_millis(1)));
    }

    #[test]
    fn down_link_drops() {
        let (mut sim, net) = setup();
        net.set_link_up("a", "b", false);
        let delivered = Rc::new(RefCell::new(false));
        let d = delivered.clone();
        let out = net.send(&mut sim, "a", "b", move |_| *d.borrow_mut() = true);
        assert_eq!(out, SendOutcome::Dropped);
        sim.run();
        assert!(!*delivered.borrow());
        assert_eq!(net.stats().partitioned, 1);
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let (mut sim, net) = setup();
        net.set_link(
            "a",
            "b",
            Link {
                loss: 0.5,
                ..Link::default()
            },
        );
        let mut dropped = 0;
        for _ in 0..1000 {
            if net.send(&mut sim, "a", "b", |_| {}) == SendOutcome::Dropped {
                dropped += 1;
            }
        }
        assert!((350..650).contains(&dropped), "dropped {dropped}/1000");
        assert_eq!(net.stats().lost, dropped);
    }

    #[test]
    fn partition_and_heal() {
        let (mut sim, net) = setup();
        net.set_link("a", "b", Link::default());
        net.set_link("b", "a", Link::default());
        net.set_link("a", "c", Link::default());
        assert_eq!(net.partition_node("a"), 3);
        assert_eq!(net.send(&mut sim, "a", "b", |_| {}), SendOutcome::Dropped);
        assert_eq!(net.heal_node("a"), 3);
        assert!(matches!(
            net.send(&mut sim, "a", "b", |_| {}),
            SendOutcome::Scheduled(_)
        ));
        // Partitioning is idempotent.
        assert_eq!(net.heal_node("a"), 0);
    }

    #[test]
    fn partition_severs_unconfigured_pairs_too() {
        // Regression: `partition_node` used to flip only *configured*
        // links, so a partitioned node could still talk to a peer it had
        // never exchanged a configured link with (the pair fell back to
        // the default link, which was up). Partitions are node-level now.
        let (mut sim, net) = setup();
        net.partition_node("a");
        assert_eq!(net.send(&mut sim, "a", "z", |_| {}), SendOutcome::Dropped);
        assert_eq!(net.send(&mut sim, "z", "a", |_| {}), SendOutcome::Dropped);
        assert!(!net.is_up("a", "z"));
        assert_eq!(net.stats().partitioned, 2);
        net.heal_node("a");
        assert!(net.is_up("a", "z"));
        assert!(matches!(
            net.send(&mut sim, "a", "z", |_| {}),
            SendOutcome::Scheduled(_)
        ));
    }

    #[test]
    fn set_link_down_and_partition_account_identically() {
        let (mut sim, net) = setup();
        // One drop via the link helper, one via the partition helper: both
        // must land in the same `partitioned` counter.
        net.set_link_down("a", "b");
        assert_eq!(net.send(&mut sim, "a", "b", |_| {}), SendOutcome::Dropped);
        net.partition_node("c");
        assert_eq!(net.send(&mut sim, "c", "d", |_| {}), SendOutcome::Dropped);
        let s = net.stats();
        assert_eq!(s.partitioned, 2);
        assert_eq!(s.lost, 0);
        assert_eq!(s.delivered, 0);
    }

    #[test]
    fn transmit_matches_send_accounting() {
        let (_sim, net) = setup();
        assert!(matches!(
            net.transmit("a", "b"),
            SendOutcome::Scheduled(d) if d == SimDuration::from_millis(1)
        ));
        net.set_link_down("a", "b");
        assert_eq!(net.transmit("a", "b"), SendOutcome::Dropped);
        let s = net.stats();
        assert_eq!((s.delivered, s.partitioned, s.lost), (1, 1, 0));
    }

    #[test]
    fn per_link_stats_attribute_every_attempt_exactly() {
        let (mut sim, net) = setup();
        // Three delivered a->b, one partitioned a->b, two delivered b->a,
        // one lost c->d (loss 1.0 is deterministic), nothing on d->c.
        for _ in 0..3 {
            assert!(matches!(
                net.send(&mut sim, "a", "b", |_| {}),
                SendOutcome::Scheduled(_)
            ));
        }
        net.set_link_down("a", "b");
        assert_eq!(net.send(&mut sim, "a", "b", |_| {}), SendOutcome::Dropped);
        for _ in 0..2 {
            assert!(matches!(net.transmit("b", "a"), SendOutcome::Scheduled(_)));
        }
        net.set_link_loss("c", "d", 1.0);
        assert_eq!(net.transmit("c", "d"), SendOutcome::Dropped);

        let ab = net.link_stats("a", "b");
        assert_eq!((ab.delivered, ab.lost, ab.partitioned), (3, 0, 1));
        let ba = net.link_stats("b", "a");
        assert_eq!((ba.delivered, ba.lost, ba.partitioned), (2, 0, 0));
        let cd = net.link_stats("c", "d");
        assert_eq!((cd.delivered, cd.lost, cd.partitioned), (0, 1, 0));
        assert_eq!(net.link_stats("d", "c"), NetStats::default());

        // The per-link breakdown sums exactly to the aggregates.
        let all = net.link_stats_all();
        assert_eq!(all.len(), 3);
        let total = net.stats();
        assert_eq!(
            all.iter().map(|(_, s)| s.delivered).sum::<u64>(),
            total.delivered
        );
        assert_eq!(all.iter().map(|(_, s)| s.lost).sum::<u64>(), total.lost);
        assert_eq!(
            all.iter().map(|(_, s)| s.partitioned).sum::<u64>(),
            total.partitioned
        );

        // Node names that prefix each other (`a`, `ab`, `b`): pairs list
        // in (from, to) tuple order, and partitioning `a` leaves `ab`'s
        // own links alone.
        let (_sim, net) = setup();
        for (from, to) in [
            ("b", "a"),
            ("ab", "b"),
            ("a", "ab"),
            ("ab", "a"),
            ("a", "b"),
        ] {
            net.set_link(from, to, Link::default());
            assert!(matches!(net.transmit(from, to), SendOutcome::Scheduled(_)));
        }
        net.set_link_down("b", "ab");
        let order: Vec<(String, String)> =
            net.link_stats_all().into_iter().map(|(k, _)| k).collect();
        let pairs = [
            ("a", "ab"),
            ("a", "b"),
            ("ab", "a"),
            ("ab", "b"),
            ("b", "a"),
        ];
        assert_eq!(order, pairs.map(|(f, t)| (f.to_owned(), t.to_owned())));
        assert_eq!(net.link_stats("ab", "b").delivered, 1);
        assert_eq!(net.link_stats("b", "ab"), NetStats::default());
        assert_eq!(net.partition_node("a"), 4);
        assert!(!net.is_up("ab", "a") && !net.is_up("a", "ab") && !net.is_up("b", "a"));
        assert!(net.is_up("ab", "b") && !net.is_up("b", "ab"));
        assert_eq!(net.heal_node("a"), 4);
        assert_eq!(net.partition_node("ab"), 3);
        assert!(net.is_up("a", "b") && !net.is_up("ab", "b"));
        // Healing `ab` also lifts the link taken down by hand.
        assert_eq!(net.heal_node("ab"), 4);
        assert!(net.is_up("b", "ab"));
    }

    #[test]
    fn round_trip_needs_both_legs() {
        let (_sim, net) = setup();
        assert_eq!(net.round_trip("a", "b"), Some(SimDuration::from_millis(2)));
        // Ack leg down: the round trip fails even though the data leg
        // delivers (that delivery is still counted).
        net.set_link_down("b", "a");
        assert_eq!(net.round_trip("a", "b"), None);
        let s = net.stats();
        assert_eq!((s.delivered, s.partitioned), (3, 1));
    }
}
