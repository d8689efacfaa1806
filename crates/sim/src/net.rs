//! A point-to-point network abstraction with latency, loss, and partitions.
//!
//! The replication layer ships journal lines and acks over it, one
//! [`Network::transmit`] per leg, and fault plans take its links down,
//! spike their loss and partition its nodes.

use crate::latency::LatencyModel;
use crate::rng::SimRng;
use crate::time::SimDuration;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

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

/// Outcome of a [`Network::transmit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Message delivered after the returned latency.
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
pub struct Network {
    inner: RefCell<NetworkInner>,
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

impl Network {
    /// Creates a network where unspecified links use `default_link`.
    pub fn new(default_link: Link, seed: u64) -> Self {
        Network {
            inner: RefCell::new(NetworkInner {
                default_link,
                links: BTreeMap::new(),
                partitioned: BTreeSet::new(),
                rng: SimRng::seed_from_u64(seed),
                stats: NetStats::default(),
                link_stats: BTreeMap::new(),
            }),
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

    /// Attempts one message `from -> to`: a down link or a partitioned
    /// endpoint drops it, then the link's loss is drawn, then its latency
    /// is sampled, and the outcome is accounted in [`Network::stats`] and
    /// [`Network::link_stats`]. This is the building block for request/ack
    /// protocols driven on a virtual clock: the caller charges the
    /// returned latency itself and decides whether to retransmit on a
    /// dropped leg.
    pub fn transmit(&self, from: &str, to: &str) -> SendOutcome {
        let inner = &mut *self.inner.borrow_mut();
        let cut = inner.partitioned.contains(from) || inner.partitioned.contains(to);
        let per_link = pair_slot(&mut inner.link_stats, from, to, NetStats::default);
        let link = pair(&inner.links, from, to).unwrap_or(&inner.default_link);
        if !link.up || cut {
            inner.stats.partitioned += 1;
            per_link.partitioned += 1;
            return SendOutcome::Dropped;
        }
        if inner.rng.chance(link.loss) {
            inner.stats.lost += 1;
            per_link.lost += 1;
            return SendOutcome::Dropped;
        }
        let latency = link.latency.sample(&mut inner.rng);
        inner.stats.delivered += 1;
        per_link.delivered += 1;
        SendOutcome::Scheduled(latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Network {
        Network::new(Link::default(), 42)
    }

    /// The down link `from -> to`, configured from the default.
    fn down(net: &Network, from: &str, to: &str) {
        net.set_link(
            from,
            to,
            Link {
                up: false,
                ..Link::default()
            },
        );
    }

    #[test]
    fn delivery_takes_link_latency() {
        let net = setup();
        net.set_link(
            "a",
            "b",
            Link {
                latency: LatencyModel::fixed_ms(7),
                ..Link::default()
            },
        );
        let out = net.transmit("a", "b");
        assert_eq!(out, SendOutcome::Scheduled(SimDuration::from_millis(7)));
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn default_link_used_for_unknown_pairs() {
        let net = setup();
        let out = net.transmit("x", "y");
        assert_eq!(out, SendOutcome::Scheduled(SimDuration::from_millis(1)));
    }

    #[test]
    fn down_link_drops() {
        let net = setup();
        net.set_link_up("a", "b", false);
        let out = net.transmit("a", "b");
        assert_eq!(out, SendOutcome::Dropped);
        assert_eq!(net.stats().delivered, 0);
        assert_eq!(net.stats().partitioned, 1);
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let net = setup();
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
            if net.transmit("a", "b") == SendOutcome::Dropped {
                dropped += 1;
            }
        }
        assert!((350..650).contains(&dropped), "dropped {dropped}/1000");
        assert_eq!(net.stats().lost, dropped);
    }

    #[test]
    fn partition_and_heal() {
        let net = setup();
        net.set_link("a", "b", Link::default());
        net.set_link("b", "a", Link::default());
        net.set_link("a", "c", Link::default());
        assert_eq!(net.partition_node("a"), 3);
        assert_eq!(net.transmit("a", "b"), SendOutcome::Dropped);
        assert_eq!(net.heal_node("a"), 3);
        assert!(matches!(net.transmit("a", "b"), SendOutcome::Scheduled(_)));
        // Partitioning is idempotent.
        assert_eq!(net.heal_node("a"), 0);
    }

    #[test]
    fn partition_severs_unconfigured_pairs_too() {
        // Regression: `partition_node` used to flip only *configured*
        // links, so a partitioned node could still talk to a peer it had
        // never exchanged a configured link with (the pair fell back to
        // the default link, which was up). Partitions are node-level now.
        let net = setup();
        net.partition_node("a");
        assert_eq!(net.transmit("a", "z"), SendOutcome::Dropped);
        assert_eq!(net.transmit("z", "a"), SendOutcome::Dropped);
        assert!(!net.is_up("a", "z"));
        assert_eq!(net.stats().partitioned, 2);
        net.heal_node("a");
        assert!(net.is_up("a", "z"));
        assert!(matches!(net.transmit("a", "z"), SendOutcome::Scheduled(_)));
    }

    #[test]
    fn set_link_down_and_partition_account_identically() {
        let net = setup();
        // One drop on a down link, one via the partition helper: both
        // must land in the same `partitioned` counter.
        down(&net, "a", "b");
        assert_eq!(net.transmit("a", "b"), SendOutcome::Dropped);
        net.partition_node("c");
        assert_eq!(net.transmit("c", "d"), SendOutcome::Dropped);
        let s = net.stats();
        assert_eq!(s.partitioned, 2);
        assert_eq!(s.lost, 0);
        assert_eq!(s.delivered, 0);
    }

    #[test]
    fn per_link_stats_attribute_every_attempt_exactly() {
        let net = setup();
        // Three delivered a->b, one partitioned a->b, two delivered b->a,
        // one lost c->d (loss 1.0 is deterministic), nothing on d->c.
        for _ in 0..3 {
            assert!(matches!(net.transmit("a", "b"), SendOutcome::Scheduled(_)));
        }
        down(&net, "a", "b");
        assert_eq!(net.transmit("a", "b"), SendOutcome::Dropped);
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
        let net = setup();
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
        down(&net, "b", "ab");
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
}
