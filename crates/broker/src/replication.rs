//! Replicated models@runtime: journal shipping to a model-defined replica
//! set.
//!
//! The primary's write-ahead journal (see [`crate::journal`]) already
//! captures every runtime-model mutation, so replication is journal
//! shipping: a [`QuorumReplicator`] on the primary streams journal lines
//! over the simulated [`Network`] to one [`Standby`] per peer the model's
//! `ReplicaSet` declares. Each standby applies every record into its own
//! runtime model through the journal's one applier — the code
//! [`journal::replay`] recovers with — *and* keeps a byte-for-byte mirror
//! of the journal, so promotion is just the normal crash-recovery path
//! ([`GenericBroker::recover`]) run over the mirrored bytes.
//!
//! A hot standby is the smallest replica set: one peer with quorum 2. A
//! record commits once the primary and its standby both hold it, so
//! [`QuorumReplicator::quorum_synced`] and [`QuorumReplicator::synced`]
//! coincide. Larger sets commit at the quorum-th largest acknowledged LSN
//! and survive any minority failure.
//!
//! Every peer has its own go-back-N lane with a cumulative ack: the
//! standby acknowledges the count of contiguous lines received, and the
//! primary retransmits from that cursor after an ack timeout. A lane never
//! re-sends a line below its peer's ack. The primary's outbox is indexed by
//! sequence number and keeps the full history, for
//! [`QuorumReplicator::reset_peer`]; a lane ships the slice from its cursor
//! to its window end, so a tick costs O(lines ingested + lines shipped)
//! whatever the history length. Two model-declared disciplines
//! ([`ShipMode`]) share the machinery:
//!
//! * `Async` — ship everything pending each tick, best effort. The
//!   primary commits locally without waiting, so records not yet
//!   acknowledged at failover are lost.
//! * `AckWindowed` — at most `windowRecords` unacknowledged lines in
//!   flight; the caller gates commit on
//!   [`QuorumReplicator::quorum_synced`], so a committed update is by
//!   construction on a quorum of nodes.
//!
//! Split brain is prevented by *epoch fencing*: promotion appends a
//! journaled epoch record, and a standby (or the promoted primary)
//! refuses shipped records from an older epoch with the typed
//! [`BrokerError::StaleEpoch`]. A healed stale primary is reconciled by
//! diffing the two journals and replaying the authoritative suffix
//! through recovery ([`reconcile`]). A damaged journal is healed from the
//! freshest peer's mirror ([`recover_with_quorum`]) when [`repair_needed`],
//! the one test of whether a journal lost something a mirror holds, says
//! so.

use crate::engine::{GenericBroker, RecoveryReport};
use crate::journal::{self, Applier, Recovered, Touched};
use crate::monitor::{MonitorSet, MonitorTrip};
use crate::state::StateManager;
use crate::{BrokerError, Result};
use mddsm_meta::model::Model;
use mddsm_sim::net::{Network, SendOutcome};
use mddsm_sim::resource::ResourceHub;
use mddsm_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::ops::Range;

/// Journal-shipping discipline of one replica-set lane (the `ShipMode`
/// enumeration of the Fig. 6 metamodel extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipMode {
    /// Best-effort: ship everything pending, commit without waiting.
    Async,
    /// Windowed with retransmission: commit implies replicated.
    AckWindowed,
}

/// One member of a model-defined replica set: the node it listens on and
/// its private shipping lane parameters (peers may mix disciplines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaPeer {
    /// Simulated-network node the replica listens on.
    pub node: String,
    /// Shipping discipline of this peer's lane.
    pub mode: ShipMode,
    /// `AckWindowed`: max unacknowledged journal lines in flight.
    pub window_records: u64,
    /// Virtual time before this lane's unacked batch is retransmitted.
    pub ack_timeout: SimDuration,
}

/// Compiled parameters of a broker model's `ReplicaSet` component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSetConfig {
    /// Nodes — counting the primary itself — that must hold a journal
    /// record before it is quorum-committed.
    pub quorum: u64,
    /// The peers, in model order.
    pub peers: Vec<ReplicaPeer>,
}

impl ReplicaSetConfig {
    /// Compiles the `ReplicaSet` of a broker model; `None` when the model
    /// declares no replica set. A declared quorum of 0 computes a
    /// majority of the total node count (peers + primary); an explicit
    /// quorum outside `1..=total` or a duplicate peer node is refused as
    /// an invalid model.
    pub fn from_model(model: &Model) -> Result<Option<Self>> {
        let Some(&mgr) = model.all_of_class("ReplicaSet").first() else {
            return Ok(None);
        };
        let mut peers = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for &r in model.refs(mgr, "replicas") {
            let node = model
                .attr_str(r, "node")
                .ok_or_else(|| BrokerError::InvalidModel("ReplicaNode needs a node name".into()))?
                .to_owned();
            if !seen.insert(node.clone()) {
                return Err(BrokerError::InvalidModel(format!(
                    "ReplicaSet declares node `{node}` twice"
                )));
            }
            let mode = match model.attr(r, "mode").and_then(|v| v.as_enum_literal()) {
                Some("Async") => ShipMode::Async,
                Some("AckWindowed") => ShipMode::AckWindowed,
                other => {
                    return Err(BrokerError::InvalidModel(format!(
                        "ReplicaNode `{node}` has bad mode {other:?}"
                    )))
                }
            };
            let int = |name: &str, default: i64| model.attr_int(r, name).unwrap_or(default).max(0);
            peers.push(ReplicaPeer {
                node,
                mode,
                window_records: int("windowRecords", 32) as u64,
                ack_timeout: SimDuration::from_micros(int("ackTimeoutUs", 10_000) as u64),
            });
        }
        if peers.is_empty() {
            return Err(BrokerError::InvalidModel(
                "ReplicaSet needs at least one replica".into(),
            ));
        }
        let total = peers.len() as u64 + 1;
        let declared = model.attr_int(mgr, "quorum").unwrap_or(0).max(0) as u64;
        let quorum = if declared == 0 {
            total / 2 + 1
        } else {
            declared
        };
        if quorum < 1 || quorum > total {
            return Err(BrokerError::InvalidModel(format!(
                "ReplicaSet quorum {quorum} is outside 1..={total}"
            )));
        }
        Ok(Some(ReplicaSetConfig { quorum, peers }))
    }
}

/// Per-peer shipping lane of a [`QuorumReplicator`]: the go-back-N
/// cursors of one peer, independent of every other lane.
#[derive(Debug)]
struct PeerLane {
    cfg: ReplicaPeer,
    acked_seq: u64,
    shipped_high: u64,
    ever_shipped: u64,
    last_ship: Option<SimTime>,
    acked_lsn: u64,
    retransmit_events: u64,
    fenced_count: u64,
}

impl PeerLane {
    fn new(cfg: ReplicaPeer) -> Self {
        PeerLane {
            cfg,
            acked_seq: 0,
            shipped_high: 0,
            ever_shipped: 0,
            last_ship: None,
            acked_lsn: 0,
            retransmit_events: 0,
            fenced_count: 0,
        }
    }
}

/// What one [`QuorumReplicator::tick`] did, summed over every lane.
#[derive(Debug, Clone, Default)]
pub struct QuorumShipReport {
    /// Journal lines attempted on any wire this tick.
    pub shipped: u64,
    /// Lines newly covered by some peer's cumulative ack.
    pub newly_acked: u64,
    /// Attempts that re-sent a line a lane had shipped before.
    pub retransmitted: u64,
    /// Virtual link time all legs consumed (the caller charges it).
    pub latency: SimDuration,
    /// Lanes whose receiver fenced us this tick (stale epoch).
    pub fenced: u64,
    /// Quorum commit LSN after the tick.
    pub commit_lsn: u64,
}

/// The primary-side engine of a model-defined replica *set*: ships the
/// journal go-back-N to each peer over its own independent lane and
/// advances a **quorum commit LSN** — the quorum-th largest of the
/// per-node durable LSNs, counting the primary's own journal head. A
/// record at or below the commit LSN is held by at least `quorum` nodes,
/// so it survives any minority failure.
///
/// The outbox is indexed by sequence number and keeps the *full* shipped
/// history (lines are never popped on ack), so a peer that lost its mirror
/// can be re-shipped from sequence 0 with [`QuorumReplicator::reset_peer`].
/// Each lane ships the outbox slice from its cursor to its window end, so
/// a [`QuorumReplicator::tick`] costs O(lines ingested + lines shipped)
/// whatever the length of the retained history.
#[derive(Debug)]
pub struct QuorumReplicator {
    cfg: ReplicaSetConfig,
    node: String,
    /// Bytes of the primary journal already ingested into the outbox.
    read_offset: usize,
    /// Full shipped history, indexed by sequence number: `outbox[seq] =
    /// (state LSN, the line's bytes in outbox_text)`. Never trimmed; its
    /// length is the next sequence number to assign.
    outbox: Vec<(Option<u64>, Range<usize>)>,
    /// Every ingested line back to back, newlines stripped: one buffer
    /// for the whole history instead of one string per line.
    outbox_text: String,
    /// Newest state LSN the primary's own journal holds.
    head_lsn: u64,
    lanes: Vec<PeerLane>,
    /// Monotone quorum commit point.
    commit_lsn: u64,
}

impl QuorumReplicator {
    /// Creates a quorum replicator for a primary on network node `node`.
    pub fn new(cfg: ReplicaSetConfig, node: &str) -> Self {
        let lanes = cfg.peers.iter().cloned().map(PeerLane::new).collect();
        QuorumReplicator {
            cfg,
            node: node.to_owned(),
            read_offset: 0,
            outbox: Vec::new(),
            outbox_text: String::new(),
            head_lsn: 0,
            lanes,
            commit_lsn: 0,
        }
    }

    /// Compiles the model's `ReplicaSet` and builds the replicator;
    /// `None` when the model declares no replica set.
    pub fn from_model(model: &Model, node: &str) -> Result<Option<Self>> {
        Ok(ReplicaSetConfig::from_model(model)?.map(|cfg| Self::new(cfg, node)))
    }

    /// The compiled configuration.
    pub fn config(&self) -> &ReplicaSetConfig {
        &self.cfg
    }

    /// Declared quorum (nodes, counting the primary).
    pub fn quorum(&self) -> u64 {
        self.cfg.quorum
    }

    /// The quorum commit LSN: every state mutation at or below it is held
    /// by at least `quorum` nodes. Monotone.
    pub fn commit_lsn(&self) -> u64 {
        self.commit_lsn
    }

    /// Sequence number the next ingested journal line gets.
    fn next_seq(&self) -> u64 {
        self.outbox.len() as u64
    }

    /// Journal lines enqueued but unacked, summed over every lane.
    pub fn lag(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| self.next_seq().saturating_sub(l.acked_seq))
            .sum()
    }

    /// `true` once *every* peer acknowledged every ingested line.
    pub fn synced(&self) -> bool {
        self.lanes.iter().all(|l| l.acked_seq >= self.next_seq())
    }

    /// `true` once enough peers acknowledged everything that the whole
    /// journal is quorum-committed (the primary counts as one holder).
    pub fn quorum_synced(&self) -> bool {
        let holders = 1 + self
            .lanes
            .iter()
            .filter(|l| l.acked_seq >= self.next_seq())
            .count() as u64;
        holders >= self.cfg.quorum
    }

    /// Newest state LSN known applied on `node` (0 for unknown peers).
    pub fn acked_lsn(&self, node: &str) -> u64 {
        self.lanes
            .iter()
            .find(|l| l.cfg.node == node)
            .map_or(0, |l| l.acked_lsn)
    }

    /// Ack-timeout go-back events, summed over every lane.
    pub fn retransmits(&self) -> u64 {
        self.lanes.iter().map(|l| l.retransmit_events).sum()
    }

    /// Times any receiver refused this primary as stale.
    pub fn fenced(&self) -> u64 {
        self.lanes.iter().map(|l| l.fenced_count).sum()
    }

    /// Peer nodes, in model order.
    pub fn peer_nodes(&self) -> Vec<&str> {
        self.lanes.iter().map(|l| l.cfg.node.as_str()).collect()
    }

    /// Rewinds a peer's lane to sequence 0 so the full retained history
    /// is re-shipped — the revival path for a replica that lost its
    /// mirror. Returns `false` for an unknown node. The commit LSN is
    /// monotone and unaffected by the rewind.
    pub fn reset_peer(&mut self, node: &str) -> bool {
        match self.lanes.iter_mut().find(|l| l.cfg.node == node) {
            Some(lane) => {
                lane.acked_seq = 0;
                lane.shipped_high = 0;
                lane.last_ship = None;
                lane.acked_lsn = 0;
                true
            }
            None => false,
        }
    }

    /// Adds (or replaces) a peer lane — the rejoin path for a healed
    /// ex-primary entering the set as a replica. The new lane starts at
    /// sequence 0; pair with a standby rebuilt from a current mirror
    /// ([`Standby::from_mirror`]) or let the re-ack sync the cursor.
    pub fn add_peer(&mut self, cfg: ReplicaPeer) {
        self.lanes.retain(|l| l.cfg.node != cfg.node);
        self.cfg.peers.retain(|p| p.node != cfg.node);
        self.cfg.peers.push(cfg.clone());
        self.lanes.push(PeerLane::new(cfg));
    }

    /// One shipping cycle at virtual instant `now` under fencing epoch
    /// `epoch`: ingests new journal bytes, then runs each lane's
    /// go-back-N independently — ack timeout, window, wire legs, and
    /// cumulative ack per peer — and advances the quorum commit LSN.
    ///
    /// `peers` holds the standbys currently reachable *in-process*; a
    /// lane whose node has no standby in the slice is simply skipped
    /// (the node is down — its lane retries next tick). A lane fenced by
    /// its receiver is counted and **does not** stop the other lanes.
    ///
    /// A journal shorter than the bytes already ingested (say, one a
    /// recovery cut back to its intact prefix) is refused with
    /// [`BrokerError::JournalBehindCursor`] before anything changes.
    pub fn tick(
        &mut self,
        now: SimTime,
        epoch: u64,
        net: &Network,
        journal_bytes: &[u8],
        peers: &mut [&mut Standby],
    ) -> Result<QuorumShipReport> {
        self.ingest(journal_bytes)?;
        let mut report = QuorumShipReport::default();
        let next_seq = self.next_seq();
        let QuorumReplicator {
            node,
            lanes,
            outbox,
            outbox_text,
            ..
        } = self;

        for lane in lanes.iter_mut() {
            let Some(standby) = peers.iter_mut().find(|s| s.node() == lane.cfg.node) else {
                continue;
            };
            // Ack timeout: go back to this lane's cumulative cursor.
            if lane.acked_seq < lane.shipped_high {
                if let Some(t) = lane.last_ship {
                    if now.since(t) >= lane.cfg.ack_timeout {
                        lane.shipped_high = lane.acked_seq;
                        lane.retransmit_events += 1;
                    }
                }
            }
            let window_end = match lane.cfg.mode {
                ShipMode::Async => next_seq,
                ShipMode::AckWindowed => lane.acked_seq + lane.cfg.window_records,
            }
            .min(next_seq);
            // Never re-send below the peer's cumulative ack: a replica
            // rebuilt from a mirror can ack past what this lane shipped.
            let from = lane.shipped_high.max(lane.acked_seq).min(window_end);

            for (seq, (_, bytes)) in (from..).zip(&outbox[from as usize..window_end as usize]) {
                let line = &outbox_text[bytes.clone()];
                if seq < lane.ever_shipped {
                    report.retransmitted += 1;
                }
                lane.shipped_high = seq + 1;
                lane.ever_shipped = lane.ever_shipped.max(lane.shipped_high);
                lane.last_ship = Some(now);
                report.shipped += 1;
                let SendOutcome::Scheduled(out) = net.transmit(node, &lane.cfg.node) else {
                    // Data leg dropped: the rest of this lane's batch
                    // would arrive as a gap — wait for the ack timeout.
                    break;
                };
                report.latency = report.latency.saturating_add(out);
                match standby.receive(seq, line, epoch) {
                    Err(BrokerError::StaleEpoch { .. }) => {
                        lane.fenced_count += 1;
                        report.fenced += 1;
                        break;
                    }
                    Err(e) => return Err(e),
                    Ok(received) => {
                        if let SendOutcome::Scheduled(back) = net.transmit(&lane.cfg.node, node) {
                            report.latency = report.latency.saturating_add(back);
                            // A survivor of an earlier primary can re-ack
                            // a cursor past this stream's head; cap it.
                            let received = received.min(next_seq);
                            if received > lane.acked_seq {
                                report.newly_acked += received - lane.acked_seq;
                                let acked = &outbox[lane.acked_seq as usize..received as usize];
                                for lsn in acked.iter().filter_map(|(lsn, _)| *lsn) {
                                    lane.acked_lsn = lane.acked_lsn.max(lsn);
                                }
                                lane.acked_seq = received;
                            }
                        }
                    }
                }
            }
        }

        self.update_commit();
        report.commit_lsn = self.commit_lsn;
        Ok(report)
    }

    /// Drops journal history below the **quorum commit point** — never
    /// below merely-acked LSNs a minority holds:
    /// [`GenericBroker::truncate_journal_to`] at the commit LSN, with the
    /// read cursor shifted to match the rewritten bytes. Returns the
    /// bytes reclaimed.
    pub fn truncate_primary(&mut self, broker: &mut GenericBroker) -> usize {
        let reclaimed = broker.truncate_journal_to(self.commit_lsn);
        self.read_offset = self.read_offset.saturating_sub(reclaimed);
        reclaimed
    }

    /// Recomputes the commit LSN: the quorum-th largest of the per-node
    /// durable LSNs (each lane's acked LSN, plus the primary's own
    /// journal head), kept monotone. That is the largest LSN at least
    /// `quorum` nodes reach; a replica set has a handful of nodes, so
    /// counting for each candidate beats sorting a fresh copy every tick.
    fn update_commit(&mut self) {
        let held = || {
            self.lanes
                .iter()
                .map(|l| l.acked_lsn)
                .chain([self.head_lsn])
        };
        let q = self.cfg.quorum as usize;
        let at_quorum = held()
            .filter(|&lsn| held().filter(|&h| h >= lsn).count() >= q)
            .max();
        if let Some(lsn) = at_quorum.filter(|_| q >= 1) {
            self.commit_lsn = self.commit_lsn.max(lsn);
        }
    }

    /// Ingests complete journal lines appended since the last tick. The
    /// cursor moves past a line only once it decoded, so a refused line
    /// is read again, and refused again, by every later tick until the
    /// caller repairs the journal.
    fn ingest(&mut self, journal_bytes: &[u8]) -> Result<()> {
        let Some(mut pending) = journal_bytes.get(self.read_offset..) else {
            return Err(BrokerError::JournalBehindCursor {
                cursor: self.read_offset as u64,
                len: journal_bytes.len() as u64,
            });
        };
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line = std::str::from_utf8(&pending[..nl])
                .map_err(|e| BrokerError::RecoveryDiverged(format!("journal is not UTF-8: {e}")))?;
            if !line.is_empty() {
                // Decoding checks the CRC and the record's structure, so a
                // damaged primary journal is refused before anything ships.
                let lsn = journal::parse_line(line)?.lsn();
                if let Some(lsn) = lsn {
                    self.head_lsn = self.head_lsn.max(lsn);
                }
                let start = self.outbox_text.len();
                self.outbox_text.push_str(line);
                self.outbox.push((lsn, start..self.outbox_text.len()));
            }
            self.read_offset += nl + 1;
            pending = &pending[nl + 1..];
        }
        Ok(())
    }
}

/// The hot standby: applies shipped journal records into its own runtime
/// model as they arrive and mirrors the journal bytes, so promotion is
/// the ordinary recovery path over the mirror. Tracks the fencing epoch
/// and refuses records shipped under an older one.
#[derive(Debug)]
pub struct Standby {
    node: String,
    bytes: Vec<u8>,
    received: u64,
    /// The runtime model the applied records rebuilt, with the fencing
    /// epoch and the model version the primary most recently shipped a
    /// cutover for — so failover mid-upgrade promotes under one
    /// consistent version.
    model: Applier,
    /// Monitors evaluated against every applied record; `None` until
    /// [`Standby::arm_monitors`].
    monitors: Option<MonitorSet>,
    /// Observer-side monitor memory. The mirror must stay byte-identical
    /// to the primary's journal, so observation writes its latches and
    /// `at-most-one` cells here, never into the mirrored state.
    monitor_memory: BTreeMap<String, String>,
    monitor_trips: Vec<MonitorTrip>,
}

impl Standby {
    /// Creates an empty standby on network node `node` (epoch 1, like a
    /// fresh primary).
    pub fn new(node: &str) -> Self {
        Standby {
            node: node.to_owned(),
            bytes: Vec::new(),
            received: 0,
            model: Applier::default(),
            monitors: None,
            monitor_memory: BTreeMap::new(),
            monitor_trips: Vec::new(),
        }
    }

    /// Rebuilds a standby on node `node` by replaying a journal mirror
    /// line-by-line through the ordinary [`Standby::receive`] path, then
    /// fencing it at `epoch`. This is how a revived replica, a
    /// re-parented survivor, or a healed ex-primary re-enters a replica
    /// set: the rebuilt standby's mirror is byte-identical to `bytes` and
    /// its applied state matches a recovery over them.
    pub fn from_mirror(node: &str, bytes: &[u8], epoch: u64) -> Result<Self> {
        let mut sb = Standby::new(node);
        for raw in bytes.split_inclusive(|&b| b == b'\n') {
            let body = raw.strip_suffix(b"\n").unwrap_or(raw);
            if body.is_empty() {
                continue;
            }
            let line = std::str::from_utf8(body)
                .map_err(|e| BrokerError::RecoveryDiverged(format!("mirror is not UTF-8: {e}")))?;
            // Pass the standby's *current* epoch so embedded Epoch
            // records (which raise it) keep the replay admissible.
            let (seq, e) = (sb.received, sb.epoch());
            sb.receive(seq, line, e)?;
        }
        sb.fence(epoch);
        Ok(sb)
    }

    /// Runtime-model version the primary most recently shipped a cutover
    /// for (1 until any upgrade arrives).
    pub fn model_version(&self) -> u64 {
        self.model.model_version
    }

    /// Arms in-stream monitors over the apply path: from here on every
    /// shipped record is checked as it is applied, with the same compiled
    /// monitors (and therefore the same verdicts) as the primary — an
    /// independent observer that catches a divergent primary even when
    /// the primary's own monitoring is off or compromised.
    pub fn arm_monitors(&mut self, monitors: MonitorSet) {
        self.monitors = Some(monitors);
    }

    /// Trips this standby observed while applying shipped records.
    pub fn monitor_trips(&self) -> &[MonitorTrip] {
        &self.monitor_trips
    }

    /// Clears the observer's tripped latches (after the primary repaired
    /// or rolled back the violation) so monitoring resumes.
    pub fn clear_monitor_trips(&mut self) {
        if let Some(m) = &self.monitors {
            m.clear_observed_trips(&mut self.monitor_memory);
        }
        self.monitor_trips.clear();
    }

    /// The network node this standby listens on.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Contiguous journal lines received so far (the cumulative ack).
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Fencing epoch this standby currently honors.
    pub fn epoch(&self) -> u64 {
        self.model.epoch
    }

    /// The mirrored journal bytes.
    pub fn journal_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The standby's live runtime model (continuously applied).
    pub fn state(&self) -> &StateManager {
        &self.model.state
    }

    /// Newest state LSN applied into the standby's runtime model.
    pub fn applied_lsn(&self) -> u64 {
        self.model.state.version()
    }

    /// Raises the standby's fencing epoch without promoting it — used by
    /// a promoted broker that keeps its `Standby` shell around purely to
    /// fence reconnecting stale primaries.
    pub fn fence(&mut self, epoch: u64) {
        self.model.epoch = self.model.epoch.max(epoch);
    }

    /// Receives one shipped journal line. Enforces, in order:
    ///
    /// 1. **Epoch fence** — a line shipped under `epoch` older than ours
    ///    is refused with [`BrokerError::StaleEpoch`] (split-brain
    ///    protection); a *newer* epoch is adopted.
    /// 2. **Sequencing** — a duplicate (`seq` below the cursor) is
    ///    dropped, a gap (`seq` above it) is not applied; both just
    ///    re-ack the cursor so the primary goes back.
    /// 3. **Application** — the record is parsed and applied into the
    ///    standby's runtime model by the applier [`journal::replay`]
    ///    uses, and the line is appended to the journal mirror. A record
    ///    the applier refuses changes nothing and is not acknowledged.
    ///
    /// Returns the cumulative ack: the contiguous line count received.
    pub fn receive(&mut self, seq: u64, line: &str, epoch: u64) -> Result<u64> {
        if epoch < self.model.epoch {
            return Err(BrokerError::StaleEpoch {
                got: epoch,
                current: self.model.epoch,
            });
        }
        self.model.epoch = epoch;
        if seq != self.received {
            return Ok(self.received);
        }
        let record = journal::parse_line(line)?;
        let touched = self.model.apply(&record)?;
        if let Some(monitors) = &self.monitors {
            // A snapshot restore or an upgrade's migrations can change
            // anything, so they re-check the full watched set.
            let watched;
            let dirty: Vec<&str> = match touched {
                Touched::Nothing => Vec::new(),
                Touched::Key(k) => vec![k],
                Touched::Any => {
                    watched = monitors.watched_keys();
                    watched.iter().map(String::as_str).collect()
                }
            };
            let trips =
                monitors.check_observed(&self.model.state, &dirty, &mut self.monitor_memory);
            self.monitor_trips.extend(trips);
        }
        self.bytes.extend_from_slice(line.as_bytes());
        self.bytes.push(b'\n');
        self.received += 1;
        Ok(self.received)
    }

    /// Promotes the standby to primary under fencing epoch `epoch`: runs
    /// the ordinary recovery path over the journal mirror, then journals
    /// the epoch fence on the new primary so stale-epoch refusal survives
    /// *its* crashes too. The standby keeps its raised epoch and can stay
    /// behind as a fence for reconnecting stale primaries.
    pub fn promote(
        &mut self,
        epoch: u64,
        model: &Model,
        hub: ResourceHub,
        invariants: &[&str],
    ) -> Result<(GenericBroker, RecoveryReport)> {
        let (mut broker, report) = GenericBroker::recover(model, hub, &self.bytes, invariants)?;
        self.fence(epoch);
        broker.adopt_epoch(self.epoch());
        Ok((broker, report))
    }
}

/// Both journals split into lines (newline included), and how many
/// leading lines they share — where two histories diverge.
fn common_lines<'a>(a: &'a [u8], b: &'a [u8]) -> (Vec<&'a [u8]>, Vec<&'a [u8]>, usize) {
    let a: Vec<&[u8]> = a.split_inclusive(|&c| c == b'\n').collect();
    let b: Vec<&[u8]> = b.split_inclusive(|&c| c == b'\n').collect();
    let common = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
    (a, b, common)
}

/// What [`reconcile`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Journal lines the two histories share (longest common prefix).
    pub common_lines: usize,
    /// Stale-side suffix lines discarded (writes a fenced primary made
    /// after the histories diverged — the "committed but lost" set when
    /// the stale side had acked them to clients).
    pub discarded_stale_lines: usize,
    /// Authoritative-side suffix lines replayed past the common prefix.
    pub replayed_lines: usize,
    /// Node whose journal served as the authoritative history.
    pub source_node: String,
}

/// Reconciles a healed stale primary with the authoritative history: the
/// journals are diffed line-by-line to find the divergence point, the
/// stale suffix is discarded, and a fresh broker is rebuilt from the
/// *authoritative* journal through the normal recovery path (snapshot +
/// LSN-checked replay + invariants). The rebuilt runtime model is
/// cross-checked against an independent replay with
/// [`StateManager::first_divergence`] before it is handed back.
/// `source_node` names the node the authoritative journal came from and
/// is reported verbatim in [`ReconcileReport::source_node`].
pub fn reconcile(
    authoritative: &[u8],
    stale: &[u8],
    source_node: &str,
    model: &Model,
    hub: ResourceHub,
    invariants: &[&str],
) -> Result<(GenericBroker, ReconcileReport)> {
    let (a_lines, s_lines, common) = common_lines(authoritative, stale);
    let (broker, _report) = GenericBroker::recover(model, hub, authoritative, invariants)?;
    let independent = journal::replay(authoritative)?;
    if let Some(d) = broker.state().first_divergence(&independent.state) {
        return Err(BrokerError::RecoveryDiverged(format!(
            "reconciled model disagrees with journal replay: {d}"
        )));
    }
    Ok((
        broker,
        ReconcileReport {
            common_lines: common,
            discarded_stale_lines: s_lines.len() - common,
            replayed_lines: a_lines.len() - common,
            source_node: source_node.to_owned(),
        },
    ))
}

/// What [`repair_journal`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRepair {
    /// Journal lines the damaged local copy and the mirror share (longest
    /// common prefix).
    pub common_lines: usize,
    /// Mirror lines fetched past the common prefix — the anti-entropy
    /// transfer that replaced the damaged region.
    pub fetched_lines: usize,
    /// Readable local lines past the mirror's head that were kept (writes
    /// appended after the last ship, which the mirror never saw).
    pub kept_tail_lines: usize,
    /// Size of the healed journal (bytes).
    pub healed_bytes: usize,
    /// Node whose mirror served as the repair source.
    pub source_node: String,
}

/// Anti-entropy repair of a damaged journal from a standby's mirror.
///
/// The mirror is a byte-for-byte copy of every shipped line, so healing
/// is the [`reconcile`] diff run the other way around: the damaged local
/// journal and the mirror are diffed line-by-line to the divergence
/// point, the mirror is taken as authoritative from there (it holds the
/// records the disk gave back wrong — the missing LSN range), and any
/// *readable* local lines beyond the mirror's head (appends the primary
/// made after its last ship) are kept, stopping at the first unreadable
/// one — that suffix is the torn garbage the tail policy would drop
/// anyway. The healed journal must then replay cleanly end-to-end
/// ([`journal::replay`]); if it does not — the damage extends past what
/// the mirror covers — the error propagates and the caller falls back to
/// quarantine.
pub fn repair_journal(local: &[u8], standby: &Standby) -> Result<(Vec<u8>, JournalRepair)> {
    let mirror = standby.journal_bytes();
    if mirror.is_empty() {
        return Err(BrokerError::RecoveryDiverged(
            "anti-entropy repair needs a standby mirror, but the mirror is empty".to_owned(),
        ));
    }
    let (m_lines, l_lines, common) = common_lines(mirror, local);
    let mut healed = mirror.to_vec();
    let mut kept_tail_lines = 0usize;
    for raw in l_lines.iter().skip(m_lines.len()) {
        let Some(line) = raw
            .strip_suffix(b"\n")
            .and_then(|b| std::str::from_utf8(b).ok())
        else {
            break;
        };
        if journal::parse_line(line).is_err() {
            break;
        }
        healed.extend_from_slice(raw);
        kept_tail_lines += 1;
    }
    let replayed = journal::replay(&healed)?;
    if replayed.torn.is_some() {
        return Err(BrokerError::RecoveryDiverged(
            "anti-entropy repair left a torn tail — mirror does not cover the damage".to_owned(),
        ));
    }
    let report = JournalRepair {
        common_lines: common,
        fetched_lines: m_lines.len() - common,
        kept_tail_lines,
        healed_bytes: healed.len(),
        source_node: standby.node().to_owned(),
    };
    Ok((healed, report))
}

/// Picks the freshest anti-entropy source from a replica set: the
/// standby with the largest applied LSN, ties broken by the longest
/// mirror (most lines received), then by slice order — deterministic, so
/// every node polls the same schedule to the same answer. `None` for an
/// empty candidate slice.
pub fn select_repair_source<'a>(candidates: &[&'a Standby]) -> Option<&'a Standby> {
    let mut best: Option<&'a Standby> = None;
    for &c in candidates {
        let better = match best {
            None => true,
            Some(b) => {
                c.applied_lsn() > b.applied_lsn()
                    || (c.applied_lsn() == b.applied_lsn() && c.received() > b.received())
            }
        };
        if better {
            best = Some(c);
        }
    }
    best
}

/// Why `journal_bytes` must be healed from `source`'s mirror before
/// recovery, or `None` when plain recovery loses nothing the mirror holds.
/// `replayed` is [`journal::replay`] of `journal_bytes`. Repair is needed
/// on:
///
/// * interior [`BrokerError::JournalDamaged`] — bit-rot the mirror can
///   replace;
/// * a torn tail that cut below what the source already applied
///   (acknowledged records must never be lost);
/// * a mirror that extends past the local journal's intact prefix — a
///   *clean* tail loss (unsynced writes dropped by a power cut) leaves no
///   torn marker and may drop only command records (which carry no LSN),
///   so it is only visible by comparing against the mirror.
pub fn repair_needed(
    journal_bytes: &[u8],
    replayed: &Result<Recovered>,
    source: &Standby,
) -> Option<String> {
    match replayed {
        Err(BrokerError::JournalDamaged { lsn, offset, why }) => Some(format!(
            "journal damaged at lsn {lsn}, byte {offset}: {why}"
        )),
        Err(e) => Some(e.to_string()),
        Ok(r) => {
            let intact = match &r.torn {
                Some(t) => &journal_bytes[..t.offset as usize],
                None => journal_bytes,
            };
            let mirror = source.journal_bytes();
            let lost = (mirror.len() > intact.len() && mirror.starts_with(intact))
                || r.state.version() < source.applied_lsn();
            lost.then(|| "acknowledged records missing from the journal tail".to_owned())
        }
    }
}

/// Recovery with the anti-entropy fallback over a replica set: the
/// freshest reachable peer ([`select_repair_source`]) is the repair
/// source. Ordinary [`GenericBroker::recover`] runs when
/// [`repair_needed`] finds nothing to heal; otherwise the journal is first
/// healed from the source's mirror with [`repair_journal`] and recovery
/// runs over the healed bytes.
///
/// The repair provenance is journaled as a `Note` on the recovered
/// instance. A hot standby passes its one standby. Errs when `peers` is
/// empty — with no mirror in reach, the caller falls back to plain
/// recovery or quarantine.
pub fn recover_with_quorum(
    model: &Model,
    hub: ResourceHub,
    journal_bytes: &[u8],
    invariants: &[&str],
    peers: &[&Standby],
) -> Result<(GenericBroker, RecoveryReport, Option<JournalRepair>)> {
    let source = select_repair_source(peers).ok_or_else(|| {
        BrokerError::RecoveryDiverged(
            "quorum recovery needs at least one reachable replica mirror".to_owned(),
        )
    })?;
    if repair_needed(journal_bytes, &journal::replay(journal_bytes), source).is_none() {
        let (broker, report) = GenericBroker::recover(model, hub, journal_bytes, invariants)?;
        return Ok((broker, report, None));
    }
    let (healed, repair) = repair_journal(journal_bytes, source)?;
    let (mut broker, report) = GenericBroker::recover(model, hub, &healed, invariants)?;
    broker.journal_note(&format!(
        "anti-entropy repair from standby {}: {} common line(s), {} fetched, {} kept from tail",
        source.node(),
        repair.common_lines,
        repair.fetched_lines,
        repair.kept_tail_lines
    ));
    Ok((broker, report, Some(repair)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalRecord;
    use crate::model::BrokerModelBuilder;
    use crate::state::StateOp;
    use mddsm_sim::net::Link;
    use mddsm_sim::resource::{args, Outcome};

    const SNAPSHOT_EVERY: u64 = 8;

    fn hub() -> ResourceHub {
        let mut h = ResourceHub::new(7);
        h.register_fn("sim.ctr", |_, _| Outcome::ok());
        h
    }

    /// The counter model, replicated to `lanes` under `quorum`.
    fn replicated(quorum: u64, lanes: &[(&str, &str, u64, u64)]) -> Model {
        BrokerModelBuilder::new("rep")
            .call_handler("inc", "inc")
            .action("inc", "doInc", "ctr", "inc", &[], None, &["count=+1"])
            .bind_resource("ctr", "sim.ctr")
            .replica_set(quorum, lanes)
            .build()
    }

    /// A replica set over `peers`, every lane ack-windowed (window 4).
    fn quorum_model(quorum: u64, peers: &[&str]) -> Model {
        let lanes: Vec<(&str, &str, u64, u64)> = peers
            .iter()
            .map(|n| (*n, "AckWindowed", 4, 5_000))
            .collect();
        replicated(quorum, &lanes)
    }

    /// A hot standby: the one-peer set `b` with quorum 2.
    fn model() -> Model {
        quorum_model(2, &["b"])
    }

    fn net() -> Network {
        Network::new(Link::default(), 99)
    }

    fn primary(m: &Model) -> GenericBroker {
        let mut b = GenericBroker::from_model(m, hub()).unwrap();
        b.enable_journal(SNAPSHOT_EVERY);
        b
    }

    /// Ships until every peer is synced or `rounds` timeouts elapse.
    fn drain(
        rep: &mut QuorumReplicator,
        net: &Network,
        broker: &GenericBroker,
        peers: &mut [&mut Standby],
        rounds: u32,
    ) {
        let step = SimDuration::from_micros(5_000);
        let mut now = SimTime::ZERO;
        for _ in 0..rounds {
            let bytes = broker.journal_bytes().unwrap();
            rep.tick(now, broker.epoch(), net, bytes, peers).unwrap();
            if rep.synced() {
                return;
            }
            now = now + step;
        }
    }

    #[test]
    fn journal_ships_and_the_standby_tracks_the_primary() {
        let m = model();
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let mut standby = Standby::new("b");
        let net = net();

        for _ in 0..10 {
            broker.call("inc", &args(&[])).unwrap();
            drain(&mut rep, &net, &broker, &mut [&mut standby], 4);
        }
        // One peer under quorum 2: synced and quorum-synced coincide.
        assert!(rep.synced() && rep.quorum_synced());
        assert_eq!(rep.quorum(), 2);
        assert_eq!(rep.lag(), 0);
        // The standby's live model matches the primary's, and the mirror
        // is byte-identical — promotion would recover exactly this state.
        assert_eq!(
            broker.state().first_divergence(standby.state()),
            None,
            "standby diverged"
        );
        assert_eq!(standby.journal_bytes(), broker.journal_bytes().unwrap());
        assert_eq!(rep.acked_lsn("b"), broker.state().version());
        assert_eq!(rep.commit_lsn(), broker.state().version());
        assert_eq!(standby.state().int("count"), Some(10));
    }

    #[test]
    fn lossy_links_retransmit_until_the_standby_converges() {
        let m = model();
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let mut standby = Standby::new("b");
        let net = net();
        net.set_link_loss("a", "b", 0.5);
        net.set_link_loss("b", "a", 0.5);

        for _ in 0..20 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut standby], 400);
        assert!(rep.synced(), "never converged under loss");
        assert!(rep.retransmits() > 0, "0.5 loss must force retransmission");
        assert_eq!(broker.state().first_divergence(standby.state()), None);
        assert_eq!(standby.journal_bytes(), broker.journal_bytes().unwrap());
    }

    #[test]
    fn the_ack_window_bounds_what_goes_on_the_wire() {
        let m = model();
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let mut standby = Standby::new("b");
        let net = net();
        net.partition_node("b");

        for _ in 0..20 {
            broker.call("inc", &args(&[])).unwrap();
        }
        let window = rep.config().peers[0].window_records;
        let bytes = broker.journal_bytes().unwrap().to_vec();
        let r = rep
            .tick(SimTime::ZERO, 1, &net, &bytes, &mut [&mut standby])
            .unwrap();
        // Go-back-N stops a batch on the first dropped leg, so at most
        // one line hits a partitioned wire — and never more than the
        // window even on healthy ones.
        assert!(r.shipped <= window);
        assert!(rep.lag() > window);
        assert_eq!(standby.received(), 0);
        assert_eq!(rep.commit_lsn(), 0, "nothing commits without the standby");
    }

    #[test]
    fn promotion_fences_the_stale_primary() {
        let m = model();
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let mut standby = Standby::new("b");
        let net = net();

        // Healthy replication, then a partition strands the primary.
        for _ in 0..5 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut standby], 4);
        net.partition_node("a");
        // The stranded primary keeps serving (split brain in the making).
        broker.call("inc", &args(&[])).unwrap();

        // Supervisor-side: promote the standby under epoch 2.
        let (promoted, report) = standby.promote(2, &m, hub(), &[]).unwrap();
        assert_eq!(promoted.epoch(), 2);
        assert_eq!(promoted.state().int("count"), Some(5));
        assert!(report.ops_replayed > 0 || report.snapshot_version > 0);

        // The old primary heals and tries to ship its stale writes.
        net.heal_node("a");
        let bytes = broker.journal_bytes().unwrap().to_vec();
        let r = rep
            .tick(
                SimTime::from_millis(100),
                broker.epoch(),
                &net,
                &bytes,
                &mut [&mut standby],
            )
            .unwrap();
        assert_eq!(r.fenced, 1, "the stale primary must be fenced");
        assert_eq!(rep.fenced(), 1);
        // Direct receive refuses with the typed error too, and applies
        // nothing.
        let applied_before = standby.applied_lsn();
        match standby.receive(standby.received(), "op 99 set x i 1", 1) {
            Err(BrokerError::StaleEpoch { got: 1, current: 2 }) => {}
            other => panic!("expected StaleEpoch, got {other:?}"),
        }
        assert_eq!(standby.applied_lsn(), applied_before);

        // The fence itself is journaled: even after the *promoted*
        // broker crashes and recovers, the epoch holds.
        let (recovered, _) =
            GenericBroker::recover(&m, hub(), promoted.journal_bytes().unwrap(), &[]).unwrap();
        assert_eq!(recovered.epoch(), 2);
    }

    #[test]
    fn reconcile_discards_the_stale_suffix_and_rebuilds() {
        let m = model();
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let mut standby = Standby::new("b");
        let net = net();

        for _ in 0..4 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut standby], 4);
        // Partition; both sides write: the primary's writes are doomed.
        net.partition_node("a");
        broker.call("inc", &args(&[])).unwrap();
        broker.call("inc", &args(&[])).unwrap();
        let (mut promoted, _) = standby.promote(2, &m, hub(), &[]).unwrap();
        promoted.call("inc", &args(&[])).unwrap();

        let (rebuilt, rr) = reconcile(
            promoted.journal_bytes().unwrap(),
            broker.journal_bytes().unwrap(),
            "b",
            &m,
            hub(),
            &[],
        )
        .unwrap();
        assert!(rr.common_lines > 0);
        // Satellite regression: the report names the node whose journal
        // won, as a typed field.
        assert_eq!(rr.source_node, "b");
        // Each call journals two lines (the state op and the command
        // record), so the two doomed calls discard four.
        assert_eq!(rr.discarded_stale_lines, 4, "two doomed calls: {rr:?}");
        assert!(rr.replayed_lines > 0);
        // The reconciled broker carries the authoritative history: the
        // promoted side's count and epoch, not the stale writes.
        assert_eq!(rebuilt.state().int("count"), Some(5));
        assert_eq!(rebuilt.epoch(), 2);
    }

    #[test]
    fn truncation_keeps_the_ship_cursor_consistent() {
        let m = model();
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let mut standby = Standby::new("b");
        let net = net();

        for _ in 0..SNAPSHOT_EVERY + 2 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut standby], 8);
        assert!(rep.synced());
        let reclaimed = rep.truncate_primary(&mut broker);
        assert!(
            reclaimed > 0,
            "acked history behind a snapshot must free bytes"
        );

        // Shipping continues seamlessly over the rewritten journal.
        for _ in 0..3 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut standby], 8);
        assert!(rep.synced());
        assert_eq!(broker.state().first_divergence(standby.state()), None);
        assert_eq!(
            standby.state().int("count"),
            Some(SNAPSHOT_EVERY as i64 + 5)
        );
    }

    /// First index at or after `from` whose byte is not a newline — a safe
    /// place to flip a bit without merging journal lines.
    fn non_newline_at(bytes: &[u8], from: usize) -> usize {
        (from..bytes.len())
            .find(|&i| bytes[i] != b'\n')
            .expect("a non-newline byte past the midpoint")
    }

    /// A fully-synced primary/standby pair plus a pristine copy of the
    /// primary's journal bytes, after `calls` increments.
    fn synced_pair(calls: u32) -> (GenericBroker, Standby, Vec<u8>) {
        let m = model();
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let mut standby = Standby::new("b");
        let net = net();
        for _ in 0..calls {
            broker.call("inc", &args(&[])).unwrap();
            drain(&mut rep, &net, &broker, &mut [&mut standby], 4);
        }
        assert!(rep.synced());
        let pristine = broker.journal_bytes().unwrap().to_vec();
        (broker, standby, pristine)
    }

    #[test]
    fn anti_entropy_heals_interior_damage_byte_identically() {
        let m = model();
        let (_broker, standby, pristine) = synced_pair(6);
        // Bit-rot an interior line: flip one payload byte in the middle of
        // the journal. The CRC frame catches it; replay refuses.
        let mid = non_newline_at(&pristine, pristine.len() / 2);
        let mut damaged = pristine.clone();
        damaged[mid] ^= 0x01;
        assert!(matches!(
            journal::replay(&damaged),
            Err(BrokerError::JournalDamaged { .. })
        ));
        // The standby's mirror covers the damage: the healed journal is
        // byte-identical to the pristine one.
        let (healed, repair) = repair_journal(&damaged, &standby).unwrap();
        assert_eq!(
            healed, pristine,
            "healed journal must match the undamaged one"
        );
        assert!(repair.fetched_lines > 0);
        assert_eq!(
            repair.kept_tail_lines, 0,
            "fully synced: no local-only tail"
        );
        // End-to-end: recovery with the anti-entropy fallback rebuilds the
        // exact pre-damage state and journals the repair provenance.
        let (recovered, _report, rep) =
            recover_with_quorum(&m, hub(), &damaged, &[], &[&standby]).unwrap();
        assert_eq!(rep.as_ref(), Some(&repair));
        assert_eq!(recovered.state().int("count"), Some(6));
        assert_eq!(recovered.state().first_divergence(standby.state()), None);
        let text = std::str::from_utf8(recovered.journal_bytes().unwrap()).unwrap();
        assert!(
            text.lines()
                .map(journal::line_payload)
                .any(|p| p.starts_with("note ") && p.contains("anti-entropy")),
            "repair provenance must be journaled"
        );
    }

    #[test]
    fn torn_tail_below_the_ack_point_is_healed_not_dropped() {
        // Satellite guarantee: torn-tail truncation never loses a record
        // the standby already acknowledged. Tear into the journal's final
        // line — which the standby HAS applied — and recover.
        let m = model();
        let (_broker, standby, pristine) = synced_pair(5);
        // Tear into the last *op* line (the record that carries an LSN);
        // everything after it goes with the tear.
        let text = std::str::from_utf8(&pristine).unwrap();
        let mut op_start = 0;
        let mut offset = 0;
        for raw in text.split_inclusive('\n') {
            if journal::line_payload(raw.trim_end_matches('\n')).starts_with("op ") {
                op_start = offset;
            }
            offset += raw.len();
        }
        let cut = op_start + 5; // mid-record: the line is unreadable
        let torn = &pristine[..cut];
        // Plain replay shrugs: torn tail, drop the partial record. But the
        // ack window says that record was committed — plain recovery would
        // silently lose it.
        let r = journal::replay(torn).unwrap();
        let t = r.torn.as_ref().expect("tail is torn");
        assert!(standby.applied_lsn() > t.last_lsn, "acked past the tear");
        // The anti-entropy path refuses to lose it: heal from the mirror.
        let (recovered, report, rep) =
            recover_with_quorum(&m, hub(), torn, &[], &[&standby]).unwrap();
        assert!(rep.is_some(), "ack-window check must force a repair");
        assert_eq!(report.torn_records_dropped, 0);
        assert_eq!(recovered.state().int("count"), Some(5), "no committed loss");
        assert_eq!(recovered.state().version(), standby.applied_lsn());
    }

    #[test]
    fn unacked_torn_tail_recovers_locally_without_repair() {
        // A tear in records the standby never acknowledged is the normal
        // crash-torn-tail case: truncate and continue, no repair needed.
        let m = model();
        let (mut broker, standby, _) = synced_pair(4);
        let net = net();
        net.partition_node("b");
        // One more call that never ships: its records are unacked.
        broker.call("inc", &args(&[])).unwrap();
        let bytes = broker.journal_bytes().unwrap();
        let last_line_start = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let torn = &bytes[..last_line_start + 3];
        let (recovered, report, rep) =
            recover_with_quorum(&m, hub(), torn, &[], &[&standby]).unwrap();
        assert!(rep.is_none(), "unacked tear needs no standby round-trip");
        assert_eq!(report.torn_records_dropped, 1);
        // The unacked in-flight record is (correctly) gone; everything
        // acknowledged survives.
        assert!(recovered.state().version() >= standby.applied_lsn());
    }

    #[test]
    fn clean_tail_loss_is_caught_by_the_mirror_not_the_checksum() {
        // A power cut that drops not-yet-synced writes leaves a journal
        // ending on a clean record boundary: every surviving line passes
        // its CRC and the lost tail may hold only command records, which
        // carry no LSN. Checksums and the ack window are both blind —
        // only the mirror comparison sees the loss.
        let m = model();
        let (_broker, standby, pristine) = synced_pair(4);
        let lines: Vec<&[u8]> = pristine.split_inclusive(|&b| b == b'\n').collect();
        let cut: usize = lines[..lines.len() - 1].iter().map(|l| l.len()).sum();
        let clipped = &pristine[..cut];
        let r = journal::replay(clipped).unwrap();
        assert!(r.torn.is_none(), "a clean cut leaves no torn marker");
        let (recovered, _report, rep) =
            recover_with_quorum(&m, hub(), clipped, &[], &[&standby]).unwrap();
        assert!(rep.is_some(), "the mirror comparison must force a repair");
        assert_eq!(recovered.state().int("count"), Some(4));
        let jb = recovered.journal_bytes().unwrap();
        assert!(
            jb.starts_with(&pristine),
            "the healed journal restores the dropped tail byte-identically"
        );
    }

    #[test]
    fn repair_keeps_readable_local_writes_past_the_mirror() {
        // Writes appended after the last ship exist only locally; a repair
        // triggered by interior damage must keep them.
        let m = model();
        let (mut broker, standby, _) = synced_pair(3);
        let net = net();
        net.partition_node("b");
        broker.call("inc", &args(&[])).unwrap(); // local-only, readable
        let pristine = broker.journal_bytes().unwrap().to_vec();
        let local_only_lines = pristine
            .split_inclusive(|&b| b == b'\n')
            .count()
            .saturating_sub(
                standby
                    .journal_bytes()
                    .split_inclusive(|&b| b == b'\n')
                    .count(),
            );
        assert!(
            local_only_lines >= 2,
            "the unshipped call left lines behind"
        );
        let mut damaged = pristine.clone();
        // Interior damage inside the mirror-covered prefix.
        let flip_at = non_newline_at(&damaged, standby.journal_bytes().len() / 2);
        damaged[flip_at] ^= 0x01;
        let (healed, repair) = repair_journal(&damaged, &standby).unwrap();
        assert_eq!(healed, pristine);
        assert_eq!(
            repair.kept_tail_lines, local_only_lines,
            "every readable local-only line survives the repair"
        );
        let (recovered, _report, rep) =
            recover_with_quorum(&m, hub(), &damaged, &[], &[&standby]).unwrap();
        assert!(rep.is_some());
        assert_eq!(recovered.state().int("count"), Some(4));
    }

    #[test]
    fn repair_refuses_an_empty_mirror_and_drops_unreadable_local_tails() {
        // Empty mirror: nothing to heal from.
        let empty = Standby::new("b");
        let damaged = b"v1 00000000 op 1 int x 1\n";
        match repair_journal(damaged, &empty) {
            Err(BrokerError::RecoveryDiverged(msg)) => assert!(msg.contains("empty"), "{msg}"),
            other => panic!("expected RecoveryDiverged, got {other:?}"),
        }
        // Corruption in a local-only (never-shipped, unacked) tail line:
        // the mirror cannot vouch for it, so the repair keeps readable
        // local lines up to the damage and drops the rest — the healed
        // journal replays clean with no torn tail.
        let (mut broker, standby, _) = synced_pair(2);
        let net = net();
        net.partition_node("b");
        broker.call("inc", &args(&[])).unwrap();
        let mut damaged = broker.journal_bytes().unwrap().to_vec();
        let n = damaged.len();
        damaged[n - 4] ^= 0x01; // corrupt the final local-only line
        let (healed, repair) = repair_journal(&damaged, &standby).unwrap();
        let r = journal::replay(&healed).unwrap();
        assert!(r.torn.is_none(), "healed journal must not be torn");
        assert_eq!(
            repair.kept_tail_lines, 1,
            "the readable op line survives; the corrupt cmd line is dropped"
        );
        assert_eq!(r.state.int("count"), Some(3), "readable local write kept");
    }

    #[test]
    fn repair_report_names_its_source_node() {
        // Satellite regression: anti-entropy provenance is a typed field,
        // not a string buried in a journal note.
        let (_broker, standby, pristine) = synced_pair(4);
        let mid = non_newline_at(&pristine, pristine.len() / 2);
        let mut damaged = pristine.clone();
        damaged[mid] ^= 0x01;
        let (_healed, repair) = repair_journal(&damaged, &standby).unwrap();
        assert_eq!(repair.source_node, "b");
    }

    #[test]
    fn replica_set_config_compiles_and_validates() {
        assert!(
            ReplicaSetConfig::from_model(&BrokerModelBuilder::new("p").build())
                .unwrap()
                .is_none()
        );
        // quorum 0 computes the majority of (peers + primary).
        let cfg = ReplicaSetConfig::from_model(&quorum_model(0, &["b", "c"]))
            .unwrap()
            .unwrap();
        assert_eq!(cfg.quorum, 2, "majority of 3 nodes");
        assert_eq!(cfg.peers.len(), 2);
        assert_eq!(cfg.peers[0].mode, ShipMode::AckWindowed);
        // An explicit quorum above the node count is an invalid model.
        match ReplicaSetConfig::from_model(&quorum_model(4, &["b", "c"])) {
            Err(BrokerError::InvalidModel(msg)) => assert!(msg.contains("quorum"), "{msg}"),
            other => panic!("expected InvalidModel, got {other:?}"),
        }
        // A hot standby is a one-peer set: its majority is both nodes.
        let cfg = ReplicaSetConfig::from_model(&quorum_model(0, &["b"]))
            .unwrap()
            .unwrap();
        assert_eq!(
            cfg,
            ReplicaSetConfig {
                quorum: 2,
                peers: vec![ReplicaPeer {
                    node: "b".into(),
                    mode: ShipMode::AckWindowed,
                    window_records: 4,
                    ack_timeout: SimDuration::from_micros(5_000),
                }],
            }
        );
        // A replica without a node name is an invalid model.
        let mut broken = model();
        let node = broken.all_of_class("ReplicaNode")[0];
        broken.unset_attr(node, "node");
        match ReplicaSetConfig::from_model(&broken) {
            Err(BrokerError::InvalidModel(m)) => assert!(m.contains("node name"), "{m}"),
            other => panic!("expected InvalidModel, got {other:?}"),
        }
    }

    #[test]
    fn a_lane_never_reships_below_its_peers_ack() {
        // A replica rebuilt from a mirror acks its whole history on the
        // first line a fresh lane ships to it. The lane must resume at
        // that ack instead of re-sending everything below it.
        let m = replicated(2, &[("b", "AckWindowed", 32, 5_000)]);
        let mut broker = primary(&m);
        while broker
            .journal_bytes()
            .unwrap()
            .split(|&b| b == b'\n')
            .count()
            <= 226
        {
            broker.call("inc", &args(&[])).unwrap();
        }
        let bytes = broker.journal_bytes().unwrap().to_vec();
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 226);
        let mut standby = Standby::from_mirror("b", &bytes, 1).unwrap();
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let net = net();
        let r0 = rep
            .tick(SimTime::ZERO, 1, &net, &bytes, &mut [&mut standby])
            .unwrap();
        assert_eq!(r0.newly_acked, 226, "the first re-ack covers the mirror");
        assert!(rep.synced());
        let r1 = rep
            .tick(
                SimTime::from_micros(1),
                1,
                &net,
                &bytes,
                &mut [&mut standby],
            )
            .unwrap();
        assert_eq!(r1.shipped, 0, "nothing below the ack goes back on the wire");
        assert_eq!(standby.journal_bytes(), &bytes[..]);
    }

    #[test]
    fn commit_lsn_is_the_quorum_th_largest_acked() {
        let m = quorum_model(2, &["b", "c"]);
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let mut b = Standby::new("b");
        let mut c = Standby::new("c");
        let net = net();
        // c is unreachable the whole time: the primary + b still form a
        // quorum of 2, so commit advances to the head.
        net.partition_node("c");
        for _ in 0..6 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert!(!rep.synced(), "c can never ack through a partition");
        assert!(rep.quorum_synced(), "primary + b are a quorum");
        assert_eq!(rep.commit_lsn(), broker.state().version());
        assert_eq!(rep.acked_lsn("b"), broker.state().version());
        assert_eq!(rep.acked_lsn("c"), 0);
        assert_eq!(rep.quorum(), 2);
        // Every committed LSN is on b byte-for-byte (the safety claim).
        let committed =
            journal::prefix_through_lsn(broker.journal_bytes().unwrap(), rep.commit_lsn()).unwrap();
        assert!(b.journal_bytes().starts_with(committed));
    }

    #[test]
    fn a_minority_ack_does_not_commit_and_truncation_respects_it() {
        // Quorum 3 of 3 nodes: with c partitioned, b's acks alone must
        // not advance the commit point — and truncation must not drop
        // history below what the quorum holds.
        let m = quorum_model(3, &["b", "c"]);
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let mut b = Standby::new("b");
        let mut c = Standby::new("c");
        let net = net();
        net.partition_node("c");
        for _ in 0..SNAPSHOT_EVERY + 2 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert_eq!(rep.acked_lsn("b"), broker.state().version());
        assert_eq!(rep.commit_lsn(), 0, "2 holders < quorum 3: nothing commits");
        assert_eq!(
            rep.truncate_primary(&mut broker),
            0,
            "nothing quorum-committed, nothing reclaimable"
        );
        // Heal c: the full set converges and the commit point catches up.
        net.heal_node("c");
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert!(rep.synced());
        assert_eq!(rep.commit_lsn(), broker.state().version());
        assert!(
            rep.truncate_primary(&mut broker) > 0,
            "committed history behind a snapshot is reclaimable now"
        );
        // Shipping continues seamlessly over the rewritten journal.
        broker.call("inc", &args(&[])).unwrap();
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert!(rep.synced());
        assert_eq!(broker.state().first_divergence(b.state()), None);
        assert_eq!(broker.state().first_divergence(c.state()), None);
    }

    #[test]
    fn reset_peer_reships_the_full_history_to_a_fresh_mirror() {
        let m = quorum_model(2, &["b", "c"]);
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let mut b = Standby::new("b");
        let mut c = Standby::new("c");
        let net = net();
        for _ in 0..5 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert!(rep.synced());
        let commit_before = rep.commit_lsn();
        // c loses its disk: revive it empty and rewind its lane.
        let mut c = Standby::new("c");
        assert!(rep.reset_peer("c"));
        assert!(!rep.reset_peer("zz"), "unknown nodes are refused");
        assert_eq!(
            rep.commit_lsn(),
            commit_before,
            "the commit point is monotone across a rewind"
        );
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert!(rep.synced());
        assert_eq!(c.journal_bytes(), broker.journal_bytes().unwrap());
        assert_eq!(broker.state().first_divergence(c.state()), None);
    }

    #[test]
    fn one_fenced_lane_does_not_stop_the_others() {
        let m = quorum_model(2, &["b", "c"]);
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let mut b = Standby::new("b");
        let mut c = Standby::new("c");
        // c has seen a newer epoch (a promotion happened elsewhere): it
        // fences this primary, but b's lane keeps shipping.
        c.fence(5);
        let net = net();
        for _ in 0..4 {
            broker.call("inc", &args(&[])).unwrap();
        }
        let bytes = broker.journal_bytes().unwrap().to_vec();
        let r = rep
            .tick(
                SimTime::ZERO,
                broker.epoch(),
                &net,
                &bytes,
                &mut [&mut b, &mut c],
            )
            .unwrap();
        assert!(r.fenced >= 1, "c must fence the stale primary");
        assert!(b.received() > 0, "b's lane is unaffected");
        assert_eq!(c.received(), 0);
        assert_eq!(rep.fenced(), r.fenced);
    }

    #[test]
    fn a_journal_shorter_than_the_ingest_cursor_is_refused_unchanged() {
        // Regression: a caller that keeps its replicator across a recovery
        // which dropped a torn tail hands `tick` a journal shorter than
        // what was already ingested; slicing at the cursor panicked.
        let m = quorum_model(2, &["b", "c"]);
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let (mut b, mut c) = (Standby::new("b"), Standby::new("c"));
        let net = net();
        for _ in 0..3 {
            broker.call("inc", &args(&[])).unwrap();
        }
        let bytes = broker.journal_bytes().unwrap().to_vec();
        rep.tick(SimTime::ZERO, 1, &net, &bytes, &mut [&mut b, &mut c])
            .unwrap();
        let before = (rep.lag(), rep.commit_lsn(), net.stats(), b.received());
        let short = &bytes[..bytes.len() / 2];
        match rep.tick(
            SimTime::from_millis(50),
            2,
            &net,
            short,
            &mut [&mut b, &mut c],
        ) {
            Err(BrokerError::JournalBehindCursor { cursor, len }) => {
                assert_eq!((cursor, len), (bytes.len() as u64, short.len() as u64));
            }
            other => panic!("expected JournalBehindCursor, got {other:?}"),
        }
        assert_eq!(
            (rep.lag(), rep.commit_lsn(), net.stats(), b.received()),
            before
        );
        // Nothing reached a peer under the refused tick's epoch.
        assert_eq!((b.epoch(), c.epoch()), (1, 1));
        // The full journal still ships on from the untouched cursor.
        broker.call("inc", &args(&[])).unwrap();
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 8);
        assert!(rep.synced());
        assert_eq!(b.journal_bytes(), broker.journal_bytes().unwrap());
    }

    #[test]
    fn a_refused_journal_line_stays_refused_until_repaired() {
        // Regression: ingest moved its cursor past a line before decoding
        // it, so the tick after a refusal skipped the damaged line and
        // shipped the lines behind it.
        let m = model();
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let mut standby = Standby::new("b");
        let net = net();
        for _ in 0..3 {
            broker.call("inc", &args(&[])).unwrap();
        }
        let bytes = broker.journal_bytes().unwrap().to_vec();
        // One byte of the second command line's payload, CRC left as is.
        let at = std::str::from_utf8(&bytes)
            .unwrap()
            .match_indices(" cmd ")
            .nth(1)
            .unwrap()
            .0
            + " cmd ".len();
        let mut damaged = bytes.clone();
        damaged[at] ^= 1;
        let step = SimDuration::from_micros(5_000);
        let mut now = SimTime::ZERO;
        for _ in 0..3 {
            let refused = rep.tick(now, 1, &net, &damaged, &mut [&mut standby]);
            assert!(
                matches!(&refused, Err(BrokerError::RecoveryDiverged(why)) if why.contains("crc mismatch")),
                "{refused:?}"
            );
            assert!(!rep.synced());
            assert!(damaged.starts_with(standby.journal_bytes()));
            assert!(standby.journal_bytes().len() < at);
            now = now + step;
        }
        // The repaired journal ships on from the refused line.
        for _ in 0..8 {
            rep.tick(now, 1, &net, &bytes, &mut [&mut standby]).unwrap();
            now = now + step;
        }
        assert!(rep.synced());
        assert_eq!(standby.journal_bytes(), &bytes[..]);
        assert_eq!(rep.commit_lsn(), broker.state().version());
    }

    #[test]
    fn wire_behaviour_is_pinned_on_a_lossy_mixed_set() {
        // A 3-node set over ~20 % lossy legs, one `Async` and one
        // `AckWindowed` lane; mid-run c loses its disk (`reset_peer`) and
        // d joins empty (`add_peer`). The figures pin the wire behaviour:
        // each leg draws from the network's seeded RNG, so any change to
        // what goes on the wire, or in which order, moves at least one.
        let m = replicated(
            2,
            &[("b", "Async", 0, 4_000), ("c", "AckWindowed", 4, 5_000)],
        );
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let net = Network::new(
            Link {
                loss: 0.2,
                ..Link::default()
            },
            31,
        );
        let (mut b, mut c) = (Standby::new("b"), Standby::new("c"));
        let mut d: Option<Standby> = None;
        // (shipped, newly_acked, retransmitted, latency µs, fenced), summed.
        let mut sum = (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut now = SimTime::ZERO;
        let mut ticks = 0u32;
        for i in 0..600 {
            if i < 60 {
                broker.call("inc", &args(&[])).unwrap();
            }
            if i == 20 {
                c = Standby::new("c");
                assert!(rep.reset_peer("c"));
            }
            if i == 35 {
                rep.add_peer(ReplicaPeer {
                    node: "d".into(),
                    mode: ShipMode::AckWindowed,
                    window_records: 8,
                    ack_timeout: SimDuration::from_micros(5_000),
                });
                d = Some(Standby::new("d"));
            }
            if i >= 60 && rep.synced() {
                break;
            }
            let mut peers: Vec<&mut Standby> = vec![&mut b, &mut c];
            peers.extend(d.as_mut());
            let bytes = broker.journal_bytes().unwrap();
            let r = rep
                .tick(now, broker.epoch(), &net, bytes, &mut peers)
                .unwrap();
            sum.0 += r.shipped;
            sum.1 += r.newly_acked;
            sum.2 += r.retransmitted;
            sum.3 += r.latency.as_micros();
            sum.4 += r.fenced;
            assert_eq!(r.commit_lsn, rep.commit_lsn());
            ticks += 1;
            now = now + SimDuration::from_micros(2_500);
        }
        assert!(rep.synced(), "the set never converged");
        let s = net.stats();
        assert_eq!(
            (ticks, sum, (s.delivered, s.lost, s.partitioned)),
            (522, (2_853, 420, 2_445, 4_119_000, 0), (4_119, 1_006, 0)),
        );
        assert_eq!((rep.retransmits(), rep.commit_lsn()), (106, 60));
        let journal = broker.journal_bytes().unwrap();
        let d = d.unwrap();
        for sb in [&b, &c, &d] {
            assert_eq!(sb.journal_bytes(), journal, "{} mirror", sb.node());
            assert_eq!(broker.state().first_divergence(sb.state()), None);
        }
    }

    #[test]
    fn a_refused_upgrade_line_changes_nothing_on_the_standby() {
        // An upgrade whose op run has a gap is refused whole: none of its
        // ops may stay applied behind a line that was never acknowledged.
        let up = |second_lsn| {
            let set = |lsn, key: &str| StateOp::SetInt {
                lsn,
                key: key.into(),
                value: 7,
            };
            let ops = [set(2, "y"), set(second_lsn, "z")];
            let rec = JournalRecord::Upgrade {
                version: 2,
                tag: "cand".into(),
                ops: journal::Ops::Pending(&ops),
            };
            let mut line = Vec::new();
            journal::encode_line(&rec, true, &mut line);
            String::from_utf8(line).unwrap().trim_end().to_owned()
        };
        let mut sb = Standby::new("b");
        assert_eq!(sb.receive(0, "op 1 int x 1", 1).unwrap(), 1);
        match sb.receive(1, &up(4), 1) {
            Err(BrokerError::RecoveryDiverged(why)) => assert!(why.contains("LSN 4"), "{why}"),
            other => panic!("expected RecoveryDiverged, got {other:?}"),
        }
        let seen = (sb.applied_lsn(), sb.state().int("y"), sb.model_version());
        assert_eq!(seen, (1, None, 1), "no op of the refused line applied");
        assert_eq!(
            (sb.received(), sb.journal_bytes()),
            (1, &b"op 1 int x 1\n"[..])
        );
        // The correct line at the same sequence still applies: the
        // standby is not wedged.
        assert_eq!(sb.receive(1, &up(3), 1).unwrap(), 2);
        let seen = (sb.applied_lsn(), sb.state().int("z"), sb.model_version());
        assert_eq!(seen, (3, Some(7), 2));
    }

    #[test]
    fn from_mirror_rebuilds_a_standby_byte_identically() {
        let (_broker, standby, pristine) = synced_pair(6);
        let rebuilt = Standby::from_mirror("d", &pristine, 3).unwrap();
        assert_eq!(rebuilt.journal_bytes(), standby.journal_bytes());
        assert_eq!(rebuilt.applied_lsn(), standby.applied_lsn());
        assert_eq!(rebuilt.received(), standby.received());
        assert_eq!(rebuilt.state().first_divergence(standby.state()), None);
        assert_eq!(rebuilt.epoch(), 3, "rebuilt standby honors the fence");
        assert_eq!(rebuilt.node(), "d");
    }

    #[test]
    fn the_freshest_replica_serves_as_the_quorum_repair_source() {
        let m = quorum_model(2, &["b", "c"]);
        let mut broker = primary(&m);
        let mut rep = QuorumReplicator::from_model(&m, "a").unwrap().unwrap();
        let mut b = Standby::new("b");
        let mut c = Standby::new("c");
        let net = net();
        for _ in 0..4 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        // c falls behind: two more calls ship to b only.
        net.partition_node("c");
        for _ in 0..2 {
            broker.call("inc", &args(&[])).unwrap();
        }
        drain(&mut rep, &net, &broker, &mut [&mut b, &mut c], 40);
        assert!(b.applied_lsn() > c.applied_lsn());
        let src = select_repair_source(&[&c, &b]).expect("two candidates");
        assert_eq!(src.node(), "b", "the freshest mirror wins");
        assert!(select_repair_source(&[]).is_none());

        // The primary's journal rots: quorum recovery heals it from b,
        // and the repair provenance names b as the typed source.
        let pristine = broker.journal_bytes().unwrap().to_vec();
        let mid = non_newline_at(&pristine, b.journal_bytes().len() / 2);
        let mut damaged = pristine.clone();
        damaged[mid] ^= 0x01;
        let (recovered, _report, repair) =
            recover_with_quorum(&m, hub(), &damaged, &[], &[&c, &b]).unwrap();
        let repair = repair.expect("interior damage forces a repair");
        assert_eq!(repair.source_node, "b");
        assert_eq!(recovered.state().int("count"), Some(6));
        match recover_with_quorum(&m, hub(), &damaged, &[], &[]) {
            Err(BrokerError::RecoveryDiverged(msg)) => {
                assert!(msg.contains("reachable"), "{msg}")
            }
            other => panic!("expected RecoveryDiverged, got {other:?}"),
        }
    }
}
