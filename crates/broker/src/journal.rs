//! Write-ahead journal + periodic snapshots for the Broker runtime model.
//!
//! KMF's lesson is that models@runtime must be cheap to serialize and clone
//! to be usable for recovery; this module applies it to the Fig. 6
//! `StateManager`. Every primitive mutation of the runtime model (an LSN'd
//! [`StateOp`]) and every executed broker command is appended to a
//! [`Journal`], which owns its bytes; every `snapshot_every` appended
//! entries the journal takes a full [`StateSnapshot`]. Recovery
//! ([`replay`]) restores the newest snapshot and replays the tail,
//! refusing with [`BrokerError::RecoveryDiverged`] on LSN gaps or corrupt
//! records.
//!
//! Records are applied in one place, the crate's `Applier`: recovery's
//! [`replay`] and the hot standby ([`crate::replication::Standby`]) both
//! call it, so a record means the same thing to a recovering primary and
//! to a replica. The LSN a record pins is [`JournalRecord::lsn`].
//!
//! The record format is a dependency-free framed text format: one record
//! per line, fields separated by single spaces, each field percent-escaped
//! so values may contain spaces and newlines.
//!
//! Records are self-verifying: each line carries a versioned frame header
//! and a CRC32 of its payload (`v1 <crc32-hex> <payload>`), so recovery
//! can tell a record the disk gave back wrong from one that was never
//! finished. [`replay`] distinguishes a **torn tail** — unreadable final
//! record(s) with nothing readable after them, the signature of a crash
//! mid-append — which it drops ([`TornTail`]) and continues, from
//! **interior corruption** — an unreadable record (or an LSN gap) with
//! readable records after it, the signature of bit-rot over committed
//! history — which is the typed [`BrokerError::JournalDamaged`] so a
//! caller can run anti-entropy repair from a standby's mirror
//! ([`crate::replication::repair_journal`]). Legacy unframed journals
//! (every record tag is distinguishable from the `v1` header) still
//! replay byte-identically.

use crate::state::{SnapValue, StateManager, StateOp, StateSnapshot};
use crate::{BrokerError, Result};

/// Whether a command is an upper-layer call or a resource event: the kind
/// of handler that serves it and of the record it journals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// An upper-layer call.
    Call,
    /// A resource event.
    Event,
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A primitive runtime-model mutation.
    Op(StateOp),
    /// A run of consecutive writes to the *same* key within one command
    /// frame, coalesced to its final value: `op` is the last write of the
    /// run and `first_lsn` the LSN of the first. Only the final value can
    /// be observed (nothing reads the state mid-frame), so replaying just
    /// `op` and advancing the version across the run is exact — and keeps
    /// hot-key journals (admission token buckets under load) from
    /// ballooning.
    OpCoalesced {
        /// LSN of the first write in the coalesced run.
        first_lsn: u64,
        /// The last write of the run (its LSN closes the run).
        op: StateOp,
    },
    /// An executed broker command (call or event) and the virtual clock
    /// after it completed.
    Command {
        /// Virtual clock (µs) after the command.
        clock_us: u64,
        /// Call or event.
        kind: CommandKind,
        /// Operation name / event topic.
        selector: String,
        /// Action that produced the outcome.
        action: String,
        /// Whether the outcome was a success.
        ok: bool,
        /// Resource invocations performed.
        attempts: u32,
        /// Virtual-time cost (µs).
        cost_us: u64,
    },
    /// An explicit virtual-clock advance (idle time between calls).
    Clock {
        /// Virtual clock (µs) after the advance.
        clock_us: u64,
    },
    /// An epoch fence. Appended when a standby is promoted to primary;
    /// replication refuses shipped records carrying an older epoch, so a
    /// healed stale primary cannot split-brain the model state.
    Epoch {
        /// The fencing epoch (monotonically increasing across failovers).
        epoch: u64,
    },
    /// A free-form annotation (static-analysis warnings at deployment,
    /// operator breadcrumbs). Notes carry no state and replay ignores
    /// them; they exist so load-time findings survive in the same durable
    /// stream the commands do.
    Note {
        /// The annotation text.
        text: String,
    },
    /// An atomic model cutover: the broker switched to runtime-model
    /// version `version`, applying the embedded state-migration ops in the
    /// same record. One line = one cutover — the torn-tail policy either
    /// keeps the whole record (new model, migrations applied) or drops it
    /// wholesale (old model, untouched state), so recovery can never see a
    /// hybrid. Shipped to the standby like any other record so failover
    /// mid-upgrade resolves to one consistent version under epoch fencing.
    Upgrade {
        /// The model version now live (monotone across upgrades; a
        /// rollback re-journals the pre-upgrade version).
        version: u64,
        /// Human-readable provenance (candidate model name / reason).
        tag: String,
        /// Declared state migrations + engine reseeds, applied as
        /// ordinary LSN'd ops inside the cutover record.
        ops: Vec<StateOp>,
    },
    /// A full state snapshot plus the engine counters at snapshot time.
    Snapshot {
        /// The state at snapshot time.
        state: StateSnapshot,
        /// Virtual clock (µs).
        clock_us: u64,
        /// Calls handled so far.
        calls: u64,
        /// Events handled so far.
        events: u64,
    },
}

impl JournalRecord {
    /// The newest state LSN this record pins down: an op's LSN (the last
    /// of a coalesced run), an upgrade's last migration op, a snapshot's
    /// version. `None` for records that carry no LSN.
    pub fn lsn(&self) -> Option<u64> {
        match self {
            JournalRecord::Op(op) | JournalRecord::OpCoalesced { op, .. } => Some(op.lsn()),
            JournalRecord::Upgrade { ops, .. } => ops.last().map(StateOp::lsn),
            JournalRecord::Snapshot { state, .. } => Some(state.version),
            _ => None,
        }
    }
}

// -- Framing ----------------------------------------------------------------

/// Percent-escapes `%`, space, tab, and newline so a field never breaks
/// record framing.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0A"),
            '\t' => out.push_str("%09"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = chars.next();
        let lo = chars.next();
        match (hi, lo) {
            (Some('2'), Some('5')) => out.push('%'),
            (Some('2'), Some('0')) => out.push(' '),
            (Some('0'), Some('A')) => out.push('\n'),
            (Some('0'), Some('9')) => out.push('\t'),
            _ => {
                return Err(BrokerError::RecoveryDiverged(format!(
                    "corrupt escape in journal field `{s}`"
                )))
            }
        }
    }
    Ok(out)
}

/// Frames an op's LSN + mutation (shared by the `op` and `opc` tags).
fn frame_op_body(op: &StateOp) -> String {
    match op {
        StateOp::SetStr { lsn, key, value } => {
            format!("{lsn} str {} {}", escape(key), escape(value))
        }
        StateOp::SetInt { lsn, key, value } => format!("{lsn} int {} {value}", escape(key)),
        StateOp::Unset { lsn, key } => format!("{lsn} del {}", escape(key)),
    }
}

/// Appends `rec`'s payload (no frame header, no trailing newline) to
/// `line` — shared by the unframed and CRC-framed wire forms so the framed
/// path never re-copies an already-formatted payload.
fn payload_into(line: &mut String, rec: &JournalRecord) {
    use std::fmt::Write;
    match rec {
        JournalRecord::Op(op) => {
            let _ = write!(line, "op {}", frame_op_body(op));
        }
        JournalRecord::OpCoalesced { first_lsn, op } => {
            let _ = write!(line, "opc {first_lsn} {}", frame_op_body(op));
        }
        JournalRecord::Command {
            clock_us,
            kind,
            selector,
            action,
            ok,
            attempts,
            cost_us,
        } => {
            let k = match kind {
                CommandKind::Call => "call",
                CommandKind::Event => "event",
            };
            let _ = write!(
                line,
                "cmd {clock_us} {k} {} {} {} {attempts} {cost_us}",
                escape(selector),
                escape(action),
                u8::from(*ok),
            );
        }
        JournalRecord::Clock { clock_us } => {
            let _ = write!(line, "clk {clock_us}");
        }
        JournalRecord::Epoch { epoch } => {
            let _ = write!(line, "ep {epoch}");
        }
        JournalRecord::Note { text } => {
            let _ = write!(line, "note {}", escape(text));
        }
        JournalRecord::Upgrade { version, tag, ops } => {
            let _ = write!(line, "up {version} {} {}", escape(tag), ops.len());
            for op in ops {
                let _ = write!(line, " {}", frame_op_body(op));
            }
        }
        JournalRecord::Snapshot {
            state,
            clock_us,
            calls,
            events,
        } => {
            let _ = write!(line, "snap {} {clock_us} {calls} {events}", state.version);
            for (key, value) in &state.vars {
                match value {
                    SnapValue::Str(v) => {
                        let _ = write!(line, " {} str {}", escape(key), escape(v));
                    }
                    SnapValue::Int(v) => {
                        let _ = write!(line, " {} int {v}", escape(key));
                    }
                }
            }
        }
    }
}

// -- CRC32 record frames -----------------------------------------------------

/// Versioned frame-header tag. Bumped if the frame layout ever changes;
/// parsing keys on the tag, so dialects can coexist in one journal.
const FRAME_TAG: &str = "v1";

/// Slice-by-8 lookup tables: `t[0]` is the classic byte-at-a-time table,
/// `t[j][i]` advances a byte that sits `j` positions deeper in the stream,
/// so eight bytes fold in one step. Built at compile time; the whole set is
/// 8 KiB.
const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

/// CRC-32 (IEEE 802.3, reflected) of `bytes` — hand-rolled slice-by-8 so
/// the journal stays dependency-free while the frame header stays a small
/// fraction of the append hot path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends `v` as exactly eight lowercase hex digits.
fn push_hex8(out: &mut String, v: u32) {
    for i in 0..8 {
        out.push(HEX_DIGITS[((v >> (28 - 4 * i)) & 0xF) as usize] as char);
    }
}

/// Appends the `v1 <crc32-hex> <payload>\n` frame for `payload` to `out`.
fn push_framed(out: &mut String, payload: &str) {
    out.push_str(FRAME_TAG);
    out.push(' ');
    push_hex8(out, crc32(payload.as_bytes()));
    out.push(' ');
    out.push_str(payload);
    out.push('\n');
}

/// Splits a line into its record payload, verifying the CRC when the line
/// carries a `v1` frame; legacy (unframed) lines pass through untouched.
/// The error is a human-readable reason, not a [`BrokerError`], so callers
/// can attach position context (LSN, byte offset) before surfacing it.
fn checked_payload(line: &str) -> std::result::Result<&str, String> {
    let Some(rest) = line.strip_prefix("v1 ") else {
        return Ok(line);
    };
    let (Some(crc_hex), Some(sep), Some(payload)) =
        (rest.get(..8), rest.as_bytes().get(8), rest.get(9..))
    else {
        return Err("malformed v1 frame header".to_owned());
    };
    if *sep != b' ' {
        return Err("malformed v1 frame header".to_owned());
    }
    let Ok(stored) = u32::from_str_radix(crc_hex, 16) else {
        return Err(format!("bad v1 frame crc field `{crc_hex}`"));
    };
    let computed = crc32(payload.as_bytes());
    if stored != computed {
        return Err(format!(
            "crc mismatch: stored {stored:08x}, computed {computed:08x}"
        ));
    }
    Ok(payload)
}

/// The record payload of one journal line, stripping a well-formed `v1`
/// frame *without* verifying its CRC — for cheap prefix scans (compaction,
/// snapshot rollback) that only need to know what kind of record a line
/// holds. Legacy lines pass through unchanged.
pub fn line_payload(line: &str) -> &str {
    match line.strip_prefix("v1 ") {
        Some(rest)
            if rest.len() > 9
                && rest.as_bytes()[..8].iter().all(u8::is_ascii_hexdigit)
                && rest.as_bytes()[8] == b' ' =>
        {
            &rest[9..]
        }
        _ => line,
    }
}

/// Whether the journal's first non-empty line is CRC-framed — how
/// [`Journal::resume`] decides which dialect to resume appending in, so a
/// resumed journal stays internally consistent with its history.
fn is_framed(bytes: &[u8]) -> bool {
    bytes
        .split(|&b| b == b'\n')
        .find(|l| !l.is_empty())
        .is_some_and(|l| l.starts_with(b"v1 "))
}

/// The shortest whole-line byte prefix of `bytes` whose records pin down
/// every LSN at or below `lsn` — the slice of a journal a replication
/// commit point refers to. Used by the quorum-replication layer (E15) to
/// check that a quorum-committed prefix survives byte-identically on an
/// elected primary: two journals agree on everything committed iff their
/// `prefix_through_lsn(commit)` slices are equal. `lsn` 0 yields the
/// empty prefix; a journal that never reaches `lsn` is an error — the
/// claimed commit point is not durable in these bytes.
pub fn prefix_through_lsn(bytes: &[u8], lsn: u64) -> Result<&[u8]> {
    if lsn == 0 {
        return Ok(&bytes[..0]);
    }
    let mut offset = 0usize;
    for raw in bytes.split_inclusive(|&b| b == b'\n') {
        offset += raw.len();
        let body = raw.strip_suffix(b"\n").unwrap_or(raw);
        let reached = std::str::from_utf8(body)
            .ok()
            .and_then(|line| parse_line(line).ok()?.lsn());
        if reached.is_some_and(|r| r >= lsn) {
            return Ok(&bytes[..offset]);
        }
    }
    Err(BrokerError::RecoveryDiverged(format!(
        "journal never reaches LSN {lsn}: the commit point is not durable here"
    )))
}

fn bad(why: &str) -> BrokerError {
    BrokerError::RecoveryDiverged(format!("corrupt journal record: {why}"))
}

fn parse_u64(field: Option<&str>, what: &str) -> Result<u64> {
    field
        .and_then(|f| f.parse::<u64>().ok())
        .ok_or_else(|| bad(&format!("bad {what}")))
}

/// Parses an op's LSN + mutation (the shared tail of `op` and `opc`).
fn parse_op_body(f: &mut std::str::Split<'_, char>) -> Result<StateOp> {
    let lsn = parse_u64(f.next(), "lsn")?;
    let ty = f.next().ok_or_else(|| bad("missing op type"))?;
    let key = unescape(f.next().ok_or_else(|| bad("missing key"))?)?;
    match ty {
        "str" => Ok(StateOp::SetStr {
            lsn,
            key,
            value: unescape(f.next().ok_or_else(|| bad("missing value"))?)?,
        }),
        "int" => Ok(StateOp::SetInt {
            lsn,
            key,
            value: f
                .next()
                .and_then(|v| v.parse::<i64>().ok())
                .ok_or_else(|| bad("bad int value"))?,
        }),
        "del" => Ok(StateOp::Unset { lsn, key }),
        other => Err(bad(&format!("unknown op type `{other}`"))),
    }
}

fn parse_record(line: &str) -> Result<JournalRecord> {
    let mut f = line.split(' ');
    let tag = f.next().unwrap_or_default();
    match tag {
        "op" => Ok(JournalRecord::Op(parse_op_body(&mut f)?)),
        "opc" => {
            let first_lsn = parse_u64(f.next(), "first lsn")?;
            let op = parse_op_body(&mut f)?;
            Ok(JournalRecord::OpCoalesced { first_lsn, op })
        }
        "cmd" => {
            let clock_us = parse_u64(f.next(), "clock")?;
            let kind = match f.next() {
                Some("call") => CommandKind::Call,
                Some("event") => CommandKind::Event,
                _ => return Err(bad("bad command kind")),
            };
            let selector = unescape(f.next().ok_or_else(|| bad("missing selector"))?)?;
            let action = unescape(f.next().ok_or_else(|| bad("missing action"))?)?;
            let ok = match f.next() {
                Some("0") => false,
                Some("1") => true,
                _ => return Err(bad("bad ok flag")),
            };
            let attempts = parse_u64(f.next(), "attempts")? as u32;
            let cost_us = parse_u64(f.next(), "cost")?;
            Ok(JournalRecord::Command {
                clock_us,
                kind,
                selector,
                action,
                ok,
                attempts,
                cost_us,
            })
        }
        "clk" => Ok(JournalRecord::Clock {
            clock_us: parse_u64(f.next(), "clock")?,
        }),
        "ep" => Ok(JournalRecord::Epoch {
            epoch: parse_u64(f.next(), "epoch")?,
        }),
        "note" => Ok(JournalRecord::Note {
            text: unescape(f.next().unwrap_or_default())?,
        }),
        "up" => {
            let version = parse_u64(f.next(), "model version")?;
            let tag = unescape(f.next().ok_or_else(|| bad("missing upgrade tag"))?)?;
            let n = parse_u64(f.next(), "op count")?;
            let mut ops = Vec::with_capacity(n as usize);
            for _ in 0..n {
                ops.push(parse_op_body(&mut f)?);
            }
            Ok(JournalRecord::Upgrade { version, tag, ops })
        }
        "snap" => {
            let version = parse_u64(f.next(), "version")?;
            let clock_us = parse_u64(f.next(), "clock")?;
            let calls = parse_u64(f.next(), "calls")?;
            let events = parse_u64(f.next(), "events")?;
            let mut vars = Vec::new();
            while let Some(key) = f.next() {
                let key = unescape(key)?;
                let ty = f.next().ok_or_else(|| bad("missing var type"))?;
                let raw = f.next().ok_or_else(|| bad("missing var value"))?;
                let value = match ty {
                    "str" => SnapValue::Str(unescape(raw)?),
                    "int" => SnapValue::Int(raw.parse::<i64>().map_err(|_| bad("bad var int"))?),
                    other => return Err(bad(&format!("unknown var type `{other}`"))),
                };
                vars.push((key, value));
            }
            Ok(JournalRecord::Snapshot {
                state: StateSnapshot { version, vars },
                clock_us,
                calls,
                events,
            })
        }
        other => Err(bad(&format!("unknown record tag `{other}`"))),
    }
}

/// Frames `rec` as its one-line legacy (unframed) wire form, trailing
/// newline included — the unit the replication layer ships over the
/// network.
pub fn frame_record(rec: &JournalRecord) -> String {
    let mut line = String::with_capacity(48);
    payload_into(&mut line, rec);
    line.push('\n');
    line
}

/// Frames `rec` under the versioned CRC32 frame (`v1 <crc32-hex>
/// <payload>`), trailing newline included — what a checksummed journal
/// appends, and what a checksummed primary ships.
pub fn frame_record_checked(rec: &JournalRecord) -> String {
    let mut payload = String::with_capacity(48);
    payload_into(&mut payload, rec);
    let mut line = String::with_capacity(payload.len() + 14);
    push_framed(&mut line, &payload);
    line
}

/// Parses one line (without its trailing newline) back into a
/// [`JournalRecord`], verifying the CRC when the line is `v1`-framed; the
/// inverse of both [`frame_record`] and [`frame_record_checked`].
pub fn parse_line(line: &str) -> Result<JournalRecord> {
    let payload = checked_payload(line).map_err(|why| bad(&why))?;
    parse_record(payload)
}

// -- The journal ------------------------------------------------------------

/// A write-ahead journal that owns its bytes, with automatic periodic
/// snapshots.
pub struct Journal {
    bytes: Vec<u8>,
    snapshot_every: u64,
    since_snapshot: u64,
    entries: u64,
    snapshots: u64,
    /// Whether appended records are wrapped in the `v1` CRC frame
    /// (the default) or written in the legacy unframed dialect.
    framed: bool,
    /// Reused per-append scratch (payload, then the full wire line) so the
    /// hot path allocates nothing in steady state.
    payload_buf: String,
    line_buf: String,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("snapshot_every", &self.snapshot_every)
            .field("entries", &self.entries)
            .field("snapshots", &self.snapshots)
            .field("bytes", &self.bytes.len())
            .finish()
    }
}

impl Journal {
    /// An empty, CRC-framed journal; a snapshot is taken every
    /// `snapshot_every` appended entries (0 disables periodic snapshots).
    pub fn in_memory(snapshot_every: u64) -> Self {
        Self::resume(Vec::new(), snapshot_every)
    }

    /// A journal that appends after inherited `bytes` (recovery continues
    /// the history it was rebuilt from) in their dialect: CRC-framed when
    /// their first record is, or when there is none; legacy otherwise. The
    /// resumed byte stream thus stays internally consistent.
    pub fn resume(bytes: Vec<u8>, snapshot_every: u64) -> Self {
        Journal {
            framed: bytes.is_empty() || is_framed(&bytes),
            bytes,
            snapshot_every,
            since_snapshot: 0,
            entries: 0,
            snapshots: 0,
            payload_buf: String::new(),
            line_buf: String::new(),
        }
    }

    /// Chooses the append dialect: `true` (the default) wraps every record
    /// in the versioned CRC32 frame; `false` writes the legacy unframed
    /// format (comparison baselines, downgrade interop). Only affects
    /// records appended from here on — both dialects replay, even mixed.
    pub fn set_framed(&mut self, framed: bool) {
        self.framed = framed;
    }

    /// Whether appended records are CRC-framed.
    pub fn framed(&self) -> bool {
        self.framed
    }

    /// Appends one record.
    pub fn record(&mut self, rec: &JournalRecord) {
        self.payload_buf.clear();
        payload_into(&mut self.payload_buf, rec);
        self.line_buf.clear();
        if self.framed {
            push_framed(&mut self.line_buf, &self.payload_buf);
        } else {
            self.line_buf.push_str(&self.payload_buf);
            self.line_buf.push('\n');
        }
        self.bytes.extend_from_slice(self.line_buf.as_bytes());
        if matches!(rec, JournalRecord::Snapshot { .. }) {
            self.snapshots += 1;
            self.since_snapshot = 0;
        } else {
            self.entries += 1;
            self.since_snapshot += 1;
        }
    }

    /// Whether the periodic-snapshot policy calls for a snapshot now.
    pub fn snapshot_due(&self) -> bool {
        self.snapshot_every > 0 && self.since_snapshot >= self.snapshot_every
    }

    /// Changes the periodic-snapshot cadence (0 disables it).
    pub fn set_snapshot_every(&mut self, snapshot_every: u64) {
        self.snapshot_every = snapshot_every;
    }

    /// Total non-snapshot records appended.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Snapshots taken.
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// The full journal bytes (oldest record first).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Compacts the journal down to the newest snapshot at or below `lsn`
    /// (typically the replica-acknowledged LSN): every record before that
    /// snapshot is dropped — replay from it still covers every op the
    /// replica has not acknowledged. The newest epoch fence in the dropped
    /// prefix is retained so fencing survives compaction. Returns the
    /// bytes reclaimed (0 when no snapshot qualifies).
    /// `entries()`/`snapshots()` remain lifetime counters and are not
    /// rewound.
    pub fn truncate_to(&mut self, lsn: u64) -> usize {
        let bytes = &self.bytes;
        let Ok(text) = std::str::from_utf8(bytes) else {
            return 0;
        };
        let mut cut = 0usize;
        let mut offset = 0usize;
        for line in text.split_inclusive('\n') {
            if let Some(rest) = line_payload(line.trim_end_matches('\n')).strip_prefix("snap ") {
                let version = rest.split(' ').next().and_then(|v| v.parse::<u64>().ok());
                if version.is_some_and(|v| v <= lsn) {
                    cut = offset;
                }
            }
            offset += line.len();
        }
        if cut == 0 {
            return 0;
        }
        let epoch_line = text[..cut]
            .split_inclusive('\n')
            .rfind(|l| line_payload(l.trim_end_matches('\n')).starts_with("ep "));
        // Likewise the newest upgrade record: its version (not its
        // already-snapshotted migration ops) must survive compaction so
        // replay still knows which model is live.
        let upgrade_line = text[..cut]
            .split_inclusive('\n')
            .rfind(|l| line_payload(l.trim_end_matches('\n')).starts_with("up "));
        let mut kept = Vec::with_capacity(bytes.len() - cut + 16);
        if let Some(ep) = epoch_line {
            kept.extend_from_slice(ep.as_bytes());
        }
        if let Some(up) = upgrade_line {
            kept.extend_from_slice(up.as_bytes());
        }
        kept.extend_from_slice(&bytes[cut..]);
        let reclaimed = bytes.len() - kept.len();
        self.bytes = kept;
        reclaimed
    }
}

// -- Applying records ---------------------------------------------------------

/// The runtime model journal records rebuild: the state plus what the
/// journal records beside it. [`replay`] and the hot standby
/// ([`crate::replication::Standby`]) both apply records through
/// [`Applier::apply`], so a record means the same thing to recovery and
/// to a replica.
#[derive(Debug)]
pub(crate) struct Applier {
    /// The rebuilt state.
    pub(crate) state: StateManager,
    /// Virtual clock (µs) after the newest applied record.
    pub(crate) clock_us: u64,
    /// Calls handled so far.
    pub(crate) calls: u64,
    /// Events handled so far.
    pub(crate) events: u64,
    /// The highest epoch fence applied (1 until one is).
    pub(crate) epoch: u64,
    /// The runtime-model version the newest `Upgrade` record put live (1
    /// until one is applied).
    pub(crate) model_version: u64,
}

impl Default for Applier {
    fn default() -> Self {
        Applier {
            state: StateManager::new(),
            clock_us: 0,
            calls: 0,
            events: 0,
            epoch: 1,
            model_version: 1,
        }
    }
}

/// The state keys one applied record may have changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Touched<'a> {
    /// None: a command, clock, epoch or note record.
    Nothing,
    /// The one key an `op` or `opc` record wrote.
    Key(&'a str),
    /// Any key: a snapshot restore or an upgrade's migration ops.
    Any,
}

impl Applier {
    /// Applies one record. State ops are LSN-checked against the state
    /// version: an op must follow it, a coalesced run must start right
    /// after it, and an upgrade's migration ops must run on from it — all
    /// of them, checked before the first is applied. A refused record
    /// changes nothing.
    pub(crate) fn apply<'r>(&mut self, rec: &'r JournalRecord) -> Result<Touched<'r>> {
        match rec {
            JournalRecord::Op(op) => {
                self.state.apply_op(op)?;
                Ok(Touched::Key(op.key()))
            }
            JournalRecord::OpCoalesced { first_lsn, op } => {
                self.state.apply_coalesced(*first_lsn, op)?;
                Ok(Touched::Key(op.key()))
            }
            JournalRecord::Upgrade { ops, .. } => {
                let from = self.state.version();
                let gap = ops
                    .iter()
                    .enumerate()
                    .find(|(i, op)| op.lsn().checked_sub(from) != Some(*i as u64 + 1));
                if let Some((_, op)) = gap {
                    return Err(BrokerError::RecoveryDiverged(format!(
                        "upgrade op LSN {} does not run on from state version {from}",
                        op.lsn()
                    )));
                }
                for op in ops {
                    self.state.apply_op(op)?;
                }
                self.adopt_fence(rec);
                Ok(Touched::Any)
            }
            JournalRecord::Snapshot {
                state,
                clock_us,
                calls,
                events,
            } => {
                self.state.restore(state);
                self.clock_us = *clock_us;
                self.calls = *calls;
                self.events = *events;
                Ok(Touched::Any)
            }
            JournalRecord::Command { clock_us, kind, .. } => {
                self.clock_us = *clock_us;
                match kind {
                    CommandKind::Call => self.calls += 1,
                    CommandKind::Event => self.events += 1,
                }
                Ok(Touched::Nothing)
            }
            JournalRecord::Clock { clock_us } => {
                self.clock_us = *clock_us;
                Ok(Touched::Nothing)
            }
            JournalRecord::Epoch { .. } | JournalRecord::Note { .. } => {
                self.adopt_fence(rec);
                Ok(Touched::Nothing)
            }
        }
    }

    /// Adopts only what `rec` records outside the state: an epoch fence
    /// (the highest wins) or the model version an upgrade put live. This
    /// is all a record before the newest snapshot still contributes.
    fn adopt_fence(&mut self, rec: &JournalRecord) {
        match rec {
            JournalRecord::Epoch { epoch } => self.epoch = self.epoch.max(*epoch),
            JournalRecord::Upgrade { version, .. } => self.model_version = *version,
            _ => {}
        }
    }
}

// -- Recovery ---------------------------------------------------------------

/// A torn tail [`replay`] dropped: the final record(s) could not be read
/// back — a crash mid-append left them incomplete, or the disk gave them
/// back wrong — and nothing readable followed, so recovery truncated the
/// journal to the last complete record and continued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the cut: everything at and after it is unreadable.
    pub offset: u64,
    /// Unreadable trailing lines dropped.
    pub dropped_lines: u64,
    /// Head LSN of the runtime model rebuilt from the surviving prefix.
    pub last_lsn: u64,
    /// Why the first dropped record could not be read.
    pub why: String,
}

/// Everything [`replay`] rebuilds from journal bytes.
#[derive(Debug)]
pub struct Recovered {
    /// The rebuilt runtime model.
    pub state: StateManager,
    /// Virtual clock (µs) at the journal head.
    pub clock_us: u64,
    /// Calls handled up to the journal head.
    pub calls: u64,
    /// Events handled up to the journal head.
    pub events: u64,
    /// State ops replayed after the newest snapshot.
    pub ops_replayed: u64,
    /// Command records replayed after the newest snapshot.
    pub commands_replayed: u64,
    /// Version the newest snapshot carried (0 when no snapshot existed).
    pub snapshot_version: u64,
    /// The highest epoch fence in the journal (1 when none was recorded).
    pub epoch: u64,
    /// The runtime-model version the newest `Upgrade` record put live
    /// (1 when the journal predates live evolution).
    pub model_version: u64,
    /// The torn tail the tail-scan policy dropped, when the journal ended
    /// in unreadable record(s). The caller must truncate the durable bytes
    /// at `torn.offset` before appending anything.
    pub torn: Option<TornTail>,
}

/// One scanned journal line: its byte offset and either the parsed record
/// or the reason it could not be read (frame damage, bad CRC, bad parse).
struct ScannedLine {
    offset: usize,
    rec: std::result::Result<JournalRecord, String>,
}

fn scan_lines(bytes: &[u8]) -> Vec<ScannedLine> {
    let mut lines = Vec::new();
    let mut offset = 0usize;
    for raw in bytes.split_inclusive(|&b| b == b'\n') {
        let (body, terminated) = match raw.last() {
            Some(b'\n') => (&raw[..raw.len() - 1], true),
            _ => (raw, false),
        };
        if !body.is_empty() {
            // A record without its trailing newline was never fully
            // written — a torn write, even when the surviving prefix
            // happens to parse (a cut inside a trailing numeric field can
            // leave a shorter-but-valid record). Resuming appends after
            // such a line would splice two records together.
            let rec = if !terminated {
                Err("unterminated final record (torn write)".to_owned())
            } else {
                match std::str::from_utf8(body) {
                    Err(_) => Err("record is not UTF-8".to_owned()),
                    Ok(line) => checked_payload(line)
                        .and_then(|payload| parse_record(payload).map_err(reason)),
                }
            };
            lines.push(ScannedLine { offset, rec });
        }
        offset += raw.len();
    }
    lines
}

/// The bare reason behind a parse or apply refusal.
fn reason(e: BrokerError) -> String {
    match e {
        BrokerError::RecoveryDiverged(why) => why,
        other => other.to_string(),
    }
}

fn damaged(lsn: u64, offset: usize, why: String) -> BrokerError {
    BrokerError::JournalDamaged {
        lsn,
        offset: offset as u64,
        why,
    }
}

/// Deterministically rebuilds runtime state from journal bytes: restores
/// the newest snapshot, then replays every later record in order.
///
/// The tail-scan policy distinguishes two failure shapes. A **torn tail**
/// — unreadable final record(s) with at least one readable record before
/// them and none after — is the signature of a crash mid-append: the tail
/// is dropped ([`Recovered::torn`]) and replay continues from the intact
/// prefix. **Interior corruption** — an unreadable record (or an LSN gap)
/// with readable records after it, or a journal whose very first record
/// is unreadable — means committed history was damaged at rest and is the
/// typed [`BrokerError::JournalDamaged`] carrying the last good LSN and
/// the byte offset of the damage, so a caller can fetch the missing range
/// from a standby's mirror.
pub fn replay(bytes: &[u8]) -> Result<Recovered> {
    let mut lines = scan_lines(bytes);

    // (offset, dropped lines, why) of a torn tail.
    let mut cut: Option<(usize, usize, String)> = None;
    if let Some(first_bad) = lines.iter().position(|l| l.rec.is_err()) {
        let why = match &lines[first_bad].rec {
            Err(w) => w.clone(),
            Ok(_) => String::new(),
        };
        let offset = lines[first_bad].offset;
        if lines[first_bad + 1..].iter().any(|l| l.rec.is_ok()) {
            let lsn_before = lines[..first_bad]
                .iter()
                .filter_map(|l| l.rec.as_ref().ok()?.lsn())
                .next_back()
                .unwrap_or(0);
            return Err(damaged(
                lsn_before,
                offset,
                format!("interior corruption: {why}"),
            ));
        }
        if first_bad == 0 {
            return Err(damaged(
                0,
                offset,
                format!("journal head unreadable: {why}"),
            ));
        }
        cut = Some((offset, lines.len() - first_bad, why));
        lines.truncate(first_bad);
    }
    let records: Vec<(usize, JournalRecord)> = lines
        .into_iter()
        .filter_map(|l| l.rec.ok().map(|r| (l.offset, r)))
        .collect();

    // Find the newest snapshot; recovery replays only the tail after it.
    let start = records
        .iter()
        .rposition(|(_, r)| matches!(r, JournalRecord::Snapshot { .. }));

    let mut model = Applier::default();
    let mut tail = &records[..];
    if let Some(s) = start {
        // Epoch fences and upgrade versions live outside snapshots; scan the
        // prefix the snapshot cut skips so a fence (or cutover) recorded
        // before the newest snapshot survives. Only the version is read
        // here — the embedded migration ops are already baked into the
        // snapshot.
        for (_, rec) in &records[..s] {
            model.adopt_fence(rec);
        }
        model.apply(&records[s].1)?;
        tail = &records[s + 1..];
    }
    let (snapshot_version, calls_before, events_before) =
        (model.state.version(), model.calls, model.events);
    for (offset, rec) in tail {
        // An LSN gap (or other apply-time divergence) at a readable record
        // means committed records *before* it are missing — interior
        // damage, reported with the last good LSN and the record's offset.
        model
            .apply(rec)
            .map_err(|e| damaged(model.state.version(), *offset, reason(e)))?;
    }
    Ok(Recovered {
        // Every op after the snapshot advanced the version by exactly its
        // LSN span, and every command record counted one call or event.
        ops_replayed: model.state.version() - snapshot_version,
        commands_replayed: (model.calls - calls_before) + (model.events - events_before),
        torn: cut.map(|(offset, dropped, why)| TornTail {
            offset: offset as u64,
            dropped_lines: dropped as u64,
            last_lsn: model.state.version(),
            why,
        }),
        clock_us: model.clock_us,
        calls: model.calls,
        events: model.events,
        snapshot_version,
        epoch: model.epoch,
        model_version: model.model_version,
        state: model.state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot of `s` at virtual time `clock_us` after `calls` calls.
    fn snap(s: &StateManager, clock_us: u64, calls: u64) -> JournalRecord {
        JournalRecord::Snapshot {
            state: s.snapshot(),
            clock_us,
            calls,
            events: 0,
        }
    }

    fn cmd(clock_us: u64) -> JournalRecord {
        JournalRecord::Command {
            clock_us,
            kind: CommandKind::Call,
            selector: "op".into(),
            action: "a".into(),
            ok: true,
            attempts: 1,
            cost_us: 100,
        }
    }

    #[test]
    fn records_roundtrip_through_framing() {
        let mut s = StateManager::new();
        s.set_str("mode", "two words % and\nnewline\ttab");
        s.set_int("n", -3);
        let records = vec![
            JournalRecord::Snapshot {
                state: s.snapshot(),
                clock_us: 5,
                calls: 2,
                events: 1,
            },
            JournalRecord::Op(StateOp::SetStr {
                lsn: 3,
                key: "k e y".into(),
                value: "v%".into(),
            }),
            JournalRecord::Op(StateOp::SetInt {
                lsn: 4,
                key: "n".into(),
                value: 9,
            }),
            JournalRecord::Op(StateOp::Unset {
                lsn: 5,
                key: "mode".into(),
            }),
            cmd(77),
            JournalRecord::Clock { clock_us: 99 },
            JournalRecord::Upgrade {
                version: 2,
                tag: "candidate v2 (two words)".into(),
                ops: vec![
                    StateOp::SetStr {
                        lsn: 6,
                        key: "svc mode".into(),
                        value: "lite%".into(),
                    },
                    StateOp::SetInt {
                        lsn: 7,
                        key: "adm_bulk_tokens".into(),
                        value: 4_000,
                    },
                    StateOp::Unset {
                        lsn: 8,
                        key: "mon_old_tripped".into(),
                    },
                ],
            },
            JournalRecord::Upgrade {
                version: 3,
                tag: "no-migrations".into(),
                ops: Vec::new(),
            },
        ];
        for r in &records {
            let line = frame_record(r);
            assert!(line.ends_with('\n'));
            let back = parse_record(line.trim_end()).unwrap();
            assert_eq!(&back, r);
        }
    }

    #[test]
    fn journal_counts_and_periodic_snapshots() {
        let mut j = Journal::in_memory(2);
        assert!(!j.snapshot_due());
        j.record(&cmd(1));
        assert!(!j.snapshot_due());
        j.record(&cmd(2));
        assert!(j.snapshot_due());
        j.record(&snap(&StateManager::new(), 2, 2));
        assert!(!j.snapshot_due());
        assert_eq!(j.entries(), 2);
        assert_eq!(j.snapshots(), 1);
        assert_eq!(j.bytes().iter().filter(|b| **b == b'\n').count(), 3);
    }

    #[test]
    fn replay_restores_snapshot_plus_tail() {
        let mut live = StateManager::new();
        live.record_ops(true);
        let mut j = Journal::in_memory(0);
        live.set_str("mode", "direct");
        live.set_int("opens", 1);
        for op in live.take_ops() {
            j.record(&JournalRecord::Op(op));
        }
        j.record(&snap(&live, 10, 1));
        live.bump("opens", 2);
        for op in live.take_ops() {
            j.record(&JournalRecord::Op(op));
        }
        j.record(&cmd(25));

        let r = replay(j.bytes()).unwrap();
        assert_eq!(r.state.int("opens"), Some(3));
        assert_eq!(r.state.str("mode"), Some("direct"));
        assert_eq!(r.state.version(), live.version());
        assert_eq!(r.clock_us, 25);
        assert_eq!(r.calls, 2);
        assert_eq!(r.ops_replayed, 1);
        assert_eq!(r.commands_replayed, 1);
        assert_eq!(r.snapshot_version, 2);
    }

    #[test]
    fn replay_without_snapshot_replays_from_origin() {
        let mut live = StateManager::new();
        live.record_ops(true);
        let mut j = Journal::in_memory(0);
        live.set_int("x", 7);
        for op in live.take_ops() {
            j.record(&JournalRecord::Op(op));
        }
        let r = replay(j.bytes()).unwrap();
        assert_eq!(r.state.int("x"), Some(7));
        assert_eq!(r.snapshot_version, 0);
        assert_eq!(r.ops_replayed, 1);
    }

    #[test]
    fn coalesced_runs_roundtrip_and_replay_exactly() {
        // A hot key written three times in one frame, plus a neighbor.
        let mut live = StateManager::new();
        live.record_ops(true);
        let mut j = Journal::in_memory(0);
        live.set_int("tokens", 10);
        live.set_int("tokens", 7);
        live.set_int("tokens", 3);
        live.set_str("mode", "lite");
        let ops = live.take_ops();
        // Coalesce the run by hand (the engine does the same).
        j.record(&JournalRecord::OpCoalesced {
            first_lsn: ops[0].lsn(),
            op: ops[2].clone(),
        });
        j.record(&JournalRecord::Op(ops[3].clone()));

        let r = replay(j.bytes()).unwrap();
        assert_eq!(r.state.int("tokens"), Some(3));
        assert_eq!(r.state.str("mode"), Some("lite"));
        assert_eq!(r.state.version(), live.version());
        assert_eq!(r.state.snapshot(), live.snapshot());
        assert_eq!(r.ops_replayed, 4);
        // Framing roundtrip of the coalesced record itself.
        let rec = JournalRecord::OpCoalesced {
            first_lsn: 1,
            op: ops[2].clone(),
        };
        assert_eq!(parse_record(frame_record(&rec).trim_end()).unwrap(), rec);
    }

    #[test]
    fn coalesced_runs_with_gaps_are_refused() {
        // First LSN 2 over a fresh state (version 0) is a lost entry —
        // interior damage (the record itself reads fine; earlier records
        // are missing), reported with position.
        assert!(matches!(
            replay(b"opc 2 4 int x 1\n"),
            Err(BrokerError::JournalDamaged {
                lsn: 0,
                offset: 0,
                ..
            })
        ));
        // A run that ends before it starts is corrupt.
        assert!(matches!(
            replay(b"opc 1 0 int x 1\n"),
            Err(BrokerError::JournalDamaged { .. })
        ));
    }

    #[test]
    fn epoch_fences_roundtrip_and_survive_snapshots() {
        let rec = JournalRecord::Epoch { epoch: 3 };
        assert_eq!(parse_record(frame_record(&rec).trim_end()).unwrap(), rec);
        // No fence recorded: epoch defaults to 1.
        assert_eq!(replay(b"op 1 int x 1\n").unwrap().epoch, 1);
        // A fence after the newest snapshot is replayed from the tail.
        assert_eq!(replay(b"snap 0 0 0 0\nep 2\n").unwrap().epoch, 2);
        // A fence *before* the newest snapshot must survive the cut.
        assert_eq!(replay(b"ep 4\nsnap 0 0 0 0\n").unwrap().epoch, 4);
        // A journal whose only record is unreadable has no readable head
        // to fall back to: typed damage, not a silent empty recovery.
        assert!(matches!(
            replay(b"ep nope\n"),
            Err(BrokerError::JournalDamaged { .. })
        ));
    }

    /// Builds a journal with two snapshots and op tails after each; returns
    /// it plus the live state it mirrors.
    fn journal_with_two_snapshots() -> (Journal, StateManager) {
        let mut live = StateManager::new();
        live.record_ops(true);
        let mut j = Journal::in_memory(0);
        live.set_int("x", 1);
        for op in live.take_ops() {
            j.record(&JournalRecord::Op(op));
        }
        j.record(&snap(&live, 10, 1));
        live.set_int("y", 2);
        for op in live.take_ops() {
            j.record(&JournalRecord::Op(op));
        }
        j.record(&snap(&live, 20, 2));
        live.bump("y", 5);
        for op in live.take_ops() {
            j.record(&JournalRecord::Op(op));
        }
        (j, live)
    }

    #[test]
    fn truncate_to_keeps_a_recoverable_suffix() {
        let (mut j, live) = journal_with_two_snapshots();
        let full = replay(j.bytes()).unwrap();
        let before = j.bytes().len();
        // Nothing at or below LSN 0 qualifies: no-op.
        assert_eq!(j.truncate_to(0), 0);
        // Acknowledged up to the second snapshot's version: the first
        // snapshot and its tail can go.
        let reclaimed = j.truncate_to(live.version());
        assert!(reclaimed > 0);
        assert_eq!(j.bytes().len(), before - reclaimed);
        assert!(!std::str::from_utf8(j.bytes()).unwrap().contains("snap 1 "));
        // Recovery from the retained suffix matches recovery from the
        // full journal exactly.
        let r = replay(j.bytes()).unwrap();
        assert_eq!(r.state.snapshot(), full.state.snapshot());
        assert_eq!(r.state.int("y"), Some(7));
        assert_eq!(r.clock_us, full.clock_us);
        assert_eq!(r.calls, full.calls);
        // And the journal still accepts appends afterwards.
        j.record(&cmd(30));
        assert_eq!(replay(j.bytes()).unwrap().clock_us, 30);
    }

    #[test]
    fn truncate_to_preserves_the_epoch_fence() {
        let (j, live) = journal_with_two_snapshots();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"ep 3\n");
        bytes.extend_from_slice(j.bytes());
        let mut j = Journal::resume(bytes, 0);
        assert!(j.truncate_to(live.version()) > 0);
        let r = replay(j.bytes()).unwrap();
        assert_eq!(r.epoch, 3, "fence survives compaction");
        assert_eq!(r.state.int("y"), Some(7));
    }

    #[test]
    fn upgrade_records_replay_and_survive_the_snapshot_cut() {
        // No upgrade recorded: version defaults to 1.
        assert_eq!(replay(b"op 1 int x 1\n").unwrap().model_version, 1);
        // An upgrade in the tail applies its embedded migration ops.
        let r = replay(b"op 1 int x 1\nup 2 cand 2 2 int x 7 3 str mode lite\n").unwrap();
        assert_eq!(r.model_version, 2);
        assert_eq!(r.state.int("x"), Some(7));
        assert_eq!(r.state.str("mode"), Some("lite"));
        assert_eq!(r.state.version(), 3);
        assert_eq!(r.ops_replayed, 3);
        // An upgrade *before* the newest snapshot contributes only its
        // version (the ops are baked into the snapshot).
        let r = replay(b"up 2 cand 1 1 int x 7\nsnap 1 0 0 0 x int 7\n").unwrap();
        assert_eq!(r.model_version, 2);
        assert_eq!(r.state.int("x"), Some(7));
        assert_eq!(r.ops_replayed, 0);
        // A rollback re-journals the pre-upgrade version: latest wins.
        let r = replay(b"up 2 cand 0\nup 1 rollback 0\n").unwrap();
        assert_eq!(r.model_version, 1);
        // An embedded op with an LSN gap is damage like any other op.
        assert!(matches!(
            replay(b"up 2 cand 1 5 int x 1\n"),
            Err(BrokerError::JournalDamaged { .. })
        ));
    }

    #[test]
    fn a_refused_upgrade_is_damage_after_the_version_before_it() {
        // An upgrade's ops are checked as one run before any applies, so
        // the last good LSN is the one before the record (1), not an op
        // of the refused record itself (2).
        let r = replay(b"op 1 int x 1\nup 2 cand 2 2 int y 7 4 int z 9\n");
        assert!(
            matches!(
                r,
                Err(BrokerError::JournalDamaged {
                    lsn: 1,
                    offset: 13,
                    ..
                })
            ),
            "{r:?}"
        );
    }

    #[test]
    fn torn_upgrade_records_drop_wholesale() {
        // A cutover record missing its trailing newline was never
        // committed: the torn-tail policy drops the whole line, so
        // recovery sees the pure pre-upgrade state (never a hybrid with
        // some migrations applied).
        let r = replay(b"op 1 int x 1\nup 2 cand 2 2 int x 7 3 str mode lite").unwrap();
        assert_eq!(r.model_version, 1);
        assert_eq!(r.state.int("x"), Some(1));
        assert_eq!(r.state.str("mode"), None);
        let torn = r.torn.expect("tail was torn");
        assert_eq!(torn.dropped_lines, 1);
        assert_eq!(torn.last_lsn, 1);
    }

    #[test]
    fn truncate_to_preserves_the_upgrade_version() {
        let (j, live) = journal_with_two_snapshots();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"ep 3\nup 2 cand 0\n");
        bytes.extend_from_slice(j.bytes());
        let mut j = Journal::resume(bytes, 0);
        assert!(j.truncate_to(live.version()) > 0);
        let r = replay(j.bytes()).unwrap();
        assert_eq!(r.epoch, 3, "fence survives compaction");
        assert_eq!(r.model_version, 2, "live version survives compaction");
        assert_eq!(r.state.int("y"), Some(7));
    }

    #[test]
    fn corrupt_records_and_lsn_gaps_are_typed_errors() {
        // A journal whose very first record is unreadable is damage, not
        // a torn tail: silently recovering an empty state would discard
        // everything the journal might have held.
        assert!(matches!(
            replay(b"nonsense record\n"),
            Err(BrokerError::JournalDamaged {
                lsn: 0,
                offset: 0,
                ..
            })
        ));
        assert!(matches!(
            replay(&[0xFF, 0xFE]),
            Err(BrokerError::JournalDamaged { .. })
        ));
        // LSN 2 with no LSN 1 before it: a lost entry.
        assert!(matches!(
            replay(b"op 2 int x 1\n"),
            Err(BrokerError::JournalDamaged {
                lsn: 0,
                offset: 0,
                ..
            })
        ));
    }

    #[test]
    fn prefix_through_lsn_pins_the_committed_slice() {
        let bytes = b"op 1 int x 1\ncmd 5 call op a 1 1 100\nop 2 int x 2\nop 3 int x 3\n";
        // LSN 0: the empty prefix.
        assert_eq!(prefix_through_lsn(bytes, 0).unwrap(), b"");
        // LSN 2: through the record that reaches it — including the
        // non-LSN command line before it, excluding everything after.
        assert_eq!(
            prefix_through_lsn(bytes, 2).unwrap(),
            &b"op 1 int x 1\ncmd 5 call op a 1 1 100\nop 2 int x 2\n"[..]
        );
        // The full journal covers its head LSN.
        assert_eq!(prefix_through_lsn(bytes, 3).unwrap(), &bytes[..]);
        // A snapshot's version pins LSNs too.
        assert_eq!(
            prefix_through_lsn(b"snap 4 0 0 0\nop 5 int x 9\n", 4).unwrap(),
            &b"snap 4 0 0 0\n"[..]
        );
        // A commit point beyond the journal head is typed refusal.
        assert!(prefix_through_lsn(bytes, 9).is_err());
        // Two mirrors agree on a committed prefix iff the slices match.
        let longer = b"op 1 int x 1\ncmd 5 call op a 1 1 100\nop 2 int x 2\nop 3 int x 7\n";
        assert_eq!(
            prefix_through_lsn(bytes, 2).unwrap(),
            prefix_through_lsn(longer, 2).unwrap()
        );
        assert_ne!(
            prefix_through_lsn(bytes, 3).unwrap(),
            prefix_through_lsn(longer, 3).unwrap()
        );
    }

    #[test]
    fn crc32_matches_the_ieee_check_vector() {
        // The canonical CRC-32 (IEEE 802.3) check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checked_frames_roundtrip_and_verify() {
        let rec = cmd(42);
        let line = frame_record_checked(&rec);
        assert!(line.starts_with("v1 "));
        assert!(line.ends_with('\n'));
        // parse_line sees through the frame and verifies the CRC.
        assert_eq!(parse_line(line.trim_end()).unwrap(), rec);
        // line_payload strips the frame without verifying.
        assert_eq!(line_payload(line.trim_end()), frame_record(&rec).trim_end());
        // A flipped payload byte fails verification with a CRC message,
        // never an echo of the payload.
        let corrupted = line.trim_end().replace("call", "cakl");
        let err = checked_payload(&corrupted).unwrap_err();
        assert!(err.contains("crc mismatch"), "{err}");
        assert!(!err.contains("cakl"), "{err}");
        // Unframed legacy lines pass through line_payload untouched.
        assert_eq!(line_payload("op 1 int x 1"), "op 1 int x 1");
    }

    #[test]
    fn is_framed_detects_the_journal_dialect() {
        assert!(is_framed(b"v1 deadbeef op 1 int x 1\n"));
        assert!(!is_framed(b"op 1 int x 1\n"));
        assert!(!is_framed(b""));
        // Leading blank lines are skipped when sniffing.
        assert!(is_framed(b"\nv1 deadbeef op 1 int x 1\n"));
    }

    /// Builds a framed journal of `n` int sets and the state it encodes.
    fn framed_journal(n: i64) -> Journal {
        let mut live = StateManager::new();
        live.record_ops(true);
        let mut j = Journal::in_memory(0);
        for i in 1..=n {
            live.set_int("x", i);
        }
        for op in live.take_ops() {
            j.record(&JournalRecord::Op(op));
        }
        j
    }

    #[test]
    fn framed_and_legacy_journals_replay_identically() {
        let j = framed_journal(3);
        assert!(is_framed(j.bytes()));
        // The same records in the legacy dialect.
        let mut legacy = Journal::in_memory(0);
        legacy.set_framed(false);
        let mut live = StateManager::new();
        live.record_ops(true);
        for i in 1..=3 {
            live.set_int("x", i);
        }
        for op in live.take_ops() {
            legacy.record(&JournalRecord::Op(op));
        }
        assert!(!is_framed(legacy.bytes()));
        assert!(!legacy.bytes().starts_with(b"v1 "));
        let a = replay(j.bytes()).unwrap();
        let b = replay(legacy.bytes()).unwrap();
        assert_eq!(a.state.snapshot(), b.state.snapshot());
        assert_eq!(a.ops_replayed, b.ops_replayed);
        // Mixed dialects in one journal replay fine too: a legacy prefix
        // with a framed tail is what an upgraded broker leaves behind.
        let mut mixed = legacy.bytes().to_vec();
        mixed.extend_from_slice(
            frame_record_checked(&JournalRecord::Op(StateOp::SetInt {
                lsn: 4,
                key: "x".into(),
                value: 9,
            }))
            .as_bytes(),
        );
        let m = replay(&mixed).unwrap();
        assert_eq!(m.state.int("x"), Some(9));
        assert_eq!(m.state.version(), 4);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let j = framed_journal(3);
        let mut bytes = j.bytes().to_vec();
        let clean_len = bytes.len();
        // A crash mid-append leaves a partial final record: cut the last
        // framed line in half (no trailing newline).
        let next = frame_record_checked(&JournalRecord::Op(StateOp::SetInt {
            lsn: 4,
            key: "x".into(),
            value: 99,
        }));
        bytes.extend_from_slice(&next.as_bytes()[..next.len() / 2]);
        let r = replay(&bytes).unwrap();
        assert_eq!(r.state.int("x"), Some(3), "torn record never applied");
        assert_eq!(r.state.version(), 3);
        let torn = r.torn.expect("torn tail reported");
        assert_eq!(torn.offset as usize, clean_len, "truncation point");
        assert_eq!(torn.dropped_lines, 1);
        assert_eq!(torn.last_lsn, 3);
    }

    #[test]
    fn unterminated_final_record_is_torn_even_when_it_parses() {
        // A tear can cut inside a trailing numeric field and leave a
        // shorter-but-valid record ("count 12" torn to "count 1"). In the
        // legacy dialect no checksum refutes it — but the missing newline
        // proves the write never finished. Treating it as complete would
        // splice the next append onto this line.
        let mut j = Journal::in_memory(0);
        j.set_framed(false);
        j.record(&JournalRecord::Op(StateOp::SetInt {
            lsn: 1,
            key: "count".into(),
            value: 7,
        }));
        let mut bytes = j.bytes().to_vec();
        let clean_len = bytes.len();
        bytes.extend_from_slice(b"op 2 int count 12");
        bytes.truncate(bytes.len() - 1); // torn: "...count 1", no newline
        let r = replay(&bytes).unwrap();
        assert_eq!(r.state.int("count"), Some(7), "torn record never applied");
        let torn = r.torn.expect("unterminated tail reported as torn");
        assert_eq!(torn.offset as usize, clean_len);
        assert_eq!(torn.dropped_lines, 1);
        assert!(torn.why.contains("unterminated"), "{}", torn.why);
    }

    #[test]
    fn interior_crc_damage_is_refused_not_torn() {
        let j = framed_journal(3);
        let text = std::str::from_utf8(j.bytes()).unwrap();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        // Flip one payload byte in the *middle* record: readable records
        // follow it, so this is bit-rot, not a crash-torn tail.
        let mut bytes = lines[0].as_bytes().to_vec();
        let damage_at = bytes.len();
        bytes.extend_from_slice(lines[1].replace("int", "imt").as_bytes());
        bytes.extend_from_slice(lines[2].as_bytes());
        match replay(&bytes) {
            Err(BrokerError::JournalDamaged { lsn, offset, why }) => {
                assert_eq!(lsn, 1);
                assert_eq!(offset as usize, damage_at);
                assert!(why.contains("crc mismatch"), "{why}");
            }
            other => panic!("expected JournalDamaged, got {other:?}"),
        }
    }

    #[test]
    fn truncate_to_respects_the_crc_frame() {
        // The two-snapshot compaction scenario, rebuilt in the framed
        // dialect: snap-line detection must see through the frame.
        let mut live = StateManager::new();
        live.record_ops(true);
        let mut j = Journal::in_memory(0);
        j.record(&JournalRecord::Epoch { epoch: 3 });
        live.set_int("x", 1);
        for op in live.take_ops() {
            j.record(&JournalRecord::Op(op));
        }
        j.record(&snap(&live, 10, 1));
        live.set_int("y", 2);
        // Monitor memory lives in ordinary `mon_*` variables: a latched
        // trip recorded before the compaction cut must survive it.
        live.set_str("mon_nonneg_tripped", "1");
        for op in live.take_ops() {
            j.record(&JournalRecord::Op(op));
        }
        j.record(&snap(&live, 20, 2));
        assert!(is_framed(j.bytes()));
        assert!(j.truncate_to(live.version()) > 0);
        let r = replay(j.bytes()).unwrap();
        assert_eq!(r.epoch, 3, "fence survives framed compaction");
        assert_eq!(r.state.int("y"), Some(2));
        assert_eq!(
            r.state.str("mon_nonneg_tripped"),
            Some("1"),
            "monitor latch survives framed compaction"
        );
        assert_eq!(r.state.version(), live.version());
        // The retained bytes are still CRC-framed and verify cleanly.
        assert!(is_framed(j.bytes()));
        assert!(r.torn.is_none());
    }

    /// xorshift64* — a tiny seeded generator so the property test is
    /// deterministic without external crates.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn escape_roundtrips_arbitrary_strings() {
        // Property: unescape(escape(s)) == s for strings drawn from a
        // palette that stresses the escaper — the escaped characters
        // themselves, sequences that *look* like escapes (`%25`, `%0A`),
        // multibyte characters, and plain text.
        let palette: &[&str] = &[
            "%", " ", "\n", "\t", "%25", "%20", "%0A", "%09", "%2", "%%", "a", "Z", "0", "é", "∅",
            "日", "_", "-", ".", "op", "v1 ",
        ];
        let mut seed = 0x5EED_0E13_u64;
        for _ in 0..500 {
            let len = (xorshift(&mut seed) % 24) as usize;
            let mut s = String::new();
            for _ in 0..len {
                s.push_str(palette[(xorshift(&mut seed) as usize) % palette.len()]);
            }
            let esc = escape(&s);
            // Framing safety: no raw separator survives escaping.
            assert!(!esc.contains(' ') && !esc.contains('\n') && !esc.contains('\t'));
            assert_eq!(unescape(&esc).unwrap(), s, "roundtrip failed for {s:?}");
        }
        // And truly arbitrary (possibly invalid-escape-looking) strings
        // built from raw chars still roundtrip.
        for _ in 0..200 {
            let len = (xorshift(&mut seed) % 40) as usize;
            let s: String = (0..len)
                .map(|_| char::from_u32((xorshift(&mut seed) % 0xD7FF) as u32).unwrap_or('x'))
                .collect();
            assert_eq!(unescape(&escape(&s)).unwrap(), s);
        }
    }

    #[test]
    fn corruption_diagnostics_carry_lsn_and_byte_offset() {
        // Two good records, then an unreadable one, then a good one:
        // interior corruption located by last-good LSN and byte offset —
        // the raw line is never echoed back.
        let good = b"op 1 int x 1\nop 2 int x 5\n";
        let mut bytes = good.to_vec();
        bytes.extend_from_slice(b"garbage here\n");
        let damage_at = bytes.len() - b"garbage here\n".len();
        bytes.extend_from_slice(b"op 3 int x 9\n");
        match replay(&bytes) {
            Err(BrokerError::JournalDamaged { lsn, offset, why }) => {
                assert_eq!(lsn, 2, "last LSN known good before the damage");
                assert_eq!(offset as usize, damage_at, "byte offset of the bad record");
                assert!(!why.contains("garbage here"), "no raw-line echo: {why}");
            }
            other => panic!("expected JournalDamaged, got {other:?}"),
        }
    }
}
