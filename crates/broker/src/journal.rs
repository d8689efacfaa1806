//! Write-ahead journal + periodic snapshots for the Broker runtime model.
//!
//! KMF's lesson is that models@runtime must be cheap to serialize and clone
//! to be usable for recovery; this module applies it to the Fig. 6
//! `StateManager`. Every primitive mutation of the runtime model (an LSN'd
//! [`StateOp`]) and every executed broker command is appended to a
//! [`Journal`], which owns its bytes; every `snapshot_every` appended
//! entries the journal takes a full snapshot. Recovery
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
//! so values may contain spaces and newlines. One codec reads and writes
//! it: [`encode_line`] writes a [`JournalRecord`] straight into the
//! journal's bytes from borrowed data — a snapshot from the live state's
//! slots — and [`parse_line`] yields a record view borrowing the line, so
//! neither end allocates per record. The decoder accepts exactly what the
//! encoder writes, so every accepted line re-encodes to itself.
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

use crate::state::{OpView, StateManager, StateOp, ValueView};
use crate::{BrokerError, Result};
use std::borrow::Cow;

/// Whether a command is an upper-layer call or a resource event: the kind
/// of handler that serves it and of the record it journals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// An upper-layer call.
    Call,
    /// A resource event.
    Event,
}

/// One journal record, in both directions of the wire: the engine builds
/// it from borrowed data (pending ops, the live state, the call's selector
/// and action) and [`encode_line`] writes it, and [`parse_line`] yields it
/// as a view borrowing the line, whose text fields own a copy only where
/// the line held an escape.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord<'a> {
    /// A primitive runtime-model mutation.
    Op(OpView<'a>),
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
        op: OpView<'a>,
    },
    /// An executed broker command (call or event) and the virtual clock
    /// after it completed.
    Command {
        /// Virtual clock (µs) after the command.
        clock_us: u64,
        /// Call or event.
        kind: CommandKind,
        /// Operation name / event topic.
        selector: Cow<'a, str>,
        /// Action that produced the outcome.
        action: Cow<'a, str>,
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
        text: Cow<'a, str>,
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
        tag: Cow<'a, str>,
        /// Declared state migrations + engine reseeds, applied as
        /// ordinary LSN'd ops inside the cutover record.
        ops: Ops<'a>,
    },
    /// A full state snapshot plus the engine counters at snapshot time.
    Snapshot {
        /// The state version (LSN) at snapshot time.
        version: u64,
        /// Every variable, in key order.
        vars: SnapVars<'a>,
        /// Virtual clock (µs).
        clock_us: u64,
        /// Calls handled so far.
        calls: u64,
        /// Events handled so far.
        events: u64,
    },
}

impl<'a> JournalRecord<'a> {
    /// A snapshot of `state`, encoded straight from its slots.
    pub fn snapshot(state: &'a StateManager, clock_us: u64, calls: u64, events: u64) -> Self {
        JournalRecord::Snapshot {
            version: state.version(),
            vars: SnapVars::Live(state),
            clock_us,
            calls,
            events,
        }
    }

    /// The newest state LSN this record pins down: an op's LSN (the last
    /// of a coalesced run), an upgrade's last migration op, a snapshot's
    /// version. `None` for records that carry no LSN.
    pub fn lsn(&self) -> Option<u64> {
        match self {
            JournalRecord::Op(op) | JournalRecord::OpCoalesced { op, .. } => Some(op.lsn),
            JournalRecord::Upgrade { ops, .. } => ops.iter().last().map(|op| op.lsn),
            JournalRecord::Snapshot { version, .. } => Some(*version),
            _ => None,
        }
    }
}

/// The migration ops of an upgrade record: pending ops drained from a
/// state manager, or ops in a decoded line that the decoder has checked.
#[derive(Debug, Clone)]
pub enum Ops<'a> {
    /// Ops recorded by a live state manager.
    Pending(&'a [StateOp]),
    /// `n` ops still encoded in a decoded line.
    Wire {
        /// How many ops the line holds.
        n: u64,
        /// The line's fields from the first op on.
        fields: Fields<'a>,
    },
}

impl<'a> Ops<'a> {
    /// How many ops there are: the count an upgrade line declares.
    fn count(&self) -> u64 {
        match self {
            Ops::Pending(ops) => ops.len() as u64,
            Ops::Wire { n, .. } => *n,
        }
    }

    /// The ops, in order.
    pub fn iter(&self) -> impl Iterator<Item = OpView<'a>> + '_ {
        let (pending, wire) = match self {
            Ops::Pending(ops) => (Some(ops.iter().map(StateOp::view)), None),
            Ops::Wire { n, fields } => {
                let mut fields = fields.clone();
                let ops = (0..*n).map_while(move |_| fields.op().ok());
                (None, Some(ops))
            }
        };
        pending
            .into_iter()
            .flatten()
            .chain(wire.into_iter().flatten())
    }
}

impl PartialEq for Ops<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// The variables of a snapshot record: a live state's slots, or the
/// checked variables of a decoded line.
#[derive(Debug, Clone)]
pub enum SnapVars<'a> {
    /// A live state manager's set variables.
    Live(&'a StateManager),
    /// Variables still encoded in a decoded line.
    Wire(Fields<'a>),
}

impl<'a> SnapVars<'a> {
    /// Every variable and its value, in record order.
    pub fn iter(&self) -> impl Iterator<Item = (Cow<'a, str>, ValueView<'a>)> + '_ {
        let (live, wire) = match self {
            SnapVars::Live(state) => {
                let vars = state
                    .vars()
                    .map(|(key, value)| (Cow::Borrowed(key), value.view()));
                (Some(vars), None)
            }
            SnapVars::Wire(fields) => {
                let mut fields = fields.clone();
                (None, Some(std::iter::from_fn(move || fields.var().ok()?)))
            }
        };
        live.into_iter().flatten().chain(wire.into_iter().flatten())
    }
}

impl PartialEq for SnapVars<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

// -- Encoding -----------------------------------------------------------------

/// Whether `b` must be percent-escaped inside a field: `%`, space, tab and
/// newline would break record framing.
fn needs_escape(b: u8) -> bool {
    matches!(b, b'%' | b' ' | b'\n' | b'\t')
}

/// Appends `s` percent-escaped; a field with nothing to escape is copied
/// whole. The escaped bytes are ASCII, which never occurs inside a
/// multi-byte UTF-8 sequence, so escaping byte by byte is exact.
fn push_text(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    if !bytes.iter().copied().any(needs_escape) {
        out.extend_from_slice(bytes);
        return;
    }
    for &b in bytes {
        match b {
            b'%' => out.extend_from_slice(b"%25"),
            b' ' => out.extend_from_slice(b"%20"),
            b'\n' => out.extend_from_slice(b"%0A"),
            b'\t' => out.extend_from_slice(b"%09"),
            _ => out.push(b),
        }
    }
}

/// Appends `v` in decimal, digit by digit.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// The type tag a value is written under.
fn type_tag(value: &ValueView<'_>) -> &'static [u8] {
    match value {
        ValueView::Str(_) => b"str",
        ValueView::Int(_) => b"int",
    }
}

/// Appends a value: its text escaped, or its integer.
fn push_value(out: &mut Vec<u8>, value: &ValueView<'_>) {
    match value {
        ValueView::Str(s) => push_text(out, s),
        ValueView::Int(i) => push_i64(out, *i),
    }
}

/// Appends an op's LSN and mutation (shared by the `op`, `opc` and `up`
/// tags): `<lsn> str|int <key> <value>` or `<lsn> del <key>`.
fn push_op(out: &mut Vec<u8>, op: &OpView<'_>) {
    push_u64(out, op.lsn);
    out.push(b' ');
    out.extend_from_slice(op.value.as_ref().map_or(&b"del"[..], type_tag));
    out.push(b' ');
    push_text(out, &op.key);
    if let Some(value) = &op.value {
        out.push(b' ');
        push_value(out, value);
    }
}

/// Appends a space-led numeric field.
fn push_num(out: &mut Vec<u8>, v: u64) {
    out.push(b' ');
    push_u64(out, v);
}

/// Appends `rec`'s payload: the record without frame header or newline.
fn push_payload(out: &mut Vec<u8>, rec: &JournalRecord<'_>) {
    match rec {
        JournalRecord::Op(op) => {
            out.extend_from_slice(b"op ");
            push_op(out, op);
        }
        JournalRecord::OpCoalesced { first_lsn, op } => {
            out.extend_from_slice(b"opc");
            push_num(out, *first_lsn);
            out.push(b' ');
            push_op(out, op);
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
            out.extend_from_slice(b"cmd");
            push_num(out, *clock_us);
            out.extend_from_slice(match kind {
                CommandKind::Call => b" call ",
                CommandKind::Event => b" event ",
            });
            push_text(out, selector);
            out.push(b' ');
            push_text(out, action);
            out.extend_from_slice(if *ok { b" 1" } else { b" 0" });
            push_num(out, u64::from(*attempts));
            push_num(out, *cost_us);
        }
        JournalRecord::Clock { clock_us } => {
            out.extend_from_slice(b"clk");
            push_num(out, *clock_us);
        }
        JournalRecord::Epoch { epoch } => {
            out.extend_from_slice(b"ep");
            push_num(out, *epoch);
        }
        JournalRecord::Note { text } => {
            out.extend_from_slice(b"note ");
            push_text(out, text);
        }
        JournalRecord::Upgrade { version, tag, ops } => {
            out.extend_from_slice(b"up");
            push_num(out, *version);
            out.push(b' ');
            push_text(out, tag);
            push_num(out, ops.count());
            for op in ops.iter() {
                out.push(b' ');
                push_op(out, &op);
            }
        }
        JournalRecord::Snapshot {
            version,
            vars,
            clock_us,
            calls,
            events,
        } => {
            out.extend_from_slice(b"snap");
            for v in [*version, *clock_us, *calls, *events] {
                push_num(out, v);
            }
            for (key, value) in vars.iter() {
                out.push(b' ');
                push_text(out, &key);
                out.push(b' ');
                out.extend_from_slice(type_tag(&value));
                out.push(b' ');
                push_value(out, &value);
            }
        }
    }
}

/// Appends `rec` to `out` as one wire line, trailing newline included:
/// under the versioned CRC32 frame (`v1 <crc32-hex> <payload>`) when
/// `framed`, bare (the legacy dialect) otherwise. This is the journal's
/// one encoder; it writes straight into `out` and allocates nothing
/// beyond `out`'s growth.
pub fn encode_line(rec: &JournalRecord<'_>, framed: bool, out: &mut Vec<u8>) {
    if !framed {
        push_payload(out, rec);
        out.push(b'\n');
        return;
    }
    // `v1` is the frame version: bumped if the frame layout ever changes,
    // and parsing keys on it, so dialects can coexist in one journal. The
    // CRC digits are written once the payload they cover is in place.
    out.extend_from_slice(b"v1 ........ ");
    let start = out.len();
    push_payload(out, rec);
    let crc = crc32(&out[start..]);
    for (i, digit) in out[start - 9..start - 1].iter_mut().enumerate() {
        *digit = HEX_DIGITS[((crc >> (28 - 4 * i)) & 0xF) as usize];
    }
    out.push(b'\n');
}

// -- CRC32 record frames -----------------------------------------------------

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

/// A byte's value as a digit of [`HEX_DIGITS`], or [`NOT_HEX`]: a bit no
/// digit's value has, so the OR of a field's entries flags a bad digit
/// without a branch per digit.
static HEX_VALUES: [u8; 256] = {
    let mut t = [NOT_HEX; 256];
    let mut i = 0;
    while i < HEX_DIGITS.len() {
        t[HEX_DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    t
};

/// [`HEX_VALUES`]' entry for a byte that is not a lowercase hex digit.
const NOT_HEX: u8 = 0x10;

/// Splits a line into its record payload, verifying the CRC when the line
/// carries a `v1` frame; legacy (unframed) lines pass through untouched.
/// The error is a human-readable reason, not a [`BrokerError`], so callers
/// can attach position context (LSN, byte offset) before surfacing it.
fn checked_payload(line: &str) -> std::result::Result<&str, String> {
    let Some(rest) = line.strip_prefix("v1 ") else {
        return Ok(line);
    };
    let (Some(crc_hex), Some(b' '), Some(payload)) =
        (rest.get(..8), rest.as_bytes().get(8), rest.get(9..))
    else {
        return Err("malformed v1 frame header".to_owned());
    };
    // Lowercase hex only: the form the encoder writes.
    let (mut stored, mut digits) = (0u32, 0u8);
    for &b in crc_hex.as_bytes() {
        let v = HEX_VALUES[usize::from(b)];
        stored = stored << 4 | u32::from(v & 0xF);
        digits |= v;
    }
    if digits & NOT_HEX != 0 {
        return Err(format!("bad v1 frame crc field `{crc_hex}`"));
    }
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

// -- Decoding -----------------------------------------------------------------

fn bad(why: &str) -> BrokerError {
    BrokerError::RecoveryDiverged(format!("corrupt journal record: {why}"))
}

/// A field's text with its escapes decoded, into an owned copy. Refuses
/// what the encoder never writes: a raw tab, or a `%` that does not start
/// one of the four escapes.
fn unescape(field: &str) -> Result<String> {
    let mut out = String::with_capacity(field.len());
    let mut rest = field;
    while let Some(at) = rest.find(['%', '\t']) {
        out.push_str(&rest[..at]);
        out.push(match rest.as_bytes().get(at..at + 3) {
            Some(b"%25") => '%',
            Some(b"%20") => ' ',
            Some(b"%0A") => '\n',
            Some(b"%09") => '\t',
            _ => {
                return Err(BrokerError::RecoveryDiverged(format!(
                    "corrupt escape in journal field `{field}`"
                )))
            }
        });
        rest = &rest[at + 3..];
    }
    out.push_str(rest);
    Ok(out)
}

/// The space-separated fields of a record payload, read strictly: every
/// number in the one form the encoder writes, every text field unescaped
/// (borrowed unless it holds an escape), and nothing after a record's
/// last field — so every line the decoder accepts re-encodes to itself.
#[derive(Debug, Clone)]
pub struct Fields<'a>(Option<&'a str>);

impl<'a> Fields<'a> {
    /// The next field, and whether it holds a `%` or a tab, the bytes
    /// [`unescape`] reads; `None` past the last. Fields are short, so one
    /// byte loop finds the separating space and notes those bytes on the
    /// way: no `memchr` call, and no second pass over a text field.
    fn split(&mut self) -> Option<(&'a str, bool)> {
        let rest = self.0?;
        let mut escaped = false;
        for (at, &b) in rest.as_bytes().iter().enumerate() {
            if b == b' ' {
                // A space is one byte, so both cuts fall on character
                // boundaries.
                let (field, tail) = rest.split_at_checked(at)?;
                self.0 = tail.get(1..);
                return Some((field, escaped));
            }
            escaped |= (b == b'%') | (b == b'\t');
        }
        self.0 = None;
        Some((rest, escaped))
    }

    /// The next field; `None` past the last.
    fn next(&mut self) -> Option<&'a str> {
        self.split().map(|(field, _)| field)
    }

    fn field(&mut self, what: &str) -> Result<&'a str> {
        self.next().ok_or_else(|| bad(&format!("missing {what}")))
    }

    /// The next field as a decimal in the one form the encoder writes:
    /// digits only, no sign, no leading zero (bar `0` itself), within
    /// `u64`. It is checked and read in the one pass that finds its
    /// closing space.
    fn u64(&mut self, what: &str) -> Result<u64> {
        let rest = self.0.ok_or_else(|| bad(&format!("missing {what}")))?;
        let not_canonical = || bad(&format!("bad {what}"));
        let (mut value, mut len) = (0u64, 0);
        for &b in rest.as_bytes() {
            if b == b' ' {
                break;
            }
            let digit = b.wrapping_sub(b'0');
            // `len == 1 && value == 0`: a digit after a leading `0`.
            if digit > 9 || (len == 1 && value == 0) {
                return Err(not_canonical());
            }
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(digit)))
                .ok_or_else(not_canonical)?;
            len += 1;
        }
        if len == 0 {
            return Err(not_canonical());
        }
        // Past the one-byte closing space; `None` after the last field.
        self.0 = rest.get(len + 1..);
        Ok(value)
    }

    /// The next field as an `i64`: a canonical magnitude (see
    /// [`Fields::u64`]), led by `-` when negative, never `-0`.
    fn i64(&mut self, what: &str) -> Result<i64> {
        let negative = self.0.is_some_and(|rest| rest.starts_with('-'));
        if negative {
            self.0 = self.0.and_then(|rest| rest.get(1..));
        }
        let magnitude = self.u64(what)?;
        let value = if negative {
            Some(magnitude)
                .filter(|&m| m != 0)
                .and_then(|m| 0i64.checked_sub_unsigned(m))
        } else {
            i64::try_from(magnitude).ok()
        };
        value.ok_or_else(|| bad(&format!("bad {what}")))
    }

    /// The next field's text: borrowed unless it holds an escape.
    fn text(&mut self, what: &str) -> Result<Cow<'a, str>> {
        match self.split() {
            Some((field, false)) => Ok(Cow::Borrowed(field)),
            Some((field, true)) => unescape(field).map(Cow::Owned),
            None => Err(bad(&format!("missing {what}"))),
        }
    }

    /// An op: `<lsn> str|int <key> <value>` or `<lsn> del <key>`.
    fn op(&mut self) -> Result<OpView<'a>> {
        let lsn = self.u64("lsn")?;
        let ty = self.field("op type")?;
        let key = self.text("key")?;
        let value = match ty {
            "str" => Some(ValueView::Str(self.text("value")?)),
            "int" => Some(ValueView::Int(self.i64("int value")?)),
            "del" => None,
            other => return Err(bad(&format!("unknown op type `{other}`"))),
        };
        Ok(OpView { lsn, key, value })
    }

    /// A snapshot variable, `<key> str|int <value>`; `None` past the last.
    fn var(&mut self) -> Result<Option<(Cow<'a, str>, ValueView<'a>)>> {
        if self.0.is_none() {
            return Ok(None);
        }
        let key = self.text("var key")?;
        let value = match self.field("var type")? {
            "str" => ValueView::Str(self.text("var value")?),
            "int" => ValueView::Int(self.i64("var int")?),
            other => return Err(bad(&format!("unknown var type `{other}`"))),
        };
        Ok(Some((key, value)))
    }
}

/// Decodes one record payload (no frame header, no newline).
fn decode(payload: &str) -> Result<JournalRecord<'_>> {
    let mut f = Fields(Some(payload));
    let rec = match f.field("record tag")? {
        "op" => JournalRecord::Op(f.op()?),
        "opc" => JournalRecord::OpCoalesced {
            first_lsn: f.u64("first lsn")?,
            op: f.op()?,
        },
        "cmd" => JournalRecord::Command {
            clock_us: f.u64("clock")?,
            kind: match f.field("command kind")? {
                "call" => CommandKind::Call,
                "event" => CommandKind::Event,
                _ => return Err(bad("bad command kind")),
            },
            selector: f.text("selector")?,
            action: f.text("action")?,
            ok: match f.field("ok flag")? {
                "0" => false,
                "1" => true,
                _ => return Err(bad("bad ok flag")),
            },
            attempts: u32::try_from(f.u64("attempts")?).map_err(|_| bad("bad attempts"))?,
            cost_us: f.u64("cost")?,
        },
        "clk" => JournalRecord::Clock {
            clock_us: f.u64("clock")?,
        },
        "ep" => JournalRecord::Epoch {
            epoch: f.u64("epoch")?,
        },
        "note" => JournalRecord::Note {
            text: f.text("note text")?,
        },
        "up" => {
            let version = f.u64("model version")?;
            let tag = f.text("upgrade tag")?;
            let n = f.u64("op count")?;
            let ops = Ops::Wire {
                n,
                fields: f.clone(),
            };
            // The count sizes nothing: each declared op must be there, so
            // a line declaring more ops than it holds is refused.
            for _ in 0..n {
                f.op()?;
            }
            JournalRecord::Upgrade { version, tag, ops }
        }
        "snap" => {
            let (version, clock_us) = (f.u64("version")?, f.u64("clock")?);
            let (calls, events) = (f.u64("calls")?, f.u64("events")?);
            let vars = SnapVars::Wire(f.clone());
            while f.var()?.is_some() {}
            JournalRecord::Snapshot {
                version,
                vars,
                clock_us,
                calls,
                events,
            }
        }
        other => return Err(bad(&format!("unknown record tag `{other}`"))),
    };
    if f.next().is_some() {
        return Err(bad("trailing field"));
    }
    Ok(rec)
}

/// Decodes one line (without its trailing newline) into a record view
/// borrowing it, verifying the CRC when the line is `v1`-framed: the one
/// decoder, the inverse of [`encode_line`] in both dialects.
pub fn parse_line(line: &str) -> Result<JournalRecord<'_>> {
    decode(checked_payload(line).map_err(|why| bad(&why))?)
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

    /// Appends one record, encoded straight into the journal's bytes.
    pub fn record(&mut self, rec: &JournalRecord<'_>) {
        encode_line(rec, self.framed, &mut self.bytes);
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
    /// Applies one record, writing its ops and snapshot variables into
    /// the state's slots in place. State ops are LSN-checked against the
    /// state version: an op must follow it, a coalesced run must start
    /// right after it, and an upgrade's migration ops must run on from it
    /// — all of them, checked before the first is applied. A refused
    /// record changes nothing.
    pub(crate) fn apply<'r>(&mut self, rec: &'r JournalRecord<'_>) -> Result<Touched<'r>> {
        match rec {
            JournalRecord::Op(op) => {
                self.state.apply_op(op)?;
                Ok(Touched::Key(&op.key))
            }
            JournalRecord::OpCoalesced { first_lsn, op } => {
                self.state.apply_coalesced(*first_lsn, op)?;
                Ok(Touched::Key(&op.key))
            }
            JournalRecord::Upgrade { ops, .. } => {
                let from = self.state.version();
                let gap = ops
                    .iter()
                    .zip(1..)
                    .find(|(op, i)| op.lsn.checked_sub(from) != Some(*i));
                if let Some((op, _)) = gap {
                    return Err(BrokerError::RecoveryDiverged(format!(
                        "upgrade op LSN {} does not run on from state version {from}",
                        op.lsn
                    )));
                }
                for op in ops.iter() {
                    self.state.apply_op(&op)?;
                }
                self.adopt_fence(rec);
                Ok(Touched::Any)
            }
            JournalRecord::Snapshot {
                version,
                vars,
                clock_us,
                calls,
                events,
            } => {
                self.state.restore(*version, vars.iter());
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
    fn adopt_fence(&mut self, rec: &JournalRecord<'_>) {
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

/// One scanned journal line: its byte offset and either the decoded
/// record, borrowing the journal bytes, or the reason it could not be read
/// (frame damage, bad CRC, bad parse).
struct ScannedLine<'a> {
    offset: usize,
    rec: std::result::Result<JournalRecord<'a>, String>,
}

fn scan_lines(bytes: &[u8]) -> Vec<ScannedLine<'_>> {
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
                    Ok(line) => {
                        checked_payload(line).and_then(|payload| decode(payload).map_err(reason))
                    }
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
    let records: Vec<(usize, JournalRecord<'_>)> = lines
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
    fn snap(s: &StateManager, clock_us: u64, calls: u64) -> JournalRecord<'_> {
        JournalRecord::snapshot(s, clock_us, calls, 0)
    }

    /// Journals every op `live` recorded since the last flush.
    fn flush(live: &mut StateManager, j: &mut Journal) {
        for op in live.drain_ops() {
            j.record(&JournalRecord::Op(op.view()));
        }
    }

    /// `rec` as one wire line, newline included.
    fn line(rec: &JournalRecord<'_>, framed: bool) -> String {
        let mut out = Vec::new();
        encode_line(rec, framed, &mut out);
        String::from_utf8(out).unwrap()
    }

    /// An op record of `key` at `lsn`.
    fn op<'a>(lsn: u64, key: &'a str, value: Option<ValueView<'a>>) -> JournalRecord<'a> {
        JournalRecord::Op(OpView {
            lsn,
            key: key.into(),
            value,
        })
    }

    fn cmd(clock_us: u64) -> JournalRecord<'static> {
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
        let migrations = [
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
        ];
        let str_value = |v| Some(ValueView::Str(Cow::Borrowed(v)));
        let records = vec![
            JournalRecord::snapshot(&s, 5, 2, 1),
            op(3, "k e y", str_value("v%")),
            op(4, "n", Some(ValueView::Int(9))),
            op(5, "mode", None),
            cmd(77),
            JournalRecord::Clock { clock_us: 99 },
            JournalRecord::Upgrade {
                version: 2,
                tag: "candidate v2 (two words)".into(),
                ops: Ops::Pending(&migrations),
            },
            JournalRecord::Upgrade {
                version: 3,
                tag: "no-migrations".into(),
                ops: Ops::Pending(&[]),
            },
        ];
        for r in &records {
            for framed in [false, true] {
                let line = line(r, framed);
                assert!(line.ends_with('\n'));
                let back = parse_line(line.trim_end()).unwrap();
                assert_eq!(&back, r);
                // Fields without escapes borrow the line.
                if let JournalRecord::Op(OpView { key, .. }) = &back {
                    assert_eq!(matches!(key, Cow::Borrowed(_)), !key.contains(' '));
                }
            }
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
        let empty = StateManager::new();
        j.record(&snap(&empty, 2, 2));
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
        flush(&mut live, &mut j);
        j.record(&snap(&live, 10, 1));
        live.bump("opens", 2);
        flush(&mut live, &mut j);
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
        flush(&mut live, &mut j);
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
        let ops: Vec<StateOp> = live.drain_ops().collect();
        // Coalesce the run by hand (the engine does the same).
        j.record(&JournalRecord::OpCoalesced {
            first_lsn: ops[0].lsn(),
            op: ops[2].view(),
        });
        j.record(&JournalRecord::Op(ops[3].view()));

        let r = replay(j.bytes()).unwrap();
        assert_eq!(r.state.int("tokens"), Some(3));
        assert_eq!(r.state.str("mode"), Some("lite"));
        assert_eq!(r.state.version(), live.version());
        assert_eq!(r.state.snapshot(), live.snapshot());
        assert_eq!(r.ops_replayed, 4);
        // Framing roundtrip of the coalesced record itself.
        let rec = JournalRecord::OpCoalesced {
            first_lsn: 1,
            op: ops[2].view(),
        };
        assert_eq!(parse_line(line(&rec, false).trim_end()).unwrap(), rec);
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
        assert_eq!(parse_line(line(&rec, false).trim_end()).unwrap(), rec);
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
        flush(&mut live, &mut j);
        j.record(&snap(&live, 10, 1));
        live.set_int("y", 2);
        flush(&mut live, &mut j);
        j.record(&snap(&live, 20, 2));
        live.bump("y", 5);
        flush(&mut live, &mut j);
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
        let framed = line(&rec, true);
        assert!(framed.starts_with("v1 "));
        assert!(framed.ends_with('\n'));
        // parse_line sees through the frame and verifies the CRC.
        assert_eq!(parse_line(framed.trim_end()).unwrap(), rec);
        // line_payload strips the frame without verifying.
        assert_eq!(
            line_payload(framed.trim_end()),
            line(&rec, false).trim_end()
        );
        let line = framed;
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
        flush(&mut live, &mut j);
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
        flush(&mut live, &mut legacy);
        assert!(!is_framed(legacy.bytes()));
        assert!(!legacy.bytes().starts_with(b"v1 "));
        let a = replay(j.bytes()).unwrap();
        let b = replay(legacy.bytes()).unwrap();
        assert_eq!(a.state.snapshot(), b.state.snapshot());
        assert_eq!(a.ops_replayed, b.ops_replayed);
        // Mixed dialects in one journal replay fine too: a legacy prefix
        // with a framed tail is what an upgraded broker leaves behind.
        let mut mixed = legacy.bytes().to_vec();
        encode_line(&op(4, "x", Some(ValueView::Int(9))), true, &mut mixed);
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
        let next = line(&op(4, "x", Some(ValueView::Int(99))), true);
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
        j.record(&op(1, "count", Some(ValueView::Int(7))));
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
        flush(&mut live, &mut j);
        j.record(&snap(&live, 10, 1));
        live.set_int("y", 2);
        // Monitor memory lives in ordinary `mon_*` variables: a latched
        // trip recorded before the compaction cut must survive it.
        live.set_str("mon_nonneg_tripped", "1");
        flush(&mut live, &mut j);
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

    fn escaped(s: &str) -> String {
        let mut out = Vec::new();
        push_text(&mut out, s);
        String::from_utf8(out).unwrap()
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
            let esc = escaped(&s);
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
            assert_eq!(unescape(&escaped(&s)).unwrap(), s);
        }
    }

    /// `payload` under a valid `v1` frame: a CRC is no signature, so
    /// whatever a corrupt payload does, it does framed too.
    fn framed(payload: &str) -> String {
        format!("v1 {:08x} {payload}", crc32(payload.as_bytes()))
    }

    #[test]
    fn a_declared_op_count_sizes_nothing() {
        // `up` records declaring far more ops than they hold, up to counts
        // whose buffer would abort the process: each is refused as corrupt
        // by every reader of journal and wire lines.
        for payload in [
            "up 2 t 1000000000000",
            "up 2 t 18446744073709551615",
            "up 2 t 3 1 int x 1",
        ] {
            for line in [payload.to_owned(), framed(payload)] {
                assert!(parse_line(&line).is_err(), "{line}");
                let bytes = format!("{line}\n");
                assert!(
                    matches!(
                        replay(bytes.as_bytes()),
                        Err(BrokerError::JournalDamaged { .. })
                    ),
                    "{line}"
                );
                assert!(prefix_through_lsn(bytes.as_bytes(), 1).is_err(), "{line}");
                let mut sb = crate::replication::Standby::new("b");
                assert!(sb.receive(0, &line, 1).is_err(), "{line}");
                assert_eq!(sb.received(), 0, "{line}");
            }
        }
    }

    /// Why `parse_line` refuses `line`.
    fn refusal(line: &str) -> String {
        match parse_line(line) {
            Err(BrokerError::RecoveryDiverged(why)) => why,
            other => panic!("{line:?} was not refused: {other:?}"),
        }
    }

    #[test]
    fn the_decoder_accepts_only_what_the_encoder_writes() {
        // Each refused payload, bare and framed, with its reason.
        let corrupt = |why: &str| format!("corrupt journal record: {why}");
        let mut refused = vec![
            // A counter past u32::MAX (it used to wrap to 1 attempt).
            (
                "cmd 5 call s a 1 4294967297 0".to_owned(),
                corrupt("bad attempts"),
            ),
            ("up 2 t 01 2 int x 1".to_owned(), corrupt("bad op count")),
            // A missing field, a raw tab, an escape the encoder never writes.
            ("note".to_owned(), corrupt("missing note text")),
            (
                "note tab\there".to_owned(),
                "corrupt escape in journal field `tab\there`".to_owned(),
            ),
            (
                "note %0a".to_owned(),
                "corrupt escape in journal field `%0a`".to_owned(),
            ),
        ];
        // Numbers: digits only, no sign, no leading zero bar `0` itself,
        // within the field's type.
        let not_u64 = ["00", "01", "+1", "", "18446744073709551616", "-1", "1a"];
        let not_i64 = ["-0", "9223372036854775808", "-9223372036854775809", "-"];
        for n in not_u64 {
            refused.push((format!("clk {n}"), corrupt("bad clock")));
            refused.push((format!("op {n} int x 1"), corrupt("bad lsn")));
        }
        for n in not_u64.iter().filter(|&&n| n != "-1").chain(&not_i64) {
            refused.push((format!("op 1 int x {n}"), corrupt("bad int value")));
            refused.push((format!("snap 1 0 0 0 x int {n}"), corrupt("bad var int")));
        }
        // A field after a record's last.
        for line in [
            "clk 5 6",
            "ep 2 x",
            "op 1 int x 1 2",
            "op 1 del x y",
            "opc 1 2 str x y z",
            "cmd 5 call s a 1 1 0 extra",
            "note two words",
            "up 2 t 0 extra",
            "up 2 t 1 1 int x 1 extra",
        ] {
            refused.push((line.to_owned(), corrupt("trailing field")));
        }
        for (line, why) in &refused {
            assert_eq!(&refusal(line), why, "{line}");
            assert_eq!(&refusal(&framed(line)), why, "framed {line}");
        }
        // The CRC field: eight lowercase hex digits and nothing else.
        let payload = "clk 5";
        let crc = format!("{:08x}", crc32(payload.as_bytes()));
        for field in [
            format!("{}A", &crc[..7]),
            format!("{}F", &crc[..7]),
            format!("g{}", &crc[1..]),
            format!("é{}", &crc[2..]),
            format!("{}∅", &crc[3..]),
        ] {
            assert_eq!(
                refusal(&format!("v1 {field} {payload}")),
                corrupt(&format!("bad v1 frame crc field `{field}`"))
            );
        }
        // A character cut by the separator's place leaves no header.
        assert_eq!(
            refusal(&format!("v1 {}é {payload}", &crc[..7])),
            corrupt("malformed v1 frame header")
        );
        // The canonical forms are accepted, and re-encode to themselves.
        for line in [
            "cmd 5 call s a 1 4294967295 0",
            "op 1 int x 7",
            "op 1 int x -7",
            "op 1 int x 0",
            "op 1 int x -9223372036854775808",
            "op 1 int x 9223372036854775807",
            "op 0 int x 0",
            "op 18446744073709551615 int x 1",
            "clk 0",
            "clk 18446744073709551615",
            "snap 0 0 0 0 x int -9223372036854775808",
            "note ",
            "note tab%09here",
            "up 2 t 0",
        ] {
            for line in [line.to_owned(), framed(line)] {
                let rec = parse_line(&line).unwrap();
                let mut again = Vec::new();
                encode_line(&rec, line.starts_with("v1 "), &mut again);
                assert_eq!(again, format!("{line}\n").as_bytes());
            }
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
