//! Binary wire encoding for [`UpdateMsg`]: what actually crosses the
//! client↔cloud link.
//!
//! The evaluation accounts traffic with [`UpdateMsg::wire_size`]; this
//! module provides the real serialization so the accounting is honest
//! (tests assert the encoded size matches the accounted size to within
//! the per-message padding) and so updates can be persisted or shipped
//! over a real transport.
//!
//! Three encode/decode shapes share one format:
//!
//! * [`encode_into`] serializes into a caller-owned scratch buffer so a
//!   sender looping over messages reuses one allocation; [`encode`] is
//!   the convenience wrapper that allocates.
//! * [`decode_shared`] decodes from a shared [`Bytes`] buffer and
//!   recovers every payload (`Full` bodies, `Write` data, delta
//!   literals) as a zero-copy view into it via `slice_ref`; [`decode`]
//!   wraps it for plain slices (one copy into a fresh buffer).
//! * [`encode_vectored`] performs scatter-gather framing: control bytes
//!   land in the scratch buffer while payloads stay as shared
//!   [`Payload`] segments, so large bodies are never memcpy'd into the
//!   frame at all. Concatenating the segments reproduces [`encode`]'s
//!   output byte for byte.
//!
//! Format (little-endian):
//!
//! ```text
//! msg      = magic "DCFS" | u8 opcode | path | opt_version base |
//!            opt_version new | u64 txn_or_0 | opt_group | body
//! path     = u16 len | bytes
//! version  = u8 present | [u32 client | u64 counter]
//! group    = u8 present | [u32 client | u64 seq]
//! body     = per opcode; op lists (Ops, Delta) are streams of tagged
//!            ops closed by an 0xFF end marker, so a streaming sender
//!            can emit the header before it knows the op count
//! ```

use bytes::Bytes;
use deltacfs_delta::{Delta, DeltaOp};

use crate::protocol::{ClientId, FileOpItem, GroupId, Payload, UpdateMsg, UpdatePayload, Version};

const MAGIC: &[u8; 4] = b"DCFS";

/// Terminator tag closing an op stream (`Ops` and `Delta` bodies).
pub(crate) const OPS_END: u8 = 0xFF;

/// Errors produced when decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended prematurely or framing lengths are inconsistent.
    Truncated,
    /// The magic number or an opcode/tag byte was invalid.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire message"),
            WireError::Malformed(what) => write!(f, "malformed wire message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes_short(&mut self, v: &[u8]) {
        debug_assert!(v.len() <= u16::MAX as usize);
        self.u16(v.len() as u16);
        self.buf.extend_from_slice(v);
    }

    fn bytes_long(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    fn version_opt(&mut self, v: Option<Version>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u32(v.client.0);
                self.u64(v.counter);
            }
            None => self.u8(0),
        }
    }

    /// The `<CliID, GroupSeq>` group header. Besides keying the
    /// server's replay index and chunk staging, this doubles as the
    /// *span context* of the causal profiler: every side that handles
    /// the frame — codec, link, server stage/apply, forward fan-out —
    /// derives its [`GroupKey`](deltacfs_obs::GroupKey) from this
    /// header via [`GroupId::span_key`], so spans recorded on both
    /// sides of the wire join one per-group trace tree with zero extra
    /// bytes on the wire.
    fn group_opt(&mut self, g: Option<GroupId>) {
        match g {
            Some(g) => {
                self.u8(1);
                self.u32(g.client.0);
                self.u64(g.seq);
            }
            None => self.u8(0),
        }
    }

    /// Everything up to (not including) the opcode-specific body.
    fn header(&mut self, msg: &UpdateMsg) {
        self.buf.extend_from_slice(MAGIC);
        self.u8(opcode(&msg.payload));
        self.bytes_short(msg.path.as_bytes());
        self.version_opt(msg.base);
        self.version_opt(msg.version);
        self.u64(msg.txn.unwrap_or(0));
        self.group_opt(msg.group);
    }

    fn delta_op(&mut self, op: &DeltaOp) {
        match op {
            DeltaOp::Copy { offset, len } => {
                self.u8(0);
                self.u64(*offset);
                self.u64(*len);
            }
            DeltaOp::Literal(b) => {
                self.u8(1);
                self.bytes_long(b);
            }
        }
    }

    fn file_op(&mut self, op: &FileOpItem) {
        match op {
            FileOpItem::Write { offset, data } => {
                self.u8(0);
                self.u64(*offset);
                self.bytes_long(data);
            }
            FileOpItem::Truncate { size } => {
                self.u8(1);
                self.u64(*size);
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn bytes_short(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u16()? as usize;
        self.take(len)
    }

    fn bytes_long(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    fn version_opt(&mut self) -> Result<Option<Version>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(Version {
                client: ClientId(self.u32()?),
                counter: self.u64()?,
            })),
            _ => Err(WireError::Malformed("version tag")),
        }
    }

    fn group_opt(&mut self) -> Result<Option<GroupId>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(GroupId {
                client: ClientId(self.u32()?),
                seq: self.u64()?,
            })),
            _ => Err(WireError::Malformed("group tag")),
        }
    }
}

fn opcode(payload: &UpdatePayload) -> u8 {
    match payload {
        UpdatePayload::Create => 0,
        UpdatePayload::Ops(_) => 1,
        UpdatePayload::Delta { .. } => 2,
        UpdatePayload::Full(_) => 3,
        UpdatePayload::Rename { .. } => 4,
        UpdatePayload::Link { .. } => 5,
        UpdatePayload::Unlink => 6,
        UpdatePayload::Mkdir => 7,
        UpdatePayload::Rmdir => 8,
    }
}

/// Serializes one [`UpdateMsg`] to bytes.
///
/// # Example
///
/// ```
/// use deltacfs_core::{wire, UpdateMsg, UpdatePayload};
///
/// let msg = UpdateMsg {
///     path: "/f".into(),
///     base: None,
///     version: None,
///     payload: UpdatePayload::Mkdir,
///     txn: None,
///     group: None,
/// };
/// let bytes = wire::encode(&msg);
/// assert_eq!(wire::decode(&bytes).unwrap(), msg);
/// ```
pub fn encode(msg: &UpdateMsg) -> Vec<u8> {
    let mut buf = Vec::with_capacity(128);
    encode_into(&mut buf, msg);
    buf
}

/// Serializes one [`UpdateMsg`] into `buf`, clearing it first.
///
/// The buffer's allocation is reused across calls, so a sender encoding
/// a stream of messages touches the allocator only when a message
/// outgrows every previous one.
pub fn encode_into(buf: &mut Vec<u8>, msg: &UpdateMsg) {
    buf.clear();
    let mut w = Writer { buf };
    w.header(msg);
    match &msg.payload {
        UpdatePayload::Create
        | UpdatePayload::Unlink
        | UpdatePayload::Mkdir
        | UpdatePayload::Rmdir => {}
        UpdatePayload::Ops(ops) => {
            for op in ops {
                w.file_op(op);
            }
            w.u8(OPS_END);
        }
        UpdatePayload::Delta { base_path, delta } => {
            w.bytes_short(base_path.as_bytes());
            for op in delta.ops() {
                w.delta_op(op);
            }
            w.u8(OPS_END);
        }
        UpdatePayload::Full(data) => w.bytes_long(data),
        UpdatePayload::Rename { to } | UpdatePayload::Link { to } => w.bytes_short(to.as_bytes()),
    }
}

/// One segment of a scatter-gather [`WireFrame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameSeg {
    /// A range of control bytes inside the caller's scratch buffer.
    Scratch(std::ops::Range<usize>),
    /// A shared payload transmitted as-is — no copy into the frame.
    Shared(Payload),
}

/// A scatter-gather encoded message: interleaved scratch-buffer ranges
/// and shared payload views whose concatenation equals [`encode`]'s
/// output for the same message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// The segments, in wire order.
    pub segs: Vec<FrameSeg>,
}

impl WireFrame {
    /// Total bytes the frame occupies on the wire.
    pub fn wire_len(&self, scratch: &[u8]) -> usize {
        self.segs
            .iter()
            .map(|seg| match seg {
                FrameSeg::Scratch(r) => {
                    debug_assert!(r.end <= scratch.len());
                    r.len()
                }
                FrameSeg::Shared(p) => p.len(),
            })
            .sum()
    }

    /// Materializes the frame into contiguous bytes (the receiver-side
    /// "NIC landing" copy; senders never need this).
    pub fn assemble(&self, scratch: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len(scratch));
        for seg in &self.segs {
            match seg {
                FrameSeg::Scratch(r) => out.extend_from_slice(&scratch[r.clone()]),
                FrameSeg::Shared(p) => out.extend_from_slice(p),
            }
        }
        out
    }
}

/// Tracks the boundary between control bytes (appended to scratch) and
/// shared payload segments while building a [`WireFrame`].
struct SegWriter<'a> {
    scratch: &'a mut Vec<u8>,
    segs: Vec<FrameSeg>,
    cut: usize,
}

impl SegWriter<'_> {
    fn shared(&mut self, payload: Payload) {
        let here = self.scratch.len();
        if here > self.cut {
            self.segs.push(FrameSeg::Scratch(self.cut..here));
        }
        self.segs.push(FrameSeg::Shared(payload));
        self.cut = here;
    }

    fn finish(mut self) -> WireFrame {
        let here = self.scratch.len();
        if here > self.cut {
            self.segs.push(FrameSeg::Scratch(self.cut..here));
        }
        WireFrame { segs: self.segs }
    }
}

/// Scatter-gather serialization: control bytes are appended to
/// `scratch` (which is cleared first), payload bodies stay as shared
/// [`Payload`] segments.
///
/// Concatenating the returned segments (see [`WireFrame::assemble`])
/// yields exactly [`encode`]`(msg)`, but the sender never copies payload
/// bytes — a `Full` body or a `Write`'s data travels as an `Arc` bump.
pub fn encode_vectored(msg: &UpdateMsg, scratch: &mut Vec<u8>) -> WireFrame {
    scratch.clear();
    let mut sw = SegWriter {
        scratch,
        segs: Vec::new(),
        cut: 0,
    };
    {
        let mut w = Writer { buf: sw.scratch };
        w.header(msg);
    }
    match &msg.payload {
        UpdatePayload::Create
        | UpdatePayload::Unlink
        | UpdatePayload::Mkdir
        | UpdatePayload::Rmdir => {}
        UpdatePayload::Ops(ops) => {
            for op in ops {
                let mut w = Writer { buf: sw.scratch };
                match op {
                    FileOpItem::Write { offset, data } => {
                        w.u8(0);
                        w.u64(*offset);
                        w.u64(data.len() as u64);
                        sw.shared(data.clone());
                    }
                    FileOpItem::Truncate { size } => {
                        w.u8(1);
                        w.u64(*size);
                    }
                }
            }
            Writer { buf: sw.scratch }.u8(OPS_END);
        }
        UpdatePayload::Delta { base_path, delta } => {
            Writer { buf: sw.scratch }.bytes_short(base_path.as_bytes());
            for op in delta.ops() {
                let mut w = Writer { buf: sw.scratch };
                match op {
                    DeltaOp::Copy { offset, len } => {
                        w.u8(0);
                        w.u64(*offset);
                        w.u64(*len);
                    }
                    DeltaOp::Literal(b) => {
                        w.u8(1);
                        w.u64(b.len() as u64);
                        sw.shared(Payload::from(b.clone()));
                    }
                }
            }
            Writer { buf: sw.scratch }.u8(OPS_END);
        }
        UpdatePayload::Full(data) => {
            Writer { buf: sw.scratch }.u64(data.len() as u64);
            sw.shared(data.clone());
        }
        UpdatePayload::Rename { to } | UpdatePayload::Link { to } => {
            Writer { buf: sw.scratch }.bytes_short(to.as_bytes());
        }
    }
    sw.finish()
}

/// Deserializes one [`UpdateMsg`] from bytes (copies payloads).
///
/// # Errors
///
/// [`WireError::Truncated`] or [`WireError::Malformed`] on any framing
/// violation; decoding never panics on untrusted input.
pub fn decode(buf: &[u8]) -> Result<UpdateMsg, WireError> {
    decode_shared(&Bytes::copy_from_slice(buf))
}

/// Deserializes one [`UpdateMsg`] from a shared buffer, recovering every
/// payload (`Full` bodies, `Write` data, delta literals) as a zero-copy
/// view into `buf` — the receiver holds exactly one allocation per
/// message no matter how many payload-bearing ops it carries.
///
/// # Errors
///
/// Same failure modes as [`decode`].
pub fn decode_shared(buf: &Bytes) -> Result<UpdateMsg, WireError> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(WireError::Malformed("magic"));
    }
    let opcode = r.u8()?;
    let path = String::from_utf8(r.bytes_short()?.to_vec())
        .map_err(|_| WireError::Malformed("path utf-8"))?;
    let base = r.version_opt()?;
    let version = r.version_opt()?;
    let txn = match r.u64()? {
        0 => None,
        t => Some(t),
    };
    let group = r.group_opt()?;
    let payload = match opcode {
        0 => UpdatePayload::Create,
        1 => {
            let mut ops = Vec::new();
            loop {
                match r.u8()? {
                    0 => {
                        let offset = r.u64()?;
                        let data = Payload::from(buf.slice_ref(r.bytes_long()?));
                        ops.push(FileOpItem::Write { offset, data });
                    }
                    1 => ops.push(FileOpItem::Truncate { size: r.u64()? }),
                    OPS_END => break,
                    _ => return Err(WireError::Malformed("op tag")),
                }
            }
            UpdatePayload::Ops(ops)
        }
        2 => {
            let base_path = String::from_utf8(r.bytes_short()?.to_vec())
                .map_err(|_| WireError::Malformed("base path utf-8"))?;
            let mut ops = Vec::new();
            loop {
                match r.u8()? {
                    0 => ops.push(DeltaOp::Copy {
                        offset: r.u64()?,
                        len: r.u64()?,
                    }),
                    1 => ops.push(DeltaOp::Literal(buf.slice_ref(r.bytes_long()?))),
                    OPS_END => break,
                    _ => return Err(WireError::Malformed("delta op tag")),
                }
            }
            UpdatePayload::Delta {
                base_path,
                delta: Delta::from_ops(ops),
            }
        }
        3 => UpdatePayload::Full(Payload::from(buf.slice_ref(r.bytes_long()?))),
        4 => UpdatePayload::Rename {
            to: String::from_utf8(r.bytes_short()?.to_vec())
                .map_err(|_| WireError::Malformed("rename target utf-8"))?,
        },
        5 => UpdatePayload::Link {
            to: String::from_utf8(r.bytes_short()?.to_vec())
                .map_err(|_| WireError::Malformed("link target utf-8"))?,
        },
        6 => UpdatePayload::Unlink,
        7 => UpdatePayload::Mkdir,
        8 => UpdatePayload::Rmdir,
        _ => return Err(WireError::Malformed("opcode")),
    };
    if r.pos != buf.len() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(UpdateMsg {
        path,
        base,
        version,
        payload,
        txn,
        group,
    })
}

/// Per-frame codec tag: how a chunk frame's bytes are encoded on the
/// wire.
///
/// Raw frames carry **no** tag — they are byte-identical to the
/// pre-codec wire format, so a stream that never compresses is
/// indistinguishable from one produced before the codec existed, and
/// incompressible traffic pays zero overhead. Only compressed frames
/// wrap their bytes in a [`encode_codec_envelope`] envelope; the tag
/// travels out-of-band on the frame header
/// (`ChunkFrame::codec`), the same way `last_in_msg`/`last_in_group`
/// do.
///
/// [`ChunkFrame::codec`]: crate::pipeline::ChunkFrame
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Untagged frame: pieces are the message bytes themselves.
    #[default]
    Raw,
    /// LZ77-compressed envelope (`tag | varint raw_len | compressed`).
    Lz77 {
        /// Decompressed length — doubles as the receiver's hard
        /// decompression cap, so a corrupt envelope cannot balloon
        /// memory.
        raw_len: u64,
    },
}

/// Envelope tag byte for an LZ77-compressed chunk frame.
pub const CODEC_LZ77: u8 = 0x01;

fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn get_uvarint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().enumerate() {
        if shift == 63 && b & 0x7e != 0 {
            return None; // bits past the 64th
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
    None
}

/// Builds the compressed-frame envelope:
/// `CODEC_LZ77 | varint raw_len | compressed bytes`.
///
/// Writes the header, then lets `write_body` append the compressed
/// bytes straight into the same buffer, so the body is never copied.
/// The envelope is what crosses the wire for a compressed frame; the
/// sender only ships it when it is strictly smaller than the raw frame,
/// so raw traffic is never inflated by the tag.
pub fn encode_codec_envelope(raw_len: u64, write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::with_capacity(11);
    buf.push(CODEC_LZ77);
    put_uvarint(&mut buf, raw_len);
    write_body(&mut buf);
    buf
}

/// Splits a compressed-frame envelope into its declared raw length and
/// the compressed body.
///
/// # Errors
///
/// [`WireError::Malformed`] on a wrong tag or an unterminated /
/// overlong length varint; never panics on untrusted input.
pub fn decode_codec_envelope(buf: &[u8]) -> Result<(u64, &[u8]), WireError> {
    if buf.first() != Some(&CODEC_LZ77) {
        return Err(WireError::Malformed("codec envelope tag"));
    }
    let rest = &buf[1..];
    let (raw_len, used) =
        get_uvarint(rest).ok_or(WireError::Malformed("codec envelope length"))?;
    Ok((raw_len, &rest[used..]))
}

/// Opcode tag distinguishing an acknowledgement frame from update
/// messages (which use the low opcode range).
const ACK_OPCODE: u8 = 0x40;

/// The server's per-group acknowledgement: which group it settles and
/// the outcome tallies the client uses for conflict surfacing.
///
/// Every simulated ack download charges
/// [`ACK_WIRE_BYTES`](crate::protocol::ACK_WIRE_BYTES) — the encoded
/// size of this frame — so the traffic accounting tracks the real
/// header, not a magic number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireAck {
    /// The upload group being acknowledged.
    pub group: GroupId,
    /// Messages applied cleanly.
    pub applied: u32,
    /// Messages that produced a conflict copy.
    pub conflicts: u32,
    /// Messages rejected outright.
    pub rejected: u32,
}

/// Serializes one acknowledgement frame.
///
/// ```text
/// ack = magic "DCFS" | u8 ACK_OPCODE | u8[3] reserved |
///       u32 client | u64 group_seq |
///       u32 applied | u32 conflicts | u32 rejected
/// ```
pub fn encode_ack(ack: &WireAck) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    let mut w = Writer { buf: &mut buf };
    w.buf.extend_from_slice(MAGIC);
    w.u8(ACK_OPCODE);
    w.buf.extend_from_slice(&[0u8; 3]);
    w.u32(ack.group.client.0);
    w.u64(ack.group.seq);
    w.u32(ack.applied);
    w.u32(ack.conflicts);
    w.u32(ack.rejected);
    buf
}

/// Deserializes one acknowledgement frame.
///
/// # Errors
///
/// [`WireError::Truncated`] or [`WireError::Malformed`] on any framing
/// violation.
pub fn decode_ack(buf: &[u8]) -> Result<WireAck, WireError> {
    let shared = Bytes::copy_from_slice(buf);
    let mut r = Reader {
        buf: &shared,
        pos: 0,
    };
    if r.take(4)? != MAGIC {
        return Err(WireError::Malformed("magic"));
    }
    if r.u8()? != ACK_OPCODE {
        return Err(WireError::Malformed("ack opcode"));
    }
    if r.take(3)? != [0u8; 3] {
        return Err(WireError::Malformed("ack reserved"));
    }
    let client = ClientId(r.u32()?);
    let seq = r.u64()?;
    let ack = WireAck {
        group: GroupId { client, seq },
        applied: r.u32()?,
        conflicts: r.u32()?,
        rejected: r.u32()?,
    };
    if r.pos != buf.len() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(ack)
}

/// Appends the streaming prefix of a Delta-payload message to `buf`:
/// the full header plus the body's `base_path`, i.e. everything before
/// the op stream. Append tagged ops with [`append_delta_ops`] and close
/// with [`finish_op_stream`]; the concatenation decodes like a
/// materialized Delta message (the receiver's `Delta::from_ops`
/// re-merges ops split at chunk boundaries).
pub(crate) fn begin_delta_stream(buf: &mut Vec<u8>, msg: &UpdateMsg, base_path: &str) {
    let mut w = Writer { buf };
    w.header(msg);
    w.bytes_short(base_path.as_bytes());
}

/// Appends tagged delta ops (no terminator) to a streamed message body.
pub(crate) fn append_delta_ops(buf: &mut Vec<u8>, ops: &[DeltaOp]) {
    let mut w = Writer { buf };
    for op in ops {
        w.delta_op(op);
    }
}

/// Closes a streamed op stream with the end marker.
pub(crate) fn finish_op_stream(buf: &mut Vec<u8>) {
    buf.push(OPS_END);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame that is garbage at every framing layer: wrong magic for the
    /// message decoder, wrong codec tag for the envelope decoder, and too
    /// short for either header. Shared by the frame- and envelope-rejection
    /// tests so they provably exercise the same hostile input.
    const MALFORMED_FRAME: &[u8] = &[0xDE, 0xAD, 0xBE, 0xEF];

    fn v(c: u32, n: u64) -> Version {
        Version {
            client: ClientId(c),
            counter: n,
        }
    }

    fn g(c: u32, n: u64) -> GroupId {
        GroupId {
            client: ClientId(c),
            seq: n,
        }
    }

    #[test]
    fn ack_frame_roundtrips_and_matches_accounted_size() {
        let ack = WireAck {
            group: g(7, 123_456),
            applied: 3,
            conflicts: 1,
            rejected: 0,
        };
        let buf = encode_ack(&ack);
        assert_eq!(
            buf.len() as u64,
            crate::protocol::ACK_WIRE_BYTES,
            "ACK_WIRE_BYTES must track the real ack header"
        );
        assert_eq!(decode_ack(&buf), Ok(ack));
        // Framing violations are rejected, not misread.
        assert!(decode_ack(&buf[..buf.len() - 1]).is_err());
        let mut wrong = buf.clone();
        wrong[4] = 0x41;
        assert!(decode_ack(&wrong).is_err());
    }

    fn sample_msgs() -> Vec<UpdateMsg> {
        vec![
            UpdateMsg {
                path: "/a".into(),
                base: None,
                version: Some(v(1, 1)),
                payload: UpdatePayload::Create,
                group: Some(g(1, 1)),
                txn: None,
            },
            UpdateMsg {
                path: "/b/c".into(),
                base: Some(v(1, 1)),
                version: Some(v(1, 2)),
                payload: UpdatePayload::Ops(vec![
                    FileOpItem::Write {
                        offset: 42,
                        data: Payload::from_static(b"payload"),
                    },
                    FileOpItem::Truncate { size: 10 },
                ]),
                group: Some(g(1, 2)),
                txn: Some(7),
            },
            UpdateMsg {
                path: "/f".into(),
                base: Some(v(2, 9)),
                version: Some(v(1, 3)),
                payload: UpdatePayload::Delta {
                    base_path: "/t0".into(),
                    delta: Delta::from_ops(vec![
                        DeltaOp::Copy { offset: 0, len: 99 },
                        DeltaOp::Literal(Bytes::from_static(b"tail")),
                    ]),
                },
                group: None,
                txn: None,
            },
            UpdateMsg {
                path: "/full".into(),
                base: None,
                version: Some(v(1, 4)),
                payload: UpdatePayload::Full(Payload::from_static(b"whole file")),
                group: Some(g(1, 3)),
                txn: None,
            },
            UpdateMsg {
                path: "/old".into(),
                base: None,
                version: None,
                payload: UpdatePayload::Rename { to: "/new".into() },
                group: Some(g(2, 7)),
                txn: None,
            },
            UpdateMsg {
                path: "/src".into(),
                base: None,
                version: None,
                payload: UpdatePayload::Link { to: "/dst".into() },
                group: None,
                txn: None,
            },
            UpdateMsg {
                path: "/gone".into(),
                base: Some(v(3, 3)),
                version: None,
                payload: UpdatePayload::Unlink,
                group: Some(g(3, 1)),
                txn: Some(2),
            },
            UpdateMsg {
                path: "/dir".into(),
                base: None,
                version: None,
                payload: UpdatePayload::Mkdir,
                group: None,
                txn: None,
            },
            UpdateMsg {
                path: "/dir".into(),
                base: None,
                version: None,
                payload: UpdatePayload::Rmdir,
                group: Some(g(1, 4)),
                txn: None,
            },
        ]
    }

    #[test]
    fn every_payload_kind_roundtrips() {
        for msg in sample_msgs() {
            let encoded = encode(&msg);
            let decoded = decode(&encoded).expect("decode");
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn group_header_carries_the_span_context_across_the_wire() {
        // The receiving side must derive the exact same profiler group
        // key the sender stamped — the span context rides the existing
        // `<CliID, GroupSeq>` header, no extra bytes.
        for msg in sample_msgs() {
            let decoded = decode(&encode(&msg)).expect("decode");
            assert_eq!(
                decoded.group.map(|g| g.span_key()),
                msg.group.map(|g| g.span_key()),
            );
        }
        let key = g(2, 7).span_key();
        assert_eq!(key.client, 2);
        assert_eq!(key.seq, 7);
        assert_eq!(key.to_string(), "<c2,g7>");
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode() {
        let mut buf = Vec::new();
        for msg in sample_msgs() {
            encode_into(&mut buf, &msg);
            assert_eq!(buf, encode(&msg));
        }
        // After the largest message has been seen, re-encoding smaller
        // ones must not grow the allocation.
        let cap = buf.capacity();
        for msg in sample_msgs() {
            encode_into(&mut buf, &msg);
        }
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn vectored_segments_concatenate_to_the_flat_encoding() {
        let mut scratch = Vec::new();
        for msg in sample_msgs() {
            let frame = encode_vectored(&msg, &mut scratch);
            let flat = encode(&msg);
            assert_eq!(frame.wire_len(&scratch), flat.len());
            assert_eq!(frame.assemble(&scratch), flat, "{msg:?}");
        }
    }

    #[test]
    fn vectored_payloads_share_storage_with_the_message() {
        let data = Payload::from(vec![7u8; 1024]);
        let msg = UpdateMsg {
            path: "/big".into(),
            base: None,
            version: Some(v(1, 1)),
            payload: UpdatePayload::Full(data.clone()),
            group: None,
            txn: None,
        };
        let mut scratch = Vec::new();
        let frame = encode_vectored(&msg, &mut scratch);
        let shared: Vec<_> = frame
            .segs
            .iter()
            .filter_map(|s| match s {
                FrameSeg::Shared(p) => Some(p),
                FrameSeg::Scratch(_) => None,
            })
            .collect();
        assert_eq!(shared.len(), 1);
        // Pointer equality: the segment is a view of the payload's
        // buffer, not a copy.
        assert!(std::ptr::eq(shared[0].as_ref(), data.as_ref()));
    }

    #[test]
    fn decode_shared_recovers_payload_views_without_copying() {
        let msg = &sample_msgs()[3]; // Full(b"whole file")
        let encoded = Bytes::from(encode(msg));
        let decoded = decode_shared(&encoded).expect("decode");
        let UpdatePayload::Full(data) = &decoded.payload else {
            panic!("expected Full payload");
        };
        // The recovered payload points into the encoded buffer itself.
        let base = encoded.as_ref().as_ptr() as usize;
        let view = data.as_ref().as_ptr() as usize;
        assert!(view >= base && view < base + encoded.len());
        assert_eq!(&data[..], b"whole file");
    }

    #[test]
    fn streamed_delta_prefix_plus_ops_decodes_to_the_merged_delta() {
        let msg = sample_msgs()[2].clone();
        let UpdatePayload::Delta { base_path, delta } = &msg.payload else {
            unreachable!()
        };
        // Stream the ops one at a time, with the trailing literal split
        // in two as a chunk boundary would split it.
        let mut buf = Vec::new();
        begin_delta_stream(&mut buf, &msg, base_path);
        append_delta_ops(&mut buf, &[delta.ops()[0].clone()]);
        append_delta_ops(&mut buf, &[DeltaOp::Literal(Bytes::from_static(b"ta"))]);
        append_delta_ops(&mut buf, &[DeltaOp::Literal(Bytes::from_static(b"il"))]);
        finish_op_stream(&mut buf);
        assert_eq!(decode(&buf).expect("decode"), msg);
    }

    #[test]
    fn encoded_size_tracks_accounted_size() {
        // The accounting model (wire_size) must stay within the real
        // encoded size plus the fixed header allowance.
        for msg in sample_msgs() {
            let encoded_len = encode(&msg).len() as u64;
            let accounted = msg.wire_size();
            assert!(
                encoded_len <= accounted + 64,
                "{msg:?}: encoded {encoded_len} vs accounted {accounted}"
            );
        }
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        let full = encode(&sample_msgs()[2]);
        for cut in 0..full.len() {
            assert!(
                decode(&full[..cut]).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn corrupted_tags_are_rejected() {
        let mut buf = encode(&sample_msgs()[0]);
        buf[4] = 0xFE; // opcode
        assert!(matches!(decode(&buf), Err(WireError::Malformed(_))));
        assert!(decode(MALFORMED_FRAME).is_err());
    }

    #[test]
    fn corrupted_group_tag_is_rejected() {
        // Header layout for sample 0: magic(4) opcode(1) path(2+2)
        // base(1) version(13) txn(8) — the group tag sits at offset 31.
        let mut buf = encode(&sample_msgs()[0]);
        buf[31..35].copy_from_slice(MALFORMED_FRAME);
        assert_eq!(decode(&buf), Err(WireError::Malformed("group tag")));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut buf = encode(&sample_msgs()[0]);
        buf.push(0);
        assert_eq!(decode(&buf), Err(WireError::Malformed("trailing bytes")));
    }

    #[test]
    fn codec_envelope_roundtrips() {
        for raw_len in [0u64, 1, 127, 128, 300_000, u64::MAX] {
            let body = b"compressed-bytes";
            let env = encode_codec_envelope(raw_len, |buf| buf.extend_from_slice(body));
            assert_eq!(env[0], CODEC_LZ77);
            assert_eq!(decode_codec_envelope(&env), Ok((raw_len, &body[..])));
        }
        // Empty body is legal at the framing layer.
        let env = encode_codec_envelope(5, |_| {});
        assert_eq!(decode_codec_envelope(&env), Ok((5, &b""[..])));
    }

    #[test]
    fn malformed_codec_envelopes_are_rejected() {
        // Empty buffer, wrong tag, unterminated varint, overlong varint.
        assert!(decode_codec_envelope(&[]).is_err());
        assert!(decode_codec_envelope(&[0x02, 0x00]).is_err());
        assert!(decode_codec_envelope(MALFORMED_FRAME).is_err());
        assert!(decode_codec_envelope(&[CODEC_LZ77, 0x80]).is_err());
        let mut overlong = vec![CODEC_LZ77];
        overlong.extend_from_slice(&[0xff; 10]);
        assert!(decode_codec_envelope(&overlong).is_err());
        // 10-byte varint whose top byte spills past bit 63.
        let mut edge = vec![CODEC_LZ77];
        edge.extend_from_slice(&[0x80; 9]);
        edge.push(0x02);
        assert!(decode_codec_envelope(&edge).is_err());
    }
}
