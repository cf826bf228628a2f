//! The upload path: transaction groups cross the simulated wire as
//! bounded chunk frames.
//!
//! Every engine ships a ready group through one function,
//! [`upload_group`], the client→cloud mirror of the hub's forward
//! delivery:
//!
//! * [`frame_group`] turns each message into a sequence of
//!   [`ChunkFrame`]s — scatter-gather pieces mixing small control
//!   buffers (headers, op tags) with shared [`Payload`] views, never
//!   copying payload bytes — holding at most `chunk_budget` literal
//!   bytes each (`usize::MAX` ships one frame per message);
//! * each frame runs through the upload [`WireCodec`], occupies the
//!   uplink as a part ([`Link::upload_part_codec`]) and lands in the
//!   receiver's [`ChunkStager`], which decodes messages and releases
//!   the group atomically when its final frame lands; the message
//!   latency is charged once per group.
//!
//! Accounting is exact, not approximate: the [`ChunkAccountant`]
//! charges each streamed chunk so the per-group total equals
//! `Σ wire_size` byte for byte at any budget — ops that a chunk
//! boundary split are charged one header, just as the receiver's
//! [`Delta::from_ops`](deltacfs_delta::Delta) re-merge produces one op.
//!
//! [`upload_delta_streaming`] goes one step further for a single fresh
//! delta: the encoder runs on its own thread and frames travel over a
//! **bounded** channel ([`run_pipeline`]) with byte-based
//! back-pressure, so encode overlaps upload and peak in-flight memory
//! is `chunk_budget * pipeline_depth` instead of the delta size.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use bytes::Bytes;
use crossbeam::channel::{bounded, Sender};
use deltacfs_delta::compress::decompress_append;
use deltacfs_delta::{
    local, record_hierarchy_stats, take_hierarchy_stats, Cost, Delta, DeltaChunk, DeltaOp,
    DeltaParams, HierarchyStats, OP_HEADER_BYTES,
};
use deltacfs_net::{Link, SimTime};
use deltacfs_obs::{GroupKey, Obs, SpanRecorder};

use crate::protocol::{
    ApplyOutcome, GroupId, Payload, UpdateMsg, UpdatePayload, ACK_WIRE_BYTES, MSG_HEADER_BYTES,
};
use crate::codec::WireCodec;
use crate::server::CloudServer;
use crate::wire::{self, Codec, FrameSeg, WireError};

/// One scatter-gather piece of a [`ChunkFrame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramePiece {
    /// Owned control bytes: message headers, op tags, length prefixes.
    Control(Bytes),
    /// A shared payload view — an `Arc` bump, not a copy.
    Shared(Payload),
}

impl FramePiece {
    /// The piece's bytes, however they are stored.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            FramePiece::Control(b) => b,
            FramePiece::Shared(p) => p,
        }
    }
}

/// One bounded unit of a streamed group upload.
///
/// Concatenating the `pieces` of every frame of one message yields that
/// message's wire encoding (op streams are end-marker terminated, so
/// chunked emission is just a split of the same byte stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFrame {
    /// The transaction group this frame belongs to.
    pub group: GroupId,
    /// Index of the message within the group.
    pub msg_idx: usize,
    /// Index of this chunk within the message.
    pub chunk_idx: usize,
    /// Whether this frame completes its message.
    pub last_in_msg: bool,
    /// Whether this frame completes the whole group (the server commits
    /// the staged messages atomically when it lands).
    pub last_in_group: bool,
    /// Scatter-gather contents, in wire order.
    pub pieces: Vec<FramePiece>,
    /// Model bytes this frame contributes to the traffic accounting.
    /// For raw frames these sum per group exactly to the materialized
    /// `Σ wire_size()`; a compressed frame accounts its (smaller)
    /// envelope instead, so back-pressure and traffic both track the
    /// bytes that actually cross the wire.
    pub accounted: u64,
    /// How the pieces are encoded — [`Codec::Raw`] pieces are message
    /// bytes, [`Codec::Lz77`] pieces form a compressed envelope the
    /// receiver inflates back into the identical message bytes.
    pub codec: Codec,
}

impl ChunkFrame {
    /// Real bytes across all pieces.
    pub fn byte_len(&self) -> u64 {
        self.pieces.iter().map(|p| p.as_slice().len() as u64).sum()
    }

    /// For a compressed frame, the raw byte count its envelope inflates
    /// back to; `None` for raw frames. The link's codec-aware part
    /// methods charge the modeled compression CPU against this.
    pub fn compressed_from(&self) -> Option<u64> {
        match self.codec {
            Codec::Raw => None,
            Codec::Lz77 { raw_len } => Some(raw_len),
        }
    }

    /// The frame's bytes as one slice: borrowed when the frame is a
    /// single piece (every compressed envelope is), joined otherwise.
    pub(crate) fn contiguous(&self) -> Cow<'_, [u8]> {
        match self.pieces.as_slice() {
            [one] => Cow::Borrowed(one.as_slice()),
            pieces => Cow::Owned(
                pieces
                    .iter()
                    .map(FramePiece::as_slice)
                    .collect::<Vec<_>>()
                    .concat(),
            ),
        }
    }

    /// Bytes carried by shared payload pieces (the zero-copy part).
    pub fn payload_bytes(&self) -> u64 {
        self.pieces
            .iter()
            .map(|p| match p {
                FramePiece::Shared(s) => s.len() as u64,
                FramePiece::Control(_) => 0,
            })
            .sum()
    }
}

/// Assembly state of one streamed group: decoded messages so far plus
/// the bytes of the message currently arriving.
#[derive(Debug, Clone, Default)]
struct StageState {
    msgs: Vec<UpdateMsg>,
    cur: Vec<u8>,
    next_msg: usize,
    next_chunk: usize,
}

/// Per-`<CliID, GroupSeq>` chunk staging, shared by both stream
/// directions: the cloud stages client uploads
/// ([`CloudServer::receive_chunk`]) and each client stages the server's
/// forwarded groups through the same state machine, so the commit
/// semantics are symmetric by construction.
///
/// Frames stage per-message bytes (the receiver's single "NIC landing"
/// copy); a `last_in_msg` frame freezes and decodes the message, and
/// the `last_in_group` frame releases the whole group at once — so a
/// group whose stream is cut mid-way releases *nothing*, and a
/// whole-group resend restarts cleanly: chunk `(0, 0)` always resets a
/// stale stage for its group.
#[derive(Debug, Default)]
pub struct ChunkStager {
    stages: HashMap<GroupId, StageState>,
}

impl ChunkStager {
    /// An empty stager.
    pub fn new() -> Self {
        ChunkStager::default()
    }

    /// Stages one frame. Returns `Ok(Some(msgs))` — the group's decoded
    /// messages, in order — when the group completes, `Ok(None)` for an
    /// intermediate frame. The caller owns commit (idempotency,
    /// application): the stager only assembles.
    ///
    /// # Errors
    ///
    /// An out-of-order or unknown frame (a prior chunk was lost) drops
    /// the stage and returns [`WireError::Malformed`]; staged bytes
    /// that fail to decode are reported likewise. Either way the group
    /// is untouched and a full resend recovers.
    pub fn accept(&mut self, frame: &ChunkFrame) -> Result<Option<Vec<UpdateMsg>>, WireError> {
        if frame.msg_idx == 0 && frame.chunk_idx == 0 {
            self.stages.insert(frame.group, StageState::default());
        }
        let Some(stage) = self.stages.get_mut(&frame.group) else {
            return Err(WireError::Malformed("chunk for unknown group stream"));
        };
        if frame.msg_idx != stage.next_msg || frame.chunk_idx != stage.next_chunk {
            self.stages.remove(&frame.group);
            return Err(WireError::Malformed("chunk out of order"));
        }
        match frame.codec {
            Codec::Raw => {
                for piece in &frame.pieces {
                    stage.cur.extend_from_slice(piece.as_slice());
                }
            }
            Codec::Lz77 { raw_len } => {
                // Inflate the envelope straight onto the message bytes,
                // restoring exactly what a raw frame would have carried.
                // `raw_len` caps the output but is never reserved up
                // front: it is the sender's claim, so a corrupt frame
                // cannot balloon memory.
                let env = frame.contiguous();
                let inflated = wire::decode_codec_envelope(&env)
                    .ok()
                    .filter(|&(declared, _)| declared == raw_len)
                    .and_then(|(_, body)| {
                        let cap = usize::try_from(raw_len).ok()?;
                        let produced = decompress_append(body, cap, &mut stage.cur)?;
                        (produced == cap).then_some(())
                    });
                if inflated.is_none() {
                    self.stages.remove(&frame.group);
                    return Err(WireError::Malformed("codec frame"));
                }
            }
        }
        if frame.last_in_msg {
            let buf = Bytes::from(std::mem::take(&mut stage.cur));
            match wire::decode_shared(&buf) {
                Ok(msg) => stage.msgs.push(msg),
                Err(e) => {
                    self.stages.remove(&frame.group);
                    return Err(e);
                }
            }
            stage.next_msg += 1;
            stage.next_chunk = 0;
        } else {
            stage.next_chunk += 1;
        }
        if frame.last_in_group {
            let stage = self
                .stages
                .remove(&frame.group)
                .expect("stage exists: we just appended to it");
            return Ok(Some(stage.msgs));
        }
        Ok(None)
    }

    /// How many groups are currently staged (incomplete streams).
    pub fn staged_groups(&self) -> usize {
        self.stages.len()
    }

    /// Drops every staged group — what a crash does to in-flight
    /// streams on the receiving side.
    pub fn clear(&mut self) {
        self.stages.clear();
    }
}

/// What the last op of the previously accounted chunk was, for the
/// cross-boundary merge rules.
#[derive(Debug, Clone, Copy)]
enum PrevOp {
    Copy { end: u64 },
    Literal,
}

/// Charges streamed [`DeltaChunk`]s so their total equals the
/// materialized delta's wire size.
///
/// A materialized [`Delta`](deltacfs_delta::Delta) charges
/// [`OP_HEADER_BYTES`] per op plus the literal bytes. Chunked emission
/// may split one op across a boundary (a literal cut by the budget, a
/// copy run continued in the next chunk); the receiver's `from_ops`
/// re-merge collapses those back into one op, so the accountant charges
/// the header only for the op's first piece.
#[derive(Debug, Default)]
pub struct ChunkAccountant {
    prev: Option<PrevOp>,
}

impl ChunkAccountant {
    /// A fresh accountant (one per streamed message).
    pub fn new() -> Self {
        ChunkAccountant::default()
    }

    /// Model bytes for `chunk`: literals plus per-op headers, minus the
    /// header of a leading op that merges with the previous chunk's
    /// trailing op.
    pub fn account(&mut self, chunk: &DeltaChunk) -> u64 {
        let mut bytes = 0u64;
        for (i, op) in chunk.ops.iter().enumerate() {
            let merges = i == 0
                && match (self.prev, op) {
                    (Some(PrevOp::Copy { end }), DeltaOp::Copy { offset, .. }) => end == *offset,
                    (Some(PrevOp::Literal), DeltaOp::Literal(_)) => true,
                    _ => false,
                };
            if !merges {
                bytes += OP_HEADER_BYTES;
            }
            match op {
                DeltaOp::Copy { offset, len } => {
                    self.prev = Some(PrevOp::Copy { end: offset + len })
                }
                DeltaOp::Literal(b) => {
                    bytes += b.len() as u64;
                    self.prev = Some(PrevOp::Literal);
                }
            }
        }
        bytes
    }
}

/// Turns a message's [`DeltaChunk`] stream into [`ChunkFrame`]s.
///
/// The first frame carries the message header and the delta body's
/// `base_path`; the last frame (the chunk with `last == true`) closes
/// the op stream. Literal bytes are referenced as shared pieces, never
/// copied.
#[derive(Debug)]
pub struct DeltaFramer {
    meta: UpdateMsg,
    base_path: String,
    group: GroupId,
    msg_idx: usize,
    last_in_group: bool,
    chunk_idx: usize,
    acct: ChunkAccountant,
}

impl DeltaFramer {
    /// A framer for one Delta-payload message.
    ///
    /// `msg`'s payload must be [`UpdatePayload::Delta`]; its `delta`
    /// contents are ignored (the ops come from the chunk stream), so
    /// streaming callers pass an empty one. `last_in_group` marks this
    /// message as the group's final one, propagated to its last frame.
    ///
    /// # Panics
    ///
    /// Panics if `msg.payload` is not a Delta or `msg.group` is `None`.
    pub fn new(msg: &UpdateMsg, msg_idx: usize, last_in_group: bool) -> Self {
        let UpdatePayload::Delta { base_path, .. } = &msg.payload else {
            panic!("DeltaFramer needs a Delta payload");
        };
        DeltaFramer {
            base_path: base_path.clone(),
            group: msg.group.expect("streamed messages carry a group id"),
            meta: msg.clone(),
            msg_idx,
            last_in_group,
            chunk_idx: 0,
            acct: ChunkAccountant::new(),
        }
    }

    /// Frames the next chunk of the stream.
    pub fn frame(&mut self, chunk: &DeltaChunk) -> ChunkFrame {
        let mut pieces = Vec::new();
        let mut control = Vec::new();
        let mut accounted = self.acct.account(chunk);
        if self.chunk_idx == 0 {
            wire::begin_delta_stream(&mut control, &self.meta, &self.base_path);
            accounted += MSG_HEADER_BYTES + self.base_path.len() as u64;
        }
        for op in &chunk.ops {
            match op {
                DeltaOp::Copy { .. } => {
                    wire::append_delta_ops(&mut control, std::slice::from_ref(op));
                }
                DeltaOp::Literal(b) => {
                    // Tag and length go to control; the literal itself is
                    // a shared view of the encoder's buffer.
                    control.push(1);
                    control.extend_from_slice(&(b.len() as u64).to_le_bytes());
                    if !control.is_empty() {
                        pieces.push(FramePiece::Control(Bytes::from(std::mem::take(
                            &mut control,
                        ))));
                    }
                    pieces.push(FramePiece::Shared(Payload::from(b.clone())));
                }
            }
        }
        if chunk.last {
            wire::finish_op_stream(&mut control);
        }
        if !control.is_empty() {
            pieces.push(FramePiece::Control(Bytes::from(control)));
        }
        let frame = ChunkFrame {
            group: self.group,
            msg_idx: self.msg_idx,
            chunk_idx: self.chunk_idx,
            last_in_msg: chunk.last,
            last_in_group: self.last_in_group && chunk.last,
            pieces,
            accounted,
            codec: Codec::Raw,
        };
        self.chunk_idx += 1;
        frame
    }
}

/// Splits a materialized delta's ops into budget-bounded chunks without
/// copying: literal pieces are zero-copy `Bytes` slices.
fn split_delta_ops(delta: &Delta, budget: usize, mut emit: impl FnMut(DeltaChunk)) {
    let budget = budget.max(1);
    let mut ops: Vec<DeltaOp> = Vec::new();
    let mut lit = 0usize;
    for op in delta.ops() {
        match op {
            DeltaOp::Copy { .. } => ops.push(op.clone()),
            DeltaOp::Literal(b) => {
                let mut off = 0;
                while off < b.len() {
                    let take = (budget - lit).min(b.len() - off);
                    ops.push(DeltaOp::Literal(b.slice(off..off + take)));
                    lit += take;
                    off += take;
                    if lit >= budget {
                        emit(DeltaChunk {
                            ops: std::mem::take(&mut ops),
                            last: false,
                        });
                        lit = 0;
                    }
                }
            }
        }
    }
    emit(DeltaChunk { ops, last: true });
}

/// Frames every message of a materialized transaction group as a chunk
/// stream: Delta payloads are split into budget-bounded frames via
/// [`DeltaFramer`]; other payloads are scatter-gather packed with their
/// shared bodies sliced at the budget, so a group-sized `Full` body
/// streams as many bounded frames instead of one group-sized unit
/// (payload bytes stay shared either way — slicing is an `Arc` bump).
/// Per group, the `accounted` fields sum exactly to `Σ wire_size()`:
/// a split message charges its model header on the first frame and
/// payload bytes where they travel.
///
/// # Panics
///
/// Panics if any message lacks a group id or the group is empty.
pub fn frame_group(msgs: &[UpdateMsg], chunk_budget: usize, mut emit: impl FnMut(ChunkFrame)) {
    assert!(!msgs.is_empty(), "cannot frame an empty group");
    let budget = chunk_budget.max(1);
    let mut scratch = Vec::new();
    for (msg_idx, msg) in msgs.iter().enumerate() {
        let last_in_group = msg_idx == msgs.len() - 1;
        let group = msg.group.expect("streamed messages carry a group id");
        if let UpdatePayload::Delta { delta, .. } = &msg.payload {
            let mut framer = DeltaFramer::new(msg, msg_idx, last_in_group);
            split_delta_ops(delta, budget, |chunk| emit(framer.frame(&chunk)));
        } else {
            let wire_frame = wire::encode_vectored(msg, &mut scratch);
            // Greedy packing: shared payload bytes count against the
            // budget (control framing rides along, as in the delta
            // path); a new frame opens only when payload bytes remain.
            let mut packed: Vec<Vec<FramePiece>> = vec![Vec::new()];
            let mut used = 0usize;
            let mut payload_total = 0u64;
            for seg in wire_frame.segs {
                match seg {
                    FrameSeg::Scratch(r) => packed
                        .last_mut()
                        .expect("packed starts non-empty")
                        .push(FramePiece::Control(Bytes::copy_from_slice(&scratch[r]))),
                    FrameSeg::Shared(p) => {
                        payload_total += p.len() as u64;
                        let mut off = 0;
                        while off < p.len() {
                            if used >= budget {
                                packed.push(Vec::new());
                                used = 0;
                            }
                            let take = (budget - used).min(p.len() - off);
                            packed
                                .last_mut()
                                .expect("packed starts non-empty")
                                .push(FramePiece::Shared(p.slice(off..off + take)));
                            used += take;
                            off += take;
                        }
                    }
                }
            }
            let header_share = msg.wire_size() - payload_total;
            let chunks = packed.len();
            for (chunk_idx, pieces) in packed.into_iter().enumerate() {
                let last = chunk_idx == chunks - 1;
                let mut frame = ChunkFrame {
                    group,
                    msg_idx,
                    chunk_idx,
                    last_in_msg: last,
                    last_in_group: last_in_group && last,
                    pieces,
                    accounted: 0,
                    codec: Codec::Raw,
                };
                frame.accounted =
                    frame.payload_bytes() + if chunk_idx == 0 { header_share } else { 0 };
                emit(frame);
            }
        }
    }
}

/// One group's client → cloud transfer as the link and the profiler see
/// it, shared by [`upload_group`] and [`upload_delta_streaming`]: every
/// frame occupies the uplink as a part and records a `wire.upload` span,
/// the frame that commits the group records the zero-width
/// `server.stage` / `server.apply` pair (staging and apply are memory
/// movement the clock does not model), and [`finish`](Self::finish)
/// charges the message latency once.
struct GroupUplink<'a> {
    spans: &'a SpanRecorder,
    key: Option<GroupKey>,
    first_landed: Option<u64>,
    lost: bool,
}

impl<'a> GroupUplink<'a> {
    fn new(obs: &'a Obs, group: Option<GroupId>) -> Self {
        let spans = &obs.spans;
        GroupUplink {
            spans,
            key: group.filter(|_| spans.enabled()).map(|g| g.span_key()),
            first_landed: None,
            lost: false,
        }
    }

    /// Puts `frame` on `link` from `ready` and hands it to `receive`,
    /// which returns the group's outcomes when this frame commits it.
    /// `receive: None` loses the frame on the wire: it still occupies
    /// the link (the sender did transmit it) and its span stays open,
    /// but nothing lands.
    fn ship<R>(
        &mut self,
        link: &mut Link,
        frame: &ChunkFrame,
        ready: SimTime,
        receive: Option<&mut R>,
    ) -> (SimTime, Option<Vec<ApplyOutcome>>)
    where
        R: FnMut(&ChunkFrame) -> Option<Vec<ApplyOutcome>>,
    {
        let start = ready.max(link.upload_busy_until()).as_millis();
        let done = link.upload_part_codec(frame.accounted, frame.compressed_from(), ready);
        let landed = done.as_millis();
        let Some(receive) = receive else {
            self.lost = true;
            if let Some(key) = self.key {
                self.spans.start(key, "link", "wire.upload", start, None);
            }
            return (done, None);
        };
        if let Some(key) = self.key {
            self.spans
                .record(key, "link", "wire.upload", start, landed, None, || {
                    format!(
                        "msg {} chunk {}: {} wire bytes",
                        frame.msg_idx, frame.chunk_idx, frame.accounted
                    )
                });
        }
        let first = *self.first_landed.get_or_insert(landed);
        let committed = receive(frame);
        if let (Some(key), Some(outcomes)) = (self.key, &committed) {
            self.spans
                .record(key, "server", "server.stage", landed, landed, None, || {
                    format!("committed after a {}ms staging window", landed - first)
                });
            self.spans
                .record(key, "server", "server.apply", landed, landed, None, || {
                    format!("{} outcome(s)", outcomes.len())
                });
        }
        (done, committed)
    }

    /// Closes the message: charges the one-way latency once and, unless
    /// a frame was lost, records it as the transfer's last span.
    fn finish(&self, link: &mut Link, now: SimTime) -> SimTime {
        let start = now.max(link.upload_busy_until()).as_millis();
        let done = link.upload_end_msg(now);
        if let (Some(key), false) = (self.key, self.lost) {
            self.spans.record(
                key,
                "link",
                "wire.upload",
                start,
                done.as_millis(),
                None,
                || "end-of-message latency".into(),
            );
        }
        done
    }
}

/// Ships one transaction group client → cloud as bounded chunk frames —
/// the one upload path of every engine.
///
/// The group is framed at `chunk_budget` ([`frame_group`]); each frame
/// runs through the upload `codec`, occupies the uplink as a part from
/// `now` ([`Link::upload_part_codec`]) and lands in `receive` — the
/// receiver's chunk stage, which returns the group's apply outcomes
/// when the final frame commits it. The message latency is charged
/// once per group ([`Link::upload_end_msg`]), so with the codec off the
/// link's `bytes_up` grows by exactly `Σ wire_size()` at any budget.
///
/// `receive: None` is an attempt lost on the wire: every frame still
/// occupies the link and its `wire.upload` span stays open, but nothing
/// is staged.
///
/// Returns the end-of-message completion time and the outcomes of the
/// commit, if `receive` reported one.
pub fn upload_group<R>(
    group: &[UpdateMsg],
    chunk_budget: usize,
    codec: &mut WireCodec,
    link: &mut Link,
    now: SimTime,
    obs: &Obs,
    mut receive: Option<R>,
) -> (SimTime, Option<Vec<ApplyOutcome>>)
where
    R: FnMut(&ChunkFrame) -> Option<Vec<ApplyOutcome>>,
{
    let mut uplink = GroupUplink::new(obs, group.first().and_then(|m| m.group));
    let mut committed = None;
    frame_group(group, chunk_budget, |frame| {
        let frame = codec.encode_frame(frame, now.as_millis());
        if let (_, Some(outcomes)) = uplink.ship(link, &frame, now, receive.as_mut()) {
            committed = Some(outcomes);
        }
    });
    (uplink.finish(link, now), committed)
}

/// Bounds for one pipelined upload.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Literal-byte budget per chunk frame.
    pub chunk_budget: usize,
    /// Bounded channel depth between encoder and uploader.
    pub pipeline_depth: usize,
}

/// What a pipelined upload observed.
#[derive(Debug, Clone, Copy)]
pub struct PipelineReport {
    /// Peak bytes queued between encoder and uploader (frame contents,
    /// control and payload alike).
    pub max_inflight_bytes: u64,
    /// Frames that crossed the channel.
    pub frames: u64,
    /// Simulated completion time of the last uploaded part.
    pub done: SimTime,
}

/// The encoder side's handle: sends frames downstream with in-flight
/// byte accounting. Blocks while the pipeline holds its byte cap
/// (back-pressure); an empty pipeline always admits one frame, so a
/// frame slightly over the cap cannot wedge the channel.
pub struct FrameSender<'a> {
    tx: Sender<ChunkFrame>,
    inflight: &'a Mutex<u64>,
    drained: &'a Condvar,
    cap: u64,
    max_inflight: &'a AtomicU64,
}

impl FrameSender<'_> {
    /// Queues one frame; returns `false` if the uploader has gone away.
    pub fn send(&self, frame: ChunkFrame) -> bool {
        let bytes = frame.byte_len();
        {
            let mut queued = self.inflight.lock().expect("pipeline lock");
            while *queued > 0 && *queued + bytes > self.cap {
                queued = self.drained.wait(queued).expect("pipeline lock");
            }
            *queued += bytes;
            self.max_inflight.fetch_max(*queued, Ordering::SeqCst);
        }
        if self.tx.send(frame).is_err() {
            *self.inflight.lock().expect("pipeline lock") -= bytes;
            return false;
        }
        true
    }
}

/// Runs one producer/consumer pipeline: `produce` emits frames from a
/// scoped encoder thread while `upload` consumes them on the calling
/// thread. Each frame is ready at `now` plus the real encoder time
/// elapsed when it was received, which is what shows upload of chunk
/// `k` overlapping the encoding of chunk `k + 1`. Back-pressure is
/// byte-based: at most `chunk_budget * pipeline_depth` bytes sit
/// between the two (the one
/// exception being a single frame admitted into an empty pipeline, so
/// an over-cap frame cannot deadlock the encoder). With frames of at
/// most `chunk_budget` bytes — the budget covers a frame's control
/// overhead as long as `pipeline_depth >= 2` — the report's
/// `max_inflight_bytes` is therefore bounded by the cap by
/// construction, which the bench-smoke CI job asserts.
///
/// The `pipeline.inflight_bytes` gauge tracks the queued bytes and
/// every frame logs a `chunk` trace event, so a flight recording of a
/// streamed upload shows the interleaving.
pub fn run_pipeline<P>(
    cfg: PipelineConfig,
    now: SimTime,
    obs: &Obs,
    produce: P,
    mut upload: impl FnMut(ChunkFrame, SimTime) -> SimTime,
) -> PipelineReport
where
    P: FnOnce(&FrameSender<'_>) + Send,
{
    let depth = cfg.pipeline_depth.max(1);
    let cap = cfg.chunk_budget.max(1) as u64 * depth as u64;
    let (tx, rx) = bounded::<ChunkFrame>(depth);
    let inflight = Mutex::new(0u64);
    let drained = Condvar::new();
    let max_inflight = AtomicU64::new(0);
    let gauge = obs
        .registry
        .gauge("pipeline.inflight_bytes", "bytes queued encoder->uploader");
    let started = std::time::Instant::now();
    let mut frames = 0u64;
    let mut done = now;
    std::thread::scope(|scope| {
        let sender = FrameSender {
            tx,
            inflight: &inflight,
            drained: &drained,
            cap,
            max_inflight: &max_inflight,
        };
        let encoder = scope.spawn(move || produce(&sender));
        while let Ok(frame) = rx.recv() {
            let ready = now.plus_millis(started.elapsed().as_millis() as u64);
            gauge.set(*inflight.lock().expect("pipeline lock") as i64);
            obs.tracer
                .event(ready.as_millis(), "pipeline", "chunk", || {
                    format!(
                        "msg {} chunk {}{}: {} bytes ({} shared)",
                        frame.msg_idx,
                        frame.chunk_idx,
                        if frame.last_in_group { " [group end]" } else { "" },
                        frame.byte_len(),
                        frame.payload_bytes(),
                    )
                });
            let bytes = frame.byte_len();
            frames += 1;
            done = upload(frame, ready);
            let mut queued = inflight.lock().expect("pipeline lock");
            *queued -= bytes;
            gauge.set(*queued as i64);
            drop(queued);
            drained.notify_all();
        }
        encoder.join().expect("pipeline encoder panicked");
    });
    PipelineReport {
        max_inflight_bytes: max_inflight.load(Ordering::SeqCst),
        frames,
        done,
    }
}

/// Streams a freshly encoded local delta for one file straight onto the
/// wire: `local::diff_streaming` runs on the encoder thread, each
/// [`DeltaChunk`] is framed and uploaded as it lands, and the server
/// commits the (single-message) group when the final chunk arrives.
///
/// This is the full encode→pack→upload overlap in one call: with a
/// bounded channel of `pipeline_depth` frames of at most `chunk_budget`
/// literal bytes, peak in-flight memory no longer tracks the delta
/// size. Traffic accounting, the applied content, and the client
/// [`Cost`] are identical to materializing the delta and uploading it
/// in one shot.
///
/// With a codec attached (`codec: Some(..)`) each frame runs through
/// the [`WireCodec`]'s cost-benefit decision on the encoder thread; a
/// frame that compresses ships its (smaller) envelope and pays the
/// link's modeled compression CPU, and the server's stager inflates it
/// back — applied content and outcomes are identical either way.
///
/// # Panics
///
/// Panics if `msg.payload` is not a Delta or `msg.group` is `None`.
#[allow(clippy::too_many_arguments)]
pub fn upload_delta_streaming(
    old: &[u8],
    new: &[u8],
    params: &DeltaParams,
    workers: usize,
    msg: &UpdateMsg,
    cfg: &PipelineConfig,
    link: &mut Link,
    server: &mut CloudServer,
    now: SimTime,
    obs: &Obs,
    cost: &mut Cost,
    codec: Option<&mut WireCodec>,
) -> (PipelineReport, Vec<ApplyOutcome>) {
    let mut framer = DeltaFramer::new(msg, 0, true);
    let mut outcomes = Vec::new();
    let at_ms = now.as_millis();
    let gkey = msg
        .group
        .expect("streamed messages carry a group id")
        .span_key();
    let spans = &obs.spans;
    let mut uplink = GroupUplink::new(obs, msg.group);
    let mut receive = |frame: &ChunkFrame| {
        server
            .receive_chunk(frame)
            .expect("in-process chunk stream cannot be malformed")
    };
    // The encode span closes at the last frame's ready time — when the
    // encoder actually finished — so the profiler sees the true
    // encode/upload overlap.
    let encode_span = spans.start(gkey, "pipeline", "delta.encode", at_ms, None);
    let mut encode_end_ms = at_ms;
    // The diff runs on the encoder thread; its hierarchy stats land in
    // *that* thread's accumulator, so the encoder drains them here and
    // the tail below re-records them on the caller's thread.
    let mut hstats = HierarchyStats::default();
    let hstats_out = &mut hstats;
    let mut report = run_pipeline(
        *cfg,
        now,
        obs,
        move |sender| {
            let mut codec = codec;
            local::diff_streaming(old, new, params, workers, cost, cfg.chunk_budget, |chunk| {
                let frame = framer.frame(&chunk);
                let frame = match codec.as_deref_mut() {
                    Some(codec) => codec.encode_frame(frame, at_ms),
                    None => frame,
                };
                sender.send(frame);
            });
            *hstats_out = take_hierarchy_stats();
        },
        |frame, ready| {
            encode_end_ms = encode_end_ms.max(ready.as_millis());
            let (done, committed) = uplink.ship(link, &frame, ready, Some(&mut receive));
            outcomes.extend(committed.into_iter().flatten());
            done
        },
    );
    report.done = uplink.finish(link, now);
    link.download(ACK_WIRE_BYTES, now);
    if hstats.engaged() {
        record_hierarchy_stats(&hstats);
        spans.record(
            gkey,
            "pipeline",
            "delta.hierarchy",
            at_ms,
            at_ms,
            None,
            || {
                format!(
                    "{} span(s) matched wholesale, {} bytes skipped, {} leaf-walked",
                    hstats.levels_matched(),
                    hstats.bytes_skipped,
                    hstats.leaf_walk_bytes
                )
            },
        );
    }
    spans.end_detail(encode_span, encode_end_ms, || {
        format!("{} frame(s) emitted", report.frames)
    });
    (report, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ClientId, FileOpItem, Version};

    fn gid() -> GroupId {
        GroupId {
            client: ClientId(1),
            seq: 1,
        }
    }

    fn ver(n: u64) -> Version {
        Version {
            client: ClientId(1),
            counter: n,
        }
    }

    fn delta_msg(delta: Delta) -> UpdateMsg {
        UpdateMsg {
            path: "/f".into(),
            base: Some(ver(1)),
            version: Some(ver(2)),
            payload: UpdatePayload::Delta {
                base_path: "/f".into(),
                delta,
            },
            txn: None,
            group: Some(gid()),
        }
    }

    fn sample_delta() -> Delta {
        Delta::from_ops(vec![
            DeltaOp::Copy { offset: 0, len: 64 },
            DeltaOp::Literal(Bytes::from(vec![7u8; 1000])),
            DeltaOp::Copy {
                offset: 64,
                len: 32,
            },
            DeltaOp::Literal(Bytes::from(vec![9u8; 10])),
        ])
    }

    #[test]
    fn framed_group_accounts_exactly_like_the_materialized_one() {
        let msgs = vec![
            UpdateMsg {
                path: "/f".into(),
                base: None,
                version: Some(ver(1)),
                payload: UpdatePayload::Ops(vec![FileOpItem::Write {
                    offset: 0,
                    data: Payload::from(vec![1u8; 300]),
                }]),
                txn: Some(3),
                group: Some(gid()),
            },
            delta_msg(sample_delta()),
        ];
        let materialized: u64 = msgs.iter().map(UpdateMsg::wire_size).sum();
        for budget in [1usize, 64, 256, 1 << 20] {
            let mut frames = Vec::new();
            frame_group(&msgs, budget, |f| frames.push(f));
            let streamed: u64 = frames.iter().map(|f| f.accounted).sum();
            assert_eq!(streamed, materialized, "budget {budget}");
            assert_eq!(frames.last().map(|f| f.last_in_group), Some(true));
            assert_eq!(
                frames.iter().filter(|f| f.last_in_group).count(),
                1,
                "exactly one group-closing frame"
            );
        }
    }

    #[test]
    fn framed_message_bytes_reassemble_to_a_decodable_encoding() {
        let msg = delta_msg(sample_delta());
        let mut frames = Vec::new();
        frame_group(std::slice::from_ref(&msg), 100, |f| frames.push(f));
        assert!(frames.len() > 1, "budget 100 must split the 1010-byte delta");
        let mut bytes = Vec::new();
        for f in &frames {
            for p in &f.pieces {
                bytes.extend_from_slice(p.as_slice());
            }
        }
        let decoded = wire::decode(&bytes).expect("streamed bytes decode");
        // The receiver's from_ops re-merge makes the chunk splits
        // invisible: the decoded message equals the materialized one.
        assert_eq!(decoded, msg);
    }

    #[test]
    fn full_payload_splits_at_budget_and_restages_losslessly() {
        let msg = UpdateMsg {
            path: "/f".into(),
            base: None,
            version: Some(ver(1)),
            payload: UpdatePayload::Full(Payload::from(vec![0xA5u8; 5_000])),
            txn: Some(1),
            group: Some(gid()),
        };
        let mut frames = Vec::new();
        frame_group(std::slice::from_ref(&msg), 1024, |f| frames.push(f));
        assert!(
            frames.len() >= 5,
            "a 5000-byte body at a 1 KiB budget must span frames, got {}",
            frames.len()
        );
        for f in &frames {
            assert!(
                f.payload_bytes() <= 1024,
                "frame payload {} exceeds the budget",
                f.payload_bytes()
            );
        }
        assert_eq!(
            frames.iter().map(|f| f.accounted).sum::<u64>(),
            msg.wire_size(),
            "split accounting must sum to the materialized wire size"
        );
        let mut stager = ChunkStager::new();
        let mut committed = None;
        for f in &frames {
            if let Some(msgs) = stager.accept(f).expect("in-order stream stages") {
                committed = Some(msgs);
            }
        }
        assert_eq!(committed, Some(vec![msg]));
        assert_eq!(stager.staged_groups(), 0, "commit must clear the stage");
    }

    /// A compressible two-message group framed at 1 KiB and run through
    /// an always-compress codec: every frame is a single-piece envelope.
    fn compressed_group() -> (Vec<UpdateMsg>, Vec<ChunkFrame>) {
        use crate::codec::CodecPolicy;
        use deltacfs_net::{LinkSpec, PlatformProfile};
        let full = |n: u64| UpdateMsg {
            path: format!("/f{n}"),
            base: None,
            version: Some(ver(n)),
            payload: UpdatePayload::Full(Payload::from(b"sqlite page ".repeat(300))),
            txn: Some(1),
            group: Some(gid()),
        };
        let msgs = vec![full(1), full(2)];
        let mut codec = WireCodec::for_upload(
            CodecPolicy::Always,
            PlatformProfile::mobile(),
            LinkSpec::mobile(),
        );
        let mut frames = Vec::new();
        frame_group(&msgs, 1024, |f| frames.push(codec.encode_frame(f, 0)));
        assert!(frames.len() > 2);
        assert!(frames
            .iter()
            .all(|f| f.compressed_from().is_some() && f.pieces.len() == 1));
        (msgs, frames)
    }

    /// `frame` with its envelope re-declared: `declared` in the envelope
    /// header, `tag` on the frame, `body` as the token stream.
    fn reenveloped(frame: &ChunkFrame, declared: u64, tag: u64, body: &[u8]) -> ChunkFrame {
        let env = wire::encode_codec_envelope(declared, |buf| buf.extend_from_slice(body));
        ChunkFrame {
            pieces: vec![FramePiece::Control(Bytes::from(env))],
            codec: Codec::Lz77 { raw_len: tag },
            ..frame.clone()
        }
    }

    #[test]
    fn hostile_codec_envelopes_are_malformed_and_drop_the_stage() {
        let (msgs, frames) = compressed_group();
        let victim = &frames[1];
        let Codec::Lz77 { raw_len } = victim.codec else {
            unreachable!("every frame is compressed");
        };
        let env = victim.contiguous();
        let (_, body) = wire::decode_codec_envelope(&env).expect("real envelope");
        // A 3-byte body under an astronomic declared size: reserving the
        // declared size would abort the process, so reaching the
        // assertion proves the receiver allocated only for the body.
        let tiny = [0x04, b'a', b'b'];
        let hostile = [
            (
                "2^40 over 3 bytes",
                reenveloped(victim, 1 << 40, 1 << 40, &tiny),
            ),
            (
                "u64::MAX over 3 bytes",
                reenveloped(victim, u64::MAX, u64::MAX, &tiny),
            ),
            (
                "inflates to raw_len - 1",
                reenveloped(victim, raw_len + 1, raw_len + 1, body),
            ),
            (
                "inflates to raw_len + 1",
                reenveloped(victim, raw_len - 1, raw_len - 1, body),
            ),
            (
                "envelope claims one more",
                reenveloped(victim, raw_len + 1, raw_len, body),
            ),
            (
                "tag claims one more",
                reenveloped(victim, raw_len, raw_len + 1, body),
            ),
        ];
        for (what, bad) in hostile {
            let mut stager = ChunkStager::new();
            assert_eq!(stager.accept(&frames[0]), Ok(None), "{what}");
            assert_eq!(
                stager.accept(&bad),
                Err(WireError::Malformed("codec frame")),
                "{what}"
            );
            assert_eq!(stager.staged_groups(), 0, "{what}: stage dropped");
            // The rest of the cut stream is refused, and a whole-group
            // resend then stages cleanly.
            assert!(stager.accept(&frames[2]).is_err(), "{what}");
            let mut committed = None;
            for f in &frames {
                if let Some(done) = stager.accept(f).expect("resend stages") {
                    committed = Some(done);
                }
            }
            assert_eq!(committed.as_ref(), Some(&msgs), "{what}");
            assert_eq!(stager.staged_groups(), 0, "{what}");
        }
    }

    #[test]
    fn chunk_accountant_charges_split_ops_once() {
        let delta = sample_delta();
        for budget in [1usize, 3, 64, 999, 4096] {
            let mut acct = ChunkAccountant::new();
            let mut total = 0;
            split_delta_ops(&delta, budget, |chunk| total += acct.account(&chunk));
            assert_eq!(total, delta.wire_size(), "budget {budget}");
        }
    }

    #[test]
    fn pipeline_applies_back_pressure_and_bounds_inflight_bytes() {
        let obs = Obs::new();
        let msg = delta_msg(sample_delta());
        let mut frames_seen = 0;
        let budget = 100usize;
        let depth = 2usize;
        let report = run_pipeline(
            PipelineConfig {
                chunk_budget: budget,
                pipeline_depth: depth,
            },
            SimTime::ZERO,
            &obs,
            |sender| {
                let mut framer = DeltaFramer::new(&msg, 0, true);
                split_delta_ops(&sample_delta(), budget, |chunk| {
                    sender.send(framer.frame(&chunk));
                });
            },
            |_, _| {
                frames_seen += 1;
                SimTime::ZERO
            },
        );
        assert_eq!(report.frames, frames_seen);
        assert!(report.frames > 1);
        // Byte-based back-pressure: the queue never exceeds the cap,
        // except for the single-frame empty-pipeline admission — and a
        // frame here is well under budget * depth.
        let cap = (budget * depth) as u64;
        assert!(
            report.max_inflight_bytes <= cap,
            "{} > {}",
            report.max_inflight_bytes,
            cap
        );
    }
}
