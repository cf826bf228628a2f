//! The closed benchmark loop: one writer, one cloud, one peer in one
//! process, wired by hand so each layer is a public call the loop can
//! time from outside.
//!
//! ```text
//! writer Vfs ─► DeltaCfsClient::handle_event ─► tick/flush ─► frame_group
//!   ─► WireCodec::encode_frame ─► Link ─► ChunkStager::accept (cloud)
//!   ─► CloudServer::apply_txn_idempotent ─► frame_group + forward codec
//!   ─► Link ─► ChunkStager::accept (peer) ─► DeltaCfsClient::apply_remote
//! ```
//!
//! Ops are issued back to back in trace order; the SimClock jumps to
//! each op's timestamp with the engine ticking every [`TICK_MS`], exactly
//! as `deltacfs_workloads::replay` drives an engine.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use deltacfs_core::pipeline::{frame_group, ChunkFrame, ChunkStager};
use deltacfs_core::wire::Codec;
use deltacfs_core::{
    persist, ApplyOutcome, ClientId, CloudServer, CodecPolicy, DeltaCfsClient, FileOpItem,
    UpdateMsg, UpdatePayload, WireCodec, ACK_WIRE_BYTES,
};
use deltacfs_delta::{Cost, HierarchyStats};
use deltacfs_kvstore::KvStore;
use deltacfs_net::{Link, PlatformProfile, SimClock};
use deltacfs_obs::Registry;
use deltacfs_vfs::{OpEvent, Vfs};
use deltacfs_workloads::{TimedOp, TraceOp, TAIL_MS};

use crate::scenario::Scenario;
use crate::spans::{Layer, Rec, Span, ROOT};

/// Engine tick cadence, simulated milliseconds.
pub const TICK_MS: u64 = 100;

/// Counters that depend only on the seed: two replays of one seed must
/// produce identical values, whatever the timing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Det {
    pub ops: u64,
    pub update_bytes: u64,
    pub events: u64,
    pub write_events: u64,
    pub groups: u64,
    pub msgs: u64,
    pub up_frames: u64,
    pub up_frame_bytes: u64,
    pub frames_compressed: u64,
    pub frames_raw: u64,
    /// Accounted bytes of compressed frames before / after the codec.
    pub codec_bytes_in: u64,
    pub codec_bytes_out: u64,
    pub up_bytes: u64,
    pub up_msgs: u64,
    pub down_bytes: u64,
    pub down_msgs: u64,
    pub up_wait_sim_ms: u64,
    pub stage_frames: u64,
    pub stage_errors: u64,
    pub apply_groups: u64,
    pub rejected: u64,
    pub conflicts: u64,
    pub duplicates: u64,
    pub fwd_frames: u64,
    pub fwd_diverged: u64,
    pub peer_msgs: u64,
    pub peer_conflicts: u64,
    /// Write items shipped inside `Ops` payloads (the RPC path).
    pub op_writes_shipped: u64,
    pub delta_msgs: u64,
    pub delta_literal_bytes: u64,
    pub delta_new_bytes: u64,
    pub failed_groups: u64,
    pub client_cost: Cost,
    pub server_cost: Cost,
    pub codec_cost: Cost,
    pub hierarchy: HierarchyStats,
    /// Per group: SimClock ms from the releasing tick to the peer's
    /// delivery.
    pub lag_sim_ms: Vec<u64>,
}

impl Det {
    /// Groups that did not make it writer → cloud → peer intact.
    pub fn failures(&self) -> u64 {
        self.failed_groups
            + self.stage_errors
            + self.rejected
            + self.conflicts
            + self.fwd_diverged
            + self.peer_conflicts
    }
}

/// Wall-clock measurements of one replay.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Engine construction, ns.
    pub construct_ns: u64,
    /// Trace generation (time spent producing ops between replayed ops).
    pub gen_ns: u64,
    /// The timed replay: root span minus trace generation.
    pub replay_ns: u64,
    /// Per op: its `Vfs` call plus its synchronous `handle_event`s.
    pub stalls_ns: Vec<u64>,
    /// Per group: real time from its release to the end of peer apply.
    pub lag_ns: Vec<u64>,
    /// Process CPU (all threads) during the timed replay, µs.
    pub cpu_us: u64,
    /// Spans of a traced replay (empty when untraced).
    pub spans: Vec<Span>,
}

/// The cloud checkpoint: `persist::save` into a fresh `KvStore`, reopen,
/// `persist::load`.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    pub save_ns: u64,
    pub load_ns: u64,
    pub bytes_on_disk: u64,
    pub kv_wal_records: u64,
    pub kv_batch_commits: u64,
    pub kv_flushes: u64,
    pub kv_compactions: u64,
    pub kv_replayed: u64,
}

pub struct Rig {
    clock: SimClock,
    fs: Vfs,
    client: DeltaCfsClient,
    up_link: Link,
    up_codec: WireCodec,
    cloud_stage: ChunkStager,
    server: CloudServer,
    fwd_codec: WireCodec,
    peer_link: Link,
    peer_stage: ChunkStager,
    peer: DeltaCfsClient,
    peer_fs: Vfs,
    budget: usize,
    rec: Rec,
    det: Det,
    timing: Timing,
}

fn intercept_layer(event: &OpEvent) -> Layer {
    match event {
        OpEvent::Write { .. } => Layer::InterceptWrite,
        OpEvent::Close { .. } => Layer::InterceptClose,
        OpEvent::Rename { .. } => Layer::InterceptRename,
        OpEvent::Unlink { .. } => Layer::InterceptUnlink,
        OpEvent::Truncate { .. } => Layer::InterceptTruncate,
        _ => Layer::InterceptOther,
    }
}

fn apply_op(op: &TraceOp, fs: &mut Vfs) -> u64 {
    let ok = match op {
        TraceOp::Create(p) => fs.create(p),
        TraceOp::Mkdir(p) => fs.mkdir_all(p),
        TraceOp::Write { path, offset, data } => fs.write(path, *offset, data),
        TraceOp::Truncate { path, size } => fs.truncate(path, *size),
        TraceOp::Rename { src, dst } => fs.rename(src, dst),
        TraceOp::Link { src, dst } => fs.link(src, dst),
        TraceOp::Unlink(p) => fs.unlink(p),
        TraceOp::Close(p) => fs.close_path(p),
        TraceOp::Fsync(p) => fs.fsync(p),
    };
    ok.unwrap_or_else(|e| panic!("trace op {op:?} failed: {e}"));
    match op {
        TraceOp::Write { data, .. } => data.len() as u64,
        _ => 0,
    }
}

impl Rig {
    pub fn new(sc: &Scenario, traced: bool) -> Rig {
        let t = Instant::now();
        let clock = SimClock::new();
        let policy = if sc.cfg.wire_compression {
            CodecPolicy::Adaptive
        } else {
            CodecPolicy::Never
        };
        let mut fs = Vfs::new();
        fs.enable_event_log();
        let mut up_link = Link::new(sc.link);
        let mut peer_link = Link::new(sc.link);
        if sc.cfg.wire_compression {
            // The writer compresses uploads on its own platform; the
            // cloud (pc-class) compresses forwards.
            up_link.set_compute(sc.profile);
            peer_link.set_compute(PlatformProfile::pc());
        }
        let mut rig = Rig {
            client: DeltaCfsClient::new(ClientId(1), sc.cfg, clock.clone()),
            peer: DeltaCfsClient::new(ClientId(2), sc.cfg, clock.clone()),
            up_codec: WireCodec::for_upload(policy.clone(), sc.profile, sc.link),
            fwd_codec: WireCodec::for_forward(policy, sc.link),
            clock,
            fs,
            up_link,
            cloud_stage: ChunkStager::new(),
            server: CloudServer::new(),
            peer_link,
            peer_stage: ChunkStager::new(),
            peer_fs: Vfs::new(),
            budget: sc.cfg.chunk_budget,
            rec: Rec::new(traced),
            det: Det::default(),
            timing: Timing::default(),
        };
        rig.timing.construct_ns = t.elapsed().as_nanos() as u64;
        rig
    }

    /// Replays the whole trace, drains every delay window, flushes, and
    /// returns when writer, cloud and peer have processed everything.
    pub fn replay(&mut self, sc: &Scenario) {
        let cpu0 = crate::sys::cpu_us();
        let root_start = self.rec.now();
        let wall = Instant::now();
        let mut last_exit = Instant::now();
        let mut gen_ns = 0u64;
        let start = self.clock.now();
        {
            let mut sink = |timed: TimedOp| {
                let enter = Instant::now();
                gen_ns += enter.duration_since(last_exit).as_nanos() as u64;
                if self.rec.on() {
                    let (a, b) = (self.rec.at(last_exit), self.rec.at(enter));
                    self.rec.push(Layer::Gen, a, b, ROOT, 0);
                }
                let target = start.plus_millis(timed.at_ms);
                while self.clock.now() < target {
                    let step = TICK_MS.min(target.since(self.clock.now()));
                    self.clock.advance(step);
                    self.tick(false);
                }
                self.op(&timed.op);
                last_exit = Instant::now();
            };
            sc.trace.generate(&mut sink);
        }
        let gen_tail = Instant::now();
        gen_ns += gen_tail.duration_since(last_exit).as_nanos() as u64;
        if self.rec.on() {
            let (a, b) = (self.rec.at(last_exit), self.rec.at(gen_tail));
            self.rec.push(Layer::Gen, a, b, ROOT, 0);
        }
        let end = self.clock.now().plus_millis(TAIL_MS);
        while self.clock.now() < end {
            self.clock.advance(TICK_MS.min(end.since(self.clock.now())));
            self.tick(false);
        }
        self.tick(true);
        let total_ns = wall.elapsed().as_nanos() as u64;
        let root_end = self.rec.now();
        self.timing.cpu_us = crate::sys::cpu_us() - cpu0;
        self.timing.gen_ns = gen_ns;
        self.timing.replay_ns = total_ns.saturating_sub(gen_ns);
        let rec = std::mem::replace(&mut self.rec, Rec::new(false));
        self.timing.spans = rec.finish(root_start, root_end);

        let d = &mut self.det;
        d.client_cost = self.client.cost();
        d.server_cost = self.server.cost();
        let mut codec = self.up_codec.cost();
        codec.merge(&self.fwd_codec.cost());
        d.codec_cost = codec;
        d.hierarchy = self.client.hierarchy_stats();
        let up = self.up_link.stats();
        let down = self.peer_link.stats();
        d.up_bytes = up.bytes_up;
        d.up_msgs = up.msgs_up;
        d.down_bytes = down.bytes_down;
        d.down_msgs = down.msgs_down;
        d.duplicates = self.server.duplicates_ignored();
    }

    /// One application op: the `Vfs` call, then every intercepted event
    /// through the client, synchronously (the FUSE-style stall).
    fn op(&mut self, op: &TraceOp) {
        let t0 = Instant::now();
        let s = self.rec.now();
        self.det.update_bytes += apply_op(op, &mut self.fs);
        let vfs_id = self.rec.close(Layer::Vfs, s, ROOT, 0);
        for event in self.fs.drain_events() {
            let layer = intercept_layer(&event);
            if layer == Layer::InterceptWrite {
                self.det.write_events += 1;
            }
            let s = self.rec.now();
            self.client.handle_event(&event, &self.fs);
            self.rec.close(layer, s, vfs_id, 0);
            self.det.events += 1;
        }
        self.timing.stalls_ns.push(t0.elapsed().as_nanos() as u64);
        self.det.ops += 1;
    }

    /// One engine tick (or the final flush) and the shipping of every
    /// group it releases.
    fn tick(&mut self, flush: bool) {
        let s = self.rec.now();
        let groups = if flush {
            self.client.flush(&self.fs)
        } else {
            self.client.tick(&self.fs)
        };
        let tick_id = self.rec.close(Layer::Tick, s, ROOT, 0);
        for group in groups {
            self.ship(group, tick_id);
        }
    }

    fn count_payloads(&mut self, group: &[UpdateMsg]) {
        for msg in group {
            match &msg.payload {
                UpdatePayload::Delta { delta, .. } => {
                    self.det.delta_msgs += 1;
                    self.det.delta_literal_bytes += delta.literal_bytes();
                    self.det.delta_new_bytes += delta.output_len();
                }
                UpdatePayload::Ops(items) => {
                    self.det.op_writes_shipped += items
                        .iter()
                        .filter(|i| matches!(i, FileOpItem::Write { .. }))
                        .count() as u64;
                }
                _ => {}
            }
        }
    }

    /// Ships one released group writer → cloud → peer.
    fn ship(&mut self, group: Vec<UpdateMsg>, tick_id: u32) {
        let released = Instant::now();
        let now = self.clock.now();
        let gseq = group.iter().find_map(|m| m.group).map_or(0, |g| g.seq);
        self.det.groups += 1;
        self.det.msgs += group.len() as u64;
        self.count_payloads(&group);

        let s = self.rec.now();
        let mut frames: Vec<ChunkFrame> = Vec::new();
        frame_group(&group, self.budget, |f| frames.push(f));
        let frame_id = self.rec.close(Layer::Frame, s, tick_id, gseq);
        drop(group);
        self.det.up_frames += frames.len() as u64;
        self.det.up_frame_bytes += frames.iter().map(ChunkFrame::byte_len).sum::<u64>();

        let mut committed = None;
        let mut last_stage = frame_id;
        for frame in frames {
            let s = self.rec.now();
            let before = frame.accounted;
            let frame = self.up_codec.encode_frame(frame, now.as_millis());
            self.rec.close(Layer::Codec, s, frame_id, gseq);
            self.count_codec(&frame, before);

            let s = self.rec.now();
            let busy = self.up_link.upload_busy_until();
            if busy > now {
                self.det.up_wait_sim_ms += busy.since(now);
            }
            self.up_link
                .upload_part_codec(frame.accounted, frame.compressed_from(), now);
            self.rec.close(Layer::Link, s, frame_id, gseq);

            let s = self.rec.now();
            let accepted = self.cloud_stage.accept(&frame);
            last_stage = self.rec.close(Layer::Stage, s, frame_id, gseq);
            self.det.stage_frames += 1;
            match accepted {
                Ok(Some(msgs)) => committed = Some(msgs),
                Ok(None) => {}
                Err(_) => self.det.stage_errors += 1,
            }
        }
        let s = self.rec.now();
        let arrival = self.up_link.upload_end_msg(now);
        self.up_link.download(ACK_WIRE_BYTES, now);
        self.rec.close(Layer::Link, s, frame_id, gseq);
        let Some(msgs) = committed else {
            self.det.failed_groups += 1;
            return;
        };

        let s = self.rec.now();
        let (outcomes, duplicate) = self.server.apply_txn_idempotent(&msgs);
        let apply_id = self.rec.close(Layer::Apply, s, last_stage, gseq);
        self.det.apply_groups += 1;
        for o in &outcomes {
            match o {
                ApplyOutcome::Applied => {}
                ApplyOutcome::Conflict { .. } => self.det.conflicts += 1,
                ApplyOutcome::Rejected { .. } => self.det.rejected += 1,
            }
        }
        if duplicate || outcomes.iter().any(|o| *o != ApplyOutcome::Applied) {
            self.det.failed_groups += 1;
            return;
        }

        // Forward what the cloud received, verbatim, when the peer holds
        // the base the writer built on (one writer, so it always should).
        for m in &msgs {
            let base_ok = match &m.payload {
                UpdatePayload::Delta { base_path, .. } => self.peer.version_of(base_path) == m.base,
                UpdatePayload::Ops(_) => self.peer.version_of(&m.path) == m.base,
                _ => true,
            };
            if !base_ok {
                self.det.fwd_diverged += 1;
            }
        }
        let s = self.rec.now();
        let mut fwd_frames: Vec<ChunkFrame> = Vec::new();
        frame_group(&msgs, self.budget, |f| fwd_frames.push(f));
        let fwd_id = self.rec.close(Layer::Forward, s, apply_id, gseq);
        drop(msgs);
        let mut delivered_msgs = None;
        for frame in fwd_frames {
            let s = self.rec.now();
            let before = frame.accounted;
            let frame = self.fwd_codec.encode_frame(frame, arrival.as_millis());
            self.rec.close(Layer::Codec, s, fwd_id, gseq);
            self.count_codec(&frame, before);

            let s = self.rec.now();
            self.peer_link
                .download_part_codec(frame.accounted, frame.compressed_from(), arrival);
            self.rec.close(Layer::Link, s, fwd_id, gseq);

            let s = self.rec.now();
            let accepted = self.peer_stage.accept(&frame);
            self.rec.close(Layer::Forward, s, fwd_id, gseq);
            self.det.fwd_frames += 1;
            match accepted {
                Ok(Some(m)) => delivered_msgs = Some(m),
                Ok(None) => {}
                Err(_) => self.det.stage_errors += 1,
            }
        }
        let s = self.rec.now();
        let delivered = self.peer_link.download_end_msg(arrival);
        self.rec.close(Layer::Link, s, fwd_id, gseq);
        let Some(delivered_msgs) = delivered_msgs else {
            self.det.failed_groups += 1;
            return;
        };

        let s = self.rec.now();
        for m in &delivered_msgs {
            if self.peer.apply_remote(m, &mut self.peer_fs).is_some() {
                self.det.peer_conflicts += 1;
            }
        }
        self.rec.close(Layer::Peer, s, fwd_id, gseq);
        self.det.peer_msgs += delivered_msgs.len() as u64;
        self.det.lag_sim_ms.push(delivered.since(now));
        self.timing
            .lag_ns
            .push(released.elapsed().as_nanos() as u64);
    }

    fn count_codec(&mut self, frame: &ChunkFrame, accounted_before: u64) {
        if matches!(frame.codec, Codec::Lz77 { .. }) {
            self.det.frames_compressed += 1;
            self.det.codec_bytes_in += accounted_before;
            self.det.codec_bytes_out += frame.accounted;
        } else {
            self.det.frames_raw += 1;
        }
    }

    /// Checks that writer, cloud and peer hold the same files with the
    /// same bytes. Returns the list of problems (empty = converged).
    pub fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let files = |fs: &Vfs| -> BTreeSet<String> {
            fs.walk_files("/")
                .unwrap_or_default()
                .into_iter()
                .map(|p| p.to_string())
                .collect()
        };
        let writer = files(&self.fs);
        let peer = files(&self.peer_fs);
        let cloud: BTreeSet<String> = self.server.paths().into_iter().collect();
        if writer != cloud || writer != peer {
            problems.push(format!(
                "file sets differ: writer {writer:?}, cloud {cloud:?}, peer {peer:?}"
            ));
        }
        for path in &writer {
            let w = self.fs.peek_all(path).unwrap_or_default();
            if self.server.file(path) != Some(&w[..]) {
                problems.push(format!("{path}: cloud bytes differ from writer"));
            }
            if self.peer_fs.peek_all(path).ok().as_deref() != Some(&w[..]) {
                problems.push(format!("{path}: peer bytes differ from writer"));
            }
        }
        if self.client.queued_nodes() != 0 {
            problems.push(format!(
                "{} nodes left in the writer's queue",
                self.client.queued_nodes()
            ));
        }
        if self.cloud_stage.staged_groups() + self.peer_stage.staged_groups() != 0 {
            problems.push("groups left half-staged".into());
        }
        if !self.client.issues().is_empty() {
            problems.push(format!(
                "writer integrity issues: {:?}",
                self.client.issues()
            ));
        }
        problems
    }

    /// Saves the cloud into a fresh `KvStore` under `dir`, reopens it,
    /// loads it back, and checks the reloaded cloud equals the live one.
    pub fn checkpoint(&self, dir: &Path) -> Result<Checkpoint, String> {
        let _ = std::fs::remove_dir_all(dir);
        let registry = Registry::new();
        let t = Instant::now();
        let mut store = KvStore::open(dir).map_err(|e| format!("open: {e}"))?;
        store.attach_obs(&registry);
        persist::save(&self.server, &mut store).map_err(|e| format!("save: {e}"))?;
        drop(store);
        let save_ns = t.elapsed().as_nanos() as u64;
        let bytes_on_disk = crate::sys::dir_bytes(dir);
        let t = Instant::now();
        let mut store = KvStore::open(dir).map_err(|e| format!("reopen: {e}"))?;
        store.attach_obs(&registry);
        let loaded = persist::load(&mut store).map_err(|e| format!("load: {e}"))?;
        drop(store);
        let load_ns = t.elapsed().as_nanos() as u64;
        let live = &self.server;
        if loaded.paths() != live.paths() || loaded.dirs() != live.dirs() {
            return Err("reloaded checkpoint lists other paths than the live cloud".into());
        }
        for path in live.paths() {
            if loaded.file(&path) != live.file(&path)
                || loaded.version(&path) != live.version(&path)
                || loaded.version_history(&path) != live.version_history(&path)
            {
                return Err(format!(
                    "reloaded checkpoint differs from the live cloud at {path}"
                ));
            }
        }
        let _ = std::fs::remove_dir_all(dir);
        let c = |name: &str| registry.counter(name, "").get();
        Ok(Checkpoint {
            save_ns,
            load_ns,
            bytes_on_disk,
            kv_wal_records: c("kv_wal_records"),
            kv_batch_commits: c("kv_wal_batch_commits"),
            kv_flushes: c("kv_memtable_flushes"),
            kv_compactions: c("kv_compactions"),
            kv_replayed: c("kv_wal_replayed_records"),
        })
    }

    pub fn det(&self) -> &Det {
        &self.det
    }

    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// Modeled CPU ticks of the writer's work (Table II model).
    pub fn modeled_ticks(&self, profile: &PlatformProfile) -> u64 {
        profile.ticks(&self.det.client_cost, self.det.up_bytes)
    }
}
