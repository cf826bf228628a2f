//! Adaptive per-chunk wire compression: the cost-benefit controller
//! that decides, frame by frame, whether shipping a chunk compressed
//! beats shipping it raw.
//!
//! The decision model follows the cost-benefit analysis the related
//! work applies to sync protocols: compressing a chunk costs CPU time
//! proportional to its raw size (the platform's `w_compressed` weight),
//! and saves wire time proportional to the bytes it removes (bandwidth
//! plus the per-byte network-stack CPU). A mobile client behind a
//! 1 MiB/s uplink should compress almost anything that isn't already
//! high-entropy; a LAN client with an unconstrained link should ship
//! nearly everything raw. The inputs are:
//!
//! * a cheap **entropy probe** ([`probe_ratio_sampled`]) over a strided
//!   sample of the frame's bytes, predicting the compression ratio
//!   without running the compressor;
//! * an **adaptive bias**: an EWMA of (observed − predicted) ratio over
//!   the chunks actually compressed, correcting the probe for the
//!   workload at hand (Shannon entropy underestimates LZ77 on
//!   repetitive structure and overestimates it on short chunks);
//! * the link profile: direction bandwidth and the platform's
//!   [`compress_ms`](PlatformProfile::compress_ms)/`w_net` weights.
//!
//! Whatever the decision, the wire is **never worse than raw**: a
//! compressed envelope ships only when it is strictly smaller than both
//! the frame's real bytes and its accounted model bytes, so
//! incompressible traffic pays zero overhead — raw frames are untagged
//! and byte-identical to the pre-codec format.
//!
//! Compression CPU is charged twice, deliberately, in two different
//! currencies: `Cost::bytes_compressed` on the codec's **own** [`Cost`]
//! accumulator (work counting, deterministic for any thread count, kept
//! separate so a compressed run's client/server `Cost` totals stay
//! byte-identical to a raw run's), and simulated milliseconds on the
//! link via the codec-aware part methods (timing).

use bytes::Bytes;
use deltacfs_delta::{compress, Cost};
use deltacfs_net::{LinkSpec, PlatformProfile};
use deltacfs_obs::{Counter, Histogram, Obs};

use crate::pipeline::{ChunkFrame, FramePiece};
use crate::wire::{self, Codec};

/// Frames smaller than this always ship raw: the envelope overhead and
/// the per-call probe cost can't pay for themselves.
const MIN_COMPRESS_BYTES: u64 = 64;

/// EWMA weight of the newest (observed − predicted) ratio sample.
const BIAS_ALPHA: f64 = 0.2;

/// How the controller picks compress-vs-raw for each frame.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecPolicy {
    /// The cost-benefit model decides per frame (production mode).
    Adaptive,
    /// Attempt compression on every frame (the never-worse-than-raw
    /// guard still ships incompressible frames raw).
    Always,
    /// Ship everything raw — the codec is a no-op and frames are
    /// byte-identical to the pre-codec wire format.
    Never,
    /// Fixed decision sequence, cycled over frames — lets property
    /// tests drive *any* interleaving of compressed and raw frames
    /// through one stream.
    Schedule(Vec<bool>),
}

/// Per-direction wire codec: compresses chunk frames on their way onto
/// the link and keeps the controller state (bias feedback, counters,
/// its own [`Cost`]).
///
/// One instance per stream direction: the engine owns an upload-side
/// codec (client compresses), each hub slot owns a download-side codec
/// for its forward stream (server compresses). Decisions happen on the
/// encoder thread, sequentially per frame, so they are deterministic
/// for any pipeline depth or worker count.
#[derive(Debug)]
pub struct WireCodec {
    policy: CodecPolicy,
    profile: PlatformProfile,
    /// Bytes/s of the direction this codec feeds (`None` =
    /// unconstrained link: no wire time to save).
    bandwidth: Option<u64>,
    schedule_pos: usize,
    bias: f64,
    cost: Cost,
    obs: Obs,
    compressed_chunks: Counter,
    raw_chunks: Counter,
    bytes_saved: Counter,
    ratio_pct: Histogram,
}

/// Bucket bounds for the `wire_compress_ratio_pct` histogram
/// (compressed/raw, percent).
const RATIO_BUCKETS_PCT: [u64; 10] = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

impl WireCodec {
    /// A codec for one link direction. `bandwidth` is the direction's
    /// bytes/s (`LinkSpec::bandwidth_up` for uploads,
    /// `bandwidth_down` for forwards); `profile` is the platform doing
    /// the compressing.
    pub fn new(policy: CodecPolicy, profile: PlatformProfile, bandwidth: Option<u64>) -> Self {
        let obs = Obs::new();
        let mut codec = WireCodec {
            policy,
            profile,
            bandwidth,
            schedule_pos: 0,
            bias: 0.0,
            cost: Cost::new(),
            compressed_chunks: obs.registry.counter("wire_compress_chunks", ""),
            raw_chunks: obs.registry.counter("wire_raw_chunks", ""),
            bytes_saved: obs.registry.counter("wire_compress_bytes_saved", ""),
            ratio_pct: obs
                .registry
                .histogram("wire_compress_ratio_pct", "", &RATIO_BUCKETS_PCT),
            obs: obs.clone(),
        };
        codec.attach_obs(&obs);
        codec
    }

    /// The upload-direction codec for a client on `spec`.
    pub fn for_upload(policy: CodecPolicy, profile: PlatformProfile, spec: LinkSpec) -> Self {
        Self::new(policy, profile, spec.bandwidth_up)
    }

    /// The download-direction codec for the server forwarding to a
    /// client on `spec` (the server — a PC-class platform — does the
    /// compressing).
    pub fn for_forward(policy: CodecPolicy, spec: LinkSpec) -> Self {
        Self::new(policy, PlatformProfile::pc(), spec.bandwidth_down)
    }

    /// Rebinds the codec's metrics and trace stream onto a shared
    /// observability bundle.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        self.compressed_chunks = obs
            .registry
            .counter("wire_compress_chunks", "chunk frames shipped compressed");
        self.raw_chunks = obs
            .registry
            .counter("wire_raw_chunks", "chunk frames shipped raw");
        self.bytes_saved = obs.registry.counter(
            "wire_compress_bytes_saved",
            "accounted wire bytes removed by frame compression",
        );
        self.ratio_pct = obs.registry.histogram(
            "wire_compress_ratio_pct",
            "compressed/raw size of shipped compressed frames (percent)",
            &RATIO_BUCKETS_PCT,
        );
    }

    /// Replaces the compressing platform (and with it the CPU cost
    /// side of the decision model).
    pub fn set_profile(&mut self, profile: PlatformProfile) {
        self.profile = profile;
    }

    /// Replaces the decision policy mid-stream (tests drive decision
    /// schedules through this).
    pub fn set_policy(&mut self, policy: CodecPolicy) {
        self.policy = policy;
        self.schedule_pos = 0;
    }

    /// Whether this codec can ever emit a compressed frame.
    pub fn enabled(&self) -> bool {
        self.policy != CodecPolicy::Never
    }

    /// The codec's own work accumulator: every byte fed to the
    /// compressor is charged here as `bytes_compressed`, deterministic
    /// for any thread count — and kept out of the client/server `Cost`
    /// totals so those stay byte-identical to a raw-wire run.
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// Runs one frame through the controller. Returns the frame to put
    /// on the wire: either the input unchanged (raw) or a
    /// [`Codec::Lz77`]-tagged frame whose single control piece is the
    /// compressed envelope. The envelope ships only when strictly
    /// smaller than both the frame's real and accounted bytes — the
    /// never-worse-than-raw guarantee.
    pub fn encode_frame(&mut self, frame: ChunkFrame, at_ms: u64) -> ChunkFrame {
        if self.policy == CodecPolicy::Never {
            return frame;
        }
        let raw_len = frame.byte_len();
        if raw_len < MIN_COMPRESS_BYTES {
            self.raw_chunks.inc();
            return frame;
        }
        let probe = probe_frame(&frame, raw_len);
        let attempt = match &self.policy {
            CodecPolicy::Never => unreachable!("handled above"),
            CodecPolicy::Always => true,
            CodecPolicy::Schedule(plan) => {
                let decision = plan.is_empty() || plan[self.schedule_pos % plan.len()];
                self.schedule_pos += 1;
                decision
            }
            CodecPolicy::Adaptive => self.worth_compressing(raw_len, probe),
        };
        if !attempt {
            self.raw_chunks.inc();
            return frame;
        }
        let raw = frame.contiguous();
        let mut compressed_len = 0;
        let envelope = wire::encode_codec_envelope(raw_len, |buf| {
            let header = buf.len();
            compress::compress_into(&raw, &mut self.cost, buf);
            compressed_len = buf.len() - header;
        });
        let observed = compressed_len as f64 / raw.len() as f64;
        // Outcome feedback: pull the probe toward what the compressor
        // actually achieved on this workload.
        self.bias += BIAS_ALPHA * ((observed - probe) - self.bias);
        let envelope_len = envelope.len() as u64;
        if envelope_len >= raw_len.min(frame.accounted) {
            // Not worth it after all — ship the original, untouched.
            self.raw_chunks.inc();
            return frame;
        }
        self.compressed_chunks.inc();
        self.bytes_saved.add(frame.accounted - envelope_len);
        self.ratio_pct
            .observe((observed * 100.0).round().clamp(0.0, 100.0) as u64);
        self.obs
            .tracer
            .event(at_ms, "codec", "wire.compress", || {
                format!(
                    "msg {} chunk {}: {} -> {} bytes (probe {:.2}, observed {:.2})",
                    frame.msg_idx, frame.chunk_idx, raw_len, envelope_len, probe, observed,
                )
            });
        // The compression CPU is charged on the link's timeline; the
        // span models it at the encode point with the platform's
        // deterministic `compress_ms` cost, so the profiler can weigh
        // compress CPU against the wire time it buys.
        self.obs.spans.record(
            frame.group.span_key(),
            "codec",
            "wire.compress",
            at_ms,
            at_ms + self.profile.compress_ms(raw_len),
            None,
            || {
                format!(
                    "msg {} chunk {}: {} -> {} bytes",
                    frame.msg_idx, frame.chunk_idx, raw_len, envelope_len
                )
            },
        );
        ChunkFrame {
            pieces: vec![FramePiece::Control(Bytes::from(envelope))],
            accounted: envelope_len,
            codec: Codec::Lz77 { raw_len },
            ..frame
        }
    }

    /// The cost-benefit core: predicted wire+net time saved vs CPU time
    /// spent compressing, both in simulated milliseconds.
    fn worth_compressing(&self, raw_len: u64, probe: f64) -> bool {
        let predicted = (probe + self.bias).clamp(0.0, 1.0);
        let est_saved = raw_len as f64 * (1.0 - predicted);
        let wire_ms = match self.bandwidth {
            Some(bps) if bps > 0 => est_saved * 1000.0 / bps as f64,
            // Unconstrained link: transfers are free, only the network
            // stack's per-byte CPU is saved.
            _ => 0.0,
        };
        let net_cpu_ms = est_saved * self.profile.w_net * self.profile.scale;
        let cpu_ms = self.profile.compress_ms(raw_len) as f64;
        wire_ms + net_cpu_ms > cpu_ms
    }
}

/// Entropy probe over a frame's scatter-gather pieces without
/// concatenating them: a strided sample through the pieces' combined
/// byte range.
fn probe_frame(frame: &ChunkFrame, raw_len: u64) -> f64 {
    let mut spans: Vec<(u64, &[u8])> = Vec::with_capacity(frame.pieces.len());
    let mut off = 0u64;
    for piece in &frame.pieces {
        let bytes = piece.as_slice();
        spans.push((off, bytes));
        off += bytes.len() as u64;
    }
    compress::probe_ratio_sampled(raw_len as usize, |i| {
        let i = i as u64;
        let at = spans
            .partition_point(|(start, _)| *start <= i)
            .saturating_sub(1);
        let (start, bytes) = spans[at];
        bytes[(i - start) as usize]
    })
}

/// The one compression entry point shared by the wire codec and the
/// baseline engines: LZ77-compressed size of `data`, charging
/// `bytes_compressed` on `cost`. Baselines that model a
/// compress-everything wire (the paper's Dropbox) call this instead of
/// reaching into the compressor, so there is exactly one place where
/// "bytes on the wire after compression" is defined.
pub fn compressed_wire_size(data: &[u8], cost: &mut Cost) -> u64 {
    compress::compressed_size(data, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ClientId, GroupId};

    fn frame_of(bytes: Vec<u8>, accounted: u64) -> ChunkFrame {
        ChunkFrame {
            group: GroupId {
                client: ClientId(1),
                seq: 1,
            },
            msg_idx: 0,
            chunk_idx: 0,
            last_in_msg: true,
            last_in_group: true,
            pieces: vec![FramePiece::Control(Bytes::from(bytes))],
            accounted,
            codec: Codec::Raw,
        }
    }

    fn text(len: usize) -> Vec<u8> {
        b"the quick brown fox jumps over the lazy dog "
            .iter()
            .copied()
            .cycle()
            .take(len)
            .collect()
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn mobile_compresses_text_and_ships_noise_raw() {
        let mut codec =
            WireCodec::for_upload(CodecPolicy::Adaptive, PlatformProfile::mobile(), LinkSpec::mobile());
        let len = 64 * 1024;
        let out = codec.encode_frame(frame_of(text(len), len as u64), 0);
        assert!(matches!(out.codec, Codec::Lz77 { raw_len } if raw_len == len as u64));
        assert!(out.accounted < len as u64 / 2, "text should at least halve");
        let out = codec.encode_frame(frame_of(noise(len), len as u64), 0);
        assert_eq!(out.codec, Codec::Raw);
        assert_eq!(out.accounted, len as u64);
    }

    #[test]
    fn lan_ships_text_raw() {
        let mut codec =
            WireCodec::for_upload(CodecPolicy::Adaptive, PlatformProfile::pc(), LinkSpec::pc());
        let len = 64 * 1024;
        let out = codec.encode_frame(frame_of(text(len), len as u64), 0);
        assert_eq!(out.codec, Codec::Raw, "unconstrained link: CPU not worth it");
    }

    #[test]
    fn always_policy_still_never_ships_a_larger_frame() {
        let mut codec =
            WireCodec::for_upload(CodecPolicy::Always, PlatformProfile::pc(), LinkSpec::pc());
        for len in [64usize, 1024, 16 * 1024] {
            let out = codec.encode_frame(frame_of(noise(len), len as u64), 0);
            assert_eq!(out.codec, Codec::Raw, "incompressible stays raw at {len}");
            assert_eq!(out.accounted, len as u64);
        }
        // Compression work was attempted and charged on the codec's own
        // accumulator.
        assert!(codec.cost().bytes_compressed > 0);
    }

    #[test]
    fn schedule_policy_cycles_decisions() {
        let mut codec =
            WireCodec::for_upload(CodecPolicy::Schedule(vec![true, false]), PlatformProfile::pc(), LinkSpec::pc());
        let len = 8 * 1024;
        let a = codec.encode_frame(frame_of(text(len), len as u64), 0);
        let b = codec.encode_frame(frame_of(text(len), len as u64), 0);
        let c = codec.encode_frame(frame_of(text(len), len as u64), 0);
        assert!(matches!(a.codec, Codec::Lz77 { .. }));
        assert_eq!(b.codec, Codec::Raw);
        assert!(matches!(c.codec, Codec::Lz77 { .. }));
    }

    #[test]
    fn tiny_frames_skip_the_codec_entirely() {
        let mut codec =
            WireCodec::for_upload(CodecPolicy::Always, PlatformProfile::mobile(), LinkSpec::mobile());
        let out = codec.encode_frame(frame_of(text(32), 32), 0);
        assert_eq!(out.codec, Codec::Raw);
        assert_eq!(codec.cost().bytes_compressed, 0, "no attempt below the floor");
    }

    #[test]
    fn bias_feedback_tracks_observed_ratio() {
        // The probe on highly repetitive text overestimates the LZ77
        // ratio; after a few compressed frames the bias goes negative,
        // recording that the compressor beats the entropy estimate.
        let mut codec =
            WireCodec::for_upload(CodecPolicy::Always, PlatformProfile::mobile(), LinkSpec::mobile());
        for _ in 0..4 {
            codec.encode_frame(frame_of(text(64 * 1024), 64 * 1024), 0);
        }
        assert!(codec.bias < 0.0, "bias {} should correct downward", codec.bias);
    }

    #[test]
    fn compressed_frames_roundtrip_through_the_stager_path() {
        let mut codec =
            WireCodec::for_upload(CodecPolicy::Always, PlatformProfile::mobile(), LinkSpec::mobile());
        let body = text(16 * 1024);
        let out = codec.encode_frame(frame_of(body.clone(), body.len() as u64), 0);
        let Codec::Lz77 { raw_len } = out.codec else {
            panic!("text frame should compress");
        };
        assert_eq!(raw_len, body.len() as u64);
        let env = out.contiguous();
        let (declared, comp) = wire::decode_codec_envelope(&env).expect("envelope parses");
        assert_eq!(declared, raw_len);
        let restored =
            compress::decompress_limited(comp, raw_len as usize).expect("envelope inflates");
        assert_eq!(restored, body);
    }

    #[test]
    fn metrics_count_compressed_and_raw_chunks() {
        let obs = Obs::new();
        let mut codec =
            WireCodec::for_upload(CodecPolicy::Adaptive, PlatformProfile::mobile(), LinkSpec::mobile());
        codec.attach_obs(&obs);
        let len = 64 * 1024;
        codec.encode_frame(frame_of(text(len), len as u64), 0);
        codec.encode_frame(frame_of(noise(len), len as u64), 0);
        let snap = obs.registry.snapshot();
        let counter = |name: &str| match snap.get(name) {
            Some(deltacfs_obs::MetricValue::Counter(v)) => *v,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(counter("wire_compress_chunks"), 1);
        assert_eq!(counter("wire_raw_chunks"), 1);
        assert!(counter("wire_compress_bytes_saved") > len as u64 / 2);
    }
}
