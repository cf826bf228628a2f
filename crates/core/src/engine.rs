//! The common harness interface all sync engines implement, plus
//! [`DeltaCfsSystem`] — a DeltaCFS client and cloud server wired to a
//! simulated link.
//!
//! The baseline engines in `deltacfs-baselines` (Dropbox-, Seafile-, NFS-
//! and Dropsync-like) implement the same [`SyncEngine`] trait, so the
//! trace-replay driver and every benchmark treat all five identically.

use deltacfs_delta::Cost;
use deltacfs_kvstore::KeyValue;
use deltacfs_net::{Link, LinkSpec, PlatformProfile, SimClock, TrafficStats};
use deltacfs_vfs::{OpEvent, Vfs};

use crate::client::DeltaCfsClient;
use crate::codec::{CodecPolicy, WireCodec};
use crate::config::DeltaCfsConfig;
use crate::pipeline;
use crate::protocol::{ApplyOutcome, ClientId, ACK_WIRE_BYTES};
use crate::server::CloudServer;

/// Summary of an engine's resource usage after a run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Engine name ("deltacfs", "dropbox", ...).
    pub name: String,
    /// Client-side work counters.
    pub client_cost: Cost,
    /// Server-side work counters (`None` when the server is opaque, as
    /// for Dropbox in the paper).
    pub server_cost: Option<Cost>,
    /// Bytes and messages moved over the client↔cloud link.
    pub traffic: TrafficStats,
}

/// A sync engine driven by intercepted file-system events and a clock.
pub trait SyncEngine {
    /// Engine name, for reports.
    fn name(&self) -> &str;

    /// Feeds one intercepted operation.
    fn on_event(&mut self, event: &OpEvent, fs: &Vfs);

    /// Lets the engine act on the passage of time (debounce windows,
    /// upload delays, link availability).
    fn tick(&mut self, fs: &Vfs);

    /// Flushes all outstanding work (end of experiment).
    fn finish(&mut self, fs: &Vfs);

    /// Resource usage so far.
    fn report(&self) -> EngineReport;
}

/// A complete single-client DeltaCFS deployment: client engine, cloud
/// server, and the link between them.
#[derive(Debug)]
pub struct DeltaCfsSystem<K: KeyValue = deltacfs_kvstore::MemStore> {
    client: DeltaCfsClient<K>,
    server: CloudServer,
    link: Link,
    clock: SimClock,
    outcomes: Vec<ApplyOutcome>,
    obs: deltacfs_obs::Obs,
    wire_codec: WireCodec,
}

/// The upload-direction codec a config and link imply: adaptive when
/// `wire_compression` is on, a raw-passthrough otherwise. The platform
/// defaults to PC until [`DeltaCfsSystem::set_platform`] overrides it.
fn upload_codec(cfg: &DeltaCfsConfig, link_spec: LinkSpec) -> WireCodec {
    let policy = if cfg.wire_compression {
        CodecPolicy::Adaptive
    } else {
        CodecPolicy::Never
    };
    WireCodec::for_upload(policy, PlatformProfile::pc(), link_spec)
}

impl DeltaCfsSystem<deltacfs_kvstore::MemStore> {
    /// Creates a system with an in-memory checksum store.
    pub fn new(cfg: DeltaCfsConfig, clock: SimClock, link_spec: LinkSpec) -> Self {
        DeltaCfsSystem {
            client: DeltaCfsClient::new(ClientId(1), cfg, clock.clone()),
            server: CloudServer::new(),
            link: Link::new(link_spec),
            clock,
            outcomes: Vec::new(),
            obs: deltacfs_obs::Obs::new(),
            wire_codec: upload_codec(&cfg, link_spec),
        }
    }
}

impl<K: KeyValue> DeltaCfsSystem<K> {
    /// Creates a system with an explicit checksum-store backend.
    pub fn with_backend(
        cfg: DeltaCfsConfig,
        clock: SimClock,
        link_spec: LinkSpec,
        backend: K,
    ) -> Self {
        DeltaCfsSystem {
            client: DeltaCfsClient::with_backend(ClientId(1), cfg, clock.clone(), backend),
            server: CloudServer::new(),
            link: Link::new(link_spec),
            clock,
            outcomes: Vec::new(),
            obs: deltacfs_obs::Obs::new(),
            wire_codec: upload_codec(&cfg, link_spec),
        }
    }

    /// Installs a shared observability bundle on the client engine (see
    /// [`DeltaCfsClient::set_obs`]).
    pub fn enable_observability(&mut self, obs: deltacfs_obs::Obs) {
        self.obs = obs.clone();
        self.wire_codec.attach_obs(&obs);
        self.client.set_obs(obs);
    }

    /// Declares which platform this client runs on: the wire codec's
    /// cost model charges that platform's compression CPU, and the link
    /// charges the same work as simulated time on codec-tagged parts.
    pub fn set_platform(&mut self, profile: PlatformProfile) {
        self.wire_codec.set_profile(profile);
        self.link.set_compute(profile);
    }

    /// The upload-direction wire codec's own work accumulator
    /// (compression CPU; kept out of the client [`Cost`] so raw and
    /// compressed runs report identical client/server totals).
    pub fn codec_cost(&self) -> Cost {
        self.wire_codec.cost()
    }

    /// Overrides the wire codec's decision policy. Property tests use
    /// this to force arbitrary compress/raw schedules through a stream;
    /// production code configures the codec through
    /// [`DeltaCfsConfig::wire_compression`] instead.
    #[doc(hidden)]
    pub fn set_codec_policy(&mut self, policy: CodecPolicy) {
        self.wire_codec.set_policy(policy);
    }

    /// The client engine.
    pub fn client(&self) -> &DeltaCfsClient<K> {
        &self.client
    }

    /// Mutable access to the client engine.
    pub fn client_mut(&mut self) -> &mut DeltaCfsClient<K> {
        &mut self.client
    }

    /// The cloud server.
    pub fn server(&self) -> &CloudServer {
        &self.server
    }

    /// Apply outcomes observed so far (conflicts, rejections).
    pub fn outcomes(&self) -> &[ApplyOutcome] {
        &self.outcomes
    }

    /// Uploads every ready transaction group to the cloud: each ships
    /// through [`pipeline::upload_group`] into the server's chunk stage,
    /// which commits it atomically on the final frame; the server then
    /// acknowledges.
    fn upload_ready(&mut self, fs: &Vfs, flush: bool) {
        let groups = if flush {
            self.client.flush(fs)
        } else {
            self.client.tick(fs)
        };
        let now = self.clock.now();
        let budget = self.client.config().chunk_budget;
        let server = &mut self.server;
        for group in groups {
            let (_, outcomes) = pipeline::upload_group(
                &group,
                budget,
                &mut self.wire_codec,
                &mut self.link,
                now,
                &self.obs,
                Some(|frame: &pipeline::ChunkFrame| {
                    server
                        .receive_chunk(frame)
                        .expect("in-process chunk stream cannot be malformed")
                }),
            );
            self.outcomes
                .extend(outcomes.expect("a delivered group commits on its final frame"));
            // Acknowledgement.
            self.link.download(ACK_WIRE_BYTES, now);
        }
    }
}

impl<K: KeyValue> SyncEngine for DeltaCfsSystem<K> {
    fn name(&self) -> &str {
        "deltacfs"
    }

    fn on_event(&mut self, event: &OpEvent, fs: &Vfs) {
        self.client.handle_event(event, fs);
    }

    fn tick(&mut self, fs: &Vfs) {
        self.upload_ready(fs, false);
    }

    fn finish(&mut self, fs: &Vfs) {
        self.upload_ready(fs, true);
    }

    fn report(&self) -> EngineReport {
        EngineReport {
            name: self.name().to_string(),
            client_cost: self.client.cost(),
            server_cost: Some(self.server.cost()),
            traffic: self.link.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_sync_through_the_trait() {
        let clock = SimClock::new();
        let mut sys = DeltaCfsSystem::new(DeltaCfsConfig::new(), clock.clone(), LinkSpec::pc());
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/f").unwrap();
        fs.write("/f", 0, b"payload").unwrap();
        for e in fs.drain_events() {
            sys.on_event(&e, &fs);
        }
        clock.advance(4000);
        sys.tick(&fs);
        assert_eq!(sys.server().file("/f"), Some(&b"payload"[..]));
        let report = sys.report();
        assert!(report.traffic.bytes_up > 7);
        assert!(report.server_cost.is_some());
    }

    #[test]
    fn parallelism_does_not_change_cost_or_traffic() {
        // The parallel delta path is documented to be byte-identical to
        // the sequential one; at the engine level that means the worker
        // count may change wall-clock time but never cost counters,
        // uploaded bytes, or the synced content.
        let run = |workers: usize| {
            let clock = SimClock::new();
            let cfg = DeltaCfsConfig::new()
                .with_parallelism(workers)
                .with_min_parallel_bytes(0);
            let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), LinkSpec::pc());
            let mut fs = Vfs::new();
            fs.enable_event_log();
            fs.create("/f").unwrap();
            let base: Vec<u8> = (0..20_000u32).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
            fs.write("/f", 0, &base).unwrap();
            for e in fs.drain_events() {
                sys.on_event(&e, &fs);
            }
            clock.advance(4000);
            sys.tick(&fs);
            // In-place update over more than half the file: upload goes
            // through local delta encoding against the undo-log base.
            let edit = vec![0xAB; 12_000];
            fs.write("/f", 100, &edit).unwrap();
            for e in fs.drain_events() {
                sys.on_event(&e, &fs);
            }
            clock.advance(4000);
            sys.finish(&fs);
            let r = sys.report();
            (
                r.client_cost,
                r.traffic.bytes_up,
                sys.server().file("/f").map(<[u8]>::to_vec),
            )
        };
        let (cost1, up1, file1) = run(1);
        let (cost4, up4, file4) = run(4);
        assert_eq!(cost1, cost4, "cost must not depend on worker count");
        assert_eq!(up1, up4, "traffic must not depend on worker count");
        assert_eq!(file1, file4);
        assert!(file1.is_some());
    }

    /// Two saves of one file (a fresh create, then an in-place rewrite
    /// large enough for the local delta path) plus a small file renamed
    /// in the second round. Returns the system and, from a twin client
    /// fed the same events, `Σ wire_size()` of every group it shipped.
    fn two_round_run(cfg: DeltaCfsConfig, link: LinkSpec) -> (DeltaCfsSystem, u64) {
        let clock = SimClock::new();
        let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), link);
        let mut twin = DeltaCfsClient::new(ClientId(1), cfg, clock.clone());
        let mut wire = 0u64;
        let mut fs = Vfs::new();
        fs.enable_event_log();
        let mut round = |fs: &mut Vfs, sys: &mut DeltaCfsSystem, last: bool| {
            for e in fs.drain_events() {
                sys.on_event(&e, fs);
                twin.handle_event(&e, fs);
            }
            let fs = &*fs;
            clock.advance(4000);
            let groups = if last {
                sys.finish(fs);
                twin.flush(fs)
            } else {
                sys.tick(fs);
                twin.tick(fs)
            };
            wire += groups.iter().flatten().map(|m| m.wire_size()).sum::<u64>();
        };
        let text: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .copied()
            .cycle()
            .take(30_000)
            .collect();
        fs.create("/f").unwrap();
        fs.write("/f", 0, &text).unwrap();
        fs.create("/small").unwrap();
        fs.write("/small", 0, b"tiny file").unwrap();
        round(&mut fs, &mut sys, false);
        fs.write("/f", 200, &vec![0x5A; 16_000]).unwrap();
        fs.rename("/small", "/renamed").unwrap();
        round(&mut fs, &mut sys, true);
        (sys, wire)
    }

    #[test]
    fn chunk_budget_changes_nothing_but_framing() {
        // One upload path: the budget only decides how finely a group is
        // framed. Traffic, cost, outcomes and cloud state are the same
        // for a 512-byte budget, the default, and an unbounded one, and
        // the uplink carries exactly the groups' wire size.
        let run = |budget: Option<usize>| {
            let mut cfg = DeltaCfsConfig::new();
            if let Some(b) = budget {
                cfg = cfg.with_chunk_budget(b);
            }
            let (sys, wire) = two_round_run(cfg, LinkSpec::pc());
            let r = sys.report();
            assert_eq!(
                r.traffic.bytes_up, wire,
                "budget {budget:?}: uplink beyond Σ wire_size"
            );
            (
                r.traffic,
                r.client_cost,
                sys.outcomes().to_vec(),
                sys.server().file("/f").map(<[u8]>::to_vec),
                sys.server().file("/renamed").map(<[u8]>::to_vec),
            )
        };
        let default = run(None);
        assert_eq!(run(Some(512)), default);
        assert_eq!(run(Some(usize::MAX)), default);
        assert!(default.3.is_some());
        assert_eq!(default.4.as_deref(), Some(&b"tiny file"[..]));
    }

    #[test]
    fn wire_compression_shrinks_the_default_upload() {
        // The codec sits on the one upload path, so turning it on must
        // shrink a compressible upload at the default budget while
        // leaving cloud state and outcomes untouched.
        let run = |on: bool| {
            let cfg = DeltaCfsConfig::new().with_wire_compression(on);
            let (sys, _) = two_round_run(cfg, LinkSpec::mobile());
            (
                sys.report().traffic.bytes_up,
                sys.outcomes().to_vec(),
                sys.server().file("/f").map(<[u8]>::to_vec),
                sys.server().file("/renamed").map(<[u8]>::to_vec),
            )
        };
        let (raw_up, raw_outcomes, raw_f, raw_renamed) = run(false);
        let (codec_up, outcomes, f, renamed) = run(true);
        assert!(
            codec_up < raw_up,
            "compressed uplink {codec_up} not below raw {raw_up}"
        );
        assert_eq!(outcomes, raw_outcomes);
        assert_eq!(f, raw_f);
        assert_eq!(renamed, raw_renamed);
    }

    #[test]
    fn finish_flushes_pending_nodes() {
        let clock = SimClock::new();
        let mut sys = DeltaCfsSystem::new(DeltaCfsConfig::new(), clock.clone(), LinkSpec::pc());
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/late").unwrap();
        for e in fs.drain_events() {
            sys.on_event(&e, &fs);
        }
        // No clock advance: tick would upload nothing.
        sys.tick(&fs);
        assert!(sys.server().file("/late").is_none());
        sys.finish(&fs);
        assert!(sys.server().file("/late").is_some());
    }
}
