//! Adaptive per-chunk wire compression (BENCH_8).
//!
//! Sweeps the streamed upload pipeline over compressible (log text,
//! SQLite-style pages) and incompressible (random, JPEG-like) content
//! on the mobile and LAN link profiles, raw wire vs the adaptive
//! [`WireCodec`]. The codec's contract under test:
//!
//! * **never worse than raw** — a frame ships compressed only when the
//!   envelope is strictly smaller, so the adaptive uplink can never
//!   exceed the raw uplink on any workload (incompressible overhead is
//!   exactly 0 bytes: raw frames carry no tag);
//! * **cost-benefit, not compress-always** — on the LAN profile the
//!   wire is free, so even compressible chunks ship raw; on mobile the
//!   1 MiB/s uplink makes text chunks clear the CPU bar easily;
//! * **back-pressure in compressed bytes** — the chunk_budget ×
//!   pipeline_depth in-flight cap holds against what actually crosses
//!   the wire (asserted here and in CI smoke);
//! * on the mobile profile, compressible uplink shrinks ≥ 1.5x with
//!   end-to-end time no worse than raw.
//!
//! Full mode writes `BENCH_8.json` at the repository root. Smoke mode
//! (`cargo bench -p deltacfs-bench --bench adaptive_compression -- --test`,
//! or `DELTACFS_BENCH_SMOKE=1`) shrinks the file and writes
//! `BENCH_8.smoke.json` instead, leaving the committed numbers alone.

use deltacfs_core::pipeline::{self, PipelineConfig};
use deltacfs_core::{
    ClientId, CloudServer, CodecPolicy, GroupId, Payload, UpdateMsg, UpdatePayload, Version,
    WireCodec,
};
use deltacfs_delta::{Cost, DeltaParams};
use deltacfs_net::{Link, LinkSpec, PlatformProfile, SimTime};
use deltacfs_obs::{MetricValue, Obs};

const MIB: usize = 1024 * 1024;

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test") || std::env::var("DELTACFS_BENCH_SMOKE").is_ok()
}

/// Deterministic pseudo-random fill (xorshift-multiply LCG).
fn fill_random(buf: &mut [u8], mut state: u64) {
    for b in buf.iter_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        *b = (state >> 33) as u8;
    }
}

/// Server-log text: the classic highly compressible sync payload.
fn make_text(size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(size + 128);
    let mut i = 0u64;
    while out.len() < size {
        out.extend_from_slice(
            format!(
                "2026-08-07T12:{:02}:{:02} INFO request id={} path=/api/v1/items/{} \
                 status=200 latency_ms={}\n",
                i / 60 % 60,
                i % 60,
                i.wrapping_mul(31) % 100_000,
                i % 512,
                i.wrapping_mul(7) % 300,
            )
            .as_bytes(),
        );
        i += 1;
    }
    out.truncate(size);
    out
}

/// SQLite-style pages: 4 KiB B-tree pages with a structured header,
/// ascending cell pointers, and zero-padded free space — the paper's
/// transactional-update content, moderately compressible.
fn make_sqlite_pages(size: usize) -> Vec<u8> {
    let mut out = vec![0u8; size];
    for (p, page) in out.chunks_mut(4096).enumerate() {
        if page.len() < 128 {
            break;
        }
        page[..16].copy_from_slice(b"SQLite format 3\0");
        let cells = 20 + p % 10;
        for c in 0..cells {
            let at = 16 + c * 2;
            let ptr = (4096 - (c + 1) * 64) as u16;
            page[at..at + 2].copy_from_slice(&ptr.to_be_bytes());
        }
        // Record bodies: small integer payloads with repeating type codes.
        for c in 0..cells {
            let at = page.len().saturating_sub((c + 1) * 64);
            if at + 8 <= page.len() {
                page[at..at + 8].copy_from_slice(&((p * cells + c) as u64).to_be_bytes());
            }
        }
    }
    out
}

/// Entropy-coded media: random bytes with JPEG-style marker segments —
/// the probe must price it incompressible despite the sprinkled
/// structure.
fn make_jpeg_like(size: usize) -> Vec<u8> {
    let mut out = vec![0u8; size];
    fill_random(&mut out, 0x9E3779B97F4A7C15);
    for chunk in out.chunks_mut(8192) {
        if chunk.len() >= 4 {
            chunk[0] = 0xFF;
            chunk[1] = 0xDA;
        }
    }
    out
}

fn make_random(size: usize) -> Vec<u8> {
    let mut out = vec![0u8; size];
    fill_random(&mut out, 0x2545F4914F6CDD1D);
    out
}

fn ver(n: u64) -> Version {
    Version {
        client: ClientId(1),
        counter: n,
    }
}

fn delta_msg() -> UpdateMsg {
    UpdateMsg {
        path: "/f".into(),
        base: Some(ver(1)),
        version: Some(ver(2)),
        payload: UpdatePayload::Delta {
            base_path: "/f".into(),
            delta: deltacfs_delta::Delta::from_ops(vec![]),
        },
        txn: Some(1),
        group: Some(GroupId {
            client: ClientId(1),
            seq: 1,
        }),
    }
}

/// A server already holding the (empty) base content at version 1, so
/// the all-literal delta v1→v2 carries the workload content verbatim.
fn seeded_server() -> CloudServer {
    let mut server = CloudServer::new();
    server.apply_msg(&UpdateMsg {
        path: "/f".into(),
        base: None,
        version: Some(ver(1)),
        payload: UpdatePayload::Full(Payload::copy_from_slice(&[])),
        txn: None,
        group: None,
    });
    server
}

struct RunResult {
    uplink_bytes: u64,
    e2e_ms: u64,
    frames: u64,
    max_inflight_bytes: u64,
    compressed_chunks: u64,
    raw_chunks: u64,
    bytes_saved: u64,
}

fn counter(snap: &deltacfs_obs::Snapshot, name: &str) -> u64 {
    match snap.get(name) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// One streamed upload of `content` as an all-literal delta over
/// `link_spec`, with or without the adaptive codec.
fn run_upload(
    content: &[u8],
    link_spec: LinkSpec,
    profile: PlatformProfile,
    adaptive: bool,
    cfg: &PipelineConfig,
) -> RunResult {
    let params = DeltaParams::new();
    let msg = delta_msg();
    let obs = Obs::new();
    let mut link = Link::new(link_spec);
    let mut server = seeded_server();
    let mut cost = Cost::new();
    let mut codec = WireCodec::for_upload(CodecPolicy::Adaptive, profile, link_spec);
    codec.attach_obs(&obs);
    if adaptive {
        link.set_compute(profile);
    }
    let (report, _outcomes) = pipeline::upload_delta_streaming(
        &[],
        content,
        &params,
        1,
        &msg,
        cfg,
        &mut link,
        &mut server,
        SimTime::ZERO,
        &obs,
        &mut cost,
        adaptive.then_some(&mut codec),
    );
    assert_eq!(
        server.file("/f"),
        Some(content),
        "upload must land the exact content (adaptive={adaptive})"
    );
    let cap = (cfg.chunk_budget * cfg.pipeline_depth) as u64;
    assert!(
        report.max_inflight_bytes <= cap,
        "in-flight {} exceeds chunk_budget * pipeline_depth = {cap}",
        report.max_inflight_bytes
    );
    let snap = obs.registry.snapshot();
    RunResult {
        uplink_bytes: link.stats().bytes_up,
        e2e_ms: report.done.as_millis(),
        frames: report.frames,
        max_inflight_bytes: report.max_inflight_bytes,
        compressed_chunks: counter(&snap, "wire_compress_chunks"),
        raw_chunks: counter(&snap, "wire_raw_chunks"),
        bytes_saved: counter(&snap, "wire_compress_bytes_saved"),
    }
}

fn json_num(v: f64) -> serde_json::Value {
    serde_json::to_value(&v).expect("finite float")
}

fn main() {
    let smoke = smoke_mode();
    let size = if smoke { 2 * MIB } else { 16 * MIB };
    let cfg = PipelineConfig {
        chunk_budget: if smoke { 64 * 1024 } else { 256 * 1024 },
        pipeline_depth: 4,
    };

    println!(
        "# adaptive_compression (smoke={smoke}, file={} MiB, budget={} KiB, depth={})\n",
        size / MIB,
        cfg.chunk_budget / 1024,
        cfg.pipeline_depth
    );

    let workloads: [(&str, bool, Vec<u8>); 4] = [
        ("text", true, make_text(size)),
        ("sqlite_pages", true, make_sqlite_pages(size)),
        ("random", false, make_random(size)),
        ("jpeg_like", false, make_jpeg_like(size)),
    ];
    let profiles: [(&str, LinkSpec, PlatformProfile); 2] = [
        ("mobile", LinkSpec::mobile(), PlatformProfile::mobile()),
        ("lan", LinkSpec::pc(), PlatformProfile::pc()),
    ];

    let mut runs = Vec::new();
    let mut min_compressible_mobile_reduction = f64::INFINITY;
    println!(
        "{:<14} {:<8} {:>14} {:>14} {:>9} {:>10} {:>10}",
        "workload", "profile", "raw up", "adaptive up", "ratio", "raw e2e", "adapt e2e"
    );
    for (wname, compressible, content) in &workloads {
        for (pname, link_spec, profile) in &profiles {
            let raw = run_upload(content, *link_spec, *profile, false, &cfg);
            let adaptive = run_upload(content, *link_spec, *profile, true, &cfg);

            // Never worse than raw, on every workload and profile: a
            // frame only ships compressed when strictly smaller, and a
            // raw frame carries no tag.
            assert!(
                adaptive.uplink_bytes <= raw.uplink_bytes,
                "{wname}/{pname}: adaptive uplink {} exceeds raw {}",
                adaptive.uplink_bytes,
                raw.uplink_bytes
            );
            assert_eq!(
                adaptive.compressed_chunks + adaptive.raw_chunks,
                adaptive.frames,
                "{wname}/{pname}: every frame gets exactly one codec decision"
            );
            if !compressible {
                // The probe prices high-entropy chunks raw: zero
                // compressed frames, zero overhead (≤ 1% demanded,
                // 0 delivered — the uplinks are byte-identical).
                assert_eq!(
                    adaptive.compressed_chunks, 0,
                    "{wname}/{pname}: incompressible chunks must ship raw"
                );
                assert_eq!(
                    adaptive.uplink_bytes, raw.uplink_bytes,
                    "{wname}/{pname}: raw frames are untagged — overhead must be 0"
                );
            }
            let reduction = raw.uplink_bytes as f64 / adaptive.uplink_bytes as f64;
            if *compressible && *pname == "mobile" {
                min_compressible_mobile_reduction =
                    min_compressible_mobile_reduction.min(reduction);
                assert!(
                    adaptive.compressed_chunks > 0,
                    "{wname}/mobile: nothing compressed on the constrained link"
                );
                if !smoke {
                    assert!(
                        reduction >= 1.5,
                        "{wname}/mobile: uplink reduction {reduction:.2}x below the 1.5x floor"
                    );
                    assert!(
                        adaptive.e2e_ms <= raw.e2e_ms,
                        "{wname}/mobile: compression lost end-to-end ({} ms vs {} ms raw)",
                        adaptive.e2e_ms,
                        raw.e2e_ms
                    );
                }
            }

            println!(
                "{:<14} {:<8} {:>14} {:>14} {:>8.2}x {:>8}ms {:>8}ms",
                wname,
                pname,
                raw.uplink_bytes,
                adaptive.uplink_bytes,
                reduction,
                raw.e2e_ms,
                adaptive.e2e_ms
            );
            for (mode, r) in [("raw", &raw), ("adaptive", &adaptive)] {
                runs.push(serde_json::json!({
                    "workload": wname,
                    "profile": pname,
                    "mode": mode,
                    "compressible": compressible,
                    "uplink_bytes": r.uplink_bytes,
                    "e2e_ms": r.e2e_ms,
                    "frames": r.frames,
                    "max_inflight_bytes": r.max_inflight_bytes,
                    "compressed_chunks": r.compressed_chunks,
                    "raw_chunks": r.raw_chunks,
                    "bytes_saved": r.bytes_saved,
                }));
            }
        }
    }

    let out = serde_json::json!({
        "bench": "adaptive_compression",
        "smoke": smoke,
        "file_bytes": size,
        "chunk_budget": cfg.chunk_budget,
        "pipeline_depth": cfg.pipeline_depth,
        "min_compressible_mobile_reduction_x": json_num(min_compressible_mobile_reduction),
        "runs": runs,
        "notes": "all-literal streamed upload per cell; adaptive = WireCodec cost-benefit per chunk; raw frames untagged so incompressible overhead is exactly 0 bytes; e2e is simulated link time incl. modeled compression CPU and real encoder elapsed",
    });
    let name = if smoke {
        "BENCH_8.smoke.json"
    } else {
        "BENCH_8.json"
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let path = format!("{path}{name}");
    std::fs::write(&path, serde_json::to_string_pretty(&out).expect("serialize") + "\n")
        .expect("write bench json");
    println!("\nwrote {path}");
}
