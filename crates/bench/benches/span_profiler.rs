//! Causal span profiler over the streamed upload pipeline (BENCH_9).
//!
//! Runs the BENCH_8 workload matrix (log text, SQLite-style pages,
//! random, JPEG-like × mobile/LAN) through
//! [`pipeline::upload_delta_streaming`] with causal span recording
//! armed, and reports the profiler's per-stage critical-path
//! attribution for each cell: how much of the end-to-end time the
//! pipeline spent in `delta.encode`, `wire.compress`, `wire.upload`,
//! and `pipeline.wait` (encode/upload overlap shows up as wait time
//! attributed away from the link). The contracts under test:
//!
//! * **observability is free when off** — a disabled recorder records
//!   nothing (one relaxed atomic load per span site), and the sim's
//!   deterministic outputs (uplink bytes, frame count, applied content,
//!   outcomes) are byte-identical with profiling on and off;
//! * **attribution balances** — per group, the per-stage attributed
//!   milliseconds sum exactly to the observed end-to-end time;
//! * **every committed stage appears** — the report names each stage
//!   that recorded a closed span, including the zero-width
//!   `server.stage`/`server.apply` pair;
//! * **enabled overhead ≤ 1%** — best-of-N wall-clock of the profiled
//!   run vs the disabled run (full mode only; wall-clock assertions
//!   are skipped in smoke).
//!
//! Full mode writes `BENCH_9.json` and a Perfetto-loadable
//! `BENCH_9.trace.json` at the repository root. Smoke mode
//! (`cargo bench -p deltacfs-bench --bench span_profiler -- --test`, or
//! `DELTACFS_BENCH_SMOKE=1`) writes `BENCH_9.smoke.json` /
//! `BENCH_9.trace.smoke.json` instead, leaving the committed numbers
//! alone.

use std::time::Instant;

use deltacfs_core::pipeline::{self, PipelineConfig};
use deltacfs_core::{
    ClientId, CloudServer, CodecPolicy, GroupId, Payload, UpdateMsg, UpdatePayload, Version,
    WireCodec,
};
use deltacfs_delta::{Cost, DeltaParams};
use deltacfs_net::{Link, LinkSpec, PlatformProfile, SimTime};
use deltacfs_obs::{Obs, Profiler};

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

/// Server-log text: highly compressible.
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

/// SQLite-style 4 KiB B-tree pages: moderately compressible.
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
        for c in 0..cells {
            let at = page.len().saturating_sub((c + 1) * 64);
            if at + 8 <= page.len() {
                page[at..at + 8].copy_from_slice(&((p * cells + c) as u64).to_be_bytes());
            }
        }
    }
    out
}

/// Entropy-coded media with JPEG-style markers: incompressible.
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

/// A server already holding the (empty) base at version 1.
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
    outcomes: usize,
    wall: std::time::Duration,
    obs: Obs,
}

/// One streamed adaptive-codec upload of `content`, profiled or not.
fn run_upload(
    content: &[u8],
    link_spec: LinkSpec,
    profile: PlatformProfile,
    profiled: bool,
    cfg: &PipelineConfig,
) -> RunResult {
    let params = DeltaParams::new();
    let msg = delta_msg();
    let obs = if profiled {
        Obs::with_profiling(1 << 16)
    } else {
        Obs::new()
    };
    let mut link = Link::new(link_spec);
    link.set_compute(profile);
    let mut server = seeded_server();
    let mut cost = Cost::new();
    let mut codec = WireCodec::for_upload(CodecPolicy::Adaptive, profile, link_spec);
    codec.attach_obs(&obs);
    let t0 = Instant::now();
    let (report, outcomes) = pipeline::upload_delta_streaming(
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
        Some(&mut codec),
    );
    let wall = t0.elapsed();
    assert_eq!(
        server.file("/f"),
        Some(content),
        "upload must land the exact content (profiled={profiled})"
    );
    RunResult {
        uplink_bytes: link.stats().bytes_up,
        e2e_ms: report.done.as_millis(),
        frames: report.frames,
        outcomes: outcomes.len(),
        wall,
        obs,
    }
}

fn json_num(v: f64) -> serde_json::Value {
    serde_json::to_value(&v).expect("finite float")
}

fn main() {
    let smoke = smoke_mode();
    let size = if smoke { 2 * MIB } else { 16 * MIB };
    let overhead_reps = if smoke { 2 } else { 7 };
    let cfg = PipelineConfig {
        chunk_budget: if smoke { 64 * 1024 } else { 256 * 1024 },
        pipeline_depth: 4,
    };

    println!(
        "# span_profiler (smoke={smoke}, file={} MiB, budget={} KiB, depth={})\n",
        size / MIB,
        cfg.chunk_budget / 1024,
        cfg.pipeline_depth
    );

    // Disabled-path contract: a disabled recorder is inert — span sites
    // cost one relaxed atomic load and record nothing.
    {
        let off = Obs::new();
        for i in 0..10_000u64 {
            let id = off
                .spans
                .start(deltacfs_obs::GroupKey { client: 1, seq: i }, "a", "s", i, None);
            off.spans.end(id, i + 1);
        }
        assert!(off.spans.is_empty(), "disabled recorder recorded spans");
        assert_eq!(off.spans.dropped(), 0);
    }

    let workloads: [(&str, Vec<u8>); 4] = [
        ("text", make_text(size)),
        ("sqlite_pages", make_sqlite_pages(size)),
        ("random", make_random(size)),
        ("jpeg_like", make_jpeg_like(size)),
    ];
    let profiles: [(&str, LinkSpec, PlatformProfile); 2] = [
        ("mobile", LinkSpec::mobile(), PlatformProfile::mobile()),
        ("lan", LinkSpec::pc(), PlatformProfile::pc()),
    ];

    let mut runs = Vec::new();
    let mut trace_json: Option<String> = None;
    println!(
        "{:<14} {:<8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "workload", "profile", "spans", "e2e", "encode", "compress", "upload", "wait"
    );
    for (wname, content) in &workloads {
        for (pname, link_spec, profile) in &profiles {
            let off = run_upload(content, *link_spec, *profile, false, &cfg);
            let on = run_upload(content, *link_spec, *profile, true, &cfg);

            // Profiling must not change what the sim does — only what it
            // remembers. (Timings are wall-derived, so the
            // deterministic outputs are the bytes and counts.)
            assert_eq!(on.uplink_bytes, off.uplink_bytes, "{wname}/{pname}: uplink differs");
            assert_eq!(on.frames, off.frames, "{wname}/{pname}: frame count differs");
            assert_eq!(on.outcomes, off.outcomes, "{wname}/{pname}: outcomes differ");
            assert!(off.obs.spans.is_empty(), "{wname}/{pname}: disabled run recorded spans");
            assert_eq!(on.obs.spans.dropped(), 0, "{wname}/{pname}: span table overflowed");

            let profiler = Profiler::new(on.obs.spans.records());
            let groups = profiler.groups();
            assert_eq!(groups.len(), 1, "{wname}/{pname}: one group uploaded");
            let g = &groups[0];
            assert_eq!(
                g.e2e_ms, on.e2e_ms,
                "{wname}/{pname}: span-tree e2e must match the pipeline report"
            );
            let total: u64 = g.attribution.iter().map(|(_, ms)| ms).sum();
            assert_eq!(
                total, g.e2e_ms,
                "{wname}/{pname}: attribution must sum to e2e"
            );
            let report = profiler.text_report();
            for stage in ["delta.encode", "wire.upload", "server.stage", "server.apply"] {
                assert!(
                    report.contains(stage),
                    "{wname}/{pname}: committed stage {stage} missing from report"
                );
            }
            let ms_of = |stage: &str| -> u64 {
                g.attribution
                    .iter()
                    .find(|(s, _)| s == stage)
                    .map(|(_, ms)| *ms)
                    .unwrap_or(0)
            };
            println!(
                "{:<14} {:<8} {:>7} {:>7}ms {:>7}ms {:>7}ms {:>7}ms {:>7}ms",
                wname,
                pname,
                profiler.records().len(),
                g.e2e_ms,
                ms_of("delta.encode"),
                ms_of("wire.compress"),
                ms_of("wire.upload"),
                ms_of("pipeline.wait"),
            );
            let attribution: Vec<serde_json::Value> = g
                .attribution
                .iter()
                .map(|(stage, ms)| serde_json::json!({ "stage": stage, "ms": ms }))
                .collect();
            runs.push(serde_json::json!({
                "workload": wname,
                "profile": pname,
                "uplink_bytes": on.uplink_bytes,
                "frames": on.frames,
                "spans": profiler.records().len() as u64,
                "e2e_ms": g.e2e_ms,
                "attribution": attribution,
            }));
            if trace_json.is_none() {
                trace_json = Some(profiler.chrome_trace());
            }
        }
    }

    // Enabled-overhead contract: best-of-N wall clock, profiled vs not,
    // on the text/mobile cell (the heaviest: real encode + compression).
    let (_, content) = &workloads[0];
    let (_, link_spec, profile) = &profiles[0];
    let best = |profiled: bool| -> f64 {
        (0..overhead_reps)
            .map(|_| {
                run_upload(content, *link_spec, *profile, profiled, &cfg)
                    .wall
                    .as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let wall_off = best(false);
    let wall_on = best(true);
    let overhead_pct = (wall_on / wall_off - 1.0) * 100.0;
    println!(
        "\nenabled overhead: best-of-{overhead_reps} {:.1}ms profiled vs {:.1}ms off ({overhead_pct:+.2}%)",
        wall_on * 1e3,
        wall_off * 1e3
    );
    if !smoke {
        assert!(
            overhead_pct <= 1.0,
            "profiling overhead {overhead_pct:.2}% exceeds the 1% budget"
        );
    }

    let out = serde_json::json!({
        "bench": "span_profiler",
        "smoke": smoke,
        "file_bytes": size,
        "chunk_budget": cfg.chunk_budget,
        "pipeline_depth": cfg.pipeline_depth,
        "overhead_best_of": overhead_reps,
        "wall_ms_profiled": json_num(wall_on * 1e3),
        "wall_ms_disabled": json_num(wall_off * 1e3),
        "overhead_pct": json_num(overhead_pct),
        "runs": runs,
        "notes": "adaptive-codec streamed upload per cell (measured pipeline); attribution = critical-path ms per stage, summing exactly to e2e; server.stage/server.apply are zero-width on the simulated clock; overhead asserted <= 1% in full mode only",
    });
    let (name, trace_name) = if smoke {
        ("BENCH_9.smoke.json", "BENCH_9.trace.smoke.json")
    } else {
        ("BENCH_9.json", "BENCH_9.trace.json")
    };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let path = format!("{root}{name}");
    std::fs::write(&path, serde_json::to_string_pretty(&out).expect("serialize") + "\n")
        .expect("write bench json");
    println!("wrote {path}");
    let trace_path = format!("{root}{trace_name}");
    std::fs::write(&trace_path, trace_json.expect("at least one profiled run"))
        .expect("write trace json");
    println!("wrote {trace_path} (open in Perfetto)");
}
