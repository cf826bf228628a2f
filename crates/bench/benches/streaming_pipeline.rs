//! Streaming zero-copy upload pipeline (BENCH_5).
//!
//! The transactional 64 MiB workload (every 4th 4 KiB page rewritten,
//! ~25% churn) is encoded and uploaded two ways:
//!
//! * **materialized** — `local::diff` builds the whole `Delta`, then the
//!   full message goes on the link in one shot: peak client memory
//!   tracks the delta size and the link idles while the encoder works;
//! * **streamed** — `pipeline::upload_delta_streaming` runs the chunked
//!   encoder on a second thread and uploads each frame as it lands
//!   (real encoder elapsed time is mapped onto the simulated clock, so
//!   upload of chunk `k` overlaps the encoding of chunk `k + 1`).
//!
//! Recorded into `BENCH_5.json`:
//!
//! * `max_inflight_bytes` — the peak-RSS proxy: bytes queued between
//!   encoder and uploader, bounded by `chunk_budget * pipeline_depth`
//!   byte-based back-pressure (asserted here and in CI smoke);
//! * the in-flight reduction versus materializing the delta (the issue
//!   demands ≥ 8x on the full 64 MiB workload);
//! * end-to-end encode+upload latency on the slow-link (mobile)
//!   profile for both paths — overlap must not lose to one-shot.
//!
//! Correctness is asserted before anything is timed: the streamed
//! upload must leave the server holding exactly the new content, with
//! uploaded-byte accounting identical to the materialized message.
//!
//! Full mode writes `BENCH_5.json` at the repository root. Smoke mode
//! (`cargo bench -p deltacfs-bench --bench streaming_pipeline -- --test`,
//! or `DELTACFS_BENCH_SMOKE=1`) shrinks the file and writes
//! `BENCH_5.smoke.json` instead, leaving the committed numbers alone.

use deltacfs_core::pipeline::{self, PipelineConfig};
use deltacfs_core::{
    ClientId, CloudServer, GroupId, Payload, UpdateMsg, UpdatePayload, Version, ACK_WIRE_BYTES,
};
use deltacfs_delta::{local, Cost, DeltaParams};
use deltacfs_net::{Link, LinkSpec, SimTime};
use deltacfs_obs::Obs;

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

/// The §III-A transactional update at scale: every 4th 4 KiB page
/// rewritten — about a quarter of the file churns, three quarters are
/// copy-matched.
fn make_input(size: usize) -> (Vec<u8>, Vec<u8>) {
    let mut old = vec![0u8; size];
    fill_random(&mut old, 0x2545F4914F6CDD1D);
    let mut new = old.clone();
    for (i, page) in new.chunks_mut(4096).enumerate() {
        if i % 4 == 0 {
            fill_random(page, 0xDEADBEEF ^ i as u64);
        }
    }
    (old, new)
}

fn ver(n: u64) -> Version {
    Version {
        client: ClientId(1),
        counter: n,
    }
}

fn base_msg(payload: UpdatePayload, version: u64, group: Option<u64>) -> UpdateMsg {
    UpdateMsg {
        path: "/f".into(),
        base: (version > 1).then(|| ver(version - 1)),
        version: Some(ver(version)),
        payload,
        txn: group,
        group: group.map(|seq| GroupId {
            client: ClientId(1),
            seq,
        }),
    }
}

/// A server already holding the base content at version 1.
fn seeded_server(old: &[u8]) -> CloudServer {
    let mut server = CloudServer::new();
    server.apply_msg(&base_msg(
        UpdatePayload::Full(Payload::copy_from_slice(old)),
        1,
        None,
    ));
    server
}

fn json_num(v: f64) -> serde_json::Value {
    serde_json::to_value(&v).expect("finite float")
}

fn main() {
    let smoke = smoke_mode();
    let size = if smoke { 4 * MIB } else { 64 * MIB };
    let cfg = PipelineConfig {
        chunk_budget: if smoke { 64 * 1024 } else { 256 * 1024 },
        pipeline_depth: 4,
    };
    let params = DeltaParams::new();
    let workers = 1; // one encoder thread; the overlap is encode vs upload
    let link_spec = LinkSpec::mobile();

    println!(
        "# streaming_pipeline (smoke={smoke}, file={} MiB, budget={} KiB, depth={})\n",
        size / MIB,
        cfg.chunk_budget / 1024,
        cfg.pipeline_depth
    );

    let (old, new) = make_input(size);

    // --- materialized reference: encode fully, then one-shot upload ------
    let enc_start = std::time::Instant::now();
    let delta = local::diff(&old, &new, &params, &mut Cost::new());
    let encode_ms = enc_start.elapsed().as_secs_f64() * 1e3;
    let msg = base_msg(
        UpdatePayload::Delta {
            base_path: "/f".into(),
            delta,
        },
        2,
        Some(1),
    );
    let wire_bytes = msg.wire_size();
    let mat_done = {
        let mut link = Link::new(link_spec);
        let mut server = seeded_server(&old);
        let done = link.upload(
            wire_bytes,
            SimTime::ZERO.plus_millis(encode_ms.ceil() as u64),
        );
        server.apply_txn(std::slice::from_ref(&msg));
        link.download(ACK_WIRE_BYTES, SimTime::ZERO);
        assert_eq!(server.file("/f"), Some(&new[..]), "materialized apply");
        assert_eq!(link.stats().bytes_up, wire_bytes);
        done
    };

    // --- streamed: encode→frame→upload overlapped ------------------------
    let mut link = Link::new(link_spec);
    let mut server = seeded_server(&old);
    let mut cost = Cost::new();
    let (report, _outcomes) = pipeline::upload_delta_streaming(
        &old,
        &new,
        &params,
        workers,
        &msg,
        &cfg,
        &mut link,
        &mut server,
        SimTime::ZERO,
        &Obs::new(),
        &mut cost,
        None,
    );
    assert_eq!(server.file("/f"), Some(&new[..]), "streamed apply");
    assert_eq!(
        link.stats().bytes_up,
        wire_bytes,
        "streamed accounting must equal the materialized wire size"
    );

    // Peak in-flight bytes are a configuration constant, not a function
    // of the delta size (the back-pressure contract CI smoke re-checks).
    let cap = (cfg.chunk_budget * cfg.pipeline_depth) as u64;
    assert!(
        report.max_inflight_bytes <= cap,
        "max_inflight {} exceeds chunk_budget * pipeline_depth = {}",
        report.max_inflight_bytes,
        cap
    );
    let reduction = wire_bytes as f64 / report.max_inflight_bytes as f64;
    if !smoke {
        assert!(
            reduction >= 8.0,
            "in-flight reduction {reduction:.1}x below the 8x floor"
        );
        assert!(
            report.done <= mat_done,
            "overlap lost to one-shot: streamed {:?} vs materialized {:?}",
            report.done,
            mat_done
        );
    }

    println!("delta wire bytes      {wire_bytes:>12}");
    println!("max in-flight bytes   {:>12}", report.max_inflight_bytes);
    println!("in-flight reduction   {reduction:>11.1}x");
    println!("frames                {:>12}", report.frames);
    println!("encode (one-shot)     {encode_ms:>10.1} ms");
    println!("e2e materialized      {:>10} ms", mat_done.as_millis());
    println!("e2e streamed          {:>10} ms", report.done.as_millis());

    let out = serde_json::json!({
        "bench": "streaming_pipeline",
        "smoke": smoke,
        "file_bytes": size,
        "chunk_budget": cfg.chunk_budget,
        "pipeline_depth": cfg.pipeline_depth,
        "delta_wire_bytes": wire_bytes,
        "max_inflight_bytes": report.max_inflight_bytes,
        "inflight_reduction_x": json_num(reduction),
        "frames": report.frames,
        "encode_ms": json_num(encode_ms),
        "e2e_materialized_ms": mat_done.as_millis(),
        "e2e_streamed_ms": report.done.as_millis(),
        "link": "mobile (1 MiB/s up, 80 ms latency)",
        "notes": "same workload both paths; streamed upload asserted byte-identical in accounting and applied content; e2e times are simulated link time with real encoder elapsed mapped in",
    });
    let name = if smoke {
        "BENCH_5.smoke.json"
    } else {
        "BENCH_5.json"
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let path = format!("{path}{name}");
    std::fs::write(&path, serde_json::to_string_pretty(&out).expect("serialize") + "\n")
        .expect("write bench json");
    println!("\nwrote {path}");
}
