//! End-to-end sync benchmark: replays a seeded workload writer → cloud →
//! peer through every layer of the sync path and prints one JSON result
//! line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload word --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run replays the whole workload once to warm up and then at least
//! three more times (fresh engines each time), starting another replay
//! only while it is expected to end within `--seconds`. Every replay must
//! converge (writer, cloud and peer hold identical bytes), the cloud
//! checkpoints must reload equal, and every replay of the run must yield
//! identical deterministic counters. `--trace 0` reports the end-to-end
//! metrics (medians over the timed replays); `--trace 1` alternates
//! untraced and traced replays and reports the per-layer metrics of the
//! traced ones, with the tracing overhead beside them.

mod rig;
mod scenario;
mod spans;
mod sys;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::Value;

use rig::{Checkpoint, Det, Rig, Timing};
use scenario::Workload;
use spans::{Layer, SelfTimes};

/// Seeds, layer predictions and the layer → end-to-end map per workload.
const WORKLOADS_JSON: &str = include_str!("../workloads.json");

/// Untimed replays at the start of a run: the first replay of a process
/// is the slowest (fresh heap, cold caches), so it only warms up and is
/// checked for correctness.
const WARMUP_REPLAYS: usize = 1;
/// Timed replays per run at least, whatever `--seconds` says.
const MIN_TIMED_REPLAYS: usize = 3;
/// Hard cap on replays per run, whatever `--seconds` says.
const MAX_REPLAYS: usize = 40;
/// Checkpoint repetitions after one replay: at least one, more while
/// their total stays under the budget.
const MIN_CHECKPOINTS: usize = 1;
const MAX_CHECKPOINTS: usize = 5;
const CHECKPOINT_BUDGET_NS: u64 = 500_000_000;
/// Timed replays are checkpointed until the run holds this many
/// checkpoint samples, or until checkpoints have taken
/// [`CHECKPOINT_SHARE`] of `--seconds`; large states (hundreds of MB)
/// would otherwise leave little of the run to the replays.
const CHECKPOINT_SAMPLES: usize = 3;
const CHECKPOINT_SHARE: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything one replay produced.
struct Replay {
    traced: bool,
    det: Det,
    timing: Timing,
    modeled_ticks: u64,
    problems: Vec<String>,
}

fn run_replay(args: &Args, traced: bool) -> (Replay, Rig) {
    let sc = scenario::build(args.workload, args.seed);
    let mut rig = Rig::new(&sc, traced);
    rig.replay(&sc);
    let replay = Replay {
        traced,
        det: rig.det().clone(),
        timing: rig.timing().clone(),
        modeled_ticks: rig.modeled_ticks(&sc.profile),
        problems: rig.verify(),
    };
    (replay, rig)
}

/// Checkpoints a replay's final cloud state; small states repeat the
/// checkpoint so the reported time is a median over many samples.
fn run_checkpoints(rig: &Rig, work_dir: &Path) -> Result<Vec<Checkpoint>, String> {
    let mut out: Vec<Checkpoint> = Vec::new();
    let mut spent_ns = 0;
    while out.len() < MIN_CHECKPOINTS
        || (spent_ns < CHECKPOINT_BUDGET_NS && out.len() < MAX_CHECKPOINTS)
    {
        let c = rig.checkpoint(work_dir)?;
        eprintln!(
            "checkpoint {}: save {:.1} ms, load {:.1} ms, {} bytes on disk",
            out.len() + 1,
            c.save_ns as f64 / 1e6,
            c.load_ns as f64 / 1e6,
            c.bytes_on_disk
        );
        spent_ns += c.save_ns + c.load_ns;
        out.push(c);
    }
    Ok(out)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of one replay with at least ten samples
/// beyond it (its 11th-largest sample), taken over the samples of
/// `replays` equal replays pooled, which leaves ten per replay beyond
/// it. Returns (value, percentile, samples per replay).
fn tail(mut v: Vec<u64>, replays: usize) -> (u64, f64, usize) {
    v.sort_unstable();
    let n = v.len() / replays.max(1);
    if n == 0 {
        return (0, 0.0, 0);
    }
    let beyond = 10.min(n - 1) * replays;
    let idx = v.len() - beyond - 1;
    (v[idx], 100.0 * (idx + 1) as f64 / v.len() as f64, n)
}

fn p50(v: Vec<u64>) -> f64 {
    median(v.into_iter().map(|x| x as f64).collect())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

const MB: f64 = 1e6;

fn sync_mbps(r: &Replay) -> f64 {
    ratio(
        r.det.update_bytes as f64 / MB,
        r.timing.replay_ns as f64 / 1e9,
    )
}

/// How much work a named layer did, from the deterministic counters.
fn layer_work(layer: &str, d: &Det, ck: &Checkpoint) -> Option<u64> {
    Some(match layer {
        "vfs" => d.ops,
        "intercept" => d.events,
        "delta" => d.client_cost.bytes_compared + d.delta_msgs,
        "hierarchy" => d.hierarchy.diffs + d.hierarchy.bytes_skipped,
        "queue" => d.msgs,
        "tick" => d.groups,
        "frame" => d.up_frames,
        "codec" => d.frames_compressed + d.codec_cost.bytes_compressed,
        "link" => d.up_bytes + d.down_bytes,
        "stage" => d.stage_frames,
        "apply" => d.apply_groups,
        "forward" => d.fwd_frames,
        "peer" => d.peer_msgs,
        "persist" => ck.bytes_on_disk,
        _ => return None,
    })
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(map) => map.get(key),
        _ => None,
    }
}

/// Checks the workload's predicted-idle layers did no work and every
/// other named layer did some.
fn check_layers(spec: &Value, d: &Det, ck: &Checkpoint) -> Vec<String> {
    let mut problems = Vec::new();
    let list = |key: &str| -> Vec<String> {
        match field(spec, key) {
            Some(Value::Array(items)) => items
                .iter()
                .filter_map(|v| match v {
                    Value::String(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    for (key, want_idle) in [("idle", true), ("active", false)] {
        for layer in list(key) {
            match layer_work(&layer, d, ck) {
                None => problems.push(format!("unknown layer {layer} in workloads.json")),
                Some(w) if want_idle && w != 0 => problems.push(format!(
                    "layer {layer} predicted idle but did {w} units of work"
                )),
                Some(0) if !want_idle => {
                    problems.push(format!("layer {layer} predicted active but did no work"))
                }
                Some(_) => {}
            }
        }
    }
    problems
}

/// A deterministic-counter digest, one `name value` per line, compared
/// across the replays of a run and against the recorded baseline.
fn digest(d: &Det) -> String {
    let mut s = String::new();
    let mut put = |k: &str, v: u64| {
        let _ = writeln!(s, "{k} {v}");
    };
    put("ops", d.ops);
    put("update_bytes", d.update_bytes);
    put("events", d.events);
    put("groups", d.groups);
    put("msgs", d.msgs);
    put("up_frames", d.up_frames);
    put("up_frame_bytes", d.up_frame_bytes);
    put("frames_compressed", d.frames_compressed);
    put("codec_bytes_in", d.codec_bytes_in);
    put("codec_bytes_out", d.codec_bytes_out);
    put("up_bytes", d.up_bytes);
    put("up_msgs", d.up_msgs);
    put("down_bytes", d.down_bytes);
    put("down_msgs", d.down_msgs);
    put("fwd_frames", d.fwd_frames);
    put("delta_msgs", d.delta_msgs);
    put("delta_literal_bytes", d.delta_literal_bytes);
    put("op_writes_shipped", d.op_writes_shipped);
    let cost = |s: &mut dyn FnMut(&str, u64), p: &str, c: &deltacfs_delta::Cost| {
        s(&format!("{p}.bytes_rolled"), c.bytes_rolled);
        s(&format!("{p}.bytes_strong_hashed"), c.bytes_strong_hashed);
        s(&format!("{p}.bytes_compared"), c.bytes_compared);
        s(&format!("{p}.bytes_chunked"), c.bytes_chunked);
        s(&format!("{p}.bytes_compressed"), c.bytes_compressed);
        s(&format!("{p}.bytes_copied"), c.bytes_copied);
        s(&format!("{p}.bytes_engine_read"), c.bytes_engine_read);
        s(&format!("{p}.ops"), c.ops);
    };
    cost(&mut put, "client_cost", &d.client_cost);
    cost(&mut put, "server_cost", &d.server_cost);
    cost(&mut put, "codec_cost", &d.codec_cost);
    let h = &d.hierarchy;
    put("hierarchy.diffs", h.diffs);
    put("hierarchy.aligned_runs", h.aligned_runs);
    put("hierarchy.levels_matched", h.levels_matched());
    put("hierarchy.bytes_skipped", h.bytes_skipped);
    put("hierarchy.leaf_walk_bytes", h.leaf_walk_bytes);
    cost(&mut put, "hierarchy.overhead", &h.overhead);
    put("lag_sim_ms.sum", d.lag_sim_ms.iter().sum());
    put(
        "lag_sim_ms.max",
        d.lag_sim_ms.iter().copied().max().unwrap_or(0),
    );
    s
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }
}

/// The end-to-end metrics over the timed (not warm-up) replays.
fn end_to_end(
    replays: &[Replay],
    checkpoints: &[Checkpoint],
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Replay) -> f64| median(replays.iter().map(f).collect());
    let d = &replays[0].det;
    let mut m = Metrics::default();
    m.add(
        "setup_s",
        med(&|r| (r.timing.construct_ns + r.timing.gen_ns) as f64 / 1e9),
        "s",
    );
    m.add("sync_mbps", med(&sync_mbps), "MB/s");
    let stalls: Vec<u64> = replays
        .iter()
        .flat_map(|r| r.timing.stalls_ns.iter().copied())
        .collect();
    m.add("op_stall_p50_us", p50(stalls.clone()) / 1e3, "us");
    let (tail_ns, pct, n) = tail(stalls, replays.len());
    m.add("op_stall_tail_ms", tail_ns as f64 / 1e6, "ms");
    lines.push(format!(
        "op_stall_tail_ms is the p{pct:.2} op stall over {} timed replays (n = {n} ops per replay, 10 per replay beyond it)",
        replays.len()
    ));
    m.add(
        "cpu_ms_per_mb",
        med(&|r| ratio(r.timing.cpu_us as f64 / 1e3, r.det.update_bytes as f64 / MB)),
        "ms/MB",
    );
    m.add(
        "up_bytes_per_update_byte",
        ratio(d.up_bytes as f64, d.update_bytes as f64),
        "ratio",
    );
    m.add(
        "down_bytes_per_update_byte",
        ratio(d.down_bytes as f64, d.update_bytes as f64),
        "ratio",
    );
    m.add(
        "sync_lag_p50_ms",
        med(&|r| p50(r.timing.lag_ns.clone()) / 1e6),
        "ms",
    );
    m.add(
        "checkpoint_s",
        median(
            checkpoints
                .iter()
                .map(|c| (c.save_ns + c.load_ns) as f64 / 1e9)
                .collect(),
        ),
        "s",
    );
    m.add("peak_rss_mb", sys::peak_rss_mb(), "MiB");
    m.0
}

/// The per-layer metrics of the last traced replay, beside the timed
/// untraced ones for the tracing overhead.
fn per_layer(
    replays: &[Replay],
    checkpoints: &[Checkpoint],
    t: &SelfTimes,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let traced: Vec<&Replay> = replays.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&Replay> = replays.iter().filter(|r| !r.traced).collect();
    let r = traced.last().expect("a traced replay");
    let d = &r.det;
    let ck = checkpoints.last().cloned().unwrap_or_default();
    let mut m = Metrics::default();
    let ms = |l: Layer| t.self_ms(l);
    m.add("vfs.busy_ms", ms(Layer::Vfs), "ms");
    m.add("vfs.ops", d.ops as f64, "count");
    m.add("intercept.write_ms", ms(Layer::InterceptWrite), "ms");
    m.add("intercept.close_ms", ms(Layer::InterceptClose), "ms");
    m.add("intercept.rename_ms", ms(Layer::InterceptRename), "ms");
    m.add("intercept.unlink_ms", ms(Layer::InterceptUnlink), "ms");
    m.add("intercept.truncate_ms", ms(Layer::InterceptTruncate), "ms");
    m.add("intercept.other_ms", ms(Layer::InterceptOther), "ms");
    m.add("intercept.events", d.events as f64, "count");
    let c = &d.client_cost;
    m.add("delta.bytes_rolled", c.bytes_rolled as f64, "bytes");
    m.add("delta.bytes_compared", c.bytes_compared as f64, "bytes");
    m.add(
        "delta.bytes_strong_hashed",
        c.bytes_strong_hashed as f64,
        "bytes",
    );
    m.add(
        "delta.literal_ratio",
        ratio(d.delta_literal_bytes as f64, d.delta_new_bytes as f64),
        "ratio",
    );
    m.add("delta.msgs", d.delta_msgs as f64, "count");
    let h = &d.hierarchy;
    m.add("hierarchy.diffs", h.diffs as f64, "count");
    m.add("hierarchy.bytes_skipped", h.bytes_skipped as f64, "bytes");
    m.add(
        "hierarchy.leaf_walk_bytes",
        h.leaf_walk_bytes as f64,
        "bytes",
    );
    m.add(
        "hierarchy.skip_ratio",
        ratio(
            h.bytes_skipped as f64,
            (h.bytes_skipped + h.leaf_walk_bytes) as f64,
        ),
        "ratio",
    );
    m.add(
        "queue.coalesce_ratio",
        ratio(d.op_writes_shipped as f64, d.write_events as f64),
        "ratio",
    );
    m.add("tick.busy_ms", ms(Layer::Tick), "ms");
    m.add("tick.groups", d.groups as f64, "count");
    m.add("frame.busy_ms", ms(Layer::Frame), "ms");
    m.add("frame.frames", d.up_frames as f64, "count");
    m.add("frame.bytes", d.up_frame_bytes as f64, "bytes");
    m.add("codec.busy_ms", ms(Layer::Codec), "ms");
    m.add(
        "codec.frames_compressed",
        d.frames_compressed as f64,
        "count",
    );
    m.add("codec.frames_raw", d.frames_raw as f64, "count");
    m.add(
        "codec.compressed_ratio",
        ratio(d.codec_bytes_out as f64, d.codec_bytes_in as f64),
        "ratio",
    );
    m.add(
        "codec.bytes_saved",
        (d.codec_bytes_in - d.codec_bytes_out) as f64,
        "bytes",
    );
    m.add("link.busy_ms", ms(Layer::Link), "ms");
    m.add("link.up_bytes", d.up_bytes as f64, "bytes");
    m.add("link.down_bytes", d.down_bytes as f64, "bytes");
    m.add("link.up_msgs", d.up_msgs as f64, "count");
    m.add("link.up_wait_sim_ms", d.up_wait_sim_ms as f64, "ms");
    m.add("link.sync_lag_sim_p50_ms", p50(d.lag_sim_ms.clone()), "ms");
    m.add(
        "link.sync_lag_sim_max_ms",
        d.lag_sim_ms.iter().copied().max().unwrap_or(0) as f64,
        "ms",
    );
    m.add("stage.busy_ms", ms(Layer::Stage), "ms");
    m.add("stage.frames", d.stage_frames as f64, "count");
    m.add("stage.errors", d.stage_errors as f64, "count");
    m.add("apply.busy_ms", ms(Layer::Apply), "ms");
    m.add("apply.groups", d.apply_groups as f64, "count");
    m.add("apply.rejected", d.rejected as f64, "count");
    m.add("apply.conflicts", d.conflicts as f64, "count");
    m.add("apply.duplicates", d.duplicates as f64, "count");
    m.add("forward.busy_ms", ms(Layer::Forward), "ms");
    m.add("forward.frames", d.fwd_frames as f64, "count");
    m.add("peer.busy_ms", ms(Layer::Peer), "ms");
    m.add("peer.msgs", d.peer_msgs as f64, "count");
    m.add("peer.conflicts", d.peer_conflicts as f64, "count");
    let med_ck = |f: &dyn Fn(&Checkpoint) -> u64| {
        median(checkpoints.iter().map(|c| f(c) as f64 / 1e6).collect())
    };
    m.add("persist.save_ms", med_ck(&|c| c.save_ns), "ms");
    m.add("persist.load_ms", med_ck(&|c| c.load_ns), "ms");
    m.add("persist.bytes_on_disk", ck.bytes_on_disk as f64, "bytes");
    m.add("persist.kv_wal_records", ck.kv_wal_records as f64, "count");
    m.add(
        "persist.kv_batch_commits",
        ck.kv_batch_commits as f64,
        "count",
    );
    m.add("persist.kv_flushes", ck.kv_flushes as f64, "count");
    m.add("persist.kv_compactions", ck.kv_compactions as f64, "count");
    m.add("persist.kv_replayed", ck.kv_replayed as f64, "count");
    // Table II model beside measured time: the writer's modeled ticks
    // next to the real busy time of the writer-side layers.
    let measured = [
        Layer::InterceptWrite,
        Layer::InterceptClose,
        Layer::InterceptRename,
        Layer::InterceptUnlink,
        Layer::InterceptTruncate,
        Layer::InterceptOther,
        Layer::Tick,
        Layer::Frame,
        Layer::Codec,
    ]
    .iter()
    .map(|l| ms(*l))
    .sum::<f64>();
    m.add("model.ticks", r.modeled_ticks as f64, "ticks");
    m.add("model.measured_ms", measured, "ms");
    m.add(
        "model.ticks_per_ms",
        ratio(r.modeled_ticks as f64, measured),
        "ticks/ms",
    );
    let wall_ms = t.wall_ns as f64 / 1e6;
    m.add("trace.wall_ms", wall_ms, "ms");
    m.add("trace.self_sum_ms", t.sum_ns() as f64 / 1e6, "ms");
    m.add("trace.uncovered_ms", ms(Layer::Replay), "ms");
    m.add("trace.gen_ms", ms(Layer::Gen), "ms");
    let traced_mbps = median(traced.iter().map(|r| sync_mbps(r)).collect());
    let untraced_mbps = median(untraced.iter().map(|r| sync_mbps(r)).collect());
    m.add("trace.sync_mbps", traced_mbps, "MB/s");
    m.add("trace.untraced_sync_mbps", untraced_mbps, "MB/s");
    m.add(
        "trace.overhead_pct",
        100.0 * (ratio(untraced_mbps, traced_mbps) - 1.0),
        "%",
    );
    m.add(
        "failed_ratio",
        ratio(d.failures() as f64, d.groups as f64),
        "ratio",
    );
    lines.push(self_time_table(t));
    m.0
}

fn self_time_table(t: &SelfTimes) -> String {
    let mut s = String::from("layer                 calls      self_ms   share\n");
    let wall = t.wall_ns.max(1) as f64;
    for layer in Layer::ALL {
        let name = if layer == Layer::Replay {
            "(uncovered)"
        } else {
            layer.name()
        };
        let _ = writeln!(
            s,
            "{name:<20} {:>7} {:>12.1} {:>6.1}%",
            if layer == Layer::Replay {
                0
            } else {
                t.calls(layer)
            },
            t.self_ms(layer),
            100.0 * t.self_ns[Layer::ALL.iter().position(|l| *l == layer).unwrap()] as f64 / wall
        );
    }
    let _ = write!(
        s,
        "{:<20} {:>7} {:>12.1} (traced wall {:.1} ms)",
        "sum",
        "",
        t.sum_ns() as f64 / 1e6,
        wall / 1e6
    );
    s
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <word|wechat_mobile|hugefile> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let spec_all: Value = serde_json::from_str(WORKLOADS_JSON).expect("workloads.json parses");
    let spec = field(&spec_all, "workloads")
        .and_then(|w| field(w, args.workload.name()))
        .cloned()
        .unwrap_or(Value::Null);
    let out = out_dir();
    std::fs::create_dir_all(&out).expect("create output directory");
    let work_dir = out.join(format!("kv-{}", std::process::id()));

    let started = Instant::now();
    let mut replays: Vec<Replay> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    // Mean time of one replay (setup, replay, verification, teardown)
    // and the longest checkpoint round after one replay: a replay starts
    // only while both are expected to fit in `--seconds`.
    let mut replays_s: f64 = 0.0;
    let mut longest_checkpoint_s: f64 = 0.0;
    let mut checkpoint_s: f64 = 0.0;
    let wants_checkpoint = |checkpoints: &[Checkpoint], checkpoint_s: f64| {
        checkpoints.is_empty()
            || (checkpoints.len() < CHECKPOINT_SAMPLES
                && checkpoint_s < CHECKPOINT_SHARE * args.seconds)
    };
    loop {
        let warmup = replays.len() < WARMUP_REPLAYS;
        let timed = replays.len().saturating_sub(WARMUP_REPLAYS);
        // Traced runs alternate untraced and traced timed replays, so
        // the tracing overhead is measured within one run.
        let traced = args.trace && !warmup && timed % 2 == 1;
        let t = Instant::now();
        let (r, rig) = run_replay(&args, traced);
        eprintln!(
            "replay {}{}: {:.3} s replay, {:.1} MB/s, op p50 {:.2} us, setup {:.3} s",
            replays.len() + 1,
            if warmup {
                " (warm-up)"
            } else if traced {
                " (traced)"
            } else {
                ""
            },
            r.timing.replay_ns as f64 / 1e9,
            sync_mbps(&r),
            p50(r.timing.stalls_ns.clone()) / 1e3,
            (r.timing.construct_ns + r.timing.gen_ns) as f64 / 1e9
        );
        let mut replay_s = t.elapsed().as_secs_f64();
        if !warmup && wants_checkpoint(&checkpoints, checkpoint_s) {
            let t = Instant::now();
            match run_checkpoints(&rig, &work_dir) {
                Ok(c) => checkpoints.extend(c),
                Err(e) => problems.push(format!("checkpoint: {e}")),
            }
            let round_s = t.elapsed().as_secs_f64();
            checkpoint_s += round_s;
            longest_checkpoint_s = longest_checkpoint_s.max(round_s);
        }
        let t = Instant::now();
        drop(rig);
        replay_s += t.elapsed().as_secs_f64();
        replays_s += replay_s;
        replays.push(r);
        let timed = replays.len().saturating_sub(WARMUP_REPLAYS);
        let next_s = replays_s / replays.len() as f64
            + if wants_checkpoint(&checkpoints, checkpoint_s) {
                longest_checkpoint_s
            } else {
                0.0
            };
        if timed >= MIN_TIMED_REPLAYS
            && (started.elapsed().as_secs_f64() + next_s > args.seconds
                || replays.len() >= MAX_REPLAYS)
        {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let final_ck = checkpoints.last().cloned().unwrap_or_default();
    if checkpoints.iter().any(|c| {
        (c.bytes_on_disk, c.kv_wal_records) != (final_ck.bytes_on_disk, final_ck.kv_wal_records)
    }) {
        problems.push("checkpoints of one seed wrote different bytes".into());
    }

    let first = digest(&replays[0].det);
    for (i, r) in replays.iter().enumerate() {
        for p in &r.problems {
            problems.push(format!("replay {}: {p}", i + 1));
        }
        if r.det != replays[0].det {
            problems.push(format!(
                "replay {} deterministic counters differ from replay 1:\n{}",
                i + 1,
                diff_lines(&first, &digest(&r.det))
            ));
        }
        for p in check_layers(&spec, &r.det, &final_ck) {
            problems.push(format!("replay {}: {p}", i + 1));
        }
        if r.det.stage_errors != 0 {
            problems.push(format!(
                "replay {}: {} stage errors",
                i + 1,
                r.det.stage_errors
            ));
        }
    }
    compare_baseline(&args, &first);

    let mut lines = Vec::new();
    let metrics = if args.trace {
        let last = replays
            .iter()
            .rev()
            .find(|r| r.traced)
            .expect("a traced replay");
        match spans::self_times(&last.timing.spans) {
            Ok(t) => {
                if t.sum_ns() != t.wall_ns {
                    problems.push(format!(
                        "self times sum to {} ns, traced wall is {} ns",
                        t.sum_ns(),
                        t.wall_ns
                    ));
                }
                let name = format!("{}-seed{}", args.workload.name(), args.seed);
                let trace_path = out.join(format!("{name}.trace.json"));
                let process = format!("perfbench {} seed {}", args.workload.name(), args.seed);
                if let Err(e) = std::fs::write(
                    &trace_path,
                    spans::chrome_json(&last.timing.spans, &process),
                ) {
                    problems.push(format!("writing {}: {e}", trace_path.display()));
                }
                lines.push(format!(
                    "chrome trace: out/{name}.trace.json in the benchmark directory"
                ));
                per_layer(&replays[WARMUP_REPLAYS..], &checkpoints, &t, &mut lines)
            }
            Err(e) => {
                problems.push(format!("span accounting: {e}"));
                Vec::new()
            }
        }
    } else {
        end_to_end(&replays[WARMUP_REPLAYS..], &checkpoints, &mut lines)
    };

    let attempted: u64 = replays.iter().map(|r| r.det.groups).sum();
    let failed: u64 = replays.iter().map(|r| r.det.failures()).sum();
    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    println!(
        "workload {} seed {}: {} replays in {:.1} s, {} MB written per replay",
        args.workload.name(),
        args.seed,
        replays.len(),
        started.elapsed().as_secs_f64(),
        replays[0].det.update_bytes as f64 / MB
    );
    for l in &lines {
        println!("{l}");
    }
    println!(
        "{}",
        json_line(problems.is_empty(), attempted.max(1), failed, &metrics)
    );
}

fn diff_lines(a: &str, b: &str) -> String {
    a.lines()
        .zip(b.lines())
        .filter(|(x, y)| x != y)
        .map(|(x, y)| format!("  {x}  ->  {y}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Compares this run's deterministic counters with the ones recorded
/// for the same workload and seed, if any, and says so on stderr. A
/// difference is reported, not failed: a change that moves bytes on
/// purpose re-records the baseline, and the diff shows in review.
fn compare_baseline(args: &Args, digest: &str) {
    let name = format!("{}-seed{}.txt", args.workload.name(), args.seed);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("baseline")
        .join(&name);
    let _ = std::fs::write(out_dir().join(&name), digest);
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded == digest => {
            eprintln!("perfbench: counters match baseline/{name}")
        }
        Ok(recorded) => eprintln!(
            "perfbench: counters differ from baseline/{name}:\n{}",
            diff_lines(&recorded, digest)
        ),
        Err(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::tail;

    #[test]
    fn tail_leaves_ten_samples_per_replay_beyond_it() {
        let one: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(one.clone(), 1), (90, 90.0, 100));
        let two: Vec<u64> = one.iter().chain(one.iter()).copied().collect();
        assert_eq!(tail(two, 2), (90, 90.0, 100));
    }
}
