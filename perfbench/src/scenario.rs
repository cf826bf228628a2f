//! The benchmark's workloads: which trace, link, platform and engine
//! configuration each one replays. The seed given on the command line
//! is the only input; every trace seed is derived from it.

use deltacfs_core::DeltaCfsConfig;
use deltacfs_net::{LinkSpec, PlatformProfile};
use deltacfs_workloads::{
    ContentGen, HugeFile, TimedOp, Trace, TraceConfig, TraceMeta, TraceOp, WeChatTrace, WordTrace,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Word transactional saves: relation-table trigger + local delta.
    Word,
    /// WeChat SQLite page writes on a mobile link with wire compression.
    WeChatMobile,
    /// Transactional saves of a file above the hierarchy floor.
    HugeFile,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Word, Workload::WeChatMobile, Workload::HugeFile];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Word => "word",
            Workload::WeChatMobile => "wechat_mobile",
            Workload::HugeFile => "hugefile",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one replay needs besides the engines themselves.
pub struct Scenario {
    pub trace: Box<dyn Trace>,
    /// Link of both the writer and the peer.
    pub link: LinkSpec,
    /// Platform of the writer: drives the upload codec's cost model,
    /// the link's codec CPU charge, and the modeled-ticks figure.
    pub profile: PlatformProfile,
    pub cfg: DeltaCfsConfig,
}

/// splitmix64, used to derive independent per-purpose seeds.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Size of the `hugefile` workload's file: above the default 64 MiB
/// hierarchy floor, so the hierarchical matcher engages on every save.
pub const HUGE_FILE_BYTES: u64 = 66 << 20;
/// Transactional saves in the `hugefile` workload.
pub const HUGE_SAVES: usize = 1;
/// Scattered 4 KiB overlay edits per `hugefile` save.
pub const HUGE_EDITS_PER_SAVE: usize = 3;

pub fn build(workload: Workload, seed: u64) -> Scenario {
    let trace_seed = mix(seed ^ mix(workload as u64 + 1));
    let cfg = DeltaCfsConfig::new();
    match workload {
        Workload::Word => Scenario {
            trace: Box::new(WordTrace::new(TraceConfig {
                scale: 1.0,
                seed: trace_seed,
            })),
            link: LinkSpec::pc(),
            profile: PlatformProfile::pc(),
            cfg,
        },
        Workload::WeChatMobile => Scenario {
            trace: Box::new(WeChatTrace::new(TraceConfig {
                scale: 1.0,
                seed: trace_seed,
            })),
            link: LinkSpec::mobile(),
            profile: PlatformProfile::mobile(),
            cfg: cfg.with_wire_compression(true),
        },
        Workload::HugeFile => Scenario {
            trace: Box::new(HugeSaveTrace {
                seed: trace_seed,
                len: HUGE_FILE_BYTES,
                saves: HUGE_SAVES,
                edits_per_save: HUGE_EDITS_PER_SAVE,
                interval_ms: 10_000,
            }),
            link: LinkSpec::pc(),
            profile: PlatformProfile::pc(),
            cfg,
        },
    }
}

/// Word-style transactional saves of a [`HugeFile`]: each save overlays
/// a few scattered 4 KiB edits, then runs `rename f t0; create-write t1;
/// close t1; rename t1 f; unlink t0`, writing the whole file in 1 MiB
/// chunks.
pub struct HugeSaveTrace {
    seed: u64,
    len: u64,
    saves: usize,
    edits_per_save: usize,
    interval_ms: u64,
}

const CHUNK: u64 = 1 << 20;
const PAGE: u64 = 4096;

fn write_huge(sink: &mut dyn FnMut(TimedOp), at_ms: u64, path: &str, file: &HugeFile) {
    let mut off = 0;
    while off < file.len() {
        let n = CHUNK.min(file.len() - off);
        let mut data = vec![0u8; n as usize];
        file.read_at(off, &mut data);
        sink(TimedOp {
            at_ms,
            op: TraceOp::Write {
                path: path.to_string(),
                offset: off,
                data,
            },
        });
        off += n;
    }
}

impl Trace for HugeSaveTrace {
    fn meta(&self) -> TraceMeta {
        TraceMeta {
            name: "hugefile",
            description: format!(
                "{} transactional saves of a {} MiB file, {} scattered 4 KiB edits each",
                self.saves,
                self.len >> 20,
                self.edits_per_save
            ),
        }
    }

    fn generate(&self, sink: &mut dyn FnMut(TimedOp)) {
        let op = |at_ms, op| TimedOp { at_ms, op };
        let f = "/huge.img".to_string();
        let t0 = "/huge.tmp0".to_string();
        let t1 = "/huge.tmp1".to_string();
        let mut file = HugeFile::new(self.seed, self.len);
        let mut gen = ContentGen::new(mix(self.seed));
        let mut used_pages = std::collections::HashSet::new();

        sink(op(0, TraceOp::Create(f.clone())));
        write_huge(sink, 1, &f, &file);
        sink(op(2, TraceOp::Close(f.clone())));
        for save in 0..self.saves {
            let t = (save as u64 + 1) * self.interval_ms;
            for _ in 0..self.edits_per_save {
                let page = loop {
                    let p = gen.index((self.len / PAGE) as usize) as u64;
                    if used_pages.insert(p) {
                        break p;
                    }
                };
                file = file.with_edit(page * PAGE, &gen.mixed(PAGE as usize, 0.7));
            }
            sink(op(
                t,
                TraceOp::Rename {
                    src: f.clone(),
                    dst: t0.clone(),
                },
            ));
            sink(op(t + 10, TraceOp::Create(t1.clone())));
            write_huge(sink, t + 20, &t1, &file);
            sink(op(t + 100, TraceOp::Close(t1.clone())));
            sink(op(
                t + 110,
                TraceOp::Rename {
                    src: t1.clone(),
                    dst: f.clone(),
                },
            ));
            sink(op(t + 120, TraceOp::Unlink(t0.clone())));
        }
    }
}
