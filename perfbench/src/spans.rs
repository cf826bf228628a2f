//! In-memory span recorder for the traced run.
//!
//! Every layer call the benchmark loop makes is wrapped in one span (layer,
//! start/end in nanoseconds since the iteration started, causal parent,
//! transaction-group id). Spans are kept in a `Vec` and analysed after
//! the run: per-layer self time (duration minus the part covered by
//! spans nested inside it), the uncovered gaps of the root span, and a
//! Chrome trace-event export loadable in Perfetto.
//!
//! When the recorder is off, [`Rec::now`] returns 0 without reading the
//! clock and [`Rec::close`] returns at once, so an untraced run pays one
//! branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers of the sync path, in path order. The names are the ones
/// the per-layer metrics and the self-time table use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole timed iteration (root span).
    Replay,
    /// Trace generation between two replayed ops (benchmark set-up work
    /// interleaved with the replay; excluded from the replay time).
    Gen,
    Vfs,
    InterceptWrite,
    InterceptClose,
    InterceptRename,
    InterceptUnlink,
    InterceptTruncate,
    InterceptOther,
    Tick,
    Frame,
    Codec,
    Link,
    Stage,
    Apply,
    Forward,
    Peer,
}

impl Layer {
    pub const ALL: [Layer; 17] = [
        Layer::Replay,
        Layer::Gen,
        Layer::Vfs,
        Layer::InterceptWrite,
        Layer::InterceptClose,
        Layer::InterceptRename,
        Layer::InterceptUnlink,
        Layer::InterceptTruncate,
        Layer::InterceptOther,
        Layer::Tick,
        Layer::Frame,
        Layer::Codec,
        Layer::Link,
        Layer::Stage,
        Layer::Apply,
        Layer::Forward,
        Layer::Peer,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Replay => "replay",
            Layer::Gen => "gen",
            Layer::Vfs => "vfs",
            Layer::InterceptWrite => "intercept.write",
            Layer::InterceptClose => "intercept.close",
            Layer::InterceptRename => "intercept.rename",
            Layer::InterceptUnlink => "intercept.unlink",
            Layer::InterceptTruncate => "intercept.truncate",
            Layer::InterceptOther => "intercept.other",
            Layer::Tick => "tick",
            Layer::Frame => "frame",
            Layer::Codec => "codec",
            Layer::Link => "link",
            Layer::Stage => "stage",
            Layer::Apply => "apply",
            Layer::Forward => "forward",
            Layer::Peer => "peer",
        }
    }

    fn index(self) -> usize {
        Layer::ALL.iter().position(|l| *l == self).expect("listed")
    }
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (0 = none).
    pub parent: u32,
    /// Transaction-group sequence number (0 = not group work).
    pub group: u64,
}

/// The recorder. Span id 1 is reserved for the root span, which the
/// benchmark loop closes last.
#[derive(Debug)]
pub struct Rec {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
}

pub const ROOT: u32 = 1;

impl Rec {
    pub fn new(on: bool) -> Self {
        Rec {
            on,
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder started (0 when off).
    #[inline]
    pub fn now(&self) -> u64 {
        if self.on {
            self.base.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Converts an `Instant` taken by the caller into recorder time.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Closes a span that started at `start` and ends now.
    #[inline]
    pub fn close(&mut self, layer: Layer, start: u64, parent: u32, group: u64) -> u32 {
        if !self.on {
            return 0;
        }
        let end = self.now();
        self.push(layer, start, end, parent, group)
    }

    /// Records a span with explicit bounds.
    pub fn push(&mut self, layer: Layer, start: u64, end: u64, parent: u32, group: u64) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 2;
        self.spans.push(Span {
            id,
            layer,
            start_ns: start,
            end_ns: end.max(start),
            parent,
            group,
        });
        id
    }

    /// Records the root span and hands the finished span list over.
    pub fn finish(mut self, start: u64, end: u64) -> Vec<Span> {
        if !self.on {
            return Vec::new();
        }
        self.spans.push(Span {
            id: ROOT,
            layer: Layer::Replay,
            start_ns: start,
            end_ns: end,
            parent: 0,
            group: 0,
        });
        self.spans
    }
}

/// Per-layer totals over one traced iteration.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    /// Self time per layer, ns, indexed like [`Layer::ALL`]. The root's
    /// entry is the uncovered gap: root time no other span covers.
    pub self_ns: [u64; 17],
    /// Span count per layer.
    pub calls: [u64; 17],
    /// Wall time of the root span, ns.
    pub wall_ns: u64,
}

impl SelfTimes {
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 / 1e6
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Σ self times of every layer (the root's uncovered gap included).
    pub fn sum_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

/// Self time of every span: its duration minus the union of the spans
/// nested inside it (containment by time, on one thread).
///
/// # Errors
///
/// Fails when two spans overlap without one containing the other, or a
/// span lies outside the root — either means a span was mis-recorded
/// and the accounting below would not hold.
pub fn self_times(spans: &[Span]) -> Result<SelfTimes, String> {
    let mut order: Vec<&Span> = spans.iter().collect();
    // Outer spans first: by start, then by longer duration, root first.
    order.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.end_ns.cmp(&a.end_ns))
            .then((a.id != ROOT).cmp(&(b.id != ROOT)))
    });
    let mut out = SelfTimes::default();
    let root = spans.iter().find(|s| s.id == ROOT).ok_or("no root span")?;
    out.wall_ns = root.end_ns - root.start_ns;
    // Stack of (span, covered-by-children ns).
    let mut stack: Vec<(&Span, u64)> = Vec::new();
    let pop = |stack: &mut Vec<(&Span, u64)>, out: &mut SelfTimes| {
        let (s, covered) = stack.pop().expect("non-empty");
        let dur = s.end_ns - s.start_ns;
        out.self_ns[s.layer.index()] += dur - covered.min(dur);
        out.calls[s.layer.index()] += 1;
        if let Some(parent) = stack.last_mut() {
            parent.1 += dur;
        }
    };
    for s in order {
        while let Some((top, _)) = stack.last() {
            let nested =
                s.end_ns <= top.end_ns && (s.start_ns < top.end_ns || s.start_ns == s.end_ns);
            if nested {
                break;
            }
            if s.start_ns < top.end_ns {
                return Err(format!(
                    "span {} ({}) [{}, {}] overlaps {} ({}) [{}, {}]",
                    s.id,
                    s.layer.name(),
                    s.start_ns,
                    s.end_ns,
                    top.id,
                    top.layer.name(),
                    top.start_ns,
                    top.end_ns
                ));
            }
            pop(&mut stack, &mut out);
        }
        if stack.is_empty() && s.id != ROOT {
            return Err(format!(
                "span {} ({}) lies outside the root",
                s.id,
                s.layer.name()
            ));
        }
        stack.push((s, 0));
    }
    while !stack.is_empty() {
        pop(&mut stack, &mut out);
    }
    Ok(out)
}

/// Renders the spans as Chrome trace-event JSON: one complete (`X`)
/// event per span, one thread per layer, timestamps in microseconds
/// since the iteration started.
pub fn chrome_json(spans: &[Span], process: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{process}\"}}}}"
    );
    for layer in Layer::ALL {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            layer.index() + 1,
            layer.name()
        );
    }
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    for s in sorted {
        let group = if s.group == 0 {
            String::new()
        } else {
            format!("<c1,g{}>", s.group)
        };
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"sync\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"group\":\"{}\",\"span\":{},\"parent\":{}}}}}",
            s.layer.name(),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.layer.index() + 1,
            group,
            s.id,
            s.parent
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_nested_spans_and_sum_to_wall() {
        let mut rec = Rec::new(true);
        rec.push(Layer::Tick, 10, 40, ROOT, 0);
        rec.push(Layer::Frame, 15, 25, 2, 1);
        rec.push(Layer::Vfs, 50, 60, ROOT, 0);
        let spans = rec.finish(0, 100);
        let t = self_times(&spans).unwrap();
        assert_eq!(t.self_ns[Layer::Tick.index()], 20);
        assert_eq!(t.self_ns[Layer::Frame.index()], 10);
        assert_eq!(t.self_ns[Layer::Vfs.index()], 10);
        assert_eq!(t.self_ns[Layer::Replay.index()], 60);
        assert_eq!(t.sum_ns(), t.wall_ns);
    }

    #[test]
    fn overlapping_spans_are_an_error() {
        let mut rec = Rec::new(true);
        rec.push(Layer::Tick, 10, 40, ROOT, 0);
        rec.push(Layer::Frame, 30, 50, ROOT, 0);
        let spans = rec.finish(0, 100);
        assert!(self_times(&spans).is_err());
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut rec = Rec::new(false);
        assert_eq!(rec.now(), 0);
        assert_eq!(rec.close(Layer::Tick, 0, ROOT, 0), 0);
        assert!(rec.finish(0, 1).is_empty());
    }
}
