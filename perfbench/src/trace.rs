//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a library layer in a
//! span (name, start, end, parent, op id). Spans stay in memory while
//! the workload runs and are written out once at exit. When tracing is
//! off, [`span`] is a plain call: the untraced run pays one thread-local
//! flag read per layer call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The root span of one measured operation; its children are the
/// layer calls the operation made.
pub const OP: &str = "op";

/// One recorded interval, times in seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

struct State {
    epoch: Option<Instant>,
    paused: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

thread_local! {
    static STATE: RefCell<State> = const {
        RefCell::new(State { epoch: None, paused: false, spans: Vec::new(), stack: Vec::new(), op: 0 })
    };
}

/// Start recording on this thread, with times measured from `epoch`.
pub fn enable(epoch: Instant) {
    STATE.with(|s| s.borrow_mut().epoch = Some(epoch));
}

/// Run `f` with recording off (an untraced phase inside a traced run).
pub fn paused<T>(f: impl FnOnce() -> T) -> T {
    let was = STATE.with(|s| std::mem::replace(&mut s.borrow_mut().paused, true));
    let out = f();
    STATE.with(|s| s.borrow_mut().paused = was);
    out
}

/// Tag the spans opened from now on with operation id `op`.
pub fn set_op(op: u64) {
    STATE.with(|s| s.borrow_mut().op = op);
}

/// Run `f` inside a span named `name`, nested under the innermost open
/// span of this thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(idx) = open(name) else {
        return f();
    };
    let out = f();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let end = s.epoch.expect("tracing enabled").elapsed().as_secs_f64();
        s.spans[idx].end = end;
        let top = s.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    });
    out
}

fn open(name: &'static str) -> Option<usize> {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let epoch = s.epoch.filter(|_| !s.paused)?;
        let idx = s.spans.len();
        let span = Span {
            name,
            op: s.op,
            parent: s.stack.last().copied(),
            start: epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
        };
        s.spans.push(span);
        s.stack.push(idx);
        Some(idx)
    })
}

/// Record a span measured elsewhere (for example by another thread, or
/// reported by the engine) as a child of `parent`. Returns its index,
/// or `None` when tracing is off.
pub fn record(
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
) -> Option<usize> {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let epoch = s.epoch.filter(|_| !s.paused)?;
        let at = |t: Instant| {
            t.checked_duration_since(epoch)
                .map_or(0.0, |d| d.as_secs_f64())
        };
        let idx = s.spans.len();
        let span = Span {
            name,
            op,
            parent,
            start: at(start),
            end: at(end),
        };
        s.spans.push(span);
        Some(idx)
    })
}

/// Attribute every span recorded so far on this thread.
pub fn attribute_recorded() -> Attribution {
    STATE.with(|s| attribute(&s.borrow().spans))
}

/// Drain this thread's spans.
pub fn take() -> Vec<Span> {
    STATE.with(|s| std::mem::take(&mut s.borrow_mut().spans))
}

/// Per-layer self time and the share of op time no layer span covers.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Self time per span name, seconds: the span's duration minus what
    /// its direct children cover.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Spans per name.
    pub count: BTreeMap<&'static str, u64>,
    /// Total duration of [`OP`] spans.
    pub op_s: f64,
    /// Self time of [`OP`] spans: op time spent outside every layer.
    pub unattributed_s: f64,
}

impl Attribution {
    pub fn unattributed_frac(&self) -> f64 {
        if self.op_s > 0.0 {
            self.unattributed_s / self.op_s
        } else {
            0.0
        }
    }

    /// Self seconds of `name` per span of `per` (for example per op).
    pub fn self_per(&self, name: &str, per: u64) -> f64 {
        if per == 0 {
            return 0.0;
        }
        self.self_s.get(name).copied().unwrap_or(0.0) / per as f64
    }
}

pub fn attribute(spans: &[Span]) -> Attribution {
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.seconds();
        }
    }
    let mut out = Attribution::default();
    for (s, covered) in spans.iter().zip(&child_s) {
        let own = (s.seconds() - covered).max(0.0);
        *out.self_s.entry(s.name).or_default() += own;
        *out.count.entry(s.name).or_default() += 1;
        if s.name == OP {
            out.op_s += s.seconds();
            out.unattributed_s += own;
        }
    }
    out
}

/// Write spans as JSON lines (one object per span).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_s\":{:.9},\"end_s\":{:.9}}}",
            s.name, s.op, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            at(OP, None, 0.0, 10.0),
            at("gpu.execute", Some(0), 1.0, 7.0),
            at("gpu.lower", Some(1), 2.0, 3.0),
            at("tensor.contiguous", Some(0), 7.0, 8.0),
        ];
        let a = attribute(&spans);
        assert_eq!(a.self_s["gpu.execute"], 5.0);
        assert_eq!(a.self_s["gpu.lower"], 1.0);
        assert_eq!(a.op_s, 10.0);
        assert_eq!(a.unattributed_s, 3.0);
        assert!((a.unattributed_frac() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let epoch = Instant::now();
        enable(epoch);
        set_op(7);
        let v = span(OP, || span("lang.parse", || 41) + 1);
        assert_eq!(v, 42);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
    }
}
