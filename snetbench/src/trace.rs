//! Spans recorded by the benchmark's own wrappers around each layer's
//! public calls, and the per-layer self time derived from them.
//!
//! A span has a name, start, end, the span that caused it (`parent`)
//! and the request it belongs to (`req`, the `<probe>` tag; -1 when
//! none). A request's own span has the fixed id [`request_span_id`],
//! so the calls the harness makes for it (`Service::call`,
//! `Net::send`) name it as parent without a handshake. Box closures
//! cannot: flow inheritance keeps `<probe>` outside the box, which
//! sees only its declared labels. Their spans are roots, and the
//! with-loops a box runs are its children.
//!
//! Only a sample of spans is kept: one request in [`SAMPLE`] (by
//! request id), one box call in [`SAMPLE`] per thread, with their
//! children, and every span outside both (setup, `Net::finish`).
//! Box and with-loop statistics count every call. Spans go to
//! per-thread buffers (an uncontended lock each) that outlive their
//! threads, so spans from component threads that have already exited
//! are still collected. Recording is off outside [`start`] and
//! [`stop`]: untraced runs never reach a buffer.

use snet_runtime::plan::Bindings;
use snet_runtime::serve::hist::Histogram;
use snet_runtime::Emitter;
use snet_types::Record;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Spans kept in memory per traced phase; later ones are counted as
/// dropped.
const SPAN_CAP: u64 = 250_000;

/// One request, or one box call, in this many keeps its spans.
pub const SAMPLE: u64 = 16;

/// Ids at or above this bit are request spans (see [`request_span_id`]).
const REQ_BIT: u64 = 1 << 62;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The causing span's id; 0 for a root.
    pub parent: u64,
    /// The request (`<probe>` value) this span belongs to; -1 for none.
    pub req: i64,
    pub name: &'static str,
    /// Nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Calls and busy time of one bound box closure. Busy time is the
/// CPU time of the thread running the closure, so a call preempted
/// by another thread does not count the other thread's time.
pub struct BoxStat {
    pub calls: u64,
    pub busy_ns: u64,
    /// Busy nanoseconds per call.
    pub hist: Histogram,
}

/// With-loop calls made by the benchmark's own boxes.
#[derive(Clone, Copy, Debug, Default)]
pub struct SacStat {
    pub calls: u64,
    /// Calls at or above `PAR_THRESHOLD` elements on a pool with more
    /// than one thread, i.e. the calls sacarray evaluates in parallel.
    pub par_calls: u64,
    pub elems: u64,
    pub busy_ns: u64,
}

#[derive(Default)]
struct Buf {
    spans: Vec<Span>,
    boxes: Vec<(&'static str, BoxStat)>,
    sac: SacStat,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RECORDED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<Buf>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<Buf>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<Mutex<Buf>> = {
        let buf = Arc::new(Mutex::new(Buf::default()));
        registry().lock().expect("trace registry poisoned").push(Arc::clone(&buf));
        buf
    };
    /// The innermost open span on this thread: id, request, and
    /// whether it is kept (id 0 = none).
    static OPEN: Cell<(u64, i64, bool)> = const { Cell::new((0, -1, true)) };
    /// Box calls this thread made while tracing, for sampling.
    static BOX_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn with_buf(f: impl FnOnce(&mut Buf)) {
    LOCAL.with(|b| f(&mut b.lock().expect("trace buffer poisoned")));
}

/// Starts a traced phase from empty buffers.
pub fn start() {
    let _ = take();
    ON.store(true, Ordering::SeqCst);
}

/// Ends the traced phase and returns what it recorded.
pub fn stop() -> Trace {
    ON.store(false, Ordering::SeqCst);
    take()
}

pub fn is_on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Nanoseconds from the trace epoch to `t` (0 for earlier instants).
pub fn ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// The id of request `req`'s own span.
pub fn request_span_id(req: i64) -> u64 {
    REQ_BIT | req as u64
}

fn sampled(req: i64) -> bool {
    req < 0 || (req as u64).is_multiple_of(SAMPLE)
}

/// Keeps one span, unless the phase's cap is reached.
fn record(span: Span) {
    if RECORDED.fetch_add(1, Ordering::Relaxed) >= SPAN_CAP {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    with_buf(|b| b.spans.push(span));
}

/// Records request `req`'s own span, from when it was due (or sent)
/// to when its output arrived, in nanoseconds since the trace epoch.
pub fn record_request(name: &'static str, req: i64, start_ns: u64, end_ns: u64) {
    if sampled(req) {
        record(Span {
            id: request_span_id(req),
            parent: 0,
            req,
            name,
            start_ns,
            end_ns,
        });
    }
}

/// Runs `f` as span `name` and returns `f`'s result and how long it
/// ran. The span's parent is `parent` (request `req`'s span, or 0),
/// else the innermost span open on this thread, whose request it then
/// joins. Records nothing while tracing is off.
pub fn span<R>(name: &'static str, parent: u64, req: i64, f: impl FnOnce() -> R) -> (R, Duration) {
    if !is_on() {
        let start = Instant::now();
        let r = f();
        return (r, start.elapsed());
    }
    let (outer, outer_req, outer_keep) = OPEN.with(|o| o.get());
    let link = if parent != 0 {
        (parent, req, sampled(req))
    } else {
        (outer, outer_req, outer_keep)
    };
    open(name, link, f)
}

/// Runs `f` as span `name` under the given (parent, request, keep).
fn open<R>(name: &'static str, link: (u64, i64, bool), f: impl FnOnce() -> R) -> (R, Duration) {
    let (parent, req, keep) = link;
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let outer = OPEN.with(|o| o.replace((id, req, keep)));
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    OPEN.with(|o| o.set(outer));
    if keep {
        record(Span {
            id,
            parent,
            req,
            name,
            start_ns: ns_of(start),
            end_ns: ns_of(end),
        });
    }
    (r, end - start)
}

/// Wraps a bound box closure so each call counts toward the box's
/// calls, busy time and per-call histogram, and a sample of calls
/// become spans.
pub fn wrap_box(
    name: &'static str,
    f: impl Fn(&Record, &mut Emitter) + Send + Sync + 'static,
) -> impl Fn(&Record, &mut Emitter) + Send + Sync + 'static {
    move |rec, em| {
        if !is_on() {
            return f(rec, em);
        }
        let keep = BOX_CALLS
            .with(|c| c.replace(c.get() + 1))
            .is_multiple_of(SAMPLE);
        let cpu0 = crate::sys::thread_cpu_ns();
        open(name, (0, -1, keep), || f(rec, em));
        let ns = crate::sys::thread_cpu_ns().saturating_sub(cpu0);
        with_buf(|b| {
            let stat = match b.boxes.iter().position(|(n, _)| *n == name) {
                Some(i) => &mut b.boxes[i].1,
                None => {
                    b.boxes.push((
                        name,
                        BoxStat {
                            calls: 0,
                            busy_ns: 0,
                            hist: Histogram::new(),
                        },
                    ));
                    &mut b.boxes.last_mut().expect("just pushed").1
                }
            };
            stat.calls += 1;
            stat.busy_ns += ns;
            stat.hist.record(ns);
        });
    }
}

/// Binds `f` under `name`, wrapped for tracing when `traced`.
pub fn bind(
    b: Bindings,
    name: &'static str,
    f: impl Fn(&Record, &mut Emitter) + Send + Sync + 'static,
    traced: bool,
) -> Bindings {
    if traced {
        b.bind(name, wrap_box(name, f))
    } else {
        b.bind(name, f)
    }
}

/// Runs one with-loop of `elems` elements as span `name`, counting it
/// toward the SAC layer's statistics.
pub fn withloop<R>(name: &'static str, elems: usize, f: impl FnOnce() -> R) -> R {
    let (r, took) = span(name, 0, -1, f);
    if is_on() {
        let par =
            elems >= sacarray::parallel::PAR_THRESHOLD && sacarray::Pool::global().threads() > 1;
        with_buf(|b| {
            b.sac.calls += 1;
            b.sac.par_calls += u64::from(par);
            b.sac.elems += elems as u64;
            b.sac.busy_ns += took.as_nanos() as u64;
        });
    }
    r
}

/// Everything one traced phase recorded.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub dropped: u64,
    pub boxes: BTreeMap<&'static str, BoxStat>,
    pub sac: SacStat,
}

/// Empties every buffer and returns what they held.
fn take() -> Trace {
    let mut t = Trace::default();
    for buf in registry().lock().expect("trace registry poisoned").iter() {
        let mut b = buf.lock().expect("trace buffer poisoned");
        t.spans.append(&mut b.spans);
        for (name, stat) in b.boxes.drain(..) {
            match t.boxes.get_mut(name) {
                Some(acc) => {
                    acc.calls += stat.calls;
                    acc.busy_ns += stat.busy_ns;
                    acc.hist.merge(&stat.hist);
                }
                None => {
                    t.boxes.insert(name, stat);
                }
            }
        }
        t.sac.calls += b.sac.calls;
        t.sac.par_calls += b.sac.par_calls;
        t.sac.elems += b.sac.elems;
        t.sac.busy_ns += b.sac.busy_ns;
        b.sac = SacStat::default();
    }
    t.dropped = DROPPED.swap(0, Ordering::Relaxed);
    RECORDED.store(0, Ordering::Relaxed);
    t.spans.sort_by_key(|s| (s.start_ns, s.id));
    t
}

/// One row of the per-layer table: every span of one name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerRow {
    pub name: &'static str,
    pub spans: u64,
    pub total_ns: u64,
    /// Total minus the part of each span's interval its children
    /// cover (children may overlap; each instant counts once).
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-layer self time: for each span name, the summed duration and
/// the summed duration not covered by the span's children.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let cov = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
        let row = rows.entry(s.name).or_insert(LayerRow {
            name: s.name,
            spans: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.spans += 1;
        row.total_ns += dur;
        row.self_ns += dur - cov.min(dur);
    }
    rows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: -1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp(1, 0, "request", 0, 100),
            // Two overlapping children cover 10..40 once: 30 ns.
            sp(2, 1, "box", 10, 30),
            sp(3, 1, "box", 20, 40),
            // A child reaching past its parent counts only inside it.
            sp(4, 1, "box", 90, 120),
            // A grandchild is subtracted from its own parent only.
            sp(5, 2, "withloop", 12, 18),
        ];
        let rows = layer_table(&spans);
        let row = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(row("request").total_ns, 100);
        assert_eq!(row("request").self_ns, 100 - 30 - 10);
        assert_eq!(row("box").spans, 3);
        assert_eq!(row("box").total_ns, 20 + 20 + 30);
        assert_eq!(row("box").self_ns, (20 - 6) + 20 + 30);
        assert_eq!(row("withloop").self_ns, 6);
    }

    #[test]
    fn nested_spans_link_to_the_open_span_and_requests_by_id() {
        start();
        let sampled = SAMPLE as i64;
        let ((), _) = span("outer", request_span_id(sampled), sampled, || {
            let ((), _) = span("inner", 0, -1, || {});
        });
        // The next request is not sampled: neither it nor its children
        // stay.
        let ((), _) = span(
            "unsampled",
            request_span_id(sampled + 1),
            sampled + 1,
            || {
                let ((), _) = span("unsampled-inner", 0, -1, || {});
            },
        );
        let t = stop();
        let outer = t.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = t.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, request_span_id(sampled));
        assert_eq!((inner.parent, inner.req), (outer.id, sampled));
        assert!(t.spans.iter().all(|s| !s.name.starts_with("unsampled")));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
