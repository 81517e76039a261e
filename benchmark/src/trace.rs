//! The benchmark's own span recorder. It wraps the calls `layers.rs`
//! makes into the product, from outside: spans inside the product are a
//! later change. Spans stay in memory (one recorder per thread) and are
//! written out when the traced phase ends.

use crate::clock;
use crate::layers::Json;
use std::cell::RefCell;
use std::time::Instant;

/// One timed interval. `parent` is `None` only for an op root.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread; span times count from `epoch`.
pub fn enable(epoch: Instant) {
    RECORDER
        .with(|r| *r.borrow_mut() = Some(Recorder { epoch, spans: Vec::new(), open: Vec::new() }));
}

/// Stops recording on this thread and hands back what was recorded.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take()).map_or_else(Vec::new, |r| r.spans)
}

fn open(name: &'static str, op: Option<u64>) -> Option<usize> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let parent = rec.open.last().copied();
        let op = match (op, parent) {
            (Some(op), _) => op,
            (None, Some(p)) => rec.spans[p].op,
            // A layer call outside any op (set-up) is not part of a trace.
            (None, None) => return None,
        };
        let now = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span { name, op, parent, start_ns: now, end_ns: now });
        rec.open.push(rec.spans.len() - 1);
        Some(rec.spans.len() - 1)
    })
}

fn close(idx: Option<usize>) {
    let Some(idx) = idx else { return };
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.spans[idx].end_ns = rec.epoch.elapsed().as_nanos() as u64;
            rec.open.pop();
        }
    });
}

/// Runs `f` as a child span of whatever span is open on this thread.
/// Costs one thread-local read when nothing is being recorded.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = open(name, None);
    let out = f();
    close(idx);
    out
}

/// Runs one op (or one ladder pass) and returns its result with its
/// latency in reference-clock nanoseconds (see `clock.rs`). The latency
/// is always taken; a root span is kept as well while this thread
/// records. Span times in the file are plain wall-clock offsets.
pub fn op<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, u64) {
    // The stopwatch runs around the recorder too, so that what
    // recording costs shows in the traced phase's latencies.
    let stopwatch = clock::start();
    let idx = open(name, Some(op));
    let out = f();
    close(idx);
    (out, stopwatch.stop())
}

/// Roots of one name (and their descendants) written per thread. Ops
/// of one workload are alike, and everything stays in memory anyway;
/// this only keeps the file small enough to commit.
const WRITTEN_PER_NAME: usize = 32;

/// The span file: one array, spans of all threads, `parent` an index
/// into the same array or `null` for an op root.
pub fn to_json(threads: Vec<Vec<Span>>) -> Json {
    let mut out = Vec::new();
    for (thread, spans) in threads.into_iter().enumerate() {
        let mut roots_written = std::collections::HashMap::new();
        // Where each kept span of this thread landed in `out`.
        let mut written: Vec<Option<usize>> = Vec::with_capacity(spans.len());
        for s in spans {
            let keep = match s.parent {
                Some(p) => written[p].is_some(),
                None => {
                    let n = roots_written.entry(s.name).or_insert(0);
                    *n += 1;
                    *n <= WRITTEN_PER_NAME
                }
            };
            written.push(keep.then_some(out.len()));
            if !keep {
                continue;
            }
            let parent = s.parent.and_then(|p| written[p]);
            out.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("thread".into(), Json::U64(thread as u64)),
                ("op".into(), Json::U64(s.op)),
                ("parent".into(), parent.map_or(Json::Null, |p| Json::U64(p as u64))),
                ("start_ns".into(), Json::U64(s.start_ns)),
                ("end_ns".into(), Json::U64(s.end_ns)),
            ]));
        }
    }
    Json::Arr(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_their_op_and_stray_spans_are_dropped() {
        span("outside", || ());
        enable(Instant::now());
        span("stray", || ());
        let ((), ns) = op("root", 7, || span("child", || span("grandchild", || ())));
        let spans = take();
        assert!(ns > 0);
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.op, s.parent)).collect();
        assert_eq!(shape, [("root", 7, None), ("child", 7, Some(0)), ("grandchild", 7, Some(1))]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(take().is_empty());
    }

    #[test]
    fn the_file_keeps_whole_ops_and_caps_them_per_name() {
        enable(Instant::now());
        for i in 0..WRITTEN_PER_NAME as u64 + 5 {
            op("many", i, || span("child", || ()));
        }
        op("few", 0, || ());
        let file = to_json(vec![take(), Vec::new()]);
        let spans = file.as_arr().unwrap();
        assert_eq!(spans.len(), 2 * WRITTEN_PER_NAME + 1);
        for (i, s) in spans.iter().enumerate() {
            match s.get("parent").unwrap() {
                Json::Null => assert_ne!(s.get("name").unwrap().as_str(), Some("child")),
                p => assert_eq!(p.as_u64(), Some(i as u64 - 1)),
            }
        }
    }
}
