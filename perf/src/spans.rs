//! Spans recorded by the benchmark's own code around public calls into a
//! layer.
//!
//! A span is a name, a start, an end, the span that caused it, and the
//! workload repetition it belongs to. Spans stay in memory during the run
//! and are written once at exit as a Chrome trace-event document, which
//! opens in Perfetto beside the runtime's own trace exports. A layer's
//! **self time** is its span's duration minus the part of that interval
//! its child spans cover — how `core.driver_self_s` falls out of a build
//! span whose children are the jobs the build ran.
//!
//! No product source records these: spans *inside* `runtime` and `serve`
//! are a later change.

use std::borrow::Cow;
use std::time::Instant;

use crate::json::{self, Value};

/// One recorded interval, in microseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.dgreedy_abs` or `client.request`.
    pub name: Cow<'static, str>,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch.
    pub end_us: f64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Repetition (build rep, segment, tick) the span belongs to.
    pub rep: u32,
    /// Display track (0 = the driving thread; clients and the writer get
    /// their own).
    pub track: u32,
}

impl Span {
    /// End minus start, µs.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span log. Disabled recorders drop everything, so call
/// sites need no `if traced` of their own.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    track: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts at `epoch`. Recorders that will be
    /// merged must share one epoch.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Recorder {
            epoch,
            enabled,
            track: 0,
            spans: Vec::new(),
        }
    }

    /// A recorder on the same clock for another thread; merge it back
    /// with [`absorb`](Self::absorb).
    pub fn for_track(&self, track: u32) -> Recorder {
        Recorder {
            epoch: self.epoch,
            enabled: self.enabled,
            track,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records `[start, end]` and returns its index (`None` when
    /// disabled).
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        rep: u32,
    ) -> Option<usize> {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.record_us(name, start_us, end_us, parent, rep)
    }

    /// [`record`](Self::record) with explicit µs offsets — for child spans
    /// synthesised from durations the product reports (a build's jobs tile
    /// its span back to back from the span's start).
    pub fn record_us(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        rep: u32,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
            rep,
            track: self.track,
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rep: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, start, Instant::now(), parent, rep);
        r
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of span `idx`, µs: its duration minus the union of its
    /// direct children's intervals, each clipped to the span. Overlapping
    /// children are counted once; nested grandchildren do not matter
    /// (their parent already covers them).
    pub fn self_time_us(&self, idx: usize) -> f64 {
        let span = &self.spans[idx];
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_by(|a, b| a.partial_cmp(b).expect("finite span"));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (a, b) in kids {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        span.duration_us() - covered
    }

    /// The spans as a Chrome trace-event document (`ph: "X"` complete
    /// events on one process, one thread per track).
    pub fn to_chrome(&self, workload: &str) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("workload", json::string(workload)),
                    ("rep", json::num(f64::from(s.rep))),
                    ("id", json::num(i as f64)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent", json::num(p as f64)));
                }
                json::obj([
                    ("name", json::string(&*s.name)),
                    ("cat", json::string(s.name.split('.').next().unwrap_or(""))),
                    ("ph", json::string("X")),
                    ("ts", json::num(s.start_us)),
                    ("dur", json::num(s.duration_us())),
                    ("pid", json::num(1.0)),
                    ("tid", json::num(f64::from(s.track))),
                    ("args", json::obj(args)),
                ])
            })
            .collect();
        json::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", json::string("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Recorder {
        Recorder::new(Instant::now(), true)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = rec();
        let root = r.record_us("core.build", 0.0, 100.0, None, 0).unwrap();
        // Two overlapping children cover [10, 40]; one disjoint covers
        // [60, 70]; one sticks out past the parent and is clipped to
        // [90, 100]; one lies wholly outside and covers nothing.
        r.record_us("runtime.job", 10.0, 30.0, Some(root), 0);
        let mid = r
            .record_us("runtime.job", 20.0, 40.0, Some(root), 0)
            .unwrap();
        r.record_us("runtime.job", 60.0, 70.0, Some(root), 0);
        r.record_us("runtime.job", 90.0, 130.0, Some(root), 0);
        r.record_us("runtime.job", 200.0, 300.0, Some(root), 0);
        // A grandchild inside `mid` must not be subtracted twice.
        r.record_us("runtime.map", 22.0, 38.0, Some(mid), 0);
        assert_eq!(r.self_time_us(root), 100.0 - 30.0 - 10.0 - 10.0);
        assert_eq!(r.self_time_us(mid), 20.0 - 16.0);
        // A leaf's self time is its duration.
        assert_eq!(r.self_time_us(1), 20.0);
    }

    #[test]
    fn children_fully_nested_in_a_sibling_add_nothing() {
        let mut r = rec();
        let root = r.record_us("a", 0.0, 50.0, None, 0).unwrap();
        r.record_us("b", 5.0, 45.0, Some(root), 0);
        r.record_us("c", 10.0, 20.0, Some(root), 0);
        assert_eq!(r.self_time_us(root), 10.0);
    }

    #[test]
    fn disabled_recorders_keep_nothing() {
        let mut r = Recorder::new(Instant::now(), false);
        assert_eq!(r.record_us("a", 0.0, 1.0, None, 0), None);
        assert_eq!(r.time("b", None, 0, || 7), 7);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents_and_chrome_export_parses() {
        let mut main = rec();
        main.record_us("core.build", 0.0, 10.0, None, 1);
        let mut client = main.for_track(3);
        let seg = client
            .record_us("client.segment", 0.0, 9.0, None, 2)
            .unwrap();
        client.record_us("client.request", 1.0, 2.0, Some(seg), 2);
        main.absorb(client);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[2].track, 3);

        let doc = main.to_chrome("serve-point");
        let text = json::write(&doc);
        let back = json::parse(&text).expect("chrome export parses");
        assert_eq!(back, doc);
        let events = back.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }
}
