//! In-memory span recorder for the traced pass.
//!
//! Each span carries a name, start and end (relative to the recorder's
//! origin), the index of its enclosing span and a cell id that groups the
//! spans of one experiment cell. Spans are written out once, at exit, as
//! Chrome/Perfetto trace JSON.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use strandweaver::trace::Json;

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `workloads.drive`.
    pub name: &'static str,
    /// Experiment cell the span belongs to.
    pub cell: u32,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin (equal to `start` while open).
    pub end: Duration,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Self time and number of spans of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Summed self time: span durations minus their children's durations.
    pub self_s: f64,
    /// Spans recorded under the name.
    pub calls: u64,
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose origin is now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, cell: u32) -> SpanId {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            cell,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, cell: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, cell);
        let out = f();
        self.close(id);
        out
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and span count per name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let t = out.entry(s.name).or_default();
            t.self_s += s.duration().saturating_sub(c).as_secs_f64();
            t.calls += 1;
        }
        out
    }

    /// Share of `root`'s wall time covered by the self time of every
    /// other span.
    pub fn covered_share(&self, root: &'static str) -> f64 {
        let times = self.layer_times();
        let wall: f64 = self
            .spans
            .iter()
            .filter(|s| s.name == root)
            .map(|s| s.duration().as_secs_f64())
            .sum();
        let uncovered = times.get(root).map_or(0.0, |t| t.self_s);
        if wall == 0.0 {
            0.0
        } else {
            1.0 - uncovered / wall
        }
    }

    /// Chrome/Perfetto trace JSON: one complete (`"ph":"X"`) event per
    /// span, timestamps in microseconds.
    pub fn chrome_json(&self) -> Json {
        let us = |d: Duration| Json::F64(d.as_nanos() as f64 / 1000.0);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("id".to_string(), Json::U64(i as u64)),
                    ("cell".to_string(), Json::U64(u64::from(s.cell))),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Json::U64(p as u64)));
                }
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("cat", Json::Str("layer".to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", us(s.start)),
                    ("dur", us(s.duration())),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(1)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_coverage_counts_the_rest() {
        let mut tr = Tracer::new();
        let root = tr.open("pass", 0);
        let outer = tr.open("outer", 1);
        tr.span("inner", 1, || spin(Duration::from_millis(20)));
        spin(Duration::from_millis(10));
        tr.close(outer);
        spin(Duration::from_millis(5));
        tr.close(root);

        let t = tr.layer_times();
        assert_eq!(t["inner"].calls, 1);
        assert!(t["inner"].self_s >= 0.020);
        assert!(t["outer"].self_s >= 0.010 && t["outer"].self_s < 0.020);
        assert!(t["pass"].self_s >= 0.005 && t["pass"].self_s < 0.010);
        let covered = tr.covered_share("pass");
        assert!(covered > 0.7 && covered < 0.9, "{covered}");
        assert_eq!(tr.spans()[2].parent, Some(1));
    }

    #[test]
    fn chrome_export_round_trips_through_the_parser() {
        let mut tr = Tracer::new();
        let root = tr.open("pass", 0);
        tr.span("leaf", 7, || ());
        tr.close(root);
        let text = tr.chrome_json().render();
        let parsed = strandweaver::trace::json::parse(&text).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 2);
        let leaf = &events[1];
        assert_eq!(leaf.get("name").and_then(Json::as_str), Some("leaf"));
        let args = leaf.get("args").expect("args");
        assert_eq!(args.get("cell").and_then(Json::as_u64), Some(7));
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut tr = Tracer::new();
        let a = tr.open("a", 0);
        let _b = tr.open("b", 0);
        tr.close(a);
    }
}
