//! A lightweight metrics registry: counters, gauges, and power-of-two
//! bucket histograms.
//!
//! Metrics are registered once (returning a cheap index-based ID) and
//! updated on the hot path with a single bounds-checked vector access —
//! no string hashing per update. A [`MetricsSnapshot`] freezes the values
//! for inclusion in `SimStats` and JSON export.

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Counter {
    name: String,
    value: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Gauge {
    name: String,
    last: u64,
    max: u64,
}

/// Histogram over `u64` samples with power-of-two buckets: bucket `i`
/// counts samples in `[2^i, 2^(i+1))` (bucket 0 also counts zeros), and
/// the top bucket is open-ended, `[2^15, ∞)`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Histogram {
    name: String,
    buckets: [u64; 16],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    fn observe(&mut self, sample: u64) {
        let idx = sample.checked_ilog2().unwrap_or(0) as usize;
        self.buckets[idx.min(15)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
        self.max = self.max.max(sample);
    }
}

/// Registry of named metrics with index-based hot-path access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) a counter named `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|c| c.name == name) {
            return CounterId(i);
        }
        self.counters.push(Counter {
            name: name.to_string(),
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a gauge named `name`.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|g| g.name == name) {
            return GaugeId(i);
        }
        self.gauges.push(Gauge {
            name: name.to_string(),
            last: 0,
            max: 0,
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or finds) a histogram named `name`.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|h| h.name == name) {
            return HistogramId(i);
        }
        self.histograms.push(Histogram {
            name: name.to_string(),
            buckets: [0; 16],
            count: 0,
            sum: 0,
            max: 0,
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].value += n;
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Sets a gauge's current value (also tracks the high-water mark).
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: u64) {
        let g = &mut self.gauges[id.0];
        g.last = value;
        g.max = g.max.max(value);
    }

    /// Records one histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, sample: u64) {
        self.histograms[id.0].observe(sample);
    }

    /// Freezes the current values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|c| (c.name.clone(), c.value))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|g| GaugeSnapshot {
                    name: g.name.clone(),
                    last: g.last,
                    max: g.max,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|h| HistogramSnapshot {
                    name: h.name.clone(),
                    buckets: h.buckets.to_vec(),
                    count: h.count,
                    sum: h.sum,
                    max: h.max,
                })
                .collect(),
        }
    }
}

/// Frozen gauge value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Last value set.
    pub last: u64,
    /// High-water mark over the run.
    pub max: u64,
}

/// Frozen histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Power-of-two bucket counts (bucket `i` covers `[2^i, 2^(i+1))`,
    /// except bucket 0 which covers `{0, 1}`; the top bucket is open).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples (saturating).
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`, estimated from the power-of-two
    /// buckets: the upper edge of the bucket holding the `q`-th sample,
    /// capped at [`max`](Self::max); the open-ended top bucket reads `max`.
    /// Rounding up to the bucket edge makes tail quantiles (p99, p999)
    /// conservative — the estimate never under-reports latency. Returns 0
    /// when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = match i {
                    0 => 1,
                    _ if i + 1 == self.buckets.len() => self.max,
                    _ => (1u64 << (i + 1)) - 1,
                };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

/// A frozen view of a [`MetricsRegistry`], suitable for embedding in run
/// statistics (derives `Eq` so containing stats types can too).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter `(name, value)` pairs, in registration order.
    pub counters: Vec<(String, u64)>,
    /// Gauges, in registration order.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histograms, in registration order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

// Gauges and histograms are keyed by name, so their records leave it out.
crate::json_record!(ToJson for GaugeSnapshot { last, max });
crate::json_record!(ToJson for HistogramSnapshot {
    count,
    sum,
    max,
    mean => HistogramSnapshot::mean,
    buckets,
});
crate::json_record!(ToJson for MetricsSnapshot {
    counters,
    gauges => |m| m.gauges.iter().map(|g| (&g.name, g)).collect::<Vec<_>>(),
    histograms => |m| m.histograms.iter().map(|h| (&h.name, h)).collect::<Vec<_>>(),
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{Json, ToJson};

    #[test]
    fn counter_accumulates() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("sim.pq.enqueues");
        reg.inc(c);
        reg.add(c, 4);
        assert_eq!(reg.snapshot().counter("sim.pq.enqueues"), Some(5));
    }

    #[test]
    fn quantile_reads_bucket_upper_edges() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        // 90 fast samples in [2, 4), 9 in [64, 128), one slow outlier.
        for _ in 0..90 {
            reg.observe(h, 3);
        }
        for _ in 0..9 {
            reg.observe(h, 100);
        }
        reg.observe(h, 5000);
        let snap = reg.snapshot();
        let lat = snap.histogram("lat").expect("registered");
        assert_eq!(lat.quantile(0.5), 3); // bucket [2,4) upper edge
        assert_eq!(lat.quantile(0.99), 127); // bucket [64,128) upper edge
        assert_eq!(lat.quantile(0.999), 5000); // capped at max
        assert_eq!(lat.quantile(1.0), 5000);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    /// Bucket 15 is the open-ended `[2^15, ∞)` bucket: samples from 2^15
    /// up land there (not in bucket 14, which ends at 2^15 - 1), and a
    /// quantile that falls in it reads the observed maximum.
    #[test]
    fn top_bucket_is_open_ended_and_reads_max() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for s in [16_384u64, 32_767, 32_768, 49_068, 1 << 40] {
            reg.observe(h, s);
        }
        let snap = reg.snapshot();
        let lat = snap.histogram("lat").expect("registered");
        assert_eq!(lat.buckets[14], 2, "[2^14, 2^15)");
        assert_eq!(lat.buckets[15], 3, "[2^15, inf)");
        assert_eq!(lat.quantile(0.4), 32_767); // bucket 14's upper edge
        assert_eq!(lat.quantile(0.6), 1 << 40); // open bucket: max
        assert_eq!(lat.quantile(1.0), 1 << 40);
    }

    #[test]
    fn registering_same_name_returns_same_id() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        assert_eq!(a, b);
        reg.inc(a);
        reg.inc(b);
        assert_eq!(reg.snapshot().counter("x"), Some(2));
    }

    #[test]
    fn gauge_tracks_high_water() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("sim.pq.depth");
        reg.set(g, 3);
        reg.set(g, 9);
        reg.set(g, 2);
        let snap = reg.snapshot();
        let g = snap.gauge("sim.pq.depth").unwrap();
        assert_eq!(g.last, 2);
        assert_eq!(g.max, 9);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("sim.sb.occupancy");
        for s in [0u64, 1, 2, 3, 4, 100] {
            reg.observe(h, s);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("sim.sb.occupancy").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 110);
        assert_eq!(h.max, 100);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 2); // 2 and 3
        assert_eq!(h.buckets[2], 1); // 4
        assert_eq!(h.buckets.iter().sum::<u64>(), 6);
        assert!((h.mean() - 110.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_json_is_parseable() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("a.count");
        let g = reg.gauge("b.depth");
        let h = reg.histogram("c.hist");
        reg.add(c, 7);
        reg.set(g, 4);
        reg.observe(h, 8);
        let text = reg.snapshot().to_json().render();
        let doc = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("a.count"))
                .and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(
            doc.get("gauges")
                .and_then(|g| g.get("b.depth"))
                .and_then(|g| g.get("max"))
                .and_then(Json::as_u64),
            Some(4)
        );
    }
}
