//! Serving reports: per-(design × lang) SLO accounting with render and
//! one JSON record declaration per report for export and the strict
//! round-trip parser.

use strandweaver::trace::json::{self, Json, ToJson};
use strandweaver::{BenchmarkId, HwDesign, LangModel};

use crate::breaker::BreakerState;
use crate::{ArrivalKind, ServeConfig, ShedPolicy};

/// One shard's serving record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Breaker state at end of run (failed-over shards report `open`).
    pub state: BreakerState,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests rejected with explicit `Unavailable` (degraded mode).
    pub unavailable: u64,
    /// Breaker trips.
    pub trips: u64,
    /// Permanently failed over (spare-pool exhaustion).
    pub failed_over: bool,
    /// Crash/recover legs this shard's quarantines ran.
    pub recovered: u64,
}

/// One serving cell: a (design × lang) pair at one offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCellReport {
    /// Hardware design.
    pub design: HwDesign,
    /// Language model.
    pub lang: LangModel,
    /// Offered load as a fraction of calibrated capacity.
    pub offered_load: f64,
    /// Calibrated per-request service time in cycles.
    pub service_cycles: u64,
    /// Requests offered by the open-loop generator.
    pub offered: u64,
    /// Goodput: requests completed within deadline.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests that blew their deadline (includes quarantine losses).
    pub timeouts: u64,
    /// Requests rejected with explicit `Unavailable`.
    pub unavailable: u64,
    /// Requests that exhausted their device retry budget.
    pub failed: u64,
    /// Device-level persist retries across all requests.
    pub retries: u64,
    /// Poisoned (MCE-class) reads consumed.
    pub poisoned_reads: u64,
    /// Breaker trips across all shards.
    pub breaker_trips: u64,
    /// Shards failed over on spare-pool exhaustion.
    pub failovers: u64,
    /// Requests re-routed off failed-over shards.
    pub failover_redirects: u64,
    /// Mid-serve crash/recover legs run.
    pub recovery_legs: u64,
    /// Durable-set equality checks passed.
    pub durable_set_checks: u64,
    /// PMO linear-extension edges verified.
    pub pmo_edges_checked: u64,
    /// Interrupted-Strict reconvergence checks passed.
    pub reconverged_strict: u64,
    /// Poisoned-log Salvage reconvergence checks passed.
    pub reconverged_salvage: u64,
    /// Invariant violations (always 0 on a successful run; failures
    /// return `Err` with a reproducer instead).
    pub silent_corruptions: u64,
    /// Median completion latency in cycles.
    pub p50: u64,
    /// 99th-percentile completion latency in cycles.
    pub p99: u64,
    /// 99.9th-percentile completion latency in cycles.
    pub p999: u64,
    /// Worst completion latency in cycles.
    pub max_latency: u64,
    /// Power-of-two latency histogram buckets (bucket `i` covers
    /// `[2^i, 2^(i+1))`; see `HistogramSnapshot`).
    pub latency_buckets: Vec<u64>,
    /// Completions the latency histogram counted.
    pub latency_count: u64,
    /// Sum of completion latencies in cycles.
    pub latency_sum: u64,
    /// Per-shard records.
    pub shards: Vec<ShardReport>,
    /// Discrete events the calibration simulation processed.
    pub events_processed: u64,
    /// Simulated cycles of the calibration run.
    pub sim_cycles: u64,
}

/// A full serving report: config echo plus one or more cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Benchmark served per request.
    pub bench: BenchmarkId,
    /// Seed pinning the run.
    pub seed: u64,
    /// Shard count.
    pub shards: usize,
    /// Requests offered per cell.
    pub requests: u64,
    /// Admission queue bound per shard.
    pub queue_depth: usize,
    /// Deadline as a multiple of service time.
    pub deadline_factor: u64,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Shed policy.
    pub shed_policy: ShedPolicy,
    /// Whether the chaos-under-load schedules were injected.
    pub faults: bool,
    /// The cells, in run order.
    pub cells: Vec<ServeCellReport>,
}

impl ServeReport {
    /// Wraps finished `cells` with `cfg`'s echo.
    pub fn new(cfg: &ServeConfig, cells: Vec<ServeCellReport>) -> Self {
        ServeReport {
            bench: cfg.bench,
            seed: cfg.seed,
            shards: cfg.shards,
            requests: cfg.requests,
            queue_depth: cfg.queue_depth,
            deadline_factor: cfg.deadline_factor,
            arrival: cfg.arrival,
            shed_policy: cfg.shed,
            faults: cfg.faults,
            cells,
        }
    }

    /// Total breaker trips across cells.
    pub fn breaker_trips(&self) -> u64 {
        self.cells.iter().map(|c| c.breaker_trips).sum()
    }

    /// Total failovers across cells.
    pub fn failovers(&self) -> u64 {
        self.cells.iter().map(|c| c.failovers).sum()
    }

    /// Total invariant violations across cells (0 on success).
    pub fn silent_corruptions(&self) -> u64 {
        self.cells.iter().map(|c| c.silent_corruptions).sum()
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve: bench {} | {} arrivals, {} shed | {} shards x depth {} | {} reqs/cell | seed {}\n",
            self.bench, self.arrival, self.shed_policy, self.shards, self.queue_depth,
            self.requests, self.seed,
        ));
        out.push_str(&format!(
            "{:<14} {:<7} {:>5} {:>8} {:>8} {:>6} {:>6} {:>7} {:>8} {:>8} {:>8} {:>6} {:>5}\n",
            "design",
            "lang",
            "load",
            "goodput",
            "shed",
            "t/o",
            "unavl",
            "trips",
            "p50",
            "p99",
            "p999",
            "fails",
            "legs",
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<14} {:<7} {:>5.2} {:>8} {:>8} {:>6} {:>6} {:>7} {:>8} {:>8} {:>8} {:>6} {:>5}\n",
                c.design.label(),
                c.lang.label(),
                c.offered_load,
                c.completed,
                c.shed,
                c.timeouts,
                c.unavailable,
                c.breaker_trips,
                c.p50,
                c.p99,
                c.p999,
                c.failovers,
                c.recovery_legs,
            ));
        }
        out.push_str(&format!(
            "totals: trips {} | failovers {} | silent corruptions {}\n",
            self.breaker_trips(),
            self.failovers(),
            self.silent_corruptions(),
        ));
        out
    }

    /// Machine-readable JSON document.
    pub fn to_json(&self) -> Json {
        ToJson::to_json(self)
    }

    /// Parses a JSON document produced by [`to_json`](Self::to_json).
    ///
    /// Strict: every field must be present and typed; re-rendering the
    /// parsed report must reproduce the document byte for byte (the CI
    /// round-trip check).
    ///
    /// # Errors
    ///
    /// A description of the first malformed or missing field.
    pub fn parse(text: &str) -> Result<Self, String> {
        json::from_str(text).map_err(|e| format!("serve report JSON: {e}"))
    }
}

strandweaver::trace::json_record!(ToJson + FromJson for ServeReport {
    bench,
    seed,
    shards,
    requests,
    queue_depth,
    deadline_factor,
    arrival,
    shed_policy,
    faults,
    breaker_trips => ServeReport::breaker_trips,
    failovers => ServeReport::failovers,
    silent_corruptions => ServeReport::silent_corruptions,
    cells,
});

strandweaver::trace::json_record!(ToJson + FromJson for ServeCellReport {
    design,
    lang,
    offered_load,
    service_cycles,
    offered,
    completed,
    shed,
    timeouts,
    unavailable,
    failed,
    retries,
    poisoned_reads,
    breaker_trips,
    failovers,
    failover_redirects,
    recovery_legs,
    durable_set_checks,
    pmo_edges_checked,
    reconverged_strict,
    reconverged_salvage,
    silent_corruptions,
    p50,
    p99,
    p999,
    max_latency,
    latency_buckets,
    latency_count,
    latency_sum,
    shards,
    events_processed,
    sim_cycles,
});

strandweaver::trace::json_record!(ToJson + FromJson for ShardReport {
    shard,
    state,
    served,
    shed,
    unavailable,
    trips,
    failed_over,
    recovered,
});
