//! Per-shard circuit breaker: `Closed → Open → HalfOpen` with seeded
//! probe requests.
//!
//! The serving layer consults the breaker at admission time. While
//! `Closed`, requests flow; repeated request failures (persist-retry
//! exhaustion, deadline blowouts, or an MCE-class poisoned read) trip the
//! breaker to `Open`, which rejects everything for a cooldown so the
//! shard can run recovery without a thundering herd. After the cooldown
//! the breaker admits a bounded number of *probe* requests (`HalfOpen`);
//! all probes succeeding re-closes the breaker, any probe failing
//! re-opens it. All transitions are deterministic functions of the
//! request stream and the virtual clock — identical seeds reproduce
//! identical trip timelines.

use std::fmt;

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests are admitted and failures are counted.
    Closed,
    /// Tripped: all requests are rejected until the cooldown elapses.
    Open,
    /// Probing: a bounded number of requests are admitted; their fate
    /// decides between `Closed` and `Open`.
    HalfOpen,
}

impl BreakerState {
    /// All states, in transition order.
    pub const ALL: [BreakerState; 3] = [
        BreakerState::Closed,
        BreakerState::Open,
        BreakerState::HalfOpen,
    ];

    /// Short stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

strandweaver::trace::json_label!(BreakerState: "breaker state");

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Admission verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Serve the request normally.
    Admit,
    /// Serve the request as a half-open probe; its outcome decides the
    /// breaker's fate.
    Probe,
    /// Reject: the shard is quarantined (degraded mode).
    Reject,
}

/// A per-shard circuit breaker over the serving layer's virtual clock.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    /// Consecutive failures while `Closed`.
    consecutive: u32,
    /// Failures that trip `Closed → Open`.
    trip_threshold: u32,
    /// Cycles `Open` rejects before probing.
    cooldown: u64,
    /// Cycle of the most recent trip.
    opened_at: u64,
    /// Successful probes required to re-close.
    probe_quota: u32,
    /// Successful probes so far this `HalfOpen` episode.
    probes_ok: u32,
    trips: u64,
}

impl CircuitBreaker {
    /// Creates a closed breaker. `trip_threshold` consecutive failures
    /// trip it; it stays open `cooldown` cycles; `probe_quota` successful
    /// probes re-close it.
    pub fn new(trip_threshold: u32, cooldown: u64, probe_quota: u32) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive: 0,
            trip_threshold: trip_threshold.max(1),
            cooldown,
            opened_at: 0,
            probe_quota: probe_quota.max(1),
            probes_ok: 0,
            trips: 0,
        }
    }

    /// Current state (advancing `Open → HalfOpen` is done by
    /// [`admit`](Self::admit), which knows the clock).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Number of `Closed/HalfOpen → Open` transitions so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Admission decision for a request arriving at `now`.
    pub fn admit(&mut self, now: u64) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Admit,
            BreakerState::Open => {
                if now >= self.opened_at.saturating_add(self.cooldown) {
                    self.state = BreakerState::HalfOpen;
                    self.probes_ok = 0;
                    Admission::Probe
                } else {
                    Admission::Reject
                }
            }
            BreakerState::HalfOpen => Admission::Probe,
        }
    }

    /// Records a served request's success.
    pub fn on_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive = 0,
            BreakerState::HalfOpen => {
                self.probes_ok += 1;
                if self.probes_ok >= self.probe_quota {
                    self.state = BreakerState::Closed;
                    self.consecutive = 0;
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Records a served request's failure at `now` (retry exhaustion,
    /// deadline blowout, or poisoned read). May trip the breaker.
    pub fn on_failure(&mut self, now: u64) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive += 1;
                if self.consecutive >= self.trip_threshold {
                    self.trip(now);
                }
            }
            // Any probe failure re-opens immediately.
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Open => {}
        }
    }

    /// Trips straight to `Open` regardless of state (used for MCE-class
    /// events, which quarantine on the first occurrence).
    pub fn trip(&mut self, now: u64) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.consecutive = 0;
        self.probes_ok = 0;
        self.trips += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(3, 100, 2);
        b.on_failure(10);
        b.on_success();
        b.on_failure(20);
        b.on_failure(30);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(40);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn open_rejects_until_cooldown_then_probes() {
        let mut b = CircuitBreaker::new(1, 100, 2);
        b.on_failure(50);
        assert_eq!(b.admit(60), Admission::Reject);
        assert_eq!(b.admit(149), Admission::Reject);
        assert_eq!(b.admit(150), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn probe_quota_recloses_and_probe_failure_reopens() {
        let mut b = CircuitBreaker::new(1, 100, 2);
        b.on_failure(0);
        assert_eq!(b.admit(100), Admission::Probe);
        b.on_success();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);

        b.on_failure(200);
        assert_eq!(b.admit(300), Admission::Probe);
        b.on_failure(301);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 3);
        // The re-open restarts the cooldown from the failure time.
        assert_eq!(b.admit(350), Admission::Reject);
        assert_eq!(b.admit(401), Admission::Probe);
    }

    #[test]
    fn mce_trip_quarantines_from_any_state() {
        let mut b = CircuitBreaker::new(8, 100, 1);
        assert_eq!(b.admit(0), Admission::Admit);
        b.trip(5);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(6), Admission::Reject);
    }
}
