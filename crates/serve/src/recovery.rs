//! Mid-serve crash/recover legs, held to the chaos-campaign bar.
//!
//! Whenever the serving engine quarantines a shard (breaker trip or
//! spare-pool failover), this module runs the *real* model machinery
//! while the surviving shards keep serving:
//!
//! 1. **Durable-set equality + PMO linear extension** — a single-threaded
//!    probe of the cell's `(design, lang, strategy)` replays under a
//!    seeded random online fault schedule; the durable line set must equal
//!    the fault-free run's and the acceptance order must remain a linear
//!    extension of the formal persist memory order.
//! 2. **Crash × recovery reconvergence** — a formally-sampled crash image
//!    of the multi-threaded driven run must reconverge under interrupted
//!    `Strict` recovery, and a copy with a freshly poisoned log line must
//!    reconverge under `Salvage` — the quarantined shard's recovery path.
//!
//! Both are the chaos campaign's own legs ([`ProbeOracle`] and
//! [`crash_reconverges`]), run here with serve's seeds. Any violation
//! surfaces with a copy-pasteable `swctl serve` reproducer embedded.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use strandweaver::campaign::{crash_reconverges, ProbeOracle, ROUND_SEED_MUL};
use strandweaver::experiment::Experiment;
use strandweaver::workloads::driver::{drive, DriverOutput};

use crate::ServeConfig;

/// Aggregated results of the legs a serving cell ran. Every completed
/// leg passed one durable-set check and both reconvergence checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LegStats {
    /// Legs completed.
    pub legs: u64,
    /// PMO order edges verified across all legs.
    pub pmo_edges: u64,
}

/// Per-cell context for the legs: the probe oracle and a driven
/// multi-threaded run to crash.
#[derive(Debug)]
pub(crate) struct RecoveryContext {
    cfg: ServeConfig,
    exp: Experiment,
    probe: ProbeOracle,
    out: DriverOutput,
    rng: SmallRng,
    pub stats: LegStats,
}

impl RecoveryContext {
    /// Builds the probe oracle and the driven run for `cfg`'s cell, `exp`.
    pub fn new(cfg: &ServeConfig, exp: &Experiment) -> Self {
        let out = drive(cfg.bench.instantiate().as_mut(), &exp.driver_params());
        RecoveryContext {
            cfg: cfg.clone(),
            exp: exp.clone(),
            probe: ProbeOracle::new(exp),
            out,
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x5e12_7e5e_12c0_4e12),
            stats: LegStats::default(),
        }
    }

    /// Runs one mid-serve crash/recover leg for a quarantined `shard`.
    ///
    /// # Errors
    ///
    /// The first violated invariant, with the cell's reproducer embedded.
    pub fn leg(&mut self, shard: usize) -> Result<(), String> {
        let leg = self.stats.legs;
        let fail = |detail: String| {
            format!(
                "serve recovery leg {leg} (shard {shard}): {detail}\n  seed {}: reproduce \
                 with `{}`",
                self.cfg.seed,
                self.cfg.repro_cmd()
            )
        };
        let leg_seed = self.cfg.seed.wrapping_add(leg.wrapping_mul(ROUND_SEED_MUL)) ^ 0x5e12_0000;
        let verdict = self.probe.check(leg_seed).map_err(fail)?;
        crash_reconverges(&self.exp, &self.out, &mut self.rng).map_err(fail)?;
        self.stats.pmo_edges += verdict.pmo_edges as u64;
        self.stats.legs += 1;
        Ok(())
    }
}
