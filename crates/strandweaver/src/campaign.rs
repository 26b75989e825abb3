//! The campaign engine: the crash, fault, heap and chaos campaigns are each
//! a short composition of shared legs over one campaign core.
//!
//! The core drives the cell once (through [`Experiment::driver_params`]),
//! owns the campaign's RNG (the cell's seed XOR the campaign's salt), runs
//! the round loop, attaches a copy-pasteable `swctl` reproducer to every
//! failure, and holds the trace sink. The legs, each written once:
//!
//! * the **model contract** — all-or-nothing region replay plus the
//!   workload's structural invariants for the logged models, store-order
//!   prefix durability for the log-free one;
//! * one **fault-injection round**, over a log-slot or heap-journal
//!   site;
//! * **strict and salvage reconvergence** ([`crash_reconverges`]);
//! * the **probe oracle** ([`ProbeOracle`]): online faults against the
//!   formal PMO;
//! * **remap prefix**, **spare exhaustion**, the **heap sweep** and the
//!   **MCE** leg.
//!
//! `sw-serve`'s mid-serve recovery legs call [`ProbeOracle`] and
//! [`crash_reconverges`] with their own seeds.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sw_faults::{
    DeviceFault, DeviceFaultClass, DeviceFaultSchedule, DeviceFaultUnit, FaultClass, FaultInjector,
    FaultPlan, FaultTrigger, OnlineFaultStats, WriteDecision,
};
use sw_lang::harness::{
    check_prefix_consistency, check_replay_consistency, check_salvage_consistency,
    crash_and_recover, crash_image, recovery_reconverges, CrashOutcome,
};
use sw_lang::recovery::{
    recover_with_policy, recover_with_policy_traced, PolicyOutcome, RecoveryFault, RecoveryPolicy,
};
use sw_lang::{
    Consistency, FuncCtx, HwDesign, LogStrategy, RuntimeConfig, SlotState, ThreadRuntime,
};
use sw_model::isa::{IsaTrace, LockId};
use sw_model::{Pmo, StoreId};
use sw_pmem::{BlockKind, HeapSlotState, LineAddr, PmImage, PmLayout, RemapTable};
use sw_sim::{Machine, SimConfig, SimStats};
use sw_trace::{MetricsRegistry, NullSink, TraceSink};
use sw_workloads::driver::{drive, DriverOutput};
use sw_workloads::Workload;

use crate::experiment::{
    ChaosCampaignReport, ClassTally, Experiment, FaultCampaignReport, HeapSmokeReport,
};

/// Odd multiplier decorrelating per-round seeds (2^64 / golden ratio).
pub const ROUND_SEED_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// The five campaigns. Each names its RNG salt and the `swctl` command
/// that replays it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Crash,
    Faults,
    HeapFaults,
    HeapSmoke,
    Chaos,
}

impl Kind {
    /// The RNG salt, and the `swctl` subcommand and switch selecting this
    /// campaign.
    fn spec(self) -> (u64, &'static str, &'static str) {
        match self {
            Kind::Crash => (0xc0ffee, "crash", ""),
            Kind::Faults => (0xfa017, "faults", ""),
            Kind::HeapFaults => (0x4ea9, "faults", " --heap"),
            Kind::HeapSmoke => (0x4eaf, "heap", " --verify"),
            Kind::Chaos => (0xc4a0_5eed, "chaos", ""),
        }
    }
}

/// One campaign in flight: the driven cell, the campaign's RNG, its trace
/// sink and its failure formatter.
struct Campaign<'e> {
    exp: &'e Experiment,
    kind: Kind,
    rounds: usize,
    workload: Box<dyn Workload>,
    out: DriverOutput,
    rng: SmallRng,
    /// The experiment's recorder, or a sink that drops every event.
    sink: Box<dyn TraceSink>,
}

impl<'e> Campaign<'e> {
    /// Drives `exp`'s cell (its churn variant for the heap smoke) and seeds
    /// the campaign's RNG.
    fn start(exp: &'e Experiment, kind: Kind, rounds: usize) -> Result<Self, String> {
        let mut workload = match kind {
            Kind::HeapSmoke => exp.churn_workload()?,
            _ => exp.bench.instantiate(),
        };
        let out = drive(workload.as_mut(), &exp.driver_params());
        let sink: Box<dyn TraceSink> = match &exp.trace {
            Some(rec) => Box::new(rec.clone()),
            None => Box::new(NullSink),
        };
        Ok(Self {
            exp,
            kind,
            rounds,
            workload,
            out,
            rng: SmallRng::seed_from_u64(exp.seed ^ kind.spec().0),
            sink,
        })
    }

    /// Runs `leg` once per round; the first failing round is reported with
    /// the campaign's reproducer attached.
    fn each_round(
        &mut self,
        mut leg: impl FnMut(&mut Self, usize) -> Result<(), String>,
    ) -> Result<(), String> {
        for round in 0..self.rounds {
            leg(self, round).map_err(|e| self.fail(round, e))?;
        }
        Ok(())
    }

    fn fail(&self, round: usize, detail: String) -> String {
        self.exp
            .campaign_failure(self.kind, self.rounds, round, detail)
    }

    /// The model's consistency contract on a recovered crash image. The
    /// replay check needs globally consistent commit cuts, which eager TXN
    /// commits and the coordinated batched commits both provide; the
    /// log-free model's crash states legitimately expose mid-region data,
    /// so it is held to store-order prefix durability instead.
    fn check_contract(&self, outcome: &CrashOutcome) -> Result<(), String> {
        let (baseline, regions) = (&self.out.baseline, &self.out.regions);
        match self.exp.lang.consistency() {
            Consistency::ReplayCommitted => {
                check_replay_consistency(outcome, baseline, regions)?;
                self.workload
                    .check(&outcome.image)
                    .map_err(|e| format!("structural check: {e}"))
            }
            Consistency::DurablePrefix => check_prefix_consistency(outcome, baseline, regions),
        }
    }

    /// One fault-injection round at `site` (the contract is spelled out on
    /// [`Experiment::run_fault_campaign`] and
    /// [`Experiment::run_heap_fault_campaign`]). Returns how many threads
    /// or pools `Salvage` quarantined.
    fn fault_round(
        &mut self,
        site: FaultSite,
        round: usize,
        report: &mut FaultCampaignReport,
    ) -> Result<usize, String> {
        let layout = &self.out.layout;
        let (crash, persisted) = crash_image(
            &self.out.ctx,
            &self.out.baseline,
            self.exp.design,
            &mut self.rng,
        );
        let idx = round % FaultClass::ALL.len();
        let label = site.label(FaultClass::ALL[idx]);
        let inj_seed = self.exp.seed ^ (round as u64).wrapping_mul(ROUND_SEED_MUL);
        let mut injector = FaultInjector::new(FaultPlan::single(FaultClass::ALL[idx]), inj_seed);
        let mut damaged = crash.clone();
        let injected = site.inject(&mut injector, &mut damaged, layout, self.sink.as_mut());

        if injected.is_empty() {
            report.control_rounds += 1;
            let mut image = crash.clone();
            let outcome = recover_with_policy(&mut image, layout, RecoveryPolicy::Strict)
                .map_err(|e| format!("strict false positive on uninjected image: {e}"))?;
            self.check_contract(&CrashOutcome {
                image,
                report: outcome.report,
                persisted_stores: persisted,
            })?;
            recovery_reconverges(&crash, layout, RecoveryPolicy::Strict, &mut self.rng)?;
            report.reconverged += 1;
            return Ok(0);
        }
        let tally = &mut report.per_class[idx].1;
        tally.injected += injected.len();

        // Strict must reject exactly the fatal injections; injected tears
        // look like natural ones and must stay benign.
        let fatal = injected.iter().any(|f| f.fatal);
        match (
            recover_with_policy(&mut damaged.clone(), layout, RecoveryPolicy::Strict),
            fatal,
        ) {
            (Err(_), true) => report.strict_rejections += 1,
            (Ok(_), false) => {}
            (Err(e), false) => {
                return Err(format!(
                    "strict rejected a tear-only {label} injection: {e}"
                ))
            }
            (Ok(_), true) => {
                return Err(format!(
                    "strict accepted an image with a fatal injected {label} fault"
                ))
            }
        }

        let mut image = damaged.clone();
        let outcome = recover_with_policy_traced(
            &mut image,
            layout,
            RecoveryPolicy::Salvage,
            self.sink.as_mut(),
        )
        .map_err(|e| format!("salvage recovery errored: {e}"))?;
        let quarantined = site.quarantined(&outcome);
        for f in &injected {
            if !f.report.is_some_and(|r| outcome.faults.contains(&r)) {
                return Err(format!(
                    "injected {label} fault ({} {}, slot {}, line {}) went undetected; \
                     recovery reported {:?}",
                    site.owner(),
                    f.owner,
                    f.slot,
                    f.line,
                    outcome.faults
                ));
            }
            tally.detected += 1;
            if f.quarantine {
                if !quarantined.contains(&f.owner) {
                    return Err(format!(
                        "{} {} held injected {label} damage but was not quarantined \
                         (quarantined: {quarantined:?})",
                        site.owner(),
                        f.owner,
                    ));
                }
                tally.salvaged += 1;
            }
        }
        match site {
            // Natural tears may salvage additional threads; the contract
            // check excludes every salvaged thread's data.
            FaultSite::Log => {
                if self.exp.lang.consistency() == Consistency::ReplayCommitted {
                    check_salvage_consistency(
                        &image,
                        &outcome,
                        &self.out.baseline,
                        &self.out.regions,
                    )?;
                }
            }
            // Exact quarantine: quarantining a healthy pool discards good
            // data.
            FaultSite::Heap => {
                if let Some(pool) = quarantined
                    .iter()
                    .find(|&&p| !injected.iter().any(|f| f.owner == p && f.quarantine))
                {
                    return Err(format!(
                        "pool {pool} was quarantined without fatal damage (injected: {injected:?})"
                    ));
                }
            }
        }
        recovery_reconverges(&damaged, layout, RecoveryPolicy::Salvage, &mut self.rng)?;
        report.reconverged += 1;
        Ok(quarantined.len())
    }

    /// The heap sweep on one natural crash image: `Strict` recovery must
    /// accept it, every pool must rebuild undamaged, every block reachable
    /// from the workload's persistent roots must be live (no
    /// use-after-free), and after reclamation no unreachable dynamic block
    /// may remain, deterministically so.
    fn heap_sweep(&mut self, report: &mut HeapSmokeReport) -> Result<(), String> {
        let layout = &self.out.layout;
        let (mut image, _) = crash_image(
            &self.out.ctx,
            &self.out.baseline,
            self.exp.design,
            &mut self.rng,
        );
        recover_with_policy(&mut image, layout, RecoveryPolicy::Strict)
            .map_err(|e| format!("strict false positive on a natural crash image: {e}"))?;
        let (mut hs, rec) = sw_lang::HeapState::rebuild(&image, layout);
        let damaged = rec.damaged_pools();
        if !damaged.is_empty() {
            return Err(format!(
                "natural crash image damaged heap pools {damaged:?}"
            ));
        }
        let roots = self.workload.heap_roots(&image);
        let live: std::collections::HashSet<u64> = (0..hs.pool_count())
            .flat_map(|p| {
                hs.pool(p)
                    .live_blocks()
                    .map(|(off, _, _)| layout.pool_line_addr(p, off).raw())
                    .collect::<Vec<_>>()
            })
            .collect();
        if let Some(r) = roots.iter().find(|r| !live.contains(&r.raw())) {
            return Err(format!(
                "use-after-free: rooted block {:#x} is not live in the rebuilt allocator",
                r.raw()
            ));
        }
        let reclaimed = hs.reclaim_unreachable(layout, &roots);
        let rooted: std::collections::HashSet<u64> = roots.iter().map(|a| a.raw()).collect();
        for p in 0..hs.pool_count() {
            let leaked = hs
                .pool(p)
                .live_blocks()
                .filter(|&(off, _, kind)| {
                    kind == BlockKind::Dynamic
                        && !rooted.contains(&layout.pool_line_addr(p, off).raw())
                })
                .count();
            if leaked != 0 {
                return Err(format!(
                    "pool {p} still leaks {leaked} blocks after reclamation"
                ));
            }
            if !hs.pool(p).accounting_exact() {
                return Err(format!(
                    "pool {p} accounting does not balance after reclamation"
                ));
            }
        }
        // Reclamation is volatile-only, so it must be reproducible from the
        // same image.
        let (mut hs2, _) = sw_lang::HeapState::rebuild(&image, layout);
        let again = hs2.reclaim_unreachable(layout, &roots);
        if again != reclaimed {
            return Err(format!(
                "reclamation is not deterministic: {reclaimed:?} then {again:?}"
            ));
        }
        report.reclaimed_blocks += reclaimed.len() as u64;
        report.rounds_with_leaks += usize::from(!reclaimed.is_empty());
        report.rooted_blocks += roots.len() as u64;
        Ok(())
    }

    /// The MCE leg: the driven run is replayed twice with a poisoned heap
    /// line armed. If a load consumes it, the machine check must abort the
    /// run under `Strict` and quarantine exactly the faulting thread under
    /// `Salvage`. Returns the `Strict` and `Salvage` runs.
    fn mce(&self) -> Result<(DriverOutput, DriverOutput), String> {
        let line = self.out.layout.heap_base().line().raw();
        let run = |policy| {
            let params = self.exp.driver_params().mce(line, policy);
            drive(self.exp.bench.instantiate().as_mut(), &params)
        };
        let (strict, salvage) = (run(RecoveryPolicy::Strict), run(RecoveryPolicy::Salvage));
        if !strict.mce_events.is_empty() && !strict.aborted {
            return Err("strict policy consumed a poisoned line without aborting".into());
        }
        if salvage.aborted {
            return Err("salvage policy aborted instead of continuing".into());
        }
        if let Some(e) = salvage
            .mce_events
            .iter()
            .find(|e| !salvage.quarantined.contains(&e.thread))
        {
            return Err(format!(
                "salvage failed to quarantine thread {} after {e}",
                e.thread
            ));
        }
        Ok((strict, salvage))
    }
}

/// Where a fault campaign injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultSite {
    /// Published log slots of the workload's threads.
    Log,
    /// Published allocator-journal records of the heap pools.
    Heap,
}

/// One placed fault in site-independent terms.
#[derive(Debug)]
struct Injection {
    /// Owning thread (log site) or heap pool (heap site).
    owner: usize,
    slot: u64,
    line: u64,
    /// The damage fails `Strict` recovery.
    fatal: bool,
    /// `Salvage` must quarantine the owner.
    quarantine: bool,
    /// The fault recovery must report. It follows the *resulting* slot
    /// state, not the injected class: a bit flip that lands next to a
    /// legitimately-zero word classifies, and is correctly reported, as a
    /// tear.
    report: Option<RecoveryFault>,
}

impl FaultSite {
    fn owner(self) -> &'static str {
        match self {
            FaultSite::Log => "thread",
            FaultSite::Heap => "pool",
        }
    }

    fn label(self, class: FaultClass) -> &'static str {
        match self {
            FaultSite::Log => class.label(),
            FaultSite::Heap => class.heap_label(),
        }
    }

    /// The campaign's kind, its counter prefix and its quarantine
    /// counter.
    fn spec(self) -> (Kind, &'static str, &'static str) {
        match self {
            FaultSite::Log => (Kind::Faults, "faults", "salvaged"),
            FaultSite::Heap => (Kind::HeapFaults, "alloc_faults", "salvaged_pools"),
        }
    }

    /// Injects `injector`'s plan into `img`, emitting one `FaultInjected`
    /// event per placed fault. Every log fault quarantines its thread;
    /// only fatal allocator damage quarantines its pool (a torn journal
    /// record is reclaimed as in-flight work).
    fn inject(
        self,
        injector: &mut FaultInjector,
        img: &mut PmImage,
        layout: &PmLayout,
        sink: &mut dyn TraceSink,
    ) -> Vec<Injection> {
        match self {
            FaultSite::Log => injector
                .inject_traced(img, layout, sink)
                .into_iter()
                .map(|f| Injection {
                    owner: f.tid,
                    slot: f.slot,
                    line: f.line,
                    fatal: f.is_fatal(),
                    quarantine: true,
                    report: match f.resulting {
                        SlotState::Torn => Some(RecoveryFault::TornEntry {
                            tid: f.tid,
                            slot: f.slot,
                        }),
                        SlotState::Corrupt => Some(RecoveryFault::ChecksumMismatch {
                            tid: f.tid,
                            slot: f.slot,
                        }),
                        SlotState::Poisoned => Some(RecoveryFault::PoisonedLine {
                            tid: f.tid,
                            line: f.line,
                        }),
                        _ => None,
                    },
                })
                .collect(),
            FaultSite::Heap => injector
                .inject_heap_traced(img, layout, sink)
                .into_iter()
                .map(|f| Injection {
                    owner: f.pool,
                    slot: f.slot,
                    line: f.line,
                    fatal: f.is_fatal(),
                    quarantine: f.is_fatal(),
                    report: match f.resulting {
                        HeapSlotState::Torn => Some(RecoveryFault::HeapTorn {
                            pool: f.pool,
                            slot: f.slot,
                        }),
                        HeapSlotState::Corrupt => Some(RecoveryFault::HeapCorrupt {
                            pool: f.pool,
                            slot: f.slot,
                        }),
                        HeapSlotState::Poisoned => Some(RecoveryFault::HeapPoisoned {
                            pool: f.pool,
                            line: f.line,
                        }),
                        _ => None,
                    },
                })
                .collect(),
        }
    }

    /// The threads or pools a `Salvage` recovery quarantined.
    fn quarantined(self, outcome: &PolicyOutcome) -> &[usize] {
        match self {
            FaultSite::Log => &outcome.salvaged_threads,
            FaultSite::Heap => &outcome.salvaged_pools,
        }
    }
}

/// The probe oracle: a single-threaded lowered probe of a cell's
/// `(design, lang, strategy)` — six regions of four stores — with its
/// formal PMO and the durable line set of its fault-free run.
/// [`check`](Self::check) replays the probe under a seeded random online
/// fault schedule: the durable line *set* must equal the fault-free one
/// (no write silently lost or invented) and the acceptance order must
/// remain a linear extension of the PMO — retries delay, never reorder.
#[derive(Debug)]
pub struct ProbeOracle {
    pmo: Pmo,
    traces: Vec<IsaTrace>,
    layout: PmLayout,
    sim: SimConfig,
    design: HwDesign,
    clean_set: BTreeSet<LineAddr>,
    scale: u64,
}

/// What one [`ProbeOracle::check`] verified.
#[derive(Debug, Clone, Copy)]
pub struct ProbeVerdict {
    /// Transitive PMO edges the faulted acceptance order was held to.
    pub pmo_edges: usize,
    /// Online-fault activity of the faulted run (`None` on designs that
    /// bypass the PM controller write path).
    pub online: Option<OnlineFaultStats>,
}

impl ProbeOracle {
    /// Lowers the probe for `exp`'s cell and runs it fault-free.
    pub fn new(exp: &Experiment) -> Self {
        let layout = PmLayout::new(1, 512);
        let heap = layout.heap_base();
        let mut ctx = FuncCtx::new(layout.clone(), 1);
        let mut cfg = RuntimeConfig::new(exp.design, exp.lang);
        cfg.strategy = exp.strategy;
        let mut rt = ThreadRuntime::new(&layout, 0, cfg);
        for r in 0..6u64 {
            rt.region_begin(&mut ctx, &[LockId(0)]);
            for k in 0..4u64 {
                rt.store(&mut ctx, heap.offset_words((r * 4 + k) * 8), r * 10 + k);
            }
            rt.region_end(&mut ctx);
        }
        rt.shutdown(&mut ctx);
        let mut oracle = ProbeOracle {
            pmo: Pmo::compute(&ctx.execution(), exp.design.memory_model()),
            traces: ctx.into_traces(),
            layout,
            sim: exp.sim.clone().with_cores(1),
            design: exp.design,
            clean_set: BTreeSet::new(),
            scale: 0,
        };
        let clean = oracle.run(None);
        oracle.clean_set = clean.pm_write_order.iter().copied().collect();
        oracle.scale = clean.pm_write_order.len() as u64;
        oracle
    }

    fn run(&self, faults: Option<DeviceFaultSchedule>) -> SimStats {
        let mut cfg = self.sim.clone();
        if let Some(schedule) = faults {
            cfg = cfg.with_device_faults(schedule);
        }
        Machine::new(cfg, self.design, self.layout.clone(), self.traces.clone()).run()
    }

    /// Replays the probe under `DeviceFaultSchedule::random(seed, ..)`.
    ///
    /// # Errors
    ///
    /// A silent corruption (durable set diverged) or a PMO edge the
    /// faulted acceptance order violated.
    pub fn check(&self, seed: u64) -> Result<ProbeVerdict, String> {
        let faulted = self.run(Some(DeviceFaultSchedule::random(seed, self.scale)));
        let set: BTreeSet<LineAddr> = faulted.pm_write_order.iter().copied().collect();
        if set != self.clean_set {
            let missing: Vec<_> = self.clean_set.difference(&set).collect();
            let extra: Vec<_> = set.difference(&self.clean_set).collect();
            return Err(format!(
                "silent corruption: durable line set diverged under online faults \
                 (missing {missing:?}, extra {extra:?})"
            ));
        }
        let pmo_edges = order_extends_pmo(&self.pmo, &faulted.pm_write_order)
            .map_err(|e| format!("persist order under retries: {e}"))?;
        Ok(ProbeVerdict {
            pmo_edges,
            online: faulted.online_faults,
        })
    }
}

/// Checks that a machine's PM acceptance order respects every applicable
/// transitive cross-line PMO edge. Only lines accepted exactly once map
/// one-to-one onto formal stores (same-line stores share flushes), so
/// edges touching multiply-accepted lines are skipped. Returns the number
/// of edges verified; errors on the first violation.
fn order_extends_pmo(pmo: &Pmo, order: &[LineAddr]) -> Result<usize, String> {
    let mut count = std::collections::HashMap::new();
    let mut first_pos = std::collections::HashMap::new();
    for (pos, line) in order.iter().enumerate() {
        *count.entry(*line).or_insert(0usize) += 1;
        first_pos.entry(*line).or_insert(pos);
    }
    let pos_of = |line: LineAddr| (count.get(&line) == Some(&1)).then(|| first_pos[&line]);
    let mut checked = 0;
    for i in 0..pmo.num_stores() {
        for j in 0..pmo.num_stores() {
            if i == j || !pmo.ordered_before(StoreId(i), StoreId(j)) {
                continue;
            }
            let la = pmo.store(StoreId(i)).addr.line();
            let lb = pmo.store(StoreId(j)).addr.line();
            if la == lb {
                continue;
            }
            if let (Some(pa), Some(pb)) = (pos_of(la), pos_of(lb)) {
                if pa >= pb {
                    return Err(format!(
                        "PMO edge {la} -> {lb} violated by acceptance order ({pa} >= {pb})"
                    ));
                }
                checked += 1;
            }
        }
    }
    Ok(checked)
}

/// Strict and salvage reconvergence: a formally-sampled crash image of the
/// driven run `out` must reconverge under interrupted-and-rerun `Strict`
/// recovery, and a copy with a freshly poisoned log line of a random
/// thread must reconverge under `Salvage` (a quarantined thread's actual
/// recovery path). A crash image may hold a persist that was mid-retry:
/// an un-acknowledged write is simply absent from the persisted set.
///
/// # Errors
///
/// The reconvergence that failed.
pub fn crash_reconverges<R: Rng>(
    exp: &Experiment,
    out: &DriverOutput,
    rng: &mut R,
) -> Result<(), String> {
    let (crash, _) = crash_image(&out.ctx, &out.baseline, exp.design, rng);
    recovery_reconverges(&crash, &out.layout, RecoveryPolicy::Strict, rng)
        .map_err(|e| format!("strict reconvergence: {e}"))?;
    let mut damaged = crash;
    let victim = rng.gen_range(0..exp.threads);
    let log_line = out.layout.log_region(victim).base.line().raw();
    damaged.poison_line(LineAddr(log_line + 1 + rng.gen_range(0..4)));
    recovery_reconverges(&damaged, &out.layout, RecoveryPolicy::Salvage, rng)
        .map_err(|e| format!("salvage reconvergence: {e}"))
}

/// Remap-table crash consistency: a standalone fault unit takes two
/// permanent errors, and its remap encoding cut at a random word (a crash
/// mid-publication) must decode to a prefix of the full mapping, never a
/// mix.
fn remap_prefix(rng: &mut SmallRng) -> Result<(), String> {
    let mut sched = DeviceFaultSchedule::none();
    for _ in 0..2 {
        sched.faults.push(DeviceFault {
            class: DeviceFaultClass::PermanentMediaError,
            trigger: FaultTrigger::NthWrite(1 + rng.gen_range(0..12)),
            sticky: true,
        });
    }
    let (spare_base, spare_count) = (sched.spare_base, sched.spare_count);
    let mut unit = DeviceFaultUnit::new(sched);
    for w in 0..24u64 {
        let _ = unit.on_write(0x100 + w, (w + 1) * 8);
    }
    let full: Vec<_> = unit.remap_table().iter().collect();
    let words = unit.remap_table().encode_words();
    let cut = rng.gen_range(0..=words.len());
    let decoded: Vec<_> = RemapTable::decode_words(&words[..cut], spare_base, spare_count)
        .iter()
        .collect();
    if !full.starts_with(&decoded) {
        return Err(format!(
            "remap table torn at word {cut}/{} decoded to {decoded:?}, not a prefix of {full:?}",
            words.len()
        ));
    }
    Ok(())
}

/// Spare exhaustion must surface, not saturate: on a one-spare device
/// taking two permanent errors, the second retirement must return the
/// typed `RemapExhausted` outcome and count it, never park the line
/// silently. Returns the exhaustion count (1).
fn spare_exhaustion() -> Result<u64, String> {
    let mut tiny = DeviceFaultSchedule::none();
    tiny.spare_count = 1;
    for l in [0x200u64, 0x201] {
        tiny.faults.push(DeviceFault {
            class: DeviceFaultClass::PermanentMediaError,
            trigger: FaultTrigger::OnLine(l),
            sticky: true,
        });
    }
    let mut unit = DeviceFaultUnit::new(tiny);
    if !matches!(
        unit.on_write(0x200, 8),
        WriteDecision::Proceed {
            remapped: Some((_, true)),
            ..
        }
    ) {
        return Err("first retirement failed to consume the spare".into());
    }
    if !matches!(
        unit.on_write(0x201, 16),
        WriteDecision::RemapExhausted { line: 0x201 }
    ) {
        return Err(
            "spare exhaustion saturated silently instead of surfacing a RemapExhausted outcome"
                .into(),
        );
    }
    match unit.stats().spares_exhausted {
        1 => Ok(1),
        n => Err(format!("spares_exhausted counted {n} events, expected 1")),
    }
}

impl Experiment {
    /// Runs a crash-consistency campaign: execute the workload, then sample
    /// `rounds` formally-allowed crash states, recover each, and check the
    /// model's consistency contract — all-or-nothing region replay plus the
    /// workload's structural invariants for the logged models, or
    /// store-order prefix durability for the log-free Native model (whose
    /// crash states legitimately expose mid-region data, so structural
    /// invariants only hold at region boundaries).
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found (expected for
    /// [`HwDesign::NonAtomic`]).
    pub fn run_crash_campaign(&self, rounds: usize) -> Result<(), String> {
        let mut c = Campaign::start(self, Kind::Crash, rounds)?;
        c.each_round(|c, _| {
            let outcome = crash_and_recover(&c.out.ctx, &c.out.baseline, c.exp.design, &mut c.rng);
            c.check_contract(&outcome)
        })
    }

    /// Runs a fault-injection campaign: sample `rounds` crash states and,
    /// in each, inject one fault — rotating through [`FaultClass::ALL`] —
    /// into a published log slot, then check the hardened recovery end to
    /// end:
    ///
    /// * **Detection** — [`RecoveryPolicy::Salvage`] recovery must report
    ///   every injected fault at its exact location (thread + slot or
    ///   line), and quarantine the damaged thread.
    /// * **Strict fail-fast** — [`RecoveryPolicy::Strict`] must refuse the
    ///   image *iff* the injection is fatal (corrupt or poisoned; an
    ///   injected tear is indistinguishable from a natural one, so it
    ///   stays benign).
    /// * **Salvage consistency** — the surviving threads' data must still
    ///   satisfy the replay contract
    ///   ([`check_salvage_consistency`]).
    /// * **Convergence** — recovery interrupted by a second crash and
    ///   re-run must land on the identical image
    ///   ([`recovery_reconverges`]).
    ///
    /// Rounds whose crash image holds no published log entry (log-free
    /// models, or crashes before any append persisted) become *controls*:
    /// `Strict` recovery must succeed there and reproduce the ordinary
    /// crash-consistency contract — an error would be a false positive of
    /// the damage detector.
    ///
    /// The whole campaign derives from [`seed`](Experiment::seed): the
    /// same cell replays the same injections. With a
    /// [`traced`](Experiment::traced) recorder installed, injections and
    /// detections emit `FaultInjected` / `CorruptionDetected` /
    /// `RegionSalvaged` events.
    ///
    /// # Errors
    ///
    /// Returns the first campaign violation, with a copy-pasteable
    /// `swctl faults` reproducer (seed included) embedded.
    pub fn run_fault_campaign(&self, rounds: usize) -> Result<FaultCampaignReport, String> {
        self.fault_campaign(FaultSite::Log, rounds)
    }

    /// Runs the allocator-metadata fault campaign: sample `rounds` crash
    /// states and, in each, inject one fault — rotating through
    /// [`FaultClass::ALL`] — into a published allocator-journal record of
    /// some heap pool, then require:
    ///
    /// * `Strict` recovery rejects every fatal injection (corrupt or
    ///   poisoned metadata) *before mutating anything*, and accepts
    ///   injected tears — a torn journal record is indistinguishable from
    ///   a crash mid-publication and is reclaimed, not fatal;
    /// * `Salvage` recovery reports every injected fault at its exact
    ///   location (pool + slot or line) and quarantines **only** the
    ///   pools holding fatal damage — an over-quarantine throws away
    ///   healthy pools and fails the campaign;
    /// * recovery reconverges when interrupted mid-repair.
    ///
    /// The report reuses [`FaultCampaignReport`]; its `salvaged` tallies
    /// count quarantined *pools* (so injected tears detect without
    /// salvaging). Workload churn is not required: every workload's setup
    /// carves are journaled, so each crash image holds published records.
    /// Failures embed a `swctl faults --heap` reproducer.
    pub fn run_heap_fault_campaign(&self, rounds: usize) -> Result<FaultCampaignReport, String> {
        self.fault_campaign(FaultSite::Heap, rounds)
    }

    fn fault_campaign(
        &self,
        site: FaultSite,
        rounds: usize,
    ) -> Result<FaultCampaignReport, String> {
        let (kind, prefix, salvaged) = site.spec();
        let mut c = Campaign::start(self, kind, rounds)?;
        let mut report = FaultCampaignReport {
            rounds,
            per_class: FaultClass::ALL
                .iter()
                .map(|&c| (c, ClassTally::default()))
                .collect(),
            ..Default::default()
        };
        let mut quarantined = 0;
        c.each_round(|c, round| {
            quarantined += c.fault_round(site, round, &mut report)?;
            Ok(())
        })?;
        let mut registry = MetricsRegistry::new();
        for (name, v) in [
            ("injected", report.injected()),
            ("detected", report.detected()),
            (salvaged, quarantined),
            ("strict_rejections", report.strict_rejections),
            ("control_rounds", report.control_rounds),
        ] {
            let ctr = registry.counter(&format!("{prefix}.{name}"));
            registry.add(ctr, v as u64);
        }
        report.metrics = registry.snapshot();
        Ok(report)
    }

    /// Runs the allocator leak smoke — the backend of `swctl heap
    /// --verify` and the CI allocator stage. The cell's churn workload
    /// runs to a crash; each of `rounds` sampled crash states must:
    ///
    /// * pass `Strict` recovery (false-positive control: natural crash
    ///   damage never looks like corruption);
    /// * rebuild every heap pool undamaged from its PM metadata;
    /// * hold **no use-after-free**: every block reachable from the
    ///   workload's persistent roots is live in the rebuilt allocator;
    /// * reach **zero leaks** after reclamation: every live dynamic block
    ///   left unreachable by the crash (an allocation whose publishing
    ///   store never persisted) is reclaimed, deterministically so (a
    ///   second rebuild + reclaim finds the identical set).
    pub fn run_heap_smoke(&self, rounds: usize) -> Result<HeapSmokeReport, String> {
        let mut c = Campaign::start(self, Kind::HeapSmoke, rounds)?;
        let mut report = HeapSmokeReport {
            rounds,
            ..Default::default()
        };
        c.each_round(|c, _| c.heap_sweep(&mut report))?;
        Ok(report)
    }

    /// Runs the online-fault chaos campaign on this cell: `rounds` rounds
    /// of randomized device faults × crash points × recovery policies.
    ///
    /// Each round, seeded from [`seed`](Experiment::seed):
    ///
    /// 1. **Online faults vs. the PMO oracle** — the [`ProbeOracle`]
    ///    replays under a random [`DeviceFaultSchedule`] (transient write
    ///    failures with retry, permanent media errors with remap, read
    ///    poison).
    /// 2. **Crash × recovery** — [`crash_reconverges`].
    /// 3. **Remap-table crash consistency** and **spare exhaustion**.
    ///
    /// Once per campaign, the MCE leg arms a poisoned heap line for the
    /// multi-threaded driven run: if a load consumes it, the machine-check
    /// must abort the run under [`RecoveryPolicy::Strict`] and quarantine
    /// exactly the faulting thread under [`RecoveryPolicy::Salvage`].
    ///
    /// # Errors
    ///
    /// The first violation, with a copy-pasteable `swctl chaos` reproducer
    /// (seed included) embedded.
    pub fn run_chaos_campaign(&self, rounds: usize) -> Result<ChaosCampaignReport, String> {
        if !self.lang.legal_on(self.design) {
            return Err(format!(
                "language model '{}' is not legal on design '{}'",
                self.lang, self.design
            ));
        }
        let probe = ProbeOracle::new(self);
        let mut c = Campaign::start(self, Kind::Chaos, rounds)?;
        let mut online = OnlineFaultStats::default();
        let mut pmo_edges_checked = 0;
        c.each_round(|c, round| {
            let round_seed = self
                .seed
                .wrapping_add((round as u64).wrapping_mul(ROUND_SEED_MUL));
            let verdict = probe.check(round_seed)?;
            pmo_edges_checked += verdict.pmo_edges;
            if let Some(s) = verdict.online {
                online.merge(&s);
            }
            crash_reconverges(self, &c.out, &mut c.rng)?;
            remap_prefix(&mut c.rng)?;
            online.spares_exhausted += spare_exhaustion()?;
            Ok(())
        })?;
        let (strict, salvage) = c.mce().map_err(|e| c.fail(rounds, e))?;
        Ok(ChaosCampaignReport {
            design: self.design,
            lang: self.lang,
            rounds,
            online,
            pmo_edges_checked,
            reconverged_strict: rounds,
            reconverged_salvage: rounds,
            remap_prefix_checks: rounds,
            mce_traps: strict.mce_events.len() + salvage.mce_events.len(),
            mce_strict_aborted: strict.aborted,
            mce_quarantined: salvage.quarantined,
            silent_corruptions: 0,
        })
    }

    /// Formats a campaign failure with the copy-pasteable `swctl`
    /// invocation replaying this cell exactly (the seed pins workload
    /// generation, crash sampling, and fault injection).
    pub(crate) fn campaign_failure(
        &self,
        kind: Kind,
        rounds: usize,
        round: usize,
        detail: String,
    ) -> String {
        let (_, subcommand, switch) = kind.spec();
        let redo = if self.strategy == LogStrategy::Redo {
            " --redo"
        } else {
            ""
        };
        format!(
            "round {round}: {detail}\n  seed {}: reproduce with `swctl {subcommand} {}{switch} \
             --lang {} --design {} --threads {} --regions {} --ops {} --rounds {rounds} \
             --seed {}{redo}`",
            self.seed,
            self.bench,
            self.lang,
            self.design,
            self.threads,
            self.total_regions,
            self.ops_per_region,
            self.seed,
        )
    }
}
