//! End-to-end experiment runner: workload → runtime lowering → ISA traces
//! → timing simulation. The crash, fault, heap and chaos campaigns run on
//! the same cells through the [campaign engine](crate::campaign); their
//! reports live here.

use sw_faults::{FaultClass, OnlineFaultStats};
use sw_lang::{HwDesign, LangModel, LogStrategy};
use sw_sim::{Machine, SimConfig, SimStats};
use sw_trace::json::Prefixed;
use sw_trace::MetricsSnapshot;
use sw_workloads::driver::{drive, DriverParams};
use sw_workloads::{BenchmarkId, Workload};

/// Configuration of one experiment cell (a benchmark under a language
/// model on a hardware design).
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Benchmark to run.
    pub bench: BenchmarkId,
    /// Language-level persistency model.
    pub lang: LangModel,
    /// Hardware design.
    pub design: HwDesign,
    /// Write-ahead-logging strategy.
    pub strategy: LogStrategy,
    /// Threads (= cores).
    pub threads: usize,
    /// Total failure-atomic regions.
    pub total_regions: usize,
    /// Operations per region (Figure 10 axis).
    pub ops_per_region: usize,
    /// RNG seed (shared by the workload generator so every design replays
    /// the same logical work).
    pub seed: u64,
    /// Machine configuration.
    pub sim: SimConfig,
    /// Trace recorder installed into the machine by [`run_timing`]
    /// (`None` = tracing disabled, the zero-overhead default).
    ///
    /// [`run_timing`]: Experiment::run_timing
    pub trace: Option<sw_trace::RingRecorder>,
    /// When `true`, [`run_timing`] enables the machine's metrics registry
    /// and the returned [`SimStats`] carries a populated snapshot.
    ///
    /// [`run_timing`]: Experiment::run_timing
    pub metrics: bool,
    /// When `true`, [`run_timing`] installs a self-profiler and the
    /// returned [`SimStats`] carries a `perf` snapshot. Profiling never
    /// changes simulated results; the ambient `sw_perf::set_global_enabled`
    /// switch covers machines built without this flag.
    ///
    /// [`run_timing`]: Experiment::run_timing
    pub profile: bool,
}

impl Experiment {
    /// A cell with the paper's machine (Table I) and default scale.
    pub fn new(bench: BenchmarkId, lang: LangModel, design: HwDesign) -> Self {
        Self {
            bench,
            lang,
            design,
            strategy: LogStrategy::Undo,
            threads: 8,
            total_regions: 240,
            ops_per_region: 4,
            seed: 1234,
            sim: SimConfig::table_i(),
            trace: None,
            metrics: false,
            profile: false,
        }
    }

    /// Sets the region count.
    pub fn total_regions(mut self, n: usize) -> Self {
        self.total_regions = n;
        self
    }

    /// Sets the thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Sets operations per region.
    pub fn ops_per_region(mut self, n: usize) -> Self {
        self.ops_per_region = n;
        self
    }

    /// Sets the RNG seed (workload generation, crash sampling, and fault
    /// injection all derive from it, so a campaign replays exactly).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the strand-buffer-unit shape (Figure 9 axis).
    pub fn strand_buffers(mut self, buffers: usize, entries: usize) -> Self {
        self.sim = self.sim.with_strand_buffers(buffers, entries);
        self
    }

    /// Switches to redo logging (the Section VII extension).
    pub fn redo(mut self) -> Self {
        self.strategy = LogStrategy::Redo;
        self
    }

    /// Installs a trace recorder: the timing run will emit typed events
    /// into `recorder` (clone a handle to keep reading it afterwards).
    pub fn traced(mut self, recorder: sw_trace::RingRecorder) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Enables the metrics registry for the timing run.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Enables self-profiling for the timing run ([`SimStats::perf`]).
    pub fn with_profiling(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Runs the timing simulation and returns machine statistics.
    pub fn run_timing(&self) -> SimStats {
        let sink = self
            .trace
            .clone()
            .map(|rec| Box::new(rec) as Box<dyn sw_trace::TraceSink>);
        self.run_timing_with_sink(sink)
    }

    /// As [`run_timing`], but installing an explicit trace sink (overriding
    /// the [`trace`] field). The overhead microbenchmark uses this to
    /// compare the sink-disabled path against [`sw_trace::NullSink`].
    ///
    /// [`run_timing`]: Experiment::run_timing
    /// [`trace`]: Experiment::trace
    pub fn run_timing_with_sink(&self, sink: Option<Box<dyn sw_trace::TraceSink>>) -> SimStats {
        let mut workload = self.bench.instantiate();
        let params = self.driver_params().timing_only().clean_shutdown();
        let out = drive(workload.as_mut(), &params);
        let layout = out.layout.clone();
        let warm: Vec<sw_pmem::LineAddr> = out.baseline.written_lines().collect();
        let traces = out.ctx.into_traces();
        let mut machine = Machine::new(
            self.sim.clone().with_cores(self.threads),
            self.design,
            layout,
            traces,
        );
        machine.preload_l2(warm);
        if let Some(sink) = sink {
            machine.set_trace_sink(sink);
        }
        if self.metrics {
            machine.enable_metrics();
        }
        if self.profile {
            machine.enable_profiler();
        }
        machine.run()
    }

    /// Runs this cell to a clean shutdown and reports end-of-run heap-pool
    /// occupancy plus the run's allocator activity counters — the backend
    /// of `swctl heap`. With `churn`, the workload variant that exercises
    /// run-time `heap_alloc`/`heap_free` is used (an error names the
    /// benchmark if it has no churn mode).
    pub fn run_heap_report(&self, churn: bool) -> Result<HeapReport, String> {
        let mut workload = if churn {
            self.churn_workload()?
        } else {
            self.bench.instantiate()
        };
        let out = drive(
            workload.as_mut(),
            &self.driver_params().clean_shutdown().metrics(),
        );
        let snapshot = out.ctx.metrics_snapshot();
        let hs = out.ctx.heap_state();
        let pools = (0..hs.pool_count())
            .map(|p| {
                let pa = hs.pool(p);
                PoolOccupancy {
                    pool: p,
                    arena_lines: pa.arena_lines(),
                    carved_lines: pa.frontier(),
                    live_blocks: pa.live_count(),
                    live_lines: pa.live_lines(),
                    free_lines: pa.free_lines(),
                    largest_free_lines: pa.largest_free_lines(),
                    fragmentation: pa.fragmentation(),
                    journal_next_slot: pa.next_slot,
                    checkpoints: pa.stats.checkpoints,
                }
            })
            .collect();
        Ok(HeapReport {
            pools,
            carves: snapshot.counter("alloc.carves").unwrap_or(0),
            allocs: snapshot.counter("alloc.allocs").unwrap_or(0),
            frees: snapshot.counter("alloc.frees").unwrap_or(0),
            checkpoints: snapshot.counter("alloc.checkpoints").unwrap_or(0),
        })
    }

    /// The driver parameters of this cell: the one place an experiment's
    /// scale, seed and logging strategy become a workload run.
    pub fn driver_params(&self) -> DriverParams {
        let mut params = DriverParams::new(self.design, self.lang)
            .threads(self.threads)
            .total_regions(self.total_regions)
            .ops_per_region(self.ops_per_region)
            .seed(self.seed);
        params.strategy = self.strategy;
        params
    }

    /// The allocator-churn variant of this cell's benchmark (an error names
    /// the benchmark if it has none).
    pub(crate) fn churn_workload(&self) -> Result<Box<dyn Workload>, String> {
        self.bench.instantiate_churn().ok_or_else(|| {
            format!(
                "benchmark {} has no allocator-churn mode (churn: hashmap, nstore-*)",
                self.bench
            )
        })
    }
}

/// What [`Experiment::run_chaos_campaign`] measured on one
/// (design × language model) cell.
#[derive(Debug, Clone)]
pub struct ChaosCampaignReport {
    /// Hardware design of the cell.
    pub design: HwDesign,
    /// Language model of the cell.
    pub lang: LangModel,
    /// Campaign rounds executed.
    pub rounds: usize,
    /// Accumulated online-fault activity across all probe rounds
    /// (all-zero on designs that bypass the PM controller write path,
    /// e.g. battery-backed eADR).
    pub online: OnlineFaultStats,
    /// Transitive PMO edges the faulted acceptance orders were verified
    /// against.
    pub pmo_edges_checked: usize,
    /// Rounds whose interrupted `Strict` recovery reconverged.
    pub reconverged_strict: usize,
    /// Rounds whose interrupted `Salvage` recovery (on a freshly poisoned
    /// log line) reconverged.
    pub reconverged_salvage: usize,
    /// Rounds whose torn remap-table encoding decoded to a mapping prefix.
    pub remap_prefix_checks: usize,
    /// Machine-check traps delivered across the two MCE runs.
    pub mce_traps: usize,
    /// `true` when the `Strict` MCE run fail-stopped (always true when a
    /// trap fired).
    pub mce_strict_aborted: bool,
    /// Threads the `Salvage` MCE run quarantined.
    pub mce_quarantined: Vec<usize>,
    /// Silent corruptions observed (always 0 on `Ok` — a nonzero count
    /// fails the campaign instead).
    pub silent_corruptions: usize,
}

impl ChaosCampaignReport {
    /// One human-readable summary line for sweep tables.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<14} {:<7} {:>7} {:>7} {:>7} {:>6} {:>6} {:>5} {:>5}",
            self.design.to_string(),
            self.lang.to_string(),
            self.online.retries_succeeded,
            self.online.lines_remapped,
            self.online.reads_poisoned,
            self.reconverged_strict,
            self.reconverged_salvage,
            self.pmo_edges_checked,
            self.mce_traps,
        )
    }

    /// Renders the human-readable campaign report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "chaos campaign: {} x {}, {} rounds, {} silent corruptions",
            self.design, self.lang, self.rounds, self.silent_corruptions
        );
        for (k, v) in self.online.entries() {
            let _ = writeln!(s, "  faults.online.{k} = {v}");
        }
        let _ = writeln!(
            s,
            "  pmo edges checked {}, reconverged strict {}/{} salvage {}/{}, \
             remap prefixes {}/{}",
            self.pmo_edges_checked,
            self.reconverged_strict,
            self.rounds,
            self.reconverged_salvage,
            self.rounds,
            self.remap_prefix_checks,
            self.rounds,
        );
        let _ = writeln!(
            s,
            "  mce traps {} (strict aborted: {}, quarantined: {:?})",
            self.mce_traps, self.mce_strict_aborted, self.mce_quarantined
        );
        s
    }
}

sw_trace::json_record!(ToJson for ChaosCampaignReport {
    design,
    lang,
    rounds,
    silent_corruptions,
    online => |r| Prefixed("faults.online.", &r.online),
    pmo_edges_checked,
    reconverged_strict,
    reconverged_salvage,
    remap_prefix_checks,
    mce_traps,
    mce_strict_aborted,
    mce_quarantined,
});

/// What [`chaos_sweep`] measured across every legal
/// (design × language model) pair.
#[derive(Debug, Clone)]
pub struct ChaosSweepReport {
    /// Per-cell reports, designs in presentation order.
    pub cells: Vec<ChaosCampaignReport>,
    /// Online-fault activity aggregated across all cells.
    pub online: OnlineFaultStats,
}

impl ChaosSweepReport {
    /// Renders the sweep table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<14} {:<7} {:>7} {:>7} {:>7} {:>6} {:>6} {:>5} {:>5}",
            "design", "lang", "retries", "remaps", "poison", "rc-str", "rc-sal", "edges", "mce"
        );
        for cell in &self.cells {
            let _ = writeln!(s, "{}", cell.summary_line());
        }
        let _ = writeln!(
            s,
            "total: {} retry successes, {} remaps, {} reads poisoned, 0 silent corruptions",
            self.online.retries_succeeded, self.online.lines_remapped, self.online.reads_poisoned,
        );
        s
    }
}

sw_trace::json_record!(ToJson for ChaosSweepReport {
    cells,
    online => |r| Prefixed("faults.online.", &r.online),
    silent_corruptions => |_| 0u64,
});

/// Runs the chaos campaign on every legal (design × language model) pair
/// at `scale`'s benchmark and sizes, then enforces the sweep-wide
/// acceptance bar: zero silent corruptions (any would have errored a
/// cell), at least one successful transient retry, and at least one
/// permanent-error remap somewhere in the sweep — proof the fault classes
/// actually fired and healed rather than being silently skipped.
///
/// # Errors
///
/// The first failing cell's error (reproducer embedded), or a sweep-level
/// message when a fault class never fired.
pub fn chaos_sweep(scale: &Experiment, rounds: usize) -> Result<ChaosSweepReport, String> {
    let mut cells = Vec::new();
    let mut online = OnlineFaultStats::default();
    for design in HwDesign::ALL {
        for lang in LangModel::ALL {
            if !lang.legal_on(design) {
                continue;
            }
            let mut cell = scale.clone();
            cell.design = design;
            cell.lang = lang;
            cell.trace = None;
            let report = cell
                .run_chaos_campaign(rounds)
                .map_err(|e| format!("{design} x {lang}: {e}"))?;
            online.merge(&report.online);
            cells.push(report);
        }
    }
    if online.retries_succeeded == 0 {
        return Err("chaos sweep: no transient write fault ever retried successfully".into());
    }
    if online.lines_remapped == 0 {
        return Err("chaos sweep: no permanent media error was ever remapped".into());
    }
    Ok(ChaosSweepReport { cells, online })
}

/// Per-fault-class tally of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTally {
    /// Faults injected.
    pub injected: usize,
    /// Faults recovery reported at the exact injected location.
    pub detected: usize,
    /// Faults whose owning thread the `Salvage` policy quarantined.
    pub salvaged: usize,
}

/// What [`Experiment::run_fault_campaign`] measured.
#[derive(Debug, Clone, Default)]
pub struct FaultCampaignReport {
    /// Campaign rounds executed.
    pub rounds: usize,
    /// Rounds where the crash image held no published log entry, run as
    /// uninjected controls (the `Strict` false-positive check).
    pub control_rounds: usize,
    /// Injected rounds the `Strict` policy refused (every fatal one).
    pub strict_rejections: usize,
    /// Tallies per fault class, in [`FaultClass::ALL`] order.
    pub per_class: Vec<(FaultClass, ClassTally)>,
    /// Rounds whose interrupted re-recovery converged (all of them, or the
    /// campaign would have errored).
    pub reconverged: usize,
    /// Campaign counters (`faults.injected`, `faults.detected`,
    /// `faults.salvaged`, `faults.strict_rejections`,
    /// `faults.control_rounds`).
    pub metrics: MetricsSnapshot,
}

impl FaultCampaignReport {
    /// Total faults injected across classes.
    pub fn injected(&self) -> usize {
        self.per_class.iter().map(|(_, t)| t.injected).sum()
    }

    /// Total faults detected at their exact location.
    pub fn detected(&self) -> usize {
        self.per_class.iter().map(|(_, t)| t.detected).sum()
    }

    /// `true` when every injected fault was detected (the campaign's
    /// headline requirement).
    pub fn fully_detected(&self) -> bool {
        self.injected() == self.detected()
    }

    /// Renders the human-readable campaign table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} rounds ({} injected, {} controls), {} strict rejections, \
             {} reconverged",
            self.rounds,
            self.rounds - self.control_rounds,
            self.control_rounds,
            self.strict_rejections,
            self.reconverged,
        );
        let _ = writeln!(
            s,
            "{:<10} {:>9} {:>9} {:>9}",
            "class", "injected", "detected", "salvaged"
        );
        for (class, t) in &self.per_class {
            let _ = writeln!(
                s,
                "{:<10} {:>9} {:>9} {:>9}",
                class.label(),
                t.injected,
                t.detected,
                t.salvaged
            );
        }
        let _ = writeln!(
            s,
            "detection: {}/{} ({})",
            self.detected(),
            self.injected(),
            if self.fully_detected() {
                "complete"
            } else {
                "INCOMPLETE"
            },
        );
        s
    }
}

sw_trace::json_record!(ToJson for FaultCampaignReport {
    rounds,
    control_rounds,
    strict_rejections,
    reconverged,
    injected => FaultCampaignReport::injected,
    detected => FaultCampaignReport::detected,
    fully_detected => FaultCampaignReport::fully_detected,
    per_class => |r| r.per_class.iter().map(|&(class, t)| ClassRow(class, t)).collect::<Vec<_>>(),
    metrics,
});

/// One `per_class` row: the class label beside its tally.
struct ClassRow(FaultClass, ClassTally);

sw_trace::json_record!(ToJson for ClassRow {
    class => |r| r.0,
    injected => |r| r.1.injected,
    detected => |r| r.1.detected,
    salvaged => |r| r.1.salvaged,
});

/// End-of-run occupancy of one heap pool ([`Experiment::run_heap_report`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolOccupancy {
    /// Pool index.
    pub pool: usize,
    /// Arena capacity in cache lines.
    pub arena_lines: u64,
    /// Lines consumed by the setup-time carve frontier.
    pub carved_lines: u64,
    /// Live blocks (carves + dynamic allocations).
    pub live_blocks: u64,
    /// Lines held by live blocks.
    pub live_lines: u64,
    /// Lines on the buddy free lists.
    pub free_lines: u64,
    /// Largest contiguous free block, in lines.
    pub largest_free_lines: u64,
    /// External fragmentation: `1 - largest_free / free` (0 when empty).
    pub fragmentation: f64,
    /// Next allocator-journal slot (journal occupancy).
    pub journal_next_slot: u64,
    /// Checkpoints this pool wrote.
    pub checkpoints: u64,
}

/// What [`Experiment::run_heap_report`] measured — `swctl heap`.
#[derive(Debug, Clone)]
pub struct HeapReport {
    /// Per-pool occupancy, pool order.
    pub pools: Vec<PoolOccupancy>,
    /// Setup-time frontier carves across pools.
    pub carves: u64,
    /// Run-time dynamic allocations across pools.
    pub allocs: u64,
    /// Run-time frees across pools.
    pub frees: u64,
    /// Journal checkpoints across pools.
    pub checkpoints: u64,
}

impl HeapReport {
    /// Renders the human-readable occupancy table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} carves, {} allocs, {} frees, {} checkpoints",
            self.carves, self.allocs, self.frees, self.checkpoints
        );
        let _ = writeln!(
            s,
            "{:<5} {:>11} {:>8} {:>7} {:>7} {:>9} {:>9} {:>6} {:>8}",
            "pool",
            "arena_lines",
            "carved",
            "blocks",
            "lines",
            "free",
            "largest",
            "frag",
            "journal"
        );
        for p in &self.pools {
            let _ = writeln!(
                s,
                "{:<5} {:>11} {:>8} {:>7} {:>7} {:>9} {:>9} {:>6.3} {:>8}",
                p.pool,
                p.arena_lines,
                p.carved_lines,
                p.live_blocks,
                p.live_lines,
                p.free_lines,
                p.largest_free_lines,
                p.fragmentation,
                p.journal_next_slot,
            );
        }
        s
    }
}

sw_trace::json_record!(ToJson for PoolOccupancy {
    pool,
    arena_lines,
    carved_lines,
    live_blocks,
    live_lines,
    free_lines,
    largest_free_lines,
    fragmentation,
    journal_next_slot,
    checkpoints,
});

sw_trace::json_record!(ToJson for HeapReport { carves, allocs, frees, checkpoints, pools });

/// What [`Experiment::run_heap_smoke`] measured — `swctl heap --verify`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapSmokeReport {
    /// Crash states audited.
    pub rounds: usize,
    /// In-flight allocations reclaimed across all rounds (leaks that
    /// recovery repaired; zero remain afterwards by construction of the
    /// passing check).
    pub reclaimed_blocks: u64,
    /// Rounds in which at least one leak was found and reclaimed.
    pub rounds_with_leaks: usize,
    /// Blocks reachable from persistent roots across all rounds.
    pub rooted_blocks: u64,
}

impl HeapSmokeReport {
    /// Renders the human-readable smoke summary.
    pub fn render(&self) -> String {
        format!(
            "{} crash states: {} rooted blocks verified live, {} leaked \
             allocations reclaimed ({} rounds leaked), zero leaks remain\n",
            self.rounds, self.rooted_blocks, self.reclaimed_blocks, self.rounds_with_leaks
        )
    }
}

sw_trace::json_record!(ToJson for HeapSmokeReport {
    rounds,
    reclaimed_blocks,
    rounds_with_leaks,
    rooted_blocks,
    zero_leaks => |_| true,
});

/// Runs one benchmark × language model across every registered hardware
/// design with identical logical work, returning `(design, stats)` pairs
/// in the paper's presentation order. The Figure 7 generator calls this
/// per cell.
pub fn design_sweep(
    bench: BenchmarkId,
    lang: LangModel,
    scale: &Experiment,
) -> Vec<(HwDesign, SimStats)> {
    design_sweep_of(&HwDesign::ALL, bench, lang, scale)
}

/// As [`design_sweep`], restricted to `designs` (the `swctl --design`
/// filter). Designs run concurrently — each cell drives its own workload
/// copy and owns its machine, so the only shared state is the read-only
/// scale template.
pub fn design_sweep_of(
    designs: &[HwDesign],
    bench: BenchmarkId,
    lang: LangModel,
    scale: &Experiment,
) -> Vec<(HwDesign, SimStats)> {
    // The trace recorder handle is single-threaded (`Rc` inside), so the
    // whole `Experiment` cannot cross a thread boundary; capture only the
    // plain scale fields and run every sweep cell untraced.
    let strategy = scale.strategy;
    let threads = scale.threads;
    let total_regions = scale.total_regions;
    let ops_per_region = scale.ops_per_region;
    let seed = scale.seed;
    let sim = &scale.sim;
    let metrics = scale.metrics;
    let profile = scale.profile;
    let cell = move |design: HwDesign| {
        let e = Experiment {
            bench,
            lang,
            design,
            strategy,
            threads,
            total_regions,
            ops_per_region,
            seed,
            sim: sim.clone(),
            trace: None,
            metrics,
            profile,
        };
        (design, e.run_timing())
    };
    // On a single hardware thread the spawns only add scheduler overhead
    // (each cell is pure compute); run inline there.
    if !host_is_multicore() {
        return designs.iter().map(|&d| cell(d)).collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = designs
            .iter()
            .map(|&design| s.spawn(move || cell(design)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("design sweep thread panicked"))
            .collect()
    })
}

/// `true` when the host offers more than one hardware thread, i.e. when
/// fanning sweep cells out across OS threads can actually overlap work.
/// The sweep helpers (and `sw-bench`'s figure harness) fall back to inline
/// execution otherwise — same results, no scheduler overhead.
pub fn host_is_multicore() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_faults::{DeviceFault, DeviceFaultClass, DeviceFaultSchedule, FaultTrigger};
    use sw_trace::ToJson;

    fn small(bench: BenchmarkId, lang: LangModel, design: HwDesign) -> Experiment {
        Experiment::new(bench, lang, design)
            .threads(2)
            .total_regions(24)
    }

    #[test]
    fn timing_run_produces_cycles_and_clwbs() {
        let stats = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver).run_timing();
        assert!(stats.cycles > 0);
        assert!(stats.total_clwbs() > 0);
        assert!(!stats.pm_write_order.is_empty());
    }

    #[test]
    fn strandweaver_beats_intel_on_queue() {
        let sw = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver).run_timing();
        let intel = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::IntelX86).run_timing();
        assert!(
            intel.cycles > sw.cycles,
            "intel {} should be slower than strandweaver {}",
            intel.cycles,
            sw.cycles
        );
    }

    #[test]
    fn crash_campaign_passes_for_recoverable_designs() {
        // Eadr is recoverable with zero runtime fences: strict persistency
        // makes every crash state a prefix of the execution order.
        for design in [HwDesign::StrandWeaver, HwDesign::IntelX86, HwDesign::Eadr] {
            small(BenchmarkId::Queue, LangModel::Txn, design)
                .run_crash_campaign(15)
                .unwrap_or_else(|e| panic!("{design}: {e}"));
        }
    }

    #[test]
    fn native_crash_campaign_passes_on_eadr() {
        small(BenchmarkId::Queue, LangModel::Native, HwDesign::Eadr)
            .run_crash_campaign(15)
            .unwrap();
    }

    #[test]
    fn crash_campaign_catches_non_atomic() {
        let e = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::NonAtomic).total_regions(40);
        assert!(
            e.run_crash_campaign(150).is_err(),
            "non-atomic must eventually corrupt"
        );
    }

    #[test]
    fn crash_campaign_failures_embed_a_reproducer() {
        let e = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::NonAtomic)
            .total_regions(40)
            .seed(77);
        let err = e.run_crash_campaign(150).unwrap_err();
        assert!(err.contains("seed 77"), "{err}");
        assert!(
            err.contains("swctl crash queue --lang txn --design non-atomic"),
            "{err}"
        );
        assert!(err.contains("--rounds 150 --seed 77"), "{err}");
    }

    #[test]
    fn fault_campaign_detects_every_injection() {
        let report = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .run_fault_campaign(9)
            .expect("campaign must pass on recoverable hardware");
        assert!(
            report.injected() > 0,
            "sampled crash states should expose live log entries"
        );
        assert!(report.fully_detected(), "{}", report.render());
        assert_eq!(report.reconverged, report.rounds);
        assert_eq!(
            report.metrics.counter("faults.injected"),
            Some(report.injected() as u64)
        );
        assert_eq!(
            report.metrics.counter("faults.detected"),
            Some(report.detected() as u64)
        );
    }

    #[test]
    fn heap_report_accounts_pools_and_counters() {
        let report = small(BenchmarkId::Hashmap, LangModel::Txn, HwDesign::StrandWeaver)
            .run_heap_report(false)
            .expect("hashmap always has a heap report");
        assert!(report.carves > 0, "setup carves via the allocator");
        let p0 = &report.pools[0];
        assert!(p0.live_blocks > 0 && p0.carved_lines > 0);
        assert!(p0.live_lines + p0.free_lines <= p0.arena_lines);
        assert!((0.0..=1.0).contains(&p0.fragmentation));
        // Plain mode serves inserts from the pre-carved arena: no
        // dynamic allocator traffic. Churn mode allocates and frees.
        assert_eq!(report.allocs, 0);
        assert_eq!(report.frees, 0);
        let churn = small(BenchmarkId::Hashmap, LangModel::Txn, HwDesign::StrandWeaver)
            .run_heap_report(true)
            .expect("hashmap has a churn mode");
        assert!(churn.allocs > 0, "churn inserts allocate nodes");
        assert!(churn.frees > 0, "relocating updates free displaced nodes");
        // JSON form carries the pools array.
        let json = report.to_json().render();
        assert!(json.contains("\"pools\":["), "{json}");
        assert!(json.contains("\"fragmentation\":"), "{json}");
    }

    #[test]
    fn heap_report_errors_on_churn_free_benchmarks() {
        let err = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .run_heap_report(true)
            .unwrap_err();
        assert!(err.contains("no allocator-churn mode"), "{err}");
    }

    #[test]
    fn heap_smoke_reclaims_native_leaks_to_zero() {
        // Native on eADR has no logs: a crash can persist an allocation's
        // journal record while the publishing store is still in flight,
        // leaking the block. The smoke must find and reclaim such leaks.
        let report = small(BenchmarkId::Hashmap, LangModel::Native, HwDesign::Eadr)
            .total_regions(40)
            .run_heap_smoke(60)
            .expect("smoke must pass");
        assert!(report.rooted_blocks > 0);
        assert!(
            report.reclaimed_blocks > 0,
            "log-free churn must leak across {} rounds: {}",
            report.rounds,
            report.render()
        );
    }

    #[test]
    fn heap_smoke_is_leak_free_for_logged_models() {
        // Undo logging rolls the allocator journal back with everything
        // else: a recovered image never holds an unreachable committed
        // allocation.
        let report = small(BenchmarkId::Hashmap, LangModel::Txn, HwDesign::StrandWeaver)
            .run_heap_smoke(25)
            .expect("smoke must pass");
        assert!(report.rooted_blocks > 0);
        assert_eq!(
            report.reclaimed_blocks,
            0,
            "transactional churn cannot leak: {}",
            report.render()
        );
    }

    #[test]
    fn heap_fault_campaign_detects_every_injection() {
        let report = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .run_heap_fault_campaign(9)
            .expect("allocator campaign must pass on recoverable hardware");
        assert!(
            report.injected() > 0,
            "setup carves guarantee published allocator-journal records"
        );
        assert!(report.fully_detected(), "{}", report.render());
        assert_eq!(report.control_rounds, 0);
        assert_eq!(report.reconverged, report.rounds);
        // Every fatal (bitflip-corrupt, poison) round both rejected under
        // Strict and quarantined exactly one pool under Salvage.
        let fatal_detected: usize = report.per_class.iter().map(|(_, t)| t.salvaged).sum();
        assert_eq!(report.strict_rejections, fatal_detected);
        assert!(fatal_detected > 0, "{}", report.render());
        assert_eq!(
            report.metrics.counter("alloc_faults.injected"),
            Some(report.injected() as u64)
        );
    }

    #[test]
    fn heap_fault_campaign_works_on_log_free_native() {
        // Native writes no workload log, but setup still journals its
        // heap carves: the allocator campaign has targets everywhere.
        let report = small(BenchmarkId::Queue, LangModel::Native, HwDesign::Eadr)
            .run_heap_fault_campaign(6)
            .expect("allocator metadata is model-independent");
        assert!(report.injected() > 0);
        assert!(report.fully_detected(), "{}", report.render());
    }

    #[test]
    fn heap_fault_campaign_replays_from_its_seed() {
        let run = || {
            small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
                .seed(31)
                .run_heap_fault_campaign(6)
                .expect("campaign")
        };
        assert_eq!(run().per_class, run().per_class);
    }

    #[test]
    fn fault_campaign_on_log_free_native_is_all_controls() {
        // The Native model writes no log entries, so there is nothing to
        // inject into: every round is an uninjected `Strict` control.
        let report = small(BenchmarkId::Queue, LangModel::Native, HwDesign::Eadr)
            .run_fault_campaign(6)
            .expect("log-free campaign is a pure false-positive check");
        assert_eq!(report.control_rounds, report.rounds);
        assert_eq!(report.injected(), 0);
        assert_eq!(report.strict_rejections, 0);
    }

    #[test]
    fn fault_campaign_replays_from_its_seed() {
        let run = || {
            small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
                .seed(99)
                .run_fault_campaign(6)
                .expect("campaign")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.per_class, b.per_class);
        assert_eq!(a.control_rounds, b.control_rounds);
        assert_eq!(a.strict_rejections, b.strict_rejections);
    }

    #[test]
    fn fault_campaign_report_renders_and_serializes() {
        let report = small(BenchmarkId::ArraySwap, LangModel::Sfr, HwDesign::IntelX86)
            .run_fault_campaign(6)
            .expect("campaign");
        let text = report.render();
        assert!(text.contains("bitflip"), "{text}");
        let json = report.to_json().render();
        for key in ["per_class", "fully_detected", "faults.injected"] {
            assert!(json.contains(key), "{json}");
        }
    }

    #[test]
    fn traced_fault_campaign_emits_injection_and_detection_events() {
        let rec = sw_trace::RingRecorder::new(1 << 16);
        let report = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .traced(rec.clone())
            .run_fault_campaign(6)
            .expect("campaign");
        let events = rec.events();
        let count = |kind: &str| events.iter().filter(|e| e.event.kind() == kind).count();
        assert_eq!(count("fault_injected"), report.injected());
        assert!(count("corruption_detected") >= report.detected());
        assert!(count("region_salvaged") > 0);
    }

    #[test]
    fn traced_run_records_events_and_metrics() {
        let rec = sw_trace::RingRecorder::new(1 << 18);
        let stats = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .traced(rec.clone())
            .with_metrics()
            .run_timing();
        assert!(!rec.is_empty(), "traced run recorded events");
        assert!(!stats.metrics.is_empty(), "metrics snapshot populated");
        assert_eq!(
            stats.metrics.counter("pm.writes_accepted"),
            Some(stats.pm_write_order.len() as u64)
        );
    }

    #[test]
    fn design_sweep_covers_all_designs() {
        let scale = small(
            BenchmarkId::ArraySwap,
            LangModel::Sfr,
            HwDesign::StrandWeaver,
        );
        let results = design_sweep(BenchmarkId::ArraySwap, LangModel::Sfr, &scale);
        assert_eq!(results.len(), HwDesign::ALL.len());
        assert!(results.iter().all(|(_, s)| s.cycles > 0));
        // Parallel execution must preserve the presentation order.
        let order: Vec<HwDesign> = results.iter().map(|(d, _)| *d).collect();
        assert_eq!(order, HwDesign::ALL.to_vec());
    }

    #[test]
    fn filtered_sweep_runs_only_requested_designs() {
        let scale = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver);
        let designs = [HwDesign::IntelX86, HwDesign::Eadr];
        let results = design_sweep_of(&designs, BenchmarkId::Queue, LangModel::Txn, &scale);
        let order: Vec<HwDesign> = results.iter().map(|(d, _)| *d).collect();
        assert_eq!(order, designs.to_vec());
    }

    #[test]
    fn chaos_campaign_heals_faults_and_respects_pmo() {
        let report = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .run_chaos_campaign(3)
            .expect("campaign must pass on recoverable hardware");
        assert!(report.online.retries_succeeded >= 1, "{}", report.render());
        assert!(report.online.lines_remapped >= 1, "{}", report.render());
        assert!(report.pmo_edges_checked > 0);
        assert_eq!(report.reconverged_strict, 3);
        assert_eq!(report.reconverged_salvage, 3);
        assert_eq!(report.remap_prefix_checks, 3);
        assert_eq!(report.silent_corruptions, 0);
        // The armed heap line is hot in the queue workload: the MCE must
        // fire, fail-stop under Strict, and quarantine under Salvage.
        assert!(report.mce_traps >= 1, "{}", report.render());
        assert!(report.mce_strict_aborted);
        assert!(!report.mce_quarantined.is_empty());
    }

    #[test]
    fn chaos_campaign_replays_from_its_seed() {
        let run = || {
            small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
                .seed(42)
                .run_chaos_campaign(3)
                .expect("campaign")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.online, b.online);
        assert_eq!(a.pmo_edges_checked, b.pmo_edges_checked);
        assert_eq!(a.mce_traps, b.mce_traps);
        assert_eq!(a.mce_quarantined, b.mce_quarantined);
    }

    #[test]
    fn chaos_campaign_rejects_illegal_cells() {
        let err = small(
            BenchmarkId::Queue,
            LangModel::Native,
            HwDesign::StrandWeaver,
        )
        .run_chaos_campaign(1)
        .unwrap_err();
        assert!(err.contains("not legal"), "{err}");
    }

    #[test]
    fn chaos_failures_embed_a_reproducer() {
        // Every campaign's reproducer names its own subcommand and switch:
        // `faults` alone replays the log campaign, and `heap` without
        // `--verify` runs the occupancy report instead of the smoke.
        use crate::campaign::Kind;
        let e = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver).seed(123);
        for (kind, command) in [
            (Kind::Crash, "swctl crash queue --lang"),
            (Kind::Faults, "swctl faults queue --lang"),
            (Kind::HeapFaults, "swctl faults queue --heap --lang"),
            (Kind::HeapSmoke, "swctl heap queue --verify --lang"),
            (Kind::Chaos, "swctl chaos queue --lang"),
        ] {
            let msg = e.campaign_failure(kind, 5, 2, "boom".into());
            assert!(msg.starts_with("round 2: boom\n  seed 123: "), "{msg}");
            let repro = format!(
                "`{command} txn --design strandweaver --threads 2 --regions 24 --ops 4 \
                 --rounds 5 --seed 123`"
            );
            assert!(msg.ends_with(&repro), "{kind:?}: {msg}");
        }
    }

    #[test]
    fn fault_campaign_reports_do_not_depend_on_tracing() {
        // The traced injection and salvage paths of both sites must leave
        // every tally unchanged, and the heap site emits one
        // `fault_injected` event (pool-owned, heap-labelled) per injection.
        for heap in [false, true] {
            let run = |e: Experiment| {
                if heap {
                    e.run_heap_fault_campaign(6)
                } else {
                    e.run_fault_campaign(6)
                }
                .expect("campaign")
            };
            let cell = || small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver).seed(5);
            let rec = sw_trace::RingRecorder::new(1 << 16);
            let plain = run(cell());
            let traced = run(cell().traced(rec.clone()));
            assert_eq!(plain.to_json().render(), traced.to_json().render());
            assert!(traced.injected() > 0);
            if heap {
                let injections: Vec<_> = rec
                    .events()
                    .into_iter()
                    .filter_map(|e| match e.event {
                        sw_trace::TraceEvent::FaultInjected { thread, class, .. } => {
                            Some((thread, class))
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(injections.len(), traced.injected());
                assert!(
                    injections
                        .iter()
                        .all(|&(t, c)| t == u32::MAX && c.starts_with("heap-")),
                    "{injections:?}"
                );
            }
        }
    }

    #[test]
    fn chaos_campaign_report_renders_and_serializes() {
        let report = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .run_chaos_campaign(2)
            .expect("campaign");
        let text = report.render();
        assert!(text.contains("faults.online.retries_succeeded"), "{text}");
        let json = report.to_json().render();
        for key in [
            "faults.online.lines_remapped",
            "silent_corruptions",
            "mce_strict_aborted",
        ] {
            assert!(json.contains(key), "{json}");
        }
    }

    #[test]
    fn traced_run_with_faults_emits_device_events() {
        let mut sched = DeviceFaultSchedule::none();
        for w in [1u64, 3] {
            sched.faults.push(DeviceFault {
                class: DeviceFaultClass::TransientWriteFail,
                trigger: FaultTrigger::NthWrite(w),
                sticky: false,
            });
        }
        sched.faults.push(DeviceFault {
            class: DeviceFaultClass::PermanentMediaError,
            trigger: FaultTrigger::NthWrite(2),
            sticky: true,
        });
        let rec = sw_trace::RingRecorder::new(1 << 18);
        let mut e = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .traced(rec.clone())
            .with_metrics();
        e.sim = e.sim.clone().with_device_faults(sched);
        let stats = e.run_timing();
        let events = rec.events();
        let count = |kind: &str| events.iter().filter(|e| e.event.kind() == kind).count();
        assert!(count("device_fault") >= 2, "transient + permanent classes");
        assert!(count("persist_retried") >= 1);
        assert!(count("line_remapped") >= 1);
        let online = stats.online_faults.expect("fault unit installed");
        assert_eq!(
            stats.metrics.counter("faults.online.persist_retries"),
            Some(online.retries_succeeded)
        );
        assert_eq!(
            stats.metrics.counter("faults.online.lines_remapped"),
            Some(online.lines_remapped)
        );
    }

    #[test]
    fn chaos_sweep_covers_every_legal_cell() {
        let scale = small(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver);
        let report = chaos_sweep(&scale, 1).expect("sweep");
        let legal = HwDesign::ALL
            .iter()
            .flat_map(|&d| LangModel::ALL.iter().filter(move |l| l.legal_on(d)))
            .count();
        assert_eq!(report.cells.len(), legal);
        assert!(report.online.retries_succeeded >= 1);
        assert!(report.online.lines_remapped >= 1);
        let text = report.render();
        assert!(text.contains("0 silent corruptions"), "{text}");
        let json = report.to_json().render();
        assert!(json.contains("\"cells\""), "{json}");
    }
}

#[cfg(test)]
mod redo_experiment_tests {
    use super::*;

    #[test]
    fn redo_workloads_run_and_recover() {
        for bench in [
            BenchmarkId::Queue,
            BenchmarkId::Hashmap,
            BenchmarkId::RbTree,
        ] {
            let mut e = Experiment::new(bench, LangModel::Txn, HwDesign::StrandWeaver)
                .threads(2)
                .total_regions(20)
                .redo();
            e.ops_per_region = 2;
            e.run_crash_campaign(10)
                .unwrap_or_else(|err| panic!("{bench}: {err}"));
        }
    }

    #[test]
    fn redo_beats_undo_under_strands() {
        // The Section VII claim: per-region drains disappear under redo, so
        // redo should be at least as fast as undo on StrandWeaver hardware.
        let mk = |redo: bool| {
            let e = Experiment::new(BenchmarkId::Hashmap, LangModel::Txn, HwDesign::StrandWeaver)
                .threads(2)
                .total_regions(40);
            if redo { e.redo() } else { e }.run_timing()
        };
        let undo = mk(false);
        let redo = mk(true);
        assert!(
            redo.cycles <= undo.cycles,
            "redo {} should not be slower than undo {}",
            redo.cycles,
            undo.cycles
        );
    }
}
