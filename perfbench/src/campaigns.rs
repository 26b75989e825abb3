//! `campaigns`: crash-consistency campaigns over the Table II benchmarks ×
//! {txn, sfr, atlas} × {intel-x86, hops, strandweaver}, the log and heap
//! fault campaigns, the chaos sweep, the heap `--verify` smoke, and a
//! negative control (non-atomic must be caught INCONSISTENT). PMO
//! construction, crash-image building, recovery and the oracles dominate;
//! the simulator barely runs.
//!
//! At the default seed every campaign uses its `ci.sh` seed (the crash
//! campaigns the `swctl crash` default) and the `ci.sh` tallies are checked
//! too; at any other seed each campaign's seed is derived from it and only
//! the invariants are checked.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use strandweaver::experiment::{
    chaos_sweep, ChaosSweepReport, Experiment, FaultCampaignReport, HeapSmokeReport,
};
use strandweaver::faults::FaultClass;
use strandweaver::lang::harness::{check_replay_consistency, CrashOutcome};
use strandweaver::lang::recovery::recover;
use strandweaver::lang::Consistency;
use strandweaver::model::crash::{materialize, sample_set};
use strandweaver::workloads::driver::{drive, DriverParams};
use strandweaver::{BenchmarkId, HwDesign, LangModel, Pmo};

use crate::layers::{with_minflt, Layers};
use crate::seeds::RunSeed;
use crate::spans::Tracer;
use crate::verdict::Verdict;

/// Language models of the crash campaigns (the logged ones).
const CRASH_LANGS: [LangModel; 3] = [LangModel::Txn, LangModel::Sfr, LangModel::Atlas];
/// Designs of the crash campaigns.
const CRASH_DESIGNS: [HwDesign; 3] = [HwDesign::IntelX86, HwDesign::Hops, HwDesign::StrandWeaver];
/// Crash states sampled per crash campaign.
pub const CRASH_ROUNDS: usize = 5;
/// Rounds the negative control may take to find its inconsistency.
const CONTROL_ROUNDS: usize = 300;
/// Rounds of each fault campaign, as in `ci.sh`.
const FAULT_ROUNDS: usize = 9;
/// Rounds per cell of the chaos sweep, as in `ci.sh`.
const CHAOS_ROUNDS: usize = 3;
/// Rounds of the heap smoke, as in `ci.sh`.
const HEAP_SMOKE_ROUNDS: usize = 40;

/// What one pass of the campaigns returned.
#[derive(Debug, Clone)]
pub struct CampaignResults {
    /// One result per crash campaign, in sweep order.
    pub crash: Vec<Result<(), String>>,
    /// The non-atomic negative control (must be an error).
    pub control: Result<(), String>,
    /// Log fault campaign.
    pub faults: Result<FaultCampaignReport, String>,
    /// Heap (allocator-metadata) fault campaign.
    pub heap_faults: Result<FaultCampaignReport, String>,
    /// Chaos sweep over every legal design × model pair.
    pub chaos: Result<ChaosSweepReport, String>,
    /// Heap `--verify` smoke.
    pub heap_smoke: Result<HeapSmokeReport, String>,
}

/// The campaign cells at one seed.
#[derive(Debug)]
pub struct Campaigns {
    crash: Vec<Experiment>,
    control: Experiment,
    faults: Experiment,
    heap_faults: Experiment,
    chaos: Experiment,
    heap_smoke: Experiment,
    pinned: bool,
}

fn sized(e: Experiment, threads: usize, regions: usize, ops: usize, seed: u64) -> Experiment {
    e.threads(threads)
        .total_regions(regions)
        .ops_per_region(ops)
        .seed(seed)
}

impl Campaigns {
    /// Builds the campaign cells for `seed` and runs one crash round as a
    /// warm-up.
    pub fn setup(seed: RunSeed) -> Self {
        let mut crash = Vec::new();
        for b in BenchmarkId::ALL {
            for l in CRASH_LANGS {
                for d in CRASH_DESIGNS {
                    let s = seed.unit(1234, 0xc4a5, crash.len() as u64);
                    crash.push(sized(Experiment::new(b, l, d), 2, 24, 2, s));
                }
            }
        }
        let queue = |lang, design| Experiment::new(BenchmarkId::Queue, lang, design);
        let sw = HwDesign::StrandWeaver;
        let c = Campaigns {
            control: sized(
                queue(LangModel::Txn, HwDesign::NonAtomic),
                2,
                24,
                2,
                seed.unit(1234, 0xc047, 0),
            ),
            faults: sized(
                queue(LangModel::Txn, sw),
                2,
                16,
                2,
                seed.unit(42, 0xfa01, 0),
            ),
            heap_faults: sized(
                queue(LangModel::Txn, sw),
                2,
                16,
                2,
                seed.unit(42, 0x4ea9, 0),
            ),
            chaos: sized(queue(LangModel::Txn, sw), 2, 24, 2, seed.unit(1, 0xc4a0, 0)),
            heap_smoke: sized(
                Experiment::new(BenchmarkId::Hashmap, LangModel::Native, HwDesign::Eadr),
                2,
                40,
                2,
                seed.unit(7, 0x4eaf, 0),
            ),
            crash,
            pinned: seed.is_default(),
        };
        std::hint::black_box(c.crash[0].run_crash_campaign(1)).ok();
        c
    }

    /// Untraced pass: every campaign through its `Experiment` method.
    pub fn run(&self) -> CampaignResults {
        CampaignResults {
            crash: self
                .crash
                .iter()
                .map(|e| e.run_crash_campaign(CRASH_ROUNDS))
                .collect(),
            control: self.control.run_crash_campaign(CONTROL_ROUNDS),
            faults: self.faults.run_fault_campaign(FAULT_ROUNDS),
            heap_faults: self.heap_faults.run_heap_fault_campaign(FAULT_ROUNDS),
            chaos: chaos_sweep(&self.chaos, CHAOS_ROUNDS),
            heap_smoke: self.heap_smoke.run_heap_smoke(HEAP_SMOKE_ROUNDS),
        }
    }

    /// Traced pass: the crash campaigns and the control replayed from their
    /// layer calls (drive, PMO, crash image, recovery, oracle), the other
    /// campaigns timed as whole calls.
    pub fn run_traced(&self, tr: &mut Tracer, layers: &mut Layers) -> CampaignResults {
        let mut cell = 0u32;
        let mut next = || {
            cell += 1;
            cell
        };
        let crash = self
            .crash
            .iter()
            .map(|e| traced_crash(tr, layers, e, CRASH_ROUNDS, next()))
            .collect();
        let control = traced_crash(tr, layers, &self.control, CONTROL_ROUNDS, next());
        let faults = tr.span("campaign.faults", next(), || {
            self.faults.run_fault_campaign(FAULT_ROUNDS)
        });
        let heap_faults = tr.span("campaign.heap_faults", next(), || {
            self.heap_faults.run_heap_fault_campaign(FAULT_ROUNDS)
        });
        let chaos = tr.span("campaign.chaos", next(), || {
            chaos_sweep(&self.chaos, CHAOS_ROUNDS)
        });
        let heap_smoke = tr.span("campaign.heap_smoke", next(), || {
            self.heap_smoke.run_heap_smoke(HEAP_SMOKE_ROUNDS)
        });
        let r = CampaignResults {
            crash,
            control,
            faults,
            heap_faults,
            chaos,
            heap_smoke,
        };
        let (injected, detected) = [&r.faults, &r.heap_faults]
            .into_iter()
            .flatten()
            .fold((0, 0), |(i, d), f| (i + f.injected(), d + f.detected()));
        layers.set(
            "campaign.faults_detected_ratio",
            if injected == 0 {
                0.0
            } else {
                detected as f64 / injected as f64
            },
        );
        r
    }

    /// Checks every campaign's verdict (and, at the default seed, the
    /// `ci.sh` tallies).
    pub fn verify(&self, r: &CampaignResults) -> Verdict {
        let mut v = Verdict::default();
        let mut states = 0u64;
        v.check(r.crash.len() == self.crash.len(), || {
            format!(
                "{} crash campaigns, want {}",
                r.crash.len(),
                self.crash.len()
            )
        });
        for (e, res) in self.crash.iter().zip(&r.crash) {
            v.check(res.is_ok(), || {
                format!(
                    "crash {} {} {}: {}",
                    e.bench,
                    e.lang,
                    e.design,
                    res.as_ref().err().map_or("", String::as_str)
                )
            });
            if res.is_ok() {
                states += CRASH_ROUNDS as u64;
            }
        }
        v.check(r.control.is_err(), || {
            "negative control: non-atomic crash campaign reported consistent".into()
        });
        for (name, res, pinned_detected) in [
            ("faults", &r.faults, None),
            ("heap faults", &r.heap_faults, Some(9)),
        ] {
            match res {
                Ok(f) => {
                    v.check(f.fully_detected(), || {
                        format!(
                            "{name}: {} of {} faults detected",
                            f.detected(),
                            f.injected()
                        )
                    });
                    states += f.rounds as u64;
                    if self.pinned {
                        let bitflip = f.per_class.iter().find(|(c, _)| *c == FaultClass::BitFlip);
                        v.check(
                            bitflip.is_some_and(|(_, t)| t.injected == 3 && t.detected == 3),
                            || format!("{name}: bitflip tally {bitflip:?}, want 3 of 3"),
                        );
                        if let Some(want) = pinned_detected {
                            v.check(f.detected() == want, || {
                                format!("{name}: {} detected, want {want}", f.detected())
                            });
                        }
                    }
                }
                Err(e) => v.check(false, || format!("{name}: {e}")),
            }
        }
        match &r.chaos {
            Ok(c) => {
                let silent: usize = c.cells.iter().map(|x| x.silent_corruptions).sum();
                v.check(silent == 0, || {
                    format!("chaos: {silent} silent corruptions")
                });
                states += c.cells.iter().map(|x| x.rounds as u64).sum::<u64>();
            }
            Err(e) => v.check(false, || format!("chaos: {e}")),
        }
        match &r.heap_smoke {
            Ok(h) => {
                v.check(true, String::new);
                states += h.rounds as u64;
                if self.pinned {
                    v.check(h.reclaimed_blocks == 20, || {
                        format!(
                            "heap smoke: {} blocks reclaimed, want 20",
                            h.reclaimed_blocks
                        )
                    });
                }
            }
            Err(e) => v.check(false, || format!("heap smoke: {e}")),
        }
        v.work = states;
        v.count("campaign.crash_states", states);
        v
    }
}

/// `e.run_crash_campaign(rounds)` replayed from its layer calls, each in a
/// span, inside one `campaign.crash` span.
fn traced_crash(
    tr: &mut Tracer,
    layers: &mut Layers,
    e: &Experiment,
    rounds: usize,
    cell: u32,
) -> Result<(), String> {
    assert_eq!(
        e.lang.consistency(),
        Consistency::ReplayCommitted,
        "the replay covers the logged models"
    );
    let campaign = tr.open("campaign.crash", cell);
    let (workload, out) = with_minflt(
        tr,
        layers,
        "workloads.drive",
        "workloads.drive_minflt",
        cell,
        || {
            let mut workload = e.bench.instantiate();
            let mut params = DriverParams::new(e.design, e.lang)
                .threads(e.threads)
                .total_regions(e.total_regions)
                .ops_per_region(e.ops_per_region)
                .seed(e.seed);
            params.strategy = e.strategy;
            let out = drive(workload.as_mut(), &params);
            (workload, out)
        },
    );
    let mut rng = SmallRng::seed_from_u64(e.seed ^ 0xc0ffee);
    let mut result = Ok(());
    for round in 0..rounds {
        let pmo = tr.span("model.pmo", cell, || {
            Pmo::compute(&out.ctx.execution(), e.design.memory_model())
        });
        layers.add("model.pmo_edges", pmo.num_edges() as f64);
        let (mut image, persisted_stores) = tr.span("model.crash_state", cell, || {
            let set = sample_set(&pmo, &mut rng);
            let persisted = set.iter().filter(|&&b| b).count();
            let state = materialize(&pmo, &set);
            drop(pmo);
            let mut img = out.baseline.clone();
            for (addr, value) in state {
                img.store(addr, value);
            }
            (img, persisted)
        });
        let report = tr.span("lang.recover", cell, || {
            recover(&mut image, out.ctx.mem().layout())
        });
        let outcome = CrashOutcome {
            image,
            report,
            persisted_stores,
        };
        let verdict = tr.span("oracle.check", cell, || {
            check_replay_consistency(&outcome, &out.baseline, &out.regions)
                .and_then(|()| {
                    workload
                        .check(&outcome.image)
                        .map_err(|e| format!("structural check: {e}"))
                })
                .map_err(|e| format!("round {round}: {e}"))
        });
        if verdict.is_err() {
            result = verdict;
            break;
        }
    }
    drop((workload, out));
    tr.close(campaign);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small real pass: one crash campaign, the control, and every other
    /// campaign at its `ci.sh` configuration.
    fn small() -> (Campaigns, CampaignResults) {
        let mut c = Campaigns::setup(RunSeed::new(1234, 1234));
        c.crash.truncate(1);
        let r = c.run();
        (c, r)
    }

    #[test]
    fn default_seed_uses_the_ci_seeds() {
        let c = Campaigns::setup(RunSeed::new(1234, 1234));
        assert!(c.crash.iter().all(|e| e.seed == 1234));
        assert_eq!((c.faults.seed, c.chaos.seed, c.heap_smoke.seed), (42, 1, 7));
        let other = Campaigns::setup(RunSeed::new(5, 1234));
        assert_ne!(other.crash[0].seed, other.crash[1].seed);
    }

    #[test]
    fn each_corrupted_campaign_output_fails_its_check() {
        let (c, r) = small();
        let v = c.verify(&r);
        assert_eq!(v.pass_ratio(), 1.0, "{:?}", v.failures);

        let mut bad = r.clone();
        bad.crash[0] = Err("round 3: lost a committed region".into());
        assert!(c.verify(&bad).pass_ratio() < 1.0);

        let mut bad = r.clone();
        bad.control = Ok(());
        assert!(c.verify(&bad).pass_ratio() < 1.0);

        let mut bad = r.clone();
        if let Ok(f) = &mut bad.faults {
            f.per_class[0].1.detected -= 1;
        }
        assert!(c.verify(&bad).pass_ratio() < 1.0);

        let mut bad = r.clone();
        if let Ok(ch) = &mut bad.chaos {
            ch.cells[0].silent_corruptions = 1;
        }
        assert!(c.verify(&bad).pass_ratio() < 1.0);

        let mut bad = r;
        if let Ok(h) = &mut bad.heap_smoke {
            h.reclaimed_blocks += 1;
        }
        assert!(c.verify(&bad).pass_ratio() < 1.0);
    }

    #[test]
    fn traced_replay_matches_run_crash_campaign() {
        let e = Experiment::new(BenchmarkId::Hashmap, LangModel::Sfr, HwDesign::Hops)
            .threads(2)
            .total_regions(12)
            .ops_per_region(2);
        let mut tr = Tracer::new();
        let mut layers = Layers::default();
        assert_eq!(
            traced_crash(&mut tr, &mut layers, &e, 4, 1),
            e.run_crash_campaign(4)
        );
        assert!(layers.values["model.pmo_edges"] > 0.0);
        assert_eq!(tr.layer_times()["model.pmo"].calls, 4);

        let na = Experiment {
            design: HwDesign::NonAtomic,
            ..e
        };
        let traced = traced_crash(&mut tr, &mut layers, &na, CONTROL_ROUNDS, 2);
        assert!(traced.is_err());
        assert!(na.run_crash_campaign(CONTROL_ROUNDS).is_err());
    }
}
