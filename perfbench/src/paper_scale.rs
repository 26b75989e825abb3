//! `paper-scale`: hashmap, nstore-wr and tpcc under TXN on all six designs
//! at the paper's default scale (8 threads × 240 regions × 4 ops), run
//! serially through `Experiment::run_timing`. The L2 starts warmed with the
//! set-up lines and the L1 starts empty, as in every timing run.
//!
//! Each benchmark's six designs share one seed, so they replay identical
//! logical work. At the default seed each cell's `SimStats` must match the
//! digest pinned in `pinned/paper_scale.txt`; at any seed StrandWeaver must
//! take fewer cycles than Intel x86 on every benchmark.

use strandweaver::experiment::Experiment;
use strandweaver::{BenchmarkId, HwDesign, LangModel, SimStats};

use crate::layers::{timed_run, Layers};
use crate::seeds::RunSeed;
use crate::spans::Tracer;
use crate::verdict::{fnv1a, Verdict, FNV_BASIS};

/// Benchmarks of the workload: high (nstore-wr) to low (tpcc) write
/// intensity.
pub const BENCHES: [BenchmarkId; 3] = [
    BenchmarkId::Hashmap,
    BenchmarkId::NStoreWr,
    BenchmarkId::Tpcc,
];

/// Pinned per-cell digests at the default seed, one `bench design digest`
/// line per cell.
pub const PINNED: &str = include_str!("../pinned/paper_scale.txt");

/// One simulated cell's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Benchmark.
    pub bench: BenchmarkId,
    /// Design.
    pub design: HwDesign,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated events.
    pub events: u64,
    /// Digest of every simulated statistic.
    pub digest: u64,
}

impl CellResult {
    fn new(bench: BenchmarkId, design: HwDesign, mut stats: SimStats) -> Self {
        // The traced pass profiles the machine; the profile is host time,
        // not a simulated statistic.
        stats.perf = None;
        let mut digest = fnv1a(FNV_BASIS, stats.to_json().render().as_bytes());
        for line in &stats.pm_write_order {
            digest = fnv1a(digest, &line.0.to_le_bytes());
        }
        CellResult {
            bench,
            design,
            cycles: stats.cycles,
            events: stats.events.total(),
            digest,
        }
    }

    /// The cell's line in `pinned/paper_scale.txt`.
    pub fn pinned_line(&self) -> String {
        format!(
            "{} {} {:016x}",
            self.bench.label(),
            self.design.label(),
            self.digest
        )
    }
}

/// The workload's cells at one seed.
#[derive(Debug)]
pub struct PaperScale {
    cells: Vec<Experiment>,
    pinned: bool,
}

impl PaperScale {
    /// Builds the cells for `seed` and runs the first one as a warm-up.
    pub fn setup(seed: RunSeed) -> Self {
        let cells: Vec<Experiment> = BENCHES
            .iter()
            .enumerate()
            .flat_map(|(i, &b)| {
                let s = seed.unit(1234, 0x9a9e, i as u64);
                HwDesign::ALL
                    .iter()
                    .map(move |&d| Experiment::new(b, LangModel::Txn, d).seed(s))
            })
            .collect();
        std::hint::black_box(cells[0].run_timing());
        PaperScale {
            cells,
            pinned: seed.is_default(),
        }
    }

    /// Untraced pass.
    pub fn run(&self) -> Vec<CellResult> {
        self.cells
            .iter()
            .map(|e| CellResult::new(e.bench, e.design, e.run_timing()))
            .collect()
    }

    /// Traced pass: the same cells with drive, build and run in spans.
    pub fn run_traced(&self, tr: &mut Tracer, layers: &mut Layers) -> Vec<CellResult> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, e)| CellResult::new(e.bench, e.design, timed_run(tr, layers, e, i as u32)))
            .collect()
    }

    /// Checks digests (at the default seed) and StrandWeaver < Intel x86.
    pub fn verify(&self, cells: &[CellResult]) -> Verdict {
        let mut v = Verdict::default();
        v.check(cells.len() == self.cells.len(), || {
            format!("{} cells, want {}", cells.len(), self.cells.len())
        });
        if self.pinned {
            let pinned: Vec<&str> = PINNED.lines().filter(|l| !l.is_empty()).collect();
            v.check(pinned.len() == self.cells.len(), || {
                format!("{} pinned digests, want {}", pinned.len(), self.cells.len())
            });
            for (c, want) in cells.iter().zip(pinned) {
                let got = c.pinned_line();
                v.check(got == want, || format!("digest {got}, pinned {want}"));
            }
        }
        for bench in BENCHES {
            let cycles = |d: HwDesign| {
                cells
                    .iter()
                    .find(|c| c.bench == bench && c.design == d)
                    .map(|c| c.cycles)
            };
            let (sw, intel) = (cycles(HwDesign::StrandWeaver), cycles(HwDesign::IntelX86));
            v.check(matches!((sw, intel), (Some(s), Some(i)) if s < i), || {
                format!("{bench}: strandweaver cycles {sw:?} not below intel-x86 {intel:?}")
            });
        }
        v.work = cells.iter().map(|c| c.events).sum();
        v.count("sim.events", v.work);
        v.count("sim.cycles", cells.iter().map(|c| c.cycles).sum());
        v.count(
            "sim.digest",
            cells
                .iter()
                .fold(FNV_BASIS, |h, c| fnv1a(h, &c.digest.to_le_bytes())),
        );
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned cells, parsed back into results.
    fn pinned_cells() -> Vec<CellResult> {
        PINNED
            .lines()
            .filter(|l| !l.is_empty())
            .enumerate()
            .map(|(i, l)| {
                let f: Vec<&str> = l.split(' ').collect();
                let bench = BENCHES[i / HwDesign::ALL.len()];
                let design = HwDesign::ALL[i % HwDesign::ALL.len()];
                assert_eq!((f[0], f[1]), (bench.label(), design.label()));
                // Cycles only need the right order for the invariant.
                let cycles = if design == HwDesign::StrandWeaver {
                    1
                } else {
                    2
                };
                CellResult {
                    bench,
                    design,
                    cycles,
                    events: 5,
                    digest: u64::from_str_radix(f[2], 16).expect("hex digest"),
                }
            })
            .collect()
    }

    fn workload(pinned: bool) -> PaperScale {
        let cells = BENCHES
            .iter()
            .flat_map(|&b| {
                HwDesign::ALL
                    .iter()
                    .map(move |&d| Experiment::new(b, LangModel::Txn, d))
            })
            .collect();
        PaperScale { cells, pinned }
    }

    #[test]
    fn pinned_digests_pass() {
        let v = workload(true).verify(&pinned_cells());
        assert_eq!(v.pass_ratio(), 1.0, "{:?}", v.failures);
    }

    #[test]
    fn a_changed_statistic_fails_the_digest_check() {
        let mut cells = pinned_cells();
        cells[4].digest ^= 1;
        let v = workload(true).verify(&cells);
        assert!(v.pass_ratio() < 1.0);
        assert_eq!(v.failures.len(), 1, "{:?}", v.failures);
        // Off the default seed the digests are not pinned.
        assert_eq!(workload(false).verify(&cells).pass_ratio(), 1.0);
    }

    #[test]
    fn strandweaver_slower_than_intel_fails_at_any_seed() {
        let mut cells = pinned_cells();
        for c in cells.iter_mut().filter(|c| c.bench == BenchmarkId::Tpcc) {
            if c.design == HwDesign::StrandWeaver {
                c.cycles = 3;
            }
        }
        let v = workload(false).verify(&cells);
        assert!(v.pass_ratio() < 1.0);
        assert!(v.failures[0].contains("tpcc"), "{:?}", v.failures);
    }

    #[test]
    fn digest_ignores_the_host_profile_only() {
        let e = Experiment::new(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver)
            .threads(2)
            .total_regions(8);
        let plain = e.run_timing();
        let profiled = e.clone().with_profiling().run_timing();
        assert!(profiled.perf.is_some());
        let a = CellResult::new(e.bench, e.design, plain.clone());
        let b = CellResult::new(e.bench, e.design, profiled);
        assert_eq!(a, b);
        let mut moved = plain;
        moved.cycles += 1;
        assert_ne!(CellResult::new(e.bench, e.design, moved).digest, a.digest);
    }
}
