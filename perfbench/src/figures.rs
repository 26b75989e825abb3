//! `figures`: the paper's artifacts (Figures 7–10, Table II and the
//! summary) at the pinned CI scale, called through `Target::run` the way
//! `swctl` calls it, and checked byte for byte against `expected/`.
//!
//! The artifacts are defined at the experiment harness's fixed seed
//! (`Target::run` takes none), so the benchmark seed does not reach this
//! workload and the pinned check applies at every seed.

use strandweaver::experiment::Experiment;
use strandweaver::{BenchmarkId, HwDesign, LangModel};
use sw_bench::{
    fig7_report, fig8_report, lang_sensitivity_report, native_bound_report, summary_report,
    table2_report, MatrixReport, NativeBoundRow, Scale, SweepCell, Table2Row, Target,
    TargetFilters, FIG9_SHAPES, PAPER_CKC,
};

use crate::layers::{timed_run, Layers};
use crate::spans::Tracer;
use crate::verdict::Verdict;

/// The pinned CI scale of `expected/`: 2 threads × 24 regions × 2 ops.
pub const SCALE: Scale = Scale {
    threads: 2,
    regions: 24,
    ops_per_region: 2,
};

/// The artifacts one pass regenerates, in `ci.sh` order.
pub const TARGETS: [Target; 6] = [
    Target::Fig7,
    Target::Fig8,
    Target::Fig9,
    Target::Fig10,
    Target::Table2,
    Target::Summary,
];

/// The microbenchmarks Figures 9 and 10 sweep.
const MICROBENCHES: [BenchmarkId; 4] = [
    BenchmarkId::Queue,
    BenchmarkId::Hashmap,
    BenchmarkId::ArraySwap,
    BenchmarkId::RbTree,
];

/// One regenerated artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// The report text `swctl <target>` prints.
    pub text: String,
    /// Simulated events behind it.
    pub events: u64,
    /// Simulated cycles behind it.
    pub cycles: u64,
}

/// Inputs of the workload: the committed reference outputs.
#[derive(Debug)]
pub struct Figures {
    expected: Vec<String>,
}

fn experiment(bench: BenchmarkId, lang: LangModel, design: HwDesign) -> Experiment {
    Experiment::new(bench, lang, design)
        .threads(SCALE.threads)
        .total_regions(SCALE.regions)
        .ops_per_region(SCALE.ops_per_region)
}

impl Figures {
    /// Loads `expected/` and runs one warm-up cell.
    pub fn setup() -> Result<Self, String> {
        let expected = TARGETS
            .iter()
            .map(|t| {
                let path = format!("expected/{}.txt", t.label());
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        std::hint::black_box(
            experiment(BenchmarkId::Queue, LangModel::Txn, HwDesign::StrandWeaver).run_timing(),
        );
        Ok(Figures { expected })
    }

    /// Untraced pass: every target through `Target::run`.
    pub fn run(&self) -> Vec<Artifact> {
        TARGETS
            .iter()
            .map(|t| {
                let out = t.run(SCALE, &TargetFilters::default());
                Artifact {
                    text: out.text,
                    events: out.events_processed,
                    cycles: out.sim_cycles,
                }
            })
            .collect()
    }

    /// Traced pass: the same cells run serially, with the workload drive,
    /// machine build, machine run and report rendering each in a span.
    pub fn run_traced(&self, tr: &mut Tracer, layers: &mut Layers) -> Vec<Artifact> {
        let mut t = Traced {
            tr,
            layers,
            cell: 0,
        };
        TARGETS.iter().map(|&target| t.target(target)).collect()
    }

    /// Checks each artifact against `expected/`.
    pub fn verify(&self, artifacts: &[Artifact]) -> Verdict {
        let mut v = Verdict::default();
        v.check(artifacts.len() == TARGETS.len(), || {
            format!("{} artifacts, want {}", artifacts.len(), TARGETS.len())
        });
        for ((t, a), want) in TARGETS.iter().zip(artifacts).zip(&self.expected) {
            v.check(&a.text == want, || {
                format!("{} differs from expected/{}.txt", t.label(), t.label())
            });
        }
        v.work = artifacts.iter().map(|a| a.events).sum();
        v.count("sim.events", v.work);
        v.count("sim.cycles", artifacts.iter().map(|a| a.cycles).sum());
        v
    }
}

/// The summary's simulated headline line (StrandWeaver over Intel x86).
pub fn headline(artifacts: &[Artifact]) -> Option<String> {
    let summary = artifacts.get(TARGETS.len() - 1)?;
    summary
        .text
        .lines()
        .find(|l| l.contains("StrandWeaver over Intel x86"))
        .map(|l| l.trim().to_string())
}

struct Traced<'a> {
    tr: &'a mut Tracer,
    layers: &'a mut Layers,
    cell: u32,
}

impl Traced<'_> {
    fn run(&mut self, e: &Experiment) -> strandweaver::SimStats {
        self.cell += 1;
        timed_run(self.tr, self.layers, e, self.cell)
    }

    fn render(&mut self, f: impl FnOnce() -> String) -> String {
        self.tr.span("bench.render", self.cell, f)
    }

    /// `full_sweep_matrix(SCALE, &HwDesign::ALL, &LangModel::ALL)`.
    fn sweep(&mut self) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for lang in LangModel::ALL {
            if !HwDesign::ALL.iter().all(|&d| lang.legal_on(d)) {
                continue;
            }
            for bench in BenchmarkId::ALL {
                let designs = HwDesign::ALL
                    .iter()
                    .map(|&d| (d, self.run(&experiment(bench, lang, d))))
                    .collect();
                cells.push(SweepCell {
                    bench,
                    lang,
                    designs,
                });
            }
        }
        cells
    }

    fn target(&mut self, target: Target) -> Artifact {
        match target {
            Target::Fig7 | Target::Fig8 => {
                let cells = self.sweep();
                let text = self.render(|| {
                    if target == Target::Fig7 {
                        fig7_report(&cells)
                    } else {
                        fig8_report(&cells)
                    }
                });
                Artifact {
                    text,
                    events: cells.iter().map(SweepCell::events_processed).sum(),
                    cycles: cells.iter().map(SweepCell::sim_cycles).sum(),
                }
            }
            Target::Fig9 => self.fig9(),
            Target::Fig10 => self.fig10(),
            Target::Table2 => {
                let rows: Vec<Table2Row> = BenchmarkId::ALL
                    .iter()
                    .zip(PAPER_CKC)
                    .map(|(&bench, paper_ckc)| {
                        let s = self.run(&experiment(bench, LangModel::Txn, HwDesign::NonAtomic));
                        Table2Row {
                            bench,
                            ckc: s.ckc(),
                            paper_ckc,
                            cycles: s.cycles,
                            events_processed: s.events.total(),
                        }
                    })
                    .collect();
                let text = self.render(|| table2_report(&rows));
                Artifact {
                    text,
                    events: rows.iter().map(|r| r.events_processed).sum(),
                    cycles: rows.iter().map(|r| r.cycles).sum(),
                }
            }
            Target::Summary => {
                let cells = self.sweep();
                let native: Vec<NativeBoundRow> = BenchmarkId::ALL
                    .iter()
                    .map(|&bench| {
                        let intel =
                            self.run(&experiment(bench, LangModel::Txn, HwDesign::IntelX86));
                        let eadr = self.run(&experiment(bench, LangModel::Txn, HwDesign::Eadr));
                        let native =
                            self.run(&experiment(bench, LangModel::Native, HwDesign::Eadr));
                        NativeBoundRow {
                            bench,
                            intel_txn: intel.cycles,
                            eadr_txn: eadr.cycles,
                            eadr_native: native.cycles,
                            events_processed: intel.events.total()
                                + eadr.events.total()
                                + native.events.total(),
                        }
                    })
                    .collect();
                let text = self.render(|| {
                    let mut s = summary_report(&cells);
                    s.push_str(&lang_sensitivity_report(&cells));
                    s.push_str(&native_bound_report(&native));
                    s
                });
                Artifact {
                    text,
                    events: cells.iter().map(SweepCell::events_processed).sum::<u64>()
                        + native.iter().map(|r| r.events_processed).sum::<u64>(),
                    cycles: cells.iter().map(SweepCell::sim_cycles).sum::<u64>()
                        + native
                            .iter()
                            .map(|r| r.intel_txn + r.eadr_txn + r.eadr_native)
                            .sum::<u64>(),
                }
            }
            other => unreachable!("{} is not a figures target", other.label()),
        }
    }

    /// `fig9_matrix(SCALE, StrandWeaver, Sfr)`.
    fn fig9(&mut self) -> Artifact {
        let (measured, lang) = (HwDesign::StrandWeaver, LangModel::Sfr);
        let (mut events, mut cycles) = (0, 0);
        let mut rows = Vec::new();
        for bench in MICROBENCHES {
            let intel = self.run(&experiment(bench, lang, HwDesign::IntelX86));
            events += intel.events.total();
            cycles += intel.cycles;
            let mut vals = Vec::new();
            for (b, e) in FIG9_SHAPES {
                let s = self.run(&experiment(bench, lang, measured).strand_buffers(b, e));
                events += s.events.total();
                cycles += s.cycles;
                vals.push(intel.cycles as f64 / s.cycles as f64);
            }
            rows.push((bench.label().to_string(), vals));
        }
        let title = format!(
            "Figure 9 — Sensitivity to (strand buffers, entries per buffer), {}, {}",
            lang.label().to_uppercase(),
            measured.label()
        );
        let cols = FIG9_SHAPES.map(|(b, e)| format!("({b},{e})")).to_vec();
        let text = self.render(|| matrix(title, cols, rows).render());
        Artifact {
            text,
            events,
            cycles,
        }
    }

    /// `fig10_matrix(SCALE, StrandWeaver, Sfr)`.
    fn fig10(&mut self) -> Artifact {
        let (measured, lang) = (HwDesign::StrandWeaver, LangModel::Sfr);
        let ops_axis = [2usize, 4, 8, 16, 32];
        let (mut events, mut cycles) = (0, 0);
        let mut rows = Vec::new();
        for bench in MICROBENCHES {
            let mut vals = Vec::new();
            for ops in ops_axis {
                let regions = (SCALE.regions * SCALE.ops_per_region / ops).max(SCALE.threads);
                let mk = |design| {
                    Experiment::new(bench, lang, design)
                        .threads(SCALE.threads)
                        .total_regions(regions)
                        .ops_per_region(ops)
                };
                let sw = self.run(&mk(measured));
                let intel = self.run(&mk(HwDesign::IntelX86));
                events += sw.events.total() + intel.events.total();
                cycles += sw.cycles + intel.cycles;
                vals.push(intel.cycles as f64 / sw.cycles as f64);
            }
            rows.push((bench.label().to_string(), vals));
        }
        let title = format!(
            "Figure 10 — Speedup vs. operations per failure-atomic {}, {}",
            lang.label().to_uppercase(),
            measured.label()
        );
        let cols = ops_axis.map(|o| format!("{o} ops")).to_vec();
        let text = self.render(|| matrix(title, cols, rows).render());
        Artifact {
            text,
            events,
            cycles,
        }
    }
}

/// A matrix report with its geometric-mean footer, as the figure harness
/// builds it.
fn matrix(title: String, col_labels: Vec<String>, rows: Vec<(String, Vec<f64>)>) -> MatrixReport {
    let mut geomean = vec![1.0f64; col_labels.len()];
    for (_, vals) in &rows {
        for (g, v) in geomean.iter_mut().zip(vals) {
            *g *= v;
        }
    }
    let n = rows.len().max(1) as f64;
    for g in &mut geomean {
        *g = g.powf(1.0 / n);
    }
    MatrixReport {
        title,
        col_labels,
        rows,
        geomean,
        events_processed: 0,
        sim_cycles: 0,
    }
}

/// Informational comparison of the simulated headline with the paper's.
pub fn headline_note(artifacts: &[Artifact]) -> String {
    format!(
        "headline (ungated): simulated {}; paper: 1.45x avg, 1.97x max. \
         Only this headline is compared with the paper; nothing else in the \
         model is validated against a reference.",
        headline(artifacts).unwrap_or_else(|| "headline missing".into())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifacts(figs: &Figures) -> Vec<Artifact> {
        figs.expected
            .iter()
            .map(|text| Artifact {
                text: text.clone(),
                events: 10,
                cycles: 20,
            })
            .collect()
    }

    fn figures() -> Figures {
        // Tests run from the package directory; the references live one up.
        let expected = TARGETS
            .iter()
            .map(|t| {
                std::fs::read_to_string(format!("../expected/{}.txt", t.label()))
                    .expect("expected/ is committed")
            })
            .collect();
        Figures { expected }
    }

    #[test]
    fn reference_outputs_pass() {
        let figs = figures();
        let v = figs.verify(&artifacts(&figs));
        assert_eq!(v.pass_ratio(), 1.0, "{:?}", v.failures);
        assert_eq!(v.work, 60);
    }

    #[test]
    fn one_changed_byte_fails_its_check() {
        let figs = figures();
        let mut arts = artifacts(&figs);
        arts[2].text = arts[2].text.replacen('x', "y", 1);
        let v = figs.verify(&arts);
        assert!(v.pass_ratio() < 1.0);
        assert_eq!(v.failures.len(), 1);
        assert!(v.failures[0].contains("fig9"), "{:?}", v.failures);
    }

    #[test]
    fn headline_is_read_from_the_summary() {
        let figs = figures();
        let note = headline_note(&artifacts(&figs));
        assert!(note.contains("StrandWeaver over Intel x86"), "{note}");
        assert!(note.contains("(ungated)"));
    }
}
