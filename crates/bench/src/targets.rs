//! In-process figure/table targets: one enum routing every `fig*`/`table*`
//! report so `swctl`, `swctl bench`, and the CI harness all invoke the same
//! code path instead of each re-plumbing flags into the report functions.
//!
//! A [`Target`] names one artifact of the paper's evaluation (a figure, a
//! table, or the cross-model summary). [`Target::run`] executes it at a
//! given [`Scale`] under optional `--design`/`--lang` narrowing
//! ([`TargetFilters`]) and returns a [`TargetOutput`] carrying both the
//! human-readable report and (where the target is tabular) its JSON form,
//! plus the discrete-event and simulated-cycle totals the performance
//! harness divides wall time by.
//!
//! Legality of a filter pair (the log-free `native` model needs an
//! eADR-class design) is the caller's contract: `swctl` validates user
//! input before calling [`Target::run`], exactly as the individual
//! subcommand arms did before this module existed.

use strandweaver::{HwDesign, LangModel};
use sw_trace::json::{Field, Json, ToJson};

use crate::Scale;

/// Optional `--design` / `--lang` narrowing applied to a target run.
///
/// `None` means the target's default breadth (all designs, all legal
/// language models, or the target's canonical measured pair).
#[derive(Debug, Clone, Copy, Default)]
pub struct TargetFilters {
    /// Narrow the sweep to one design (Figures 7/8) or pick the measured
    /// design (Figures 9/10).
    pub design: Option<HwDesign>,
    /// Narrow the sweep to one language model (summary) or pick the
    /// measured model (Figures 9/10).
    pub lang: Option<LangModel>,
}

/// The result of running one target: the formatted report, the JSON form
/// where the target is tabular, and the work totals of the run.
#[derive(Debug, Clone)]
pub struct TargetOutput {
    /// The human-readable report (what the non-`--json` subcommand prints).
    pub text: String,
    /// Machine-readable form, for targets that support `--json`.
    pub json: Option<Json>,
    /// Discrete events processed across every simulation the target ran
    /// (zero for targets that don't surface per-run stats).
    pub events_processed: u64,
    /// Simulated cycles summed across every simulation the target ran.
    pub sim_cycles: u64,
}

/// One artifact of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Figure 1: motivating persist-ordering example.
    Fig1,
    /// Figure 2: litmus-test suite.
    Fig2,
    /// Table I: simulated machine configuration.
    Table1,
    /// Table II: benchmark write intensity (CKC).
    Table2,
    /// Figure 7: speedup sweep over designs.
    Fig7,
    /// Figure 8: persist-ordering stall sweep.
    Fig8,
    /// Figure 9: strand-buffer sensitivity matrix.
    Fig9,
    /// Figure 10: region-size sensitivity matrix.
    Fig10,
    /// Cross-model summary (headline sweep + native bound).
    Summary,
    /// Fault-tolerant open-loop serving cell (fixed seed, default knobs).
    Serve,
}

impl Target {
    /// Every target, in presentation order.
    pub const ALL: [Target; 10] = [
        Target::Fig1,
        Target::Fig2,
        Target::Table1,
        Target::Table2,
        Target::Fig7,
        Target::Fig8,
        Target::Fig9,
        Target::Fig10,
        Target::Summary,
        Target::Serve,
    ];

    /// The targets `swctl bench` times: every simulation-heavy figure.
    /// (Figures 1/2 and Table I are litmus-scale or static and would only
    /// add noise to a performance trajectory.)
    pub const BENCH: [Target; 7] = [
        Target::Fig7,
        Target::Fig8,
        Target::Fig9,
        Target::Fig10,
        Target::Table2,
        Target::Summary,
        Target::Serve,
    ];

    /// The `swctl` subcommand label.
    pub fn label(self) -> &'static str {
        match self {
            Target::Fig1 => "fig1",
            Target::Fig2 => "fig2",
            Target::Table1 => "table1",
            Target::Table2 => "table2",
            Target::Fig7 => "fig7",
            Target::Fig8 => "fig8",
            Target::Fig9 => "fig9",
            Target::Fig10 => "fig10",
            Target::Summary => "summary",
            Target::Serve => "serve",
        }
    }

    /// Parses a subcommand label (`litmus` is an alias for the Figure 2
    /// suite, matching the `swctl` CLI).
    pub fn from_label(s: &str) -> Option<Target> {
        if s == "litmus" {
            return Some(Target::Fig2);
        }
        Target::ALL.into_iter().find(|t| t.label() == s)
    }

    /// Whether the target has a machine-readable (`--json`) form.
    pub fn json_ok(self) -> bool {
        !matches!(self, Target::Fig1 | Target::Fig2 | Target::Table1)
    }

    /// Whether the target accepts a `--design` filter.
    pub fn design_ok(self) -> bool {
        matches!(
            self,
            Target::Fig7 | Target::Fig8 | Target::Fig9 | Target::Fig10
        )
    }

    /// Whether the target accepts a `--lang` filter.
    pub fn lang_ok(self) -> bool {
        matches!(self, Target::Fig9 | Target::Fig10 | Target::Summary)
    }

    /// Runs the target at `scale` under `filters` and collects its output.
    ///
    /// Filters the target does not accept are ignored (the CLI rejects
    /// them before they get here); illegal lang × design pairs are the
    /// caller's responsibility to reject.
    pub fn run(self, scale: Scale, filters: &TargetFilters) -> TargetOutput {
        match self {
            Target::Fig1 => TargetOutput {
                text: crate::fig1_report(),
                json: None,
                events_processed: 0,
                sim_cycles: 0,
            },
            Target::Fig2 => TargetOutput {
                text: crate::fig2_report(),
                json: None,
                events_processed: 0,
                sim_cycles: 0,
            },
            Target::Table1 => TargetOutput {
                text: crate::table1(),
                json: None,
                events_processed: 0,
                sim_cycles: 0,
            },
            Target::Table2 => {
                let rows = crate::table2(scale);
                TargetOutput {
                    text: crate::table2_report(&rows),
                    json: Some(Field("rows", &rows).to_json()),
                    events_processed: rows.iter().map(|r| r.events_processed).sum(),
                    sim_cycles: rows.iter().map(|r| r.cycles).sum(),
                }
            }
            Target::Fig7 | Target::Fig8 => {
                let cells = crate::full_sweep_of(scale, &sweep_designs(filters.design));
                let text = if self == Target::Fig7 {
                    crate::fig7_report(&cells)
                } else {
                    crate::fig8_report(&cells)
                };
                TargetOutput {
                    text,
                    json: Some(Field("cells", &cells).to_json()),
                    events_processed: cells.iter().map(crate::SweepCell::events_processed).sum(),
                    sim_cycles: cells.iter().map(crate::SweepCell::sim_cycles).sum(),
                }
            }
            Target::Fig9 | Target::Fig10 => {
                let measured = filters.design.unwrap_or(HwDesign::StrandWeaver);
                let lang = filters.lang.unwrap_or(LangModel::Sfr);
                let m = if self == Target::Fig9 {
                    crate::fig9_matrix(scale, measured, lang)
                } else {
                    crate::fig10_matrix(scale, measured, lang)
                };
                TargetOutput {
                    text: m.render(),
                    json: Some(m.to_json()),
                    events_processed: m.events_processed,
                    sim_cycles: m.sim_cycles,
                }
            }
            Target::Summary => {
                let langs = match filters.lang {
                    Some(lang) => vec![lang],
                    None => LangModel::ALL.to_vec(),
                };
                let cells = crate::full_sweep_matrix(scale, &HwDesign::ALL, &langs);
                let native = crate::native_bound(scale);
                let mut text = crate::summary_report(&cells);
                text.push_str(&crate::lang_sensitivity_report(&cells));
                text.push_str(&crate::native_bound_report(&native));
                TargetOutput {
                    text,
                    json: Some(crate::summary_json(&cells, &native)),
                    events_processed: cells
                        .iter()
                        .map(crate::SweepCell::events_processed)
                        .sum::<u64>()
                        + native.iter().map(|r| r.events_processed).sum::<u64>(),
                    sim_cycles: cells.iter().map(crate::SweepCell::sim_cycles).sum::<u64>()
                        + native
                            .iter()
                            .map(|r| r.intel_txn + r.eadr_txn + r.eadr_native)
                            .sum::<u64>(),
                }
            }
            Target::Serve => {
                let design = filters.design.unwrap_or(HwDesign::StrandWeaver);
                let lang = filters.lang.unwrap_or(LangModel::Txn);
                let mut cfg =
                    sw_serve::ServeConfig::new(strandweaver::BenchmarkId::NStoreBal, lang, design);
                cfg.threads = scale.threads;
                cfg.regions = scale.regions;
                cfg.ops = scale.ops_per_region;
                let report = sw_serve::serve_report(&cfg)
                    .unwrap_or_else(|e| panic!("serve target invariant failure: {e}"));
                TargetOutput {
                    text: report.render(),
                    json: Some(report.to_json()),
                    events_processed: report.cells.iter().map(|c| c.events_processed).sum(),
                    sim_cycles: report.cells.iter().map(|c| c.sim_cycles).sum(),
                }
            }
        }
    }
}

/// The design list for a `--design`-filtered Figure 7/8 sweep: the Intel
/// x86 baseline always runs (speedups and stall ratios normalize to it),
/// plus the requested design.
pub fn sweep_designs(filter: Option<HwDesign>) -> Vec<HwDesign> {
    match filter {
        None => HwDesign::ALL.to_vec(),
        Some(HwDesign::IntelX86) => vec![HwDesign::IntelX86],
        Some(d) => vec![HwDesign::IntelX86, d],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            threads: 2,
            regions: 6,
            ops_per_region: 2,
        }
    }

    #[test]
    fn labels_round_trip_and_litmus_aliases_fig2() {
        for t in Target::ALL {
            assert_eq!(Target::from_label(t.label()), Some(t));
        }
        assert_eq!(Target::from_label("litmus"), Some(Target::Fig2));
        assert_eq!(Target::from_label("fig99"), None);
    }

    #[test]
    fn bench_targets_are_all_tabular() {
        for t in Target::BENCH {
            assert!(t.json_ok(), "{} must support --json", t.label());
        }
    }

    #[test]
    fn table2_target_matches_direct_call() {
        let out = Target::Table2.run(tiny(), &TargetFilters::default());
        let rows = crate::table2(tiny());
        assert_eq!(out.text, crate::table2_report(&rows));
        assert!(out.events_processed > 0);
        assert!(out.sim_cycles > 0);
        assert!(out.json.is_some());
    }

    #[test]
    fn fig7_design_filter_narrows_sweep() {
        let filters = TargetFilters {
            design: Some(HwDesign::StrandWeaver),
            lang: None,
        };
        let out = Target::Fig7.run(tiny(), &filters);
        assert!(out.text.contains("strandweaver"));
        assert!(out.events_processed > 0);
        let json = out.json.expect("fig7 is tabular");
        let cells = json.get("cells").and_then(Json::as_arr).expect("cells");
        for cell in cells {
            let designs = cell.get("designs").and_then(Json::as_arr).expect("designs");
            assert_eq!(designs.len(), 2, "intel baseline + filtered design");
        }
    }

    #[test]
    fn static_targets_report_zero_events() {
        for t in [Target::Fig1, Target::Fig2, Target::Table1] {
            let out = t.run(tiny(), &TargetFilters::default());
            assert_eq!(out.events_processed, 0);
            assert!(out.json.is_none());
            assert!(!out.text.is_empty());
        }
    }
}
