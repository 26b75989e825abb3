//! `serve`: the cells of `serve_sweep` on nstore-bal at 2 threads × 24
//! regions × 2 ops with the chaos-under-load faults on — every legal
//! design × model pair at loads 0.5, 0.9 and 1.3 (57 cells), each served
//! by `serve_cell`. The open-loop generator offers a fixed number of
//! requests per cell on its own schedule; the work unit is one offered
//! request.

use std::time::Instant;

use strandweaver::{BenchmarkId, HwDesign, LangModel};
use sw_serve::{serve_cell, ServeCellReport, ServeConfig, ServeReport, SWEEP_LOADS};

use crate::layers::{with_minflt, Layers};
use crate::seeds::RunSeed;
use crate::spans::Tracer;
use crate::verdict::{fnv1a, Verdict, FNV_BASIS};

/// Cells in the sweep: 19 legal design × model pairs × 3 loads.
pub const CELLS: usize = 57;

/// A pass's output: the report and its rendered forms.
#[derive(Debug, Clone)]
pub struct ServeOutput {
    /// The sweep, or the first failing cell's error.
    pub report: Result<ServeReport, String>,
    /// `report.render()`.
    pub text: String,
    /// `report.to_json().render()`.
    pub json: String,
}

/// The sweep's cells at one seed.
#[derive(Debug)]
pub struct Serve {
    /// The configuration the report echoes.
    base: ServeConfig,
    /// One configuration per cell, in `serve_sweep` order.
    cells: Vec<ServeConfig>,
}

impl Serve {
    /// Builds the cells for `seed` and serves the first one as a warm-up.
    /// At the default seed every cell has the `ServeConfig` default seed,
    /// so the pass reproduces `serve_sweep` exactly.
    pub fn setup(seed: RunSeed) -> Self {
        let mut base = ServeConfig::new(
            BenchmarkId::NStoreBal,
            LangModel::Txn,
            HwDesign::StrandWeaver,
        );
        base.threads = 2;
        base.regions = 24;
        base.ops = 2;
        base.faults = true;
        let mut cells = Vec::new();
        for design in HwDesign::ALL {
            for lang in LangModel::ALL.into_iter().filter(|l| l.legal_on(design)) {
                for load in SWEEP_LOADS {
                    let mut cfg = base.clone();
                    cfg.design = design;
                    cfg.lang = lang;
                    cfg.offered_load = load;
                    cfg.seed = seed.unit(base.seed, 0x5e7e, cells.len() as u64);
                    cells.push(cfg);
                }
            }
        }
        std::hint::black_box(serve_cell(&cells[0])).ok();
        Serve { base, cells }
    }

    /// Serves every cell through `serve`, stopping at the first failure.
    fn sweep(
        &self,
        mut serve: impl FnMut(u32, &ServeConfig) -> Result<ServeCellReport, String>,
    ) -> Result<Vec<ServeCellReport>, String> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, cfg)| serve(i as u32, cfg))
            .collect()
    }

    /// Untraced pass.
    pub fn run(&self) -> ServeOutput {
        render(
            self.sweep(|_, cfg| serve_cell(cfg))
                .map(|c| ServeReport::new(&self.base, c)),
        )
    }

    /// Traced pass: each cell in a `serve.cell` span, then the rendering.
    pub fn run_traced(&self, tr: &mut Tracer, layers: &mut Layers) -> ServeOutput {
        let mut cell_s = Vec::new();
        let cells = self.sweep(|id, cfg| {
            let start = Instant::now();
            let cell = with_minflt(tr, layers, "serve.cell", "serve.minflt", id, || {
                serve_cell(cfg)
            });
            cell_s.push(start.elapsed().as_secs_f64());
            cell
        });
        cell_s.sort_by(f64::total_cmp);
        if let (Some(mid), Some(max)) = (cell_s.get(cell_s.len() / 2), cell_s.last()) {
            layers.set("serve.cell_p50_s", *mid);
            layers.set("serve.cell_max_s", *max);
        }
        tr.span("bench.render", self.cells.len() as u32, || {
            render(cells.map(|c| ServeReport::new(&self.base, c)))
        })
    }

    /// Checks the sweep: it succeeded, every cell partitions its offered
    /// requests, some breaker tripped, and the JSON round-trips.
    pub fn verify(&self, out: &ServeOutput) -> Verdict {
        let mut v = Verdict::default();
        let report = match &out.report {
            Ok(r) => r,
            Err(e) => {
                v.check(false, || format!("serve sweep failed: {e}"));
                return v;
            }
        };
        v.check(report.cells.len() == CELLS, || {
            format!("{} cells, want {CELLS}", report.cells.len())
        });
        for c in &report.cells {
            let sum = c.completed + c.shed + c.timeouts + c.unavailable + c.failed;
            v.check(sum == c.offered, || {
                format!(
                    "{} {} load {}: outcomes sum to {sum}, offered {}",
                    c.design, c.lang, c.offered_load, c.offered
                )
            });
        }
        // Title, column header, one row per cell, totals.
        let rows = out.text.lines().count();
        v.check(rows == report.cells.len() + 3, || {
            format!(
                "rendered report has {rows} lines for {} cells",
                report.cells.len()
            )
        });
        v.check(report.breaker_trips() >= 1, || "no breaker tripped".into());
        v.check(report.silent_corruptions() == 0, || {
            format!("{} silent corruptions", report.silent_corruptions())
        });
        let reparsed = ServeReport::parse(&out.json).map(|r| r.to_json().render());
        v.check(reparsed.as_deref() == Ok(out.json.as_str()), || {
            "report JSON does not round-trip".into()
        });

        let total = |f: fn(&ServeCellReport) -> u64| report.cells.iter().map(f).sum();
        v.work = total(|c| c.offered);
        v.count("serve.requests", v.work);
        v.count("serve.completed", total(|c| c.completed));
        v.count("serve.shed", total(|c| c.shed));
        v.count("serve.timeouts", total(|c| c.timeouts));
        v.count("serve.unavailable", total(|c| c.unavailable));
        v.count("serve.failed", total(|c| c.failed));
        v.count("serve.breaker_trips", report.breaker_trips());
        v.count("serve.recovery_legs", total(|c| c.recovery_legs));
        v.count("serve.report_digest", fnv1a(FNV_BASIS, out.json.as_bytes()));
        v
    }
}

fn render(report: Result<ServeReport, String>) -> ServeOutput {
    let (text, json) = match &report {
        Ok(r) => (r.render(), r.to_json().render()),
        Err(_) => (String::new(), String::new()),
    };
    ServeOutput { report, text, json }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real two-cell report (fault schedules on), as the sweep makes it.
    fn small() -> (Serve, ServeOutput) {
        let mut serve = Serve::setup(RunSeed::new(1234, 1234));
        serve.cells.truncate(2);
        let out = serve.run();
        (serve, out)
    }

    fn failures(serve: &Serve, out: &ServeOutput) -> Vec<String> {
        serve
            .verify(out)
            .failures
            .into_iter()
            .filter(|f| !f.contains("cells, want"))
            .collect()
    }

    #[test]
    fn each_corrupted_serve_output_fails_its_check() {
        let (serve, out) = small();
        assert!(
            failures(&serve, &out).is_empty(),
            "{:?}",
            failures(&serve, &out)
        );
        assert!(serve.verify(&out).pass_ratio() < 1.0, "two cells, not 57");

        let mut bad = out.clone();
        if let Ok(r) = &mut bad.report {
            r.cells[0].completed += 1;
        }
        assert_eq!(failures(&serve, &bad).len(), 1);

        let mut bad = out.clone();
        if let Ok(r) = &mut bad.report {
            for c in &mut r.cells {
                c.breaker_trips = 0;
            }
        }
        assert_eq!(
            failures(&serve, &bad),
            vec!["no breaker tripped".to_string()]
        );

        let mut bad = out.clone();
        bad.text.push_str("extra\n");
        assert_eq!(failures(&serve, &bad).len(), 1);

        let mut bad = out.clone();
        bad.json = bad.json.replacen("\"seed\":", "\"seed\": ", 1);
        assert_eq!(failures(&serve, &bad).len(), 1);

        let bad = render(Err("cell failed".into()));
        assert_eq!(serve.verify(&bad).pass_ratio(), 0.0);
    }
}
