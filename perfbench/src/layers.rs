//! Per-layer accounting for the traced pass, and the traced replica of
//! `Experiment::run_timing` that the simulation workloads share.

use std::collections::BTreeMap;

use strandweaver::experiment::Experiment;
use strandweaver::pmem::LineAddr;
use strandweaver::workloads::driver::{drive, DriverParams};
use strandweaver::{Machine, SimStats};

use crate::rusage::Usage;
use crate::spans::Tracer;

/// Per-layer counters gathered around the layer calls of a traced pass.
/// Span self times come from the [`Tracer`]; this holds the rest.
#[derive(Debug, Default)]
pub struct Layers {
    /// Named values, reported as `<name>` in the traced result.
    pub values: BTreeMap<String, f64>,
}

impl Layers {
    /// Adds `v` to the value named `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.values.entry(name.to_string()).or_default() += v;
    }

    /// Sets the value named `name`.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }
}

/// Runs `span` around `f` and adds the minor page faults `f` took to
/// `layers` under `minflt_name`.
pub fn with_minflt<T>(
    tr: &mut Tracer,
    layers: &mut Layers,
    span: &'static str,
    minflt_name: &str,
    cell: u32,
    f: impl FnOnce() -> T,
) -> T {
    let before = Usage::now().minflt;
    let out = tr.span(span, cell, f);
    layers.add(minflt_name, (Usage::now().minflt - before) as f64);
    out
}

/// `e.run_timing()`, split into the workload drive, machine build and
/// machine run, each in its own span.
pub fn timed_run(tr: &mut Tracer, layers: &mut Layers, e: &Experiment, cell: u32) -> SimStats {
    let (layout, warm, traces) = with_minflt(
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
                .seed(e.seed)
                .timing_only()
                .clean_shutdown();
            params.strategy = e.strategy;
            let out = drive(workload.as_mut(), &params);
            let warm: Vec<LineAddr> = out.baseline.written_lines().collect();
            (out.layout.clone(), warm, out.ctx.into_traces())
        },
    );
    let machine = tr.span("sim.build", cell, || {
        let mut m = Machine::new(
            e.sim.clone().with_cores(e.threads),
            e.design,
            layout,
            traces,
        );
        m.preload_l2(warm);
        m
    });
    tr.span("sim.run", cell, || machine.run())
}
