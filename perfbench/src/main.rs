//! One pass of one benchmark workload, in a process of its own.
//!
//! ```text
//! perfbench <figures|paper-scale|campaigns|serve> [--seed N] [--traced TRACE.json [--profile]]
//! perfbench paper-scale --print-digests
//! ```
//!
//! The process sets up (loads references, builds the cells for the seed,
//! runs one warm-up cell), prints `READY`, runs one timed pass, checks its
//! outputs and prints one JSON line: pass wall and CPU time, page faults,
//! preemptions, peak RSS, the checks and the deterministic counts. With
//! `--traced` the pass calls the layers one by one inside spans, writes the
//! spans to `TRACE.json` (Chrome/Perfetto format) and adds the per-layer
//! self times and counters. `--profile` also turns on the simulator's own
//! phase profiler for every machine the pass builds and reports the phase
//! totals; its clock reads slow the simulator several-fold, so the spans of
//! a profiled pass are not the ones to read layer times from. `run.py`
//! drives these processes and reports the medians.
//!
//! `--print-digests` prints the `paper-scale` cell digests at the default
//! seed, the contents of `pinned/paper_scale.txt`.

mod campaigns;
mod figures;
mod layers;
mod paper_scale;
mod rusage;
mod seeds;
mod serve;
mod spans;
mod verdict;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use strandweaver::trace::Json;

use layers::Layers;
use rusage::Usage;
use seeds::RunSeed;
use spans::Tracer;
use verdict::Verdict;

/// The seed at which pinned outputs apply; it is the experiment
/// harness's own default seed.
const DEFAULT_SEED: u64 = 1234;

/// A workload with its inputs built.
enum Workload {
    Figures(figures::Figures),
    PaperScale(paper_scale::PaperScale),
    Campaigns(Box<campaigns::Campaigns>),
    Serve(serve::Serve),
}

/// What a pass measured and what its checks found.
struct Checked {
    measured: Measured,
    verdict: Verdict,
    info: Vec<String>,
}

impl Workload {
    fn setup(name: &str, seed: u64) -> Result<Workload, String> {
        let seed = RunSeed::new(seed, DEFAULT_SEED);
        Ok(match name {
            "figures" => Workload::Figures(figures::Figures::setup()?),
            "paper-scale" => Workload::PaperScale(paper_scale::PaperScale::setup(seed)),
            "campaigns" => Workload::Campaigns(Box::new(campaigns::Campaigns::setup(seed))),
            "serve" => Workload::Serve(serve::Serve::setup(seed)),
            other => return Err(format!("unknown workload '{other}'")),
        })
    }

    /// Runs the pass (traced when `tracing` is given) and checks it; only
    /// the run itself is timed, and in a traced pass it is the `pass` span.
    fn pass(&self, tracing: Option<(&mut Tracer, &mut Layers)>) -> Checked {
        let mut info = Vec::new();
        let (measured, verdict) = match self {
            Workload::Figures(w) => {
                let (m, out) = timed(tracing, || w.run(), |tr, l| w.run_traced(tr, l));
                info.push(figures::headline_note(&out));
                (m, w.verify(&out))
            }
            Workload::PaperScale(w) => {
                let (m, out) = timed(tracing, || w.run(), |tr, l| w.run_traced(tr, l));
                (m, w.verify(&out))
            }
            Workload::Campaigns(w) => {
                let (m, out) = timed(tracing, || w.run(), |tr, l| w.run_traced(tr, l));
                (m, w.verify(&out))
            }
            Workload::Serve(w) => {
                let (m, out) = timed(tracing, || w.run(), |tr, l| w.run_traced(tr, l));
                (m, w.verify(&out))
            }
        };
        Checked {
            measured,
            verdict,
            info,
        }
    }
}

/// Wall time and resource usage around the timed region.
struct Measured {
    wall_s: f64,
    before: Usage,
    after: Usage,
}

/// Times `run`, or `traced` inside a `pass` span when tracing.
fn timed<T>(
    tracing: Option<(&mut Tracer, &mut Layers)>,
    run: impl FnOnce() -> T,
    traced: impl FnOnce(&mut Tracer, &mut Layers) -> T,
) -> (Measured, T) {
    let before = Usage::now();
    let start = Instant::now();
    let out = match tracing {
        None => run(),
        Some((tr, layers)) => {
            let root = tr.open("pass", 0);
            let out = traced(tr, layers);
            tr.close(root);
            out
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let measured = Measured {
        wall_s,
        before,
        after: Usage::now(),
    };
    (measured, out)
}

struct Args {
    workload: String,
    seed: u64,
    traced: Option<String>,
    profile: bool,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload")?;
    let mut args = Args {
        workload,
        seed: DEFAULT_SEED,
        traced: None,
        profile: false,
        print_digests: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--traced" => args.traced = Some(it.next().ok_or("--traced needs a path")?),
            "--profile" => args.profile = true,
            "--print-digests" => args.print_digests = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.profile && args.traced.is_none() {
        return Err("--profile applies to a --traced pass".into());
    }
    Ok(args)
}

/// Per-layer values of a traced pass: span self times, span counts and the
/// counters gathered around the layer calls.
fn layer_values(tr: &Tracer, mut layers: Layers, verdict: &Verdict) -> Vec<(String, f64)> {
    let times = tr.layer_times();
    for (name, t) in &times {
        if *name != "pass" {
            layers.set(&format!("{name}_s"), t.self_s);
        }
    }
    for (span, calls) in [
        ("model.pmo", "model.pmo_calls"),
        ("lang.recover", "lang.recover_calls"),
    ] {
        layers.set(calls, times.get(span).map_or(0, |t| t.calls) as f64);
    }
    for p in sw_perf::global_take().phases {
        layers.set(&format!("sim.phase.{}_s", p.phase), p.nanos as f64 / 1e9);
    }
    for (name, value) in &verdict.counts {
        layers.set(name, *value as f64);
    }
    let get = |l: &Layers, k: &str| l.values.get(k).copied().unwrap_or(0.0);
    let events = get(&layers, "sim.events");
    if events > 0.0 {
        let run_s = get(&layers, "sim.run_s");
        layers.set("sim.ns_per_event", run_s * 1e9 / events);
    }
    let requests = get(&layers, "serve.requests");
    if requests > 0.0 {
        let completed = get(&layers, "serve.completed");
        layers.set("serve.goodput_ratio", completed / requests);
    }
    layers.set("trace.covered_pct", tr.covered_share("pass") * 100.0);
    layers.values.into_iter().collect()
}

fn run(args: Args) -> Result<(), String> {
    sw_perf::set_global_enabled(args.profile);
    let workload = Workload::setup(&args.workload, args.seed)?;
    if args.print_digests {
        let Workload::PaperScale(w) = &workload else {
            return Err("--print-digests applies to paper-scale".into());
        };
        for c in w.run() {
            println!("{}", c.pinned_line());
        }
        return Ok(());
    }
    // Ambient profiling covers the machines built inside opaque calls too;
    // the warm-up's profile is dropped.
    sw_perf::global_take();
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "READY")
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())?;

    let mut fields = Vec::new();
    let checked = match &args.traced {
        None => workload.pass(None),
        Some(path) => {
            let mut tr = Tracer::new();
            let mut layers = Layers::default();
            let mut checked = workload.pass(Some((&mut tr, &mut layers)));
            std::fs::write(path, tr.chrome_json().render())
                .map_err(|e| format!("writing {path}: {e}"))?;
            // Deterministic layer counts join the cross-pass identity check.
            if let Some(edges) = layers.values.get("model.pmo_edges") {
                checked.verdict.count("model.pmo_edges", *edges as u64);
            }
            let values = layer_values(&tr, layers, &checked.verdict);
            fields.push((
                "layers".to_string(),
                Json::Obj(values.into_iter().map(|(k, v)| (k, Json::F64(v))).collect()),
            ));
            checked
        }
    };
    let Measured {
        wall_s,
        before,
        after,
    } = checked.measured;
    let mut out = vec![
        ("wall_s".to_string(), Json::F64(wall_s)),
        (
            "cpu_s".to_string(),
            Json::F64(after.cpu_s() - before.cpu_s()),
        ),
        (
            "sys_s".to_string(),
            Json::F64((after.sys - before.sys).as_secs_f64()),
        ),
        (
            "minflt".to_string(),
            Json::U64(after.minflt - before.minflt),
        ),
        (
            "nivcsw".to_string(),
            Json::U64(after.nivcsw - before.nivcsw),
        ),
        (
            "peak_rss_mb".to_string(),
            Json::F64(after.maxrss_kib as f64 / 1024.0),
        ),
        ("verdict".to_string(), checked.verdict.to_json()),
        (
            "info".to_string(),
            Json::Arr(checked.info.into_iter().map(Json::Str).collect()),
        ),
    ];
    out.extend(fields);
    writeln!(stdout, "{}", Json::Obj(out).render()).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(run);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
