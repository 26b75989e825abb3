#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the StrandWeaver reproduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (each a separate kind of load on the program's layers):

    figures      Figures 7-10, Table II and the summary at the pinned CI scale
                 (2 threads x 24 regions x 2 ops) through `Target::run`,
                 checked byte for byte against expected/. Drive/lowering
                 dominates; the program's own thread fan-out lives here.
    paper-scale  hashmap, nstore-wr, tpcc under TXN on all six designs at the
                 paper's scale (8 x 240 x 4), serially. The simulator's tick
                 loop dominates.
    campaigns    crash campaigns (8 benchmarks x 3 models x 3 designs), log and
                 heap fault campaigns, the chaos sweep, the heap smoke and a
                 non-atomic negative control. PMO, crash images, recovery and
                 oracles dominate.
    serve        the 57 cells of serve_sweep on nstore-bal at 2 x 24 x 2 with
                 faults on. Admission, breakers and recovery legs.

Off the default seed (1234) every crash campaign, serve cell and paper-scale
benchmark gets a seed of its own derived from --seed, so one run averages
over many draws; at 1234 they use the seeds ci.sh and swctl use, and the
pinned checks (expected/, the SimStats digests, the ci.sh tallies) apply.
The figures are defined at the harness's fixed seed; --seed does not reach
them.

The script builds `perfbench/` (a Cargo package of its own) into
$CARGO_TARGET_DIR (default: .bench_build), then runs one process per pass:
each process sets up (inputs from the seed plus one warm-up cell), prints
READY, runs one timed pass and checks its outputs. Passes repeat until
--seconds is spent (at least one). The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, all measured untraced:

    setup_s           process start to the first timed operation (median)
    work_per_s        work units per wall second of the pass (median): simulated
                      events (figures, paper-scale), crash states recovered and
                      checked (campaigns), offered requests (serve)
    cpu_s             user + system CPU seconds of the pass (median)
    peak_rss_mb       peak resident memory of the pass's process (median)
    check_pass_ratio  output checks passed / checks run, over every pass

--trace 1 alternates an untraced pass, a traced pass (the same work called
layer by layer from the benchmark, each call in a span) and a profiled
traced pass (the simulator's phase profiler on), and reports the per-layer
metrics: span self times, call and work counts, the share of the traced
pass wall the layer spans cover, and the tracing overhead. Spans of the
last traced pass are written to perfbench/out/ as Chrome/Perfetto JSON.

Every pass's raw figures -- run order, host steal time from /proc/stat and
involuntary context switches included -- go to perfbench/out/ next to the
trace; they explain outliers and are never used to drop a pass.

The benchmark's own tests: `cargo test --release --manifest-path
perfbench/Cargo.toml` (each output check fails on a corrupted output) and
`python3 -m unittest perfbench/test_run.py` (this script's bookkeeping).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("figures", "paper-scale", "campaigns", "serve")

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_ratio": "ratio",
}

# Per-layer metrics of a traced run. A layer a workload does not call reads
# 0 there.
PER_LAYER = {
    "workloads.drive_s": "s",
    "workloads.drive_minflt": "count",
    "sim.build_s": "s",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.cycles": "count",
    "sim.ns_per_event": "ns",
    "sim.phase.frontend_s": "s",
    "sim.phase.retire_s": "s",
    "sim.phase.store_queue_s": "s",
    "sim.phase.engine_s": "s",
    "sim.phase.writeback_s": "s",
    "sim.phase.coherence_s": "s",
    "sim.phase.memctrl_s": "s",
    "sim.phase.observe_s": "s",
    "bench.render_s": "s",
    "bench.fanout_overhead_s": "s",
    "model.pmo_s": "s",
    "model.pmo_calls": "count",
    "model.pmo_edges": "count",
    "model.crash_state_s": "s",
    "lang.recover_s": "s",
    "lang.recover_calls": "count",
    "oracle.check_s": "s",
    "campaign.crash_s": "s",
    "campaign.faults_s": "s",
    "campaign.heap_faults_s": "s",
    "campaign.chaos_s": "s",
    "campaign.heap_smoke_s": "s",
    "campaign.crash_states": "count",
    "campaign.faults_detected_ratio": "ratio",
    "serve.cell_p50_s": "s",
    "serve.cell_max_s": "s",
    "serve.requests": "count",
    "serve.completed": "count",
    "serve.shed": "count",
    "serve.timeouts": "count",
    "serve.unavailable": "count",
    "serve.failed": "count",
    "serve.breaker_trips": "count",
    "serve.recovery_legs": "count",
    "serve.goodput_ratio": "ratio",
    "serve.minflt": "count",
    "trace.pass_s": "s",
    "trace.covered_pct": "%",
    "trace.overhead_pct": "%",
}

# Per-layer values taken from the profiled pass rather than the traced one.
PROFILED = tuple(k for k in PER_LAYER if k.startswith("sim.phase."))

CLK_TCK = os.sysconf("SC_CLK_TCK")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the pass binary from source; returns its path."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target / "release" / "perfbench"


def host_steal_s():
    """Cumulative steal time of the host's CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / CLK_TCK if len(fields) > 8 else 0.0


def run_pass(binary, workload, seed, kind, order):
    """Runs one pass in a process of its own and returns its raw record."""
    args = [str(binary), workload, "--seed", str(seed)]
    trace_path = None
    if kind != "plain":
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        args += ["--traced", str(trace_path)]
        if kind == "profiled":
            args += ["--profile"]
    steal0 = host_steal_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    rest = proc.stdout.read()
    proc.stdout.close()
    status = proc.wait()
    if ready.strip() != "READY" or status != 0:
        fail(f"{kind} pass of {workload} exited with {status}: {ready}{rest}")
    record = json.loads(rest.strip().splitlines()[-1])
    record.update(order=order, kind=kind, setup_s=setup_s,
                  steal_s=host_steal_s() - steal0)
    return record


def measure(binary, workload, seed, seconds, trace):
    """Runs passes until `seconds` are spent; at least one round."""
    kinds = ("plain", "traced", "profiled") if trace else ("plain",)
    passes = []
    start = time.perf_counter()
    while True:
        for kind in kinds:
            passes.append(run_pass(binary, workload, seed, kind, len(passes)))
        elapsed = time.perf_counter() - start
        rounds = len(passes) // len(kinds)
        if elapsed + elapsed / rounds > seconds:
            return passes


def count_checks(passes):
    """Checks that every deterministic count repeats exactly across the
    passes that report it. Returns (checks run, failure messages)."""
    seen = {}
    for p in passes:
        for name, value in p["verdict"]["counts"].items():
            seen.setdefault(name, []).append(value)
    failures = [f"count {name} differs across passes: {values}"
                for name, values in sorted(seen.items()) if len(set(values)) > 1]
    return len(seen), failures


def median(passes, key):
    return statistics.median(p[key] for p in passes)


def end_to_end(plain, ratio):
    return {
        "setup_s": median(plain, "setup_s"),
        "work_per_s": statistics.median(p["verdict"]["work"] / p["wall_s"] for p in plain),
        "cpu_s": median(plain, "cpu_s"),
        "peak_rss_mb": median(plain, "peak_rss_mb"),
        "check_pass_ratio": ratio,
    }


def per_layer(plain, traced, profiled):
    def layer(passes, name):
        return statistics.median(p["layers"].get(name, 0.0) for p in passes)

    values = {name: layer(profiled if name in PROFILED else traced, name)
              for name in PER_LAYER}
    plain_wall = median(plain, "wall_s")
    values["trace.pass_s"] = median(traced, "wall_s")
    values["trace.overhead_pct"] = (values["trace.pass_s"] / plain_wall - 1) * 100
    values["bench.fanout_overhead_s"] = median(plain, "cpu_s") - median(traced, "cpu_s")
    return values


def report(workload, seed, passes, metrics, failures):
    """Prints the human-readable summary and keeps the raw records."""
    OUT_DIR.mkdir(exist_ok=True)
    trace = any(p["kind"] != "plain" for p in passes)
    raw = OUT_DIR / f"raw-{workload}-seed{seed}-trace{int(trace)}.json"
    raw.write_text(json.dumps({"workload": workload, "seed": seed, "passes": passes,
                               "metrics": metrics, "failures": failures}, indent=1))
    print(f"perfbench {workload} seed {seed}: {len(passes)} passes (raw records: {raw.relative_to(ROOT)})")
    for p in passes:
        print(f"  #{p['order']} {p['kind']:8} setup {p['setup_s']:.3f}s wall {p['wall_s']:.3f}s "
              f"cpu {p['cpu_s']:.3f}s sys {p['sys_s']:.3f}s rss {p['peak_rss_mb']:.1f}MB "
              f"minflt {p['minflt']} nivcsw {p['nivcsw']} steal {p['steal_s']:.2f}s")
    counts = passes[0]["verdict"]["counts"]
    print("  counts (must repeat exactly): " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for line in sorted({i for p in passes for i in p["info"]}):
        print(f"  {line}")
    for f in failures:
        print(f"  FAILED: {f}")
    units = PER_LAYER if trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name:32} {value:>16.6g} {units[name]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    binary = build()
    OUT_DIR.mkdir(exist_ok=True)
    passes = measure(binary, args.workload, args.seed, args.seconds, args.trace)

    failures = [f for p in passes for f in p["verdict"]["failures"]]
    run, count_failures = count_checks(passes)
    failures += count_failures
    attempted = sum(p["verdict"]["checks_run"] for p in passes) + run
    ratio = (attempted - len(failures)) / attempted

    plain = [p for p in passes if p["kind"] == "plain"]
    if args.trace:
        metrics = per_layer(plain, [p for p in passes if p["kind"] == "traced"],
                            [p for p in passes if p["kind"] == "profiled"])
        units = PER_LAYER
    else:
        metrics = end_to_end(plain, ratio)
        units = END_TO_END
    report(args.workload, args.seed, passes, metrics, failures)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
