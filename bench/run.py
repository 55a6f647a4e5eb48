"""dfm-em benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload mc_cell --seed 0 --seconds 20 --trace 0

``--trace 0`` times operations for ``--seconds`` and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced operations on the
same inputs and prints the per-layer metrics and report. ``--smoke`` runs
tiny sizes in seconds. ``--record`` rewrites the reference outputs of the
default and held-out seeds for one workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller result,
with the environment record, goes to ``bench/results/``. The process exits
with 1 when an output fails the correctness gate and with 2 when the
package source is not next to the benchmark.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("mc_cell", "fit_large", "fit_ridge")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 0
HELD_OUT_SEED = 977
# setup_s is the median of this many set-ups: this process's own and
# fresh processes that set up and exit.
SETUP_REPEATS = 3

# (name, unit, better) of what --trace 0 reports.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("reps_per_s", "1/s", "higher"),
    ("fit_ms_p50", "ms", "lower"),
    ("fit_ms_p90", "ms", "lower"),
    ("em_iters", "iters", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
]

# (metric, layer, field, unit, better) of what --trace 1 reports.
PER_LAYER = (
    [(f"kalman.{f}.{k}", f"kalman.{f}", k, u, "lower")
     for f in ("kalman_filter", "kalman_smoother")
     for k, u in (("calls", "calls/fit"), ("ms_per_call", "ms"),
                  ("us_per_step", "us"), ("share", "ratio"))]
    + [
        ("kalman.stationary_init.calls", "kalman.stationary_init", "calls",
         "calls/fit", "lower"),
        ("em.e_step.calls", "em.e_step", "calls", "calls/fit", "lower"),
        ("em.iter_ms", "em.iter_ms", None, "ms", "lower"),
        ("em.build_stats.ms_per_call", "em.build_stats", "ms_per_call", "ms",
         "lower"),
        ("em.m_step.ms_per_call", "em.m_step", "ms_per_call", "ms", "lower"),
        ("em.em_fit.self_ms", "em.em_fit", "self_ms", "ms", "lower"),
        ("pca.pc_estimate.ms_per_call", "pca.pc_estimate", "ms_per_call",
         "ms", "lower"),
        ("pca.pc_estimate.share", "pca.pc_estimate", "share", "ratio",
         "lower"),
        ("extensions.ridge_covariance.calls", "extensions.ridge_covariance",
         "calls", "calls/fit", "lower"),
        ("extensions.ridge_covariance.ms_per_call",
         "extensions.ridge_covariance", "ms_per_call", "ms", "lower"),
        ("extensions.ridge_fit.self_ms", "extensions.ridge_fit", "self_ms",
         "ms", "lower"),
        ("simulate.draw_dgp.ms_per_call", "simulate.draw_dgp", "ms_per_call",
         "ms", "lower"),
        ("metrics.z_scores.ms_per_call", "metrics.z_scores", "ms_per_call",
         "ms", "lower"),
        ("metrics.trace_statistic.ms_per_call", "metrics.trace_statistic",
         "ms_per_call", "ms", "lower"),
        ("metrics.ZAccumulator.update.ms_per_call",
         "metrics.ZAccumulator.update", "ms_per_call", "ms", "lower"),
        ("montecarlo.run_cell.self_ms", "montecarlo.run_cell", "self_ms", "ms",
         "lower"),
        ("montecarlo.write_report.ms_per_call", "montecarlo.write_report",
         "ms_per_call", "ms", "lower"),
    ]
)
# Run-level per-layer metrics that no single span gives.
PROBES = [
    ("montecarlo.rep_fail_ratio", "ratio", "lower"),
    ("montecarlo.pool_speedup_2", "ratio", "higher"),
    ("montecarlo.pool_serial_s", "s", "lower"),
    ("montecarlo.pool_parallel2_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def load_references():
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


def setup(args, tracer=None):
    """Import the package, build the inputs and run one warm-up operation.

    The warm-up is operation 0 of the default seed and is checked against
    its recorded reference. Returns (workload, seconds, problems).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    import dfm_em

    if not Path(dfm_em.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"dfm_em imported from {dfm_em.__file__}, not {SRC}")
    if tracer is None:
        wl = workloads.make(args.workload, args.seed, args.smoke, str(RESULTS))
    else:
        with tracer.installed(), tracer.span("setup", "setup"):
            wl = workloads.make(args.workload, args.seed, args.smoke,
                                str(RESULTS))
    _, out = wl.run(wl.input(DEFAULT_SEED, 0))
    seconds = time.perf_counter() - t0
    problems = verify(wl, out, DEFAULT_SEED, "warm-up", args.smoke, True)
    wl.iters = []
    return wl, seconds, problems


def verify(wl, outcome, seed, label, smoke, first):
    """Invariant checks, plus the recorded reference for operation 0 of a
    seed that has one."""
    import workloads

    bad = wl.check(outcome)
    ref = load_references()["smoke" if smoke else "full"][wl.name]
    if first and str(seed) in ref:
        bad += workloads.compare(ref[str(seed)], wl.summary(outcome))
    return [f"{wl.name} {label} (seed {seed}): {b}" for b in bad]


class Loop:
    """Runs operations one after another, checking and counting each."""

    def __init__(self, wl, seed, smoke):
        self.wl, self.seed, self.smoke = wl, seed, smoke
        self.problems = []
        self.attempted = self.failed = self.failed_reps = 0

    def op(self, i, run=None):
        import workloads

        self.attempted += 1
        try:
            elapsed, out = (run or self.wl.run)(self.wl.input(self.seed, i))
        except workloads.OP_ERRORS as exc:
            self.failed += 1
            print(f"operation {i} failed: {type(exc).__name__}: {exc}")
            return None
        self.failed_reps += self.wl.failed_reps(out)
        self.problems += verify(self.wl, out, self.seed, f"operation {i}",
                                self.smoke, i == 0)
        return elapsed


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(args):
    wl, setup_s, problems = setup(args)
    from probe import NOMINAL_S, Probe

    # The probe runs after every fit; an operation's time, less the probe
    # runs inside it, is scaled by the mean of the probes during and just
    # before it.
    wl.probe = Probe()
    setup_s = scale_setup(setup_s, wl.probe)
    wl.probes = [wl.probe()]
    loop = Loop(wl, args.seed, args.smoke)
    wall, scaled = [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        first_probe = len(wl.probes) - 1
        elapsed = loop.op(i)
        if elapsed is not None:
            wall.append(elapsed)
            scaled.append(elapsed * NOMINAL_S
                          / statistics.fmean(wl.probes[first_probe:]))
        i += 1
    if not wall:
        raise SystemExit(f"{wl.name}: every operation failed")
    setups = [setup_s] + [setup_in_new_process(args)
                          for _ in range(SETUP_REPEATS - 1)]

    per = wl.reps_per_op
    reps = per * len(wall)
    attempted_reps = per * loop.attempted
    # One sample per operation: a fit, or on mc_cell a cell's time over B.
    fit_ms = [1e3 * t / per for t in scaled]
    wall_fit_ms = [1e3 * t / per for t in wall]
    metrics = {
        "setup_s": statistics.median(setups),
        "reps_per_s": reps / sum(scaled),
        "fit_ms_p50": statistics.median(fit_ms),
        "fit_ms_p90": quantile(fit_ms, 90),
        "em_iters": statistics.fmean(wl.iters),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (reps - loop.failed_reps) / attempted_reps,
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    details = {
        "setup_s_samples": setups,
        "op_seconds": wall,
        "op_seconds_scaled": scaled,
        "probe_seconds": wl.probes,
        "wall_reps_per_s": reps / sum(wall),
        "wall_fit_ms_p50": statistics.median(wall_fit_ms),
        "wall_fit_ms_p90": quantile(wall_fit_ms, 90),
        "fail_ratio": 1.0 - metrics["ok_ratio"],
        "failed_replications": loop.failed_reps,
        "attempted_replications": attempted_reps,
    }
    print(f"{wl.name}: {loop.attempted} operations, {reps} fits, "
          f"{len(fit_ms)} time samples; times scaled to a "
          f"{1e3 * NOMINAL_S:.0f} ms probe (probe median "
          f"{1e3 * statistics.median(wl.probes):.1f} ms, "
          f"range {1e3 * min(wl.probes):.1f}-{1e3 * max(wl.probes):.1f} ms)")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':<12} {details['fail_ratio']:14.6g} ratio "
          f"({loop.failed_reps} of {attempted_reps} replications, "
          f"{loop.failed} of {loop.attempted} operations)")
    print(f"  unscaled wall time: reps_per_s {details['wall_reps_per_s']:.6g}, "
          f"fit_ms_p50 {details['wall_fit_ms_p50']:.6g}, "
          f"fit_ms_p90 {details['wall_fit_ms_p90']:.6g}")
    return finish(args, problems + loop.problems, loop, details,
                  {k: {"value": v, "unit": units[k]} for k, v in metrics.items()})


def scale_setup(seconds, probe):
    """Set-up time scaled by a probe run right after it."""
    from probe import NOMINAL_S

    probe()
    return seconds * NOMINAL_S / probe()


def setup_in_new_process(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"set-up process failed:\n{proc.stderr}{proc.stdout}")
    return float(proc.stdout.split()[-1])


def traced_run(args):
    from tracing import LAYERS, Tracer, layer_stats

    tracer = Tracer()
    wl, _, problems = setup(args, tracer)
    loop = Loop(wl, args.seed, args.smoke)
    spent = {False: 0.0, True: 0.0}

    def traced(inp):
        with tracer.installed(), tracer.span("op", loop.attempted):
            return wl.run(inp)

    deadline = time.perf_counter() + args.seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        # The same input runs untraced and traced, in alternating order.
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            elapsed = loop.op(i, traced if on else None)
            if elapsed is not None:
                spent[on] += elapsed
        i += 1

    stats, op_time = layer_stats(tracer.spans, wl.steps)
    metrics = {}
    for name, layer, field, unit, _ in PER_LAYER:
        if layer in tracer.missing:
            value = None
        else:
            value = stats[layer] if field is None else stats[layer][field]
        metrics[name] = {"value": value, "unit": unit}
    serial = parallel = speedup = 0.0
    if wl.name == "mc_cell":
        serial, parallel, bad = wl.pool_probe(wl.input(args.seed, 0))
        loop.problems += [f"mc_cell pool probe: {b}" for b in bad]
        speedup = serial / parallel
    attempted_reps = wl.reps_per_op * loop.attempted
    probes = {
        "montecarlo.rep_fail_ratio": loop.failed_reps / attempted_reps,
        "montecarlo.pool_speedup_2": speedup,
        "montecarlo.pool_serial_s": serial,
        "montecarlo.pool_parallel2_s": parallel,
        "trace.overhead_ratio": (spent[True] / spent[False]
                                 if spent[False] else 0.0),
    }
    for name, unit, _ in PROBES:
        metrics[name] = {"value": probes[name], "unit": unit}

    tag = result_tag(args)
    tracer.write(RESULTS / f"spans-{tag}.json")
    print(f"per-layer report: {wl.name}, {i} traced and {i} untraced "
          f"operations, "
          f"{op_time:.3f} s traced operation time, spans in "
          f"bench/results/spans-{tag}.json")
    print(f"  {'layer':<29} {'calls/fit':>9} {'ms/call':>9} "
          f"{'self ms':>9} {'share':>7}  should move")
    for layer, (_, moves) in LAYERS.items():
        if layer in tracer.missing:
            print(f"  {layer:<29} {'missing':>9}")
            continue
        s = stats[layer]
        print(f"  {layer:<29} {s['calls']:9.3f} {s['ms_per_call']:9.3f} "
              f"{s['self_ms']:9.3f} {s['share']:7.1%}  {moves}")
    print(f"  em.iter_ms = {stats['em.iter_ms']:.3f} ms per E-step")
    print(f"  trace.overhead_ratio = {probes['trace.overhead_ratio']:.4f} "
          f"(traced {spent[True]:.3f} s / untraced {spent[False]:.3f} s)")
    if wl.name == "mc_cell":
        print(f"  montecarlo.pool_speedup_2 = {speedup:.3f} (serial "
              f"{serial:.3f} s / parallelism=2 {parallel:.3f} s)")
    details = {"layers": stats, "missing": tracer.missing,
               "traced_s": spent[True], "untraced_s": spent[False]}
    return finish(args, problems + loop.problems, loop, details, metrics)


def result_tag(args):
    smoke = "-smoke" if args.smoke else ""
    return f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}"


def environment():
    """Versions, BLAS build and threads, CPUs and CPU quota of this run."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    quota = None
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            quota = fh.read().strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {v: os.environ.get(v) for v in THREAD_VARS}},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": quota,
        "machine": platform.machine(),
    }


def finish(args, problems, loop, details, metrics):
    env = environment()
    print("environment: " + json.dumps(env))
    for p in problems:
        print(f"CORRECTNESS FAILURE: {p}")
    result = {"correct": not problems, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    with open(RESULTS / f"{result_tag(args)}.json", "w") as fh:
        json.dump({"args": vars(args), "environment": env, "result": result,
                   "problems": problems, "details": details}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def record(args):
    """Write operation 0's outputs for the default and held-out seeds."""
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.make(args.workload, DEFAULT_SEED, args.smoke, str(RESULTS))
    refs = load_references()
    mine = refs.setdefault("smoke" if args.smoke else "full", {})
    mine[args.workload] = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        _, out = wl.run(wl.input(seed, 0))
        bad = wl.check(out)
        if bad:
            raise SystemExit(f"seed {seed}: {bad}")
        mine[args.workload][str(seed)] = wl.summary(out)
    with open(REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0



def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record", action="store_true")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "dfm_em" / "__init__.py").is_file():
        print(f"package source not found at {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: with two, a 400 x 400 ridge
    # fit ran twice as slow on a 2-CPU machine and timings were noisier.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    RESULTS.mkdir(exist_ok=True)

    if args.record:
        return record(args)
    if args.setup_only:
        # The parent process runs the same warm-up and reports its problems.
        _, seconds, _ = setup(args)
        from probe import Probe

        print(repr(scale_setup(seconds, Probe())))
        return 0
    return traced_run(args) if args.trace else timed_run(args)


if __name__ == "__main__":
    sys.exit(main())
