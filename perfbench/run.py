"""Benchmark for cmshift: four seeded workloads, checked against oracles.

    python3 perfbench/run.py --workload finite --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout: cmshift is imported from ``src/``.
A run builds the workload's inputs from the seed, measures set-up time in
fresh interpreters, then repeats rounds of the same operations until the
time is up. Every operation's output is checked after its round, outside
the timed region. Times are scaled to the machine's speed at the moment
they are taken (``calib.py``). The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (calibrated, medians over rounds).
``--trace 1`` times untraced rounds for half the time, then one round with
spans around every layer call, and reports the per-layer metrics and the
tracing overhead; the spans go to ``perfbench/out/``.
"""

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: the matrices here are small and a second thread only adds
# scheduling noise on a shared machine; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("finite", "loops", "escape", "cli-batch")
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))

import calib  # noqa: E402  (imports numpy after the thread pinning)
import numpy as np  # noqa: E402


def say(message):
    """A note on the process's own standard error: ``cmshift run --jobs 2``
    can leave ``sys.stderr`` pointing at a buffer (see CHANGES.md)."""
    print(f"perfbench: {message}", file=sys.__stderr__)


def fail(message):
    say(message)
    sys.exit(2)


# ---------------------------------------------------------------------------
# set-up time: import cmshift and parse the workload's documents, in fresh
# interpreters; each then imports calib.REFERENCE_MODULES, and its set-up
# time is scaled by the time of that reference import


_SETUP_CODE = """
import importlib, json, sys, time
t0 = time.perf_counter()
import cmshift.cli
from cmshift.graphs import load_graph_file
for path in sys.argv[1:]:
    load_graph_file(path)
t1 = time.perf_counter()
import calib
t2 = time.perf_counter()
for name in calib.REFERENCE_MODULES:
    importlib.import_module(name)
print(json.dumps([t1 - t0, time.perf_counter() - t2]))
"""


def measure_setup(doc_paths):
    """Median calibrated set-up time, and the median raw one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    cmd = [sys.executable, "-c", _SETUP_CODE] + [str(p) for p in doc_paths]
    raw, calibrated = [], []
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail("set-up failed:\n" + proc.stderr.strip())
        if k:  # the first start compiles bytecode and warms the file cache
            elapsed, reference = json.loads(proc.stdout.strip().splitlines()[-1])
            raw.append(elapsed)
            calibrated.append(elapsed * calib.IMPORT_NOMINAL_S / reference)
    return statistics.median(calibrated), statistics.median(raw)


# ---------------------------------------------------------------------------
# rounds


def _cpu():
    """CPU seconds of this process (all threads) and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class _Sampler:
    """Calibration samples taken inside a running operation. A one-second
    operation outlasts the machine's changes of speed, so samples at its
    ends alone say little about it: while an operation runs, SIGALRM every
    ``PERIOD_S`` takes a sample in the main thread between two bytecodes.
    The time spent in the handler is taken off the operation's wall and
    CPU time."""

    PERIOD_S = 0.025

    def __init__(self):
        self.samples, self.wall, self.cpu = [], 0.0, 0.0
        signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, signum, frame):
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.samples.append(calib.sample())
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - c0

    def start(self):
        self.samples, self.wall, self.cpu = [], 0.0, 0.0
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_round(workload, ops, index, sampler=None):
    """Run every operation once, with a calibration sample before each and
    one after the last, and with ``sampler`` also inside each operation that
    does not run threads of its own. Returns (wall, latencies, cpu times,
    calibration per operation, failed); an operation's calibration is the
    mean of the samples before it, inside it and after it."""
    workload.begin_round(index)
    latencies, cpus, edges, inside, outputs = [], [], [], [], []
    failed = 0
    start = time.perf_counter()
    for op in ops:
        edges.append(calib.sample())
        sampling = sampler is not None and not op.threaded
        c0 = _cpu()
        t0 = time.perf_counter()
        if sampling:
            sampler.start()
        try:
            out = op.call()
        except Exception as exc:  # a failing operation is counted, not fatal
            out = exc
            failed += 1
        finally:
            if sampling:
                sampler.stop()
        latency, cpu = time.perf_counter() - t0, _cpu() - c0
        if sampling:
            latency -= sampler.wall
            cpu -= sampler.cpu
            inside.append(sampler.samples)
        else:
            inside.append([])
        latencies.append(latency)
        cpus.append(cpu)
        outputs.append(out)
    edges.append(calib.sample())
    wall = time.perf_counter() - start
    cals = [statistics.fmean([a, b] + mid) for a, b, mid in zip(edges, edges[1:], inside)]
    for op, out in zip(ops, outputs):
        if not isinstance(out, Exception):
            op.check(out)
    workload.end_round(index)
    return wall, latencies, cpus, cals, failed


def scaled(seconds, cal):
    """``seconds`` measured while calibration samples took ``cal`` s on
    average, as seconds on a machine whose sample takes ``calib.NOMINAL_S``."""
    return seconds * calib.NOMINAL_S / cal


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each rank's
    slot. The latencies of a round spread over three to four decades, so
    neighbouring ranks sit 5-10% apart, and a single order statistic jumps
    by that much whenever one operation crosses it."""
    x = np.sort(np.asarray(values, dtype=float))
    n, per_slot = len(x), 64
    a, b = p * (n + 1), (1 - p) * (n + 1)
    u = (np.arange(n * per_slot) + 0.5) / (n * per_slot)
    log_density = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    weights = np.exp(log_density - log_density.max()).reshape(n, per_slot).sum(axis=1)
    return float(weights @ x / weights.sum())


def peak_rss_mb():
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


# ---------------------------------------------------------------------------
# main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cmshift" / "__init__.py").is_file():
        fail(f"no cmshift sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cmshift  # noqa: E402
    import cmshift.cli  # noqa: E402,F401  (loads every layer)

    if Path(cmshift.__file__).resolve().parent != SRC / "cmshift":
        fail(f"imported cmshift from {cmshift.__file__}, not from {SRC}")

    import harness  # noqa: E402  (imports numpy after the thread pinning)

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    workload = harness.build(args.workload, rng, cmshift, run_dir)
    doc_paths = workload.write_docs(run_dir / "docs")

    if args.trace:
        result = traced_run(args, workload)
    else:
        result = timed_run(args, workload, doc_paths)
    harness.remove_tree(run_dir)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def timed_run(args, workload, doc_paths):
    """Rounds until the time is up. Each operation's latency and CPU time
    are scaled by the calibration samples taken around and inside it, and
    its value is the median over the rounds of the scaled times; a round's
    wall (CPU) time is the sum of those. The machine's speed drifts by up to
    a factor of two over minutes, for the operations as for the samples:
    raw round times of the same work moved by up to 75% between runs, the
    calibrated ones spread 2-12% over ten seeds (README). The raw figures go
    to standard error."""
    setup_s, setup_raw = measure_setup(doc_paths)
    graphs = workload.parse()
    ops = workload.make_ops(graphs)
    walls, lat, cpu, cal = [], [[] for _ in ops], [[] for _ in ops], []
    attempted = failed = 0
    sampler = _Sampler()
    start = time.perf_counter()
    while True:
        wall, op_lat, op_cpu, op_cal, bad = run_round(workload, ops, len(walls), sampler)
        walls.append(wall)
        for k, c in enumerate(op_cal):
            lat[k].append(scaled(op_lat[k], c))
            cpu[k].append(scaled(op_cpu[k], c))
        cal.extend(op_cal)
        attempted += len(ops)
        failed += bad
        if time.perf_counter() - start + statistics.mean(walls) > args.seconds:
            break
    op_lat = [statistics.median(v) for v in lat]
    say(f"{len(walls)} rounds, raw wall_s " + " ".join(f"{w:.3f}" for w in walls)
        + f"; calibration sample median {statistics.median(cal) * 1e3:.4f} ms"
        f" (nominal {calib.NOMINAL_S * 1e3:.4f}); raw setup_s {setup_raw:.4f}")
    metrics = {
        "wall_s": (math.fsum(op_lat), "s"),
        "cpu_s": (math.fsum(statistics.median(v) for v in cpu), "s"),
        "op_p50_ms": (quantile(op_lat, 0.5) * 1e3, "ms"),
        "op_p90_ms": (quantile(op_lat, 0.9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return report(workload, attempted, failed, metrics)


def traced_run(args, workload):
    import layers  # noqa: E402
    import cmshift  # noqa: E402
    from tracer import Tracer  # noqa: E402

    graphs = workload.parse()
    ops = workload.make_ops(graphs)
    walls, cal_walls = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.mean(walls) <= args.seconds / 2:
        wall, op_lat, _, op_cal, bad = run_round(workload, ops, len(walls))
        walls.append(wall)
        cal_walls.append(math.fsum(map(scaled, op_lat, op_cal)))
        attempted += len(ops)
        failed += bad

    tracer = Tracer(cmshift)
    tracer.install()
    try:
        traced_graphs = workload.parse()  # the parse of the documents is traced too
    finally:
        tracer.uninstall()
    traced_ops = workload.make_ops(traced_graphs)
    tracer.install()
    try:
        traced_wall, op_lat, _, op_cal, bad = run_round(workload, traced_ops, len(walls))
    finally:
        tracer.uninstall()
    attempted += len(traced_ops)
    failed += bad
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    traced_cal = math.fsum(map(scaled, op_lat, op_cal))
    metrics = layers.per_layer(tracer, traced_wall, traced_cal, statistics.median(cal_walls))
    return report(workload, attempted, failed, metrics)


def report(workload, attempted, failed, metrics):
    for line in workload.mismatches[:20]:
        say(f"mismatch: {line}")
    return {
        "correct": not workload.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
