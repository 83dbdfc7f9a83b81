"""Benchmark of tropcount's counting paths, stdlib only, single process.

    python3 bench/run.py --workload count-d3|census-d2|bezout-d2 \
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports tropcount from its
src/ directory.  An untraced run sets up (several times, for the median),
then issues and checks whole rounds of the workload's requests until
--seconds have passed, and prints the end-to-end metrics.  A traced run
sets up once with the tracer on, runs one traced round, and prints the
per-layer metrics.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.  The result and, for traced runs, the spans
are also written under bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
MODULES = ("linalg", "graph", "plane", "moduli_maps", "enumeration", "kontsevich", "cli")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_rel", "ref"),
    ("cpu_rel", "ref"),
    ("request_rel.p50", "ref"),
    ("peak_rss_mb", "MiB"),
)
REFERENCE_EVERY_S = 0.25


def import_fresh():
    """Import tropcount from src/ anew, so that no module-level cache survives."""
    for name in [n for n in sys.modules if n == "tropcount" or n.startswith("tropcount.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tropcount")
    if Path(pkg.__file__).resolve().parent != SRC / "tropcount":
        raise ImportError(f"tropcount imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"tropcount.{m}") for m in MODULES})


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def reference_loop() -> int:
    """Fixed stdlib work of about 25 ms: exact fractions and tuple-keyed dicts.

    It stands for the machine's current speed at tropcount's kind of work.
    Changing it changes every relative figure, so it stays as it is.
    """
    acc, table = Fraction(0), {}
    for i in range(1, 6000):
        acc += Fraction(i % 97 + 1, i % 89 + 1)
        table[(i, i % 7)] = acc.numerator % 1000
    return len(table)


class Reference:
    """Times the reference loop at a round's start and between its requests."""

    def __init__(self):
        self.walls, self.cpus, self.last = [], [], 0.0

    def start_round(self):
        self.walls, self.cpus = [], []
        self.sample()

    def sample(self):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_loop()
        self.last = time.perf_counter()
        self.walls.append(self.last - wall0)
        self.cpus.append(time.process_time() - cpu0)

    def between_requests(self):
        if time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.sample()


class Requests:
    """Times requests one by one and counts the ones that raise.

    With a Reference, the reference loop may run after a request, outside
    its latency, and `before` holds the index of the round's last sample
    before each timed request.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.latencies = []
        self.before = []
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            result = None
        else:
            self.latencies.append(time.perf_counter() - start)
            if self.reference is not None:
                self.before.append(len(self.reference.walls) - 1)
        if self.reference is not None:
            self.reference.between_requests()
        return result


def run_round(workload, m, state, requests, errors, around=contextlib.nullcontext()):
    """One round with stdout kept clean, checked after its timing ends.

    `around` wraps the requests alone (the tracer's round phase).  Returns
    (wall s, cpu s) of the requests, without the reference loop's samples.
    """
    ref = requests.reference
    if ref is not None:
        ref.start_round()
    with contextlib.redirect_stdout(sys.stderr), around:
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        outputs = workload.run_round(m, state, requests.call)
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    if ref is not None:
        wall -= sum(ref.walls[1:])
        cpu -= sum(ref.cpus[1:])
    errors += workload.check(state, outputs)
    return wall, cpu


def untraced(workload, seed, seconds, workdir):
    """Alternate set-ups and rounds until --seconds have passed.

    Each round's times are divided by the mean time of the reference loop
    sampled during that round, each request's latency by the samples on
    either side of it, and each metric is the median over rounds.
    The machine's speed drifts by up to a factor of two over tens of seconds
    and both sides of the ratio drift alike, so the ratio measures the
    code's own cost.  A set-up before every round spreads the set-ups over
    the run; setup_s, in seconds, is their median.  The deadline counts the
    checks, so a run lasts --seconds plus at most a set-up and a round.
    """
    reference = Reference()
    requests, errors = Requests(reference), []
    setups, walls, cpus, rel = [], [], [], {k: [] for k, _ in END_TO_END[1:4]}
    deadline = time.perf_counter() + seconds
    while len(walls) < workload.min_rounds or time.perf_counter() < deadline:
        start = time.perf_counter()
        m = import_fresh()
        state = workload.build(m, seed, workdir)
        workload.warm_up(m, state)
        setups.append(time.perf_counter() - start)
        first = len(requests.latencies)
        wall, cpu = run_round(workload, m, state, requests, errors)
        ref_wall = statistics.fmean(reference.walls)
        walls.append(wall)
        cpus.append(cpu)
        rel["wall_rel"].append(wall / ref_wall)
        rel["cpu_rel"].append(cpu / statistics.fmean(reference.cpus))
        if len(requests.latencies) > first:
            # A request against the samples just before and after it.
            rel["request_rel.p50"].append(statistics.median(
                lat / statistics.fmean(reference.walls[k:k + 2])
                for lat, k in zip(requests.latencies[first:], requests.before[first:])
            ))
    metrics = {k: statistics.median(v) if v else 0.0 for k, v in rel.items()}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mib()
    print(
        f"{workload.name}: {len(walls)} set-ups and rounds, {requests.attempted} requests; "
        f"median set-up {metrics['setup_s']:.3f} s, median round {statistics.median(walls):.3f} s "
        f"wall and {statistics.median(cpus):.3f} s CPU; round walls "
        + " ".join(f"{w:.3f}" for w in walls),
        file=sys.stderr,
    )
    return requests, errors, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}


def traced(workload, seed, workdir, trace_path):
    m = import_fresh()
    tracer = tracing.Tracer(m)
    with tracer.phase("setup"):
        state = workload.build(m, seed, workdir)
    workload.warm_up(m, state)
    requests, errors = Requests(), []
    run_round(workload, m, state, requests, errors, around=tracer.phase("round"))
    values = tracer.per_layer()
    tracer.write(trace_path)
    print_layer_table(workload.name, values)
    return requests, errors, {
        name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.METRICS
    }


def print_layer_table(name, values):
    out = sys.stderr
    print(f"per-layer metrics, {name}:", file=out)
    for key, value in values.items():
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {key:32s} {shown:>14s}", file=out)
    layer_sum = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    print(
        f"  layer self times {layer_sum:.4f} s + unattributed "
        f"{values['trace.unattributed_s']:.4f} s = traced wall {values['trace.wall_s']:.4f} s",
        file=out,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tropcount" / "__init__.py").is_file():
        print(f"error: no tropcount sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        if args.trace:
            requests, errors, metrics = traced(
                workload, args.seed, workdir, RESULTS / f"{stem}.spans.csv.gz"
            )
        else:
            requests, errors, metrics = untraced(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": requests.attempted,
        "failed": requests.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    (RESULTS / f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
