"""The benchmark's own tests: each output check rejects a corrupted output,
the tracer's self times add up, relative times count reference loops, and
run.py refuses to run without sources."""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from tropcount import cli, enumeration, graph, kontsevich, linalg, moduli_maps, plane  # noqa: E402


def test_recursion_from_n1():
    assert checks.recursion_n(4) == checks.CLASSICAL_N
    assert checks.recursion_sides(2) == (2, 2)
    assert checks.recursion_sides(3) == (40, 40)


@pytest.fixture(scope="module")
def count_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("count") / "report.json"
    assert cli.main(["count", "--d", "2", "--seed", "3", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _corrupt(report, edit):
    bad = copy.deepcopy(report)
    edit(bad)
    return checks.count_report_errors(bad, 2)


def test_count_report_checks(count_report):
    assert checks.count_report_errors(count_report, 2) == []

    def bump_total(r):
        r["total"] += 1

    def bump_mult(r):
        r["solutions"][0]["mult"] += 1

    def stretch_edge(r):
        lengths = r["solutions"][0]["curve"]["graph"]["lengths"]
        e = min(lengths)
        lengths[e] = str(2 * Fraction(lengths[e]))

    def turn_end(r):
        curve = r["solutions"][0]["curve"]
        marks = set(curve["marks"])
        end = next(
            f["id"] for f in curve["graph"]["flags"]
            if f["partner"] is None and f["id"] not in marks
        )
        curve["directions"][end] = [1, 0]

    def move_point(r):
        r["points"][0][0] = str(Fraction(r["points"][0][0]) + 1)

    for edit in (bump_total, bump_mult, stretch_edge, turn_end, move_point):
        assert _corrupt(count_report, edit), edit.__name__


def test_fiber_and_intersection_checks():
    cfg1, (line,) = enumeration.sampled_fiber(enumeration.EV, 1, 11)
    cfg2, conics = enumeration.sampled_fiber(enumeration.EV, 2, 12)
    assert checks.fiber_errors(cfg2.points, conics, 2) == []
    doubled = [dataclasses.replace(conics[0], mult=2)]
    assert checks.fiber_errors(cfg2.points, doubled, 2)
    assert checks.fiber_errors(cfg1.points[::-1], [line], 1)

    c1 = checks.Curve.from_object(line.curve())
    c2 = checks.Curve.from_object(conics[0].curve())
    hits = kontsevich.tropical_intersection(line.curve(), conics[0].curve())
    assert checks.intersection_errors(c1, c2, hits) == []
    (pt, m), *rest = hits
    assert checks.intersection_errors(c1, c2, [(pt, m + 1)] + rest)
    assert checks.intersection_errors(c1, c2, [((pt[0] + 1, pt[1]), m)] + rest)


def test_census_checks():
    cfg = enumeration.pi_config(2, 0, "B")
    census = kontsevich.reducible_census(2, cfg)
    assert checks.census_errors(census, 2, "B", cfg.points) == []
    first = census.entries[0]
    bumped = dataclasses.replace(first, mult=first.mult + 1)
    assert checks.census_errors(
        dataclasses.replace(census, entries=(bumped,) + census.entries[1:]), 2, "B", cfg.points
    )
    assert checks.census_errors(
        dataclasses.replace(census, entries=census.entries[1:]), 2, "B", cfg.points
    )
    assert checks.census_errors(census, 2, "B", enumeration.pi_config(2, 1, "B").points)


def test_tracer_self_times_add_up(tmp_path):
    mods = SimpleNamespace(
        cli=cli, enumeration=enumeration, graph=graph, kontsevich=kontsevich,
        linalg=linalg, moduli_maps=moduli_maps, plane=plane,
    )
    tracer = tracing.Tracer(mods)
    with tracer.phase("setup"):
        enumeration.base_trees(2)
    with tracer.phase("round"):
        assert cli.main(["count", "--d", "2", "--seed", "4", "--out", str(tmp_path / "r.json")]) == 0
    assert cli.main.__name__ == "main"  # the original is back

    values = tracer.per_layer()
    assert set(values) == {name for name, _, _ in tracing.METRICS}
    layer_sum = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_sum + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"])
    assert 0 <= values["trace.unattributed_s"] < values["trace.wall_s"]
    assert values["enumeration.solutions"] == 1
    assert values["enumeration.leaves"] >= 1
    assert values["plane.canonical_calls"] > values["enumeration.leaves"]  # + the report digest
    assert values["linalg.det_calls"] == 1
    assert 0 < values["trace.overhead_s"] < values["trace.wall_s"]

    tracer.write(tmp_path / "spans.csv.gz")
    assert (tmp_path / "spans.csv.gz").stat().st_size > 0


def test_relative_times_count_reference_loops(tmp_path, monkeypatch):
    """A request of four reference loops reads about 4 ref, the samples untimed."""
    import run

    class Loops:
        name = "loops"
        min_rounds = 3

        def build(self, m, seed, workdir):
            return None

        def warm_up(self, m, state):
            pass

        def run_round(self, m, state, call):
            return [call(lambda: [run.reference_loop() for _ in range(4)]) for _ in range(3)]

        def check(self, state, outputs):
            return []

    monkeypatch.setattr(run, "import_fresh", lambda: None)
    requests, errors, metrics = run.untraced(Loops(), 0, 0, str(tmp_path))
    assert (requests.attempted, requests.failed, errors) == (9, 0, [])
    assert 2 < metrics["request_rel.p50"]["value"] < 8
    assert 6 < metrics["wall_rel"]["value"] < 24
    assert metrics["setup_s"]["value"] > 0


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bezout-d2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
