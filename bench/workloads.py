"""The benchmark's workloads: set-up, one round of requests, output checks.

A workload's `build` makes what a round needs (base trees, configurations)
and is traced in a traced run; `warm_up` runs one request outside the
measured set so that lazy per-tree caches are full; `run_round` issues the
round's requests through `call`, which times each one; `check` verifies a
round's outputs with the independent code in checks.py.

The configurations whose cost is timed are fixed, because the cost of a
single configuration varies far more between seeds than any regression
bound: a degree-3 count takes 42-77 s over seeds 0-4, and one seed's six
degree-2 censuses take 4.3-10.5 s over seeds 0-3.  The run's seed orders
the requests of census-d2 and bezout-d2; count-d3, one request per round,
does not use it.
"""

from __future__ import annotations

import json
import os
import random

import checks

ATTEMPT_CAP = 20


class CountD3:
    """`tropcount count --d 3` through cli.main, base trees built in set-up.

    Run by hand only: one 55 s request per round leaves no room for the
    several rounds a steady figure needs (see README.md).
    """

    name = "count-d3"
    min_rounds = 1  # a set-up is ~20 s of base trees, a round ~55 s
    # Seed 2 is the cheapest of seeds 0-4 (42 s against 50-77 s at the same
    # load), which keeps one run near 80 s with its set-up.
    count_seed = 2

    def build(self, m, seed, workdir):
        m.enumeration.base_trees(3)
        return {"out": os.path.join(workdir, "count-d3.json")}

    def warm_up(self, m, state):
        pass

    @staticmethod
    def _count(m, argv):
        code = m.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"tropcount {' '.join(argv)} exited with {code}")
        return code

    def run_round(self, m, state, call):
        argv = ["count", "--d", "3", "--seed", str(self.count_seed), "--out", state["out"]]
        return call(self._count, m, argv)

    def check(self, state, outputs):
        if outputs is None:
            return []  # counted as failed
        with open(state["out"]) as fh:
            return checks.count_report_errors(json.load(fh), 3)


class CensusD2:
    """reducible_census(2, pi_config(2, s, ray, scale)) over fixed configurations."""

    name = "census-d2"
    min_rounds = 3
    seeds = (0,)
    rays = ("A", "B", "C")
    scales = (1, 2)
    warm_key = (0, "B", 1)  # the cheapest of the six, about 0.4 s

    def build(self, m, seed, workdir):
        keys = [(s, r, k) for s in self.seeds for r in self.rays for k in self.scales]
        configs = {key: m.enumeration.pi_config(2, *key) for key in keys}
        order = keys[:]
        random.Random(seed).shuffle(order)
        return {"configs": configs, "order": order}

    def _census(self, m, key, cfg):
        # A configuration the engine reports as degenerate is resampled, as
        # sampled_fiber does; the tracer counts it in enumeration.resamples.
        for attempt in range(1, ATTEMPT_CAP + 1):
            try:
                return cfg, m.kontsevich.reducible_census(2, cfg)
            except m.enumeration.GeneralPositionViolation:
                cfg = m.enumeration.pi_config(2, *key, attempt=attempt)
        raise m.enumeration.GeneralPositionViolation(f"no general position for {key}")

    def warm_up(self, m, state):
        self._census(m, self.warm_key, state["configs"][self.warm_key])

    def run_round(self, m, state, call):
        return [
            (key, call(self._census, m, key, state["configs"][key]))
            for key in state["order"]
        ]

    def check(self, state, outputs):
        errors = []
        for (seed, ray, scale), out in outputs:
            if out is None:
                continue
            cfg, census = out
            errors += [
                f"seed {seed} ray {ray} scale {scale}: {e}"
                for e in checks.census_errors(census, 2, ray, cfg.points)
            ]
        return errors


class BezoutD2:
    """Lines and conics counted through cli.main, every pair through tropical_intersection."""

    name = "bezout-d2"
    min_rounds = 3
    # Disjoint seed ranges: lines [0, 24), conics [24, 48), warm-up 48 and 49.
    specs = tuple((1, s) for s in range(24)) + tuple((2, s) for s in range(24, 48))
    warm = ((1, 48), (2, 49))

    def build(self, m, seed, workdir):
        for d in (1, 2):
            m.enumeration.base_trees(d)
        order = list(self.specs)
        random.Random(seed).shuffle(order)
        return {"order": order, "workdir": workdir}

    @staticmethod
    def _argv(state, d, s):
        out = os.path.join(state["workdir"], f"count-d{d}-seed{s}.json")
        return ["count", "--d", str(d), "--seed", str(s), "--out", out]

    def _report(self, m, state, d, s):
        argv = self._argv(state, d, s)
        CountD3._count(m, argv)
        with open(argv[-1]) as fh:
            return json.load(fh)

    def warm_up(self, m, state):
        line, conic = [self._report(m, state, d, s) for d, s in self.warm]
        m.kontsevich.tropical_intersection(*(
            m.plane.plane_curve_from_json(r["solutions"][0]["curve"]) for r in (line, conic)
        ))

    def run_round(self, m, state, call):
        reports = [call(self._report, m, state, d, s) for d, s in state["order"]]
        curves = [
            None if r is None else m.plane.plane_curve_from_json(r["solutions"][0]["curve"])
            for r in reports
        ]
        pairs = []
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                if curves[i] is not None and curves[j] is not None:
                    pairs.append((i, j, call(m.kontsevich.tropical_intersection, curves[i], curves[j])))
        return reports, pairs

    def check(self, state, outputs):
        reports, pairs = outputs
        errors = []
        for (d, s), r in zip(state["order"], reports):
            if r is not None:
                errors += [f"count d={d} seed {s}: {e}" for e in checks.count_report_errors(r, d)]
        raw = [
            None if r is None else checks.Curve.from_json(r["solutions"][0]["curve"])
            for r in reports
        ]
        for i, j, hits in pairs:
            if hits is not None:
                errors += [f"pair {i},{j}: {e}" for e in checks.intersection_errors(raw[i], raw[j], hits)]
        return errors


WORKLOADS = {w.name: w for w in (CountD3(), CensusD2(), BezoutD2())}

