"""Acceptance checklist.

One test per shipped guarantee; each prints a single PASS/FAIL line, so
`pytest -s tests/test_acceptance.py` reads as a checklist.  The evaluation
fibers are computed once (module fixture) and shared between the degree
check and the multiplicity audit.
"""

import itertools
import math
import time
from contextlib import contextmanager

import pytest

from tropcount.enumeration import (
    EV,
    curve_multiplicity,
    invariance_check,
    pi_config,
    sampled_fiber,
)
from tropcount.kontsevich import (
    NonTransverse,
    recursion_nd,
    reducible_census,
    tropical_intersection,
    wdvv_sides,
)
from tropcount.linalg import det
from tropcount.moduli_maps import (
    ev_matrix,
    four_valent_resolutions,
    multiplicity,
    pi_matrix,
)

from test_kontsevich import curves_for_bezout
from test_moduli_maps import star_cases

EV_SEEDS = (0, 1, 2)
GOLDEN = {1: 1, 2: 1, 3: 12, 4: 620}


@contextmanager
def checklist(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


@pytest.fixture(scope="module")
def ev_fibers():
    out = {}
    for d in (1, 2, 3):
        for seed in EV_SEEDS:
            t0 = time.perf_counter()
            _, sols = sampled_fiber(EV, d, seed)
            out[d, seed] = (time.perf_counter() - t0, sols)
    return out


def test_criterion_1_recursion_golden_values():
    with checklist("criterion 1 (recursion golden values)"):
        t0 = time.perf_counter()
        table = recursion_nd(10)
        elapsed = time.perf_counter() - t0
        for d, want in GOLDEN.items():
            assert table[d] == want
        assert elapsed < 1.0


def test_criterion_2_direct_enumeration_agrees(ev_fibers):
    with checklist("criterion 2 (direct enumeration matches recursion)"):
        for d in (1, 2, 3):
            for seed in EV_SEEDS:
                elapsed, sols = ev_fibers[d, seed]
                assert sum(s.mult for s in sols) == GOLDEN[d]
                assert elapsed <= (1.0 if d <= 2 else 600.0)


def test_criterion_3_multiplicity_oracle(ev_fibers):
    with checklist("criterion 3 (determinant equals vertex product)"):
        audited = 0
        for (_, _), (_, sols) in ev_fibers.items():
            for sol in sols:
                by_det = multiplicity(ev_matrix(sol.type))
                by_vertices = curve_multiplicity(sol.type)
                assert sol.mult == by_det == by_vertices
                audited += 1
        assert audited >= 3 + 3 + 3 * 9  # 1 + 1 + 9 solutions per seed


def test_criterion_4_wall_crossing_invariance():
    with checklist("criterion 4 (invariance across rays and lengths)"):
        report = invariance_check(2, trials=3, seed=0)
        assert report.degree == 2
        assert len(report.checks) == 18  # 3 configs x 3 rays x 2 lengths
        for ray in ("A", "B", "C"):
            lengths = {ln for r, ln, _ in report.checks if r == ray}
            assert len(lengths) >= 2
        assert {deg for _, _, deg in report.checks} == {2}

        # local constancy at the walls: the three resolutions of a
        # 4-valent star have determinants summing to zero
        stars = 0
        unbounded_stars = 0
        for star, rows in star_cases():
            dets = []
            for resolved, new_edge in four_valent_resolutions(star, 0):
                # the new edge's length is the last column in every resolution
                assert resolved.graph.bounded_edges()[-1] == new_edge
                cm = ev_matrix(resolved, which=rows)
                dets.append(det(cm))
            assert len(dets) == 3
            assert sum(dets) == 0
            assert any(x != 0 for x in dets)
            stars += 1
            if rows is None:  # this family keeps an unbounded germ
                unbounded_stars += 1
        assert stars >= 10
        assert unbounded_stars >= 1


@pytest.fixture(scope="module")
def censuses():
    return {ray: reducible_census(2, pi_config(2, seed=1, ray=ray))
            for ray in ("A", "B", "C")}


def test_criterion_5_reducible_fiber_structure(censuses):
    with checklist("criterion 5 (large-length fiber census)"):
        nd = recursion_nd(2)
        lhs, rhs = wdvv_sides(2, nd)
        partner = {"A": 1, "B": 2, "C": 3}
        for ray, census in censuses.items():
            assert sum(e.mult for e in census.entries) == (lhs if ray == "A" else rhs)
            for entry in census.entries:
                t = entry.solution.type
                assert len(t.contracted_bounded_edges()) == 1
                assert entry.case in ("a", "b")
                if entry.case == "a":
                    # both pin marks sit together on the contracted edge
                    assert ray == "A"
                else:
                    assert entry.d1 + entry.d2 == 2
                    assert (partner[ray] in entry.marks_on_first) == (
                        0 in entry.marks_on_first
                    )
            if ray == "A":
                assert census.case_a_total == nd[2]
                assert dict(census.b_totals) == {(1, 1): math.comb(2, 2)}
            else:
                assert census.case_a_total == 0
                assert dict(census.b_totals) == {(1, 1): math.comb(2, 1)}


def test_criterion_6_pi_multiplicity_factorization(censuses):
    with checklist("criterion 6 (split-curve multiplicity product)"):
        b_entries = 0
        for census in censuses.values():
            for entry in census.entries:
                if entry.case != "b":
                    continue
                assert math.prod(entry.factors) == entry.mult
                assert multiplicity(pi_matrix(entry.solution.type, 2)) == entry.mult
                b_entries += 1
        assert b_entries >= 3


def test_degree_3_reducible_fiber_trade():
    with checklist("degree 3 (reducible-fiber trade on rays A, B, C)"):
        nd = recursion_nd(3)
        lhs, rhs = wdvv_sides(3, nd)
        assert lhs == rhs == 40
        for ray in ("A", "B", "C"):
            census = reducible_census(3, pi_config(3, seed=0, ray=ray))
            assert sum(e.mult for e in census.entries) == (lhs if ray == "A" else rhs)
            assert census.case_a_total == (nd[3] if ray == "A" else 0)
            for entry in census.entries:
                if entry.case == "b":
                    assert math.prod(entry.factors) == entry.mult


def test_criterion_7_tropical_bezout():
    with checklist("criterion 7 (intersection totals and transversality)"):
        lines, conics = curves_for_bezout()
        pairs = []
        for a, b in itertools.combinations(lines, 2):
            pairs.append((a, 1, b, 1))
        for a in lines:
            for b in conics:
                pairs.append((a, 1, b, 2))
        for a, b in itertools.combinations(conics, 2):
            pairs.append((a, 2, b, 2))
        assert len(pairs) >= 20
        for a, d1, b, d2 in pairs:
            hits = tropical_intersection(a, b)
            assert sum(m for _, m in hits) == d1 * d2
        with pytest.raises(NonTransverse):
            tropical_intersection(lines[0], lines[0])


def test_full_scale_recursion_identity():
    with checklist("full scale (algebraic identity through degree 10)"):
        nd = recursion_nd(10)
        for d in range(2, 11):
            lhs, rhs = wdvv_sides(d, nd)
            assert lhs == rhs
