import copy
import itertools
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tropcount.enumeration import (
    EV,
    PI,
    FiberSolution,
    GeneralPositionViolation,
    PointConfig,
    _Classes,
    _TreeData,
    _classes,
    _ev_tree_data,
    _integer_points,
    _mark_classes,
    _ordered_sign,
    _pi_tree_data,
    _point_stage,
    _search_tree,
    _subdivide,
    _tree_data,
    _widen,
    base_trees,
    curve_multiplicity,
    decompose_reducible,
    ev_config,
    fiber,
    find_string,
    invariance_check,
    large_length,
    pi_config,
    sample_points,
    sampled_degree,
    sampled_fiber,
)
import tropcount
from tropcount import enumeration
from tropcount.graph import AbstractType, Graph, trivalent_trees_on_leaves
from tropcount.kontsevich import reducible_census
from tropcount.linalg import det, solve
from tropcount.moduli_maps import (
    _PAIRINGS,
    M4Point,
    ev_matrix,
    ft4_coordinate,
    m4_point,
    multiplicity,
    pi_matrix,
    pi_which,
)
from tropcount.plane import (
    PlaneCurve,
    PlaneType,
    ZERO,
    canonical_plane_form,
    cross,
    derive_directions,
    image_position,
    image_segments,
    projective_degree,
    vneg,
)

W, S, NE = (-1, 0), (0, -1), (1, 1)


def brute_force_plane_types(d, n):
    """Oracle enumeration: every labeled tree, every ordered choice of mark
    leaves, every assignment of the degree multiset to the other leaves."""
    total = 3 * d + n
    deg = projective_degree(d)
    assignments = sorted(set(itertools.permutations(deg)))
    seen = {}
    for g, leaves in trivalent_trees_on_leaves(range(total)):
        for mark_sel in itertools.permutations(range(total), n):
            chosen = set(mark_sel)
            marks = tuple(leaves[i] for i in mark_sel)
            rest = [leaves[i] for i in range(total) if i not in chosen]
            for perm in assignments:
                dirs = derive_directions(g, marks, dict(zip(rest, perm)))
                t = PlaneType(AbstractType(g, marks), dirs)
                seen.setdefault(canonical_plane_form(t), t)
    return seen


def count_strings(c):
    """Oracle: components left after deleting closed mark stars, counted by
    how many have at least two unbounded unmarked ends."""
    g = c.graph
    mark_vertices = {g.flag_vertex[f] for f in c.marks}
    comp = {}
    for v in range(g.num_vertices):
        if v in mark_vertices or v in comp:
            continue
        comp[v] = v
        stack = [v]
        while stack:
            u = stack.pop()
            for f in g.flags_at(u):
                p = g.flag_partner[f]
                if p is None:
                    continue
                w = g.flag_vertex[p]
                if w not in mark_vertices and w not in comp:
                    comp[w] = v
                    stack.append(w)
    ends = {}
    for f in g.end_flags():
        if f in c.marks or g.flag_vertex[f] not in comp:
            continue
        ends.setdefault(comp[g.flag_vertex[f]], []).append(f)
    return sum(1 for fs in ends.values() if len(fs) >= 2)


def make_tree(bonds, leaf_vertices):
    fv, fp = [], []
    leaf_flags = []
    for v in leaf_vertices:
        leaf_flags.append(len(fv))
        fv.append(v)
        fp.append(None)
    for u, v in bonds:
        a = len(fv)
        fv.append(u)
        fp.append(None)
        b = len(fv)
        fv.append(v)
        fp.append(None)
        fp[a], fp[b] = b, a
    return Graph(fv, fp), leaf_flags


def plane_type(bonds, leaf_vertices, mark_slots, end_dirs_by_slot):
    g, leaves = make_tree(bonds, leaf_vertices)
    marks = tuple(leaves[i] for i in mark_slots)
    end_dirs = {leaves[i]: d for i, d in end_dirs_by_slot.items()}
    dirs = derive_directions(g, marks, end_dirs)
    return PlaneType(AbstractType(g, marks), dirs)


def marked_line(*ray_of_mark):
    """Degree-1 star with marks subdividing the listed rays (0=W,1=S,2=NE).

    Repeated rays stack marks outward in argument order.
    """
    dirs_by_ray = [W, S, NE]
    bonds = []
    leaf_vertices = [0, 0, 0]
    tip = {0: 0, 1: 1, 2: 2}  # leaf slot of each ray's current outer end
    host_vertex = {0: 0, 1: 0, 2: 0}
    mark_slots = []
    next_vertex = 1
    for ray in ray_of_mark:
        bonds.append((host_vertex[ray], next_vertex))
        mark_slots.append(len(leaf_vertices))
        leaf_vertices.append(next_vertex)  # the mark
        leaf_vertices[tip[ray]] = next_vertex  # outer end moves outward
        host_vertex[ray] = next_vertex
        next_vertex += 1
    end_dirs = {0: W, 1: S, 2: NE}
    return plane_type(bonds, leaf_vertices, mark_slots, end_dirs)


# --- type enumeration ------------------------------------------------------


def test_line_has_one_type():
    types = list(base_trees(1))
    assert len(types) == 1
    (t,) = types
    assert t.degree() == projective_degree(1)
    assert t.codim() == 0
    assert len(t.marks) == 0


def test_enumeration_matches_brute_force_line_marked():
    # marks are singleton classes of the grower, ends are classed by direction
    deg = list(projective_degree(1))
    for n in (1, 2):
        oracle = brute_force_plane_types(1, n)
        classes = [("mark", i) for i in range(n)] + deg
        ours = set()
        for g, leaves in trivalent_trees_on_leaves(classes):
            marks = leaves[:n]
            dirs = derive_directions(g, marks, dict(zip(leaves[n:], deg)))
            ours.add(canonical_plane_form(PlaneType(AbstractType(g, marks), dirs)))
        assert ours == set(oracle)


def test_enumeration_matches_brute_force_conic():
    oracle = brute_force_plane_types(2, 0)
    ours = [canonical_plane_form(t) for t in base_trees(2)]
    assert len(ours) == len(set(ours))
    assert set(ours) == set(oracle)


def test_enumerated_types_are_wellformed():
    for t in base_trees(2):
        assert t.codim() == 0
        assert t.degree() == projective_degree(2)
        assert t.marks == ()
        assert all(t.dirs[f] != (0, 0) for f in t.graph.end_flags())


def test_base_trees_cached_and_consistent():
    assert base_trees(1) is base_trees(1)
    assert base_trees(2) is base_trees(2)


def test_degree_3_base_trees_are_distinct_classes():
    trees = base_trees(3)
    assert len(trees) == 1233
    assert len({canonical_plane_form(t) for t in trees}) == 1233
    assert all(t.degree() == projective_degree(3) for t in trees)


# --- strings and vertex multiplicities --------------------------------------


def test_find_string_none_when_marks_split_everything():
    t = marked_line(0, 1)  # marks on the west and south rays
    c = t.with_lengths({e: 1 for e in t.graph.bounded_edges()}, 0, (0, 0))
    assert find_string(c) is None
    assert count_strings(c) == 0
    assert curve_multiplicity(c) == 1


def test_find_string_same_ray_marks_leave_one():
    t = marked_line(0, 0)  # both marks on the west ray
    c = t.with_lengths({e: 1 for e in t.graph.bounded_edges()}, 0, (0, 0))
    path = find_string(c)
    assert path is not None
    assert count_strings(c) == 1
    first, last = path[0], path[-1]
    assert {c.dirs[first], c.dirs[last]} == {S, NE}
    assert curve_multiplicity(c) == 0


def test_find_string_single_mark_line():
    t = marked_line(0)
    c = t.with_lengths({e: 1 for e in t.graph.bounded_edges()}, 0, (0, 0))
    path = find_string(c)
    assert path is not None
    assert count_strings(c) == 1
    assert {c.dirs[path[0]], c.dirs[path[-1]]} == {S, NE}


def test_four_marked_conic_has_exactly_one_string():
    # chain of four vertices carrying degree 2; marks block four of the six
    # ends, leaving the two ends of the last vertex joined by a free path
    bonds = [(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (1, 6), (2, 7)]
    leaf_vertices = [4, 5, 6, 7, 4, 5, 6, 7, 3, 3]
    t = plane_type(
        bonds,
        leaf_vertices,
        mark_slots=[0, 1, 2, 3],
        end_dirs_by_slot={
            4: W, 5: S, 6: W, 7: NE, 8: NE, 9: S,
        },
    )
    assert t.degree() == projective_degree(2)
    c = t.with_lengths({e: 1 for e in t.graph.bounded_edges()}, 0, (0, 0))
    assert count_strings(c) == 1
    path = find_string(c)
    assert path is not None
    assert c.graph.flag_vertex[path[0]] == 3
    assert c.graph.flag_vertex[path[-1]] == 3
    assert curve_multiplicity(c) == 0


def test_curve_multiplicity_vertex_product():
    # one vertex of the image has outgoing directions (1,1) and (-2,1)
    t = plane_type(
        bonds=[(0, 1), (0, 2)],
        leaf_vertices=[0, 1, 1, 2, 2],
        mark_slots=[1, 3],
        end_dirs_by_slot={0: (1, -2), 2: (1, 1), 4: (-2, 1)},
    )
    c = t.with_lengths({e: 1 for e in t.graph.bounded_edges()}, 0, (0, 0))
    assert find_string(c) is None
    assert curve_multiplicity(c) == 3


def test_curve_multiplicity_accepts_types():
    t = marked_line(0, 1)
    assert curve_multiplicity(t) == 1


# --- sector cone arithmetic --------------------------------------------------
# The cone geometry the arcs of class indices replaced, kept as the oracle
# of td.cones.  A sector is None (whole plane) or a pair (lo, hi) of
# integer vectors with angular span at most a half turn; it stands for all
# positive combinations of the path directions between two host edges.


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1]


def _sector_has(sec, x) -> bool:
    if sec is None:
        return True
    # cross(lo, x) and cross(x, hi), written out
    (lx, ly), (hx, hy) = sec
    x0, x1 = x
    c1 = lx * x1 - ly * x0
    c2 = x0 * hy - x1 * hx
    if c1 < 0 or c2 < 0:
        return False
    return c1 > 0 or c2 > 0 or lx * x0 + ly * x1 > 0 or hx * x0 + hy * x1 > 0


def _sector(gens):
    gens = [g for g in gens if g != ZERO]
    lo = hi = gens[0]
    for g in gens[1:]:
        if _sector_has((lo, hi), g):
            continue
        cl = cross(lo, g)
        if (cl > 0 or (cl == 0 and _dot(lo, g) < 0)) and cross(hi, g) >= 0:
            hi = g
            continue
        ch = cross(g, hi)
        if (ch > 0 or (ch == 0 and _dot(g, hi) < 0)) and cross(g, lo) >= 0:
            lo = g
            continue
        return None
    return (lo, hi)


def _sector_reverse(sec):
    # point reflection keeps orientation: the negated cone runs -lo to -hi
    if sec is None:
        return None
    lo, hi = sec
    return (vneg(lo), vneg(hi))


def _sector_meets_vertical(sec, dx) -> bool:
    """Is any (dx, y) inside the sector?  Conservative on boundaries.

    dx is an integer; the bounds on y are compared cross-multiplied.
    """
    if sec is None:
        return True
    (lx, ly), (hx, hy) = sec
    lower = upper = None
    # cross(lo, (dx, y)) >= 0 and cross((dx, y), hi) >= 0, each as coeff*y >= const
    for coeff, const in ((lx, ly * dx), (-hx, -hy * dx)):
        if coeff > 0:
            lower = (const, coeff)
        elif coeff < 0:
            upper = (const, coeff)
        elif const > 0:
            return False
    if lower is None or upper is None:
        return True
    # const_l / coeff_l <= const_u / coeff_u, times coeff_l * -coeff_u > 0
    (cl, kl), (cu, ku) = lower, upper
    return cl * -ku + cu * kl <= 0


def _swap(v):
    return (v[1], v[0])


def _sector_meets_horizontal(sec, dy) -> bool:
    if sec is None:
        return True
    lo, hi = sec
    return _sector_meets_vertical((_swap(hi), _swap(lo)), dy)


def path_dirs(td, h1, h2):
    """Directions out of host h1, along the path between the two hosts,
    then along host h2."""
    g = td.t.graph
    dirs = td.t.dirs
    walk = g.path_flags(g.flag_vertex[h1], g.flag_vertex[h2])
    first = vneg(dirs[h1])
    if walk and walk[0] == h1:  # the walk starts along h1 itself
        walk = walk[1:]
        first = dirs[h1]
    last = dirs[h2]
    if walk and walk[-1] == g.flag_partner[h2]:  # it ends along h2
        walk = walk[:-1]
        last = vneg(dirs[h2])
    return [first] + [dirs[f] for f in walk] + [last]


def sectors(td) -> tuple:
    """sectors(td)[i][j] is the cone of displacements from a point on host
    td.handles[i] to one on td.handles[j]; the diagonal is None."""
    hs = td.handles
    s = [[None] * len(hs) for _ in hs]
    for i, h1 in enumerate(hs):
        for j in range(i + 1, len(hs)):
            s[i][j] = _sector(path_dirs(td, h1, hs[j]))
            s[j][i] = _sector_reverse(s[i][j])
    return tuple(map(tuple, s))


vectors = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda v: v != (0, 0)
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(vectors, min_size=1, max_size=4),
    st.lists(st.integers(0, 5), min_size=4, max_size=4),
)
def test_sector_contains_nonnegative_combinations(gens, coeffs):
    x = (0, 0)
    for g, c in zip(gens, coeffs):
        x = (x[0] + c * g[0], x[1] + c * g[1])
    if x == (0, 0):
        return
    sec = _sector(gens)
    assert _sector_has(sec, x)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(vectors, min_size=1, max_size=4),
    st.lists(st.integers(0, 5), min_size=4, max_size=4),
)
def test_sector_line_feasibility_is_safe(gens, coeffs):
    x = (0, 0)
    for g, c in zip(gens, coeffs):
        x = (x[0] + c * g[0], x[1] + c * g[1])
    if x == (0, 0):
        return
    sec = _sector(gens)
    assert _sector_meets_vertical(sec, x[0])
    assert _sector_meets_horizontal(sec, x[1])


def sector_meets_vertical_by_fractions(sec, dx) -> bool:
    """Oracle: the line test with Fraction bounds on y."""
    if sec is None:
        return True
    lo, hi = sec
    lower, upper = None, None
    for vx, vy, sign in ((lo[0], lo[1], 1), (hi[0], hi[1], -1)):
        coeff = sign * vx
        const = sign * vy * dx
        if coeff > 0:
            bound = Fraction(const, coeff)
            lower = bound if lower is None else max(lower, bound)
        elif coeff < 0:
            bound = Fraction(const, coeff)
            upper = bound if upper is None else min(upper, bound)
        elif const > 0:
            return False
    return lower is None or upper is None or lower <= upper


def sector_meets_horizontal_by_fractions(sec, dy) -> bool:
    if sec is None:
        return True
    lo, hi = sec
    return sector_meets_vertical_by_fractions(((hi[1], hi[0]), (lo[1], lo[0])), dy)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(vectors, min_size=1, max_size=4),
    st.sampled_from(["free", "zero", "generator", "boundary"]),
    st.integers(0, 3),
    st.integers(-6, 6),
    st.integers(-30, 30),
)
def test_integer_line_tests_match_fraction_oracle(gens, kind, pick, t, free):
    sec = _sector(gens)
    # boundary cases: the line through the apex, and lines through integer
    # points t*g of a generator's line or of a sector boundary
    if kind == "zero":
        along = (0, 0)
    elif kind == "generator":
        along = gens[pick % len(gens)]
    elif kind == "boundary" and sec is not None:
        along = sec[pick % 2]
    else:
        along = (free, free)
        t = 1
    dx, dy = t * along[0], t * along[1]
    assert _sector_meets_vertical(sec, dx) == sector_meets_vertical_by_fractions(sec, dx)
    assert _sector_meets_horizontal(sec, dy) == sector_meets_horizontal_by_fractions(
        sec, dy
    )


def _handle_points(c, td, h, fractions):
    """Sample image points along handle h (bounded edge or unbounded end)."""
    g = c.graph
    if g.flag_partner[h] is not None:
        start = image_position(c, g.flag_vertex[h])
        span = g.lengths[g.edge_of_flag(h)]
    else:
        start = image_position(c, g.flag_vertex[h])
        span = Fraction(17, 2)  # arbitrary finite window on the ray
    d = c.dirs[h]
    return [
        (start[0] + f * span * d[0], start[1] + f * span * d[1])
        for f in fractions
    ]


def sector_map(td):
    """sectors(td) keyed by the pairs of handles it runs between."""
    hs = td.handles
    return {
        (h1, h2): sec
        for h1, row in zip(hs, sectors(td))
        for h2, sec in zip(hs, row)
        if h1 != h2
    }


def test_sector_cache_matches_geometry():
    # displacements between actual handle points must lie in the cached cone
    samples = [Fraction(0), Fraction(1, 3), Fraction(1)]
    lengths_cycle = [1, 2, Fraction(1, 2), 3, Fraction(5, 3)]
    for td in _ev_tree_data(2)[:8]:
        t = td.t
        lens = {
            e: lengths_cycle[i % len(lengths_cycle)]
            for i, e in enumerate(t.graph.bounded_edges())
        }
        c = t.with_lengths(lens, 0, (Fraction(1, 7), Fraction(-2, 5)))
        secs = sector_map(td)
        hs = td.handles
        for h1 in hs[:4]:
            for h2 in hs[:4]:
                if h1 == h2:
                    continue
                for p1 in _handle_points(c, td, h1, samples):
                    for p2 in _handle_points(c, td, h2, samples):
                        delta = (p2[0] - p1[0], p2[1] - p1[1])
                        if delta == (0, 0):
                            continue
                        assert _sector_has(secs[(h1, h2)], delta)


# --- sampling ----------------------------------------------------------------


def test_sample_points_deterministic_and_generic():
    a = sample_points(5, seed=3)
    b = sample_points(5, seed=3)
    assert a == b
    assert sample_points(5, seed=4) != a
    assert sample_points(5, seed=3, attempt=1) != a
    denominators = [c.denominator for p in a for c in p]
    assert len(set(denominators)) == len(denominators)
    assert all(c.numerator != 0 for p in a for c in p)


def test_config_shapes():
    ev = ev_config(2, seed=0)
    assert len(ev.points) == 5
    assert ev.m4 is None
    pi = pi_config(2, seed=0, ray="B")
    assert len(pi.points) == 6
    assert pi.m4.ray == "B"
    assert pi.m4.length == large_length(2, pi.points)
    doubled = pi_config(2, seed=0, ray="B", scale=2)
    assert doubled.m4.length == 2 * pi.m4.length


@pytest.mark.parametrize("d", [1, 2])
def test_large_length_matches_base_tree_bound(d):
    pts = sample_points(3 * d, seed=5)
    diam = max(
        abs(ax - bx) + abs(ay - by)
        for (ax, ay), (bx, by) in itertools.combinations(pts, 2)
    )
    top = max(abs(x) for t in base_trees(d) for v in t.dirs for x in v)
    assert large_length(d, pts) == 4 * diam * top + 1


def test_pi_config_builds_no_base_trees(monkeypatch):
    def refuse(d):
        raise RuntimeError("base trees built")

    monkeypatch.setattr(enumeration, "base_trees", refuse)
    cfg = pi_config(3, 0, "A")
    assert cfg.m4.ray == "A" and len(cfg.points) == 9


def test_point_config_json_roundtrip():
    cfg = pi_config(2, seed=1, ray="C")
    assert PointConfig.from_json(cfg.to_json()) == cfg
    plain = ev_config(1, seed=1)
    assert PointConfig.from_json(plain.to_json()) == plain


def test_line_coordinates_of_config():
    cfg = PointConfig(((Fraction(1, 2), 3), (4, Fraction(-2, 7))))
    assert cfg.points[0][0] == Fraction(1, 2)
    assert cfg.points[1][1] == Fraction(-2, 7)


# --- evaluation fibers -------------------------------------------------------


def test_ev_fiber_line_through_two_points():
    cfg = PointConfig(((0, 0), (5, 3)))
    sols = fiber(EV, 1, cfg)
    assert len(sols) == 1
    (sol,) = sols
    assert sol.mult == 1
    c = sol.curve()
    for i, p in enumerate(cfg.points):
        assert image_position(c, c.mark_vertex(i)) == p
    assert sum(s.mult for s in fiber(EV, 1, cfg)) == 1


def test_ev_fiber_degenerate_input_raises():
    # all points on one line: a direction of the ends, or the line y = x
    for d, pts in [
        (1, ((0, 0), (1, 1))),
        (1, ((0, 0), (0, 1))),
        (1, ((0, 0), (3, 0))),
        (2, tuple((i, 0) for i in range(5))),
        (2, tuple((i, i) for i in range(5))),
    ]:
        with pytest.raises(GeneralPositionViolation):
            fiber(EV, d, PointConfig(pts))


def test_ev_degree_one_for_lines_and_conics():
    for seed in range(5):
        deg, cfg = sampled_degree(EV, 1, seed)
        assert deg == 1
        deg2, _ = sampled_degree(EV, 2, seed)
        assert deg2 == 1


def test_ev_solutions_hit_the_points_exactly():
    cfg, sols = sampled_fiber(EV, 2, seed=7)
    assert sum(s.mult for s in sols) == 1
    for sol in sols:
        c = sol.curve()
        assert sol.type.codim() == 0
        assert all(l > 0 for l in sol.coords[2:])
        assert sol.mult == curve_multiplicity(c) > 0
        for i, p in enumerate(cfg.points):
            assert image_position(c, c.mark_vertex(i)) == p


def test_solution_keeps_its_curve_and_its_type_key(monkeypatch):
    _, sols = sampled_fiber(EV, 2, seed=7)
    sol = sols[0]
    twin = FiberSolution(PlaneType(sol.type.abstract, sol.type.dirs), sol.coords, sol.mult)
    looks = [(repr(x), hash(x)) for x in (sol, sol.type)]
    # the leaf keyed the fiber by the type's form and checked the curve's
    # vertex product, so the solution holds both
    assert "canonical" in vars(sol.type) and "_curve" in vars(sol)
    assert "canonical" not in vars(twin.type) and "_curve" not in vars(twin)
    assert sol.curve() is sol.curve()
    calls = []
    form = tropcount.plane.canonical_form
    monkeypatch.setattr(
        tropcount.plane, "canonical_form", lambda *a: calls.append(a) or form(*a)
    )
    assert canonical_plane_form(twin.type) == canonical_plane_form(twin.type)
    assert canonical_plane_form(sol.type) == canonical_plane_form(twin.type)
    assert len(calls) == 1  # the twin's, computed once
    twin.curve()
    assert sol == twin and sol.type == twin.type
    assert looks == [(repr(x), hash(x)) for x in (twin, twin.type)]
    for back in (pickle.loads(pickle.dumps(sol)), copy.deepcopy(sol)):
        assert back == sol and back.type == sol.type
        assert "_curve" not in vars(back) and "canonical" not in vars(back.type)
        assert back.curve() == sol.curve()
        assert looks == [(repr(x), hash(x)) for x in (back, back.type)]


def ev_fiber_is_exact(d, cfg) -> bool:
    """False if the input is reported degenerate; otherwise every solution
    solves ev_matrix(type) . coords = points exactly and the total is N_d."""
    try:
        sols = fiber(EV, d, cfg)
    except GeneralPositionViolation:
        return False
    rhs = [c for p in cfg.points for c in p]
    for sol in sols:
        rows = ev_matrix(sol.type)
        assert [sum(a * x for a, x in zip(row, sol.coords)) for row in rows] == rhs
    assert sum(s.mult for s in sols) == 1  # N_1 = N_2 = 1
    return True


@pytest.mark.parametrize("d", [1, 2])
def test_ev_solutions_solve_the_evaluation_rows(d):
    for seed in range(10):
        assert ev_fiber_is_exact(d, ev_config(d, seed))


# a coordinate with denominator 2, 3, 5, 7 or 11
proper_fraction = st.tuples(
    st.integers(-60, 60), st.sampled_from([2, 3, 5, 7, 11])
).filter(lambda t: t[0] % t[1]).map(lambda t: Fraction(*t))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2]), st.data())
def test_ev_solutions_exact_on_drawn_points(d, data):
    pts = data.draw(
        st.lists(
            st.tuples(proper_fraction, proper_fraction),
            min_size=3 * d - 1,
            max_size=3 * d - 1,
        )
    )
    ev_fiber_is_exact(d, PointConfig(tuple(pts)))


def fraction_run_plan(plan, dirs, assign, pts, pos, lens):
    """Solve one component of a cut tree bottom-up, in fractions; returns
    the written keys, or None when a length is negative.

    Each vertex is the intersection of two lines anchored below it, one per
    branch: a mark's point or a solved child vertex.  Both intersection
    parameters are lengths; an exact zero raises."""
    written = []

    def line(br):
        kind, a, f, e = br
        if kind == "m":
            return pts[assign[a]], (-dirs[f][0], -dirs[f][1]), ("p", f)
        return pos[("v", a)], dirs[f], ("e", e)

    for u, b1, b2 in plan:
        q1, u1, k1 = line(b1)
        q2, u2, k2 = line(b2)
        den = u1[0] * u2[1] - u1[1] * u2[0]
        wx = q2[0] - q1[0]
        wy = q2[1] - q1[1]
        s1 = Fraction(wx * u2[1] - wy * u2[0], den)
        s2 = Fraction(wx * u1[1] - wy * u1[0], den)
        if s1 == 0 or s2 == 0:
            raise GeneralPositionViolation("zero edge length")
        if s1 < 0 or s2 < 0:
            for key in written:
                del (pos if key[0] == "v" else lens)[key]
            return None
        pos[("v", u)] = (q1[0] + s1 * u1[0], q1[1] + s1 * u1[1])
        lens[k1] = s1
        lens[k2] = s2
        written.extend((k1, k2, ("v", u)))
    return written


def test_ev_fiber_coincident_points_raise():
    with pytest.raises(GeneralPositionViolation):
        fiber(EV, 1, PointConfig(((0, 0), (0, 0))))
    pts = ev_config(2, 0).points
    with pytest.raises(GeneralPositionViolation):
        fiber(EV, 2, PointConfig(pts[:4] + (pts[1],)))


def test_ev_fiber_prunes_a_negative_length_before_a_zero_one():
    # some placement here solves to a zero length and a negative one; it is
    # pruned, where solving its lengths in end-flag order met the zero first
    # and raised
    F = Fraction
    pts = (
        (F(22, 5), F(37, 7)),
        (F(43, 5), F(-36, 11)),
        (F(29, 3), F(33, 7)),
        (F(22, 5), F(-47, 5)),
        (F(51, 7), F(49, 11)),
    )
    assert ev_fiber_is_exact(2, PointConfig(pts))


def cut_structures(td):
    """(components, each (ends, cut edges)) for every cut set of bounded
    edges that leaves each component at least one unbounded end."""
    g = td.t.graph
    bounded = g.bounded_edges()
    for r in range(len(bounded) + 1):
        for cut in itertools.combinations(bounded, r):
            groups = []
            for v in range(g.num_vertices):
                if not any(v in verts for verts in groups):
                    groups.append(g.component(v, cut_edges=cut))
            comps = [
                (
                    tuple(f for f in g.end_flags() if g.flag_vertex[f] in verts),
                    tuple(
                        e
                        for e in cut
                        if any(g.flag_vertex[f] in verts for f in g.edge_flags(e))
                    ),
                )
                for verts in groups
            ]
            if all(ends for ends, _ in comps):
                yield comps


def component_plan(td, ends, cut, kept_end):
    """Postorder solve plan for one component, rooted at its kept end."""
    g = td.t.graph
    plan = []

    def visit(u, entry_flag):
        branches = []
        for f in g.flags_at(u):
            if f == entry_flag:
                continue
            p = g.flag_partner[f]
            if p is None:
                assert f in ends and f != kept_end
                branches.append(("m", f, f, None))
            elif min(f, p) in cut:
                branches.append(("m", min(f, p), f, None))
            else:
                w = g.flag_vertex[p]
                visit(w, p)
                branches.append(("c", w, p, min(f, p)))
        plan.append((u, branches[0], branches[1]))

    visit(g.flag_vertex[kept_end], kept_end)
    return plan


def emit_ev_solution(td, assign, pos, lens, found, n):
    """Build the marked type of a one-mark-per-host placement and its
    solution from the vertices and lengths the plans solved."""
    g = td.t.graph
    placements = {h: [("mark", m)] for h, m in assign.items()}
    mt, piece_ids = _subdivide(td.t, placements, n)
    key = canonical_plane_form(mt)
    if key in found:
        return
    lengths = {k[1]: v for k, v in lens.items() if k[0] == "e"}
    for h, ids in piece_ids.items():
        far = g.flag_partner[h]
        lengths[ids[0]] = lens[("p", h)]
        if far is not None:
            lengths[ids[1]] = lens[("p", far)]
    root_pos = pos[("v", 0)]
    mult = curve_multiplicity(mt.with_lengths(lengths, 0, root_pos))
    assert mult == multiplicity(ev_matrix(mt)) > 0
    coords = root_pos + tuple(lengths[e] for e in mt.graph.bounded_edges())
    found[key] = FiberSolution(mt, coords, mult)


def cut_structure_ev_fiber(d, cfg):
    """Oracle: the evaluation search the shared placement search replaced.

    For every cut set of bounded edges and every choice of one kept end per
    component, the other ends and the cut edges are the hosts, one mark
    each.  The search restarts for each such choice and solves a component
    as soon as its hosts are filled."""
    n = 3 * d - 1
    if len(set(cfg.points)) != n:
        raise GeneralPositionViolation("two input points coincide")
    ipts = scaled_points(cfg)
    found = {}
    for td in _ev_tree_data(d):
        secs = sector_map(td)
        for comps in cut_structures(td):
            for kept in itertools.product(*(ends for ends, _ in comps)):
                hosts_of = [
                    tuple(e for e in ends if e != kept[i]) + cut
                    for i, (ends, cut) in enumerate(comps)
                ]
                order = sorted(range(len(comps)), key=lambda i: (len(hosts_of[i]), i))
                host_seq, completes = [], {}
                for ci in order:
                    host_seq.extend(h for h in hosts_of[ci] if h not in host_seq)
                    completes.setdefault(len(host_seq) - 1, []).append(ci)
                assert len(host_seq) == n
                assign, pos, lens = {}, {}, {}

                def rec(k):
                    if k == n:
                        emit_ev_solution(td, assign, pos, lens, found, n)
                        return
                    h = host_seq[k]
                    for m in range(n):
                        if m in assign.values():
                            continue
                        im = ipts[m]
                        if not all(
                            _sector_has(secs[(h2, h)], (im[0] - ipts[m2][0], im[1] - ipts[m2][1]))
                            for h2, m2 in assign.items()
                        ):
                            continue
                        assign[h] = m
                        solved = []
                        for ci in completes.get(k, ()):
                            plan = component_plan(td, *comps[ci], kept[ci])
                            written = fraction_run_plan(
                                plan, td.t.dirs, assign, cfg.points, pos, lens
                            )
                            if written is None:
                                break
                            solved.append(written)
                        else:
                            rec(k + 1)
                        for written in solved:
                            for key in written:
                                del (pos if key[0] == "v" else lens)[key]
                        del assign[h]

                rec(0)
    return [found[k] for k in sorted(found, key=repr)]


def fiber_or_degenerate(compute, *args):
    try:
        return compute(*args)
    except GeneralPositionViolation:
        return "degenerate"


@pytest.mark.parametrize("d", [1, 2])
def test_ev_fiber_matches_cut_structure_oracle(d):
    for seed in range(10):
        cfg = ev_config(d, seed)
        assert fiber(EV, d, cfg) == cut_structure_ev_fiber(d, cfg)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2]), st.data())
def test_ev_fiber_matches_cut_structure_oracle_on_drawn_points(d, data):
    pts = data.draw(
        st.lists(
            st.tuples(proper_fraction, proper_fraction),
            min_size=3 * d - 1,
            max_size=3 * d - 1,
        )
    )
    cfg = PointConfig(tuple(pts))
    want = fiber_or_degenerate(cut_structure_ev_fiber, d, cfg)
    got = fiber_or_degenerate(fiber, EV, d, cfg)
    if want == "degenerate" and got != "degenerate":
        # the oracle also solves components of partial placements that no
        # complete placement extends, and reports a zero length met there
        assert ev_fiber_is_exact(d, cfg)
    else:
        assert got == want


@pytest.mark.parametrize("ray", ["A", "B", "C"])
def test_pi_fiber_coincident_points_raise(ray):
    cfg = pi_config(2, 0, ray)
    pts = cfg.points
    with pytest.raises(GeneralPositionViolation):
        fiber(PI, 2, PointConfig(pts[:3] + (pts[2],) + pts[4:], cfg.m4))


def test_pi_fiber_point_on_the_vertical_line_raises():
    # point 2 on the vertical line through point 0
    cfg = pi_config(2, 0, "B")
    pts = cfg.points
    shared = (pts[0][0], pts[2][1])
    with pytest.raises(GeneralPositionViolation):
        fiber(PI, 2, PointConfig(pts[:2] + (shared,) + pts[3:], cfg.m4))


def test_fiber_rejects_unknown_map():
    with pytest.raises(ValueError):
        fiber("nope", 1, ev_config(1, 0))


def test_fiber_rejects_wrong_number_of_points():
    with pytest.raises(ValueError, match="evaluation fiber at degree 1 needs 2 points"):
        fiber(EV, 1, ev_config(2, 0))
    with pytest.raises(ValueError, match="combined-map fiber at degree 2 needs 6 points"):
        fiber(PI, 2, pi_config(3, 0, "A"))


# --- combined-map fibers -----------------------------------------------------


def check_pi_solution(sol: FiberSolution, cfg: PointConfig, d: int):
    c = sol.curve()
    assert len([e for e in c.graph.bounded_edges() if c.dirs[e] == (0, 0)]) == 1
    assert image_position(c, c.mark_vertex(0))[0] == cfg.points[0][0]
    assert image_position(c, c.mark_vertex(1))[1] == cfg.points[1][1]
    for i in range(2, 3 * d):
        assert image_position(c, c.mark_vertex(i)) == cfg.points[i]
    assert m4_point(c) == cfg.m4
    assert sol.mult > 0


def test_pi_fiber_conic_ray_a():
    cfg, sols = sampled_fiber(PI, 2, seed=0, ray="A")
    assert sum(s.mult for s in sols) == 2
    for sol in sols:
        check_pi_solution(sol, cfg, 2)


def test_pi_fiber_conic_ray_b_all_disjoint_pairs():
    cfg, sols = sampled_fiber(PI, 2, seed=0, ray="B")
    assert sum(s.mult for s in sols) == 2
    for sol in sols:
        check_pi_solution(sol, cfg, 2)
        c = sol.curve()
        assert c.mark_vertex(0) != c.mark_vertex(1)


def test_pi_degree_stable_under_free_mark_swap():
    cfg = pi_config(2, seed=3, ray="A")
    pts = list(cfg.points)
    pts[4], pts[5] = pts[5], pts[4]
    swapped = PointConfig(tuple(pts), cfg.m4)
    totals = [sum(s.mult for s in fiber(PI, 2, c)) for c in (cfg, swapped)]
    assert totals == [2, 2]


def test_invariance_check_conic():
    report = invariance_check(2, trials=1, seed=5)
    assert report.degree == 2
    assert len(report.checks) == 6
    rays = {ray for ray, _, _ in report.checks}
    assert rays == {"A", "B", "C"}
    lengths = {l for _, l, _ in report.checks}
    assert len(lengths) >= 2
    with pytest.raises(ValueError):
        invariance_check(1, trials=1)
    with pytest.raises(ValueError):
        invariance_check(2, trials=0)


def scaled_points(cfg):
    scale = math.lcm(*(c.denominator for p in cfg.points for c in p))
    return [(int(x * scale), int(y * scale)) for x, y in cfg.points]


def host_orders(where, cluster):
    """Every occupancy of one assignment: the items on each host, nearest
    the host's own flag first, in every order."""
    items = {}
    for m, h in sorted(where.items()):
        if cluster and m == cluster[1]:
            continue
        item = ("cluster", cluster) if cluster and m == cluster[0] else ("mark", m)
        items.setdefault(h, []).append(item)
    hosts = sorted(items)
    for orders in itertools.product(*(itertools.permutations(items[h]) for h in hosts)):
        yield {h: list(order) for h, order in zip(hosts, orders)}


def dense_pi_fiber(d, cfg):
    """Oracle: the dense combined-map leaf the integer kernel replaced.

    Every order of the marks of every assignment the search reaches is
    subdivided into its marked type, its ray is read off ft4_coordinate,
    and the rows of pi_matrix are solved densely against the unscaled
    rational right-hand side."""
    n = 3 * d
    rhs = [cfg.points[0][0], cfg.points[1][1]] + [c for p in cfg.points[2:] for c in p]
    rhs.append(cfg.m4.length)
    found = {}

    def leaf(td, where, cluster):
        for occupancy in host_orders(where, cluster):
            mt, _ = _subdivide(td.t, occupancy, n)
            if ft4_coordinate(mt)[0] != cfg.m4.ray:
                continue
            rows = pi_matrix(mt, d)
            res = solve(rows, rhs)
            if res.status == "inconsistent":
                continue
            if res.status == "underdetermined":
                raise GeneralPositionViolation("rank-deficient consistent system")
            lens = res.solution[2:]
            if any(v < 0 for v in lens):
                continue
            if any(v == 0 for v in lens):
                raise GeneralPositionViolation("zero edge length")
            key = canonical_plane_form(mt)
            if key not in found:
                found[key] = FiberSolution(mt, res.solution, multiplicity(rows))

    for td in _pi_tree_data(d):
        _search_tree(td, _mark_classes(_classes(d), scaled_points(cfg), pi_which(n)), leaf)
    return [found[k] for k in sorted(found, key=repr)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("ray", ["A", "B", "C"])
def test_pi_fiber_matches_dense_leaf_oracle(seed, ray):
    cfg = pi_config(2, seed, ray)
    sols = fiber(PI, 2, cfg)
    assert sols == dense_pi_fiber(2, cfg)
    assert sum(s.mult for s in sols) == 2


def assert_integer_cell_map(rows, mult):
    """Every entry, the determinant and the multiplicity are Python ints."""
    assert all(type(e) is int for row in rows for e in row)
    assert type(det(rows)) is int
    assert type(multiplicity(rows)) is int
    assert multiplicity(rows) == mult


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ev_cell_maps_are_integer_rows(d, seed):
    _, sols = sampled_fiber(EV, d, seed)
    assert sols
    for sol in sols:
        assert_integer_cell_map(ev_matrix(sol.type), sol.mult)


@pytest.mark.parametrize("ray", ["A", "B", "C"])
def test_pi_cell_maps_are_integer_rows(ray):
    sols = fiber(PI, 2, pi_config(2, 0, ray))
    assert sols
    for sol in sols:
        assert_integer_cell_map(pi_matrix(sol.type, 2), sol.mult)


def host_chart(td, occupancy, mt, piece_ids, length):
    """The leaf's chart of a subdivided type whose bounded edges have the
    given lengths: root at the origin, the base edge lengths, then each
    mark's offset along its host; a cluster's second mark holds the
    contracted edge's length."""
    g = td.t.graph
    n = len(mt.marks)
    bounded = g.bounded_edges()
    x = [0] * (2 + len(bounded) + n)
    pieces = {e for ids in piece_ids.values() for e in ids}
    for i, e in enumerate(bounded):
        x[2 + i] = sum(length[p] for p in piece_ids.get(e, [e]))
    for h, items in occupancy.items():
        for k, item in enumerate(items):
            offset = sum(length[p] for p in piece_ids[h][: k + 1])
            if item[0] == "mark":
                x[2 + len(bounded) + item[1]] = offset
            else:
                m2, m = item[1]
                x[2 + len(bounded) + m2] = offset
                (cluster_edge,) = set(mt.graph.bounded_edges()) - pieces - set(bounded)
                x[2 + len(bounded) + m] = length[cluster_edge]
    return x


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("ray", ["A", "B", "C"])
def test_placement_ray_matches_ft4_coordinate_on_every_leaf(seed, ray):
    # on every order of the marks of every assignment, exactly one entry of
    # the quartet table holds; its ray is ft4_coordinate's, and its row in
    # the offset chart measures the same central path
    cfg = pi_config(2, seed, ray)
    which = pi_which(6)
    lengths = itertools.cycle([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8])
    leaves = []

    def leaf(td, where, cluster):
        table = td.quartets(tuple(where[m] for m in range(4)), cluster)
        for occupancy in host_orders(where, cluster):
            rank = {}
            for items in occupancy.values():
                for k, item in enumerate(items):
                    for m in (item[1] if item[0] == "cluster" else (item[1],)):
                        rank[m] = k
            (entry,) = [e for e in table if all(rank[a] < rank[b] for a, b in e[1])]
            mt, piece_ids = _subdivide(td.t, occupancy, 6)
            theirs, row = ft4_coordinate(mt)
            length = {e: next(lengths) for e in mt.graph.bounded_edges()}
            central = sum(a * length[e] for a, e in zip(row[2:], mt.graph.bounded_edges()))
            x = host_chart(td, occupancy, mt, piece_ids, length)
            _, _, add, sub = entry
            assert sum(x[c] for c in add) - sum(x[c] for c in sub) == central
            leaves.append((entry[0], theirs))

    for td in _pi_tree_data(2):
        _search_tree(td, _mark_classes(_classes(2), scaled_points(cfg), which), leaf)
    assert len(leaves) > 100
    assert all(ours == theirs for ours, theirs in leaves)
    assert {theirs for _, theirs in leaves} == {"A", "B", "C"}


# --- the slot-order oracle ---------------------------------------------------
# A second search and leaf, kept as the reference: every order of the marks
# on a host is its own leaf, solved densely in a chart with one column per
# edge piece between consecutive marks.


def pair_table(ipts, which):
    """(pins, pairs) of a row spec: pins[m] lists the coordinates mark m
    pins, and pairs[m][m2] is None when marks m and m2 pin no common
    coordinate, else (cone test, displacement from m2 to m in the common
    coordinates, the common coordinate or None when they share both)."""
    pins = [[] for _ in ipts]
    for m, c in which:
        pins[m].append(c)
    pairs = []
    for im, cs in zip(ipts, pins):
        row = []
        for i2, cs2 in zip(ipts, pins):
            shared = [c for c in cs if c in cs2]
            if len(shared) == 2:
                row.append((_sector_has, (im[0] - i2[0], im[1] - i2[1]), None))
            elif shared:
                (c,) = shared
                meets = _sector_meets_horizontal if c else _sector_meets_vertical
                row.append((meets, im[c] - i2[c], c))
            else:
                row.append(None)
        pairs.append(row)
    return pins, pairs


def pair_ok(secs, dirs, pairs, placed, m, h) -> bool:
    """Can mark m sit on host h, given the (mark, host) pairs placed so
    far?  The pair test as cone tests on the marks' own displacements."""
    row = pairs[m]
    for m2, h2 in placed:
        pair = row[m2]
        if pair is None:
            continue
        meets, delta, c = pair
        if h2 != h:
            if not meets(secs[(h2, h)], delta):
                return False
        elif c is None:
            # both on one edge: the displacement must ride its direction
            if cross(delta, dirs[h]) != 0:
                return False
        elif dirs[h][c] == 0 and delta != 0:
            return False
    return True


def slot_search_tree(td, ipts, which, leaf):
    """Place the marks on one tree's edges, calling leaf(td, occupancy,
    where) on every placement, each order on a host its own, that passes
    the pair test."""
    secs = sector_map(td)
    hosts = td.handles
    dirs = td.t.dirs
    pins, pairs = pair_table(ipts, which)
    order = sorted(range(len(pins)), key=lambda m: len(pins[m]) == 1)
    occupancy = {h: [] for h in hosts}
    where = {}

    def rec(k):
        if k == len(order):
            leaf(td, occupancy, where)
            return
        m = order[k]
        for h in hosts:
            if not pair_ok(secs, dirs, pairs, where.items(), m, h):
                continue
            occ = occupancy[h]
            for slot in range(len(occ) + 1):
                occ.insert(slot, ("mark", m))
                where[m] = h
                rec(k + 1)
                occ.pop(slot)
                del where[m]
        if len(pins[m]) == 1 and not td.contracted:
            for m2, h2 in list(where.items()):
                if len(pins[m2]) != 1 or pins[m2] == pins[m]:
                    continue
                occ = occupancy[h2]
                slot = occ.index(("mark", m2))
                occ[slot] = ("cluster", (m2, m))
                where[m] = h2
                rec(k + 1)
                occ[slot] = ("mark", m2)
                del where[m]

    rec(0)


def piece_slot(items, m):
    for s, it in enumerate(items):
        if it == ("mark", m) or (it[0] == "cluster" and m in it[1]):
            return s
    raise AssertionError(f"mark {m} is not on its host")


def piece_rows(td, occupancy, where, which, ray):
    """Integer rows of a placement in the piece chart, or None when its
    quartet does not pair as ray: root x, root y, the pieces of each base
    bounded edge in walk order from its own flag, the bounded pieces of
    each end, and last the cluster's contracted edge.  Also returns the
    column of the first piece of each base bounded edge and each end."""
    g = td.t.graph
    dirs = td.t.dirs
    paths = [
        tuple((g.edge_of_flag(f), f) for f in g.path_flags(0, v))
        for v in range(g.num_vertices)
    ]
    size = len(which) + (ray is not None)
    start = {}
    col = 2
    for e in g.bounded_edges():
        start[e] = col
        col += len(occupancy.get(e, ())) + 1
    for h in g.end_flags():
        start[h] = col
        col += len(occupancy[h])
    if ray is not None:
        (i, j), (k, l) = next(pair for r, *pair in _PAIRINGS if r == ray)
    walks = []
    for m in range(len(where)):
        h = where[m]
        items = occupancy[h]
        s = piece_slot(items, m)
        far = g.flag_partner[h]
        if far is None or len(paths[g.flag_vertex[h]]) < len(paths[g.flag_vertex[far]]):
            via, f, pieces = g.flag_vertex[h], h, range(s + 1)
        else:
            via, f, pieces = g.flag_vertex[far], far, range(s + 1, len(items) + 1)
        walk = []
        for e, ef in paths[via]:
            walk.extend((start[e] + p, dirs[ef]) for p in range(len(occupancy.get(e, ())) + 1))
        walk.extend((start[h] + p, dirs[f]) for p in pieces)
        if items[s][0] == "cluster":
            walk.append((size - 1, (0, 0)))
        walks.append(walk)
        if m == 3 and ray is not None:
            cols = [{col for col, _ in w} for w in walks]
            if (cols[i] ^ cols[j]) & (cols[k] ^ cols[l]):
                return None
            central = (cols[i] ^ cols[k]) & (cols[j] ^ cols[l])
            if not central:
                return None
    rows = []
    for m, c in which:
        row = [0] * size
        row[c] = 1
        for col, v in walks[m]:
            row[col] = v[c]
        rows.append(row)
    if ray is not None:
        rows.append([int(col in central) for col in range(size)])
    return rows, start


def piece_leaf(td, occupancy, where, d, which, ray, rhs, scale, found):
    built = piece_rows(td, occupancy, where, which, ray)
    if built is None:
        return
    rows, start = built
    res = solve(rows, rhs)
    if res.status == "inconsistent":
        return
    if res.status == "underdetermined":
        raise GeneralPositionViolation("rank-deficient consistent system")
    xs = res.solution
    if any(v < 0 for v in xs[2:]):
        return
    if any(v == 0 for v in xs[2:]):
        raise GeneralPositionViolation("solution on a cell boundary")
    placements = {h: list(items) for h, items in occupancy.items() if items}
    mt, piece_ids = _subdivide(td.t, placements, len(where))
    key = canonical_plane_form(mt)
    if key in found:
        return
    cell_map = ev_matrix(mt) if ray is None else pi_matrix(mt, d)
    mult = multiplicity(cell_map)
    assert mult == abs(res.det)
    col_of = dict(start)
    for h, ids in piece_ids.items():
        for k, e in enumerate(ids):
            col_of[e] = start[h] + k
    order = [0, 1] + [col_of.get(e, len(rows) - 1) for e in mt.graph.bounded_edges()]
    found[key] = FiberSolution(mt, tuple(xs[c] / scale for c in order), mult)


def slot_fiber(kind, d, cfg):
    """Oracle: fiber(kind, d, cfg) through the slot-order search and the
    piece-chart leaf."""
    if kind == EV:
        which = [(m, c) for m in range(3 * d - 1) for c in (0, 1)]
        trees, m4 = _ev_tree_data(d), None
    else:
        which, trees, m4 = pi_which(3 * d), _pi_tree_data(d), cfg.m4
    extra = () if m4 is None else (m4.length.denominator,)
    scale, ipts = _integer_points(cfg.points, *extra)
    rhs = [ipts[m][c] for m, c in which]
    if m4 is not None:
        rhs.append(int(m4.length * scale))
    ray = None if m4 is None else m4.ray
    found = {}
    for td in trees:
        slot_search_tree(
            td, ipts, which,
            lambda td, occ, where: piece_leaf(td, occ, where, d, which, ray, rhs, scale, found),
        )
    return [found[k] for k in sorted(found, key=repr)]


def take_coordinate(cfg, i, j, c):
    """cfg with point i given coordinate c of point j."""
    pts = list(cfg.points)
    pts[i] = tuple(pts[j][c] if k == c else pts[i][k] for k in (0, 1))
    return PointConfig(tuple(pts), cfg.m4)


def sharing(seed, ray, i, j, c):
    """pi_config(2, seed, ray) with point i given coordinate c of point j."""
    return take_coordinate(pi_config(2, seed, ray), i, j, c)


SLOT_ORACLE_CASES = (
    [(EV, d, ev_config(d, seed)) for d in (1, 2) for seed in range(5)]
    + [
        (PI, 2, pi_config(2, seed, ray, scale))
        for ray in "ABC" for seed in (0, 1) for scale in (1, 2)
    ]
    # degenerate: points on one line, coincident points, a point on a
    # line mark's line
    + [
        (EV, 1, PointConfig(pts))
        for pts in (((0, 0), (1, 1)), ((0, 0), (0, 1)), ((0, 0), (3, 0)))
    ]
    + [
        (EV, 2, PointConfig(tuple(pts)))
        for pts in ([(i, 0) for i in range(5)], [(i, i) for i in range(5)])
    ]
    + [(EV, 2, PointConfig(ev_config(2, 0).points[:4] + (ev_config(2, 0).points[1],)))]
    + [(PI, 2, sharing(seed, ray, 2, 0, 0)) for ray in "ABC" for seed in (0, 1)]
    # two rows of one leaf coincide, leaving two free columns
    + [(PI, 2, sharing(1, "C", 1, 3, 1))]
    # a target the ft4 row reaches on a leaf whose other rows already fix
    # it: a consistent singular system
    + [(PI, 2, PointConfig(
        pi_config(2, 0, "C").points, M4Point("C", Fraction(5521732628, 84227))
    ))]
    # a target just short of where seed 0's ray-A cluster curve needs it:
    # that leaf's contracted edge alone is negative
    + [(PI, 2, PointConfig(
        pi_config(2, 0, "A").points, M4Point("A", Fraction(4464658343819, 50493234))
    ))]
)


@pytest.mark.parametrize("kind, d, cfg", SLOT_ORACLE_CASES)
def test_fiber_matches_slot_order_oracle(kind, d, cfg):
    # one solve per host assignment finds what one solve per order found,
    # and reports the same inputs as degenerate
    assert fiber_or_degenerate(fiber, kind, d, cfg) == fiber_or_degenerate(
        slot_fiber, kind, d, cfg
    )


# --- the full-chart oracle --------------------------------------------------
# The leaf as it ran before the offsets left the solve: every mark keeps its
# offset column and both its rows, and one dense solve sees them all.


def full_chart_leaf(td, where, cluster, d, which, ray, rhs, scale, found, record):
    """Oracle: one assignment solved in the full chart of base columns and
    one offset column per mark.  record gets the solve's outcome, the
    kernel dimension or "inconsistent"; each solution kept goes to found
    with |det| as its multiplicity."""
    cols, host_rows, _ = td.chart
    n = len(where)
    off = 2 + len(cols)
    at = [cluster[0] if cluster and m == cluster[1] else m for m in range(n)]
    completions = [((), None, None)]
    if ray is not None:
        quartet = td.quartets(tuple(where[m] for m in range(4)), cluster)
        completions = [entry[1:] for entry in quartet if entry[0] == ray]
        if not completions:
            return
    rows = []
    for m, c in which:
        rows.append(host_rows[where[m]][c] + [0] * n)
        rows[-1][off + at[m]] = td.t.dirs[where[m]][c]
    res = solve(rows, rhs[: len(rows)])
    record("inconsistent" if res.status == "inconsistent" else len(res.kernel))
    if res.status == "inconsistent":
        return
    for before, add, sub in completions:
        x, q, det = res.numerators, res.denominator, res.det
        if add is not None:
            fx, *fk = [sum(v[c] for c in add) - sum(v[c] for c in sub) for v in (x, *res.kernel)]
            if len(fk) == 1 and fk[0]:
                det = fk[0]
                t = (rhs[-1] * q - fx) * (1 if det > 0 else -1)
                x = [v * abs(det) + t * w for v, w in zip(x, res.kernel[0])]
                q *= abs(det)
            elif not any(fk) and fx != rhs[-1] * q:
                continue
        if det is None:
            raise GeneralPositionViolation(
                "rank-deficient consistent system: input in special position"
            )
        if any(x[off + a] > x[off + b] for a, b in before):
            continue
        items = {}
        for m in set(at):
            item = ("cluster", cluster) if cluster and m == cluster[0] else ("mark", m)
            items.setdefault(where[m], []).append((x[off + m], item))
        pieces = {e: [x[c]] for e, c in cols.items()}
        for h, its in items.items():
            its.sort(key=lambda it: it[0])
            ends = [0] + [v for v, _ in its] + ([x[cols[h]]] if h in cols else [])
            pieces[h] = [b - a for a, b in zip(ends, ends[1:])]
        contracted = [x[off + cluster[1]]] if cluster else []
        lengths = [v for ps in pieces.values() for v in ps] + contracted
        if any(v < 0 for v in lengths):
            continue
        if any(v == 0 for v in lengths):
            raise GeneralPositionViolation("solution on a cell boundary (zero edge length)")
        mt, piece_ids = _subdivide(td.t, {h: [it for _, it in its] for h, its in items.items()}, n)
        key = canonical_plane_form(mt)
        if key in found:
            continue
        length = {}
        for h, ps in pieces.items():
            length.update(zip(piece_ids.get(h, [h]), ps))
        coords = [*x[:2], *(length.get(e, *contracted) for e in mt.graph.bounded_edges())]
        found[key] = FiberSolution(mt, tuple(Fraction(v, q * scale) for v in coords), abs(det))


def leaf_inputs(kind, d, cfg):
    """What both leaves of fiber(kind, d, cfg) read: the row spec, trees,
    integer scale and points, right-hand side with the ft4 target last,
    target, ray and the search's mark classes.  Coincident points raise,
    as in fiber."""
    if kind == EV:
        which, trees, m4 = [(m, c) for m in range(3 * d - 1) for c in (0, 1)], _ev_tree_data(d), None
    else:
        which, trees, m4 = pi_which(3 * d), _pi_tree_data(d), cfg.m4
    extra = () if m4 is None else (m4.length.denominator,)
    scale, ipts = _integer_points(cfg.points, *extra)
    target = None if m4 is None else int(m4.length * scale)
    return SimpleNamespace(
        which=which, trees=trees, scale=scale, ipts=ipts, target=target,
        rhs=[ipts[m][c] for m, c in which] + ([] if m4 is None else [target]),
        ray=None if m4 is None else m4.ray,
        marks=_mark_classes(_classes(d), ipts, which),
    )


def leaf_outcome(leaf, *args):
    """("raise", message) or ("return", solve outcomes, solutions kept)."""
    seen, found = [], {}
    try:
        leaf(*args, found, seen.append)
    except GeneralPositionViolation as exc:
        return ("raise", str(exc))
    return ("return", seen, found)


def assert_leaves_match_full_chart(kind, d, cfg, trees=None):
    """Run both leaves on every assignment the search reaches on the map's
    trees, or on the given ones; returns (tree, hosts, outcome) per leaf,
    or None when two points coincide."""
    try:
        a = leaf_inputs(kind, d, cfg)
    except GeneralPositionViolation:
        return None
    leaves = []

    def reduced_leaf(td, where, cluster, found, record):
        # the outcome of the point rows' solve and of the leaf's step off
        # it, as the full chart's kernel dimension: the step's kernel and
        # one free column per row of the step, or with no step the point
        # rows' kernel
        solves = []

        def recording(rows, rhs):
            res = solve(rows, rhs)
            solves.append((len(rows), res))
            return res

        enumeration.solve = recording
        try:
            enumeration._leaf(
                td, where, cluster, d, a.marks[1], a.ray, a.ipts, a.target, a.scale, found
            )
        finally:
            enumeration.solve = solve
            if any(res.status == "inconsistent" for _, res in solves):
                record("inconsistent")
            elif solves:
                rows, res = solves[-1] if len(solves) == 2 else (0, solves[0][1])
                record(len(res.kernel) + rows)

    def leaf(td, where, cluster):
        want = leaf_outcome(full_chart_leaf, td, where, cluster, d, a.which, a.ray, a.rhs, a.scale)
        got = leaf_outcome(reduced_leaf, td, where, cluster)
        assert got == want, (td.t, dict(where), cluster)
        leaves.append((td, dict(where), want))

    for td in a.trees if trees is None else trees:
        _search_tree(td, a.marks, leaf)
    return leaves


# the six configurations of the census-d2 benchmark workload
CENSUS_D2_CASES = [(PI, 2, pi_config(2, 0, ray, scale)) for ray in "ABC" for scale in (1, 2)]
# special position: leaves that raise, and kernels of dimension two
SPECIAL_POSITION_CASES = (
    [(EV, 2, PointConfig(tuple((i, i) for i in range(5))))]
    + [(PI, 2, sharing(0, ray, 2, 0, 0)) for ray in "ABC"]
    + [(PI, 2, sharing(1, "C", 1, 3, 1))]
)
LEAF_ORACLE_CASES = (
    CENSUS_D2_CASES
    + [(EV, d, ev_config(d, seed)) for d in (1, 2) for seed in range(10)]
    + SPECIAL_POSITION_CASES
)


@pytest.mark.parametrize("kind, d, cfg", LEAF_ORACLE_CASES)
def test_leaves_match_full_chart_oracle(kind, d, cfg):
    # eliminating the offsets before the solve keeps every leaf's outcome:
    # its solve's kernel dimension, the solutions it keeps with their
    # determinants, and what it raises
    leaves = assert_leaves_match_full_chart(kind, d, cfg)
    assert any(out[0] == "raise" or out[2] for _, _, out in leaves)


def degree_3_factor_trees():
    """pi_config(3, 1, "A") and three degree-3 trees, chosen by index, that
    carry solutions of it."""
    return pi_config(3, 1, "A"), [_pi_tree_data(3)[i] for i in (405, 673, 778)]


def test_leaves_match_full_chart_oracle_on_degree_3_factors():
    # three degree-3 combined-map trees that carry solutions of this
    # configuration: on 405 and 778 a point mark sits on a host of
    # direction (2, 1), read back through a factor 2 that the determinant
    # must not take; on 673 marks 0 and 1 form a cluster, whose contracted
    # column is free, and the determinant is 4
    cfg, trees = degree_3_factor_trees()
    leaves = assert_leaves_match_full_chart(PI, 3, cfg, trees)
    kept = [(td, where, out[2]) for td, where, out in leaves if out[0] == "return" and out[2]]
    assert any(
        abs(td.t.dirs[h][0] or td.t.dirs[h][1]) > 1
        for td, where, _ in kept for m, h in where.items() if m >= 2
    )
    assert any(
        where[0] == where[1] and max(s.mult for s in found.values()) > 1
        for _, where, found in kept
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(EV, 1), (EV, 2), (PI, 2)]), st.data())
def test_leaves_match_full_chart_oracle_on_drawn_points(kind_d, data):
    kind, d = kind_d
    n = 3 * d - 1 if kind == EV else 3 * d
    pts = tuple(data.draw(
        st.lists(st.tuples(proper_fraction, proper_fraction), min_size=n, max_size=n)
    ))
    m4 = None
    if kind == PI:
        ray = data.draw(st.sampled_from("ABC"))
        m4 = M4Point(ray, data.draw(st.sampled_from([1, 2])) * large_length(d, pts))
    assert_leaves_match_full_chart(kind, d, PointConfig(pts, m4))


def test_corrupted_base_row_raises():
    # the line through (-4, 2) and (1, -1): the first point on the end of
    # direction (-1, 0), the second on (0, -1), the vertex at (1, 2).  With
    # the first end's base row doubled the solve puts the vertex at (1, 1),
    # both read-back offsets stay positive, and the first point's y row fails.
    # The point stage keeps the solves of the last point set, made from the
    # rows as they were, so each in-place edit of a row clears it.
    cfg = PointConfig(((-4, 2), (1, -1)))
    assert [s.mult for s in fiber(EV, 1, cfg)] == [1]
    (td,) = _ev_tree_data(1)
    base = td.chart[2]
    (h,) = [h for h in td.handles if td.t.dirs[h] == W]
    row = base[h]
    base[h] = [2 * v for v in row]
    _point_stage.cache_clear()
    try:
        with pytest.raises(AssertionError, match="misses coordinate 1 of mark 0"):
            fiber(EV, 1, cfg)
    finally:
        base[h] = row
        _point_stage.cache_clear()
    assert [s.mult for s in fiber(EV, 1, cfg)] == [1]


# --- the cell test -----------------------------------------------------------
# The leaf sorts each host's marks by offset once per candidate solution
# (_ordered_sign); the oracle reads the same lengths through min, max and a
# set of each host's offsets, as the leaf did before.


def _cell_sign(x, whole, spans) -> int:
    """Oracle: the sign of the cell x's smallest length: -1 when one is
    negative, else 0 when one is zero, else 1.  whole lists the columns
    that are lengths themselves; spans holds, per host, its length column
    (None for an end) and the offset columns of the items on it, which cut
    it into pieces: each offset must lie strictly between 0 and the host's
    length, and apart from the others."""
    sign = 1
    for c in whole:
        if x[c] <= 0:
            if x[c] < 0:
                return -1
            sign = 0
    for col, offsets in spans:
        ts = [x[o] for o in offsets]
        lo, hi = min(ts), max(ts)
        top = None if col is None else x[col]
        if lo < 0 or top is not None and hi > top:
            return -1
        if lo == 0 or hi == top or len(set(ts)) < len(ts):
            sign = 0
    return sign


def assert_cell_verdicts_agree(x, hosts, whole):
    """_ordered_sign and the oracle skip (-1), raise (0) or keep (1) the
    cell x alike.  hosts lists (length column or None, offset columns) per
    marked host, whole the columns of unmarked edges and of a cluster's
    contracted edge, which the leaf hands over as hosts with no marks."""
    want = _cell_sign(x, whole, [(col, list(offsets)) for col, offsets in hosts])
    hosted = [(k, col, list(offsets)) for k, (col, offsets) in enumerate(hosts)]
    hosted += [(None, c, []) for c in whole]
    assert _ordered_sign(x, hosted) == want, (x, hosts, whole)
    if want == 1:  # kept: each host's marks come in the order they sit
        for _, _, offsets in hosted:
            assert [x[o] for o in offsets] == sorted(x[o] for o in offsets)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_ordered_sign_matches_cell_oracle(data):
    # small values, so that ties, zeros and an offset at its host's length
    # all come up, and a negative length with a zero one elsewhere
    value = st.integers(-1, 5)
    bounded = data.draw(st.lists(st.integers(1, 3), max_size=3))  # marks per edge
    ends = data.draw(st.lists(st.integers(1, 3), min_size=0 if bounded else 1, max_size=3))
    nwhole = data.draw(st.integers(0, 3)) + data.draw(st.booleans())  # and a cluster's edge
    x, hosts = [], []
    for k, n in enumerate(bounded + ends):
        col = None
        if k < len(bounded):
            col = len(x)
            x.append(data.draw(value))
        offsets = list(range(len(x), len(x) + n))
        for _ in offsets:
            at_top = col is not None and data.draw(st.booleans())
            x.append(x[col] if at_top else data.draw(value))
        hosts.append((col, offsets))
    whole = list(range(len(x), len(x) + nwhole))
    x += [data.draw(value) for _ in whole]
    assert_cell_verdicts_agree(x, hosts, whole)


@pytest.mark.parametrize(
    "x, hosts, whole, verdict",
    [
        ([5, 1, 3, 2, 4], [(0, [1, 2, 3]), (None, [4])], [], 1),
        ([5, 2, 2], [(0, [1, 2])], [], 0),  # two marks at one point
        ([5, 0, 2], [(0, [1, 2])], [], 0),  # a mark at its edge's flag vertex
        ([5, 5, 2], [(0, [1, 2])], [], 0),  # a mark at its edge's far end
        ([3, 1, 0], [(None, [1])], [2], 0),  # a zero length, the cluster's
        ([5, 0, 6], [(0, [1]), (None, [2])], [], 0),
        ([5, 6, 0], [(0, [1]), (None, [2])], [], -1),  # negative past a zero
        ([5, 0, -1], [(0, [1]), (None, [2])], [], -1),
        ([2, 3, 0], [(None, [1, 0])], [2], 0),  # an end's marks out of order
        ([0, 3, -1], [(None, [1])], [0, 2], -1),
    ],
)
def test_ordered_sign_on_named_layouts(x, hosts, whole, verdict):
    assert _cell_sign(x, whole, hosts) == verdict
    assert_cell_verdicts_agree(x, hosts, whole)


def full_chart_fiber(kind, d, cfg):
    """fiber(kind, d, cfg) with the full-chart leaf: solutions, or the
    message of the first leaf that raises."""
    found = {}
    try:
        a = leaf_inputs(kind, d, cfg)
        for td in a.trees:
            _search_tree(td, a.marks, lambda td, where, cluster: full_chart_leaf(
                td, where, cluster, d, a.which, a.ray, a.rhs, a.scale, found, lambda _: None
            ))
    except GeneralPositionViolation as exc:
        return str(exc)
    return [(s.type, s.coords, s.mult) for s in (found[k] for k in sorted(found, key=repr))]


def fiber_or_message(kind, d, cfg):
    try:
        return [(s.type, s.coords, s.mult) for s in fiber(kind, d, cfg)]
    except GeneralPositionViolation as exc:
        return str(exc)


SHARING_SWEEP = [
    (EV, d, take_coordinate(ev_config(d, seed), i, j, c))
    for d in (1, 2) for seed in range(4)
    for i, j in itertools.permutations(range(3 * d - 1), 2) for c in (0, 1)
] + [
    (PI, 2, sharing(seed, ray, i, j, c))
    for seed in range(3) for ray in "ABC"
    for i, j in itertools.permutations(range(6), 2) for c in (0, 1)
]


def test_coordinate_sharing_sweep():
    # one point takes one coordinate of another: the fiber raises with the
    # full-chart leaf's message, or finds its curves, and raises exactly
    # when the slot-order oracle does.  Every evaluation input runs, and
    # every seventh combined-map one, so that each (i, j, c) shows up on
    # some seed and ray.
    ev = [case for case in SHARING_SWEEP if case[0] == EV]
    for kind, d, cfg in ev + [case for case in SHARING_SWEEP if case[0] == PI][::7]:
        got = fiber_or_message(kind, d, cfg)
        assert got == full_chart_fiber(kind, d, cfg), (kind, d, cfg)
        want = fiber_or_degenerate(slot_fiber, kind, d, cfg)
        assert (want == "degenerate") == isinstance(got, str), (kind, d, cfg)
    # a point on the vertical line through point 0: whether it is reported
    # depends on the ray
    outcomes = [fiber_or_message(PI, 2, sharing(0, ray, 2, 0, 0)) for ray in "ABC"]
    assert isinstance(outcomes[1], str)
    assert [sum(mult for _, _, mult in out) for out in outcomes[::2]] == [2, 2]


# --- the shared point stage ---------------------------------------------------
# _point_stage keeps the mark classes and the point marks' solves of the last
# point set and row spec; every fiber on them reuses the solves, whatever its
# ray, target or scale, and a fiber on other points or another row spec
# starts anew.  It also keeps, per ray and tree list whose search ended, the
# leaves that reached the ft4 row: a later fiber on them replays those
# leaves and runs no search.


def census_or_message(cfg):
    try:
        return repr(reducible_census(2, cfg))
    except GeneralPositionViolation as exc:
        return str(exc)


def cold(run, *args):
    _point_stage.cache_clear()
    return run(*args)


def stored_families(cfg):
    """The families _point_stage holds for the combined map on cfg's points."""
    _, ipts = _integer_points(cfg.points, cfg.m4.length.denominator)
    return _point_stage(2, tuple(pi_which(6)), tuple(ipts))[1]


def stored_leaves(cfg, trees=None):
    """The leaves _point_stage holds for the combined map on cfg's points,
    ray and trees (the map's own by default), or None."""
    _, ipts = _integer_points(cfg.points, cfg.m4.length.denominator)
    reached = _point_stage(2, tuple(pi_which(6)), tuple(ipts))[2]
    return reached.get((cfg.m4.ray, tuple(_pi_tree_data(2) if trees is None else trees)))


def counting_searches(monkeypatch):
    """A list that counts, from now on, every tree _search_tree searches."""
    searched = []
    real = enumeration._search_tree

    def search(td, *args):
        searched.append(td)
        return real(td, *args)

    monkeypatch.setattr(enumeration, "_search_tree", search)
    return searched


def doubled(cfg):
    """cfg with its ft4 target twice as far out on its ray."""
    return PointConfig(cfg.points, M4Point(cfg.m4.ray, 2 * cfg.m4.length))


def nudged(cfg):
    """cfg with point 0 moved right by 1/101."""
    (x, y), *rest = cfg.points
    return PointConfig(((x + Fraction(1, 101), y), *rest), cfg.m4)


@pytest.mark.parametrize("seed", (0, 1, 3))
def test_census_targets_share_the_point_stage(seed, monkeypatch):
    # the six targets of one point set in sequence share one table of
    # families, and no family changes once stored; the first census on each
    # ray searches every tree and keeps its leaves, the second searches none
    # and replays them, leaving the kept list as it was.  A combined-map
    # fiber on nudged points and an evaluation fiber on the same sampled
    # points, run before each target, replace the stage.  Every outcome
    # equals its cold one.
    cases = [pi_config(2, seed, ray, scale) for ray in "ABC" for scale in (1, 2)]
    assert len({tuple(_integer_points(c.points, c.m4.length.denominator)[1]) for c in cases}) == 1
    others = [(PI, 2, nudged(cases[0])), (EV, 2, PointConfig(cases[0].points[:5]))]
    want = [cold(census_or_message, cfg) for cfg in cases]
    want_others = [cold(fiber_or_message, *case) for case in others]
    _point_stage.cache_clear()
    searched = counting_searches(monkeypatch)
    got = [census_or_message(cases[0])]
    families = stored_families(cases[0])
    before = {key: copy.deepcopy(family) for key, family in families.items()}
    assert None in before.values() and any(before.values())
    searches = [len(searched)]
    for first, second in zip(cases[::2], cases[1::2]):
        if first is not cases[0]:
            got.append(census_or_message(first))
            searches.append(len(searched))
        leaves = stored_leaves(first)
        kept = list(leaves)
        assert kept and len(set(kept)) == len(kept)
        got.append(census_or_message(second))
        searches.append(len(searched))
        assert stored_leaves(second) is leaves and leaves == kept
    assert got == want
    assert searches == [len(_pi_tree_data(2)) * k for k in (1, 1, 2, 2, 3, 3)]
    assert stored_families(cases[0]) is families
    assert families.items() >= before.items()
    for cfg, census in zip(cases, want):
        assert [fiber_or_message(*case) for case in others] == want_others
        assert census_or_message(cfg) == census
    assert stored_families(cases[0]) is not families


def test_a_replay_runs_the_leaves_that_reached_the_ft4_row_in_order(monkeypatch):
    # the first fiber on a ray calls _leaf on every leaf of its search; the
    # second, at twice the length on the same points and ray, calls it on
    # exactly those that reached the ft4 row, in the same order and with
    # the same families, and each reaches the row again
    calls = []
    real_leaf = enumeration._leaf

    def recording_leaf(td, where, cluster, *args):
        reached = real_leaf(td, where, cluster, *args)
        calls.append(((td, tuple(where[m] for m in range(len(where))), cluster, args[-1]), reached))
        return reached

    monkeypatch.setattr(enumeration, "_leaf", recording_leaf)
    _point_stage.cache_clear()
    skipped = 0
    for ray in "ABC":
        fiber(PI, 2, pi_config(2, 0, ray, 1))
        searched, calls[:] = calls[:], []
        fiber(PI, 2, pi_config(2, 0, ray, 2))
        replayed, calls[:] = calls[:], []
        assert [leaf for leaf, reached in searched if reached] == [leaf for leaf, _ in replayed]
        assert all(reached for _, reached in replayed)
        skipped += len(searched) - len(replayed)
    assert skipped


def test_a_search_that_raises_keeps_no_leaves(monkeypatch):
    # a point on the vertical line through point 0 on ray B: the search
    # raises at scale 1, keeps no leaves, and scale 2 searches again and
    # raises its own cold message
    cases = [sharing(0, "B", 2, 0, 0)]
    cases.append(doubled(cases[0]))
    assert len({tuple(_integer_points(c.points, c.m4.length.denominator)[1]) for c in cases}) == 1
    want = [cold(fiber_or_message, PI, 2, cfg) for cfg in cases]
    assert all(isinstance(message, str) for message in want)
    _point_stage.cache_clear()
    searched = counting_searches(monkeypatch)
    for cfg, message in zip(cases, want):
        before = len(searched)
        assert fiber_or_message(PI, 2, cfg) == message
        assert len(searched) > before
    assert stored_leaves(cases[0]) is None


def test_kept_leaves_are_keyed_by_the_tree_list():
    # a fiber on every other tree, which holds none of the solutions, then
    # on all of them, on the same points and ray: the second searches and
    # finds the whole fiber, and each list, run again, replays its own leaves
    cfg = pi_config(2, 0, "A")
    trees = _pi_tree_data(2)
    part = trees[::2]
    want_part = cold(enumeration._fiber, 2, cfg, pi_which(6), part, cfg.m4)
    want = cold(enumeration._fiber, 2, cfg, pi_which(6), trees, cfg.m4)
    assert want and not want_part
    _point_stage.cache_clear()
    assert repr(enumeration._fiber(2, cfg, pi_which(6), part, cfg.m4)) == repr(want_part)
    for _ in range(2):
        assert repr(enumeration._fiber(2, cfg, pi_which(6), trees, cfg.m4)) == repr(want)
        assert repr(enumeration._fiber(2, cfg, pi_which(6), part, cfg.m4)) == repr(want_part)
    assert len(stored_leaves(cfg)) > len(stored_leaves(cfg, part)) > 0


@pytest.mark.parametrize("seed", (0, 1))
def test_targets_along_a_ray_replay_to_their_cold_fibers(seed):
    # targets from length 1 out past large_length on each ray, in sequence
    # on one point set: the fiber's cells change along the ray, so leaves
    # with no solution at the first target hold one at a later, and every
    # fiber equals its cold one
    for ray in "ABC":
        cfg = pi_config(2, seed, ray)
        lengths = [10**k for k in range(6)] + [cfg.m4.length, 2 * cfg.m4.length]
        cases = [PointConfig(cfg.points, M4Point(ray, length)) for length in lengths]
        assert len({tuple(_integer_points(c.points, c.m4.length.denominator)[1]) for c in cases}) == 1
        want = [cold(fiber_or_message, PI, 2, c) for c in cases]
        assert len({frozenset(t for t, _, _ in out) for out in want}) > 1
        _point_stage.cache_clear()
        assert [fiber_or_message(PI, 2, c) for c in cases] == want


def test_second_target_keeps_every_sweep_outcome():
    # every combined-map input of the coordinate-sharing sweep, at scale 2
    # right after scale 1 on the same points: the cold outcome or message
    for kind, d, cfg in SHARING_SWEEP:
        if kind != PI:
            continue
        far = doubled(cfg)
        want = cold(fiber_or_message, kind, d, far)
        fiber_or_message(kind, d, cfg)
        assert fiber_or_message(kind, d, far) == want, cfg


@pytest.mark.parametrize("rays", ("ABC", "BAC"))
def test_special_position_outcomes_keep_across_rays(rays):
    # a point on the vertical line through point 0, run on the three rays
    # in sequence: ray B raises with its cold message, rays A and C total 2
    out = {ray: fiber_or_message(PI, 2, sharing(0, ray, 2, 0, 0)) for ray in rays}
    assert out["B"] == cold(fiber_or_message, PI, 2, sharing(0, "B", 2, 0, 0))
    assert isinstance(out["B"], str)
    assert [sum(mult for _, _, mult in out[ray]) for ray in "AC"] == [2, 2]


# --- pruning in the search ---------------------------------------------------
# fiber's search drops an assignment of mark 1 that leaves no order of marks
# 0-3 on the ray, solves the point marks' rows once per assignment of them,
# as the last point mark is placed, cuts the line marks' subtree when they
# are inconsistent, and hands the solve to the leaves; _search_tree with no
# points callback and no ray is the unpruned search.


def leaf_key(td, where, cluster):
    return id(td), tuple(sorted(where.items())), cluster


def has_ray_order(td, where, cluster, ray):
    """Whether some order of marks 0-3 on their hosts pairs them as ray."""
    quartet = td.quartets(tuple(where[m] for m in range(4)), cluster)
    return any(entry[0] == ray for entry in quartet)


def assert_pruning_cuts_only_inconsistent_leaves(kind, d, cfg, trees, monkeypatch):
    """Run fiber's pruned search and the unpruned one, _search_tree with no
    points callback and no ray, on the map's trees or on the given ones,
    both with the production leaf.  The pruned leaves are exactly the
    unpruned ones, in order, that leave an order of marks 0-3 on the ray
    and have consistent point rows; so every leaf cut either has no such
    order, or full-chart rows that are inconsistent without the ft4 row,
    and no order of it could be kept or raise.  The fibers, or the
    GeneralPositionViolation messages, are equal."""
    a = leaf_inputs(kind, d, cfg)
    trees = a.trees if trees is None else trees
    m4 = None if kind == EV else cfg.m4
    real_leaf = enumeration._leaf

    def outcome(search):
        try:
            sols = search()
        except GeneralPositionViolation as exc:
            return str(exc)
        return [(s.type, s.coords, s.mult) for s in sols]

    pruned = []

    def recording_leaf(td, where, cluster, *args):
        pruned.append(leaf_key(td, where, cluster))
        return real_leaf(td, where, cluster, *args)

    monkeypatch.setattr(enumeration, "_leaf", recording_leaf)
    # cold: a fiber on points searched before replays that search's leaves
    got = outcome(lambda: cold(enumeration._fiber, d, cfg, a.which, trees, m4))

    unpruned, found = [], {}

    def leaf(td, where, cluster):
        unpruned.append((leaf_key(td, where, cluster), td, dict(where), cluster))
        real_leaf(td, where, cluster, d, a.marks[1], a.ray, a.ipts, a.target, a.scale, found)

    def unpruned_fiber():
        for td in trees:
            _search_tree(td, a.marks, leaf)
        return [found[k] for k in sorted(found, key=repr)]

    want = outcome(unpruned_fiber)
    assert got == want
    # when the input raises, both searches stop at the same first leaf that
    # raises, so the rule holds on the prefix they share
    kept = []
    for key, td, where, cluster in unpruned:
        on_ray = kind == EV or has_ray_order(td, where, cluster, a.ray)
        consistent = enumeration._point_family(td, where, a.marks[1], a.ipts) is not None
        if on_ray and consistent:
            kept.append(key)
            continue
        if on_ray:
            seen = []
            # ray None skips the quartet table, which would return before the solve
            full_chart_leaf(td, where, cluster, d, a.which, None, a.rhs, a.scale, {}, seen.append)
            assert seen == ["inconsistent"], (td.t, where, cluster)
    assert pruned == kept
    if kind == PI:
        assert len(kept) < len(unpruned)


@pytest.mark.parametrize("kind, d, cfg", CENSUS_D2_CASES + SPECIAL_POSITION_CASES)
def test_pruning_cuts_only_inconsistent_leaves(kind, d, cfg, monkeypatch):
    assert_pruning_cuts_only_inconsistent_leaves(kind, d, cfg, None, monkeypatch)


def test_pruning_cuts_only_inconsistent_leaves_on_degree_3_factors(monkeypatch):
    assert_pruning_cuts_only_inconsistent_leaves(PI, 3, *degree_3_factor_trees(), monkeypatch)


def test_points_is_asked_once_per_assignment_as_its_point_marks_are_placed(monkeypatch):
    # every search of a cold fiber asks points with exactly the point marks
    # placed, once per assignment of them, and the leaves below it follow
    # that call, before the next, only when it returned True
    real_search = enumeration._search_tree
    asked, leaves = {}, []
    last = []  # the assignment points was last asked about

    def search(td, marks, leaf, points, ray):
        point_marks = {m for m, cs in enumerate(marks[1]) if len(cs) == 2}

        def checking_points(td, where):
            assert set(where) == point_marks
            key = (td, *sorted(where.items()))
            assert key not in asked
            asked[key] = points(td, where)
            last[:] = [key]
            return asked[key]

        def checking_leaf(td, where, cluster):
            key = (td, *sorted((m, where[m]) for m in point_marks))
            assert last == [key] and asked[key] is True
            leaves.append(key)
            return leaf(td, where, cluster)

        return real_search(td, marks, checking_leaf, checking_points, ray)

    monkeypatch.setattr(enumeration, "_search_tree", search)
    cases = [(PI, 2, pi_config(2, seed, ray)) for seed in (0, 1, 3) for ray in "ABC"]
    cases += [(EV, d, ev_config(d, 0)) for d in (1, 2)]
    for kind, d, cfg in cases:
        asked.clear()
        leaves.clear()
        cold(fiber_or_message, kind, d, cfg)
        assert leaves and True in asked.values(), (kind, d, cfg)
        if kind == PI:
            assert False in asked.values(), cfg


def test_census_d2_point_solves_and_quartet_tables(monkeypatch):
    # the six census-d2 configurations of seed 0 in one process, on a new
    # point stage and empty quartet tables: the point stage solves the 43
    # assignments of the point marks once in all, and the searches build at
    # most 145 quartet tables (268 when the point rows were solved at the
    # first leaf, so that inconsistent assignments still asked for mark 1's
    # quartet masks)
    counts = {"point": 0, "table": 0}
    real_family, real_table = enumeration._point_family, _TreeData._table

    def counting_family(*args):
        counts["point"] += 1
        return real_family(*args)

    def counting_table(*args):
        counts["table"] += 1
        return real_table(*args)

    monkeypatch.setattr(enumeration, "_point_family", counting_family)
    monkeypatch.setattr(_TreeData, "_table", counting_table)
    for td in _pi_tree_data(2):
        monkeypatch.setattr(td, "_quartets", {})
    _point_stage.cache_clear()
    for _, _, cfg in CENSUS_D2_CASES:
        reducible_census(2, cfg)
    assert counts["point"] == 43
    assert counts["table"] <= 145


def test_leaves_reuse_the_point_solve_only_on_their_own_rows(monkeypatch):
    # every leaf of fiber gets the solve of its point marks' rows, shared by
    # the leaves under one assignment of them, and adds only its own rows:
    # its step gives the full-chart leaf's outcome, whether it keeps
    # solutions (with |det| as their multiplicities), finds its rows
    # inconsistent, or raises the same GeneralPositionViolation
    real_leaf = enumeration._leaf
    kinds = []

    def step_outcome(td, where, cluster, d, pins, ray, ipts, target, scale, family):
        steps = []

        def recording(rows, rhs):
            steps.append(solve(rows, rhs))
            return steps[-1]

        monkeypatch.setattr(enumeration, "solve", recording)
        found = {}
        try:
            real_leaf(td, where, cluster, d, pins, ray, ipts, target, scale, found, family)
        except GeneralPositionViolation as exc:
            return ("raise", str(exc))
        finally:
            monkeypatch.setattr(enumeration, "solve", solve)
        assert len(steps) <= 1  # the point rows are not solved again
        inconsistent = any(res.status == "inconsistent" for res in steps)
        return ("return", inconsistent, found)

    def full_outcome(td, where, cluster, d, ray, ipts, target, scale):
        which = [(m, c) for m in range(len(ipts)) for c in (0, 1)] if ray is None else pi_which(len(ipts))
        rhs = [ipts[m][c] for m, c in which] + ([] if ray is None else [target])
        seen, found = [], {}
        try:
            full_chart_leaf(td, where, cluster, d, which, ray, rhs, scale, found, seen.append)
        except GeneralPositionViolation as exc:
            return ("raise", str(exc))
        return ("return", seen == ["inconsistent"], found)

    def checking_leaf(td, where, cluster, d, pins, ray, ipts, target, scale, found, family):
        assert family is not None
        got = step_outcome(td, where, cluster, d, pins, ray, ipts, target, scale, family)
        assert got == full_outcome(td, where, cluster, d, ray, ipts, target, scale), (td.t, where, cluster)
        kinds.append(got[0] == "raise" or got[1] or bool(got[2]))
        return real_leaf(td, where, cluster, d, pins, ray, ipts, target, scale, found, family)

    monkeypatch.setattr(enumeration, "_leaf", checking_leaf)
    for _, d, cfg in CENSUS_D2_CASES:
        enumeration._fiber(d, cfg, pi_which(3 * d), _pi_tree_data(d), cfg.m4)
    cfg, trees = degree_3_factor_trees()
    enumeration._fiber(3, cfg, pi_which(9), trees, cfg.m4)
    for seed in range(3):
        fiber(EV, 2, ev_config(2, seed))
    for kind, d, cfg in SPECIAL_POSITION_CASES:
        try:
            fiber(kind, d, cfg)
        except GeneralPositionViolation:
            pass
    assert len(kinds) > 400 and any(kinds) and not all(kinds)


@pytest.mark.parametrize("kind", (EV, PI))
def test_leaf_skips_a_type_found_before(kind, monkeypatch):
    # every tree listed twice: the second visit of a solution's tree reads
    # its canonical form, finds it kept, and goes no further, so the fiber
    # is that of the single list and no multiplicity is computed again
    cfg, _ = sampled_fiber(kind, 2, 0, "A")
    if kind == EV:
        which, trees = [(m, c) for m in range(5) for c in (0, 1)], _ev_tree_data(2)
    else:
        which, trees = pi_which(6), _pi_tree_data(2)
    counts = {"canonical": 0, "multiplicity": 0}

    def counting(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(enumeration, "canonical_plane_form", counting("canonical", canonical_plane_form))
    monkeypatch.setattr(enumeration, "multiplicity", counting("multiplicity", multiplicity))
    once = enumeration._fiber(2, cfg, which, trees, cfg.m4)
    single = dict(counts)
    twice = enumeration._fiber(2, cfg, which, trees + trees, cfg.m4)
    assert repr(twice) == repr(once)
    assert single == {"canonical": len(once), "multiplicity": len(once)}
    assert counts == {"canonical": 3 * len(once), "multiplicity": 2 * len(once)}


def test_census_d2_leaf_and_solve_budget(monkeypatch):
    # regression guard: one pass over the census-d2 configurations runs at
    # most 1,122 leaves and 392 solves (2,058 and 694 before the point marks'
    # rows were solved once per assignment of them)
    counts = {"leaf": 0, "solve": 0}
    real_leaf = enumeration._leaf

    def counting_leaf(*args):
        counts["leaf"] += 1
        return real_leaf(*args)

    def counting_solve(rows, rhs):
        counts["solve"] += 1
        return solve(rows, rhs)

    monkeypatch.setattr(enumeration, "_leaf", counting_leaf)
    monkeypatch.setattr(enumeration, "solve", counting_solve)
    assert [sum(s.mult for s in fiber(PI, d, cfg)) for _, d, cfg in CENSUS_D2_CASES] == [2] * 6
    assert counts["leaf"] <= 1122
    assert counts["solve"] <= 392


def test_census_d2_search_counts(monkeypatch):
    # the counts of the searches of the census-d2 configurations of seed 0,
    # each run cold so that none replays another's leaves: 374 leaves reach
    # _leaf (1,122 before the quartet masks), the point rows are solved at
    # most once per assignment of the point marks (258), and a leaf's own
    # solve has at most three unknowns
    counts = {"leaf": 0, "point": 0}
    inside, widths = [], []  # inside holds True while a leaf runs
    real_leaf = enumeration._leaf

    def counting_leaf(*args):
        counts["leaf"] += 1
        inside.append(True)
        try:
            return real_leaf(*args)
        finally:
            inside.pop()

    def counting_solve(rows, rhs):
        if inside:
            widths.append(len(rows[0]))
        else:
            counts["point"] += 1
        return solve(rows, rhs)

    monkeypatch.setattr(enumeration, "_leaf", counting_leaf)
    monkeypatch.setattr(enumeration, "solve", counting_solve)
    for _, d, cfg in CENSUS_D2_CASES:
        assert sum(s.mult for s in cold(fiber, PI, d, cfg)) == 2
    assert counts["leaf"] == 374
    assert counts["point"] <= 258
    assert widths and max(widths) <= 3


def plain_search_tree(td, marks, leaf):
    """Oracle: the search without forward checking, each mark's hosts
    tested against the marks already placed, as it ran before the domains."""
    order, pins, classes, _, _ = marks
    masks, ncls = td.hosts, len(td.classes.reps)
    where, placed = {}, []

    def rec(k, cluster):
        if k == len(order):
            leaf(td, where, cluster)
            return
        m = order[k]
        mask = (1 << len(td.handles)) - 1
        for m2, base in placed:
            if classes[m][m2] is not None:
                mask &= masks[base + classes[m][m2]]
        for j, h in enumerate(td.handles):
            if mask >> j & 1:
                where[m] = h
                placed.append((m, j * ncls))
                rec(k + 1, cluster)
                placed.pop()
                del where[m]
        if len(pins[m]) == 1 and not td.contracted:
            for m2, base in list(placed):
                if len(pins[m2]) == 1 and pins[m2] != pins[m]:
                    where[m] = where[m2]
                    placed.append((m, base))
                    rec(k + 1, (m2, m))
                    placed.pop()
                    del where[m]

    rec(0, None)


@pytest.mark.parametrize(
    "kind, d, cfg",
    CENSUS_D2_CASES[::3] + [(PI, 2, pi_config(2, 2, "A")), (EV, 2, ev_config(2, 0))],
)
def test_forward_checking_keeps_every_leaf_in_order(kind, d, cfg):
    # with no points callback and no ray the search visits every assignment
    # that passes the pair test, in the order of the search without domains;
    # on seed 2 some clusters (0, 1) sit under an empty domain of mark 1,
    # whose node the search must not cut
    a = leaf_inputs(kind, d, cfg)
    for td in a.trees:
        got, want = [], []
        _search_tree(td, a.marks, lambda td, where, cluster: got.append(leaf_key(td, where, cluster)))
        plain_search_tree(td, a.marks, lambda td, where, cluster: want.append(leaf_key(td, where, cluster)))
        assert got == want


def test_forward_checking_keeps_every_leaf_on_degree_3_factors():
    cfg, trees = degree_3_factor_trees()
    a = leaf_inputs(PI, 3, cfg)
    for td in trees:
        got, want = [], []
        _search_tree(td, a.marks, lambda td, where, cluster: got.append(leaf_key(td, where, cluster)))
        plain_search_tree(td, a.marks, lambda td, where, cluster: want.append(leaf_key(td, where, cluster)))
        assert got == want and got


def walk_quartets(td, hosts, cluster):
    """Oracle: td.quartets as it was computed before the tree's sides were
    kept, from the walks to each mark: the pairing i, j | k, l is the ray
    when path(i, j) and path(k, l) share no piece and the central path,
    path(i, k) ∩ path(j, l), is not empty.  add and sub come sorted."""
    g = td.t.graph
    cols = td.chart[0]
    off = 2 + len(cols)
    at = [cluster[0] if cluster and m == cluster[1] else m for m in range(4)]
    on = {}
    for m in range(4):
        on.setdefault(hosts[m], {})[at[m]] = None
    table = []
    for orders in itertools.product(*map(itertools.permutations, on.values())):
        seq = dict(zip(on, orders))

        def pieces(e, count=None):  # (column added, column subtracted) each
            s = [off + p for p in seq.get(e, ())]
            return set(list(zip(s + [cols.get(e)], [None] + s))[:count])

        walks = []
        for m in range(4):
            h = hosts[m]
            # xor: the walk to flag_vertex[h] crosses h if h points to the root
            path = [g.edge_of_flag(f) for f in g.path_flags(0, g.flag_vertex[h])]
            walk = set().union(*map(pieces, path))
            walk ^= pieces(h, seq[h].index(at[m]) + 1)
            if cluster and m in cluster:
                walk.add((off + cluster[1], None))
            walks.append(walk)
        ray, central = "D", ()
        for r, (i, j), (k, l) in _PAIRINGS:
            shared = (walks[i] ^ walks[k]) & (walks[j] ^ walks[l])
            if shared and not (walks[i] ^ walks[j]) & (walks[k] ^ walks[l]):
                ray, central = r, shared
                break
        ups = {up for up, _ in central}
        lows = {low for _, low in central} - {None}
        before = tuple(pair for s in orders for pair in zip(s, s[1:]))
        table.append((ray, before, tuple(sorted(ups - lows)), tuple(sorted(lows - ups))))
    return tuple(table)


def test_quartet_tables_match_walk_oracle():
    # four distinct hosts take the bit path, shared hosts and clusters the
    # path over orders; both give the walks' tables
    cases = [(td, 11) for td in _pi_tree_data(2)] + [(td, 97) for td in degree_3_factor_trees()[1]]
    for td, stride in cases:
        hosts4 = list(itertools.product(td.handles, repeat=4))[::stride]
        assert any(len(set(hosts)) == 4 for hosts in hosts4)
        for hosts in hosts4:
            assert td.quartets(hosts, None) == walk_quartets(td, hosts, None), (td.t, hosts)
            if hosts[0] == hosts[1] and not td.contracted:
                assert td.quartets(hosts, (0, 1)) == walk_quartets(td, hosts, (0, 1)), (td.t, hosts)


def assert_quartet_masks_match_tables(td, triples):
    """For mark 0 on h0 and marks 2 and 3 on h2 and h3, over triples: bit j
    of td.quartet_mask is set exactly when mark 1 on handles[j], or the
    cluster (0, 1) for bit len(handles), leaves an order of marks 0-3 on
    the ray in td.quartets; every other triple asked bit by bit, the rest
    for all bits at once."""
    hs = td.handles
    for i, (h0, h2, h3) in enumerate(triples):
        want = dict.fromkeys("ABC", 0)
        for j in range(len(hs) + (not td.contracted)):
            hosts, cluster = ((h0, hs[j], h2, h3), None) if j < len(hs) else ((h0, h0, h2, h3), (0, 1))
            for ray, *_ in td.quartets(hosts, cluster):
                if ray != "D":
                    want[ray] |= 1 << j
            if i % 2:
                for ray in "ABC":
                    assert td.quartet_mask(ray, h0, h2, h3, 1 << j) == want[ray] & 1 << j
        everything = (1 << len(hs) + (not td.contracted)) - 1
        for ray in "ABC":
            assert td.quartet_mask(ray, h0, h2, h3, everything) == want[ray]


def test_quartet_masks_match_quartet_tables():
    for td in _pi_tree_data(2):
        assert_quartet_masks_match_tables(td, list(itertools.product(td.handles, repeat=3))[::3])
    for td in degree_3_factor_trees()[1]:
        assert_quartet_masks_match_tables(td, list(itertools.product(td.handles, repeat=3))[::23])


# --- host masks against the cone tests --------------------------------------
# td.hosts answers the pair test for a whole class of displacements at once;
# pair_ok, the test on the displacement itself, is the reference.

POINT_AND_LINES = (
    [(0, 0), (0, 1), (1, 0), (1, 1)],  # two points
    [(0, 0), (1, 0)],  # two vertical lines
    [(0, 1), (1, 1)],  # two horizontal lines
)


def assert_masks_match(td, deltas):
    """Mark 1 at each displacement in deltas from mark 0, as two points and
    as two lines on each axis: with mark 0 on any host, the hosts td.hosts
    gives mark 1 are those pair_ok allows, the host of mark 0 itself
    included."""
    secs = sector_map(td)
    hs = td.handles
    ncls = len(td.classes.reps)
    for delta in deltas:
        ipts = [(0, 0), delta]
        for which in POINT_AND_LINES:
            if len(which) == 4 and delta == (0, 0):
                continue  # coincident points are rejected before any search
            classes = _mark_classes(td.classes, ipts, which)[2]
            _, pairs = pair_table(ipts, which)
            for i2, h2 in enumerate(hs):
                expected = sum(
                    pair_ok(secs, td.t.dirs, pairs, [(0, h2)], 1, h) << j
                    for j, h in enumerate(hs)
                )
                assert td.hosts[i2 * ncls + classes[1][0]] == expected, (delta, which, h2)


def test_classes_of_degree_2_and_3():
    for d, count in ((2, 16), (3, 32)):
        cl = _classes(d)
        assert len(cl.dirs) == count
        assert len(cl.reps) == cl.lines + 6 == 2 * count + 6
        # each representative, and any positive multiple, is in its class
        for k, rep in enumerate(cl.reps[: cl.lines]):
            assert cl.point(rep) == k == cl.point((5 * rep[0], 5 * rep[1]))
        assert {cl.line(c, delta) for c in (0, 1) for delta in (-3, 0, 3)} == set(
            range(cl.lines, cl.lines + 6)
        )


def test_reverse_class_on_every_class_rep():
    for d in (1, 2, 3):
        cl = _classes(d)
        for k, rep in enumerate(cl.reps):
            if k < cl.lines:
                assert cl.reverse(k) == cl.point((-rep[0], -rep[1]))
            else:
                c, sign = rep
                assert cl.reverse(k) == cl.line(c, -sign)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    st.sampled_from([0, 1]),
)
def test_reverse_class_on_drawn_displacements(d, x, c):
    cl = _classes(d)
    assert cl.reverse(cl.line(c, x[c])) == cl.line(c, -x[c])
    if x != ZERO:
        assert cl.reverse(cl.point(x)) == cl.point((-x[0], -x[1]))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.lists(
        st.tuples(
            st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
            st.sampled_from([(0,), (1,), (0, 1)]),
        ),
        min_size=2,
        max_size=6,
        unique_by=lambda mark: mark[0],
    ),
)
def test_mark_classes_class_every_ordered_pair(d, marks):
    # classing one order of each pair and reversing it gives the class of
    # every ordered pair's own displacement
    cl = _classes(d)
    ipts = [p for p, _ in marks]
    which = [(m, c) for m, (_, cs) in enumerate(marks) for c in cs]
    _, pins, classes, _, _ = _mark_classes(cl, ipts, which)
    for m, m2 in itertools.product(range(len(marks)), repeat=2):
        shared = [c for c in pins[m] if c in pins[m2]]
        delta = (ipts[m][0] - ipts[m2][0], ipts[m][1] - ipts[m2][1])
        if m == m2 or not shared:
            want = None
        elif len(shared) == 2:
            want = cl.point(delta)
        else:
            want = cl.line(shared[0], delta[shared[0]])
        assert classes[m][m2] == want


def test_masks_match_cone_tests_on_every_class():
    # every (h2, h) of every tree of degree at most 2 and of every 60th of
    # degree 3, on a displacement exactly along each class direction, one
    # inside each gap, the same at three times the length, and a zero
    # difference for each line pair
    for td in [*_tree_data(1), *_tree_data(2), *_tree_data(3)[::60]]:
        reps = td.classes.reps[: td.classes.lines]
        assert_masks_match(td, [(t * x, t * y) for x, y in reps for t in (1, 3)] + [(0, 0)])


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    st.sampled_from([1, 2, 3]),
    st.data(),
)
def test_masks_match_cone_tests_on_drawn_deltas(delta, d, data):
    trees = _tree_data(d)
    assert_masks_match(trees[data.draw(st.integers(0, len(trees) - 1))], [delta])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.data())
def test_arc_widening_matches_sector_tie_rule(d, data):
    # fold the widening over class directions drawn with repeats, antipodal
    # pairs, multiples and zero vectors: the arc's ends are the class
    # indices of the sector's ends, in the generators' order
    cl = _classes(d)
    n = len(cl.dirs)
    pool = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    picks = st.tuples(st.sampled_from(pool), st.booleans(), st.integers(0, 2))
    gens = [
        (t * v[0], t * v[1])
        for i, flip, t in data.draw(st.lists(picks, min_size=1, max_size=6))
        for v in [cl.dirs[(i + flip * n // 2) % n]]
    ]
    if all(v == ZERO for v in gens):
        return
    ks = [cl.check(v) for v in gens if v != ZERO]
    arc = (ks[0], ks[0])
    for k in ks[1:]:
        arc = _widen(arc, k, n)
    sec = _sector(gens)
    assert arc == (None if sec is None else (cl.check(sec[0]), cl.check(sec[1])))


def sector_cones(td):
    """td.cones from the sector oracle: each class's representative tested
    against the sector between two hosts, or against the direction of the
    host both marks share."""
    cl = td.classes
    memo = {}

    def mask(sec, v):
        if (sec, v) not in memo:
            bits = 0
            for k, rep in enumerate(cl.reps):
                if k < cl.lines:
                    ok = cross(rep, v) == 0 if v else _sector_has(sec, rep)
                elif v:
                    ok = v[rep[0]] != 0 or rep[1] == 0
                else:
                    meets = _sector_meets_horizontal if rep[0] else _sector_meets_vertical
                    ok = meets(sec, rep[1])
                bits |= ok << k
            memo[sec, v] = bits
        return memo[sec, v]

    return tuple(
        tuple(mask(sec, td.t.dirs[h] if i == j else None) for j, sec in enumerate(row))
        for i, (h, row) in enumerate(zip(td.handles, sectors(td)))
    )


def test_cones_match_sector_oracle_on_every_tree():
    for d in (1, 2, 3):
        cl = _Classes(d)
        for t in base_trees(d):
            td = _TreeData(t, cl)
            assert td.cones == sector_cones(td)


def test_tree_directions_are_class_directions():
    # the classes see every cone exactly only if each sector endpoint and
    # host direction is a multiple of a class direction; building a tree's
    # cones checks that, and raises otherwise
    for d in (1, 2, 3):
        cl = _Classes(d)
        for t in base_trees(d):
            _TreeData(t, cl).cones
    with pytest.raises(AssertionError, match="class direction"):
        _Classes(1).check((2, 1))
    with pytest.raises(AssertionError, match="class direction"):
        for t in base_trees(2):
            _TreeData(t, _Classes(1)).cones


# --- splitting reducible curves ---------------------------------------------


def test_decompose_reducible_conic_solutions():
    cfg, sols = sampled_fiber(PI, 2, seed=0, ray="B")
    for sol in sols:
        c = sol.curve()
        c1, c2 = decompose_reducible(c)
        assert c1.degree() == projective_degree(1)
        assert c2.degree() == projective_degree(1)
        # each side keeps its own marks plus one glue mark at the end
        assert len(c1.marks) + len(c2.marks) == len(c.marks) + 2
        glue1 = image_position(c1, c1.mark_vertex(len(c1.marks) - 1))
        glue2 = image_position(c2, c2.mark_vertex(len(c2.marks) - 1))
        assert glue1 == glue2
        # the split point lies on both lines; the images overlay the conic
        whole = sorted(image_segments(c), key=repr)
        parts = sorted(image_segments(c1) + image_segments(c2), key=repr)
        assert whole == parts


def test_decompose_reducible_any_root():
    cfg, sols = sampled_fiber(PI, 2, seed=0, ray="B")
    c = sols[0].curve()

    def mark_images(side):
        # the marks' image positions, the glue point last
        return [
            image_position(side, side.mark_vertex(i)) for i in range(len(side.marks))
        ]

    expected = [mark_images(side) for side in decompose_reducible(c)]
    for v in range(c.graph.num_vertices):
        rerooted = PlaneCurve(c.curve, c.dirs, v, image_position(c, v))
        assert [mark_images(side) for side in decompose_reducible(rerooted)] == expected


def test_decompose_reducible_rejects_irreducible():
    cfg, sols = sampled_fiber(EV, 2, seed=0)
    c = sols[0].curve()
    with pytest.raises(ValueError):
        decompose_reducible(c)


def test_decompose_mark_side_bookkeeping():
    # on ray A one solution is a cluster curve: its contracted edge carries
    # the first two marks on a bare vertex, which is not a splittable side
    cfg, sols = sampled_fiber(PI, 2, seed=0, ray="A")
    cluster = [s for s in sols if s.curve().mark_vertex(0) == s.curve().mark_vertex(1)]
    split = [s for s in sols if s.curve().mark_vertex(0) != s.curve().mark_vertex(1)]
    assert len(cluster) == 1 and len(split) == 1
    with pytest.raises(ValueError):
        decompose_reducible(cluster[0].curve())
    c1, c2 = decompose_reducible(split[0].curve())
    n1, n2 = len(c1.marks) - 1, len(c2.marks) - 1
    assert n1 + n2 == 6
    assert n1 >= 1 and n2 >= 1


@pytest.mark.parametrize(
    "patch",
    [
        "e.curve_multiplicity = lambda c: 0",
        # the leaf determinant off by one
        "solve = e.solve\n"
        "def off_by_one(rows, rhs):\n"
        "    res = solve(rows, rhs)\n"
        "    if res.det is not None:\n"
        "        res.det += 1\n"
        "    return res\n"
        "e.solve = off_by_one",
    ],
    ids=["vertex-product", "leaf-determinant"],
)
def test_multiplicity_cross_check_survives_optimize_flag(patch):
    # under python -O an assert would vanish; the engines raise instead
    script = (
        "from tropcount import enumeration as e\n"
        f"{patch}\n"
        "try:\n"
        "    e.fiber(e.EV, 1, e.ev_config(1, 0))\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(tropcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=120)
    assert proc.returncode == 0


@pytest.mark.parametrize(
    "patch",
    [
        "e.ft4_coordinate = lambda t: ('D', [])",
        "e.multiplicity = lambda cm: 0",
    ],
)
def test_pi_cross_checks_survive_optimize_flag(patch):
    # each emitted combined-map solution is checked against its cell map
    script = (
        "from tropcount import enumeration as e\n"
        f"{patch}\n"
        "try:\n"
        "    e.fiber(e.PI, 2, e.pi_config(2, 0, 'A'))\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(tropcount.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=120)
    assert proc.returncode == 0
