import functools
import itertools
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

from tropcount.enumeration import (
    EV,
    PI,
    PointConfig,
    fiber,
    pi_config,
    sampled_fiber,
)
from tropcount.graph import AbstractType, Graph
from tropcount.kontsevich import (
    Census,
    NonTransverse,
    _collinear_overlap,
    recursion_nd,
    reducible_census,
    tropical_intersection,
    wdvv_sides,
)
from tropcount.moduli_maps import M4Point
from tropcount.plane import (
    PlaneCurve,
    PlaneType,
    cross,
    plane_curve_from_json,
    plane_curve_to_json,
)

from test_plane import image_by_walk


def line_at(x, y):
    g = Graph([0, 0, 0], [None, None, None])
    t = PlaneType(AbstractType(g, ()), ((-1, 0), (0, -1), (1, 1)))
    return t.with_lengths({}, 0, (x, y))


def star_at(x, y, dirs):
    g = Graph([0] * len(dirs), [None] * len(dirs))
    t = PlaneType(AbstractType(g, ()), tuple(dirs))
    return t.with_lengths({}, 0, (x, y))


def test_recursion_small_values():
    nd = recursion_nd(6)
    assert nd[1] == 1
    assert nd[2] == 1
    assert nd[3] == 12
    assert nd[4] == 620
    assert nd[5] == 87304
    assert nd[6] == 26312976
    assert list(nd.items())[:2] == [(1, 1), (2, 1)]


def test_recursion_table_bounds():
    nd = recursion_nd(3)
    assert max(nd) == 3
    with pytest.raises(KeyError):
        nd[0]
    with pytest.raises(KeyError):
        nd[4]
    with pytest.raises(ValueError):
        recursion_nd(0)


def test_wdvv_sides_agree():
    nd = recursion_nd(10)
    for d in range(2, 11):
        lhs, rhs = wdvv_sides(d, nd)
        assert lhs == rhs
    assert wdvv_sides(2, nd) == (2, 2)
    with pytest.raises(ValueError):
        wdvv_sides(1, nd)


def test_two_lines_cross_once():
    hits = tropical_intersection(line_at(0, 0), line_at(5, 3))
    assert hits == [((3, 3), 1)]


def test_intersection_is_symmetric():
    a, b = line_at(0, 0), line_at(5, 3)
    assert tropical_intersection(a, b) == tropical_intersection(b, a)


def test_self_intersection_rejected():
    c = line_at(1, 1)
    with pytest.raises(NonTransverse):
        tropical_intersection(c, c)


def test_overlapping_parallel_rays_rejected():
    with pytest.raises(NonTransverse):
        tropical_intersection(line_at(0, 0), line_at(5, 0))


def test_crossing_through_vertex_rejected():
    # the north-east ray from (1,-1) passes through the vertex (2,0)
    with pytest.raises(NonTransverse):
        tropical_intersection(line_at(2, 0), line_at(1, -1))


def test_collinear_touch_rejected():
    east_star = star_at(0, 0, ((1, 0), (-1, 1), (0, -1)))
    with pytest.raises(NonTransverse):
        tropical_intersection(line_at(0, 0), east_star)
    # moved apart the same pair crosses cleanly
    assert tropical_intersection(line_at(0, 0), star_at(3, 0, ((1, 0), (-1, 1), (0, -1))))


def test_hits_come_in_point_order_across_multiplicities():
    # a weight-2 crossing at x = -5/2 and a weight-1 one at x = -4, keyed
    # over different |det|s, still come out in the order of their points
    star = star_at(-3, -1, ((1, 2), (-1, 1), (0, -3)))
    want = [((-4, 0), 1), ((Fraction(-5, 2), 0), 2)]
    assert tropical_intersection(line_at(0, 0), star) == want
    assert tropical_intersection(star, line_at(0, 0)) == want


def curves_for_bezout():
    # disjoint seed ranges: a line and a conic sampled from the same seed
    # pass through the same first points and meet non-transversally there
    lines = [sampled_fiber(EV, 1, seed)[1][0].curve() for seed in range(5)]
    conics = [sampled_fiber(EV, 2, seed)[1][0].curve() for seed in (10, 11, 12)]
    return lines, conics


def test_bezout_on_sampled_curves():
    lines, conics = curves_for_bezout()
    pairs = []
    for a, b in itertools.combinations(lines, 2):
        pairs.append((a, 1, b, 1))
    for a in lines[:3]:
        for b in conics:
            pairs.append((a, 1, b, 2))
    pairs.append((conics[0], 2, conics[1], 2))
    pairs.append((conics[0], 2, conics[2], 2))
    assert len(pairs) >= 20
    for a, da, b, db in pairs:
        hits = tropical_intersection(a, b)
        assert sum(m for _, m in hits) == da * db


@functools.lru_cache(maxsize=64)
def walked_from_origin(curve, dirs, root):
    """image_by_walk's segments of the curve with its root at the origin,
    kept per curve: a moved copy shares them."""
    return image_by_walk(PlaneCurve(curve, dirs, root, (0, 0)))[1]


def collinear_contact_by_fractions(p, u, lu, q, w, lw):
    """Raise NonTransverse if two collinear segments (start, direction,
    length or None) share more than nothing, in Fractions: the oracle of
    the kernel's integer test."""
    # parameters of the second segment measured in t-units of the first
    if u[0] != 0:
        t0 = Fraction(q[0] - p[0], u[0])
        lam = Fraction(w[0], u[0])
    else:
        t0 = Fraction(q[1] - p[1], u[1])
        lam = Fraction(w[1], u[1])
    t1 = None if lw is None else t0 + lam * lw
    if lam > 0:
        a2, b2 = t0, t1  # b2 None = +inf
    else:
        a2, b2 = t1, t0  # a2 None = -inf
    lo = Fraction(0) if a2 is None else max(Fraction(0), a2)
    if lu is None and b2 is None:
        hi = None
    elif lu is None:
        hi = b2
    elif b2 is None:
        hi = Fraction(lu)
    else:
        hi = min(Fraction(lu), b2)
    if hi is None or lo < hi:
        raise NonTransverse("curves share a segment")
    if lo == hi:
        raise NonTransverse("collinear pieces touch at a point")


def oracle_intersection(c1, c2):
    """The scan over segment pairs that tropical_intersection replaced,
    once in Fractions: the oracle.

    It walks both curves itself, each from its root at the origin, and
    adds the root position, so a wrong or stale image cache shows.  Its
    tests run exactly in integers: every coordinate and segment length of
    both curves times one common denominator, a crossing's parameters t
    and s as numerators over cross(u, w) made positive.  Only a hit's
    point, and collinear_contact_by_fractions, work in Fractions."""
    segs, scaled = [], []
    for c in (c1, c2):
        x0, y0 = c.root_pos
        walked = walked_from_origin(c.curve, c.dirs, c.root)
        segs.append([((p[0] + x0, p[1] + y0), u, l) for p, u, l in walked])
    den_all = lcm(*(
        v.denominator for side in segs for p, _, l in side for v in (*p, *(() if l is None else (l,)))
    ))
    for side in segs:
        scaled.append([
            ((int(p[0] * den_all), int(p[1] * den_all)), u, None if l is None else int(l * den_all))
            for p, u, l in side
        ])
    hits = {}
    for (p, u, lu), (pi, _, lui) in zip(segs[0], scaled[0]):
        for (q, w, lw), (qi, _, lwi) in zip(segs[1], scaled[1]):
            den = cross(u, w)
            dx = qi[0] - pi[0]
            dy = qi[1] - pi[1]
            if den == 0:
                if dx * u[1] - dy * u[0] == 0:
                    collinear_contact_by_fractions(p, u, lu, q, w, lw)
                continue
            # t = tn / (den * den_all) along u, s = sn / (den * den_all) along w
            tn = dx * w[1] - dy * w[0]
            sn = dx * u[1] - dy * u[0]
            if den < 0:
                tn, sn, den = -tn, -sn, -den
            if tn < 0 or sn < 0:
                continue
            if lui is not None and tn > lui * den:
                continue
            if lwi is not None and sn > lwi * den:
                continue
            if (
                tn == 0
                or sn == 0
                or (lui is not None and tn == lui * den)
                or (lwi is not None and sn == lwi * den)
            ):
                raise NonTransverse("crossing at a vertex of one of the curves")
            q_all = den * den_all
            pt = (Fraction(pi[0] * den + tn * u[0], q_all), Fraction(pi[1] * den + tn * u[1], q_all))
            hits[pt] = hits.get(pt, 0) + den
    return sorted(hits.items())


def outcome(kernel, c1, c2) -> str:
    """repr of the hit list, or the NonTransverse message."""
    try:
        return repr(kernel(c1, c2))
    except NonTransverse as exc:
        return f"NonTransverse: {exc}"


def uncached(c):
    """A copy of c whose image is not computed yet."""
    return PlaneCurve(c.curve, c.dirs, c.root, c.root_pos)


def test_bezout_pairs_match_oracle_cold_and_cached():
    lines, conics = curves_for_bezout()
    for a, b in itertools.product(lines + conics, repeat=2):
        a, b = uncached(a), uncached(b)
        want = outcome(oracle_intersection, a, b)
        assert "image" not in vars(a) and "image" not in vars(b)
        assert outcome(tropical_intersection, a, b) == want
        assert "image" in vars(a) and "image" in vars(b)
        assert outcome(tropical_intersection, a, b) == want


def self_crossings(c):
    """(point, u, w) wherever two segments of c, along u and w, cross
    strictly inside both."""
    out = []
    for (p, u, lu), (q, w, lw) in itertools.combinations(image_by_walk(c)[1], 2):
        den = cross(u, w)
        if den == 0:
            continue
        dx, dy = q[0] - p[0], q[1] - p[1]
        t = Fraction(dx * w[1] - dy * w[0], den)
        s = Fraction(dx * u[1] - dy * u[0], den)
        if t > 0 and s > 0 and (lu is None or t < lu) and (lw is None or s < lw):
            out.append((along(p, u, t), u, w))
    return out


@functools.lru_cache(maxsize=None)
def self_crossing_cubics():
    """The curves of one degree-3 evaluation fiber whose image crosses itself."""
    curves = [s.curve() for s in sampled_fiber(EV, 3, 0)[1]]
    return tuple(c for c in curves if self_crossings(c))


@functools.lru_cache(maxsize=None)
def kernel_curves():
    """Lines and conics; a cubic whose image crosses itself; and two census
    curves of case (b), rays A and C, whose contracted edge glues two lines
    at a 4-valent image point."""
    lines = [sampled_fiber(EV, 1, seed)[1][0].curve() for seed in (0, 1)]
    conics = [sampled_fiber(EV, 2, seed)[1][0].curve() for seed in (10, 11)]
    cubic = self_crossing_cubics()[0]
    glued = [
        next(e for e in reducible_census(2, pi_config(2, 0, ray)).entries if e.case == "b")
        .solution.curve()
        for ray in "AC"
    ]
    return tuple(lines + conics + [cubic] + glued)


def translated(c, dx, dy):
    x, y = c.root_pos
    return PlaneCurve(c.curve, c.dirs, c.root, (x + dx, y + dy))


def minus(a, b):
    return (a[0] - b[0], a[1] - b[1])


def along(p, u, t):
    return (p[0] + t * u[0], p[1] + t * u[1])


@functools.lru_cache(maxsize=None)
def special_translations(c1, c2):
    """Moves of c2 that put one of its vertices on a vertex or an edge of
    c1, one of its edges on a vertex of c1, or an end of one of its
    segments on the start, the end or a point behind the start of a
    parallel segment of c1."""
    pos1, segs1 = image_by_walk(c1)
    pos2, segs2 = image_by_walk(c2)
    verts1 = list(pos1.values())
    verts2 = list(pos2.values())
    moves = [minus(a, b) for a in verts1 for b in verts2]
    for p, u, l in segs1:
        inner = Fraction(7, 2) if l is None else l / 3
        moves += [minus(along(p, u, inner), b) for b in verts2]
        targets = [p, along(p, u, -1)] + ([] if l is None else [along(p, u, l)])
        for q, w, lw in segs2:
            if cross(u, w) == 0:
                ends = [q] + ([] if lw is None else [along(q, w, lw)])
                moves += [minus(a, b) for a in targets for b in ends]
    for q, w, l in segs2:
        inner = Fraction(7, 2) if l is None else l / 3
        moves += [minus(a, along(q, w, inner)) for a in verts1]
    return list(dict.fromkeys(moves))  # each distinct move once, in order


@settings(max_examples=300, deadline=None)
@given(
    st.data(),
    st.tuples(
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
    ),
)
def test_intersection_kernel_matches_fraction_oracle(data, free_move):
    curves = kernel_curves()
    c1 = data.draw(st.sampled_from(curves))
    c2 = data.draw(st.sampled_from(curves))
    dx, dy = data.draw(
        st.one_of(st.just(free_move), st.sampled_from(special_translations(c1, c2)))
    )
    moved = translated(c2, dx, dy)
    assert outcome(tropical_intersection, c1, moved) == outcome(
        oracle_intersection, c1, moved
    )


def test_intersection_kernel_hits_every_branch():
    seen = set()
    for c1, c2 in itertools.product(kernel_curves(), repeat=2):
        for dx, dy in special_translations(c1, c2):
            moved = translated(c2, dx, dy)
            got = outcome(tropical_intersection, c1, moved)
            assert got == outcome(oracle_intersection, c1, moved)
            seen.add(got if got.startswith("NonTransverse") else "transverse")
    assert seen == {
        "transverse",
        "NonTransverse: curves share a segment",
        "NonTransverse: collinear pieces touch at a point",
        "NonTransverse: crossing at a vertex of one of the curves",
    }


def moves_through(pt, u, w):
    """(mover, move, v): the move carries a point inside a segment of the
    pool curve mover to pt, the segment's direction v making |det(v, u)|
    and |det(v, w)| differ, both non-zero."""
    for mover in kernel_curves():
        for q, v, l in image_by_walk(mover)[1]:
            if 0 != abs(cross(v, u)) != abs(cross(v, w)) != 0:
                for t in [1, Fraction(7, 2)] if l is None else [l / 3, l / 2]:
                    yield mover, minus(pt, along(q, v, t)), v


def test_hits_at_a_self_crossing_add_up():
    # A curve moved through a cubic's own crossing meets both branches
    # there.  The two |det|s differ, so the sum shows that the two hits
    # were merged into one point.
    cubics = self_crossing_cubics()
    assert len(cubics) == 8
    for cubic in cubics:
        pt, u, w = self_crossings(cubic)[0]
        for mover, (dx, dy), v in moves_through(pt, u, w):
            moved = translated(mover, dx, dy)
            got = outcome(tropical_intersection, cubic, moved)
            assert got == outcome(oracle_intersection, cubic, moved)
            assert outcome(tropical_intersection, moved, cubic) == outcome(
                oracle_intersection, moved, cubic
            )
            if not got.startswith("NonTransverse"):
                break
        else:
            raise AssertionError("no transverse move through the crossing")
        hits = dict(tropical_intersection(cubic, moved))
        assert hits[pt] == abs(cross(v, u)) + abs(cross(v, w))


def assert_matches_oracle_both_ways(a, b):
    for c1, c2 in ((a, b), (b, a)):
        for dx, dy in special_translations(c1, c2):
            moved = translated(c2, dx, dy)
            assert outcome(tropical_intersection, c1, moved) == outcome(
                oracle_intersection, c1, moved
            )


def test_chain_unbounded_both_ways_matches_oracle():
    # ends (1, 0) and (-1, 0) meet at one mark: a straight chain unbounded
    # both ways, which stays split into its two pieces
    g = Graph([0, 0, 0], [None, None, None])
    t = PlaneType(AbstractType(g, (2,)), ((1, 0), (-1, 0), (0, 0)))
    axis = plane_curve_from_json(plane_curve_to_json(t.with_lengths({}, 0, (1, 2))))
    assert [r.pieces for r in axis.image.runs] == [(0,), (1,)]
    for other in kernel_curves()[:3]:
        assert_matches_oracle_both_ways(axis, other)
    assert tropical_intersection(axis, line_at(0, 0)) == [((2, 2), 1)]


def test_weight_two_curve_matches_oracle():
    # every direction of a conic doubled: weight-2 edges throughout
    data = plane_curve_to_json(kernel_curves()[2])
    data["directions"] = [[2 * a, 2 * b] for a, b in data["directions"]]
    double = plane_curve_from_json(data)
    line = kernel_curves()[0]
    assert_matches_oracle_both_ways(double, line)
    hits = tropical_intersection(double, translated(line, Fraction(1, 3), Fraction(-5, 7)))
    assert sum(m for _, m in hits) == 2 * 2 * 1


def contact_by(test, *args) -> str:
    """The NonTransverse message test raises on args, or "" if none."""
    try:
        test(*args)
    except NonTransverse as exc:
        return str(exc)
    return ""


WEIGHTED = st.tuples(st.integers(1, 3), st.sampled_from([1, -1]))
LENGTH = st.one_of(st.none(), st.fractions(Fraction(1, 6), 6, max_denominator=6))
COORD = st.fractions(-8, 8, max_denominator=6)


@settings(max_examples=500, deadline=None)
@given(
    st.data(),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -2), (2, 1), (3, -1)]),
    WEIGHTED,
    WEIGHTED,
    LENGTH,
    LENGTH,
    st.tuples(COORD, COORD),
)
def test_collinear_overlap_matches_fraction_oracle(data, v, first, second, lu, lw, p):
    # both segments lie on the line through p along v, of weights 1-3, the
    # same way as v or opposite; None is an unbounded length
    k1, k2 = first[0] * first[1], second[0] * second[1]
    u, w = (k1 * v[0], k1 * v[1]), (k2 * v[0], k2 * v[1])
    # the second starts at p + t0 v: anywhere, or where an end of it meets
    # an end of the first
    ends1 = [0] + ([] if lu is None else [k1 * lu])
    ends2 = [0] + ([] if lw is None else [k2 * lw])
    t0 = data.draw(st.one_of(COORD, st.sampled_from([a - b for a in ends1 for b in ends2])))
    q = along(p, v, t0)
    den = lcm(*(x.denominator for x in (*p, *q, *(l for l in (lu, lw) if l is not None))))

    def on_scale(start, direction, length):
        X, Y = (int(x * den) for x in start)
        return (*direction, X, Y, None if length is None else int(length * den), (), (0,))

    got = contact_by(_collinear_overlap, on_scale(p, u, lu), on_scale(q, w, lw))
    assert got == contact_by(collinear_contact_by_fractions, p, u, lu, q, w, lw)


def census_checks(census: Census, nd: dict):
    for e in census.entries:
        assert e.case in ("a", "b")
        if e.case == "b":
            assert e.d1 + e.d2 == census.d
            assert e.glue_point is not None
            ev1, ev2, line1, line2, glue = e.factors
            assert e.mult == ev1 * ev2 * line1 * line2 * glue
            assert 0 in e.marks_on_first


def test_census_conic_ray_a():
    nd = recursion_nd(2)
    cfg = pi_config(2, seed=0, ray="A")
    census = reducible_census(2, cfg)
    assert census.ray == "A"
    assert census.case_a_total == nd[2] == 1
    assert dict(census.b_totals) == {(1, 1): comb(2, 2) * 1 * 1 * 1 * 1}
    assert sum(e.mult for e in census.entries) == 2
    census_checks(census, nd)
    cases = sorted(e.case for e in census.entries)
    assert cases == ["a", "b"]
    # the quartet pairing of ray A keeps marks 1 and 2 together
    (b_entry,) = [e for e in census.entries if e.case == "b"]
    assert 1 in b_entry.marks_on_first


def test_census_conic_rays_b_and_c():
    nd = recursion_nd(2)
    for ray, partner in (("B", 2), ("C", 3)):
        census = reducible_census(2, pi_config(2, seed=0, ray=ray))
        assert census.case_a_total == 0
        assert dict(census.b_totals) == {(1, 1): comb(2, 1) * 1 * 1 * 1 * 1}
        assert sum(e.mult for e in census.entries) == 2
        census_checks(census, nd)
        assert all(e.case == "b" for e in census.entries)
        for e in census.entries:
            assert partner in e.marks_on_first
        # the two entries differ in which free mark joins the first piece
        first_sets = {e.marks_on_first for e in census.entries}
        assert len(first_sets) == 2


def test_census_totals_reproduce_wdvv_sides():
    nd = recursion_nd(2)
    lhs, rhs = wdvv_sides(2, nd)
    censusA = reducible_census(2, pi_config(2, seed=1, ray="A"))
    censusB = reducible_census(2, pi_config(2, seed=1, ray="B"))
    assert sum(e.mult for e in censusA.entries) == lhs
    assert sum(e.mult for e in censusB.entries) == rhs
    # term by term: constant part vs case a, split sums vs case b
    assert censusA.case_a_total == nd[2]
    assert sum(dict(censusA.b_totals).values()) == lhs - nd[2]
    assert sum(dict(censusB.b_totals).values()) == rhs


def test_census_requires_far_out_ray():
    cfg = pi_config(2, seed=0, ray="A")
    with pytest.raises(ValueError):
        reducible_census(2, PointConfig(cfg.points, None))
    with pytest.raises(ValueError):
        reducible_census(2, PointConfig(cfg.points, M4Point("D", 0)))


def test_pi_fiber_requires_a_quartet_on_ray_a_b_or_c():
    # ray D is the single length-0 point, not a far-out target
    cfg = pi_config(2, seed=0, ray="A")
    with pytest.raises(ValueError):
        fiber(PI, 2, PointConfig(cfg.points, M4Point("D", 0)))
    # a degree-1 curve has three marks, too few for a quartet
    with pytest.raises(ValueError):
        fiber(PI, 1, PointConfig(cfg.points[:3], cfg.m4))
