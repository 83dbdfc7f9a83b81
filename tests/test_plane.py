import copy
import pickle
from fractions import Fraction
from math import lcm

import pytest

from tropcount.enumeration import (
    EV,
    PI,
    base_trees,
    decompose_reducible,
    fiber,
    pi_config,
    sampled_fiber,
)
from tropcount.graph import AbstractType, Graph
from tropcount.plane import (
    PlaneCurve,
    PlaneType,
    canonical_plane_form,
    check_balancing,
    cross,
    derive_directions,
    image_position,
    image_positions,
    image_segments,
    plane_curve_from_json,
    plane_curve_to_json,
    projective_degree,
    vadd,
)

W, S, NE = (-1, 0), (0, -1), (1, 1)


def make_tree(bonds, leaf_vertices):
    """Tree with the given bonds (u, v); returns (graph, leaf flags)."""
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


def line_type(marks=()):
    """Degree-1 star, optionally with marks listed as extra leaves."""
    g, leaves = make_tree([], [0, 0, 0] + [0] * len(marks))
    dirs = [W, S, NE] + [(0, 0)] * len(marks)
    t = AbstractType(g, tuple(leaves[3:]))
    return PlaneType(t, dirs)


class _RawDirs:
    """Bare graph+dirs pair for exercising the balancing checker alone."""

    def __init__(self, graph, dirs):
        self.graph = graph
        self.dirs = dirs


def test_cross_orientation():
    assert cross((1, 0), (0, 1)) == 1
    assert cross((1, 1), (-2, 1)) == 3


def test_projective_degree():
    assert projective_degree(1) == (W, S, NE)
    assert projective_degree(2) == tuple(sorted([W, W, S, S, NE, NE]))
    with pytest.raises(ValueError):
        projective_degree(0)


def test_balancing_examples():
    ok = _RawDirs(Graph([0, 0, 0], [None] * 3), [(1, 0), (0, 1), (-1, -1)])
    assert check_balancing(ok) == (True, None)
    marked = _RawDirs(Graph([0, 0, 0], [None] * 3), [(1, 1), (-1, -1), (0, 0)])
    assert check_balancing(marked) == (True, None)
    bad = _RawDirs(Graph([0, 0], [None, None]), [(1, 0), (0, 1)])
    assert check_balancing(bad) == (False, 0)


def test_plane_type_validates_directions():
    g3 = Graph([0, 0, 0], [None] * 3)
    with pytest.raises(ValueError):
        PlaneType(AbstractType(g3, ()), [(1, 0), (0, 1), (0, -1)])
    with pytest.raises(ValueError):
        PlaneType(AbstractType(g3, ()), [(Fraction(1), 0), (0, 1), (-1, -1)])
    # a marked end must be contracted
    with pytest.raises(ValueError):
        PlaneType(AbstractType(g3, (0,)), [(1, 0), (0, 1), (-1, -1)])
    # bounded-edge flags must carry opposite directions
    g, leaves = make_tree([(0, 1)], [0, 0, 1, 1])
    t = AbstractType(g, ())
    with pytest.raises(ValueError):
        PlaneType(t, [W, S, NE, S, (1, 1), (1, 0)])


def test_derive_directions_star():
    g, leaves = make_tree([], [0, 0, 0])
    dirs = derive_directions(g, (), {0: W, 1: S, 2: NE})
    assert dirs == (W, S, NE)


def test_derive_directions_bond():
    # v0 holds W and S, v1 holds NE and a mark
    g, leaves = make_tree([(0, 1)], [0, 0, 1, 1])
    m = leaves[2]
    dirs = derive_directions(g, (m,), {leaves[0]: W, leaves[1]: S, leaves[3]: NE})
    assert dirs[m] == (0, 0)
    bond_at_v0, bond_at_v1 = 4, 5
    assert dirs[bond_at_v0] == (1, 1)
    assert dirs[bond_at_v1] == (-1, -1)
    PlaneType(AbstractType(g, (m,)), dirs)  # balanced by construction


def test_derive_directions_rejects_unbalanced_ends():
    g, leaves = make_tree([], [0, 0, 0])
    with pytest.raises(ValueError):
        derive_directions(g, (), {0: W, 1: S, 2: (1, 2)})


def directions_by_sides(g, marks, end_dirs):
    """Oracle: a bounded flag carries the sum of the directions of the
    ends beyond it, those whose path from the flag's vertex leaves by it."""
    beyond = {}
    for v in range(g.num_vertices):
        for e, d in end_dirs.items():
            for f in g.path_flags(v, g.flag_vertex[e])[:1]:
                beyond[f] = vadd(beyond.get(f, (0, 0)), d)
    return tuple(
        (0, 0) if f in marks else end_dirs[f] if p is None else beyond.get(f, (0, 0))
        for f, p in enumerate(g.flag_partner)
    )


def test_derive_directions_matches_sides_oracle():
    # every base tree of degree 1-3, and the marked trees of the
    # evaluation fibers of degree 1-3 and of the degree-2 census fibers
    types = [t for d in (1, 2, 3) for t in base_trees(d)]
    types += [s.type for d in (1, 2, 3) for s in sampled_fiber(EV, d, 0)[1]]
    types += [s.type for ray in "ABC" for s in fiber(PI, 2, pi_config(2, 0, ray))]
    assert sum(1 for t in types if t.marks) == 17
    for t in types:
        end_dirs = {f: t.dirs[f] for f in t.unmarked_ends()}
        assert derive_directions(t.graph, t.marks, end_dirs) == t.dirs
        assert directions_by_sides(t.graph, t.marks, end_dirs) == t.dirs


def test_degree_of_line():
    t = line_type()
    assert t.degree() == projective_degree(1)
    assert t.unmarked_ends() == (0, 1, 2)
    marked = line_type(marks=("x1",))
    assert marked.degree() == projective_degree(1)


def test_image_position_examples():
    g, leaves = make_tree([(0, 1)], [0, 0, 1, 1])
    dirs = derive_directions(
        g, (), {leaves[0]: W, leaves[1]: S, leaves[2]: (1, 0), leaves[3]: (0, 1)}
    )
    t = PlaneType(AbstractType(g, ()), dirs)
    c = t.with_lengths({4: 2}, 0, (0, 0))
    assert image_position(c, 0) == (0, 0)
    assert image_position(c, 1) == (2, 2)
    # rooting at the other endpoint shifts nothing
    c2 = t.with_lengths({4: 2}, 1, (2, 2))
    assert image_position(c2, 0) == (0, 0)
    assert image_position(c2, 1) == (2, 2)


def image_by_path(c, v):
    """Root position plus the length-weighted directions along the path."""
    g = c.graph
    x, y = c.root_pos
    for f in g.path_flags(c.root, v):
        l = g.lengths[g.edge_of_flag(f)]
        x += l * c.dirs[f][0]
        y += l * c.dirs[f][1]
    return (x, y)


def image_by_walk(c):
    """(positions, segments) of c from path sums alone, never from its cache.

    Segments come in the order image_segments gives them: non-contracted
    ends in end_flags() order, then non-contracted bounded edges.
    """
    g = c.graph
    pos = {v: image_by_path(c, v) for v in range(g.num_vertices)}
    ends = [(pos[g.flag_vertex[f]], c.dirs[f], None) for f in g.end_flags()]
    edges = [
        (pos[g.flag_vertex[e]], c.dirs[e], g.lengths[e]) for e in g.bounded_edges()
    ]
    return pos, [seg for seg in ends + edges if seg[1] != (0, 0)]


def sampled_curves():
    """Line and conic fiber curves, each also rerooted at every vertex."""
    for d in (1, 2):
        for seed in range(3):
            c = sampled_fiber(EV, d, seed)[1][0].curve()
            yield c
            for v in range(c.graph.num_vertices):
                yield PlaneCurve(c.curve, c.dirs, v, image_position(c, v))


def test_image_positions_walk_matches_image_position():
    for curve in sampled_curves():
        pos = image_positions(curve)
        assert sorted(pos) == list(range(curve.graph.num_vertices))
        for w, p in pos.items():
            assert p == image_position(curve, w) == image_by_path(curve, w)


def census_curves():
    """The curves of the six census-d2 configurations and their split sides."""
    curves = [
        s.curve() for ray in "ABC" for k in (1, 2) for s in fiber(PI, 2, pi_config(2, 0, ray, k))
    ]
    # a case-(b) curve, whose marks 0 and 1 sit apart, splits in two
    curves += [
        side for c in curves if c.mark_vertex(0) != c.mark_vertex(1)
        for side in decompose_reducible(c)
    ]
    assert len(curves) == 32
    return curves


def test_curve_reads_its_ends_as_its_type_does():
    # a solution's curve and its type read the same degree and contracted
    # bounded edges off the same graph, marks and directions
    solutions = [
        s for d, seeds in ((1, range(5)), (2, range(5)), (3, [0])) for seed in seeds
        for s in sampled_fiber(EV, d, seed)[1]
    ]
    solutions += [
        s for seed in (0, 1, 3) for ray in "ABC" for k in (1, 2)
        for s in fiber(PI, 2, pi_config(2, seed, ray, k))
    ]
    assert any(s.type.contracted_bounded_edges() for s in solutions)
    for s in solutions:
        c = s.curve()
        assert c.degree() == s.type.degree()
        assert c.contracted_bounded_edges() == s.type.contracted_bounded_edges()


def test_image_position_without_a_cached_image():
    # image_position sums along the path from the root: it leaves the cache
    # empty, and agrees with the walk before and after the walk is cached
    for c in census_curves():
        c = PlaneCurve(c.curve, c.dirs, c.root, c.root_pos)  # no image walked yet
        vertices = range(c.graph.num_vertices)
        by_path = [image_position(c, v) for v in vertices]
        assert "image" not in vars(c)
        assert by_path == [image_positions(c)[v] for v in vertices]
        assert by_path == [image_position(c, v) for v in vertices]


def test_image_cache_matches_own_walk_and_json_copy():
    t = degree2_chain()
    lengths = {e: Fraction(i + 2, 3) for i, e in enumerate(t.graph.bounded_edges())}
    chain = t.with_lengths(lengths, 2, (Fraction(-1, 2), 5))
    for c in [chain, *sampled_curves()]:
        pos, segs = image_by_walk(c)
        copy = plane_curve_from_json(plane_curve_to_json(c))
        for curve in (c, copy):
            assert dict(image_positions(curve)) == pos
            assert list(image_segments(curve)) == segs
            den, scaled = curve.image.denominator, curve.image.scaled
            assert den == lcm(
                *(x.denominator for p, _, l in segs for x in (*p, l or 0))
            )
            assert list(scaled) == [
                (p[0] * den, p[1] * den, None if l is None else l * den)
                for p, _, l in segs
            ]
            assert all(type(x) is int for row in scaled for x in row if x is not None)


def bezout_curves():
    """The first curve of each count that the bezout-d2 benchmark makes:
    lines for seeds 0-23, conics for seeds 24-47."""
    specs = [(1, seed) for seed in range(24)] + [(2, seed) for seed in range(24, 48)]
    return [sampled_fiber(EV, d, seed)[1][0].curve() for d, seed in specs]


def test_runs_join_the_segments_into_straight_chains():
    for c in bezout_curves() + census_curves():
        pos, segs = image_by_walk(c)
        image = c.image
        den = image.denominator
        pieces = sorted(i for run in image.runs for i in run.pieces)
        assert pieces == list(range(len(segs)))  # each segment in exactly one run
        for u0, u1, x, y, length, breaks, members in image.runs:
            u = (u0, u1)
            start = (Fraction(x, den), Fraction(y, den))
            # every run starts at a vertex, so none is unbounded both ways
            assert start in pos.values()
            ends = [l for _, _, l in (segs[i] for i in members) if l is None]
            assert len(ends) == (length is None)
            assert list(breaks) == sorted(set(breaks))
            assert all(0 < b and (length is None or b < length) for b in breaks)
            seen = set()
            for p, v, l in (segs[i] for i in members):
                assert v in (u, (-u[0], -u[1]))
                for q in [p] if l is None else [p, (p[0] + l * v[0], p[1] + l * v[1])]:
                    # q lies on the closed run, at t along it
                    t = ((q[0] - start[0]) * u[0] + (q[1] - start[1]) * u[1]) / (
                        u[0] * u[0] + u[1] * u[1]
                    )
                    assert q == (start[0] + t * u[0], start[1] + t * u[1])
                    assert t >= 0 and (length is None or t * den <= length)
                    if t > 0 and (length is None or t * den < length):
                        assert t * den in breaks  # an inner piece end is a break
                        seen.add(t * den)
            assert seen == set(breaks)


def test_image_cache_is_read_only():
    c = next(sampled_curves())
    pos, segs = image_positions(c), image_segments(c)
    with pytest.raises(TypeError):
        pos[c.root] = (0, 0)
    with pytest.raises(TypeError):
        del pos[c.root]
    with pytest.raises(TypeError):
        segs[0] = segs[1]
    assert image_positions(c) == pos
    assert image_segments(c) == segs


def test_image_cache_leaves_eq_hash_repr():
    c = next(sampled_curves())
    twin = PlaneCurve(c.curve, c.dirs, c.root, c.root_pos)
    assert "image" not in vars(c)
    empty = (hash(c), repr(c))
    image_segments(c)
    assert "image" in vars(c) and "image" not in vars(twin)
    assert c == twin and twin == c
    assert (hash(c), repr(c)) == empty == (hash(twin), repr(twin))
    for back in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert back == c and "image" not in vars(back)
        assert image_segments(back) == image_segments(c)


def test_image_segments_line_star():
    c = line_type().with_lengths({}, 0, (Fraction(1, 2), 3))
    segs = image_segments(c)
    assert len(segs) == 3
    assert {d for _, d, _ in segs} == {W, S, NE}
    assert all(start == (Fraction(1, 2), 3) for start, _, _ in segs)
    assert all(length is None for _, _, length in segs)


def test_image_segments_skip_marks_and_contracted():
    # line with a mark cluster hanging on a contracted bounded edge
    g, leaves = make_tree([(0, 1)], [0, 0, 0, 1, 1])
    marks = (leaves[3], leaves[4])
    dirs = derive_directions(
        g, marks, {leaves[0]: W, leaves[1]: S, leaves[2]: NE}
    )
    t = PlaneType(AbstractType(g, marks), dirs)
    assert t.contracted_bounded_edges() == (5,)
    c = t.with_lengths({5: 7}, 0, (0, 0))
    segs = image_segments(c)
    assert len(segs) == 3
    assert all(length is None for _, _, length in segs)


def test_mark_vertex():
    g, leaves = make_tree([(0, 1)], [0, 0, 0, 1, 1])
    marks = (leaves[3], leaves[4])
    dirs = derive_directions(g, marks, {leaves[0]: W, leaves[1]: S, leaves[2]: NE})
    c = PlaneType(AbstractType(g, marks), dirs).with_lengths({5: 1}, 0, (0, 0))
    assert c.mark_vertex(0) == 1
    assert c.mark_vertex(1) == 1


def degree2_chain(n_marks=0):
    """Trivalent degree-2 caterpillar; marks hang at interior vertices."""
    if n_marks == 0:
        bonds = [(0, 1), (1, 2), (2, 3)]
        leaf_vs = [0, 0, 1, 2, 3, 3]
        g, leaves = make_tree(bonds, leaf_vs)
        end_dirs = dict(zip(leaves, [W, S, W, NE, NE, S]))
        dirs = derive_directions(g, (), end_dirs)
        return PlaneType(AbstractType(g, ()), dirs)
    assert n_marks == 4
    bonds = [(v, v + 1) for v in range(7)]
    leaf_vs = [0, 0, 1, 2, 3, 4, 5, 6, 7, 7]
    g, leaves = make_tree(bonds, leaf_vs)
    marks = tuple(leaves[2:6])
    end_dirs = dict(
        zip([leaves[0], leaves[1], leaves[6], leaves[7], leaves[8], leaves[9]],
            [W, S, W, S, NE, NE])
    )
    dirs = derive_directions(g, marks, end_dirs)
    return PlaneType(AbstractType(g, marks), dirs)


def test_canonical_plane_form_separates_end_distributions():
    # both west ends on one vertex vs one on each: different types
    g, leaves = make_tree([(0, 1)], [0, 0, 1, 1])
    spread = derive_directions(
        g, (), {leaves[0]: W, leaves[1]: S, leaves[2]: W, leaves[3]: (2, 1)}
    )
    paired = derive_directions(
        g, (), {leaves[0]: W, leaves[1]: W, leaves[2]: S, leaves[3]: (2, 1)}
    )
    t1 = PlaneType(AbstractType(g, ()), spread)
    t2 = PlaneType(AbstractType(g, ()), paired)
    assert t1.degree() == t2.degree()
    assert canonical_plane_form(t1) != canonical_plane_form(t2)


def test_canonical_plane_form_relabel_invariant():
    t = degree2_chain()
    g = t.graph
    nf = g.num_flags()
    # reverse the chain: an isomorphism that permutes equal-direction ends
    fperm = list(reversed(range(nf)))
    vperm = [3, 2, 1, 0]
    fv = [0] * nf
    fp = [None] * nf
    dirs = [None] * nf
    for f in range(nf):
        fv[fperm[f]] = vperm[g.flag_vertex[f]]
        p = g.flag_partner[f]
        fp[fperm[f]] = None if p is None else fperm[p]
        dirs[fperm[f]] = t.dirs[f]
    t2 = PlaneType(AbstractType(Graph(fv, fp), ()), dirs)
    assert canonical_plane_form(t) == canonical_plane_form(t2)


def test_plane_curve_json_roundtrip():
    t = degree2_chain()
    lengths = {e: Fraction(i + 2, 3) for i, e in enumerate(t.graph.bounded_edges())}
    c = t.with_lengths(lengths, 2, (Fraction(-1, 2), 5))
    back = plane_curve_from_json(plane_curve_to_json(c))
    assert back == c
    assert image_segments(back) == image_segments(c)
