from fractions import Fraction

import pytest

from tropcount.enumeration import EV, PI, curve_multiplicity, fiber, pi_config, sampled_fiber
from tropcount.graph import AbstractType, Graph, MarkedAbstractCurve
from tropcount.linalg import det
from tropcount.moduli_maps import (
    _PAIRINGS,
    M4Point,
    _quartet,
    ev_matrix,
    forget_points,
    four_valent_resolutions,
    ft4_coordinate,
    m4_point,
    multiplicity,
    pi_matrix,
    resolve_four_valent,
    restrict,
)
from tropcount.plane import (
    PlaneCurve,
    PlaneType,
    canonical_plane_form,
    derive_directions,
    image_position,
    vadd,
    vneg,
)

W, S, NE = (-1, 0), (0, -1), (1, 1)


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
    """mark_slots index into the leaf list; the rest get directions."""
    g, leaves = make_tree(bonds, leaf_vertices)
    marks = tuple(leaves[i] for i in mark_slots)
    end_dirs = {leaves[i]: d for i, d in end_dirs_by_slot.items()}
    dirs = derive_directions(g, marks, end_dirs)
    return PlaneType(AbstractType(g, marks), dirs)


def two_bond_type():
    """Root vertex with two bounded edges, one mark behind each.

    Edge 1 has direction (1,0), edge 2 direction (0,1); the evaluation of
    the two marks in these coordinates is the worked 4x4 block example.
    """
    return plane_type(
        bonds=[(0, 1), (0, 2)],
        leaf_vertices=[0, 1, 1, 2, 2],
        mark_slots=[1, 3],
        end_dirs_by_slot={0: (-1, -1), 2: (1, 0), 4: (0, 1)},
    )


def test_ev_matrix_two_bond_example():
    t = two_bond_type()
    rows = ev_matrix(t)
    assert rows == [
        [1, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 1],
    ]
    assert multiplicity(rows) == 1


def test_ev_matrix_single_marked_line():
    t = plane_type([], [0, 0, 0, 0], [3], {0: W, 1: S, 2: NE})
    rows = ev_matrix(t)
    assert rows == [[1, 0], [0, 1]]
    assert multiplicity(rows) == 1


def test_multiplicity_rejects_non_square():
    t = two_bond_type()
    with pytest.raises(ValueError):
        multiplicity(ev_matrix(t, which=[(0, 0)]))


def test_cell_coordinates_validation():
    t = two_bond_type()
    with pytest.raises(ValueError):
        ev_matrix(t, which=[(2, 0)])
    with pytest.raises(ValueError):
        ev_matrix(t, which=[(0, 2)])


def all_contracted_quartet():
    """Two mark pairs separated by one contracted bounded edge."""
    return plane_type([(0, 1)], [0, 0, 1, 1], [0, 1, 2, 3], {})


def test_ft4_single_edge_ray_a():
    t = all_contracted_quartet()
    ray, row = ft4_coordinate(t)
    assert ray == "A"
    assert row == [0, 0, 1]


def test_ft4_ray_depends_on_mark_pairing():
    g, leaves = make_tree([(0, 1)], [0, 0, 1, 1])
    dirs = derive_directions(g, tuple(leaves), {})
    # marks x1,x3 on one side and x2,x4 on the other: the B split
    t = PlaneType(AbstractType(g, (leaves[0], leaves[2], leaves[1], leaves[3])), dirs)
    ray, row = ft4_coordinate(t)
    assert ray == "B"
    assert row == [0, 0, 1]
    t = PlaneType(AbstractType(g, (leaves[0], leaves[2], leaves[3], leaves[1])), dirs)
    ray, row = ft4_coordinate(t)
    assert ray == "C"


def test_ft4_star_is_ray_d():
    t = plane_type([], [0, 0, 0, 0], [0, 1, 2, 3], {})
    ray, row = ft4_coordinate(t)
    assert ray == "D"
    assert row == [0, 0]


def test_ft4_two_edge_central_path_and_m4_point():
    # x1,x2 cluster - e1 - middle vertex - e2 - x3,x4 cluster, with real ends
    # keeping the middle vertex 3-valent
    t = plane_type(
        bonds=[(0, 1), (1, 2)],
        leaf_vertices=[0, 0, 1, 2, 2, 2],
        mark_slots=[0, 1, 4, 5],
        end_dirs_by_slot={2: W, 3: (1, 0)},
    )
    ray, row = ft4_coordinate(t)
    assert ray == "A"
    assert row == [0, 0, 1, 1]
    c = t.with_lengths(
        {e: l for e, l in zip(t.graph.bounded_edges(), [3, Fraction(1, 2)])},
        0,
        (0, 0),
    )
    assert m4_point(c) == M4Point("A", Fraction(7, 2))


def test_ft4_needs_four_marks():
    t = plane_type([], [0, 0, 0, 0], [3], {0: W, 1: S, 2: NE})
    with pytest.raises(ValueError):
        ft4_coordinate(t)


def quartet_by_medians(t):
    """Oracle: the pairing of the first four marks whose two paths are
    disjoint, and the central path's ends, each the one vertex that the
    three paths among its pair and one mark of the other pair share."""
    g = t.graph
    vs = [g.flag_vertex[t.marks[i]] for i in range(4)]

    def path(a, b):
        return {a, *(g.flag_vertex[g.flag_partner[f]] for f in g.path_flags(a, b))}

    def median(a, b, c):
        (m,) = path(a, b) & path(a, c) & path(b, c)
        return m

    for ray, (i, j), (k, l) in _PAIRINGS:
        if not path(vs[i], vs[j]) & path(vs[k], vs[l]):
            return ray, median(vs[i], vs[j], vs[k]), median(vs[k], vs[l], vs[i])
    return "D", None, None


def test_quartet_matches_median_oracle():
    # every curve of the degree-2 censuses on seeds 0, 1, 3 and of the
    # degree-3 censuses on seed 0, rays A, B and C: the ray, and the edges
    # of the path between the oracle's medians, each once
    configs = [(2, seed, ray) for seed in (0, 1, 3) for ray in "ABC"]
    configs += [(3, 0, ray) for ray in "ABC"]
    curves = [s.curve() for d, seed, ray in configs for s in fiber(PI, d, pi_config(d, seed, ray))]
    assert {_quartet(c)[0] for c in curves} == {"A", "B", "C"}
    for c in curves:
        g = c.graph
        ray, u, w = quartet_by_medians(c)
        edges = [] if ray == "D" else [g.edge_of_flag(f) for f in g.path_flags(u, w)]
        ray_found, central = _quartet(c)
        assert (ray_found, sorted(central)) == (ray, sorted(edges))


def test_m4_point_validation():
    with pytest.raises(ValueError):
        M4Point("E", 1)
    with pytest.raises(ValueError):
        M4Point("A", -1)
    with pytest.raises(ValueError):
        M4Point("D", 2)
    with pytest.raises(ValueError):
        M4Point("A", 0)
    assert M4Point("D", 0).length == 0


def conic_caterpillar():
    """Trivalent degree-2 type with 6 marks strung along a chain."""
    bonds = [(v, v + 1) for v in range(9)]
    leaf_vertices = [0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9]
    return plane_type(
        bonds,
        leaf_vertices,
        mark_slots=[2, 3, 4, 5, 6, 7],
        end_dirs_by_slot={0: W, 1: S, 8: W, 9: S, 10: NE, 11: NE},
    )


def test_pi_matrix_shape_and_last_row():
    t = conic_caterpillar()
    rows = pi_matrix(t, 2)
    assert len(rows) == 11 and all(len(row) == 11 for row in rows)
    ray, ft_row = ft4_coordinate(t)
    assert ray == "A"
    assert rows[-1] == ft_row
    # first two rows: x-coordinate of mark 1, y-coordinate of mark 2
    ev = ev_matrix(t)
    assert rows[0] == ev[0]
    assert rows[1] == ev[3]
    assert rows[2:-1] == ev[4:]


def test_pi_matrix_rejects_wrong_mark_count():
    t = all_contracted_quartet()
    with pytest.raises(ValueError):
        pi_matrix(t, 2)


def test_pi_matrix_rejects_wrong_degree():
    bonds = [(v, v + 1) for v in range(9)]
    leaf_vertices = [0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9]
    t = plane_type(
        bonds,
        leaf_vertices,
        mark_slots=[2, 3, 4, 5, 6, 7],
        end_dirs_by_slot={0: (1, 0), 1: (-1, 0), 8: (0, 1), 9: (0, -1),
                          10: (1, 1), 11: (-1, -1)},
    )
    with pytest.raises(ValueError):
        pi_matrix(t, 2)


def test_pi_matrix_two_contracted_edges_degenerate():
    bonds = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
             (1, 8), (2, 9)]
    leaf_vertices = [0, 0, 3, 4, 5, 6, 7, 7, 8, 8, 9, 9]
    t = plane_type(
        bonds,
        leaf_vertices,
        mark_slots=[8, 9, 10, 11, 2, 3],
        end_dirs_by_slot={0: W, 1: S, 4: W, 5: S, 6: NE, 7: NE},
    )
    assert len(t.contracted_bounded_edges()) == 2
    rows = pi_matrix(t, 2)
    assert det(rows) == 0
    assert multiplicity(rows) == 0


def lengths_for(t, values):
    return {e: v for e, v in zip(t.graph.bounded_edges(), values)}


def test_forget_points_identity():
    t = two_bond_type()
    c = t.with_lengths(lengths_for(t, [2, 3]), 0, (5, 7))
    assert forget_points(c, 2) == c


def test_forget_points_straightens_pruned_branch():
    t = two_bond_type()
    c = t.with_lengths(lengths_for(t, [2, 3]), 0, (0, 0))
    kept = forget_points(c, 1)
    assert len(kept.marks) == 1
    # the x2 branch merged into a single unbounded end; e1 survives
    assert len(kept.graph.bounded_edges()) == 1
    assert kept.mark_vertex(0) in range(kept.graph.num_vertices)
    assert image_position(kept, kept.mark_vertex(0)) == image_position(
        c, c.mark_vertex(0)
    )


def test_forget_points_merges_lengths():
    # chain v0 -e1- v1(mark x2) -e2- v2, marks ordered so x2 is dropped
    t = plane_type(
        bonds=[(0, 1), (1, 2)],
        leaf_vertices=[0, 0, 1, 2, 2],
        mark_slots=[4, 2],
        end_dirs_by_slot={0: W, 1: S, 3: NE},
    )
    c = t.with_lengths(lengths_for(t, [3, Fraction(1, 2)]), 0, (1, 1))
    kept = forget_points(c, 1)
    assert len(kept.graph.bounded_edges()) == 1
    merged = kept.graph.bounded_edges()[0]
    assert kept.graph.lengths[merged] == Fraction(7, 2)
    assert image_position(kept, kept.mark_vertex(0)) == image_position(
        c, c.mark_vertex(0)
    )


def test_forget_points_rejects_total_collapse():
    t = all_contracted_quartet()
    c = t.with_lengths(lengths_for(t, [1]), 0, (0, 0))
    with pytest.raises(ValueError):
        forget_points(c, 1)
    with pytest.raises(ValueError):
        forget_points(c, 5)


def test_restrict_validation():
    t = two_bond_type()
    c = t.with_lengths(lengths_for(t, [2, 3]), 0, (0, 0))
    ends = c.graph.end_flags()
    with pytest.raises(ValueError, match="at least 3 ends"):
        restrict(c, ends[:2])
    unmarked = [f for f in ends if f not in c.marks]
    with pytest.raises(ValueError, match="among the ends"):
        restrict(c, unmarked, c.marks[:1])
    # both flags of a bounded edge: the ends lie on two sides of a cut
    e = c.graph.bounded_edges()[0]
    with pytest.raises(ValueError, match="connected"):
        restrict(c, list(ends) + list(c.graph.edge_flags(e)))


def forget_points_by_pruning(c, m):
    """Forgetting marks by pruning to a fixpoint: the reference restrict
    must agree with."""
    if not (0 <= m <= len(c.marks)):
        raise ValueError("mark count out of range")
    if m == len(c.marks):
        return c
    g = c.graph
    nf = g.num_flags()
    alive = [True] * nf
    partner = list(g.flag_partner)
    vert = list(g.flag_vertex)
    elen = {}
    for e in g.bounded_edges():
        elen[frozenset((e, g.flag_partner[e]))] = g.lengths[e]
    for f in c.marks[m:]:
        alive[f] = False

    def live_flags(v):
        return [f for f in range(nf) if alive[f] and vert[f] == v]

    vertex_alive = [True] * g.num_vertices
    changed = True
    while changed:
        changed = False
        for v in range(g.num_vertices):
            if not vertex_alive[v]:
                continue
            fs = live_flags(v)
            if len(fs) == 1:
                (f,) = fs
                p = partner[f]
                if p is None:
                    raise ValueError("curve degenerates to a single end")
                alive[f] = alive[p] = False
                del elen[frozenset((f, p))]
                vertex_alive[v] = False
                changed = True
            elif len(fs) == 2:
                f1, f2 = fs
                p1, p2 = partner[f1], partner[f2]
                if p1 is None and p2 is None:
                    raise ValueError("curve degenerates to a single line")
                if p1 is None:
                    # merge the end f1 through the bounded edge (f2, p2)
                    vert[f1] = vert[p2]
                    alive[f2] = alive[p2] = False
                    del elen[frozenset((f2, p2))]
                elif p2 is None:
                    vert[f2] = vert[p1]
                    alive[f1] = alive[p1] = False
                    del elen[frozenset((f1, p1))]
                else:
                    l = elen.pop(frozenset((f1, p1))) + elen.pop(frozenset((f2, p2)))
                    elen[frozenset((p1, p2))] = l
                    partner[p1], partner[p2] = p2, p1
                    alive[f1] = alive[f2] = False
                vertex_alive[v] = False
                changed = True

    keep = [f for f in range(nf) if alive[f]]
    remap = {f: i for i, f in enumerate(keep)}
    vkeep = sorted({vert[f] for f in keep})
    vremap = {v: i for i, v in enumerate(vkeep)}
    fv = [vremap[vert[f]] for f in keep]
    fp = [None if partner[f] is None else remap[partner[f]] for f in keep]
    lengths = {}
    for pair, l in elen.items():
        a, b = pair
        lengths[min(remap[a], remap[b])] = l
    new_dirs = tuple(c.dirs[f] for f in keep)
    new_marks = tuple(remap[f] for f in c.marks[:m])
    graph = Graph(fv, fp, lengths)

    if c.root in vremap:
        root_old = c.root
    else:
        # nearest surviving vertex, breadth-first from the old root
        seen = {c.root}
        queue = [c.root]
        root_old = None
        while queue:
            v = queue.pop(0)
            if v in vremap:
                root_old = v
                break
            for f in g.flags_at(v):
                p = g.flag_partner[f]
                if p is not None and g.flag_vertex[p] not in seen:
                    seen.add(g.flag_vertex[p])
                    queue.append(g.flag_vertex[p])
    root_pos = image_position(c, root_old)
    return PlaneCurve(
        MarkedAbstractCurve(graph, new_marks), new_dirs, vremap[root_old], root_pos
    )


def forgetting_record(c):
    """What forgetting keeps, whatever the flag and vertex numbering."""
    g = c.graph
    t = PlaneType(AbstractType(Graph(g.flag_vertex, g.flag_partner), c.marks), c.dirs)
    return (
        canonical_plane_form(t),
        sorted(c.graph.lengths.values()),
        [image_position(c, c.mark_vertex(i)) for i in range(len(c.marks))],
        curve_multiplicity(c),
    )


def fiber_curves():
    """Solution curves of evaluation fibers at d = 1, 2 and of combined-map
    fibers at d = 2 on rays A, B and C."""
    for d in (1, 2):
        for seed in range(5):
            yield from (s.curve() for s in sampled_fiber(EV, d, seed)[1])
    for seed in (0, 1):
        for ray in ("A", "B", "C"):
            yield from (s.curve() for s in sampled_fiber(PI, 2, seed, ray)[1])


def test_forget_points_matches_pruning_oracle():
    curves = 0
    for c in fiber_curves():
        for m in range(len(c.marks) + 1):
            try:
                want = forgetting_record(forget_points_by_pruning(c, m))
            except ValueError:
                with pytest.raises(ValueError):
                    forget_points(c, m)
                continue
            assert forgetting_record(forget_points(c, m)) == want
        # restricting to every end, marks kept, changes nothing
        assert restrict(c, c.graph.end_flags(), c.marks) == c
        curves += 1
    assert curves == 5 + 5 + 6 * 2  # N_1 = N_2 = 1; the combined map has degree 2


def marked_star(germ_dirs, unbounded_first=True):
    """4-valent vertex; bounded germs run to a marked straight-through leaf.

    germ_dirs[0] is an unbounded end at the center when unbounded_first,
    otherwise every germ is bounded and marked.
    """
    if unbounded_first:
        bonds = [(0, 1), (0, 2), (0, 3)]
        leaf_vertices = [0, 1, 1, 2, 2, 3, 3]
        mark_slots = [1, 3, 5]
        end_dirs = {0: germ_dirs[0]}
        for i, d in enumerate(germ_dirs[1:]):
            end_dirs[2 * i + 2] = d
    else:
        bonds = [(0, 1), (0, 2), (0, 3), (0, 4)]
        leaf_vertices = [1, 1, 2, 2, 3, 3, 4, 4]
        mark_slots = [0, 2, 4, 6]
        end_dirs = {2 * i + 1: d for i, d in enumerate(germ_dirs)}
    return plane_type(bonds, leaf_vertices, mark_slots, end_dirs)


def star_cases():
    quads = [
        ((1, 0), (0, 1), (1, 1)),
        ((1, 0), (0, 1), (1, 2)),
        ((1, 0), (0, 1), (-1, 2)),
        ((1, 0), (0, 1), (2, 1)),
        ((1, 0), (0, 1), (1, -2)),
        ((1, 0), (0, 1), (3, 1)),
        ((1, 1), (-1, 2), (2, 1)),
        ((2, 1), (1, 2), (-1, 1)),
    ]
    for d1, d2, d3 in quads:
        d0 = vneg(vadd(vadd(d1, d2), d3))
        yield marked_star((d0, d1, d2, d3), unbounded_first=True), None
    # germ 4 keeps only its x-row below, so its direction needs d4.x != 0
    full = [
        ((1, 1), (-1, 1), (1, -1), (-1, -1)),
        ((2, 1), (-1, 1), (0, -1), (-1, -1)),
        ((1, 2), (-1, 1), (1, -2), (-1, -1)),
        ((1, 0), (0, 1), (-2, 1), (1, -2)),
    ]
    rows = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]
    for dirs in full:
        assert vadd(vadd(dirs[0], dirs[1]), vadd(dirs[2], dirs[3])) == (0, 0)
        yield marked_star(dirs, unbounded_first=False), rows


def test_resolution_determinants_sum_to_zero():
    checked = 0
    nontrivial = 0
    for star, rows in star_cases():
        assert star.codim() == 1
        dets = []
        for resolved, new_edge in four_valent_resolutions(star, 0):
            assert resolved.codim() == 0
            # the new edge's length is the last column in every resolution
            assert resolved.graph.bounded_edges()[-1] == new_edge
            cm = ev_matrix(resolved, which=rows)
            assert all(len(row) == len(cm) for row in cm)
            dets.append(det(cm))
        assert sum(dets) == 0
        if any(dets):
            nontrivial += 1
        checked += 1
    assert checked >= 10
    assert nontrivial == checked


def test_resolution_contracts_back():
    star, _ = next(iter(star_cases()))
    g = star.graph
    nf, new_v = g.num_flags(), g.num_vertices
    for resolved, new_edge in four_valent_resolutions(star, 0):
        r = resolved.graph
        assert new_edge == nf and r.flag_partner[nf] == nf + 1
        assert (r.flag_vertex[nf], r.flag_vertex[nf + 1]) == (0, new_v)
        # contracting the new edge merges its ends back into vertex 0
        merged = tuple(0 if v == new_v else v for v in r.flag_vertex[:nf])
        assert merged == g.flag_vertex
        assert r.flag_partner[:nf] == g.flag_partner
        assert resolved.dirs[:nf] == star.dirs
        assert resolved.marks == star.marks


def test_resolve_four_valent_validation():
    star, _ = next(iter(star_cases()))
    with pytest.raises(ValueError):
        resolve_four_valent(star, 1, (0, 1))
    fs = star.graph.flags_at(0)
    with pytest.raises(ValueError):
        resolve_four_valent(star, 0, (fs[0], 999))
