from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropcount.enumeration import base_trees, pi_config
from tropcount.graph import (
    AbstractType,
    Graph,
    MarkedAbstractCurve,
    canonical_form,
    fraction_str,
    graph_from_json,
    graph_to_json,
    parse_fraction,
    trivalent_trees_on_leaves,
)
from tropcount.kontsevich import reducible_census


def star3():
    return Graph([0, 0, 0], [None, None, None])


def two_vertex_path():
    # v0: ends 0,1 and bond 2; v1: bond 3 and ends 4,5
    return Graph([0, 0, 0, 1, 1, 1], [None, None, 3, 2, None, None])


def star4():
    return Graph([0, 0, 0, 0], [None, None, None, None])


def double_edge():
    return Graph([0, 0, 1, 1], [2, 3, 0, 1])


def relabel(g: Graph, marks, flag_perm, vertex_perm):
    """Apply a flag and vertex relabeling, the isomorphism used as oracle."""
    nf = g.num_flags()
    fv = [0] * nf
    fp = [None] * nf
    for f in range(nf):
        fv[flag_perm[f]] = vertex_perm[g.flag_vertex[f]]
        p = g.flag_partner[f]
        fp[flag_perm[f]] = None if p is None else flag_perm[p]
    return Graph(fv, fp), tuple(flag_perm[m] for m in marks)


def test_fraction_string_roundtrip():
    # serialized values always carry an explicit denominator
    assert fraction_str(Fraction(-7, 2)) == "-7/2"
    assert fraction_str(Fraction(3)) == "3/1"
    assert parse_fraction("-7/2") == Fraction(-7, 2)
    assert parse_fraction("5") == 5
    assert parse_fraction(fraction_str(Fraction(22, 4))) == Fraction(11, 2)


def test_genus_examples():
    assert star3().genus() == 0
    assert two_vertex_path().genus() == 0
    assert double_edge().genus() == 1


def test_genus_disconnected_rejected():
    g = Graph([0, 0, 1, 1], [1, 0, 3, 2])
    with pytest.raises(ValueError):
        g.genus()


def test_partner_must_be_involution():
    with pytest.raises(ValueError):
        Graph([0, 0, 0], [1, None, None])


def test_vertex_ids_must_be_contiguous():
    with pytest.raises(ValueError):
        Graph([0, 0, 2], [None, None, None])


def test_lengths_must_cover_bounded_edges():
    fv = [0, 0, 0, 1, 1, 1]
    fp = [None, None, 3, 2, None, None]
    with pytest.raises(ValueError):
        Graph(fv, fp, {})
    with pytest.raises(ValueError):
        Graph(fv, fp, {2: 1, 0: 1})
    with pytest.raises(ValueError):
        Graph(fv, fp, {2: 0})
    g = Graph(fv, fp, {2: Fraction(5, 3)})
    assert g.lengths[2] == Fraction(5, 3)


def test_path_flags_oriented_away_from_start():
    g = two_vertex_path()
    assert g.path_flags(0, 1) == (2,)
    assert g.path_flags(1, 0) == (3,)
    assert g.path_flags(0, 0) == ()


def path_by_distances(g, u, w):
    """The flags of the path u..w in a tree: a breadth-first walk out of w
    gives every vertex its distance to w, and the path steps from u to the
    one neighbour nearer to w until it gets there."""
    dist = {w: 0}
    queue = [w]
    for v in queue:
        for f in g.flags_at(v):
            p = g.flag_partner[f]
            if p is not None and g.flag_vertex[p] not in dist:
                dist[g.flag_vertex[p]] = dist[v] + 1
                queue.append(g.flag_vertex[p])
    v, flags = u, []
    while v != w:
        (f,) = [
            f for f in g.flags_at(v)
            if g.flag_partner[f] is not None
            and dist[g.flag_vertex[g.flag_partner[f]]] == dist[v] - 1
        ]
        flags.append(f)
        v = g.flag_vertex[g.flag_partner[f]]
    return tuple(flags)


def test_paths_match_distance_oracle():
    # every vertex pair of the base trees of degree 1 and 2 and of the
    # degree-2 census curves
    graphs = [t.graph for d in (1, 2) for t in base_trees(d)]
    graphs += [
        e.solution.curve().graph
        for seed in (0, 1, 3) for ray in "ABC"
        for e in reducible_census(2, pi_config(2, seed, ray)).entries
    ]
    assert len(graphs) == 42
    for g in graphs:
        for u in range(g.num_vertices):
            for w in range(g.num_vertices):
                assert g.path_flags(u, w) == path_by_distances(g, u, w)


def component_by_sets(g, start, cut_edges, blocked):
    """The vertices reachable from start, as a set grown across uncut
    bounded edges into unblocked vertices until it stops growing."""
    seen = {start}
    grew = True
    while grew:
        grew = False
        for e in g.bounded_edges():
            a, b = g.flag_vertex[e], g.flag_vertex[g.flag_partner[e]]
            for v, w in ((a, b), (b, a)):
                if e not in cut_edges and v in seen and w not in seen | set(blocked):
                    seen.add(w)
                    grew = True
    return seen


def test_component_matches_set_oracle_and_records_its_walk():
    # from every vertex of the base trees of degree 1 and 2 and of the
    # degree-2 census curves: uncut, cut at each bounded edge, and blocked
    # at each other vertex
    graphs = [t.graph for d in (1, 2) for t in base_trees(d)]
    graphs += [
        e.solution.curve().graph
        for seed in (0, 1, 3) for ray in "ABC"
        for e in reducible_census(2, pi_config(2, seed, ray)).entries
    ]
    for g in graphs:
        for start in range(g.num_vertices):
            cases = [((), ())] + [((e,), ()) for e in g.bounded_edges()]
            cases += [((), (v,)) for v in range(g.num_vertices) if v != start]
            for cut_edges, blocked in cases:
                reached_by = g.component(start, cut_edges, blocked)
                assert set(reached_by) == component_by_sets(g, start, cut_edges, blocked)
                order = list(reached_by)
                assert order[0] == start and reached_by[start] is None
                for i, v in enumerate(order[1:], 1):
                    f = reached_by[v]
                    assert g.flag_vertex[g.flag_partner[f]] == v
                    assert g.flag_vertex[f] in order[:i]
                    assert g.edge_of_flag(f) not in cut_edges


def test_path_across_components_raises():
    g = Graph([0, 0, 0, 1, 1, 1], [None] * 6)
    with pytest.raises(ValueError, match="no path"):
        g.path_flags(0, 1)


def test_marked_curve_requires_lengths_and_shape():
    g = two_vertex_path()
    with pytest.raises(ValueError):
        MarkedAbstractCurve(g, (0, 1, 4, 5))
    gl = Graph(g.flag_vertex, g.flag_partner, {2: 1})
    MarkedAbstractCurve(gl, (0, 1, 4, 5))  # with lengths, accepted
    with pytest.raises(ValueError):
        AbstractType(gl, (0, 1, 4, 5))
    with pytest.raises(ValueError):
        MarkedAbstractCurve(gl, (0, 0, 4, 5))
    with pytest.raises(ValueError):
        MarkedAbstractCurve(gl, (0, 1, 2, 5))


def test_two_valent_vertices_rejected():
    # path of two bounded edges through a 2-valent middle vertex
    fv = [0, 0, 0, 1, 1, 2, 2, 2]
    fp = [None, None, 3, 2, 5, 4, None, None]
    with pytest.raises(ValueError):
        AbstractType(Graph(fv, fp), (0, 1, 6, 7))


def test_codim_examples():
    assert AbstractType(star3(), (0, 1, 2)).codim() == 0
    assert AbstractType(star4(), (0, 1, 2, 3)).codim() == 1
    five = Graph([0] * 5, [None] * 5)
    assert AbstractType(five, tuple(range(5))).codim() == 2


def test_labeled_trivalent_tree_counts():
    # (2n-5)!! labeled trivalent trees on n leaves
    for n, expect in [(3, 1), (4, 3), (5, 15), (6, 105)]:
        assert sum(1 for _ in trivalent_trees_on_leaves(range(n))) == expect
    with pytest.raises(ValueError):
        next(trivalent_trees_on_leaves(range(2)))


def test_trivalent_trees_are_trivalent_trees():
    for g, leaves in trivalent_trees_on_leaves(range(5)):
        assert g.genus() == 0
        assert len(leaves) == 5
        assert all(g.valence(v) == 3 for v in range(g.num_vertices))
        assert set(leaves) == set(g.end_flags())


def first_tree_per_class(classes):
    """Oracle: the labeled walk, keeping the first tree of each class."""
    kinds = sorted(set(classes))
    kept, seen = [], set()
    for g, leaves in trivalent_trees_on_leaves(range(len(classes))):
        groups = [[f for f, c in zip(leaves, classes) if c == k] for k in kinds]
        key = canonical_form(AbstractType(g, ()), groups)
        if key not in seen:
            seen.add(key)
            kept.append((g, leaves))
    return kept


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=3, max_size=7))
def test_grower_keeps_first_tree_of_each_class(classes):
    assert list(trivalent_trees_on_leaves(classes)) == first_tree_per_class(classes)


def test_grower_counts_unlabeled_trees():
    # one class: 1, 1, 1, 2, 2 unlabeled trivalent trees on 3..7 leaves
    for n, expect in [(3, 1), (4, 1), (5, 1), (6, 2), (7, 2)]:
        assert sum(1 for _ in trivalent_trees_on_leaves([0] * n)) == expect


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(6))), st.permutations([0, 1]))
def test_canonical_form_relabel_invariant(fperm, vperm):
    g = two_vertex_path()
    marks = (0, 1, 4, 5)
    g2, marks2 = relabel(g, marks, fperm, vperm)
    t1 = AbstractType(g, marks)
    t2 = AbstractType(g2, marks2)
    assert canonical_form(t1) == canonical_form(t2)


def test_canonical_form_separates_mark_splits():
    g = two_vertex_path()
    ab_cd = AbstractType(g, (0, 1, 4, 5))
    ac_bd = AbstractType(g, (0, 4, 1, 5))
    assert canonical_form(ab_cd) != canonical_form(ac_bd)


def test_canonical_form_interchangeable_ends():
    # one mark at v0, unmarked ends P=1 (v0), Q=4 and R=5 (v1)
    g = two_vertex_path()
    t = AbstractType(g, (0,))
    # grouping P with either of v1's ends is the same by the v1 symmetry
    assert canonical_form(t, ((1, 4),)) == canonical_form(t, ((1, 5),))
    # grouping the two v1 ends instead changes which vertex holds the
    # singleton class, so the types differ
    assert canonical_form(t, ((1, 4),)) != canonical_form(t, ((4, 5),))


def test_canonical_form_detects_swapped_singleton_ends():
    g = two_vertex_path()
    t1 = AbstractType(g, (0,))
    t2 = AbstractType(g, (4,))
    assert canonical_form(t1) != canonical_form(t2)
    assert canonical_form(t1, ((1, 4), (5,))) != canonical_form(
        t2, ((1, 0), (5,))
    )


def test_graph_json_roundtrip():
    g = Graph(
        [0, 0, 0, 1, 1, 1],
        [None, None, 3, 2, None, None],
        {2: Fraction(7, 3)},
    )
    back = graph_from_json(graph_to_json(g))
    assert back == g
    bare = star3()
    assert graph_from_json(graph_to_json(bare)) == bare
