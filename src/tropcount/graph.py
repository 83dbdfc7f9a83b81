"""Flag-based graphs and marked abstract tropical curves.

A graph is stored as half-edges ("flags"): each flag knows its vertex and
its partner flag, partner None meaning an unbounded edge.  A bounded edge
is a partnered flag pair and is identified by its smaller flag id.  Marked
curves are trees whose vertices are at least 3-valent; marks are labeled
unbounded edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def fraction_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s) -> Fraction:
    """A rational read from JSON: a "p/q" string or an integer, never a float."""
    if type(s) not in (str, int):  # a bool is an int subclass, not an int here
        raise ValueError(f"expected a 'p/q' string or an integer, got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


class Graph:
    """Immutable half-edge graph with optional bounded-edge lengths."""

    __slots__ = ("num_vertices", "flag_vertex", "flag_partner", "lengths", "_flags_at")

    def __init__(self, flag_vertex, flag_partner, lengths=None):
        self.flag_vertex = tuple(flag_vertex)
        self.flag_partner = tuple(flag_partner)
        nf = len(self.flag_vertex)
        if len(self.flag_partner) != nf:
            raise ValueError("flag arrays disagree")
        for f, p in enumerate(self.flag_partner):
            if p is None:
                continue
            if not (0 <= p < nf) or p == f or self.flag_partner[p] != f:
                raise ValueError(f"partner map is not an involution at flag {f}")
        self.num_vertices = max(self.flag_vertex) + 1 if nf else 0
        if any(v < 0 for v in self.flag_vertex):
            raise ValueError("negative vertex id")
        seen = set(self.flag_vertex)
        if seen != set(range(self.num_vertices)):
            raise ValueError("vertex ids must be contiguous and all used")
        if lengths is not None:
            lengths = {e: Fraction(l) for e, l in lengths.items()}
            if set(lengths) != set(self.bounded_edges()):
                raise ValueError("lengths must cover exactly the bounded edges")
            if any(l <= 0 for l in lengths.values()):
                raise ValueError("edge lengths must be positive")
        self.lengths = lengths
        flags_at = [[] for _ in range(self.num_vertices)]
        for f, v in enumerate(self.flag_vertex):
            flags_at[v].append(f)
        self._flags_at = tuple(tuple(fs) for fs in flags_at)

    def _key(self):
        lk = None
        if self.lengths is not None:
            lk = tuple(sorted(self.lengths.items()))
        return (self.flag_vertex, self.flag_partner, lk)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"Graph(V={self.num_vertices}, flags={self.num_flags()}, "
            f"ends={len(self.end_flags())})"
        )

    def num_flags(self) -> int:
        return len(self.flag_vertex)

    def flags_at(self, v: int):
        return self._flags_at[v]

    def valence(self, v: int) -> int:
        return len(self._flags_at[v])

    def end_flags(self):
        return tuple(f for f, p in enumerate(self.flag_partner) if p is None)

    def bounded_edges(self):
        """Edge ids: the smaller flag of each partnered pair."""
        return tuple(
            f for f, p in enumerate(self.flag_partner) if p is not None and f < p
        )

    def edge_of_flag(self, f: int) -> int:
        p = self.flag_partner[f]
        return f if p is None or f < p else p

    def edge_flags(self, e: int):
        return e, self.flag_partner[e]

    def component(self, start: int, cut_edges=(), blocked=()) -> dict:
        """The vertices reachable from start along bounded edges, crossing
        no edge in cut_edges and entering no vertex in blocked, one walk
        out of start: each maps to the flag it was first reached by (start
        to None), a flag at a vertex that comes before it."""
        reached_by = {start: None}
        stack = [start]
        while stack:
            v = stack.pop()
            for f in self._flags_at[v]:
                p = self.flag_partner[f]
                if p is None or min(f, p) in cut_edges:
                    continue
                w = self.flag_vertex[p]
                if w not in reached_by and w not in blocked:
                    reached_by[w] = f
                    stack.append(w)
        return reached_by

    def is_connected(self) -> bool:
        return self.num_vertices == 0 or len(self.component(0)) == self.num_vertices

    def genus(self) -> int:
        """First Betti number: #bounded edges - #vertices + 1."""
        if not self.is_connected():
            raise ValueError("genus of a disconnected graph")
        return len(self.bounded_edges()) - self.num_vertices + 1

    def path_flags(self, u: int, w: int):
        """Flags traversed away from u along the unique path u..w in a
        tree, one per edge, read back from w off the flags component(u)
        reached each vertex by."""
        reached_by = self.component(u)
        if w not in reached_by:
            raise ValueError("no path (disconnected input)")
        path = []
        while w != u:
            f = reached_by[w]
            path.append(f)
            w = self.flag_vertex[f]
        return tuple(reversed(path))


def _check_curve_shape(graph: Graph, marks) -> None:
    if not graph.is_connected():
        raise ValueError("curve must be connected")
    if graph.genus() != 0:
        raise ValueError("curve must have genus 0")
    if any(graph.valence(v) < 3 for v in range(graph.num_vertices)):
        raise ValueError("every vertex must have valence >= 3")
    marks = tuple(marks)
    if len(set(marks)) != len(marks):
        raise ValueError("marks must be distinct")
    ends = set(graph.end_flags())
    if any(m not in ends for m in marks):
        raise ValueError("marks must be unbounded edges")


@dataclass(frozen=True)
class MarkedAbstractCurve:
    """Genus-0 abstract curve with lengths and ordered marked ends."""

    graph: Graph
    marks: tuple

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(self.marks))
        _check_curve_shape(self.graph, self.marks)
        if self.graph.lengths is None:
            raise ValueError("marked curve needs edge lengths")


@dataclass(frozen=True)
class AbstractType:
    """Combinatorial type of a marked abstract curve: lengths erased."""

    graph: Graph
    marks: tuple

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(self.marks))
        _check_curve_shape(self.graph, self.marks)
        if self.graph.lengths is not None:
            raise ValueError("types carry no lengths")

    def codim(self) -> int:
        g = self.graph
        return sum(g.valence(v) - 3 for v in range(g.num_vertices))


def _leaf_label(t, class_of, f):
    if f in class_of:
        return ("leaf", "u", class_of[f])
    # mark labels are 1-based positions in the mark order
    return ("leaf", "m", t.marks.index(f) + 1)


def _encode_down(t, class_of, vertex, in_flag):
    g = t.graph
    kids = []
    for f in g.flags_at(vertex):
        if f == in_flag:
            continue
        p = g.flag_partner[f]
        if p is None:
            kids.append(_leaf_label(t, class_of, f))
        else:
            kids.append(_encode_down(t, class_of, g.flag_vertex[p], p))
    kids.sort()
    return ("node",) + tuple(kids)


def _tree_center(g: Graph):
    """The 1 or 2 middle vertices of the bounded-edge tree."""
    n = g.num_vertices
    if n <= 2:
        return tuple(range(n))
    adj = [set() for _ in range(n)]
    for e in g.bounded_edges():
        a, b = g.flag_vertex[e], g.flag_vertex[g.flag_partner[e]]
        adj[a].add(b)
        adj[b].add(a)
    remaining = n
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] <= 1]
    alive = [True] * n
    while remaining > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            remaining -= 1
            for w in adj[v]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return tuple(v for v in range(n) if alive[v])


def canonical_form(t, interchangeable=()):
    """Canonical encoding of a marked tree type.

    `interchangeable` partitions the unmarked ends into classes whose members
    may be permuted by isomorphisms (for plane types: ends of equal
    direction).  Equal encodings iff the types are isomorphic as marked
    curves respecting those classes.  Rooted at the tree center so only one
    or two encodings are computed.
    """
    class_of = {}
    for idx, group in enumerate(interchangeable):
        for f in group:
            class_of[f] = idx
    unmarked = set(t.graph.end_flags()) - set(t.marks)
    # ends not mentioned in the partition are singleton classes
    base = len(interchangeable)
    for j, f in enumerate(sorted(unmarked - set(class_of))):
        class_of[f] = base + j
    return min(_encode_down(t, class_of, v, None) for v in _tree_center(t.graph))


def graph_to_json(g: Graph) -> dict:
    out = {
        "vertices": list(range(g.num_vertices)),
        "flags": [
            {"id": f, "vertex": g.flag_vertex[f], "partner": g.flag_partner[f]}
            for f in range(g.num_flags())
        ],
    }
    if g.lengths is not None:
        out["lengths"] = {str(e): fraction_str(l) for e, l in sorted(g.lengths.items())}
    return out


def graph_from_json(data: dict) -> Graph:
    flags = sorted(data["flags"], key=lambda r: r["id"])
    ids = [r["id"] for r in flags]
    if ids != list(range(len(flags))):
        raise ValueError("flag ids must be 0..k-1")
    fv = [r["vertex"] for r in flags]
    fp = [r["partner"] for r in flags]
    if any(type(x) is not int for x in ids + fv + [p for p in fp if p is not None]):
        raise ValueError("flag ids, vertices and partners must be JSON integers")
    lengths = None
    if "lengths" in data:
        lengths = {int(e): parse_fraction(s) for e, s in data["lengths"].items()}
    return Graph(fv, fp, lengths)


def trivalent_trees_on_leaves(classes):
    """Trivalent trees on leaves of the given classes, one per iso class.

    Leaf i has class classes[i]; two trees are the same when some
    isomorphism maps every leaf to a leaf of its class.  Yields (graph,
    leaves) where leaves[i] is the end flag of leaf i.  Classic growth:
    hang leaf k on every edge of every tree on leaves 0..k-1, depth first,
    and grow no partial tree isomorphic to one already grown at its size.
    An isomorphism carries the growths of one partial tree onto those of
    the other, so each tree kept is the first of its class that the
    unpruned walk reaches, in the walk's order.  With all classes distinct
    this is the labeled walk: each labeled tree once.
    """
    n = len(classes)
    if n < 3:
        raise ValueError("need at least 3 leaves")
    kinds = list(dict.fromkeys(classes))
    kind = [kinds.index(c) for c in classes]
    grown = [set() for _ in range(n + 1)]

    def grow(fv, fp, leaf_flags):
        k = len(leaf_flags)
        g = Graph(fv, fp)
        groups = [[] for _ in kinds]
        for i, f in enumerate(leaf_flags):
            groups[kind[i]].append(f)
        key = canonical_form(AbstractType(g, ()), groups)
        if key in grown[k]:
            return
        grown[k].add(key)
        if k == n:
            yield g, tuple(leaf_flags)
            return
        nf = len(fv)
        edges = [f for f, p in enumerate(fp) if p is None or f < p]
        for e in edges:
            # subdivide edge e with a new vertex, hang the new leaf there
            new_v = max(fv) + 1
            fv2 = fv + [new_v, new_v, new_v]
            fp2 = fp + [None, None, None]
            leaf_flag, back_flag, fwd_flag = nf, nf + 1, nf + 2
            old_partner = fp[e]
            fp2[e] = back_flag
            fp2[back_flag] = e
            fp2[fwd_flag] = old_partner
            if old_partner is not None:
                fp2[old_partner] = fwd_flag
            lf2 = list(leaf_flags)
            if old_partner is None:
                # the subdivided edge was itself a leaf; its end moved outward
                lf2[lf2.index(e)] = fwd_flag
            lf2.append(leaf_flag)
            yield from grow(fv2, fp2, lf2)

    yield from grow([0, 0, 0], [None, None, None], [0, 1, 2])
