"""Per-cell linear maps on moduli of marked plane curves.

Cells are indexed by combinatorial types; coordinates on a cell are the
position of vertex 0 plus one length per bounded edge, in bounded_edges()
order.  A cell map is a plain list of integer rows: the evaluation rows,
the four-mark forgetful row, and their stacked square map, whose |det| is
the multiplicity.  They live here together with restriction, the part of a
curve spanned by a set of its ends, which both forgets marks and splits a
reducible curve at its contracted edge, and with resolving a 4-valent
vertex (wall crossing).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import AbstractType, Graph, MarkedAbstractCurve
from .linalg import det
from .plane import PlaneCurve, PlaneType, image_position, projective_degree, vadd, vneg

# quartet pairings by mark position: A = {1,2|3,4}, B = {1,3|2,4}, C = {1,4|2,3}
_PAIRINGS = (("A", (0, 1), (2, 3)), ("B", (0, 2), (1, 3)), ("C", (0, 3), (1, 2)))
# _SPLITS[s]: the ray whose pairing a piece separates, by the marks s on
# one side of it, or None
_SPLITS = tuple(
    next((ray for ray, (i, j), _ in _PAIRINGS if side in (1 << i | 1 << j, 15 ^ (1 << i | 1 << j))), None)
    for side in range(16)
)


@dataclass(frozen=True, order=True)
class M4Point:
    """Point of the 4-mark moduli fan: ray label and distance from the origin."""

    ray: str
    length: Fraction

    def __post_init__(self):
        object.__setattr__(self, "length", Fraction(self.length))
        if self.ray not in ("A", "B", "C", "D"):
            raise ValueError(f"unknown ray {self.ray!r}")
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if (self.ray == "D") != (self.length == 0):
            raise ValueError("ray D holds exactly the length-0 point")


def vertex_rows(t: PlaneType) -> tuple:
    """(cols, rows): cols[e] is bounded edge e's column after root x and
    root y (vertex 0), and rows[v] vertex v's [x row, y row] over them.
    One component(0) walk builds them, each vertex's rows its walk-parent's
    plus the direction of the edge it is reached by, in that edge's column."""
    g = t.graph
    cols = {e: 2 + i for i, e in enumerate(g.bounded_edges())}
    rows = [None] * g.num_vertices
    for v, f in g.component(0).items():
        if f is None:
            rows[v] = [[1, 0] + [0] * len(cols), [0, 1] + [0] * len(cols)]
            continue
        x, y = (row[:] for row in rows[g.flag_vertex[f]])
        col, (dx, dy) = cols[g.edge_of_flag(f)], t.dirs[f]
        x[col] += dx
        y[col] += dy
        rows[v] = [x, y]
    return cols, rows


def ev_matrix(t: PlaneType, which=None) -> list:
    """Evaluation rows for selected (mark index, coordinate) pairs.

    which defaults to all marks, both coordinates, in mark order.  Each is
    a copy of the mark vertex's row in vertex_rows: root x, root y, then
    the direction component in each length column on the root-to-mark path.
    """
    g = t.graph
    if which is None:
        which = [(i, c) for i in range(len(t.marks)) for c in (0, 1)]
    at = vertex_rows(t)[1]
    rows = []
    for i, c in which:
        if not (0 <= i < len(t.marks)):
            raise ValueError(f"no mark with index {i}")
        if c not in (0, 1):
            raise ValueError("coordinate selector must be 0 or 1")
        rows.append(at[g.flag_vertex[t.marks[i]]][c][:])
    return rows


def _quartet(t):
    """(ray, central edges): the pairing of the first four marks and the
    bounded edges that split them two and two, the central path; in a tree
    they all split the same pairing.  Ray D, the one-vertex quartet, has
    none.  One walk out of vertex 0, read in reverse, ORs the marks at and
    below each vertex into the vertex it is reached from."""
    g = t.graph
    below = [0] * g.num_vertices
    for i in range(4):
        below[g.flag_vertex[t.marks[i]]] |= 1 << i
    reached_by = g.component(0)
    ray, central = "D", []
    for v in reversed(reached_by):
        f = reached_by[v]
        if f is not None:
            if _SPLITS[below[v]]:
                ray = _SPLITS[below[v]]
                central.append(g.edge_of_flag(f))
            below[g.flag_vertex[f]] |= below[v]
    return ray, central


def ft4_coordinate(t: PlaneType):
    """(ray, row) of the forget-to-four-marks coordinate on this cell.

    The row has a 1 at each bounded edge that splits the quartet two and
    two, in ev_matrix's columns; ray D (one-vertex quartet) gives the zero
    row.
    """
    if len(t.marks) < 4:
        raise ValueError("need at least 4 marks")
    edges = t.graph.bounded_edges()
    row = [0] * (2 + len(edges))
    ray, central = _quartet(t)
    for e in central:
        row[2 + edges.index(e)] = 1
    return ray, row


def m4_point(c: PlaneCurve) -> M4Point:
    """Image of a curve with >= 4 marks under forgetting down to four."""
    if len(c.marks) < 4:
        raise ValueError("need at least 4 marks")
    ray, central = _quartet(c)
    total = sum((c.graph.lengths[e] for e in central), Fraction(0))
    if total == 0:
        return M4Point("D", 0)
    return M4Point(ray, total)


def pi_which(n: int) -> list:
    """The combined map's row spec on n marks, as (mark, coordinate) pairs:
    the first coordinate of the first mark, the second of the second, and
    both of the rest."""
    return [(0, 0), (1, 1)] + [(i, c) for i in range(2, n) for c in (0, 1)]


def pi_matrix(t: PlaneType, d: int) -> list:
    """The rows of pi_which, then the ft4 row: square of size 2n-1 on
    3-valent degree-d types."""
    n = len(t.marks)
    if n != 3 * d:
        raise ValueError(f"need n = 3d marks, got n={n}, d={d}")
    if t.degree() != tuple(sorted(projective_degree(d))):
        raise ValueError("type is not of projective degree d")
    return ev_matrix(t, pi_which(n)) + [ft4_coordinate(t)[1]]


def multiplicity(rows) -> int:
    """|det| of a square cell map."""
    return abs(det(rows))


def restrict(c: PlaneCurve, ends, marks=()) -> PlaneCurve:
    """The part of curve c spanned by the flags in ends.

    Each flag in ends becomes an unbounded end, every vertex left 2-valent
    is straightened (its two edges merge, lengths adding), and marks, a
    subset of ends, are the new marks in order.  Image positions of
    everything that survives are unchanged.  The root stays where it is if
    its vertex survives, else it moves to the first surviving vertex.
    Surviving flags and vertices keep their relative order, so restricting
    to all of c's ends and marks gives c back.
    """
    ends = tuple(ends)
    if len(ends) < 3:
        raise ValueError(f"a curve needs at least 3 ends, got {len(ends)}")
    is_end = set(ends)
    if not is_end.issuperset(marks):
        raise ValueError("marks must be among the ends")
    g = c.graph
    fv, fp = g.flag_vertex, g.flag_partner
    # one walk from the first end's vertex, crossing no edge of an end
    start = fv[ends[0]]
    reached_by = g.component(start, cut_edges={g.edge_of_flag(f) for f in ends})
    # the span: every vertex on the way back from an end's vertex
    span = {start}
    for f in ends:
        v = fv[f]
        if v not in reached_by:
            raise ValueError("the ends do not span one connected part")
        while v not in span:
            span.add(v)
            v = fv[reached_by[v]]
    # a live flag is an end, or leads to another span vertex
    live = {}
    for v in span:
        live[v] = [
            f for f in g.flags_at(v)
            if f in is_end or fp[f] is not None and fv[fp[f]] in span
        ]
    keep = sorted(v for v in span if len(live[v]) >= 3)
    vid = {v: i for i, v in enumerate(keep)}
    # follow each live flag of a survivor through 2-valent vertices to the
    # end it reaches, or to the last flag before the next survivor
    reach = {}
    for v in keep:
        for f in live[v]:
            q, length = f, None
            while q not in is_end:
                l = g.lengths[g.edge_of_flag(q)]
                length = l if length is None else length + l
                p = fp[q]
                if fv[p] in vid:
                    break
                a, b = live[fv[p]]
                q = b if a == p else a
            reach[f] = (q, length)
    flags = sorted(reach)
    fid = {f: i for i, f in enumerate(flags)}
    new_partner, dirs, lengths, end_id = [], [], {}, {}
    for i, f in enumerate(flags):
        q, length = reach[f]
        if q in is_end:
            end_id[q] = i
            new_partner.append(None)
            dirs.append(c.dirs[q])
        else:
            j = fid[fp[q]]
            new_partner.append(j)
            dirs.append(c.dirs[f])
            lengths[min(i, j)] = length
    graph = Graph([vid[fv[f]] for f in flags], new_partner, lengths)
    curve = MarkedAbstractCurve(graph, tuple(end_id[m] for m in marks))
    if c.root in vid:
        return PlaneCurve(curve, tuple(dirs), vid[c.root], c.root_pos)
    return PlaneCurve(curve, tuple(dirs), 0, image_position(c, keep[0]))


def forget_points(c: PlaneCurve, m: int) -> PlaneCurve:
    """Keep the first m marks; prune and straighten the rest away."""
    if not (0 <= m <= len(c.marks)):
        raise ValueError("mark count out of range")
    dropped = set(c.marks[m:])
    ends = [f for f in c.graph.end_flags() if f not in dropped]
    return restrict(c, ends, c.marks[:m])


def resolve_four_valent(t: PlaneType, v: int, pairing) -> tuple:
    """Split 4-valent vertex v, keeping the flags of `pairing` at v.

    All existing flag and edge ids are preserved; the new bounded edge gets
    the two fresh flags, its id being the first of them: the largest edge
    id, so its length is the last column of the cell maps.  Returns (type,
    new edge).
    """
    g = t.graph
    at_v = g.flags_at(v)
    if len(at_v) != 4:
        raise ValueError("vertex is not 4-valent")
    stay = tuple(pairing)
    if len(stay) != 2 or any(f not in at_v for f in stay):
        raise ValueError("pairing must pick two flags at the vertex")
    move = [f for f in at_v if f not in stay]
    nf = g.num_flags()
    new_v = g.num_vertices
    fv = list(g.flag_vertex) + [v, new_v]
    fp = list(g.flag_partner) + [nf + 1, nf]
    for f in move:
        fv[f] = new_v
    stay_sum = vadd(t.dirs[stay[0]], t.dirs[stay[1]])
    dirs = list(t.dirs) + [vneg(stay_sum), stay_sum]
    marks = t.marks
    return PlaneType(AbstractType(Graph(fv, fp), marks), tuple(dirs)), nf


def four_valent_resolutions(t: PlaneType, v: int):
    """The three ways of splitting a 4-valent vertex, as (type, new edge)."""
    fs = t.graph.flags_at(v)
    return tuple(
        resolve_four_valent(t, v, (fs[0], fs[k])) for k in (1, 2, 3)
    )
