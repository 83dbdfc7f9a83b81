"""Per-cell linear maps on moduli of marked plane curves.

Cells are indexed by combinatorial types; coordinates on a cell are the
root-vertex position plus one length per bounded edge.  A cell map is a
plain list of integer rows: the evaluation rows, the four-mark forgetful
row, and their stacked square map, whose |det| is the multiplicity.  They
live here together with forgetting marks and resolving a 4-valent vertex
(wall crossing).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import AbstractType, Graph, MarkedAbstractCurve
from .linalg import det
from .plane import PlaneCurve, PlaneType, image_position, vadd, vneg

# quartet pairings by mark position: A = {1,2|3,4}, B = {1,3|2,4}, C = {1,4|2,3}
_PAIRINGS = (("A", (0, 1), (2, 3)), ("B", (0, 2), (1, 3)), ("C", (0, 3), (1, 2)))


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


def _columns(t, root: int, edge_order) -> dict:
    """Column of each bounded edge in the cell coordinates: root x, root y,
    then one length per bounded edge in edge_order (default: id order)."""
    g = t.graph
    edges = tuple(edge_order) if edge_order is not None else g.bounded_edges()
    if sorted(edges) != sorted(g.bounded_edges()):
        raise ValueError("edge order must list exactly the bounded edges")
    if not (0 <= root < g.num_vertices):
        raise ValueError("root out of range")
    return {e: 2 + i for i, e in enumerate(edges)}


def ev_matrix(t: PlaneType, which=None, root: int = 0, edge_order=None) -> list:
    """Evaluation rows for selected (mark index, coordinate) pairs.

    which defaults to all marks, both coordinates, in mark order.  Root
    columns are an identity block; a length column carries the direction
    component when its edge lies on the root-to-mark path.
    """
    g = t.graph
    cols = _columns(t, root, edge_order)
    if which is None:
        which = [(i, c) for i in range(len(t.marks)) for c in (0, 1)]
    rows = []
    for i, c in which:
        if not (0 <= i < len(t.marks)):
            raise ValueError(f"no mark with index {i}")
        if c not in (0, 1):
            raise ValueError("coordinate selector must be 0 or 1")
        row = [0] * (2 + len(cols))
        row[c] = 1
        for f in g.path_flags(root, g.flag_vertex[t.marks[i]]):
            row[cols[g.edge_of_flag(f)]] += t.dirs[f][c]
        rows.append(row)
    return rows


def _median(g: Graph, a: int, b: int, c: int) -> int:
    common = (
        set(g.path_vertices(a, b))
        & set(g.path_vertices(a, c))
        & set(g.path_vertices(b, c))
    )
    (m,) = common
    return m


def _quartet(t):
    """Pairing of the first four marks plus the central-path endpoints."""
    g = t.graph
    vs = [g.flag_vertex[t.marks[i]] for i in range(4)]
    for ray, (i, j), (k, l) in _PAIRINGS:
        left = set(g.path_vertices(vs[i], vs[j]))
        right = set(g.path_vertices(vs[k], vs[l]))
        if not (left & right):
            u = _median(g, vs[i], vs[j], vs[k])
            w = _median(g, vs[k], vs[l], vs[i])
            return ray, u, w
    return "D", None, None


def ft4_coordinate(t: PlaneType, root: int = 0, edge_order=None):
    """(ray, row) of the forget-to-four-marks coordinate on this cell.

    The row has a 1 at each bounded edge of the central path between the
    quartet's two branch vertices; ray D (one-vertex quartet) gives the
    zero row.
    """
    if len(t.marks) < 4:
        raise ValueError("need at least 4 marks")
    cols = _columns(t, root, edge_order)
    row = [0] * (2 + len(cols))
    ray, u, w = _quartet(t)
    if ray != "D":
        g = t.graph
        for f in g.path_flags(u, w):
            row[cols[g.edge_of_flag(f)]] = 1
    return ray, row


def m4_point(c: PlaneCurve) -> M4Point:
    """Image of a curve with >= 4 marks under forgetting down to four."""
    if len(c.marks) < 4:
        raise ValueError("need at least 4 marks")
    ray, u, w = _quartet(c)
    if ray == "D":
        return M4Point("D", 0)
    g = c.graph
    total = Fraction(0)
    for f in g.path_flags(u, w):
        total += g.lengths[g.edge_of_flag(f)]
    if total == 0:
        return M4Point("D", 0)
    return M4Point(ray, total)


def pi_which(n: int) -> list:
    """The combined map's row spec on n marks, as (mark, coordinate) pairs:
    the first coordinate of the first mark, the second of the second, and
    both of the rest."""
    return [(0, 0), (1, 1)] + [(i, c) for i in range(2, n) for c in (0, 1)]


def pi_matrix(t: PlaneType, d: int, root: int = 0, edge_order=None) -> list:
    """The rows of pi_which, then the ft4 row: square of size 2n-1 on
    3-valent degree-d types."""
    n = len(t.marks)
    if n != 3 * d:
        raise ValueError(f"need n = 3d marks, got n={n}, d={d}")
    from .plane import projective_degree

    if t.degree() != tuple(sorted(projective_degree(d))):
        raise ValueError("type is not of projective degree d")
    ft_row = ft4_coordinate(t, root, edge_order)[1]
    return ev_matrix(t, pi_which(n), root, edge_order) + [ft_row]


def multiplicity(rows) -> int:
    """|det| of a square cell map."""
    return abs(det(rows))


def forget_points(c: PlaneCurve, m: int) -> PlaneCurve:
    """Keep the first m marks; prune and straighten the rest away.

    Two-valent vertices left by a removed mark are straightened (their two
    edges merge, lengths adding); branches that carried only removed marks
    are pruned.  Image positions of everything that survives are unchanged.
    """
    if not (0 <= m <= len(c.marks)):
        raise ValueError("mark count out of range")
    if m == len(c.marks):
        return c
    g = c.graph
    nf = g.num_flags()
    alive = [True] * nf
    partner = list(g.flag_partner)
    vert = list(g.flag_vertex)
    dirs = list(c.dirs)
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
    new_dirs = tuple(dirs[f] for f in keep)
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
        if root_old is None:
            raise AssertionError("no surviving vertex reachable from root")
    root_pos = image_position(c, root_old)
    return PlaneCurve(
        MarkedAbstractCurve(graph, new_marks), new_dirs, vremap[root_old], root_pos
    )


def resolve_four_valent(t: PlaneType, v: int, pairing) -> tuple:
    """Split 4-valent vertex v, keeping the flags of `pairing` at v.

    All existing flag and edge ids are preserved; the new bounded edge gets
    the two fresh flags, its id being the first of them (largest edge id,
    so shared coordinate orders can list it last).  Returns (type, new edge).
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
