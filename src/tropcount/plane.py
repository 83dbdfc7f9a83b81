"""Marked plane tropical curves: directions, balancing, degree, image.

A plane curve is an abstract marked curve plus an integer direction vector
per flag (opposite on the two flags of a bounded edge, zero on marked ends)
satisfying the balancing condition at every vertex, anchored to the plane
by a root vertex position.  On trees the internal directions are forced by
the end directions, so they are derived rather than free data.

A curve's image (vertex positions, segments, the segments as integers over
one common denominator, and the straight runs the segments join into) is
walked once out of the root, on first use, and cached on the curve
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .graph import (
    AbstractType,
    Graph,
    MarkedAbstractCurve,
    canonical_form,
    fraction_str,
    graph_from_json,
    graph_to_json,
    parse_fraction,
)

ZERO = (0, 0)


def cross(u, v) -> int:
    """2x2 determinant det(u, v) of column vectors u, v."""
    return u[0] * v[1] - u[1] * v[0]


def vadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def vneg(u):
    return (-u[0], -u[1])


def projective_degree(d: int):
    """The degree-d multiset: (-1,0), (0,-1), (1,1) each d times."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return tuple([(-1, 0)] * d + [(0, -1)] * d + [(1, 1)] * d)


def check_balancing(c) -> tuple:
    """(True, None) if balanced, else (False, first offending vertex)."""
    g = c.graph
    dirs = c.dirs
    for v in range(g.num_vertices):
        total = (0, 0)
        for f in g.flags_at(v):
            total = vadd(total, dirs[f])
        if total != ZERO:
            return False, v
    return True, None


def _check_directions(c) -> None:
    graph = c.graph
    dirs = c.dirs
    if len(dirs) != graph.num_flags():
        raise ValueError("one direction per flag required")
    for f, p in enumerate(graph.flag_partner):
        fd = dirs[f]
        if not (isinstance(fd, tuple) and len(fd) == 2):
            raise ValueError("directions must be integer pairs")
        if not (isinstance(fd[0], int) and isinstance(fd[1], int)):
            raise ValueError("directions must be integer pairs")
        if p is not None and vadd(dirs[f], dirs[p]) != ZERO:
            raise ValueError(f"flags {f},{p} of a bounded edge must be opposite")
    for m in c.marks:
        if dirs[m] != ZERO:
            raise ValueError("marked ends must be contracted")
    balanced, v = check_balancing(c)
    if not balanced:
        raise ValueError(f"balancing fails at vertex {v}")


class _Ends:
    """What a plane type and a plane curve alike read off the graph, marks
    and directions they hold."""

    def degree(self):
        """The directions of the unmarked ends, sorted."""
        return tuple(sorted(self.dirs[f] for f in self.unmarked_ends()))

    def unmarked_ends(self):
        return tuple(f for f in self.graph.end_flags() if f not in self.marks)

    def contracted_bounded_edges(self):
        return tuple(e for e in self.graph.bounded_edges() if self.dirs[e] == ZERO)


@dataclass(frozen=True)
class PlaneType(_Ends):
    """Combinatorial type of a plane curve: marked tree + directions."""

    abstract: AbstractType
    dirs: tuple

    def __post_init__(self):
        object.__setattr__(self, "dirs", tuple(tuple(d) for d in self.dirs))
        _check_directions(self)

    @property
    def graph(self) -> Graph:
        return self.abstract.graph

    @property
    def marks(self):
        return self.abstract.marks

    def codim(self) -> int:
        return self.abstract.codim()

    @cached_property
    def canonical(self):
        """The type's canonical key, computed on first use; not a dataclass
        field."""
        return (self.degree(), canonical_form(self.abstract, direction_classes(self)))

    def __reduce__(self):
        # copies and pickles carry the two fields; the key is computed anew
        return PlaneType, (self.abstract, self.dirs)

    def with_lengths(self, lengths, root: int, root_pos) -> "PlaneCurve":
        g = self.graph
        curve = MarkedAbstractCurve(
            Graph(g.flag_vertex, g.flag_partner, lengths), self.marks
        )
        return PlaneCurve(curve, self.dirs, root, root_pos)


@dataclass(frozen=True)
class PlaneCurve(_Ends):
    """Plane tropical curve: marked curve + directions + root position."""

    curve: MarkedAbstractCurve
    dirs: tuple
    root: int
    root_pos: tuple

    def __post_init__(self):
        object.__setattr__(self, "dirs", tuple(tuple(d) for d in self.dirs))
        object.__setattr__(
            self, "root_pos", (Fraction(self.root_pos[0]), Fraction(self.root_pos[1]))
        )
        g = self.curve.graph
        if not (0 <= self.root < g.num_vertices):
            raise ValueError("root out of range")
        _check_directions(self)

    @property
    def graph(self) -> Graph:
        return self.curve.graph

    @property
    def marks(self):
        return self.curve.marks

    def mark_vertex(self, i: int) -> int:
        """Vertex of the i-th mark (0-based index into the mark order)."""
        return self.graph.flag_vertex[self.marks[i]]

    @cached_property
    def image(self) -> "CurveImage":
        """The curve's image, walked on first use; not a dataclass field."""
        return _walk_image(self)

    def __reduce__(self):
        # copies and pickles carry the four fields; the image is walked anew
        return PlaneCurve, (self.curve, self.dirs, self.root, self.root_pos)


class Run(NamedTuple):
    """A straight run of segments, as integers over its image's denominator.

    The run starts at (x, y) and goes along direction (u0, u1) for length
    (None when unbounded); breaks are the parameters, in (0, length), where
    one of its segments ends and the next begins; pieces are the indices of
    its segments, in order along the run.  The fields are flat, in the
    order the intersection scan unpacks them.
    """

    u0: int
    u1: int
    x: int
    y: int
    length: Optional[int]
    breaks: tuple
    pieces: tuple


@dataclass(frozen=True)
class CurveImage:
    """Image of a plane curve, read-only.

    positions maps each vertex to its image point; segments are as
    `image_segments` gives them; scaled holds, per segment, the integers
    (X, Y, L) = denominator * (start point, length), where denominator is
    the least common one of all segment starts and lengths.

    runs joins the segments into maximal straight chains: two segments join
    at a vertex where they are its only non-contracted flags (balancing then
    makes them opposite), as at a mark or at either end of a contracted
    edge.  A chain unbounded both ways stays split into its segments, so
    every run starts at a vertex.  Each segment lies in exactly one run.
    """

    positions: Mapping
    segments: tuple
    denominator: int
    scaled: tuple
    runs: tuple


def _walk_image(c: PlaneCurve) -> CurveImage:
    g = c.graph
    pos = {}
    for v, f in g.component(c.root).items():
        if f is None:
            pos[v] = c.root_pos
            continue
        x, y = pos[g.flag_vertex[f]]
        l = g.lengths[g.edge_of_flag(f)]
        d = c.dirs[f]
        pos[v] = (x + l * d[0], y + l * d[1])

    # marked ends are contracted; a segment is named by its edge id
    edges = [f for f in g.end_flags() if c.dirs[f] != ZERO]
    edges += [e for e in g.bounded_edges() if c.dirs[e] != ZERO]
    segs = tuple((pos[g.flag_vertex[e]], c.dirs[e], g.lengths.get(e)) for e in edges)

    den = lcm(*(x.denominator for p, _, l in segs for x in (*p, l or 0)))

    def up(x):
        return x.numerator * (den // x.denominator)

    scaled = tuple(
        (up(p[0]), up(p[1]), None if l is None else up(l)) for p, _, l in segs
    )
    index = {e: i for i, e in enumerate(edges)}
    live = [
        [f for f in g.flags_at(v) if c.dirs[f] != ZERO] for v in range(g.num_vertices)
    ]
    runs = []
    joined = set()
    for v, flags in enumerate(live):
        if len(flags) == 2:
            continue
        for f in flags:
            if index[g.edge_of_flag(f)] in joined:
                continue  # traced from its other end
            u, pieces, breaks, t = c.dirs[f], [], [], 0
            while True:
                i = index[g.edge_of_flag(f)]
                pieces.append(i)
                p = g.flag_partner[f]
                if p is None:
                    t = None
                    break
                t += scaled[i][2]
                there = live[g.flag_vertex[p]]
                if len(there) != 2:
                    break
                breaks.append(t)
                f = there[1] if there[0] == p else there[0]
            joined.update(pieces)
            x, y = pos[v]
            runs.append(Run(*u, up(x), up(y), t, tuple(breaks), tuple(pieces)))
    # what is left are the chains unbounded both ways, one run per segment
    for i, (p, u, _) in enumerate(segs):
        if i not in joined:
            x, y, l = scaled[i]
            runs.append(Run(*u, x, y, l, (), (i,)))
    return CurveImage(MappingProxyType(pos), segs, den, scaled, tuple(runs))


def derive_directions(graph: Graph, marks, end_dirs: dict):
    """Directions for every flag of a tree from its end directions.

    end_dirs maps unmarked end flags to directions; marked ends get zero;
    bounded-edge directions are forced by balancing: a flag carries the sum
    of the end directions on the side of the edge it points into.
    """
    marks = set(marks)
    dirs = [None] * graph.num_flags()
    # side[v]: the end directions at v, then those of everything below v
    side = [ZERO] * graph.num_vertices
    for f in graph.end_flags():
        d = ZERO if f in marks else tuple(end_dirs[f])
        dirs[f] = d
        side[graph.flag_vertex[f]] = vadd(side[graph.flag_vertex[f]], d)
    reached_by = graph.component(0)
    # every vertex after the one it is reached from, so children first
    for v in reversed(reached_by):
        f = reached_by[v]
        if f is not None:
            dirs[f] = side[v]
            dirs[graph.flag_partner[f]] = vneg(side[v])
            side[graph.flag_vertex[f]] = vadd(side[graph.flag_vertex[f]], side[v])
    if side[0] != ZERO:
        raise ValueError("end directions must sum to zero")
    return tuple(dirs)


def image_positions(c: PlaneCurve) -> Mapping:
    """Image of every vertex, from the curve's cached walk."""
    return c.image.positions


def image_position(c: PlaneCurve, v: int):
    """Image of vertex v: the root position plus the length-weighted
    directions along the path to v, read back off a component walk, so
    that reading one vertex builds no CurveImage."""
    g = c.graph
    x, y = c.root_pos
    for f in g.path_flags(c.root, v):
        length = g.lengths[g.edge_of_flag(f)]
        dx, dy = c.dirs[f]
        x, y = x + length * dx, y + length * dy
    return (x, y)


def image_segments(c: PlaneCurve) -> tuple:
    """(start point, direction, length or None) per non-contracted edge.

    Contracted edges and marked ends emit nothing; unbounded ends have
    length None.
    """
    return c.image.segments


def direction_classes(t: PlaneType):
    """Unmarked ends grouped by direction, in sorted direction order."""
    groups = {}
    for f in t.unmarked_ends():
        groups.setdefault(t.dirs[f], []).append(f)
    return tuple(tuple(groups[d]) for d in sorted(groups))


def canonical_plane_form(t: PlaneType):
    """Canonical key: isomorphism respecting marks and end directions,
    cached on the type."""
    return t.canonical


def plane_curve_to_json(c: PlaneCurve) -> dict:
    return {
        "graph": graph_to_json(c.graph),
        "marks": list(c.marks),
        "directions": [list(d) for d in c.dirs],
        "root": c.root,
        "root_pos": [fraction_str(c.root_pos[0]), fraction_str(c.root_pos[1])],
    }


def plane_curve_from_json(data: dict) -> PlaneCurve:
    g = graph_from_json(data["graph"])
    if any(type(m) is not int for m in data["marks"]):
        raise ValueError("marks must be JSON integers")
    curve = MarkedAbstractCurve(g, tuple(data["marks"]))
    dirs = tuple((a, b) for a, b in data["directions"])
    if any(type(x) is not int for v in dirs for x in v):
        raise ValueError("direction entries must be JSON integers")
    root_pos = data["root_pos"]
    if type(root_pos) is not list or len(root_pos) != 2:
        raise ValueError("root_pos must be a list of two rationals")
    root_pos = (parse_fraction(root_pos[0]), parse_fraction(root_pos[1]))
    if type(data["root"]) is not int:
        raise ValueError("the root vertex must be a JSON integer")
    return PlaneCurve(curve, dirs, data["root"], root_pos)
