"""Combinatorial types and exact fibers of the evaluation-style maps.

One search and one leaf serve both maps.  Unmarked trivalent image trees
are enumerated once per degree (cached).  A map's row spec lists the
(mark, coordinate) pairs it pins: a mark with both coordinates pinned is a
point, a mark with one a line.  The work on each tree comes in this order.

1. Pair masks.  The search assigns each mark a host edge, and a cone test
   per pair of marks, in the coordinates both pin, prunes before any linear
   algebra runs.  The cone of the path directions between two hosts is an
   arc of class directions, and one walk over the tree per host reads off
   its arcs to every other host.  A cone test sees a displacement only
   through its class (a direction or an angular gap between two, or a sign
   for a line pair), so each fiber classes its mark pairs once, and each
   tree keeps a point-independent table of the hosts that pass, per placed
   mark's host and class; the test is a lookup.
2. Quartet masks.  The combined map keeps only the assignments of its last
   mark, mark 1, that leave some order of marks 0-3 on the target ray of
   M_0,4; a point-independent table per tree holds them, per ray and per
   hosts of marks 0, 2 and 3, with the ft4 row of each order.
3. Forward checking.  Placing a mark ANDs its pair masks into the domain of
   every later mark, and a node that empties one is cut.  The marks keep a
   static order, point marks first, so the leaves come in a fixed order.
4. The point solve.  In a chart of edge lengths and mark offsets along
   their hosts the map's rows depend on the hosts only.  A mark's offset
   meets only its own rows, so a point mark brings one point-independent
   row per host, kept on the tree, and its offset is read back after the
   solve.  The point marks' rows are solved once per assignment of them,
   as the last point mark is placed: when they are inconsistent every
   assignment of the line marks below is cut, and otherwise their
   solutions, a family in the base columns, serve every leaf below.  The
   solves and the mark classes are the point stage, kept for the last
   point set and row spec: fibers over several targets on one point set
   share it.  It also keeps the leaves of each ray's search that reached
   the ft4 row, the first work that reads the target, so a further target
   on that ray runs no search and only those leaves.
5. The leaf as a step.  A leaf adds only its own rows to the family: a line
   mark's row on a host that keeps its coordinate, a cluster's point row,
   and for the combined map the ft4 row of each order of marks 0-3, a
   rank-one step.  It decides the order of marks 0-3 in integers, then
   sorts each edge's marks by offset: that one order gives the signs of the
   lengths, and for a solution its placements and pieces.  It checks a
   solution against every row of the full chart, and builds fractions and
   the marked type only for a solution.

Everything is exact; a degenerate input is reported as
GeneralPositionViolation so the caller can resample.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cache, cached_property, cmp_to_key, lru_cache
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Tuple

from .graph import (
    AbstractType,
    Graph,
    fraction_str,
    parse_fraction,
    trivalent_trees_on_leaves,
)
from .linalg import solve
from .moduli_maps import (
    _PAIRINGS,
    _SPLITS,
    M4Point,
    ev_matrix,
    ft4_coordinate,
    multiplicity,
    pi_matrix,
    pi_which,
    restrict,
    vertex_rows,
)
from .plane import (
    PlaneCurve,
    PlaneType,
    ZERO,
    canonical_plane_form,
    cross,
    derive_directions,
    projective_degree,
    vneg,
)

EV = "ev"
PI = "pi"

_ATTEMPT_CAP = 20


class GeneralPositionViolation(RuntimeError):
    """The sampled input sits on a measure-zero locus; resample it."""


class InvarianceViolation(RuntimeError):
    """Fiber degrees that must agree did not."""


Point = Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class PointConfig:
    """Input data for a fiber computation.

    Each point constrains the coordinates its map's row spec pins.  For
    the evaluation map that is both coordinates of every point.  For the
    combined map (pi_which) the first point contributes only its
    x-coordinate (a vertical line), the second only its y-coordinate, and
    m4 fixes the image of the four-mark forgetful coordinate on ray A, B
    or C.
    """

    points: Tuple[Point, ...]
    m4: Optional[M4Point] = None

    def __post_init__(self):
        pts = tuple(
            (Fraction(x), Fraction(y)) for x, y in self.points
        )
        object.__setattr__(self, "points", pts)

    def to_json(self) -> dict:
        data = {
            "points": [[fraction_str(x), fraction_str(y)] for x, y in self.points]
        }
        if self.m4 is not None:
            data["m4"] = {
                "ray": self.m4.ray,
                "length": fraction_str(self.m4.length),
            }
        return data

    @classmethod
    def from_json(cls, data: dict) -> "PointConfig":
        pts = tuple(
            (parse_fraction(x), parse_fraction(y)) for x, y in data["points"]
        )
        m4 = None
        if "m4" in data and data["m4"] is not None:
            m4 = M4Point(data["m4"]["ray"], parse_fraction(data["m4"]["length"]))
        return cls(pts, m4)


@dataclass(frozen=True)
class FiberSolution:
    """One curve in a fiber: its type, exact cell coordinates, multiplicity.

    coords = (root x, root y, bounded-edge lengths in ascending edge order),
    the column order of the cell matrices.
    """

    type: PlaneType
    coords: Tuple[Fraction, ...]
    mult: int

    def curve(self) -> PlaneCurve:
        """The solution's curve, built on first use and kept."""
        return self._curve

    @cached_property
    def _curve(self) -> PlaneCurve:
        edges = self.type.graph.bounded_edges()
        lengths = dict(zip(edges, self.coords[2:]))
        return self.type.with_lengths(lengths, 0, (self.coords[0], self.coords[1]))

    def __reduce__(self):
        # copies and pickles carry the three fields; the curve is built anew
        return FiberSolution, (self.type, self.coords, self.mult)


# ---------------------------------------------------------------------------
# sampling


def _prime_list(count: int) -> Tuple[int, ...]:
    primes: List[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return tuple(primes)


_PRIMES = _prime_list(64)


def _rng(seed: int, attempt: int) -> random.Random:
    return random.Random((seed * 1_000_003 + attempt) * 65_537)


def sample_points(n: int, seed: int, attempt: int = 0) -> Tuple[Point, ...]:
    """n random rational points, one distinct prime denominator per coordinate."""
    rng = _rng(seed, attempt)
    pts = []
    for i in range(n):
        coords = []
        for j in (0, 1):
            p = _PRIMES[(2 * i + j) % len(_PRIMES)]
            num = rng.randint(-(10**6), 10**6)
            while num == 0 or num % p == 0:
                num = rng.randint(-(10**6), 10**6)
            coords.append(Fraction(num, p))
        pts.append(tuple(coords))
    return tuple(pts)


def large_length(d: int, points) -> Fraction:
    """A forgetful-coordinate value beyond every bounded-fiber value.

    4 * (configuration diameter) * (largest direction entry over the
    degree-d image trees) + 1; the suite separately checks stability under
    doubling this.
    """
    diam = Fraction(0)
    for (ax, ay), (bx, by) in itertools.combinations(points, 2):
        diam = max(diam, abs(ax - bx) + abs(ay - by))
    # flag directions are (c-a, c-b) for 0 <= a, b, c <= d ends cut off, and
    # the edge cutting off all d ends of direction (1,1) reaches d
    return 4 * diam * d + 1


def ev_config(d: int, seed: int, attempt: int = 0) -> PointConfig:
    return PointConfig(sample_points(3 * d - 1, seed, attempt))


def pi_config(
    d: int, seed: int, ray: str, scale: int = 1, attempt: int = 0
) -> PointConfig:
    pts = sample_points(3 * d, seed, attempt)
    return PointConfig(pts, M4Point(ray, scale * large_length(d, pts)))


# ---------------------------------------------------------------------------
# combinatorial types


@cache
def base_trees(d: int) -> Tuple[PlaneType, ...]:
    """Unmarked trivalent image trees of projective degree d, one per class.

    The ends are the grower's leaves, classed by direction, so the trees
    come in the order the labeled walk first reaches each class.
    """
    classes = projective_degree(d)
    trees = []
    for g, leaves in trivalent_trees_on_leaves(classes):
        dirs = derive_directions(g, (), dict(zip(leaves, classes)))
        trees.append(PlaneType(AbstractType(g, ()), dirs))
    return tuple(trees)


# ---------------------------------------------------------------------------
# strings and vertex multiplicities


def find_string(c):
    """A leaf-to-leaf path avoiding the closed marked ends, or None.

    Removing the closures of the marked ends splits the curve at every mark
    vertex; a surviving component with two unbounded ends yields the path.
    Returned as a flag tuple (end flag, bounded flags oriented along the
    walk, end flag).
    """
    g, marks = c.graph, c.marks
    mark_vertices = {g.flag_vertex[f] for f in marks}
    comp: Dict[int, int] = {}
    for v in range(g.num_vertices):
        if v not in mark_vertices and v not in comp:
            comp.update(dict.fromkeys(g.component(v, blocked=mark_vertices), v))
    ends_by_comp: Dict[int, List[int]] = {}
    for f in g.end_flags():
        if f in marks:
            continue
        v = g.flag_vertex[f]
        if v in comp:
            ends_by_comp.setdefault(comp[v], []).append(f)
    for flags in ends_by_comp.values():
        if len(flags) >= 2:
            e1, e2 = flags[0], flags[1]
            walk = g.path_flags(g.flag_vertex[e1], g.flag_vertex[e2])
            return (e1,) + tuple(walk) + (e2,)
    return None


def curve_multiplicity(c) -> int:
    """Product of |det| over vertices away from all marks; 0 when a string exists."""
    if find_string(c) is not None:
        return 0
    g = c.graph
    mark_vertices = {g.flag_vertex[f] for f in c.marks}
    result = 1
    for v in range(g.num_vertices):
        if v in mark_vertices:
            continue
        f1, f2 = g.flags_at(v)[:2]
        result *= abs(cross(c.dirs[f1], c.dirs[f2]))
    return result


# ---------------------------------------------------------------------------
# displacement classes

# Every flag direction of a degree-d tree is a positive multiple of a class
# direction: a primitive vector with entries in [-d, d].  The displacements
# between marks on two hosts lie in the cone of the path directions between
# them, so that cone is an arc of class directions, and a cone test sees a
# displacement only through its class: the class direction it points along,
# or the open gap between two angularly neighbouring ones.  The line tests
# are homogeneous, so they see a coordinate difference only through its
# sign.


def _half_turn(u) -> int:
    return 0 if u[1] > 0 or (u[1] == 0 and u[0] > 0) else 1


def _widen(arc, g: int, n: int):
    """The arc of the cone spanned by arc and class direction g, of n, or
    None when that is wider than a half turn.  Folded over generators, it
    breaks ties by their order: u then -u gives the half-plane left of u,
    and a later generator right of u gives None, though the three span only
    the half-plane right of u."""
    if arc is None:
        return None
    lo, hi = arc
    span, o = (hi - lo) % n, (g - lo) % n
    if o <= span:
        return arc
    if 2 * o <= n:
        return lo, g
    if 2 * o >= 2 * span + n:
        return g, hi
    return None


class _Lazy(dict):
    """A table that fills a missing key from fill(key) and keeps it.  It
    keeps the one shared object of each key, so tables of many trees hold
    one int object per key value between them."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[_SHARED.setdefault(key, key)] = self.fill(key)
        return value


class _built:
    """A table built on first use and kept in the instance's attribute
    "_" + its name, which the instance sets to None when it is made.  So
    every instance sets the same attributes in the same order, and CPython
    keeps their names in one table shared by the class, not in a dict per
    instance, which functools.cached_property gives each instance once
    that shared table is full."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = "_" + name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = getattr(instance, self.name)
        if value is None:
            value = self.build(instance)
            setattr(instance, self.name, value)
        return value


# one object per value that the point-independent tables keep as a key, a
# host mask or a quartets table: the ints above 256, and equal tables built
# for different trees, are objects of their own otherwise
_SHARED: dict = {}


class _Classes:
    """The displacement classes of degree d, and the pair test on them.

    dirs are the primitive vectors with entries in [-d, d], counterclockwise
    from (1, 0), so dirs[i + n/2] = -dirs[i] for n = len(dirs).  Class 2i
    is a displacement along dirs[i], class 2i + 1 one strictly between
    dirs[i] and the next; reps[k] represents class k.  The line classes
    follow, from `lines` on: lines + 3c + 1 + sign for a difference in
    coordinate c.  An arc (lo, hi) is the cone of dirs[lo], dirs[lo + 1],
    ..., dirs[hi], indices mod n, at most a half turn wide; None is the
    whole plane.  between[arc] and along[i] are bitmasks over the classes
    that pass the pair test between two hosts whose cone is arc, and on one
    host of direction dirs[i].
    """

    def __init__(self, d: int):
        self.d = d
        r = range(-d, d + 1)
        prims = [(x, y) for x in r for y in r if math.gcd(x, y) == 1]
        self.dirs = tuple(sorted(prims, key=cmp_to_key(
            lambda u, v: _half_turn(u) - _half_turn(v) or -cross(u, v)
        )))
        self.index = {u: i for i, u in enumerate(self.dirs)}
        nxt = self.dirs[1:] + self.dirs[:1]
        gaps = [(u[0] + v[0], u[1] + v[1]) for u, v in zip(self.dirs, nxt)]
        self.lines = 2 * len(self.dirs)
        self.reps = (
            *(x for pair in zip(self.dirs, gaps) for x in pair),
            *((c, sign) for c in (0, 1) for sign in (-1, 0, 1)),
        )
        self.between = _Lazy(self._between)
        self.along = _Lazy(self._along)

    def check(self, v) -> int:
        """The index in dirs of v's direction.  Raise unless v is a positive
        multiple of a class direction: the classes decide the cone tests of
        a tree only if its flag directions all are."""
        g = math.gcd(*v)
        i = self.index.get((v[0] // g, v[1] // g)) if g else None
        if i is None:
            raise AssertionError(f"direction {v} is no multiple of a degree-{self.d} class direction")
        return i

    def point(self, x) -> int:
        """The class of a nonzero integer displacement."""
        g = math.gcd(*x)
        i = self.index.get((x[0] // g, x[1] // g))
        if i is not None:
            return 2 * i
        dirs = self.dirs
        return next(
            2 * i + 1 for i, u in enumerate(dirs)
            if cross(u, x) > 0 and cross(x, dirs[(i + 1) % len(dirs)]) > 0
        )

    def line(self, c, delta) -> int:
        """The class of a difference delta in coordinate c."""
        return self.lines + 3 * c + 1 + (delta > 0) - (delta < 0)

    def reverse(self, k) -> int:
        """The class of -x for x of class k.  A point class k goes to
        (k + n) mod 2n for n = len(dirs), as dirs[i + n/2] = -dirs[i]; a
        line class flips its sign."""
        if k < self.lines:
            return (k + self.lines // 2) % self.lines
        c, r = divmod(k - self.lines, 3)
        return self.lines + 3 * c + 2 - r

    def _between(self, arc) -> int:
        # a point pair's displacement must lie in the cone: the classes 2lo
        # to 2hi.  A line pair's lines must meet it: a difference of sign 0
        # always does, and one of sign ±1 in coordinate c does when a
        # direction of the arc has that sign in c; the axes are class
        # directions, so each class has one sign per coordinate.  A one-ray
        # arc also lets in its antipode's signs, as if it were the whole
        # line.  That is loose: the assignments it adds hold no curve, but
        # a leaf may still call their rank-deficient system degenerate.  It
        # stays until a change that tightens it checks the degenerate inputs.
        if arc is None:
            return (1 << len(self.reps)) - 1
        n = len(self.dirs)
        lo, hi = arc
        span = (hi - lo) % n
        mask = 0
        for k in range(2 * lo, 2 * (lo + span) + 1):
            mask |= 1 << k % (2 * n)
        arc_dirs = [self.dirs[i % n] for i in range(lo, lo + span + 1)]
        if not span:
            arc_dirs.append(self.dirs[(lo + n // 2) % n])
        for c in (0, 1):
            for sign in (-1, 0, 1):
                if not sign or any(sign * u[c] > 0 for u in arc_dirs):
                    mask |= 1 << self.line(c, sign)
        return mask

    def _along(self, i) -> int:
        # on one edge a displacement rides the line through its direction
        # dirs[i]: the union of the two rays
        j = (i + len(self.dirs) // 2) % len(self.dirs)
        return self.between[i, i] | self.between[j, j]


@cache
def _classes(d: int) -> _Classes:
    return _Classes(d)


# ---------------------------------------------------------------------------
# per-tree search structures


# eq=False: a tree hashes by identity, as the key of its point families
@dataclass(eq=False)
class _TreeData:
    t: PlaneType
    classes: _Classes

    def __post_init__(self):
        g = self.t.graph
        dirs = self.t.dirs
        self.contracted = self.t.contracted_bounded_edges()
        # a vertex whose nonzero directions are all parallel
        self.collinear = any(
            len(nz) >= 2 and all(cross(nz[0], w) == 0 for w in nz[1:])
            for nz in ([dirs[f] for f in g.flags_at(v) if dirs[f] != ZERO] for v in range(g.num_vertices))
        )
        self.handles = tuple(e for e in g.bounded_edges() if dirs[e] != ZERO) + g.end_flags()
        self.hosts = _Lazy(self._host_mask)
        self._quartets = {}  # (h0, h2, h3) -> _decide's entry
        self._cones = self._chart = self._sides = None  # _built on first use

    @_built
    def cones(self) -> tuple:
        """cones[i][j] is the bitmask over classes of the displacements
        from a mark on host handles[i] to one on handles[j] that pass the
        pair test.  A walk from each host, out by both ends of its edge,
        widens the arc of the path directions flag by flag and reads it off
        at every later host, the host's own direction last; cones[j][i] is
        its point reflection.  Building it checks every flag direction
        against the class directions."""
        g = self.t.graph
        cl = self.classes
        n, half = len(cl.dirs), len(cl.dirs) // 2
        at = [None if v == ZERO else cl.check(v) for v in self.t.dirs]
        hs = self.handles
        host = {h: j for j, h in enumerate(hs)}
        arcs = [[None] * len(hs) for _ in hs]
        for i, h in enumerate(hs):
            # a mark on h leaves it by the end of either flag f, along -dirs[f]
            stack = [
                (g.flag_vertex[f], f, ((at[f] + half) % n,) * 2)
                for f in g.edge_flags(h) if f is not None
            ]
            while stack:
                v, came, arc = stack.pop()
                for f in g.flags_at(v):
                    if f == came:
                        continue
                    out = arc if at[f] is None else _widen(arc, at[f], n)
                    j = host.get(g.edge_of_flag(f))
                    # one walk per pair: the walk back from j may break
                    # a tie of antiparallel directions the other way
                    if j is not None and j > i:
                        arcs[i][j] = out
                        arcs[j][i] = None if out is None else tuple((k + half) % n for k in out)
                    p = g.flag_partner[f]
                    if p is not None:
                        stack.append((g.flag_vertex[p], p, out))
        return tuple(
            tuple(
                cl.along[at[hs[i]]] if j == i else cl.between[arc]
                for j, arc in enumerate(row)
            )
            for i, row in enumerate(arcs)
        )

    def _host_mask(self, key: int) -> int:
        """Bitmask over handles of the hosts a mark may take, for the key
        i * (class count) + k: another mark sits on handles[i], and the
        displacement from it has class k.  No point enters, so td.hosts
        fills each key on first use and keeps it."""
        i, k = divmod(key, len(self.classes.reps))
        mask = 0
        for j, classes in enumerate(self.cones[i]):
            mask |= (classes >> k & 1) << j
        return _SHARED.setdefault(mask, mask)

    @_built
    def chart(self) -> tuple:
        """(cols, rows, base) of the leaf's chart: the base columns root x,
        root y and the length of each bounded edge e at cols[e], then each
        mark's offset from flag_vertex[h] along dirs[h] on its host h.
        rows[h] is vertex_rows' [x row, y row] of flag_vertex[h], shared
        by the handles at that vertex and never changed.  A point on h at
        offset t is rows[h][c]·x + dirs[h][c]·t in coordinate c, so
        base[h] = dy·rows[h][0] − dx·rows[h][1], for dirs[h] = (dx, dy),
        is the row it pins once t is eliminated."""
        g = self.t.graph
        cols, at = vertex_rows(self.t)
        rows = {h: at[g.flag_vertex[h]] for h in self.handles}
        base = {}
        for h, (x, y) in rows.items():
            dx, dy = self.t.dirs[h]
            base[h] = [dy * a - dx * b for a, b in zip(x, y)]
        return cols, rows, base

    @_built
    def sides(self) -> dict:
        """sides[h], for each handle h, has bit 4i set when h lies on the
        flag_vertex side of the i-th of chart's bounded edges, so
        that the hosts of marks 0-3, shifted by 0-3 and ORed, give each
        edge's marks on that side in a nibble.  No point enters, so it is
        built once."""
        g = self.t.graph
        sides = dict.fromkeys(self.handles, 0)
        for i, e in enumerate(self.chart[0]):
            near = g.component(g.flag_vertex[e], cut_edges=(e,))
            for h in sides:
                if h != e and g.flag_vertex[h] in near:
                    sides[h] |= 1 << 4 * i
        return sides

    def _table(self, hosts, cluster):
        """quartets' table for hosts and cluster.  Each order of the marks
        sharing a host, nearest its flag first, cuts the tree into pieces
        (s, up, low): s the marks 0-3 on the piece's flag side, as bits,
        and its length column up minus column low (None for none).  The
        central path is every piece that separates two marks from the
        other two; in a tree all such pieces separate the same pairing,
        the ray.  The cluster's two marks sit at one point, past its
        contracted edge."""
        cols = self.chart[0]
        off = 2 + len(cols)
        sides = self.sides
        # nibble i: the marks on the flag side of the i-th bounded edge
        near = sides[hosts[0]] | sides[hosts[1]] << 1 | sides[hosts[2]] << 2 | sides[hosts[3]] << 3
        at = [cluster[0] if cluster and m == cluster[1] else m for m in range(4)]
        bits = [1, 2, 4, 8]
        if cluster:
            bits[cluster[0]] |= bits[cluster[1]]
        on: Dict[int, dict] = {}
        mine = dict.fromkeys(hosts, 0)
        for m in range(4):
            on.setdefault(hosts[m], {})[at[m]] = None
            mine[hosts[m]] |= 1 << m
        # the pieces every order shares: unmarked edges and the cluster's edge
        fixed = [(near >> 4 * (col - 2) & 15, col, None) for e, col in cols.items() if e not in on]
        if cluster:
            fixed.append((bits[cluster[0]], off + cluster[1], None))
        fixed = [piece for piece in fixed if _SPLITS[piece[0]]]
        # an end's flag side holds every mark off it
        hosted = [
            (near >> 4 * (cols[h] - 2) & 15, cols[h]) if h in cols else (15 ^ mine[h], None)
            for h in on
        ]
        table = []
        for orders in itertools.product(*map(itertools.permutations, on.values())):
            central, before = fixed[:], []
            for (s, col), seq in zip(hosted, orders):
                low = None
                for a in seq:
                    if low is not None:
                        before.append((low - off, a))
                    if _SPLITS[s]:
                        central.append((s, off + a, low))
                    s |= bits[a]
                    low = off + a
                if col is not None and _SPLITS[s]:  # past an end's last mark the piece is unbounded
                    central.append((s, col, low))
            ray = _SPLITS[central[0][0]] if central else "D"
            # consecutive pieces share a column, which cancels
            ups = {up for _, up, _ in central}
            lows = {low for _, _, low in central} - {None}
            table.append((ray, tuple(before), tuple(sorted(ups - lows)), tuple(sorted(lows - ups))))
        return tuple(table)

    def _decide(self, h0, h2, h3, candidates: int) -> list:
        """The entry [decided, A, B, C, tables] of mark 0 on h0 and marks
        2 and 3 on h2 and h3, with the bits of candidates decided: bit j
        puts mark 1 on handles[j], bit len(handles) makes (0, 1) a
        cluster; A, B and C hold the bits that leave some order of marks
        0-3 on that ray, and tables[j] the bit's quartets table."""
        entry = self._quartets.get((h0, h2, h3))
        hs = self.handles
        if entry is None:
            entry = self._quartets[h0, h2, h3] = [0, 0, 0, 0, [None] * (len(hs) + 1)]
        todo = candidates & ~entry[0]
        entry[0] |= candidates
        while todo:
            low = todo & -todo
            todo ^= low
            j = low.bit_length() - 1
            if j < len(hs):
                table = self._table((h0, hs[j], h2, h3), None)
            else:
                table = self._table((h0, h0, h2, h3), (0, 1))
            entry[4][j] = _SHARED.setdefault(table, table)
            for ray, *_ in table:
                if ray != "D":
                    entry[_RAY_SLOT[ray]] |= low
        return entry

    def quartets(self, hosts, cluster):
        """(ray, before, add, sub) of marks 0-3 on hosts, one per order of
        those sharing a host, with cluster None or (0, 1).  before lists
        the pairs (a, b) next to each other on one host, a nearer its flag;
        the ft4 row adds the columns in add and subtracts sub.  The pairing
        i, j | k, l is the ray when a piece of the tree separates {i, j}
        from {k, l}, and the ft4 coordinate is the length of the central
        path, every such piece; with none it is D.  No point enters, so it
        is kept, and trees share equal tables."""
        h0, h1, h2, h3 = hosts
        j = len(self.handles) if cluster else self.handles.index(h1)
        return self._decide(h0, h2, h3, 1 << j)[4][j]

    def quartet_mask(self, ray, h0, h2, h3, candidates: int) -> int:
        """The bits of candidates that leave some order of marks 0-3 on
        ray, with mark 0 on h0 and marks 2 and 3 on h2 and h3: bit j puts
        mark 1 on handles[j], bit len(handles) makes (0, 1) a cluster.
        Each bit is decided on first use, for every ray at once, with its
        quartets table; bits never asked for are never decided."""
        return self._decide(h0, h2, h3, candidates)[_RAY_SLOT[ray]] & candidates


_RAY_SLOT = {ray: 1 + k for k, (ray, _, _) in enumerate(_PAIRINGS)}


@cache
def _tree_data(d: int) -> List[_TreeData]:
    """One _TreeData per degree-d base tree, shared by both fiber engines."""
    return [_TreeData(t, _classes(d)) for t in base_trees(d)]


def _ev_tree_data(d: int) -> List[_TreeData]:
    # A contracted bounded edge gives a zero column, a vertex with parallel
    # directions a zero vertex factor; either kills every ev determinant.
    return [td for td in _tree_data(d) if not td.contracted and not td.collinear]


def _pi_tree_data(d: int) -> List[_TreeData]:
    # Two contracted bounded edges give two columns supported only on the
    # single forgetful row, hence determinant zero.
    return [td for td in _tree_data(d) if len(td.contracted) <= 1]


# ---------------------------------------------------------------------------
# placing marks on a tree


def _subdivide(tree: PlaneType, placements: dict, n: int):
    """Insert mark vertices (and at most one two-mark cluster) into edges.

    placements maps a host handle (bounded edge id, or end flag) to its
    ordered items, nearest the handle's own flag first; an item is
    ("mark", i) or ("cluster", (i, j)).  Returns the marked type plus, per
    host, the bounded piece edge ids in walk order.
    """
    g = tree.graph
    fv = list(g.flag_vertex)
    fp = list(g.flag_partner)
    dd = list(tree.dirs)
    marks: List[Optional[int]] = [None] * n
    piece_ids: Dict[int, List[int]] = {}

    def new_flag(v, partner, direction):
        fv.append(v)
        fp.append(partner)
        dd.append(direction)
        return len(fv) - 1

    nv = g.num_vertices
    for h in sorted(placements):
        items = placements[h]
        far = fp[h]
        d = dd[h]
        open_flag = h
        ids = []
        for item in items:
            w = nv
            nv += 1
            back = new_flag(w, open_flag, vneg(d))
            fp[open_flag] = back
            ids.append(min(open_flag, back))
            if item[0] == "mark":
                marks[item[1]] = new_flag(w, None, ZERO)
            else:
                cv = new_flag(w, None, ZERO)
                wv = nv
                nv += 1
                cw = new_flag(wv, cv, ZERO)
                fp[cv] = cw
                for mi in item[1]:
                    marks[mi] = new_flag(wv, None, ZERO)
            open_flag = new_flag(w, None, d)
        if far is not None:  # an end's tail stays unbounded
            fp[open_flag] = far
            fp[far] = open_flag
            ids.append(min(open_flag, far))
        piece_ids[h] = ids
    if None in marks:
        raise AssertionError("placements left a mark without a host edge")
    t = PlaneType(AbstractType(Graph(fv, fp), tuple(marks)), tuple(dd))
    return t, piece_ids


def _mark_classes(cl: _Classes, ipts, which):
    """(order, pins, classes, later, joins) of a row spec: pins[m] lists
    the coordinates mark m pins, order places the point marks first, then
    the line marks, each in mark order, and classes[m][m2] is the class of
    the displacement from mark m2 to mark m in the coordinates both pin,
    or None when they share none.  Each unordered pair is classed once:
    the other order's class is its reverse.  For the search, by position k
    in order: later[k] lists (k2, class) for each later position whose
    mark shares a coordinate with order[k], the class of the displacement
    from order[k] to it, and joins[k] the line marks before position k on
    the other axis, which a line mark order[k] may join in a cluster."""
    pins: List[List[int]] = [[] for _ in ipts]
    for m, c in which:
        pins[m].append(c)
    classes = [[None] * len(ipts) for _ in ipts]
    for m, (im, cs) in enumerate(zip(ipts, pins)):
        for m2 in range(m):
            i2, cs2 = ipts[m2], pins[m2]
            shared = [c for c in cs if c in cs2]
            if not shared:
                continue
            if len(shared) == 2:
                k = cl.point((im[0] - i2[0], im[1] - i2[1]))
            else:
                (c,) = shared
                k = cl.line(c, im[c] - i2[c])
            classes[m][m2] = k
            classes[m2][m] = cl.reverse(k)
    order = sorted(range(len(pins)), key=lambda m: len(pins[m]) == 1)
    later = [
        [(k2, classes[m2][m]) for k2, m2 in enumerate(order) if k2 > k and classes[m2][m] is not None]
        for k, m in enumerate(order)
    ]
    joins = [
        [m2 for m2 in order[:k] if len(pins[m]) == len(pins[m2]) == 1 and pins[m2] != pins[m]]
        for k, m in enumerate(order)
    ]
    return order, pins, classes, later, joins


def _search_tree(td: _TreeData, marks, leaf, points=None, ray=None):
    """Assign the marks to one tree's hosts, calling leaf(td, where,
    cluster) on every assignment that passes the pair test, or, with
    points and ray, on those that may hold a curve.

    marks is _mark_classes' reading of the row spec: a mark with both
    coordinates in it is pinned to its point, a mark with one sees only the
    line through its point that fixes that coordinate.  In the coordinates
    two marks both pin, their displacement must lie in the cone of the path
    directions between their hosts, or ride the host's direction when they
    share one; td.hosts holds the hosts that pass, per placed mark's host
    and class.  Point marks are placed first, then line marks, each in mark
    order and on its hosts in handle order.  A line mark m may also share
    one vertex, hanging off a host by a contracted edge, with a placed line
    mark m2 on the other axis: the cluster (m2, m).  The order of the marks
    on a host is left to the leaf.

    The search checks forward: each mark keeps a domain, the hosts that
    pass the pair test with every mark placed so far, and placing a mark
    ANDs its pair masks into the domain of every later mark.  A node whose
    placement empties a later mark's domain is cut, unless that mark may
    still join a cluster, which takes no host of its own.  The order stays
    static, so the leaves come in the same order as without the domains.
    With ray given (the combined map, whose marks 0-3 are the quartet and
    whose last mark is mark 1), mark 1's domain and its cluster with mark
    0 are also ANDed with td.quartet_mask: the assignments that leave no
    order of marks 0-3 on the ray never reach a leaf.  With points given,
    points(td, where) is called once per assignment of the point marks,
    as the last of them is placed: a false return, for point rows that are
    inconsistent, cuts every assignment of the line marks below.  _fiber's
    points looks the assignment's solve up in the point stage and solves
    it only on a miss.
    """
    order, pins, _, later, joins = marks
    n = len(order)
    npoints = sum(len(pins[m]) == 2 for m in order)
    hosts = td.handles
    nh = len(hosts)
    masks = td.hosts
    ncls = len(td.classes.reps)
    # a second contracted edge in the tree would leave two columns on the
    # one ft4 row, and determinant zero
    partners = [()] * n if td.contracted else joins
    where: Dict[int, int] = {}

    def rec(k, domains, cluster):
        if k == npoints and points is not None and not points(td, where):
            return  # the point rows are inconsistent
        if k == n:
            leaf(td, where, cluster)
            return
        m = order[k]
        clusters = partners[k]
        # bit j < nh puts m on hosts[j], bit nh + i joins it to clusters[i]
        mask = domains[k] | ((1 << len(clusters)) - 1) << nh
        if ray is not None and k == n - 1:
            mask = td.quartet_mask(ray, where[0], where[2], where[3], mask)
        ahead = later[k]
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            joined = cluster
            if j >= nh:
                m2 = clusters[j - nh]
                j, joined = hosts.index(where[m2]), (m2, m)
            below = domains
            if ahead:
                below = domains[:]
                base = j * ncls
                for k2, c in ahead:
                    below[k2] &= masks[base + c]
                    if not below[k2] and not partners[k2]:
                        below = None  # cut: order[k2] has no host left
                        break
                if below is None:
                    continue
            where[m] = hosts[j]
            rec(k + 1, below, joined)
        where.pop(m, None)

    rec(0, [(1 << nh) - 1] * n, None)


def _integer_points(points, *denominators):
    """(scale, the points times scale as integer pairs), scale the lcm of
    all their denominators and the extra ones; coincident points raise."""
    if len(set(points)) != len(points):
        raise GeneralPositionViolation("two input points coincide")
    scale = math.lcm(*(c.denominator for p in points for c in p), *denominators)
    return scale, [(int(x * scale), int(y * scale)) for x, y in points]


# ---------------------------------------------------------------------------
# the shared leaf


def _read_back(v, q, back, width):
    """v, widened to width, with each read-back mark's offset filled in:
    for (column, row, factor, value) in back, factor·t = value·q − row·v.
    q is the denominator of v, or 0 for a kernel vector."""
    full = v + [0] * (width - len(v))
    for col, row, factor, value in back:
        t, r = divmod(value * q - sum(map(mul, row, v)), factor)
        if r:
            raise AssertionError(f"offset {col} read back as {t} + {r}/{factor}, not an integer")
        full[col] = t
    return full


def _point_family(td: _TreeData, where, pins, ipts):
    """The point marks' rows solved, or None when they are inconsistent.

    Returns (y, q, kernel, det, rows): every solution is (y + Σ τ_i k_i) / q
    for the k_i in kernel, over the full chart's columns, with each point
    mark's offset read back and the line marks' left 0; det is the rows'
    determinant when they are square and independent, and rows their
    count.  With independent rows Cramer's rule on the full chart, where a
    point mark's factor cancels, makes every offset an integer over q, and
    a single kernel vector is ± the rows' maximal minors (linalg.solve);
    dependent rows are scaled by their factors first."""
    cols, host_rows, base = td.chart
    dirs = td.t.dirs
    off = 2 + len(cols)
    rows, rhs, back = [], [], []
    for m, cs in enumerate(pins):
        if len(cs) == 2:
            h = where[m]
            v, pt = dirs[h], ipts[m]
            rows.append(base[h])
            rhs.append(v[1] * pt[0] - v[0] * pt[1])
            c = 0 if v[0] else 1
            back.append((off + m, host_rows[h][c], v[c], pt[c]))
    res = solve(rows, rhs)
    if res.status == "inconsistent":
        return None
    y, q, kernel = list(res.numerators), res.denominator, [list(k) for k in res.kernel]
    if len(kernel) != off - len(rows):
        s = math.lcm(*(f for _, _, f, _ in back))
        y, q, kernel = [v * s for v in y], q * s, [[v * s for v in k] for k in kernel]
    width = off + len(pins)
    return (
        _read_back(y, q, back, width),
        q,
        [_read_back(k, 0, back, width) for k in kernel],
        res.det,
        len(rows),
    )


def _ordered_sign(x, hosted) -> int:
    """The sign of the cell x's smallest length: -1 when one is negative,
    else 0 when one is zero, else 1.  hosted holds (h, col, offsets) per
    edge h: col its length column, None for an end, and offsets the offset
    columns of the marks on it, which it sorts by their values in x, in
    place.  The edge's lengths are the gaps from 0 through them to x[col]."""
    sign = 1
    for _, col, offsets in hosted:
        if len(offsets) > 1:
            offsets.sort(key=x.__getitem__)
        low = 0
        for o in offsets:
            if x[o] <= low:
                if x[o] < low:
                    return -1
                sign = 0
            low = x[o]
        if col is not None and x[col] <= low:
            if x[col] < low:
                return -1
            sign = 0
    return sign


def _leaf(td: _TreeData, where, cluster, d: int, pins, ray, ipts, target, scale, found,
          family=None):
    """One assignment of the marks to hosts: a small exact step off the
    solve of its point marks' rows, and the marked type built only for a
    solution.

    family is _point_family's solve of the point rows, which the search
    shares among every leaf under one assignment of the point marks, and
    the point stage with later fibers, so the leaf builds new lists and
    never changes it; with none the leaf solves them itself.  In a chart
    of base columns (root x, root y, the bounded edge lengths) and one
    offset column per mark along its host, a mark's offset column meets
    only its own rows, so it is eliminated: a point mark keeps td.chart's
    point-independent base row of its host, and its offset is read back
    off one of its rows.  The
    leaf then adds only its own equations on the family: a line mark's row
    when its host does not move its coordinate, and the point row of a
    cluster (m2, m); their unknowns are one τ per kernel vector, at most
    one for points in general position.  Every other line-mark offset is
    read back by an exact division, leaving a factor dirs[h][c] on the full
    chart's minors.  A kept line mark's offset, and the cluster's
    contracted edge length, held in m's offset column, are free columns:
    unit kernel vectors, scaled by the step's determinant, which is ± the
    determinant of the point and leaf rows since the point kernel vector
    is their maximal minors.  The rows read only the hosts, so a solution
    sorts each host's marks by offset, and that one order gives the signs
    of the lengths (_ordered_sign), the placements and the pieces.
    For the combined map each order of marks 0-3 that pairs them as ray
    adds its ft4 row f (td.quartets): with the other rows' solution x0 and
    kernel vector k, the determinant is f·k and the solution x0 + t·k, and
    its order of marks 0-3 is tested before the solution is built.  ipts
    are the points and target the ft4 target, each times the integer
    scale.  Every test runs on integer numerators over a positive common
    denominator; a solution kept is checked against every row of the full
    chart, and only then are fractions built.

    Returns whether the leaf reached the loop over the orders of marks 0-3,
    its first work that reads the target; a leaf that stops before it
    returns False and never raises.
    """
    completions = [((), None, None)]
    if ray is not None:
        quartet = td.quartets((where[0], where[1], where[2], where[3]), cluster)
        completions = [entry[1:] for entry in quartet if entry[0] == ray]
        if not completions:
            return False
    if family is None:
        family = _point_family(td, where, pins, ipts)
        if family is None:
            return False
    y, q, kernel, square, npoint = family
    cols, host_rows, base = td.chart
    dirs = td.t.dirs
    n = len(where)
    off = 2 + len(cols)
    rows, rhs, free, back = [], [], [], []
    p = 1  # the read-back line marks' factors
    for m, cs in enumerate(pins):
        if len(cs) == 2:
            continue
        h = where[m]
        v, pt = dirs[h], ipts[m]
        if cluster and m in cluster:
            if m == cluster[1]:
                free.append(off + m)
                continue
            # the cluster pins each coordinate through the mark that pins it
            pt = [ipts[cluster[c not in cs]][c] for c in (0, 1)]
            rows.append(base[h])
            rhs.append(v[1] * pt[0] - v[0] * pt[1])
            c = 0 if v[0] else 1
            back.append((off + m, host_rows[h][c], v[c], pt[c]))
            continue
        (c,) = cs
        if v[c]:
            p *= v[c]
            back.append((off + m, host_rows[h][c], v[c], pt[c]))
        else:
            rows.append(host_rows[h][c])
            rhs.append(pt[c])
            free.append(off + m)
    if npoint + len(rows) + (ray is not None) != off + len(free):
        raise AssertionError(f"{off + len(free)} columns for {npoint + len(rows) + (ray is not None)} rows")
    if rows:
        # the leaf's rows on the family (y + Σ τ_i k_i) / q
        step = solve(
            [[sum(map(mul, row, k)) for k in kernel] for row in rows],
            [b * q - sum(map(mul, row, y)) for row, b in zip(rows, rhs)],
        )
        if step.status == "inconsistent":
            return False
        y = [v * step.denominator for v in y]
        for u, k in zip(step.numerators, kernel):
            if u:
                y = [v + u * w for v, w in zip(y, k)]
        kernel = [[sum(map(mul, w, col)) for col in zip(*kernel)] for w in step.kernel]
        q *= step.denominator
        square = step.det
    if len(kernel) + len(free) == (ray is not None):
        # a solution may be kept: the full chart's minors are p times these
        s = abs(p)
    else:
        # no solution is kept, so any s that every factor divides will do
        s = math.lcm(*(factor for _, _, factor, _ in back))
    if s != 1:
        y = [v * s for v in y]
        kernel = [[v * s for v in k] for k in kernel]
        q *= s
    width = off + n
    x0, q0 = _read_back(y, q, back, width), q
    kernel = [_read_back(k, 0, back, width) for k in kernel]
    for col in free:
        kernel.append([0] * width)
        kernel[-1][col] = 1 if square is None else square * p
    det0 = square * p if square is not None and not free else None
    hosted = None
    for before, add, sub in completions:
        # the solution is x / q, q > 0
        x, q, det = x0, q0, det0
        if add is not None:
            fx, *fk = [sum([v[c] for c in add]) - sum([v[c] for c in sub]) for v in (x, *kernel)]
            if len(fk) == 1 and fk[0]:
                # x / q + (target - fx / q) / det * k, over q * |det|
                det = fk[0]
                r = abs(det)
                t = (target * q - fx) * (1 if det > 0 else -1)
                k = kernel[0]
                if any(
                    (x[off + a] - x[off + b]) * r + (k[off + a] - k[off + b]) * t > 0
                    for a, b in before
                ):
                    continue  # the solution orders marks 0-3 otherwise
                x = [v * r + t * w for v, w in zip(x, k)]
                q *= r
            elif not any(fk) and fx != target * q:
                continue  # this order's system is inconsistent
        # an order reaches here untested only with det None, as the point
        # rows of the combined map are never square
        if det is None:
            raise GeneralPositionViolation(
                "rank-deficient consistent system: input in special position"
            )
        if hosted is None:
            # the marks on each bounded edge and marked end, a cluster at its
            # first mark, and the cluster's contracted edge under None
            at = [cluster[0] if cluster and m == cluster[1] else m for m in range(n)]
            on: Dict[int, list] = {e: [] for e in cols}
            for m in set(at):
                on.setdefault(where[m], []).append(off + m)
            hosted = [(h, cols.get(h), offsets) for h, offsets in on.items()]
            if cluster:
                hosted.append((None, off + cluster[1], []))
        sign = _ordered_sign(x, hosted)
        if sign < 0:
            continue
        if not sign:
            raise GeneralPositionViolation("solution on a cell boundary (zero edge length)")
        # the solution must meet every row of the full chart
        for m, cs in enumerate(pins):
            h = where[m]
            for c in cs:
                if sum(map(mul, host_rows[h][c], x)) + dirs[h][c] * x[off + at[m]] != ipts[m][c] * q:
                    raise AssertionError(f"the leaf's solution misses coordinate {c} of mark {m}")
        if add is not None and sum(x[c] for c in add) - sum(x[c] for c in sub) != target * q:
            raise AssertionError("the leaf's solution misses the ft4 target")
        placements = {
            h: [("cluster", cluster) if cluster and o == off + cluster[0] else ("mark", o - off) for o in offsets]
            for h, _, offsets in hosted if offsets
        }
        mt, piece_ids = _subdivide(td.t, placements, n)
        key = canonical_plane_form(mt)
        if key in found:
            continue
        # the kernel must agree with the cell map of the type it stands for
        if ray is None:
            cell_map = ev_matrix(mt)
        else:
            mt_ray = ft4_coordinate(mt)[0]
            if mt_ray != ray:
                raise AssertionError(f"placement ray {ray} but the type's ray is {mt_ray}")
            cell_map = pi_matrix(mt, d)
        mult = multiplicity(cell_map)
        if mult != abs(det):
            raise AssertionError(f"multiplicity {mult} disagrees with the leaf determinant {det}")
        # an unsplit bounded edge keeps its id; the edge left is the cluster's
        length = {}
        for h, col, offsets in hosted:
            ends = [0, *map(x.__getitem__, offsets), *(() if col is None else (x[col],))]
            length.update(zip(piece_ids.get(h, [h]), [b - a for a, b in zip(ends, ends[1:])]))
        coords = [*x[:2], *(length.get(e, length.get(None)) for e in mt.graph.bounded_edges())]
        sol = FiberSolution(mt, tuple(Fraction(v, q * scale) for v in coords), mult)
        if ray is None:
            # a cell's determinant is the product of its vertex multiplicities
            vertex_mult = curve_multiplicity(sol.curve())
            if vertex_mult != mult:
                raise AssertionError(f"multiplicity {mult} disagrees with vertex product {vertex_mult}")
        found[key] = sol
    return True


@lru_cache(maxsize=1)
def _point_stage(d: int, which, ipts):
    """The point stage of one point set: (marks, families, reached).  marks
    is _mark_classes' reading of the row spec which on the integer points
    ipts, and families maps (td, the point marks' hosts in mark order) to
    _point_family's solve of their rows, None when they are inconsistent;
    the fibers fill it as their searches ask.  reached maps (ray, trees),
    for each search over the tree list trees that ended, to the leaves
    that reached the ft4 row, as (td, hosts in mark order, cluster) in
    search order.  Those are all the inputs any of them reads, so no
    target or scale makes an entry stale, and every fiber on the same
    points and row spec shares them.  Only the last point set is kept.  A
    leaf never mutates a family."""
    return _mark_classes(_classes(d), ipts, which), {}, {}


def _fiber(d: int, cfg: PointConfig, which, trees, m4) -> List[FiberSolution]:
    """Search every tree with the shared leaf.  which is the map's row
    spec; m4 is None for the evaluation map and the target of the ft4 row
    for the combined map.  The mark classes and the solve of the point
    marks' rows per assignment of them come from _point_stage, so a fiber
    on the point set and row spec of the fiber before reuses its solves;
    a solve it lacks runs as its assignment's last point mark is placed
    and is kept.  A fiber whose ray and trees the point stage has searched
    before runs no search: it replays the leaves that reached the ft4
    row, in order.  A leaf's work up to that row reads no target, and a
    leaf that stops before it neither keeps a solution nor raises, so the
    replay finds the same solutions, or raises at the same first leaf."""
    extra = () if m4 is None else (m4.length.denominator,)
    scale, ipts = _integer_points(cfg.points, *extra)
    target = None if m4 is None else int(m4.length * scale)
    ray = None if m4 is None else m4.ray
    marks, families, reached = _point_stage(d, tuple(which), tuple(ipts))
    pins = marks[1]
    point_marks = [m for m, cs in enumerate(pins) if len(cs) == 2]
    family = None
    found: dict = {}
    leaves = []

    def points(td, where):
        # every leaf below holds these rows: cut them all when they are
        # inconsistent, and hand the solve, kept or new, to the leaves
        nonlocal family
        key = (td, *[where[m] for m in point_marks])
        try:
            family = families[key]
        except KeyError:
            family = families[key] = _point_family(td, where, pins, ipts)
        return family is not None

    def leaf(td, where, cluster):
        if _leaf(td, where, cluster, d, pins, ray, ipts, target, scale, found, family):
            leaves.append((td, tuple(where[m] for m in range(len(pins))), cluster))

    search = (ray, tuple(trees))
    if search in reached:
        for td, hosts, cluster in reached[search]:
            family = families[(td, *[hosts[m] for m in point_marks])]
            _leaf(td, hosts, cluster, d, pins, ray, ipts, target, scale, found, family)
    else:
        for td in trees:
            _search_tree(td, marks, leaf, points, ray)
        reached[search] = leaves
    return [found[k] for k in sorted(found, key=repr)]


# ---------------------------------------------------------------------------
# public fiber interface


def fiber(map_kind: str, d: int, cfg: PointConfig) -> List[FiberSolution]:
    """All curves mapping to cfg, with multiplicities; raises
    GeneralPositionViolation when the input shows up degenerate."""
    kind = map_kind.lower()
    if kind == EV:
        n = 3 * d - 1
        if len(cfg.points) != n:
            raise ValueError(f"evaluation fiber at degree {d} needs {n} points")
        which = [(m, c) for m in range(n) for c in (0, 1)]
        return _fiber(d, cfg, which, _ev_tree_data(d), None)
    if kind == PI:
        if d < 2:
            raise ValueError("combined-map fiber needs degree at least 2 for a quartet")
        n = 3 * d
        if len(cfg.points) != n:
            raise ValueError(f"combined-map fiber at degree {d} needs {n} points")
        if cfg.m4 is None:
            raise ValueError("combined-map fiber needs an m4 target value")
        if cfg.m4.ray not in {r for r, _, _ in _PAIRINGS}:
            raise ValueError("combined-map fiber needs a target on ray A, B or C")
        return _fiber(d, cfg, pi_which(n), _pi_tree_data(d), cfg.m4)
    raise ValueError(f"unknown map kind: {map_kind!r}")


def sampled_fiber(
    map_kind: str, d: int, seed: int, ray: str = "A", scale: int = 1
):
    """Sample a configuration and compute its fiber, resampling on
    degeneracy up to _ATTEMPT_CAP times.  Returns (cfg, solutions)."""
    ev = map_kind.lower() == EV
    last = None
    for attempt in range(_ATTEMPT_CAP):
        cfg = ev_config(d, seed, attempt) if ev else pi_config(d, seed, ray, scale, attempt)
        try:
            return cfg, fiber(map_kind, d, cfg)
        except GeneralPositionViolation as exc:
            last = exc
    raise GeneralPositionViolation(
        f"no general-position sample in {_ATTEMPT_CAP} attempts: {last}"
    )


def sampled_degree(map_kind: str, d: int, seed: int, ray: str = "A", scale: int = 1):
    cfg, sols = sampled_fiber(map_kind, d, seed, ray, scale)
    return sum(s.mult for s in sols), cfg


@dataclass(frozen=True)
class InvarianceReport:
    d: int
    trials: int
    degree: int
    checks: Tuple[Tuple[str, Fraction, int], ...]  # (ray, length, degree)


def invariance_check(d: int, trials: int, seed: int = 0) -> InvarianceReport:
    """Degrees of the combined map over rays A, B, C at two large lengths
    each, for `trials` random configurations; they must all agree."""
    if d < 2:
        raise ValueError("invariance needs degree at least 2")
    if trials < 1:
        raise ValueError("invariance needs at least one trial")
    checks = []
    for t in range(trials):
        for ray in ("A", "B", "C"):
            for scale in (1, 2):
                deg, cfg = sampled_degree(PI, d, seed + t, ray, scale)
                checks.append((ray, cfg.m4.length, deg))
    degrees = {deg for _, _, deg in checks}
    if len(degrees) != 1:
        raise InvarianceViolation(
            f"fiber degree of the combined map varies across rays/lengths: {checks}"
        )
    return InvarianceReport(d, trials, degrees.pop(), tuple(checks))


# ---------------------------------------------------------------------------
# splitting reducible curves


def decompose_reducible(c: PlaneCurve):
    """Split a curve at its contracted bounded edge into two curves.

    Each side keeps its own marks (original order) and gains one new
    contracted end at the split point, appended as its last mark.  The
    side carrying the lowest original mark index comes first.
    """
    g = c.graph
    contracted = c.contracted_bounded_edges()
    if len(contracted) != 1:
        raise ValueError(
            f"expected exactly one contracted bounded edge, found {len(contracted)}"
        )
    (edge,) = contracted

    sides = []
    for flag in g.edge_flags(edge):
        verts = g.component(g.flag_vertex[flag], cut_edges=(edge,))
        ends = [f for f in g.end_flags() if g.flag_vertex[f] in verts]
        marks = [m for m in c.marks if g.flag_vertex[m] in verts]
        side = restrict(c, ends + [flag], marks + [flag])
        if not side.graph.bounded_edges():
            raise ValueError("each side of the split needs a bounded edge")
        first = c.marks.index(marks[0]) if marks else len(c.marks)
        sides.append((first, side))
    (_, c1), (_, c2) = sorted(sides, key=lambda side: side[0])
    return c1, c2
