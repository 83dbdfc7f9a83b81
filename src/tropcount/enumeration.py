"""Combinatorial types and exact fibers of the evaluation-style maps.

One search and one leaf serve both maps.  Unmarked trivalent image trees
are enumerated once per degree (cached).  A map's row spec lists the
(mark, coordinate) pairs it pins: a mark with both coordinates pinned is a
point, a mark with one a line.  The search assigns each mark a host edge,
pruning each partial assignment by a cone test per pair of marks, in the
coordinates both pin, before any linear algebra runs.  The cone of the
path directions between two hosts is an arc of class directions, and one
walk over the tree per host reads off its arcs to every other host.  A
cone test sees a displacement only through its class (a direction or an
angular gap between two, or a sign for a line pair), so each fiber classes
its mark pairs once, and each tree keeps a point-independent table of the
hosts that pass, per placed mark's host and class; the test is a lookup.
In a chart of edge lengths and mark offsets along their hosts the map's
rows depend on the hosts only, so the leaf eliminates them once per
assignment and reads the order of the marks on each host off the
solution; the combined map's ft4 row, which depends on the order of marks
0-3, completes them by a rank-one step.  A mark's offset meets only its
own rows, so the leaf solves in the base columns alone: a point mark
brings one point-independent row per host, kept on the tree, and its
offset is read back after the solve.  The search places the point marks
first, so the combined map's fiber solves their rows once per assignment
of them: when they are inconsistent it cuts every assignment of the line
marks below, and otherwise a leaf whose rows are just these, with no
cluster and both line marks read back, reuses that solve.  The leaf
decides in integers, checks a solution against every row of the full
chart, and builds fractions and the marked type only for a solution.
Everything is exact; a degenerate input is reported as
GeneralPositionViolation so the caller can resample.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key
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
    M4Point,
    ev_matrix,
    ft4_coordinate,
    multiplicity,
    pi_matrix,
    pi_which,
    restrict,
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


def _rng(seed: int, attempt: int, salt: int) -> random.Random:
    return random.Random((seed * 1_000_003 + attempt) * 65_537 + salt)


def sample_points(n: int, seed: int, attempt: int = 0) -> Tuple[Point, ...]:
    """n random rational points, one distinct prime denominator per coordinate."""
    rng = _rng(seed, attempt, 0)
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


_BASE_TREES: Dict[int, Tuple[PlaneType, ...]] = {}


def base_trees(d: int) -> Tuple[PlaneType, ...]:
    """Unmarked trivalent image trees of projective degree d, one per class.

    The ends are the grower's leaves, classed by direction, so the trees
    come in the order the labeled walk first reaches each class.
    """
    if d not in _BASE_TREES:
        classes = projective_degree(d)
        trees = []
        for g, leaves in trivalent_trees_on_leaves(classes):
            dirs = derive_directions(g, (), dict(zip(leaves, classes)))
            trees.append(PlaneType(AbstractType(g, ()), dirs))
        _BASE_TREES[d] = tuple(trees)
    return _BASE_TREES[d]


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
    """A table that fills a missing key from fill(key) and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


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


_CLASSES: Dict[int, _Classes] = {}


def _classes(d: int) -> _Classes:
    if d not in _CLASSES:
        _CLASSES[d] = _Classes(d)
    return _CLASSES[d]


# ---------------------------------------------------------------------------
# per-tree search structures


@dataclass
class _TreeData:
    t: PlaneType
    classes: _Classes
    contracted: Tuple[int, ...] = ()
    collinear: bool = False
    handles: Tuple[int, ...] = ()
    hosts: Optional[dict] = field(default=None, repr=False)
    _cones: Optional[tuple] = field(default=None, repr=False)
    _chart: Optional[tuple] = field(default=None, repr=False)
    _quartets: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        g = self.t.graph
        dirs = self.t.dirs
        self.contracted = tuple(e for e in g.bounded_edges() if dirs[e] == ZERO)
        self.collinear = self._has_collinear_vertex()
        self.handles = tuple(e for e in g.bounded_edges() if dirs[e] != ZERO) + g.end_flags()
        self.hosts = _Lazy(self._host_mask)

    def _has_collinear_vertex(self) -> bool:
        g = self.t.graph
        dirs = self.t.dirs
        for v in range(g.num_vertices):
            nz = [dirs[f] for f in g.flags_at(v) if dirs[f] != ZERO]
            if len(nz) >= 2 and all(cross(nz[0], w) == 0 for w in nz[1:]):
                return True
        return False

    def cones(self) -> tuple:
        """cones()[i][j] is the bitmask over classes of the displacements
        from a mark on host handles[i] to one on handles[j] that pass the
        pair test.  A walk from each host, out by both ends of its edge,
        widens the arc of the path directions flag by flag and reads it off
        at every later host, the host's own direction last; cones()[j][i]
        is its point reflection.  Building it checks every flag direction
        against the class directions."""
        if self._cones is None:
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
            self._cones = tuple(
                tuple(
                    cl.along[at[hs[i]]] if j == i else cl.between[arc]
                    for j, arc in enumerate(row)
                )
                for i, row in enumerate(arcs)
            )
        return self._cones

    def _host_mask(self, key: int) -> int:
        """Bitmask over handles of the hosts a mark may take, for the key
        i * (class count) + k: another mark sits on handles[i], and the
        displacement from it has class k.  No point enters, so td.hosts
        fills each key on first use and keeps it."""
        i, k = divmod(key, len(self.classes.reps))
        mask = 0
        for j, classes in enumerate(self.cones()[i]):
            mask |= (classes >> k & 1) << j
        return _MASKS.setdefault(mask, mask)

    def chart(self):
        """(cols, paths, rows, base) of the leaf's chart: the base columns
        root x, root y and the length of each bounded edge e at cols[e],
        then each mark's offset from flag_vertex[h] along dirs[h] on its
        host h.  paths[v] lists the bounded edges from vertex 0 to v, and
        rows[h][c] is coordinate c of flag_vertex[h] over the base columns.
        A point on h at offset t is rows[h][c]·x + dirs[h][c]·t in
        coordinate c, so base[h] = dy·rows[h][0] − dx·rows[h][1], for
        dirs[h] = (dx, dy), is the row it pins once t is eliminated."""
        if self._chart is None:
            g = self.t.graph
            dirs = self.t.dirs
            cols = {e: 2 + i for i, e in enumerate(g.bounded_edges())}
            walks = [g.path_flags(0, v) for v in range(g.num_vertices)]
            rows = {}
            base = {}
            for h in self.handles:
                rows[h] = []
                for c in (0, 1):
                    row = [0] * (2 + len(cols))
                    row[c] = 1
                    for f in walks[g.flag_vertex[h]]:
                        row[cols[g.edge_of_flag(f)]] = dirs[f][c]
                    rows[h].append(row)
                dx, dy = dirs[h]
                base[h] = [dy * a - dx * b for a, b in zip(*rows[h])]
            paths = [[g.edge_of_flag(f) for f in walk] for walk in walks]
            self._chart = (cols, paths, rows, base)
        return self._chart

    def quartets(self, hosts, cluster):
        """(ray, before, add, sub) of marks 0-3 on hosts, one per order of
        those sharing a host; no point enters, so it is cached.  before
        lists the pairs (a, b) next to each other on one host, a nearer its
        flag; the ft4 row adds the columns in add and subtracts sub.  The
        pairing i, j | k, l is the ray when path(i, j) and path(k, l) share
        no edge and the central path, path(i, k) ∩ path(j, l), is not
        empty; with none it is D.  Trees share equal tables."""
        key = (*hosts, cluster)
        if key in self._quartets:
            return self._quartets[key]
        cols, paths, _, _ = self.chart()
        off = 2 + len(cols)
        at = [cluster[0] if cluster and m == cluster[1] else m for m in range(4)]
        on: Dict[int, dict] = {}
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
                walk = set().union(*map(pieces, paths[self.t.graph.flag_vertex[h]]))
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
            # consecutive pieces share a column, which cancels
            ups = {up for up, _ in central}
            lows = {low for _, low in central} - {None}
            before = tuple(pair for s in orders for pair in zip(s, s[1:]))
            table.append((ray, before, tuple(ups - lows), tuple(lows - ups)))
        table = tuple(table)
        return self._quartets.setdefault(key, _QUARTET_TABLES.setdefault(table, table))


_TREE_DATA: Dict[int, List[_TreeData]] = {}
_QUARTET_TABLES: Dict[tuple, tuple] = {}
_MASKS: Dict[int, int] = {}


def _tree_data(d: int) -> List[_TreeData]:
    """One _TreeData per degree-d base tree, shared by both fiber engines."""
    if d not in _TREE_DATA:
        _TREE_DATA[d] = [_TreeData(t, _classes(d)) for t in base_trees(d)]
    return _TREE_DATA[d]


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
    """(order, pins, classes) of a row spec: pins[m] lists the coordinates
    mark m pins, order places the point marks first, then the line marks,
    each in mark order, and classes[m][m2] is the class of the displacement
    from mark m2 to mark m in the coordinates both pin, or None when they
    share none.  Each unordered pair is classed once: the other order's
    class is its reverse."""
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
    return order, pins, classes


def _search_tree(td: _TreeData, marks, leaf, points=None):
    """Assign the marks to one tree's hosts, calling leaf(td, where,
    cluster) on every assignment that passes the pair test.

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
    on a host is left to the leaf.  Once the point marks are placed and
    line marks remain, points(td, where) is called, when given: every leaf
    below holds the point marks' rows, so a false return, for rows that
    are inconsistent, cuts every assignment of the line marks.  Without
    points the search visits every assignment that passes the pair test.
    """
    order, pins, classes = marks
    npoints = sum(len(pins[m]) == 2 for m in order)
    hosts = td.handles
    masks = td.hosts
    ncls = len(td.classes.reps)
    everywhere = (1 << len(hosts)) - 1
    where: Dict[int, int] = {}
    placed: List[Tuple[int, int]] = []  # (mark, its host's key offset)

    def rec(k, cluster):
        if k == len(order):
            leaf(td, where, cluster)
            return
        if k == npoints and points is not None and not points(td, where):
            return
        m = order[k]
        row = classes[m]
        mask = everywhere
        for m2, base in placed:
            c = row[m2]
            if c is not None:
                mask &= masks[base + c]
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            where[m] = hosts[j]
            placed.append((m, j * ncls))
            rec(k + 1, cluster)
            placed.pop()
            del where[m]
        # a second contracted edge in the tree would leave two columns on
        # the one ft4 row, and determinant zero
        if len(pins[m]) == 1 and not td.contracted:
            for m2, base in list(placed):
                if len(pins[m2]) != 1 or pins[m2] == pins[m]:
                    continue
                where[m] = where[m2]
                placed.append((m, base))
                rec(k + 1, (m2, m))
                placed.pop()
                del where[m]

    rec(0, None)


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
    """v over the base columns, with each read-back mark's offset filled
    in: for (column, row, factor, value) in back, factor·t = value·q − row·v.
    q is the denominator of v, or 0 for a kernel vector."""
    full = v + [0] * (width - len(v))
    for col, row, factor, value in back:
        t, r = divmod(value * q - sum(map(mul, row, v)), factor)
        if r:
            raise AssertionError(f"offset {col} read back as {t} + {r}/{factor}, not an integer")
        full[col] = t
    return full


def _leaf(td: _TreeData, where, cluster, d: int, pins, ray, ipts, target, scale, found,
          point_solve=None):
    """One assignment of the marks to hosts: eliminate its rows once, in
    the base columns, and build the marked type only for a solution.

    A mark's offset column meets only its own rows, so it is eliminated
    before the solve: a point mark, or a cluster (m2, m), which pins a
    point, keeps td.chart()'s point-independent base row of its host, a
    line mark keeps its row only when its host does not move its
    coordinate.  Every other offset is read back off one of the mark's rows
    by an exact division; a line mark's leaves a factor dirs[h][c] on the
    full chart's minors, a point mark's cancels.  A line mark's offset on a
    host that keeps its coordinate, and the cluster's contracted edge
    length, held in m's offset column, are free columns: unit kernel
    vectors.  The rows read only the hosts, so the solution orders the
    marks on each host, and the lengths are offset differences.  For the
    combined map each order of marks 0-3 that pairs them as ray adds its
    ft4 row f (td.quartets): with the other rows' solution x0 and kernel
    vector k, the determinant is f·k and the solution x0 + t·k.  ipts are
    the points and target the ft4 target, each times the integer scale.
    Every test runs on the solution's integer numerators over their
    positive common denominator; a solution kept is checked against every
    row of the full chart, and only then are fractions built.
    point_solve, when given, is the solve of this assignment's point-mark
    rows, which the search ran once for all the leaves under it.  A
    cluster or a kept line-mark row always comes with a free column, so a
    leaf with none has just the point rows, in mark order, and reuses the
    solve instead of running its own.
    """
    completions = [((), None, None)]
    if ray is not None:
        quartet = td.quartets((where[0], where[1], where[2], where[3]), cluster)
        completions = [entry[1:] for entry in quartet if entry[0] == ray]
        if not completions:
            return
    cols, _, host_rows, base = td.chart()
    dirs = td.t.dirs
    n = len(where)
    off = 2 + len(cols)
    rows, rhs, free, back = [], [], [], []
    p = 1  # the read-back line marks' factors
    for m in range(n):
        h = where[m]
        v = dirs[h]
        pt, cs = ipts[m], pins[m]
        if cluster and m in cluster:
            if m == cluster[1]:
                free.append(off + m)
                continue
            # the cluster pins each coordinate through the mark that pins it
            pt = [ipts[cluster[c not in cs]][c] for c in (0, 1)]
            cs = (0, 1)
        if len(cs) == 2:
            rows.append(base[h])
            rhs.append(v[1] * pt[0] - v[0] * pt[1])
            c = 0 if v[0] else 1
            back.append((off + m, host_rows[h][c], v[c], pt[c]))
        else:
            (c,) = cs
            if v[c]:
                p *= v[c]
                back.append((off + m, host_rows[h][c], v[c], pt[c]))
            else:
                rows.append(host_rows[h][c])
                rhs.append(pt[c])
                free.append(off + m)
    if len(rows) + (ray is not None) != off + len(free):
        raise AssertionError(f"{off + len(free)} columns for {len(rows) + (ray is not None)} rows")
    res = point_solve if point_solve is not None and not free else solve(rows, rhs)
    if res.status == "inconsistent":
        return
    if len(res.kernel) + len(free) == (ray is not None):
        # a solution may be kept: the full chart's minors are p times these
        s = abs(p)
    else:
        # no solution is kept, so any s that every factor divides will do
        s = math.lcm(*(factor for _, _, factor, _ in back))
    q0 = res.denominator * s
    x0 = _read_back([v * s for v in res.numerators], q0, back, off + n)
    kernel = [_read_back([v * s for v in k], 0, back, off + n) for k in res.kernel]
    for col in free:
        kernel.append([0] * (off + n))
        kernel[-1][col] = 1 if res.det is None else res.det * p
    det0 = res.det * p if res.det is not None and not free else None
    at = [cluster[0] if cluster and m == cluster[1] else m for m in range(n)]
    for before, add, sub in completions:
        # the solution is x / q, q > 0
        x, q, det = x0, q0, det0
        if add is not None:
            fx, *fk = [sum(v[c] for c in add) - sum(v[c] for c in sub) for v in (x, *kernel)]
            if len(fk) == 1 and fk[0]:
                # x / q + (target - fx / q) / det * k, over q * |det|
                det = fk[0]
                t = (target * q - fx) * (1 if det > 0 else -1)
                x = [v * abs(det) + t * w for v, w in zip(x, kernel[0])]
                q *= abs(det)
            elif not any(fk) and fx != target * q:
                continue  # this order's system is inconsistent
        if det is None:
            raise GeneralPositionViolation(
                "rank-deficient consistent system: input in special position"
            )
        if any(x[off + a] > x[off + b] for a, b in before):
            continue  # the solution orders marks 0-3 otherwise
        items: Dict[int, list] = {}
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
        # the solution must meet every row of the full chart
        for m, cs in enumerate(pins):
            h = where[m]
            for c in cs:
                if sum(map(mul, host_rows[h][c], x)) + dirs[h][c] * x[off + at[m]] != ipts[m][c] * q:
                    raise AssertionError(f"the leaf's solution misses coordinate {c} of mark {m}")
        if add is not None and sum(x[c] for c in add) - sum(x[c] for c in sub) != target * q:
            raise AssertionError("the leaf's solution misses the ft4 target")
        placements = {h: [item for _, item in its] for h, its in items.items()}
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
        for h, ps in pieces.items():
            length.update(zip(piece_ids.get(h, [h]), ps))
        coords = [*x[:2], *(length.get(e, *contracted) for e in mt.graph.bounded_edges())]
        sol = FiberSolution(mt, tuple(Fraction(v, q * scale) for v in coords), mult)
        if ray is None:
            # a cell's determinant is the product of its vertex multiplicities
            vertex_mult = curve_multiplicity(sol.curve())
            if vertex_mult != mult:
                raise AssertionError(
                    f"multiplicity {mult} disagrees with vertex product {vertex_mult}"
                )
        found[key] = sol


def _fiber(d: int, cfg: PointConfig, which, trees, m4) -> List[FiberSolution]:
    """Search every tree with the shared leaf.  which is the map's row
    spec; m4 is None for the evaluation map and the target of the ft4 row
    for the combined map.  The mark pairs are classed once per point set.
    The combined map's point-mark rows are solved once per assignment of
    the point marks, before its line marks are placed; point_solve holds
    that solve only until the next assignment replaces it."""
    extra = () if m4 is None else (m4.length.denominator,)
    scale, ipts = _integer_points(cfg.points, *extra)
    target = None if m4 is None else int(m4.length * scale)
    ray = None if m4 is None else m4.ray
    marks = _mark_classes(_classes(d), ipts, which)
    pins = marks[1]
    point_marks = [m for m in range(len(pins)) if len(pins[m]) == 2]
    point_solve = None
    found: dict = {}

    def points(td, where):
        # every leaf below holds these rows: cut them all when they are
        # inconsistent, and keep the solve for this assignment's leaves
        nonlocal point_solve
        base, dirs = td.chart()[3], td.t.dirs
        rows, rhs = [], []
        for m in point_marks:
            h = where[m]
            rows.append(base[h])
            rhs.append(dirs[h][1] * ipts[m][0] - dirs[h][0] * ipts[m][1])
        point_solve = solve(rows, rhs)
        return point_solve.status != "inconsistent"

    def leaf(td, where, cluster):
        _leaf(td, where, cluster, d, pins, ray, ipts, target, scale, found, point_solve)

    for td in trees:
        _search_tree(td, marks, leaf, points)
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
    kind = map_kind.lower()
    last = None
    for attempt in range(_ATTEMPT_CAP):
        cfg = (
            ev_config(d, seed, attempt)
            if kind == EV
            else pi_config(d, seed, ray, scale, attempt)
        )
        try:
            return cfg, fiber(kind, d, cfg)
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
    contracted = [
        e for e in g.bounded_edges() if c.dirs[e] == ZERO
    ]
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
