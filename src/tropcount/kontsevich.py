"""Degree recursion, quartet-trade bookkeeping, and stable intersections.

The count of rational degree-d curves through 3d-1 general points obeys a
quadratic recursion; here it is checked against actual fibers.  Walking the
four-mark forgetful coordinate out two different rays trades one reducible
census for another, and `reducible_census` verifies a fiber realizes its
side of that trade entry by entry, multiplicity factorizations included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Dict, List, Optional, Tuple

from .enumeration import (
    PI,
    FiberSolution,
    PointConfig,
    curve_multiplicity,
    decompose_reducible,
    fiber,
)
from .graph import MarkedAbstractCurve
from .moduli_maps import _PAIRINGS, forget_points
from .plane import PlaneCurve, ZERO, cross, image_position, image_segments


class NonTransverse(RuntimeError):
    """The two curves meet in a way with no well-defined local crossing."""


class StructuralViolation(RuntimeError):
    """A fiber solution contradicts the reducible-census bookkeeping."""


def _trade_term(ray: str, d: int, d1: int) -> Tuple[int, int]:
    """(coefficient, binomial) of the split d = d1 + d2 on one side of the
    trade.  Ray A puts both line-constrained marks on the first curve, ray
    B or C one on each.

    The coefficient is d1 d2 for the glue point times the degree of the
    curve each line constraint sits on; the binomial counts the ways to put
    3 d1 - 1 (ray A) or 3 d1 - 2 of the 3d - 4 point marks beyond the
    quartet on the first curve.
    """
    d2 = d - d1
    if ray == "A":
        return d1**3 * d2, comb(3 * d - 4, 3 * d1 - 1)
    return d1 * d1 * d2 * d2, comb(3 * d - 4, 3 * d1 - 2)


def _split_terms(d: int, nd: Dict[int, int]):
    """(A term, B term, N_d1·N_d2) per split d = d1 + d2, in order of d1."""
    for d1 in range(1, d):
        coeff_a, choose_a = _trade_term("A", d, d1)
        coeff_b, choose_b = _trade_term("B", d, d1)
        yield coeff_a * choose_a, coeff_b * choose_b, nd[d1] * nd[d - d1]


def _recursion_terms(d_max: int):
    """(d, N_d) for d = 1..d_max in order, each from those before it."""
    nd = {}
    for d in range(1, d_max + 1):
        nd[d] = 1 if d == 1 else sum((b - a) * nn for a, b, nn in _split_terms(d, nd))
        yield d, nd[d]


def recursion_nd(d_max: int) -> Dict[int, int]:
    """{d: N_d} in order of d = 1..d_max: N_d rational degree-d curves
    pass through 3d-1 general points, counted by the quadratic recursion."""
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    return dict(_recursion_terms(d_max))


def wdvv_sides(d: int, nd: Dict[int, int]) -> Tuple[int, int]:
    """The two reducible-census totals whose equality is the recursion.

    Side A counts the fiber over a far point on ray A (irreducible term
    included), side B the fiber over ray B.  Both equal the common fiber
    degree of the combined map.
    """
    if d < 2:
        raise ValueError("the trade needs degree at least 2")
    lhs_a, rhs_b = nd[d], 0
    for a, b, nn in _split_terms(d, nd):
        lhs_a += a * nn
        rhs_b += b * nn
    return lhs_a, rhs_b


# ---------------------------------------------------------------------------
# stable intersection of two plane curves


def _collinear_overlap(run1, run2) -> None:
    """Raise if two collinear runs (u0, u1, X, Y, L, breaks, pieces) share
    more than nothing.

    Both are compared in one coordinate that the first's direction moves
    in, each as its span (low, high) there on the common scale, None
    standing for unbounded that way."""
    i = 0 if run1[0] else 1
    lows, highs = [], []
    for *u, x, y, n, _, _ in (run1, run2):
        start = (x, y)[i]
        end = None if n is None else start + n * u[i]
        low, high = (start, end) if u[i] > 0 else (end, start)
        if low is not None:
            lows.append(low)
        if high is not None:
            highs.append(high)
    # two spans unbounded the same way share a ray
    if not lows or not highs or max(lows) < min(highs):
        raise NonTransverse("curves share a segment")
    if max(lows) == min(highs):
        raise NonTransverse("collinear pieces touch at a point")


def _on_scale(c: PlaneCurve, k: int) -> list:
    """Each segment i of c as a run with no breaks, (u0, u1, X, Y, L, (),
    (i,)): its direction, and its start (X, Y) and length L (None if
    unbounded) as c's cached integers rescaled k times."""
    return [
        (*u, k * x, k * y, None if n is None else k * n, (), (i,))
        for i, ((_, u, _), (x, y, n)) in enumerate(zip(image_segments(c), c.image.scaled))
    ]


def _runs_on_scale(c: PlaneCurve, k: int):
    """The runs of c, each (u0, u1, X, Y, L, breaks, pieces), with start
    and length rescaled k times; its breaks are left on c's own scale.  At
    k = 1 these are c's cached runs themselves."""
    if k == 1:
        return c.image.runs
    return [
        (u0, u1, k * x, k * y, None if n is None else k * n, breaks, pieces)
        for u0, u1, x, y, n, breaks, pieces in c.image.runs
    ]


def _scan(runs1, runs2, k1, k2, hits, pending) -> None:
    """The integer crossing test over every pair of runs, the first from
    runs1 and rescaled k1 times to the common scale, the second from runs2
    and rescaled k2 times.  A crossing strictly inside both runs and off
    their breaks adds its |det| to hits; a pair that is collinear, or meets
    anywhere else, appends (pieces1, pieces2, collinear) to pending."""
    for u0, u1, px, py, lu, breaks1, pieces1 in runs1:
        for w0, w1, qx, qy, lw, breaks2, pieces2 in runs2:
            den = u0 * w1 - u1 * w0
            dx = qx - px
            dy = qy - py
            if den == 0:
                if dx * u1 == dy * u0:
                    pending.append((pieces1, pieces2, True))
                continue
            # the runs cross at tn / (a * big) along the first and at
            # sn / (a * big) along the second, a = |den|; most pairs leave
            # on a negative tn or sn, so sn waits for tn's test
            a = den
            tn = dx * w1 - dy * w0
            if den < 0:
                a, tn = -den, -tn
            if tn < 0:
                continue
            sn = dx * u1 - dy * u0
            if den < 0:
                sn = -sn
            if sn < 0:
                continue
            if lu is not None and tn > lu * a:
                continue
            if lw is not None and sn > lw * a:
                continue
            # a break b, on its curve's own scale, sits at b * k * a
            ka1 = k1 * a
            ka2 = k2 * a
            if (
                tn == 0
                or sn == 0
                or (lu is not None and tn == lu * a)
                or (lw is not None and sn == lw * a)
                or (tn % ka1 == 0 and tn // ka1 in breaks1)
                or (sn % ka2 == 0 and sn // ka2 in breaks2)
            ):
                pending.append((pieces1, pieces2, False))
                continue
            # the hit is (x, y) / (a * big), keyed by (x, y, a) in lowest
            # terms so that the hits of several run pairs at one point add up
            x = px * a + tn * u0
            y = py * a + tn * u1
            g = gcd(x, y, a)
            key = (x // g, y // g, a // g)
            hits[key] = hits.get(key, 0) + a


def tropical_intersection(c1: PlaneCurve, c2: PlaneCurve):
    """Transverse crossings of two curves as [(point, multiplicity)].

    Each crossing contributes |det| of the two edge directions, and the
    crossings at one point add up.  Any shared segment, endpoint contact,
    or crossing at a vertex of either curve raises NonTransverse.

    `_scan` runs over pairs of straight runs (`CurveImage.runs`), in
    integers over one common denominator.  Every pair of runs it leaves
    pending has its segment pairs rescanned, each segment a run with no
    breaks, in the order a scan over all segment pairs would reach them, so
    the first NonTransverse raised is the one that scan would raise.
    """
    # one common denominator, big, scales both curves' starts and lengths
    big = lcm(c1.image.denominator, c2.image.denominator)
    k1 = big // c1.image.denominator
    k2 = big // c2.image.denominator
    hits: Dict[tuple, int] = {}
    pending: list = []  # run pairs that meet at a vertex or are collinear
    _scan(_runs_on_scale(c1, k1), _runs_on_scale(c2, k2), k1, k2, hits, pending)
    if pending:
        # Two collinear runs hold no crossing; two others meet at one point,
        # here a vertex of one curve, so their segment pairs can only raise.
        segs1 = _on_scale(c1, k1)
        segs2 = _on_scale(c2, k2)
        pairs = sorted((i, j) for pieces1, pieces2, _ in pending for i in pieces1 for j in pieces2)
        for i, j in pairs:
            contact: list = []
            _scan([segs1[i]], [segs2[j]], k1, k2, {}, contact)
            for _, _, collinear in contact:
                if not collinear:
                    raise NonTransverse("crossing at a vertex of one of the curves")
                _collinear_overlap(segs1[i], segs2[j])
    # order the points in integers over one denominator, then build the
    # fractions of each once
    den = lcm(*(a for _, _, a in hits))
    order = sorted(hits, key=lambda h: (h[0] * (den // h[2]), h[1] * (den // h[2])))
    return [
        ((Fraction(x, a * big), Fraction(y, a * big)), hits[x, y, a]) for x, y, a in order
    ]


# ---------------------------------------------------------------------------
# reducible census of a far-out fiber


_RAY_PARTNER = {ray: j for ray, (_, j), _ in _PAIRINGS}  # mark sharing a side with mark 0


@dataclass(frozen=True)
class CensusEntry:
    case: str  # "a" or "b"
    mult: int
    solution: FiberSolution
    d1: int = 0
    d2: int = 0
    marks_on_first: Tuple[int, ...] = ()
    glue_point: Optional[Tuple[Fraction, Fraction]] = None
    factors: Tuple[int, ...] = ()  # (ev1, ev2, line1, line2, glue_det)


@dataclass(frozen=True)
class Census:
    d: int
    ray: str
    entries: Tuple[CensusEntry, ...]
    case_a_total: int
    b_totals: Tuple[Tuple[Tuple[int, int], int], ...]


def _nonzero_dir_at(c: PlaneCurve, v: int):
    for f in c.graph.flags_at(v):
        if c.dirs[f] != ZERO:
            return c.dirs[f]
    raise StructuralViolation("expected a non-contracted edge at the vertex")


def _line_factor(c: PlaneCurve, mark_pos: int, axis: int) -> int:
    return abs(_nonzero_dir_at(c, c.mark_vertex(mark_pos))[axis])


def _case_a_expected(c: PlaneCurve) -> int:
    # drop the first mark: its twin stays behind, pinned to the double point
    reordered = PlaneCurve(
        MarkedAbstractCurve(c.graph, c.marks[1:] + (c.marks[0],)),
        c.dirs,
        c.root,
        c.root_pos,
    )
    flattened = forget_points(reordered, len(c.marks) - 1)
    return curve_multiplicity(flattened)


def _census_case_b(s: FiberSolution, c: PlaneCurve, edge: int, ray: str, d: int):
    """The case-(b) entry of s, whose curve c the contracted bounded edge
    splits in two, the first side being the one with mark 0; raises
    StructuralViolation where the split breaks the books of the ray."""
    g = c.graph
    first = g.component(c.mark_vertex(0), cut_edges=(edge,))
    on_first = tuple(i for i, m in enumerate(c.marks) if g.flag_vertex[m] in first)
    quartet_first = {0, _RAY_PARTNER[ray]}
    got_first = set(on_first) & {0, 1, 2, 3}
    if got_first != quartet_first:
        raise StructuralViolation(
            f"ray {ray} needs marks {sorted(quartet_first)} on the first side, "
            f"got {sorted(got_first)}"
        )

    c1, c2 = decompose_reducible(c)
    d1 = len(c1.degree()) // 3
    d2 = len(c2.degree()) // 3
    if d1 + d2 != d:
        raise StructuralViolation("side degrees do not add up")
    extras = len([i for i in on_first if i >= 4])
    want = 3 * d1 - 1 if ray == "A" else 3 * d1 - 2
    if extras != want:
        raise StructuralViolation(
            f"first side should carry {want} point marks beyond the quartet, "
            f"has {extras}"
        )

    glue1 = image_position(c1, c1.mark_vertex(len(c1.marks) - 1))
    glue2 = image_position(c2, c2.mark_vertex(len(c2.marks) - 1))
    if glue1 != glue2:
        raise StructuralViolation("the two sides disagree on the glue point")

    ev1 = curve_multiplicity(c1)
    ev2 = curve_multiplicity(c2)
    # mark 0 is the lowest original mark on its side, so it sits first;
    # on the other side the same is true for the lowest of the rest
    line1 = _line_factor(c1, 0, 0)
    if ray == "A":
        line2 = _line_factor(c1, 1, 1)
    else:
        line2 = _line_factor(c2, 0, 1)
    u1 = _nonzero_dir_at(c1, c1.mark_vertex(len(c1.marks) - 1))
    u2 = _nonzero_dir_at(c2, c2.mark_vertex(len(c2.marks) - 1))
    glue_det = abs(cross(u1, u2))
    if glue_det == 0:
        raise StructuralViolation("sides glue along parallel directions")
    if s.mult != ev1 * ev2 * line1 * line2 * glue_det:
        raise StructuralViolation(
            f"multiplicity {s.mult} does not factor as "
            f"{ev1}*{ev2}*{line1}*{line2}*{glue_det}"
        )
    return CensusEntry(
        "b",
        s.mult,
        s,
        d1=d1,
        d2=d2,
        marks_on_first=on_first,
        glue_point=glue1,
        factors=(ev1, ev2, line1, line2, glue_det),
    )


def reducible_census(d: int, cfg: PointConfig) -> Census:
    """Classify every solution of the far-out fiber and check the books.

    fiber raises ValueError unless cfg aims along ray A, B or C.  Every
    solution must have exactly one contracted bounded edge.  Case (a): the
    two line-constrained marks share a vertex; only ray A admits it, and the
    multiplicity must match the count through the resulting double point.
    Case (b): the edge splits the curve in two, and the ray forces the
    quartet marks, point-mark counts and multiplicity factors of the sides
    (`_census_case_b`).  Totals must match the recursion terms.
    """
    sols = fiber(PI, d, cfg)
    ray = cfg.m4.ray
    nd = recursion_nd(d)

    entries: List[CensusEntry] = []
    for s in sols:
        contracted = s.type.contracted_bounded_edges()
        if len(contracted) != 1:
            raise StructuralViolation(
                "a far-out solution must contract exactly one bounded edge"
            )
        c = s.curve()
        if c.mark_vertex(0) == c.mark_vertex(1):
            if ray != "A":
                raise StructuralViolation(
                    f"marks 1 and 2 collide on a ray-{ray} fiber"
                )
            expected = _case_a_expected(c)
            if s.mult != expected:
                raise StructuralViolation(
                    f"case-a multiplicity {s.mult} != double-point count {expected}"
                )
            entries.append(CensusEntry("a", s.mult, s))
        else:
            entries.append(_census_case_b(s, c, contracted[0], ray, d))

    case_a_total = sum(e.mult for e in entries if e.case == "a")
    expected_a = nd[d] if ray == "A" else 0
    if case_a_total != expected_a:
        raise StructuralViolation(
            f"case-a total {case_a_total}, recursion says {expected_a}"
        )

    per_set: Dict[tuple, int] = {}
    for e in entries:
        if e.case == "b":
            key = (e.d1, e.d2, e.marks_on_first)
            per_set[key] = per_set.get(key, 0) + e.mult
    b_totals: Dict[Tuple[int, int], int] = {}
    for (d1, d2, marks), tot in per_set.items():
        want = _trade_term(ray, d, d1)[0] * nd[d1] * nd[d2]
        if tot != want:
            raise StructuralViolation(
                f"split {(d1, d2)} with marks {marks} totals {tot}, expected {want}"
            )
        b_totals[(d1, d2)] = b_totals.get((d1, d2), 0) + tot
    for (d1, d2), tot in sorted(b_totals.items()):
        coeff, choose = _trade_term(ray, d, d1)
        if tot != coeff * choose * nd[d1] * nd[d2]:
            raise StructuralViolation(
                f"split {(d1, d2)} grand total {tot} off the recursion term"
            )

    return Census(d, ray, tuple(entries), case_a_total, tuple(sorted(b_totals.items())))
