"""Output checks that do not use tropcount's own arithmetic.

Curves are read from their raw data (flags, partners, lengths, directions,
marks, root) and every quantity is recomputed here: vertex positions by a
walk of lengths times directions from the root, multiplicities as products
of 2x2 determinants, and the curve counts from Kontsevich's recursion
started at N_1 = 1.  Each check returns a list of error strings, empty when
the output is right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

# Classical counts of rational plane curves through 3d-1 points.
CLASSICAL_N = {1: 1, 2: 1, 3: 12, 4: 620}


def recursion_n(d_max: int) -> dict:
    """N_1..N_{d_max} from Kontsevich's recursion and N_1 = 1."""
    n = {1: 1}
    for d in range(2, d_max + 1):
        n[d] = sum(
            n[a] * n[d - a] * (
                a * a * (d - a) ** 2 * comb(3 * d - 4, 3 * a - 2)
                - a**3 * (d - a) * comb(3 * d - 4, 3 * a - 1)
            )
            for a in range(1, d)
        )
    return n


def recursion_sides(d: int) -> tuple:
    """The two sides of the recursion term: fiber degrees over rays A and B/C."""
    n = recursion_n(d)
    side_a = n[d]
    side_b = 0
    for a in range(1, d):
        nn = n[a] * n[d - a]
        side_a += a**3 * (d - a) * comb(3 * d - 4, 3 * a - 1) * nn
        side_b += a * a * (d - a) ** 2 * comb(3 * d - 4, 3 * a - 2) * nn
    return side_a, side_b


@dataclass(frozen=True)
class Curve:
    """Raw data of a plane tropical curve, independent of tropcount's classes."""

    flag_vertex: tuple
    flag_partner: tuple
    lengths: dict  # bounded edge id (smaller flag) -> Fraction
    dirs: tuple
    marks: tuple
    root: int
    root_pos: tuple

    @classmethod
    def from_json(cls, data: dict) -> "Curve":
        flags = sorted(data["graph"]["flags"], key=lambda r: r["id"])
        return cls(
            tuple(r["vertex"] for r in flags),
            tuple(r["partner"] for r in flags),
            {int(e): Fraction(s) for e, s in data["graph"].get("lengths", {}).items()},
            tuple((int(a), int(b)) for a, b in data["directions"]),
            tuple(data["marks"]),
            int(data["root"]),
            (Fraction(data["root_pos"][0]), Fraction(data["root_pos"][1])),
        )

    @classmethod
    def from_object(cls, c) -> "Curve":
        """Read a tropcount PlaneCurve's fields without calling its methods."""
        g = c.curve.graph
        return cls(
            tuple(g.flag_vertex),
            tuple(g.flag_partner),
            dict(g.lengths),
            tuple(tuple(d) for d in c.dirs),
            tuple(c.curve.marks),
            c.root,
            tuple(c.root_pos),
        )

    def flags_at(self, v):
        return [f for f, w in enumerate(self.flag_vertex) if w == v]

    def positions(self) -> dict:
        """Vertex -> plane position, walking lengths x directions from the root."""
        pos = {self.root: self.root_pos}
        stack = [self.root]
        while stack:
            u = stack.pop()
            for f in self.flags_at(u):
                p = self.flag_partner[f]
                if p is None:
                    continue
                w = self.flag_vertex[p]
                if w in pos:
                    continue
                ln = self.lengths[min(f, p)]
                pos[w] = (pos[u][0] + ln * self.dirs[f][0], pos[u][1] + ln * self.dirs[f][1])
                stack.append(w)
        return pos

    def unmarked_end_dirs(self) -> list:
        marks = set(self.marks)
        return sorted(
            self.dirs[f]
            for f, p in enumerate(self.flag_partner)
            if p is None and f not in marks
        )

    def segments(self) -> list:
        """(start, direction, length or None) for every non-contracted edge."""
        pos = self.positions()
        out = []
        for f, p in enumerate(self.flag_partner):
            if self.dirs[f] == (0, 0) or (p is not None and p < f):
                continue
            ln = None if p is None else self.lengths[f]
            out.append((pos[self.flag_vertex[f]], self.dirs[f], ln))
        return out


def _det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def degree_of(curve: Curve) -> int:
    return len(curve.unmarked_end_dirs()) // 3


def vertex_product(curve: Curve) -> int:
    """Product of |det| of two edge directions over vertices without a mark."""
    mark_vertices = {curve.flag_vertex[m] for m in curve.marks}
    result = 1
    for v in range(max(curve.flag_vertex) + 1):
        if v not in mark_vertices:
            f1, f2 = curve.flags_at(v)[:2]
            result *= abs(_det(curve.dirs[f1], curve.dirs[f2]))
    return result


def curve_errors(curve: Curve, d: int) -> list:
    """Tree shape, balancing, degree, marks contracted, positive lengths."""
    errors = []
    nv = max(curve.flag_vertex) + 1
    bounded = [f for f, p in enumerate(curve.flag_partner) if p is not None and f < p]
    if sorted(curve.lengths) != bounded:
        errors.append("lengths do not cover exactly the bounded edges")
        return errors
    if any(ln <= 0 for ln in curve.lengths.values()):
        errors.append("non-positive edge length")
    if len(bounded) != nv - 1 or len(curve.positions()) != nv:
        errors.append("curve is not a tree")
        return errors
    for f, p in enumerate(curve.flag_partner):
        if p is not None and (curve.dirs[f][0] + curve.dirs[p][0], curve.dirs[f][1] + curve.dirs[p][1]) != (0, 0):
            errors.append(f"edge flags {f},{p} are not opposite")
    for v in range(nv):
        fs = curve.flags_at(v)
        if (sum(curve.dirs[f][0] for f in fs), sum(curve.dirs[f][1] for f in fs)) != (0, 0):
            errors.append(f"vertex {v} is not balanced")
    if any(curve.dirs[m] != (0, 0) for m in curve.marks):
        errors.append("a marked end is not contracted")
    if curve.unmarked_end_dirs() != sorted([(-1, 0), (0, -1), (1, 1)] * d):
        errors.append(f"ends are not those of a degree-{d} curve")
    return errors


def marks_on_points(curve: Curve, points, first=0) -> list:
    """Marks first, first+1, ... must sit on the given points."""
    pos = curve.positions()
    errors = []
    for i, pt in enumerate(points):
        at = pos[curve.flag_vertex[curve.marks[first + i]]]
        if at != tuple(pt):
            errors.append(f"mark {first + i} at {at}, expected {tuple(pt)}")
    return errors


def solution_errors(curve: Curve, mult: int, points, d: int) -> list:
    """An evaluation-fiber solution: a valid curve through the points whose
    multiplicity is the product of its vertex determinants."""
    errors = curve_errors(curve, d)
    if errors:
        return errors
    errors += marks_on_points(curve, points)
    product = vertex_product(curve)
    if product <= 0 or mult != product:
        errors.append(f"multiplicity {mult}, vertex product {product}")
    return errors


def count_report_errors(report: dict, d: int) -> list:
    """A `tropcount count` report: solutions through the points, total N_d."""
    if report.get("d") != d:
        return [f"report is for degree {report.get('d')}, expected {d}"]
    points = [(Fraction(x), Fraction(y)) for x, y in report["points"]]
    errors = []
    if len(points) != 3 * d - 1 or len(set(points)) != len(points):
        errors.append("report does not hold 3d-1 distinct points")
    sols = report["solutions"]
    for k, s in enumerate(sols):
        errors += [f"solution {k}: {e}" for e in solution_errors(Curve.from_json(s["curve"]), s["mult"], points, d)]
    if len({s["type"] for s in sols}) != len(sols):
        errors.append("a combinatorial type is listed twice")
    total = sum(s["mult"] for s in sols)
    if not (total == report["total"] == CLASSICAL_N[d] == recursion_n(d)[d]):
        errors.append(f"total {report['total']} (sum {total}), N_{d} = {CLASSICAL_N[d]}")
    return errors


def fiber_errors(points, solutions, d: int) -> list:
    """An evaluation fiber from `sampled_fiber`: (points, [FiberSolution])."""
    errors = []
    for k, s in enumerate(solutions):
        errors += [f"solution {k}: {e}" for e in solution_errors(Curve.from_object(s.curve()), s.mult, points, d)]
    total = sum(s.mult for s in solutions)
    if total != CLASSICAL_N[d]:
        errors.append(f"fiber total {total}, N_{d} = {CLASSICAL_N[d]}")
    return errors


def on_segments(pt, segments) -> bool:
    for (x0, y0), (u, v), ln in segments:
        dx, dy = pt[0] - x0, pt[1] - y0
        if dx * v != dy * u:
            continue
        t = Fraction(dx, u) if u else Fraction(dy, v)
        if t >= 0 and (ln is None or t <= ln):
            return True
    return False


def intersection_errors(c1: Curve, c2: Curve, hits) -> list:
    """Stable intersection [(point, mult)]: total d1*d2, points on both curves."""
    errors = []
    s1, s2 = c1.segments(), c2.segments()
    for pt, m in hits:
        if m <= 0:
            errors.append(f"non-positive multiplicity {m} at {pt}")
        if not (on_segments(pt, s1) and on_segments(pt, s2)):
            errors.append(f"{pt} is not on both curves")
    total = sum(m for _, m in hits)
    want = degree_of(c1) * degree_of(c2)
    if total != want:
        errors.append(f"intersection total {total}, expected {want}")
    return errors


def census_errors(census, d: int, ray: str, points) -> list:
    """A far-out combined-map fiber: books balance against the recursion."""
    side_a, side_b = recursion_sides(d)
    n = recursion_n(d)
    errors = []
    if side_a != side_b:
        errors.append(f"recursion sides differ: {side_a} != {side_b}")
    total = case_a = 0
    for k, e in enumerate(census.entries):
        curve = Curve.from_object(e.solution.curve())
        errs = curve_errors(curve, d)
        if not errs:
            pos = curve.positions()
            x = pos[curve.flag_vertex[curve.marks[0]]][0]
            y = pos[curve.flag_vertex[curve.marks[1]]][1]
            if (x, y) != (points[0][0], points[1][1]):
                errs.append("line-constrained marks are off their lines")
            errs += marks_on_points(curve, points[2:], first=2)
            contracted = [f for f, p in enumerate(curve.flag_partner) if p is not None and f < p and curve.dirs[f] == (0, 0)]
            if len(contracted) != 1:
                errs.append(f"{len(contracted)} contracted bounded edges, expected 1")
        if e.mult <= 0 or e.mult != e.solution.mult:
            errs.append(f"multiplicity {e.mult} (solution says {e.solution.mult})")
        if e.case == "a":
            case_a += e.mult
            if ray != "A":
                errs.append(f"case-(a) entry on ray {ray}")
        else:
            product = 1
            for factor in e.factors:
                product *= factor
            if product != e.mult:
                errs.append(f"factors {e.factors} multiply to {product}, not {e.mult}")
        errors += [f"entry {k}: {m}" for m in errs]
        total += e.mult
    if case_a != (n[d] if ray == "A" else 0):
        errors.append(f"case-(a) total {case_a} on ray {ray}")
    if total != side_a:
        errors.append(f"ray {ray} total {total}, recursion sides {side_a} = {side_b}")
    return errors
