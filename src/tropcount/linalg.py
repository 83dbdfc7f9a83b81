"""Exact determinants and linear solves over integer rows.

A cell map is a list of integer rows.  Every multiplicity in this package
is |det| of such rows, and every fiber is an exact solve of them against a
rational right-hand side; a fiber's leaf solves only the rows left once
each mark's offset is eliminated, at most 3d - 1 columns at degree d.
Both run one fraction-free (Bareiss) elimination, so every entry stays an
integer.  A solution is returned as integer numerators over one positive
common denominator, and as stdlib fractions on request; a kernel stays in
integers.  Nothing here touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _eliminate(a, ncols: int):
    """Fraction-free (Bareiss) row echelon form of integer rows, in place.

    Columns 0..ncols-1 are pivoted in turn on their first nonzero entry at or
    below the current row; a column with none is skipped.  Every entry stays
    an integer minor of the input, so each division is exact.  Returns the
    pivot columns and the sign of the row permutation.
    """
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        row_r = a[r]
        p = row_r[c]
        for row_i in a[r + 1 :]:
            f = row_i[c]
            if f == 0 and p == prev:
                continue  # the update would leave this row as it is
            for j in range(c + 1, len(row_i)):
                row_i[j] = (p * row_i[j] - f * row_r[j]) // prev
            row_i[c] = 0
        prev = p
        pivots.append(c)
        r += 1
    return pivots, sign


def det(rows) -> int:
    """Exact determinant of square integer rows: the last Bareiss pivot."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    pivots, sign = _eliminate(a, n)
    if len(pivots) < n:
        return 0
    return sign * a[n - 1][n - 1]


class SolveResult:
    """Outcome of an exact linear solve: unique / inconsistent / underdetermined.

    A consistent system carries a solution: the unique one, or for an
    underdetermined system the one that is 0 on every free column, together
    with an integer kernel basis.  A solve keeps the solution as integer
    numerators over one positive common denominator, and builds its
    fractions only when `solution` is read.  A unique solve of a square
    system also carries the determinant of its coefficient rows, read off
    the elimination's last pivot.
    """

    __slots__ = ("status", "numerators", "denominator", "det", "kernel", "_solution")

    UNIQUE = "unique"
    INCONSISTENT = "inconsistent"
    UNDERDETERMINED = "underdetermined"

    def __init__(
        self, status: str, solution=None, det=None, kernel=(), numerators=None, denominator=1
    ):
        self.status = status
        self._solution = solution
        self.numerators = numerators
        self.denominator = denominator
        self.det = det
        self.kernel = kernel

    @property
    def solution(self):
        if self._solution is None and self.numerators is not None:
            q = self.denominator
            self._solution = tuple(Fraction(v, q) for v in self.numerators)
        return self._solution

    def __repr__(self) -> str:
        return f"SolveResult({self.status}, {self.solution})"


def _back_substitute(a, pivots, y, rhs):
    """Fill y's pivot columns so that the echelon rows times y give rhs.

    y's free columns are set on entry.  Each division is exact when the
    result is integral, as Cramer's rule makes it for the callers."""
    for k in range(len(pivots) - 1, -1, -1):
        row, c = a[k], pivots[k]
        acc = rhs[k] - sum(row[j] * y[j] for j in range(c + 1, len(y)))
        y[c] = acc // row[c]
    return y


def solve(rows, rhs) -> SolveResult:
    """Solve rows·x = rhs exactly and classify the system.

    rows are integer rows; rhs holds ints or Fractions and is scaled once to
    integers by the lcm of its denominators.  UNIQUE requires full column
    rank and consistency; no tolerances anywhere.  A consistent result holds
    its solution as integer numerators over one positive denominator.  An
    UNDERDETERMINED result holds the solution that is 0 on the free columns
    and one integer kernel vector per free column.  For n - 1 independent
    rows in n columns that vector is ± their maximal minors (the generalized
    cross product), so a further row f completes them to a square system of
    determinant ±f·k.
    """
    nrows = len(rows)
    if len(rhs) != nrows:
        raise ValueError("rhs length != rows")
    n = len(rows[0]) if rows else 0
    scale = lcm(*(b.denominator for b in rhs))
    a = [[*row, b.numerator * (scale // b.denominator)] for row, b in zip(rows, rhs)]
    pivots, sign = _eliminate(a, n)
    r = len(pivots)
    if any(row[n] != 0 for row in a[r:]):
        return SolveResult(SolveResult.INCONSISTENT)
    # the pivot columns of the leading r rows form a square system whose
    # determinant is its last pivot den, so by Cramer's rule y = den·scale·x
    # and each kernel vector with den on its free column are integral
    den = a[r - 1][pivots[-1]] if r else 1
    y = _back_substitute(a, pivots, [0] * n, [row[n] * den for row in a])
    # over a positive common denominator q
    q = den * scale
    y, q = (tuple(y), q) if q > 0 else (tuple(-v for v in y), -q)
    if r < n:
        kernel = []
        for c in sorted(set(range(n)) - set(pivots)):
            k = [0] * n
            k[c] = den
            kernel.append(tuple(_back_substitute(a, pivots, k, [0] * r)))
        return SolveResult(
            SolveResult.UNDERDETERMINED, kernel=tuple(kernel), numerators=y, denominator=q
        )
    square_det = sign * den if nrows == n else None
    return SolveResult(SolveResult.UNIQUE, det=square_det, numerators=y, denominator=q)
