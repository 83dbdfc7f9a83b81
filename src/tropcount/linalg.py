"""Exact determinants and linear solves over integer rows.

A cell map is a list of integer rows.  Every multiplicity in this package
is |det| of such rows, and every fiber is an exact solve of them against a
rational right-hand side.  Both run one fraction-free (Bareiss)
elimination, so every entry stays an integer; only a solution is returned
as stdlib fractions.  Nothing here touches a float.
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

    A unique solve of a square system also carries the determinant of its
    coefficient rows, read off the elimination's last pivot.
    """

    __slots__ = ("status", "solution", "det")

    UNIQUE = "unique"
    INCONSISTENT = "inconsistent"
    UNDERDETERMINED = "underdetermined"

    def __init__(self, status: str, solution=None, det=None):
        self.status = status
        self.solution = solution
        self.det = det

    def __repr__(self) -> str:
        return f"SolveResult({self.status}, {self.solution})"


def solve(rows, rhs) -> SolveResult:
    """Solve rows·x = rhs exactly and classify the system.

    rows are integer rows; rhs holds ints or Fractions and is scaled once to
    integers by the lcm of its denominators.  UNIQUE requires full column
    rank and consistency; no tolerances anywhere.
    """
    nrows = len(rows)
    if len(rhs) != nrows:
        raise ValueError("rhs length != rows")
    n = len(rows[0]) if rows else 0
    scale = lcm(*(b.denominator for b in rhs))
    a = [[*row, b.numerator * (scale // b.denominator)] for row, b in zip(rows, rhs)]
    pivots, sign = _eliminate(a, n)
    if any(row[n] != 0 for row in a[len(pivots) :]):
        return SolveResult(SolveResult.INCONSISTENT)
    if len(pivots) < n:
        return SolveResult(SolveResult.UNDERDETERMINED)
    # the leading n rows form a square system whose determinant is its last
    # pivot den, so by Cramer's rule y = den·scale·x is integral and every
    # division in the back substitution is exact
    den = a[n - 1][n - 1] if n else 1
    y = [0] * n
    for k in range(n - 1, -1, -1):
        row = a[k]
        acc = row[n] * den - sum(row[j] * y[j] for j in range(k + 1, n))
        y[k] = acc // row[k]
    square_det = sign * den if nrows == n else None
    return SolveResult(
        SolveResult.UNIQUE, tuple(Fraction(v, den * scale) for v in y), square_det
    )
