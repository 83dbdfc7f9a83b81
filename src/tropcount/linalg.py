"""Exact rational vectors, matrices, determinants and linear solving.

Every multiplicity in this package is the determinant of an integer matrix
and every fiber computation is an exact rational solve, so this module is
deliberately float-free.  Scalars are stdlib fractions (always in lowest
terms, positive denominator).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Matrix:
    """Dense row-major matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(Fraction(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"entry count {len(entries)} != {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, row_lists) -> "Matrix":
        row_lists = [list(r) for r in row_lists]
        nrows = len(row_lists)
        ncols = len(row_lists[0]) if row_lists else 0
        if any(len(r) != ncols for r in row_lists):
            raise ValueError("ragged rows")
        flat = [e for r in row_lists for e in r]
        return cls(nrows, ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            r = self.row(i)
            for j in range(other.cols):
                out.append(sum(r[k] * other.at(k, j) for k in range(self.cols)))
        return Matrix(self.rows, other.cols, out)

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(
            sum(self.at(i, k) * vec[k] for k in range(self.cols))
            for i in range(self.rows)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e) for e in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _integer_rows(rows):
    """Scale each row to integers, returning (int rows, product of scales)."""
    scaled = []
    scale = 1
    for row in rows:
        mult = lcm(*(e.denominator for e in row)) if row else 1
        scaled.append([int(e * mult) for e in row])
        scale *= mult
    return scaled, scale


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


def det(m: Matrix) -> Fraction:
    """Exact determinant: the last pivot of the fraction-free elimination."""
    if not m.is_square():
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a, scale = _integer_rows(m.row(i) for i in range(n))
    pivots, sign = _eliminate(a, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * a[n - 1][n - 1], 1) / scale


class SolveResult:
    """Outcome of an exact linear solve: unique / inconsistent / underdetermined.

    A unique solve of a square system also carries the determinant of its
    coefficient matrix, read off the elimination's last pivot.
    """

    __slots__ = ("status", "solution", "det")

    UNIQUE = "unique"
    INCONSISTENT = "inconsistent"
    UNDERDETERMINED = "underdetermined"

    def __init__(self, status: str, solution=None, det=None):
        self.status = status
        self.solution = solution
        self.det = det

    @property
    def is_unique(self) -> bool:
        return self.status == SolveResult.UNIQUE

    def __repr__(self) -> str:
        return f"SolveResult({self.status}, {self.solution})"


def solve(m, rhs) -> SolveResult:
    """Solve m·x = rhs exactly and classify the system.

    m is a Matrix, or a list of integer rows with an integer rhs, which is
    eliminated as given.  UNIQUE requires full column rank and consistency;
    no tolerances anywhere.
    """
    nrows = m.rows if isinstance(m, Matrix) else len(m)
    if len(rhs) != nrows:
        raise ValueError("rhs length != rows")
    if isinstance(m, Matrix):
        n = m.cols
        a, scale = _integer_rows(m.row(i) + (Fraction(rhs[i]),) for i in range(nrows))
    else:
        n = len(m[0]) if m else 0
        a, scale = [[*row, b] for row, b in zip(m, rhs)], 1
    pivots, sign = _eliminate(a, n)
    if any(row[n] != 0 for row in a[len(pivots) :]):
        return SolveResult(SolveResult.INCONSISTENT)
    if len(pivots) < n:
        return SolveResult(SolveResult.UNDERDETERMINED)
    # the leading n rows form a square system whose determinant is its last
    # pivot den, so by Cramer's rule y = den·x is integral and every
    # division in the back substitution is exact
    den = a[n - 1][n - 1] if n else 1
    y = [0] * n
    for k in range(n - 1, -1, -1):
        row = a[k]
        acc = row[n] * den - sum(row[j] * y[j] for j in range(k + 1, n))
        y[k] = acc // row[k]
    square_det = Fraction(sign * den, scale) if nrows == n else None
    return SolveResult(
        SolveResult.UNIQUE, tuple(Fraction(v, den) for v in y), square_det
    )
