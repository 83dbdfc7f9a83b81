from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from tropcount.linalg import Matrix, SolveResult, det, solve


def det_by_permutation_expansion(m: Matrix) -> Fraction:
    """Independent oracle: signed sum over permutations, fine for n <= 4."""
    assert m.rows == m.cols
    n = m.rows
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m.at(i, perm[i])
        total += sign * prod
    return total


def solve_by_gauss_jordan(m: Matrix, rhs) -> SolveResult:
    """Independent oracle: Gauss-Jordan over Fractions on the augmented rows."""
    aug = [list(m.row(i)) + [Fraction(rhs[i])] for i in range(m.rows)]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [e / pv for e in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return SolveResult(SolveResult.INCONSISTENT)
    if len(pivots) < ncols:
        return SolveResult(SolveResult.UNDERDETERMINED)
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = aug[i][ncols]
    return SolveResult(SolveResult.UNIQUE, tuple(x))


small_fractions = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


def square_matrices(n):
    return st.lists(
        st.lists(small_fractions, min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(Matrix.from_rows)


def test_det_identity():
    assert det(Matrix.identity(2)) == 1
    assert det(Matrix.identity(5)) == 1


def test_det_two_columns_hand_value():
    # columns (1,1) and (-2,1)
    m = Matrix.from_rows([[1, -2], [1, 1]])
    assert det(m) == 3


def test_det_matches_permutation_oracle_fixed():
    rows = [
        [1, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 1],
    ]
    m = Matrix.from_rows(rows)
    assert det(m) == det_by_permutation_expansion(m) == -1


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_det_matches_permutation_oracle_random(m):
    assert det(m) == det_by_permutation_expansion(m)


@settings(max_examples=40, deadline=None)
@given(square_matrices(3), square_matrices(3))
def test_det_multiplicative(a, b):
    assert det(a.mul(b)) == det(a) * det(b)


@settings(max_examples=40, deadline=None)
@given(square_matrices(3), small_fractions, st.integers(0, 2))
def test_det_column_scaling(m, c, j):
    rows = [list(r) for r in m.row_lists()]
    for r in rows:
        r[j] *= c
    assert det(Matrix.from_rows(rows)) == c * det(m)


@settings(max_examples=40, deadline=None)
@given(square_matrices(3), st.integers(0, 2), st.integers(0, 2))
def test_det_alternating(m, i, j):
    rows = [list(r) for r in m.row_lists()]
    for r in rows:
        r[i], r[j] = r[j], r[i]
    swapped = det(Matrix.from_rows(rows))
    if i == j:
        assert swapped == det(m)
    else:
        assert swapped == -det(m)


def test_solve_identity():
    res = solve(Matrix.identity(3), [1, 2, Fraction(5, 2)])
    assert res.is_unique
    assert res.solution == (1, 2, Fraction(5, 2))


def test_solve_zero_matrix_nonzero_rhs():
    m = Matrix.from_rows([[0, 0], [0, 0]])
    res = solve(m, [1, 0])
    assert res.status == SolveResult.INCONSISTENT


def test_solve_underdetermined():
    m = Matrix.from_rows([[1, 1], [2, 2]])
    res = solve(m, [3, 6])
    assert res.status == SolveResult.UNDERDETERMINED


def test_solve_example_ev_system():
    # the 4x4 block pattern of a one-edge evaluation cell
    m = Matrix.from_rows(
        [
            [1, 0, 1, 0],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 1],
        ]
    )
    rhs = [Fraction(7, 2), 4, 1, Fraction(-3)]
    res = solve(m, rhs)
    assert res.is_unique
    assert m.mul_vector(res.solution) == tuple(Fraction(x) for x in rhs)


@settings(max_examples=50, deadline=None)
@given(square_matrices(4), st.lists(small_fractions, min_size=4, max_size=4))
def test_solve_roundtrip(m, rhs):
    res = solve(m, rhs)
    if res.is_unique:
        assert det(m) != 0
        assert m.mul_vector(res.solution) == tuple(Fraction(x) for x in rhs)
    else:
        assert det(m) == 0


def test_solve_rhs_length_mismatch():
    with pytest.raises(ValueError):
        solve(Matrix.identity(2), [1, 2, 3])


@st.composite
def integer_systems(draw):
    """Square, rectangular and rank-deficient integer systems, rational rhs.

    Rows are repeated or scaled copies of earlier rows and columns are zeroed
    at random, so consistent rank-deficient cases come up often."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.one_of(st.just(nrows), st.integers(1, 5)))
    entries = st.integers(-3, 3)
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            src = draw(st.sampled_from(rows))
            k = draw(st.integers(-2, 2))
            rows.append([k * e for e in src])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=1)):
        for row in rows:
            row[j] = 0
    m = Matrix.from_rows(rows)
    if draw(st.booleans()):
        # a right-hand side in the column space: consistent by construction
        x = draw(st.lists(small_fractions, min_size=ncols, max_size=ncols))
        rhs = list(m.mul_vector(x))
    else:
        rhs = draw(st.lists(small_fractions, min_size=nrows, max_size=nrows))
    return m, rhs


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_solve_matches_gauss_jordan_oracle(system):
    m, rhs = system
    res = solve(m, rhs)
    ref = solve_by_gauss_jordan(m, rhs)
    assert res.status == ref.status
    assert res.solution == ref.solution


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_solve_plain_integer_rows_match_matrix(system):
    m, rhs = system
    scale = lcm(*(Fraction(b).denominator for b in rhs))
    irhs = [int(b * scale) for b in rhs]
    rows = [[int(e) for e in row] for row in m.row_lists()]
    res = solve(rows, irhs)
    ref = solve_by_gauss_jordan(m, irhs)
    assert res.status == ref.status
    assert res.solution == ref.solution
    if res.is_unique and m.is_square():
        assert res.det == det(m) != 0
    else:
        assert res.det is None
