from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from tropcount.linalg import SolveResult, det, solve


def det_by_permutation_expansion(rows) -> int:
    """Independent oracle: signed sum over permutations, fine for n <= 4."""
    n = len(rows)
    assert all(len(row) == n for row in rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def solve_by_gauss_jordan(rows, rhs) -> SolveResult:
    """Independent oracle: Gauss-Jordan over Fractions on the augmented rows."""
    aug = [[Fraction(e) for e in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    nrows, ncols = len(rows), len(rows[0])
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
    # the solution with every free column 0
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = aug[i][ncols]
    if len(pivots) < ncols:
        return SolveResult(SolveResult.UNDERDETERMINED, tuple(x))
    return SolveResult(SolveResult.UNIQUE, tuple(x))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def apply(rows, x):
    return tuple(sum(e * v for e, v in zip(row, x)) for row in rows)


small_fractions = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)
small_ints = st.integers(-6, 6)


def square_matrices(n):
    return st.lists(
        st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n
    )


def test_det_identity():
    assert det(identity(2)) == 1
    assert det(identity(5)) == 1
    assert det([]) == 1


def test_det_two_columns_hand_value():
    # columns (1,1) and (-2,1)
    assert det([[1, -2], [1, 1]]) == 3


def test_det_matches_permutation_oracle_fixed():
    rows = [
        [1, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 1],
    ]
    assert det(rows) == det_by_permutation_expansion(rows) == -1


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_det_matches_permutation_oracle_random(m):
    assert det(m) == det_by_permutation_expansion(m)


@settings(max_examples=40, deadline=None)
@given(square_matrices(3), square_matrices(3))
def test_det_multiplicative(a, b):
    assert det(matmul(a, b)) == det(a) * det(b)


@settings(max_examples=40, deadline=None)
@given(square_matrices(3), small_ints, st.integers(0, 2))
def test_det_column_scaling(m, c, j):
    rows = [list(r) for r in m]
    for r in rows:
        r[j] *= c
    assert det(rows) == c * det(m)


@settings(max_examples=40, deadline=None)
@given(square_matrices(3), st.integers(0, 2), st.integers(0, 2))
def test_det_alternating(m, i, j):
    rows = [list(r) for r in m]
    for r in rows:
        r[i], r[j] = r[j], r[i]
    swapped = det(rows)
    if i == j:
        assert swapped == det(m)
    else:
        assert swapped == -det(m)


def test_solve_identity():
    res = solve(identity(3), [1, 2, Fraction(5, 2)])
    assert res.status == SolveResult.UNIQUE
    assert res.solution == (1, 2, Fraction(5, 2))
    assert res.det == 1


def test_solve_zero_matrix_nonzero_rhs():
    res = solve([[0, 0], [0, 0]], [1, 0])
    assert res.status == SolveResult.INCONSISTENT


def test_solve_underdetermined():
    res = solve([[1, 1], [2, 2]], [3, 6])
    assert res.status == SolveResult.UNDERDETERMINED
    assert res.solution == (3, 0)
    assert res.kernel == ((-1, 1),)


def test_solve_example_ev_system():
    # the 4x4 block pattern of a one-edge evaluation cell
    rows = [
        [1, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 1],
    ]
    rhs = [Fraction(7, 2), 4, 1, Fraction(-3)]
    res = solve(rows, rhs)
    assert res.status == SolveResult.UNIQUE
    assert apply(rows, res.solution) == tuple(rhs)
    assert res.det == det(rows) == -1


@settings(max_examples=50, deadline=None)
@given(square_matrices(4), st.lists(small_fractions, min_size=4, max_size=4))
def test_solve_roundtrip(m, rhs):
    res = solve(m, rhs)
    if res.status == SolveResult.UNIQUE:
        assert det(m) != 0
        assert apply(m, res.solution) == tuple(rhs)
    else:
        assert det(m) == 0


def test_solve_rhs_length_mismatch():
    with pytest.raises(ValueError):
        solve(identity(2), [1, 2, 3])


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
    if draw(st.booleans()):
        # a right-hand side in the column space: consistent by construction
        x = draw(st.lists(small_fractions, min_size=ncols, max_size=ncols))
        rhs = list(apply(rows, x))
    else:
        # ints and Fractions mixed: solve scales both the same way
        entry = st.one_of(small_fractions, small_ints)
        rhs = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_solve_matches_gauss_jordan_oracle(system):
    rows, rhs = system
    res = solve(rows, rhs)
    ref = solve_by_gauss_jordan(rows, rhs)
    assert res.status == ref.status
    assert res.solution == ref.solution
    if res.status == SolveResult.UNIQUE and len(rows) == len(rows[0]):
        assert res.det == det(rows) != 0
    else:
        assert res.det is None


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_solve_plain_integer_rows_match_matrix(system):
    rows, rhs = system
    scale = lcm(*(Fraction(b).denominator for b in rhs))
    irhs = [int(b * scale) for b in rhs]
    res = solve(rows, irhs)
    ref = solve_by_gauss_jordan(rows, irhs)
    assert res.status == ref.status
    assert res.solution == ref.solution
    assert all(isinstance(v, Fraction) for v in res.solution or ())
    if res.status == SolveResult.UNIQUE and len(rows) == len(rows[0]):
        assert res.det == det(rows) != 0
    else:
        assert res.det is None


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_solve_numerators_over_a_positive_denominator(system):
    rows, rhs = system
    res = solve(rows, rhs)
    if res.status == SolveResult.INCONSISTENT:
        assert res.numerators is None
        return
    assert type(res.denominator) is int and res.denominator > 0
    assert all(type(v) is int for v in res.numerators)
    assert tuple(Fraction(v, res.denominator) for v in res.numerators) == res.solution
    assert res.solution == solve_by_gauss_jordan(rows, rhs).solution


@pytest.mark.parametrize(
    "rows, rhs, status",
    [
        # a negative last pivot, and a negative one with a free column
        ([[1, 0], [0, -3]], [Fraction(1, 2), 2], SolveResult.UNIQUE),
        ([[-2, 4, 0], [0, 0, -5]], [3, Fraction(7, 3)], SolveResult.UNDERDETERMINED),
        ([[1, 1], [2, 2]], [3, 6], SolveResult.UNDERDETERMINED),
    ],
)
def test_solve_numerators_on_negative_pivots(rows, rhs, status):
    res = solve(rows, rhs)
    assert res.status == status
    assert res.denominator > 0
    assert tuple(Fraction(v, res.denominator) for v in res.numerators) == res.solution
    assert apply(rows, res.solution) == tuple(rhs)


def maximal_minors(rows):
    """(-1)^j det(rows without column j), for n - 1 rows in n columns."""
    n = len(rows[0])
    return tuple(
        (-1) ** j * det([row[:j] + row[j + 1 :] for row in rows]) for j in range(n)
    )


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_solve_kernel_spans_the_null_space(system):
    rows, rhs = system
    res = solve(rows, rhs)
    ncols = len(rows[0])
    if res.status == SolveResult.INCONSISTENT:
        assert res.solution is None and res.kernel == ()
        return
    # the solution solves the system; each kernel vector is an integer
    # vector the rows annihilate, one per column the rank leaves free
    assert apply(rows, res.solution) == tuple(rhs)
    assert all(type(e) is int for k in res.kernel for e in k)
    for k in res.kernel:
        assert any(k)
        assert apply(rows, k) == (0,) * len(rows)
    assert (res.status == SolveResult.UNIQUE) == (not res.kernel)
    if res.kernel:
        # independent: each has a nonzero entry on its own free column
        # where the others are zero
        frees = [next(j for j in range(ncols - 1, -1, -1) if k[j]) for k in res.kernel]
        assert len(set(frees)) == len(frees)
        for k, j in zip(res.kernel, frees):
            assert all(other[j] == 0 for other in res.kernel if other is not k)


@st.composite
def corank_one_systems(draw):
    """n - 1 random integer rows in n columns, a right-hand side, and one
    more row."""
    n = draw(st.integers(2, 5))
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n - 1, max_size=n - 1))
    rhs = draw(st.lists(small_fractions, min_size=n - 1, max_size=n - 1))
    return rows, rhs, draw(row)


@settings(max_examples=300, deadline=None)
@given(corank_one_systems())
def test_solve_corank_one_kernel_is_the_maximal_minors(system):
    rows, rhs, f = system
    res = solve(rows, rhs)
    minors = maximal_minors(rows)
    if not any(minors):
        # rank-deficient rows: at least two free columns, or inconsistent
        assert res.status == SolveResult.INCONSISTENT or len(res.kernel) >= 2
        return
    assert res.status == SolveResult.UNDERDETERMINED
    (k,) = res.kernel
    assert k in (minors, tuple(-e for e in minors))
    # the extra row completes a square system of determinant ±f·k, and
    # x0 + t·k solves it for any target
    fk = sum(a * b for a, b in zip(f, k))
    assert det(rows + [f]) in (fk, -fk)
    if fk:
        target = Fraction(7, 3)
        x0 = res.solution
        t = (target - sum(a * b for a, b in zip(f, x0))) / fk
        x = tuple(a + t * b for a, b in zip(x0, k))
        full = solve(rows + [f], list(rhs) + [target])
        assert full.status == SolveResult.UNIQUE and full.solution == x
