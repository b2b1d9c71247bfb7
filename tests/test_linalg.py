import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilb4n.linalg import Subspace, kernel_basis, rank, rref, solve
from hilb4n.poly import LinearChange


def test_kernel_identity():
    assert kernel_basis([[1, 0], [0, 1]]) == []


def test_kernel_zero_matrix():
    basis = kernel_basis([[0, 0, 0], [0, 0, 0]])
    assert len(basis) == 3


def test_kernel_single_row():
    (v,) = kernel_basis([[1, 1]])
    assert v == (Fraction(-1), Fraction(1)) or v == (Fraction(1), Fraction(-1))


def test_kernel_exactness_and_rank_nullity():
    rng = random.Random(3)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-6, 6)) for _ in range(cols)] for _ in range(rows)]
        basis = kernel_basis(m)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        assert rank(m) + len(basis) == cols


def test_solve():
    sol = solve([[2, 0], [0, 3]], [4, 9])
    assert sol == (Fraction(2), Fraction(3))
    assert solve([[1, 1], [1, 1]], [0, 1]) is None


def test_subspace_membership():
    s = Subspace([[1, 0, 1], [0, 1, 1]], 3)
    assert s.dim == 2
    assert s.contains([1, 1, 2])
    assert not s.contains([1, 1, 1])


# ---------------------------------------------------------------------------
# properties of the single echelon step, on small integer matrices

ENTRIES = st.integers(-6, 6)
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def matrices(draw, max_rows=8, max_cols=10):
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(0, max_rows))
    return [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


def _gauss_jordan(m):
    """Textbook column-by-column Gauss-Jordan elimination, as an oracle."""
    rows = [[Fraction(c) for c in row] for row in m]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


@SETTINGS
@given(matrices())
def test_rref_is_reduced_echelon_of_the_row_space(m):
    rows, pivots = rref(m)
    assert pivots == sorted(set(pivots))
    for k, (row, pc) in enumerate(zip(rows, pivots)):
        assert row[pc] == 1 and not any(row[:pc])
        assert all(other[pc] == 0 for j, other in enumerate(rows) if j != k)
    # every input row is the combination of echelon rows read off its pivot entries
    for v in m:
        assert [Fraction(c) for c in v] == [
            sum((v[pc] * row[i] for row, pc in zip(rows, pivots)), Fraction(0))
            for i in range(len(v))
        ]
    assert (rows, pivots) == _gauss_jordan(m)


@SETTINGS
@given(matrices(), st.data())
def test_extended_equals_subspace_of_all_vectors(m, data):
    ncols = len(m[0]) if m else 3
    split = data.draw(st.integers(0, len(m)))
    a, b = m[:split], m[split:]
    grown = Subspace(a, ncols).extended(b)
    whole = Subspace(a + b, ncols)
    assert (grown.rows, grown.pivots) == (whole.rows, whole.pivots)


@SETTINGS
@given(st.integers(1, 4), st.data())
def test_linear_change_inverse(n, data):
    m = [data.draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    identity = LinearChange.identity(n).matrix
    if rank(m) < n:
        with pytest.raises(ValueError):
            LinearChange(m)
        return
    g = LinearChange(m)
    assert g.inverse().compose(g).matrix == identity
    assert g.compose(g.inverse()).matrix == identity


@SETTINGS
@given(st.integers(2, 4), st.data())
def test_singular_linear_change_rejected(n, data):
    rows = [data.draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(n - 1)]
    weights = data.draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1))
    dependent = [sum(w * row[i] for w, row in zip(weights, rows)) for i in range(n)]
    position = data.draw(st.integers(0, n - 1))
    with pytest.raises(ValueError):
        LinearChange(rows[:position] + [dependent] + rows[position:])
