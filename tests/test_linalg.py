import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilb4n import linalg
from hilb4n.linalg import Subspace, kernel_basis, rank, rref, solve
from hilb4n.poly import LinearChange, variables


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
    if rank(m) < n:
        with pytest.raises(ValueError):
            LinearChange(m)
        return
    g = LinearChange(m)
    for v in variables(n):
        assert g.apply(g.inverse().apply(v)) == v
        assert g.inverse().apply(g.apply(v)) == v


@SETTINGS
@given(st.integers(2, 4), st.data())
def test_singular_linear_change_rejected(n, data):
    rows = [data.draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(n - 1)]
    weights = data.draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1))
    dependent = [sum(w * row[i] for w, row in zip(weights, rows)) for i in range(n)]
    position = data.draw(st.integers(0, n - 1))
    with pytest.raises(ValueError):
        LinearChange(rows[:position] + [dependent] + rows[position:])


# ---------------------------------------------------------------------------
# the integer echelon against the Fraction echelon it replaced

def reference_reduce(rows, pivots, v):
    w = [Fraction(c) for c in v]
    for row, pc in zip(rows, pivots):
        f = w[pc]
        if f:
            w = [a - f * b for a, b in zip(w, row)]
    return w


def reference_insert(rows, pivots, v):
    """The Fraction echelon step: reduce v, scale it to pivot 1, clear its
    pivot column from the other rows, insert it in pivot order."""
    w = reference_reduce(rows, pivots, v)
    lead = next((i for i, c in enumerate(w) if c), None)
    if lead is None:
        return
    lv = w[lead]
    if lv != 1:
        w = [c / lv for c in w]
    for k, row in enumerate(rows):
        f = row[lead]
        if f:
            rows[k] = [a - f * b for a, b in zip(row, w)]
    pos = bisect_left(pivots, lead)
    rows.insert(pos, w)
    pivots.insert(pos, lead)


def reference_rref(m):
    rows, pivots = [], []
    for v in m:
        reference_insert(rows, pivots, v)
    return rows, pivots


def reference_kernel_basis(m):
    if not m:
        return []
    ncols = len(m[0])
    echelon, pivots = reference_rref(m)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -echelon[ri][fc]
        basis.append(tuple(v))
    return basis


def reference_solve(m, b):
    if not m:
        return () if not any(b) else None
    ncols = len(m[0])
    echelon, pivots = reference_rref([list(row) + [t] for row, t in zip(m, b)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for ri, pc in enumerate(pivots):
        x[pc] = echelon[ri][ncols]
    return tuple(x)


# small ints, and Fractions with large numerators and denominators
EXACT = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**15),
)


@st.composite
def exact_matrices(draw, max_rows=7, max_cols=8):
    """Rows of ints and Fractions, with zero rows and rows that combine
    earlier ones, so that ranks fall short."""
    ncols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(("entries", "zero", "combination")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(EXACT, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * r[i] for c, r in zip(coeffs, rows)), 0) for i in range(ncols)])
        else:
            rows.append(draw(st.lists(EXACT, min_size=ncols, max_size=ncols)))
    return rows


def _vectors(ncols):
    return st.lists(EXACT, min_size=ncols, max_size=ncols)


@SETTINGS
@given(exact_matrices())
def test_integer_echelon_equals_fraction_reference(m):
    ncols = len(m[0]) if m else 1
    reference = reference_rref(m)
    assert rref(m) == reference
    assert rank(m) == len(reference[1])
    assert kernel_basis(m) == reference_kernel_basis(m)
    s = Subspace(m, ncols)
    assert (s.rows, s.pivots, s.dim) == (reference[0], reference[1], len(reference[1]))
    assert all(type(c) is Fraction for row in s.rows for c in row)


@SETTINGS
@given(exact_matrices(), st.data())
def test_solve_equals_fraction_reference(m, data):
    b = data.draw(st.lists(EXACT, min_size=len(m), max_size=len(m)))
    assert solve(m, b) == reference_solve(m, b)
    if m:
        # a right-hand side in the column space is always solved
        x = data.draw(_vectors(len(m[0])))
        image = [sum((a * c for a, c in zip(row, x)), 0) for row in m]
        assert solve(m, image) == reference_solve(m, image) is not None


@SETTINGS
@given(exact_matrices(), st.data())
def test_extended_and_exact_residue_equal_fraction_reference(m, data):
    ncols = len(m[0]) if m else data.draw(st.integers(1, 4))
    split = data.draw(st.integers(0, len(m)))
    base, more = m[:split], m[split:]
    reference = reference_rref(base)
    s = Subspace(base, ncols)
    grown = s.extended(more)
    assert (grown.rows, grown.pivots) == reference_rref(m)
    assert (s.rows, s.pivots) == reference  # extending leaves the original alone
    v = data.draw(_vectors(ncols))
    residue = s.reduce(v)
    assert residue == reference_reduce(*reference, v)  # exact, not a multiple
    assert all(type(c) is Fraction for c in residue)
    assert s.contains(v) == (not any(residue))
    assert all(grown.contains(row) for row in m)


def test_one_column_and_empty_matrices():
    assert rref([]) == ([], []) and rank([]) == 0 and kernel_basis([]) == []
    assert solve([], []) == () and solve([], [0]) == () and solve([], [1]) is None
    assert rref([[0], [Fraction(-3, 7)], [2]]) == ([[Fraction(1)]], [0])
    assert kernel_basis([[0], [0]]) == [(Fraction(1),)]
    assert solve([[Fraction(2, 3)]], [Fraction(5, 9)]) == (Fraction(5, 6),)
    assert Subspace([], 2).reduce([Fraction(1, 2), -1]) == [Fraction(1, 2), Fraction(-1)]


def test_rank_membership_and_extension_make_no_fraction(monkeypatch):
    m = [[Fraction(1, 3), 2, 0], [Fraction(-5, 4), 0, 1], [Fraction(-11, 12), 2, 1]]
    s = Subspace(m, 3)

    def forbidden(*args):
        raise AssertionError("a Fraction was made inside the echelon")

    monkeypatch.setattr(linalg, "Fraction", forbidden)
    assert rank(m) == 2 and s.dim == 2
    assert s.contains([Fraction(1, 3), 2, 0]) and not s.contains([0, 0, 1])
    assert s.extended([[0, 0, 1]]).dim == 3
