"""Exact elimination: identities checked over Q and Q(zeta_4), and the
sparse kernel compared with dense Gauss-Jordan references over Q, F_2,
F_5 and Q(zeta_8).

The solves take and return sparse ``{col: Scalar}`` rows; ``to_rows``
and ``to_dense`` convert at the boundary of every test that states its
matrices as dense row lists."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ctc.fields import FieldSpec, Scalar
from ctc import linalg as la

Q = FieldSpec.rational()
Z4 = FieldSpec.cyclotomic(4)


def to_rows(m):
    """The sparse rows of a dense matrix."""
    return [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in m]


def to_dense(rows, cols, field):
    """The dense matrix, ``cols`` wide, of sparse rows."""
    zero = Scalar.zero(field)
    return [[row.get(j, zero) for j in range(cols)] for row in rows]


def zeros(field, rows, cols):
    z = Scalar.zero(field)
    return [[z] * cols for _ in range(rows)]


def identity(field, n):
    z, o = Scalar.zero(field), Scalar.one(field)
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def _is_zero(m):
    return all(x.is_zero() for row in m for x in row)


def rand_scalar(field, rng):
    if field.kind == "cyclotomic":
        acc = Scalar.zero(field)
        for k in range(field.degree):
            acc = acc + Scalar.from_int(field, rng.randint(-3, 3)) * Scalar.zeta(field, k)
        return acc
    return Scalar.from_fraction(field, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def rand_matrix(field, rng, rows, cols):
    return [[rand_scalar(field, rng) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("field", [Q, Z4], ids=repr)
def test_inverse_times_self_is_identity(field):
    rng = random.Random(7)
    for _ in range(6):
        n = rng.randint(1, 4)
        while True:
            a = rand_matrix(field, rng, n, n)
            try:
                inv = to_dense(la.inverse(to_rows(a), field), n, field)
                break
            except la.SingularMatrix:
                continue
        assert la.mat_mul(a, inv, field, n, n, n) == identity(field, n)
        assert la.mat_mul(inv, a, field, n, n, n) == identity(field, n)


def test_singular_matrix_raises():
    one = Scalar.one(Q)
    m = [[one, one], [one, one]]
    with pytest.raises(la.SingularMatrix):
        la.inverse(to_rows(m), Q)


@pytest.mark.parametrize("field", [Q, Z4], ids=repr)
def test_nullspace_vectors_annihilate(field):
    rng = random.Random(11)
    for _ in range(8):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = rand_matrix(field, rng, rows, cols)
        kernel = la.nullspace(to_rows(a), cols, field)
        for v in to_dense(kernel, cols, field):
            col = [[x] for x in v]
            prod = la.mat_mul(a, col, field, rows, cols, 1)
            assert _is_zero(prod)
        assert len(kernel) == cols - la.rank(to_rows(a))


def test_solve_consistent_and_inconsistent():
    one = Scalar.one(Q)
    two = Scalar.from_int(Q, 2)
    zero = Scalar.zero(Q)
    a = [[one, one], [two, two]]
    # consistent: b in the column span
    b = [[one], [two]]
    x = la.solve(to_rows(a), to_rows(b), 2)
    assert x is not None
    assert la.mat_mul(a, to_dense(x, 1, Q), Q, 2, 2, 1) == b
    # inconsistent
    b2 = [[one], [one]]
    assert la.solve(to_rows(a), to_rows(b2), 2) is None
    assert la.solve(to_rows([[zero]]), to_rows([[one]]), 1) is None


@pytest.mark.parametrize("field", [Q, Z4], ids=repr)
def test_image_factorization_reconstructs(field):
    rng = random.Random(23)
    for _ in range(10):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_matrix(field, rng, rows, cols)
        u, p = la.image_factorization(to_rows(m))
        r = len(p)
        if r == 0:
            assert _is_zero(m)
            continue
        assert la.mat_mul(to_dense(u, r, field), to_dense(p, cols, field), field, rows, r, cols) == m
        assert la.rank(u) == r == la.rank(to_rows(m))


def test_image_factorization_deterministic():
    rng = random.Random(5)
    m = rand_matrix(Q, rng, 3, 3)
    a1 = la.image_factorization(to_rows(m))
    a2 = la.image_factorization(to_rows([list(r) for r in m]))
    assert a1 == a2


def test_rref_known_case():
    one = Scalar.one(Q)
    two = Scalar.from_int(Q, 2)
    four = Scalar.from_int(Q, 4)
    m = [[two, four], [one, two]]
    red, pivots = la.rref(to_rows(m), Q)
    assert pivots == [0]
    assert red == [{0: one, 1: two}]


def test_empty_shapes():
    assert la.rank([]) == 0
    assert len(la.nullspace([], 3, Q)) == 3
    u, p = la.image_factorization([])
    assert u == [] and p == []
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        assert_matches_dense(zeros(Q, rows, cols), zeros(Q, rows, 1), Q, cols)


# ---------------------------------------------------------------------------
# dense references: the Gauss-Jordan elimination on row lists that the
# sparse kernel replaced, kept as the oracle it must agree with


def dense_rref(a, field):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if not m[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def dense_solve(a, b, field, rows, cols, rhs_cols):
    if rows == 0:
        return zeros(field, cols, rhs_cols)
    red, pivots = dense_rref([list(a[i]) + list(b[i]) for i in range(rows)], field)
    if any(pc >= cols for pc in pivots):
        return None
    x = zeros(field, cols, rhs_cols)
    for r, pc in enumerate(pivots):
        for j in range(rhs_cols):
            x[pc][j] = red[r][cols + j]
    return x


def dense_nullspace(a, field, rows, cols):
    zero, one = Scalar.zero(field), Scalar.one(field)
    red, pivots = dense_rref(a, field) if rows else ([], [])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def dense_inverse(a, field, n):
    if n == 0:
        return []
    red, pivots = dense_rref([list(a[i]) + identity(field, n)[i] for i in range(n)], field)
    if pivots != list(range(n)):
        raise la.SingularMatrix("matrix is not invertible")
    return [row[n:] for row in red]


def dense_image_factorization(m, field, rows, cols):
    if rows == 0 or cols == 0 or _is_zero(m):
        return zeros(field, rows, 0), zeros(field, 0, cols)
    red, pivots = dense_rref([[m[i][j] for i in range(rows)] for j in range(cols)], field)
    r = len(pivots)
    u = [[red[j][i] for j in range(r)] for i in range(rows)]
    return u, dense_solve(u, m, field, rows, r, cols)


REFERENCE_FIELDS = [Q, FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.cyclotomic(8)]


def nonzero_scalars(field):
    if field.kind == "prime":
        return st.integers(1, field.p - 1).map(lambda k: Scalar.from_int(field, k))
    if field.kind == "rational":
        return st.tuples(st.integers(-4, 4), st.integers(1, 3)).map(
            lambda t: Scalar.from_fraction(field, Fraction(*t))
        )
    zetas = [Scalar.zeta(field, k) for k in range(field.degree)]

    def combine(coeffs):
        acc = Scalar.zero(field)
        for c, z in zip(coeffs, zetas):
            acc = acc + Scalar.from_int(field, c) * z
        return acc

    return st.lists(st.integers(-2, 2), min_size=field.degree, max_size=field.degree).map(combine)


@st.composite
def sparse_matrices(draw, field, rows=None, cols=None):
    """About half the entries zero, plus a forced zero row and zero column
    whenever the shape has room; any side may be 0."""
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    entry = st.one_of(st.just(Scalar.zero(field)), nonzero_scalars(field))
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and cols and draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [Scalar.zero(field)] * cols
    if cols > 1 and rows and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in m:
            row[j] = Scalar.zero(field)
    return m


def _shape(m):
    return len(m), len(m[0]) if m else 0


def assert_matches_dense(a, b, field, cols):
    """Every solve on the rows of a, and of b for ``solve``, equals its
    dense reference; a has ``cols`` columns."""
    rows, k = len(a), len(b[0]) if b else 0
    red, pivots = la.rref(to_rows(a), field)
    assert (to_dense(red, cols, field) + zeros(field, rows - len(red), cols), pivots) == dense_rref(a, field)
    assert la.rank(to_rows(a)) == len(pivots)
    assert to_dense(la.nullspace(to_rows(a), cols, field), cols, field) == dense_nullspace(a, field, rows, cols)
    u, p = la.image_factorization(to_rows(a))
    assert (to_dense(u, len(p), field), to_dense(p, cols, field)) == dense_image_factorization(a, field, rows, cols)
    x = la.solve(to_rows(a), to_rows(b), cols)
    assert (None if x is None else to_dense(x, k, field)) == dense_solve(a, b, field, rows, cols, k)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_matches_dense_reference(field, data):
    a = data.draw(sparse_matrices(field))
    rows, cols = _shape(a)
    if rows == 0:
        cols = data.draw(st.integers(0, 4))
    assert_matches_dense(a, data.draw(sparse_matrices(field, rows=rows)), field, cols)


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse_matches_dense_reference(field, data):
    n = data.draw(st.integers(0, 4))
    a = data.draw(sparse_matrices(field, rows=n, cols=n))
    try:
        want = dense_inverse(a, field, n)
    except la.SingularMatrix:
        with pytest.raises(la.SingularMatrix):
            la.inverse(to_rows(a), field)
        return
    assert to_dense(la.inverse(to_rows(a), field), n, field) == want


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_reduced_form_ignores_insertion_order(field, data):
    a = data.draw(sparse_matrices(field))
    order = data.draw(st.permutations(range(len(a))))
    forward, shuffled = la.Echelon(), la.Echelon()
    rows = to_rows(a)
    for row in rows:
        forward.add(row)
    for i in order:
        shuffled.add(rows[i])
    assert forward.reduced() == shuffled.reduced()
