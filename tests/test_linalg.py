"""Exact elimination: identities checked over Q and Q(zeta_4), and the
sparse kernel compared with dense Gauss-Jordan references over Q, F_2,
F_5 and Q(zeta_8)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ctc.fields import FieldSpec, Scalar
from ctc import linalg as la

Q = FieldSpec.rational()
Z4 = FieldSpec.cyclotomic(4)


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
                inv = la.inverse(a, field, n)
                break
            except la.SingularMatrix:
                continue
        assert la.mat_mul(a, inv, field, n, n, n) == la.identity(field, n)
        assert la.mat_mul(inv, a, field, n, n, n) == la.identity(field, n)


def test_singular_matrix_raises():
    one = Scalar.one(Q)
    m = [[one, one], [one, one]]
    with pytest.raises(la.SingularMatrix):
        la.inverse(m, Q, 2)


@pytest.mark.parametrize("field", [Q, Z4], ids=repr)
def test_nullspace_vectors_annihilate(field):
    rng = random.Random(11)
    for _ in range(8):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = rand_matrix(field, rng, rows, cols)
        for v in la.nullspace(a, field, rows, cols):
            col = [[x] for x in v]
            prod = la.mat_mul(a, col, field, rows, cols, 1)
            assert _is_zero(prod)
        assert len(la.nullspace(a, field, rows, cols)) == cols - la.rank(a, field)


def test_solve_consistent_and_inconsistent():
    one = Scalar.one(Q)
    two = Scalar.from_int(Q, 2)
    zero = Scalar.zero(Q)
    a = [[one, one], [two, two]]
    # consistent: b in the column span
    b = [[one], [two]]
    x = la.solve(a, b, Q, 2, 2, 1)
    assert x is not None
    assert la.mat_mul(a, x, Q, 2, 2, 1) == b
    # inconsistent
    b2 = [[one], [one]]
    assert la.solve(a, b2, Q, 2, 2, 1) is None
    assert la.solve([[zero]], [[one]], Q, 1, 1, 1) is None


@pytest.mark.parametrize("field", [Q, Z4], ids=repr)
def test_image_factorization_reconstructs(field):
    rng = random.Random(23)
    for _ in range(10):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_matrix(field, rng, rows, cols)
        u, p = la.image_factorization(m, field, rows, cols)
        r = len(u[0]) if u and u[0] else 0
        if r == 0:
            assert _is_zero(m)
            continue
        assert la.mat_mul(u, p, field, rows, r, cols) == m
        assert la.rank(u, field) == r == la.rank(m, field)


def test_image_factorization_deterministic():
    rng = random.Random(5)
    m = rand_matrix(Q, rng, 3, 3)
    a1 = la.image_factorization(m, Q, 3, 3)
    a2 = la.image_factorization([list(r) for r in m], Q, 3, 3)
    assert a1 == a2


def test_rref_known_case():
    one = Scalar.one(Q)
    two = Scalar.from_int(Q, 2)
    four = Scalar.from_int(Q, 4)
    m = [[two, four], [one, two]]
    red, pivots = la.rref(m, Q)
    assert pivots == [0]
    assert red[0] == [one, two]
    assert _is_zero([red[1]])


def test_empty_shapes():
    assert la.rank([], Q) == 0
    assert la.nullspace([], Q, 0, 3) and len(la.nullspace([], Q, 0, 3)) == 3
    u, p = la.image_factorization([], Q, 0, 0)
    assert u == [] and p == []
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        a, b = la.zeros(Q, rows, cols), la.zeros(Q, rows, 1)
        assert la.rref(a, Q) == dense_rref(a, Q)
        assert la.nullspace(a, Q, rows, cols) == dense_nullspace(a, Q, rows, cols)
        assert la.image_factorization(a, Q, rows, cols) == dense_image_factorization(a, Q, rows, cols)
        assert la.solve(a, b, Q, rows, cols, 1) == dense_solve(a, b, Q, rows, cols, 1)


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
        return la.zeros(field, cols, rhs_cols)
    red, pivots = dense_rref([list(a[i]) + list(b[i]) for i in range(rows)], field)
    if any(pc >= cols for pc in pivots):
        return None
    x = la.zeros(field, cols, rhs_cols)
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
    red, pivots = dense_rref([list(a[i]) + la.identity(field, n)[i] for i in range(n)], field)
    if pivots != list(range(n)):
        raise la.SingularMatrix("matrix is not invertible")
    return [row[n:] for row in red]


def dense_image_factorization(m, field, rows, cols):
    if rows == 0 or cols == 0 or _is_zero(m):
        return la.zeros(field, rows, 0), la.zeros(field, 0, cols)
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


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_matches_dense_reference(field, data):
    a = data.draw(sparse_matrices(field))
    rows, cols = _shape(a)
    if rows == 0:
        cols = data.draw(st.integers(0, 4))
    assert la.rref(a, field) == dense_rref(a, field)
    assert la.rank(a, field) == len(dense_rref(a, field)[1])
    assert la.nullspace(a, field, rows, cols) == dense_nullspace(a, field, rows, cols)
    assert la.image_factorization(a, field, rows, cols) == dense_image_factorization(a, field, rows, cols)
    b = data.draw(sparse_matrices(field, rows=rows))
    k = len(b[0]) if b else 0
    assert la.solve(a, b, field, rows, cols, k) == dense_solve(a, b, field, rows, cols, k)


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
            la.inverse(a, field, n)
        return
    assert la.inverse(a, field, n) == want


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_reduced_form_ignores_insertion_order(field, data):
    a = data.draw(sparse_matrices(field))
    order = data.draw(st.permutations(range(len(a))))
    forward, shuffled = la.Echelon(), la.Echelon()
    for row in a:
        forward.add({j: x for j, x in enumerate(row) if not x.is_zero()})
    for i in order:
        shuffled.add({j: x for j, x in enumerate(a[i]) if not x.is_zero()})
    assert forward.reduced() == shuffled.reduced()
