"""Exact elimination: identities checked over Q and Q(zeta_4)."""

import random
from fractions import Fraction

import pytest

from ctc.fields import FieldSpec, Scalar
from ctc import linalg as la

Q = FieldSpec.rational()
Z4 = FieldSpec.cyclotomic(4)


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
            assert la.mat_is_zero(prod)
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
            assert la.mat_is_zero(m)
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
    assert la.mat_is_zero([red[1]])


def test_empty_shapes():
    assert la.rank([], Q) == 0
    assert la.nullspace([], Q, 0, 3) and len(la.nullspace([], Q, 0, 3)) == 3
    u, p = la.image_factorization([], Q, 0, 0)
    assert u == [] and p == []
