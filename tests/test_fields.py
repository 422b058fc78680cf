"""Exact scalar arithmetic: frozen examples first, then field axioms,
then the engine against a reference implementation.

The cyclotomic expectations below were fixed by the independent
polynomial oracle in this file (plain integer-coefficient convolution
and long division, no Scalar machinery) before the field code was
trusted with them.  ``RefScalar`` is the earlier ``Fraction``-vector
scalar with the polynomial extended-gcd inverse; hypothesis compares
every operation of the integer-vector engine against it.
"""

import cmath
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ctc.fields import (
    DivisionByZero,
    FieldError,
    FieldMismatch,
    FieldSpec,
    NoEmbedding,
    ParseError,
    Scalar,
    parse_scalar,
    scalar_literal,
)

Q = FieldSpec.rational()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
Z4 = FieldSpec.cyclotomic(4)
Z5 = FieldSpec.cyclotomic(5)
Z8 = FieldSpec.cyclotomic(8)
Z16 = FieldSpec.cyclotomic(16)


# --------------------------------------------------------------- oracle

def poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_mod_int(a, m):
    a = list(a)
    while len(a) >= len(m):
        lead = a[-1]
        if lead:
            shift = len(a) - len(m)
            for i, c in enumerate(m):
                a[shift + i] -= lead * c
        a.pop()
    return a


def cyclo_poly_oracle(n):
    # x^n - 1 over the product of the lower cyclotomic factors
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclo_poly_oracle(d)
            q = [0] * (len(num) - len(den) + 1)
            rem = list(num)
            for shift in range(len(q) - 1, -1, -1):
                c = rem[shift + len(den) - 1] // den[-1]
                q[shift] = c
                for i, dcoef in enumerate(den):
                    rem[shift + i] -= c * dcoef
            assert not any(rem)
            num = q
    return num


def test_oracle_cyclotomic_polys():
    assert cyclo_poly_oracle(1) == [-1, 1]
    assert cyclo_poly_oracle(4) == [1, 0, 1]
    assert cyclo_poly_oracle(5) == [1, 1, 1, 1, 1]
    assert cyclo_poly_oracle(8) == [1, 0, 0, 0, 1]
    assert cyclo_poly_oracle(16) == [1, 0, 0, 0, 0, 0, 0, 0, 1]


def test_inverse_in_q_zeta5_against_poly_oracle():
    # 1 + zeta5 + zeta5^4 is the golden ratio; its inverse is zeta5 + zeta5^4
    x = parse_scalar("1 + z + z^4", Z5)
    expected = parse_scalar("z + z^4", Z5)
    assert x.inverse() == expected
    # independent check: (1 + z + z^4)(z + z^4) = 1 mod Phi_5 with integer polys
    prod = poly_mul_int([1, 1, 0, 0, 1], [0, 1, 0, 0, 1])
    rem = poly_mod_int(prod, cyclo_poly_oracle(5))
    assert rem == [1, 0, 0, 0]


def test_sqrt2_in_q_zeta8_squares_to_two():
    # zeta8 + zeta8^7 is sqrt(2); oracle: square is 2 mod Phi_8
    s = parse_scalar("z + z^7", Z8)
    assert s * s == Scalar.from_int(Z8, 2)
    prod = poly_mul_int([0, 1, 0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 0, 1])
    assert poly_mod_int(prod, cyclo_poly_oracle(8)) == [2, 0, 0, 0]


# --------------------------------------------------------------- basics

def zeta(field, k=1):
    """zeta_n^k in Q(zeta_n), read from its literal."""
    return parse_scalar("z^%d" % k, field)


def test_rational_add():
    assert parse_scalar("1/2", Q) + parse_scalar("1/3", Q) == parse_scalar("5/6", Q)


def test_zeta4_squared_is_minus_one():
    i = zeta(Z4)
    assert i * i == Scalar.from_int(Z4, -1)


def test_zeta3_sum_vanishes():
    z3 = FieldSpec.cyclotomic(3)
    one = Scalar.one(z3)
    z = zeta(z3)
    assert one + z + z * z == Scalar.zero(z3)


def test_prime_field_inverse():
    assert Scalar.from_int(F5, 3).inverse() == Scalar.from_int(F5, 2)


def test_rational_inverse():
    assert parse_scalar("2", Q).inverse() == parse_scalar("1/2", Q)


def test_inverse_of_zero_raises():
    for field in (Q, F3, Z5):
        with pytest.raises(DivisionByZero):
            Scalar.zero(field).inverse()


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        Scalar.one(Q) + Scalar.one(F3)


def test_zeta_n_to_the_n_is_one():
    for n in (1, 2, 3, 4, 5, 8, 12, 16):
        f = FieldSpec.cyclotomic(n)
        z = zeta(f)
        acc = Scalar.one(f)
        for _ in range(n):
            acc = acc * z
        assert acc == Scalar.one(f)


def test_cyclotomic_poly_kills_zeta():
    for n in (4, 5, 8, 16):
        f = FieldSpec.cyclotomic(n)
        coeffs = cyclo_poly_oracle(n)
        z = zeta(f)
        acc = Scalar.zero(f)
        power = Scalar.one(f)
        for c in coeffs:
            acc = acc + Scalar.from_int(f, c) * power
            power = power * z
        assert acc.is_zero()


# --------------------------------------------------------------- embeddings

def test_embed_rational_into_prime():
    assert Scalar.from_fraction(F3, Fraction(1)) == Scalar.one(F3)
    assert Scalar.from_fraction(F3, Fraction(1, 2)) == Scalar.from_int(F3, 2)


def test_embed_rational_into_prime_bad_denominator():
    with pytest.raises(NoEmbedding):
        Scalar.from_fraction(F3, Fraction(1, 3))


# --------------------------------------------------------------- literals

@pytest.mark.parametrize(
    "text,field",
    [
        ("0", Q),
        ("-7/3", Q),
        ("2", F3),
        ("z^2 - 1", Z8),
        ("1/2*z + 1/2*z^7", Z16),
        ("1 + z + z^2 + z^3", Z5),
    ],
)
def test_literal_round_trip(text, field):
    s = parse_scalar(text, field)
    lit = scalar_literal(s)
    assert parse_scalar(lit, field) == s
    # canonical form is stable
    assert scalar_literal(parse_scalar(lit, field)) == lit


def test_parse_reduces_high_powers():
    # z^4 = -1 - z - z^2 - z^3 in Q(zeta_5)
    assert parse_scalar("z^4", Z5) == parse_scalar("-1 - z - z^2 - z^3", Z5)
    # exponents wrap modulo n
    assert parse_scalar("z^16", Z16) == Scalar.one(Z16)


def test_parse_fraction_in_prime_field():
    assert parse_scalar("1/2", F3) == Scalar.from_int(F3, 2)


def test_parse_rejects_z_outside_cyclotomic():
    with pytest.raises(ParseError):
        parse_scalar("z + 1", Q)


def test_parse_rejects_a_literal_that_is_not_a_string():
    for bad in (7, None, ["1"]):
        with pytest.raises(ParseError):
            parse_scalar(bad, Q)


def test_parse_rejects_garbage():
    # "²" is a digit to str.isdigit but not to int(); 5000 digits are more than int() reads
    for bad in ("", "1 +", "* 2", "z^", "1//2", "q", "²", "1²", "z^²", "1" * 5000):
        with pytest.raises(ParseError):
            parse_scalar(bad, Z8)


def test_field_spec_reads_its_json():
    for data, f in (({"kind": "rational"}, Q), ({"kind": "prime", "p": 3}, F3), ({"kind": "cyclotomic", "n": 16}, Z16)):
        assert FieldSpec.from_json(data) == f


def test_field_spec_built_directly_equals_interned():
    for f in (Q, F3, Z16):
        direct = FieldSpec(f.kind, f.p, f.n)
        assert direct is not f
        assert direct == f and hash(direct) == hash(f)
        assert {direct: 1}[f] == 1
    assert FieldSpec("prime", 3) != FieldSpec("prime", 5)
    assert FieldSpec("cyclotomic", n=8) != FieldSpec("cyclotomic", n=16)
    assert Q != "rational"


def test_field_spec_is_immutable():
    for name, value in (("p", 7), ("kind", "prime"), ("_hash", 0), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(F3, name, value)
    with pytest.raises(AttributeError):
        del F3.p
    assert F3.p == 3 and hash(F3) == hash(("prime", 3, None))


def approx(s: Scalar) -> complex | float:
    """Floating-point rendering of an exact scalar, for the check below."""
    k = s.field.kind
    if k == "prime":
        return float(s._v)
    nums, den = s._v
    if k == "rational":
        return nums[0] / den
    z = cmath.exp(2j * cmath.pi / s.field.n)
    return sum(c / den * z**power for power, c in enumerate(nums))


def test_approx_matches_the_complex_value():
    val = approx(parse_scalar("1/2*z + 1/2*z^7", Z8))
    assert abs(val - complex(2**-0.5, 0)) < 1e-12
    assert approx(parse_scalar("-3/4", Q)) == -0.75
    assert approx(parse_scalar("2", F3)) == 2.0


# --------------------------------------------------------------- axioms

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=12)


def scalars(field):
    if field.kind == "prime":
        return st.integers(min_value=0, max_value=field.p - 1).map(
            lambda k: Scalar.from_int(field, k)
        )
    if field.kind == "rational":
        return rationals.map(lambda q: Scalar.from_fraction(field, q))
    deg = field.degree
    return st.lists(rationals, min_size=deg, max_size=deg).map(lambda cs: from_coeffs(field, cs))


def from_coeffs(field, coeffs):
    """sum of c_k zeta^k, built through the public constructors"""
    acc = Scalar.zero(field)
    for k, c in enumerate(coeffs):
        acc = acc + Scalar.from_fraction(field, c) * zeta(field, k)
    return acc


@pytest.mark.parametrize("field", [Q, F5, Z8], ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms(field, data):
    a = data.draw(scalars(field))
    b = data.draw(scalars(field))
    c = data.draw(scalars(field))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + Scalar.zero(field) == a
    assert a * Scalar.one(field) == a
    assert a - a == Scalar.zero(field)


@pytest.mark.parametrize("field", [Q, F5, Z5, Z8], ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inverse_involution(field, data):
    a = data.draw(scalars(field))
    if a.is_zero():
        return
    inv = a.inverse()
    assert a * inv == Scalar.one(field)
    assert inv.inverse() == a


@pytest.mark.parametrize("field", [Q, F5, Z16], ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_serialization_round_trip_random(field, data):
    a = data.draw(scalars(field))
    lit = scalar_literal(a)
    assert parse_scalar(lit, field) == a
    assert scalar_literal(parse_scalar(lit, field)) == lit


# --------------------------------------------------------------- reference

def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _poly_deg(p) -> int:
    d = len(p) - 1
    while d >= 0 and not p[d]:
        d -= 1
    return d


def _poly_divmod(a, b):
    """Quotient and remainder of a by b over Q; ascending coefficients."""
    rem = list(a)
    db = _poly_deg(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - db, 1)
    while True:
        dr = _poly_deg(rem)
        if dr < db:
            break
        c = rem[dr] / b[db]
        q[dr - db] += c
        for i in range(db + 1):
            rem[dr - db + i] -= c * b[i]
    return q, rem


def _poly_mod(a, m):
    return _poly_divmod(a, m)[1]


def _poly_xgcd(a, m):
    """Extended gcd over Q[x]: returns (g, s) with s*a = g mod m."""
    r0, r1 = list(m), list(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while _poly_deg(r1) >= 0:
        q, r = _poly_divmod(r0, r1)
        qs = _poly_mul(q, s1)
        ns = [Fraction(0)] * max(len(s0), len(qs))
        for i, x in enumerate(s0):
            ns[i] += x
        for i, x in enumerate(qs):
            ns[i] -= x
        r0, r1 = r1, r
        s0, s1 = s1, ns
    return r0, s0


class RefCyclo:
    """Fraction reduction data for Q(zeta_n): x^k mod Phi_n tables."""

    def __init__(self, n):
        self.n = n
        self.poly = cyclo_poly_oracle(n)
        self.phi = len(self.poly) - 1
        top = max(n, 2 * self.phi - 1)
        vecs = []
        for k in range(self.phi):
            v = [Fraction(0)] * self.phi
            v[k] = Fraction(1)
            vecs.append(tuple(v))
        for k in range(self.phi, top):
            prev = vecs[k - 1]
            shifted = [Fraction(0)] + list(prev[:-1])
            lead = prev[-1]
            if lead:
                for i in range(self.phi):
                    shifted[i] -= lead * self.poly[i]
            vecs.append(tuple(shifted))
        self.power_vec = vecs

    def reduce(self, coeffs):
        out = [Fraction(0)] * self.phi
        for k, c in enumerate(coeffs):
            if not c:
                continue
            if k < self.phi:
                out[k] += c
            else:
                pv = self.power_vec[k]
                for i in range(self.phi):
                    if pv[i]:
                        out[i] += c * pv[i]
        return tuple(out)


class RefScalar:
    """Reduced ``Fraction`` (Q), residue (F_p) or ``Fraction`` coefficient
    tuple (Q(zeta_n)); the inverse comes from the extended gcd with Phi_n."""

    def __init__(self, field, value):
        self.field = field
        self.v = value

    @staticmethod
    def from_fraction(field, q):
        if field.kind == "rational":
            return RefScalar(field, Fraction(q))
        if field.kind == "prime":
            q = Fraction(q)
            return RefScalar(field, (q.numerator * pow(q.denominator, -1, field.p)) % field.p)
        v = [Fraction(0)] * RefCyclo(field.n).phi
        v[0] = Fraction(q)
        return RefScalar(field, tuple(v))

    @staticmethod
    def from_coeffs(field, coeffs):
        if field.kind != "cyclotomic":
            return RefScalar.from_fraction(field, coeffs)
        return RefScalar(field, tuple(Fraction(c) for c in coeffs))

    def is_zero(self):
        if self.field.kind == "cyclotomic":
            return all(c == 0 for c in self.v)
        return self.v == 0

    def __add__(self, other):
        k = self.field.kind
        if k == "rational":
            return RefScalar(self.field, self.v + other.v)
        if k == "prime":
            return RefScalar(self.field, (self.v + other.v) % self.field.p)
        return RefScalar(self.field, tuple(a + b for a, b in zip(self.v, other.v)))

    def __neg__(self):
        k = self.field.kind
        if k == "rational":
            return RefScalar(self.field, -self.v)
        if k == "prime":
            return RefScalar(self.field, (-self.v) % self.field.p)
        return RefScalar(self.field, tuple(-a for a in self.v))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        k = self.field.kind
        if k == "rational":
            return RefScalar(self.field, self.v * other.v)
        if k == "prime":
            return RefScalar(self.field, (self.v * other.v) % self.field.p)
        ctx = RefCyclo(self.field.n)
        conv = [Fraction(0)] * (2 * ctx.phi - 1)
        for i, a in enumerate(self.v):
            for j, b in enumerate(other.v):
                conv[i + j] += a * b
        return RefScalar(self.field, ctx.reduce(conv))

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        k = self.field.kind
        if k == "rational":
            return RefScalar(self.field, 1 / self.v)
        if k == "prime":
            return RefScalar(self.field, pow(self.v, -1, self.field.p))
        ctx = RefCyclo(self.field.n)
        poly = [Fraction(c) for c in ctx.poly]
        g, s = _poly_xgcd(list(self.v), poly)
        while g and not g[-1]:
            g.pop()
        assert len(g) == 1, "gcd with the cyclotomic polynomial is not constant"
        s = _poly_mod([c / g[0] for c in s], poly)
        s = s + [Fraction(0)] * (ctx.phi - len(s))
        return RefScalar(self.field, ctx.reduce(s))

    def __eq__(self, other):
        return self.field == other.field and self.v == other.v


def ref_literal(s):
    """The literal the reference prints; same grammar as scalar_literal."""
    k = s.field.kind
    if k == "rational":
        return str(s.v)
    if k == "prime":
        return str(s.v)
    parts = []
    for power, c in enumerate(s.v):
        if not c:
            continue
        neg = c < 0
        mag = -c if neg else c
        if power == 0:
            body = str(mag)
        else:
            zp = "z" if power == 1 else "z^%d" % power
            body = zp if mag == 1 else "%s*%s" % (mag, zp)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts) if parts else "0"


ORACLE_FIELDS = [Q, F2, F5] + [FieldSpec.cyclotomic(n) for n in (1, 2, 3, 4, 5, 8, 12, 16)]

# zero, one and minus one as coefficients, small fractions, and large
# numerators over large denominators
coefficients = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    rationals,
    st.builds(Fraction, st.integers(-(10**25), 10**25), st.integers(1, 10**18)),
)


def coefficient_data(field):
    if field.kind == "prime":
        return st.integers(-3 * field.p, 3 * field.p)
    if field.kind == "rational":
        return coefficients
    deg = field.degree
    return st.one_of(
        st.just([Fraction(0)] * deg),
        st.just([Fraction(1)] + [Fraction(0)] * (deg - 1)),
        st.lists(coefficients, min_size=deg, max_size=deg),
    )


def build(field, data):
    """The same element in the engine and in the reference."""
    if field.kind == "cyclotomic":
        return from_coeffs(field, data), RefScalar.from_coeffs(field, data)
    return Scalar.from_fraction(field, Fraction(data)), RefScalar.from_fraction(field, data)


def assert_agrees(x, ref):
    """Same literal as the reference, and the literal parses back to an
    element equal to x with the same hash."""
    lit = ref_literal(ref)
    assert scalar_literal(x) == lit
    back = parse_scalar(lit, x.field)
    assert back == x
    assert hash(back) == hash(x)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scalar_matches_reference(field, data):
    a, ra = build(field, data.draw(coefficient_data(field)))
    b, rb = build(field, data.draw(coefficient_data(field)))
    assert_agrees(a, ra)
    assert_agrees(a + b, ra + rb)
    assert_agrees(a - b, ra - rb)
    assert_agrees(-a, -ra)
    assert_agrees(a * b, ra * rb)
    assert (a == b) == (ra == rb)
    assert (a * b == b * a) and hash(a * b) == hash(b * a)
    for x, rx in ((a, ra), (b, rb)):
        if rx.is_zero():
            with pytest.raises(DivisionByZero):
                x.inverse()
            continue
        assert_agrees(x.inverse(), rx.inverse())
        assert_agrees((a * b) / x, (ra * rb) / rx)


@pytest.mark.parametrize("field", [Q, FieldSpec.cyclotomic(1), FieldSpec.cyclotomic(2)], ids=repr)
def test_inverse_of_negative_norm(field):
    # in degree one the norm is the element itself, so it can be negative
    x = Scalar.from_fraction(field, Fraction(-7, 3))
    assert_agrees(x.inverse(), RefScalar.from_fraction(field, Fraction(-3, 7)))
    assert x.inverse() == Scalar.from_fraction(field, Fraction(-3, 7))


# --------------------------------------------------------------- work guards

def test_cyclotomic_arithmetic_builds_no_fraction(monkeypatch):
    a = parse_scalar("1/2*z + 1/2*z^7 - 3/5*z^2", Z16)
    b = parse_scalar("7/3 - z^3 + 2*z^5", Z16)
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    products = [a * b, a + b, a - b, a.inverse(), a / b, b * Scalar.one(Z16), b.scale(3)]
    monkeypatch.undo()
    assert made == []
    assert products[3] * a == Scalar.one(Z16)


def test_fields_are_interned():
    f = FieldSpec.cyclotomic(16)
    assert FieldSpec.from_json({"kind": "cyclotomic", "n": 16}) is f
    assert FieldSpec.from_json({"kind": "prime", "p": 5}) is FieldSpec.prime(5)
    assert FieldSpec.rational() is FieldSpec.rational()
    assert Scalar.one(f) is Scalar.one(f)
    assert Scalar.zero(f) is Scalar.zero(f)


def test_multiplying_by_one_or_zero_returns_the_other_factor():
    for field in (Q, Z8):
        x = parse_scalar("-2/3", field)
        assert x * Scalar.one(field) is x
        assert Scalar.one(field) * x is x
        assert x * Scalar.zero(field) is Scalar.zero(field)


# ------------------------------------------------- literals against Scalar arithmetic


def _tokenize(text: str):
    """(token, position) pairs: each of ``+-*/^z`` and each run of decimal
    digits, the digits of ``str.isdecimal`` being those ``int()`` reads."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^z":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r at position %d in %r" % (ch, i, text))
    return tokens


def arithmetic_parse_scalar(text, field):
    """Reference parser: every term built and summed through Scalar arithmetic."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty scalar literal")
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of literal %r" % (text,))
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_number() -> Fraction:
        tok, at = take()
        if not tok.isdecimal():
            raise ParseError("expected number at position %d in %r" % (at, text))
        num = int(tok)
        if peek() == "/":
            take()
            tok2, at2 = take()
            if not tok2.isdecimal():
                raise ParseError("expected denominator at position %d in %r" % (at2, text))
            den = int(tok2)
            if den == 0:
                raise ParseError("zero denominator in %r" % (text,))
            return Fraction(num, den)
        return Fraction(num)

    def parse_zpow() -> int:
        tok, at = take()
        if tok != "z":
            raise ParseError("expected z at position %d in %r" % (at, text))
        if field.kind != "cyclotomic":
            raise ParseError("symbol z is only meaningful in cyclotomic fields (%r)" % (text,))
        if peek() == "^":
            take()
            tok2, at2 = take()
            if not tok2.isdecimal():
                raise ParseError("expected exponent at position %d in %r" % (at2, text))
            return int(tok2)
        return 1

    terms = []
    first = True
    while pos < len(tokens):
        sign = 1
        if peek() in ("+", "-"):
            tok, at = take()
            if first and tok == "+":
                raise ParseError("leading + in %r" % (text,))
            sign = -1 if tok == "-" else 1
        elif not first:
            raise ParseError("expected + or - at position %d in %r" % (tokens[pos][1], text))
        first = False
        if peek() == "z":
            coeff = Fraction(1)
            power = parse_zpow()
        else:
            coeff = parse_number()
            power = 0
            if peek() == "*":
                take()
                power = parse_zpow()
        terms.append((sign * coeff, power))
    # every term is read before any is embedded, so in F_p a syntax error
    # anywhere is reported before a denominator divisible by p
    total = Scalar.zero(field)
    for coeff, power in terms:
        term = Scalar.from_fraction(field, coeff)
        if power:
            term = term * zeta(field, power)
        total = total + term
    return total


PARSE_FIELDS = [Q, F2, F5] + [FieldSpec.cyclotomic(n) for n in (3, 4, 5, 8, 12)]


@st.composite
def literals(draw, field):
    """Well-formed literals: repeated powers, powers of z at and beyond
    phi(n) and n, and, half the time, every term cancelled again."""
    cyclo = field.kind == "cyclotomic"
    power = st.integers(0, 3 * field.n) if cyclo else st.just(0)
    terms = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 7), st.integers(1, 6), power, st.booleans()),
            min_size=1,
            max_size=6,
        )
    )
    if draw(st.booleans()):
        terms += [(not neg, num, den, k, bare) for neg, num, den, k, bare in terms]
    parts = []
    for neg, num, den, k, bare in terms:
        coeff = str(num) if den == 1 else "%d/%d" % (num, den)
        if cyclo and bare:
            body = "z" if k == 1 else "z^%d" % k
        elif k:
            body = "%s*z^%d" % (coeff, k)
        else:
            body = coeff
        if parts:
            parts.append(" %s %s" % ("-" if neg else "+", body))
        else:
            parts.append(("-" if neg else "") + body)
    return "".join(parts)


def parse_outcome(parse, text, field):
    try:
        return parse(text, field)
    except FieldError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", PARSE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parse_matches_arithmetic_parser(field, data):
    text = data.draw(literals(field))
    got = parse_outcome(parse_scalar, text, field)
    want = parse_outcome(arithmetic_parse_scalar, text, field)
    assert got == want
    if isinstance(got, Scalar):
        assert got._v == want._v


@pytest.mark.parametrize(
    "text, field",
    [
        ("1/2 + 3/5", F5),
        ("1/5 - 1/5", F5),
        ("1 - 1", Q),
        ("1/6 - 1/3 + 1/2", Q),
        ("z^5 - z^0", FieldSpec.cyclotomic(5)),
        ("z^7 + z^3", Z4),
        ("1/4*z - 1/6*z^3 + 5/12", Z8),
    ],
    ids=repr,
)
def test_parse_matches_arithmetic_parser_on_edge_literals(text, field):
    assert parse_outcome(parse_scalar, text, field) == parse_outcome(arithmetic_parse_scalar, text, field)


def parse_kind(parse, text, field):
    """The value, or the type of the field error raised."""
    try:
        return parse(text, field)
    except FieldError as exc:
        return type(exc)


def test_oracle_tokenizer_reads_only_decimal_digits():
    assert _tokenize("12 ٣") == [("12", 0), ("٣", 3)]
    with pytest.raises(ParseError):
        _tokenize("²")


@pytest.mark.parametrize("field", [Q, F5, Z8], ids=repr)
@settings(max_examples=400, deadline=None)
@given(text=st.text(alphabet="0123456789٣²+-*/^z \t", max_size=14))
def test_parse_matches_arithmetic_parser_on_any_string(field, text):
    got = parse_kind(parse_scalar, text, field)
    assert got == parse_kind(arithmetic_parse_scalar, text, field)
    if isinstance(got, Scalar):
        assert got._v == arithmetic_parse_scalar(text, field)._v


@pytest.mark.parametrize("text", [" " * 100_000 + "x", "1 +" + " " * 100_000], ids=["space-then-x", "sign-then-space"])
def test_long_runs_of_space_are_refused_in_linear_time(text):
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_scalar(text, Z8)
    assert time.perf_counter() - start < 1.0
