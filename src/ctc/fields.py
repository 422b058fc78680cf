"""Exact scalars over the rationals, prime fields, and cyclotomic fields.

Every value is kept in a canonical form so that equality of scalars is
literal equality of representations: prime-field elements are residues in
``[0, p)``, and elements of Q and ``Q(zeta_n)`` are tuples of integer
numerators (``phi(n)`` of them, reduced modulo the n-th cyclotomic
polynomial; one for Q) over one positive common denominator, divided by
their gcd.  All arithmetic is exact and works on integers; an inverse is
the product of the Galois conjugates over the rational norm.  Literals
of Q and Q(zeta_n) are parsed to integer numerators over the lcm of
their denominators.  ``Fraction`` appears only where F_p literals are
parsed, where literals are printed, and in ``Scalar.from_fraction``.

Scalar literals, used by every data file and report, are sums of
integers, fractions ``p/q`` and their multiples of powers of the symbol
``z`` standing for zeta_n, e.g. ``z^2 - 1`` or ``1/2*z + 1/2*z^7``; the
comment on ``_TERM`` states the grammar.  ``parse_scalar`` and
``scalar_literal`` round-trip bit-exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "FieldSpec",
    "Scalar",
    "FieldError",
    "FieldMismatch",
    "DivisionByZero",
    "NoEmbedding",
    "ParseError",
    "parse_scalar",
    "scalar_literal",
]


class FieldError(Exception):
    pass


class FieldMismatch(FieldError):
    pass


class DivisionByZero(FieldError):
    pass


class NoEmbedding(FieldError):
    pass


class ParseError(FieldError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """One of Q, F_p, or Q(zeta_n), identified by kind and parameter.

    ``rational``, ``prime``, ``cyclotomic`` and ``from_json`` return one
    shared instance per field, so a field check is an identity test in
    the common case.  Instances are immutable; equality and hashing see
    (kind, p, n) only, and the hash is computed once because every
    ``Scalar`` hash includes its field's.
    """

    __slots__ = ("kind", "p", "n", "_key", "_hash", "_ctx", "_zero", "_one")

    def __init__(self, kind: str, p: int | None = None, n: int | None = None):
        if kind == "rational":
            if p is not None or n is not None:
                raise ValueError("rational field takes no parameters")
        elif kind == "prime":
            if p is None or not _is_prime(p):
                raise ValueError("prime field needs a prime p, got %r" % (p,))
            if n is not None:
                raise ValueError("prime field takes no n")
        elif kind == "cyclotomic":
            if n is None or n < 1:
                raise ValueError("cyclotomic field needs n >= 1, got %r" % (n,))
            if p is not None:
                raise ValueError("cyclotomic field takes no p")
        else:
            raise ValueError("unknown field kind %r" % (kind,))
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "p", p)
        init(self, "n", n)
        init(self, "_key", (kind, p, n))
        init(self, "_hash", hash(self._key))
        init(self, "_ctx", None if kind == "prime" else _cyclo_ctx(n or 1))
        init(self, "_zero", Scalar.from_int(self, 0))
        init(self, "_one", Scalar.from_int(self, 1))

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def __delattr__(self, name):
        raise AttributeError("FieldSpec is immutable")

    def __eq__(self, other):
        if other.__class__ is not FieldSpec:
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self):
        return self._hash

    @staticmethod
    def rational() -> "FieldSpec":
        return _field("rational", None, None)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return _field("prime", p, None)

    @staticmethod
    def cyclotomic(n: int) -> "FieldSpec":
        return _field("cyclotomic", None, n)

    @property
    def char(self) -> int:
        return self.p if self.kind == "prime" else 0

    @property
    def degree(self) -> int:
        """Dimension over the prime field (phi(n) for cyclotomic)."""
        return self._ctx.phi if self.kind == "cyclotomic" else 1

    @staticmethod
    def from_json(data: dict) -> "FieldSpec":
        try:
            kind = data["kind"]
            if kind == "rational":
                return FieldSpec.rational()
            if kind == "prime":
                return FieldSpec.prime(_json_int(data["p"]))
            if kind == "cyclotomic":
                return FieldSpec.cyclotomic(_json_int(data["n"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError("bad field description %r: %s" % (data, exc)) from None
        raise ParseError("unknown field kind %r" % (kind,))

    def __repr__(self):
        if self.kind == "rational":
            return "Q"
        if self.kind == "prime":
            return "F_%d" % self.p
        return "Q(zeta_%d)" % self.n


def _json_int(value) -> int:
    """A JSON integer as it stands: no float, string or boolean is read as one."""
    if type(value) is not int:
        raise TypeError("%r is not an integer" % (value,))
    return value


@lru_cache(maxsize=None)
def _field(kind: str, p: int | None, n: int | None) -> FieldSpec:
    return FieldSpec(kind, p, n)


# ---------------------------------------------------------------------------
# cyclotomic machinery


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # integer polynomial division, asserting zero remainder; coefficients ascending
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coeff = num[shift + len(den) - 1] // den[-1]
        out[shift] = coeff
        if coeff:
            for i, d in enumerate(den):
                num[shift + i] -= coeff * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending, monic) of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, list(_cyclotomic_poly(d)))
    return tuple(poly)


class _CycloCtx:
    """Integer reduction data for Q(zeta_n); Q uses the one for n = 1.

    ``power_vec[k]`` is x^k mod Phi_n for k < max(n, 2 phi - 1).  Phi_n is
    monic, so these are integer vectors.  ``fold[k - phi]`` lists the
    nonzero (i, c) of x^k for phi <= k < 2 phi - 1, which folds a product
    back onto phi coefficients.  ``conjugates`` has one entry per k coprime
    to n other than 1: the nonzero (i, c) of zeta^(jk) for each j, so it
    maps a vector to its Galois conjugate sigma_k.
    """

    def __init__(self, n: int):
        poly = _cyclotomic_poly(n)
        self.phi = phi = len(poly) - 1
        vecs = [tuple(int(i == k) for i in range(phi)) for k in range(phi)]
        for k in range(phi, max(n, 2 * phi - 1)):
            prev = vecs[-1]
            # x * x^(k-1), with x^phi = -(lower coefficients of Phi_n)
            vecs.append(tuple((prev[i - 1] if i else 0) - prev[-1] * poly[i] for i in range(phi)))
        self.power_vec = vecs
        terms = [[(i, c) for i, c in enumerate(v) if c] for v in vecs]
        self.fold = terms[phi : 2 * phi - 1]
        self.conjugates = [[terms[j * k % n] for j in range(phi)] for k in range(2, n) if gcd(k, n) == 1]
        self.pad = (0,) * (phi - 1)

    def mul(self, a, b) -> list[int]:
        """Product of two integer vectors modulo Phi_n."""
        phi = self.phi
        conv = [0] * (2 * phi - 1)
        nonzero_b = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in nonzero_b:
                    conv[i + j] += x * y
        out = conv[:phi]
        for c, terms in zip(conv[phi:], self.fold):
            if c:
                for i, t in terms:
                    out[i] += c * t
        return out


@lru_cache(maxsize=None)
def _cyclo_ctx(n: int) -> _CycloCtx:
    return _CycloCtx(n)


def _canon(nums, den: int):
    """(nums, den) over a positive den, divided by gcd(den, *nums)."""
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple([c // g for c in nums]), den // g


# ---------------------------------------------------------------------------
# Scalar


class Scalar:
    """An exact field element; always canonical, hashable, immutable.

    A prime-field element is its residue in [0, p).  An element of Q or
    Q(zeta_n) is a pair (nums, den): a tuple of integer numerators, one
    per power of zeta_n below phi(n) (one for Q), over a positive common
    denominator, with gcd(den, *nums) = 1.  Equal elements therefore have
    equal pairs.
    """

    __slots__ = ("field", "_v")

    def __init__(self, field: FieldSpec, value):
        self.field = field
        self._v = value

    # constructors ---------------------------------------------------------

    @staticmethod
    def zero(field: FieldSpec) -> "Scalar":
        return field._zero

    @staticmethod
    def one(field: FieldSpec) -> "Scalar":
        return field._one

    @staticmethod
    def from_int(field: FieldSpec, k: int) -> "Scalar":
        if field.kind == "prime":
            return Scalar(field, k % field.p)
        return Scalar(field, ((k,) + field._ctx.pad, 1))

    @staticmethod
    def from_fraction(field: FieldSpec, q: Fraction) -> "Scalar":
        if field.kind == "prime":
            p = field.p
            if q.denominator % p == 0:
                raise NoEmbedding("denominator %d not invertible mod %d" % (q.denominator, p))
            return Scalar(field, (q.numerator * pow(q.denominator, -1, p)) % p)
        return Scalar(field, ((q.numerator,) + field._ctx.pad, q.denominator))

    # predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        if self.field.kind == "prime":
            return self._v == 0
        return not any(self._v[0])

    def is_one(self) -> bool:
        return self == self.field._one

    # arithmetic -----------------------------------------------------------

    def _check(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            raise TypeError("expected Scalar, got %r" % (other,))
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch("%r vs %r" % (self.field, other.field))

    def __add__(self, other):
        f = self.field
        if other.__class__ is not Scalar or other.field is not f:
            self._check(other)
        if f.kind == "prime":
            return Scalar(f, (self._v + other._v) % f.p)
        (a, da), (b, db) = self._v, other._v
        if not any(b):
            return self
        if not any(a):
            return other
        if da == db:
            nums = [x + y for x, y in zip(a, b)]
            if da == 1:
                return Scalar(f, (tuple(nums), 1))
            return Scalar(f, _canon(nums, da))
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return Scalar(f, _canon([x * sa + y * sb for x, y in zip(a, b)], da * sa))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        if f.kind == "prime":
            return Scalar(f, (-self._v) % f.p)
        nums, den = self._v
        return Scalar(f, (tuple([-c for c in nums]), den))

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not Scalar or other.field is not f:
            self._check(other)
        if f.kind == "prime":
            return Scalar(f, self._v * other._v % f.p)
        one = f._one._v
        if other._v == one or not any(self._v[0]):
            return self
        if self._v == one or not any(other._v[0]):
            return other
        (a, da), (b, db) = self._v, other._v
        ctx = f._ctx
        if ctx.phi == 1:
            x, y = a[0], b[0]
            g1, g2 = gcd(x, db), gcd(y, da)
            return Scalar(f, (((x // g1) * (y // g2),), (da // g2) * (db // g1)))
        return Scalar(f, _canon(ctx.mul(a, b), da * db))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def inverse(self) -> "Scalar":
        """a^-1 = (product of the conjugates sigma_k(a), k != 1) / N(a).

        For the numerator vector x of a, x times its conjugates is the
        integer norm N(x), so the whole computation stays in integers.
        """
        f = self.field
        if self.is_zero():
            raise DivisionByZero("inverse of zero in %r" % (f,))
        if f.kind == "prime":
            return Scalar(f, pow(self._v, -1, f.p))
        nums, den = self._v
        ctx = f._ctx
        # in degree one there are no other conjugates and x is its own norm
        prod, norm = ctx.power_vec[0], nums
        if ctx.conjugates:
            for images in ctx.conjugates:
                conj = [0] * ctx.phi
                for c, terms in zip(nums, images):
                    if c:
                        for i, t in terms:
                            conj[i] += c * t
                prod = ctx.mul(prod, conj)
            norm = ctx.mul(nums, prod)
            if any(norm[1:]) or not norm[0]:
                raise ArithmeticError("conjugate product is not a nonzero rational")
        norm = norm[0]
        if norm < 0:
            norm, prod = -norm, [-c for c in prod]
        return Scalar(f, _canon([den * c for c in prod], norm))

    def scale(self, k: int) -> "Scalar":
        return Scalar.from_int(self.field, k) * self

    def residue(self) -> int:
        """The representative in [0, p) of a prime-field element."""
        if self.field.kind != "prime":
            raise FieldMismatch("residues exist in prime fields only")
        return self._v

    # comparison -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._v == other._v and (self.field is other.field or self.field == other.field)

    def __hash__(self):
        return hash((self.field, self._v))

    def __repr__(self):
        return "Scalar(%r, %s)" % (self.field, scalar_literal(self))


# ---------------------------------------------------------------------------
# literals


# One term of a literal: an optional sign, then ``p``, ``p/q``, ``p*z``,
# ``p/q*z`` or ``z``, where each ``z`` may carry a power ``z^k``.  ``p``, ``q``
# and ``k`` are runs of Unicode decimal digits (``\d``, exactly what ``int``
# reads) and ``z`` is the chosen root of unity.  Space may stand between any
# two tokens, but not inside a digit run.  A literal is one or more terms:
# the first has no ``+``, every later one has a sign.  The space before the
# sign is one run: two runs that can split the same space backtrack
# quadratically on a long run of space followed by a bad character.
_TERM = re.compile(
    r"\s*(?:([+-])\s*)?"
    r"(?:(\d+)\s*(?:/\s*(\d+)\s*)?(?:\*\s*(z)\s*(?:\^\s*(\d+)\s*)?)?"
    r"|(z)\s*(?:\^\s*(\d+)\s*)?)"
)


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    """Parse a scalar literal (grammar at ``_TERM``) in the named field.
    ``z`` is refused outside cyclotomic fields."""
    if not isinstance(text, str):
        raise ParseError("scalar literal must be a string, got %r" % (text,))
    terms = []  # (signed numerator, denominator, power of zeta)
    pos = 0
    while pos < len(text) or not terms:
        m = _TERM.match(text, pos)
        # the first term may not carry +, and every later one must carry a sign
        if m is None or m[1] == ("+" if not terms else None):
            raise ParseError("malformed scalar literal %r at position %d" % (text, pos))
        sign, num, den, z, k, bare_z, bare_k = m.groups()
        z, k = z or bare_z, k or bare_k
        try:
            num, den, power = int(num or 1), int(den or 1), int(k or 1) if z else 0
        except ValueError:  # a digit run longer than int() reads
            raise ParseError("too many digits in scalar literal %r" % (text,)) from None
        if den == 0:
            raise ParseError("zero denominator in %r" % (text,))
        if z and field.kind != "cyclotomic":
            raise ParseError("symbol z is only meaningful in cyclotomic fields (%r)" % (text,))
        terms.append((-num if sign == "-" else num, den, power))
        pos = m.end()
    if field.kind == "prime":
        # each term embeds on its own, so a denominator divisible by p raises
        total = sum(Scalar.from_fraction(field, Fraction(num, den))._v for num, den, _ in terms)
        return Scalar(field, total % field.p)
    # Q and Q(zeta_n): one integer vector over the lcm of the denominators,
    # made canonical once
    ctx = field._ctx
    common = lcm(*(den for _, den, _ in terms))
    total = [0] * ctx.phi
    for num, den, power in terms:
        coeff = num * (common // den)
        for i, c in enumerate(ctx.power_vec[power % field.n if power else 0]):
            if c:
                total[i] += coeff * c
    return Scalar(field, _canon(total, common))


def scalar_literal(s: Scalar) -> str:
    """Canonical literal: round-trips bit-exactly through parse_scalar."""
    if s.field.kind == "prime":
        return str(s._v)
    nums, den = s._v
    parts = []
    for power, c in enumerate(nums):
        if not c:
            continue
        neg = c < 0
        mag = Fraction(-c if neg else c, den)
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
