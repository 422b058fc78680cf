"""Exact scalars over the rationals, prime fields, and cyclotomic fields.

Every value is kept in a canonical form so that equality of scalars is
literal equality of representations: rationals are reduced ``Fraction``s,
prime-field elements are residues in ``[0, p)``, and elements of
``Q(zeta_n)`` are coefficient vectors of length ``phi(n)`` reduced modulo
the n-th cyclotomic polynomial.  All arithmetic is exact.  ``approx``
produces a floating-point rendering for display only; nothing downstream
computes with it.

Scalar literals, used by every data file and report, are integers,
fractions ``p/q``, and polynomials in the symbol ``z`` standing for
zeta_n, e.g. ``z^2 - 1`` or ``1/2*z + 1/2*z^7``.  ``parse_scalar`` and
``scalar_literal`` round-trip bit-exactly.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "FieldSpec",
    "Scalar",
    "FieldError",
    "FieldMismatch",
    "DivisionByZero",
    "NoEmbedding",
    "ParseError",
    "scalar_arith",
    "scalar_inverse",
    "scalar_embed",
    "parse_scalar",
    "scalar_literal",
    "approx",
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


@dataclass(frozen=True)
class FieldSpec:
    """One of Q, F_p, or Q(zeta_n), identified by kind and parameter."""

    kind: str
    p: int | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind == "rational":
            if self.p is not None or self.n is not None:
                raise ValueError("rational field takes no parameters")
        elif self.kind == "prime":
            if self.p is None or not _is_prime(self.p):
                raise ValueError("prime field needs a prime p, got %r" % (self.p,))
            if self.n is not None:
                raise ValueError("prime field takes no n")
        elif self.kind == "cyclotomic":
            if self.n is None or self.n < 1:
                raise ValueError("cyclotomic field needs n >= 1, got %r" % (self.n,))
            if self.p is not None:
                raise ValueError("cyclotomic field takes no p")
        else:
            raise ValueError("unknown field kind %r" % (self.kind,))

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec("rational")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("prime", p=p)

    @staticmethod
    def cyclotomic(n: int) -> "FieldSpec":
        return FieldSpec("cyclotomic", n=n)

    @property
    def char(self) -> int:
        return self.p if self.kind == "prime" else 0

    @property
    def degree(self) -> int:
        """Dimension over the prime field (phi(n) for cyclotomic)."""
        if self.kind == "cyclotomic":
            return _cyclo_ctx(self.n).phi
        return 1

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        if self.kind == "prime":
            return {"kind": "prime", "p": self.p}
        return {"kind": "cyclotomic", "n": self.n}

    @staticmethod
    def from_json(data: dict) -> "FieldSpec":
        try:
            kind = data["kind"]
            if kind == "rational":
                return FieldSpec.rational()
            if kind == "prime":
                return FieldSpec.prime(int(data["p"]))
            if kind == "cyclotomic":
                return FieldSpec.cyclotomic(int(data["n"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError("bad field description %r: %s" % (data, exc)) from None
        raise ParseError("unknown field kind %r" % (kind,))

    def __repr__(self):
        if self.kind == "rational":
            return "Q"
        if self.kind == "prime":
            return "F_%d" % self.p
        return "Q(zeta_%d)" % self.n


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
    """Cached reduction data for Q(zeta_n): phi(n) and x^k mod Phi_n tables."""

    def __init__(self, n: int):
        self.n = n
        self.poly = _cyclotomic_poly(n)
        self.phi = len(self.poly) - 1
        # power_vec[k] = coefficient vector of x^k mod Phi_n for k in [0, max(n, 2*phi-1))
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
                # x^phi = -(lower coefficients of Phi_n)
                for i in range(self.phi):
                    shifted[i] -= lead * self.poly[i]
            vecs.append(tuple(shifted))
        self.power_vec = vecs

    def reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
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


@lru_cache(maxsize=None)
def _cyclo_ctx(n: int) -> _CycloCtx:
    return _CycloCtx(n)


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


# ---------------------------------------------------------------------------
# Scalar


class Scalar:
    """An exact field element; always canonical, hashable, immutable."""

    __slots__ = ("field", "_v")

    def __init__(self, field: FieldSpec, value):
        self.field = field
        self._v = value

    # constructors ---------------------------------------------------------

    @staticmethod
    def zero(field: FieldSpec) -> "Scalar":
        return Scalar.from_fraction(field, Fraction(0))

    @staticmethod
    def one(field: FieldSpec) -> "Scalar":
        return Scalar.from_fraction(field, Fraction(1))

    @staticmethod
    def from_int(field: FieldSpec, k: int) -> "Scalar":
        return Scalar.from_fraction(field, Fraction(k))

    @staticmethod
    def from_fraction(field: FieldSpec, q: Fraction) -> "Scalar":
        if field.kind == "rational":
            return Scalar(field, q)
        if field.kind == "prime":
            p = field.p
            if q.denominator % p == 0:
                raise NoEmbedding("denominator %d not invertible mod %d" % (q.denominator, p))
            return Scalar(field, (q.numerator * pow(q.denominator, -1, p)) % p)
        ctx = _cyclo_ctx(field.n)
        v = [Fraction(0)] * ctx.phi
        v[0] = q
        return Scalar(field, tuple(v))

    @staticmethod
    def zeta(field: FieldSpec, k: int = 1) -> "Scalar":
        """zeta_n^k in Q(zeta_n)."""
        if field.kind != "cyclotomic":
            raise FieldMismatch("zeta lives in cyclotomic fields only")
        ctx = _cyclo_ctx(field.n)
        return Scalar(field, tuple(ctx.power_vec[k % field.n]))

    # predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        if self.field.kind == "cyclotomic":
            return all(c == 0 for c in self._v)
        return self._v == 0

    def is_one(self) -> bool:
        return self == Scalar.one(self.field)

    # arithmetic -----------------------------------------------------------

    def _check(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            raise TypeError("expected Scalar, got %r" % (other,))
        if other.field != self.field:
            raise FieldMismatch("%r vs %r" % (self.field, other.field))

    def __add__(self, other):
        self._check(other)
        k = self.field.kind
        if k == "rational":
            return Scalar(self.field, self._v + other._v)
        if k == "prime":
            return Scalar(self.field, (self._v + other._v) % self.field.p)
        return Scalar(self.field, tuple(a + b for a, b in zip(self._v, other._v)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        k = self.field.kind
        if k == "rational":
            return Scalar(self.field, -self._v)
        if k == "prime":
            return Scalar(self.field, (-self._v) % self.field.p)
        return Scalar(self.field, tuple(-a for a in self._v))

    def __mul__(self, other):
        self._check(other)
        k = self.field.kind
        if k == "rational":
            return Scalar(self.field, self._v * other._v)
        if k == "prime":
            return Scalar(self.field, (self._v * other._v) % self.field.p)
        ctx = _cyclo_ctx(self.field.n)
        conv = [Fraction(0)] * (2 * ctx.phi - 1)
        for i, a in enumerate(self._v):
            if not a:
                continue
            for j, b in enumerate(other._v):
                if b:
                    conv[i + j] += a * b
        return Scalar(self.field, ctx.reduce(conv))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero in %r" % (self.field,))
        k = self.field.kind
        if k == "rational":
            return Scalar(self.field, 1 / self._v)
        if k == "prime":
            return Scalar(self.field, pow(self._v, -1, self.field.p))
        ctx = _cyclo_ctx(self.field.n)
        g, s = _poly_xgcd(list(self._v), [Fraction(c) for c in ctx.poly])
        # Phi_n is irreducible over Q, so g is a nonzero constant
        while g and not g[-1]:
            g.pop()
        if len(g) != 1:
            raise ArithmeticError("gcd with cyclotomic polynomial not constant")
        inv_g = 1 / g[0]
        s = _poly_mod([c * inv_g for c in s], [Fraction(c) for c in ctx.poly])
        s = s + [Fraction(0)] * (ctx.phi - len(s))
        return Scalar(self.field, ctx.reduce(s))

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
        return self.field == other.field and self._v == other._v

    def __hash__(self):
        return hash((self.field, self._v))

    def __repr__(self):
        return "Scalar(%r, %s)" % (self.field, scalar_literal(self))


def scalar_arith(op: str, x: Scalar, y: Scalar) -> Scalar:
    """Named dispatch kept for callers that carry the operation as data."""
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        return x / y
    raise ValueError("unknown op %r" % (op,))


def scalar_inverse(x: Scalar) -> Scalar:
    return x.inverse()


def scalar_embed(x: Scalar, target: FieldSpec) -> Scalar:
    """Move x along the canonical embedding into target, or raise NoEmbedding.

    Embeddings supported: Q into anything, Q(zeta_m) into Q(zeta_n) when
    m divides n (zeta_m goes to zeta_n^(n/m)), and identity embeddings.
    """
    src = x.field
    if src == target:
        return x
    if src.kind == "rational":
        return Scalar.from_fraction(target, x._v)
    if src.kind == "cyclotomic" and target.kind == "cyclotomic" and target.n % src.n == 0:
        step = target.n // src.n
        ctx = _cyclo_ctx(target.n)
        acc = [Fraction(0)] * ctx.phi
        for j, c in enumerate(x._v):
            if not c:
                continue
            pv = ctx.power_vec[(j * step) % target.n]
            for i in range(ctx.phi):
                if pv[i]:
                    acc[i] += c * pv[i]
        return Scalar(target, tuple(acc))
    raise NoEmbedding("no canonical embedding %r -> %r" % (src, target))


# ---------------------------------------------------------------------------
# literals


def _tokenize(text: str):
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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r at position %d in %r" % (ch, i, text))
    return tokens


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    """Parse a scalar literal in the named field.

    Grammar: sum of terms, each ``coeff``, ``z^k``, or ``coeff*z^k``, with
    ``coeff`` an integer or fraction ``p/q``.  ``z`` is rejected outside
    cyclotomic fields.
    """
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
        if not tok.isdigit():
            raise ParseError("expected number at position %d in %r" % (at, text))
        num = int(tok)
        if peek() == "/":
            take()
            tok2, at2 = take()
            if not tok2.isdigit():
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
            if not tok2.isdigit():
                raise ParseError("expected exponent at position %d in %r" % (at2, text))
            return int(tok2)
        return 1

    total = Scalar.zero(field)
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
        term = Scalar.from_fraction(field, sign * coeff)
        if power:
            term = term * Scalar.zeta(field, power)
        total = total + term
    return total


def _frac_str(q: Fraction) -> str:
    return str(q)


def scalar_literal(s: Scalar) -> str:
    """Canonical literal: round-trips bit-exactly through parse_scalar."""
    k = s.field.kind
    if k == "rational":
        return _frac_str(s._v)
    if k == "prime":
        return str(s._v)
    parts = []
    for power, c in enumerate(s._v):
        if not c:
            continue
        neg = c < 0
        mag = -c if neg else c
        if power == 0:
            body = _frac_str(mag)
        else:
            zp = "z" if power == 1 else "z^%d" % power
            body = zp if mag == 1 else "%s*%s" % (_frac_str(mag), zp)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts) if parts else "0"


def approx(s: Scalar) -> complex | float:
    """Display-only numeric rendering; never feeds back into computation."""
    k = s.field.kind
    if k == "rational":
        return float(s._v)
    if k == "prime":
        return float(s._v)
    z = cmath.exp(2j * cmath.pi / s.field.n)
    acc = 0j
    for power, c in enumerate(s._v):
        if c:
            acc += float(c) * z**power
    return acc
