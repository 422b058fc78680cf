"""Exact scalars over the rationals, prime fields, and cyclotomic fields.

Every value is kept in a canonical form so that equality of scalars is
literal equality of representations: prime-field elements are residues in
``[0, p)``, and elements of Q and ``Q(zeta_n)`` are tuples of integer
numerators (``phi(n)`` of them, reduced modulo the n-th cyclotomic
polynomial; one for Q) over one positive common denominator, divided by
their gcd.  All arithmetic is exact and works on integers; an inverse is
the product of the Galois conjugates over the rational norm.  Each field
exposes its sum and product on these raw values (``FieldSpec.add`` and
``mul``), and ``Scalar`` arithmetic calls them.  Products and inverses in
Q(zeta_n) with phi(n) > 1 are memoized per field, with a bound on the
numerators held (``_CycloCtx``).  Literals of Q and Q(zeta_n) are parsed
to integer numerators over the lcm of their denominators, and parses are
memoized on (literal, field).  ``Fraction`` appears only where F_p
literals are parsed, where literals are printed, and in
``Scalar.from_fraction``.

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
    "Error",
    "FieldError",
    "FieldMismatch",
    "DivisionByZero",
    "NoEmbedding",
    "ParseError",
    "parse_scalar",
    "scalar_literal",
]


class Error(Exception):
    """The root of every typed refusal: unreadable data or a failed precondition."""


class FieldError(Error):
    pass


class FieldMismatch(FieldError):
    pass


class DivisionByZero(FieldError):
    pass


class NoEmbedding(FieldError):
    pass


class ParseError(FieldError):
    pass


# the first 13 primes: as Miller-Rabin bases they decide every p below
# psi_13 = _PRIME_BOUND (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981
# the largest n of Q(zeta_n); the slowest such field, n = 499, builds in 0.1 s
_MAX_CYCLOTOMIC_N = 500
# numerators one product or inverse memo of Q(zeta_n) may hold; an entry
# holds phi(n) of them per vector, so larger fields keep fewer entries
_MEMO_CELLS = 1 << 15
# (literal, field) parses kept, more than twice the most distinct pairs one
# benchmark pass parses (29 over seeds 1-12), so no pass evicts
_LITERALS = 128


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p below ``_PRIME_BOUND``."""
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """One of Q, F_p, or Q(zeta_n), identified by kind and parameter.

    ``rational``, ``prime``, ``cyclotomic`` and ``from_json`` return one
    shared instance per field, so a field check is an identity test in
    the common case.  Instances are immutable; equality and hashing see
    (kind, p, n) only, and the hash is computed once because every
    ``Scalar`` hash includes its field's.

    ``add`` and ``mul`` are the field's arithmetic on raw values (see
    ``Scalar.raw``): the residue operations for F_p, ``_pair_sum`` and the
    product of ``_CycloCtx`` for Q and Q(zeta_n).  Both take and give
    canonical values; ``Scalar`` arithmetic calls them too.
    """

    __slots__ = ("kind", "p", "n", "_key", "_hash", "_ctx", "_zero", "_one", "add", "mul")

    def __init__(self, kind: str, p: int | None = None, n: int | None = None):
        if kind == "rational":
            if p is not None or n is not None:
                raise ValueError("rational field takes no parameters")
        elif kind == "prime":
            if p is not None and p >= _PRIME_BOUND:
                raise ValueError("prime field needs p below %d, got %r" % (_PRIME_BOUND, p))
            if p is None or not _is_prime(p):
                raise ValueError("prime field needs a prime p, got %r" % (p,))
            if n is not None:
                raise ValueError("prime field takes no n")
        elif kind == "cyclotomic":
            if n is None or not 1 <= n <= _MAX_CYCLOTOMIC_N:
                raise ValueError("cyclotomic field needs 1 <= n <= %d, got %r" % (_MAX_CYCLOTOMIC_N, n))
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
        ctx = None if kind == "prime" else _CycloCtx(n or 1)
        init(self, "_ctx", ctx)
        if ctx is None:
            init(self, "add", lambda a, b: (a + b) % p)
            init(self, "mul", lambda a, b: a * b % p)
        else:
            init(self, "add", _pair_sum)
            init(self, "mul", _rational_product if ctx.phi == 1 else ctx.product)
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

    ``product`` and ``inverse`` memoize ``_product`` and ``_inverse`` on the
    operands' (nums, den) pairs: a category's symbols are a few roots of
    unity and their rational multiples, so the same products come back.
    A product entry holds three vectors (two operands and the result), an
    inverse entry two, so neither memo holds more than ``_MEMO_CELLS``
    numerators.
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
        self.product = lru_cache(maxsize=_MEMO_CELLS // (3 * phi))(self._product)
        self.inverse = lru_cache(maxsize=_MEMO_CELLS // (2 * phi))(self._inverse)

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

    def _product(self, x, y):
        """The canonical pair of the product of two canonical pairs."""
        (a, da), (b, db) = x, y
        return _canon(self.mul(a, b), da * db)

    def _inverse(self, x):
        """The canonical pair of 1/x for a nonzero canonical pair x:
        (product of the conjugates sigma_k(x), k != 1) / N(x).

        For the numerator vector of x, that vector times its conjugates is
        the integer norm, so the whole computation stays in integers.
        """
        nums, den = x
        prod = self.power_vec[0]
        for images in self.conjugates:
            conj = [0] * self.phi
            for c, terms in zip(nums, images):
                if c:
                    for i, t in terms:
                        conj[i] += c * t
            prod = self.mul(prod, conj)
        norm = self.mul(nums, prod)
        if any(norm[1:]) or not norm[0]:
            raise ArithmeticError("conjugate product is not a nonzero rational")
        norm = norm[0]
        if norm < 0:
            norm, prod = -norm, [-c for c in prod]
        return _canon([den * c for c in prod], norm)


def _canon(nums, den: int):
    """(nums, den) over a positive den, divided by gcd(den, *nums)."""
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple([c // g for c in nums]), den // g


def _pair_sum(x, y):
    """The canonical pair of the sum of two canonical pairs."""
    (a, da), (b, db) = x, y
    if da == db:
        nums = [x + y for x, y in zip(a, b)]
        if da == 1:
            return tuple(nums), 1
        return _canon(nums, da)
    g = gcd(da, db)
    sa, sb = db // g, da // g
    return _canon([x * sa + y * sb for x, y in zip(a, b)], da * sa)


def _rational_product(x, y):
    """The canonical pair of the product of two canonical pairs with one
    numerator: cross-cancelled, so no gcd of the product is needed."""
    ((a,), da), ((b,), db) = x, y
    g1, g2 = gcd(a, db), gcd(b, da)
    return ((a // g1) * (b // g2),), (da // g2) * (db // g1)


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
        a, b = self._v, other._v
        if f.kind != "prime":
            if not any(b[0]):
                return self
            if not any(a[0]):
                return other
        return Scalar(f, f.add(a, b))

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
        a, b = self._v, other._v
        if f.kind != "prime":
            one = f._one._v
            if b == one or not any(a[0]):
                return self
            if a == one or not any(b[0]):
                return other
        return Scalar(f, f.mul(a, b))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def inverse(self) -> "Scalar":
        """a^-1: a residue inverse in F_p, d/c for a rational c/d, and
        otherwise the conjugate product of ``_CycloCtx._inverse``."""
        f = self.field
        if self.is_zero():
            raise DivisionByZero("inverse of zero in %r" % (f,))
        if f.kind == "prime":
            return Scalar(f, pow(self._v, -1, f.p))
        nums, den = self._v
        if not any(nums[1:]):
            # c/den is in lowest terms, so den/c is too once the sign moves up
            c = nums[0]
            return Scalar(f, ((den if c > 0 else -den,) + f._ctx.pad, abs(c)))
        return Scalar(f, f._ctx.inverse(self._v))

    def scale(self, k: int) -> "Scalar":
        return Scalar.from_int(self.field, k) * self

    @property
    def raw(self):
        """The value ``FieldSpec.add`` and ``mul`` take: the residue in
        [0, p) or the (nums, den) pair; ``Scalar(field, raw)`` gives the
        element back."""
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
    ``z`` is refused outside cyclotomic fields.  Parses are memoized on
    (literal, field); a literal that does not parse raises on every call."""
    if not isinstance(text, str):
        # refused before the memo, which would hash it
        raise ParseError("scalar literal must be a string, got %r" % (text,))
    return _parse(text, field)


@lru_cache(maxsize=_LITERALS)
def _parse(text: str, field: FieldSpec) -> Scalar:
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
        value = total % field.p
    else:
        # Q and Q(zeta_n): one integer vector over the lcm of the
        # denominators, made canonical once
        ctx = field._ctx
        common = lcm(*(den for _, den, _ in terms))
        total = [0] * ctx.phi
        for num, den, power in terms:
            coeff = num * (common // den)
            for i, c in enumerate(ctx.power_vec[power % field.n if power else 0]):
                if c:
                    total[i] += coeff * c
        value = _canon(total, common)
    # the shared one and zero, so that data read from files takes the
    # kernels' shortcuts for them
    for shared in (field._one, field._zero):
        if shared._v == value:
            return shared
    return Scalar(field, value)


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
