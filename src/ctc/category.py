"""Skeletal category engine: objects, morphism blocks, structural maps.

A category is described by multiplicity-free fusion data: a finite label
set with unit and duals, fusion triples (a, b, c) meaning c appears in
a x b exactly once, F and R coefficient tables, twists, and pivots.
Fusion multiplicities above one cannot be represented and any attempt to
load them is a hard error.

Objects are multiplicity vectors over the labels; the zero object is
allowed.  A morphism stores one exact matrix per label, shaped
cod.mult(s) x dom.mult(s), as rows of nonzero entries.  Tensor products
of objects are identified with their direct-sum decomposition through a
fixed enumeration: the summands of X (x) Y isotypic to c are the
(a, i, b, j) with c in a (x) b, ordered by x-slot (a, i), then y-slot
(b, j) (slots in label order, copies in order).  So summand (a, i, b, j)
is row t = base + i*step + j of the c-block, with base the row of
(a, 0, b, 0) and step the number of c-summands per copy of a; the tensor
plan of X and Y keeps (base, step) per fusion triple (a, b, c), and
``tensor_mor``, the braiding and the associators place every entry by
that arithmetic.  Every structural morphism below (associator,
braiding, unit maps, evaluation and coevaluation) is a matrix written in
exactly these bases, so composing the matrices composes the diagrams.

The unit is strict for this engine: F entries touching the unit label
must be 1 (enforced at validation), which makes both unit isomorphisms
identity matrices and keeps the triangle identity automatic.

The coherence sweeps check the equations on the F- and R-symbols.  Each
fusion ring compiles its pentagon and hexagon equations once, on its
first sweep, into programs of integer slots (``_Ring``); a category is
checked by filling one value list with its symbols and evaluating every
program.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from pathlib import Path

from . import linalg as la
from . import check_fields, read_json, resolve, strings
from .fields import FieldSpec, ParseError, Scalar, parse_scalar, scalar_literal
from .report import Report

__all__ = [
    "CategoryError",
    "CategoryMismatch",
    "DomainMismatch",
    "FusionDataError",
    "SingularFBlock",
    "CategorySpec",
    "Obj",
    "Mor",
    "tensor_obj",
    "tensor_mor",
    "compose",
    "associator",
    "associator_inv",
    "braiding",
    "twist_mor",
    "categorical_dim",
    "mor_right_inverse",
    "proportionality_scalar",
    "verify_pentagon",
    "verify_hexagon",
    "verify_triangle",
    "verify_zigzag",
    "load_category",
]


class CategoryError(Exception):
    pass


class CategoryMismatch(CategoryError):
    pass


class DomainMismatch(CategoryError):
    pass


class FusionDataError(CategoryError):
    pass


class SingularFBlock(FusionDataError):
    """The recoupling matrix for the outer labels (a, b, c, d) has no inverse."""

    def __init__(self, labels):
        super().__init__("recoupling matrix for %r is not invertible" % (labels,))
        self.labels = labels


class CategorySpec:
    """Immutable fusion data plus derived lookup tables and caches."""

    def __init__(self, name, field, labels, unit, dual, fusion, F=None, R=None, twist=None, pivot=None):
        self.name = name
        self.field = field
        self.labels = tuple(labels)
        self.unit = unit
        self.dual = dict(dual)
        self.fusion = frozenset(tuple(t) for t in fusion)
        self.F = dict(F or {})
        self.R = dict(R or {})
        one = Scalar.one(field)
        self.twist = {lab: one for lab in self.labels}
        self.twist.update(twist or {})
        self.pivot = {lab: one for lab in self.labels}
        self.pivot.update(pivot or {})
        self._index = {lab: k for k, lab in enumerate(self.labels)}
        self._pair_cache = {}
        self._assoc_cache = {}
        self._fmat_inv_cache = {}
        self._dual_scale_cache = None
        self._validate()

    # -- data access --------------------------------------------------

    def admissible(self, a, b, c) -> bool:
        return (a, b, c) in self.fusion

    def channels(self, a, b):
        return self._channels.get((a, b), ())

    def f_symbol(self, a, b, c, d, e, f) -> Scalar:
        return self.F.get((a, b, c, d, e, f), Scalar.one(self.field))

    def r_symbol(self, a, b, c) -> Scalar:
        return self.R.get((a, b, c), Scalar.one(self.field))

    # -- validation ----------------------------------------------------

    def _validate(self):
        if len(set(self.labels)) != len(self.labels):
            raise FusionDataError("duplicate labels")
        if self.unit not in self._index:
            raise FusionDataError("unit %r is not a label" % (self.unit,))
        for lab in self.labels:
            d = self.dual.get(lab)
            if d not in self._index:
                raise FusionDataError("missing or unknown dual for %r" % (lab,))
            if self.dual.get(d) != lab:
                raise FusionDataError("dual map is not an involution at %r" % (lab,))
        for a, b, c in self.fusion:
            for lab in (a, b, c):
                if lab not in self._index:
                    raise FusionDataError("fusion rule uses unknown label %r" % (lab,))
        self._channels = _ring(self.labels, self.fusion).channels
        for lab in self.labels:
            if self.channels(self.unit, lab) != [lab] or self.channels(lab, self.unit) != [lab]:
                raise FusionDataError("unit does not fuse strictly with %r" % (lab,))
            if not self.admissible(lab, self.dual[lab], self.unit):
                raise FusionDataError("missing dual channel for %r" % (lab,))
            for b in self.labels:
                if self.admissible(lab, b, self.unit) and b != self.dual[lab]:
                    raise FusionDataError("unit channel of %r with non-dual %r" % (lab, b))
        unit = self.unit
        for key, val in self.F.items():
            a, b, c, d, e, f = key
            if not (
                self.admissible(a, b, e)
                and self.admissible(e, c, d)
                and self.admissible(b, c, f)
                and self.admissible(a, f, d)
            ):
                raise FusionDataError("F entry on non-admissible index %r" % (key,))
            if val.field != self.field:
                raise FusionDataError("F entry %r in wrong field" % (key,))
            if val.is_zero():
                raise FusionDataError("zero F entry at %r" % (key,))
            if unit in (a, b, c) and not val.is_one():
                raise FusionDataError("unit F entry at %r must be 1" % (key,))
        for key, val in self.R.items():
            if not self.admissible(*key):
                raise FusionDataError("R entry on non-admissible index %r" % (key,))
            if val.field != self.field:
                raise FusionDataError("R entry %r in wrong field" % (key,))
            if val.is_zero():
                raise FusionDataError("zero R entry at %r" % (key,))
        one = Scalar.one(self.field)
        if self.twist[unit] != one or self.pivot[unit] != one:
            raise FusionDataError("twist and pivot must be 1 on the unit")
        for table in (self.twist, self.pivot):
            for lab, val in table.items():
                if lab not in self._index:
                    raise FusionDataError("coefficient for unknown label %r" % (lab,))
                if val.field != self.field or val.is_zero():
                    raise FusionDataError("bad coefficient on %r" % (lab,))

    def __repr__(self):
        return "CategorySpec(%s)" % self.name


class Obj:
    """A multiplicity vector over the labels of one category."""

    __slots__ = ("spec", "mult", "_key")

    def __init__(self, spec: CategorySpec, mult: dict):
        self.spec = spec
        clean = {}
        for lab, m in mult.items():
            if lab not in spec._index:
                raise CategoryError("unknown label %r" % (lab,))
            if m < 0:
                raise CategoryError("negative multiplicity for %r" % (lab,))
            if m:
                clean[lab] = int(m)
        self.mult = clean
        self._key = tuple((lab, clean[lab]) for lab in spec.labels if lab in clean)

    @staticmethod
    def simple(spec, label) -> "Obj":
        return Obj(spec, {label: 1})

    @staticmethod
    def unit(spec) -> "Obj":
        return Obj(spec, {spec.unit: 1})

    def m(self, label) -> int:
        return self.mult.get(label, 0)

    def key(self):
        return self._key

    def slots(self):
        return [(lab, i) for lab in self.spec.labels for i in range(self.m(lab))]

    def labels_present(self):
        return [lab for lab in self.spec.labels if lab in self.mult]

    def is_zero(self) -> bool:
        return not self.mult

    def __eq__(self, other):
        if not isinstance(other, Obj):
            return NotImplemented
        return self.spec is other.spec and self.mult == other.mult

    def __hash__(self):
        return hash((id(self.spec), self.key()))

    def to_json(self) -> dict:
        return {lab: self.mult[lab] for lab in self.labels_present()}

    def __repr__(self):
        if not self.mult:
            return "Obj(0)"
        parts = []
        for lab in self.labels_present():
            m = self.mult[lab]
            parts.append(lab if m == 1 else "%d*%s" % (m, lab))
        return "Obj(%s)" % " + ".join(parts)


def _same_spec(x, y):
    if x.spec is not y.spec:
        raise CategoryMismatch("objects from different categories")


class Mor:
    """Exact label-blocked morphism between two objects of one category.

    ``rows`` holds, for every label carried by both endpoint objects, one
    ``{col: Scalar}`` dict per codomain copy with the nonzero entries of
    that row only; blocks are implicitly zero elsewhere.  Dense matrices
    appear only at the boundary: the constructor takes them, ``block``
    and ``to_json`` give them back.  Instances are treated as immutable.
    """

    __slots__ = ("dom", "cod", "rows")

    def __init__(self, dom: Obj, cod: Obj, blocks: dict):
        """Every given block names a label of the category and is
        cod.m(lab) x dom.m(lab), so ``[]`` is the only block on a label the
        codomain lacks; anything else raises ``DomainMismatch``."""
        _same_spec(dom, cod)
        for lab in blocks:
            if lab not in dom.spec._index:
                raise DomainMismatch("block %r is not on a label of %s" % (lab, dom.spec.name))
        rows = {}
        for lab in dom.spec.labels:
            dm, cm, blk = dom.m(lab), cod.m(lab), blocks.get(lab)
            if blk is None:
                continue
            if len(blk) != cm or any(len(row) != dm for row in blk):
                raise DomainMismatch(
                    "block %r has rows of lengths %s, expected %dx%d" % (lab, [len(row) for row in blk], cm, dm)
                )
            if dm and cm:
                rows[lab] = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in blk]
        self._init(dom, cod, rows)

    def _init(self, dom: Obj, cod: Obj, rows: dict):
        for lab in dom.labels_present():
            if lab not in rows and cod.m(lab):
                rows[lab] = [{} for _ in range(cod.m(lab))]
        self.dom = dom
        self.cod = cod
        self.rows = rows

    @staticmethod
    def from_rows(dom: Obj, cod: Obj, rows: dict) -> "Mor":
        """A morphism from sparse rows, taken over without a copy.

        ``rows`` maps a label carried by both endpoints to one dict per
        codomain copy, holding the nonzero entries of that row by domain
        copy; labels left out are zero.
        """
        _same_spec(dom, cod)
        out = Mor.__new__(Mor)
        out._init(dom, cod, rows)
        return out

    @staticmethod
    def identity(x: Obj) -> "Mor":
        one = Scalar.one(x.spec.field)
        return Mor.from_rows(x, x, {lab: [{i: one} for i in range(m)] for lab, m in x.mult.items()})

    @staticmethod
    def zero(dom: Obj, cod: Obj) -> "Mor":
        return Mor.from_rows(dom, cod, {})

    def block(self, lab):
        """The dense matrix of one label, cod.m(lab) x dom.m(lab)."""
        dm = self.dom.m(lab)
        zero = Scalar.zero(self.dom.spec.field)
        out = [[zero] * dm for _ in range(self.cod.m(lab))]
        for orow, row in zip(out, self.rows.get(lab, ())):
            for j, x in row.items():
                orow[j] = x
        return out

    def is_zero(self) -> bool:
        return not any(row for rows in self.rows.values() for row in rows)

    def scale(self, s: Scalar) -> "Mor":
        if s.is_zero():
            return Mor.zero(self.dom, self.cod)
        # a product of nonzero field elements is nonzero
        return Mor.from_rows(
            self.dom,
            self.cod,
            {lab: [{j: s * x for j, x in row.items()} for row in rows] for lab, rows in self.rows.items()},
        )

    def __add__(self, other: "Mor") -> "Mor":
        self._align(other)
        out = {}
        for lab, rows in self.rows.items():
            out[lab] = new = []
            for row, orow in zip(rows, other.rows[lab]):
                acc = dict(row)
                for j, y in orow.items():
                    acc[j] = acc[j] + y if j in acc else y
                new.append({j: v for j, v in acc.items() if not v.is_zero()})
        return Mor.from_rows(self.dom, self.cod, out)

    def __sub__(self, other: "Mor") -> "Mor":
        return self + -other

    def __neg__(self):
        return self.scale(Scalar.from_int(self.dom.spec.field, -1))

    def _align(self, other: "Mor"):
        if not isinstance(other, Mor):
            raise TypeError("expected Mor")
        if self.dom != other.dom or self.cod != other.cod:
            raise DomainMismatch("morphism endpoints differ")

    def __eq__(self, other):
        if not isinstance(other, Mor):
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod and self.rows == other.rows

    __hash__ = None

    def inverse(self) -> "Mor":
        """Blockwise exact inverse; raises SingularMatrix if not invertible."""
        if self.dom.mult != self.cod.mult:
            raise DomainMismatch("only square morphisms can be inverted")
        field = self.dom.spec.field
        return Mor.from_rows(self.cod, self.dom, {lab: la.inverse(rows, field) for lab, rows in self.rows.items()})

    def to_json(self) -> dict:
        return {
            "dom": self.dom.to_json(),
            "cod": self.cod.to_json(),
            "blocks": {lab: [[scalar_literal(x) for x in row] for row in self.block(lab)] for lab in self.rows},
        }

    def __repr__(self):
        return "Mor(%r -> %r)" % (self.dom, self.cod)


def compose(g: Mor, f: Mor) -> Mor:
    """g after f."""
    if f.dom.spec is not g.dom.spec:
        raise CategoryMismatch("morphisms from different categories")
    if f.cod != g.dom:
        raise DomainMismatch("cannot compose %r after %r" % (g, f))
    rows = {}
    for lab, frows in f.rows.items():
        grows = g.rows.get(lab)
        if grows is not None:
            rows[lab] = la.sparse_mul(grows, frows)
    return Mor.from_rows(f.dom, g.cod, rows)


# ---------------------------------------------------------------------------
# tensor structure


def _tensor_plan(x: Obj, y: Obj):
    """The tensor plan of x (x) y, built once per pair of objects and kept
    in the category: the summand table of ``pair_channels``, the product
    object, and the offsets c -> {(a, b): (base, step)} of each fusion
    triple; summand (a, i, b, j) is row base + i*step + j of the c-table.
    """
    _same_spec(x, y)
    spec = x.spec
    cache_key = (x.key(), y.key())
    hit = spec._pair_cache.get(cache_key)
    if hit is not None:
        return hit
    table = {lab: [] for lab in spec.labels}
    offsets = {lab: {} for lab in spec.labels}
    for a, ma in cache_key[0]:
        steps, fused = {}, []
        for b, mb in cache_key[1]:
            cs = spec.channels(a, b)
            fused.append((b, mb, cs))
            for c in cs:
                steps[c] = steps.get(c, 0) + mb
        for i in range(ma):
            for b, mb, cs in fused:
                for c in cs:
                    rows = table[c]
                    if not i:
                        offsets[c][a, b] = (len(rows), steps[c])
                    for j in range(mb):
                        rows.append((a, i, b, j))
    offsets = {lab: off for lab, off in offsets.items() if off}
    table = {lab: table[lab] for lab in offsets}
    product = Obj(spec, {lab: len(rows) for lab, rows in table.items()})
    plan = spec._pair_cache[cache_key] = (table, product, offsets)
    return plan


def pair_channels(x: Obj, y: Obj):
    """Summand enumeration of x (x) y: label -> ordered list of (a, i, b, j)."""
    return _tensor_plan(x, y)[0]


def tensor_obj(x: Obj, y: Obj) -> Obj:
    """x (x) y; the same object for every call on one pair."""
    return _tensor_plan(x, y)[1]


def tensor_mor(f: Mor, g: Mor) -> Mor:
    """f (x) g in the fixed summand bases of the endpoint tensor products:
    one Kronecker block f_a (x) g_b per fusion triple (a, b, c), placed by
    the offsets of the two plans."""
    if f.dom.spec is not g.dom.spec:
        raise CategoryMismatch("morphisms from different categories")
    _, dom, dom_off = _tensor_plan(f.dom, g.dom)
    _, cod, cod_off = _tensor_plan(f.cod, g.cod)
    one = Scalar.one(dom.spec.field)
    rows = {c: [{} for _ in range(m)] for c, m in cod.key() if c in dom.mult}
    for c, pairs in cod_off.items():
        for (a, b), (rbase, rstep) in pairs.items():
            fa, gb = f.rows.get(a), g.rows.get(b)
            if fa is None or gb is None:
                continue
            cbase, cstep = dom_off[c][a, b]
            out = rows[c]
            for i2, frow in enumerate(fa):
                for j2, grow in enumerate(gb):
                    row = out[rbase + i2 * rstep + j2]
                    for i, x in frow.items():
                        col = cbase + i * cstep
                        for j, y in grow.items():
                            # a factor that is the field's shared one costs no product
                            row[col + j] = x if y is one else y if x is one else x * y
    return Mor.from_rows(dom, cod, rows)


def _f_matrix_inverse(spec: CategorySpec, a, b, c, d):
    """Inverse of the (e, f) recoupling matrix for fixed outer labels."""
    key = (a, b, c, d)
    hit = spec._fmat_inv_cache.get(key)
    if hit is not None:
        if not hit:
            raise SingularFBlock(key)
        return hit
    e_list = [e for e in spec.channels(a, b) if spec.admissible(e, c, d)]
    f_list = [f for f in spec.channels(b, c) if spec.admissible(a, f, d)]
    if len(e_list) != len(f_list):
        raise FusionDataError("recoupling matrix for %r is not square" % (key,))
    # F entries are validated nonzero, so every one is a row entry
    m = [{k: spec.f_symbol(a, b, c, d, e, f) for k, f in enumerate(f_list)} for e in e_list]
    if len(e_list) == 1:
        # a 1x1 block inverts as a scalar; [1] is its own inverse
        x = m[0][0]
        inv = m if x.is_one() else [{0: x.inverse()}]
    else:
        try:
            inv = la.inverse(m, spec.field)
        except la.SingularMatrix:
            # kept as (), so the block is eliminated once however often it is asked for
            spec._fmat_inv_cache[key] = ()
            raise SingularFBlock(key) from None
    result = (e_list, f_list, inv)
    spec._fmat_inv_cache[key] = result
    return result


def _associator(x: Obj, y: Obj, z: Obj, inverse: bool) -> Mor:
    """(x (x) y) (x) z -> x (x) (y (x) z), or its inverse, kept in the category.

    Copies (i, j, l) of (a, b, c) on ((ab)_e c)_d and (a(bc)_f)_d sit at
    column lb + (xb + i*xs + j)*ls + l and row rb + i*rs + yb + j*ys + l,
    from the offsets of (a, b, e), (e, c, d), (b, c, f) and (a, f, d).  Tree
    pairs go by d, a, f, b, c in label order, the order blocks are inverted in.
    """
    _same_spec(x, y)
    _same_spec(y, z)
    spec = x.spec
    cache_key = (inverse, x.key(), y.key(), z.key())
    hit = spec._assoc_cache.get(cache_key)
    if hit is not None:
        return hit
    F, one = spec.F, Scalar.one(spec.field)
    (_, xy, xy_off), (_, yz, yz_off) = _tensor_plan(x, y), _tensor_plan(y, z)
    _, left, left_off = _tensor_plan(xy, z)
    _, right, right_off = _tensor_plan(x, yz)
    dom, cod = (right, left) if inverse else (left, right)
    blocks = {d: [{} for _ in range(m)] for d, m in cod.key() if d in dom.mult}
    for d, blk in blocks.items():
        left_d = left_off[d]
        for (a, f), (rb, rs) in right_off[d].items():
            for (b, c), (yb, ys) in yz_off[f].items():
                if inverse:
                    e_list, f_list, inv = _f_matrix_inverse(spec, a, b, c, d)
                    entries = [(e_list[k], v) for k, v in inv[f_list.index(f)].items()]
                else:
                    # F entries are validated nonzero
                    entries = [(e, F.get((a, b, c, d, e, f), one)) for e in spec.channels(a, b) if (e, c) in left_d]
                ma, mb, mc = x.mult[a], y.mult[b], z.mult[c]
                for e, val in entries:
                    (xb, xs), (lb, ls) = xy_off[e][a, b], left_d[e, c]
                    for i in range(ma):
                        for j in range(mb):
                            for l in range(mc):
                                row, col = rb + i * rs + yb + j * ys + l, lb + (xb + i * xs + j) * ls + l
                                if inverse:
                                    row, col = col, row
                                blk[row][col] = val
    out = spec._assoc_cache[cache_key] = Mor.from_rows(dom, cod, blocks)
    return out


def associator(x: Obj, y: Obj, z: Obj) -> Mor:
    """The isomorphism (x (x) y) (x) z -> x (x) (y (x) z)."""
    return _associator(x, y, z, False)


def associator_inv(x: Obj, y: Obj, z: Obj) -> Mor:
    """The isomorphism x (x) (y (x) z) -> (x (x) y) (x) z.

    Assembled from per-quadruple inverse recoupling matrices rather than
    by inverting the assembled block matrix.
    """
    return _associator(x, y, z, True)


def braiding(x: Obj, y: Obj) -> Mor:
    """The braiding isomorphism x (x) y -> y (x) x."""
    _same_spec(x, y)
    R, one = x.spec.R, Scalar.one(x.spec.field)
    _, dom, dom_off = _tensor_plan(x, y)
    _, cod, cod_off = _tensor_plan(y, x)
    blocks = {c: [{} for _ in range(m)] for c, m in cod.key() if c in dom.mult}
    for c, blk in blocks.items():
        for (a, b), (cbase, cstep) in dom_off[c].items():
            rbase, rstep = cod_off[c][b, a]
            # R entries are validated nonzero
            val = R.get((a, b, c), one)
            for i in range(x.mult[a]):
                for j in range(y.mult[b]):
                    blk[rbase + j * rstep + i][cbase + i * cstep + j] = val
    return Mor.from_rows(dom, cod, blocks)


def _dual_scales(spec: CategorySpec):
    """Per-label coevaluation normalizations making both bent-line moves exact.

    With raw evaluation and coevaluation coefficients 1, the first bent
    line on the simple s is the scalar F^{s s* s}_{s;1,1}; its inverse is
    the evaluation coefficient.  The second bent line is then checked by
    verify_zigzag rather than assumed.
    """
    if spec._dual_scale_cache is None:
        u = spec.unit
        spec._dual_scale_cache = {s: spec.f_symbol(s, spec.dual[s], s, s, u, u).inverse() for s in spec.labels}
    return spec._dual_scale_cache


def twist_mor(x: Obj) -> Mor:
    twist = x.spec.twist
    return Mor.from_rows(x, x, {lab: [{i: twist[lab]} for i in range(m)] for lab, m in x.mult.items()})


def categorical_dim(x: Obj) -> Scalar:
    """Sum of pivotal dimensions over the summands of x.

    On the simple s the loop ev_{s*} (pivot_s (x) 1) coev_s is pivot_s
    times the evaluation coefficient of s*, with coevaluation
    coefficient 1 (``_dual_scales``), so it is read off the symbols.
    """
    spec = x.spec
    scales = _dual_scales(spec)
    total = Scalar.zero(spec.field)
    for lab, m in x.mult.items():
        total = total + (spec.pivot[lab] * scales[spec.dual[lab]]).scale(m)
    return total


def mor_right_inverse(f: Mor) -> Mor | None:
    """A section of f solved blockwise by elimination, or None if f is not surjective."""
    one = Scalar.one(f.dom.spec.field)
    blocks = {}
    for lab in f.cod.labels_present():
        dm = f.dom.m(lab)
        if dm == 0:
            return None
        sol = la.solve(f.rows[lab], [{i: one} for i in range(f.cod.m(lab))], dm)
        if sol is None:
            return None
        blocks[lab] = sol
    return Mor.from_rows(f.cod, f.dom, blocks)


def proportionality_scalar(f: Mor, base: Mor) -> Scalar | None:
    """The scalar c with f = c * base, or None if no such scalar exists."""
    f._align(base)
    zero = Scalar.zero(f.dom.spec.field)
    c = None
    for lab, frows in f.rows.items():
        for frow, brow in zip(frows, base.rows[lab]):
            if not frow.keys() <= brow.keys():
                return None
            for j, y in brow.items():
                x = frow.get(j)
                ratio = zero if x is None else x / y
                if c is None:
                    c = ratio
                elif c != ratio:
                    return None
    return zero if c is None else c


# ---------------------------------------------------------------------------
# coherence checks


class _Ring:
    """Facts of one fusion ring, shared by every category on it.

    A pure function of the labels and the fusion rules: no F, R or
    scalar enters, so the facts hold in every field.
    ``channels[(a, b)]`` lists the c in a x b in label order;
    ``CategorySpec.channels`` reads it.

    ``blocks`` numbers the slots of a value list (see ``_slot_values``)
    and finds the wide outer triples: those with a recoupling block
    larger than 1x1 at some total.  A program lists the equations of one
    pentagon 4-tuple or hexagon triple as pairs (lhs, rhs) of terms, each
    term the tuple of slots whose values multiply.  A ring's first sweep
    compiles the programs of its kind, never its load, and every sweep
    evaluates all of them.
    """

    def __init__(self, labels, fusion):
        self.labels = labels
        self.fusion = fusion
        self._index = {lab: k for k, lab in enumerate(labels)}
        self.ordered_fusion = sorted(fusion, key=self.order)
        self.channels = {}
        for a, b, c in self.ordered_fusion:
            self.channels.setdefault((a, b), []).append(c)

    def order(self, group) -> tuple:
        """Sort key of a tuple of labels: label order, position by position."""
        return tuple(self._index[x] for x in group)

    def _ch(self, a, b):
        return self.channels.get((a, b), ())

    @cached_property
    def blocks(self):
        """(wide, trees, slots, size): the wide outer triples; per outer
        triple, the pairs (d, rows) of the totals d with trees on both
        sides, ``rows[f][e]`` the F slot of
        ((ab)_e c)_d -> (a(bc)_f)_d with e and f in channel order, as
        ``_f_matrix_inverse`` orders its block; the slot of every R and F
        key; and the length of a value list."""
        ch, labels = self._ch, self.labels
        slots = {t: k for k, t in enumerate(self.ordered_fusion, 1)}
        size = len(slots) + 1
        wide, trees = set(), {}
        for a in labels:
            for b in labels:
                for c in labels:
                    e_trees, f_trees = {}, {}
                    for e in ch(a, b):
                        for d in ch(e, c):
                            e_trees.setdefault(d, []).append(e)
                    for f in ch(b, c):
                        for d in ch(a, f):
                            f_trees.setdefault(d, []).append(f)
                    outer = trees[a, b, c] = []
                    for d, es in e_trees.items():
                        fs = f_trees.get(d)
                        if fs is None:
                            continue
                        if len(es) != 1 or len(fs) != 1:
                            wide.add((a, b, c))
                        rows = []
                        for f in fs:
                            row = []
                            for e in es:
                                slots[a, b, c, d, e, f] = size
                                row.append(size)
                                size += 2
                            rows.append(row)
                        outer.append((d, rows))
        return frozenset(wide), trees, slots, size

    @cached_property
    def pentagon_settled(self):
        """Whether every pentagon holds when every F entry is 1, with no
        program: in a pointed ring (one channel per pair) with associative
        rules each side of every pentagon is the one tree
        ((ab)c)d = a(b(cd))."""
        labels = self.labels
        mul = {pair: cs[0] for pair, cs in self.channels.items() if len(cs) == 1}
        return len(mul) == len(labels) ** 2 and all(
            mul[mul[a, b], c] == mul[a, mul[b, c]] for a in labels for b in labels for c in labels
        )

    @cached_property
    def pentagon_programs(self):
        """The programs of the 4-tuples t = (a, b, c, d) in label order:
        for the source tree (((ab)_e c)_f d)_u and the target tree
        (a(b(cd)_g)_h)_u, the lhs F^{ecd}_{u;f,g} F^{abg}_{u;e,h} and the
        rhs terms F^{abc}_{f;e,k} F^{akd}_{u;f,h} F^{bcd}_{h;k,g}.  A
        4-tuple through the unit is left out: its equations pair off term
        by term, and its F entries are 1."""
        fusion, ch, labels, slot = self.fusion, self._ch, self.labels, self.blocks[2]
        unit = next((u for u in labels if all(ch(u, x) == [x] == ch(x, u) for x in labels)), None)
        out = {}
        for t in product(labels, repeat=4):
            if unit in t:
                continue
            a, b, c, d = t
            bc, gh = ch(b, c), [(g, ch(b, g)) for g in ch(c, d)]
            program = []
            for e in ch(a, b):
                for f in ch(e, c):
                    abc = [(k, slot[a, b, c, f, e, k]) for k in bc if (a, k, f) in fusion]
                    for u in ch(f, d):
                        for g, hs in gh:
                            # None when there is no tree through g on the left
                            ecd = slot.get((e, c, d, u, f, g))
                            for h in hs:
                                if (a, h, u) not in fusion:
                                    continue
                                lhs = () if ecd is None else ((ecd, slot[a, b, g, u, e, h]),)
                                rhs = [
                                    (s, slot[a, k, d, u, f, h], slot[b, c, d, h, k, g])
                                    for k, s in abc
                                    if (k, d, h) in fusion
                                ]
                                if lhs or rhs:
                                    program.append((lhs, tuple(rhs)))
            out[t] = tuple(program)
        return out

    @cached_property
    def hexagon_programs(self):
        """The (hexagon-1, hexagon-2) programs of every label triple
        (a, b, c): per total d and tree pair, the two sides of
        ``verify_hexagon``'s equations, a G slot one past the F slot of
        its trees."""
        fusion, ch, labels, slot = self.fusion, self._ch, self.labels, self.blocks[2]
        out = {}
        for a in labels:
            for b in labels:
                for c in labels:
                    hex1, hex2 = [], []
                    for e in ch(a, b):
                        back = (b, a, e) in fusion
                        for d in ch(e, c):
                            for g in ch(c, a):
                                if (b, g, d) not in fusion:
                                    continue
                                lhs = tuple([
                                    (slot[a, b, c, d, e, f], slot[a, f, d], slot[b, c, a, d, f, g])
                                    for f in ch(b, c)
                                    if (a, f, d) in fusion and (f, a, d) in fusion
                                ])
                                mid = back and (a, c, g) in fusion
                                rhs = ((slot[a, b, e], slot[b, a, c, d, e, g], slot[a, c, g]),) if mid else ()
                                if lhs or rhs:
                                    hex1.append((lhs, rhs))
                    for f in ch(b, c):
                        for d in ch(a, f):
                            for g in ch(c, a):
                                if (g, b, d) not in fusion:
                                    continue
                                lhs = tuple([
                                    (slot[a, b, c, d, e, f] + 1, slot[e, c, d], slot[c, a, b, d, g, e] + 1)
                                    for e in ch(a, b)
                                    if (e, c, d) in fusion and (c, e, d) in fusion
                                ])
                                mid = (a, c, g) in fusion and (c, b, f) in fusion
                                rhs = ((slot[b, c, f], slot[a, c, b, d, g, f] + 1, slot[a, c, g]),) if mid else ()
                                if lhs or rhs:
                                    hex2.append((lhs, rhs))
                    out[a, b, c] = (tuple(hex1), tuple(hex2))
        return out

    @cached_property
    def balancing(self):
        """Per fusion triple (a, b, c) in label order: the R slots of
        (a, b, c) and of (b, a, c), the latter 0 (the slot of 1) outside
        the rules, and the positions of a, b and c in the labels."""
        slot, index = {t: k for k, t in enumerate(self.ordered_fusion, 1)}, self._index
        return [
            (slot[a, b, c], slot.get((b, a, c), 0), index[a], index[b], index[c]) for a, b, c in self.ordered_fusion
        ]


@lru_cache(maxsize=8)
def _ring(labels: tuple, fusion: frozenset) -> _Ring:
    """The shared fusion-ring facts of the rules; a few rings are kept."""
    return _Ring(labels, fusion)


def _holds(program, values, one: Scalar, zero: Scalar) -> bool:
    """Whether every equation of a program holds on the slot values: on
    each side, the sum over the terms of the product of their values.  A
    value that is ``one`` itself costs no product."""
    for equation in program:
        sums = []
        for terms in equation:
            total = zero
            for term in terms:
                p = one
                for s in term:
                    x = values[s]
                    if x is not one:
                        p = x if p is one else p * x
                total = p if total is zero else total + p
            sums.append(total)
        left, right = sums
        if left is not right and left != right:
            return False
    return True


def _slot_values(spec: CategorySpec, ring: _Ring, one: Scalar) -> list:
    """The symbols of ``spec`` by slot: 1 at slot 0, the R entries of the
    fusion triples in label order, then every admissible F entry, each
    followed by the entry G of the inverse recoupling block on the same
    trees; an entry 1 is ``one`` itself.  Every G is 1, right for an outer
    triple with only 1x1 blocks of F entries 1; ``_invert_outer`` writes
    the others."""
    _, _, slots, size = ring.blocks
    values = [one] * size
    for table in (spec.R, spec.F):
        for key, val in table.items():
            if val != one:
                values[slots[key]] = val
    return values


def _invert_outer(spec: CategorySpec, values: list, one: Scalar, a, b, c):
    """Write the inverse recoupling blocks of the outer triple (a, b, c)
    into its G slots, an explicit zero where an inverse row has no entry,
    since ``_slot_values`` fills every G slot with 1.  Blocks are
    inverted for the totals d in label order, as ``associator_inv`` does,
    so a singular block raises ``SingularFBlock`` for the same labels."""
    ring = _ring(spec.labels, spec.fusion)
    zero = Scalar.zero(spec.field)
    for d, rows in sorted(ring.blocks[1][a, b, c], key=lambda block: ring._index[block[0]]):
        inv = _f_matrix_inverse(spec, a, b, c, d)[2]
        for slots, row in zip(rows, inv):
            for k, s in enumerate(slots):
                val = row.get(k, zero)
                values[s + 1] = one if val == one else val


def verify_pentagon(spec: CategorySpec) -> Report:
    """The pentagon equation on the F-symbols, for every label 4-tuple.

    ``F^{abc}_{d;e,f}`` is the entry of the associator
    ((ab)_e c)_d -> (a(bc)_f)_d.  Unlisted admissible entries are 1, and
    non-admissible trees contribute nothing.  For labels a, b, c, d, every
    source tree (((ab)_e c)_f d)_u and every target tree (a(b(cd)_g)_h)_u
    must satisfy

        F^{ecd}_{u;f,g} F^{abg}_{u;e,h}
            = sum_k F^{abc}_{f;e,k} F^{akd}_{u;f,h} F^{bcd}_{h;k,g},

    the (g, h; e, f) entry of the two five-term associator composites
    ((ab)c)d -> a(b(cd)).  A 4-tuple with any unequal entry gives one
    failing item, in label order.

    Every 4-tuple not through the unit is evaluated, by its ring's
    program on the slot values of ``spec``.  A pointed ring with
    associative rules needs no program when every F entry is 1
    (``_Ring.pentagon_settled``).
    """
    report = Report()
    one, zero = Scalar.one(spec.field), Scalar.zero(spec.field)
    ring = _ring(spec.labels, spec.fusion)
    if ring.pentagon_settled and all(val.is_one() for val in spec.F.values()):
        return report
    values = _slot_values(spec, ring, one)
    for t, program in ring.pentagon_programs.items():
        if not _holds(program, values, one, zero):
            report.append("pentagon:%s,%s,%s,%s" % t, "fail", witness=list(t))
    return report


def verify_hexagon(spec: CategorySpec) -> Report:
    """Both hexagon equations on the F- and R-symbols, plus ribbon balancing.

    F-symbols follow ``verify_pentagon``; ``R^{ab}_c`` is the braiding
    entry (ab)_c -> (ba)_c.  For labels a, b, c, every total d, and every
    tree pair, hexagon-1 is the (g; e) entry of (ab)c -> b(ca):

        sum_f F^{abc}_{d;e,f} R^{af}_d F^{bca}_{d;f,g}
            = R^{ab}_e F^{bac}_{d;e,g} R^{ac}_g,

    and hexagon-2 the (g; f) entry of a(bc) -> (ca)b, written with the
    entries G^{abc}_{d;f,e} of the inverse recoupling blocks:

        sum_e G^{abc}_{d;f,e} R^{ec}_d G^{cab}_{d;e,g}
            = R^{bc}_f G^{acb}_{d;f,g} R^{ac}_g.

    A singular recoupling block fails hexagon-2 with the witness
    ``{"singular_f": [a, b, c, d]}`` of the first block found singular,
    looking at (c, a, b), then (a, b, c), then (a, c, b), each over the
    totals d in label order.

    Every triple is evaluated, in label order, by its ring's programs on
    the slot values of ``spec``.  Only the wide outer triples and those
    with an F entry other than 1 are inverted, into their G slots, in
    the order the triples read them.
    """
    report = Report()
    one, zero = Scalar.one(spec.field), Scalar.zero(spec.field)
    ring = _ring(spec.labels, spec.fusion)
    values = _slot_values(spec, ring, one)
    pending = {key[:3] for key, val in spec.F.items() if val != one}.union(ring.blocks[0])
    singular = {}
    for t, (hex1, hex2) in ring.hexagon_programs.items():
        a, b, c = t
        # hexagon-2 of t reads G of these outer triples; one that reads a
        # singular block reads no block after it, so the first non-square
        # block read is the one that raises
        witness = None
        for outer in ((c, a, b), t, (a, c, b)):
            if outer in pending:
                pending.discard(outer)
                try:
                    _invert_outer(spec, values, one, *outer)
                except SingularFBlock as exc:
                    singular[outer] = exc.labels
            if outer in singular:
                witness = {"singular_f": list(singular[outer])}
                break
        if not _holds(hex1, values, one, zero):
            report.append("hexagon-1:%s,%s,%s" % t, "fail", witness=list(t))
        if witness is None and not _holds(hex2, values, one, zero):
            witness = list(t)
        if witness is not None:
            report.append("hexagon-2:%s,%s,%s" % t, "fail", witness=witness)
    twist = [spec.twist[lab] for lab in spec.labels]
    for (a, b, c), (r, r_swapped, ia, ib, ic) in zip(ring.ordered_fusion, ring.balancing):
        # R^{ab}_c R^{ba}_c = theta_c / (theta_a theta_b), cleared of the
        # division: twists are nonzero, so both forms agree
        mono = values[r] * values[r_swapped]
        if mono * twist[ia] * twist[ib] != twist[ic]:
            report.append(
                "balancing:%s,%s,%s" % (a, b, c),
                "fail",
                witness={
                    "triple": [a, b, c],
                    "monodromy": scalar_literal(mono),
                    "twist_ratio": scalar_literal(twist[ic] * (twist[ia] * twist[ib]).inverse()),
                },
            )
    return report


def verify_triangle(spec: CategorySpec) -> Report:
    """Unit compatibility on the symbols: the associator (a 1) b -> a (1 b)
    is the identity, so F^{a1b}_{c;a,b} = 1 for every channel c of a (x) b."""
    report = Report()
    u = spec.unit
    for a in spec.labels:
        for b in spec.labels:
            if not all(spec.f_symbol(a, u, b, c, a, b).is_one() for c in spec.channels(a, b)):
                report.append("triangle:%s,%s" % (a, b), "fail", witness=[a, b])
    return report


def verify_zigzag(spec: CategorySpec) -> Report:
    """Both duality moves on every simple label, on the symbols.

    With evaluation coefficient scale_s and coevaluation coefficient 1 on
    the simple s (``_dual_scales``), the first move
    s -> (s s*) s -> s (s* s) -> s is scale_s F^{s s* s}_{s;1,1} and the
    second s* -> s* (s s*) -> (s* s) s* -> s* is scale_s G^{s* s s*}_{s*;1,1},
    G the inverse recoupling block; each must be 1.  A failing move's
    witness is that 1x1 composite as a morphism; a singular recoupling
    block is named as ``associator_inv`` finds it.  Both are read from
    the slot values of ``spec``.
    """
    report = Report()
    one = Scalar.one(spec.field)
    u = spec.unit
    scales = _dual_scales(spec)
    ring = _ring(spec.labels, spec.fusion)
    slots = ring.blocks[2]
    values = _slot_values(spec, ring, one)

    def composite(lab, z):
        x = Obj.simple(spec, lab)
        return Mor(x, x, {lab: [[z]]}).to_json()

    for s in spec.labels:
        sd = spec.dual[s]
        z1 = scales[s] * values[slots[s, sd, s, s, u, u]]
        if not z1.is_one():
            report.append("zigzag-1:%s" % s, "fail", witness=composite(s, z1))
        try:
            _invert_outer(spec, values, one, sd, s, sd)
        except SingularFBlock as exc:
            report.append("zigzag-2:%s" % s, "fail", witness={"singular_f": list(exc.labels)})
            continue
        z2 = scales[s] * values[slots[sd, s, sd, sd, u, u] + 1]
        if not z2.is_one():
            report.append("zigzag-2:%s" % s, "fail", witness=composite(sd, z2))
    return report


# ---------------------------------------------------------------------------
# loading


# resolved path -> ((st_mtime_ns, st_size), spec); a file whose stamp has
# changed since it was read is read again
_CATEGORY_CACHE: dict[Path, tuple[tuple[int, int], CategorySpec]] = {}


def load_category(ref, base_dir=None) -> CategorySpec:
    """Load a category by bundled name or path; repeated loads of an
    unchanged file share the instance."""
    path = resolve("categories", ref, base_dir).resolve()
    try:
        st = path.stat()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None
    stamp = (st.st_mtime_ns, st.st_size)
    hit = _CATEGORY_CACHE.get(path)
    if hit is not None and hit[0] == stamp:
        return hit[1]
    raw = read_json(path)
    spec = category_from_json(raw, name=raw.get("name", path.stem))
    _CATEGORY_CACHE[path] = (stamp, spec)
    return spec


def category_from_json(raw: dict, name: str = "anonymous") -> CategorySpec:
    """A category from its JSON object; a missing key or a field of the
    wrong JSON type is a ``ParseError``."""
    try:
        field = FieldSpec.from_json(raw["field"])
        labels, unit, dual, fusion = raw["labels"], raw["unit"], raw["dual"], raw["fusion"]
    except KeyError as exc:
        raise ParseError("missing category key %s" % (exc,)) from None
    tables = {key: raw.get(key, {}) for key in ("F", "R", "twist", "pivot")}
    checks = [
        ("labels", isinstance(labels, list) and strings(labels), "a list of labels"),
        ("unit", isinstance(unit, str), "a label"),
        ("dual", isinstance(dual, dict) and strings(dual.values()), "an object of labels"),
        ("fusion", isinstance(fusion, list) and all(isinstance(t, list) and strings(t) for t in fusion),
         "a list of label lists"),
    ]
    checks += [(key, isinstance(table, dict), "an object of scalar literals") for key, table in tables.items()]
    check_fields("category", checks)
    fusion_list = [tuple(t) for t in fusion]
    if len(set(fusion_list)) != len(fusion_list):
        raise FusionDataError("fusion multiplicity above one is not supported")
    for t in fusion_list:
        if len(t) != 3:
            raise ParseError("fusion entries must be triples, got %r" % (t,))

    def parse_table(key, arity):
        table = {}
        for k, lit in tables[key].items():
            parts = tuple(k.split(","))
            if len(parts) != arity:
                raise ParseError("%s key %r must have %d labels" % (key, k, arity))
            table[parts] = parse_scalar(lit, field)
        return table

    F = parse_table("F", 6)
    R = parse_table("R", 3)
    twist = {lab: parse_scalar(lit, field) for lab, lit in tables["twist"].items()}
    pivot = {lab: parse_scalar(lit, field) for lab, lit in tables["pivot"].items()}
    return CategorySpec(name, field, labels, unit, dual, fusion_list, F, R, twist, pivot)
