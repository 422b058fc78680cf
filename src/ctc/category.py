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
the braiding, the associators and the tensor products of morphisms
place every entry by that arithmetic.  A tensor product that only feeds
a composite, like the whisker 1 (x) f, is walked inside the composite
(``compose_tensor``, ``tensor_compose``) and never built.  Every
structural morphism below (associator, braiding, unit maps, evaluation
and coevaluation) is a matrix written in exactly these bases, so
composing the matrices composes the diagrams.

The unit is strict for this engine: F entries touching the unit label
must be 1 (enforced at validation), which makes both unit isomorphisms
identity matrices and keeps the triangle identity automatic.

The coherence sweeps check the equations on the F- and R-symbols, by
the programs the category's fusion ring compiles (``ctc.ring``),
evaluated on raw values in the field's own arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg as la
from . import check_fields, load_file, required, strings
from .fields import Error, FieldSpec, ParseError, Scalar, parse_scalar, scalar_literal
from .report import Report
from .ring import FusionRing, fusion_ring, holds

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
    "compose_tensor",
    "tensor_compose",
    "associator",
    "associator_inv",
    "braiding",
    "categorical_dim",
    "verify_pentagon",
    "verify_hexagon",
    "verify_triangle",
    "verify_zigzag",
    "load_category",
]


class CategoryError(Error):
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
    """Immutable fusion data plus derived lookup tables."""

    def __init__(self, name, field, labels, unit, dual, fusion, F=None, R=None, twist=None, pivot=None):
        self.name = name
        self.field = field
        self.labels = tuple(labels)
        self.unit = unit
        self.dual = dict(dual)
        rules = [tuple(t) for t in fusion]
        self.fusion = frozenset(rules)
        self.F = dict(F or {})
        self.R = dict(R or {})
        one = Scalar.one(field)
        self.twist = {lab: one for lab in self.labels}
        self.twist.update(twist or {})
        self.pivot = {lab: one for lab in self.labels}
        self.pivot.update(pivot or {})
        self._index = {lab: k for k, lab in enumerate(self.labels)}
        self._validate(rules)

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

    def _validate(self, rules):
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
        # in the order given, so the error names one label under any hash seed
        for rule in rules:
            for lab in rule:
                if lab not in self._index:
                    raise FusionDataError("fusion rule uses unknown label %r" % (lab,))
        self._channels = fusion_ring(self.labels, self.fusion).channels
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
        if not isinstance(other, Mor):
            raise TypeError("expected Mor")
        if self.dom != other.dom or self.cod != other.cod:
            raise DomainMismatch("morphism endpoints differ")
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


# Memo sizes: plans, associators and F blocks hold at least twice the
# most entries a benchmark pass makes (48, 19 and 159 over seeds 1-12), so
# no pass evicts; so do the literal memo of ``fields.parse_scalar`` and the
# file memo of ``ctc.load_file``, whose 128 files bound the categories that
# hold a scale table.  A memo tells categories apart by identity.
_PLANS, _ASSOCIATORS, _F_BLOCKS, _SCALES = 1024, 512, 1024, 128


def _tensor_plan(x: Obj, y: Obj):
    """The tensor plan of x (x) y: the summand table of ``pair_channels``,
    the product object, and the offsets c -> {(a, b): (base, step)} of
    each fusion triple; summand (a, i, b, j) is row base + i*step + j of
    the c-table.  Memoized on the object keys, so a hit hashes no ``Obj``.
    """
    _same_spec(x, y)
    return _plan(x.spec, x.key(), y.key())


@lru_cache(maxsize=_PLANS)
def _plan(spec: CategorySpec, xkey: tuple, ykey: tuple):
    table = {lab: [] for lab in spec.labels}
    offsets = {lab: {} for lab in spec.labels}
    for a, ma in xkey:
        steps, fused = {}, []
        for b, mb in ykey:
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
    return table, Obj(spec, {lab: len(rows) for lab, rows in table.items()}), offsets


def pair_channels(x: Obj, y: Obj):
    """Summand enumeration of x (x) y: label -> ordered list of (a, i, b, j)."""
    return _tensor_plan(x, y)[0]


def tensor_obj(x: Obj, y: Obj) -> Obj:
    """x (x) y; every call on one pair shares the object while its plan
    stays in the memo."""
    return _tensor_plan(x, y)[1]


def tensor_mor(f: Mor, g: Mor) -> Mor:
    """f (x) g in the fixed summand bases of the endpoint tensor products:
    ``tensor_compose`` after the identity of the domain."""
    return tensor_compose(f, g, Mor.identity(tensor_obj(f.dom, g.dom)))


def compose_tensor(h: Mor, f: Mor, g: Mor) -> Mor:
    """h after f (x) g, equal to ``compose(h, tensor_mor(f, g))`` without
    building f (x) g: the entry z of h at the summand (a, i, b, j) walks
    row i of f_a and row j of g_b, into the columns the domain plan puts
    them at.  A factor that is the field's shared one costs no product,
    so an identity leg costs none."""
    if f.dom.spec is not g.dom.spec or h.dom.spec is not f.dom.spec:
        raise CategoryMismatch("morphisms from different categories")
    _, dom, dom_off = _tensor_plan(f.dom, g.dom)
    summands, cod, _ = _tensor_plan(f.cod, g.cod)
    if h.dom != cod:
        raise DomainMismatch("cannot compose %r after %r (x) %r" % (h, f, g))
    one, frows, grows, rows = Scalar.one(dom.spec.field), f.rows, g.rows, {}
    for c, hrows in h.rows.items():
        off, table = dom_off.get(c), summands[c]
        if off is None:
            continue
        rows[c] = out = []
        for hrow in hrows:
            acc, met = {}, False
            for t, z in hrow.items():
                a, i2, b, j2 = table[t]
                fa, gb = frows.get(a), grows.get(b)
                if fa is None or gb is None or not (fa[i2] and gb[j2]):
                    continue
                base, step = off[a, b]
                grow = gb[j2]
                for i, x in fa[i2].items():
                    zx = x if z is one else z if x is one else z * x
                    col = base + i * step
                    for j, y in grow.items():
                        p = zx if y is one else y if zx is one else zx * y
                        v = acc.get(col + j)
                        if v is None:
                            acc[col + j] = p
                        else:
                            acc[col + j] = v + p
                            met = True
            out.append({k: v for k, v in acc.items() if not v.is_zero()} if met else acc)
    return Mor.from_rows(dom, h.cod, rows)


def tensor_compose(f: Mor, g: Mor, h: Mor) -> Mor:
    """f (x) g after h, equal to ``compose(tensor_mor(f, g), h)`` without
    building f (x) g: the row of the summand (a, i, b, j) walks row i of
    f_a and row j of g_b over the rows of h the domain plan puts them at,
    with the products of ``compose_tensor``."""
    if f.dom.spec is not g.dom.spec or h.dom.spec is not f.dom.spec:
        raise CategoryMismatch("morphisms from different categories")
    _, dom, dom_off = _tensor_plan(f.dom, g.dom)
    summands, cod, _ = _tensor_plan(f.cod, g.cod)
    if h.cod != dom:
        raise DomainMismatch("cannot compose %r (x) %r after %r" % (f, g, h))
    one, frows, grows, rows = Scalar.one(cod.spec.field), f.rows, g.rows, {}
    for c, hrows in h.rows.items():
        off, table = dom_off[c], summands.get(c)
        if table is None:
            continue
        rows[c] = out = []
        for a, i2, b, j2 in table:
            acc, met = {}, False
            fa, gb = frows.get(a), grows.get(b)
            if fa is not None and gb is not None and fa[i2] and gb[j2]:
                base, step = off[a, b]
                grow = gb[j2]
                for i, x in fa[i2].items():
                    col = base + i * step
                    for j, y in grow.items():
                        xy = x if y is one else y if x is one else x * y
                        for k, z in hrows[col + j].items():
                            p = xy if z is one else z if xy is one else xy * z
                            v = acc.get(k)
                            if v is None:
                                acc[k] = p
                            else:
                                acc[k] = v + p
                                met = True
            out.append({k: v for k, v in acc.items() if not v.is_zero()} if met else acc)
    return Mor.from_rows(h.dom, cod, rows)


def _f_matrix_inverse(spec: CategorySpec, a, b, c, d):
    """(e_list, f_list, inverse) of the (e, f) recoupling matrix for fixed
    outer labels; ``SingularFBlock`` if it has no inverse."""
    block = _f_block_inverse(spec, a, b, c, d)
    if block is None:
        raise SingularFBlock((a, b, c, d))
    return block


@lru_cache(maxsize=_F_BLOCKS)
def _f_block_inverse(spec: CategorySpec, a, b, c, d):
    """The memo behind ``_f_matrix_inverse``; None for a singular block."""
    e_list = [e for e in spec.channels(a, b) if spec.admissible(e, c, d)]
    f_list = [f for f in spec.channels(b, c) if spec.admissible(a, f, d)]
    if len(e_list) != len(f_list):
        raise FusionDataError("recoupling matrix for %r is not square" % ((a, b, c, d),))
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
            return None
    return e_list, f_list, inv


@lru_cache(maxsize=_ASSOCIATORS)
def _associator(x: Obj, y: Obj, z: Obj, inverse: bool) -> Mor:
    """(x (x) y) (x) z -> x (x) (y (x) z), or its inverse, memoized.

    Copies (i, j, l) of (a, b, c) on ((ab)_e c)_d and (a(bc)_f)_d sit at
    column lb + (xb + i*xs + j)*ls + l and row rb + i*rs + yb + j*ys + l,
    from the offsets of (a, b, e), (e, c, d), (b, c, f) and (a, f, d).  Tree
    pairs go by d, a, f, b, c in label order, the order blocks are inverted in.
    """
    _same_spec(x, y)
    _same_spec(y, z)
    spec = x.spec
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
    return Mor.from_rows(dom, cod, blocks)


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
    blocks = {c: [{} for _ in range(m)] for c, m in cod.key()}
    for c, pairs in dom_off.items():
        swapped, blk = cod_off.get(c, {}), blocks.get(c)
        for (a, b), (cbase, cstep) in pairs.items():
            if (b, a) not in swapped:
                raise _noncommuting(a, b, c)
            rbase, rstep = swapped[b, a]
            # R entries are validated nonzero
            val = R.get((a, b, c), one)
            for i in range(x.mult[a]):
                for j in range(y.mult[b]):
                    blk[rbase + j * rstep + i][cbase + i * cstep + j] = val
    if dom != cod:
        # every summand of x (x) y has its partner, so one of y (x) x has none
        raise _noncommuting(
            *next((b, a, c) for c, pairs in cod_off.items() for b, a in pairs if (a, b) not in dom_off.get(c, ()))
        )
    return Mor.from_rows(dom, cod, blocks)


def _noncommuting(a, b, c) -> FusionDataError:
    return FusionDataError("fusion does not commute: %r (x) %r holds %r, %r (x) %r does not" % (a, b, c, b, a))


@lru_cache(maxsize=_SCALES)
def _dual_scales(spec: CategorySpec):
    """Per-label evaluation coefficients scale_s, with coevaluation
    coefficient 1.  With raw coefficients 1, the first bent line on the
    simple s is the scalar F^{s s* s}_{s;1,1}; scale_s is its inverse, so
    the first move is 1 by definition.  The second move is not free:
    ``_second_move`` reads it.  Memoized per category; no caller writes
    to the table."""
    u = spec.unit
    return {s: spec.f_symbol(s, spec.dual[s], s, s, u, u).inverse() for s in spec.labels}


def _second_move(spec: CategorySpec, s) -> Scalar:
    """The second duality move s* -> s* (s s*) -> (s* s) s* -> s* on the
    simple s, scale_s G^{s* s s*}_{s*;1,1} with G the inverse recoupling
    block; ``SingularFBlock`` if that block has no inverse."""
    sd, u = spec.dual[s], spec.unit
    e_list, f_list, inv = _f_matrix_inverse(spec, sd, s, sd, sd)
    g = inv[f_list.index(u)].get(e_list.index(u), Scalar.zero(spec.field))
    return g * spec.f_symbol(s, sd, s, s, u, u).inverse()


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


# ---------------------------------------------------------------------------
# coherence checks


def _raw_ops(field: FieldSpec) -> tuple:
    """The ``ops`` of ``ring.holds`` on raw values (``Scalar.raw``): the
    field's ``mul`` and ``add``, and its raw one and zero."""
    return field.mul, field.add, Scalar.one(field).raw, Scalar.zero(field).raw


def _slot_values(spec: CategorySpec, ring: FusionRing) -> list:
    """The raw symbols of ``spec`` by slot: 1 at slot 0, the R entries of
    the fusion triples in label order, then every admissible F entry; an
    entry 1 is the field's raw one itself."""
    _, slots, size = ring.blocks
    one = Scalar.one(spec.field).raw
    values = [one] * size
    for table in (spec.R, spec.F):
        for key, val in table.items():
            x = val.raw
            if x != one:
                values[slots[key]] = x
    return values


def _singular_block(spec: CategorySpec, ring: FusionRing, outer: tuple):
    """The labels (a, b, c, d) of the first singular recoupling block of
    the outer triple (a, b, c), over its totals d in label order as
    ``associator_inv`` inverts them, or None.  F entries are nonzero, so
    only a wide outer triple can have one; a non-square block raises."""
    for d in ring.blocks[0].get(outer, ()):
        try:
            _f_matrix_inverse(spec, *outer, d)
        except SingularFBlock as exc:
            return exc.labels
    return None


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
    (``FusionRing.pentagon_settled``).
    """
    report = Report()
    ring = fusion_ring(spec.labels, spec.fusion)
    if ring.pentagon_settled and all(val.is_one() for val in spec.F.values()):
        return report
    values, ops = _slot_values(spec, ring), _raw_ops(spec.field)
    for t, program in ring.pentagon_programs.items():
        if not holds(program, values, ops):
            report.append("pentagon:%s,%s,%s,%s" % t, "fail", witness=list(t))
    return report


def verify_hexagon(spec: CategorySpec) -> Report:
    """Both hexagon equations on the F- and R-symbols, plus ribbon balancing.

    F-symbols follow ``verify_pentagon``; ``R^{ab}_c`` is the braiding
    entry (ab)_c -> (ba)_c.  For labels a, b, c, every total d, and every
    tree pair, hexagon-1 is the (g; e) entry of (ab)c -> b(ca):

        sum_f F^{abc}_{d;e,f} R^{af}_d F^{bca}_{d;f,g}
            = R^{ab}_e F^{bac}_{d;e,g} R^{ac}_g,

    and hexagon-2, the (g; f) entry of a(bc) -> (ca)b, is hexagon-1 of
    (c, a, b) for the reverse braiding R'^{xy}_z = 1 / R^{yx}_z:

        sum_e F^{cab}_{d;g,e} R'^{ce}_d F^{abc}_{d;e,f}
            = R'^{ca}_g F^{acb}_{d;g,f} R'^{cb}_f.

    On commuting fusion rules, as a braiding's are, each side is per total
    d the inverse of a side of the form with the entries G^{abc}_{d;f,e}
    of the inverse recoupling blocks,

        sum_e G^{abc}_{d;f,e} R^{ec}_d G^{cab}_{d;e,g}
            = R^{bc}_f G^{acb}_{d;f,g} R^{ac}_g,

    so the two forms hold together once the blocks of (c, a, b), (a, b, c)
    and (a, c, b) are invertible; on 1x1 blocks they agree equation by
    equation.  A singular recoupling block fails hexagon-2 with the
    witness ``{"singular_f": [a, b, c, d]}`` of the first block found
    singular, looking at (c, a, b), then (a, b, c), then (a, c, b), each
    over the totals d in label order.

    Every triple is evaluated, in label order, by its ring's program:
    on the slot values of ``spec`` for hexagon-1, and on the values of the
    reverse braiding for hexagon-2.  Only the wide outer triples are
    inverted, and only to find their singular blocks.
    """
    report = Report()
    field = spec.field
    ops = _raw_ops(field)
    mul, _, one, _ = ops
    ring = fusion_ring(spec.labels, spec.fusion)
    values = _slot_values(spec, ring)
    reverse = list(values)
    for r, r_swapped, *_ in ring.balancing:
        x = values[r_swapped]
        reverse[r] = x if x is one else Scalar(field, x).inverse().raw
    programs, wide, singular = ring.hexagon_programs, ring.blocks[0], {}
    for t, program in programs.items():
        a, b, c = t
        if not holds(program, values, ops):
            report.append("hexagon-1:%s,%s,%s" % t, "fail", witness=list(t))
        # a triple that reads a singular block reads no block after it, so
        # the first non-square block read is the one that raises; each
        # outer triple is scanned once, where it is first read
        witness = None
        for outer in ((c, a, b), t, (a, c, b)):
            if outer in wide:
                if outer not in singular:
                    singular[outer] = _singular_block(spec, ring, outer)
                if singular[outer] is not None:
                    witness = {"singular_f": list(singular[outer])}
                    break
        if witness is None and not holds(programs[c, a, b], reverse, ops):
            witness = list(t)
        if witness is not None:
            report.append("hexagon-2:%s,%s,%s" % t, "fail", witness=witness)
    twist = [spec.twist[lab].raw for lab in spec.labels]
    for (a, b, c), (r, r_swapped, ia, ib, ic) in zip(ring.ordered_fusion, ring.balancing):
        # R^{ab}_c R^{ba}_c = theta_c / (theta_a theta_b), cleared of the
        # division: twists are nonzero, so both forms agree
        mono = mul(values[r], values[r_swapped])
        if mul(mul(mono, twist[ia]), twist[ib]) != twist[ic]:
            theta = spec.twist
            report.append(
                "balancing:%s,%s,%s" % (a, b, c),
                "fail",
                witness={
                    "triple": [a, b, c],
                    "monodromy": scalar_literal(Scalar(field, mono)),
                    "twist_ratio": scalar_literal(theta[c] * (theta[a] * theta[b]).inverse()),
                },
            )
    return report


def verify_triangle(spec: CategorySpec) -> Report:
    """Unit compatibility on the symbols: the associator (a 1) b -> a (1 b)
    is the identity, so F^{a1b}_{c;a,b} = 1 for every channel c of a (x) b.
    ``CategorySpec._validate`` refuses any F entry through the unit other
    than 1, so this holds for every category and the report is empty."""
    return Report()


def verify_zigzag(spec: CategorySpec) -> Report:
    """Both duality moves on every simple label, on the symbols.

    The first move is 1 on every label by the choice of evaluation
    coefficients (``_dual_scales``); the second (``_second_move``) must be
    1, and it is the move evaluated here.  A failing move's witness is
    that 1x1 composite as a morphism; a singular recoupling block of
    (s*, s, s*) is named as ``verify_hexagon`` and ``associator_inv`` find it.
    """
    report = Report()
    ring = fusion_ring(spec.labels, spec.fusion)
    for s in spec.labels:
        sd = spec.dual[s]
        labels = _singular_block(spec, ring, (sd, s, sd))
        if labels is not None:
            report.append("zigzag-2:%s" % s, "fail", witness={"singular_f": list(labels)})
            continue
        z2 = _second_move(spec, s)
        if not z2.is_one():
            x = Obj.simple(spec, sd)
            report.append("zigzag-2:%s" % s, "fail", witness=Mor(x, x, {sd: [[z2]]}).to_json())
    return report


# ---------------------------------------------------------------------------
# loading


def load_category(ref, base_dir=None) -> CategorySpec:
    """A category by bundled name or path, one instance per file (``ctc.load_file``)."""
    return load_file("categories", ref, base_dir, lambda raw, name, _: category_from_json(raw, name=name))


def category_from_json(raw: dict, name: str = "anonymous") -> CategorySpec:
    """A category from its JSON object; a missing key or a field of the
    wrong JSON type is a ``ParseError``."""
    field, labels, unit, dual, fusion = required("category", raw, "field", "labels", "unit", "dual", "fusion")
    field = FieldSpec.from_json(field)
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
