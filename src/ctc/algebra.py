"""Algebra objects inside a category: axioms, counits, pairings, index.

An algebra here is a carrier object together with a unit map from the
tensor unit and a multiplication map from the tensor square, both given
as exact block morphisms.  Everything downstream (module theory,
averaging, condensation) consumes this structure; nothing in this module
assumes the algebra is honest, the checks exist precisely to find out.
"""

from __future__ import annotations

from . import linalg as la
from . import check_fields, read_json, resolve, strings
from .category import (
    CategorySpec,
    _dual_scales,
    _tensor_plan,
    Mor,
    Obj,
    associator,
    associator_inv,
    braiding,
    compose,
    load_category,
    pair_channels,
    proportionality_scalar,
    tensor_mor,
    tensor_obj,
    twist_mor,
)
from .fields import ParseError, Scalar, parse_scalar
from .report import Report

__all__ = [
    "AlgebraError",
    "UnitMultiplicityNotOne",
    "NotRigidSelfDual",
    "NotScalarMultiple",
    "InvalidGroupTable",
    "NotIsotropic",
    "AlgebraObject",
    "check_algebra",
    "make_counit",
    "solve_coevaluation",
    "frobenius_kit",
    "compute_index",
    "frobenius_identity_check",
    "algebra_dim_with_twist",
    "Group",
    "load_group",
    "group_algebra",
    "subgroup_algebra",
    "load_algebra",
    "algebra_from_json",
]


class AlgebraError(Exception):
    pass


class UnitMultiplicityNotOne(AlgebraError):
    """The carrier meets the tensor unit in a way with no canonical counit."""


class NotRigidSelfDual(AlgebraError):
    """The multiplication pairing admits no two-sided coevaluation."""


class NotScalarMultiple(AlgebraError):
    """mult after coevaluation is not a scalar multiple of the unit map."""


class InvalidGroupTable(AlgebraError):
    pass


class NotIsotropic(AlgebraError):
    """The chosen labels carry twists or mutual monodromy and cannot condense."""


class AlgebraObject:
    """Carrier object plus unit and multiplication morphisms."""

    # _kit: (counit, coev, index) once frobenius_kit has solved them
    __slots__ = ("name", "carrier", "unit_map", "mult_map", "counit", "_kit")

    def __init__(self, name: str, carrier: Obj, unit_map: Mor, mult_map: Mor, counit: Mor | None = None):
        aa = tensor_obj(carrier, carrier)
        if unit_map.dom != Obj.unit(carrier.spec) or unit_map.cod != carrier:
            raise AlgebraError("unit map must go from the tensor unit to the carrier")
        if mult_map.dom != aa or mult_map.cod != carrier:
            raise AlgebraError("multiplication must go from the tensor square to the carrier")
        if counit is not None:
            one = Obj.unit(carrier.spec)
            if counit.dom != carrier or counit.cod != one:
                raise AlgebraError("counit must go from the carrier to the tensor unit")
            if compose(counit, unit_map) != Mor.identity(one):
                raise AlgebraError("counit does not send the unit to 1")
        self.name = name
        self.carrier = carrier
        self.unit_map = unit_map
        self.mult_map = mult_map
        self.counit = counit
        self._kit = None

    @property
    def spec(self) -> CategorySpec:
        return self.carrier.spec

    def __repr__(self):
        return "AlgebraObject(%s on %r)" % (self.name, self.carrier)


def check_algebra(alg: AlgebraObject) -> Report:
    """Unit, associativity and commutativity of the multiplication."""
    report = Report()
    A = alg.carrier
    ident = Mor.identity(A)
    left = compose(alg.mult_map, tensor_mor(alg.unit_map, ident))
    _item(report, "unit-left", left, ident)
    right = compose(alg.mult_map, tensor_mor(ident, alg.unit_map))
    _item(report, "unit-right", right, ident)
    lhs = compose(alg.mult_map, tensor_mor(alg.mult_map, ident))
    rhs = compose(alg.mult_map, compose(tensor_mor(ident, alg.mult_map), associator(A, A, A)))
    _item(report, "associative", lhs, rhs)
    braided = compose(alg.mult_map, braiding(A, A))
    _item(report, "commutative", braided, alg.mult_map)
    return report


def _item(report: Report, name: str, got: Mor, want: Mor):
    if got == want:
        report.append(name, "pass")
    else:
        report.append(name, "fail", witness=(got - want).to_json())


def make_counit(alg: AlgebraObject) -> Mor:
    """The coordinate dual to the unit map, scaled so counit(unit) = 1.

    Requires the unit map to hit a single summand of the carrier on the
    unit label; multiplicity above one with a spread-out unit map has no
    canonical choice and raises.  An explicitly stored counit wins over
    the coordinate rule.
    """
    if alg.counit is not None:
        return alg.counit
    spec = alg.spec
    A = alg.carrier
    n = A.m(spec.unit)
    if n == 0:
        raise UnitMultiplicityNotOne("carrier misses the tensor unit label")
    col = alg.unit_map.rows[spec.unit]
    hits = [i for i, row in enumerate(col) if row]
    if len(hits) != 1:
        raise UnitMultiplicityNotOne(
            "unit map touches %d unit summands, no canonical counit" % len(hits)
        )
    i = hits[0]
    return Mor.from_rows(A, Obj.unit(spec), {spec.unit: [{i: col[i][0].inverse()}]})


def _pairing(alg: AlgebraObject, counit: Mor) -> Mor:
    return compose(counit, alg.mult_map)


def solve_coevaluation(alg: AlgebraObject) -> Mor:
    """The copairing making both bent-line identities for the algebra exact.

    Found label by label.  For each label b of the carrier with dual b*,
    the first bent line restricted to b reads K_b * F * P_b* = 1, where
    P_b* is the pairing block on the unit slots (b*, j, b, k), K_b the
    copairing block on the slots (b, i, b*, j) and F the scalar
    F^{b b* b}_{b;1,1}.  So K_b is the inverse of P_b*, scaled by the
    bent-line normalization of the simple b (``_dual_scales``, the
    inverse of F).  Both bent-line identities of the assembled copairing
    are then checked exactly.

    Raises NotRigidSelfDual when the tensor square misses the unit, when
    b and b* occur with different multiplicities, when a pairing block is
    singular, or when either bent-line check fails; make_counit may raise
    UnitMultiplicityNotOne first.  The first bent line fixes every block,
    so a solution is unique.
    """
    counit = make_counit(alg)
    spec = alg.spec
    field = spec.field
    A = alg.carrier
    slots = pair_channels(A, A).get(spec.unit, [])
    if not slots:
        raise NotRigidSelfDual("tensor square misses the unit label")
    pairing = _pairing(alg, counit)
    pair_row = pairing.rows[spec.unit][0]
    slot_at = {slot: t for t, slot in enumerate(slots)}
    scales = _dual_scales(spec)
    col = [{} for _ in slots]
    for b in A.labels_present():
        bd = spec.dual[b]
        m = A.m(b)
        if A.m(bd) != m:
            raise NotRigidSelfDual(
                "label %s occurs %d times but its dual %s occurs %d times" % (b, m, bd, A.m(bd))
            )
        block = [{} for _ in range(m)]
        for j, row in enumerate(block):
            for k in range(m):
                x = pair_row.get(slot_at[(bd, j, b, k)])
                if x is not None:
                    row[k] = x
        try:
            inv = la.inverse(block, field)
        except la.SingularMatrix:
            raise NotRigidSelfDual("pairing block on %s is singular" % bd) from None
        for i, row in enumerate(inv):
            for j, x in row.items():
                col[slot_at[(b, i, bd, j)]] = {0: x * scales[b]}
    coev = Mor.from_rows(Obj.unit(spec), tensor_obj(A, A), {spec.unit: col})
    ident = Mor.identity(A)
    if _bent_line_left(A, pairing, coev) != ident:
        raise NotRigidSelfDual("first bent-line identity fails")
    second = compose(
        tensor_mor(pairing, ident),
        compose(associator_inv(A, A, A), tensor_mor(ident, coev)),
    )
    if second != ident:
        raise NotRigidSelfDual("second bent-line identity fails")
    return coev


def _bent_line_left(A: Obj, pairing: Mor, coev: Mor) -> Mor:
    ident = Mor.identity(A)
    return compose(
        tensor_mor(ident, pairing),
        compose(associator(A, A, A), tensor_mor(coev, ident)),
    )


def frobenius_kit(alg: AlgebraObject):
    """(counit, coev, index) of the algebra, solved on first use and kept on it.

    The index [A:1] is the scalar with mult after copairing = [A:1] * unit
    map, cross-checked against the closed loop through the counit; a
    mismatch means the structure maps are inconsistent and raises
    NotScalarMultiple.  A failure is not kept: the next call solves again
    and raises again.
    """
    if alg._kit is None:
        counit = make_counit(alg)
        coev = solve_coevaluation(alg)
        loop = compose(alg.mult_map, coev)
        index = proportionality_scalar(loop, alg.unit_map)
        if index is None:
            raise NotScalarMultiple("mult after copairing is not proportional to the unit map")
        if compose(counit, loop).block(alg.spec.unit)[0][0] != index:
            raise NotScalarMultiple("closed-loop value disagrees with the proportionality scalar")
        alg._kit = (counit, coev, index)
    return alg._kit


def compute_index(alg: AlgebraObject) -> Scalar:
    """The index [A:1] of the algebra's kit (``frobenius_kit``)."""
    return frobenius_kit(alg)[2]


def frobenius_identity_check(alg: AlgebraObject) -> Report:
    """Compatibility of the kit's copairing with multiplication on both sides."""
    counit, coev, _ = frobenius_kit(alg)
    report = Report()
    A = alg.carrier
    ident = Mor.identity(A)
    # the two ways of splitting one copairing leg into a comultiplication
    left = compose(
        tensor_mor(alg.mult_map, ident),
        compose(associator_inv(A, A, A), tensor_mor(ident, coev)),
    )
    right = compose(
        tensor_mor(ident, alg.mult_map),
        compose(associator(A, A, A), tensor_mor(coev, ident)),
    )
    _item(report, "coproduct-left-right", left, right)
    pairing = _pairing(alg, counit)
    _item(report, "pairing-commutes", compose(pairing, braiding(A, A)), pairing)
    _item(report, "bent-line", _bent_line_left(A, pairing, coev), ident)
    return report


def algebra_dim_with_twist(alg: AlgebraObject) -> Scalar:
    """Closed loop through the twist and the braiding, on the kit's counit
    and copairing.

    Equals the index exactly when the carrier is twist-transparent, so
    the comparison with the plain index is a locality probe for the
    algebra itself.
    """
    counit, coev, _ = frobenius_kit(alg)
    A = alg.carrier
    chain = compose(
        compose(counit, alg.mult_map),
        compose(braiding(A, A), compose(tensor_mor(twist_mor(A), Mor.identity(A)), coev)),
    )
    return chain.block(alg.spec.unit)[0][0]


# ---------------------------------------------------------------------------
# groups and group-style constructions


class Group:
    """A finite group from its multiplication table; ``products[i][j]`` is
    the index of ``elements[i] * elements[j]``."""

    __slots__ = ("name", "elements", "table", "products", "identity", "_index")

    def __init__(self, name, elements, table):
        self.name = name
        self.elements = list(elements)
        n = len(self.elements)
        if len(set(self.elements)) != n or n == 0:
            raise InvalidGroupTable("elements must be distinct and nonempty")
        self._index = {g: k for k, g in enumerate(self.elements)}
        if len(table) != n or any(len(row) != n for row in table):
            raise InvalidGroupTable("table must be %dx%d" % (n, n))
        for row in table:
            for g in row:
                if g not in self._index:
                    raise InvalidGroupTable("table entry %r is not an element" % (g,))
        self.table = [list(row) for row in table]
        # every check runs on element indices, which compare as plain ints
        t = self.products = [[self._index[g] for g in row] for row in table]
        elems = range(n)
        ident = next((e for e in elems if all(t[e][h] == h and t[h][e] == h for h in elems)), None)
        if ident is None:
            raise InvalidGroupTable("no identity element")
        self.identity = self.elements[ident]
        perm = list(elems)
        for row in t:
            if sorted(row) != perm:
                raise InvalidGroupTable("rows must be permutations")
        for j in elems:
            if sorted(row[j] for row in t) != perm:
                raise InvalidGroupTable("columns must be permutations")
        # (a b) c = a (b c) for every c at once: row ab of the table is row a
        # read through row b
        for ta in t:
            for b in elems:
                if t[ta[b]] != [ta[x] for x in t[b]]:
                    raise InvalidGroupTable("table is not associative")
        for g in elems:
            if ident not in t[g]:
                raise InvalidGroupTable("%r has no inverse" % (self.elements[g],))

    # mul looks elements up by name, for the benchmark's checks and the
    # tests' oracles; the engine reads products
    def mul(self, a, b):
        return self.table[self._index[a]][self._index[b]]

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "Group(%s, order %d)" % (self.name, len(self))


def load_group(ref, base_dir=None) -> Group:
    path = resolve("groups", ref, base_dir)
    raw = read_json(path)
    try:
        elements, table = raw["elements"], raw["table"]
    except KeyError as exc:
        raise ParseError("missing group key %s" % (exc,)) from None
    check_fields("group", [
        ("elements", isinstance(elements, list) and strings(elements), "a list of element names"),
        ("table", isinstance(table, list) and all(isinstance(row, list) and strings(row) for row in table),
         "a list of rows of element names"),
    ])
    return Group(raw.get("name", path.stem), elements, table)


def group_algebra(group: Group, spec: CategorySpec) -> AlgebraObject:
    """The function algebra on a finite group, carried by copies of the unit.

    Only meaningful in a single-label category, where the tensor square
    block is an honest Kronecker square of the carrier.
    """
    if len(spec.labels) != 1:
        raise AlgebraError("group algebra needs a single-label category")
    lab = spec.unit
    n = len(group)
    carrier = Obj(spec, {lab: n})
    one = Scalar.one(spec.field)
    unit_rows = [{0: one} if g == group.identity else {} for g in group.elements]
    mult_rows = [{} for _ in range(n)]
    base, step = _tensor_plan(carrier, carrier)[2][lab][(lab, lab)]
    for i, row in enumerate(group.products):
        for j, k in enumerate(row):
            mult_rows[k][base + i * step + j] = one
    return AlgebraObject(
        "group_algebra(%s)" % group.name,
        carrier,
        Mor.from_rows(Obj.unit(spec), carrier, {lab: unit_rows}),
        Mor.from_rows(tensor_obj(carrier, carrier), carrier, {lab: mult_rows}),
    )


def subgroup_algebra(labels: list, spec: CategorySpec) -> AlgebraObject:
    """Sum of invertible labels closed under fusion, with unit coefficients.

    The labels must form a group under fusion, carry trivial twists, and
    braid with trivial mutual monodromy; otherwise no commutative algebra
    structure exists on the sum and this raises.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise AlgebraError("repeated labels")
    if spec.unit not in labels:
        raise AlgebraError("the unit label must be included")
    one = Scalar.one(spec.field)
    prod = {}
    for a in labels:
        for b in labels:
            chans = spec.channels(a, b)
            if len(chans) != 1 or chans[0] not in labels:
                raise AlgebraError("labels are not closed under fusion at (%s, %s)" % (a, b))
            prod[(a, b)] = chans[0]
    for h in labels:
        if spec.twist[h] != one:
            raise NotIsotropic("label %s carries a twist" % h)
        for k in labels:
            mono = spec.r_symbol(h, k, prod[(h, k)]) * spec.r_symbol(k, h, prod[(h, k)])
            if mono != one:
                raise NotIsotropic("labels %s and %s have nontrivial monodromy" % (h, k))
    carrier = Obj(spec, {lab: 1 for lab in labels})
    aa_pairs = pair_channels(carrier, carrier)
    rows = {
        c: [{t: one for t, (a, _, b, _) in enumerate(aa_pairs.get(c, [])) if prod[(a, b)] == c}]
        for c in carrier.labels_present()
    }
    unit_map = Mor.from_rows(Obj.unit(spec), carrier, {spec.unit: [{0: one}]})
    mult_map = Mor.from_rows(tensor_obj(carrier, carrier), carrier, rows)
    return AlgebraObject("subgroup(%s)" % "+".join(labels), carrier, unit_map, mult_map)


# ---------------------------------------------------------------------------
# loading


def load_algebra(ref, base_dir=None) -> AlgebraObject:
    path = resolve("algebras", ref, base_dir).resolve()
    raw = read_json(path)
    return algebra_from_json(raw, base_dir=path.parent, name=raw.get("name", path.stem))


def _parse_mor(dom: Obj, cod: Obj, blocks: dict) -> Mor:
    """A morphism from per-label matrices of scalar literals."""
    field = dom.spec.field
    parsed = {lab: [[parse_scalar(x, field) for x in row] for row in mat] for lab, mat in blocks.items()}
    return Mor(dom, cod, parsed)


def _object_field(value):
    """The ``check_fields`` entry of a carrier's ``object`` field."""
    ok = isinstance(value, dict) and all(type(m) is int for m in value.values())
    return "object", ok, "an object of label multiplicities"


def _blocks_field(key: str, value):
    """The ``check_fields`` entry of a field of per-label literal matrices."""
    ok = isinstance(value, dict) and all(
        isinstance(m, list) and all(isinstance(row, list) for row in m) for m in value.values()
    )
    return key, ok, "an object of literal matrices"


def algebra_from_json(raw: dict, base_dir=None, name: str = "anonymous") -> AlgebraObject:
    try:
        cat_ref = raw["category"]
        carrier_mult = raw["object"]
        unit_blocks = raw["iota"]
        mult_blocks = raw["mu"]
    except KeyError as exc:
        raise ParseError("missing algebra key %s" % (exc,)) from None
    check_fields("algebra", [
        _object_field(carrier_mult),
        _blocks_field("iota", unit_blocks),
        _blocks_field("mu", mult_blocks),
        _blocks_field("counit", raw.get("counit", {})),
    ])
    spec = load_category(cat_ref, base_dir)
    carrier = Obj(spec, carrier_mult)
    unit_map = _parse_mor(Obj.unit(spec), carrier, unit_blocks)
    mult_map = _parse_mor(tensor_obj(carrier, carrier), carrier, mult_blocks)
    counit = None
    if "counit" in raw:
        counit = _parse_mor(carrier, Obj.unit(spec), raw["counit"])
    return AlgebraObject(name, carrier, unit_map, mult_map, counit)

