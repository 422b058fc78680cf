"""Algebra objects inside a category: axioms, counits, pairings, index.

An algebra here is a carrier object together with a unit map from the
tensor unit and a multiplication map from the tensor square, both given
as exact block morphisms.  Everything downstream (module theory,
averaging, condensation) consumes this structure; nothing in this module
assumes the algebra is honest, the checks exist precisely to find out.
"""

from __future__ import annotations

from . import linalg as la
from . import check_fields, load_file, required, strings
from .category import (
    CategorySpec,
    _dual_scales,
    _noncommuting,
    _second_move,
    _tensor_plan,
    Mor,
    Obj,
    associator,
    associator_inv,
    braiding,
    compose,
    compose_tensor,
    load_category,
    pair_channels,
    tensor_compose,
    tensor_obj,
)
from .fields import Error, Scalar, parse_scalar
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


class AlgebraError(Error):
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

    # _kit: (counit, coev, index) once frobenius_kit has solved them;
    # _axioms: the report of check_algebra once it has run;
    # _condensed: the Condensation once modules.condense has built it
    __slots__ = ("name", "carrier", "unit_map", "mult_map", "counit", "_kit", "_axioms", "_condensed")

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
        self._kit = self._axioms = self._condensed = None

    @property
    def spec(self) -> CategorySpec:
        return self.carrier.spec

    def __repr__(self):
        return "AlgebraObject(%s on %r)" % (self.name, self.carrier)


def _action_laws(alg: AlgebraObject, act: Mor):
    """(got, want) of the unit law and of associativity for an action
    act : A (x) X -> X of the algebra; the multiplication is one."""
    A, X = alg.carrier, act.cod
    ident = Mor.identity(X)
    unit = (compose_tensor(act, alg.unit_map, ident), ident)
    lhs = compose_tensor(act, alg.mult_map, ident)
    rhs = compose(compose_tensor(act, Mor.identity(A), act), associator(A, A, X))
    return unit, (lhs, rhs)


def check_algebra(alg: AlgebraObject) -> Report:
    """Unit, associativity and commutativity of the multiplication.

    Decided on the first call and kept on the algebra, as its Frobenius
    kit is: every later call returns the same report, which callers only
    read.
    """
    if alg._axioms is None:
        report = Report()
        A = alg.carrier
        ident = Mor.identity(A)
        unit, assoc = _action_laws(alg, alg.mult_map)
        _item(report, "unit-left", *unit)
        right = compose_tensor(alg.mult_map, ident, alg.unit_map)
        _item(report, "unit-right", right, ident)
        _item(report, "associative", *assoc)
        braided = compose(alg.mult_map, braiding(A, A))
        _item(report, "commutative", braided, alg.mult_map)
        alg._axioms = report
    return alg._axioms


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


def solve_coevaluation(alg: AlgebraObject, counit: Mor) -> Mor:
    """The copairing making both bent-line identities for the algebra and
    its counit (``make_counit``) exact, in closed form.

    For each label b of the carrier with dual b*, the first bent line
    restricted to b reads K_b * F * P_b* = 1, where P_b* is the pairing
    block on the unit slots (b*, j, b, k), K_b the copairing block on the
    slots (b, i, b*, j) and F the scalar F^{b b* b}_{b;1,1}.  So K_b is the
    inverse of P_b* times 1/F (``_dual_scales``), and the first bent line
    holds by construction.  The second, restricted to b, is then the
    second duality move on b* (``_second_move``), whatever the pairing:
    nothing is composed on A (x) A (x) A.

    Raises NotRigidSelfDual when the tensor square misses the unit, when
    b and b* occur with different multiplicities, when a pairing block is
    singular, or when that move is not 1; ``SingularFBlock`` when its
    recoupling block is singular.  The first bent line fixes every block,
    so a solution is unique.
    """
    spec = alg.spec
    field = spec.field
    A = alg.carrier
    slots = pair_channels(A, A).get(spec.unit, [])
    if not slots:
        raise NotRigidSelfDual("tensor square misses the unit label")
    pair_row = compose(counit, alg.mult_map).rows[spec.unit][0]
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
    if not all(_second_move(spec, spec.dual[b]).is_one() for b in A.labels_present()):
        raise NotRigidSelfDual("second bent-line identity fails")
    return Mor.from_rows(Obj.unit(spec), tensor_obj(A, A), {spec.unit: col})


def frobenius_kit(alg: AlgebraObject):
    """(counit, coev, index) of the algebra, solved on first use and kept on it.

    The index [A:1] is the scalar with mult after copairing = [A:1] * unit
    map.  As counit after unit map is 1, it is the closed loop through the
    counit; when no such scalar exists this raises NotScalarMultiple.  A
    failure is not kept: the next call solves again and raises again.
    """
    if alg._kit is None:
        counit = make_counit(alg)
        coev = solve_coevaluation(alg, counit)
        loop = compose(alg.mult_map, coev)
        index = compose(counit, loop).block(alg.spec.unit)[0][0]
        if loop != alg.unit_map.scale(index):
            raise NotScalarMultiple("mult after copairing is not proportional to the unit map")
        alg._kit = (counit, coev, index)
    return alg._kit


def compute_index(alg: AlgebraObject) -> Scalar:
    """The index [A:1] of the algebra's kit (``frobenius_kit``)."""
    return frobenius_kit(alg)[2]


def frobenius_identity_check(alg: AlgebraObject) -> Report:
    """Compatibility of the kit's copairing with multiplication on both
    sides.  ``bent-line`` passes because the kit exists: its copairing
    meets the first bent line by construction, and ``solve_coevaluation``
    refuses an algebra whose second fails."""
    counit, coev, _ = frobenius_kit(alg)
    report = Report()
    A = alg.carrier
    ident = Mor.identity(A)
    # the two ways of splitting one copairing leg into a comultiplication
    left = compose_tensor(tensor_compose(alg.mult_map, ident, associator_inv(A, A, A)), ident, coev)
    right = compose_tensor(tensor_compose(ident, alg.mult_map, associator(A, A, A)), coev, ident)
    _item(report, "coproduct-left-right", left, right)
    pairing = compose(counit, alg.mult_map)
    _item(report, "pairing-commutes", compose(pairing, braiding(A, A)), pairing)
    report.append("bent-line", "pass")
    return report


def algebra_dim_with_twist(alg: AlgebraObject) -> Scalar:
    """Closed loop through the twist and the braiding, on the kit's counit
    and copairing: the sum over the carrier's labels b of
    m_b theta_b R^{b b*}_1 / F^{b b* b}_{b;1,1}, with nothing composed.

    The braiding carries the copairing's slot (b, i, b*, j) to the
    pairing's slot (b*, j, b, i) times R^{b b*}_1, and the copairing
    block on b is the inverse of the pairing block on b* times
    1 / F^{b b* b}_{b;1,1} (``solve_coevaluation``), so each label leaves
    the trace of the identity, m_b.  Refuses where the kit refuses, and
    on fusion that does not commute as ``braiding(A, A)`` does.

    Equals the index exactly when the carrier is twist-transparent, so
    the comparison with the plain index is a locality probe for the
    algebra itself.
    """
    frobenius_kit(alg)
    spec = alg.spec
    for c, pairs in _tensor_plan(alg.carrier, alg.carrier)[2].items():
        for a, b in pairs:
            if (b, a) not in pairs:
                raise _noncommuting(a, b, c)
    scales = _dual_scales(spec)
    total = Scalar.zero(spec.field)
    for b, m in alg.carrier.mult.items():
        total = total + (spec.twist[b] * spec.r_symbol(b, spec.dual[b], spec.unit) * scales[b]).scale(m)
    return total


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
        # every row is a permutation, so it holds the identity: inverses exist

    # mul looks elements up by name, for the benchmark's checks and the
    # tests' oracles; the engine reads products
    def mul(self, a, b):
        return self.table[self._index[a]][self._index[b]]

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "Group(%s, order %d)" % (self.name, len(self))


def load_group(ref, base_dir=None) -> Group:
    """A group by bundled name or path, one instance per file (``ctc.load_file``)."""
    return load_file("groups", ref, base_dir, lambda raw, name, _: _group_from_json(raw, name))


def _group_from_json(raw: dict, name: str) -> Group:
    elements, table = required("group", raw, "elements", "table")
    check_fields("group", [
        ("elements", isinstance(elements, list) and strings(elements), "a list of element names"),
        ("table", isinstance(table, list) and all(isinstance(row, list) and strings(row) for row in table),
         "a list of rows of element names"),
    ])
    return Group(name, elements, table)


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
    structure exists on the sum and this raises.  Unit coefficients can
    still fail the axioms (after a gauge change, say); then this raises
    an AlgebraError naming them.
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
    alg = AlgebraObject("subgroup(%s)" % "+".join(labels), carrier, unit_map, mult_map)
    failing = [item.check for item in check_algebra(alg).failing()]
    if failing:
        raise AlgebraError("unit coefficients fail the algebra axioms: %s" % ", ".join(failing))
    return alg


# ---------------------------------------------------------------------------
# loading


def load_algebra(ref, base_dir=None) -> AlgebraObject:
    """An algebra by bundled name or path, one instance per file (``ctc.load_file``)."""
    return load_file("algebras", ref, base_dir, lambda raw, name, found: algebra_from_json(raw, found.folder, name))


def _parse_mor(dom: Obj, cod: Obj, blocks: dict) -> Mor:
    """A morphism from per-label matrices of scalar literals."""
    field = dom.spec.field
    parsed = {lab: [[parse_scalar(x, field) for x in row] for row in mat] for lab, mat in blocks.items()}
    return Mor(dom, cod, parsed)


# the largest total multiplicity of an object in a data file, which a few
# bytes of JSON could otherwise make any size
_MAX_OBJECT_SIZE = 32


def _object_field(value):
    """The ``check_fields`` entry of a carrier's ``object`` field."""
    ok = isinstance(value, dict) and all(type(m) is int for m in value.values())
    ok = ok and sum(map(abs, value.values())) <= _MAX_OBJECT_SIZE
    return "object", ok, "an object of label multiplicities, at most %d in all" % _MAX_OBJECT_SIZE


def _blocks_field(key: str, value):
    """The ``check_fields`` entry of a field of per-label literal matrices."""
    ok = isinstance(value, dict) and all(
        isinstance(m, list) and all(isinstance(row, list) for row in m) for m in value.values()
    )
    return key, ok, "an object of literal matrices"


def algebra_from_json(raw: dict, base_dir=None, name: str = "anonymous") -> AlgebraObject:
    cat_ref, carrier_mult, unit_blocks, mult_blocks = required("algebra", raw, "category", "object", "iota", "mu")
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

