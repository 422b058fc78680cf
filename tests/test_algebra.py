"""Algebra-object tests: axioms, counit, copairing, index, constructions.

Expected index values are frozen from the group orders; the engine must
reproduce them through the snake solve, not the other way round.  The
closed-form copairing is checked against a generic solve that composes
both bent lines for every unknown, and its verdict on rigidity against
both bent lines composed on A (x) A (x) A.  The twisted loop read off
the symbols is checked against the loop composed through the braiding
and the twist.
"""

import itertools
import random

import pytest

from ctc import Error, data_path
from ctc import algebra as algebra_mod
from ctc.algebra import (
    AlgebraError,
    AlgebraObject,
    Group,
    NotScalarMultiple,
    InvalidGroupTable,
    NotIsotropic,
    NotRigidSelfDual,
    UnitMultiplicityNotOne,
    algebra_dim_with_twist,
    algebra_from_json,
    check_algebra,
    compute_index,
    frobenius_identity_check,
    frobenius_kit,
    group_algebra,
    load_algebra,
    load_group,
    make_counit,
    solve_coevaluation,
    subgroup_algebra,
)
from ctc import category
from ctc.category import (
    FusionDataError,
    Mor,
    Obj,
    SingularFBlock,
    _second_move,
    associator,
    associator_inv,
    braiding,
    categorical_dim,
    compose,
    compose_tensor,
    load_category,
    pair_channels,
    tensor_mor,
    tensor_obj,
    verify_zigzag,
)
from ctc.fields import ParseError, Scalar, parse_scalar
from test_category import (
    ORACLE_SPECS,
    gauge,
    gauged,
    ising_times_z2,
    mutated,
    proportionality_scalar,
    toric_zn,
    twist_mor,
    vec_s3,
)
from test_linalg import dense_nullspace, dense_solve


def cat(name):
    return load_category(data_path("categories/%s.json" % name))


def grp(name):
    return load_group(data_path("groups/%s.json" % name))


def statuses(report):
    return {i.check: i.status for i in report.items}


class NonUniqueCoevaluation(Exception):
    """The composed bent-line system leaves free parameters."""


def _composed_coevaluation(alg, both=True):
    """Reference copairing: one unknown per unit slot of the tensor square,
    both bent lines (or, with ``both`` false, the first alone) composed for
    each, then one exact linear solve."""
    spec = alg.spec
    field = spec.field
    A = alg.carrier
    aa = tensor_obj(A, A)
    unit_o = Obj.unit(spec)
    pairing = compose(make_counit(alg), alg.mult_map)
    n_unknowns = len(pair_channels(A, A).get(spec.unit, []))
    if n_unknowns == 0:
        raise NotRigidSelfDual("tensor square misses the unit label")
    ident = Mor.identity(A)
    assoc = associator(A, A, A)
    assoc_inv = associator_inv(A, A, A) if both else None

    def basis_coev(t):
        col = [[Scalar.one(field) if i == t else Scalar.zero(field)] for i in range(n_unknowns)]
        return Mor(unit_o, aa, {spec.unit: col})

    def snake1(k):
        return compose(tensor_mor(ident, pairing), compose(assoc, tensor_mor(k, ident)))

    def snake2(k):
        return compose(tensor_mor(pairing, ident), compose(assoc_inv, tensor_mor(ident, k)))

    def flatten(m):
        return [x for lab in A.labels_present() for row in m.block(lab) for x in row]

    columns = []
    for t in range(n_unknowns):
        k = basis_coev(t)
        columns.append(flatten(snake1(k)) + (flatten(snake2(k)) if both else []))
    rows = len(columns[0])
    mat = [[columns[t][r] for t in range(n_unknowns)] for r in range(rows)]
    rhs = [[v] for v in flatten(ident) * (2 if both else 1)]
    sol = dense_solve(mat, rhs, field, rows, n_unknowns, 1)
    if sol is None:
        raise NotRigidSelfDual("bent-line conditions are inconsistent")
    freedom = len(dense_nullspace(mat, field, rows, n_unknowns))
    if freedom:
        raise NonUniqueCoevaluation("%d free parameters" % freedom)
    return Mor(unit_o, aa, {spec.unit: [[sol[t][0]] for t in range(n_unknowns)]})


def _bent_lines(alg, coev):
    """Both bent-line composites of the copairing ``coev`` against the
    pairing counit o mult, as block matrices through A (x) A (x) A:
    A -> (A A) A -> A (A A) -> A, and A -> A (A A) -> (A A) A -> A."""
    A = alg.carrier
    pairing = compose(make_counit(alg), alg.mult_map)
    ident = Mor.identity(A)
    first = compose(tensor_mor(ident, pairing), compose(associator(A, A, A), tensor_mor(coev, ident)))
    second = compose(tensor_mor(pairing, ident), compose(associator_inv(A, A, A), tensor_mor(ident, coev)))
    return first, second


def _closed_form_agrees_with_composed(alg):
    """Hold the closed-form solve to the composed bent lines of the copairing
    that the composed first bent line alone fixes, and name the case:
    "rigid", "second fails" or "singular" (a singular recoupling block
    stops ``associator_inv``; the callers' only singular blocks are zigzag
    blocks (b, b*, b; b) of carrier labels, which stop the solve too)."""
    spec, A = alg.spec, alg.carrier
    coev = _composed_coevaluation(alg, both=False)
    try:
        first, second = _bent_lines(alg, coev)
    except SingularFBlock:
        with pytest.raises(SingularFBlock):
            solve_coevaluation(alg, make_counit(alg))
        return "singular"
    ident = Mor.identity(A)
    assert first == ident
    # on the label c the second bent line is the second duality move on c*
    for c in A.labels_present():
        assert second.block(c) == ident.scale(_second_move(spec, spec.dual[c])).block(c)
    if second == ident:
        assert solve_coevaluation(alg, make_counit(alg)) == coev
        return "rigid"
    with pytest.raises(NotRigidSelfDual, match="second bent-line identity fails"):
        solve_coevaluation(alg, make_counit(alg))
    return "second fails"


# --- groups ----------------------------------------------------------------


def test_group_loading():
    g = grp("s3")
    assert len(g) == 6
    assert g.identity == "e"
    assert g.mul("r", "r2") == "e"
    assert g.mul("sr", "sr") == "e"
    assert g.mul("s", "r") != g.mul("r", "s")


def test_group_rejects_bad_entry():
    with pytest.raises(InvalidGroupTable):
        Group("bad", ["a", "b"], [["a", "b"], ["b", "x"]])


def test_group_rejects_broken_rows():
    with pytest.raises(InvalidGroupTable):
        Group("bad", ["a", "b"], [["a", "a"], ["b", "b"]])


def test_group_rejects_non_associative_loop():
    # smallest non-associative loop: Latin square with identity, not a group
    els = ["e", "1", "2", "3", "4"]
    table = [
        ["e", "1", "2", "3", "4"],
        ["1", "e", "3", "4", "2"],
        ["2", "4", "e", "1", "3"],
        ["3", "2", "4", "e", "1"],
        ["4", "3", "1", "2", "e"],
    ]
    with pytest.raises(InvalidGroupTable):
        Group("loop5", els, table)


def test_group_rejects_missing_identity():
    # Latin square with no row acting as the identity on both sides
    els = ["0", "1", "2"]
    table = [["1", "0", "2"], ["0", "2", "1"], ["2", "1", "0"]]
    with pytest.raises(InvalidGroupTable):
        Group("bad", els, table)


BAD_GROUP_TABLES = [
    (["a", "a"], [["a", "a"], ["a", "a"]], "elements must be distinct and nonempty"),
    (["a", "b"], [["a", "b"]], "table must be 2x2"),
    (["a", "b"], [["a", "b"], ["b", "x"]], "table entry 'x' is not an element"),
    (["0", "1", "2"], [["1", "0", "2"], ["0", "2", "1"], ["2", "1", "0"]], "no identity element"),
    (["e", "a"], [["e", "a"], ["a", "a"]], "rows must be permutations"),
    (list("eabc"), [list("eabc"), list("aebc"), list("beac"), list("ceab")], "columns must be permutations"),
    (
        ["e", "1", "2", "3", "4"],
        [list("e1234"), list("1e342"), list("24e13"), list("324e1"), list("4312e")],
        "table is not associative",
    ),
]


@pytest.mark.parametrize("elements, table, message", BAD_GROUP_TABLES)
def test_group_checks_keep_their_messages_and_order(elements, table, message):
    with pytest.raises(InvalidGroupTable) as err:
        Group("bad", elements, table)
    assert str(err.value) == message


# --- group algebras in one-label categories --------------------------------


def test_group_algebra_z3_axioms():
    alg = group_algebra(grp("z3"), cat("vec_q"))
    rep = check_algebra(alg)
    assert statuses(rep) == {
        "unit-left": "pass",
        "unit-right": "pass",
        "associative": "pass",
        "commutative": "pass",
    }


def test_group_algebra_matches_bundled_file():
    alg = group_algebra(grp("z3"), cat("vec_q"))
    bundled = load_algebra(data_path("algebras/alg_qz3.json"))
    assert bundled.carrier == alg.carrier
    assert bundled.unit_map == alg.unit_map
    assert bundled.mult_map == alg.mult_map


def test_group_algebra_counit_and_index():
    spec = cat("vec_q")
    alg = group_algebra(grp("z3"), spec)
    eps = make_counit(alg)
    assert compose(eps, alg.unit_map).block("1")[0][0].is_one()
    assert frobenius_kit(alg)[:2] == (eps, solve_coevaluation(alg, eps))
    assert compute_index(alg) == Scalar.from_int(spec.field, 3)
    assert frobenius_identity_check(alg).ok
    assert algebra_dim_with_twist(alg) == Scalar.from_int(spec.field, 3)
    assert categorical_dim(alg.carrier) == Scalar.from_int(spec.field, 3)


def test_group_algebra_s3_not_commutative():
    alg = group_algebra(grp("s3"), cat("vec_q"))
    st = statuses(check_algebra(alg))
    assert st["unit-left"] == "pass"
    assert st["associative"] == "pass"
    assert st["commutative"] == "fail"


def test_group_algebra_z2_char_two_index_vanishes():
    spec = cat("vec_f2")
    alg = group_algebra(grp("z2"), spec)
    assert check_algebra(alg).ok
    idx = compute_index(alg)
    assert idx.is_zero()


def test_group_algebra_z3_char_three_index_vanishes():
    spec = cat("vec_f3")
    alg = group_algebra(grp("z3"), spec)
    assert compute_index(alg).is_zero()


def _abstract_groups():
    """name -> (elements, product) for z2-z6, z2xz2 and s3."""
    groups = {"z%d" % n: (list(range(n)), lambda g, h, n=n: (g + h) % n) for n in range(2, 7)}
    pairs = list(itertools.product(range(2), repeat=2))
    groups["z2xz2"] = (pairs, lambda g, h: tuple((u + v) % 2 for u, v in zip(g, h)))
    groups["s3"] = (list(itertools.permutations(range(3))), lambda g, h: tuple(g[h[k]] for k in range(3)))
    return groups


def _indexed_mult_rows(group, one):
    """The multiplication rows of the group algebra by element lookups, as
    ``group_algebra`` built them before the integer product table."""
    n = len(group)
    rows = [{} for _ in range(n)]
    for i, g in enumerate(group.elements):
        for j, h in enumerate(group.elements):
            rows[group.elements.index(group.mul(g, h))][i * n + j] = one
    return rows


@pytest.mark.parametrize("name", sorted(_abstract_groups()))
@pytest.mark.parametrize("seed", range(3))
def test_group_algebra_rows_match_element_lookups(name, seed):
    elements, product = _abstract_groups()[name]
    rng = random.Random("%s %d" % (name, seed))
    order = list(elements)
    if seed:
        rng.shuffle(order)
    names = {g: "g%d" % k for g, k in zip(order, rng.sample(range(100), len(order)))}
    group = Group(name, [names[g] for g in order], [[names[product(g, h)] for h in order] for g in order])
    for spec in (cat("vec_q"), cat("vec_f2")):
        alg = group_algebra(group, spec)
        assert alg.mult_map.rows["1"] == _indexed_mult_rows(group, Scalar.one(spec.field))


def test_group_algebra_needs_single_label():
    with pytest.raises(AlgebraError):
        group_algebra(grp("z2"), cat("toric_code"))


# --- label-sum algebras in pointed categories ------------------------------


def test_subgroup_algebra_h02():
    spec = cat("pointed_z4")
    alg = subgroup_algebra(["0", "2"], spec)
    bundled = load_algebra(data_path("algebras/alg_h02.json"))
    assert bundled.carrier == alg.carrier
    assert bundled.mult_map == alg.mult_map
    assert check_algebra(alg).ok
    assert compute_index(alg) == Scalar.from_int(spec.field, 2)


def test_subgroup_algebra_toric_1e():
    spec = cat("toric_code")
    alg = subgroup_algebra(["1", "e"], spec)
    assert check_algebra(alg).ok
    assert frobenius_kit(alg)[:2] == (make_counit(alg), solve_coevaluation(alg, make_counit(alg)))
    assert compute_index(alg) == Scalar.from_int(spec.field, 2)
    assert algebra_dim_with_twist(alg) == Scalar.from_int(spec.field, 2)
    assert frobenius_identity_check(alg).ok


def test_subgroup_algebra_rejects_twisted_label():
    with pytest.raises(NotIsotropic):
        subgroup_algebra(["1", "f"], cat("toric_code"))


def test_subgroup_algebra_rejects_full_z4():
    with pytest.raises(NotIsotropic):
        subgroup_algebra(["0", "1", "2", "3"], cat("pointed_z4"))


def test_subgroup_algebra_rejects_monodromy():
    # e and m are untwisted but braid with monodromy -1
    with pytest.raises(NotIsotropic):
        subgroup_algebra(["1", "e", "m", "f"], cat("toric_code"))


def test_subgroup_algebra_rejects_non_closed():
    with pytest.raises(AlgebraError):
        subgroup_algebra(["0", "1"], cat("pointed_z4"))


def test_subgroup_algebra_requires_unit():
    with pytest.raises(AlgebraError):
        subgroup_algebra(["2"], cat("pointed_z4"))


def test_subgroup_algebra_refuses_unit_coefficients_after_a_gauge_change():
    # the labels (a, 0) of the Z_3 toric code are untwisted with trivial
    # monodromy, both gauge invariant; unit coefficients are an algebra
    # before the gauge change and fail the axioms after it
    labels = ["0.0", "1.0", "2.0"]
    assert check_algebra(subgroup_algebra(labels, toric_zn(3))).ok
    with pytest.raises(AlgebraError, match="associative, commutative"):
        subgroup_algebra(labels, gauged(toric_zn(3), 3))


# --- counit and copairing edge cases ---------------------------------------


def split_pair_algebra(spec):
    """The split algebra on two unit summands, componentwise product."""
    field = spec.field
    one, zero = Scalar.one(field), Scalar.zero(field)
    carrier = Obj(spec, {"1": 2})
    unit_map = Mor(Obj.unit(spec), carrier, {"1": [[one], [one]]})
    # pair columns in slot order: (0,0) (0,1) (1,0) (1,1)
    mult_map = Mor(
        tensor_obj(carrier, carrier),
        carrier,
        {"1": [[one, zero, zero, zero], [zero, zero, zero, one]]},
    )
    return AlgebraObject("split_pair", carrier, unit_map, mult_map)


def test_split_pair_is_algebra_without_canonical_counit():
    alg = split_pair_algebra(cat("vec_q"))
    assert check_algebra(alg).ok
    with pytest.raises(UnitMultiplicityNotOne):
        make_counit(alg)


def test_structure_map_endpoints_validated():
    spec = cat("toric_code")
    carrier = Obj(spec, {"e": 1})
    with pytest.raises(AlgebraError):
        AlgebraObject(
            "bad",
            carrier,
            Mor.zero(Obj.unit(spec), Obj.unit(spec)),  # wrong codomain
            Mor.zero(tensor_obj(carrier, carrier), carrier),
        )


def test_counit_requires_unit_label():
    spec = cat("toric_code")
    carrier = Obj(spec, {"e": 1})
    alg = AlgebraObject(
        "unitless",
        carrier,
        Mor.zero(Obj.unit(spec), carrier),
        Mor.zero(tensor_obj(carrier, carrier), carrier),
    )
    with pytest.raises(UnitMultiplicityNotOne):
        make_counit(alg)


def split_pair_with_skew_counit():
    # eps = (2, -1) sends the unit (1, 1) to 1, so it can be stored, but mult
    # after its copairing is (1/2, -1), no multiple of the unit map
    spec = cat("vec_q")
    alg = split_pair_algebra(spec)
    one = Scalar.one(spec.field)
    two = Scalar.from_int(spec.field, 2)
    eps = Mor(alg.carrier, Obj.unit(spec), {"1": [[two, -one]]})
    return AlgebraObject(alg.name, alg.carrier, alg.unit_map, alg.mult_map, eps), eps


def test_index_undefined_for_skew_counit():
    alg, eps = split_pair_with_skew_counit()
    assert make_counit(alg) == eps
    loop = compose(alg.mult_map, solve_coevaluation(alg, make_counit(alg)))
    assert proportionality_scalar(loop, alg.unit_map) is None
    with pytest.raises(NotScalarMultiple, match="not proportional"):
        compute_index(alg)


INDEX_CASES = ["alg_qz3", "alg_h02", "alg_toric_1e"] + [
    "%s/%s" % pair for pair in itertools.product(["vec_q", "vec_f2", "vec_f3"], ["z2", "z3", "s3"])
]


@pytest.mark.parametrize("case", INDEX_CASES)
def test_index_is_the_proportionality_scalar(case):
    # the kit reads the index off the closed loop through the counit; the
    # oracle compares mult after copairing with the unit map entry by entry
    if "/" in case:
        cname, gname = case.split("/")
        alg = group_algebra(grp(gname), cat(cname))
    else:
        alg = load_algebra(data_path("algebras/%s.json" % case))
    loop = compose(alg.mult_map, solve_coevaluation(alg, make_counit(alg)))
    assert compute_index(alg) == proportionality_scalar(loop, alg.unit_map)


def dual_numbers_algebra():
    # basis (1, x) with x*x = 0; the coordinate counit pairs degenerately
    spec = cat("vec_q")
    field = spec.field
    one, zero = Scalar.one(field), Scalar.zero(field)
    carrier = Obj(spec, {"1": 2})
    unit_map = Mor(Obj.unit(spec), carrier, {"1": [[one], [zero]]})
    mult_map = Mor(
        tensor_obj(carrier, carrier),
        carrier,
        {"1": [[one, zero, zero, zero], [zero, one, one, zero]]},
    )
    return AlgebraObject("dual_numbers", carrier, unit_map, mult_map)


def all_ones_algebra(spec, mult):
    """Unit [[1]] and all-ones multiplication blocks on the given carrier.

    Not associative in general, but the copairing reads only the pairing.
    """
    one = Scalar.one(spec.field)
    carrier = Obj(spec, mult)
    aa = tensor_obj(carrier, carrier)
    blocks = {lab: [[one] * aa.m(lab)] for lab in carrier.labels_present()}
    unit_map = Mor(Obj.unit(spec), carrier, {spec.unit: [[one]]})
    return AlgebraObject("all_ones", carrier, unit_map, Mor(aa, carrier, blocks))


def missing_dual_algebra():
    # label 1 of pointed_z4 is present, its dual 3 is not
    return all_ones_algebra(cat("pointed_z4"), {"0": 1, "1": 1})


def broken_zigzag_algebra():
    # the first bent line can be met on tau, the second cannot
    fib = cat("fibonacci")
    key = ("tau", "tau", "tau", "tau", "tau", "tau")
    mutant = mutated(fib, F={key: -fib.F[key]}, name="fibonacci-mutant")
    return all_ones_algebra(mutant, {"1": 1, "tau": 1})


def test_dual_numbers_not_rigid():
    alg = dual_numbers_algebra()
    assert check_algebra(alg).ok
    counit = make_counit(alg)
    with pytest.raises(NotRigidSelfDual):
        solve_coevaluation(alg, counit)


@pytest.mark.parametrize(
    "solve",
    [lambda alg: solve_coevaluation(alg, make_counit(alg)), _composed_coevaluation],
    ids=["closed", "composed"],
)
@pytest.mark.parametrize("build", [dual_numbers_algebra, missing_dual_algebra, broken_zigzag_algebra])
def test_copairing_solves_refuse_non_rigid(build, solve):
    alg = build()
    with pytest.raises(NotRigidSelfDual):
        solve(alg)


@pytest.mark.parametrize("build", [dual_numbers_algebra, missing_dual_algebra])
def test_failed_frobenius_kit_is_not_kept(build, monkeypatch):
    # a failing solve leaves the kit empty, so every call solves and raises again
    calls = []
    solve = algebra_mod.solve_coevaluation
    monkeypatch.setattr(algebra_mod, "solve_coevaluation", lambda alg, *args: calls.append(alg) or solve(alg, *args))
    alg = build()
    for check in (compute_index, frobenius_kit, frobenius_identity_check, algebra_dim_with_twist):
        with pytest.raises(NotRigidSelfDual):
            check(alg)
    assert calls == [alg] * 4


def test_frobenius_kit_builds_its_counit_once(monkeypatch):
    made = []
    real = algebra_mod.make_counit
    monkeypatch.setattr(algebra_mod, "make_counit", lambda alg: made.append(alg) or real(alg))
    alg = group_algebra(grp("s3"), cat("vec_q"))
    frobenius_kit(alg)
    assert made == [alg]


COPAIRING_CASES = [
    "alg_qz3",
    "alg_h02",
    "alg_toric_1e",
    "vec_q/z2",
    "vec_q/z3",
    "vec_q/s3",
    "vec_f2/z2",
    "vec_f2/z3",
    "vec_f2/s3",
    "vec_f3/z2",
    "vec_f3/z3",
]


def case_algebra(case):
    """A bundled algebra by name, or the group algebra "category/group"."""
    if "/" in case:
        cname, gname = case.split("/")
        return group_algebra(grp(gname), cat(cname))
    return load_algebra(data_path("algebras/%s.json" % case))


@pytest.mark.parametrize("case", COPAIRING_CASES)
def test_closed_form_copairing_matches_composed_solve(case):
    alg = case_algebra(case)
    assert solve_coevaluation(alg, make_counit(alg)) == _composed_coevaluation(alg)
    assert _closed_form_agrees_with_composed(alg) == "rigid"


def test_closed_form_agrees_with_the_composed_bent_lines_on_group_and_subgroup_algebras():
    algebras = []
    for name, (elements, product) in sorted(_abstract_groups().items()):
        names = {g: "g%d" % k for k, g in enumerate(elements)}
        group = Group(name, list(names.values()), [[names[product(g, h)] for h in elements] for g in elements])
        algebras += [group_algebra(group, cat(cname)) for cname in ("vec_q", "vec_f3")]
    # the algebras of the local suite, and the Z_3 toric code's (a, 0) labels
    algebras += [
        subgroup_algebra(["0", "2"], cat("pointed_z4")),
        subgroup_algebra(["1", "e"], cat("toric_code")),
        subgroup_algebra(["0.0", "1.0", "2.0"], toric_zn(3)),
    ]
    assert len(algebras) == 14 + 3
    assert [_closed_form_agrees_with_composed(alg) for alg in algebras] == ["rigid"] * len(algebras)


def random_pairing_algebra(spec, seed):
    """An algebra-shaped probe whose pairing counit o mult is a seeded random
    nondegenerate one.  The carrier holds the unit and every other label
    (two random ones, with their duals, above four labels), each at
    multiplicity 1 or 2, equal on a label and its dual.  The unit map hits
    the first unit copy, and the multiplication is zero off that copy's
    row: the copairing reads only the pairing.  On each pairing block the
    entries are upper triangular with a nonzero diagonal."""
    rng = random.Random("%s %d" % (spec.name, seed))
    field = spec.field
    others = [lab for lab in spec.labels if lab != spec.unit]
    if len(spec.labels) > 4:
        others = rng.sample(others, 2)
    mult = {spec.unit: rng.choice((1, 2))}
    for lab in others:
        mult[lab] = mult[spec.dual[lab]] = mult.get(spec.dual[lab]) or rng.choice((1, 2))
    values = [x for x in (Scalar.from_int(field, k) for k in (1, -1, 2, -3)) if not x.is_zero()]
    carrier = Obj(spec, mult)
    row = {}
    for t, (_, j, _, k) in enumerate(pair_channels(carrier, carrier)[spec.unit]):
        if j == k or (j < k and rng.random() < 0.5):
            row[t] = rng.choice(values)
    one = Scalar.one(field)
    unit_map = Mor.from_rows(Obj.unit(spec), carrier, {spec.unit: [{0: one}]})
    mult_map = Mor.from_rows(tensor_obj(carrier, carrier), carrier, {spec.unit: [row]})
    return AlgebraObject("random-pairing(%s, %d)" % (spec.name, seed), carrier, unit_map, mult_map)


GAUGE_SOURCES = [cat(name) for name in ("pointed_z4", "toric_code", "ising", "fibonacci")] + [toric_zn(3)]
PAIRING_SPECS = ORACLE_SPECS + [toric_zn(3)] + [gauged(spec, seed) for spec in GAUGE_SOURCES for seed in (1, 2)]


@pytest.mark.parametrize("spec", PAIRING_SPECS, ids=lambda s: s.name)
def test_closed_form_agrees_with_the_composed_bent_lines_on_random_pairings(spec):
    for seed in range(2):
        _closed_form_agrees_with_composed(random_pairing_algebra(spec, seed))


def test_random_pairings_reach_every_verdict():
    # the comparisons above are not vacuous: the zigzag reading of the
    # carriers' labels is 1 on some, fails on others, and is singular on some
    seen = set()
    for spec in PAIRING_SPECS:
        failing = {item.check.split(":")[1]: item.witness for item in verify_zigzag(spec).items}
        for seed in range(2):
            hits = [failing[spec.dual[b]] for b in random_pairing_algebra(spec, seed).carrier.labels_present()
                    if spec.dual[b] in failing]
            seen.add("rigid" if not hits else "singular" if any("singular_f" in w for w in hits) else "second fails")
    assert seen == {"rigid", "second fails", "singular"}


# --- the twisted loop ---------------------------------------------------------


def composed_twisted_loop(alg):
    """The twisted loop the long way: the kit's pairing after the braiding
    after theta (x) 1 after its copairing, composed as morphisms."""
    counit, coev, _ = frobenius_kit(alg)
    A = alg.carrier
    chain = compose(
        compose(counit, alg.mult_map),
        compose(compose_tensor(braiding(A, A), twist_mor(A), Mor.identity(A)), coev),
    )
    return chain.block(alg.spec.unit)[0][0]


def _outcome(loop, alg):
    """The value of ``loop`` on ``alg``, or the type and message of its refusal."""
    try:
        return loop(alg)
    except Error as exc:
        return type(exc), str(exc)


def lagrangian_algebras(n):
    """The subgroup algebras of the Z_n toric code on its Lagrangian
    subgroups: every subgroup of order n of Z_n^2 that ``subgroup_algebra``
    does not refuse as twisted or braiding nontrivially."""
    spec = toric_zn(n)
    elements = list(itertools.product(range(n), repeat=2))
    subgroups = {
        frozenset(((i * g[0] + j * h[0]) % n, (i * g[1] + j * h[1]) % n) for i in range(n) for j in range(n))
        for g, h in itertools.combinations_with_replacement(elements, 2)
    }
    out = []
    for group in sorted((sorted(s) for s in subgroups if len(s) == n)):
        try:
            out.append(subgroup_algebra(["%d.%d" % ab for ab in group], spec))
        except NotIsotropic:
            pass
    return out


def gauged_algebra(alg, seed):
    """``alg`` carried to ``gauged(alg.spec, seed)``: the multiplication
    coefficient on each summand (a, i, b, j) of c is scaled by u^{ab}_c,
    which keeps every algebra axiom."""
    spec = gauged(alg.spec, seed)
    u = gauge(alg.spec, seed)
    A = Obj(spec, dict(alg.carrier.mult))
    pairs = pair_channels(A, A)
    rows = {
        c: [{t: u[pairs[c][t][0], pairs[c][t][2], c] * x for t, x in row.items()} for row in block]
        for c, block in alg.mult_map.rows.items()
    }
    unit_map = Mor.from_rows(Obj.unit(spec), A, alg.unit_map.rows)
    return AlgebraObject("%s-gauged" % alg.name, A, unit_map, Mor.from_rows(tensor_obj(A, A), A, rows))


TWIST_LAGRANGIANS = [alg for n in (3, 4, 5) for alg in lagrangian_algebras(n)]
TWIST_GAUGED = [
    (alg, gauged_algebra(alg, seed))
    for alg in [load_algebra("alg_toric_1e"), load_algebra("alg_h02")] + lagrangian_algebras(3)
    for seed in (1, 2)
]


def test_lagrangian_subgroups_are_found():
    # two per prime n, and Z_2 x Z_2 besides the axes for n = 4
    assert [len(lagrangian_algebras(n)) for n in (3, 4, 5)] == [2, 3, 2]
    assert all(check_algebra(moved).ok for _, moved in TWIST_GAUGED)


@pytest.mark.parametrize(
    "alg", [case_algebra(case) for case in COPAIRING_CASES] + TWIST_LAGRANGIANS, ids=lambda alg: alg.name
)
def test_twisted_loop_matches_the_composed_loop(alg):
    assert algebra_dim_with_twist(alg) == composed_twisted_loop(alg)


@pytest.mark.parametrize("pair", TWIST_GAUGED, ids=lambda pair: pair[1].name)
def test_twisted_loop_matches_the_composed_loop_after_a_gauge_change(pair):
    alg, moved = pair
    # theta is gauge invariant and R^{b b*}_1 / F^{b b* b}_{b;1,1} is too
    assert algebra_dim_with_twist(moved) == composed_twisted_loop(moved) == algebra_dim_with_twist(alg)


def test_twisted_loop_matches_the_composed_loop_on_random_pairings():
    seen = set()
    for spec in PAIRING_SPECS:
        for seed in range(2):
            alg = random_pairing_algebra(spec, seed)
            got = _outcome(algebra_dim_with_twist, alg)
            assert got == _outcome(composed_twisted_loop, alg), alg.name
            seen.add(got[0].__name__ if isinstance(got, tuple) else "value")
    # the comparison covers values, refusals of the kit and of the braiding
    assert {"value", "NotRigidSelfDual", "FusionDataError"} <= seen


@pytest.mark.parametrize(
    "build",
    [lambda: load_algebra("alg_toric_1e"), lambda: lagrangian_algebras(4)[1]],
    ids=["alg_toric_1e", "z2xz2_in_z4"],
)
def test_twisted_loop_composes_nothing(build, monkeypatch):
    alg = build()
    frobenius_kit(alg)
    calls = []
    for name in ("compose", "compose_tensor", "tensor_compose", "braiding"):
        real = getattr(algebra_mod, name)
        monkeypatch.setattr(algebra_mod, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    algebra_dim_with_twist(alg)
    assert calls == []


def test_twisted_loop_on_fusion_that_does_not_commute_refuses_as_the_braiding():
    # e + r + r2 + s in Vec(S3) has a kit, but r (x) s is sr2 and s (x) r
    # is sr, so A (x) A has no braiding
    alg = all_ones_algebra(vec_s3(), {"e": 1, "r": 1, "r2": 1, "s": 1})
    frobenius_kit(alg)
    with pytest.raises(FusionDataError) as expected:
        braiding(alg.carrier, alg.carrier)
    with pytest.raises(FusionDataError) as got:
        algebra_dim_with_twist(alg)
    assert type(got.value) is type(expected.value) and str(got.value) == str(expected.value)
    # e + r + s misses the dual of r: the kit refuses before any braiding
    with pytest.raises(NotRigidSelfDual):
        algebra_dim_with_twist(all_ones_algebra(vec_s3(), {"e": 1, "r": 1, "s": 1}))


@pytest.mark.parametrize(
    "build",
    [lambda: group_algebra(grp("s3"), cat("vec_q")), lambda: load_algebra("alg_qz3"), lambda: load_algebra("alg_toric_1e")],
    ids=["vec_q/s3", "alg_qz3", "alg_toric_1e"],
)
def test_solve_coevaluation_composes_nothing_on_the_triple_product(build, monkeypatch):
    alg = build()
    calls = []
    for name in ("associator", "associator_inv", "compose_tensor", "tensor_compose"):
        real = getattr(algebra_mod, name)
        monkeypatch.setattr(algebra_mod, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    coev = solve_coevaluation(alg, make_counit(alg))
    assert calls == []
    assert coev == _composed_coevaluation(alg)


def test_verify_zigzag_and_the_solve_read_one_second_move(monkeypatch):
    assert algebra_mod._second_move is category._second_move
    read = []
    real = category._second_move

    def spy(spec, s):
        read.append(s)
        return real(spec, s)

    monkeypatch.setattr(category, "_second_move", spy)
    monkeypatch.setattr(algebra_mod, "_second_move", spy)
    spec = cat("toric_code")
    assert verify_zigzag(spec).items == []
    assert read == list(spec.labels)
    read.clear()
    alg = load_algebra("alg_toric_1e")
    solve_coevaluation(alg, make_counit(alg))
    assert read == [spec.dual[b] for b in alg.carrier.labels_present()] == ["1", "e"]


def test_a_singular_zigzag_block_of_a_carrier_label_stops_the_kit():
    ising = cat("ising")
    key = ("sigma",) * 4 + ("1", "1")
    alg = all_ones_algebra(mutated(ising, F={key: -ising.f_symbol(*key)}), {"1": 1, "sigma": 1})
    with pytest.raises(SingularFBlock) as exc:
        frobenius_kit(alg)
    assert exc.value.labels == ("sigma",) * 4
    assert alg._kit is None


def test_a_singular_block_off_the_zigzag_blocks_stops_its_first_inverting_caller():
    # (sigma.0, sigma.1, sigma.0; sigma.1) is singular, and the zigzag
    # blocks of the carrier's labels, (b, b*, b; b), are not: the kit is
    # solved, and the first map through that block raises
    from ctc.modules import induce

    spec = ising_times_z2()
    key = ("sigma.0", "sigma.1", "sigma.0", "sigma.1", "1.1", "1.1")
    alg = all_ones_algebra(mutated(spec, F={key: -spec.f_symbol(*key)}), {"1.0": 1, "sigma.0": 1, "sigma.1": 1})
    _, coev, _ = frobenius_kit(alg)
    assert coev == _composed_coevaluation(alg, both=False)
    for call in (frobenius_identity_check, lambda alg: induce(alg, alg.carrier)):
        with pytest.raises(SingularFBlock) as exc:
            call(alg)
        assert exc.value.labels == key[:4]


def matrix_algebra_with_skew_trace():
    """M_2(Q) on the basis E11, E12, E21, E22 with counit 2*E11* - E22*.

    The pairing eps(xy) is not symmetric (E12 E21 = E11, E21 E12 = E22),
    so a copairing assembled from a transposed block would be caught.
    """
    spec = cat("vec_q")
    field = spec.field
    one, zero = Scalar.one(field), Scalar.zero(field)
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    carrier = Obj(spec, {"1": 4})
    mult = [[zero] * 16 for _ in range(4)]
    for x, (i, j) in enumerate(basis):
        for y, (k, l) in enumerate(basis):
            if j == k:
                mult[basis.index((i, l))][x * 4 + y] = one
    unit_map = Mor(Obj.unit(spec), carrier, {"1": [[one], [zero], [zero], [one]]})
    eps = Mor(carrier, Obj.unit(spec), {"1": [[Scalar.from_int(field, 2), zero, zero, -one]]})
    return AlgebraObject("m2", carrier, unit_map, Mor(tensor_obj(carrier, carrier), carrier, {"1": mult}), eps), eps


def fibonacci_one_plus_tau():
    alg = all_ones_algebra(cat("fibonacci"), {"1": 1, "tau": 1})
    return alg, make_counit(alg)


@pytest.mark.parametrize(
    "build", [split_pair_with_skew_counit, matrix_algebra_with_skew_trace, fibonacci_one_plus_tau]
)
def test_closed_form_copairing_matches_composed_solve_on_probes(build):
    alg, eps = build()
    assert make_counit(alg) == eps
    assert solve_coevaluation(alg, make_counit(alg)) == _composed_coevaluation(alg)
    assert _closed_form_agrees_with_composed(alg) == "rigid"


def test_mutated_mult_breaks_associativity():
    spec = cat("vec_q")
    alg = group_algebra(grp("z3"), spec)
    blk = [row[:] for row in alg.mult_map.block("1")]
    blk[2][4] = blk[2][4] + Scalar.one(spec.field)  # perturb g1*g1 component
    bad = AlgebraObject(alg.name, alg.carrier, alg.unit_map, Mor(alg.mult_map.dom, alg.mult_map.cod, {"1": blk}))
    st = statuses(check_algebra(bad))
    assert st["associative"] == "fail"
    assert st["unit-left"] == "pass"


# --- loading ---------------------------------------------------------------


def test_bundled_algebras_load_and_pass():
    for name in ("alg_h02", "alg_toric_1e", "alg_qz3"):
        alg = load_algebra(data_path("algebras/%s.json" % name))
        assert check_algebra(alg).ok, name


def test_algebra_from_json_missing_key():
    with pytest.raises(ParseError):
        algebra_from_json({"category": "vec_q"})


def test_algebra_from_json_inline():
    raw = {
        "category": "vec_q",
        "object": {"1": 1},
        "iota": {"1": [["1"]]},
        "mu": {"1": [["1"]]},
    }
    alg = algebra_from_json(raw, name="unit_algebra")
    assert check_algebra(alg).ok
    assert compute_index(alg).is_one()


def test_algebra_from_json_explicit_counit():
    raw = {
        "category": "vec_q",
        "object": {"1": 2},
        "iota": {"1": [["1"], ["0"]]},
        "mu": {"1": [["1", "0", "0", "0"], ["0", "1", "1", "0"]]},
        "counit": {"1": [["1", "0"]]},
    }
    alg = algebra_from_json(raw, name="dual_numbers")
    assert alg.counit is not None
    assert make_counit(alg) == alg.counit
    bad = dict(raw, counit={"1": [["0", "1"]]})
    with pytest.raises(AlgebraError):
        algebra_from_json(bad, name="bad_counit")
