"""Algebra-object tests: axioms, counit, copairing, index, constructions.

Expected index values are frozen from the group orders; the engine must
reproduce them through the snake solve, not the other way round.  The
closed-form copairing is checked against a generic solve that composes
both bent lines for every unknown.
"""

import itertools
import random

import pytest

from ctc import data_path
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
from ctc.category import (
    Mor,
    Obj,
    associator,
    associator_inv,
    categorical_dim,
    compose,
    load_category,
    pair_channels,
    tensor_mor,
    tensor_obj,
)
from ctc.fields import ParseError, Scalar, parse_scalar
from test_category import mutated
from test_linalg import dense_nullspace, dense_solve


def cat(name):
    return load_category(data_path("categories/%s.json" % name))


def grp(name):
    return load_group(data_path("groups/%s.json" % name))


def statuses(report):
    return {i.check: i.status for i in report.items}


class NonUniqueCoevaluation(Exception):
    """The composed bent-line system leaves free parameters."""


def _composed_coevaluation(alg):
    """Reference copairing: one unknown per unit slot of the tensor square,
    both bent lines composed for each, then one exact linear solve."""
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
    assoc_inv = associator_inv(A, A, A)

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
        columns.append(flatten(snake1(k)) + flatten(snake2(k)))
    rows = len(columns[0])
    mat = [[columns[t][r] for t in range(n_unknowns)] for r in range(rows)]
    rhs = [[v] for v in flatten(ident) + flatten(ident)]
    sol = dense_solve(mat, rhs, field, rows, n_unknowns, 1)
    if sol is None:
        raise NotRigidSelfDual("bent-line conditions are inconsistent")
    freedom = len(dense_nullspace(mat, field, rows, n_unknowns))
    if freedom:
        raise NonUniqueCoevaluation("%d free parameters" % freedom)
    return Mor(unit_o, aa, {spec.unit: [[sol[t][0]] for t in range(n_unknowns)]})


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
    assert frobenius_kit(alg)[:2] == (eps, solve_coevaluation(alg))
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
    assert frobenius_kit(alg)[:2] == (make_counit(alg), solve_coevaluation(alg))
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
    solve_coevaluation(alg)
    with pytest.raises(NotScalarMultiple):
        compute_index(alg)


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
    make_counit(alg)
    with pytest.raises(NotRigidSelfDual):
        solve_coevaluation(alg)


@pytest.mark.parametrize("solve", [solve_coevaluation, _composed_coevaluation], ids=["closed", "composed"])
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


@pytest.mark.parametrize("case", COPAIRING_CASES)
def test_closed_form_copairing_matches_composed_solve(case):
    if "/" in case:
        cname, gname = case.split("/")
        alg = group_algebra(grp(gname), cat(cname))
    else:
        alg = load_algebra(data_path("algebras/%s.json" % case))
    assert solve_coevaluation(alg) == _composed_coevaluation(alg)


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
    assert solve_coevaluation(alg) == _composed_coevaluation(alg)


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
