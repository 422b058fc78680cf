"""Module layer: axioms, averaging against a classical oracle, locality,
semisimplicity, condensation against an orbit-counting oracle, suites."""

import functools
import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ctc import category as category_mod
from ctc import data_path, read_json, resolve
from ctc import linalg as la
from ctc import algebra as algebra_mod
from ctc.algebra import (
    AlgebraObject,
    Group,
    compute_index,
    frobenius_identity_check,
    group_algebra,
    load_algebra,
    load_group,
    subgroup_algebra,
)
from ctc.category import (
    Mor,
    Obj,
    associator,
    compose,
    load_category,
    mor_right_inverse,
    pair_channels,
    tensor_mor,
    tensor_obj,
)
from ctc.fields import ParseError, Scalar, parse_scalar
from ctc.modules import (
    AlgebraMismatch,
    AModule,
    Condensation,
    IndexZero,
    ModuleError,
    NotAlgebraAutomorphism,
    NotASection,
    SectionPostconditionFailed,
    action_algebra,
    algebra_radical,
    check_module,
    condense,
    hom_A,
    induce,
    is_local,
    is_semisimple_module,
    is_simple_module,
    is_twisted_local,
    load_module,
    local_projection,
    maschke_section,
    module_from_json,
    modules_isomorphic,
    projector_pi,
    regular_module,
    run_suite_manifest,
    trivial_module,
)
from ctc import modules as modules_mod
from ctc.modules import _augmentation, _equivariant_section_exists, _int_mat_mul, _ronyai_g
from test_category import dual_obj, ev_coev
from test_linalg import dense_nullspace, dense_rref, dense_solve, identity, to_dense


def cat(name):
    return load_category(data_path("categories/%s.json" % name))


def small_group(name):
    """Bundled z2, z3 and s3; z2xz2 and every other cyclic z<n> built here."""
    if name in ("z2", "z3", "s3"):
        return load_group(data_path("groups/%s.json" % name))
    if name == "z2xz2":
        els = ["00", "01", "10", "11"]
        table = [["%d%d" % (int(a[0]) ^ int(b[0]), int(a[1]) ^ int(b[1])) for b in els] for a in els]
        return Group(name, els, table)
    n = int(name[1:])
    els = [str(k) for k in range(n)]
    return Group(name, els, [[str((i + j) % n) for j in range(n)] for i in range(n)])


SMALL_GROUPS = ["z2", "z3", "z4", "z5", "z6", "z2xz2", "s3"]


def galg(cat_name, group_name):
    return group_algebra(small_group(group_name), cat(cat_name))


def lit_mor(dom, cod, blocks):
    f = dom.spec.field
    return Mor(
        dom,
        cod,
        {lab: [[parse_scalar(x, f) for x in row] for row in mat] for lab, mat in blocks.items()},
    )


def theorem_suite(name):
    """The report of a bundled suite, by manifest name."""
    path = resolve("suites", name)
    return run_suite_manifest(read_json(path), path.parent)


def direct_sum_with_maps(x1, x2):
    """x1 (+) x2 together with (inclusions, projections); x1 copies first."""
    one = Scalar.one(x1.spec.field)
    total = Obj(x1.spec, {lab: x1.m(lab) + x2.m(lab) for lab in x1.spec.labels})
    inc1, inc2, pr1, pr2 = {}, {}, {}, {}
    for lab in total.labels_present():
        n1, n2 = x1.m(lab), x2.m(lab)
        if n1:
            inc1[lab] = [{i: one} for i in range(n1)] + [{} for _ in range(n2)]
            pr1[lab] = [{i: one} for i in range(n1)]
        if n2:
            inc2[lab] = [{} for _ in range(n1)] + [{i: one} for i in range(n2)]
            pr2[lab] = [{n1 + i: one} for i in range(n2)]
    return (
        total,
        (Mor.from_rows(x1, total, inc1), Mor.from_rows(x2, total, inc2)),
        (Mor.from_rows(total, x1, pr1), Mor.from_rows(total, x2, pr2)),
    )


def module_direct_sum(m1, m2):
    """Direct sum of two modules over one algebra instance, with the four
    structure maps; left summand slots first."""
    assert m1.alg is m2.alg
    A = m1.alg.carrier
    total, (i1, i2), (p1, p2) = direct_sum_with_maps(m1.carrier, m2.carrier)
    ia = Mor.identity(A)
    action = compose(i1, compose(m1.action, tensor_mor(ia, p1))) + compose(
        i2, compose(m2.action, tensor_mor(ia, p2))
    )
    out = AModule("(%s + %s)" % (m1.name, m2.name), m1.alg, total, action)
    return out, (i1, i2), (p1, p2)


# ---------------------------------------------------------------------------
# classical averaging oracle: plain Fraction matrices, no engine code


def frac_zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def frac_mul(a, b):
    r, inner, c = len(a), len(b), len(b[0])
    out = frac_zeros(r, c)
    for i in range(r):
        for k in range(inner):
            if a[i][k]:
                for j in range(c):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def frac_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def frac_scale(a, s):
    return [[x * s for x in row] for row in a]


def frac_kron(a, b):
    ra, ca, rb, cb = len(a), len(a[0]), len(b), len(b[0])
    out = frac_zeros(ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k][j * cb + l] = a[i][j] * b[k][l]
    return out


def left_mult_matrices(group):
    n = len(group)
    mats = []
    for gi in group.elements:
        m = frac_zeros(n, n)
        for j, gj in enumerate(group.elements):
            m[group.elements.index(group.mul(gi, gj))][j] = Fraction(1)
        mats.append(m)
    return mats


def classical_average(group, rho_dom, rho_cod, sigma):
    """(1/|G|) sum over g of rho_dom(g) sigma rho_cod(g)^-1, all Fractions."""
    n = len(group)
    acc = frac_zeros(len(sigma), len(sigma[0]))
    for i, g in enumerate(group.elements):
        inv = next(k for k, h in enumerate(group.elements) if group.mul(g, h) == group.identity)
        acc = frac_add(acc, frac_mul(rho_dom[i], frac_mul(sigma, rho_cod[inv])))
    return frac_scale(acc, Fraction(1, n))


def assert_block_matches_fractions(mor, lab, fracs):
    field = mor.dom.spec.field
    blk = mor.block(lab)
    assert len(blk) == len(fracs) and len(blk[0]) == len(fracs[0])
    for r, row in enumerate(fracs):
        for c, v in enumerate(row):
            assert blk[r][c] == Scalar.from_fraction(field, v), (lab, r, c)


# ---------------------------------------------------------------------------
# basics


def test_regular_and_induced_modules_satisfy_axioms():
    for alg in (
        load_algebra(data_path("algebras/alg_qz3.json")),
        load_algebra(data_path("algebras/alg_h02.json")),
        load_algebra(data_path("algebras/alg_toric_1e.json")),
    ):
        assert check_module(regular_module(alg)).ok
        for lab in alg.spec.labels:
            mod = induce(alg, Obj.simple(alg.spec, lab))
            assert check_module(mod).ok, (alg.name, lab)


def test_action_endpoint_validation():
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    x = Obj.simple(alg.spec, "m")
    bad = Mor.identity(x)
    with pytest.raises(ModuleError):
        AModule("bad", alg, x, bad)


def test_broken_action_fails_axioms():
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    good = induce(alg, Obj.simple(alg.spec, "m"))
    blocks = {lab: [row[:] for row in good.action.block(lab)] for lab in ("m", "f")}
    blocks["m"][0][1] = -blocks["m"][0][1]
    bad = AModule("tweaked", alg, good.carrier, Mor(good.action.dom, good.carrier, blocks))
    rep = check_module(bad)
    statuses = {i.check: i.status for i in rep.items}
    assert statuses["action-unit"] == "pass"
    assert statuses["action-associative"] == "fail"


def test_bundled_module_file_matches_induction():
    mod = load_module(data_path("modules/mod_toric_m.json"))
    assert check_module(mod).ok
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    ind = induce(alg, Obj.simple(alg.spec, "m"))
    assert mod.carrier == ind.carrier
    assert mod.action == ind.action


def test_module_from_json_missing_key():
    with pytest.raises(ParseError):
        module_from_json({"algebra": "alg_toric_1e", "object": {"m": 1}})


def test_trivial_module_exists_for_group_algebras():
    assert check_module(trivial_module(galg("vec_q", "z3"))).ok
    assert check_module(trivial_module(galg("vec_f2", "z2"))).ok
    with pytest.raises(ModuleError):
        trivial_module(load_algebra(data_path("algebras/alg_h02.json")))


def test_direct_sum_maps():
    spec = cat("ising")
    rng = random.Random(2)
    X1, X2 = (Obj(spec, {lab: rng.randint(0, 2) for lab in spec.labels}) for _ in range(2))
    total, (i1, i2), (p1, p2) = direct_sum_with_maps(X1, X2)
    assert total.mult == {lab: X1.m(lab) + X2.m(lab) for lab in spec.labels if X1.m(lab) + X2.m(lab)}
    assert compose(p1, i1) == Mor.identity(X1)
    assert compose(p2, i2) == Mor.identity(X2)
    assert compose(p2, i1).is_zero()
    recomposed = compose(i1, p1) + compose(i2, p2)
    assert recomposed == Mor.identity(total)


def test_module_direct_sum_structure():
    alg = load_algebra(data_path("algebras/alg_qz3.json"))
    reg = regular_module(alg)
    triv = trivial_module(alg)
    total, (i1, i2), (p1, p2) = module_direct_sum(reg, triv)
    assert check_module(total).ok
    ia = Mor.identity(alg.carrier)
    assert compose(p1, total.action) == compose(reg.action, tensor_mor(ia, p1))
    assert compose(i2, triv.action) == compose(total.action, tensor_mor(ia, i2))


# ---------------------------------------------------------------------------
# hom spaces


def test_hom_dimensions_group_regular():
    alg = load_algebra(data_path("algebras/alg_qz3.json"))
    reg = regular_module(alg)
    assert len(hom_A(reg, reg)) == 3
    s3 = galg("vec_q", "s3")
    assert len(hom_A(regular_module(s3), regular_module(s3))) == 6


def test_hom_regular_trivial_both_ways():
    alg = load_algebra(data_path("algebras/alg_qz3.json"))
    reg = regular_module(alg)
    triv = trivial_module(alg)
    down = hom_A(reg, triv)
    up = hom_A(triv, reg)
    assert len(down) == 1 and len(up) == 1
    ia = Mor.identity(alg.carrier)
    f = down[0]
    assert compose(f, reg.action) == compose(triv.action, tensor_mor(ia, f))


def test_hom_between_distinct_simples_is_zero():
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    m1 = induce(alg, Obj.simple(alg.spec, "1"))
    mm = induce(alg, Obj.simple(alg.spec, "m"))
    assert hom_A(m1, mm) == []


def test_hom_rejects_mismatched_algebra_instances():
    a1 = load_algebra(data_path("algebras/alg_toric_1e.json"))
    a2 = load_algebra(data_path("algebras/alg_toric_1e.json"))
    with pytest.raises(AlgebraMismatch):
        hom_A(regular_module(a1), regular_module(a2))


# ---------------------------------------------------------------------------
# locality


def test_regular_modules_are_local():
    for name in ("alg_h02", "alg_toric_1e"):
        alg = load_algebra(data_path("algebras/%s.json" % name))
        ok, witness = is_local(regular_module(alg))
        assert ok and witness is None


def test_magnetic_induced_module_not_local():
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    ok, witness = is_local(induce(alg, Obj.simple(alg.spec, "m")))
    assert not ok
    assert witness is not None


def test_twisted_locality_with_sign_flip():
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    A = alg.carrier
    flip = lit_mor(A, A, {"1": [["1"]], "e": [["-1"]]})
    mm = induce(alg, Obj.simple(alg.spec, "m"))
    ok, _ = is_twisted_local(mm, flip)
    assert ok
    vac = induce(alg, Obj.simple(alg.spec, "1"))
    ok, witness = is_twisted_local(vac, flip)
    assert not ok and witness is not None
    ok, _ = is_twisted_local(vac, Mor.identity(A))
    assert ok


def test_twisted_locality_rejects_non_automorphism():
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    A = alg.carrier
    mm = induce(alg, Obj.simple(alg.spec, "m"))
    with pytest.raises(NotAlgebraAutomorphism):
        is_twisted_local(mm, lit_mor(A, A, {"1": [["1"]], "e": [["2"]]}))
    with pytest.raises(NotAlgebraAutomorphism):
        is_twisted_local(mm, lit_mor(A, A, {"1": [["1"]], "e": [["0"]]}))


# ---------------------------------------------------------------------------
# averaging against the classical formula


def test_maschke_matches_group_average_z3_augmentation():
    group = load_group(data_path("groups/z3.json"))
    alg = galg("vec_q", "z3")
    reg = regular_module(alg)
    triv = trivial_module(alg)
    aug = lit_mor(reg.carrier, triv.carrier, {"1": [["1", "1", "1"]]})
    rho = left_mult_matrices(group)
    triv_rho = [[[Fraction(1)]]] * len(group)
    for pick in range(3):
        sigma_fr = [[Fraction(0)] for _ in range(3)]
        sigma_fr[pick][0] = Fraction(1)
        sigma = lit_mor(triv.carrier, reg.carrier, {"1": [[str(v) for v in row] for row in sigma_fr]})
        s = maschke_section(aug, reg, triv, sigma)
        expected = classical_average(group, rho, triv_rho, sigma_fr)
        assert_block_matches_fractions(s, "1", expected)


def test_maschke_matches_group_average_s3_augmentation():
    group = load_group(data_path("groups/s3.json"))
    alg = galg("vec_q", "s3")
    reg = regular_module(alg)
    triv = trivial_module(alg)
    n = len(group)
    aug = lit_mor(reg.carrier, triv.carrier, {"1": [["1"] * n]})
    rho = left_mult_matrices(group)
    triv_rho = [[[Fraction(1)]]] * n
    sigma_fr = [[Fraction(0)] for _ in range(n)]
    sigma_fr[2][0] = Fraction(1)
    sigma = lit_mor(triv.carrier, reg.carrier, {"1": [[str(v) for v in row] for row in sigma_fr]})
    s = maschke_section(aug, reg, triv, sigma)
    expected = classical_average(group, rho, triv_rho, sigma_fr)
    assert_block_matches_fractions(s, "1", expected)


def test_maschke_matches_group_average_z3_multiplication_split():
    group = load_group(data_path("groups/z3.json"))
    alg = galg("vec_q", "z3")
    n = len(group)
    reg = regular_module(alg)
    free = induce(alg, alg.carrier)
    sigma = tensor_mor(Mor.identity(alg.carrier), alg.unit_map)
    s = maschke_section(alg.mult_map, free, reg, sigma)
    rho = left_mult_matrices(group)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rho_free = [frac_kron(r, eye) for r in rho]
    id_idx = group.elements.index(group.identity)
    sigma_fr = frac_zeros(n * n, n)
    for h in range(n):
        sigma_fr[h * n + id_idx][h] = Fraction(1)
    expected = classical_average(group, rho_free, rho, sigma_fr)
    assert_block_matches_fractions(s, "1", expected)


def test_frobenius_kit_is_solved_once_per_algebra(monkeypatch):
    calls = []
    solve = algebra_mod.solve_coevaluation
    monkeypatch.setattr(algebra_mod, "solve_coevaluation", lambda alg, *args: calls.append(alg) or solve(alg, *args))
    alg = galg("vec_q", "s3")
    assert compute_index(alg) == Scalar.from_int(alg.spec.field, 6)
    free, reg = induce(alg, alg.carrier), regular_module(alg)
    sigma = tensor_mor(Mor.identity(alg.carrier), alg.unit_map)
    maschke_section(alg.mult_map, free, reg, sigma)
    maschke_section(alg.mult_map, free, reg, sigma)
    projector_pi(reg)
    assert frobenius_identity_check(alg).ok
    assert calls == [alg]
    # a rebuilt algebra starts without a kit
    twin = AlgebraObject("twin", alg.carrier, alg.unit_map, alg.mult_map)
    assert compute_index(twin) == compute_index(alg)
    assert calls == [alg, twin]


def test_maschke_section_does_not_depend_on_sigma():
    alg = galg("vec_q", "z3")
    reg = regular_module(alg)
    triv = trivial_module(alg)
    aug = lit_mor(reg.carrier, triv.carrier, {"1": [["1", "1", "1"]]})
    s = maschke_section(aug, reg, triv, mor_right_inverse(aug))
    # averaging lands on the unique equivariant section, whatever sigma was
    sigma = lit_mor(triv.carrier, reg.carrier, {"1": [["0"], ["1"], ["0"]]})
    assert s == maschke_section(aug, reg, triv, sigma)


def test_maschke_over_trivial_algebra_returns_sigma():
    alg = group_algebra(Group("one", ["e"], [["e"]]), cat("vec_q"))
    assert alg.carrier.mult == {"1": 1}
    m1 = induce(alg, Obj(alg.spec, {"1": 2}))
    m2 = induce(alg, Obj(alg.spec, {"1": 1}))
    f = lit_mor(m1.carrier, m2.carrier, {"1": [["1", "1"]]})
    sigma = lit_mor(m2.carrier, m1.carrier, {"1": [["1"], ["0"]]})
    assert maschke_section(f, m1, m2, sigma) == sigma


def test_maschke_postconditions_catch_bad_inputs():
    alg = galg("vec_q", "z3")
    reg = regular_module(alg)
    triv = trivial_module(alg)
    aug = lit_mor(reg.carrier, triv.carrier, {"1": [["1", "1", "1"]]})
    not_section = Mor.zero(triv.carrier, reg.carrier)
    with pytest.raises(NotASection):
        maschke_section(aug, reg, triv, not_section)
    skew = lit_mor(reg.carrier, triv.carrier, {"1": [["1", "0", "0"]]})
    sigma = lit_mor(triv.carrier, reg.carrier, {"1": [["1"], ["0"], ["0"]]})
    with pytest.raises(SectionPostconditionFailed):
        maschke_section(skew, reg, triv, sigma)


def test_maschke_rejects_mismatched_algebra_instances():
    a1 = galg("vec_q", "z3")
    a2 = galg("vec_q", "z3")
    sigma = tensor_mor(Mor.identity(a1.carrier), a1.unit_map)
    with pytest.raises(AlgebraMismatch):
        maschke_section(a1.mult_map, induce(a1, a1.carrier), regular_module(a2), sigma)


def test_maschke_char_divides_order_raises():
    alg = galg("vec_f2", "z2")
    reg = regular_module(alg)
    free = induce(alg, alg.carrier)
    sigma = tensor_mor(Mor.identity(alg.carrier), alg.unit_map)
    with pytest.raises(IndexZero):
        maschke_section(alg.mult_map, free, reg, sigma)


# ---------------------------------------------------------------------------
# the bent section through a rigid target
#
# The paper's converse (C_A semisimple implies C semisimple) splits a
# surjection in C this way.  Skeletal data is semisimple by construction,
# so the engine has no caller for it and it lives here.


class NotALift(ModuleError):
    """The bent lift does not sit over the coevaluation."""


def split_with_rigid_target(f, sigma_tilde):
    """Right inverse of f built from a bent lift through the dual of its target.

    sigma_tilde goes from the unit into dom(f) tensor the dual of
    cod(f), and must reproduce the coevaluation of the target once its
    first leg is closed with f.  Bending the dual leg back down with
    the evaluation then gives a section of f, rechecked exactly.
    """
    w1, w2 = f.dom, f.cod
    w2d = dual_obj(w2)
    ev, coev = ev_coev(w2)
    if sigma_tilde.dom != Obj.unit(w1.spec) or sigma_tilde.cod != tensor_obj(w1, w2d):
        raise ModuleError("lift must go from the unit into dom (x) dual cod")
    if compose(tensor_mor(f, Mor.identity(w2d)), sigma_tilde) != coev:
        raise NotALift("closing the lift with f misses the coevaluation")
    section = compose(
        tensor_mor(Mor.identity(w1), ev),
        compose(associator(w1, w2d, w2), tensor_mor(sigma_tilde, Mor.identity(w2))),
    )
    if compose(f, section) != Mor.identity(w2):
        raise SectionPostconditionFailed("bent section does not invert f on the right")
    return section


def test_split_with_rigid_target_identity_lift():
    spec = cat("toric_code")
    w = Obj(spec, {"m": 1, "e": 1})
    _, coev = ev_coev(w)
    assert split_with_rigid_target(Mor.identity(w), coev) == Mor.identity(w)


def test_split_with_rigid_target_vec_surjection():
    spec = cat("vec_q")
    w1 = Obj(spec, {"1": 2})
    w2 = Obj(spec, {"1": 1})
    f = lit_mor(w1, w2, {"1": [["1", "2"]]})
    g = mor_right_inverse(f)
    _, coev = ev_coev(w2)
    lift = compose(tensor_mor(g, Mor.identity(dual_obj(w2))), coev)
    s = split_with_rigid_target(f, lift)
    assert compose(f, s) == Mor.identity(w2)
    assert s == g


def test_split_with_rigid_target_through_fibonacci_duals():
    spec = cat("fibonacci")
    tau = Obj.simple(spec, "tau")
    w1 = Obj(spec, {"tau": 2})
    f = lit_mor(w1, tau, {"tau": [["2", "-1"]]})
    g = mor_right_inverse(f)
    _, coev = ev_coev(tau)
    lift = compose(tensor_mor(g, Mor.identity(dual_obj(tau))), coev)
    s = split_with_rigid_target(f, lift)
    assert compose(f, s) == Mor.identity(tau)


def test_split_with_rigid_target_rejects_bad_lift():
    spec = cat("vec_q")
    w = Obj(spec, {"1": 1})
    _, coev = ev_coev(w)
    with pytest.raises(NotALift):
        split_with_rigid_target(Mor.identity(w), coev.scale(Scalar.from_int(spec.field, 2)))


# ---------------------------------------------------------------------------
# monodromy projector


def test_projector_is_identity_on_local_modules():
    for name in ("alg_h02", "alg_toric_1e"):
        alg = load_algebra(data_path("algebras/%s.json" % name))
        reg = regular_module(alg)
        assert projector_pi(reg) == Mor.identity(reg.carrier)


def test_projector_kills_nonlocal_induction():
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    for lab in ("m", "f"):
        mod = induce(alg, Obj.simple(alg.spec, lab))
        assert projector_pi(mod).is_zero()


def test_projector_on_mixed_sum():
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    ind1 = induce(alg, Obj.simple(alg.spec, "1"))
    indm = induce(alg, Obj.simple(alg.spec, "m"))
    total, (i1, i2), (p1, _p2) = module_direct_sum(ind1, indm)
    pi = projector_pi(total)
    assert compose(pi, pi) == pi
    assert compose(pi, i1) == i1
    assert compose(pi, i2).is_zero()
    ia = Mor.identity(alg.carrier)
    assert compose(pi, total.action) == compose(total.action, tensor_mor(ia, pi))
    loc, inc, prj = local_projection(total)
    assert check_module(loc).ok
    assert compose(prj, inc) == Mor.identity(loc.carrier)
    assert compose(inc, loc.action) == compose(total.action, tensor_mor(ia, inc))
    assert loc.carrier.mult == {"1": 1, "e": 1}
    assert modules_isomorphic(loc, ind1) is not None


def test_local_projection_of_nonlocal_module_is_zero():
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    loc, _inc, _prj = local_projection(induce(alg, Obj.simple(alg.spec, "m")))
    assert loc.carrier.is_zero()


# ---------------------------------------------------------------------------
# semisimplicity through the action algebra


def test_action_algebra_dimensions():
    alg = load_algebra(data_path("algebras/alg_qz3.json"))
    reg = regular_module(alg)
    aa = action_algebra(reg)
    assert aa.size == 3 and aa.dimension == 3
    assert len(_candidates(reg)) == 4 and aa.radical == []
    toric = load_algebra(data_path("algebras/alg_toric_1e.json"))
    aa = action_algebra(induce(toric, Obj.simple(toric.spec, "m")))
    assert aa.size == 2 and aa.dimension == 4
    assert aa.radical == []


def test_module_keeps_its_action_algebra_without_a_cycle():
    reg = regular_module(galg("vec_q", "z3"))
    aa = action_algebra(reg)
    assert action_algebra(reg) is aa
    assert reg not in gc.get_referents(aa)


def test_group_regular_semisimple_in_char_zero():
    for gname, dim in (("z3", 3), ("s3", 6)):
        reg = regular_module(galg("vec_q", gname))
        ok, witness = is_semisimple_module(reg)
        assert ok and witness == {"algebra_dim": dim, "radical_dim": 0}


def test_modular_group_algebra_not_semisimple():
    reg = regular_module(galg("vec_f2", "z2"))
    ok, witness = is_semisimple_module(reg)
    assert not ok
    assert witness == [["1", "1"], ["1", "1"]]
    reg3 = regular_module(galg("vec_f3", "z3"))
    ok3, witness3 = is_semisimple_module(reg3)
    assert not ok3 and witness3 is not None


def _square(flat, n, field):
    """The dense n x n matrix of a matrix flattened to its nonzeros at r*n + c."""
    v = to_dense([flat], n * n, field)[0]
    return [v[r * n : (r + 1) * n] for r in range(n)]


def _squares(aa, field):
    return [_square(m, aa.size, field) for m in aa.basis], [_square(m, aa.size, field) for m in aa.radical]


def _dense_rank(m, field):
    return len(dense_rref(m, field)[1])


def _enumerated_radical(basis, n, field):
    """Reference radical over F_p by enumerating all p^d algebra elements.

    Elements are visited in lexicographic order of their coefficients;
    x is kept when it is independent of the elements kept before it and
    y x is nilpotent for every element y.
    """
    p = field.char
    ints = [[x.residue() for row in m for x in row] for m in basis]

    def mul(a, b):
        cols = [b[c::n] for c in range(n)]
        return tuple(
            sum(x * y for x, y in zip(a[r * n : (r + 1) * n], col)) % p for r in range(n) for col in cols
        )

    def nilpotent(m):
        power = m
        for _ in range(n):
            if not any(power):
                return True
            power = mul(power, m)
        return not any(power)

    elements = [
        tuple(sum(c * v[k] for c, v in zip(coeffs, ints)) % p for k in range(n * n))
        for coeffs in itertools.product(range(p), repeat=len(basis))
    ]
    nilpotents = {m for m in elements if nilpotent(m)}
    radical, vecs = [], []
    for x in elements:
        if x not in nilpotents:
            continue
        v = [Scalar.from_int(field, c) for c in x]
        if _dense_rank(vecs + [v], field) == len(vecs):
            continue
        if all(mul(y, x) in nilpotents for y in elements):
            vecs.append(v)
            radical.append([v[r * n : (r + 1) * n] for r in range(n)])
    return radical


MODULAR_MODULES = [(c, g, kind) for c in ("vec_f2", "vec_f3") for g in SMALL_GROUPS for kind in ("regular", "trivial")]


def _modular_module(cat_name, group, kind):
    alg = galg(cat_name, group)
    if kind == "regular":
        return regular_module(alg)
    if kind == "trivial":
        return trivial_module(alg)
    return module_direct_sum(regular_module(alg), trivial_module(alg))[0]


@pytest.mark.parametrize("cat_name, group, kind", MODULAR_MODULES + [("vec_f2", "z2", "regular+trivial")])
def test_radical_matches_enumeration(cat_name, group, kind):
    mod = _modular_module(cat_name, group, kind)
    aa = action_algebra(mod)
    field, n = mod.spec.field, aa.size
    basis, radical = _squares(aa, field)
    expected = _enumerated_radical(basis, n, field)
    assert len(radical) == len(expected)
    flat = [[x for row in m for x in row] for m in radical + expected]
    assert _dense_rank(flat, field) == len(expected)
    assert radical[:1] == expected[:1]
    assert algebra_radical(aa.basis, n, field) == aa.radical


def _powered_ronyai_chain(basis, n, field):
    """Reference Ronyai chain that evaluates g_i on every product x y.

    Over F_p with 0 < p <= n: I_i is the kernel of the form
    (x, y) -> g_i(x y) on I_{i-1} x A, with g_i raised to its p^i-th
    power on each product, d * dim I_{i-1} powerings per level.  Returns
    the radical's coefficients over ``basis`` as the rows of their
    reduced echelon form, last row first, and dim I_{i-1} per level run.
    """
    p = field.char
    d = len(basis)
    mats = [[[x.residue() for x in row] for row in m] for m in basis]
    coeffs = [[int(j == k) for j in range(d)] for k in range(d)]
    ideal = mats
    dims = []
    level = 0
    while p ** (level + 1) <= n:
        level += 1
    for i in range(level + 1):
        dims.append(len(ideal))
        form = [[Scalar.from_int(field, _ronyai_g(_int_mat_mul(x, y, p), i, p)) for x in ideal] for y in mats]
        weights = [[c.residue() for c in v] for v in dense_nullspace(form, field, d, len(ideal))]
        if not weights:
            return [], dims
        coeffs = [[sum(w * c[t] for w, c in zip(v, coeffs)) % p for t in range(d)] for v in weights]
        ideal = [_int_combination(v, ideal, p) for v in weights]
    red, pivots = dense_rref([[Scalar.from_int(field, c) for c in v] for v in coeffs], field)
    return red[: len(pivots)][::-1], dims


def _int_combination(weights, mats, q):
    """sum_k weights[k] * mats[k] for integer matrices, entries reduced mod q."""
    acc = [[0] * len(row) for row in mats[0]]
    for w, m in zip(weights, mats):
        if w:
            acc = [[u + w * v for u, v in zip(arow, mrow)] for arow, mrow in zip(acc, m)]
    return [[u % q for u in row] for row in acc]


def _matrices(coeffs, basis, n, field):
    """sum_t c[t] basis[t] for each coefficient row c, as dense matrices."""
    zero = Scalar.zero(field)
    out = []
    for v in coeffs:
        terms = [(c, basis[t]) for t, c in enumerate(v) if not c.is_zero()]
        out.append([[sum((c * m[i][j] for c, m in terms), zero) for j in range(n)] for i in range(n)])
    return out


RONYAI_MODULES = MODULAR_MODULES + [
    ("vec_f2", "z2", "regular+trivial"),
    ("vec_f2", "z10", "regular"),
    ("vec_f3", "z9", "regular"),
    ("vec_f2", "z16", "regular"),
]


@pytest.mark.parametrize("cat_name, group, kind", RONYAI_MODULES)
def test_linear_ronyai_matches_powered_reference(cat_name, group, kind):
    mod = _modular_module(cat_name, group, kind)
    aa = action_algebra(mod)
    field, n = mod.spec.field, aa.size
    basis, radical = _squares(aa, field)
    coeffs, _dims = _powered_ronyai_chain(basis, n, field)
    expected = _matrices(coeffs, basis, n, field)
    assert len(radical) == len(expected)
    flat = [[x for row in m for x in row] for m in radical + expected]
    assert _dense_rank(flat, field) == len(expected)
    assert radical[:1] == expected[:1]
    if field.char <= n:
        assert radical == expected


def test_ronyai_evaluates_g_once_per_ideal_basis_element(monkeypatch):
    reg = regular_module(galg("vec_f2", "z16"))
    basis = action_algebra(reg).basis
    _coeffs, dims = _powered_ronyai_chain([_square(m, 16, reg.spec.field) for m in basis], 16, reg.spec.field)
    calls = []
    real = modules_mod._ronyai_g
    monkeypatch.setattr(modules_mod, "_ronyai_g", lambda m, i, p: calls.append(i) or real(m, i, p))
    # the algebra is commutative, so action_algebra takes the Frobenius
    # kernel; the chain is asked for directly
    radical = algebra_radical(basis, 16, reg.spec.field)
    assert radical and len(calls) <= sum(dims)
    assert [calls.count(i) for i in range(len(dims))] == dims


def test_action_algebra_makes_no_dense_products(monkeypatch):
    calls = []
    real = la.mat_mul
    monkeypatch.setattr(la, "mat_mul", lambda *args: calls.append(1) or real(*args))
    aa = action_algebra(regular_module(galg("vec_f2", "z16")))
    assert aa.dimension == 16 and len(aa.radical) == 15
    assert calls == []


def _dense_trace_radical(basis, n, field):
    """Reference trace-form radical: every Gram entry from a dense product."""

    def trace(m):
        t = Scalar.zero(field)
        for i in range(n):
            t = t + m[i][i]
        return t

    d = len(basis)
    gram = [[trace(la.mat_mul(basis[i], basis[j], field, n, n, n)) for j in range(d)] for i in range(d)]
    return _matrices(dense_nullspace(gram, field, d, d), basis, n, field)


@pytest.mark.parametrize(
    "case",
    ["alg_qz3", "alg_h02", "alg_toric_1e", "jordan", "jordan_f3"]
    + ["vec_q/%s" % g for g in ("z2", "z3", "z4", "z5", "z6", "s3")],
)
def test_sparse_trace_form_matches_dense_reference(case):
    mod = _closure_module(case)
    aa = action_algebra(mod)
    field, n = mod.spec.field, aa.size
    assert field.char == 0 or field.char > n
    basis, radical = _squares(aa, field)
    assert radical == _dense_trace_radical(basis, n, field)
    assert bool(aa.radical) == case.startswith("jordan")


def _perm_group(name, perms):
    perms = sorted(perms)
    names = ["".join(map(str, g)) for g in perms]
    # (g h)(x) = g(h(x))
    table = [["".join(str(g[h[x]]) for x in range(4)) for h in perms] for g in perms]
    return Group(name, names, table)


def _s4():
    return _perm_group("s4", itertools.permutations(range(4)))


def _a4():
    """A4, closed up from the permutations (0 1 2) and (0 1)(2 3)."""
    gens = [(1, 2, 0, 3), (1, 0, 3, 2)]
    perms = frontier = {(0, 1, 2, 3)}
    while frontier:
        frontier = {tuple(g[h[x]] for x in range(4)) for g in frontier for h in gens} - perms
        perms = perms | frontier
    return _perm_group("a4", perms)


@pytest.mark.parametrize("cat_name", ["vec_q", "vec_f2", "vec_f3"])
def test_order_24_maschke_oracle(cat_name):
    group = _s4()
    reg = regular_module(group_algebra(group, cat(cat_name)))
    p = reg.spec.field.char
    ok, cert = is_semisimple_module(reg)
    # Maschke and its converse: k[G] is semisimple exactly when char k does not divide |G|
    assert ok == (p == 0 or len(group) % p != 0)
    if ok:
        assert cert == {"algebra_dim": 24, "radical_dim": 0}


def _candidates(mod):
    """The slot operators and gradings the closure starts from, as dense matrices."""
    ops, gradings, n = modules_mod._action_operators(mod)
    return [to_dense(m, n, mod.spec.field) for m in ops + gradings]


def _naive_closure(generators, n, field):
    """Reference closure: every pair every round, rank of all candidates per admit."""
    basis, vecs = [], []

    def admit(m):
        v = [x for row in m for x in row]
        if all(x.is_zero() for x in v) or _dense_rank(vecs + [v], field) == len(vecs):
            return False
        basis.append(m)
        vecs.append(v)
        return True

    admit(identity(field, n))
    for m in generators:
        admit(m)
    changed = True
    while changed:
        changed = False
        snapshot = list(basis)
        for x in snapshot:
            for y in snapshot:
                if admit(la.mat_mul(x, y, field, n, n, n)):
                    changed = True
    return basis


def _jordan_action(cat_name="vec_q", size=5):
    """Slot 0 of k[Z3] acting as a nilpotent Jordan block, the others as zero.

    Not a module: the closure never reads the axioms, and the powers of
    one Jordan block take several rounds to reach.
    """
    alg = galg(cat_name, "z3")
    spec = alg.spec
    x = Obj(spec, {spec.unit: size})
    zero, one = Scalar.zero(spec.field), Scalar.one(spec.field)
    block = [[one if (i, k) == (0, r + 1) else zero for i in range(3) for k in range(size)] for r in range(size)]
    return AModule("jordan", alg, x, Mor(tensor_obj(alg.carrier, x), x, {spec.unit: block}))


def _closure_module(case):
    if case == "mod_toric_m":
        return load_module(data_path("modules/mod_toric_m.json"))
    if case == "jordan":
        return _jordan_action()
    if case == "jordan_f3":
        return _jordan_action("vec_f3", 2)
    if case.startswith("alg_"):
        return regular_module(load_algebra(data_path("algebras/%s.json" % case)))
    cat_name, group = case.split("/")
    return regular_module(galg(cat_name, group))


@pytest.mark.parametrize(
    "case",
    ["mod_toric_m", "jordan", "alg_qz3", "alg_h02", "alg_toric_1e"]
    + ["%s/%s" % (c, g) for c in ("vec_q", "vec_f2", "vec_f3") for g in SMALL_GROUPS],
)
def test_closure_matches_naive_closure(case):
    mod = _closure_module(case)
    aa = action_algebra(mod)
    field = mod.spec.field
    assert _squares(aa, field)[0] == _naive_closure(_candidates(mod), aa.size, field)


def test_closure_skips_candidates_it_has_seen(monkeypatch):
    # every product of two permutation matrices of S4 is one of them again,
    # so only the identity and the generators reach the basis elimination;
    # the radical, which eliminates too, is stubbed out of the count
    adds = {}
    add = la.Echelon.add
    monkeypatch.setattr(
        la.Echelon, "add", lambda self, row: adds.setdefault(id(self), []).append(row) or add(self, row)
    )
    monkeypatch.setattr(modules_mod, "algebra_radical", lambda basis, n, field: [])
    reg = regular_module(group_algebra(_s4(), cat("vec_q")))
    aa = action_algebra(reg)
    assert aa.dimension == 24
    # the basis echelon takes the identity first; the spin's word echelon
    # sees each permutation matrix once at most
    basis_adds, word_adds = adds.values()
    assert len(basis_adds) <= 1 + len(_candidates(reg))
    assert len(word_adds) <= aa.dimension


def _spun(monkeypatch, mod):
    """action_algebra(mod), the generators its spin chose, and its count of
    sparse products; every patch of the calling test is undone after it."""
    gens, products = [], []
    real_spin, mul = modules_mod._spin, la.sparse_mul

    def spin(*args):
        basis, chosen = real_spin(*args)
        gens.extend(chosen)
        return basis, chosen

    monkeypatch.setattr(modules_mod, "_spin", spin)
    monkeypatch.setattr(la, "sparse_mul", lambda a, b: products.append(1) or mul(a, b))
    aa = action_algebra(mod)
    monkeypatch.undo()
    return aa, gens, len(products)


@pytest.mark.parametrize("cat_name, group", [("vec_q", "s4"), ("vec_f2", "z16")])
def test_spin_multiplies_by_generators_only(monkeypatch, cat_name, group):
    # all pairs of the 24 basis elements of Q[S4] are 576 products
    group = _s4() if group == "s4" else small_group(group)
    aa, gens, products = _spun(monkeypatch, regular_module(group_algebra(group, cat(cat_name))))
    order = len(group)
    assert aa.dimension == order
    assert 2 ** len(gens) <= order
    assert products <= order * len(gens) + len(gens) ** 2


# the abelian regular modules with p <= n, where the algebra is commutative
FROBENIUS_MODULES = [
    (c, g, kind)
    for c, g, kind in MODULAR_MODULES
    if kind == "regular" and g != "s3" and int(c[-1]) <= len(small_group(g))
] + [("vec_f2", "z10", "regular"), ("vec_f3", "z9", "regular"), ("vec_f2", "z16", "regular")]


@pytest.mark.parametrize(
    "case", FROBENIUS_MODULES + [("vec_f2", 2), ("vec_f2", 4), ("vec_f2", 5), ("vec_f3", 3), ("vec_f3", 4)]
)
def test_frobenius_radical_matches_ronyai(monkeypatch, case):
    mod = _modular_module(*case) if len(case) == 3 else _jordan_action(*case)
    calls = []
    monkeypatch.setattr(modules_mod, "algebra_radical", lambda *args: calls.append(1) or [])
    aa, gens, _products = _spun(monkeypatch, mod)
    field, n = mod.spec.field, aa.size
    assert 0 < field.char <= n and modules_mod._commute(gens)
    assert calls == []
    assert aa.radical == algebra_radical(aa.basis, n, field)


@pytest.mark.parametrize(
    "cat_name, group, radical_dim",
    [("vec_f2", "z10", 5), ("vec_f3", "z9", 8), ("vec_f2", "z16", 15), ("vec_f2", "s3", 1)],
)
def test_modular_group_algebra_radical_dimension(cat_name, group, radical_dim):
    reg = regular_module(galg(cat_name, group))
    ok, witness = is_semisimple_module(reg)
    assert not ok and witness is not None
    assert len(action_algebra(reg).radical) == radical_dim


def test_simplicity_flags():
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    ind1 = induce(alg, Obj.simple(alg.spec, "1"))
    indm = induce(alg, Obj.simple(alg.spec, "m"))
    assert is_simple_module(ind1)
    assert is_simple_module(indm)
    total, _, _ = module_direct_sum(ind1, indm)
    assert not is_simple_module(total)
    zero = induce(alg, Obj(alg.spec, {}))
    assert not is_simple_module(zero)


def test_isomorphism_classification_toric():
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    mods = {lab: induce(alg, Obj.simple(alg.spec, lab)) for lab in alg.spec.labels}
    iso = modules_isomorphic(mods["1"], mods["e"])
    assert iso is not None
    ia = Mor.identity(alg.carrier)
    assert compose(iso, mods["1"].action) == compose(mods["e"].action, tensor_mor(ia, iso))
    assert modules_isomorphic(mods["m"], mods["f"]) is not None
    assert modules_isomorphic(mods["1"], mods["m"]) is None


def test_isomorphism_undecided_on_a_singular_hom_basis():
    # End(Q[Z2] + Q[Z2]) has 8 basis elements, none invertible, yet the
    # identity is an isomorphism: a None here would be a false negative
    reg = regular_module(galg("vec_q", "z2"))
    m, _, _ = module_direct_sum(reg, reg)
    assert len(hom_A(m, m)) == 8
    with pytest.raises(ModuleError) as exc:
        modules_isomorphic(m, m)
    assert type(exc.value).__name__ == "IsomorphismUndecided"
    # the zero module has an empty hom basis and is still isomorphic to itself
    zero = induce(reg.alg, Obj(reg.spec, {}))
    assert modules_isomorphic(zero, zero) == Mor.zero(zero.carrier, zero.carrier)


# ---------------------------------------------------------------------------
# flatten-based references for hom_A and the equivariant-section search:
# every defect entry of every basis morphism, flattened into a dense
# matrix and solved by the dense Gauss-Jordan reference


def _flatten_mor(m):
    out = []
    for lab in m.dom.spec.labels:
        if m.dom.m(lab) and m.cod.m(lab):
            for row in m.block(lab):
                out.extend(row)
    return out


def _basis_mor(x1, x2, key, field):
    lab, r, c = key
    rows = {lab: [{} for _ in range(x2.m(lab))]}
    rows[lab][r][c] = Scalar.one(field)
    return Mor.from_rows(x1, x2, rows)


@functools.lru_cache(maxsize=None)
def reference_hom_A(m1, m2):
    spec = m1.spec
    field = spec.field
    X1, X2 = m1.carrier, m2.carrier
    ia = Mor.identity(m1.alg.carrier)
    var_index = [(lab, r, c) for lab in spec.labels for r in range(X2.m(lab)) for c in range(X1.m(lab))]
    if not var_index:
        return []
    columns = []
    for key in var_index:
        f = _basis_mor(X1, X2, key, field)
        columns.append(_flatten_mor(compose(f, m1.action) - compose(m2.action, tensor_mor(ia, f))))
    rows = len(columns[0])
    mat = [[columns[t][r] for t in range(len(var_index))] for r in range(rows)]
    out = []
    for vec in dense_nullspace(mat, field, rows, len(var_index)):
        acc = Mor.zero(X1, X2)
        for key, v in zip(var_index, vec):
            if not v.is_zero():
                acc = acc + _basis_mor(X1, X2, key, field).scale(v)
        out.append(acc)
    return out


def reference_section_exists(f, m_dom, m_cod):
    basis = reference_hom_A(m_cod, m_dom)
    flat = [_flatten_mor(compose(f, b)) for b in basis]
    want = _flatten_mor(Mor.identity(m_cod.carrier))
    if not flat:
        return all(x.is_zero() for x in want)
    rows = len(want)
    mat = [[flat[t][r] for t in range(len(basis))] for r in range(rows)]
    return dense_solve(mat, [[v] for v in want], m_dom.spec.field, rows, len(basis), 1) is not None


def _bundled_module_families():
    """Module lists over one algebra each: the bundled module; the regular
    module of every bundled algebra, its induced modules and their local
    parts (zero carriers among them); and the regular and trivial modules
    of the small groups and A4 over Q, F_2 and F_3."""
    mod = load_module(data_path("modules/mod_toric_m.json"))
    yield "mod_toric_m", [mod, regular_module(mod.alg)]
    for name in ("alg_qz3", "alg_h02", "alg_toric_1e"):
        alg = load_algebra(data_path("algebras/%s.json" % name))
        induced = [induce(alg, Obj.simple(alg.spec, s)) for s in alg.spec.labels]
        yield name, [regular_module(alg)] + induced + [local_projection(m)[0] for m in induced]
    groups = [(g, small_group(g)) for g in SMALL_GROUPS] + [("a4", _a4())]
    for c in ("vec_q", "vec_f2", "vec_f3"):
        for g, group in groups:
            alg = group_algebra(group, cat(c))
            yield "%s/%s" % (c, g), [regular_module(alg), trivial_module(alg)]


HOM_FAMILIES = dict(_bundled_module_families())


@pytest.mark.parametrize("family", sorted(HOM_FAMILIES))
def test_hom_A_matches_flattened_reference(family):
    mods = HOM_FAMILIES[family]
    for m1 in mods:
        for m2 in mods:
            assert hom_A(m1, m2) == reference_hom_A(m1, m2), (m1.name, m2.name)


@pytest.mark.parametrize("family", [f for f in sorted(HOM_FAMILIES) if "/" in f])
def test_equivariant_section_matches_reference(family):
    reg, triv = HOM_FAMILIES[family]
    aug = _augmentation(reg.alg)
    cases = [(aug, reg, triv), (Mor.identity(reg.carrier), reg, reg), (Mor.zero(reg.carrier, triv.carrier), reg, triv)]
    for f, m_dom, m_cod in cases:
        assert _equivariant_section_exists(f, m_dom, m_cod) == reference_section_exists(f, m_dom, m_cod)
    # regular over F_p with p | |G| has no equivariant section of the augmentation
    field = reg.spec.field
    want = field.char == 0 or len(reg.alg.carrier.slots()) % field.char != 0
    assert _equivariant_section_exists(aug, reg, triv) == want


def reference_is_simple(mod):
    """Simplicity the long way: nonzero, semisimple, one-dimensional End_A."""
    return not mod.carrier.is_zero() and is_semisimple_module(mod)[0] and len(hom_A(mod, mod)) == 1


@pytest.mark.parametrize("family", sorted(HOM_FAMILIES))
def test_is_simple_matches_reference(family):
    for m in HOM_FAMILIES[family]:
        assert is_simple_module(m) == reference_is_simple(m), m.name


def test_hom_families_hold_zero_and_simple_carriers():
    mods = [m for family in HOM_FAMILIES.values() for m in family]
    assert any(m.carrier.is_zero() for m in mods)
    assert any(is_simple_module(m) for m in mods) and not all(is_simple_module(m) for m in mods)


def _z3_rotation_module():
    """Q^2 with the generator of Z3 acting by [[0, -1], [1, -1]]: irreducible
    over Q, yet its endomorphisms form Q(zeta_3), two-dimensional."""
    alg = galg("vec_q", "z3")
    spec = alg.spec
    x = Obj(spec, {spec.unit: 2})
    # g^0, g^1, g^2 for the elements "0", "1", "2", in slot order
    powers = [[[1, 0], [0, 1]], [[0, -1], [1, -1]], [[-1, 1], [-1, 0]]]
    cols = pair_channels(alg.carrier, x)[spec.unit]
    block = [[Scalar.from_int(spec.field, powers[i][r][k]) for _a, i, _s, k in cols] for r in range(2)]
    return AModule("rotation", alg, x, Mor(tensor_obj(alg.carrier, x), x, {spec.unit: block}))


def test_z3_rotation_module_is_not_simple_either_way():
    # over Q it has no proper submodule, but End_A is not the field: both
    # predicates say no, the known gap between the two notions of simple
    mod = _z3_rotation_module()
    assert check_module(mod).ok
    assert action_algebra(mod).dimension == 2 and len(hom_A(mod, mod)) == 2
    assert is_simple_module(mod) is False
    assert reference_is_simple(mod) is False


SUM_FAMILIES = sorted(f for f, mods in HOM_FAMILIES.items() if max(sum(m.carrier.mult.values()) for m in mods) <= 4)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SUM_FAMILIES), st.lists(st.integers(0, 11), min_size=2, max_size=3))
def test_direct_sums_match_references(family, picks):
    mods = HOM_FAMILIES[family]
    first, *others = [mods[k % len(mods)] for k in picks]
    rest = others[0]
    for m in others[1:]:
        rest, _, _ = module_direct_sum(rest, m)
    total, (i1, _), (p1, _) = module_direct_sum(first, rest)
    for m1, m2 in ((total, total), (total, first), (rest, total)):
        assert hom_A(m1, m2) == reference_hom_A(m1, m2)
    for f, m_dom, m_cod in ((p1, total, first), (i1, first, total)):
        assert _equivariant_section_exists(f, m_dom, m_cod) == reference_section_exists(f, m_dom, m_cod)
    assert is_simple_module(total) == reference_is_simple(total)


def test_hom_A_and_simplicity_make_no_morphism_products(monkeypatch):
    # both read the slot operators only: no compose or tensor_mor, and
    # simplicity never asks for the hom space
    regs = [HOM_FAMILIES[f][0] for f in ("vec_q/s3", "vec_f2/a4", "alg_h02", "alg_toric_1e")]
    total, _, _ = module_direct_sum(*HOM_FAMILIES["alg_toric_1e"][1:3])
    mods = regs + [total]
    calls = []
    for owner in (modules_mod, category_mod):
        for name in ("compose", "tensor_mor"):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    real_hom = modules_mod.hom_A
    monkeypatch.setattr(modules_mod, "hom_A", lambda *a: calls.append("hom_A") or real_hom(*a))
    for m in mods:
        is_simple_module(m)
        real_hom(m, m)
    assert calls == []


# ---------------------------------------------------------------------------
# condensation and the orbit-counting oracle


def orbit_prediction(spec, subgroup):
    """Independent count from fusion rules and R data only: orbits of the
    subgroup acting on labels, each flagged local when every monodromy
    scalar against the subgroup is 1."""
    one = Scalar.one(spec.field)
    orbits = []
    seen = set()
    for s in spec.labels:
        if s in seen:
            continue
        orb = sorted({spec.channels(h, s)[0] for h in subgroup}, key=spec.labels.index)
        assert len(orb) == len(subgroup), "free orbits only"
        seen.update(orb)
        local = all(
            spec.r_symbol(h, t, spec.channels(h, t)[0])
            * spec.r_symbol(t, h, spec.channels(t, h)[0])
            == one
            for h in subgroup
            for t in orb
        )
        orbits.append((frozenset(orb), local))
    return orbits


@pytest.mark.parametrize(
    "cat_name,subgroup",
    [
        ("pointed_z4", ["0", "2"]),
        ("toric_code", ["1", "e"]),
        ("toric_code", ["1", "m"]),
    ],
)
def test_condensation_matches_orbit_oracle(cat_name, subgroup):
    spec = cat(cat_name)
    expected = orbit_prediction(spec, subgroup)
    table = condense(subgroup_algebra(subgroup, spec))
    assert table.simple_class_count() == len(expected)
    got = {
        (frozenset(m.carrier.labels_present()), loc)
        for m, loc in zip(table.classes, table.class_local)
    }
    assert got == set(expected)
    for row in table.rows:
        assert row.simple
        assert row.iso_class >= 0


def test_condense_toric_table_details():
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    table = condense(alg)
    assert [r.source for r in table.rows] == ["1", "e", "m", "f"]
    assert [r.iso_class for r in table.rows] == [0, 0, 1, 1]
    assert [r.projector_rank for r in table.rows] == [2, 2, 0, 0]
    assert [r.local for r in table.rows] == [True, True, False, False]
    assert table.class_local == [True, False]
    rep = table.to_report()
    assert rep.ok
    checks = [i.check for i in rep.items]
    assert "induce:m" in checks and "classes" in checks


def test_condense_z4_both_classes_local():
    alg = load_algebra(data_path("algebras/alg_h02.json"))
    table = condense(alg)
    assert table.simple_class_count() == 2
    assert table.local_class_count() == 2
    assert [r.projector_rank for r in table.rows] == [2, 2, 2, 2]


def test_condensation_lists_are_per_instance():
    alg = load_algebra(data_path("algebras/alg_h02.json"))
    first, second = Condensation(alg), Condensation(alg)
    for name in ("rows", "classes", "class_local"):
        assert getattr(first, name) == [] and getattr(first, name) is not getattr(second, name)
    assert condense(alg).rows and first.rows == []


def test_condense_rejects_broken_algebra():
    alg = load_algebra(data_path("algebras/alg_toric_1e.json"))
    blocks = {lab: [row[:] for row in alg.mult_map.block(lab)] for lab in ("1", "e")}
    blocks["e"][0][1] = parse_scalar("7", alg.spec.field)
    bad = AlgebraObject("bad", alg.carrier, alg.unit_map, Mor(alg.mult_map.dom, alg.carrier, blocks))
    with pytest.raises(ModuleError):
        condense(bad)


# ---------------------------------------------------------------------------
# bundled suites


def test_maschke_suite_green():
    rep = theorem_suite("maschke_2_6")
    assert rep.ok
    checks = {i.check for i in rep.items}
    assert "mult-splits:z3" in checks
    assert "mult-splits:s3" in checks
    assert "augmentation-splits:s3" in checks
    assert "regular-semisimple:s3" in checks
    assert "trivial-semisimple:z2" in checks
    assert "mult-splits:alg_toric_1e" in checks
    assert "regular-semisimple:alg_toric_1e" in checks


def test_local_suite_green():
    rep = theorem_suite("local_3_1")
    assert rep.ok
    checks = {i.check for i in rep.items}
    assert "class-count:alg_toric_1e" in checks
    assert "local-flag:alg_h02:1" in checks
    assert "local-semisimple:alg_toric_1e:e" in checks


def test_local_suite_computes_each_projector_and_action_algebra_once(monkeypatch):
    # modules reads frobenius_kit once per projector it computes, and
    # _spin once per action algebra; the suite induces 8 modules, and
    # condense, the suite rows and local_projection share their results
    counts = {"frobenius_kit": 0, "_spin": 0}
    for name in counts:
        real = getattr(modules_mod, name)

        def counted(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(modules_mod, name, counted)
    assert theorem_suite("local_3_1").ok
    assert counts == {"frobenius_kit": 8, "_spin": 8}


def test_counterexample_suite_green():
    rep = theorem_suite("counterexamples")
    assert rep.ok
    statuses = {i.check: i.status for i in rep.items}
    assert statuses["averaging-fails:z2"] == "pass"
    assert statuses["regular-not-semisimple:z2"] == "pass"
    assert statuses["no-equivariant-section:z2"] == "pass"
    assert statuses["averaging-fails:z3"] == "pass"
    assert statuses["not-commutative:s3"] == "pass"
    assert statuses["not-isotropic:1+f"] == "pass"


def test_unknown_suite_kind():
    with pytest.raises(ParseError):
        theorem_suite("nope")


def test_suite_without_cases_names_the_key():
    with pytest.raises(ParseError, match="missing suite key 'cases'"):
        run_suite_manifest({"kind": "maschke"})


def test_group_case_without_category_names_the_key():
    with pytest.raises(ParseError, match="missing suite case key 'category'"):
        run_suite_manifest({"kind": "maschke", "cases": [{"group": "z2"}]})


def test_labels_case_without_category_names_the_key():
    with pytest.raises(ParseError, match="missing suite case key 'category'"):
        run_suite_manifest({"kind": "local", "cases": [{"labels": ["1", "e"]}]})


def test_counterexample_case_without_expect_names_the_key():
    with pytest.raises(ParseError, match="missing suite case key 'expect'"):
        run_suite_manifest({"kind": "counterexamples", "cases": [{"category": "vec_f2", "group": "z2"}]})
