"""Tensor engine tests: block algebra, structural maps, coherence sweeps.

The Kronecker comparisons and the recoupling spot values are computed
independently inside this file, not read back from the engine.
"""

import itertools
import json
import os
import random
from pathlib import Path

import pytest

from ctc import data_path
from ctc.category import (
    CategoryMismatch,
    CategorySpec,
    DomainMismatch,
    FusionDataError,
    Mor,
    Obj,
    SingularFBlock,
    associator,
    associator_inv,
    braiding,
    categorical_dim,
    category_from_json,
    compose,
    direct_sum_with_maps,
    dual_obj,
    ev_coev,
    load_category,
    mor_right_inverse,
    pair_channels,
    proportionality_scalar,
    tensor_mor,
    tensor_obj,
    twist_mor,
    unitor,
    verify_hexagon,
    verify_pentagon,
    verify_triangle,
    verify_zigzag,
)
from ctc.fields import FieldSpec, Scalar, parse_scalar, scalar_literal
from ctc.report import Report

ALL_CATEGORIES = ["vec_q", "vec_f2", "vec_f3", "pointed_z4", "toric_code", "ising", "fibonacci"]


def cat(name):
    return load_category(data_path("categories/%s.json" % name))


def rand_scalar(rng, field):
    if field.kind == "cyclotomic":
        s = Scalar.zero(field)
        for k in range(min(field.degree, 4)):
            c = rng.randint(-2, 2)
            if c:
                s = s + Scalar.zeta(field, k).scale(c)
        return s
    return Scalar.from_int(field, rng.randint(-3, 3))


def rand_mor(rng, dom, cod):
    spec = dom.spec
    blocks = {}
    for lab in spec.labels:
        dm, cm = dom.m(lab), cod.m(lab)
        if dm and cm:
            blocks[lab] = [[rand_scalar(rng, spec.field) for _ in range(dm)] for _ in range(cm)]
    return Mor(dom, cod, blocks)


def rand_obj(rng, spec, max_mult=2):
    return Obj(spec, {lab: rng.randint(0, max_mult) for lab in spec.labels})


# --- block algebra ---------------------------------------------------------


def test_vec_tensor_is_kronecker():
    spec = cat("vec_q")
    rng = random.Random(7)
    X = Obj(spec, {"1": 2})
    Y = Obj(spec, {"1": 3})
    f = rand_mor(rng, X, X)
    g = rand_mor(rng, Y, Y)
    got = tensor_mor(f, g).block("1")
    a, b = f.block("1"), g.block("1")
    # independent Kronecker product, row slot = i*3 + j
    for i in range(2):
        for j in range(3):
            for k in range(2):
                for l in range(3):
                    assert got[i * 3 + j][k * 3 + l] == a[i][k] * b[j][l]


def test_vec_associator_is_identity():
    spec = cat("vec_q")
    X = Obj(spec, {"1": 2})
    Y = Obj(spec, {"1": 3})
    Z = Obj(spec, {"1": 2})
    assert associator(X, Y, Z) == Mor.identity(Obj(spec, {"1": 12}))


def test_compose_and_identity():
    spec = cat("toric_code")
    rng = random.Random(11)
    X = rand_obj(rng, spec)
    Y = rand_obj(rng, spec)
    f = rand_mor(rng, X, Y)
    assert compose(Mor.identity(Y), f) == f
    assert compose(f, Mor.identity(X)) == f
    assert (f - f).is_zero()
    assert f + Mor.zero(X, Y) == f


def test_compose_through_zero_label():
    spec = cat("toric_code")
    X = Obj(spec, {"e": 1})
    Y = Obj(spec, {"m": 1})
    f = Mor.zero(X, Y)
    g = Mor.zero(Y, X)
    h = compose(g, f)
    assert h.dom == X and h.cod == X and h.is_zero()


def test_mor_shape_validation():
    spec = cat("toric_code")
    X = Obj(spec, {"e": 2})
    with pytest.raises(DomainMismatch):
        Mor(X, X, {"e": [[Scalar.one(spec.field)]]})


def test_domain_mismatch_on_compose():
    spec = cat("toric_code")
    X = Obj(spec, {"e": 1})
    Y = Obj(spec, {"m": 1})
    with pytest.raises(DomainMismatch):
        compose(Mor.identity(X), Mor.identity(Y))


def test_cross_category_guard():
    a = cat("toric_code")
    b = cat("vec_q")
    with pytest.raises(CategoryMismatch):
        tensor_obj(Obj.unit(a), Obj.unit(b))


def test_matmul_operator():
    spec = cat("vec_q")
    rng = random.Random(3)
    X = Obj(spec, {"1": 3})
    f = rand_mor(rng, X, X)
    assert (f @ Mor.identity(X)) == f


# --- summand enumeration ---------------------------------------------------


def test_pair_channels_order_frozen():
    spec = cat("toric_code")
    X = Obj(spec, {"e": 1, "m": 1})
    Y = Obj(spec, {"m": 1})
    table = pair_channels(X, Y)
    # slots of X in label order: e then m; channels e*m=f, m*m=1
    assert table == {"f": [("e", 0, "m", 0)], "1": [("m", 0, "m", 0)]}
    XX = tensor_obj(X, X)
    assert XX.mult == {"1": 2, "f": 2}


def test_tensor_unit_is_strict():
    for name in ALL_CATEGORIES:
        spec = cat(name)
        for lab in spec.labels:
            X = Obj(spec, {lab: 2})
            assert tensor_obj(Obj.unit(spec), X) == X
            assert tensor_obj(X, Obj.unit(spec)) == X
            assert unitor("left", X) == Mor.identity(X)


def test_dual_obj():
    spec = cat("pointed_z4")
    X = Obj(spec, {"1": 2, "2": 1})
    assert dual_obj(X) == Obj(spec, {"3": 2, "2": 1})


# --- structural morphisms --------------------------------------------------


def test_associator_matches_raw_coefficient():
    spec = cat("ising")
    s = Obj.simple(spec, "sigma")
    mor = associator(s, s, s)
    # sigma channel: dom summands (e, sigma) for e in {1, psi}, cod (sigma, f)
    blk = mor.block("sigma")
    half_r2 = parse_scalar("1/2*z^2 + 1/2*z^14", spec.field)
    assert blk[0][0] == half_r2
    assert blk[1][1] == -half_r2


def test_associator_inverse_roundtrip():
    for name in ("ising", "fibonacci", "pointed_z4"):
        spec = cat(name)
        rng = random.Random(5)
        X, Y, Z = (rand_obj(rng, spec, 1) for _ in range(3))
        fwd = associator(X, Y, Z)
        back = associator_inv(X, Y, Z)
        assert compose(back, fwd) == Mor.identity(fwd.dom)
        assert compose(fwd, back) == Mor.identity(fwd.cod)


def test_associator_naturality():
    spec = cat("ising")
    rng = random.Random(23)
    for _ in range(4):
        X, Y, Z = (rand_obj(rng, spec, 1) for _ in range(3))
        X2, Y2, Z2 = (rand_obj(rng, spec, 1) for _ in range(3))
        f = rand_mor(rng, X, X2)
        g = rand_mor(rng, Y, Y2)
        h = rand_mor(rng, Z, Z2)
        lhs = compose(tensor_mor(f, tensor_mor(g, h)), associator(X, Y, Z))
        rhs = compose(associator(X2, Y2, Z2), tensor_mor(tensor_mor(f, g), h))
        assert lhs == rhs


def test_tensor_bifunctoriality():
    spec = cat("fibonacci")
    rng = random.Random(41)
    X, Y, Z = (rand_obj(rng, spec, 2) for _ in range(3))
    W = rand_obj(rng, spec, 2)
    f1 = rand_mor(rng, X, Y)
    g1 = rand_mor(rng, Y, Z)
    f2 = rand_mor(rng, W, X)
    g2 = rand_mor(rng, X, Y)
    lhs = tensor_mor(compose(g1, f1), compose(g2, f2))
    rhs = compose(tensor_mor(g1, g2), tensor_mor(f1, f2))
    assert lhs == rhs


def test_braiding_naturality():
    spec = cat("toric_code")
    rng = random.Random(17)
    for _ in range(4):
        X, Y = rand_obj(rng, spec), rand_obj(rng, spec)
        X2, Y2 = rand_obj(rng, spec), rand_obj(rng, spec)
        f = rand_mor(rng, X, X2)
        g = rand_mor(rng, Y, Y2)
        lhs = compose(braiding(X2, Y2), tensor_mor(f, g))
        rhs = compose(tensor_mor(g, f), braiding(X, Y))
        assert lhs == rhs


def test_braiding_is_invertible_symmetry_for_toric():
    spec = cat("toric_code")
    rng = random.Random(29)
    X, Y = rand_obj(rng, spec), rand_obj(rng, spec)
    # toric braiding is a symmetry up to signs: c_{Y,X} c_{X,Y} is diagonal +-1
    m = compose(braiding(Y, X), braiding(X, Y))
    for lab, blk in m.blocks.items():
        for i, row in enumerate(blk):
            for j, v in enumerate(row):
                if i != j:
                    assert v.is_zero()
                else:
                    assert v * v == Scalar.one(spec.field)


def test_zigzag_on_composite_objects():
    spec = cat("ising")
    X = Obj(spec, {"sigma": 1, "psi": 2})
    Xd = dual_obj(X)
    ev, coev = ev_coev(X)
    z1 = compose(
        tensor_mor(Mor.identity(X), ev),
        compose(associator(X, Xd, X), tensor_mor(coev, Mor.identity(X))),
    )
    assert z1 == Mor.identity(X)
    z2 = compose(
        tensor_mor(ev, Mor.identity(Xd)),
        compose(associator_inv(Xd, X, Xd), tensor_mor(Mor.identity(Xd), coev)),
    )
    assert z2 == Mor.identity(Xd)


def test_twist_mor_scales_by_label():
    spec = cat("toric_code")
    X = Obj(spec, {"1": 1, "f": 2})
    t = twist_mor(X)
    assert t.block("1")[0][0].is_one()
    assert t.block("f")[0][0] == Scalar.from_int(spec.field, -1)
    assert t.block("f")[0][1].is_zero()


# --- dimensions ------------------------------------------------------------


def test_dims_pointed_all_one():
    for name in ("pointed_z4", "toric_code"):
        spec = cat(name)
        for lab in spec.labels:
            assert categorical_dim(Obj.simple(spec, lab)).is_one()


def test_dim_golden_ratio_equation():
    spec = cat("fibonacci")
    d = categorical_dim(Obj.simple(spec, "tau"))
    one = Scalar.one(spec.field)
    assert d * d == one + d
    assert scalar_literal(d) == "-z^2 - z^3"


def test_dim_sqrt_two():
    spec = cat("ising")
    d = categorical_dim(Obj.simple(spec, "sigma"))
    assert d * d == Scalar.from_int(spec.field, 2)
    assert categorical_dim(Obj.simple(spec, "psi")).is_one()


def test_dim_additive():
    spec = cat("ising")
    X = Obj(spec, {"1": 1, "sigma": 2, "psi": 1})
    expect = (
        Scalar.from_int(spec.field, 2)
        + categorical_dim(Obj.simple(spec, "sigma")).scale(2)
    )
    assert categorical_dim(X) == expect


# --- coherence sweeps ------------------------------------------------------


@pytest.mark.parametrize("name", ALL_CATEGORIES)
def test_pentagon_clean(name):
    assert verify_pentagon(cat(name)).items == []


@pytest.mark.parametrize("name", ALL_CATEGORIES)
def test_hexagon_clean(name):
    assert verify_hexagon(cat(name)).items == []


@pytest.mark.parametrize("name", ALL_CATEGORIES)
def test_triangle_clean(name):
    assert verify_triangle(cat(name)).items == []


@pytest.mark.parametrize("name", ALL_CATEGORIES)
def test_zigzag_clean(name):
    assert verify_zigzag(cat(name)).items == []


def test_pentagon_detects_bad_entry():
    spec = cat("ising")
    minus = Scalar.from_int(spec.field, -1)
    bad = spec.mutated(F={("psi", "psi", "psi", "psi", "1", "1"): minus})
    rep = verify_pentagon(bad)
    assert rep.items, "flipped recoupling sign must break the pentagon sweep"
    assert all(i.status == "fail" for i in rep.items)


def test_hexagon_detects_bad_entry():
    spec = cat("toric_code")
    minus = Scalar.from_int(spec.field, -1)
    bad = spec.mutated(R={("e", "m", "f"): minus})
    assert verify_hexagon(bad).items


def test_balancing_detects_bad_twist():
    spec = cat("toric_code")
    minus = Scalar.from_int(spec.field, -1)
    bad = spec.mutated(twist={"e": minus})
    names = [i.check for i in verify_hexagon(bad).items]
    assert any(n.startswith("balancing:") for n in names)


# --- the symbol-level sweeps against the assembled composites ---------------


def _assembled_pentagon(spec):
    """Reference pentagon: both five-term composites as block matrices."""
    report = Report()
    simples = {lab: Obj.simple(spec, lab) for lab in spec.labels}
    for a in spec.labels:
        for b in spec.labels:
            for c in spec.labels:
                for d in spec.labels:
                    X, Y, Z, W = simples[a], simples[b], simples[c], simples[d]
                    lhs = compose(associator(X, Y, tensor_obj(Z, W)), associator(tensor_obj(X, Y), Z, W))
                    rhs = compose(
                        tensor_mor(Mor.identity(X), associator(Y, Z, W)),
                        compose(
                            associator(X, tensor_obj(Y, Z), W),
                            tensor_mor(associator(X, Y, Z), Mor.identity(W)),
                        ),
                    )
                    if lhs != rhs:
                        report.append(
                            "pentagon:%s,%s,%s,%s" % (a, b, c, d),
                            "fail",
                            witness=[a, b, c, d],
                        )
    return report


def _assembled_hexagon(spec):
    """Reference hexagons: both three-braiding composites as block matrices,
    then the same balancing loop as the engine."""
    report = Report()
    simples = {lab: Obj.simple(spec, lab) for lab in spec.labels}
    for a in spec.labels:
        for b in spec.labels:
            for c in spec.labels:
                X, Y, Z = simples[a], simples[b], simples[c]
                lhs = compose(
                    associator(Y, Z, X),
                    compose(braiding(X, tensor_obj(Y, Z)), associator(X, Y, Z)),
                )
                rhs = compose(
                    tensor_mor(Mor.identity(Y), braiding(X, Z)),
                    compose(associator(Y, X, Z), tensor_mor(braiding(X, Y), Mor.identity(Z))),
                )
                if lhs != rhs:
                    report.append("hexagon-1:%s,%s,%s" % (a, b, c), "fail", witness=[a, b, c])
                try:
                    lhs2 = compose(
                        associator_inv(Z, X, Y),
                        compose(braiding(tensor_obj(X, Y), Z), associator_inv(X, Y, Z)),
                    )
                    rhs2 = compose(
                        tensor_mor(braiding(X, Z), Mor.identity(Y)),
                        compose(associator_inv(X, Z, Y), tensor_mor(Mor.identity(X), braiding(Y, Z))),
                    )
                except SingularFBlock as exc:
                    witness = {"singular_f": list(exc.labels)}
                    report.append("hexagon-2:%s,%s,%s" % (a, b, c), "fail", witness=witness)
                    continue
                if lhs2 != rhs2:
                    report.append("hexagon-2:%s,%s,%s" % (a, b, c), "fail", witness=[a, b, c])
    for a, b, c in sorted(spec.fusion, key=lambda t: tuple(spec.label_order(x) for x in t)):
        lhs = spec.r_symbol(a, b, c) * spec.r_symbol(b, a, c)
        rhs = spec.twist[c] * (spec.twist[a] * spec.twist[b]).inverse()
        if lhs != rhs:
            report.append(
                "balancing:%s,%s,%s" % (a, b, c),
                "fail",
                witness={
                    "triple": [a, b, c],
                    "monodromy": scalar_literal(lhs),
                    "twist_ratio": scalar_literal(rhs),
                },
            )
    return report


MUTATED_CATEGORIES = ["ising", "fibonacci", "pointed_z4", "toric_code"]


def sign_flip_mutants():
    """Every single listed F or R entry negated, where the entry's first
    three labels avoid the unit (F entries there are pinned to 1)."""
    out = []
    for name in MUTATED_CATEGORIES:
        spec = cat(name)
        for table in ("F", "R"):
            for key, val in sorted(getattr(spec, table).items()):
                if spec.unit in key[:3]:
                    continue
                out.append(spec.mutated(name="%s %s%s" % (name, table, key), **{table: {key: -val}}))
    return out


def random_mutants(count=24, seed=2024):
    """Seeded specs with 2 or 3 F or R entries, listed or not, replaced by
    random nonzero field elements."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        spec = cat(MUTATED_CATEGORIES[n % len(MUTATED_CATEGORIES)])
        L = spec.labels
        f_keys = [
            (a, b, c, d, e, f)
            for a in L
            for b in L
            for c in L
            if spec.unit not in (a, b, c)
            for d in L
            for e in spec.channels(a, b)
            if spec.admissible(e, c, d)
            for f in spec.channels(b, c)
            if spec.admissible(a, f, d)
        ]
        r_keys = sorted(spec.fusion)
        F, R = {}, {}
        for _ in range(rng.choice((2, 3))):
            value = Scalar.zero(spec.field)
            while value.is_zero():
                value = rand_scalar(rng, spec.field)
            if rng.random() < 0.6:
                F[rng.choice(f_keys)] = value
            else:
                R[rng.choice(r_keys)] = value
        out.append(spec.mutated(F=F, R=R, name="%s random#%d" % (spec.name, n)))
    return out


def vec_s3():
    """Vec of the symmetric group S3 with trivial F: fusion is not
    commutative, so many trees of one side have no partner on the other."""
    raw = json.loads(Path(data_path("groups/s3.json")).read_text())
    elements, table = raw["elements"], raw["table"]
    fusion = [[a, b, table[i][j]] for i, a in enumerate(elements) for j, b in enumerate(elements)]
    unit = next(a for i, a in enumerate(elements) if table[i] == elements)
    dual = {a: b for a, b, c in fusion if c == unit}
    spec = {"field": {"kind": "rational"}, "labels": elements, "unit": unit, "dual": dual, "fusion": fusion}
    return category_from_json(spec, name="vec_s3")


ISING_BLOCK_KEYS = [("sigma",) * 4 + (e, f) for e in ("1", "psi") for f in ("1", "psi")]

ORACLE_SPECS = (
    [cat(name) for name in ALL_CATEGORIES] + [vec_s3()] + sign_flip_mutants() + random_mutants()
)


def test_oracle_mutant_set_sizes():
    flips = sign_flip_mutants()
    assert len(flips) == 34
    assert len(random_mutants()) >= 20


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.name)
def test_pentagon_matches_assembled_composites(spec):
    assert verify_pentagon(spec).items == _assembled_pentagon(spec).items


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.name)
def test_hexagon_matches_assembled_composites(spec):
    assert verify_hexagon(spec).items == _assembled_hexagon(spec).items


@pytest.mark.parametrize("key", ISING_BLOCK_KEYS)
def test_singular_block_witness_matches_assembled(key):
    spec = cat("ising")
    bad = spec.mutated(F={key: -spec.f_symbol(*key)})
    items = verify_hexagon(bad).items
    assert items == _assembled_hexagon(bad).items
    assert {"singular_f": ["sigma"] * 4} in [i.witness for i in items]


def ising_times_z2():
    """Ising times Rep(Z2), labels "x.g": F, R and twists come from the
    Ising factor, so the 2x2 recoupling blocks sit at eight different
    outer labels (sigma.g, sigma.h, sigma.k, sigma.g+h+k)."""
    raw = json.loads(Path(data_path("categories/ising.json")).read_text())
    group = (0, 1)

    def lab(x, g):
        return "%s.%d" % (x, g % 2)

    def graded(table, legs, degrees):
        out = {}
        for key, lit in raw[table].items():
            for gs in itertools.product(group, repeat=legs):
                out[",".join(lab(x, n) for x, n in zip(key.split(","), degrees(*gs)))] = lit
        return out

    product = {
        "field": raw["field"],
        "labels": [lab(x, g) for g in group for x in raw["labels"]],
        "unit": lab(raw["unit"], 0),
        "dual": {lab(x, g): lab(y, g) for x, y in raw["dual"].items() for g in group},
        "fusion": [[lab(a, g), lab(b, h), lab(c, g + h)] for a, b, c in raw["fusion"] for g in group for h in group],
        "F": graded("F", 3, lambda g, h, k: (g, h, k, g + h + k, g + h, h + k)),
        "R": graded("R", 2, lambda g, h: (g, h, g + h)),
        "twist": {lab(x, g): lit for x, lit in raw["twist"].items() for g in group},
    }
    return category_from_json(product, name="ising_z2")


def test_ising_times_z2_is_coherent():
    spec = ising_times_z2()
    assert verify_pentagon(spec).items == []
    assert verify_hexagon(spec).items == []


@pytest.mark.parametrize("seed", range(6))
def test_singular_block_order_matches_assembled(seed):
    # flipping one entry makes a 2x2 block singular; with several singular
    # blocks, which one hexagon-2 names depends on the lookup order
    spec = ising_times_z2()
    rng = random.Random(seed)
    F = {}
    for g in (0, 1):
        for h in (0, 1):
            for k in (0, 1):
                if rng.random() < 0.5:
                    key = ("sigma.%d" % g, "sigma.%d" % h, "sigma.%d" % k, "sigma.%d" % ((g + h + k) % 2))
                    key += ("1.%d" % ((g + h) % 2), "1.%d" % ((h + k) % 2))
                    F[key] = -spec.f_symbol(*key)
    bad = spec.mutated(F=F)
    items = verify_hexagon(bad).items
    assert items == _assembled_hexagon(bad).items
    assert any(isinstance(i.witness, dict) for i in items) == bool(F)


def test_mutation_does_not_leak_into_cache():
    spec = cat("fibonacci")
    minus = Scalar.from_int(spec.field, -1)
    spec.mutated(F={("tau", "tau", "tau", "tau", "tau", "1"): minus})
    assert verify_pentagon(cat("fibonacci")).items == []


# --- helpers on top of the block algebra -----------------------------------


def test_direct_sum_maps():
    spec = cat("ising")
    rng = random.Random(2)
    X1, X2 = rand_obj(rng, spec), rand_obj(rng, spec)
    total, (i1, i2), (p1, p2) = direct_sum_with_maps(X1, X2)
    assert total == X1 + X2
    assert compose(p1, i1) == Mor.identity(X1)
    assert compose(p2, i2) == Mor.identity(X2)
    assert compose(p2, i1).is_zero()
    recomposed = compose(i1, p1) + compose(i2, p2)
    assert recomposed == Mor.identity(total)


def test_right_inverse():
    spec = cat("vec_q")
    X = Obj(spec, {"1": 3})
    Y = Obj(spec, {"1": 2})
    one = Scalar.one(spec.field)
    zero = Scalar.zero(spec.field)
    f = Mor(X, Y, {"1": [[one, zero, one], [zero, one, zero]]})
    sec = mor_right_inverse(f)
    assert sec is not None
    assert compose(f, sec) == Mor.identity(Y)
    assert mor_right_inverse(Mor.zero(X, Y)) is None


def test_proportionality_scalar():
    spec = cat("fibonacci")
    rng = random.Random(13)
    X = rand_obj(rng, spec, 2)
    f = rand_mor(rng, X, X)
    c = parse_scalar("2 + z", spec.field)
    assert proportionality_scalar(f.scale(c), f) == c
    assert proportionality_scalar(Mor.zero(X, X), f) == Scalar.zero(spec.field)
    mixed = Obj(spec, {"1": 1, "tau": 1})
    # twist acts by 1 on the unit and z^2 on tau, so it is not a scalar multiple
    assert proportionality_scalar(twist_mor(mixed), Mor.identity(mixed)) is None


# --- loading and validation ------------------------------------------------


def test_load_cache_shares_instance():
    a = cat("toric_code")
    b = cat("toric_code")
    assert a is b


def test_load_cache_sees_an_edited_file(tmp_path):
    raw = json.loads(Path(data_path("categories/toric_code.json")).read_text())
    path = tmp_path / "toric.json"
    path.write_text(json.dumps(raw))
    first = load_category(path)
    assert load_category(path) is first
    assert verify_hexagon(first).items == []
    raw["R"]["e,m,f"] = scalar_literal(-first.r_symbol("e", "m", "f"))
    path.write_text(json.dumps(raw))
    st = path.stat()
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    second = load_category(path)
    assert second is not first
    assert second.r_symbol("e", "m", "f") == -first.r_symbol("e", "m", "f")
    assert verify_hexagon(second).items


def base_json():
    return {
        "name": "tiny",
        "field": {"kind": "rational"},
        "labels": ["1", "g"],
        "unit": "1",
        "dual": {"1": "1", "g": "g"},
        "fusion": [["1", "1", "1"], ["1", "g", "g"], ["g", "1", "g"], ["g", "g", "1"]],
    }


def test_category_from_json_ok():
    spec = category_from_json(base_json())
    assert spec.labels == ("1", "g")
    assert verify_pentagon(spec).items == []


def test_duplicate_fusion_rejected():
    raw = base_json()
    raw["fusion"].append(["g", "g", "1"])
    with pytest.raises(FusionDataError):
        category_from_json(raw)


def test_bad_dual_rejected():
    raw = base_json()
    raw["dual"]["g"] = "1"
    with pytest.raises(FusionDataError):
        category_from_json(raw)


def test_missing_unit_channel_rejected():
    raw = base_json()
    raw["fusion"] = [t for t in raw["fusion"] if t != ["1", "g", "g"]]
    with pytest.raises(FusionDataError):
        category_from_json(raw)


def test_second_unit_channel_rejected():
    # a label with unit channels against two partners has no single dual
    raw = base_json()
    raw["labels"].append("h")
    raw["dual"]["h"] = "h"
    raw["fusion"] += [["1", "h", "h"], ["h", "1", "h"], ["h", "h", "1"], ["g", "h", "1"], ["h", "g", "1"]]
    with pytest.raises(FusionDataError):
        category_from_json(raw)


def test_zero_f_entry_rejected():
    raw = base_json()
    raw["F"] = {"g,g,g,g,1,1": "0"}
    with pytest.raises(FusionDataError):
        category_from_json(raw)


def test_unit_f_entry_must_be_one():
    raw = base_json()
    raw["F"] = {"1,g,g,g,g,g": "-1"}
    with pytest.raises(FusionDataError):
        category_from_json(raw)


def test_inadmissible_f_key_rejected():
    raw = base_json()
    raw["F"] = {"g,g,g,g,g,g": "1"}
    with pytest.raises(FusionDataError):
        category_from_json(raw)


def test_inadmissible_r_key_rejected():
    raw = base_json()
    raw["R"] = {"g,g,g": "1"}
    with pytest.raises(FusionDataError):
        category_from_json(raw)


def test_unknown_label_in_fusion_rejected():
    raw = base_json()
    raw["fusion"].append(["h", "g", "g"])
    with pytest.raises(FusionDataError):
        category_from_json(raw)


def test_obj_negative_multiplicity_rejected():
    spec = cat("vec_q")
    with pytest.raises(Exception):
        Obj(spec, {"1": -1})


def test_mor_witness_serialization():
    spec = cat("toric_code")
    f = Mor.identity(Obj(spec, {"e": 1, "m": 1}))
    data = f.to_json()
    assert data["dom"] == {"e": 1, "m": 1}
    assert data["blocks"]["e"] == [["1"]]
