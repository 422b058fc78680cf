"""Tensor engine tests: block algebra, structural maps, coherence sweeps.

The Kronecker comparisons and the recoupling spot values are computed
independently inside this file, not read back from the engine.
"""

import itertools
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ctc
from ctc import data_path
from ctc import linalg as la
from ctc.algebra import Group, group_algebra, load_algebra, load_group, make_counit, solve_coevaluation
from ctc import category, fields
from ctc.category import (
    CategoryMismatch,
    CategorySpec,
    DomainMismatch,
    FusionDataError,
    Mor,
    Obj,
    SingularFBlock,
    _dual_scales,
    _f_matrix_inverse,
    associator,
    associator_inv,
    braiding,
    categorical_dim,
    category_from_json,
    compose,
    compose_tensor,
    load_category,
    pair_channels,
    tensor_compose,
    tensor_mor,
    tensor_obj,
    verify_hexagon,
    verify_pentagon,
    verify_triangle,
    verify_zigzag,
)
from ctc.fields import FieldSpec, Scalar, parse_scalar, scalar_literal
from ctc.modules import load_module
from ctc.ring import FusionRing, fusion_ring as _ring
from ctc.report import Report
from test_fields import phi, zeta
from test_linalg import dense_inverse, to_dense, zeros

ALL_CATEGORIES = ["vec_q", "vec_f2", "vec_f3", "pointed_z4", "toric_code", "ising", "fibonacci"]


def cat(name):
    return load_category(data_path("categories/%s.json" % name))


def twist_mor(x):
    """The twist of x, theta_s on each copy of the simple s: the morphism
    the composed twisted loop of an algebra runs through."""
    twist = x.spec.twist
    return Mor.from_rows(x, x, {lab: [{i: twist[lab]} for i in range(m)] for lab, m in x.mult.items()})


def mutated(spec, F=None, R=None, twist=None, name=None):
    """Copy of ``spec`` with individual coefficient entries replaced; for probing checks."""
    return CategorySpec(
        name or spec.name + "*",
        spec.field,
        spec.labels,
        spec.unit,
        spec.dual,
        spec.fusion,
        {**spec.F, **(F or {})},
        {**spec.R, **(R or {})},
        {**spec.twist, **(twist or {})},
        dict(spec.pivot),
    )


# --- duality maps, composed from morphisms --------------------------------
#
# The engine checks duality on the symbols (``_dual_scales``,
# ``verify_zigzag``); these maps are the morphisms the reference
# composites are built from.


def dual_obj(x):
    return Obj(x.spec, {x.spec.dual[lab]: m for lab, m in x.mult.items()})


def ev_coev(x):
    """Evaluation x* (x) x -> 1 and coevaluation 1 -> x (x) x*.

    Slots pair up by equal copy index; coefficients are the per-simple
    normalizations from the bent-line condition, so both duality moves
    compose to the identity exactly.
    """
    spec = x.spec
    scales = _dual_scales(spec)
    xd = dual_obj(x)
    unit_o = Obj.unit(spec)
    one = Scalar.one(spec.field)
    ev_pairs = pair_channels(xd, x).get(spec.unit, [])
    ev_row = {k: scales[s] for k, (_, i, s, j) in enumerate(ev_pairs) if i == j}
    ev = Mor.from_rows(tensor_obj(xd, x), unit_o, {spec.unit: [ev_row]} if ev_pairs else {})
    coev_pairs = pair_channels(x, xd).get(spec.unit, [])
    coev_col = [{0: one} if i == j else {} for _, i, _, j in coev_pairs]
    coev = Mor.from_rows(unit_o, tensor_obj(x, xd), {spec.unit: coev_col} if coev_pairs else {})
    return ev, coev


def rand_scalar(rng, field):
    if field.kind == "cyclotomic":
        s = Scalar.zero(field)
        for k in range(min(phi(field.n), 4)):
            c = rng.randint(-2, 2)
            if c:
                s = s + zeta(field, k).scale(c)
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


def test_ragged_block_is_named_as_such():
    spec = cat("toric_code")
    X = Obj(spec, {"e": 2})
    one = Scalar.one(spec.field)
    with pytest.raises(DomainMismatch) as exc:
        Mor(X, X, {"e": [[one, one], [one]]})
    assert str(exc.value) == "block 'e' has rows of lengths [2, 1], expected 2x2"


def test_blocks_on_labels_an_endpoint_lacks_must_be_empty():
    # m is absent from both ends of X -> X, so [] is its only valid block there;
    # into Y = e + 2m it takes two empty rows
    spec = cat("toric_code")
    one = Scalar.one(spec.field)
    X, Y = Obj(spec, {"e": 1}), Obj(spec, {"e": 1, "m": 2})
    assert Mor(X, X, {"m": []}) == Mor.zero(X, X)
    assert Mor(X, Y, {"e": [[one]], "m": [[], []]}) == Mor(X, Y, {"e": [[one]]})
    with pytest.raises(DomainMismatch, match="block 'm' has rows of lengths \\[3\\], expected 0x0"):
        Mor(X, X, {"m": [[one, one, one]]})
    with pytest.raises(DomainMismatch, match="expected 2x0"):
        Mor(X, Y, {"m": [[one], [one]]})
    with pytest.raises(DomainMismatch, match="block 'nolabel' is not on a label of toric_code"):
        Mor(X, X, {"nolabel": 5})


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


def natural_triples(name, max_mult, seed):
    """Morphisms (f, g, h) of the bundled category ``name`` to check
    naturality on: four triples between random objects, then
    endomorphisms of each object a + b of two labels beside endomorphisms
    of two random simples."""
    spec = cat(name)
    rng = random.Random(seed)
    for _ in range(4):
        doms = [rand_obj(rng, spec, max_mult) for _ in range(3)]
        cods = [rand_obj(rng, spec, max_mult) for _ in range(3)]
        yield tuple(rand_mor(rng, x, x2) for x, x2 in zip(doms, cods))
    for a, b in itertools.combinations(spec.labels, 2):
        x = Obj(spec, {a: 1, b: 1})
        y, z = (Obj.simple(spec, rng.choice(spec.labels)) for _ in range(2))
        yield rand_mor(rng, x, x), rand_mor(rng, y, y), rand_mor(rng, z, z)


@pytest.mark.parametrize("name", ALL_CATEGORIES)
def test_associator_naturality(name):
    for f, g, h in natural_triples(name, 1, 23):
        lhs = compose(tensor_mor(f, tensor_mor(g, h)), associator(f.dom, g.dom, h.dom))
        rhs = compose(associator(f.cod, g.cod, h.cod), tensor_mor(tensor_mor(f, g), h))
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


@pytest.mark.parametrize("name", ALL_CATEGORIES)
def test_braiding_naturality(name):
    for f, g, _ in natural_triples(name, 2, 17):
        lhs = compose(braiding(f.cod, g.cod), tensor_mor(f, g))
        rhs = compose(tensor_mor(g, f), braiding(f.dom, g.dom))
        assert lhs == rhs


def test_braiding_refuses_fusion_that_does_not_commute():
    s3 = vec_s3()
    with pytest.raises(FusionDataError, match=r"^fusion does not commute: 'r' \(x\) 's' holds 'sr2', 's' \(x\) 'r' "):
        braiding(Obj.simple(s3, "r"), Obj.simple(s3, "s"))
    # x (x) y = y but y (x) x = x + y: each summand of x (x) y has its
    # partner, and the summand x of y (x) x has none
    rules = [["1", "1", "1"], ["x", "x", "1"], ["y", "y", "1"], ["x", "y", "y"], ["y", "x", "x"], ["y", "x", "y"]]
    rules += [[lab, "1", lab] for lab in "xy"] + [["1", lab, lab] for lab in "xy"]
    lopsided = category_from_json(
        {"field": {"kind": "rational"}, "labels": ["1", "x", "y"], "unit": "1",
         "dual": {"1": "1", "x": "x", "y": "y"}, "fusion": rules}
    )
    x, y = Obj.simple(lopsided, "x"), Obj.simple(lopsided, "y")
    for pair in ((x, y), (y, x)):
        with pytest.raises(FusionDataError, match=r"'y' \(x\) 'x' holds 'x', 'x' \(x\) 'y' does not"):
            braiding(*pair)


def test_braiding_is_invertible_symmetry_for_toric():
    spec = cat("toric_code")
    rng = random.Random(29)
    X, Y = rand_obj(rng, spec), rand_obj(rng, spec)
    # toric braiding is a symmetry up to signs: c_{Y,X} c_{X,Y} is diagonal +-1
    m = compose(braiding(Y, X), braiding(X, Y))
    for lab in m.dom.labels_present():
        for i, row in enumerate(m.block(lab)):
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


def _loop_dim(spec, s):
    """Reference dimension of the simple s: the loop ev_{s*} (pivot_s (x) 1) coev_s
    composed from morphisms, read off its 1x1 block."""
    sd = spec.dual[s]
    _, coev_s = ev_coev(Obj.simple(spec, s))
    ev_sd, _ = ev_coev(Obj.simple(spec, sd))
    pivoted = tensor_mor(
        Mor.identity(Obj.simple(spec, s)).scale(spec.pivot[s]),
        Mor.identity(Obj.simple(spec, sd)),
    )
    return compose(ev_sd, compose(pivoted, coev_s)).block(spec.unit)[0][0]


def _pivoted(name, F, pivot):
    raw = json.loads(Path(data_path("categories/%s.json" % name)).read_text())
    raw.setdefault("F", {}).update(F)
    raw["pivot"] = pivot
    return category_from_json(raw, name=name + "-pivoted")


PIVOTED = [
    # 1 and 3 are dual to each other, and only F^{1 3 1}_1 is not 1
    _pivoted("pointed_z4", {"1,3,1,1,0,0": "2"}, {"1": "z", "2": "-1", "3": "-1/3"}),
    _pivoted("fibonacci", {}, {"tau": "-1"}),
]


@pytest.mark.parametrize("spec", [cat(name) for name in ALL_CATEGORIES] + PIVOTED, ids=lambda s: s.name)
def test_dims_match_the_composed_loop(spec):
    for lab in spec.labels:
        assert categorical_dim(Obj.simple(spec, lab)) == _loop_dim(spec, lab)


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
    bad = mutated(spec, F={("psi", "psi", "psi", "psi", "1", "1"): minus})
    rep = verify_pentagon(bad)
    assert rep.items, "flipped recoupling sign must break the pentagon sweep"
    assert all(i.status == "fail" for i in rep.items)


def test_hexagon_detects_bad_entry():
    spec = cat("toric_code")
    minus = Scalar.from_int(spec.field, -1)
    bad = mutated(spec, R={("e", "m", "f"): minus})
    assert verify_hexagon(bad).items


def test_balancing_detects_bad_twist():
    spec = cat("toric_code")
    minus = Scalar.from_int(spec.field, -1)
    bad = mutated(spec, twist={"e": minus})
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


def reference_braiding(x, y):
    """x (x) y -> y (x) x with the entry R^{ab}_c from each summand
    (a, i, b, j) of x (x) y to its partner (b, j, a, i) in y (x) x, placed
    by the summand tables.  Where fusion does not commute, as in Vec(S3),
    a summand without a partner maps to zero; ``braiding`` refuses such
    objects instead."""
    dom_rows = pair_channels(x, y)
    rows = {}
    for c, summands in pair_channels(y, x).items():
        if c in dom_rows:
            col = {t: k for k, t in enumerate(dom_rows[c])}
            rows[c] = [
                {col[a, i, b, j]: x.spec.r_symbol(a, b, c)} if (a, i, b, j) in col else {}
                for b, j, a, i in summands
            ]
    return Mor.from_rows(tensor_obj(x, y), tensor_obj(y, x), rows)


@pytest.mark.parametrize("name", ALL_CATEGORIES)
def test_reference_braiding_is_the_braiding_on_commuting_fusion(name):
    spec = cat(name)
    rng = random.Random(31)
    for _ in range(4):
        x, y = rand_obj(rng, spec), rand_obj(rng, spec)
        assert reference_braiding(x, y) == braiding(x, y)


def _assembled_hexagon(spec):
    """Reference hexagons: both three-braiding composites as block matrices,
    then the same balancing loop as the engine.  The braidings are
    ``reference_braiding``, so a category whose fusion does not commute
    fails where its composites differ."""
    report = Report()
    simples = {lab: Obj.simple(spec, lab) for lab in spec.labels}
    for a in spec.labels:
        for b in spec.labels:
            for c in spec.labels:
                X, Y, Z = simples[a], simples[b], simples[c]
                lhs = compose(
                    associator(Y, Z, X),
                    compose(reference_braiding(X, tensor_obj(Y, Z)), associator(X, Y, Z)),
                )
                rhs = compose(
                    tensor_mor(Mor.identity(Y), reference_braiding(X, Z)),
                    compose(associator(Y, X, Z), tensor_mor(reference_braiding(X, Y), Mor.identity(Z))),
                )
                if lhs != rhs:
                    report.append("hexagon-1:%s,%s,%s" % (a, b, c), "fail", witness=[a, b, c])
                try:
                    lhs2 = compose(
                        associator_inv(Z, X, Y),
                        compose(reference_braiding(tensor_obj(X, Y), Z), associator_inv(X, Y, Z)),
                    )
                    rhs2 = compose(
                        tensor_mor(reference_braiding(X, Z), Mor.identity(Y)),
                        compose(associator_inv(X, Z, Y), tensor_mor(Mor.identity(X), reference_braiding(Y, Z))),
                    )
                except SingularFBlock as exc:
                    witness = {"singular_f": list(exc.labels)}
                    report.append("hexagon-2:%s,%s,%s" % (a, b, c), "fail", witness=witness)
                    continue
                if lhs2 != rhs2:
                    report.append("hexagon-2:%s,%s,%s" % (a, b, c), "fail", witness=[a, b, c])
    for a, b, c in sorted(spec.fusion, key=lambda t: tuple(spec.labels.index(x) for x in t)):
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


def sign_flips(spec):
    """Every single listed F or R entry of ``spec`` negated, where the
    entry's first three labels avoid the unit (F entries there are pinned
    to 1)."""
    return [
        mutated(spec, name="%s %s%s" % (spec.name, table, key), **{table: {key: -val}})
        for table in ("F", "R")
        for key, val in sorted(getattr(spec, table).items())
        if spec.unit not in key[:3]
    ]


def sign_flip_mutants():
    """The sign flips of the bundled categories; the three not listed in
    ``MUTATED_CATEGORIES`` list no F or R entry."""
    return [flip for name in MUTATED_CATEGORIES for flip in sign_flips(cat(name))]


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
        out.append(mutated(spec, F=F, R=R, name="%s random#%d" % (spec.name, n)))
    return out


def vec_s3_json():
    """The data of Vec of the symmetric group S3 with trivial F and R."""
    raw = json.loads(Path(data_path("groups/s3.json")).read_text())
    elements, table = raw["elements"], raw["table"]
    fusion = [[a, b, table[i][j]] for i, a in enumerate(elements) for j, b in enumerate(elements)]
    unit = next(a for i, a in enumerate(elements) if table[i] == elements)
    dual = {a: b for a, b, c in fusion if c == unit}
    return {"field": {"kind": "rational"}, "labels": elements, "unit": unit, "dual": dual, "fusion": fusion}


def vec_s3():
    """Vec(S3): fusion is not commutative, so many trees of one side have
    no partner on the other."""
    return category_from_json(vec_s3_json(), name="vec_s3")


def vec_s3_braided():
    """Vec(S3) with R^{r s}_{sr2} = 2 and the first R slot, R^{e e}_e, at -1.
    s r = sr, so (s, r, sr2) is not a fusion triple: balancing must read
    the 1 of slot 0 for R^{s r}_{sr2}, and its monodromy is R^{r s}_{sr2}."""
    spec = vec_s3()
    two, minus = Scalar.from_int(spec.field, 2), Scalar.from_int(spec.field, -1)
    return mutated(spec, R={("r", "s", "sr2"): two, ("e", "e", "e"): minus}, name="vec_s3 R")


ISING_BLOCK_KEYS = [("sigma",) * 4 + (e, f) for e in ("1", "psi") for f in ("1", "psi")]

ORACLE_SPECS = (
    [cat(name) for name in ALL_CATEGORIES]
    + [vec_s3(), vec_s3_braided()]
    + sign_flip_mutants()
    + random_mutants()
)


def test_balancing_monodromy_outside_the_rules_is_r_ab_c():
    spec = vec_s3_braided()
    ring = _ring(spec.labels, spec.fusion)
    assert ("s", "r", "sr2") not in spec.fusion and ring.ordered_fusion[0] == ("e", "e", "e")
    failing = [i for i in verify_hexagon(spec).items if i.check.startswith("balancing:")]
    assert [(i.check, i.witness) for i in failing] == [
        ("balancing:r,s,sr2", {"triple": ["r", "s", "sr2"], "monodromy": "2", "twist_ratio": "1"})
    ]


def test_oracle_mutant_set_sizes():
    flips = sign_flip_mutants()
    assert len(flips) == 34
    every = [f.name for name in ALL_CATEGORIES for f in sign_flips(cat(name))]
    assert sorted(every) == sorted(f.name for f in flips)
    assert len(random_mutants()) >= 20


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.name)
def test_pentagon_matches_assembled_composites(spec):
    assert verify_pentagon(spec).items == _assembled_pentagon(spec).items


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.name)
def test_hexagon_matches_assembled_composites(spec):
    assert verify_hexagon(spec).items == _assembled_hexagon(spec).items


def _assembled_dual_scales(spec):
    """Reference normalizations: raw maps with coefficient 1 composed
    around the first bent line, the resulting scalar inverted."""
    scales = {}
    one = Scalar.one(spec.field)
    for s in spec.labels:
        S, Sd = Obj.simple(spec, s), Obj.simple(spec, spec.dual[s])
        i_raw = Mor(Obj.unit(spec), tensor_obj(S, Sd), {spec.unit: [[one]]})
        e_raw = Mor(tensor_obj(Sd, S), Obj.unit(spec), {spec.unit: [[one]]})
        z1 = compose(
            tensor_mor(Mor.identity(S), e_raw),
            compose(associator(S, Sd, S), tensor_mor(i_raw, Mor.identity(S))),
        )
        scales[s] = z1.block(s)[0][0].inverse()
    return scales


def _assembled_triangle(spec):
    """Reference triangle: the associator across the unit as a block matrix."""
    report = Report()
    for a in spec.labels:
        for b in spec.labels:
            A, B = Obj.simple(spec, a), Obj.simple(spec, b)
            mid = associator(A, Obj.unit(spec), B)
            if mid != Mor.identity(tensor_obj(A, B)):
                report.append("triangle:%s,%s" % (a, b), "fail", witness=[a, b])
    return report


def _assembled_zigzag(spec):
    """Reference zigzags: both duality moves composed as block matrices."""
    report = Report()
    for s in spec.labels:
        S = Obj.simple(spec, s)
        Sd = dual_obj(S)
        ev, coev = ev_coev(S)
        z1 = compose(
            tensor_mor(Mor.identity(S), ev),
            compose(associator(S, Sd, S), tensor_mor(coev, Mor.identity(S))),
        )
        if z1 != Mor.identity(S):
            report.append("zigzag-1:%s" % s, "fail", witness=z1.to_json())
        try:
            z2 = compose(
                tensor_mor(ev, Mor.identity(Sd)),
                compose(associator_inv(Sd, S, Sd), tensor_mor(Mor.identity(Sd), coev)),
            )
        except SingularFBlock as exc:
            report.append("zigzag-2:%s" % s, "fail", witness={"singular_f": list(exc.labels)})
            continue
        if z2 != Mor.identity(Sd):
            report.append("zigzag-2:%s" % s, "fail", witness=z2.to_json())
    return report


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.name)
def test_dual_scales_match_assembled_composites(spec):
    assert _dual_scales(spec) == _assembled_dual_scales(spec)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.name)
def test_triangle_matches_assembled_composites(spec):
    assert verify_triangle(spec).items == _assembled_triangle(spec).items


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.name)
def test_zigzag_matches_assembled_composites(spec):
    # ev_coev reads _dual_scales, which the test above holds to its oracle
    assert verify_zigzag(spec).items == _assembled_zigzag(spec).items


def test_zigzag_oracle_sees_failures():
    # the comparisons above are not vacuous: flips fail zigzag-2 both ways
    witnesses = [i.witness for spec in sign_flip_mutants() for i in verify_zigzag(spec).items]
    assert {"singular_f": ["sigma"] * 4} in witnesses
    assert any("blocks" in w for w in witnesses)


@pytest.mark.parametrize("key", ISING_BLOCK_KEYS)
def test_singular_block_witness_matches_assembled(key):
    spec = cat("ising")
    bad = mutated(spec, F={key: -spec.f_symbol(*key)})
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
    bad = mutated(spec, F=F)
    items = verify_hexagon(bad).items
    assert items == _assembled_hexagon(bad).items
    assert any(isinstance(i.witness, dict) for i in items) == bool(F)


def test_mutation_does_not_leak_into_cache():
    spec = cat("fibonacci")
    minus = Scalar.from_int(spec.field, -1)
    mutated(spec, F={("tau", "tau", "tau", "tau", "tau", "1"): minus})
    assert verify_pentagon(cat("fibonacci")).items == []


def twist_mutants(seed=7):
    """Seeded specs with one non-unit twist negated or replaced by a
    random nonzero value: balancing fails on some of them."""
    rng = random.Random(seed)
    out = []
    for name in MUTATED_CATEGORIES:
        spec = cat(name)
        for lab in spec.labels:
            if lab == spec.unit:
                continue
            value = Scalar.zero(spec.field)
            while value.is_zero():
                value = rand_scalar(rng, spec.field)
            out.append(mutated(spec, twist={lab: -spec.twist[lab]}, name="%s -twist(%s)" % (name, lab)))
            out.append(mutated(spec, twist={lab: value}, name="%s twist(%s)" % (name, lab)))
    return out


@pytest.mark.parametrize("spec", twist_mutants(), ids=lambda s: s.name)
def test_balancing_matches_assembled_on_twist_mutants(spec):
    items = verify_hexagon(spec).items
    assert items == _assembled_hexagon(spec).items


def test_twist_mutants_fail_balancing():
    failing = [s for s in twist_mutants() if any(i.check.startswith("balancing:") for i in verify_hexagon(s).items)]
    assert len(failing) >= 10


# --- the compiled sweeps against label-walking sweeps ----------------------
#
# The label-walking scalar sweeps below are the reference for the programs
# each fusion ring compiles: they read the symbols by label tuple, channel
# by channel, and share only `_f_matrix_inverse` with the compiled path.


def _shared_one(table: dict, one: Scalar) -> dict:
    """An F or R table with every entry equal to 1 replaced by ``one`` itself."""
    return {key: one if val == one else val for key, val in table.items()}


def _product(one, *factors):
    acc = one
    for x in factors:
        if x is not one:
            acc = x if acc is one else acc * x
    return acc


def _sum(zero, terms):
    acc = None
    for x in terms:
        acc = x if acc is None else acc + x
    return zero if acc is None else acc


def _pentagon_holds(spec, F, one, zero, a, b, c, d):
    fusion, ch = spec.fusion, spec.channels
    for e in ch(a, b):
        for f in ch(e, c):
            for u in ch(f, d):
                for g in ch(c, d):
                    through_g = (e, g, u) in fusion
                    ecd = F.get((e, c, d, u, f, g), one)
                    for h in ch(b, g):
                        if (a, h, u) not in fusion:
                            continue
                        lhs = _product(one, ecd, F.get((a, b, g, u, e, h), one)) if through_g else zero
                        rhs = _sum(
                            zero,
                            (
                                _product(
                                    one,
                                    F.get((a, b, c, f, e, k), one),
                                    F.get((a, k, d, u, f, h), one),
                                    F.get((b, c, d, h, k, g), one),
                                )
                                for k in ch(b, c)
                                if (a, k, f) in fusion and (k, d, h) in fusion
                            ),
                        )
                        if lhs is not rhs and lhs != rhs:
                            return False
    return True


def _hexagon1_holds(spec, F, R, one, zero, a, b, c):
    fusion, ch = spec.fusion, spec.channels
    for d in spec.labels:
        for e in ch(a, b):
            if (e, c, d) not in fusion:
                continue
            for g in ch(c, a):
                if (b, g, d) not in fusion:
                    continue
                lhs = _sum(
                    zero,
                    (
                        _product(
                            one,
                            F.get((a, b, c, d, e, f), one),
                            R.get((a, f, d), one),
                            F.get((b, c, a, d, f, g), one),
                        )
                        for f in ch(b, c)
                        if (a, f, d) in fusion and (f, a, d) in fusion
                    ),
                )
                if (b, a, e) in fusion and (a, c, g) in fusion:
                    rhs = _product(one, R.get((a, b, e), one), F.get((b, a, c, d, e, g), one), R.get((a, c, g), one))
                else:
                    rhs = zero
                if lhs is not rhs and lhs != rhs:
                    return False
    return True


def _inverse_entries(spec, one, a, b, c):
    """Nonzero entries ``(d, f, e) -> G`` of the inverse recoupling blocks,
    inverted for totals d in label order where both trees exist."""
    out = {}
    for d in spec.labels:
        if not any(spec.admissible(e, c, d) for e in spec.channels(a, b)):
            continue
        if not any(spec.admissible(a, f, d) for f in spec.channels(b, c)):
            continue
        e_list, f_list, inv = _f_matrix_inverse(spec, a, b, c, d)
        inv = to_dense(inv, len(e_list), spec.field)
        for fpos, f in enumerate(f_list):
            for epos, e in enumerate(e_list):
                val = inv[fpos][epos]
                if not val.is_zero():
                    out[(d, f, e)] = one if val == one else val
    return out


def _hexagon2_holds(spec, R, one, zero, a, b, c, cab, abc, acb):
    fusion, ch = spec.fusion, spec.channels
    for d in spec.labels:
        for f in ch(b, c):
            if (a, f, d) not in fusion:
                continue
            for g in ch(c, a):
                if (g, b, d) not in fusion:
                    continue
                lhs = _sum(
                    zero,
                    (
                        _product(one, abc[(d, f, e)], R.get((e, c, d), one), cab[(d, e, g)])
                        for e in ch(a, b)
                        if (d, f, e) in abc and (d, e, g) in cab
                    ),
                )
                mid = acb.get((d, f, g))
                rhs = zero if mid is None else _product(one, R.get((b, c, f), one), mid, R.get((a, c, g), one))
                if lhs is not rhs and lhs != rhs:
                    return False
    return True


def pentagon_walk(ring):
    """Pentagon outcomes with every symbol 1, over every label 4-tuple,
    counted by fusion-membership tests."""
    fusion, ch, labels = ring.fusion, ring._ch, ring.labels
    out = {}
    for a, b, c, d in itertools.product(labels, repeat=4):
        bc = ch(b, c)
        defect = 0
        for e in ch(a, b):
            for f in ch(e, c):
                ks = [k for k in bc if (a, k, f) in fusion]
                for u in ch(f, d):
                    for g in ch(c, d):
                        lhs = (e, g, u) in fusion
                        for h in ch(b, g):
                            if (a, h, u) in fusion:
                                diff = lhs - sum((k, d, h) in fusion for k in ks)
                                if diff:
                                    defect = math.gcd(defect, diff)
        if defect:
            out[(a, b, c, d)] = defect
    return out


def hexagon_walk(ring):
    """(hexagon-1, hexagon-2) outcomes with every symbol 1, counted by
    fusion-membership tests; hexagon-2 only where none of the three outer
    triples it reads is wide, since a wider block of 1s does not invert to
    a block of 1s."""
    fusion, ch, labels = ring.fusion, ring._ch, ring.labels
    wide = ring.blocks[0].keys()
    hex1, hex2 = {}, {}
    for a, b, c in itertools.product(labels, repeat=3):
        defect = 0
        for e in ch(a, b):
            right = (b, a, e) in fusion
            for d in ch(e, c):
                for g in ch(c, a):
                    if (b, g, d) in fusion:
                        lhs = sum((a, f, d) in fusion and (f, a, d) in fusion for f in ch(b, c))
                        diff = lhs - (right and (a, c, g) in fusion)
                        if diff:
                            defect = math.gcd(defect, diff)
        if defect:
            hex1[(a, b, c)] = defect
        if wide & {(c, a, b), (a, b, c), (a, c, b)}:
            continue
        defect = 0
        for f in ch(b, c):
            for d in ch(a, f):
                for g in ch(c, a):
                    if (g, b, d) in fusion:
                        lhs = sum((e, c, d) in fusion and (c, e, d) in fusion for e in ch(a, b))
                        diff = lhs - ((a, c, g) in fusion and (c, b, f) in fusion)
                        if diff:
                            defect = math.gcd(defect, diff)
        if defect:
            hex2[(a, b, c)] = defect
    return hex1, hex2


def _every_tuple_pentagon(spec):
    """Reference pentagon: the scalar equation evaluated on every 4-tuple."""
    report = Report()
    one, zero = Scalar.one(spec.field), Scalar.zero(spec.field)
    F = _shared_one(spec.F, one)
    for t in itertools.product(spec.labels, repeat=4):
        if not _pentagon_holds(spec, F, one, zero, *t):
            report.append("pentagon:%s,%s,%s,%s" % t, "fail", witness=list(t))
    return report


def _every_tuple_hexagon(spec):
    """Reference hexagons: both scalar equations evaluated on every triple,
    every outer triple inverted."""
    report = Report()
    one, zero = Scalar.one(spec.field), Scalar.zero(spec.field)
    F = _shared_one(spec.F, one)
    R = _shared_one(spec.R, one)
    for a, b, c in itertools.product(spec.labels, repeat=3):
        if not _hexagon1_holds(spec, F, R, one, zero, a, b, c):
            report.append("hexagon-1:%s,%s,%s" % (a, b, c), "fail", witness=[a, b, c])
        try:
            cab = _inverse_entries(spec, one, c, a, b)
            abc = _inverse_entries(spec, one, a, b, c)
            acb = _inverse_entries(spec, one, a, c, b)
        except SingularFBlock as exc:
            report.append("hexagon-2:%s,%s,%s" % (a, b, c), "fail", witness={"singular_f": list(exc.labels)})
            continue
        if not _hexagon2_holds(spec, R, one, zero, a, b, c, cab, abc, acb):
            report.append("hexagon-2:%s,%s,%s" % (a, b, c), "fail", witness=[a, b, c])
    return report


def _hexagon_items(spec):
    """The hexagon items of ``verify_hexagon``, without its balancing loop."""
    return [i for i in verify_hexagon(spec).items if i.check.startswith("hexagon-")]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.name)
def test_pentagon_matches_every_tuple_sweep(spec):
    assert verify_pentagon(spec).items == _every_tuple_pentagon(spec).items


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.name)
def test_hexagon_matches_every_tuple_sweep(spec):
    assert _hexagon_items(spec) == _every_tuple_hexagon(spec).items


def trivial_symbols(name, fusion, field):
    """A category on the fusion rules ``fusion`` (self-dual labels, unit
    "1") with every F, R, twist and pivot equal to 1."""
    labels = sorted({a for a, _, _ in fusion}, key=lambda x: (x != "1", x))
    raw = {"field": field, "labels": labels, "unit": "1", "dual": {x: x for x in labels}, "fusion": fusion}
    return category_from_json(raw, name=name)


def _commutative(products):
    return sorted({(a, b, c) for (x, y), cs in products.items() for a, b in ((x, y), (y, x)) for c in cs})


REP_S3_FUSION = _commutative(
    {("1", "1"): "1", ("1", "s"): "s", ("1", "x"): "x", ("s", "s"): "1", ("s", "x"): "x", ("x", "x"): "1sx"}
)
FIBONACCI_FUSION = _commutative({("1", "1"): "1", ("1", "t"): "t", ("t", "t"): "1t"})
TRIVIAL_FIELDS = {"Q": {"kind": "rational"}, "F2": {"kind": "prime", "p": 2}, "F3": {"kind": "prime", "p": 3}}


@pytest.mark.parametrize("field", sorted(TRIVIAL_FIELDS))
@pytest.mark.parametrize("ring", ["rep_s3", "fibonacci"])
def test_trivial_symbols_match_every_tuple_sweeps(ring, field):
    # every group takes the ring's outcome here, judged in the characteristic
    fusion = REP_S3_FUSION if ring == "rep_s3" else FIBONACCI_FUSION
    spec = trivial_symbols(ring, [list(t) for t in fusion], TRIVIAL_FIELDS[field])
    pentagon, hexagon = verify_pentagon(spec).items, _hexagon_items(spec)
    assert pentagon == _every_tuple_pentagon(spec).items
    assert hexagon == _every_tuple_hexagon(spec).items
    assert pentagon, "all-ones symbols on a non-pointed ring break the pentagon"


def test_trivial_symbols_fail_by_characteristic():
    counts = {}
    for field in ("Q", "F2"):
        spec = trivial_symbols("rep_s3", [list(t) for t in REP_S3_FUSION], TRIVIAL_FIELDS[field])
        counts[field] = len(_hexagon_items(spec))
    # a difference of 2 in the term counts holds over F_2 only
    assert counts == {"Q": 2, "F2": 1}


def non_associative():
    """Self-dual labels 1, x, y with x x = 1 + y, x y = x, y x = x + y,
    y y = 1: the block of (y, x, x) at total y is 2x1."""
    fusion = [("1", a, a) for a in "1xy"] + [(a, "1", a) for a in "xy"]
    fusion += [("x", "x", "1"), ("x", "x", "y"), ("x", "y", "x"), ("y", "x", "x"), ("y", "x", "y"), ("y", "y", "1")]
    return trivial_symbols("non_associative", [list(t) for t in fusion], {"kind": "rational"})


def test_non_square_block_raises_as_the_every_tuple_sweep():
    spec = non_associative()
    with pytest.raises(FusionDataError) as want:
        _every_tuple_hexagon(spec)
    with pytest.raises(FusionDataError) as got:
        verify_hexagon(spec)
    assert "not square" in str(want.value)
    assert str(got.value) == str(want.value)
    assert verify_pentagon(spec).items == _every_tuple_pentagon(spec).items


@pytest.mark.parametrize("name", ["pointed_z4", "toric_code"])
def test_second_pointed_spec_evaluates_no_pentagon_and_shares_the_ring(monkeypatch, name):
    calls = []
    real = category.holds
    monkeypatch.setattr(category, "holds", lambda *args: calls.append(args[0]) or real(*args))
    first = cat(name)
    assert verify_pentagon(first).items == []
    ring, misses = _ring(first.labels, first.fusion), _ring.cache_info().misses
    second = category_from_json(json.loads(Path(data_path("categories/%s.json" % name)).read_text()))
    assert second is not first
    assert verify_pentagon(second).items == []
    assert calls == []
    assert _ring.cache_info().misses == misses
    assert _ring(second.labels, second.fusion) is ring


def _vec_zn(n):
    """Vec over Z_n with trivial symbols, labels "1", "g1", ..., "g<n-1>"."""
    labels = ["1"] + ["g%d" % k for k in range(1, n)]
    fusion = [[labels[i], labels[j], labels[(i + j) % n]] for i in range(n) for j in range(n)]
    dual = {labels[i]: labels[-i % n] for i in range(n)}
    raw = {"field": {"kind": "rational"}, "labels": labels, "unit": "1", "dual": dual, "fusion": fusion}
    return category_from_json(raw, name="vec_z%d" % n)


# for each kind of file the file memo holds: a small file of that kind,
# whose references resolve to tiny.json beside it, and its loader
TINY_FILES = {
    "categories": (lambda: base_json(), load_category),
    "algebras": (lambda: TINY_ALGEBRA, load_algebra),
    "modules": (lambda: {"algebra": "alg.json", "object": {"1": 1}, "muX": {"1": [["1"]]}}, load_module),
    "groups": (lambda: {"elements": ["e"], "table": [["e"]]}, load_group),
}
TINY_ALGEBRA = {"category": "tiny.json", "object": {"1": 1}, "iota": {"1": [["1"]]}, "mu": {"1": [["1"]]}}


def _fill_memo(name, k, tmp_path):
    """The k-th of a run of calls that each add one entry to the memo
    ``name``: on a new file, on a new category, or for rings on Z_{k+1}."""
    if name.startswith("_entry:"):
        raw, load = TINY_FILES[name.split(":")[1]]
        (tmp_path / "tiny.json").write_text(json.dumps(base_json()))
        (tmp_path / "alg.json").write_text(json.dumps(TINY_ALGEBRA))
        path = tmp_path / ("file%d.json" % k)
        path.write_text(json.dumps(raw()))
        load(path)
    elif name == "_parse":
        parse_scalar("%d/7" % k, FieldSpec.rational())
    elif name == "_ring":
        spec = _vec_zn(k + 1)
        assert verify_pentagon(spec).items == verify_hexagon(spec).items == []
    else:
        spec = category_from_json(base_json())
        g = Obj.simple(spec, "g")
        if name == "_plan":
            tensor_obj(g, g)
        elif name == "_associator":
            associator(g, g, g)
        else:
            _f_matrix_inverse(spec, "g", "g", "g", "g")


@pytest.mark.parametrize(
    "name, ceiling",
    [
        ("_plan", 1024),
        ("_associator", 1024),
        ("_f_block_inverse", 1024),
        ("_ring", 16),
        ("_entry:categories", 1024),
        ("_entry:algebras", 1024),
        ("_entry:modules", 1024),
        ("_entry:groups", 1024),
        ("_parse", 1024),
    ],
)
def test_every_memo_stays_bounded(tmp_path, name, ceiling):
    memo = {"_ring": _ring, "_parse": fields._parse}.get(name) or getattr(category, name, ctc._entry)
    maxsize = memo.cache_info().maxsize
    assert maxsize is not None and maxsize <= ceiling
    for k in range(maxsize + 3):
        _fill_memo(name, k, tmp_path)
    assert memo.cache_info().currsize == maxsize


def _zn_squared_fusion(n):
    """The fusion rules of Z_n x Z_n, labels "a.b", as a ring's inputs."""
    labels = tuple("%d.%d" % (a, b) for a in range(n) for b in range(n))
    fusion = frozenset(
        ("%d.%d" % (a, b), "%d.%d" % (c, d), "%d.%d" % ((a + c) % n, (b + d) % n))
        for a in range(n) for b in range(n) for c in range(n) for d in range(n)
    )
    return labels, fusion


def _ring_inputs():
    rings = {name: (cat(name).labels, cat(name).fusion) for name in ALL_CATEGORIES}
    rings.update({"z%d^2" % n: _zn_squared_fusion(n) for n in range(1, 6)})
    rings["rep_s3"] = (("1", "s", "x"), frozenset(REP_S3_FUSION))
    rings["fibonacci_rules"] = (("1", "t"), frozenset(FIBONACCI_FUSION))
    # pointed, every pair has one channel, but -(a + b) mod 3 is not associative
    negated = frozenset((str(a), str(b), str(-(a + b) % 3)) for a in range(3) for b in range(3))
    rings["z3_negated"] = (("0", "1", "2"), negated)
    return rings


def all_ones(name, labels, fusion):
    """The category over Q on a ring's rules with every symbol 1, the first
    label as unit and duals read off the fusion into it; None when the
    rules do not load that way."""
    unit = labels[0]
    raw = {
        "field": {"kind": "rational"},
        "labels": list(labels),
        "unit": unit,
        "dual": {a: b for a, b, c in fusion if c == unit},
        "fusion": [list(t) for t in fusion],
    }
    try:
        return category_from_json(raw, name=name)
    except FusionDataError:
        return None


# the inputs of _ring_inputs whose rules are pointed and associative
SETTLED_RINGS = {"vec_q", "vec_f2", "vec_f3", "pointed_z4", "toric_code"} | {"z%d^2" % n for n in range(1, 6)}


def _failing_groups(items, prefix):
    return [tuple(i.check.split(":")[1].split(",")) for i in items if i.check.startswith(prefix + ":")]


@pytest.mark.parametrize("name", sorted(_ring_inputs()))
def test_pentagon_table_matches_the_walk(name):
    labels, fusion = _ring_inputs()[name]
    ring = FusionRing(labels, fusion)
    walk = pentagon_walk(ring)
    assert ring.pentagon_settled == (name in SETTLED_RINGS)
    if ring.pentagon_settled:
        assert walk == {}
    if name in ("z3_negated", "rep_s3", "fibonacci_rules"):
        assert walk, "the oracle is not vacuous: these rings break an all-ones pentagon"
    spec = all_ones(name, labels, fusion)
    if spec is None:
        assert name == "z3_negated", "only the non-associative rules have no unit"
        return
    # over Q a group fails exactly when its term counts differ somewhere
    assert _failing_groups(verify_pentagon(spec).items, "pentagon") == list(walk)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_pointed_associative_ring_skips_the_walk(monkeypatch, n):
    monkeypatch.setattr(FusionRing, "pentagon_programs", property(lambda self: pytest.fail("compiled a pointed ring")))
    spec = all_ones("z%d^2" % n, *_zn_squared_fusion(n))
    assert verify_pentagon(spec).items == []
    assert _ring(spec.labels, spec.fusion).pentagon_settled


@pytest.mark.parametrize("name", sorted(_ring_inputs()))
def test_hexagon_tables_match_the_walk(name):
    labels, fusion = _ring_inputs()[name]
    ring = FusionRing(labels, fusion)
    want1, want2 = hexagon_walk(ring)
    spec = all_ones(name, labels, fusion)
    if spec is None:
        assert name == "z3_negated", "only the non-associative rules have no unit"
        return
    items, wide = verify_hexagon(spec).items, ring.blocks[0].keys()
    assert _failing_groups(items, "hexagon-1") == list(want1)
    hex2 = [t for t in _failing_groups(items, "hexagon-2") if not wide & {t[2:] + t[:2], t, (t[0], t[2], t[1])}]
    assert hex2 == list(want2)


def toric_zn(n):
    """The Z_n toric code over Q(zeta_n), labels "a.b" for (a, b) in Z_n^2:
    trivial F, R^{(a1,a2),(b1,b2)} = zeta^{a2 b1} and theta_(a,b) = zeta^{ab}."""

    def lab(a, b):
        return "%d.%d" % (a % n, b % n)

    def power(k):
        return "z^%d" % (k % n) if k % n else "1"

    pairs = list(itertools.product(range(n), repeat=2))
    raw = {
        "field": {"kind": "cyclotomic", "n": n},
        "labels": [lab(*x) for x in pairs],
        "unit": lab(0, 0),
        "dual": {lab(a, b): lab(-a, -b) for a, b in pairs},
        "fusion": [[lab(*x), lab(*y), lab(x[0] + y[0], x[1] + y[1])] for x in pairs for y in pairs],
        "R": {
            "%s,%s,%s" % (lab(*x), lab(*y), lab(x[0] + y[0], x[1] + y[1])): power(x[1] * y[0])
            for x in pairs
            for y in pairs
        },
        "twist": {lab(a, b): power(a * b) for a, b in pairs},
    }
    return category_from_json(raw, name="toric_z%d" % n)


def gauge(spec, seed):
    """The seeded rational gauge of ``gauged``: a nonzero u^{ab}_c on every
    fusion triple, 1 when a or b is the unit, drawn over the triples in
    label order, so it does not depend on the hash seed."""
    rng = random.Random(seed)
    u = {}
    for a, b, c in sorted(spec.fusion, key=lambda t: [spec.labels.index(x) for x in t]):
        q = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        u[a, b, c] = Scalar.one(spec.field) if spec.unit in (a, b) else Scalar.from_fraction(spec.field, q)
    return u


def gauged(spec, seed):
    """``spec`` after the gauge change u = ``gauge(spec, seed)``:
    F' = F u^{ab}_e u^{ec}_d / (u^{bc}_f u^{af}_d), R' = R u^{ab}_c / u^{ba}_c.
    The result is coherent exactly when ``spec`` is."""
    u = gauge(spec, seed)
    F = {}
    for a, b, c in itertools.product(spec.labels, repeat=3):
        for e in spec.channels(a, b):
            for d in spec.channels(e, c):
                for f in spec.channels(b, c):
                    if spec.admissible(a, f, d):
                        scale = u[a, b, e] * u[e, c, d] * (u[b, c, f] * u[a, f, d]).inverse()
                        F[a, b, c, d, e, f] = spec.f_symbol(a, b, c, d, e, f) * scale
    R = {(a, b, c): spec.r_symbol(a, b, c) * u[a, b, c] * u[b, a, c].inverse() for a, b, c in u}
    return CategorySpec(
        "%s-gauged" % spec.name, spec.field, spec.labels, spec.unit, spec.dual, spec.fusion, F, R,
        dict(spec.twist), dict(spec.pivot),
    )


def test_a_gauged_z3_toric_code_stays_coherent():
    spec = toric_zn(3)
    other = gauged(spec, 3)
    assert other.F != spec.F and other.R != spec.R
    for sweep in (verify_pentagon, verify_hexagon, verify_triangle, verify_zigzag):
        assert sweep(other).items == [], sweep.__name__


@pytest.mark.parametrize("n", [3, 4])
def test_toric_codes_match_every_tuple_sweeps(n):
    spec = toric_zn(n)
    assert verify_pentagon(spec).items == _every_tuple_pentagon(spec).items == []
    assert _hexagon_items(spec) == _every_tuple_hexagon(spec).items == []
    assert verify_hexagon(spec).items == verify_zigzag(spec).items == []


def test_every_r_sign_flip_of_the_z3_toric_code_fails_the_hexagon():
    spec = toric_zn(3)
    flips = [mutated(spec, R={key: -val}) for key, val in sorted(spec.R.items())]
    assert len(flips) == 81
    for bad in flips:
        assert _hexagon_items(bad), bad.R
    for bad in flips[::8]:
        assert _hexagon_items(bad) == _every_tuple_hexagon(bad).items


def rep_s3_inverse_zeros(F):
    """Rep(S3) rules with every symbol 1 but the 3x3 block F^{xxx}_x,
    given as rows e and columns f over the channels 1, s, x."""
    spec = trivial_symbols("rep_s3", [list(t) for t in REP_S3_FUSION], {"kind": "rational"})
    entries = {
        ("x", "x", "x", "x", e, f): Scalar.from_int(spec.field, F[i][j])
        for i, e in enumerate("1sx")
        for j, f in enumerate("1sx")
    }
    return mutated(spec, F=entries, name="rep_s3 F^xxx_x=%s" % (F,))


INVERSE_ZERO_SPECS = [
    # no entry is zero, but the inverse [[3,-1,-1],[-1,1,0],[-1,0,1]] has two
    rep_s3_inverse_zeros([[1, 1, 1], [1, 2, 1], [1, 1, 2]]),
    # the inverse's (1, 1) entry, the G zigzag-2 reads on x, is zero
    rep_s3_inverse_zeros([[1, 1, 1], [1, 1, 2], [2, 1, 2]]),
]


def test_inverse_zero_specs_have_zero_inverse_entries():
    for spec, zeros_seen in zip(INVERSE_ZERO_SPECS, (2, 3)):
        block = [[spec.f_symbol("x", "x", "x", "x", e, f) for f in "1sx"] for e in "1sx"]
        want = dense_inverse(block, spec.field, 3)
        assert to_dense(_f_matrix_inverse(spec, "x", "x", "x", "x")[2], 3, spec.field) == want
        assert sum(x.is_zero() for row in want for x in row) == zeros_seen
    # the second one's zero G^{xxx}_{x;1,1} makes the zigzag-2 composite on x zero
    assert want[0][0].is_zero()
    assert [i.check for i in verify_zigzag(spec).items] == ["zigzag-2:x"]


GAUGED_TORIC_SPECS = [gauged(toric_zn(3), seed) for seed in (1, 2, 5)]


def gauged_toric_flips():
    """Single-entry sign flips of the first gauged Z_3 toric code: every
    16th F entry and every 4th R entry off the unit, in key order."""
    spec = GAUGED_TORIC_SPECS[0]
    keys = {table: sorted(k for k in getattr(spec, table) if spec.unit not in k[:3]) for table in ("F", "R")}
    out = []
    for table, step in (("F", 16), ("R", 4)):
        for key in keys[table][::step]:
            val = getattr(spec, table)[key]
            out.append(mutated(spec, name="%s %s%s" % (spec.name, table, key), **{table: {key: -val}}))
    return out


@pytest.mark.parametrize("spec", INVERSE_ZERO_SPECS + GAUGED_TORIC_SPECS, ids=lambda s: s.name)
def test_hexagon_and_zigzag_match_the_oracles_on_inverse_zeros_and_gauges(spec):
    assert _hexagon_items(spec) == _every_tuple_hexagon(spec).items
    assert verify_hexagon(spec).items == _assembled_hexagon(spec).items
    assert verify_zigzag(spec).items == _assembled_zigzag(spec).items


def test_every_gauged_toric_flip_fails_the_hexagon_as_the_every_tuple_sweep():
    flips = gauged_toric_flips()
    assert len(flips) == 46
    for bad in flips:
        assert _hexagon_items(bad), bad.name
    for bad in flips[::4]:
        assert _hexagon_items(bad) == _every_tuple_hexagon(bad).items


@pytest.mark.parametrize(
    "spec", [cat(name) for name in ALL_CATEGORIES] + sign_flip_mutants() + GAUGED_TORIC_SPECS, ids=lambda s: s.name
)
def test_hexagon_inverts_only_wide_outer_triples(monkeypatch, spec):
    inverted = []
    real = category._f_matrix_inverse
    monkeypatch.setattr(category, "_f_matrix_inverse", lambda sp, *labels: inverted.append(labels) or real(sp, *labels))
    verify_hexagon(spec)
    wide = _ring(spec.labels, spec.fusion).blocks[0]
    assert {labels[:3] for labels in inverted} <= wide.keys()
    if spec in GAUGED_TORIC_SPECS:
        # every F entry of a gauged code is off 1, but no block is wider than 1x1
        assert inverted == []


# --- raw sweeps against the Scalar evaluator --------------------------------


def _scalar_holds(program, values, one, zero):
    """The evaluator the sweeps used on ``Scalar`` values: every equation
    of the program, each side the sum over its terms of the product of
    their values."""
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


def scalar_sweeps(spec):
    """The items of ``verify_pentagon`` then ``verify_hexagon``, computed
    on ``Scalar`` slot values by ``_scalar_holds``, with the balancing
    loop in ``Scalar`` arithmetic."""
    report = Report()
    one, zero = Scalar.one(spec.field), Scalar.zero(spec.field)
    ring = _ring(spec.labels, spec.fusion)
    _, slots, size = ring.blocks
    values = [one] * size
    for table in (spec.R, spec.F):
        for key, val in table.items():
            if val != one:
                values[slots[key]] = val
    if not (ring.pentagon_settled and all(val.is_one() for val in spec.F.values())):
        for t, program in ring.pentagon_programs.items():
            if not _scalar_holds(program, values, one, zero):
                report.append("pentagon:%s,%s,%s,%s" % t, "fail", witness=list(t))
    reverse = list(values)
    for r, r_swapped, *_ in ring.balancing:
        x = values[r_swapped]
        reverse[r] = x if x is one else x.inverse()
    programs, wide = ring.hexagon_programs, ring.blocks[0]
    for t, program in programs.items():
        a, b, c = t
        if not _scalar_holds(program, values, one, zero):
            report.append("hexagon-1:%s,%s,%s" % t, "fail", witness=list(t))
        witness = None
        for outer in ((c, a, b), t, (a, c, b)):
            if outer in wide:
                labels = category._singular_block(spec, ring, outer)
                if labels is not None:
                    witness = {"singular_f": list(labels)}
                    break
        if witness is None and not _scalar_holds(programs[c, a, b], reverse, one, zero):
            witness = list(t)
        if witness is not None:
            report.append("hexagon-2:%s,%s,%s" % t, "fail", witness=witness)
    twist = [spec.twist[lab] for lab in spec.labels]
    for (a, b, c), (r, r_swapped, ia, ib, ic) in zip(ring.ordered_fusion, ring.balancing):
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


def over_prime(name, p):
    """A bundled category whose literals are all integers, read over F_p."""
    raw = json.loads(Path(data_path("categories/%s.json" % name)).read_text())
    raw["field"] = {"kind": "prime", "p": p}
    return category_from_json(raw, name="%s over F_%d" % (name, p))


def prime_field_specs():
    """Categories over F_p with F or R entries other than 1: the toric
    code over F_3, F_5 and F_7 (R^{ee}_1 = -1), two gauged copies, and
    the sign flips of one plain and one gauged copy."""
    plain = [over_prime("toric_code", p) for p in (3, 5, 7)]
    # the gauge's numerators and denominators are at most 3, units mod 5 and 7
    gauges = [gauged(plain[1], 1), gauged(plain[2], 2)]
    return plain + gauges + sign_flips(plain[1]) + sign_flips(gauges[0])


def test_prime_field_specs_carry_entries_other_than_one():
    for spec in prime_field_specs():
        assert spec.field.kind == "prime"
        assert any(not val.is_one() for val in list(spec.F.values()) + list(spec.R.values())), spec.name
    assert any(scalar_sweeps(spec).items for spec in prime_field_specs())


TORIC_ZN_SPECS = [toric_zn(n) for n in (3, 4, 5)]
# ORACLE_SPECS holds every sign flip of the 7 bundled categories
RAW_ORACLE_SPECS = (
    ORACLE_SPECS + TORIC_ZN_SPECS + [gauged(spec, 1) for spec in TORIC_ZN_SPECS] + INVERSE_ZERO_SPECS
    + prime_field_specs()
)


@pytest.mark.parametrize("spec", RAW_ORACLE_SPECS, ids=lambda s: s.name)
def test_raw_sweeps_match_the_scalar_evaluator(spec):
    assert verify_pentagon(spec).items + verify_hexagon(spec).items == scalar_sweeps(spec).items


def semion():
    """The semion category over Q(zeta_4): labels 1 and s, s s = 1,
    F^{sss}_{s;1,1} = -1, R^{ss}_1 = i and theta_s = i."""
    raw = {
        "field": {"kind": "cyclotomic", "n": 4},
        "labels": ["1", "s"],
        "unit": "1",
        "dual": {"1": "1", "s": "s"},
        "fusion": [["1", "1", "1"], ["1", "s", "s"], ["s", "1", "s"], ["s", "s", "1"]],
        "F": {"s,s,s,s,1,1": "-1"},
        "R": {"s,s,1": "z"},
        "twist": {"s": "z"},
    }
    return category_from_json(raw, name="semion")


def test_semion_is_coherent_and_its_f_sign_matters():
    # a pointed associative ring whose F is not all 1 is evaluated program
    # by program; with the sign flipped, F is all 1 and the pentagon settles
    spec = semion()
    for sweep in (verify_pentagon, verify_hexagon, verify_triangle, verify_zigzag):
        assert sweep(spec).items == [], sweep.__name__
    assert verify_pentagon(spec).items == _every_tuple_pentagon(spec).items
    assert _hexagon_items(spec) == _every_tuple_hexagon(spec).items
    key = ("s", "s", "s", "s", "1", "1")
    flipped = mutated(spec, F={key: -spec.f_symbol(*key)})
    assert verify_pentagon(flipped).items == _every_tuple_pentagon(flipped).items == []
    items = _hexagon_items(flipped)
    assert [i.check for i in items] == ["hexagon-1:s,s,s", "hexagon-2:s,s,s"]
    assert items == _every_tuple_hexagon(flipped).items


def test_sign_flip_mutants_compile_each_ring_once(monkeypatch):
    # each of blocks and the programs is compiled once per ring, however
    # many mutants share the ring
    compiled = Counter()

    def counting(name):
        func = getattr(FusionRing, name).func

        def wrapper(self):
            compiled[name] += 1
            return func(self)

        prop = cached_property(wrapper)
        prop.__set_name__(FusionRing, name)
        return prop

    for name in ("blocks", "pentagon_programs", "hexagon_programs"):
        monkeypatch.setattr(FusionRing, name, counting(name))
    _ring.cache_clear()
    mutants = sign_flip_mutants()
    for spec in mutants:
        verify_pentagon(spec)
        verify_hexagon(spec)
        verify_zigzag(spec)
    rings = {_ring(spec.labels, spec.fusion) for spec in mutants}
    assert len(rings) == 4
    # pointed_z4 and toric_code have no F entry, so their R flips are
    # settled without a pentagon program
    assert compiled == {"blocks": 4, "pentagon_programs": 2, "hexagon_programs": 4}


@pytest.mark.parametrize("spec", [cat(name) for name in ALL_CATEGORIES] + sign_flip_mutants(), ids=lambda s: s.name)
def test_evaluation_reads_no_channels(monkeypatch, spec):
    # a first run compiles the ring's programs and inverts the spec's
    # blocks; a second run evaluates by slot alone
    want = [sweep(spec).items for sweep in (verify_pentagon, verify_hexagon, verify_zigzag)]

    def refuse(*args):
        raise AssertionError("channels read during evaluation")

    monkeypatch.setattr(CategorySpec, "channels", refuse)
    monkeypatch.setattr(FusionRing, "_ch", refuse)
    assert [sweep(spec).items for sweep in (verify_pentagon, verify_hexagon, verify_zigzag)] == want

# --- helpers on top of the block algebra -----------------------------------
#
# Test-side helpers: sections for the module tests, and the scalar the
# Frobenius kit's index is held to in the algebra tests.


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
    if f.dom != base.dom or f.cod != base.cod:
        raise DomainMismatch("morphism endpoints differ")
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
    one, zero = Scalar.one(spec.field), Scalar.zero(spec.field)
    two = Obj(spec, {"tau": 2})
    # equal on the diagonal, but nonzero where the identity is zero
    upper = Mor(two, two, {"tau": [[one, one], [zero, one]]})
    assert proportionality_scalar(upper, Mor.identity(two)) is None


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


def test_every_way_to_one_file_loads_one_instance(tmp_path, monkeypatch):
    bundled = data_path("categories/toric_code.json")
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    (tmp_path / "soft.json").symlink_to(bundled)
    first = load_category("toric_code")
    relative = os.path.relpath(bundled)
    assert relative.startswith("..")
    for ref in (bundled, str(bundled), relative, "../soft.json", tmp_path / "soft.json"):
        assert load_category(ref) is first, ref
    # a hard link needs one file system, so it links a copy in tmp_path
    copy = tmp_path / "copy.json"
    copy.write_bytes(bundled.read_bytes())
    os.link(copy, tmp_path / "hard.json")
    second = load_category(copy)
    assert second is not first
    assert load_category("../hard.json") is second


def test_a_new_size_or_mtime_reloads_the_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(base_json()))
    st = path.stat()
    first = load_category(path)
    raw = base_json()
    raw["name"] = "tiny-2"
    path.write_text(json.dumps(raw))
    # the same inode and modification time, but a new size
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert path.stat().st_size != st.st_size
    second = load_category(path)
    assert (second.name, first.name) == ("tiny-2", "tiny")
    raw["name"] = "tiny-3"
    path.write_text(json.dumps(raw))
    # the same size, but a new modification time
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    assert load_category(path).name == "tiny-3"
    assert load_category(path) is load_category(path)


def test_a_nameless_file_through_a_symlink_is_named_after_its_target(tmp_path, monkeypatch):
    raw = base_json()
    del raw["name"]
    target = tmp_path / "target_cat.json"
    target.write_text(json.dumps(raw))
    (tmp_path / "alias.json").symlink_to(target)
    calls = []
    realpath = os.path.realpath
    monkeypatch.setattr(os.path, "realpath", lambda path, *args, **kw: calls.append(path) or realpath(path, *args, **kw))
    spec = load_category(tmp_path / "alias.json")
    assert spec.name == "target_cat"
    assert len(calls) == 1
    # a memo hit, by either path, resolves no link
    assert load_category(tmp_path / "alias.json") is spec
    assert load_category(target) is spec
    assert len(calls) == 1


def base_json():
    return {
        "name": "tiny",
        "field": {"kind": "rational"},
        "labels": ["1", "g"],
        "unit": "1",
        "dual": {"1": "1", "g": "g"},
        "fusion": [["1", "1", "1"], ["1", "g", "g"], ["g", "1", "g"], ["g", "g", "1"]],
    }


def unknown_label_rules_json():
    """``base_json`` plus three fusion rules, each on one label it lacks:
    "w", "v" and "y" in file order."""
    raw = base_json()
    raw["fusion"] += [["w", "g", "1"], ["v", "g", "1"], ["y", "g", "1"]]
    return raw


def test_unknown_labels_are_named_in_file_order():
    # both orders of the rules make one frozenset, so only the file order
    # can tell the two messages apart
    raw = unknown_label_rules_json()
    with pytest.raises(FusionDataError, match="unknown label 'w'"):
        category_from_json(raw)
    raw["fusion"][-3:] = reversed(raw["fusion"][-3:])
    with pytest.raises(FusionDataError, match="unknown label 'y'"):
        category_from_json(raw)


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


# --- sparse kernel against the dense reference -----------------------------
#
# The dense bodies below are the block-matrix kernel the sparse rows
# replaced: compose through la.mat_mul on dense blocks, and the tensor
# product and structural maps filled entry by entry into dense matrices.


def _dense_compose(g, f):
    field = f.dom.spec.field
    mid = f.cod
    blocks = {}
    for lab in f.dom.spec.labels:
        dm, mm, cm = f.dom.m(lab), mid.m(lab), g.cod.m(lab)
        if dm == 0 or cm == 0:
            continue
        if mm == 0:
            blocks[lab] = zeros(field, cm, dm)
        else:
            blocks[lab] = la.mat_mul(g.block(lab), f.block(lab), field, cm, mm, dm)
    return Mor(f.dom, g.cod, blocks)


def _dense_tensor_mor(f, g):
    spec = f.dom.spec
    dom = tensor_obj(f.dom, g.dom)
    cod = tensor_obj(f.cod, g.cod)
    dom_pairs = pair_channels(f.dom, g.dom)
    cod_pairs = pair_channels(f.cod, g.cod)
    blocks = {}
    for lab, cols in dom_pairs.items():
        rows = cod_pairs.get(lab)
        if not rows:
            continue
        blk = zeros(spec.field, len(rows), len(cols))
        for cidx, (a, i, b, j) in enumerate(cols):
            fa = f.block(a)
            gb = g.block(b)
            for ridx, (a2, i2, b2, j2) in enumerate(rows):
                if a2 != a or b2 != b:
                    continue
                left = fa[i2][i]
                if left.is_zero():
                    continue
                right = gb[j2][j]
                if right.is_zero():
                    continue
                blk[ridx][cidx] = left * right
        blocks[lab] = blk
    return Mor(dom, cod, blocks)


def _dense_associator(x, y, z):
    spec = x.spec
    xy_pairs = pair_channels(x, y)
    yz_pairs = pair_channels(y, z)
    xy, yz = tensor_obj(x, y), tensor_obj(y, z)
    dom_pairs = pair_channels(xy, z)
    cod_pairs = pair_channels(x, yz)
    blocks = {}
    for d, cols in dom_pairs.items():
        rows = cod_pairs.get(d)
        if not rows:
            continue
        row_index = {}
        for ridx, (a, i, fch, k) in enumerate(rows):
            b, j, c, l = yz_pairs[fch][k]
            row_index[(a, i, b, j, c, l, fch)] = ridx
        blk = zeros(spec.field, len(rows), len(cols))
        for cidx, (ech, k, c, l) in enumerate(cols):
            a, i, b, j = xy_pairs[ech][k]
            for fch in spec.channels(b, c):
                if not spec.admissible(a, fch, d):
                    continue
                ridx = row_index[(a, i, b, j, c, l, fch)]
                blk[ridx][cidx] = spec.f_symbol(a, b, c, d, ech, fch)
        blocks[d] = blk
    return Mor(tensor_obj(xy, z), tensor_obj(x, yz), blocks)


def _dense_associator_inv(x, y, z):
    spec = x.spec
    xy_pairs = pair_channels(x, y)
    yz_pairs = pair_channels(y, z)
    xy, yz = tensor_obj(x, y), tensor_obj(y, z)
    dom_pairs = pair_channels(x, yz)
    cod_pairs = pair_channels(xy, z)
    blocks = {}
    for d, cols in dom_pairs.items():
        rows = cod_pairs.get(d)
        if not rows:
            continue
        row_index = {}
        for ridx, (ech, k, c, l) in enumerate(rows):
            a, i, b, j = xy_pairs[ech][k]
            row_index[(a, i, b, j, c, l, ech)] = ridx
        blk = zeros(spec.field, len(rows), len(cols))
        for cidx, (a, i, fch, k) in enumerate(cols):
            b, j, c, l = yz_pairs[fch][k]
            e_list, f_list, inv = _f_matrix_inverse(spec, a, b, c, d)
            inv = to_dense(inv, len(e_list), spec.field)
            fpos = f_list.index(fch)
            for epos, ech in enumerate(e_list):
                val = inv[fpos][epos]
                if val.is_zero():
                    continue
                ridx = row_index[(a, i, b, j, c, l, ech)]
                blk[ridx][cidx] = val
        blocks[d] = blk
    return Mor(tensor_obj(x, yz), tensor_obj(xy, z), blocks)


def _dense_braiding(x, y):
    spec = x.spec
    dom_pairs = pair_channels(x, y)
    cod_pairs = pair_channels(y, x)
    blocks = {}
    for c, cols in dom_pairs.items():
        rows = cod_pairs.get(c)
        if not rows:
            continue
        row_index = {key: ridx for ridx, key in enumerate(rows)}
        blk = zeros(spec.field, len(rows), len(cols))
        for cidx, (a, i, b, j) in enumerate(cols):
            ridx = row_index[(b, j, a, i)]
            blk[ridx][cidx] = spec.r_symbol(a, b, c)
        blocks[c] = blk
    return Mor(tensor_obj(x, y), tensor_obj(y, x), blocks)


def nnz(f):
    return sum(len(row) for rows in f.rows.values() for row in rows)


def assert_same(got, want):
    assert got == want
    assert got.to_json() == want.to_json()


def scalars(field):
    """Field elements with zero drawn often, so rows and blocks vanish."""
    parts = [st.just(Scalar.zero(field)), st.integers(-3, 3).map(lambda k: Scalar.from_int(field, k))]
    if field.kind == "cyclotomic":
        parts.append(st.integers(0, field.n - 1).map(lambda k: zeta(field, k)))
    return st.one_of(*parts)


@st.composite
def objects(draw, spec, max_mult=2):
    return Obj(spec, {lab: draw(st.integers(0, max_mult)) for lab in spec.labels})


@st.composite
def morphisms(draw, dom, cod):
    """Dense blocks per shared label: random, all zero, random with a zero
    row, or left out (zero by default)."""
    spec = dom.spec
    zero = Scalar.zero(spec.field)
    entries = scalars(spec.field)
    blocks = {}
    for lab in spec.labels:
        dm, cm = dom.m(lab), cod.m(lab)
        if not (dm and cm):
            continue
        kind = draw(st.sampled_from(["random", "zero-block", "zero-row", "left-out"]))
        if kind == "left-out":
            continue
        if kind == "zero-block":
            blocks[lab] = [[zero] * dm for _ in range(cm)]
            continue
        blk = [[draw(entries) for _ in range(dm)] for _ in range(cm)]
        if kind == "zero-row":
            blk[draw(st.integers(0, cm - 1))] = [zero] * dm
        blocks[lab] = blk
    return Mor(dom, cod, blocks)


KERNEL_SETTINGS = settings(max_examples=60, deadline=None)
categories = st.sampled_from(ALL_CATEGORIES).map(cat)


@KERNEL_SETTINGS
@given(st.data())
def test_sparse_compose_matches_dense(data):
    spec = data.draw(categories)
    X, Y, Z = (data.draw(objects(spec)) for _ in range(3))
    f = data.draw(morphisms(X, Y))
    g = data.draw(morphisms(Y, Z))
    assert_same(compose(g, f), _dense_compose(g, f))


@KERNEL_SETTINGS
@given(st.data())
def test_sparse_tensor_mor_matches_dense(data):
    spec = data.draw(categories)
    X, Y, X2, Y2 = (data.draw(objects(spec)) for _ in range(4))
    f = data.draw(morphisms(X, X2))
    g = data.draw(morphisms(Y, Y2))
    assert_same(tensor_mor(f, g), _dense_tensor_mor(f, g))


@st.composite
def legs(draw, spec):
    """A morphism between drawn objects, or the identity of one: whiskers
    and general tensor legs alike."""
    X = draw(objects(spec))
    if draw(st.booleans()):
        return Mor.identity(X)
    return draw(morphisms(X, draw(objects(spec))))


@KERNEL_SETTINGS
@given(st.data())
def test_fused_tensor_and_compose_match_the_materialized_tensor(data):
    # the reference builds f (x) g in full, then composes
    spec = data.draw(categories)
    f, g = data.draw(legs(spec)), data.draw(legs(spec))
    fg = _rebuilt_tensor_mor(f, g)
    h = data.draw(morphisms(fg.cod, data.draw(objects(spec))))
    assert_same(compose_tensor(h, f, g), compose(h, fg))
    k = data.draw(morphisms(data.draw(objects(spec)), fg.dom))
    assert_same(tensor_compose(f, g, k), compose(fg, k))


@pytest.mark.parametrize("name", ALL_CATEGORIES)
def test_fused_tensor_and_compose_match_on_seeded_inputs(name):
    # every label copied twice on one side at least, so copies, steps and
    # cancelling sums all occur
    spec = cat(name)
    rng = random.Random("fused " + name)
    for _ in range(8):
        X, Y, X2, Y2, Z = (rand_obj(rng, spec) for _ in range(5))
        X = Obj(spec, {lab: max(X.m(lab), 1) + 1 for lab in spec.labels})
        f = Mor.identity(X) if rng.random() < 0.3 else rand_mor(rng, X, X2)
        g = Mor.identity(Y) if rng.random() < 0.3 else rand_mor(rng, Y, Y2)
        fg = _rebuilt_tensor_mor(f, g)
        h, k = rand_mor(rng, fg.cod, Z), rand_mor(rng, Z, fg.dom)
        assert_same(compose_tensor(h, f, g), compose(h, fg))
        assert_same(tensor_compose(f, g, k), compose(fg, k))


@pytest.mark.parametrize("fused", ["compose_tensor", "tensor_compose"])
def test_fused_tensor_and_compose_refuse_as_compose_does(fused):
    spec, other = cat("ising"), cat("fibonacci")
    x, y = Obj.simple(spec, "sigma"), Obj.simple(spec, "psi")
    f, g = Mor.identity(x), Mor.identity(y)

    def run(h, f, g):
        return compose_tensor(h, f, g) if fused == "compose_tensor" else tensor_compose(f, g, h)

    def reference(h, f, g):
        return compose(h, tensor_mor(f, g)) if fused == "compose_tensor" else compose(tensor_mor(f, g), h)

    # h meets the wrong object, then comes from another category, then so does g
    for h, f2, g2, error in [
        (Mor.identity(tensor_obj(x, x)), f, g, DomainMismatch),
        (Mor.identity(Obj.simple(other, "tau")), f, g, CategoryMismatch),
        (Mor.identity(tensor_obj(x, y)), f, Mor.identity(Obj.simple(other, "tau")), CategoryMismatch),
    ]:
        with pytest.raises(error):
            reference(h, f2, g2)
        with pytest.raises(error):
            run(h, f2, g2)


@KERNEL_SETTINGS
@given(st.data())
def test_sparse_structural_maps_match_dense(data):
    spec = data.draw(categories)
    X, Y, Z = (data.draw(objects(spec, 1)) for _ in range(3))
    assert_same(associator(X, Y, Z), _dense_associator(X, Y, Z))
    assert_same(associator_inv(X, Y, Z), _dense_associator_inv(X, Y, Z))
    assert_same(braiding(X, Y), _dense_braiding(X, Y))


@KERNEL_SETTINGS
@given(st.data())
def test_sparse_linear_ops_match_dense(data):
    spec = data.draw(categories)
    X, Y = data.draw(objects(spec)), data.draw(objects(spec))
    f, g = data.draw(morphisms(X, Y)), data.draw(morphisms(X, Y))
    c = data.draw(scalars(spec.field))
    ops = {
        "add": (f + g, lambda x, y: x + y),
        "sub": (f - g, lambda x, y: x - y),
        "scale": (f.scale(c), lambda x, y: c * x),
        "neg": (-f, lambda x, y: -x),
    }
    for name, (got, entry) in ops.items():
        want = Mor(X, Y, {
            lab: [[entry(x, y) for x, y in zip(fr, gr)] for fr, gr in zip(f.block(lab), g.block(lab))]
            for lab in X.labels_present()
            if Y.m(lab)
        })
        assert_same(got, want)
    assert f.is_zero() == all(x.is_zero() for lab in spec.labels for row in f.block(lab) for x in row)
    assert (f - f).is_zero()


@KERNEL_SETTINGS
@given(st.data())
def test_dense_blocks_with_zeros_equal_sparse_rows(data):
    spec = data.draw(categories)
    X, Y = data.draw(objects(spec)), data.draw(objects(spec))
    f = data.draw(morphisms(X, Y))
    dense = {lab: f.block(lab) for lab in X.labels_present() if Y.m(lab)}
    rows = {
        lab: [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in blk]
        for lab, blk in dense.items()
    }
    sparse = Mor.from_rows(X, Y, rows)
    assert_same(Mor(X, Y, dense), sparse)
    assert_same(f, sparse)
    for lab in spec.labels:
        assert sparse.block(lab) == f.block(lab)


def _small_objects(spec, rng, count):
    """Objects with one or two simple summands, multiplicities 1 or 2."""
    out = []
    for _ in range(count):
        labs = rng.sample(list(spec.labels), min(len(spec.labels), rng.randint(1, 2)))
        out.append(Obj(spec, {lab: rng.randint(1, 2) for lab in labs}))
    return out


@pytest.mark.parametrize("name", ALL_CATEGORIES)
def test_sparse_kernel_matches_dense_on_bundled_categories(name):
    spec = cat(name)
    rng = random.Random(name)
    for _ in range(6):
        X, Y, Z = _small_objects(spec, rng, 3)
        assert_same(associator(X, Y, Z), _dense_associator(X, Y, Z))
        assert_same(associator_inv(X, Y, Z), _dense_associator_inv(X, Y, Z))
        assert_same(braiding(X, Y), _dense_braiding(X, Y))
        f, g = rand_mor(rng, X, Y), rand_mor(rng, Y, Z)
        assert_same(compose(g, f), _dense_compose(g, f))
        assert_same(tensor_mor(f, g), _dense_tensor_mor(f, g))
        alpha, alpha_inv = associator(X, Y, Z), associator_inv(X, Y, Z)
        assert_same(compose(alpha_inv, alpha), _dense_compose(alpha_inv, alpha))
        fgh = tensor_mor(tensor_mor(f, g), rand_mor(rng, Z, X))
        assert_same(compose(fgh, alpha_inv), _dense_compose(fgh, alpha_inv))


def _rebuilt_tensor_mor(f, g):
    """Reference tensor_mor that rebuilds its column index on every call."""
    dom_pairs = pair_channels(f.dom, g.dom)
    rows = {}
    for lab, keys in pair_channels(f.cod, g.cod).items():
        if lab not in dom_pairs:
            continue
        cols = {key: t for t, key in enumerate(dom_pairs[lab])}
        rows[lab] = out = []
        for a, i2, b, j2 in keys:
            fa, gb = f.rows.get(a), g.rows.get(b)
            if fa is None or gb is None:
                out.append({})
                continue
            grow = gb[j2]
            out.append({cols[(a, i, b, j)]: x * y for i, x in fa[i2].items() for j, y in grow.items()})
    return Mor.from_rows(tensor_obj(f.dom, g.dom), tensor_obj(f.cod, g.cod), rows)


@pytest.mark.parametrize("name", ALL_CATEGORIES)
def test_tensor_plan_is_shared_and_matches_rebuilt_index(name):
    spec = cat(name)
    rng = random.Random("plan " + name)
    for _ in range(6):
        X, Y = _small_objects(spec, rng, 2)
        assert tensor_obj(X, Y) is tensor_obj(X, Y)
        assert tensor_obj(X, Y) == Obj(spec, {lab: len(r) for lab, r in pair_channels(X, Y).items()})
        f, g = rand_mor(rng, X, X), rand_mor(rng, Y, Y)
        assert_same(tensor_mor(f, g), _rebuilt_tensor_mor(f, g))
        assert_same(tensor_mor(g, f), _rebuilt_tensor_mor(g, f))


# --- offset placement against the tuple-keyed structural maps --------------
#
# The bodies below are the sparse structural maps that located each entry
# by looking up a summand tuple in a dict of the row or column table;
# ``_rebuilt_tensor_mor`` above is the tensor product of that design.


def _tuple_associator(x, y, z):
    spec = x.spec
    xy_pairs, yz_pairs = pair_channels(x, y), pair_channels(y, z)
    xy, yz = tensor_obj(x, y), tensor_obj(y, z)
    dom_pairs, cod_pairs = pair_channels(xy, z), pair_channels(x, yz)
    blocks = {}
    for d, cols in dom_pairs.items():
        rows = cod_pairs.get(d)
        if not rows:
            continue
        row_index = {}
        for ridx, (a, i, fch, k) in enumerate(rows):
            b, j, c, l = yz_pairs[fch][k]
            row_index[(a, i, b, j, c, l, fch)] = ridx
        blk = [{} for _ in rows]
        for cidx, (ech, k, c, l) in enumerate(cols):
            a, i, b, j = xy_pairs[ech][k]
            for fch in spec.channels(b, c):
                if spec.admissible(a, fch, d):
                    blk[row_index[(a, i, b, j, c, l, fch)]][cidx] = spec.f_symbol(a, b, c, d, ech, fch)
        blocks[d] = blk
    return Mor.from_rows(tensor_obj(xy, z), tensor_obj(x, yz), blocks)


def _tuple_associator_inv(x, y, z):
    spec = x.spec
    xy_pairs, yz_pairs = pair_channels(x, y), pair_channels(y, z)
    xy, yz = tensor_obj(x, y), tensor_obj(y, z)
    dom_pairs, cod_pairs = pair_channels(x, yz), pair_channels(xy, z)
    blocks = {}
    for d, cols in dom_pairs.items():
        rows = cod_pairs.get(d)
        if not rows:
            continue
        row_index = {}
        for ridx, (ech, k, c, l) in enumerate(rows):
            a, i, b, j = xy_pairs[ech][k]
            row_index[(a, i, b, j, c, l, ech)] = ridx
        blk = [{} for _ in rows]
        for cidx, (a, i, fch, k) in enumerate(cols):
            b, j, c, l = yz_pairs[fch][k]
            e_list, f_list, inv = _f_matrix_inverse(spec, a, b, c, d)
            inv = to_dense(inv, len(e_list), spec.field)
            for epos, ech in enumerate(e_list):
                val = inv[f_list.index(fch)][epos]
                if not val.is_zero():
                    blk[row_index[(a, i, b, j, c, l, ech)]][cidx] = val
        blocks[d] = blk
    return Mor.from_rows(tensor_obj(x, yz), tensor_obj(xy, z), blocks)


def _tuple_braiding(x, y):
    spec = x.spec
    dom_pairs, cod_pairs = pair_channels(x, y), pair_channels(y, x)
    blocks = {}
    for c, cols in dom_pairs.items():
        rows = cod_pairs.get(c)
        if not rows:
            continue
        row_index = {key: ridx for ridx, key in enumerate(rows)}
        blk = [{} for _ in rows]
        for cidx, (a, i, b, j) in enumerate(cols):
            blk[row_index[(b, j, a, i)]][cidx] = spec.r_symbol(a, b, c)
        blocks[c] = blk
    return Mor.from_rows(tensor_obj(x, y), tensor_obj(y, x), blocks)


def _assert_offsets_match_tuples(f, g, x, y, z):
    # identities carry the field's shared one, which costs no product
    for left, right in [(f, g), (g, f), (Mor.identity(x), g), (f, Mor.identity(y))]:
        assert_same(tensor_mor(left, right), _rebuilt_tensor_mor(left, right))
    assert_same(associator(x, y, z), _tuple_associator(x, y, z))
    assert_same(associator_inv(x, y, z), _tuple_associator_inv(x, y, z))
    assert_same(braiding(x, y), _tuple_braiding(x, y))
    assert_same(braiding(y, z), _tuple_braiding(y, z))


@KERNEL_SETTINGS
@given(st.data())
def test_offset_structural_maps_match_tuple_keyed(data):
    # multiplicities 0-3 give zero objects and labels carried by only one
    # endpoint; f and g run between different objects, so blocks are not square
    spec = data.draw(categories)
    X, Y, Z, X2, Y2 = (data.draw(objects(spec, 3)) for _ in range(5))
    f, g = data.draw(morphisms(X, X2)), data.draw(morphisms(Y, Y2))
    _assert_offsets_match_tuples(f, g, X, Y, Z)


@pytest.mark.parametrize("name", ALL_CATEGORIES)
def test_offset_structural_maps_on_zero_and_one_sided_objects(name):
    spec = cat(name)
    rng = random.Random("one-sided " + name)
    zero, first, rest = Obj(spec, {}), spec.labels[0], spec.labels[1:] or spec.labels
    X = Obj(spec, {first: 2})
    Y = Obj(spec, {lab: rng.randint(1, 3) for lab in rest})
    XY = Obj(spec, {lab: X.m(lab) + Y.m(lab) for lab in spec.labels})
    for dom, cod, other in [(zero, X, Y), (X, zero, Y), (X, Y, XY), (XY, Y, X), (Y, XY, zero)]:
        f, g = rand_mor(rng, dom, cod), rand_mor(rng, cod, other)
        _assert_offsets_match_tuples(f, g, dom, cod, other)


@pytest.mark.parametrize("name", ALL_CATEGORIES)
def test_tensor_plan_holds_one_offset_pair_per_fusion_triple(name):
    spec = cat(name)
    rng = random.Random("offsets " + name)
    for _ in range(6):
        X, Y = rand_obj(rng, spec, 3), rand_obj(rng, spec, 3)
        table, product, offsets = category._tensor_plan(X, Y)
        triples = {(a, b, c) for a in X.labels_present() for b in Y.labels_present() for c in spec.channels(a, b)}
        assert {(a, b, c) for c, pairs in offsets.items() for a, b in pairs} == triples
        assert sum(len(pairs) for pairs in offsets.values()) == len(triples)
        for c, pairs in offsets.items():
            assert all(isinstance(v, int) for pair in pairs.values() for v in pair)
            for (a, b), (base, step) in pairs.items():
                for i in range(X.m(a)):
                    for j in range(Y.m(b)):
                        assert table[c][base + i * step + j] == (a, i, b, j)
        assert product.mult == {c: len(rows) for c, rows in table.items()}


# --- work counts: the sparse kernel multiplies nonzeros only ----------------


@pytest.fixture
def scalar_ops(monkeypatch):
    counts = Counter()
    mul, is_zero = Scalar.__mul__, Scalar.is_zero

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_is_zero(self):
        counts["is_zero"] += 1
        return is_zero(self)

    monkeypatch.setattr(Scalar, "__mul__", counted_mul)
    monkeypatch.setattr(Scalar, "is_zero", counted_is_zero)
    return counts


def _z6_over_q():
    spec = cat("vec_q")
    group = Group("z6", list(range(6)), [[(i + j) % 6 for j in range(6)] for i in range(6)])
    return spec, group_algebra(group, spec)


def test_associator_round_trip_does_nnz_work(scalar_ops):
    spec, alg = _z6_over_q()
    A = alg.carrier
    alpha, alpha_inv = associator(A, A, A), associator_inv(A, A, A)
    assert nnz(alpha) == 216
    scalar_ops.clear()
    out = compose(alpha_inv, alpha)
    # both kernels multiply only nonzero pairs; the dense one also tests
    # every entry for zero, which is what the is_zero bound catches
    assert scalar_ops["mul"] <= nnz(alpha)
    assert scalar_ops["is_zero"] <= nnz(alpha)
    assert out == Mor.identity(alpha.dom)
    scalar_ops.clear()
    _dense_compose(alpha_inv, alpha)
    assert scalar_ops["is_zero"] > 100 * nnz(alpha)


def test_identity_factor_costs_no_products(scalar_ops):
    spec, alg = _z6_over_q()
    A = alg.carrier
    ident, mult = Mor.identity(A), alg.mult_map
    AA = tensor_obj(A, A)
    scalar_ops.clear()
    left, right = tensor_mor(ident, mult), tensor_mor(mult, ident)
    out = compose(mult, compose(tensor_mor(ident, mult), Mor.identity(tensor_obj(A, AA))))
    assert scalar_ops["mul"] == 0
    assert left == _dense_tensor_mor(ident, mult) and right == _dense_tensor_mor(mult, ident)
    assert out == _dense_compose(mult, _dense_tensor_mor(ident, mult))


def test_tensor_with_copairing_does_nnz_work(scalar_ops):
    spec, alg = _z6_over_q()
    A = alg.carrier
    coev = solve_coevaluation(alg, make_counit(alg))
    ident = Mor.identity(A)
    bound = nnz(coev) * nnz(ident)
    assert bound == 36
    scalar_ops.clear()
    out = tensor_mor(coev, ident)
    assert scalar_ops["mul"] <= bound
    assert scalar_ops["is_zero"] <= bound
    assert nnz(out) == bound
    scalar_ops.clear()
    _dense_tensor_mor(coev, ident)
    assert scalar_ops["is_zero"] > bound
