"""Acceptance gate: eight exact-arithmetic criteria with runtime bounds.

Each test prints a single criterion verdict line (visible even under
capture) and enforces its time budget after the exact checks pass.
"""

import itertools
import json
import time
from contextlib import contextmanager

import pytest

from ctc import data_path
from ctc.algebra import (
    algebra_dim_with_twist,
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
    compose,
    load_category,
    tensor_mor,
    verify_hexagon,
    verify_pentagon,
)
from ctc.cli import main
from ctc.fields import Scalar
from ctc.ledger import load_ledger, solve_dims
from ctc.modules import (
    IndexZero,
    condense,
    hom_A,
    induce,
    is_local,
    is_semisimple_module,
    maschke_section,
    projector_pi,
    regular_module,
)
from test_modules import theorem_suite

ALL_CATEGORIES = [
    "vec_q",
    "vec_f2",
    "vec_f3",
    "pointed_z4",
    "toric_code",
    "ising",
    "fibonacci",
]


def cat(name):
    return load_category(data_path("categories/%s.json" % name))


def galg(cat_name, group_name):
    return group_algebra(load_group(data_path("groups/%s.json" % group_name)), cat(cat_name))


@contextmanager
def criterion(capture, num, bound, label):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        dt = time.perf_counter() - t0
        with capture.disabled():
            print("criterion %d: FAIL (%.2fs) %s" % (num, dt, label))
        raise
    dt = time.perf_counter() - t0
    with capture.disabled():
        print("criterion %d: pass (%.2fs) %s" % (num, dt, label))
    assert dt < bound, "criterion %d exceeded %.1fs budget: %.2fs" % (num, bound, dt)


def test_criterion_1_coherence(capsys):
    with criterion(capsys, 1, 5.0, "pentagon/hexagon/balancing on 7 categories + mutation detected"):
        for name in ALL_CATEGORIES:
            spec = cat(name)
            assert verify_pentagon(spec).ok, name
            assert verify_hexagon(spec).ok, name
        ising = cat("ising")
        flipped = dict(ising.F)
        key = ("sigma", "sigma", "sigma", "sigma", "1", "1")
        flipped[key] = -flipped[key]
        mutant = ising.mutated(F=flipped, name="ising-mutant")
        assert not verify_pentagon(mutant).ok


def test_criterion_2_maschke(capsys):
    with criterion(capsys, 2, 2.0, "index 2/3/6, all bundled surjections split, char-p failures witnessed"):
        for gname, want in (("z2", 2), ("z3", 3), ("s3", 6)):
            alg = galg("vec_q", gname)
            assert compute_index(alg) == Scalar.from_int(alg.spec.field, want)
        assert theorem_suite("maschke_2_6").ok
        for cname, gname in (("vec_f2", "z2"), ("vec_f3", "z3")):
            alg = galg(cname, gname)
            index = compute_index(alg)
            assert index.is_zero()
            reg = regular_module(alg)
            free = induce(alg, alg.carrier)
            sigma = tensor_mor(Mor.identity(alg.carrier), alg.unit_map)
            with pytest.raises(IndexZero):
                maschke_section(alg.mult_map, free, reg, sigma)
            ok, witness = is_semisimple_module(reg)
            assert not ok and witness is not None


def test_criterion_3_frobenius(capsys):
    with criterion(capsys, 3, 1.0, "comultiplication identities on all bundled algebras incl. index zero"):
        algebras = [
            load_algebra(data_path("algebras/alg_qz3.json")),
            load_algebra(data_path("algebras/alg_h02.json")),
            load_algebra(data_path("algebras/alg_toric_1e.json")),
            galg("vec_q", "z2"),
            galg("vec_q", "s3"),
            galg("vec_f2", "z2"),
            galg("vec_f3", "z3"),
        ]
        for alg in algebras:
            assert frobenius_identity_check(alg).ok, alg.name


def test_criterion_4_projector(capsys):
    with criterion(capsys, 4, 2.0, "projector idempotent, Id on local, 0 on m/f, natural on hom bases"):
        for aname in ("alg_h02", "alg_toric_1e"):
            alg = load_algebra(data_path("algebras/%s.json" % aname))
            spec = alg.spec
            mods = [induce(alg, Obj.simple(spec, s)) for s in spec.labels]
            pis = [projector_pi(m) for m in mods]
            for m, pi in zip(mods, pis):
                assert compose(pi, pi) == pi
                local, _ = is_local(m)
                if local:
                    assert pi == Mor.identity(m.carrier)
            if aname == "alg_toric_1e":
                for m, pi in zip(mods, pis):
                    if m.carrier.m("m") or m.carrier.m("f"):
                        assert pi.is_zero()
            for (m1, p1), (m2, p2) in itertools.product(zip(mods, pis), repeat=2):
                for h in hom_A(m1, m2):
                    assert compose(h, p1) == compose(p2, h)


def _structures_by_brute_force(spec, subgroup, max_total=4):
    """All simple module structures on label sums of total dim <= 4,
    from fusion and braiding data alone: a carrier admits a structure
    iff its multiplicities are constant on subgroup orbits, is simple
    iff it is one free orbit with multiplicity one, and is local iff
    the double-braiding scalar is 1 against the whole subgroup."""
    one = Scalar.one(spec.field)
    labels = list(spec.labels)

    def act(h, t):
        return spec.channels(h, t)[0]

    def monodromy_trivial(t):
        return all(
            spec.r_symbol(h, t, act(h, t)) * spec.r_symbol(t, h, act(t, h)) == one
            for h in subgroup
        )

    found = set()
    ranges = [range(max_total + 1)] * len(labels)
    for mult in itertools.product(*ranges):
        total = sum(mult)
        if not 0 < total <= max_total:
            continue
        vec = dict(zip(labels, mult))
        if any(vec[t] != vec[act(h, t)] for t in labels for h in subgroup):
            continue  # no module structure on this carrier
        support = [t for t in labels if vec[t]]
        orbits = {frozenset(act(h, s) for h in subgroup) for s in support}
        if len(orbits) != 1 or any(vec[t] != 1 for t in support):
            continue  # structure exists but is not simple
        orbit = next(iter(orbits))
        assert len(orbit) == len(subgroup), "free orbits only at this scale"
        found.add((orbit, all(monodromy_trivial(t) for t in orbit)))
    return found


def test_criterion_5_condensation(capsys):
    with criterion(capsys, 5, 10.0, "2 simple classes each, flags + index checked, brute-force oracle agrees"):
        z4 = cat("pointed_z4")
        toric = cat("toric_code")
        for spec, subgroup, want_local in (
            (z4, ["0", "2"], [True, True]),
            (toric, ["1", "e"], [True, False]),
        ):
            alg = subgroup_algebra(subgroup, spec)
            table = condense(alg)
            assert table.simple_class_count() == 2
            assert table.class_local == want_local
            for rep_mod in table.classes:
                ok, _ = is_semisimple_module(rep_mod)
                assert ok
            got = {
                (frozenset(m.carrier.labels_present()), loc)
                for m, loc in zip(table.classes, table.class_local)
            }
            assert got == _structures_by_brute_force(spec, subgroup)
        h02 = subgroup_algebra(["0", "2"], z4)
        two = Scalar.from_int(z4.field, 2)
        assert compute_index(h02) == two
        assert algebra_dim_with_twist(h02) == two


def test_criterion_6_dim_equals_index(capsys):
    with criterion(capsys, 6, 1.0, "twisted dimension equals index on trivially twisted algebras"):
        algebras = [
            load_algebra(data_path("algebras/alg_qz3.json")),
            load_algebra(data_path("algebras/alg_h02.json")),
            load_algebra(data_path("algebras/alg_toric_1e.json")),
            galg("vec_q", "z2"),
            galg("vec_q", "z3"),
            galg("vec_f2", "z2"),
            galg("vec_f3", "z3"),
        ]
        for alg in algebras:
            assert algebra_dim_with_twist(alg) == compute_index(alg), alg.name


def test_criterion_7_ledger(capsys):
    with criterion(capsys, 7, 0.1, "bundled composition-series instance solves to dim(V) = 0"):
        problem = load_ledger(data_path("ledger/wp_triplet.json"))
        values = solve_dims(problem)
        assert values["V"] == Scalar.zero(problem.field)


def test_criterion_8_determinism(capsysbinary):
    with criterion(capsysbinary, 8, 30.0, "full suite JSON byte-identical across runs and --jobs levels"):
        args = ["suite", "maschke_2_6", "local_3_1", "counterexamples", "--report", "json"]
        runs = []
        for extra in ([], [], ["--jobs", "4"]):
            code = main(args + extra)
            assert code == 0
            runs.append(capsysbinary.readouterr().out)
        assert runs[0] == runs[1] == runs[2]
