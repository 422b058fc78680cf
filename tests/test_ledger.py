"""Dimension ledger: elimination, failure modes, the bundled instance."""

import random
from fractions import Fraction

import pytest

from ctc import data_path
from ctc.fields import FieldSpec, ParseError, Scalar
from ctc.ledger import (
    Inconsistent,
    LedgerProblem,
    Underdetermined,
    ledger_from_json,
    load_ledger,
    solve_dims,
    solution_report,
)

Q = FieldSpec.rational()


def qs(v):
    return Scalar.from_fraction(Q, Fraction(v))


def problem(symbols, relations, knowns=None, projectives=()):
    rels = [
        (lhs, rhs, "relation %d (%s = ...)" % (k, lhs))
        for k, (lhs, rhs) in enumerate(relations)
    ]
    return LedgerProblem(
        "test", symbols, rels, {s: qs(v) for s, v in (knowns or {}).items()}, list(projectives)
    )


def test_single_relation_with_known_unit():
    p = problem(["V", "U"], [("V", {"U": 1})], knowns={"U": 1})
    assert solve_dims(p) == {"V": qs(1), "U": qs(1)}


def test_bundled_instance_dim_v_is_zero():
    p = load_ledger(data_path("ledger/wp_triplet.json"))
    values = solve_dims(p)
    assert values["V"] == qs(0)
    assert values["X"] == qs(-1)
    assert values["W"] == qs(1)
    assert values["P"] == qs(0)


def test_solution_satisfies_every_relation():
    p = load_ledger(data_path("ledger/wp_triplet.json"))
    values = solve_dims(p)
    for lhs, rhs, _src in p.relations:
        acc = Scalar.zero(Q)
        for sym, k in rhs.items():
            acc = acc + values[sym] * Scalar.from_int(Q, k)
        assert values[lhs] == acc


def test_redundant_relation_changes_nothing():
    base = load_ledger(data_path("ledger/wp_triplet.json"))
    values = solve_dims(base)
    # V + P = 3W + 3X is the sum of the two bundled relations
    extra = base.relations + [("V", {"W": 3, "X": 3, "P": -1}, "extra")]
    again = LedgerProblem(base.name, base.symbols, extra, base.knowns, base.projectives)
    assert solve_dims(again) == values


def test_projective_equivalent_to_known_zero():
    rels = [("V", {"W": 1, "X": 1}), ("P", {"W": 2, "X": 2})]
    a = problem(["W", "X", "V", "P"], rels, knowns={"W": 1}, projectives=["P"])
    b = problem(["W", "X", "V", "P"], rels, knowns={"W": 1, "P": 0})
    assert solve_dims(a) == solve_dims(b)


def test_contradictory_knowns_report_first_bad_line():
    # relations force X = Y = 0, so the known X = 1 is the line that breaks
    bad = LedgerProblem(
        "test",
        ["X", "Y"],
        [("Y", {"X": 1}, "relation 0 (Y = ...)"), ("Y", {"X": 2}, "relation 1 (Y = ...)")],
        {"X": qs(1)},
        [],
    )
    with pytest.raises(Inconsistent) as exc:
        solve_dims(bad)
    assert exc.value.source == "known X"


def test_inconsistent_projective_flagged():
    p = problem(["X"], [], knowns={"X": 2}, projectives=["X"])
    with pytest.raises(Inconsistent) as exc:
        solve_dims(p)
    assert exc.value.source == "projective X"


def test_underdetermined_lists_free_symbols():
    p = problem(["A", "B", "C"], [("A", {"B": 1})], knowns={})
    with pytest.raises(Underdetermined) as exc:
        solve_dims(p)
    assert exc.value.free == ["B", "C"]
    p2 = problem(["A", "B"], [("A", {"B": 1})], knowns={"B": 5})
    assert solve_dims(p2)["A"] == qs(5)


def test_unknown_symbol_rejected():
    with pytest.raises(ParseError):
        problem(["A"], [("A", {"Z": 1})])
    with pytest.raises(ParseError):
        problem(["A", "A"], [])
    with pytest.raises(ParseError):
        ledger_from_json({"symbols": ["A"], "relations": [{"lhs": "A"}]})
    with pytest.raises(ParseError):
        ledger_from_json({"symbols": ["A"]})


def test_problem_defaults_to_q_and_checks_knowns_and_projectives():
    assert problem(["A"], []).field is FieldSpec.rational()
    with pytest.raises(ParseError, match="unknown symbol 'Z'"):
        problem(["A"], [], knowns={"Z": 1})
    with pytest.raises(ParseError, match="unknown symbol 'Z'"):
        problem(["A"], [], projectives=["Z"])


def test_solution_report_shapes():
    p = load_ledger(data_path("ledger/wp_triplet.json"))
    rep = solution_report(p)
    assert rep.ok
    got = {i.check: i.witness for i in rep.items}
    assert got["dim:V"] == "0"
    bad = problem(["X"], [], knowns={"X": 2}, projectives=["X"])
    rep2 = solution_report(bad)
    assert not rep2.ok
    assert rep2.items[0].witness == "projective X"


# ---------------------------------------------------------------------------
# reference: the dense incremental elimination the kernel replaced


def reference_solve_dims(problem):
    field = problem.field
    index = {s: i for i, s in enumerate(problem.symbols)}
    n = len(problem.symbols)
    zero, one = Scalar.zero(field), Scalar.one(field)
    rows = []  # (pivot_col, coeffs, rhs) with coeffs[pivot] == 1

    def reduce_and_insert(coeffs, rhs, source):
        for pivot, pcoeffs, prhs in rows:
            c = coeffs[pivot]
            if c.is_zero():
                continue
            coeffs = [a - c * b for a, b in zip(coeffs, pcoeffs)]
            rhs = rhs - c * prhs
        lead = next((j for j in range(n) if not coeffs[j].is_zero()), None)
        if lead is None:
            if not rhs.is_zero():
                raise Inconsistent(source)
            return
        inv = coeffs[lead].inverse()
        coeffs = [a * inv for a in coeffs]
        rhs = rhs * inv
        for k, (pivot, pcoeffs, prhs) in enumerate(rows):
            c = pcoeffs[lead]
            if not c.is_zero():
                rows[k] = (pivot, [a - c * b for a, b in zip(pcoeffs, coeffs)], prhs - c * rhs)
        rows.append((lead, coeffs, rhs))

    for lhs, rhs_terms, source in problem.relations:
        coeffs = [zero] * n
        coeffs[index[lhs]] = one
        for sym, k in rhs_terms.items():
            coeffs[index[sym]] = coeffs[index[sym]] - Scalar.from_int(field, k)
        reduce_and_insert(coeffs, zero, source)
    for sym, value in problem.knowns.items():
        coeffs = [zero] * n
        coeffs[index[sym]] = one
        reduce_and_insert(coeffs, value, "known %s" % sym)
    for sym in problem.projectives:
        coeffs = [zero] * n
        coeffs[index[sym]] = one
        reduce_and_insert(coeffs, zero, "projective %s" % sym)
    pivots = {pivot for pivot, _c, _r in rows}
    free = [s for s in problem.symbols if index[s] not in pivots]
    if free:
        raise Underdetermined(free)
    values = [zero] * n
    for pivot, _coeffs, rhs in rows:
        values[pivot] = rhs
    return {s: values[index[s]] for s in problem.symbols}


def _outcome(solver, p):
    try:
        return "solved", solver(p)
    except Inconsistent as exc:
        return "inconsistent", exc.source
    except Underdetermined as exc:
        return "underdetermined", exc.free


def random_problem(rng):
    symbols = ["S%d" % k for k in range(rng.randint(1, 5))]
    relations = []
    for _ in range(rng.randint(0, 4)):
        lhs = rng.choice(symbols)
        others = rng.sample(symbols, rng.randint(0, len(symbols)))
        relations.append((lhs, {s: rng.randint(-2, 2) for s in others}))
    knowns = {s: rng.randint(-2, 2) for s in rng.sample(symbols, rng.randint(0, len(symbols)))}
    projectives = rng.sample(symbols, rng.randint(0, 1))
    return problem(symbols, relations, knowns, projectives)


def test_solve_dims_matches_dense_reference():
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(400):
        p = random_problem(rng)
        got = _outcome(solve_dims, p)
        assert got == _outcome(reference_solve_dims, p)
        kinds.add(got[0])
    assert kinds == {"solved", "inconsistent", "underdetermined"}
