"""Dimension bookkeeping on a free abelian group of object symbols.

Dimensions are additive across exact sequences, so composition-series
data turns into linear relations between the dimensions of the symbols
involved.  A problem lists symbols, relations (a left-hand symbol equals
an integer combination of others), known values, and symbols declared
projective, whose dimension is forced to zero.  Solving feeds one
equation at a time to the incremental ``linalg.Echelon``, so an
inconsistency is reported against the first input line that produces it.
"""

from __future__ import annotations

from . import DataFile, check_fields, required, strings
from .fields import Error, FieldSpec, ParseError, Scalar, parse_scalar, scalar_literal
from .linalg import Echelon
from .report import Report

__all__ = [
    "LedgerError",
    "Inconsistent",
    "Underdetermined",
    "LedgerProblem",
    "solve_dims",
    "load_ledger",
    "ledger_from_json",
]


class LedgerError(Error):
    pass


class Inconsistent(LedgerError):
    def __init__(self, source: str):
        super().__init__("relations are inconsistent at %s" % source)
        self.source = source


class Underdetermined(LedgerError):
    def __init__(self, free: list):
        super().__init__("free symbols remain: %s" % ", ".join(free))
        self.free = list(free)


class LedgerProblem:
    __slots__ = ("name", "symbols", "relations", "knowns", "projectives")
    # dimensions are rational
    field = FieldSpec.rational()

    def __init__(
        self,
        name: str,
        symbols: list,
        relations: list,  # (lhs, {symbol: int_coeff}, source_tag)
        knowns: dict,  # symbol -> Scalar
        projectives: list,
    ):
        index = {s: i for i, s in enumerate(symbols)}
        if len(index) != len(symbols):
            raise ParseError("duplicate ledger symbols")
        for lhs, rhs, _src in relations:
            for sym in [lhs, *rhs]:
                if sym not in index:
                    raise ParseError("relation uses unknown symbol %r" % (sym,))
        for sym in list(knowns) + list(projectives):
            if sym not in index:
                raise ParseError("unknown symbol %r" % (sym,))
        self.name = name
        self.symbols = symbols
        self.relations = relations
        self.knowns = knowns
        self.projectives = projectives


def solve_dims(problem: LedgerProblem) -> dict:
    """Exact values for every symbol, or a typed failure.

    Equations are consumed in input order: each relation, then each
    known, then each projective-is-zero rule.  A row that reduces to
    0 = c with c nonzero raises Inconsistent naming its source; leftover
    freedom raises Underdetermined listing the free symbols.
    """
    field = problem.field
    index = {s: i for i, s in enumerate(problem.symbols)}
    n = len(problem.symbols)
    one = Scalar.one(field)
    # the right-hand side sits in column n, so a pivot there reads 0 = c
    ech = Echelon()

    def insert(coeffs, source):
        if ech.add(coeffs) == n:
            raise Inconsistent(source)

    for lhs, rhs_terms, source in problem.relations:
        coeffs = {index[lhs]: one}
        for sym, k in rhs_terms.items():
            j = index[sym]
            term = -Scalar.from_int(field, k)
            coeffs[j] = coeffs[j] + term if j in coeffs else term
        insert(coeffs, source)
    for sym, value in problem.knowns.items():
        insert({index[sym]: one, n: value}, "known %s" % sym)
    for sym in problem.projectives:
        insert({index[sym]: one}, "projective %s" % sym)

    rows = ech.reduced()
    pivots = {pivot for pivot, _row in rows}
    free = [s for s in problem.symbols if index[s] not in pivots]
    if free:
        raise Underdetermined(free)
    # with no free symbol each reduced row reads symbol = value
    zero = Scalar.zero(field)
    values = {pivot: row.get(n, zero) for pivot, row in rows}
    return {s: values[index[s]] for s in problem.symbols}


def ledger_from_json(raw: dict, name: str = "anonymous") -> LedgerProblem:
    symbols, raw_relations = required("ledger", raw, "symbols", "relations")
    raw_knowns = raw.get("knowns", {})
    projectives = raw.get("projectives", [])
    check_fields("ledger", [
        ("symbols", isinstance(symbols, list) and strings(symbols), "a list of symbols"),
        ("relations", isinstance(raw_relations, list), "a list of relations"),
        ("knowns", isinstance(raw_knowns, dict), "an object of scalar literals"),
        ("projectives", isinstance(projectives, list) and strings(projectives), "a list of symbols"),
    ])
    field = LedgerProblem.field
    relations = []
    for k, rel in enumerate(raw_relations):
        lhs, rhs = (rel.get("lhs"), rel.get("rhs")) if isinstance(rel, dict) else (None, None)
        # JSON integers only, so 1.5 or true is refused rather than read as 1
        if not (isinstance(lhs, str) and isinstance(rhs, dict) and all(type(c) is int for c in rhs.values())):
            raise ParseError("relation %d needs lhs and integer rhs terms" % k)
        relations.append((lhs, rhs, "relation %d (%s = ...)" % (k, lhs)))
    knowns = {sym: parse_scalar(lit, field) for sym, lit in raw_knowns.items()}
    return LedgerProblem(name, symbols, relations, knowns, projectives)


def load_ledger(ref) -> LedgerProblem:
    """A ledger by bundled name, path or ``DataFile`` already found, read
    on every call."""
    raw, name = (ref if isinstance(ref, DataFile) else DataFile("ledger", ref)).read()
    return ledger_from_json(raw, name=name)


def solution_report(problem: LedgerProblem):
    """Solve and phrase the outcome as report items; used by the runner."""
    report = Report()
    try:
        values = solve_dims(problem)
    except Inconsistent as exc:
        report.append("ledger:%s" % problem.name, "fail", witness=exc.source)
        return report
    except Underdetermined as exc:
        report.append("ledger:%s" % problem.name, "fail", witness={"free": exc.free})
        return report
    for sym in problem.symbols:
        report.append(
            "dim:%s" % sym, "pass", witness=scalar_literal(values[sym])
        )
    return report
