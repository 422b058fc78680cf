"""Exact linear algebra over Scalar matrices.

Every exact solve runs through one kernel, ``Echelon``: rows are sparse
``{col: Scalar}`` dicts of the nonzero entries, added one at a time and
reduced by the pivots already held; ``Echelon.reduced`` back-substitutes
once.  A row's pivot is its least nonzero column (exact fields need no
magnitude heuristics), and the reduced echelon form is unique, so every
echelon form, nullspace basis, solution and image factorization is
deterministic for a given input whatever order its rows arrive in.

Dense matrices, plain lists of row lists of Scalar, appear only at the
boundary: ``rref``, ``rank``, ``solve``, ``nullspace``, ``inverse`` and
``image_factorization`` take them and convert once.  ``sparse_mul``
multiplies sparse matrices.  ``mat_mul`` multiplies dense ones; nothing
in the engine calls it any more, but the tests' dense references and
the benchmark's layer counters still use it.
"""

from __future__ import annotations

from .fields import FieldSpec, Scalar

__all__ = [
    "zeros",
    "identity",
    "mat_mul",
    "sparse_mul",
    "Echelon",
    "rref",
    "rank",
    "solve",
    "nullspace",
    "inverse",
    "image_factorization",
    "SingularMatrix",
]


class SingularMatrix(Exception):
    pass


def zeros(field: FieldSpec, rows: int, cols: int):
    z = Scalar.zero(field)
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(field: FieldSpec, n: int):
    z = Scalar.zero(field)
    o = Scalar.one(field)
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_mul(a, b, field: FieldSpec, rows: int, inner: int, cols: int):
    """a (rows x inner) times b (inner x cols), skipping zero entries."""
    out = zeros(field, rows, cols)
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            x = arow[k]
            if x.is_zero():
                continue
            brow = b[k]
            for j in range(cols):
                y = brow[j]
                if not y.is_zero():
                    orow[j] = orow[j] + x * y
    return out


def sparse_mul(a, b):
    """Sparse a times sparse b, one product per pair of nonzero entries
    a[i][k], b[k][j], none where either is the field's shared one; a row
    only needs its zero sums dropped if two products met in one entry."""
    out, one = [], None
    for arow in a:
        acc = {}
        met = False
        for k, x in arow.items():
            if one is None:
                one = Scalar.one(x.field)
            for j, y in b[k].items():
                p = y if x is one else x if y is one else x * y
                v = acc.get(j)
                if v is None:
                    acc[j] = p
                else:
                    acc[j] = v + p
                    met = True
        if met:
            acc = {j: v for j, v in acc.items() if not v.is_zero()}
        out.append(acc)
    return out


class Echelon:
    """Incremental sparse row echelon form: the one elimination loop.

    ``rows`` holds ``(pivot, row)`` pairs in insertion order.  A row is a
    ``{col: Scalar}`` dict of nonzero entries; it is one at its pivot, its
    least column, and zero at the pivot of every row added before it.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []

    def add(self, row: dict):
        """Reduce a copy of ``row`` by the pivots held, in insertion order,
        and keep it normalised; its pivot, or None if it reduced to zero."""
        row = dict(row)
        for pivot, prow in self.rows:
            c = row.get(pivot)
            if c is None or c.is_zero():
                continue
            _axpy(row, -c, prow)
        row = {k: v for k, v in row.items() if not v.is_zero()}
        if not row:
            return None
        pivot = min(row)
        lead = row[pivot]
        if not lead.is_one():
            inv = lead.inverse()
            row = {k: inv * v for k, v in row.items()}
        self.rows.append((pivot, row))
        return pivot

    def reduced(self) -> list:
        """The reduced row echelon form, as ``(pivot, row)`` pairs by pivot.

        Back-substitutes once, from the last row up, so every row ends
        zero at every other pivot.  That form is unique, so it does not
        depend on the order the rows were added in.
        """
        rows = self.rows
        for j in range(len(rows) - 2, -1, -1):
            pivot, row = rows[j]
            hit = [(-row[p], prow) for p, prow in rows[j + 1 :] if p in row]
            if hit:
                row = dict(row)
                for c, prow in hit:
                    _axpy(row, c, prow)
                rows[j] = (pivot, {k: v for k, v in row.items() if not v.is_zero()})
        return sorted(rows, key=lambda pr: pr[0])

    def kernel(self, cols: int, field: FieldSpec) -> list:
        """Basis of {x : row . x = 0 for every row} on columns 0..cols-1,
        one sparse vector per free column c in order: x[c] = 1 and
        x[pivot] = -row[c]."""
        red = self.reduced()
        pivots = {p for p, _ in red}
        one = Scalar.one(field)
        out = []
        for c in range(cols):
            if c in pivots:
                continue
            v = {p: -row[c] for p, row in red if c in row}
            v[c] = one
            out.append(v)
        return out


def _axpy(row: dict, c: Scalar, prow: dict) -> None:
    """row += c * prow in place; entries that cancel stay as zeros."""
    for k, y in prow.items():
        v = row.get(k)
        row[k] = c * y if v is None else v + c * y


def _sparse(row, shift: int = 0) -> dict:
    return {shift + j: x for j, x in enumerate(row) if not x.is_zero()}


def _echelon(a) -> Echelon:
    ech = Echelon()
    for row in a:
        ech.add(_sparse(row))
    return ech


def _dense(row: dict, cols: int, zero: Scalar) -> list:
    out = [zero] * cols
    for j, x in row.items():
        out[j] = x
    return out


def rref(a, field: FieldSpec):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    cols = len(a[0]) if a else 0
    zero = Scalar.zero(field)
    red = _echelon(a).reduced()
    m = [_dense(row, cols, zero) for _p, row in red]
    m.extend([zero] * cols for _ in range(len(a) - len(red)))
    return m, [p for p, _row in red]


def rank(a, field: FieldSpec) -> int:
    return len(_echelon(a).rows)


def solve(a, b, field: FieldSpec, rows: int, cols: int, rhs_cols: int):
    """Particular solution X of A X = B with free variables set to zero.

    Returns None when the system is inconsistent: some row reduces to a
    pivot among B's columns.
    """
    ech = Echelon()
    for i in range(rows):
        row = _sparse(a[i])
        row.update(_sparse(b[i], cols))
        pivot = ech.add(row)
        if pivot is not None and pivot >= cols:
            return None
    x = zeros(field, cols, rhs_cols)
    for pivot, row in ech.reduced():
        for j, v in row.items():
            if j >= cols:
                x[pivot][j - cols] = v
    return x


def nullspace(a, field: FieldSpec, rows: int, cols: int):
    """Deterministic basis of the right nullspace, one vector per free column."""
    zero = Scalar.zero(field)
    return [_dense(v, cols, zero) for v in _echelon(a).kernel(cols, field)]


def inverse(a, field: FieldSpec, n: int):
    """Inverse of the n x n matrix a; raises SingularMatrix if there is none."""
    one, zero = Scalar.one(field), Scalar.zero(field)
    ech = Echelon()
    for i, arow in enumerate(a):
        row = _sparse(arow)
        row[n + i] = one
        if ech.add(row) >= n:
            raise SingularMatrix("matrix is not invertible")
    return [[row.get(n + j, zero) for j in range(n)] for _p, row in ech.reduced()]


def image_factorization(m, field: FieldSpec, rows: int, cols: int):
    """Factor M = U P with U a column-echelon basis of the column space.

    U is rows x r and P is r x cols, with r = rank(M).  U's columns are
    the reduced echelon basis of M's columns, so the factorization is
    canonical for a given M.  U is the identity on its pivot rows, so P
    is M's rows at those pivots.
    """
    ech = Echelon()
    for j in range(cols):
        ech.add({i: m[i][j] for i in range(rows) if not m[i][j].is_zero()})
    red = ech.reduced()
    zero = Scalar.zero(field)
    u = [[row.get(i, zero) for _p, row in red] for i in range(rows)]
    return u, [list(m[p]) for p, _row in red]
