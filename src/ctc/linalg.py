"""Exact linear algebra over Scalar matrices.

Dense matrices are plain lists of row lists of Scalar.  Elimination
pivots on the first nonzero entry in each column (no magnitude heuristics
exist for exact fields), which also makes every echelon form, nullspace
basis, and image factorization deterministic for a given input.

Sparse matrices are lists of rows, each a ``{col: Scalar}`` dict of the
nonzero entries only; ``sparse_mul`` multiplies them.
"""

from __future__ import annotations

from .fields import FieldSpec, Scalar

__all__ = [
    "zeros",
    "identity",
    "mat_mul",
    "sparse_mul",
    "mat_add",
    "mat_scale",
    "mat_is_zero",
    "mat_copy",
    "transpose",
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


def mat_copy(a):
    return [list(row) for row in a]


def transpose(a, rows: int, cols: int, field: FieldSpec):
    if not a:
        return zeros(field, cols, rows)
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


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
    a[i][k], b[k][j]; a row only needs its zero sums dropped if two
    products met in one entry."""
    out = []
    for arow in a:
        acc = {}
        met = False
        for k, x in arow.items():
            for j, y in b[k].items():
                v = acc.get(j)
                if v is None:
                    acc[j] = x * y
                else:
                    acc[j] = v + x * y
                    met = True
        if met:
            acc = {j: v for j, v in acc.items() if not v.is_zero()}
        out.append(acc)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s: Scalar):
    return [[s * x for x in row] for row in a]


def mat_is_zero(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def rref(a, field: FieldSpec):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = mat_copy(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        # first nonzero entry at or below row r
        pivot_row = None
        for i in range(r, rows):
            if not m[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inverse()
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a, field: FieldSpec) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a, field)[1])


def solve(a, b, field: FieldSpec, rows: int, cols: int, rhs_cols: int):
    """Particular solution X of A X = B with free variables set to zero.

    Returns None when the system is inconsistent.
    """
    if rows == 0:
        return zeros(field, cols, rhs_cols)
    aug = [list(a[i]) + list(b[i]) for i in range(rows)]
    red, pivots = rref(aug, field)
    for pc in pivots:
        if pc >= cols:
            return None
    x = zeros(field, cols, rhs_cols)
    for r, pc in enumerate(pivots):
        for j in range(rhs_cols):
            x[pc][j] = red[r][cols + j]
    return x


def nullspace(a, field: FieldSpec, rows: int, cols: int):
    """Deterministic basis of the right nullspace, one vector per free column."""
    if cols == 0:
        return []
    if rows == 0:
        basis = []
        for c in range(cols):
            v = [Scalar.zero(field)] * cols
            v[c] = Scalar.one(field)
            basis.append(v)
        return basis
    red, pivots = rref(a, field)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Scalar.zero(field)] * cols
        v[fc] = Scalar.one(field)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def inverse(a, field: FieldSpec, n: int):
    if n == 0:
        return []
    aug = [list(a[i]) + identity(field, n)[i] for i in range(n)]
    red, pivots = rref(aug, field)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return [row[n:] for row in red]


def image_factorization(m, field: FieldSpec, rows: int, cols: int):
    """Factor M = U P with U a column-echelon basis of the column space.

    U is rows x r and P is r x cols, with r = rank(M).  U's columns are
    the nonzero rows of rref(M^T) turned back into columns, so the
    factorization is canonical for a given M.
    """
    if rows == 0 or cols == 0 or mat_is_zero(m):
        return zeros(field, rows, 0), zeros(field, 0, cols)
    mt = transpose(m, rows, cols, field)
    red, pivots = rref(mt, field)
    r = len(pivots)
    u = [[red[j][i] for j in range(r)] for i in range(rows)]
    p = solve(u, m, field, rows, r, cols)
    if p is None:
        raise SingularMatrix("image basis does not span its own matrix")
    return u, p
