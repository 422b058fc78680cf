"""Modules over an algebra object: axioms, averaging, locality, condensation.

A module is a carrier object with an action morphism from the algebra
tensor the carrier.  The central constructions are the averaged section
(splitting any surjection of modules when the algebra index is
invertible), the monodromy projector (cutting out the part of a module
that braids trivially past the algebra), and the condensation table
(inducing from every simple label and sorting the simple results into
isomorphism classes, read off the free-module adjunction and Schur's
lemma with no hom space solved, and certified by the same adjunction in
integers).

The action is read once as sparse slot operators rho(s), one per
algebra slot, plus the label gradings.  Hom_A(M, N) is their
commutant: 1_A (x) f acts channel by channel, so a label-blocked f,
which commutes with the gradings, is a module map exactly when
f rho_M(s) = rho_N(s) f for every slot.  A module is simple (nonzero,
semisimple, one-dimensional End_A) exactly when those operators
generate all matrices on the carrier (Jacobson density).

Every matrix is held as sparse rows of its nonzero entries, and every
exact solve takes and returns them (``linalg``).

Semisimplicity is decided through the matrix algebra generated by the
action components together with the grading projectors: carriers are
graded by labels, and a subspace is a submodule exactly when it is
invariant under both.  Its elements are kept flattened, the nonzeros
of an n x n matrix at r*n + c.  The algebra is spun from a greedy
generating set with sparse products: each word is multiplied by the
generators only (the spinning of Holt, Eick and O'Brien, Handbook of
Computational Group Theory).  The module is semisimple exactly when
that algebra has zero radical.  The spin stops as soon as its basis
spans all n x n matrices, the action algebra of a simple module
(Burnside); that algebra is simple over every field (Wedderburn), so
its radical is zero and none is computed.  Otherwise, in characteristic
zero or above the matrix size the radical is the kernel of the trace
form, whose entries are sums over nonzero entries.  Over a small
prime field, a commutative algebra's radical is its set of nilpotents,
the kernel of the linear map x -> x^(p^k) with p^k >= n.  Every other
algebra there goes through Ronyai's polynomial-time chain of ideals
(J. Symb. Comput. 9 (1990)).  Each level's form g_i is linear on the
previous ideal, so it is evaluated once per basis element of that
ideal and read off as a trace against one weight matrix.
"""

from __future__ import annotations

from . import linalg as la
from . import check_fields, load_file, required, strings
from .algebra import (
    AlgebraObject,
    NotIsotropic,
    _action_laws,
    _blocks_field,
    _item,
    _object_field,
    _parse_mor,
    check_algebra,
    frobenius_kit,
    group_algebra,
    load_algebra,
    load_group,
    subgroup_algebra,
)
from .category import (
    CategoryMismatch,
    Mor,
    Obj,
    associator,
    associator_inv,
    braiding,
    compose,
    compose_tensor,
    load_category,
    pair_channels,
    tensor_compose,
    tensor_mor,
    tensor_obj,
)
from .fields import Error, ParseError, Scalar, scalar_literal
from .report import Report

__all__ = [
    "ModuleError",
    "AlgebraMismatch",
    "IndexZero",
    "CondensationIncomplete",
    "NotASection",
    "NotAlgebraAutomorphism",
    "SectionPostconditionFailed",
    "AModule",
    "check_module",
    "induce",
    "regular_module",
    "trivial_module",
    "hom_A",
    "is_local",
    "is_twisted_local",
    "maschke_section",
    "projector_pi",
    "local_projection",
    "ActionAlgebra",
    "action_algebra",
    "algebra_radical",
    "is_semisimple_module",
    "is_simple_module",
    "Condensation",
    "condense",
    "run_suite_manifest",
    "category_match",
    "load_module",
    "module_from_json",
]

class ModuleError(Error):
    pass


class AlgebraMismatch(ModuleError):
    """Both modules must share one algebra instance."""


class CondensationIncomplete(ModuleError):
    """The classes of a condensation table do not sum to every induced module."""


class IndexZero(ModuleError):
    """Averaging needs to divide by the algebra index and cannot."""


class NotASection(ModuleError):
    """The supplied right inverse does not invert on the right."""


class NotAlgebraAutomorphism(ModuleError):
    """The supplied twist does not preserve the algebra structure."""


class SectionPostconditionFailed(ModuleError):
    """The averaged map failed an exact postcondition; inputs were inconsistent."""


class AModule:
    """Carrier object with an action of a fixed algebra object."""

    # _pi, _aa: the monodromy projector and the action algebra, once
    # projector_pi and action_algebra have computed them; _twisted: the
    # action after the double braiding, read by is_local and projector_pi
    __slots__ = ("name", "alg", "carrier", "action", "_pi", "_aa", "_twisted")

    def __init__(self, name: str, alg: AlgebraObject, carrier: Obj, action: Mor):
        ax = tensor_obj(alg.carrier, carrier)
        if action.dom != ax or action.cod != carrier:
            raise ModuleError("action must go from algebra (x) carrier to the carrier")
        self.name = name
        self.alg = alg
        self.carrier = carrier
        self.action = action
        self._pi = self._aa = self._twisted = None

    @property
    def spec(self):
        return self.carrier.spec

    def __repr__(self):
        return "AModule(%s on %r)" % (self.name, self.carrier)


def check_module(mod: AModule) -> Report:
    """Unit and mixed associativity of the action."""
    report = Report()
    unit, assoc = _action_laws(mod.alg, mod.action)
    _item(report, "action-unit", *unit)
    _item(report, "action-associative", *assoc)
    return report


def induce(alg: AlgebraObject, x: Obj) -> AModule:
    """The free module on x: algebra tensor x with action by multiplication."""
    A = alg.carrier
    carrier = tensor_obj(A, x)
    action = tensor_compose(alg.mult_map, Mor.identity(x), associator_inv(A, A, x))
    return AModule("induced(%r)" % (x,), alg, carrier, action)


def regular_module(alg: AlgebraObject) -> AModule:
    return AModule("regular", alg, alg.carrier, alg.mult_map)


def trivial_module(alg: AlgebraObject) -> AModule:
    """The unit object with every algebra coordinate acting as 1.

    Only defined in a single-label category, where it is a module exactly
    when the coordinate sum eps is an algebra map onto the unit.  There
    validation pins every F entry to 1, so the associator of A, A and 1
    is the identity matrix, and eps (x) eps is the row of all ones on
    A (x) A.  The unit law eps eta = 1 then says that the column of eta
    sums to 1, and associativity eps mu = eps (x) eps that each of the
    d^2 columns of mu does (an empty column sums to 0).  Both are read
    off the one-label blocks; nothing is composed.
    """
    spec = alg.spec
    if len(spec.labels) != 1:
        raise ModuleError("trivial module needs a single-label category")
    lab, zero = spec.unit, Scalar.zero(spec.field)
    for m in (alg.unit_map, alg.mult_map):
        sums = [zero] * m.dom.m(lab)
        for row in m.rows.get(lab, []):
            for j, x in row.items():
                sums[j] = sums[j] + x
        if not all(x.is_one() for x in sums):
            raise ModuleError("coordinate-sum action is not a module structure here")
    unit_o = Obj.unit(spec)
    # with one label, A (x) 1 has the slots of A, so the action is the augmentation
    action = Mor.from_rows(tensor_obj(alg.carrier, unit_o), unit_o, _augmentation(alg).rows)
    return AModule("trivial", alg, unit_o, action)


def hom_A(m1: AModule, m2: AModule) -> list[Mor]:
    """Deterministic basis of the action-intertwining morphisms: the
    label-blocked f with f rho_1(s) = rho_2(s) f for every algebra slot s,
    solved on the entries of f in label, row, column order; the reduced
    echelon form of those equations fixes the basis."""
    if m1.alg is not m2.alg:
        raise AlgebraMismatch("modules over different algebra instances")
    X1, X2 = m1.carrier, m2.carrier
    ops1, ops2 = _action_operators(m1)[0], _action_operators(m2)[0]
    base, total = {}, 0
    for lab in X1.labels_present():
        if X2.m(lab):
            base[lab] = total
            total += X2.m(lab) * X1.m(lab)
    x1, x2 = X1.slots(), X2.slots()
    # the unknown t of each entry f[q][p]: by column p as (q, t), by row q as (p, t)
    in_col = [[(q, base[lab] + r * X1.m(lab) + c) for q, (s, r) in enumerate(x2) if s == lab] for lab, c in x1]
    in_row = [[(p, base[lab] + r * X1.m(lab) + c) for p, (s, c) in enumerate(x1) if s == lab] for lab, r in x2]
    ech = la.Echelon()
    for rho1, rho2 in zip(ops1, ops2):
        eqs = {}
        # (f rho1)[q][p] = sum over p2 of f[q][p2] rho1[p2][p]
        for p2, row in enumerate(rho1):
            for q, t in in_col[p2]:
                for p, v in row.items():
                    eqs.setdefault((q, p), {})[t] = v
        # (rho2 f)[q][p] = sum over q2 of rho2[q][q2] f[q2][p]
        for q, row in enumerate(rho2):
            for q2, w in row.items():
                for p, t in in_row[q2]:
                    eq = eqs.setdefault((q, p), {})
                    eq[t] = eq[t] - w if t in eq else -w
        for eq in eqs.values():
            ech.add(eq)
    out = []
    for v in ech.kernel(total, m1.spec.field):
        rows = {}
        for lab, b in base.items():
            m = X1.m(lab)
            rows[lab] = [{c: v[b + r * m + c] for c in range(m) if b + r * m + c in v} for r in range(X2.m(lab))]
        out.append(Mor.from_rows(X1, X2, rows))
    return out


def _monodromy(a: Obj, x: Obj) -> Mor:
    return compose(braiding(x, a), braiding(a, x))


def _twisted_action(mod: AModule) -> Mor:
    """The action after the double braiding, kept on the module."""
    if mod._twisted is None:
        mod._twisted = compose(mod.action, _monodromy(mod.alg.carrier, mod.carrier))
    return mod._twisted


def is_local(mod: AModule):
    """Whether acting after the double braiding equals acting directly."""
    twisted = _twisted_action(mod)
    if twisted == mod.action:
        return True, None
    return False, (twisted - mod.action).to_json()


def is_twisted_local(mod: AModule, g: Mor):
    """Locality up to a supplied algebra automorphism inserted on the leg."""
    A = mod.alg.carrier
    if g.dom != A or g.cod != A:
        raise NotAlgebraAutomorphism("twist must be an endomorphism of the algebra carrier")
    mu = mod.alg.mult_map
    if compose(g, mod.alg.unit_map) != mod.alg.unit_map or compose(g, mu) != compose_tensor(mu, g, g):
        raise NotAlgebraAutomorphism("twist is not an algebra map")
    try:
        g.inverse()
    except la.SingularMatrix:
        raise NotAlgebraAutomorphism("twist is not invertible") from None
    twisted = compose(compose_tensor(mod.action, g, Mor.identity(mod.carrier)), _monodromy(A, mod.carrier))
    if twisted == mod.action:
        return True, None
    return False, (twisted - mod.action).to_json()


def _average(alg: AlgebraObject, act: Mor, g: Mor, x: Obj) -> Mor:
    """act o (1_A (x) g) o alpha_{A,A,x} o (coev (x) 1_x), divided by the index.

    One copairing leg enters g : A (x) x -> Y, the other acts on Y through
    act : A (x) Y -> Y.  The averaged section and the monodromy projector
    are this sum with g = sigma o act_2 and g = act o monodromy.
    """
    _, coev, index = frobenius_kit(alg)
    if index.is_zero():
        raise IndexZero("algebra index vanishes in this field")
    A = alg.carrier
    core = compose(compose_tensor(act, Mor.identity(A), g), associator(A, A, x))
    return compose_tensor(core, coev, Mor.identity(x)).scale(index.inverse())


def maschke_section(f: Mor, m1: AModule, m2: AModule, sigma: Mor) -> Mor:
    """Average a plain section of a module surjection into a module map.

    f goes from the carrier of m1 onto the carrier of m2 and must
    intertwine the actions; sigma is any section of f in the underlying
    category.  The result is a section that also intertwines, obtained by
    pushing sigma through the copairing and dividing by the index.  Both
    properties are rechecked exactly before returning.
    """
    if m1.alg is not m2.alg:
        raise AlgebraMismatch("modules over different algebra instances")
    if f.dom != m1.carrier or f.cod != m2.carrier:
        raise ModuleError("f must run between the module carriers")
    if sigma.dom != m2.carrier or sigma.cod != m1.carrier:
        raise ModuleError("sigma must run opposite to f")
    X2 = m2.carrier
    if compose(f, sigma) != Mor.identity(X2):
        raise NotASection("sigma composed with f is not the identity")
    s = _average(m1.alg, m1.action, compose(sigma, m2.action), X2)
    if compose(f, s) != Mor.identity(X2):
        raise SectionPostconditionFailed("averaged map is not a section; f was not equivariant")
    if compose(s, m2.action) != compose_tensor(m1.action, Mor.identity(m1.alg.carrier), s):
        raise SectionPostconditionFailed("averaged section does not intertwine the actions")
    return s


def projector_pi(mod: AModule) -> Mor:
    """The averaged monodromy endomorphism of a module.

    Acts as the identity exactly on the part of the carrier that braids
    trivially past the algebra and kills the rest; it is an idempotent
    module endomorphism whenever the algebra is commutative with
    invertible index.  Computed on first use and kept on the module.
    """
    if mod._pi is None:
        mod._pi = _average(mod.alg, mod.action, _twisted_action(mod), mod.carrier)
    return mod._pi


def local_projection(mod: AModule):
    """Split the monodromy projector through its image.

    Returns the local part as a module, with the inclusion and the
    projection morphisms; projection after inclusion is the identity.
    """
    pi = projector_pi(mod)
    X = mod.carrier
    inc_blocks, prj_blocks, img_mult = {}, {}, {}
    for lab in X.labels_present():
        U, P = la.image_factorization(pi.rows[lab])
        img_mult[lab] = len(P)
        if P:
            inc_blocks[lab] = U
            prj_blocks[lab] = P
    img = Obj(mod.spec, img_mult)
    inc = Mor.from_rows(img, X, inc_blocks)
    prj = Mor.from_rows(X, img, prj_blocks)
    # U P = pi by construction; P U = Id is equivalent to pi being idempotent
    if compose(prj, inc) != Mor.identity(img):
        raise ModuleError("projector is not idempotent; no local part here")
    A = mod.alg.carrier
    action = compose(prj, compose_tensor(mod.action, Mor.identity(A), inc))
    out = AModule("local(%s)" % mod.name, mod.alg, img, action)
    rep = check_module(out)
    if not rep.ok:
        raise ModuleError("restricted action on the local part is not a module")
    return out, inc, prj


# ---------------------------------------------------------------------------
# semisimplicity through the action matrix algebra


def _action_operators(mod: AModule):
    """One operator on the flattened carrier per algebra slot, plus gradings.

    Each operator is a list of sparse ``{col: Scalar}`` rows holding its
    nonzero entries, read straight off the rows of the action.
    """
    X = mod.carrier
    xpos = {sl: k for k, sl in enumerate(X.slots())}
    n = len(xpos)
    slot = {sl: k for k, sl in enumerate(mod.alg.carrier.slots())}
    pairs = pair_channels(mod.alg.carrier, X)
    ops = [[{} for _ in range(n)] for _ in slot]
    for t, rows in mod.action.rows.items():
        cols = pairs[t]
        for r, row in enumerate(rows):
            out = xpos[(t, r)]
            for cidx, v in row.items():
                a, i, s, kx = cols[cidx]
                ops[slot[(a, i)]][out][xpos[(s, kx)]] = v
    one = Scalar.one(mod.spec.field)
    gradings = []
    for t in X.labels_present():
        g = [{} for _ in range(n)]
        for r in range(X.m(t)):
            g[xpos[(t, r)]][xpos[(t, r)]] = one
        gradings.append(g)
    return ops, gradings, n


class ActionAlgebra:
    """Matrix algebra generated by the action on the flattened carrier.

    ``basis`` and ``radical`` hold n x n matrices, n = ``size``, each
    flattened to its nonzeros with the entry (r, c) at ``r*n + c``.
    A subspace of the carrier is a submodule exactly when the slot
    operators and the label gradings both preserve it, so the module is
    semisimple exactly when the radical acts as zero, and the radical
    consists of matrices here, so that means it is empty.
    """

    __slots__ = ("basis", "radical", "size")

    def __init__(self, basis: list, radical: list, size: int):
        self.basis = basis
        self.radical = radical
        self.size = size

    @property
    def dimension(self) -> int:
        return len(self.basis)


def action_algebra(mod: AModule) -> ActionAlgebra:
    """Spin action components and gradings into a unital matrix algebra.

    The identity, the slot operators and the gradings are admitted to
    the basis first, in that order; ``_spin`` then multiplies out a
    generating set chosen from them.  All n x n matrices, where the spin
    stops, have zero radical; otherwise a commutative algebra over F_p
    with p <= n takes its radical from ``_frobenius_radical``, and every
    other algebra from ``algebra_radical``.  Computed on first use and
    kept on the module.
    """
    if mod._aa is not None:
        return mod._aa
    field = mod.spec.field
    ops, gradings, n = _action_operators(mod)
    if n == 0:
        mod._aa = ActionAlgebra([], [], 0)
        return mod._aa
    basis, gens = _spin(ops + gradings, n, field)
    p = field.char
    if len(basis) == n * n:
        radical = []
    elif 0 < p <= n and _commute(gens):
        radical = la.sparse_mul(_frobenius_radical(basis, n, field), basis)
    else:
        radical = algebra_radical(basis, n, field)
    mod._aa = ActionAlgebra(basis, radical, n)
    return mod._aa


class _AllMatrices(Exception):
    """The spin's basis spans all n x n matrices: nothing more is admitted."""


def _spin(candidates, n, field):
    """Basis of the unital algebra the candidates generate, and generators of it.

    Operators are sparse rows; the basis holds them flattened to their
    nonzeros at ``r*n + c``.  The identity and the candidates are admitted
    to the basis first, each reduced against an ``la.Echelon`` of the
    basis unless the same flattened matrix came before.  Then a candidate
    becomes a generator only when it lies outside the span of the words
    found so far, which a second echelon tracks.  Every word is multiplied by each new
    generator and every new word by each generator, so the words end
    spanning a space closed under right multiplication by the generators
    and holding the identity: the algebra they generate, which holds every
    candidate.  A product new among the words is admitted to the basis
    too.  In a regular group algebra each generator at least doubles the
    subgroup it joins.  The spin stops once the basis holds n * n
    elements, all matrices, which the full closure would not extend; the
    generators are then those chosen so far and the candidates not yet
    examined.
    """
    basis, echelon, seen = [], la.Echelon(), set()
    words, span, known = [], la.Echelon(), set()

    def admit(flat, key):
        if key not in seen and echelon.add(flat) is not None:
            basis.append(flat)
            if len(basis) == n * n:
                raise _AllMatrices
        seen.add(key)

    def grow(m):
        flat = _flat(m, n)
        key = frozenset(flat.items())
        if key in known:
            return False
        known.add(key)
        if span.add(flat) is None:
            return False
        words.append(m)
        admit(flat, key)
        return True

    one = Scalar.one(field)
    identity = [{k: one} for k in range(n)]
    gens, rest = [], list(candidates)
    try:
        for m in [identity] + candidates:
            flat = _flat(m, n)
            admit(flat, frozenset(flat.items()))
        grow(identity)
        while rest:
            g = rest.pop(0)
            start = len(words)
            if not grow(g):
                continue
            gens.append(g)
            for w in words[1 : start]:
                grow(la.sparse_mul(w, g))
            k = start
            while k < len(words):
                for h in gens:
                    grow(la.sparse_mul(words[k], h))
                k += 1
    except _AllMatrices:
        pass
    return basis, gens + rest


def _flat(m, n) -> dict:
    """The nonzeros of a sparse-row n x n matrix, at r*n + c."""
    return {r * n + c: x for r, row in enumerate(m) for c, x in row.items()}


def _commute(gens) -> bool:
    """Whether the generators commute pairwise, so the algebra they generate does."""
    return all(
        la.sparse_mul(a, b) == la.sparse_mul(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :]
    )


def _trace_form_kernel(flat, n, field):
    """Kernel of the trace form Tr(x_i x_j) = sum over r, c of x_i[r][c] x_j[c][r].

    Each entry is summed over the nonzeros of x_i, without forming x_i x_j.
    """
    d = len(flat)
    zero = Scalar.zero(field)
    gram = [{} for _ in range(d)]
    for i, xi in enumerate(flat):
        # x_i[r][c] meets x_j[c][r], at flat position c*n + r of x_j
        moved = [((k % n) * n + k // n, v) for k, v in xi.items()]
        for j in range(i, d):
            xj = flat[j]
            t = zero
            for k, v in moved:
                w = xj.get(k)
                if w is not None:
                    t = t + v * w
            if not t.is_zero():
                gram[i][j] = gram[j][i] = t
    return la.nullspace(gram, d, field)


def _int_mat_mul(a, b, q):
    """Product of square integer matrices, entries reduced mod q."""
    out = []
    for arow in a:
        acc = [0] * len(arow)
        for x, brow in zip(arow, b):
            if x:
                acc = [u + x * v for u, v in zip(acc, brow)]
        out.append([u % q for u in acc])
    return out


def _residues(row, n):
    """The n x n integer matrix of residues held at flat positions below n*n."""
    m = [[0] * n for _ in range(n)]
    for k, x in row.items():
        if k < n * n:
            m[k // n][k % n] = x.raw
    return m


def _ronyai_g(m, i, p):
    """g_i(x) = Tr(x~^(p^i)) / p^i mod p, with x~ the residues of x in [0, p).

    The power is taken mod p^(i+1), which keeps the quotient exact.
    """
    q = p ** (i + 1)
    for _ in range(i):
        power = m
        for _ in range(p - 1):
            power = _int_mat_mul(power, m, q)
        m = power
    return sum(m[k][k] for k in range(len(m))) % q // p**i


def _ronyai_radical(flat, n, field):
    """Coefficients over the basis of the radical, for 0 < p <= n.

    I_{i-1} is kept as flattened rows that carry their coefficients over
    the basis in the columns from n*n on.  Its reduced echelon basis
    B'_k, with pivot (r_k, c_k) below n*n, gives every z in I_{i-1} as
    sum z[r_k][c_k] B'_k, so with W[c_k][r_k] = g_i(B'_k) the linear form
    is g_i(z) = Tr(z W), and g_i(x y) = Tr(x (y W)).  The coefficients
    are returned as the rows of their reduced echelon form, last row
    first.
    """
    p = field.char
    nn = n * n
    one = Scalar.one(field)
    mats = [_residues(x, n) for x in flat]
    ideal = [{**x, nn + t: one} for t, x in enumerate(flat)]
    level = 0
    while p ** (level + 1) <= n:
        level += 1
    for i in range(level + 1):
        ech = la.Echelon()
        for row in ideal:
            ech.add(row)
        red = ech.reduced()
        w = [[0] * n for _ in range(n)]
        for pivot, row in red:
            r, c = divmod(pivot, n)
            w[c][r] = _ronyai_g(_residues(row, n), i, p)
        red = [row for _p, row in red]
        xs = [[(k % n, k // n, x.raw) for k, x in row.items() if k < nn] for row in red]
        form = la.Echelon()
        for y in mats:
            yw = _int_mat_mul(y, w, p)
            entries = {}
            for k, x in enumerate(xs):
                s = sum(v * yw[c][r] for c, r, v in x) % p
                if s:
                    entries[k] = Scalar.from_int(field, s)
            form.add(entries)
        weights = form.kernel(len(red), field)
        if not weights:
            return []
        ideal = la.sparse_mul(weights, red)
    ech = la.Echelon()
    for row in ideal:
        ech.add({k - nn: x for k, x in row.items() if k >= nn})
    return [row for _p, row in ech.reduced()][::-1]


def _frobenius_radical(flat, n, field):
    """Coefficients over the basis of the radical of a commutative algebra, 0 < p <= n.

    In a commutative algebra the radical is the set of nilpotents, and
    x -> x^p is F_p-linear, so the radical is the kernel of its k-th
    power for p^k >= n.  Each basis element's p-th power is read back
    as coefficients through the reduced echelon of the basis rows, each
    carrying its index from column n*n on, as in ``_ronyai_radical``.
    The coefficients are returned as the rows of their reduced echelon
    form, last row first.
    """
    p = field.char
    nn = n * n
    d = len(flat)
    one = Scalar.one(field)
    ech = la.Echelon()
    for t, x in enumerate(flat):
        ech.add({**x, nn + t: one})
    red = ech.reduced()
    cells = [divmod(pivot, n) for pivot, _row in red]
    coeffs = [{k - nn: x.raw for k, x in row.items() if k >= nn} for _pivot, row in red]
    frob = []
    for x in flat:
        m = [{} for _ in range(n)]
        for k, v in x.items():
            m[k // n][k % n] = v.raw
        # only the rows that hold a pivot cell are read: row r of x^p is
        # row r of x times x, p - 1 times
        power = {}
        for r, _c in cells:
            if r not in power:
                row = m[r]
                for _ in range(p - 1):
                    row = _int_combination(row, m, p)
                power[r] = row
        at_pivots = {j: power[r][c] for j, (r, c) in enumerate(cells) if c in power[r]}
        frob.append(_int_combination(at_pivots, coeffs, p))
    images, reach = frob, p
    while reach < n:
        images = [_int_combination(v, frob, p) for v in images]
        reach *= p
    kernel = la.Echelon()
    for t, v in enumerate(images):
        row = {j: Scalar.from_int(field, x) for j, x in v.items()}
        row[d + t] = one
        kernel.add(row)
    return [{j - d: x for j, x in row.items()} for pivot, row in kernel.reduced() if pivot >= d][::-1]


def _int_combination(weights, rows, p):
    """sum_t weights[t] * rows[t] over sparse integer rows, mod p; with
    the rows of a matrix b and a row of a, that row of a times b."""
    acc = {}
    for t, c in weights.items():
        for j, x in rows[t].items():
            acc[j] = acc.get(j, 0) + c * x
    return {j: v % p for j, v in acc.items() if v % p}


def algebra_radical(basis, n, field):
    """Radical of a unital matrix algebra given by a linearly independent basis.

    The basis and the radical elements returned are n x n matrices
    flattened to their nonzeros at r*n + c.  When the characteristic is zero or larger than the matrix size the
    radical is the kernel of the trace form, each Gram entry a sum over
    nonzeros.  Otherwise it is found by Ronyai's chain of ideals
    (L. Ronyai, "Computing the structure of finite algebras", J. Symb.
    Comput. 9 (1990); in the matrix form of Cohen, Ivanyos and Wales,
    "Finding the radical of an algebra of linear transformations", JPAA
    117/118 (1997)): with I_{-1} = A,
    I_i = {x in I_{i-1} : g_i(x y) = 0 for every y in A}, where g_i is
    the F_p-linear form of ``_ronyai_g`` on I_{i-1}, and the radical is
    I_l for l = floor(log_p n).  Linearity means g_i is evaluated once
    per basis element of I_{i-1} and read off as a trace against one
    weight matrix, never on the products x y themselves.

    Over F_p the elements returned are the rows of the reduced echelon
    form of the radical's coefficients over ``basis``, last row first,
    so the first is the lexicographically least nonzero radical element.
    """
    if not basis:
        return []
    p = field.char
    if p == 0 or p > n:
        kernel = _trace_form_kernel(basis, n, field)
    else:
        kernel = _ronyai_radical(basis, n, field)
    return la.sparse_mul(kernel, basis)


def is_semisimple_module(mod: AModule):
    """Whether every submodule is a direct summand.

    The certificate on failure is a nonzero radical element written out
    as rows of literals; on success it is the dimension summary of the
    radical-free action algebra.  All n x n matrices, the algebra of a
    simple module, need no radical computed: M_n is a simple algebra.
    """
    aa = action_algebra(mod)
    if not aa.radical:
        return True, {"algebra_dim": aa.dimension, "radical_dim": 0}
    w, n, zero = aa.radical[0], aa.size, Scalar.zero(mod.spec.field)
    return False, [[scalar_literal(w.get(r * n + c, zero)) for c in range(n)] for r in range(n)]


def is_simple_module(mod: AModule) -> bool:
    """Nonzero, semisimple, and with a one-dimensional self-hom space.

    By Jacobson density (Burnside's theorem) that holds exactly when the
    action algebra is all n x n matrices on a carrier of size n > 0, so
    it is read off the algebra's dimension, where the spin stops and no
    radical is computed.  Over a field that does not split the
    endomorphism ring this is stricter than having no proper submodule;
    for the bundled data the two notions agree.
    """
    aa = action_algebra(mod)
    return aa.size > 0 and aa.dimension == aa.size**2


# ---------------------------------------------------------------------------
# condensation


class CondenseRow:
    __slots__ = ("source", "module", "local", "simple", "projector_rank", "iso_class")

    def __init__(
        self, source: str, module: AModule, local: bool, simple: bool, projector_rank: int, iso_class: int
    ):
        self.source = source
        self.module = module
        self.local = local
        self.simple = simple
        self.projector_rank = projector_rank
        self.iso_class = iso_class


class Condensation:
    __slots__ = ("algebra", "rows", "classes", "class_local")

    def __init__(self, algebra: AlgebraObject):
        self.algebra = algebra
        self.rows: list[CondenseRow] = []
        self.classes: list[AModule] = []
        self.class_local: list[bool] = []

    def simple_class_count(self) -> int:
        return len(self.classes)

    def local_class_count(self) -> int:
        return sum(1 for b in self.class_local if b)

    def to_report(self) -> Report:
        report = Report()
        for row in self.rows:
            report.append(
                "induce:%s" % row.source,
                "pass",
                witness={
                    "carrier": row.module.carrier.to_json(),
                    "local": row.local,
                    "simple": row.simple,
                    "projector_rank": row.projector_rank,
                    "iso_class": row.iso_class,
                },
            )
        report.append(
            "classes",
            "pass",
            witness=[
                {"carrier": m.carrier.to_json(), "local": loc}
                for m, loc in zip(self.classes, self.class_local)
            ],
        )
        return report


def condense(alg: AlgebraObject) -> Condensation:
    """Induce from every simple label and classify the results.

    Each induced module is tested for locality and simplicity, and the
    monodromy projector rank is recorded.  Simple modules are sorted into
    isomorphism classes by the free-module adjunction: A being unital and
    associative, Hom_A(A (x) r, A (x) s) is Hom(r, A (x) s), whose
    dimension is the multiplicity of r in A (x) s, and a nonzero map
    between simple modules is an isomorphism (Schur).  So A (x) s joins
    the first class induced from a label it holds.  The classes flagged
    local are the simple objects seen by the condensed theory.

    The table certifies itself by the same adjunction (Kirillov and
    Ostrik), in integers: Hom_A(A (x) s, M) is Hom(s, M), of dimension
    [M : s], so with split simples the carrier of A (x) s is the sum over
    the classes M of [M : s] times the carrier of M, for every label s.
    That is sufficient in every characteristic.  The index is nonzero, or
    averaging refuses, so A is separable and its modules semisimple; and
    a simple missing from the table, split or not, breaks the identity
    at every s its carrier holds, carriers being nonnegative and nonzero.
    The first source where it fails raises CondensationIncomplete naming
    both vectors.  Built on the first call and kept on the algebra, as
    its axioms are; a refusal is not kept.
    """
    if alg._condensed is not None:
        return alg._condensed
    rep = check_algebra(alg)
    if not rep.ok:
        raise ModuleError("cannot condense, algebra axioms fail: %s" % [i.check for i in rep.failing()])
    spec = alg.spec
    out = Condensation(alg)
    sources = []  # the label each class was induced from
    for s in spec.labels:
        mod = induce(alg, Obj.simple(spec, s))
        pi = projector_pi(mod)
        rank = sum(la.rank(rows) for rows in pi.rows.values())
        # is_local's witness of a non-local module is not needed here
        local_flag = _twisted_action(mod) == mod.action
        simple_flag = is_simple_module(mod)
        cls = -1
        if simple_flag:
            cls = next((k for k, r in enumerate(sources) if mod.carrier.m(r)), -1)
            if cls < 0:
                out.classes.append(mod)
                out.class_local.append(local_flag)
                sources.append(s)
                cls = len(sources) - 1
        out.rows.append(CondenseRow(s, mod, local_flag, simple_flag, rank, cls))

    carriers = [m.carrier for m in out.classes]
    for row in out.rows:
        s = row.source
        got = Obj(spec, {t: sum(x.m(s) * x.m(t) for x in carriers) for t in spec.labels})
        if got != row.module.carrier:
            raise CondensationIncomplete(
                "A (x) %s is %r, but the %d classes M give sum [M : %s] M = %r"
                % (s, row.module.carrier, len(carriers), s, got)
            )
    alg._condensed = out
    return out


# ---------------------------------------------------------------------------
# bundled verification suites


def _cases(raw: dict, kind: str) -> list:
    """``(tag, case)`` for the cases of a ``kind`` suite manifest, each of
    the right shape: a malformed manifest is a ``ParseError`` before any
    case runs.  A case's tag is its algebra, group or labels, with
    ``@<category>`` after a tag that two cases share; two cases alike in
    both are a ``ParseError``."""
    cases = required("suite", raw, "cases")
    ok = isinstance(cases, list) and all(isinstance(c, dict) for c in cases)
    check_fields("suite", [("cases", ok, "a list of case objects")])
    for case in cases:
        names = [
            (key, isinstance(case[key], str), "a name") for key in ("category", "group", "algebra") if key in case
        ]
        labels = [
            (key, isinstance(case[key], list) and strings(case[key]), "a list of labels")
            for key in ("labels", "local_sources")
            if key in case
        ]
        # JSON integers only, so true or 2.0 is refused rather than read as 1 or 2
        counts = [
            (key, type(case[key]) is int, "an integer") for key in ("simple_classes", "local_classes") if key in case
        ]
        check_fields("suite case", names + labels + counts)
        if kind == "counterexamples" and required("suite case", case, "expect") not in _EXPECTATIONS:
            raise ParseError("unknown counterexample expectation %r" % (case["expect"],))
        if not any(key in case for key in ("group", "algebra", "labels")):
            raise ParseError("suite case needs a group, algebra, or labels key")
        # an algebra case may leave its category to the algebra file
        if "group" in case or "algebra" not in case:
            required("suite case", case, "category")
    tags = [_case_tag(case) for case in cases]
    tags = [
        "%s@%s" % (tag, case["category"]) if tags.count(tag) > 1 and "category" in case else tag
        for tag, case in zip(tags, cases)
    ]
    for tag in tags:
        if tags.count(tag) > 1:
            raise ParseError("two suite cases have the tag %r" % tag)
    return list(zip(tags, cases))


def run_suite_manifest(raw: dict, base_dir=None) -> Report:
    """The report of a suite manifest; its cases' references resolve
    beside ``base_dir``, the manifest's directory, first.  A malformed
    manifest is a ``ParseError``; a ``ctc.Error`` that a case raises is
    one ``case:<tag>`` error item after the items the case gave, and the
    other cases still run."""
    kind = required("suite", raw, "kind")
    run_case = _SUITE_CASES.get(kind) if isinstance(kind, str) else None
    if run_case is None:
        raise ParseError("unknown suite kind %r" % (kind,))
    report = Report()
    for tag, case in _cases(raw, kind):
        try:
            run_case(report, case, tag, base_dir)
        except Error as exc:
            report.refuse("case:%s" % tag, exc)
    return report


def category_match(alg: AlgebraObject, spec) -> Report:
    """No item when ``alg`` lives in ``spec``; else ``CategoryMismatch``.
    One file loads as one instance, so another instance is another file,
    even under the same name."""
    if alg.spec is not spec:
        raise CategoryMismatch("algebra lives in a category %r other than %r" % (alg.spec.name, spec.name))
    return Report()


def _case_algebra(case, base_dir) -> AlgebraObject:
    if "group" in case:
        spec = load_category(case["category"], base_dir)
        return group_algebra(load_group(case["group"], base_dir), spec)
    if "algebra" in case:
        alg = load_algebra(case["algebra"], base_dir)
        if "category" in case:
            category_match(alg, load_category(case["category"], base_dir))
        return alg
    return subgroup_algebra(case["labels"], load_category(case["category"], base_dir))


def _case_tag(case) -> str:
    key = next(key for key in ("algebra", "group", "labels") if key in case)
    return "+".join(case[key]) if key == "labels" else case[key]


def _split_mult(alg: AlgebraObject, reg: AModule) -> Mor:
    """``maschke_section`` of the multiplication, from the free module A (x) A
    onto the regular module ``reg``, averaged from the plain section 1_A (x) unit."""
    A = alg.carrier
    return maschke_section(alg.mult_map, induce(alg, A), reg, tensor_mor(Mor.identity(A), alg.unit_map))


def _maschke_case(report, case, tag, base_dir) -> None:
    alg = _case_algebra(case, base_dir)
    reg = regular_module(alg)
    try:
        _split_mult(alg, reg)
        report.append("mult-splits:%s" % tag, "pass")
    except ModuleError as exc:
        report.append("mult-splits:%s" % tag, "fail", witness=str(exc))
        return
    ss, cert = is_semisimple_module(reg)
    report.append("regular-semisimple:%s" % tag, "pass" if ss else "fail", witness=cert)
    if "group" in case:
        triv = trivial_module(alg)
        aug = _augmentation(alg)
        # maschke_section raises unless its result is a section
        maschke_section(aug, reg, triv, alg.unit_map)
        report.append("augmentation-splits:%s" % tag, "pass")
        ss2, cert2 = is_semisimple_module(triv)
        report.append("trivial-semisimple:%s" % tag, "pass" if ss2 else "fail", witness=cert2)


def _augmentation(alg: AlgebraObject) -> Mor:
    spec = alg.spec
    one = Scalar.one(spec.field)
    row = {k: one for k in range(alg.carrier.m(spec.unit))}
    return Mor.from_rows(alg.carrier, Obj.unit(spec), {spec.unit: [row]})


def _local_case(report, case, tag, base_dir) -> None:
    alg = _case_algebra(case, base_dir)
    table = condense(alg)
    expect_classes = case.get("simple_classes")
    if expect_classes is not None:
        ok = table.simple_class_count() == expect_classes
        report.append(
            "class-count:%s" % tag,
            "pass" if ok else "fail",
            witness={"got": table.simple_class_count(), "want": expect_classes},
        )
    expect_local = case.get("local_classes")
    if expect_local is not None:
        ok = table.local_class_count() == expect_local
        report.append(
            "local-count:%s" % tag,
            "pass" if ok else "fail",
            witness={"got": table.local_class_count(), "want": expect_local},
        )
    locals_expected = set(case.get("local_sources", []))
    for row in table.rows:
        mod = row.module
        # local_projection raises unless the projector is idempotent
        loc_mod, _, _ = local_projection(mod)
        report.append("projector-idempotent:%s:%s" % (tag, row.source), "pass")
        pi = projector_pi(mod)
        inter = compose(pi, mod.action) == compose_tensor(mod.action, Mor.identity(alg.carrier), pi)
        report.append("projector-intertwines:%s:%s" % (tag, row.source), "pass" if inter else "fail")
        loc_ok, _ = is_local(loc_mod)
        report.append("image-local:%s:%s" % (tag, row.source), "pass" if loc_ok else "fail")
        if row.local:
            ss, cert = is_semisimple_module(mod)
            report.append(
                "local-semisimple:%s:%s" % (tag, row.source),
                "pass" if ss else "fail",
                witness=cert,
            )
        if "local_sources" in case:
            want = row.source in locals_expected
            report.append(
                "local-flag:%s:%s" % (tag, row.source),
                "pass" if row.local == want else "fail",
                witness={"got": row.local, "want": want},
            )


def _counterexample_case(report, case, tag, base_dir) -> None:
    expect = case["expect"]
    if expect == "index-zero":
        alg = _case_algebra(case, base_dir)
        reg = regular_module(alg)
        try:
            _split_mult(alg, reg)
            report.append("averaging-fails:%s" % tag, "fail", witness="section was produced")
        except IndexZero as exc:
            report.append("averaging-fails:%s" % tag, "pass", witness=str(exc))
        ss, witness = is_semisimple_module(reg)
        report.append(
            "regular-not-semisimple:%s" % tag,
            "pass" if not ss else "fail",
            witness=witness,
        )
        aug = _augmentation(alg)
        triv = trivial_module(alg)
        sec = _equivariant_section_exists(aug, reg, triv)
        report.append("no-equivariant-section:%s" % tag, "pass" if not sec else "fail")
    elif expect == "not-commutative":
        alg = _case_algebra(case, base_dir)
        st = {i.check: i.status for i in check_algebra(alg).items}
        report.append(
            "not-commutative:%s" % tag,
            "pass" if st.get("commutative") == "fail" else "fail",
        )
    elif expect == "not-isotropic":
        try:
            _case_algebra(case, base_dir)
            report.append("not-isotropic:%s" % tag, "fail", witness="construction succeeded")
        except NotIsotropic as exc:
            report.append("not-isotropic:%s" % tag, "pass", witness=str(exc))


_SUITE_CASES = {"maschke": _maschke_case, "local": _local_case, "counterexamples": _counterexample_case}
_EXPECTATIONS = ("index-zero", "not-commutative", "not-isotropic")


def _equivariant_section_exists(f: Mor, m_dom: AModule, m_cod: AModule) -> bool:
    """Whether any intertwiner is a section of f: whether the identity of
    the codomain lies in the span of f b over the hom basis b."""

    def entries(m: Mor) -> dict:
        return {(lab, r, c): v for lab, rows in m.rows.items() for r, row in enumerate(rows) for c, v in row.items()}

    span = la.Echelon()
    for b in hom_A(m_cod, m_dom):
        span.add(entries(compose(f, b)))
    return span.add(entries(Mor.identity(m_cod.carrier))) is None


# ---------------------------------------------------------------------------
# loading


def load_module(ref) -> AModule:
    """A module by bundled name or path, one instance per file (``ctc.load_file``)."""
    return load_file("modules", ref, None, lambda raw, name, found: module_from_json(raw, found.folder, name))


def module_from_json(raw: dict, base_dir=None, name: str = "anonymous") -> AModule:
    alg_ref, carrier_mult, action_blocks = required("module", raw, "algebra", "object", "muX")
    check_fields("module", [_object_field(carrier_mult), _blocks_field("muX", action_blocks)])
    alg = load_algebra(alg_ref, base_dir)
    carrier = Obj(alg.spec, carrier_mult)
    action = _parse_mor(tensor_obj(alg.carrier, carrier), carrier, action_blocks)
    return AModule(name, alg, carrier, action)
