"""Layer instrumentation kept in the benchmark's own files.

Two kinds of pass are instrumented, never both at once:

* a span pass wraps the public layer functions listed in ``SPANNED``;
  each call records a span (name, start, end, parent span, job id) in
  memory, from which calls, self time and total time per function follow;
* a counting pass wraps ``Scalar`` arithmetic and a few layer functions
  with counters that inspect arguments and results.  Per-operation
  wrappers cost about as much as the operations, so they would swamp the
  self times of a span pass.

A wrapper replaces the function in every ``ctc`` module that bound it,
so ``compose`` is traced whether it is reached as ``category.compose``
or through the names imported into ``algebra``, ``modules`` and ``cli``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute) of every function a span pass wraps; the span name
# is "<module>.<attribute>"
SPANNED = [
    ("algebra", "solve_coevaluation"),
    ("algebra", "compute_index"),
    ("algebra", "frobenius_identity_check"),
    ("algebra", "check_algebra"),
    ("algebra", "group_algebra"),
    ("linalg", "mat_mul"),
    ("linalg", "rref"),
    ("linalg", "rank"),
    ("linalg", "solve"),
    ("linalg", "nullspace"),
    ("linalg", "inverse"),
    ("linalg", "image_factorization"),
    ("modules", "action_algebra"),
    ("modules", "algebra_radical"),
    ("modules", "is_semisimple_module"),
    ("modules", "maschke_section"),
    ("modules", "projector_pi"),
    ("modules", "hom_A"),
    ("modules", "local_projection"),
    ("modules", "condense"),
    ("modules", "run_suite_manifest"),
    ("category", "compose"),
    ("category", "tensor_mor"),
    ("category", "braiding"),
    ("category", "associator"),
    ("category", "associator_inv"),
    ("category", "verify_pentagon"),
    ("category", "verify_hexagon"),
    ("category", "verify_triangle"),
    ("category", "verify_zigzag"),
    ("category", "load_category"),
    ("cli", "main"),
    ("report", "Report.to_json_bytes"),
    ("ledger", "solve_dims"),
]

JOB_SPAN = "job"


def _resolve(module: str, attr: str):
    owner = sys.modules["ctc." + module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def rebind(module: str, attr: str, make_wrapper) -> None:
    """Replace ``ctc.<module>.<attr>`` by ``make_wrapper(original)``
    wherever a ``ctc`` module holds the original under any name."""
    owner, name = _resolve(module, attr)
    original = getattr(owner, name)
    wrapper = make_wrapper(original)
    setattr(owner, name, wrapper)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "ctc" and not mod_name.startswith("ctc."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """In-memory span recorder.

    ``spans`` holds one list ``[name, start, end, parent, job]`` per call,
    appended when the call starts, so a parent always precedes its
    children; ``parent`` is an index into ``spans`` or -1.  Times come
    from ``clock``.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._open = [-1]
        self.job: str | None = None
        self.clock = clock

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self.job]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for module, attr in SPANNED:
            rebind(module, attr, lambda fn, name="%s.%s" % (module, attr): self.wrap(name, fn))


def aggregate(spans) -> dict:
    """Per span name: ``calls``, ``self_s`` and ``total_s``.

    Self time is a span's duration minus the part of it covered by its
    child spans (the union of their intervals).  Total time sums only the
    outermost span of each name on a call path, so a function reached
    again below itself is not counted twice.  ``spans`` must list parents
    before children and siblings in start order, as ``Tracer`` records.
    """
    n = len(spans)
    covered = [0.0] * n
    cover_end = [float("-inf")] * n
    for name, start, end, parent, _ in spans:
        if parent < 0:
            continue
        lo = max(start, cover_end[parent])
        if end > lo:
            covered[parent] += end - lo
        if end > cover_end[parent]:
            cover_end[parent] = end
    out: dict[str, dict] = {}
    path: list[int] = []
    on_path: Counter = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        while path and path[-1] != parent:
            on_path[spans[path.pop()][0]] -= 1
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - covered[i]
        if not on_path[name]:
            agg["total_s"] += end - start
        path.append(i)
        on_path[name] += 1
    return out


def write_tsv(spans, path) -> None:
    """One line per span: index, name, start, end, parent index, job id."""
    with open(path, "w") as fh:
        fh.write("index\tname\tstart\tend\tparent\tjob\n")
        for i, (name, start, end, parent, job) in enumerate(spans):
            fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%s\n" % (i, name, start, end, parent, job))


# ---------------------------------------------------------------------------
# counters


class Counting:
    """Counters for a pass without spans.

    * ``fields``: ``Scalar`` add, neg and mul per field kind (``sub`` and
      ``/`` are built from them), plus ``is_zero`` and ``inverse`` calls;
    * ``linalg.mat_mul``: dense multiplications rows*inner*cols and the
      useful ones, sum over k of nnz(a[:, k]) * nnz(b[k, :]);
    * ``linalg.rref``: cells of the input matrix;
    * cache hits of ``associator``, ``associator_inv`` and
      ``pair_channels``: the same object returned again for the same key;
    * ``solve_coevaluation`` calls on an algebra object already solved;
    * ``action_algebra`` dimensions and ``p ** d`` elements enumerated by
      ``algebra_radical`` in small characteristic.
    """

    def __init__(self):
        self.counts: Counter = Counter()

    def install(self) -> None:
        from ctc.fields import Scalar

        counts = self.counts
        is_zero = Scalar.is_zero

        def op(fn):
            def counted(self, *args):
                counts["fields.ops." + self.field.kind] += 1
                return fn(self, *args)

            return counted

        def calls(key, fn):
            def counted(self, *args):
                counts[key] += 1
                return fn(self, *args)

            return counted

        for name in ("__add__", "__neg__", "__mul__"):
            setattr(Scalar, name, op(getattr(Scalar, name)))
        Scalar.is_zero = calls("fields.is_zero.calls", is_zero)
        Scalar.inverse = calls("fields.inverse.calls", Scalar.inverse)

        def mat_mul(fn):
            def counted(a, b, field, rows, inner, cols):
                counts["linalg.mat_mul.calls"] += 1
                counts["linalg.mat_mul.dense_mults"] += rows * inner * cols
                useful = 0
                for k in range(inner):
                    col = sum(1 for i in range(rows) if not is_zero(a[i][k]))
                    if col:
                        useful += col * sum(1 for y in b[k] if not is_zero(y))
                counts["linalg.mat_mul.useful_mults"] += useful
                return fn(a, b, field, rows, inner, cols)

            return counted

        def rref(fn):
            def counted(a, field):
                counts["linalg.rref.calls"] += 1
                counts["linalg.rref.cells"] += len(a) * (len(a[0]) if a else 0)
                return fn(a, field)

            return counted

        def cached(prefix, fn):
            seen = {}

            def counted(*objs):
                counts[prefix + ".calls"] += 1
                out = fn(*objs)
                key = (id(objs[0].spec),) + tuple(x.key() for x in objs)
                if seen.get(key) is out:
                    counts[prefix + ".hits"] += 1
                seen[key] = out
                return out

            return counted

        def solve_coevaluation(fn):
            solved = {}

            def counted(alg, *args, **kwargs):
                counts["algebra.solve_coevaluation.calls"] += 1
                if id(alg) in solved:
                    counts["algebra.solve_coevaluation.repeats"] += 1
                # holding the object keeps its id from being reused
                solved[id(alg)] = alg
                return fn(alg, *args, **kwargs)

            return counted

        def action_algebra(fn):
            def counted(mod):
                out = fn(mod)
                counts["modules.action_algebra.dim"] += out.dimension
                return out

            return counted

        def algebra_radical(fn):
            def counted(basis, n, field):
                out = fn(basis, n, field)
                p = field.char
                if 0 < p <= n:
                    counts["modules.algebra_radical.enumerated"] += p ** len(basis)
                return out

            return counted

        rebind("linalg", "mat_mul", mat_mul)
        rebind("linalg", "rref", rref)
        for attr in ("associator", "associator_inv", "pair_channels"):
            rebind("category", attr, lambda fn, prefix="category." + attr: cached(prefix, fn))
        rebind("algebra", "solve_coevaluation", solve_coevaluation)
        rebind("modules", "action_algebra", action_algebra)
        rebind("modules", "algebra_radical", algebra_radical)
