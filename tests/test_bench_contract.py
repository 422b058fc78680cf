"""The benchmark's instrumentation names functions of ``ctc``; they must exist.

``bench/spans.py`` wraps every ``(module, attr)`` in ``SPANNED`` and
rebinds a few more names in its counting pass.  A rename or deletion in
``ctc`` would otherwise only surface when a traced benchmark run fails.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import ctc.cli  # noqa: F401  (imports every ctc module spans.py resolves)
from ctc.fields import Scalar

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module, attr", spans.SPANNED, ids=lambda x: x)
def test_spanned_name_resolves_to_callable(module, attr):
    owner, name = spans._resolve(module, attr)
    assert callable(getattr(owner, name))


def test_counting_pass_rebinds_callables(monkeypatch):
    # install patches Scalar in place; monkeypatch puts the originals back
    for name in ("__add__", "__neg__", "__mul__", "is_zero", "inverse"):
        monkeypatch.setattr(Scalar, name, getattr(Scalar, name))
    rebound = []
    monkeypatch.setattr(spans, "rebind", lambda module, attr, _wrap: rebound.append((module, attr)))
    spans.Counting().install()
    assert ("linalg", "rref") in rebound
    for module, attr in rebound:
        owner, name = spans._resolve(module, attr)
        assert callable(getattr(owner, name)), (module, attr)
    # the counting wrappers call these with fixed positional arguments
    calls = {("linalg", "rref"): 2, ("linalg", "mat_mul"): 6, ("modules", "algebra_radical"): 3}
    for (module, attr), nargs in calls.items():
        owner, name = spans._resolve(module, attr)
        inspect.signature(getattr(owner, name)).bind(*range(nargs))
