"""Exact engine for skeletal braided tensor categories.

Works with multiplicity-free fusion data (labels, F, R, twists, pivots)
over exact scalar fields, builds algebra objects and their module
theory, and checks the structural identities that make averaging and
local projection work, entirely without floating point.
"""

import json
import os
from pathlib import Path

from .fields import FieldSpec, ParseError, Scalar, parse_scalar, scalar_literal

__version__ = "0.1.0"

_DATA = Path(__file__).resolve().parent / "data"


def data_path(name: str = "") -> Path:
    """Path into the bundled data tree shipped with the package."""
    return _DATA / name if name else _DATA


def resolve(kind: str, ref, base_dir=None) -> Path:
    """The first file among ``base_dir / ref``, ``ref`` itself and the
    bundled ``data/<kind>/<ref>`` (``.json`` appended unless present), as
    it was reached: one ``stat`` per candidate tried, no symlink resolved."""
    ref = str(ref)
    bundled = os.path.join(_DATA, kind, ref if ref.endswith(".json") else ref + ".json")
    for path in ([os.path.join(base_dir, ref)] if base_dir is not None else []) + [ref, bundled]:
        if os.path.isfile(path):
            return Path(path)
    raise ParseError("no file and no bundled %s named %r" % (kind, ref))


def read_json(path) -> dict:
    """The JSON object stored at ``path``; any failure is a ``ParseError``."""
    try:
        with open(path, encoding="utf-8") as file:
            raw = json.loads(file.read())
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None
    except ValueError as exc:
        raise ParseError("bad JSON in %s: %s" % (path, exc)) from None
    if not isinstance(raw, dict):
        raise ParseError("bad JSON in %s: top level is %s, not an object" % (path, type(raw).__name__))
    return raw


def strings(values) -> bool:
    """Whether every one of ``values`` is a string."""
    return all(isinstance(x, str) for x in values)


def check_fields(what: str, checks) -> None:
    """Raise ``ParseError`` for the first ``(key, ok, kind)`` with ``ok`` false:
    a field of a ``what`` file has the wrong JSON type."""
    for key, ok, kind in checks:
        if not ok:
            raise ParseError("%s key %r must be %s" % (what, key, kind))


__all__ = ["FieldSpec", "Scalar", "parse_scalar", "scalar_literal", "data_path", "resolve", "read_json",
           "strings", "check_fields"]
