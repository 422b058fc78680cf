"""Exact engine for skeletal braided tensor categories.

Works with multiplicity-free fusion data (labels, F, R, twists, pivots)
over exact scalar fields, builds algebra objects and their module
theory, and checks the structural identities that make averaging and
local projection work, entirely without floating point.
"""

import json
import os
import threading
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from stat import S_ISREG

from .fields import Error, FieldSpec, ParseError, Scalar, parse_scalar, scalar_literal

__version__ = "0.1.0"

_DATA = Path(os.path.realpath(__file__)).parent / "data"


def data_path(name: str = "") -> Path:
    """Path into the bundled data tree shipped with the package."""
    return _DATA / name if name else _DATA


class DataFile:
    """The data file of ``kind`` that ``ref`` names, found by one rule: the
    first regular file among ``base_dir / ref``, ``ref`` itself and the
    bundled ``data/<kind>/<ref>`` (``.json`` appended unless present), one
    ``os.stat`` per candidate tried.  ``path`` is the file as it was
    reached and ``stat`` the result of its ``os.stat``; no link is
    resolved until ``read``."""

    __slots__ = ("path", "stat")

    def __init__(self, kind: str, ref, base_dir=None):
        ref = str(ref)
        bundled = os.path.join(_DATA, kind, ref if ref.endswith(".json") else ref + ".json")
        for path in ([os.path.join(base_dir, ref)] if base_dir is not None else []) + [ref, bundled]:
            try:
                st = os.stat(path)
            except (OSError, ValueError):
                continue
            if S_ISREG(st.st_mode):
                self.path, self.stat = path, st
                return
        raise ParseError("no file and no bundled %s named %r" % (kind, ref))

    def read(self):
        """``(raw, name, folder)`` of the file the links lead to: its JSON
        object, its ``name``, a string that defaults to the file's stem,
        and the folder the file's own references resolve in."""
        target = Path(os.path.realpath(self.path))
        raw = read_json(target)
        name = raw.get("name", target.stem)
        if not isinstance(name, str):
            raise ParseError("key 'name' of %s must be a string" % target)
        return raw, name, target.parent


# The file memo holds at least twice the most files one benchmark pass
# loads (45 over seeds 1-12), so no pass evicts.
_FILES = 128

# one load at a time: threads that miss the memo on one file at once would
# each build it, and ``condense`` tells categories apart by identity.
# Reentrant, because loading an algebra loads its category.
_LOADING = threading.RLock()
# for each load in progress, innermost last, the loads it has made
_OPEN = []


def load_file(kind: str, ref, base_dir, build):
    """The instance ``build(*DataFile(kind, ref, base_dir).read())`` makes.
    Loads of one unchanged file, by any path or link to it, share it while
    it stays in the memo and every load its build made still gives the
    instance it gave then; so an algebra is rebuilt once its category
    file changes, and a module once its algebra is rebuilt."""
    found = DataFile(kind, ref, base_dir)
    st = found.stat
    with _LOADING:
        entry = _entry((kind, st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size))
        if not entry or any(load_file(*args) is not got for *args, got in entry[1]):
            loads = []
            _OPEN.append(loads)
            try:
                entry[:] = build(*found.read()), loads
            finally:
                _OPEN.pop()
        if _OPEN:
            _OPEN[-1].append((kind, ref, base_dir, build, entry[0]))
        return entry[0]


@lru_cache(maxsize=_FILES)
def _entry(key: tuple) -> list:
    """The memo slot of a file by kind and identity: (kind, device, inode,
    modification time, size) from the ``os.stat`` that found it.  Empty
    until a load fills it with the instance and the loads its build made."""
    return []


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


def required(what: str, raw: dict, *keys):
    """``raw[key]`` for each of ``keys``, one value or a tuple as
    ``operator.itemgetter`` gives them; a missing key of a ``what`` is a
    ``ParseError``."""
    for key in keys:
        if key not in raw:
            raise ParseError("missing %s key %r" % (what, key))
    return itemgetter(*keys)(raw)


def strings(values) -> bool:
    """Whether every one of ``values`` is a string."""
    return all(isinstance(x, str) for x in values)


def check_fields(what: str, checks) -> None:
    """Raise ``ParseError`` for the first ``(key, ok, kind)`` with ``ok`` false:
    a field of a ``what`` file has the wrong JSON type."""
    for key, ok, kind in checks:
        if not ok:
            raise ParseError("%s key %r must be %s" % (what, key, kind))


__all__ = ["Error", "FieldSpec", "Scalar", "parse_scalar", "scalar_literal", "data_path", "DataFile", "load_file",
           "read_json", "required", "strings", "check_fields"]
