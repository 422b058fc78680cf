"""Seeded mutations of every kind of bundled data file, run through the CLI.

Each mutant stacks one to three edits of the JSON tree: a value replaced
by one of a pool of wrong, extreme or plausible values (labels and
literals taken from the file itself among them), an integer shifted or
blown up, an entry deleted or duplicated.  Every mutant is written to a
fresh path, because the category cache keys a file on its modification
time and size, and a rewritten path could be served stale.  Each input
must give a report, or exactly one ``load:`` error item, within
``PER_INPUT_S``; no exception may escape ``main``.  Every error item is a
typed refusal: its witness holds exactly the ``type``, the name of a
``ctc.Error`` class, and the ``message``.  Outside a suite, whose cases
each refuse on their own, an error item ends the input's report.
"""

import copy
import json
import random
import time

import pytest

import ctc
from ctc import data_path
from ctc.cli import main

MUTANTS_PER_FILE = 80
PER_INPUT_S = 1.0

POOL = [
    0, 1, -1, 2, 7, 10**30, -(10**30), 1.5, True, False, None,
    "", "0", "1", "-1", "1/0", "z", "x", [], {}, [[]], {"1": 1},
]

# (command, bundled file) of every data file a command reads directly
TARGETS = (
    [("check-category", "categories/%s.json" % n) for n in
     ("vec_q", "vec_f2", "vec_f3", "pointed_z4", "toric_code", "ising", "fibonacci")]
    + [("check-algebra", "algebras/%s.json" % n) for n in ("alg_qz3", "alg_h02", "alg_toric_1e")]
    + [("check-module", "modules/mod_toric_m.json"), ("ledger", "ledger/wp_triplet.json")]
    + [("suite", "suites/%s.json" % n) for n in ("maschke_2_6", "local_3_1", "counterexamples")]
)
GROUPS = ("z2", "z3", "s3")
ALGEBRAS = ("alg_qz3", "alg_h02", "alg_toric_1e")


def _subclasses(cls):
    """``cls`` and every class of the engine below it, at any depth."""
    children = [child for child in cls.__subclasses__() if child.__module__.startswith("ctc.")]
    return [cls] + [sub for child in children for sub in _subclasses(child)]


ERROR_TYPES = {cls.__name__ for cls in _subclasses(ctc.Error)}


def _nodes(value, path=()):
    """Every (path, value) below the root of a JSON tree."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _strings(raw):
    """Every string of a JSON tree, as a key or as a value, in sorted order."""
    nodes = list(_nodes(raw))
    keys = {k for path, _ in nodes for k in path if isinstance(k, str)}
    return sorted(keys | {v for _, v in nodes if isinstance(v, str)})


def _edit(rng, raw):
    nodes = list(_nodes(raw))
    path, old = rng.choice(nodes)
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = rng.randrange(5)
    if op == 0:
        parent[key] = copy.deepcopy(rng.choice(POOL))
    elif op == 1:
        parent[key] = rng.choice(_strings(raw) or [""])
    elif op == 2 and type(old) is int:
        parent[key] = rng.choice([old + 1, old - 1, -old, old * 10**rng.randint(1, 30)])
    elif op == 3:
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(old))
    else:
        parent[rng.choice(_strings(raw) or ["x"])] = copy.deepcopy(old)


def _mutant(rng, raw):
    raw = copy.deepcopy(raw)
    for _ in range(rng.randint(1, 3)):
        if not raw:
            break
        _edit(rng, raw)
    return raw


def _run(capsysbinary, argv):
    """Run one CLI input and check it against the fuzz contract."""
    start = time.perf_counter()
    main(argv + ["--report", "json"])
    elapsed = time.perf_counter() - start
    items = json.loads(capsysbinary.readouterr().out)["items"]
    loads = [i for i in items if i["check"].startswith("load:")]
    assert loads == [] or (items == loads and loads[0]["status"] == "error"), (argv, items)
    errors = [i for i in items if i["status"] == "error"]
    for error in errors:
        assert set(error["witness"]) == {"type", "message"}, (argv, error)
        assert error["witness"]["type"] in ERROR_TYPES, (argv, error)
    assert argv[0] == "suite" or errors in ([], items[-1:]), (argv, items)
    assert elapsed < PER_INPUT_S, (argv, elapsed)


@pytest.mark.parametrize("command, name", TARGETS, ids=[name for _, name in TARGETS])
def test_mutated_data_files_report_or_refuse(tmp_path, capsysbinary, command, name):
    raw = json.loads(data_path(name).read_text())
    rng = random.Random(name)
    for k in range(MUTANTS_PER_FILE):
        path = tmp_path / ("mutant%d.json" % k)
        path.write_text(json.dumps(_mutant(rng, raw)))
        _run(capsysbinary, [command, str(path)])


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_mutated_algebras_condensed_in_their_category_report_or_refuse(tmp_path, capsysbinary, algebra):
    raw = json.loads(data_path("algebras/%s.json" % algebra).read_text())
    rng = random.Random("condense:" + algebra)
    for k in range(MUTANTS_PER_FILE):
        path = tmp_path / ("mutant%d.json" % k)
        path.write_text(json.dumps(_mutant(rng, raw)))
        _run(capsysbinary, ["condense", raw["category"], "--algebra", str(path)])


@pytest.mark.parametrize("group", GROUPS)
def test_mutated_groups_in_a_maschke_suite_report_or_refuse(tmp_path, capsysbinary, group):
    raw = json.loads(data_path("groups/%s.json" % group).read_text())
    rng = random.Random(group)
    for k in range(MUTANTS_PER_FILE):
        gpath = tmp_path / ("group%d.json" % k)
        gpath.write_text(json.dumps(_mutant(rng, raw)))
        category = rng.choice(["vec_q", "vec_f2", "vec_f3"])
        suite = {"name": "fuzz", "kind": "maschke", "cases": [{"category": category, "group": gpath.name}]}
        spath = tmp_path / ("suite%d.json" % k)
        spath.write_text(json.dumps(suite))
        _run(capsysbinary, ["suite", str(spath)])
