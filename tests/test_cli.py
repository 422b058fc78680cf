"""Runner behavior: golden bytes, parallel determinism, exit codes."""

import argparse
import ast
import concurrent.futures
import importlib
import importlib.util
import inspect
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import ctc
from ctc import algebra as algebra_mod
from ctc import category, cli, data_path, fields, ledger
from ctc import linalg as la
from ctc import modules as modules_mod
from ctc.algebra import load_algebra, load_group
from ctc.category import load_category
from ctc.modules import load_module
from ctc.cli import _HELP, _USAGE, _job, _run_check_category, main, parse_args
from ctc.fields import FieldSpec, parse_scalar, scalar_literal
from ctc.report import Item, Report
from test_category import unknown_label_rules_json, vec_s3_json

ALL_CATEGORIES = [
    "vec_q",
    "vec_f2",
    "vec_f3",
    "pointed_z4",
    "toric_code",
    "ising",
    "fibonacci",
]

LEDGER_GOLDEN = (
    b'{"items":['
    b'{"check":"dim:W","status":"pass","witness":"1"},'
    b'{"check":"dim:X","status":"pass","witness":"-1"},'
    b'{"check":"dim:V","status":"pass","witness":"0"},'
    b'{"check":"dim:P","status":"pass","witness":"0"}'
    b"]}\n"
)


def run_json(capsysbinary, argv):
    code = main(argv + ["--report", "json"])
    out = capsysbinary.readouterr().out
    return code, out


def test_ledger_golden_bytes(capsysbinary):
    code, out = run_json(capsysbinary, ["ledger", "wp_triplet"])
    assert code == 0
    assert out == LEDGER_GOLDEN


def test_check_category_all_bundled_pass(capsysbinary):
    code, out = run_json(capsysbinary, ["check-category"] + ALL_CATEGORIES)
    assert code == 0
    items = json.loads(out)["items"]
    assert all(i["status"] == "pass" for i in items)
    checks = {i["check"] for i in items}
    assert "ising/pentagon" in checks
    assert "fibonacci/naturality-probe" in checks


def test_jobs_levels_byte_identical(capsysbinary, monkeypatch):
    pools = []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(kwargs["max_workers"])

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    _, serial = run_json(capsysbinary, ["check-category"] + ALL_CATEGORIES + ["--jobs", "1"])
    _, parallel = run_json(capsysbinary, ["check-category"] + ALL_CATEGORIES + ["--jobs", "4"])
    assert serial == parallel
    _, s1 = run_json(capsysbinary, ["suite", "maschke_2_6", "local_3_1", "counterexamples"])
    _, s4 = run_json(
        capsysbinary,
        ["suite", "maschke_2_6", "local_3_1", "counterexamples", "--jobs", "4"],
    )
    assert s1 == s4
    # both --jobs 4 runs went through the pool, the serial ones did not
    assert pools == [4, 4]


def _env_with_src() -> dict:
    src = str(Path(ctc.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_import_loads_no_introspection_logging_or_thread_pool():
    # a fresh interpreter; modules that site loaded before the import cancel out
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ctc.algebra, ctc.category, ctc.cli, ctc.fields, ctc.ledger, ctc.modules\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env_with_src(), capture_output=True, text=True, timeout=60, check=True
    ).stdout
    added = set(out.split())
    assert {"ctc.cli", "ctc.ledger", "ctc.modules"} <= added
    assert not added & {"dataclasses", "inspect", "logging", "concurrent.futures"}


def test_commands_load_no_argument_parser_gettext_or_locale():
    # a serial run and a bad argv in a fresh interpreter
    code = (
        "import sys\n"
        "from ctc.cli import main\n"
        "main(['check-category', 'vec_q', '--report', 'json'])\n"
        "try:\n"
        "    main(['no-such-command', 'x'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code)\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=_env_with_src(), capture_output=True, text=True, timeout=60, check=True
    )
    assert run.stdout.splitlines()[1:] == ["2", "[]"]
    assert "invalid choice: 'no-such-command'" in run.stderr


def test_check_category_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # the bundled categories and a file whose load error names one of
    # several unknown labels, in two interpreters with different string hashes
    bad = tmp_path / "unknown_labels.json"
    bad.write_text(json.dumps(unknown_label_rules_json()))
    argv = [sys.executable, "-m", "ctc.cli", "check-category"] + ALL_CATEGORIES + [str(bad), "--report", "json"]
    outs = [
        subprocess.run(argv, env=dict(_env_with_src(), PYTHONHASHSEED=seed), capture_output=True, timeout=60).stdout
        for seed in ("0", "22")
    ]
    assert b"unknown label 'w'" in outs[0]
    assert outs[0] == outs[1]


def test_repeat_runs_byte_identical(capsysbinary):
    args = ["suite", "maschke_2_6", "local_3_1", "counterexamples"]
    _, first = run_json(capsysbinary, args)
    _, second = run_json(capsysbinary, args)
    assert first == second


def test_seed_does_not_change_clean_output(capsysbinary):
    _, a = run_json(capsysbinary, ["check-category", "ising", "--seed", "1"])
    _, b = run_json(capsysbinary, ["check-category", "ising", "--seed", "2"])
    assert a == b


def test_check_algebra_reports_index(capsysbinary):
    code, out = run_json(capsysbinary, ["check-algebra", "alg_qz3", "alg_h02", "alg_toric_1e"])
    assert code == 0
    got = {i["check"]: i["witness"] for i in json.loads(out)["items"]}
    assert got["alg_qz3/index"] == "3"
    assert got["alg_h02/index"] == "2"
    assert got["alg_toric_1e/twisted-dim"] == "2"


def test_check_module_reports_locality(capsysbinary):
    code, out = run_json(capsysbinary, ["check-module", "mod_toric_m"])
    assert code == 0
    got = {i["check"]: i for i in json.loads(out)["items"]}
    assert got["mod_toric_m/action-unit"]["status"] == "pass"
    assert got["mod_toric_m/is-local"]["witness"] is False


def test_condense_pointed_z4(capsysbinary):
    code, out = run_json(capsysbinary, ["condense", "pointed_z4", "--algebra", "alg_h02"])
    assert code == 0
    got = {i["check"]: i["witness"] for i in json.loads(out)["items"]}
    assert got["alg_h02/index"] == "2"
    classes = got["alg_h02/classes"]
    assert len(classes) == 2
    assert all(c["local"] for c in classes)
    assert classes[0]["carrier"] == {"0": 1, "2": 1}
    assert classes[1]["carrier"] == {"1": 1, "3": 1}


def _assert_bad_argv(argv, message, capsys):
    """``main`` refuses ``argv`` as a bad argv: the usage and one
    ``ctc: error:`` line on stderr, nothing on stdout, status 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", _USAGE + "ctc: error: %s\n" % message)


def test_condense_requires_algebra_flag(capsys):
    _assert_bad_argv(["condense", "pointed_z4"], "condense needs --algebra", capsys)


def test_condense_category_mismatch(capsysbinary):
    code, out = run_json(capsysbinary, ["condense", "toric_code", "--algebra", "alg_h02"])
    assert code == 2
    items = json.loads(out)["items"]
    assert items[0]["status"] == "error"


def test_missing_input_is_error_exit(capsysbinary):
    code, out = run_json(capsysbinary, ["check-category", "no_such_thing"])
    assert code == 2
    items = json.loads(out)["items"]
    assert items[0]["check"] == "load:no_such_thing"
    assert items[0]["status"] == "error"


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "{dir}", "maschke_2_6"],
        ["check-algebra", "{dir}", "alg_qz3"],
        ["check-module", "{dir}", "mod_toric_m"],
        ["ledger", "{dir}", "wp_triplet"],
        ["check-category", "{dir}", "vec_q"],
        ["condense", "{dir}", "toric_code", "--algebra", "alg_toric_1e"],
    ],
)
def test_directory_input_is_one_error_item_and_the_batch_goes_on(tmp_path, capsysbinary, argv):
    argv = [a.format(dir=tmp_path) for a in argv]
    code, out = run_json(capsysbinary, argv)
    assert code == 2
    items = json.loads(out)["items"]
    assert items[0]["check"] == "load:%s" % tmp_path
    assert items[0]["status"] == "error"
    rest = items[1:]
    assert rest and all(i["status"] == "pass" for i in rest)


def _error_classes(root=ctc.Error):
    """Every class of the engine below ``root``, at any depth."""
    out = []
    for cls in root.__subclasses__():
        if cls.__module__.startswith("ctc."):
            out += [cls] + _error_classes(cls)
    return out


def test_run_reports_every_typed_refusal_under_one_root():
    tree = ast.parse(inspect.getsource(cli._run))
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(node.type) for node in handlers] == ["Error"]
    assert cli.Error is ctc.Error is fields.Error
    modules = (fields, category, algebra_mod, modules_mod, ledger)
    exported = [getattr(mod, name) for mod in modules for name in mod.__all__]
    refusals = [obj for obj in exported if isinstance(obj, type) and issubclass(obj, Exception)]
    assert len(refusals) > 5 and all(issubclass(cls, ctc.Error) for cls in refusals)


def test_every_error_class_is_typed_for_the_benchmark():
    # bench/worker.py counts a job's exception as typed when it is one of
    # TYPED_ERRORS; read the tuple off the file, without running it
    tree = ast.parse((Path(__file__).resolve().parent.parent / "bench" / "worker.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == "TYPED_ERRORS")
    typed = tuple(getattr(importlib.import_module("ctc." + elt.value.id), elt.attr) for elt in node.value.elts)
    assert [cls for cls in _error_classes() if not issubclass(cls, typed)] == []
    assert set(ctc.Error.__subclasses__()) == set(typed)


BUNDLED_INPUTS = {
    "check-category": "vec_q",
    "check-algebra": "alg_qz3",
    "check-module": "mod_toric_m",
    "condense": "toric_code",
    "suite": "local_3_1",
    "ledger": "wp_triplet",
}


@pytest.mark.parametrize("error", [ctc.Error] + ctc.Error.__subclasses__(), ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("command", sorted(BUNDLED_INPUTS))
def test_a_typed_refusal_is_exactly_one_load_item(monkeypatch, command, error):
    def refuse(*paths):
        raise error("refused after %d files" % len(paths))

    monkeypatch.setitem(cli._COMMANDS, command, (cli._COMMANDS[command][0], refuse))
    arg = BUNDLED_INPUTS[command]
    report = cli._run(command, arg, "alg_toric_1e")
    files = 2 if command == "condense" else 1
    witness = {"type": error.__name__, "message": "refused after %d files" % files}
    assert [(i.check, i.status, i.witness) for i in report.items] == [("load:%s" % arg, "error", witness)]


# each staged command: a batch of two inputs, its --algebra, and its stages in order
STAGED = {
    "check-category": (["ising", "toric_code"], None, ["pentagon", "hexagon", "triangle", "zigzag", "naturality-probe"]),
    "check-algebra": (["alg_qz3", "alg_h02"], None, ["axioms", "frobenius", "index"]),
    "check-module": (["mod_toric_m", "mod_toric_m"], None, ["module", "is-local"]),
    "condense": (["toric_code", "pointed_z4"], "alg_toric_1e", ["category-match", "index", "condense"]),
}


def _json_items(report):
    return json.loads(report.to_json_bytes())["items"]


@pytest.mark.parametrize("command, stage", [(c, stage) for c in sorted(STAGED) for stage in STAGED[c][2]])
def test_a_refusal_injected_at_a_stage_is_one_item_there(monkeypatch, capsysbinary, command, stage):
    # differential: the run with a ctc.Error injected at one stage of the
    # first input against the same run without it
    (first, second), algebra, names = STAGED[command]
    real, tables, edits = cli._staged, [], []

    def staged(stem, stages, target):
        tables.append([name for name, _ in stages])
        return real(stem, edits.pop()(list(stages)) if edits else stages, target)

    def refuse(target):
        raise ctc.Error("injected at %s" % stage)

    monkeypatch.setattr(cli, "_staged", staged)
    whole, other = (_json_items(cli._run(command, arg, algebra)) for arg in (first, second))
    assert tables == [names, names]
    k = names.index(stage)
    edits.append(lambda table: table[:k])
    before = _json_items(cli._run(command, first, algebra))
    assert before == whole[: len(before)]
    edits.append(lambda table: table[:k] + [(stage, refuse)] + table[k + 1:])
    argv = [command, first, second] + (["--algebra", algebra] if algebra else [])
    code, out = run_json(capsysbinary, argv)
    assert code == 2
    stem = algebra or first
    error = {"check": "%s/%s" % (stem, stage), "status": "error",
             "witness": {"type": "Error", "message": "injected at %s" % stage}}
    # the items of the stages before it stay, and the other input runs on
    assert json.loads(out)["items"] == before + [error] + other


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize("suite", ["maschke_2_6", "local_3_1", "counterexamples"])
def test_a_refusal_injected_in_a_suite_case_is_one_item_there(monkeypatch, capsysbinary, suite, when):
    # a ctc.Error raised as each case starts, or after it gave its items,
    # against the same batch without it; the other manifest is of another kind
    kind = _bundled("suites/%s.json" % suite)["kind"]
    other = "counterexamples" if kind == "maschke" else "maschke_2_6"
    real, spans, inject = modules_mod._SUITE_CASES[kind], [], []

    def run_case(report, case, tag, base_dir):
        k, start = len(spans), len(report.items)
        spans.append((tag, start, start))
        if inject == [k] and when == "before":
            raise ctc.Error("injected into case %d" % k)
        real(report, case, tag, base_dir)
        spans[k] = (tag, start, len(report.items))
        if inject == [k]:
            raise ctc.Error("injected into case %d" % k)

    monkeypatch.setitem(modules_mod._SUITE_CASES, kind, run_case)
    code, out = run_json(capsysbinary, ["suite", suite, other])
    assert code == 0
    whole, cases = json.loads(out)["items"], list(spans)
    assert len(cases) == len(_bundled("suites/%s.json" % suite)["cases"])
    for k, (tag, start, end) in enumerate(cases):
        spans.clear()
        inject[:] = [k]
        code, out = run_json(capsysbinary, ["suite", suite, other])
        assert code == 2
        error = {"check": "%s/case:%s" % (suite, tag), "status": "error",
                 "witness": {"type": "Error", "message": "injected into case %d" % k}}
        kept = end if when == "after" else start
        assert json.loads(out)["items"] == whole[:kept] + [error] + whole[end:]


def test_the_commands_are_listed_once():
    commands = sorted(cli._COMMANDS)
    assert sorted(BUNDLED_INPUTS) == commands
    assert cli._CHOICES["command"] == commands
    listed = [group.split(",") for group in re.findall(r"\{([^{}]*)\}", _HELP) if "check-category" in group]
    assert len(listed) == 2 and all(group == commands for group in listed)
    assert _HELP.startswith(_USAGE)


def test_unreadable_algebra_for_condense_is_an_error_item(tmp_path, capsysbinary):
    code, out = run_json(capsysbinary, ["condense", "toric_code", "--algebra", str(tmp_path)])
    assert code == 2
    items = json.loads(out)["items"]
    assert [(i["check"], i["status"]) for i in items] == [("load:toric_code", "error")]


def test_condense_refuses_a_table_short_of_dim_c_over_dim_a(capsysbinary):
    # Q[Z3] splits into simples that no induced module is, so the table
    # lists none; both files loaded, and the index items computed first stay
    code, out = run_json(capsysbinary, ["condense", "vec_q", "pointed_z4", "--algebra", "alg_qz3"])
    assert code == 2
    items = json.loads(out)["items"]
    assert items[:3] == [
        {"check": "alg_qz3/index", "status": "pass", "witness": "3"},
        {"check": "alg_qz3/twisted-dim", "status": "pass", "witness": "3"},
        {
            "check": "alg_qz3/condense",
            "status": "error",
            "witness": {
                "type": "CondensationIncomplete",
                "message": "the 0 classes give sum (d(M)/d(A))^2 = 0, but dim C / d(A) = 1/3",
            },
        },
    ]
    # the rest of the batch runs as it runs alone
    _, alone = run_json(capsysbinary, ["condense", "pointed_z4", "--algebra", "alg_qz3"])
    assert items[3:] == json.loads(alone)["items"] != []


@pytest.mark.parametrize("key,value", [("local_classes", True), ("simple_classes", 2.0), ("simple_classes", "two")])
def test_a_suite_count_that_is_not_a_json_integer_is_one_load_item(tmp_path, capsysbinary, key, value):
    case = {"category": "toric_code", "algebra": "alg_toric_1e", key: value}
    suite = _write(tmp_path / "counts.json", {"kind": "local", "cases": [case]})
    code, out = run_json(capsysbinary, ["suite", str(suite)])
    assert code == 2
    assert json.loads(out)["items"] == [
        {
            "check": "load:%s" % suite,
            "status": "error",
            "witness": {"type": "ParseError", "message": "suite case key %r must be an integer" % key},
        }
    ]


def test_domain_error_is_one_error_item_and_the_batch_goes_on(tmp_path, capsysbinary):
    raw = json.loads(open(data_path("categories/pointed_z4.json")).read())
    raw["dual"]["1"] = "2"
    bad = tmp_path / "bad_dual.json"
    bad.write_text(json.dumps(raw))
    code, out = run_json(capsysbinary, ["check-category", str(bad), "fibonacci"])
    assert code == 2
    items = json.loads(out)["items"]
    assert items[0] == {
        "check": "load:%s" % bad,
        "status": "error",
        "witness": {"type": "FusionDataError", "message": "dual map is not an involution at '1'"},
    }
    rest = items[1:]
    assert rest and all(i["check"].startswith("fibonacci/") and i["status"] == "pass" for i in rest)


def test_wrong_block_shape_is_an_error_item(tmp_path, capsysbinary):
    raw = json.loads(open(data_path("algebras/alg_qz3.json")).read())
    raw["category"] = str(data_path("categories/%s.json" % raw["category"]))
    lab = next(iter(raw["mu"]))
    raw["mu"][lab] = raw["mu"][lab][:-1]
    bad = tmp_path / "alg_bad.json"
    bad.write_text(json.dumps(raw))
    code, out = run_json(capsysbinary, ["check-algebra", str(bad), "alg_h02"])
    assert code == 2
    items = json.loads(out)["items"]
    assert items[0]["check"] == "load:%s" % bad
    assert items[0]["status"] == "error"
    assert items[0]["witness"]["type"] == "DomainMismatch"
    assert any(i["check"] == "alg_h02/index" for i in items[1:])


def test_failing_data_exits_one(tmp_path, capsysbinary):
    raw = json.loads(open(data_path("categories/fibonacci.json")).read())
    raw["F"]["tau,tau,tau,tau,tau,tau"] = "z + z^4"
    bad = tmp_path / "fib_broken.json"
    bad.write_text(json.dumps(raw))
    code, out = run_json(capsysbinary, ["check-category", str(bad)])
    assert code == 1
    items = json.loads(out)["items"]
    assert any(i["status"] == "fail" and "pentagon" in i["check"] for i in items)


def test_singular_f_block_is_a_failure_not_a_crash(tmp_path, capsysbinary):
    raw = json.loads(open(data_path("categories/ising.json")).read())
    key = "sigma,sigma,sigma,sigma,1,1"
    raw["F"][key] = scalar_literal(-parse_scalar(raw["F"][key], FieldSpec.from_json(raw["field"])))
    bad = tmp_path / "ising_singular.json"
    bad.write_text(json.dumps(raw))
    code, out = run_json(capsysbinary, ["check-category", str(bad)])
    assert code == 1
    items = {i["check"]: i for i in json.loads(out)["items"]}
    assert all(i["status"] in ("pass", "fail") for i in items.values())
    singular = {"singular_f": ["sigma", "sigma", "sigma", "sigma"]}
    for check in ("hexagon-2:sigma,sigma,sigma", "zigzag-2:sigma"):
        assert items["ising_singular/" + check] == {
            "check": "ising_singular/" + check,
            "status": "fail",
            "witness": singular,
        }
    assert items["ising_singular/naturality-probe"]["status"] == "pass"


def test_failing_sweep_text_lines_carry_sweep_time(tmp_path, capsys):
    raw = json.loads(open(data_path("categories/ising.json")).read())
    key = "sigma,sigma,sigma,sigma,1,1"
    raw["F"][key] = scalar_literal(-parse_scalar(raw["F"][key], FieldSpec.from_json(raw["field"])))
    bad = tmp_path / "ising_flip.json"
    bad.write_text(json.dumps(raw))
    assert main(["check-category", str(bad)]) == 1
    failing_ms = [
        float(parts[-2])
        for parts in (line.split() for line in capsys.readouterr().out.splitlines())
        if len(parts) == 4 and parts[1] == "fail" and parts[3] == "ms"
    ]
    assert failing_ms and max(failing_ms) > 0


def test_closed_stdout_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "ctc.cli", "suite", "maschke_2_6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env_with_src(),
    )
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 0
    assert err == b""


def test_broken_module_exits_one(tmp_path, capsysbinary):
    raw = json.loads(open(data_path("modules/mod_toric_m.json")).read())
    raw["muX"]["m"] = [["1", "-1"]]
    bad = tmp_path / "mod_bad.json"
    bad.write_text(json.dumps(raw))
    code, out = run_json(capsysbinary, ["check-module", str(bad)])
    assert code == 1


def test_suite_accepts_explicit_path(capsysbinary):
    code, out = run_json(capsysbinary, ["suite", str(data_path("suites/maschke_2_6.json"))])
    assert code == 0


def test_text_report_has_tally(capsys):
    code = main(["check-category", "vec_q"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 failed, 0 errored" in out


def test_report_items_compare_on_every_field():
    assert Item("a", "fail", {"x": 1}, 0.5) == Item("a", "fail", {"x": 1}, 0.5)
    assert Item("a", "pass", None, 0.5) != Item("a", "pass", None, 0.25)
    assert Item("a", "fail", 1) != Item("a", "fail", 2)
    assert Item("a", "pass") != Item("b", "pass")
    with pytest.raises(ValueError, match="bad status"):
        Item("a", "passed")
    one, two = Report(), Report()
    assert one.items is not two.items
    one.append("a", "pass", elapsed=0.5)
    two.append("a", "pass", elapsed=0.5)
    assert one == two
    two.items[0].elapsed = 0.25
    assert one != two


def test_check_category_text_lines_carry_sweep_times():
    report = _run_check_category(Path(data_path("categories/ising.json")))
    sweeps = ["pentagon", "hexagon", "triangle", "zigzag", "naturality-probe"]
    assert [i.check for i in report.items] == ["ising/" + name for name in sweeps]
    assert all(i.elapsed > 0 for i in report.items)


def test_jobs_validation(capsys):
    _assert_bad_argv(["check-category", "vec_q", "--jobs", "0"], "--jobs must be at least 1", capsys)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-category", "vec_q", "--jobs=--"], "argument --jobs: expected one argument"),
        (["condense", "toric_code", "--algebra=--"], "argument --algebra: expected one argument"),
        (["check-category", "vec_q", "--report=--"], "argument --report: expected one argument"),
        (["check-category", "--", "--"], "the following arguments are required: inputs"),
    ],
    ids=["jobs", "algebra", "report", "no-input"],
)
def test_main_refuses_an_empty_value_or_batch_that_parse_args_lets_through(argv, message, capsys):
    # parse_args drops the first "--" among an argument's tokens, as
    # argparse did, which leaves an empty list; main refuses it
    _assert_bad_argv(argv, message, capsys)


def test_runs_around_a_bad_argv_keep_their_bytes_and_build_no_argparse_parser(monkeypatch, capsysbinary):
    assert main(["ledger", "wp_triplet", "--report", "json"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k)
    )
    for _ in range(3):
        assert main(["ledger", "wp_triplet", "--report", "json"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command", "x"])
        assert exc.value.code == 2
    assert built == []
    out = capsysbinary.readouterr()
    assert out.out == (LEDGER_GOLDEN * 4)
    assert out.err.count(b"argument command: invalid choice: 'no-such-command'") == 3


def test_main_without_an_argv_reads_the_process_arguments(monkeypatch, capsysbinary):
    # the `ctc` console script and `python -m ctc.cli` call main() bare
    monkeypatch.setattr(sys, "argv", ["ctc", "ledger", "wp_triplet", "--report", "json"])
    assert main() == 0
    assert capsysbinary.readouterr().out == LEDGER_GOLDEN
    monkeypatch.setattr(sys, "argv", ["ctc", "ledger"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsysbinary.readouterr().err.endswith(b"ctc: error: the following arguments are required: inputs\n")


def _reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI was built on, the oracle of ``parse_args``."""
    parser = argparse.ArgumentParser(
        prog="ctc",
        description="exact checks for braided categories, algebra objects, and their modules",
    )
    parser.add_argument(
        "command",
        choices=sorted(["check-category", "check-algebra", "check-module", "condense", "suite", "ledger"]),
        help="what to run; file arguments may be paths or bundled names",
    )
    parser.add_argument("inputs", nargs="+", help="input files or bundled names")
    parser.add_argument("--algebra", help="algebra file for condense", default=None)
    parser.add_argument("--report", choices=("text", "json"), default="text")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0, help="ignored: no check draws random data")
    return parser


def _parsed(parse, argv, capsys):
    """What ``parse`` makes of ``argv``: its values or its exit code, and
    what it wrote to stdout and stderr."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    out = capsys.readouterr()
    return result, out.out, out.err


def _assert_parsers_agree(argvs, capsys):
    reference = _reference_parser()
    for argv in argvs:
        want = _parsed(reference.parse_args, argv, capsys)
        assert _parsed(parse_args, argv, capsys) == want, argv


# the argv forms of this module's tests, with placeholder paths
TEST_ARGVS = [
    ["ledger", "wp_triplet"],
    ["check-category"] + ALL_CATEGORIES + ["--jobs", "4"],
    ["suite", "maschke_2_6", "local_3_1", "counterexamples", "--jobs", "4"],
    ["check-category"] + ALL_CATEGORIES + ["tmp/unknown_labels.json"],
    ["check-category", "ising", "--seed", "1"],
    ["check-algebra", "alg_qz3", "alg_h02", "alg_toric_1e"],
    ["check-module", "mod_toric_m"],
    ["condense", "pointed_z4", "--algebra", "alg_h02"],
    ["condense", "pointed_z4"],
    ["condense", "toric_code", "--algebra", "tmp/dir"],
    ["condense", "tmp/dir", "toric_code", "--algebra", "alg_toric_1e"],
    ["check-category", "tmp/bad.json", "fibonacci"],
    ["check-category", "vec_q"],
    ["check-category", "vec_q", "--jobs", "0"],
    ["no-such-command", "x"],
    ["suite", "maschke_2_6.json"],
    ["suite", "sub/suite.json", "maschke_2_6"],
    ["check-category", "tmp/vec_s3.json", "toric_code", "--seed", "3"],
    ["condense", "toric_code", "pointed_z4", "toric_code", "toric_code", "--algebra", "alg_toric_1e", "--jobs", "4"],
]

# the argparse behaviours the hand parser keeps
EDGE_ARGVS = [
    [],
    ["check-category"],
    ["--seed", "0"],
    ["--jobs", "2", "check-category", "vec_q"],
    ["check-category", "--jobs", "2", "vec_q", "ising"],
    ["check-category", "vec_q", "--jobs", "2", "ising"],
    ["check-category", "-x", "vec_q"],
    ["check-category", "vec_q", "--jobs=2", "--report=json", "--algebra=a", "--seed=7"],
    ["check-category", "vec_q", "--rep", "json", "--j", "3", "--al", "x", "--s=4"],
    ["check-category", "vec_q", "--jobs", "2", "--jobs", "3", "--report", "json", "--report", "text"],
    ["check-category", "vec_q", "--jobs", "-1"],
    ["check-category", "vec_q", "--jobs", "--report", "json"],
    ["check-category", "vec_q", "--algebra"],
    ["check-category", "--", "vec_q"],
    ["--", "check-category", "-x", "--jobs"],
    ["check-category", "vec_q", "--", "--jobs", "2"],
    ["check-category", "--", "--"],
    ["--jobs", "--", "check-category", "x"],
    ["check-category", "vec_q", "--jobs", "2", "--", "x"],
    ["check-category", "-"],
    ["-", "x"],
    ["check-category", "-x"],
    ["check-category", "vec_q", "-x", "ising"],
    ["-x"],
    ["bad", "x"],
    ["check-category", "vec_q", "--report", "xml"],
    ["check-category", "vec_q", "--report="],
    ["check-category", "vec_q", "--jobs", "two"],
    ["check-category", "vec_q", "--seed", "1.5"],
    ["check-category", "vec_q", "--jobs="],
    ["check-category", "vec_q", "--jobs", " 3 ", "--seed", "1_0"],
    ["check-category", "vec_q", "--jobs=--"],
    ["condense", "toric_code", "--algebra=--"],
    ["-h"],
    ["--help"],
    ["--he"],
    ["check-category", "vec_q", "-h"],
    ["bad", "-h"],
    ["-h", "bad"],
    ["--jobs", "x", "-h"],
    ["-hh"],
    ["-hx"],
    ["-hhx"],
    ["-h=x"],
    ["-h=h"],
    ["-h="],
    ["--help=x"],
    ["--help=h"],
    ["--help="],
    ["--=x"],
    ["-h", "--=x"],
    ["check-category", "-1", "-2.5", "-.5"],
    ["check-category", "-1x"],
    ["check-category", "a b", "-x y", "--jobs 2"],
    ["check-category", "vec_q", "--unknown=3", "--foo", "x"],
    ["check-category", "vec_q", "---jobs", "2"],
    ["check-category", ""],
]


@pytest.mark.parametrize("argv", EDGE_ARGVS, ids=lambda argv: " ".join(argv) or "<empty>")
def test_hand_parser_matches_argparse_on_edge_cases(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    _assert_parsers_agree([argv], capsys)


def test_hand_parser_matches_argparse_on_every_test_and_benchmark_argv(tmp_path, monkeypatch, capsys):
    from test_golden import COMMANDS

    monkeypatch.setenv("COLUMNS", "80")
    bench_jobs = Path(__file__).resolve().parent.parent / "bench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("bench_jobs", bench_jobs)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    argvs = [job["argv"] for w in jobs.WORKLOADS for job in jobs.plan(w, 7, tmp_path / w) if job["kind"] == "cli"]
    argvs += [command.split() + ["--report", "json"] for command in COMMANDS.values()]
    argvs += [argv + ["--report", "json"] for argv in TEST_ARGVS]
    argvs += [[command] + [a.format(bad="tmp/bad.json") for a in batch] for command, batch in BATCHES.items()]
    _assert_parsers_agree(argvs, capsys)


def _random_argv(rng, tokens):
    """A command and up to two inputs, up to three option groups spliced in
    at random places, then up to two of ``tokens`` dropped in anywhere."""
    groups = [["--jobs", "2"], ["--report=json"], ["--rep", "text"], ["--algebra", "a"]]
    groups += [["--seed", "-3"], ["--j=4"], ["--"]]
    argv = [rng.choice(["check-category", "condense", "suite"]), "vec_q", "ising"][: rng.randrange(4)]
    for group in rng.sample(groups, rng.randrange(4)):
        at = rng.randrange(len(argv) + 1)
        argv[at:at] = group
    for token in rng.choices(tokens, k=rng.randrange(3)):
        argv.insert(rng.randrange(len(argv) + 1), token)
    return argv


def test_hand_parser_matches_argparse_on_random_argvs(monkeypatch, capsys):
    # about a quarter parse; the rest reach every error message above
    monkeypatch.setenv("COLUMNS", "80")
    tokens = sorted({arg for argv in EDGE_ARGVS for arg in argv})
    rng = random.Random(31)
    _assert_parsers_agree([_random_argv(rng, tokens) for _ in range(3000)], capsys)


def test_help_is_the_argparse_help_at_80_columns_at_any_width(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert _HELP == _reference_parser().format_help()
    monkeypatch.setenv("COLUMNS", "40")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (_HELP, "")


# malformed inputs: each bad file gives one ParseError item, the bundled
# input after it still reports
MALFORMED = {
    "bad-json": b'{"field": ',
    "list": b"[]",
    "string": b'"str"',
    "not-utf8": b'\xff\xfe{"name": "x"}',
    "missing-key": b"{}",
}

BATCHES = {
    "check-category": ["{bad}", "vec_q"],
    "check-algebra": ["{bad}", "alg_qz3"],
    "check-module": ["{bad}", "mod_toric_m"],
    "suite": ["{bad}", "maschke_2_6"],
    "ledger": ["{bad}", "wp_triplet"],
    "condense": ["{bad}", "toric_code", "--algebra", "alg_toric_1e"],
}


def _assert_one_parse_error(out, arg, message=None):
    items = json.loads(out)["items"]
    errors = [i for i in items if i["status"] != "pass"]
    assert [i["check"] for i in errors] == ["load:%s" % arg]
    assert items[0] == errors[0]
    witness = errors[0]["witness"]
    assert set(witness) == {"type", "message"}
    assert witness["type"] == "ParseError"
    if message is not None:
        assert message in witness["message"]
    assert len(items) > 1
    return witness


@pytest.mark.parametrize("command", sorted(BATCHES))
@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_input_is_one_parse_error_and_the_batch_goes_on(tmp_path, capsysbinary, command, kind):
    bad = tmp_path / ("%s.json" % kind)
    bad.write_bytes(MALFORMED[kind])
    argv = [command] + [a.format(bad=bad) for a in BATCHES[command]]
    code, out = run_json(capsysbinary, argv)
    assert code == 2
    witness = _assert_one_parse_error(out, bad)
    if kind == "missing-key":
        assert witness["message"].startswith("missing ") and " key " in witness["message"]
    else:
        assert str(bad) in witness["message"]


# wrong-typed fields of a category file: each gives one ParseError item too
WRONG_TYPED = {
    "labels": ("labels", 5),
    "unit": ("unit", ["1"]),
    "dual": ("dual", 3),
    "fusion": ("fusion", [1]),
    "fusion-entry": ("fusion", [["1", "1", 1]]),
    "F": ("F", [1]),
    "R": ("R", "1"),
    "twist": ("twist", 2),
    "pivot": ("pivot", [["1"]]),
    "literal": ("R", {"sigma,sigma,1": 7}),
    # falsy values of the wrong type are no empty table
    "F-empty-list": ("F", []),
    "R-zero": ("R", 0),
    "twist-empty-string": ("twist", ""),
    "pivot-false": ("pivot", False),
}


@pytest.mark.parametrize("command", ["check-category", "condense"])
@pytest.mark.parametrize("kind", sorted(WRONG_TYPED))
def test_wrong_typed_category_field_is_one_parse_error(tmp_path, capsysbinary, command, kind):
    key, value = WRONG_TYPED[kind]
    raw = json.loads(data_path("categories/ising.json").read_text())
    raw[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out = run_json(capsysbinary, [command] + [a.format(bad=bad) for a in BATCHES[command]])
    assert code == 2
    witness = _assert_one_parse_error(out, bad)
    assert repr(key) in witness["message"] or "literal" in witness["message"]


# field descriptions whose parameter is no JSON integer, each on a category
# whose literals the coerced field would read: (category, field)
NON_INTEGER_FIELDS = {
    "prime-float": ("vec_f2", {"kind": "prime", "p": 2.9}),
    "prime-string": ("vec_f3", {"kind": "prime", "p": "3"}),
    "cyclotomic-float": ("pointed_z4", {"kind": "cyclotomic", "n": 4.5}),
    "cyclotomic-bool": ("vec_q", {"kind": "cyclotomic", "n": True}),
}


@pytest.mark.parametrize("kind", sorted(NON_INTEGER_FIELDS))
def test_non_integer_field_parameter_is_one_parse_error(tmp_path, capsysbinary, kind):
    name, field = NON_INTEGER_FIELDS[kind]
    raw = json.loads(data_path("categories/%s.json" % name).read_text())
    raw["field"] = field
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out = run_json(capsysbinary, ["check-category", str(bad), "vec_q"])
    assert code == 2
    _assert_one_parse_error(out, bad, "bad field description")


# field descriptions outside the range the engine decides in bounded time:
# (category, field, part of the message)
OUT_OF_RANGE_FIELDS = {
    "cyclotomic-huge": ("pointed_z4", {"kind": "cyclotomic", "n": 10**30}, "1 <= n <= 500"),
    "cyclotomic-above-ceiling": ("pointed_z4", {"kind": "cyclotomic", "n": 501}, "1 <= n <= 500"),
    "prime-above-bound": ("vec_f2", {"kind": "prime", "p": 3317044064679887385961981}, "p below"),
}


@pytest.mark.parametrize("kind", sorted(OUT_OF_RANGE_FIELDS))
def test_out_of_range_field_is_one_parse_error_and_the_batch_goes_on(tmp_path, capsysbinary, kind):
    name, field, message = OUT_OF_RANGE_FIELDS[kind]
    raw = json.loads(data_path("categories/%s.json" % name).read_text())
    raw["field"] = field
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out = run_json(capsysbinary, ["check-category", str(bad), "vec_q"])
    assert code == 2
    _assert_one_parse_error(out, bad, message)
    _, alone = run_json(capsysbinary, ["check-category", "vec_q"])
    assert json.loads(out)["items"][1:] == json.loads(alone)["items"]


# wrong-typed fields of the other data files: (command, bundled file, key,
# value, part of the message); each gives one ParseError item as well
ALGEBRA, MODULE, LEDGER = "algebras/alg_qz3.json", "modules/mod_toric_m.json", "ledger/wp_triplet.json"
MASCHKE, LOCAL = "suites/maschke_2_6.json", "suites/local_3_1.json"
WRONG_TYPED_FILES = {
    "algebra-mu": ("check-algebra", ALGEBRA, "mu", 3, "'mu'"),
    "algebra-iota": ("check-algebra", ALGEBRA, "iota", 3, "'iota'"),
    "algebra-object": ("check-algebra", ALGEBRA, "object", 5, "'object'"),
    "algebra-object-bool": ("check-algebra", ALGEBRA, "object", {"1": True}, "'object'"),
    # a multiplicity the engine would try to allocate
    "algebra-object-huge": ("check-algebra", ALGEBRA, "object", {"1": 10**18}, "at most 32 in all"),
    "algebra-object-large": ("check-algebra", ALGEBRA, "object", {"1": 33}, "at most 32 in all"),
    "algebra-counit": ("check-algebra", ALGEBRA, "counit", [["1"]], "'counit'"),
    "algebra-block-row": ("check-algebra", ALGEBRA, "mu", {"1": [1]}, "'mu'"),
    "module-muX": ("check-module", MODULE, "muX", 3, "'muX'"),
    "module-object": ("check-module", MODULE, "object", 5, "'object'"),
    "module-object-huge": ("check-module", MODULE, "object", {"m": 10**18, "f": -(10**18)}, "at most 32 in all"),
    "ledger-knowns": ("ledger", LEDGER, "knowns", [1], "'knowns'"),
    "ledger-symbols": ("ledger", LEDGER, "symbols", 5, "'symbols'"),
    "ledger-projectives": ("ledger", LEDGER, "projectives", 5, "'projectives'"),
    "ledger-relation": ("ledger", LEDGER, "relations", [{"lhs": "V", "rhs": [1]}], "relation 0"),
    "ledger-fraction": ("ledger", LEDGER, "relations", [{"lhs": "V", "rhs": {"W": 1.5, "X": 1}}], "relation 0"),
    "suite-cases": ("suite", MASCHKE, "cases", 5, "'cases'"),
    "suite-case": ("suite", MASCHKE, "cases", [1], "'cases'"),
    "suite-case-group": ("suite", MASCHKE, "cases", [{"category": "vec_q", "group": [1]}], "'group'"),
    "suite-case-labels": ("suite", LOCAL, "cases", [{"category": "toric_code", "labels": 5}], "'labels'"),
    "suite-case-local-sources": (
        "suite", LOCAL, "cases", [{"category": "toric_code", "labels": ["1", "e"], "local_sources": 5}], "'local_sources'"
    ),
}


@pytest.mark.parametrize("kind", sorted(WRONG_TYPED_FILES))
def test_wrong_typed_field_of_other_files_is_one_parse_error(tmp_path, capsysbinary, kind):
    command, name, key, value, message = WRONG_TYPED_FILES[kind]
    raw = json.loads(data_path(name).read_text())
    raw[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out = run_json(capsysbinary, [command] + [a.format(bad=bad) for a in BATCHES[command]])
    assert code == 2
    _assert_one_parse_error(out, bad, message)


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "maschke_2_6"],
        ["ledger", "wp_triplet"],
        ["check-category", "no_such_category"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_input_reports_its_time_on_its_first_item(argv):
    command, arg, algebra = argv[0], argv[1], (argv[2:] or [None])[0]
    items = _job(command, arg, algebra).items
    assert items[0].elapsed > 0
    assert all(i.elapsed == 0 for i in items[1:])


# (command, input, --algebra, the first item of each stage that gives one)
STAGE_FIRSTS = {
    "check-algebra": ("alg_qz3", None, ["alg_qz3/unit-left", "alg_qz3/coproduct-left-right", "alg_qz3/index"]),
    "check-module": ("mod_toric_m", None, ["mod_toric_m/action-unit", "mod_toric_m/is-local"]),
    # category-match gives no item when the algebra lives in the category
    "condense": ("toric_code", "alg_toric_1e", ["alg_toric_1e/index", "alg_toric_1e/induce:1"]),
}


@pytest.mark.parametrize("command", sorted(STAGE_FIRSTS))
def test_each_stage_is_timed_on_its_first_item(command):
    # the files are loaded cold, so each stage does work
    arg, algebra, firsts = STAGE_FIRSTS[command]
    ctc._entry.cache_clear()
    start = time.perf_counter()
    items = _job(command, arg, algebra).items
    elapsed = time.perf_counter() - start
    assert [i.check for i in items if i.elapsed > 0] == firsts
    assert sum(i.elapsed for i in items) <= elapsed


def test_check_algebra_times_a_refused_kit_on_its_error_item(tmp_path):
    # Q x Q: its unit touches both unit summands, so no canonical counit
    raw = {"category": "vec_q", "object": {"1": 2}, "iota": {"1": [["1"], ["1"]]},
           "mu": {"1": [["1", "0", "0", "0"], ["0", "0", "0", "1"]]}}
    path = _write(tmp_path / "q_times_q.json", raw)
    items = _job("check-algebra", str(path), None).items
    assert [(i.check, i.status) for i in items[4:]] == [("q_times_q/frobenius", "error")]
    assert items[0].elapsed > 0 and items[4].elapsed > 0


def _write(path, raw):
    path.write_text(json.dumps(raw))
    return path


def _bundled(name):
    return json.loads(data_path(name).read_text())


def test_algebra_naming_an_unknown_category_is_one_error_item(tmp_path, capsysbinary):
    raw = _bundled("algebras/alg_qz3.json")
    raw["category"] = "no_such_category"
    bad = _write(tmp_path / "alg_orphan.json", raw)
    code, out = run_json(capsysbinary, ["check-algebra", str(bad), "alg_h02"])
    assert code == 2
    _assert_one_parse_error(out, bad, "no file and no bundled categories named 'no_such_category'")


def test_module_naming_an_unknown_algebra_is_one_error_item(tmp_path, capsysbinary):
    raw = _bundled("modules/mod_toric_m.json")
    raw["algebra"] = "no_such_algebra"
    bad = _write(tmp_path / "mod_orphan.json", raw)
    code, out = run_json(capsysbinary, ["check-module", str(bad), "mod_toric_m"])
    assert code == 2
    _assert_one_parse_error(out, bad, "no file and no bundled algebras named 'no_such_algebra'")


def _assert_one_case_error(out, suite, tag, message, alone):
    """``out`` is the report of ``suite`` with one case, ``tag``, refused by
    a ``ParseError`` that says ``message``: one ``<suite>/case:<tag>`` item
    where the case ran, and every other item as in the report ``alone``
    of the manifest without that case."""
    items = json.loads(out)["items"]
    [error] = [i for i in items if i["status"] != "pass"]
    assert error["check"] == "%s/case:%s" % (suite, tag)
    assert error["witness"]["type"] == "ParseError" and message in error["witness"]["message"]
    assert [i for i in items if i is not error] == json.loads(alone)["items"] != []
    return items.index(error)


def test_suite_case_naming_an_unknown_group_is_one_error_item(tmp_path, capsysbinary):
    raw = _bundled("suites/maschke_2_6.json")
    raw["cases"].append({"category": "vec_q", "group": "no_such_group"})
    bad = _write(tmp_path / "suite_orphan.json", raw)
    code, out = run_json(capsysbinary, ["suite", str(bad), "local_3_1"])
    assert code == 2
    _, alone = run_json(capsysbinary, ["suite", "maschke_2_6", "local_3_1"])
    _, maschke = run_json(capsysbinary, ["suite", "maschke_2_6"])
    message = "no file and no bundled groups named 'no_such_group'"
    position = _assert_one_case_error(out, "maschke_2_6", "no_such_group", message, alone)
    # the appended case reports after the bundled cases, before the next manifest
    assert position == len(json.loads(maschke)["items"])


# blocks the carriers do not hold: an unknown label, and rows on a label
# (m for the algebra, e for the module) that the codomain lacks
STRAY_BLOCKS = [
    ("check-algebra", "algebras/alg_toric_1e.json", "mu", "zz", [["1"]], "block 'zz' is not on a label of toric_code"),
    ("check-algebra", "algebras/alg_toric_1e.json", "mu", "m", [["1", "1"]], "expected 0x0"),
    ("check-module", "modules/mod_toric_m.json", "muX", "zz", [], "block 'zz' is not on a label of toric_code"),
    ("check-module", "modules/mod_toric_m.json", "muX", "e", [["1"]], "expected 0x0"),
]


@pytest.mark.parametrize(
    "command, name, key, lab, block, message",
    STRAY_BLOCKS,
    ids=["algebra-unknown-label", "algebra-absent-label", "module-unknown-label", "module-absent-label"],
)
def test_stray_block_is_one_domain_error_item(tmp_path, capsysbinary, command, name, key, lab, block, message):
    raw = _bundled(name)
    raw[key][lab] = block
    bad = _write(tmp_path / "stray.json", raw)
    code, out = run_json(capsysbinary, [command, str(bad)])
    assert code == 2
    [item] = json.loads(out)["items"]
    assert item["check"] == "load:%s" % bad and item["status"] == "error"
    assert item["witness"]["type"] == "DomainMismatch"
    assert message in item["witness"]["message"]


def test_suite_cases_resolve_beside_the_manifest(tmp_path, capsysbinary, monkeypatch):
    sdir = tmp_path / "sdir"
    sdir.mkdir()
    _write(sdir / "myvec.json", _bundled("categories/vec_q.json"))
    _write(sdir / "myz3.json", _bundled("groups/z3.json"))
    _write(sdir / "myalg.json", dict(_bundled("algebras/alg_qz3.json"), category="myvec.json"))
    raw = {
        "name": "mine",
        "kind": "maschke",
        "cases": [{"category": "myvec.json", "group": "myz3.json"}, {"category": "myvec.json", "algebra": "myalg.json"}],
    }
    suite = _write(sdir / "suite.json", raw)
    monkeypatch.chdir(tmp_path)
    code, out = run_json(capsysbinary, ["suite", str(suite.relative_to(tmp_path))])
    assert code == 0
    checks = [i["check"] for i in json.loads(out)["items"]]
    assert "mine/augmentation-splits:myz3.json" in checks and "mine/regular-semisimple:myalg.json" in checks


def test_unreadable_digit_in_a_literal_is_one_parse_error(tmp_path, capsysbinary):
    # "²" is a digit to str.isdigit, but int() cannot read it
    raw = _bundled("categories/toric_code.json")
    raw["R"][sorted(raw["R"])[0]] = "²"
    bad = _write(tmp_path / "toric_superscript.json", raw)
    code, out = run_json(capsysbinary, ["check-category", str(bad), "vec_q"])
    assert code == 2
    _assert_one_parse_error(out, bad, "malformed scalar literal")
    assert all(i["check"].startswith("vec_q/") for i in json.loads(out)["items"][1:])


def test_group_table_entry_that_is_no_name_is_one_parse_error(tmp_path, capsysbinary):
    group = _bundled("groups/z3.json")
    group["table"][1][1] = [group["table"][1][1]]
    _write(tmp_path / "z3_bad.json", group)
    cases = [{"category": "vec_q", "group": "z3_bad.json"}, {"category": "vec_q", "group": "z2"}]
    suite = _write(tmp_path / "suite.json", {"kind": "maschke", "cases": cases})
    (tmp_path / "alone").mkdir()
    alone = _write(tmp_path / "alone" / "suite.json", {"kind": "maschke", "cases": cases[1:]})
    code, out = run_json(capsysbinary, ["suite", str(suite), "maschke_2_6"])
    assert code == 2
    _, rest = run_json(capsysbinary, ["suite", str(alone), "maschke_2_6"])
    assert _assert_one_case_error(out, "suite", "z3_bad.json", "'table'", rest) == 0


# the shape of every case is checked before any case runs, so a malformed
# manifest is one load item even when a good case comes first
GOOD_CASE = {"category": "vec_q", "group": "z2", "expect": "not-commutative"}
SUITES_MISSING_A_KEY = [
    ({"kind": "maschke"}, "missing suite key 'cases'"),
    ({"kind": "maschke", "cases": [GOOD_CASE, {"group": "z2"}]}, "missing suite case key 'category'"),
    ({"kind": "local", "cases": [{"labels": ["1", "e"]}]}, "missing suite case key 'category'"),
    (
        {"kind": "counterexamples", "cases": [{"category": "vec_f2", "group": "z2"}]},
        "missing suite case key 'expect'",
    ),
    (
        {"kind": "counterexamples", "cases": [GOOD_CASE, dict(GOOD_CASE, expect="commutative")]},
        "unknown counterexample expectation 'commutative'",
    ),
    ({"kind": "local", "cases": [GOOD_CASE, {"category": "vec_q"}]}, "suite case needs a group, algebra, or labels key"),
]


def test_suite_manifests_missing_a_key_are_error_items_in_one_batch(tmp_path, capsysbinary):
    paths = [_write(tmp_path / ("m%d.json" % k), raw) for k, (raw, _) in enumerate(SUITES_MISSING_A_KEY)]
    code, out = run_json(capsysbinary, ["suite"] + [str(p) for p in paths] + ["maschke_2_6"])
    assert code == 2
    items = json.loads(out)["items"]
    errors = items[: len(paths)]
    assert [i["check"] for i in errors] == ["load:%s" % p for p in paths]
    assert [i["witness"] for i in errors] == [
        {"type": "ParseError", "message": message} for _, message in SUITES_MISSING_A_KEY
    ]
    rest = items[len(paths):]
    assert rest and all(i["check"].startswith("maschke_2_6/") and i["status"] == "pass" for i in rest)


def test_suite_name_with_json_suffix_is_the_bundled_suite(capsysbinary):
    code, named = run_json(capsysbinary, ["suite", "maschke_2_6"])
    _, suffixed = run_json(capsysbinary, ["suite", "maschke_2_6.json"])
    assert code == 0
    assert suffixed == named


def test_check_category_evaluates_no_morphism(monkeypatch, capsysbinary):
    # naturality holds for any data, so no sweep builds a braiding, an
    # associator, a tensor product or a composite of morphisms; each is
    # counted under every ctc module that binds it
    calls = []
    for name in ("compose", "tensor_mor", "braiding", "associator"):
        real = getattr(category, name)
        counted = lambda *args, real=real, name=name: calls.append(name) or real(*args)
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "ctc"]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    code, _ = run_json(capsysbinary, ["check-category"] + ALL_CATEGORIES)
    assert code == 0
    assert calls == []


def test_check_category_on_a_path_costs_two_stats_and_no_link_walk(tmp_path, monkeypatch, capsysbinary):
    # one stat to resolve the path and one for the file's identity; with
    # the file in the memo, no lstat and no realpath
    path = tmp_path / "toric.json"
    path.write_bytes(data_path("categories/toric_code.json").read_bytes())
    argv = ["check-category", str(path), "--report", "json"]
    assert main(argv) == 0
    package = os.path.dirname(ctc.__file__)
    calls = Counter()

    def counted(name, func):
        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and not frame.f_code.co_filename.startswith(package):
                frame = frame.f_back
            if frame is not None:
                calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for module, name in ((os, "stat"), (os, "lstat"), (os.path, "realpath")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(argv) == 0
    capsysbinary.readouterr()
    assert calls["stat"] <= 2 and calls["lstat"] == calls["realpath"] == 0, calls


def _vec_s3_file(tmp_path):
    return _write(tmp_path / "vec_s3.json", vec_s3_json())


def test_check_category_bytes_do_not_depend_on_the_seed(tmp_path, capsysbinary):
    vec_s3 = str(_vec_s3_file(tmp_path))
    outs = [run_json(capsysbinary, ["check-category", vec_s3, "toric_code", "--seed", str(seed)]) for seed in range(10)]
    assert [code for code, _ in outs] == [1] * 10
    assert [out for _, out in outs] == [outs[0][1]] * 10
    items = json.loads(outs[0][1])["items"]
    assert any(i["check"].startswith("vec_s3/hexagon-") and i["status"] == "fail" for i in items)
    assert items[-1] == {"check": "toric_code/naturality-probe", "status": "pass", "witness": None}


def test_algebra_on_noncommuting_fusion_is_one_error_item(tmp_path, capsysbinary):
    # e + r + s in Vec(S3), with the products that land in it; r (x) s is
    # sr2 but s (x) r is sr, so A (x) A has no braiding
    _vec_s3_file(tmp_path)
    raw = {
        "category": "vec_s3.json",
        "object": {"e": 1, "r": 1, "s": 1},
        "iota": {"e": [["1"]]},
        "mu": {lab: [["1", "1"]] for lab in ("e", "r", "s")},
    }
    bad = _write(tmp_path / "alg_s3.json", raw)
    code, out = run_json(capsysbinary, ["check-algebra", str(bad), "alg_qz3"])
    assert code == 2
    items = json.loads(out)["items"]
    # the file loads; the axioms stage refuses to braid A (x) A
    assert items[0]["check"] == "alg_s3/axioms" and items[0]["status"] == "error"
    assert items[0]["witness"]["type"] == "FusionDataError"
    assert "does not commute" in items[0]["witness"]["message"]
    _, alone = run_json(capsysbinary, ["check-algebra", "alg_qz3"])
    assert items[1:] == json.loads(alone)["items"]


SOLVES = ("rref", "rank", "solve", "nullspace", "inverse", "image_factorization")


def test_bundled_commands_pass_sparse_rows_to_every_solve(monkeypatch, capsysbinary):
    # the bundled suites, check-category on every bundled category and both
    # bundled condense pairs; the file memo is emptied, so every recoupling
    # block is inverted afresh
    ctc._entry.cache_clear()
    calls, dense = set(), []

    def guard(name, solve):
        def guarded(*args):
            calls.add(name)
            for arg in args:
                if isinstance(arg, list) and not all(isinstance(row, dict) for row in arg):
                    dense.append(name)
            return solve(*args)

        return guarded

    for name in SOLVES:
        monkeypatch.setattr(la, name, guard(name, getattr(la, name)))
    argvs = [
        ["suite", "maschke_2_6", "local_3_1", "counterexamples"],
        ["check-category"] + ALL_CATEGORIES,
        ["condense", "toric_code", "--algebra", "alg_toric_1e"],
        ["condense", "pointed_z4", "--algebra", "alg_h02"],
    ]
    for argv in argvs:
        assert main(argv + ["--report", "json"]) == 0
    capsysbinary.readouterr()
    assert calls >= {"inverse", "rank", "image_factorization"}
    assert dense == []


def test_condense_refuses_a_same_named_category_with_other_data(tmp_path, capsysbinary):
    # a copy of toric_code under its bundled name, with one R entry flipped:
    # the algebra lives in the bundled file, not in this one
    raw = _bundled("categories/toric_code.json")
    raw["R"]["e,m,f"] = scalar_literal(-parse_scalar(raw["R"]["e,m,f"], FieldSpec.from_json(raw["field"])))
    copy = _write(tmp_path / "toric_code.json", raw)
    code, _ = run_json(capsysbinary, ["check-category", str(copy)])
    assert code == 1
    code, out = run_json(capsysbinary, ["condense", str(copy), "--algebra", "alg_toric_1e"])
    assert code == 2
    [item] = json.loads(out)["items"]
    assert item["check"] == "alg_toric_1e/category-match" and item["status"] == "error"
    code, _ = run_json(capsysbinary, ["condense", "toric_code", "--algebra", "alg_toric_1e"])
    assert code == 0


@pytest.mark.parametrize(
    "kind, category, algebra, other",
    [
        ("local", "ising", "alg_toric_1e", {"category": "toric_code", "algebra": "alg_toric_1e", "simple_classes": 2}),
        ("maschke", "fibonacci", "alg_h02", {"category": "vec_q", "group": "z2"}),
    ],
)
def test_a_suite_case_outside_its_algebras_category_is_one_error_item(tmp_path, capsysbinary, kind, category,
                                                                        algebra, other):
    (tmp_path / "alone").mkdir()
    mixed = _write(tmp_path / "mixed.json", {"kind": kind, "cases": [{"category": category, "algebra": algebra}, other]})
    alone = _write(tmp_path / "alone" / "mixed.json", {"kind": kind, "cases": [other]})
    code, out = run_json(capsysbinary, ["suite", str(mixed)])
    assert code == 2
    first, *rest = json.loads(out)["items"]
    _, condensed = run_json(capsysbinary, ["condense", category, "--algebra", algebra])
    [refused] = json.loads(condensed)["items"]
    assert refused["check"] == "%s/category-match" % algebra
    assert first == {"check": "mixed/case:%s" % algebra, "status": "error", "witness": refused["witness"]}
    # the other case runs as it runs alone
    assert run_json(capsysbinary, ["suite", str(alone)]) == (0, json.dumps({"items": rest}, sort_keys=True,
                                                                            separators=(",", ":")).encode() + b"\n")


def test_a_refused_local_case_leaves_the_other_cases_of_its_manifest(tmp_path, capsysbinary):
    # alg_qz3's table is short of dim C / d(A), so condense refuses its case
    toric = {"category": "toric_code", "algebra": "alg_toric_1e", "simple_classes": 2, "local_classes": 1,
             "local_sources": ["1", "e"]}
    (tmp_path / "alone").mkdir()
    mixed = _write(tmp_path / "mixed.json", {"kind": "local", "cases": [{"category": "vec_q", "algebra": "alg_qz3"},
                                                                         toric]})
    alone = _write(tmp_path / "alone" / "mixed.json", {"kind": "local", "cases": [toric]})
    code, out = run_json(capsysbinary, ["suite", str(mixed)])
    assert code == 2
    first, *rest = json.loads(out)["items"]
    message = "the 0 classes give sum (d(M)/d(A))^2 = 0, but dim C / d(A) = 1/3"
    assert first == {"check": "mixed/case:alg_qz3", "status": "error",
                     "witness": {"type": "CondensationIncomplete", "message": message}}
    # the toric case reports exactly as it does alone
    code, out = run_json(capsysbinary, ["suite", str(alone)])
    assert code == 0 and rest == json.loads(out)["items"] != []


def test_an_algebra_is_rebuilt_when_its_category_file_changes(tmp_path, capsysbinary):
    raw = _bundled("categories/toric_code.json")
    cat = _write(tmp_path / "toric.json", raw)
    alg_path = _write(tmp_path / "alg.json", dict(_bundled("algebras/alg_toric_1e.json"), category="toric.json"))
    first = load_algebra(alg_path)
    assert load_algebra(alg_path) is first and first.spec is load_category(cat)
    _rewrite(cat, dict(raw, name="toric-2"))
    second = load_algebra(alg_path)
    assert second is not first and second.spec is load_category(cat)
    assert second.spec.name == "toric-2"
    code, out = run_json(capsysbinary, ["condense", str(cat), "--algebra", str(alg_path)])
    assert code == 0 and "category-match" not in out.decode()


def test_a_module_is_rebuilt_when_its_algebra_file_changes(tmp_path):
    raw = dict(_bundled("algebras/alg_toric_1e.json"), name="alg-1")
    alg_path = _write(tmp_path / "alg.json", raw)
    mod_path = _write(tmp_path / "mod.json", dict(_bundled("modules/mod_toric_m.json"), algebra="alg.json"))
    first = load_module(mod_path)
    assert load_module(mod_path) is first and first.alg is load_algebra(alg_path)
    _rewrite(alg_path, dict(raw, name="alg-22"))
    second = load_module(mod_path)
    assert second is not first and second.alg is load_algebra(alg_path)
    assert second.alg.name == "alg-22"
    assert second.alg.spec is first.alg.spec


def _rewrite(path, raw):
    """Write ``raw`` over ``path``, one second later than its last write."""
    st = path.stat()
    _write(path, raw)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


def test_suite_after_condense_solves_no_kit_and_builds_no_action_algebra_for_the_condensed_algebra(
    monkeypatch, capsysbinary
):
    ctc._entry.cache_clear()
    assert run_json(capsysbinary, ["condense", "toric_code", "--algebra", "alg_toric_1e"])[0] == 0
    solved, spun = [], []
    solve, build = algebra_mod.solve_coevaluation, modules_mod.action_algebra

    def solving(alg, counit):
        solved.append(alg.name)
        return solve(alg, counit)

    def building(mod):
        if mod._aa is None:
            spun.append(mod.alg.name)
        return build(mod)

    monkeypatch.setattr(algebra_mod, "solve_coevaluation", solving)
    monkeypatch.setattr(modules_mod, "action_algebra", building)
    assert run_json(capsysbinary, ["suite", "local_3_1"])[0] == 0
    # the other case of the suite was not condensed before, and is counted
    assert set(solved) == set(spun) == {"alg_h02"}


def test_a_warm_suite_batch_reads_only_its_manifests(monkeypatch, capsysbinary):
    argv = ["suite", "maschke_2_6", "local_3_1", "counterexamples"]
    reads, walks = [], []
    read_json, realpath = ctc.read_json, os.path.realpath
    monkeypatch.setattr(ctc, "read_json", lambda path: reads.append(Path(path)) or read_json(path))
    monkeypatch.setattr(os.path, "realpath", lambda path, *args, **kw: walks.append(path) or realpath(path, *args, **kw))
    ctc._entry.cache_clear()
    assert run_json(capsysbinary, argv)[0] == 0
    # 3 manifests, 5 categories, 3 groups and 2 algebras, each read once
    assert len(reads) == len(set(reads)) == len(walks) == 13
    reads.clear()
    walks.clear()
    assert run_json(capsysbinary, argv)[0] == 0
    assert [p.parent.name for p in reads] == ["suites"] * 3
    assert len(walks) == 3


# for each kind of data file: its command, a bundled file of that kind,
# and a bundled input that runs after it in the same batch
NAMED_KINDS = {
    "category": ("check-category", "categories/vec_q.json", "vec_q"),
    "algebra": ("check-algebra", "algebras/alg_qz3.json", "alg_qz3"),
    "module": ("check-module", "modules/mod_toric_m.json", "mod_toric_m"),
    "group": ("suite", "groups/z3.json", "maschke_2_6"),
    "ledger": ("ledger", "ledger/wp_triplet.json", "wp_triplet"),
    "suite": ("suite", "suites/maschke_2_6.json", "maschke_2_6"),
}


@pytest.mark.parametrize("kind", sorted(NAMED_KINDS))
def test_a_name_that_is_no_string_is_one_parse_error_in_every_kind(tmp_path, capsysbinary, kind):
    command, name, after = NAMED_KINDS[kind]
    bad = _write(tmp_path / "named.json", dict(_bundled(name), name={"a": 1}))
    if kind == "group":
        cases = [{"category": "vec_q", "group": "named.json"}]
        bad = _write(tmp_path / "suite.json", {"kind": "maschke", "cases": cases})
    code, out = run_json(capsysbinary, [command, str(bad), after])
    assert code == 2
    message = "'name' of %s must be a string" % (tmp_path / "named.json")
    if kind == "group":
        # the group file is the case's, not the command's: one case item
        _, alone = run_json(capsysbinary, [command, after])
        _assert_one_case_error(out, "suite", "named.json", message, alone)
    else:
        _assert_one_parse_error(out, bad, message)


def test_linked_suites_and_groups_follow_the_link_to_their_target(tmp_path, capsysbinary):
    sdir = tmp_path / "sdir"
    sdir.mkdir()
    _write(sdir / "myvec.json", _bundled("categories/vec_q.json"))
    _write(sdir / "myalg.json", dict(_bundled("algebras/alg_qz3.json"), category="myvec.json"))
    _write(sdir / "mysuite.json", {"kind": "maschke", "cases": [{"category": "myvec.json", "algebra": "myalg.json"}]})
    group = _bundled("groups/z3.json")
    del group["name"]
    _write(sdir / "mygrp.json", group)
    (tmp_path / "linksuite.json").symlink_to(sdir / "mysuite.json")
    (tmp_path / "linkgrp.json").symlink_to(sdir / "mygrp.json")
    # the cases resolve beside the manifest the link leads to, and the
    # nameless suite is named after it
    code, out = run_json(capsysbinary, ["suite", str(tmp_path / "linksuite.json")])
    assert code == 0
    checks = [i["check"] for i in json.loads(out)["items"]]
    assert "mysuite/regular-semisimple:myalg.json" in checks
    assert load_group(tmp_path / "linkgrp.json").name == "mygrp"


def test_the_cli_loads_every_category_through_load_category(monkeypatch, capsysbinary):
    calls = []
    real = category.load_category
    spy = lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs)
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "ctc"]:
        if getattr(module, "load_category", None) is real:
            monkeypatch.setattr(module, "load_category", spy)
    # a memo hit on the algebra checks its category through the file memo,
    # not through load_category, so the algebra must be a miss
    ctc._entry.cache_clear()
    code, _ = run_json(capsysbinary, ["check-category"] + ALL_CATEGORIES)
    assert code == 0
    assert len(calls) == len(ALL_CATEGORIES)
    calls.clear()
    # one for the argument, one for the algebra's reference
    code, _ = run_json(capsysbinary, ["condense", "toric_code", "--algebra", "alg_toric_1e"])
    assert code == 0
    assert len(calls) == 2


def test_threads_that_miss_one_category_at_once_share_one_instance(monkeypatch, capsysbinary):
    # condense compares categories by identity, so a --jobs run whose
    # threads load one file at once must still get one instance of it
    real = category.category_from_json

    def slow(*args, **kwargs):
        time.sleep(0.02)
        return real(*args, **kwargs)

    monkeypatch.setattr(category, "category_from_json", slow)
    argv = ["condense", "toric_code", "pointed_z4", "toric_code", "toric_code", "--algebra", "alg_toric_1e"]
    ctc._entry.cache_clear()
    serial = run_json(capsysbinary, argv)
    assert [i["check"] for i in json.loads(serial[1])["items"] if i["status"] == "error"] == [
        "alg_toric_1e/category-match"
    ]
    ctc._entry.cache_clear()
    assert run_json(capsysbinary, argv + ["--jobs", "4"]) == serial
