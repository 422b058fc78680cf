"""Runner behavior: golden bytes, parallel determinism, exit codes."""

import argparse
import concurrent.futures
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ctc
from ctc import category, data_path
from ctc import linalg as la
from ctc.category import load_category
from ctc.cli import _job, _rand_scalar, _run_check_category, main
from ctc.fields import FieldSpec, Scalar, parse_scalar, scalar_literal
from ctc.report import Item, Report
from test_fields import zeta

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


def test_condense_requires_algebra_flag(capsys):
    assert main(["condense", "pointed_z4"]) == 2


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


def test_unreadable_algebra_for_condense_is_an_error_item(tmp_path, capsysbinary):
    code, out = run_json(capsysbinary, ["condense", "toric_code", "--algebra", str(tmp_path)])
    assert code == 2
    items = json.loads(out)["items"]
    assert [(i["check"], i["status"]) for i in items] == [("load:toric_code", "error")]


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
    report = _run_check_category(Path(data_path("categories/ising.json")), seed=0)
    sweeps = ["pentagon", "hexagon", "triangle", "zigzag", "naturality-probe"]
    assert [i.check for i in report.items] == ["ising/" + name for name in sweeps]
    assert all(i.elapsed > 0 for i in report.items)


def test_jobs_validation(capsys):
    assert main(["check-category", "vec_q", "--jobs", "0"]) == 2


def test_parser_is_built_once_per_process(monkeypatch, capsysbinary):
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


# wrong-typed fields of the other data files: (command, bundled file, key,
# value, part of the message); each gives one ParseError item as well
ALGEBRA, MODULE, LEDGER = "algebras/alg_qz3.json", "modules/mod_toric_m.json", "ledger/wp_triplet.json"
MASCHKE, LOCAL = "suites/maschke_2_6.json", "suites/local_3_1.json"
WRONG_TYPED_FILES = {
    "algebra-mu": ("check-algebra", ALGEBRA, "mu", 3, "'mu'"),
    "algebra-iota": ("check-algebra", ALGEBRA, "iota", 3, "'iota'"),
    "algebra-object": ("check-algebra", ALGEBRA, "object", 5, "'object'"),
    "algebra-object-bool": ("check-algebra", ALGEBRA, "object", {"1": True}, "'object'"),
    "algebra-counit": ("check-algebra", ALGEBRA, "counit", [["1"]], "'counit'"),
    "algebra-block-row": ("check-algebra", ALGEBRA, "mu", {"1": [1]}, "'mu'"),
    "module-muX": ("check-module", MODULE, "muX", 3, "'muX'"),
    "module-object": ("check-module", MODULE, "object", 5, "'object'"),
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
        ["check-algebra", "alg_qz3"],
        ["check-module", "mod_toric_m"],
        ["condense", "toric_code", "alg_toric_1e"],
        ["suite", "maschke_2_6"],
        ["ledger", "wp_triplet"],
        ["check-category", "no_such_category"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_input_reports_its_time_on_its_first_item(argv):
    command, arg, algebra = argv[0], argv[1], (argv[2:] or [None])[0]
    items = _job(command, arg, algebra, 0).items
    assert items[0].elapsed > 0
    assert all(i.elapsed == 0 for i in items[1:])


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


def test_suite_case_naming_an_unknown_group_is_one_error_item(tmp_path, capsysbinary):
    raw = _bundled("suites/maschke_2_6.json")
    raw["cases"].append({"category": "vec_q", "group": "no_such_group"})
    bad = _write(tmp_path / "suite_orphan.json", raw)
    code, out = run_json(capsysbinary, ["suite", str(bad), "local_3_1"])
    assert code == 2
    _assert_one_parse_error(out, bad, "no file and no bundled groups named 'no_such_group'")


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
    suite = _write(tmp_path / "suite.json", {"kind": "maschke", "cases": [{"category": "vec_q", "group": "z3_bad.json"}]})
    code, out = run_json(capsysbinary, ["suite", str(suite), "maschke_2_6"])
    assert code == 2
    _assert_one_parse_error(out, suite, "'table'")
    assert all(i["check"].startswith("maschke_2_6/") for i in json.loads(out)["items"][1:])


SUITES_MISSING_A_KEY = [
    ({"kind": "maschke"}, "missing suite key 'cases'"),
    ({"kind": "maschke", "cases": [{"group": "z2"}]}, "missing suite case key 'category'"),
    ({"kind": "local", "cases": [{"labels": ["1", "e"]}]}, "missing suite case key 'category'"),
    (
        {"kind": "counterexamples", "cases": [{"category": "vec_f2", "group": "z2"}]},
        "missing suite case key 'expect'",
    ),
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


def _summed_rand_scalar(rng, field):
    """The probe's random scalar with the same draws as ``_rand_scalar``, a
    cyclotomic one as a sum of scaled powers of zeta."""
    if field.kind == "rational":
        return Scalar.from_fraction(field, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    if field.kind == "prime":
        return Scalar.from_int(field, rng.randrange(field.p))
    acc = Scalar.zero(field)
    for k in range(min(field.degree, 3)):
        c = rng.randint(-3, 3)
        if c:
            acc = acc + zeta(field, k).scale(c)
    return acc


PROBE_FIELDS = sorted(
    {load_category(data_path("categories/%s.json" % name)).field for name in ALL_CATEGORIES}
    | {FieldSpec.cyclotomic(n) for n in range(1, 17)},
    key=lambda f: (f.kind, f.p or 0, f.n or 0),
)


@pytest.mark.parametrize("field", PROBE_FIELDS, ids=lambda f: "%s-%s" % (f.kind, f.p or f.n))
def test_rand_scalar_equals_the_summed_powers(field):
    for seed in range(120):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        for _ in range(4):
            got, want = _rand_scalar(got_rng, field), _summed_rand_scalar(want_rng, field)
            assert got == want and got._v == want._v
        assert got_rng.getstate() == want_rng.getstate()


def test_naturality_probe_builds_each_map_once_per_trial(monkeypatch):
    import ctc.cli as cli_mod

    calls = []
    for name in ("braiding", "tensor_mor"):
        real = getattr(cli_mod, name)
        monkeypatch.setattr(cli_mod, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    report = cli_mod._naturality_probe(load_category(data_path("categories/ising.json")), seed=3)
    assert [item.status for item in report.items] == ["pass"] * 6
    # per trial: one braiding; f (x) g, g (x) f, (f (x) g) (x) h, g (x) h and f (x) (g (x) h)
    assert calls.count("braiding") == 3
    assert calls.count("tensor_mor") == 15


SOLVES = ("rref", "rank", "solve", "nullspace", "inverse", "image_factorization")


def test_bundled_commands_pass_sparse_rows_to_every_solve(monkeypatch, capsysbinary):
    # the bundled suites, check-category on every bundled category and both
    # bundled condense pairs; the category cache is emptied, so every
    # recoupling block is inverted afresh
    monkeypatch.setattr(category, "_CATEGORY_CACHE", {})
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
