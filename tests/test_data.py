"""The data boundary: how a reference becomes a file, and a file a dict."""

import json
import re
from pathlib import Path

import pytest

import ctc
from ctc import DataFile, data_path, read_json
from ctc.algebra import load_algebra
from ctc.category import load_category
from ctc.fields import ParseError


def _copy_category(path, name):
    raw = json.loads(data_path("categories/vec_q.json").read_text())
    raw["name"] = name
    path.write_text(json.dumps(raw))


def test_reference_inside_a_file_resolves_beside_it(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    elsewhere = tmp_path / "elsewhere"
    sub.mkdir()
    elsewhere.mkdir()
    _copy_category(sub / "local_cat.json", "beside")
    # a file of the same name in the working directory does not win
    _copy_category(elsewhere / "local_cat.json", "in_cwd")
    raw = json.loads(data_path("algebras/alg_qz3.json").read_text())
    raw["category"] = "local_cat.json"
    (sub / "alg.json").write_text(json.dumps(raw))
    monkeypatch.chdir(elsewhere)
    assert load_algebra(sub / "alg.json").spec.name == "beside"
    assert load_algebra("../sub/alg.json").spec.name == "beside"


def test_bundled_name_and_path_load_the_same_algebra():
    by_name = load_algebra("alg_qz3")
    by_path = load_algebra(data_path("algebras/alg_qz3.json"))
    assert by_name.mult_map.to_json() == by_path.mult_map.to_json()


def test_bundled_name_and_path_share_one_category_cache_entry():
    assert load_category("fibonacci") is load_category(data_path("categories/fibonacci.json"))


def test_missing_name_names_the_kind_and_the_ref():
    with pytest.raises(ParseError, match="no file and no bundled categories named 'nope'"):
        DataFile("categories", "nope")


def test_directory_does_not_shadow_a_bundled_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "vec_q").mkdir()
    (tmp_path / "vec_q.json").mkdir()
    assert Path(DataFile("categories", "vec_q").path) == data_path("categories/vec_q.json")
    assert Path(DataFile("categories", "vec_q.json").path) == data_path("categories/vec_q.json")


@pytest.mark.parametrize(
    "content, message",
    [
        (b"{", "bad JSON in"),
        (b"[1]", "top level is list, not an object"),
        (b"\xff", "bad JSON in"),
    ],
)
def test_read_json_refuses_with_the_path(tmp_path, content, message):
    path = tmp_path / "f.json"
    path.write_bytes(content)
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        read_json(path)
    assert str(path) in str(info.value)


def test_read_json_turns_a_read_failure_into_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match=re.escape("cannot read %s" % tmp_path)):
        read_json(tmp_path)


def test_only_the_package_root_reads_or_resolves_data_files():
    """Reading, link resolution, naming and required keys belong to
    ``ctc/__init__.py``; no loader grows its own reader, resolver, name
    rule or missing-key message."""
    root = Path(ctc.__file__).resolve().parent
    needles = ("read_text(", "json.load", "data_path(", "read_json(", "realpath(", ".resolve()", 'get("name"',
               "except KeyError")
    offenders = [
        "%s: %s" % (path.name, needle)
        for path in sorted(root.glob("*.py"))
        if path.name != "__init__.py"
        for needle in needles
        if needle in path.read_text()
    ]
    assert offenders == []
