"""The data boundary: how a reference becomes a file, and a file a dict."""

import json
import os
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


def _walking_read(found):
    """``DataFile.read`` as it was when every read walked the file's links
    first: the oracle of the reader that walks them only for the folder,
    a missing name or a failed read."""
    target = Path(os.path.realpath(found.path))
    raw = read_json(target)
    name = raw.get("name", target.stem)
    if not isinstance(name, str):
        raise ParseError("key 'name' of %s must be a string" % target)
    return raw, name, target.parent


def _outcome(read, found):
    """What ``read`` gives for ``found``: ``(raw, name, folder)``, or the
    message of its ``ParseError``."""
    try:
        return read(found)
    except ParseError as exc:
        return "ParseError: %s" % exc


def _lazy_read(found):
    return (*found.read(), found.folder)


def _reads_alike(kind, ref):
    want = _outcome(_walking_read, DataFile(kind, ref))
    assert _outcome(_lazy_read, DataFile(kind, ref)) == want
    return want


BUNDLED_FILES = sorted(str(p.relative_to(data_path())) for p in data_path().glob("*/*.json"))


@pytest.mark.parametrize("ref", BUNDLED_FILES)
def test_every_bundled_file_reads_as_the_walking_reader_reads_it(ref):
    kind = ref.split("/")[0]
    raw, name, folder = _reads_alike(kind, data_path(ref))
    assert folder == data_path(kind)
    assert _reads_alike(kind, Path(ref).stem) == (raw, name, folder)


@pytest.mark.parametrize("kind", sorted({ref.split("/")[0] for ref in BUNDLED_FILES}))
def test_links_to_a_file_of_every_kind_read_as_the_walking_reader_reads_them(tmp_path, kind):
    ref = next(ref for ref in BUNDLED_FILES if ref.startswith(kind + "/"))
    (tmp_path / "link.json").symlink_to(data_path(ref))
    # a relative link to that link, and a linked folder
    (tmp_path / "chain.json").symlink_to("link.json")
    (tmp_path / "folder").symlink_to(data_path(kind), target_is_directory=True)
    for link in ("link.json", "chain.json", "folder/" + Path(ref).name):
        raw, name, folder = _reads_alike(kind, tmp_path / link)
        assert folder == data_path(kind)


def _named(path, *name):
    """A copy of ``vec_q`` at ``path`` with the ``name`` given, or none."""
    raw = json.loads(data_path("categories/vec_q.json").read_text())
    del raw["name"]
    raw.update({"name": name[0]} if name else {})
    path.write_text(json.dumps(raw))


def test_a_nameless_file_through_a_link_reads_as_the_walking_reader_reads_it(tmp_path):
    _named(tmp_path / "target_cat.json")
    (tmp_path / "alias.json").symlink_to(tmp_path / "target_cat.json")
    assert _reads_alike("categories", tmp_path / "alias.json")[1] == "target_cat"


@pytest.mark.parametrize("name", [7, None, ["vec_q"]], ids=["int", "null", "list"])
def test_a_name_that_is_no_string_is_refused_naming_the_target(tmp_path, name):
    # a null name is a name that is no string, not a missing one
    _named(tmp_path / "target_cat.json", name)
    (tmp_path / "alias.json").symlink_to(tmp_path / "target_cat.json")
    message = _reads_alike("categories", tmp_path / "alias.json")
    assert message == "ParseError: key 'name' of %s must be a string" % (tmp_path / "target_cat.json")


@pytest.mark.parametrize("content", [b"{", b"[1]", b"\xff"], ids=["truncated", "list", "not-utf8"])
def test_bad_json_through_a_link_is_refused_naming_the_target(tmp_path, content):
    (tmp_path / "target.json").write_bytes(content)
    (tmp_path / "alias.json").symlink_to(tmp_path / "target.json")
    message = _reads_alike("categories", tmp_path / "alias.json")
    assert message.startswith("ParseError: bad JSON in %s: " % (tmp_path / "target.json"))


def test_a_file_gone_after_it_was_found_is_refused_naming_the_target(tmp_path):
    _named(tmp_path / "target.json", "gone")
    (tmp_path / "alias.json").symlink_to(tmp_path / "target.json")
    old, new = DataFile("categories", tmp_path / "alias.json"), DataFile("categories", tmp_path / "alias.json")
    (tmp_path / "target.json").unlink()
    message = _outcome(_walking_read, old)
    assert message.startswith("ParseError: cannot read %s: " % (tmp_path / "target.json"))
    assert _outcome(_lazy_read, new) == message


def test_a_named_file_reads_without_walking_a_link(tmp_path, monkeypatch):
    _named(tmp_path / "target.json", "named")
    (tmp_path / "alias.json").symlink_to(tmp_path / "target.json")
    walks = []
    realpath = os.path.realpath
    monkeypatch.setattr(os.path, "realpath", lambda path, *args, **kw: walks.append(path) or realpath(path, *args, **kw))
    found = DataFile("categories", tmp_path / "alias.json")
    assert found.read()[1] == "named"
    assert walks == []
    # the folder is the target's
    assert found.folder == tmp_path
    assert len(walks) == 1
