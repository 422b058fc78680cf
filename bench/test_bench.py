"""Self-tests of the benchmark's own code: generators, oracle, span arithmetic.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
from pathlib import Path

import pytest

import jobs
import run_bench
import spans
from ctc.algebra import Group
from ctc.category import load_category

SEEDS = [0, 1, 7, 12345]


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_groups_validate(seed):
    names = set(jobs.MASCHKE_GROUPS) | {g for gs in jobs.MODULAR_GROUPS.values() for g in gs}
    for name in sorted(names):
        raw = jobs.group_table(name, seed)
        group = Group(raw["name"], raw["elements"], raw["table"])
        assert len(group) == ({"z2xz2": 4, "s3": 6}.get(name) or int(name[1:]))
        assert jobs.group_table(name, seed) == raw


def test_seed_relabels_and_reorders():
    tables = {json.dumps(jobs.group_table("z6", seed)) for seed in SEEDS}
    assert len(tables) == len(SEEDS)


def test_s3_is_not_abelian():
    raw = jobs.group_table("s3", 3)
    group = Group(raw["name"], raw["elements"], raw["table"])
    assert any(group.mul(a, b) != group.mul(b, a) for a in group.elements for b in group.elements)


def test_every_mutant_loads_and_differs_in_one_entry(tmp_path):
    paths = jobs.mutants(tmp_path)
    assert len(paths) == 34
    for path in paths:
        mutant = load_category(path)
        cat = next(c for c in jobs.MUTATED_CATEGORIES if path.stem.startswith(c + "_"))
        base = load_category(jobs.DATA / "categories" / ("%s.json" % cat))
        diff = [k for k in set(base.F) | set(mutant.F) if base.f_symbol(*k) != mutant.f_symbol(*k)]
        diff += [k for k in set(base.R) | set(mutant.R) if base.r_symbol(*k) != mutant.r_symbol(*k)]
        assert len(diff) == 1, path.stem
        key = diff[0]
        old = base.f_symbol(*key) if len(key) == 6 else base.r_symbol(*key)
        new = mutant.f_symbol(*key) if len(key) == 6 else mutant.r_symbol(*key)
        assert new == -old


def test_plans_carry_expected_verdicts(tmp_path):
    sizes = {"maschke_q": 8, "modular_fp": 17, "braided": 49}
    for workload, size in sizes.items():
        plan = jobs.plan(workload, 5, tmp_path)
        assert len(plan) == size
        assert len({job["id"] for job in plan}) == size
        assert all("expect" in job for job in plan)
    modular = {job["id"]: job["expect"]["regular_semisimple"] for job in jobs.plan("modular_fp", 5, tmp_path)
               if job["kind"] == "modular"}
    assert modular["semisimple:F2[z9]"] and not modular["semisimple:F2[z10]"]
    assert not modular["semisimple:F3[z9]"] and modular["semisimple:F3[z5]"]


def _outcome(verdict, digest="d0", error=None):
    return {"s": 0.1, "verdict": verdict, "error": error, "digest": digest}


def test_oracle_flags_wrong_verdict_and_byte_difference():
    plan = [
        {"id": "a", "kind": "cli", "expect": "pass"},
        {"id": "b", "kind": "cli", "expect": "fail"},
    ]
    clean = [[_outcome("pass", "x"), _outcome("fail", "y")]] * 2
    judged = jobs.judge_passes(plan, clean)
    assert judged == {"attempted": 4, "failed": 0, "correct": True, "failures": []}

    wrong = [[_outcome("pass", "x"), _outcome("pass", "y")]]
    judged = jobs.judge_passes(plan, wrong)
    assert not judged["correct"]
    assert [(f["job"], f["kind"]) for f in judged["failures"]] == [("b", "wrong-verdict")]

    drift = [[_outcome("pass", "x"), _outcome("fail", "y")], [_outcome("pass", "x2"), _outcome("fail", "y")]]
    judged = jobs.judge_passes(plan, drift)
    assert not judged["correct"]
    assert [(f["pass"], f["job"], f["kind"]) for f in judged["failures"]] == [(2, "a", "bytes-differ")]


def test_oracle_counts_raises_and_refusals_without_calling_them_wrong():
    plan = [{"id": "a", "kind": "cli", "expect": "fail"}, {"id": "b", "kind": "cli", "expect": "pass"}]
    raised = {"type": "SingularMatrix", "message": "matrix is not invertible", "typed": False, "where": "x"}
    passes = [[_outcome(None, None, raised), _outcome("refused")]]
    judged = jobs.judge_passes(plan, passes)
    assert judged["correct"] and judged["failed"] == 2
    assert [f["kind"] for f in judged["failures"]] == ["raised", "refused"]
    assert "SingularMatrix" in judged["failures"][0]["reason"]


def test_self_time_on_nested_span_tree():
    tree = [
        ["job", 0.0, 10.0, -1, "j"],
        ["a", 1.0, 5.0, 0, "j"],
        ["b", 2.0, 3.0, 1, "j"],
        ["a", 3.5, 4.5, 1, "j"],  # a below a: counted in self, not twice in total
        ["b", 6.0, 9.0, 0, "j"],
        ["c", 7.0, 8.0, 4, "j"],
    ]
    agg = spans.aggregate(tree)
    assert agg["job"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    assert agg["a"] == {"calls": 2, "self_s": 3.0, "total_s": 4.0}
    assert agg["b"] == {"calls": 2, "self_s": 3.0, "total_s": 4.0}
    assert agg["c"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    agg = spans.aggregate([["p", 0.0, 10.0, -1, None], ["x", 1.0, 4.0, 0, None], ["y", 3.0, 6.0, 0, None]])
    assert agg["p"]["self_s"] == pytest.approx(5.0)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run_bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run_bench.LAYER_METRICS
    ]
    assert {w["name"] for w in spec["workloads"]} == set(jobs.WORKLOADS)
