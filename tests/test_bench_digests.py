"""Output digests of the benchmark's library workloads at one seed.

``bench/worker.run_job`` hashes each job's output: the averaged sections
and the certificates of a Maschke job, the certificates of a modular
job, the JSON report of a CLI job.  The golden report files cover the
bundled commands only, so this is what pins the section JSON the
averaging computes.  ``tests/golden/bench_digests.json`` is regenerated
only by a change that alters those bytes on purpose and says why.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "bench_digests.json").read_text())


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    """``bench/jobs.py`` and ``bench/worker.py``, loaded by file.  The worker
    imports ``spans`` by its bare name and puts ``src`` on the path; both
    are undone once it is loaded."""
    path, spans = list(sys.path), sys.modules.get("spans")
    sys.modules["spans"] = _load("spans", BENCH / "spans.py")
    try:
        return _load("bench_jobs", BENCH / "jobs.py"), _load("bench_worker", BENCH / "worker.py")
    finally:
        sys.path[:] = path
        if spans is None:
            del sys.modules["spans"]
        else:
            sys.modules["spans"] = spans


@pytest.mark.parametrize("workload", ["maschke_q", "modular_fp"])
def test_job_digests_match_golden(bench, workload, tmp_path):
    jobs, worker = bench
    speed = worker.SpeedSampler()
    got = {}
    for job in jobs.plan(workload, GOLDEN["seed"], tmp_path):
        outcome = worker.run_job(job, speed)
        assert outcome["error"] is None and outcome["verdict"] == job["expect"], (job["id"], outcome)
        got[job["id"]] = outcome["digest"]
    assert got == GOLDEN[workload]
