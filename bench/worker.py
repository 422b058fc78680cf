"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py PLAN OUT MODE

PLAN is a JSON file holding the job list from ``jobs.plan``, OUT the
JSON file this pass writes, MODE one of ``setup`` (import and stop), ``plain`` (time the
jobs), ``spans`` (time them with a span tracer installed) or ``counts``
(run them with counters installed).  Every job is run in order, one at
a time; anything a job raises is recorded with its type and message and
the pass carries on.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctc import algebra, category, cli, data_path, fields, ledger, modules  # noqa: E402

import spans  # noqa: E402

TYPED_ERRORS = (
    fields.FieldError,
    category.CategoryError,
    algebra.AlgebraError,
    modules.ModuleError,
    ledger.LedgerError,
)


def monotonic() -> float:
    """A clock shared by every process on the machine, for set-up time."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# The speed of a shared machine flips between a fast and a slow state,
# up to 1.6x apart, many times a minute.  A fixed kernel of exact
# arithmetic, independent of ctc, is timed at every job boundary and every
# PROBE_EVERY_S inside jobs; a job's time multiplied by the mean of REF_S /
# kernel time over its samples is stated in seconds of a machine on which
# the kernel takes REF_S, and most of the drift cancels.  REF_S is about
# the kernel's time on the 2-core machine where the baseline was
# recorded; it only sets the scale.
REF_S = 0.003
PROBE_EVERY_S = 0.05
SETUP_SAMPLES = 9
_KERNEL = [[Fraction(i * 7 + j, j + 1) if (i + j) % 3 else Fraction(0) for j in range(12)] for i in range(12)]


class SpeedSampler:
    """Kernel timings taken at job boundaries with ``sample`` and, inside
    the ``with`` block, every PROBE_EVERY_S seconds from a SIGALRM handler,
    so the speed along a long job is sampled too.  ``spent`` is the time
    all samples took; ``clock`` leaves it out, and so do job and span
    times."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._sampling = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, *_signal) -> None:
        if self._sampling:  # a timer signal during a boundary sample
            return
        self._sampling = True
        start = time.perf_counter()
        self.samples.append(speed_probe())
        self.spent += time.perf_counter() - start
        self._sampling = False

    def scale(self, first: int = 0) -> float:
        """REF_S over the kernel time, averaged over samples ``first`` on.

        The machine flips between a fast and a slow state, so the mean of
        the per-sample speeds estimates the time spent in each state;
        a median would snap to one of them."""
        rates = [REF_S / t for t in self.samples[first:]]
        return sum(rates) / len(rates)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed_probe() -> float:
    """Seconds to square a fixed 12x12 rational matrix, without collection."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    out = [[Fraction(0)] * 12 for _ in range(12)]
    for i, row in enumerate(_KERNEL):
        acc = out[i]
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(_KERNEL[k]):
                    if y:
                        acc[j] += x * y
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


def _group_algebra(job):
    spec = category.load_category(data_path("categories/%s.json" % job["category"]))
    g = job["group"]
    group = algebra.Group(g["name"], g["elements"], g["table"])
    return spec, algebra.group_algebra(group, spec)


def run_maschke(job):
    spec, alg = _group_algebra(job)
    index = algebra.compute_index(alg)
    A = alg.carrier
    one = fields.Scalar.one(spec.field)
    reg = modules.regular_module(alg)
    free = modules.induce(alg, A)
    plain = category.tensor_mor(category.Mor.identity(A), alg.unit_map)
    mult_sec = modules.maschke_section(alg.mult_map, free, reg, plain)
    triv = modules.trivial_module(alg)
    aug = category.Mor(A, triv.carrier, {spec.unit: [[one] * A.m(spec.unit)]})
    aug_sec = modules.maschke_section(aug, reg, triv, alg.unit_map)
    reg_ss, reg_cert = modules.is_semisimple_module(reg)
    triv_ss, triv_cert = modules.is_semisimple_module(triv)
    verdict = {
        "index": fields.scalar_literal(index),
        "mult_section": category.compose(alg.mult_map, mult_sec) == category.Mor.identity(A),
        "aug_section": category.compose(aug, aug_sec) == category.Mor.identity(triv.carrier),
        "regular_semisimple": reg_ss,
        "trivial_semisimple": triv_ss,
    }
    output = {"sections": [mult_sec.to_json(), aug_sec.to_json()], "certificates": [reg_cert, triv_cert]}
    return verdict, output


def run_modular(job):
    _, alg = _group_algebra(job)
    triv_ss, triv_cert = modules.is_semisimple_module(modules.trivial_module(alg))
    reg_ss, reg_cert = modules.is_semisimple_module(modules.regular_module(alg))
    verdict = {"regular_semisimple": reg_ss, "trivial_semisimple": triv_ss}
    return verdict, {"certificates": [reg_cert, triv_cert]}


def run_cli(job):
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    with contextlib.redirect_stdout(out):
        code = cli.main(job["argv"])
        out.flush()
    data = buf.getvalue()
    statuses = {item["status"] for item in json.loads(data)["items"]}
    if "error" in statuses:
        verdict = "refused"
    elif code == 0 and statuses <= {"pass"}:
        verdict = "pass"
    elif code != 0 and "fail" in statuses:
        verdict = "fail"
    else:
        verdict = "exit %d with statuses %s" % (code, sorted(statuses))
    return verdict, data


RUNNERS = {"maschke": run_maschke, "modular": run_modular, "cli": run_cli}


def _error(exc: BaseException) -> dict:
    frames = traceback.extract_tb(exc.__traceback__)
    where = frames[-1] if frames else None
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "typed": isinstance(exc, TYPED_ERRORS),
        "where": "%s:%d in %s" % (Path(where.filename).name, where.lineno, where.name) if where else None,
    }


def run_job(job, speed: SpeedSampler) -> dict:
    """Run one job; its time leaves out the speed samples taken inside it."""
    start = speed.clock()
    try:
        verdict, output = RUNNERS[job["kind"]](job)
    except (Exception, SystemExit) as exc:  # a job must never end the pass
        return {"s": speed.clock() - start, "verdict": None, "error": _error(exc), "digest": None}
    seconds = speed.clock() - start
    if not isinstance(output, bytes):
        output = json.dumps({"verdict": verdict, "output": output}, sort_keys=True).encode()
    return {"s": seconds, "verdict": verdict, "error": None, "digest": hashlib.sha256(output).hexdigest()}


def main(argv) -> int:
    plan_path, out_path, mode = argv
    jobs = json.loads(Path(plan_path).read_text())
    ready = monotonic()
    speed = SpeedSampler()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    result = {"ready": ready, "setup_scale": speed.scale()}
    if mode != "setup":
        tracer = counting = None
        if mode == "spans":
            tracer = spans.Tracer(speed.clock)
            tracer.install()
        elif mode == "counts":
            counting = spans.Counting()
            counting.install()
        run = tracer.wrap(spans.JOB_SPAN, run_job) if tracer else run_job
        outcomes = []
        with speed:
            for job in jobs:
                if tracer is not None:
                    tracer.job = job["id"]
                first = len(speed.samples) - 1
                outcome = run(job, speed)
                speed.sample()
                outcome["scale"] = speed.scale(first)
                outcomes.append(outcome)
        result["jobs"] = outcomes
        result["scale"] = speed.scale()
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = spans.aggregate(tracer.spans)
            spans.write_tsv(tracer.spans, Path(out_path).with_suffix(".spans.tsv"))
        if counting is not None:
            result["counts"] = dict(counting.counts)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
