"""Benchmark of the ctc engine: one workload per run, measured from outside.

    python3 bench/run_bench.py --workload maschke_q --seed 1 --seconds 30 --trace 0

Load shape: a closed loop with one client.  Each pass is a fresh worker
process (``worker.py``) that runs the workload's jobs one at a time, so
every pass pays cold category caches as a CLI user does.  Passes repeat
until ``--seconds`` is used up (at least two, so output bytes can be
compared); each metric is the median over passes.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: fresh interpreter until ``ctc`` is imported and the first
  job can start, median over every pass and ``SETUP_PROBES`` extra starts;
* ``wall_s``: the time of all jobs of one pass, back to back;
* ``slowest_job_s``: the longest single job of a pass;
* ``peak_rss_mb``: peak resident memory of the pass process;
* ``ok_ratio``: share of job runs that ended in the verdict known by
  construction with stable bytes (1 - failed_ratio; never zero, unlike
  failed_ratio).

With ``--trace 1`` it alternates untraced, span-traced and counting
passes and reports the per-layer metrics in ``LAYER_METRICS``; spans of
the last traced pass are written to ``.bench_out/``.

Times are scaled to a reference machine speed: each is multiplied by
``worker.REF_S`` over the time of a fixed arithmetic kernel measured
beside it (see ``worker.speed_probe``), because the speed of a shared
machine drifts by up to 2x within a minute.  The unscaled medians are
printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import jobs

ROOT = jobs.ROOT
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 7
MIN_PASSES = 2
RUN_LIMIT_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("slowest_job_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]

# name, unit, better, source: "span" (median over span passes of the
# function's calls, self_s or total_s), "count" (counting pass), or a
# (numerator, denominator) pair of counts
LAYER_METRICS = [
    ("algebra.solve_coevaluation.calls", "count", "lower", "span"),
    ("algebra.solve_coevaluation.self_s", "s", "lower", "span"),
    ("algebra.solve_coevaluation.total_s", "s", "lower", "span"),
    ("algebra.solve_coevaluation.repeat_ratio", "ratio", "lower",
     ("algebra.solve_coevaluation.repeats", "algebra.solve_coevaluation.calls")),
    ("algebra.compute_index.total_s", "s", "lower", "span"),
    ("algebra.frobenius_identity_check.total_s", "s", "lower", "span"),
    ("algebra.check_algebra.total_s", "s", "lower", "span"),
    ("algebra.group_algebra.total_s", "s", "lower", "span"),
    ("linalg.mat_mul.calls", "count", "lower", "span"),
    ("linalg.mat_mul.self_s", "s", "lower", "span"),
    ("linalg.mat_mul.dense_mults", "count", "lower", "count"),
    ("linalg.mat_mul.useful_ratio", "ratio", "higher", ("linalg.mat_mul.useful_mults", "linalg.mat_mul.dense_mults")),
    ("linalg.rref.calls", "count", "lower", "span"),
    ("linalg.rref.self_s", "s", "lower", "span"),
    ("linalg.rref.cells", "count", "lower", "count"),
    ("linalg.rank.calls", "count", "lower", "span"),
    ("linalg.rank.total_s", "s", "lower", "span"),
    ("linalg.solve.calls", "count", "lower", "span"),
    ("linalg.solve.total_s", "s", "lower", "span"),
    ("linalg.nullspace.calls", "count", "lower", "span"),
    ("linalg.nullspace.total_s", "s", "lower", "span"),
    ("linalg.inverse.calls", "count", "lower", "span"),
    ("linalg.inverse.total_s", "s", "lower", "span"),
    ("linalg.image_factorization.calls", "count", "lower", "span"),
    ("linalg.image_factorization.total_s", "s", "lower", "span"),
    ("fields.ops.rational", "count", "lower", "count"),
    ("fields.ops.prime", "count", "lower", "count"),
    ("fields.ops.cyclotomic", "count", "lower", "count"),
    ("fields.is_zero.calls", "count", "lower", "count"),
    ("fields.inverse.calls", "count", "lower", "count"),
    ("modules.action_algebra.calls", "count", "lower", "span"),
    ("modules.action_algebra.self_s", "s", "lower", "span"),
    ("modules.action_algebra.total_s", "s", "lower", "span"),
    ("modules.action_algebra.dim", "count", "lower", "count"),
    ("modules.algebra_radical.calls", "count", "lower", "span"),
    ("modules.algebra_radical.self_s", "s", "lower", "span"),
    ("modules.algebra_radical.total_s", "s", "lower", "span"),
    ("modules.algebra_radical.enumerated", "count", "lower", "count"),
    ("modules.is_semisimple_module.total_s", "s", "lower", "span"),
    ("modules.maschke_section.calls", "count", "lower", "span"),
    ("modules.maschke_section.total_s", "s", "lower", "span"),
    ("modules.projector_pi.calls", "count", "lower", "span"),
    ("modules.projector_pi.total_s", "s", "lower", "span"),
    ("modules.hom_A.calls", "count", "lower", "span"),
    ("modules.hom_A.total_s", "s", "lower", "span"),
    ("modules.local_projection.total_s", "s", "lower", "span"),
    ("modules.condense.total_s", "s", "lower", "span"),
    ("modules.run_suite_manifest.total_s", "s", "lower", "span"),
    ("category.compose.calls", "count", "lower", "span"),
    ("category.compose.self_s", "s", "lower", "span"),
    ("category.tensor_mor.calls", "count", "lower", "span"),
    ("category.tensor_mor.self_s", "s", "lower", "span"),
    ("category.braiding.calls", "count", "lower", "span"),
    ("category.braiding.self_s", "s", "lower", "span"),
    ("category.associator.calls", "count", "lower", "span"),
    ("category.associator.self_s", "s", "lower", "span"),
    ("category.associator.hit_ratio", "ratio", "higher", ("category.associator.hits", "category.associator.calls")),
    ("category.associator_inv.calls", "count", "lower", "span"),
    ("category.associator_inv.self_s", "s", "lower", "span"),
    ("category.associator_inv.hit_ratio", "ratio", "higher",
     ("category.associator_inv.hits", "category.associator_inv.calls")),
    ("category.pair_channels.calls", "count", "lower", "count"),
    ("category.pair_channels.hit_ratio", "ratio", "higher",
     ("category.pair_channels.hits", "category.pair_channels.calls")),
    ("category.verify_pentagon.total_s", "s", "lower", "span"),
    ("category.verify_hexagon.total_s", "s", "lower", "span"),
    ("category.verify_triangle.total_s", "s", "lower", "span"),
    ("category.verify_zigzag.total_s", "s", "lower", "span"),
    ("category.load_category.calls", "count", "lower", "span"),
    ("category.load_category.self_s", "s", "lower", "span"),
    ("cli.main.calls", "count", "lower", "span"),
    ("cli.main.self_s", "s", "lower", "span"),
    ("report.Report.to_json_bytes.calls", "count", "lower", "span"),
    ("report.Report.to_json_bytes.self_s", "s", "lower", "span"),
    ("ledger.solve_dims.total_s", "s", "lower", "span"),
    ("trace.wall_s", "s", "lower", "trace"),
    ("trace.overhead_s", "s", "lower", "trace"),
]

# what the traced run must show for each workload to have been built as
# intended: (workload, label, span names summed, "above" or "below", share
# of the traced wall time)
DESIGN = [
    ("maschke_q", "solve_coevaluation", ["algebra.solve_coevaluation"], "above", 0.5),
    ("modular_fp", "action_algebra", ["modules.action_algebra"], "above", 0.5),
    ("modular_fp", "solve_coevaluation", ["algebra.solve_coevaluation"], "below", 0.05),
    ("braided", "verify_pentagon + verify_hexagon",
     ["category.verify_pentagon", "category.verify_hexagon"], "above", 0.5),
    ("braided", "algebra_radical", ["modules.algebra_radical"], "below", 0.05),
]


class Run:
    """Worker processes of one benchmark run, sharing a plan and a deadline."""

    def __init__(self, work: Path, plan_path: Path):
        self.work = work
        self.plan_path = plan_path
        self.started = time.monotonic()
        self.count = 0

    def spawn(self, mode: str) -> dict:
        self.count += 1
        out = self.work / ("pass-%d-%s.json" % (self.count, mode))
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise RuntimeError("run exceeded %.0f s before a %s pass" % (RUN_LIMIT_S, mode))
        began = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(self.plan_path), str(out), mode],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=left,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError("%s worker exited %d: %s" % (mode, proc.returncode, proc.stderr.decode()[-2000:]))
        result = json.loads(out.read_text())
        result["out"] = out
        result["setup_raw_s"] = result["ready"] - began
        result["setup_s"] = result["setup_raw_s"] * result["setup_scale"]
        if "jobs" in result:
            result["wall_raw_s"] = sum(j["s"] for j in result["jobs"])
            result["wall_s"] = sum(j["s"] * j["scale"] for j in result["jobs"])
            result["slowest_job_s"] = max(j["s"] * j["scale"] for j in result["jobs"])
        return result


def repeat_passes(run: Run, modes: list[str], seconds: float, once: tuple = ()) -> dict:
    """Run ``modes`` in turn, after ``once`` a single time, while another
    round would end nearer to ``seconds`` than stopping now; at least
    ``MIN_PASSES`` rounds."""
    by_mode = {m: [] for m in modes + list(once)}
    first = time.monotonic()
    rounds = []
    while True:
        began = time.monotonic()
        for mode in modes + (list(once) if not rounds else []):
            by_mode[mode].append(run.spawn(mode))
        rounds.append(time.monotonic() - began)
        if len(rounds) >= MIN_PASSES and time.monotonic() - first + median(rounds) / 2 > seconds:
            return by_mode


def end_to_end(passes: list[dict], probes: list[dict], judged: dict) -> dict:
    return {
        "setup_s": median([p["setup_s"] for p in passes + probes]),
        "wall_s": median([p["wall_s"] for p in passes]),
        "slowest_job_s": median([p["slowest_job_s"] for p in passes]),
        "peak_rss_mb": median([p["rss_mb"] for p in passes]),
        "ok_ratio": 1.0 - judged["failed"] / judged["attempted"],
    }


def per_layer(plain: list[dict], traced: list[dict], counts: dict) -> dict:
    """Every ``LAYER_METRICS`` value from the passes of a traced run."""
    trace_wall = median([p["wall_s"] for p in traced])
    trace = {"trace.wall_s": trace_wall, "trace.overhead_s": trace_wall - median([p["wall_s"] for p in plain])}
    out = {}
    for name, _, _, source in LAYER_METRICS:
        if source == "span":
            fn, stat = name.rsplit(".", 1)
            values = [p["layers"].get(fn, {}).get(stat, 0) for p in traced]
            out[name] = values[0] if stat == "calls" else median([v * p["scale"] for v, p in zip(values, traced)])
        elif source == "count":
            out[name] = counts.get(name, 0)
        elif source == "trace":
            out[name] = trace[name]
        else:
            num, den = source
            out[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    return out


def design_checks(workload: str, traced: list[dict]) -> list[str]:
    lines = []
    for name, label, fns, side, bound in DESIGN:
        if name != workload:
            continue
        share = median([sum(p["layers"].get(fn, {}).get("total_s", 0) for fn in fns) / p["wall_raw_s"] for p in traced])
        met = share > bound if side == "above" else share < bound
        lines.append("design: %s is %.1f%% of traced wall_s, expected %s %.0f%%: %s"
                     % (label, 100 * share, side, 100 * bound, "met" if met else "NOT MET"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (jobs.SRC / "ctc" / "__init__.py").is_file():
        print("no ctc sources under %s; run from a checkout of the repository" % jobs.SRC, file=sys.stderr)
        return 2

    sys.path.insert(0, str(jobs.SRC))
    work = ROOT / ".bench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        report(args, work)
        return 0
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def report(args, work: Path) -> None:
    """Run the passes of one benchmark run in ``work`` and print the result."""
    plan = jobs.plan(args.workload, args.seed, work / "inputs")
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    run = Run(work, plan_path)
    probes = [run.spawn("setup") for _ in range(SETUP_PROBES)]
    if args.trace:
        by_mode = repeat_passes(run, ["plain", "spans"], args.seconds, once=("counts",))
    else:
        by_mode = repeat_passes(run, ["plain"], args.seconds)
    passes = [p for mode_passes in by_mode.values() for p in mode_passes]
    judged = jobs.judge_passes(plan, [p["jobs"] for p in passes])
    if args.trace:
        values = per_layer(by_mode["plain"], by_mode["spans"], by_mode["counts"][0]["counts"])
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        spans_file = by_mode["spans"][-1]["out"].with_suffix(".spans.tsv")
        keep = ROOT / ".bench_out" / ("spans-%s-seed%d.tsv" % (args.workload, args.seed))
        keep.parent.mkdir(exist_ok=True)
        shutil.move(str(spans_file), str(keep))
        notes = design_checks(args.workload, by_mode["spans"]) + ["spans written to %s" % keep.relative_to(ROOT)]
    else:
        values = end_to_end(passes, probes, judged)
        units = dict(END_TO_END)
        notes = [
            "failed_ratio: %.4f ratio" % (judged["failed"] / judged["attempted"]),
            "unscaled medians: setup %.4f s, wall %.4f s"
            % (median([p["setup_raw_s"] for p in passes + probes]), median([p["wall_raw_s"] for p in passes])),
        ]

    print("workload %s, seed %d: %d passes (%s), %d job runs"
          % (args.workload, args.seed, len(passes),
             ", ".join("%d %s" % (len(v), k) for k, v in by_mode.items()), judged["attempted"]))
    for name, value in values.items():
        print("%-44s %14.6g %s" % (name, value, units[name]))
    for line in notes:
        print(line)
    seen = {}
    for f in judged["failures"]:
        seen.setdefault((f["job"], f["kind"], f["reason"]), []).append(f["pass"])
    for (job, kind, reason), in_passes in seen.items():
        print("failed: %s [%s] in %d of %d passes: %s" % (job, kind, len(in_passes), len(passes), reason))
    print(json.dumps({
        "correct": judged["correct"],
        "attempted": judged["attempted"],
        "failed": judged["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
