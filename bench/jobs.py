"""Workload generators and the outcome oracle of the benchmark.

Every job carries the verdict it must reach, derived from how its input
was built, so the oracle never asks the program what the answer is:

* group algebras over Q are semisimple and have index |G| (Maschke);
* F_p[G] is semisimple exactly when p does not divide |G|, and the
  one-dimensional trivial module is always semisimple;
* the bundled categories, algebras, module, suites and ledger pass;
* a sign flip of one F or R entry breaks coherence, so the check fails.

The seed relabels and reorders the elements of every generated group
table and becomes the ``--seed`` of ``check-category``.  Nothing here
imports the package under test except ``mutants``, which uses its scalar
parser to negate a literal exactly.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "ctc" / "data"

# why each workload exists is recorded with it in BENCHMARK.json
WORKLOADS = ("maschke_q", "modular_fp", "braided")

BUNDLED_CATEGORIES = ["fibonacci", "ising", "pointed_z4", "toric_code", "vec_q", "vec_f2", "vec_f3"]
MUTATED_CATEGORIES = ["ising", "fibonacci", "pointed_z4", "toric_code"]
BUNDLED_ALGEBRAS = ["alg_qz3", "alg_h02", "alg_toric_1e"]
CONDENSE_PAIRS = [("toric_code", "alg_toric_1e"), ("pointed_z4", "alg_h02")]

MASCHKE_GROUPS = ["z2", "z3", "z4", "z5", "z6", "z2xz2", "s3"]
MODULAR_GROUPS = {
    2: ["z2", "z3", "z4", "z5", "z6", "z7", "z9", "z10", "z2xz2", "s3"],
    3: ["z2", "z3", "z4", "z5", "z9", "z2xz2"],
}


# ---------------------------------------------------------------------------
# groups


def _abstract_group(name: str):
    """Elements 0..n-1 and a multiplication function for a named group."""
    if name == "z2xz2":
        elems = list(itertools.product(range(2), repeat=2))
        return len(elems), lambda i, j: elems.index(((elems[i][0] + elems[j][0]) % 2, (elems[i][1] + elems[j][1]) % 2))
    if name == "s3":
        perms = sorted(itertools.permutations(range(3)))
        # (p q)(x) = p(q(x))
        return 6, lambda i, j: perms.index(tuple(perms[i][perms[j][x]] for x in range(3)))
    if name.startswith("z"):
        n = int(name[1:])
        return n, lambda i, j: (i + j) % n
    raise ValueError("unknown group %r" % (name,))


def group_table(name: str, seed: int) -> dict:
    """A group as ``{"name", "elements", "table"}`` with seeded labels and order.

    The element called ``g<k>`` and its position in the listing are both
    drawn from the seed, so the identity is neither first nor named alike
    from one seed to the next.
    """
    n, mul = _abstract_group(name)
    rng = random.Random("%d/%s" % (seed, name))
    names = ["g%d" % k for k in rng.sample(range(n), n)]
    order = rng.sample(range(n), n)
    return {
        "name": name,
        "elements": [names[i] for i in order],
        "table": [[names[mul(i, j)] for j in order] for i in order],
    }


# ---------------------------------------------------------------------------
# mutated categories


def _unit_free(key: str, unit: str) -> bool:
    # the loader pins F entries with a unit leg to 1, so flipping one would
    # only test loading; R entries follow the same rule on (a, b, c)
    return unit not in key.split(",")[:3]


def mutants(work_dir: Path) -> list[Path]:
    """Write one category file per single-entry sign flip; return their paths.

    Flips every listed F and R entry whose first three labels avoid the
    unit, in ising, fibonacci, pointed_z4 and toric_code: 34 files.
    """
    from ctc.fields import FieldSpec, parse_scalar, scalar_literal

    work_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for cat in MUTATED_CATEGORIES:
        raw = json.loads((DATA / "categories" / ("%s.json" % cat)).read_text())
        field = FieldSpec.from_json(raw["field"])
        for table in ("F", "R"):
            for key, lit in (raw.get(table) or {}).items():
                if not _unit_free(key, raw["unit"]):
                    continue
                flipped = scalar_literal(-parse_scalar(lit, field))
                mutant = json.loads(json.dumps(raw))
                mutant[table][key] = flipped
                stem = "%s_%s_%s" % (cat, table, key.replace(",", "-"))
                mutant["name"] = stem
                path = work_dir / ("%s.json" % stem)
                path.write_text(json.dumps(mutant, indent=1, sort_keys=True))
                out.append(path)
    return out


# ---------------------------------------------------------------------------
# job plans


def _cli(job_id: str, argv: list, expect: str) -> dict:
    return {"id": job_id, "kind": "cli", "argv": argv + ["--report", "json"], "expect": expect}


def plan(workload: str, seed: int, work_dir: Path) -> list[dict]:
    """The ordered job list of one pass, each job with its expected verdict."""
    jobs = []
    if workload == "maschke_q":
        for g in MASCHKE_GROUPS:
            table = group_table(g, seed)
            jobs.append({
                "id": "maschke:%s" % g,
                "kind": "maschke",
                "category": "vec_q",
                "group": table,
                "expect": {
                    "index": str(len(table["elements"])),
                    "mult_section": True,
                    "aug_section": True,
                    "regular_semisimple": True,
                    "trivial_semisimple": True,
                },
            })
        jobs.append(_cli("suite:maschke_2_6", ["suite", "maschke_2_6"], "pass"))
    elif workload == "modular_fp":
        for p, groups in MODULAR_GROUPS.items():
            for g in groups:
                table = group_table(g, seed)
                jobs.append({
                    "id": "semisimple:F%d[%s]" % (p, g),
                    "kind": "modular",
                    "category": "vec_f%d" % p,
                    "group": table,
                    "expect": {
                        "regular_semisimple": len(table["elements"]) % p != 0,
                        "trivial_semisimple": True,
                    },
                })
        jobs.append(_cli("suite:counterexamples", ["suite", "counterexamples"], "pass"))
    elif workload == "braided":
        seed_args = ["--seed", str(seed)]
        for cat in BUNDLED_CATEGORIES:
            jobs.append(_cli("check-category:%s" % cat, ["check-category", cat] + seed_args, "pass"))
        for path in mutants(work_dir):
            jobs.append(_cli("check-category:%s" % path.stem, ["check-category", str(path)] + seed_args, "fail"))
        for alg in BUNDLED_ALGEBRAS:
            jobs.append(_cli("check-algebra:%s" % alg, ["check-algebra", alg], "pass"))
        jobs.append(_cli("check-module:mod_toric_m", ["check-module", "mod_toric_m"], "pass"))
        for cat, alg in CONDENSE_PAIRS:
            jobs.append(_cli("condense:%s" % alg, ["condense", cat, "--algebra", alg], "pass"))
        jobs.append(_cli("suite:local_3_1", ["suite", "local_3_1"], "pass"))
        jobs.append(_cli("ledger:wp_triplet", ["ledger", "wp_triplet"], "pass"))
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return jobs


# ---------------------------------------------------------------------------
# oracle


def judge(job: dict, outcome: dict) -> tuple[str, str] | None:
    """Why one job outcome counts as failed, as (kind, reason), or None.

    Kinds: ``raised`` (an exception escaped the library or the CLI),
    ``refused`` (a typed refusal: a domain error or an ``error`` report
    item) and ``wrong-verdict``.
    """
    err = outcome.get("error")
    if err is not None:
        kind = "refused" if err["typed"] else "raised"
        return kind, "%s: %s (at %s)" % (err["type"], err["message"], err["where"])
    if outcome["verdict"] == "refused":
        return "refused", "report carries an error item"
    if outcome["verdict"] != job["expect"]:
        return "wrong-verdict", "got %s, expected %s" % (
            json.dumps(outcome["verdict"], sort_keys=True),
            json.dumps(job["expect"], sort_keys=True),
        )
    return None


def judge_passes(jobs: list[dict], passes: list[list[dict]]) -> dict:
    """Judge every job of every pass, and compare output bytes across passes.

    ``passes[k][j]`` is the outcome of ``jobs[j]`` in pass k.  A job whose
    output digest differs from its digest in the first pass fails that
    pass with kind ``bytes-differ``.  ``correct`` is false when any job
    reached a wrong verdict or changed its bytes; raised and refused jobs
    are counted in ``failed`` but are not wrong answers.
    """
    failures = []
    for k, outcomes in enumerate(passes):
        for j, (job, outcome) in enumerate(zip(jobs, outcomes)):
            verdict = judge(job, outcome)
            if verdict is None and k > 0 and outcome["digest"] != passes[0][j]["digest"]:
                verdict = ("bytes-differ", "output bytes differ from pass 1")
            if verdict is not None:
                failures.append({"pass": k + 1, "job": job["id"], "kind": verdict[0], "reason": verdict[1]})
    attempted = len(jobs) * len(passes)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "correct": not any(f["kind"] in ("wrong-verdict", "bytes-differ") for f in failures),
        "failures": failures,
    }
