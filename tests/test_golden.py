"""Golden JSON bytes of the bundled CLI commands.

Each file under ``tests/golden/`` holds the exact ``--report json`` output
of one command, trailing newline included.  A change that alters report
bytes on purpose regenerates the file with the command named in the
failing test id and says why in its description, e.g.::

    PYTHONPATH=src python -m ctc.cli ledger wp_triplet --report json \
        > tests/golden/ledger_wp_triplet.json
"""

import json
from pathlib import Path

import pytest

from ctc import data_path
from ctc.cli import main
from ctc.fields import FieldSpec, parse_scalar, scalar_literal

GOLDEN = Path(__file__).resolve().parent / "golden"

ALL_CATEGORIES = "vec_q vec_f2 vec_f3 pointed_z4 toric_code ising fibonacci"

COMMANDS = {
    "suite_maschke_local_counterexamples": "suite maschke_2_6 local_3_1 counterexamples",
    "check_category_seed0": "check-category %s --seed 0" % ALL_CATEGORIES,
    "check_category_seed5": "check-category %s --seed 5" % ALL_CATEGORIES,
    "check_algebra_bundled": "check-algebra alg_qz3 alg_h02 alg_toric_1e",
    "check_module_mod_toric_m": "check-module mod_toric_m",
    "condense_toric_code_alg_toric_1e": "condense toric_code --algebra alg_toric_1e",
    "condense_pointed_z4_alg_h02": "condense pointed_z4 --algebra alg_h02",
    "ledger_wp_triplet": "ledger wp_triplet",
}

# single-entry sign flips, written as the benchmark writes its mutants:
# stem -> (bundled category, table, key of the flipped entry).  The golden
# file check_category_mutants.json is `check-category` on the three files
# in this order; failing items pin the witness shapes.
MUTANTS = {
    # singular sigma recoupling block: zigzag-2 and hexagon-2 fail on it
    "ising_F_sigma-sigma-sigma-sigma-1-1": ("ising", "F", "sigma,sigma,sigma,sigma,1,1"),
    "fibonacci_F_tau-tau-tau-tau-1-1": ("fibonacci", "F", "tau,tau,tau,tau,1,1"),
    "pointed_z4_R_1-1-2": ("pointed_z4", "R", "1,1,2"),
}


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_report_bytes_match_golden(stem, capsysbinary):
    command = COMMANDS[stem]
    main(command.split() + ["--report", "json"])
    got = capsysbinary.readouterr().out
    want = (GOLDEN / ("%s.json" % stem)).read_bytes()
    assert got == want, "JSON report of `ctc %s` differs from tests/golden/%s.json" % (command, stem)


def test_failing_report_bytes_match_golden(tmp_path, capsysbinary):
    paths = []
    for stem, (cat, table, key) in MUTANTS.items():
        raw = json.loads(Path(data_path("categories/%s.json" % cat)).read_text())
        field = FieldSpec.from_json(raw["field"])
        raw[table][key] = scalar_literal(-parse_scalar(raw[table][key], field))
        path = tmp_path / ("%s.json" % stem)
        path.write_text(json.dumps(raw))
        paths.append(str(path))
    main(["check-category"] + paths + ["--report", "json"])
    got = capsysbinary.readouterr().out
    want = (GOLDEN / "check_category_mutants.json").read_bytes()
    assert got == want, "JSON report of check-category on %s differs from the golden file" % sorted(MUTANTS)
