"""Golden JSON bytes of the bundled CLI commands.

Each file under ``tests/golden/`` holds the exact ``--report json`` output
of one command, trailing newline included.  A change that alters report
bytes on purpose regenerates the file with the command named in the
failing test id and says why in its description, e.g.::

    PYTHONPATH=src python -m ctc.cli ledger wp_triplet --report json \
        > tests/golden/ledger_wp_triplet.json
"""

from pathlib import Path

import pytest

from ctc.cli import main

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


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_report_bytes_match_golden(stem, capsysbinary):
    command = COMMANDS[stem]
    main(command.split() + ["--report", "json"])
    got = capsysbinary.readouterr().out
    want = (GOLDEN / ("%s.json" % stem)).read_bytes()
    assert got == want, "JSON report of `ctc %s` differs from tests/golden/%s.json" % (command, stem)
