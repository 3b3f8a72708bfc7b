"""Golden CLI outputs: each command's stdout, run with `--json -`, must be
byte-equal to its file in tests/golden/, with exit code 0 and nothing on
stderr, so a refactoring that claims identical output is checked here.  To
record a deliberate change of output, rerun the command with `--json -`
into its file and review the diff."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

GOLDEN = {
    "zeta_d3": "zeta --g 2,1,-3 --q 2 --n 1..4",
    "zeta_fractional": "zeta --g 3/2,1/2,-2 --q 3 --n 1..2 --family ge:1/3",
    "zeta_full_d3": "zeta --g 1,0,-1 --q 2 --n 1..4",
    "zeta_d4": "zeta --g 3,1,-1,-3 --q 2 --n 1..2",
    "stalk_d4": "stalk --g 3,1,-1,-3 --q 2 --n 1",
    "stalk_ge1": "stalk --g 2,1,-3 --q 2 --n 1..3 --family ge:1",
    "stalk_fractional": "stalk --g 3/2,1/2,-2 --q 3 --n 1..2 --family ge:1/3",
    "kcomplex_d4": "kcomplex --d 4 --q 3",
    "dims_d4": "dims --d 4 --q 3",
    "table_d9": "table --drinfeld 9 --q 2 --n 1..3",
    "verify_all_quick": "verify-all --quick",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_equals_its_golden_file(name):
    proc = subprocess.run(
        [sys.executable, "-m", "perdom.cli", *GOLDEN[name].split(), "--json", "-"],
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (TESTS / "golden" / f"{name}.json").read_bytes()
