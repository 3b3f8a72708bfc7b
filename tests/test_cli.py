import argparse
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import perdom.complexes
from perdom import cli, cohomology, weyl
from perdom.checks import CHECKS
from perdom.cli import main
from perdom.errors import InternalCheckError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_markdown_matches_reference(capsys):
    code, out, err = run(
        capsys, "table", "--g", "2,1,-3", "--q", "2", "--family", "ss", "--n", "1..3"
    )
    assert code == 0 and err == ""
    assert "| 2 | v_B | 8 |" in out
    assert "| 3 | v_P{s2}(-1) | 6 |" in out
    assert "| 4 | v_B(-1) ⊕ i_G(-2) | 8 + 1 |" in out
    assert "| 6 | i_G(-3) | 1 |" in out
    assert "n=3: open 216, closed 441, total 657" in out


def test_table_json_written_and_deterministic(tmp_path, capsys):
    target = tmp_path / "out.json"
    argv = ["table", "--drinfeld", "3", "--q", "2", "--json", str(target)]
    assert main(argv + []) == 0
    first = target.read_bytes()
    assert main(argv + []) == 0
    assert target.read_bytes() == first
    capsys.readouterr()
    payload = json.loads(first)
    assert set(payload) == {"open", "closed"}
    assert payload["open"]["d"] == 3
    assert [e["degree"] for e in payload["open"]["entries"]] == [2, 3, 4]


def test_table_rejects_bad_slopes(capsys):
    code, _, err = run(capsys, "table", "--g", "1,1", "--q", "2")
    assert code == 2
    assert "weighted sum" in err


def test_g_takes_only_values(capsys):
    # a slope function is spelled by its values or by --drinfeld, not by a file
    code, _, err = run(capsys, "table", "--g", "@x.json", "--q", "2")
    assert code == 2
    assert err == "error: bad slope value '@x.json'\n"


def test_zeta_json_is_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["zeta", "--g", "2,1,-3", "--q", "2", "--n", "1..2", "--family", "ss"]
    assert main(base + ["--json", str(a)]) == 0
    assert main(base + ["--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["pass"] is True


def test_a_type_with_no_proper_member_passes(capsys):
    # one value: the whole space is the only flag, and it is open
    code, out, err = run(capsys, "zeta", "--g", "0,0", "--q", "2", "--n", "1..2")
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"n={n}: open 1/1 closed 0/0 total 1/1 [ok]" for n in (1, 2)]


def test_zeta_budget_exit(capsys):
    code, _, err = run(
        capsys, "zeta", "--g", "2,1,-3", "--q", "2", "--n", "3", "--budget", "10"
    )
    assert code == 4 and err.endswith("(raise with --budget)\n")
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--g", "2,1,-3", "--q", "2", "--n", "1", "--budget", "not-a-number"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("kcomplex", "--d", "3", "--q", "2"),
    ("zeta", "--g", "2,1,-3", "--q", "2", "--n", "1"),
], ids=["kcomplex", "zeta"])
def test_the_environment_sets_no_budget(argv, capsys, monkeypatch):
    # --budget is the one budget source: an ambient PERDOM_BUDGET is ignored
    monkeypatch.setenv("PERDOM_BUDGET", "1")
    assert run(capsys, *argv)[0] == 0


SRC = Path(__file__).resolve().parent.parent / "src"

# main() with every enumeration entry point patched to raise
GUARDED_MAIN = """
import sys
from perdom import cli, cohomology, complexes, flagenum, weyl

def unguarded(*args, **kwargs):
    raise AssertionError("the enumeration ran before the budget check")

cohomology.table_open = weyl.parabolic_types = unguarded
flagenum.enumerate_flags = flagenum.count_points = unguarded
complexes.induction_report = unguarded
sys.exit(cli.main(sys.argv[1:]))
"""


def run_bounded(argv, script="from perdom.cli import main; import sys; sys.exit(main(sys.argv[1:]))"):
    """Run the CLI in a subprocess that must exit within 20 s, so an input
    that hangs fails the test instead of stalling the suite."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--g", ",".join(map(str, range(6, -7, -1))), "--q", "2"),
        ("table", "--g", "9,7,5,3,1,-1,-3,-5,-7,-9", "--q", "2"),
        ("dims", "--d", "40", "--q", "2"),
        ("stalk", "--g", "3,1,-1,-3", "--q", "2", "--n", "3"),
        ("zeta", "--drinfeld", "12", "--q", "2"),
        ("zeta", "--g", "3,1,-1,-3", "--q", "2", "--n", "1..3"),
        ("kcomplex", "--d", "6", "--q", "2"),
        ("kcomplex", "--d", "40", "--q", "2"),
        ("kcomplex", "--d", "200", "--q", "2"),
        ("kcomplex", "--d", "3000", "--q", "2"),
        ("kcomplex", "--d", "1000000000", "--q", "2", "--i0", "1"),
        ("dims", "--d", "100000", "--q", "2"),
        ("zeta", "--drinfeld", "1000", "--q", "2"),
        ("table", "--drinfeld", "100000", "--q", "2"),
        ("table", "--g", "1,-1", "--q", "2", "--n", "1..99999999"),
        ("zeta", "--drinfeld", "100000000", "--q", "2"),
        ("stalk", "--drinfeld", "100000000", "--q", "2"),
        ("stalk", "--drinfeld", "6", "--q", "2", "--n", "1"),
    ],
    ids=[
        "table-13-distinct-values",
        "table-10-distinct-values",
        "dims-d40",
        "stalk-d4-n3",
        "zeta-drinfeld-12",
        "zeta-d4-n3",
        "kcomplex-d6",
        "kcomplex-d40",
        "kcomplex-d200",
        "kcomplex-d3000",
        "kcomplex-d1e9-i0",
        "dims-d100000",
        "zeta-drinfeld-1000",
        "table-drinfeld-100000",
        "table-n-range-priced-unexpanded",
        "zeta-drinfeld-1e8",
        "stalk-drinfeld-1e8",
        "stalk-drinfeld-6",
    ],
)
def test_table_and_dims_exit_four_before_enumerating(argv):
    code, out, err = run_bounded(argv, GUARDED_MAIN)
    assert code == 4 and out == ""
    assert err.startswith("error: enumeration needs") and "budget" in err


def test_table_and_dims_budget_bounds(capsys):
    # 3!/1 = 6 representatives for (2, 1, -3) at d^2 = 9 units each; for
    # d = 3, dim v takes 1 + 3 + 3 + 6 = 13 q-binomials over the four types
    assert run(capsys, "table", "--g", "2,1,-3", "--q", "2", "--budget", "53")[0] == 4
    assert run(capsys, "table", "--g", "2,1,-3", "--q", "2", "--budget", "54")[0] == 0
    assert run(capsys, "table", "--g", "1,1,-2", "--q", "2", "--budget", "26")[0] == 4
    assert run(capsys, "table", "--g", "1,1,-2", "--q", "2", "--budget", "27")[0] == 0
    assert run(capsys, "dims", "--d", "3", "--q", "2", "--budget", "12")[0] == 4
    assert run(capsys, "dims", "--d", "3", "--q", "2", "--budget", "13")[0] == 0
    # each n adds 3 units per representative: 6 * (9 + 3 * 3) = 108
    table = ("table", "--g", "2,1,-3", "--q", "2", "--n", "1..3")
    assert run(capsys, *table, "--budget", "107")[0] == 4
    assert run(capsys, *table, "--budget", "108")[0] == 0
    # the largest n prices zeta: 105 flags over GF(4) times 14 rational subspaces
    zeta = ("zeta", "--g", "2,1,-3", "--q", "2", "--n", "1..2")
    assert run(capsys, *zeta, "--budget", "1469")[0] == 4
    assert run(capsys, *zeta, "--budget", "1470")[0] == 0
    # stalk adds, per flag, the 35 nonempty chains of proper nonzero
    # subspaces of GF(2)^3 that bound its stalk's simplices: 21 * (14 + 35)
    stalk = ("stalk", "--g", "2,1,-3", "--q", "2", "--n", "1")
    assert run(capsys, *stalk, "--budget", "1028")[0] == 4
    assert run(capsys, *stalk, "--budget", "1029")[0] == 0
    code, _, err = run(capsys, "table", "--g", "2,1,-3", "--q", "2", "--budget", "5")
    assert code == 4 and err.endswith("(raise with --budget)\n")
    assert run(capsys, "dims", "--d", "3", "--q", "2", "--budget", "5")[0] == 4


@pytest.mark.parametrize("q", (2, 3))
def test_dims_price_bounds_the_q_binomials_dim_v_takes(capsys, monkeypatch, q):
    # the price counts the q-binomials of dim v's cut-set recursion: a budget
    # one below the terms it took refuses the command, their count admits it
    terms = []
    q_binomial = weyl.q_binomial
    monkeypatch.setattr(weyl, "q_binomial", lambda *args: terms.append(args) or q_binomial(*args))
    for d in range(1, 9):
        dims = ("dims", "--d", str(d), "--q", str(q))
        weyl.dim_v.cache_clear()
        terms.clear()
        assert run(capsys, *dims)[0] == 0
        assert run(capsys, *dims, "--budget", str(len(terms) - 1))[0] == 4
        assert run(capsys, *dims, "--budget", str(len(terms)))[0] == 0


def test_dims_d16_fits_the_default_budget(capsys):
    # 1,384,448 q-binomials, below the default budget of 10^7
    code, out, _ = run(capsys, "dims", "--d", "16", "--q", "2")
    assert code == 0 and out.count("\n") == 2**15


@pytest.mark.parametrize(
    "budget,i0,code",
    [("323", (), 4), ("324", (), 0), ("71", ("--i0", "1"), 4), ("72", ("--i0", "1"), 0)],
)
def test_kcomplex_budget_bounds(budget, i0, code, capsys):
    # d^2 units for each of the 36 coset-space points of GF(2)^3, or for the
    # 1 + 7 points of the J containing I0 = {1}
    got, _, err = run(capsys, "kcomplex", "--d", "3", "--q", "2", *i0, "--budget", budget)
    assert got == code
    if code == 4:
        assert err.endswith("(raise with --budget)\n")


def test_kcomplex_json(tmp_path, capsys):
    target = tmp_path / "k.json"
    code, out, _ = run(
        capsys, "kcomplex", "--d", "3", "--q", "2", "--json", str(target)
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["pass"] is True
    assert payload["reports"][0] == {
        "complex": "K",
        "I0": [],
        "q": 2,
        "dims": [1, 14, 21],
        "homology": [0, 0, 8],
        "pass": True,
    }


def test_kcomplex_single_subset(capsys):
    code, out, _ = run(capsys, "kcomplex", "--d", "4", "--q", "2", "--i0", "1,2")
    assert code == 0
    assert "I0=[1, 2]" in out


def test_i0_empty_string_is_the_borel(capsys):
    _, every, _ = run(capsys, "kcomplex", "--d", "3", "--q", "2")
    code, out, _ = run(capsys, "kcomplex", "--d", "3", "--q", "2", "--i0", "")
    [borel] = [line for line in every.splitlines(keepends=True) if line.startswith("I0=[] ")]
    assert code == 0 and out == borel


def test_kcomplex_corrupt_signs_fails(capsys):
    # at I0 = {2} in d = 4 both missing dims are odd, so the augmentation
    # alone, corrupted, would still compose to zero with the next map
    for d, i0 in (("3", ()), ("4", ("--i0", "2"))):
        code, _, err = run(capsys, "kcomplex", "--d", d, "--q", "2", *i0, "--corrupt-signs")
        assert code == 1
        assert "differentials 0 and 1 do not compose to zero" in err


def test_stalk_command(capsys):
    code, out, _ = run(
        capsys, "stalk", "--g", "2,1,-3", "--q", "2", "--family", "ss", "--n", "1..2"
    )
    assert code == 0
    assert "n=1: 21 flags, 21 on the closed stratum, 0 stalk failures" in out
    assert "n=2: 105 flags, 105 on the closed stratum, 0 stalk failures" in out


def test_verify_all_quick(capsys):
    code, out, _ = run(capsys, "verify-all", "--quick")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == len(CHECKS)
    assert all(l.startswith("PASS") for l in lines)


def test_verify_all_rejects_nonpositive_family(capsys):
    code, _, err = run(capsys, "verify-all", "--family", "ge:0/1")
    assert code == 2 and "positive degrees" in err


def test_verify_all_corrupt_signs_fails_at_composition(capsys, monkeypatch):
    # induction complexes signed by the reflection's own index fail to
    # compose to zero; only the induction-complex check fails
    build_K = perdom.complexes.build_K
    monkeypatch.setattr(perdom.complexes, "build_K", lambda i0, q: build_K(i0, q, signs="index"))
    code, out, err = run(capsys, "verify-all", "--quick")
    assert code == 3
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    failed = "induction complex homology concentrated on top"
    assert lines == [f"{'FAIL' if name == failed else 'PASS'} {name}" for name, _ in CHECKS]
    assert "compose to zero" in err


def test_verify_all_fails_the_induction_check_when_dim_v_is_off(capsys, monkeypatch):
    # the Moebius route one too high on the Borel: the top homology of its
    # induction complex no longer matches, and only that check fails
    dim_v = perdom.complexes.dim_v
    monkeypatch.setattr(perdom.complexes, "dim_v", lambda i0, q: dim_v(i0, q) + (not i0.gens))
    code, out, _ = run(capsys, "verify-all", "--quick")
    assert code == 3
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    failed = "induction complex homology concentrated on top"
    assert lines == [f"{'FAIL' if name == failed else 'PASS'} {name}" for name, _ in CHECKS]


def test_zeta_mismatch_exits_three(capsys, monkeypatch):
    # a twist shifted in the top entry reaches both drivers; every check
    # still prints its line, and those the shift leaves intact pass
    table_open = cohomology.table_open

    def shifted(g, family):
        table = table_open(g, family)
        *rest, e = table.entries
        top = cohomology.CohEntry(e.w, e.length, e.i_w, e.delta, e.degree, e.twist + 1, e.rep)
        return cohomology.CohTable(table.variant, table.g, table.family, (*rest, top))

    monkeypatch.setattr(cohomology, "table_open", shifted)
    code, out, err = run(capsys, "zeta", "--g", "2,1,-3", "--q", "2", "--n", "1..2")
    assert code == 3
    assert "MISMATCH" in out and "disagree" in err
    code, out, _ = run(capsys, "verify-all", "--quick")
    assert code == 3
    assert "FAIL Frobenius traces equal brute-force counts" in out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert [l.split(" ", 1)[1] for l in lines] == [name for name, _ in CHECKS]
    assert "PASS low-degree vanishing with a single Steinberg top" in out
    assert "PASS stalk complexes contract with a witness" in out


def test_bad_n_ranges_exit_two(capsys):
    for bad in ("x", "0", "3..x", ",,", "1,3", "1..2,4"):
        code, _, err = run(capsys, "zeta", "--g", "1,-1", "--q", "2", "--n", bad)
        assert code == 2, bad
        assert err.startswith("error: ") and "Traceback" not in err, bad


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--g", "@{tmp}/missing.json", "--q", "2"),
        ("kcomplex", "--d", "3", "--q", "2", "--i0", "a"),
        ("stalk", "--g", "2,1,-3", "--q", "1"),
        ("dims", "--d", "0", "--q", "2"),
        ("dims", "--d", "-2", "--q", "2"),
        ("kcomplex", "--d", "-1", "--q", "2"),
        ("dims", "--d", "3", "--q", "1"),
        ("kcomplex", "--d", "3", "--q", "1"),
        ("kcomplex", "--d", "1", "--q", "2"),
        ("zeta", "--g", "2,1,-3", "--q", "2", "--n", "100000000"),
        ("zeta", "--g", "1,-1", "--q", "2", "--n", "20..21"),
        ("zeta", "--g", "1,-1", "--q", "2", "--n", "30"),
        ("stalk", "--g", "1,-1", "--q", "2", "--n", "21"),
        ("kcomplex", "--d", "2", "--q", "2", "--json", "{tmp}/missing/x.json"),
        ("dims", "--d", "2", "--q", str(2**64 + 13)),
        ("table", "--g", "1,-1", "--q", str(2**64 + 13)),
        ("stalk", "--g", "1,-1", "--q", str(2**64 + 13)),
        ("table", "--drinfeld", "100000", "--q", "4"),
        ("table", "--drinfeld", "100000", "--q", "2", "--family", "ge:-1"),
        ("zeta", "--g", "1,-1", "--q", "2", "--n", "1..99999999"),
        ("table", "--g", "1,-1", "--q", "2", "--n", "14300"),
        ("table", "--drinfeld", "9", "--q", "2", "--n", "1800", "--json", "-"),
        ("table", "--g", "1,-1", "--q", "2", "--n", "1" + "0" * 4000),
        ("table", "--g", "1e5000,-1e5000", "--q", "2"),
        ("table", "--g", "1e10000000,-1e10000000", "--q", "2"),
        ("table", "--g", "1,-1", "--q", "2", "--family", "ge:1e5000"),
        ("stalk", "--g", "1,-1", "--q", "2", "--family", "ge:-1e5000"),
        ("verify-all", "--quick", "--family", "ge:-1e5000"),
        ("zeta", "--g", "1/" + "9" * 4300 + ",1/" + "9" * 4299 + "8", "--q", "2"),
        ("zeta", "--g", "1,-1", "--q", "2", "--n", "1", "--budget", "-1"),
        ("kcomplex", "--d", "2", "--q", "2", "--budget", "-3"),
        ("table", "--g", "1.5,-1.5", "--q", "2"),
        ("table", "--g", "1e-3,-1e-3", "--q", "2"),
        ("table", "--g", "2,,1,-3", "--q", "2"),
        ("table", "--g", "2,1,-3,", "--q", "2"),
        ("table", "--g", "2,1,-3", "--q", "2", "--family", "ge:0.5"),
        ("kcomplex", "--d", "3", "--q", "2", "--i0", ","),
        ("kcomplex", "--d", "4", "--q", "2", "--i0", "1,,2"),
        ("table", "--g", "1" + "0" * 4999 + ",-1" + "0" * 4999, "--q", "2"),
    ],
    ids=[
        "at-file-is-not-a-slope-value",
        "non-integer-i0",
        "stalk-q-one",
        "dims-d-zero",
        "dims-d-negative",
        "kcomplex-d-negative",
        "dims-q-one",
        "kcomplex-q-one",
        "kcomplex-d-one",
        "zeta-field-above-bound",
        "zeta-n-range-above-field-bound",
        "zeta-n30-above-field-bound",
        "stalk-field-above-bound",
        "unwritable-json",
        "dims-q-above-2^64",
        "table-q-above-2^64",
        "stalk-q-above-2^64",
        "table-q-not-prime-before-pricing",
        "table-family-nonpositive-before-pricing",
        "zeta-n-range-priced-unexpanded",
        "table-trace-above-digit-limit",
        "table-json-trace-above-digit-limit",
        "table-n-4001-digits",
        "table-slope-exponent-past-digit-limit",
        "table-slope-exponent-1e7",
        "table-threshold-exponent-past-digit-limit",
        "stalk-negative-threshold-exponent-past-digit-limit",
        "verify-all-negative-threshold-exponent-past-digit-limit",
        "zeta-weighted-sum-too-long-to-print",
        "budget-negative",
        "kcomplex-budget-negative",
        "table-slope-decimal-point",
        "table-slope-decimal-exponent",
        "table-slope-empty-item",
        "table-slope-trailing-comma",
        "table-threshold-decimal-point",
        "kcomplex-i0-comma",
        "kcomplex-i0-empty-item",
        "table-slope-numerator-past-digit-limit",
    ],
)
def test_bad_inputs_exit_two(argv, tmp_path):
    code, _, err = run_bounded([a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


G_ATOMS = ("0", "1", "-1", "3/2", "-3/2", "1e-3", "1e5000", "-1e5000", "1/0", "nan", "")
D_ATOMS = ("-1", "0", "1", "2", "3", "4", "40", "x", "3/2", "")
FAMILIES = ("ss", "ge:1", "ge:1/3", "ge:0", "ge:1e5000", "ge:-1e5000", "ge:-2", "ge:x", "ge:")
# the options each fuzzed command takes, beyond --q, --json, --budget and --g
# (--d for dims and kcomplex)
FUZZ_OPTIONS = {
    "zeta": ("--family", "--n"),
    "stalk": ("--family", "--n"),
    "table": ("--family", "--n"),
    "dims": (),
    "kcomplex": ("--i0",),
}


def fuzzed_argv(rng) -> list[str]:
    command = rng.choice(sorted(FUZZ_OPTIONS))
    atoms = [rng.choice(G_ATOMS) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:  # balanced lists get past the weighted-sum check
        atoms += [a[1:] if a.startswith("-") else "-" + a for a in atoms]
    g = ",".join(atoms)
    if command in ("dims", "kcomplex"):
        argv = [command, "--d", rng.choice(D_ATOMS)]
    else:
        argv = [command, "--g", g]
    argv += ["--q", str(rng.choice((-3, 0, 1, 2, 3, 4, 5)))]
    choices = {
        "--family": FAMILIES,
        "--n": ("1", "1..2", "0", "3..1", "x"),
        "--i0": ("1", "1,2", "", "x", "0", "7"),
    }
    for option in FUZZ_OPTIONS[command]:
        if rng.random() < 0.7:
            argv += [option, rng.choice(choices[option])]
    if rng.random() < 0.3:
        argv += ["--json", "-"]
    return argv + ["--budget", "3000"]


def test_no_fuzzed_input_makes_main_raise(capsys):
    # every input ends in a documented exit code (0, 2 or 4 for these
    # commands) or in argparse's usage error, never in a traceback; a slope
    # value is N or N/D, so a decimal exponent in --g exits 2 before pricing
    rng = random.Random(21)
    codes = {}
    for _ in range(800):
        argv = fuzzed_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 2, 4), argv
        if "--g" in argv and "e" in argv[argv.index("--g") + 1]:
            assert code == 2, argv
        codes[code] = codes.get(code, 0) + 1
    assert codes.get(0) and codes.get(2)


@pytest.mark.parametrize("command", ["zeta", "kcomplex"])
def test_jobs_option_is_refused(command, capsys):
    # zeta and kcomplex take no --jobs: every command runs in one process
    argv = [command, "--d" if command == "kcomplex" else "--drinfeld", "2", "--q", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--jobs" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--d", "3", "--q", "2", "--g", "2,1,-3"),
        ("dims", "--d", "3", "--q", "2", "--drinfeld", "3"),
        ("kcomplex", "--d", "3", "--q", "2", "--g", "2,1,-3"),
        ("kcomplex", "--d", "3", "--q", "2", "--drinfeld", "3"),
        ("verify-all", "--quick", "--corrupt-signs"),
        ("dims", "--d", "3", "--q", "2", "--oracle"),
        ("table", "--g", "1,-1", "--q", "2", "--md", "x"),
    ],
    ids=["dims-g", "dims-drinfeld", "kcomplex-g", "kcomplex-drinfeld", "verify-all-corrupt-signs",
         "dims-oracle", "table-md"],
)
def test_removed_options_are_refused(argv, capsys):
    # dims and kcomplex take d only from --d, and dims has one route, the
    # formula; verify-all has no sign hook; table prints its markdown only
    # to stdout.  Each case gives the removed option last
    option = next(a for a in reversed(argv) if a.startswith("--"))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dims", "kcomplex"])
def test_d_is_required(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--q", "2"])
    assert exc.value.code == 2
    assert "--d" in capsys.readouterr().err


def test_table_prints_long_traces_below_the_digit_limit():
    code, out, err = run_bounded(["table", "--g", "1,-1", "--q", "2", "--n", "1..2000"])
    assert code == 0 and err == ""
    assert out.count("\nn=") == 2000
    # the open trace is q^n - 2, the closed one 3: 603 digits at n = 2000
    assert out.endswith(f"n=2000: open {2**2000 - 2}, closed 3, total {2**2000 + 1}\n")


def test_large_prime_q_is_decided_at_once():
    # 10^18 + 3 is prime; trial division up to its square root took minutes
    code, out, _ = run_bounded(["dims", "--d", "2", "--q", "1000000000000000003"])
    assert code == 0
    assert "dim_i=1000000000000000004 dim_v=1000000000000000003" in out


def test_a_stalk_failure_reaches_both_drivers(capsys, monkeypatch):
    monkeypatch.setattr(perdom.complexes, "stalk_homology", lambda verts, p, d: (1,))
    code, out, _ = run(capsys, "stalk", "--g", "2,1,-3", "--q", "2", "--n", "1")
    assert code == 3
    assert "21 stalk failures" in out
    code, out, _ = run(capsys, "verify-all", "--quick")
    assert code == 3
    assert "FAIL stalk complexes contract with a witness" in out
    assert "PASS induction complex homology concentrated on top" in out


def test_verify_all_reports_a_raising_group_and_continues(capsys, monkeypatch):
    def broken(i0, q):
        raise InternalCheckError("planted mismatch")

    monkeypatch.setattr(perdom.complexes, "verify_K", broken)
    code, out, err = run(capsys, "verify-all", "--quick")
    assert code == 3
    assert "FAIL induction complex homology concentrated on top" in out
    assert "PASS stalk complexes contract with a witness" in out
    assert "planted mismatch" in err


def test_json_to_stdout(capsys):
    code, out, _ = run(capsys, "kcomplex", "--d", "2", "--q", "2", "--json", "-")
    assert code == 0
    tail = out[out.index("{") :]
    payload = json.loads(tail)
    assert payload["pass"] is True


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2


# runs the CLI, then prints as the last stderr line the perdom modules it
# loaded and whether it loaded dataclasses, as the last stdout line whether
# it loaded fractions and decimal, and exits with the CLI's code
LOADED_MODULES = (
    "import sys\n"
    "from perdom import cli\n"
    "try:\n"
    "    code = cli.main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'perdom')\n"
    "print(' '.join(mods), 'dataclasses' in sys.modules, file=sys.stderr)\n"
    "print('fractions' in sys.modules, 'decimal' in sys.modules)\n"
    "sys.exit(code)\n"
)


def test_help_loads_no_layer_module():
    # the CLI imports each layer inside the commands that use it
    code, out, err = run_bounded(["--help"], LOADED_MODULES)
    assert code == 0 and "usage: perdom" in out
    assert err.split() == ["perdom", "perdom.cli", "perdom.errors", "False"]


WEYL_LAYERS = (
    "perdom", "perdom.cli", "perdom.errors", "perdom.exactalg", "perdom.exactalg.qcount",
    "perdom.records", "perdom.weyl",
)
FORMULA_LAYERS = (*WEYL_LAYERS, "perdom.cohomology", "perdom.slopes")
FIELDS = ("perdom.exactalg.gf", "perdom.exactalg.subspaces")
INDUCTION_LAYERS = (*WEYL_LAYERS, *FIELDS, "perdom.complexes", "perdom.exactalg.rational")
STALK_LAYERS = (*INDUCTION_LAYERS, "perdom.flagenum", "perdom.slopes")


@pytest.mark.parametrize("argv,modules,rationals", [
    ("table --drinfeld 3 --q 2 --n 1..2", FORMULA_LAYERS, True),
    ("zeta --g 2,1,-3 --q 2 --n 1", (*FORMULA_LAYERS, *FIELDS, "perdom.flagenum"), True),
    ("stalk --g 2,1,-3 --q 2 --n 1", STALK_LAYERS, True),
    ("kcomplex --d 3 --q 2", INDUCTION_LAYERS, False),
    ("dims --d 3 --q 2", WEYL_LAYERS, False),
    ("verify-all --quick", (*STALK_LAYERS, "perdom.checks", "perdom.cohomology"), True),
], ids=["table", "zeta", "stalk", "kcomplex", "dims", "verify-all"])
def test_commands_load_their_layers_without_dataclasses(argv, modules, rationals):
    # records are plain classes: no command pays for importing dataclasses,
    # and the commands that read no slope value load no rational numbers
    code, out, err = run_bounded(argv.split(), LOADED_MODULES)
    assert code == 0
    assert err.splitlines()[-1].split() == [*sorted(modules), "False"]
    assert out.splitlines()[-1].split() == [str(rationals)] * 2


def test_formula_layers_import_no_field_or_enumeration_module():
    # the formula route is independent of the enumeration route by
    # construction: it cannot reach a finite field, a subspace or a complex
    probe = (
        "import sys\n"
        "import perdom.cohomology, perdom.slopes, perdom.weyl, perdom.exactalg.qcount\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('perdom'))))\n"
    )
    code, out, _ = run_bounded([], probe)
    assert code == 0
    loaded = set(out.split())
    assert "perdom.cohomology" in loaded
    forbidden = {"perdom.exactalg.gf", "perdom.exactalg.subspaces", "perdom.exactalg.rational",
                 "perdom.flagenum", "perdom.complexes", "perdom.checks"}
    assert not loaded & forbidden


def test_drinfeld_and_g_conflict(capsys):
    code, _, err = run(capsys, "table", "--g", "1,-1", "--drinfeld", "2", "--q", "2")
    assert code == 2


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "perdom.cli", "table", "--drinfeld", "2", "--q", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0
    assert "v_B" in proc.stdout


def test_cli_imports_only_the_standard_library():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import perdom.cli\n"
        "print('\\n'.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "perdom" in loaded
    assert loaded - sys.stdlib_module_names == {"perdom"}
    # every command runs in one process: no worker pool is loaded
    assert not loaded & {"concurrent", "multiprocessing"}


def test_readme_names_every_cli_option():
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    shown, defined = set(), set()
    for sub in subparsers.choices.values():
        for action in sub._actions:
            defined.update(action.option_strings)
            if action.help != argparse.SUPPRESS and "--help" not in action.option_strings:
                shown.update(action.option_strings)
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"--[a-z][a-z0-9-]*", readme))
    assert shown - named == set()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[a-z][a-z0-9-]*", section)) - defined == set()
