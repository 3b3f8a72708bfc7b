import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perdom import cli
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


def test_table_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps([[3, 2, 2], [-3, 1, 1]]))
    code, out, _ = run(capsys, "table", "--g", f"@{cfg}", "--q", "2")
    assert code == 0
    assert "open stratum (d=3" in out


def test_zeta_consistency_and_jobs_equivalence(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["zeta", "--g", "2,1,-3", "--q", "2", "--n", "1..2", "--family", "ss"]
    assert main(base + ["--json", str(a)]) == 0
    assert main(base + ["--jobs", "2", "--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["pass"] is True


def test_zeta_budget_exit(capsys, monkeypatch):
    code, _, err = run(
        capsys, "zeta", "--g", "2,1,-3", "--q", "2", "--n", "3", "--budget", "10"
    )
    assert code == 4 and "budget" in err
    monkeypatch.setenv("PERDOM_BUDGET", "10")
    code, _, err = run(capsys, "zeta", "--g", "2,1,-3", "--q", "2", "--n", "3")
    assert code == 4
    monkeypatch.setenv("PERDOM_BUDGET", "not-a-number")
    code, _, err = run(capsys, "zeta", "--g", "2,1,-3", "--q", "2", "--n", "1")
    assert code == 2


def _unguarded(*args, **kwargs):
    raise AssertionError("the enumeration ran before the budget check")


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--g", ",".join(map(str, range(6, -7, -1))), "--q", "2"),
        ("table", "--g", "9,7,5,3,1,-1,-3,-5,-7,-9", "--q", "2"),
        ("dims", "--d", "40", "--q", "2"),
        ("dims", "--d", "6", "--q", "2", "--oracle"),
        ("stalk", "--g", "3,1,-1,-3", "--q", "2", "--n", "3"),
        ("zeta", "--drinfeld", "12", "--q", "2"),
        ("zeta", "--g", "3,1,-1,-3", "--q", "2", "--n", "1..3"),
        ("kcomplex", "--d", "6", "--q", "2"),
        ("kcomplex", "--d", "40", "--q", "2"),
    ],
    ids=[
        "table-13-distinct-values",
        "table-10-distinct-values",
        "dims-d40",
        "dims-oracle-d6",
        "stalk-d4-n3",
        "zeta-drinfeld-12",
        "zeta-d4-n3",
        "kcomplex-d6",
        "kcomplex-d40",
    ],
)
def test_table_and_dims_exit_four_before_enumerating(argv, capsys, monkeypatch):
    monkeypatch.setattr(cli.coh, "table_open", _unguarded)
    monkeypatch.setattr(cli.weyl, "parabolic_types", _unguarded)
    monkeypatch.setattr(cli.flagenum, "enumerate_flags", _unguarded)
    monkeypatch.setattr(cli.flagenum, "count_points", _unguarded)
    monkeypatch.setattr(cli.checks, "induction_report", _unguarded)
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert err.startswith("error: enumeration needs") and "budget" in err


def test_table_and_dims_budget_bounds(capsys, monkeypatch):
    # 3!/1 = 6 representatives for (2, 1, -3) at d^2 = 9 units each; 3^2 = 9
    # Moebius terms for d = 3
    assert run(capsys, "table", "--g", "2,1,-3", "--q", "2", "--budget", "53")[0] == 4
    assert run(capsys, "table", "--g", "2,1,-3", "--q", "2", "--budget", "54")[0] == 0
    assert run(capsys, "table", "--g", "1,1,-2", "--q", "2", "--budget", "26")[0] == 4
    assert run(capsys, "table", "--g", "1,1,-2", "--q", "2", "--budget", "27")[0] == 0
    assert run(capsys, "dims", "--d", "3", "--q", "2", "--budget", "8")[0] == 4
    assert run(capsys, "dims", "--d", "3", "--q", "2", "--budget", "9")[0] == 0
    # --oracle adds d^2 units for each of the 36 points of all coset spaces of GF(2)^3
    assert run(capsys, "dims", "--d", "3", "--q", "2", "--oracle", "--budget", "332")[0] == 4
    assert run(capsys, "dims", "--d", "3", "--q", "2", "--oracle", "--budget", "333")[0] == 0
    # the largest n prices zeta: 105 flags over GF(4) times 14 rational subspaces,
    # checked in the parent before any worker starts
    zeta = ("zeta", "--g", "2,1,-3", "--q", "2", "--n", "1..2", "--jobs", "2")
    assert run(capsys, *zeta, "--budget", "1469")[0] == 4
    assert run(capsys, *zeta, "--budget", "1470")[0] == 0
    monkeypatch.setenv("PERDOM_BUDGET", "5")
    assert run(capsys, "table", "--g", "2,1,-3", "--q", "2")[0] == 4
    assert run(capsys, "dims", "--d", "3", "--q", "2")[0] == 4


@pytest.mark.parametrize(
    "budget,i0,code",
    [("323", (), 4), ("324", (), 0), ("71", ("--i0", "1"), 4), ("72", ("--i0", "1"), 0)],
)
def test_kcomplex_budget_bounds(budget, i0, code, capsys, monkeypatch):
    # d^2 units for each of the 36 coset-space points of GF(2)^3, or for the
    # 1 + 7 points of the J containing I0 = {1}; kcomplex has no --budget
    monkeypatch.setenv("PERDOM_BUDGET", budget)
    got, _, err = run(capsys, "kcomplex", "--d", "3", "--q", "2", *i0)
    assert got == code
    if code == 4:
        assert err.endswith("(raise with PERDOM_BUDGET)\n")


def test_dims_oracle(capsys):
    code, out, _ = run(capsys, "dims", "--d", "3", "--q", "2", "--oracle")
    assert code == 0
    assert "I=[] composition=[1, 1, 1] dim_i=21 dim_v=8" in out


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


def test_kcomplex_single_subset_and_jobs(capsys):
    code, out, _ = run(capsys, "kcomplex", "--d", "4", "--q", "2", "--i0", "1,2", "--jobs", "2")
    assert code == 0
    assert "I0=[1, 2]" in out


def test_kcomplex_corrupt_signs_fails(capsys):
    code, _, err = run(capsys, "kcomplex", "--d", "3", "--q", "2", "--corrupt-signs")
    assert code == 1
    assert "compose to zero" in err


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
    assert len(lines) == 7
    assert all(l.startswith("PASS") for l in lines)


def test_verify_all_rejects_nonpositive_family(capsys):
    code, _, err = run(capsys, "verify-all", "--family", "ge:0/1")
    assert code == 2 and "positive degrees" in err


def test_verify_all_corrupt_signs_fails_at_composition(capsys):
    code, out, err = run(capsys, "verify-all", "--quick", "--corrupt-signs")
    assert code == 3
    assert "FAIL induction complex homology concentrated on top" in out
    assert sum(1 for line in out.splitlines() if line.startswith("PASS")) == 6
    assert "compose to zero" in err


def test_zeta_mismatch_exits_three(capsys, monkeypatch):
    import perdom.cli as cli_mod
    from perdom.flagenum import CountReport

    def broken_count(g, family, p, n):
        total = 21
        return CountReport(q=p, n=n, total=total, in_y=total - 1, in_open=1)

    monkeypatch.setattr(cli_mod.flagenum, "count_points", broken_count)
    code, out, err = run(capsys, "zeta", "--g", "2,1,-3", "--q", "2", "--n", "1")
    assert code == 3
    assert "MISMATCH" in out and "disagree" in err


def test_bad_n_ranges_exit_two(capsys):
    for bad in ("x", "0", "3..x", ",,"):
        code, _, err = run(capsys, "zeta", "--g", "1,-1", "--q", "2", "--n", bad)
        assert code == 2, bad


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--g", "@{tmp}/missing.json", "--q", "2"),
        ("table", "--g", "@{tmp}/not.json", "--q", "2"),
        ("kcomplex", "--d", "3", "--q", "2", "--i0", "a"),
        ("stalk", "--g", "2,1,-3", "--q", "1"),
        ("dims", "--d", "0", "--q", "2"),
        ("dims", "--d", "-2", "--q", "2"),
        ("kcomplex", "--d", "-1", "--q", "2"),
        ("dims", "--d", "-2", "--q", "2", "--oracle"),
        ("dims", "--d", "3", "--q", "1", "--oracle"),
        ("kcomplex", "--d", "3", "--q", "1"),
        ("kcomplex", "--d", "1", "--q", "2"),
    ],
    ids=[
        "missing-config",
        "non-json-config",
        "non-integer-i0",
        "stalk-q-one",
        "dims-d-zero",
        "dims-d-negative",
        "kcomplex-d-negative",
        "dims-oracle-d-negative",
        "dims-oracle-q-one",
        "kcomplex-q-one",
        "kcomplex-d-one",
    ],
)
def test_bad_inputs_exit_two(argv, tmp_path, capsys):
    (tmp_path / "not.json").write_text("[[1, 1, 1], [-1, 1, 1]")
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_two(jobs, capsys):
    code, _, err = run(capsys, "kcomplex", "--d", "2", "--q", "2", "--jobs", jobs)
    assert code == 2 and "--jobs" in err
    code, _, err = run(capsys, "zeta", "--g", "1,-1", "--q", "2", "--jobs", jobs)
    assert code == 2 and "--jobs" in err


def test_jobs_clamped_to_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli._worker_count(1, 10) == 1
    assert cli._worker_count(3, 10) == 3
    assert cli._worker_count(64, 2) == 2
    assert cli._worker_count(64, 10) == 4
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._worker_count(64, 10) == 1


def test_verify_all_reports_a_raising_group_and_continues(capsys, monkeypatch):
    def broken(ptype, q):
        raise InternalCheckError("planted mismatch")

    monkeypatch.setattr(cli.coh, "check_dim_v", broken)
    code, out, err = run(capsys, "verify-all", "--quick")
    assert code == 3
    assert "FAIL Steinberg dimensions agree across both routes" in out
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


def test_drinfeld_and_g_conflict(capsys):
    code, _, err = run(capsys, "table", "--g", "1,-1", "--drinfeld", "2", "--q", "2")
    assert code == 2


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "perdom.cli", "table", "--drinfeld", "2", "--q", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "v_B" in proc.stdout


def test_cli_imports_only_the_standard_library():
    src = Path(__file__).resolve().parent.parent / "src"
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
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    # multiprocessing registers the running script under the alias __mp_main__
    loaded = set(proc.stdout.split()) - {"__mp_main__"}
    assert "perdom" in loaded
    assert loaded - sys.stdlib_module_names == {"perdom"}
    # the worker pool is imported only when a command runs on several workers
    assert not loaded & {"concurrent", "multiprocessing"}
