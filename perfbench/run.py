"""Benchmark of the perdom CLI: end-to-end metrics, or per-layer metrics from
a separate traced run.

    python3 perfbench/run.py --workload zeta_d3 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --out perfbench/baselines/BENCH_1.json
    python3 perfbench/run.py --self-check

Each workload is one CLI command, run as one child process at a time
(closed loop, one client, ``--jobs`` left at 1).  Invocations repeat until
``--seconds`` is used up, at least three times unless that would run past
HARD_CAP x ``--seconds``, and every one is checked against
``expected/<workload>.json``: exit code 0, the same verdicts and counts, and
JSON byte-identical across repeats.  ``--trace 1`` alternates untraced
invocations with invocations through ``tracer.py`` and reports per-layer
metrics of the traced invocation with the median wall time.  Metric names
and units come from BENCHMARK.json, the layer map from ``layers.json``.

The report prints wall_s, cpu_s, work_per_s, peak_rss_mb, setup_s and
fail_ratio as measured.  The gated time metrics are the *_ref_s variants:
each invocation's times scaled by ``calibrate()`` measured around it, since
the shared host's CPU speed drifts by more than the bounds between runs.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are the human-readable report.
Exit code 0 when every invocation was correct, 1 otherwise, 2 when the
checkout holds no perdom sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MIN_INVOCATIONS = 3
SETUP_SAMPLES = 12  # `perdom --help` runs per measurement; its spread is wide
SETUP_BATCH = 4
HARD_CAP = 1.3
INVOCATION_TIMEOUT_S = 150
# Median calibrate() time on an uncontended core of the 2-vCPU sandbox the
# baseline was recorded on (Python 3.11.7); the *_ref_s metrics are scaled to it.
CALIBRATION_REF_S = 0.0135


def spec() -> dict:
    """BENCHMARK.json: metric names, units and directions."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_map() -> dict:
    """layers.json: per-layer metric -> end-to-end metrics it moves, and the
    workloads on which it must be nonzero."""
    return {m["name"]: m for m in json.loads((HERE / "layers.json").read_text())["metrics"]}


@dataclass
class Invocation:
    """One child process: wall time, rusage, exit status and JSON bytes."""

    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    payload: bytes | None
    stderr: str
    problem: str | None = None
    trace: dict | None = None
    calibration_s: float | None = None  # calibrate() around this invocation

    @property
    def speed(self) -> float:
        """Host CPU speed during the invocation, relative to the reference."""
        return CALIBRATION_REF_S / self.calibration_s


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: the host's current CPU speed.

    The host of a shared sandbox runs this loop, and perdom, 20-40 % slower
    for stretches of tens of seconds; scaling by it removes most of that
    drift from the *_ref_s metrics.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spawn(argv: list[str], work: Path, env: dict) -> Invocation:
    """Run argv to completion; wall time spans spawn to reaping."""
    out = work / "out.json"
    out.unlink(missing_ok=True)
    stdout, stderr = work / "stdout.txt", work / "stderr.txt"
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    return Invocation(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        os.waitstatus_to_exitcode(status),
        out.read_bytes() if out.exists() else None,
        stderr.read_text(errors="replace")[-2000:],
    )


class Runner:
    """Runs and checks invocations of one workload with one seed."""

    def __init__(self, workload, seed: int, work: Path, expected: dict | None = None,
                 extra_args: tuple[str, ...] = ()):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.expected = workload.expected() if expected is None else expected
        self.expected_problems = workload.cross_check(self.expected)
        self.cli_args = [*workload.argv(seed), *extra_args, "--json", str(work / "out.json")]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.first_payload: bytes | None = None

    def help(self) -> Invocation:
        return spawn([sys.executable, "-m", "perdom.cli", "--help"], self.work, self.env)

    def untraced(self) -> Invocation:
        return self.check(spawn([sys.executable, "-m", "perdom.cli", *self.cli_args],
                                self.work, self.env))

    def traced(self, run_id: str) -> Invocation:
        trace_dir = self.work / "trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
        argv = [sys.executable, str(HERE / "tracer.py"), str(trace_dir), run_id, "--",
                *self.cli_args]
        inv = self.check(spawn(argv, self.work, self.env))
        inv.trace = load_trace(trace_dir) if (trace_dir / "trace.json").exists() else None
        if inv.trace is None and inv.problem is None:
            inv.problem = "the traced run wrote no spans"
        return inv

    def check(self, inv: Invocation) -> Invocation:
        if inv.exit_code != 0:
            inv.problem = f"exit code {inv.exit_code}: {inv.stderr.strip()[-300:]}"
        elif inv.payload is None:
            inv.problem = "no JSON report"
        elif self.workload.extract(json.loads(inv.payload)) != self.workload.extract(self.expected):
            inv.problem = "verdicts or counts differ from the expected results"
        elif self.expected_problems:
            inv.problem = "expected results disagree with independent values: " + "; ".join(
                self.expected_problems)
        elif self.first_payload is not None and inv.payload != self.first_payload:
            inv.problem = "JSON report is not byte-identical across repeats"
        if inv.payload is not None and self.first_payload is None:
            self.first_payload = inv.payload
        return inv


# -- traces ---------------------------------------------------------------------------


def load_trace(trace_dir: Path) -> dict:
    """Spans and counters of one traced invocation."""
    from array import array

    meta = json.loads((trace_dir / "trace.json").read_text())
    n = meta["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(trace_dir / "spans.bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    meta["name"], meta["parent"], meta["start"], meta["end"] = arrays
    return meta


def layer_metrics(trace: dict, wall: float) -> dict[str, float]:
    """Self time and calls per span name, counters, and derived ratios.

    A span's self time is its duration minus the durations of its child
    spans; children nest inside their parent because the program runs on
    one thread, so the self times sum to the time covered by root spans.
    """
    import numpy as np

    names = trace["names"]
    name = np.frombuffer(trace["name"], dtype=np.int32)
    parent = np.frombuffer(trace["parent"], dtype=np.int32)
    dur = np.frombuffer(trace["end"], dtype=np.float64) - np.frombuffer(trace["start"], dtype=np.float64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    self_time = np.bincount(name, weights=dur - covered, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    out: dict[str, float] = {}
    for i, span in enumerate(names):
        out[f"{span}.self_s"] = float(self_time[i])
        out[f"{span}.calls"] = int(calls[i])
    out.update(trace["counters"])
    roots = float(dur[~child].sum())
    out["traced.wall_s"] = wall
    out["traced.untraced_s"] = wall - roots
    flags = out.get("flagenum.flags", 0)
    out["flagenum.tests_per_flag"] = out.get("slopes.induced.calls", 0) / flags if flags else 0.0
    out["exactalg.gf.ops"] = sum(
        out.get(f"exactalg.gf.{op}.calls", 0) for op in ("add", "sub", "neg", "mul", "inv", "pow"))
    return out


# -- measurement ----------------------------------------------------------------------


def measure(runner: Runner, seconds: float, trace: bool, min_invocations: int = MIN_INVOCATIONS):
    """Invocations until `seconds` would be exceeded.

    At least `min_invocations` (one pair when tracing) run, unless the next
    one would end after HARD_CAP x `seconds`, which bounds a run on a slow
    machine.  Set-up samples are taken in batches between invocations.
    """
    runner.help()  # warm the page cache and the bytecode cache; not timed
    start = time.perf_counter()
    setup: list[Invocation] = []
    untraced: list[Invocation] = []
    traced: list[Invocation] = []
    setup_target = 0 if trace else SETUP_SAMPLES
    wanted = 1 if trace else min_invocations
    while True:
        for _ in range(min(SETUP_BATCH, setup_target - len(setup))):
            setup.append(runner.help())
        step = time.perf_counter()
        before = calibrate()
        untraced.append(runner.untraced())
        untraced[-1].calibration_s = (before + calibrate()) / 2
        if trace:
            traced.append(runner.traced(f"{runner.workload.name}-{runner.seed}-{len(traced)}"))
        now = time.perf_counter()
        projected = now - start + (now - step)
        limit = seconds if len(traced or untraced) >= wanted else HARD_CAP * seconds
        if projected > limit:
            break
    while len(setup) < setup_target:
        setup.append(runner.help())
    return setup, untraced, traced


def e2e_metrics(runner: Runner, setup, untraced) -> tuple[dict, dict]:
    walls = [inv.wall for inv in untraced]
    wall = statistics.median(walls)
    failed = sum(inv.problem is not None for inv in untraced)
    passed = 1.0 - failed / len(untraced)
    wall_ref = statistics.median(inv.wall * inv.speed for inv in untraced)
    units = runner.workload.units() * passed  # failed work counts as none
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(inv.cpu for inv in untraced),
        "work_per_s": units / wall,
        "wall_ref_s": wall_ref,
        "cpu_ref_s": statistics.median(inv.cpu * inv.speed for inv in untraced),
        "work_per_ref_s": units / wall_ref,
        "peak_rss_mb": statistics.median(inv.rss_mb for inv in untraced),
        "setup_s": statistics.median(inv.wall for inv in setup),
        "pass_ratio": passed,
    }
    info = {
        "calibration_s": statistics.median(inv.calibration_s for inv in untraced),
        "samples": len(untraced),
        "setup_samples": len(setup),
        "failed": failed,
        "fail_ratio": failed / len(untraced),
        "wall_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else [wall] * 3,
    }
    return values, info


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path,
                 expected: dict | None = None, min_invocations: int = MIN_INVOCATIONS,
                 extra_args: tuple[str, ...] = ()) -> dict:
    runner = Runner(workload, seed, work, expected, extra_args)
    setup, untraced, traced = measure(runner, seconds, trace, min_invocations)
    invocations = untraced + traced
    problems = [inv.problem for inv in invocations if inv.problem]
    problems += [f"`perdom --help` exit code {inv.exit_code}" for inv in setup if inv.exit_code]
    result = {
        "workload": workload.name,
        "seed": seed,
        "argv": [*workload.argv(seed), *extra_args],
        "attempted": len(invocations),
        "failed": sum(inv.problem is not None for inv in invocations),
        "problems": sorted(set(problems)),
    }
    if not trace:
        result["metrics"], result["info"] = e2e_metrics(runner, setup, untraced)
        return result
    chosen = sorted(traced, key=lambda inv: inv.wall)[(len(traced) - 1) // 2]
    metrics = layer_metrics(chosen.trace, chosen.wall) if chosen.trace else {}
    untraced_wall = statistics.median(inv.wall for inv in untraced)
    metrics["traced.overhead_s"] = chosen.wall - untraced_wall
    required = [name for name, m in layer_map().items() if workload.name in m["workloads"]]
    zero = [name for name in required if not metrics.get(name)]
    if zero:
        result["problems"].append("zero on this workload: " + ", ".join(zero))
        result["failed"] += 1
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    result["metrics"] = metrics
    result["info"] = {
        "traced_samples": len(traced),
        "untraced_samples": len(untraced),
        "untraced_wall_s": untraced_wall,
        "self_sum_plus_untraced_s": self_sum + metrics.get("traced.untraced_s", 0.0),
        "spans": chosen.trace["spans"] if chosen.trace else 0,
        "run_id": chosen.trace["run_id"] if chosen.trace else None,
    }
    return result


# -- reporting --------------------------------------------------------------------------


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "perdom").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def report_lines(result: dict, prov: dict, trace: bool) -> list[str]:
    w = WORKLOADS[result["workload"]]
    lines = [
        f"# {w.name} seed={result['seed']} trace={int(trace)} commit={prov['git_commit']} "
        f"source={prov['source_sha256'][:12]} python={prov['python']} numpy={prov['numpy']} "
        f"nproc={prov['nproc']}",
        "# perdom " + " ".join(result["argv"]),
    ]
    m, info = result["metrics"], result["info"]
    if not trace:
        lines += [
            f"wall_s       {m['wall_s']:.6f} s     median of {info['samples']} invocations, "
            f"quartiles {info['wall_quartiles'][0]:.4f}..{info['wall_quartiles'][2]:.4f}; "
            "no tail percentile: none has 10 samples beyond it",
            f"cpu_s        {m['cpu_s']:.6f} s     user + system of the child (wait4)",
            f"work_per_s   {m['work_per_s']:.4f} 1/s   {w.units()} {w.unit} x pass_ratio / wall_s",
            f"peak_rss_mb  {m['peak_rss_mb']:.3f} MB    median peak RSS of the child",
            f"setup_s      {m['setup_s']:.6f} s     median of {info['setup_samples']} `perdom --help`",
            f"fail_ratio   {info['fail_ratio']:.4f}      {info['failed']} of {info['samples']} "
            "invocations failed (reported as pass_ratio = 1 - fail_ratio)",
            f"wall_ref_s, cpu_ref_s, work_per_ref_s  {m['wall_ref_s']:.6f} s, {m['cpu_ref_s']:.6f} s, "
            f"{m['work_per_ref_s']:.4f} 1/s  scaled by calibrate() = {info['calibration_s'] * 1e3:.3f} "
            f"ms against {CALIBRATION_REF_S * 1e3:.1f} ms",
        ]
    else:
        for metric in spec()["per_layer"]:
            lines.append(f"{metric['name']:42s} {m.get(metric['name'], 0):.6g} {metric['unit']}")
        lines.append(
            f"# self times + traced.untraced_s = {info['self_sum_plus_untraced_s']:.6f} s; "
            f"traced wall {m.get('traced.wall_s', 0):.6f} s; tracing overhead "
            f"{m['traced.overhead_s']:.6f} s against the untraced median "
            f"{info['untraced_wall_s']:.6f} s; {info['spans']} spans, run id {info['run_id']}")
    lines += [f"# FAIL {p}" for p in result["problems"]]
    return lines


def metric_block(result: dict, trace: bool) -> dict:
    """Every metric BENCHMARK.json lists for this mode; a layer never entered is 0."""
    return {
        metric["name"]: {"value": result["metrics"].get(metric["name"], 0), "unit": metric["unit"]}
        for metric in spec()["per_layer" if trace else "end_to_end"]
    }


def write_out(path: Path, prov: dict, results: list[dict], trace: bool):
    """Merge this run into a BENCH report: provenance plus every sample."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("provenance", {})["trace" if trace else "end_to_end"] = prov
    section = "per_layer" if trace else "end_to_end"
    for result in results:
        entry = doc.setdefault("workloads", {}).setdefault(result["workload"], {})
        entry[section] = {
            "seed": result["seed"],
            "argv": result["argv"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "problems": result["problems"],
            "metrics": metric_block(result, trace),
            "info": result["info"],
        }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# -- negative control -------------------------------------------------------------------


def self_check(work: Path) -> int:
    """Check the benchmark's own data, then show that a corrupted program and
    a wrong expected value both raise the failure count while every metric
    is still reported."""
    ok = True

    def verdict(name: str, good: bool, detail: str = ""):
        nonlocal ok
        ok = ok and good
        print(f"{'PASS' if good else 'FAIL'} {name}{': ' + detail if detail else ''}")

    bench = spec()
    verdict("BENCHMARK.json lists the workloads and reasons of workloads.py",
            bench["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()])
    verdict("BENCHMARK.json lists exactly the metrics of layers.json",
            [m["name"] for m in bench["per_layer"]] == list(layer_map()))
    for w in WORKLOADS.values():
        problems = w.cross_check(w.expected())
        verdict(f"expected/{w.name}.json matches independent values", not problems, "; ".join(problems))

    stalk = WORKLOADS["stalk_d4"]
    wrong = stalk.expected()
    wrong["rows"][0]["in_y"] -= 1
    verdict("a wrong expected value fails the independent check", bool(stalk.cross_check(wrong)))

    controls = [
        ("kcomplex --corrupt-signs", WORKLOADS["kcomplex_d4"], None, ("--corrupt-signs",)),
        ("stalk_d4 with a wrong expected in_y", stalk, wrong, ()),
    ]
    names = {m["name"] for m in bench["end_to_end"]} | {"wall_s", "cpu_s", "work_per_s"}
    for label, workload, expected, extra in controls:
        result = run_workload(workload, DEFAULT_SEED, 0, False, work, expected,
                              min_invocations=1, extra_args=extra)
        ratio = result["failed"] / result["attempted"]
        verdict(f"{label} drives fail_ratio above 0", ratio > 0, f"fail_ratio={ratio:.2f}")
        verdict(f"{label} still reports every metric", names <= set(result["metrics"]),
                ", ".join(f"{k}={v:.4g}" for k, v in sorted(result["metrics"].items())))
        for problem in result["problems"]:
            print(f"  {problem[:160]}")
    return 0 if ok else 1


# -- main -------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="merge the full report into this JSON file")
    parser.add_argument("--self-check", action="store_true",
                        help="run the negative controls instead of a measurement")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "perdom" / "cli.py").is_file():
        print(f"error: no perdom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.self_check:
            return self_check(work)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        trace = bool(args.trace)
        prov = provenance(args.seed)
        seconds = spec()["run_seconds"] if args.seconds is None else args.seconds
        results = [run_workload(WORKLOADS[n], args.seed, seconds, trace, work) for n in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for result in results:
        print("\n".join(report_lines(result, prov, trace)), flush=True)
    if args.out:
        write_out(args.out, prov, results, trace)
    single = len(results) == 1
    summary = {
        "correct": all(not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (name if single else f"{r['workload']}/{name}"): value
            for r in results
            for name, value in metric_block(r, trace).items()
        },
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
