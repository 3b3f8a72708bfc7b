"""Command line front end.

Subcommands: table, zeta, dims, kcomplex, stalk, verify-all.
Exit codes: 0 success, 1 internal assertion, 2 invalid configuration,
3 theorem-check mismatch, 4 budget exceeded.  stdout carries results,
stderr diagnostics; identical configurations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import cohomology as coh
from . import complexes as cx
from . import checks, flagenum, slopes, weyl
from .errors import (
    BudgetExceededError,
    ConfigError,
    InternalCheckError,
    PerdomError,
    TheoremCheckError,
)
from .exactalg.gf import is_prime
from .exactalg.qcount import all_flag_points
from .weyl import ParabolicType

ENV_BUDGET = "PERDOM_BUDGET"
DEFAULT_BUDGET = 10_000_000


def _parse_g(args) -> slopes.SlopeFunction:
    if getattr(args, "drinfeld", None) is not None:
        if getattr(args, "g", None):
            raise ConfigError("give either --g or --drinfeld, not both")
        return slopes.drinfeld(args.drinfeld)
    spec = getattr(args, "g", None)
    if not spec:
        raise ConfigError("a slope function is required (--g or --drinfeld)")
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read a slope config from {spec[1:]!r}: {exc}") from exc
        return slopes.parse_g_config(config)
    try:
        values = [Fraction(part.strip()) for part in spec.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse slope values from {spec!r}") from exc
    if not values:
        raise ConfigError("empty slope value list")
    return slopes.from_values(values)


def _parse_n_range(spec: str | None) -> tuple[int, ...]:
    if not spec:
        return ()
    out: list[int] = []
    try:
        for part in spec.split(","):
            part = part.strip()
            if ".." in part:
                lo, hi = part.split("..", 1)
                out.extend(range(int(lo), int(hi) + 1))
            elif part:
                out.append(int(part))
    except ValueError as exc:
        raise ConfigError(f"cannot parse extension degrees from {spec!r}") from exc
    if not out:
        raise ConfigError(f"empty extension-degree range {spec!r}")
    if any(n < 1 for n in out):
        raise ConfigError("extension degrees must be >= 1")
    return tuple(dict.fromkeys(out))


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get(ENV_BUDGET)
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"bad {ENV_BUDGET} value {env!r}") from exc
    return DEFAULT_BUDGET


def _require_budget(args, required: int, what: str):
    """The one budget gate: every enumerating command calls it once, in the
    parent process, and exits 4 before enumerating more than the budget."""
    budget = _budget(args)
    if required > budget:
        raise_with = f"--budget or {ENV_BUDGET}" if hasattr(args, "budget") else ENV_BUDGET
        raise BudgetExceededError(
            f"enumeration needs {required} {what}, budget is {budget} (raise with {raise_with})"
        )


def _worker_count(jobs: int, tasks: int) -> int:
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, tasks, os.cpu_count() or 1)


def _map_jobs(fn, tasks, jobs: int) -> list:
    """fn(*task) for each task, in order, on min(jobs, #tasks, #cpus) worker processes."""
    workers = _worker_count(jobs, len(tasks))
    if workers > 1:
        # imported here so that single-worker runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*tasks)))
    return [fn(*t) for t in tasks]


def _emit_json(payload, path: str | None):
    _emit_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", path)


def _emit_text(text: str, path: str | None):
    if path is None:
        return
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_dq(args) -> tuple[int, int]:
    """(d, q) from --d (or the slope function) and --q, checked before pricing."""
    d = _parse_g(args).d if args.d is None else args.d
    if d < 1:
        raise ConfigError(f"--d must be at least 1, got {d}")
    if not is_prime(args.q):
        raise ConfigError(f"base field size must be prime, got {args.q}")
    return d, args.q


def _parse_family(args) -> slopes.ClosedFamily:
    family = slopes.parse_family(args.family)
    if not family.within_ss:
        raise ConfigError(
            f"{args.command} needs a family of positive degrees, got {family.describe()}"
        )
    return family


# -- subcommands ----------------------------------------------------------------


def cmd_table(args) -> int:
    g = _parse_g(args)
    family = slopes.parse_family(args.family)
    ns = _parse_n_range(args.n)
    # d^2 units per representative: its length counts inversions over
    # d(d-1)/2 pairs, and I_w reads d partial sums
    reps = math.factorial(g.d) // math.prod(math.factorial(m) for m in g.mults)
    _require_budget(args, reps * g.d**2, "work units (d^2 per Kostant representative)")
    open_table = coh.table_open(g, family)
    closed_table = coh.table_closed(g, family)
    md = (
        f"## open stratum (d={g.d}, q={args.q}, family {family.describe()})\n\n"
        + coh.table_markdown(open_table, args.q)
        + "\n## closed complement\n\n"
        + coh.table_markdown(closed_table, args.q)
    )
    sys.stdout.write(md)
    if ns:
        sys.stdout.write("\n## traces\n\n")
        for n in ns:
            o = coh.trace_prediction(open_table, args.q, n)
            c = coh.trace_prediction(closed_table, args.q, n)
            sys.stdout.write(f"n={n}: open {o}, closed {c}, total {o + c}\n")
    payload = {
        "open": coh.table_json(open_table, args.q, ns),
        "closed": coh.table_json(closed_table, args.q, ns),
    }
    _emit_json(payload, args.json)
    _emit_text(md, args.md)
    return 0


def _zeta_one(g, family, q, n):
    predicted_open, predicted_closed, total = coh.predicted_counts(g, family, q, n)
    report = flagenum.count_points(g, family, q, n)
    return {
        "n": n,
        "predicted_open": predicted_open,
        "predicted_closed": predicted_closed,
        "predicted_total": predicted_open + predicted_closed,
        "cell_total": total,
        "enumerated_open": report.in_open,
        "enumerated_closed": report.in_y,
        "enumerated_total": report.total,
    }


def cmd_zeta(args) -> int:
    g = _parse_g(args)
    family = _parse_family(args)
    ns = _parse_n_range(args.n) or (1,)
    # every flag is classified against every rational subspace; the price
    # grows with n, so the largest n decides
    _require_budget(args, flagenum.classification_tests(g, args.q, max(ns)), "flag/subspace tests")
    rows = _map_jobs(_zeta_one, [(g, family, args.q, n) for n in ns], args.jobs)
    ok = True
    for row in rows:
        match = (
            row["predicted_open"] == row["enumerated_open"]
            and row["predicted_closed"] == row["enumerated_closed"]
            and row["predicted_total"] == row["enumerated_total"]
            and row["cell_total"] == row["enumerated_total"]
        )
        ok = ok and match
        sys.stdout.write(
            f"n={row['n']}: open {row['predicted_open']}/{row['enumerated_open']} "
            f"closed {row['predicted_closed']}/{row['enumerated_closed']} "
            f"total {row['predicted_total']}/{row['enumerated_total']} "
            f"[{'ok' if match else 'MISMATCH'}]\n"
        )
    _emit_json({"d": g.d, "q": args.q, "rows": rows, "pass": ok}, args.json)
    if not ok:
        raise TheoremCheckError("predicted and enumerated counts disagree")
    return 0


def cmd_dims(args) -> int:
    d, q = _resolve_dq(args)
    work, what = 3 ** (d - 1), "Moebius terms"
    if args.oracle:  # the rank route also builds every coset space
        work += d**2 * all_flag_points(d, q)
        what = "work units (Moebius terms, d^2 per coset-space point)"
    _require_budget(args, work, what)
    rows = []
    for ptype in weyl.parabolic_types(d):
        di = coh.dim_induced(ptype, q)
        dv = coh.check_dim_v(ptype, q) if args.oracle else coh.dim_v(ptype, q)
        rows.append(
            {
                "I": list(ptype.gens),
                "composition": list(ptype.composition()),
                "dim_induced": di,
                "dim_v": dv,
            }
        )
        sys.stdout.write(
            f"I={list(ptype.gens)} composition={list(ptype.composition())} "
            f"dim_i={di} dim_v={dv}\n"
        )
    _emit_json({"d": d, "q": q, "oracle": bool(args.oracle), "rows": rows}, args.json)
    return 0


def cmd_kcomplex(args) -> int:
    d, q = _resolve_dq(args)
    if d < 2:
        raise ConfigError("kcomplex needs --d >= 2: at d = 1 there is no proper reflection subset")
    i0 = cuts = None
    if args.i0:
        try:
            gens = [int(x) for x in args.i0.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"cannot parse reflection indices from {args.i0!r}") from exc
        i0 = ParabolicType.from_gens(d, gens)
        cuts = i0.complement()  # K(I0) builds the coset space of every J containing I0
    # d^2 units per coset-space point, as for dims --oracle
    _require_budget(args, d**2 * all_flag_points(d, q, cuts), "work units (d^2 per coset-space point)")
    subsets = [i0] if i0 is not None else [p for p in weyl.parabolic_types(d) if not p.is_full]
    signs = "index" if args.corrupt_signs else "position"
    if args.corrupt_signs:
        subsets = [p for p in subsets if checks.corruptible(p)]
        if not subsets:
            raise ConfigError("the sign-corruption hook needs a complex with two differentials")
    tasks = [(ptype, q, signs) for ptype in subsets]
    reports = _map_jobs(checks.induction_report, tasks, args.jobs)
    ok = True
    for rep in reports:
        ok = ok and rep.passed
        sys.stdout.write(
            f"I0={list(rep.i0.gens)} dims={list(rep.dims)} homology={list(rep.homology)} "
            f"[{'ok' if rep.passed else 'FAIL'}]\n"
        )
    _emit_json({"d": d, "q": q, "reports": [r.as_json() for r in reports], "pass": ok}, args.json)
    if not ok:
        raise TheoremCheckError("induction-complex homology check failed")
    return 0


def cmd_stalk(args) -> int:
    g = _parse_g(args)
    family = _parse_family(args)
    ns = _parse_n_range(args.n) or (1,)
    # every flag is classified against every rational subspace
    _require_budget(args, flagenum.classification_tests(g, args.q, max(ns)), "flag/subspace tests")
    all_ok = True
    rows = []
    for n in ns:
        flags = in_y = failed = 0
        for flag in flagenum.enumerate_flags(g, args.q, n):
            flags += 1
            rep = cx.stalk_report(flag, family)
            if rep.in_y:
                in_y += 1
                if not rep.passed:
                    failed += 1
        all_ok = all_ok and failed == 0
        rows.append({"n": n, "flags": flags, "in_y": in_y, "failed": failed})
        sys.stdout.write(
            f"n={n}: {flags} flags, {in_y} on the closed stratum, "
            f"{failed} stalk failures\n"
        )
    _emit_json({"d": g.d, "q": args.q, "rows": rows, "pass": all_ok}, args.json)
    if not all_ok:
        raise TheoremCheckError("a stalk complex failed to contract")
    return 0


# -- verify-all -----------------------------------------------------------------


def cmd_verify_all(args) -> int:
    family = _parse_family(args)
    signs = "index" if args.corrupt_signs else "position"
    lines: list[str] = []
    for name, check in checks.CHECKS:
        try:
            ok = check(args.quick, family, signs)
        except InternalCheckError as exc:
            print(f"internal check failed: {exc}", file=sys.stderr)
            ok = False
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
        sys.stdout.write(lines[-1] + "\n")
    failures = sum(1 for line in lines if line.startswith("FAIL"))
    _emit_json({"checks": lines, "pass": not failures}, args.json)
    if failures:
        raise TheoremCheckError(f"{failures} verification groups failed")
    return 0


# -- parser ----------------------------------------------------------------------


def _add_common(sub, *, g=True, q=True, family=False, n=False, budget=False, jobs=False):
    if g:
        sub.add_argument("--g", help='slope values "2,1,-3" (fractions allowed) or @config.json')
        sub.add_argument("--drinfeld", type=int, metavar="D",
                         help="hyperplane-complement slope function in dimension D")
    if q:
        sub.add_argument("--q", type=int, required=True, help="prime size of the base field")
    if family:
        sub.add_argument("--family", default="ss", help='"ss" or "ge:NUM/DEN"')
    if n:
        sub.add_argument("--n", help='extension degrees, e.g. "2" or "1..3"')
    if budget:
        sub.add_argument("--budget", type=int,
                         help=f"work budget (default {DEFAULT_BUDGET}, env {ENV_BUDGET})")
    if jobs:
        sub.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes (at most one per task and CPU)")
    sub.add_argument("--json", metavar="PATH", help="write a JSON report (- for stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perdom",
        description="cohomology tables and point counts for period domains over finite fields",
        epilog=(
            "exit codes: 0 success, 1 internal assertion, 2 invalid config, "
            "3 theorem-check mismatch, 4 budget exceeded"
        ),
    )
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("table", help="predicted cohomology tables (open and closed)")
    _add_common(p, family=True, n=True, budget=True)
    p.add_argument("--md", metavar="PATH", help="write the markdown table")
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("zeta", help="trace predictions vs. brute-force point counts")
    _add_common(p, family=True, n=True, budget=True, jobs=True)
    p.set_defaults(func=cmd_zeta)

    p = subs.add_parser("dims", help="representation dimensions for all parabolic types")
    _add_common(p, budget=True)
    p.add_argument("--d", type=int, help="ambient dimension (alternative to --g)")
    p.add_argument("--oracle", action="store_true",
                   help="also run the exact-rank route and compare")
    p.set_defaults(func=cmd_dims)

    p = subs.add_parser("kcomplex", help="verify induction-complex homology")
    _add_common(p, jobs=True)
    p.add_argument("--d", type=int, help="ambient dimension (alternative to --g)")
    p.add_argument("--i0", help='reflection subset, e.g. "1,2" (default: all proper subsets)')
    p.add_argument("--corrupt-signs", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_kcomplex)

    p = subs.add_parser("stalk", help="stalk acyclicity and contraction witnesses")
    _add_common(p, family=True, n=True, budget=True)
    p.set_defaults(func=cmd_stalk)

    p = subs.add_parser("verify-all", help="run the consolidated verification suite")
    p.add_argument("--family", default="ss", help='"ss" or "ge:NUM/DEN"')
    p.add_argument("--quick", action="store_true", help="reduced grid for smoke testing")
    p.add_argument("--corrupt-signs", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--json", metavar="PATH", help="write a JSON report (- for stdout)")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except PerdomError as exc:
        prefix = "internal check failed" if isinstance(exc, InternalCheckError) else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
