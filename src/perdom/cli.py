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
import sys

from .errors import (
    BudgetExceededError,
    ConfigError,
    InternalCheckError,
    PerdomError,
    TheoremCheckError,
)

DEFAULT_BUDGET = 10_000_000


def _parse_g(args) -> slopes.SlopeFunction:
    from . import slopes
    if args.drinfeld is not None:
        if args.g:
            raise ConfigError("give either --g or --drinfeld, not both")
        return slopes.drinfeld(args.drinfeld)
    spec = args.g
    if not spec:
        raise ConfigError("a slope function is required (--g or --drinfeld)")
    parts = (part.strip() for part in spec.split(","))
    values = [slopes.parse_value(part, "slope value") for part in parts if part]
    if not values:
        raise ConfigError("empty slope value list")
    return slopes.from_values(values)


def _parse_n_ranges(spec: str | None) -> tuple[range, ...]:
    """The nonempty ranges of extension degrees in spec, e.g. "2" or "1..3",
    unexpanded: commands price them by their endpoints and call _n_values
    only after the budget gate."""
    if not spec:
        return ()
    out: list[range] = []
    try:
        for part in spec.split(","):
            part = part.strip()
            if ".." in part:
                lo, hi = part.split("..", 1)
                out.append(range(int(lo), int(hi) + 1))
            elif part:
                out.append(range(int(part), int(part) + 1))
    except ValueError as exc:
        raise ConfigError(f"cannot parse extension degrees from {spec!r}") from exc
    out = [r for r in out if r]
    if not out:
        raise ConfigError(f"empty extension-degree range {spec!r}")
    if min(r.start for r in out) < 1:
        raise ConfigError("extension degrees must be >= 1")
    return tuple(out)


def _n_values(ranges) -> tuple[int, ...]:
    return tuple(dict.fromkeys(n for r in ranges for n in r))


def _require_budget(args, price, what: str):
    """The one budget gate: every enumerating command calls it once and
    exits 4 before enumerating more than the budget.
    price(cap) is the work, or math.inf once its running value passes cap."""
    budget = args.budget
    if budget < 0:
        raise ConfigError(f"--budget must be at least 0, got {budget}")
    if price(budget) > budget:
        raise BudgetExceededError(
            f"enumeration needs more {what} than the budget of {budget} (raise with --budget)"
        )


def _emit_json(payload, path: str | None):
    if path is None:
        return
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _resolve_dq(args) -> tuple[int, int]:
    """(d, q) from --d and --q, checked before pricing."""
    from .exactalg.qcount import require_prime
    if args.d < 1:
        raise ConfigError(f"--d must be at least 1, got {args.d}")
    require_prime(args.q)
    return args.d, args.q


def _parse_family(args) -> slopes.ClosedFamily:
    from . import slopes
    family = slopes.parse_family(args.family)
    if not family.within_ss:
        raise ConfigError(
            f"{args.command} needs a family of positive degrees, got {family.describe()}"
        )
    return family


# -- subcommands ----------------------------------------------------------------


def _require_printable_traces(entries, q: int, n: int):
    """ConfigError, before any trace is evaluated, if one over GF(q^n) could
    pass the interpreter's integer-to-string digit limit (0: no limit): a
    trace is a sum of len(entries) terms dim * q^(n * length)."""
    from .cohomology import rep_dim
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    scale = len(entries) * max(rep_dim(e.rep, q) for e in entries)
    # log10(q) > 1/4, so an exponent past 4 * limit is too large already
    exponent = min(n * max(e.length for e in entries), 4 * limit)
    if limit and exponent * math.log10(q) + math.log10(scale) >= limit:
        raise ConfigError(
            f"a trace at n={n} can pass Python's {limit}-digit limit for printing integers"
        )


def cmd_table(args) -> int:
    from . import cohomology as coh
    from .exactalg.qcount import capped, q_multinomial, require_prime
    g = _parse_g(args)
    family = _parse_family(args)
    require_prime(args.q)
    ranges = _parse_n_ranges(args.n)
    degrees = sum(r.stop - r.start for r in ranges)  # repeats included

    def price(cap):
        # d^2 units per representative: its length counts inversions over
        # d(d-1)/2 pairs, and I_w reads d partial sums; there are d!/prod m_i!
        # representatives, the q-multinomial at q = 1.  Each n adds one unit
        # per trace term, at most three per representative (one open, two closed)
        return capped(q_multinomial(g.mults, 1, cap) * (g.d**2 + 3 * capped(degrees, cap)), cap)

    _require_budget(args, price, "work units (d^2, plus 3 per n, per Kostant representative)")
    open_table = coh.table_open(g, family)
    closed_table = coh.table_closed(g, family)
    ns = _n_values(ranges)
    if ns:
        _require_printable_traces(open_table.entries + closed_table.entries, args.q, max(ns))
    payload = {
        "open": coh.table_json(open_table, args.q, ns),
        "closed": coh.table_json(closed_table, args.q, ns),
    }
    sys.stdout.write(
        f"## open stratum (d={g.d}, q={args.q}, family {family.describe()})\n\n"
        + coh.table_markdown(open_table, args.q)
        + "\n## closed complement\n\n"
        + coh.table_markdown(closed_table, args.q)
    )
    if ns:
        sys.stdout.write("\n## traces\n\n")
        opens, closeds = payload["open"]["traces"], payload["closed"]["traces"]
        for n in ns:
            o, c = opens[str(n)], closeds[str(n)]
            sys.stdout.write(f"n={n}: open {o}, closed {c}, total {o + c}\n")
    _emit_json(payload, args.json)
    return 0


def _flag_inputs(args, stalks=False):
    """(g, family, ns) for the commands that enumerate flags, after the
    budget gate: every flag is classified against every rational subspace,
    and with `stalks` each flag's stalk has at most all_flag_points(d, q) - 1
    chains, the nonempty chains of proper nonzero rational subspaces.  The
    price grows with n, so the largest n decides."""
    from .exactalg.qcount import all_flag_points, capped
    from .flagenum import classification_tests, flag_count
    g = _parse_g(args)
    family = _parse_family(args)
    ranges = _parse_n_ranges(args.n) or (range(1, 2),)
    n = max(r[-1] for r in ranges)

    def price(cap):
        tests = classification_tests(g, args.q, n, cap)
        if not stalks or tests > cap:
            return tests
        chains = flag_count(g, args.q, n, cap) * (all_flag_points(g.d, args.q, cap=cap) - 1)
        return capped(tests + chains, cap)

    what = "flag/subspace tests and stalk chains" if stalks else "flag/subspace tests"
    _require_budget(args, price, what)
    return g, family, _n_values(ranges)


def cmd_zeta(args) -> int:
    from . import cohomology as coh, flagenum
    g, family, ns = _flag_inputs(args)
    rows = []
    ok = True
    for n in ns:
        p_open, p_closed, cells = coh.predicted_counts(g, family, args.q, n)
        report = flagenum.count_points(g, family, args.q, n)
        match = (p_open, p_closed, p_open + p_closed, cells) == (
            report.in_open, report.in_y, report.total, report.total
        )
        ok = ok and match
        rows.append(dict(
            n=n, predicted_open=p_open, predicted_closed=p_closed,
            predicted_total=p_open + p_closed, cell_total=cells, enumerated_open=report.in_open,
            enumerated_closed=report.in_y, enumerated_total=report.total,
        ))
        sys.stdout.write(
            f"n={n}: open {p_open}/{report.in_open} closed {p_closed}/{report.in_y} "
            f"total {p_open + p_closed}/{report.total} [{'ok' if match else 'MISMATCH'}]\n"
        )
    _emit_json({"d": g.d, "q": args.q, "rows": rows, "pass": ok}, args.json)
    if not ok:
        raise TheoremCheckError("predicted and enumerated counts disagree")
    return 0


def cmd_dims(args) -> int:
    from . import weyl
    from .exactalg.qcount import capped
    d, q = _resolve_dq(args)

    def price(cap):
        # (m+1)(m+2)/2 q-binomials in dim_v for each of the C(d-1, m) types with m cuts:
        # (d^2 + 5d + 2) 2^(d-4) >= 2^(d-1) in all, > cap once d - 1 reaches cap's bit length
        return capped((d*d + 5*d + 2) * 2**d // 16, cap) if d <= cap.bit_length() else math.inf

    _require_budget(args, price, "Moebius terms")
    rows = []
    for ptype in weyl.parabolic_types(d):
        di = weyl.dim_induced(ptype, q)
        dv = weyl.dim_v(ptype, q)
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
    _emit_json({"d": d, "q": q, "rows": rows}, args.json)
    return 0


def cmd_kcomplex(args) -> int:
    from . import complexes as cx, weyl
    from .exactalg.qcount import all_flag_points, capped
    d, q = _resolve_dq(args)
    if d < 2:
        raise ConfigError("kcomplex needs --d >= 2: at d = 1 there is no proper reflection subset")
    i0 = None
    if args.i0:
        try:
            gens = [int(x) for x in args.i0.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"cannot parse reflection indices from {args.i0!r}") from exc
        i0 = weyl.ParabolicType.from_gens(d, gens)

    def price(cap):
        # d^2 units per point of the coset space of every J containing I0;
        # d^2 first, since listing the cuts takes time O(d)
        if d**2 > cap:
            return math.inf
        cuts = None if i0 is None else i0.complement()
        return capped(d**2 * all_flag_points(d, q, cuts, cap), cap)

    _require_budget(args, price, "work units (d^2 per coset-space point)")
    subsets = [i0] if i0 is not None else [p for p in weyl.parabolic_types(d) if not p.is_full]
    signs = "index" if args.corrupt_signs else "position"
    if args.corrupt_signs:
        subsets = [p for p in subsets if cx.corruptible(p)]
        if not subsets:
            raise ConfigError("the sign-corruption hook needs a complex with two differentials")
    reports = [cx.induction_report(ptype, q, signs) for ptype in subsets]
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
    from . import complexes as cx
    g, family, ns = _flag_inputs(args, stalks=True)
    all_ok = True
    rows = []
    for n in ns:
        flags, in_y, failed = cx.stalk_counts(g, family, args.q, n)
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
    from . import checks
    family = _parse_family(args)
    lines: list[str] = []
    for name, check in checks.CHECKS:
        try:
            ok = check(args.quick, family)
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


def _add_common(sub, *, g=True, q=True, family=False, n=False, budget=True):
    if g:
        sub.add_argument("--g", help='slope values "2,1,-3" (fractions allowed)')
        sub.add_argument("--drinfeld", type=int, metavar="D",
                         help="hyperplane-complement slope function in dimension D")
    if q:
        sub.add_argument("--q", type=int, required=True, help="prime size of the base field")
    if family:
        sub.add_argument("--family", default="ss", help='"ss" or "ge:NUM/DEN"')
    if n:
        sub.add_argument("--n", help='extension degrees, e.g. "2" or "1..3"')
    if budget:
        sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                         help=f"work budget (default {DEFAULT_BUDGET})")
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
    _add_common(p, family=True, n=True)
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("zeta", help="trace predictions vs. brute-force point counts")
    _add_common(p, family=True, n=True)
    p.set_defaults(func=cmd_zeta)

    p = subs.add_parser("dims", help="representation dimensions for all parabolic types")
    _add_common(p, g=False)
    p.add_argument("--d", type=int, required=True, help="ambient dimension")
    p.set_defaults(func=cmd_dims)

    p = subs.add_parser("kcomplex", help="verify induction-complex homology")
    _add_common(p, g=False)
    p.add_argument("--d", type=int, required=True, help="ambient dimension")
    p.add_argument("--i0", help='reflection subset, e.g. "1,2" (default: all proper subsets)')
    p.add_argument("--corrupt-signs", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_kcomplex)

    p = subs.add_parser("stalk", help="stalk acyclicity and contraction witnesses")
    _add_common(p, family=True, n=True)
    p.set_defaults(func=cmd_stalk)

    p = subs.add_parser("verify-all", help="run the consolidated verification suite")
    _add_common(p, g=False, q=False, family=True, budget=False)
    p.add_argument("--quick", action="store_true", help="reduced grid for smoke testing")
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
