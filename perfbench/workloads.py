"""The four benchmark workloads: inputs drawn from a seed, work units, and
expected results cross-checked against values computed here, not by perdom.

Seed 0 gives the fixed inputs (``zeta --g 2,1,-3 ...`` and so on).  Any
other seed keeps d, the multiplicities, q and n, and draws new integer slope
values with the same sign on every partial degree sum.  Flag classification
and the cohomology tables depend on the values only through those signs, so
a drawn input has the same flag counts, the same verdicts and the same work;
only the numbers passed on the command line change.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations, product
from math import factorial
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
DEFAULT_SEED = 0


# -- independent arithmetic ------------------------------------------------------


def q_int(m: int, q: int) -> int:
    return sum(q**i for i in range(m))


def q_factorial(m: int, q: int) -> int:
    out = 1
    for i in range(1, m + 1):
        out *= q_int(i, q)
    return out


def q_multinomial(parts, q: int) -> int:
    """Number of flags over GF(q) with successive quotient dimensions `parts`."""
    out = q_factorial(sum(parts), q)
    for part in parts:
        out //= q_factorial(part, q)
    return out


def multinomial(parts) -> int:
    out = factorial(sum(parts))
    for part in parts:
        out //= factorial(part)
    return out


def _sign_pattern(values, mults) -> tuple[int, ...]:
    """Sign of every partial degree sum sum_j m_j v_j, 0 <= m_j <= mults_j."""
    d = sum(mults)
    out = []
    for ms in product(*(range(m + 1) for m in mults)):
        if 0 < sum(ms) < d:
            s = sum(m * v for m, v in zip(ms, values))
            out.append((s > 0) - (s < 0))
    return tuple(out)


def draw_values(seed: int, name: str, base, mults) -> tuple[int, ...]:
    """Integer slope values with the multiplicities and sign pattern of `base`."""
    if seed == DEFAULT_SEED:
        return tuple(base)
    rng = random.Random(f"{name}:{seed}")
    target = _sign_pattern(base, mults)
    d = sum(mults)
    for _ in range(10_000):
        raw = sorted(rng.sample(range(-12, 13), len(mults)), reverse=True)
        weighted = sum(m * x for m, x in zip(mults, raw))
        values = tuple(d * x - weighted for x in raw)  # weighted sum zero
        if _sign_pattern(values, mults) == target:
            return values
    raise RuntimeError(f"no slope values with the sign pattern of {base}")


# -- workloads ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str  # name of one work unit, for the report

    def argv(self, seed: int) -> list[str]:
        raise NotImplementedError

    def extract(self, report: dict) -> dict:
        """The part of the CLI's JSON report that no seed changes."""
        return report

    def cross_check(self, expected: dict) -> list[str]:
        """Problems found comparing `expected` with values computed here."""
        raise NotImplementedError

    def units(self) -> int:
        raise NotImplementedError

    def expected(self) -> dict:
        return json.loads((EXPECTED_DIR / f"{self.name}.json").read_text())


@dataclass(frozen=True)
class Zeta(Workload):
    base: tuple[int, ...] = (2, 1, -3)
    mults: tuple[int, ...] = (1, 1, 1)
    q: int = 2
    ns: tuple[int, ...] = (1, 2, 3, 4)

    def argv(self, seed):
        values = draw_values(seed, self.name, self.base, self.mults)
        return ["zeta", "--g", ",".join(map(str, values)), "--q", str(self.q),
                "--n", f"{self.ns[0]}..{self.ns[-1]}"]

    def units(self):
        return sum(q_multinomial(self.mults, self.q**n) for n in self.ns)

    def cross_check(self, expected):
        problems = []
        rows = {row["n"]: row for row in expected["rows"]}
        if sorted(rows) != list(self.ns) or expected["pass"] is not True:
            problems.append(f"rows for n={sorted(rows)}, pass={expected['pass']}")
        for n, row in rows.items():
            total = q_multinomial(self.mults, self.q**n)
            for key in ("cell_total", "predicted_total", "enumerated_total"):
                if row[key] != total:
                    problems.append(f"n={n}: {key} {row[key]} != q-multinomial {total}")
            for kind in ("predicted", "enumerated"):
                if row[f"{kind}_open"] + row[f"{kind}_closed"] != total:
                    problems.append(f"n={n}: {kind} open + closed != {total}")
        return problems


@dataclass(frozen=True)
class Stalk(Workload):
    base: tuple[int, ...] = (3, 1, -1, -3)
    mults: tuple[int, ...] = (1, 1, 1, 1)
    q: int = 2

    def argv(self, seed):
        values = draw_values(seed, self.name, self.base, self.mults)
        return ["stalk", "--g", ",".join(map(str, values)), "--q", str(self.q), "--n", "1"]

    def units(self):
        return q_multinomial(self.mults, self.q)

    def cross_check(self, expected):
        flags = self.units()
        want = {"n": 1, "flags": flags, "in_y": flags, "failed": 0}
        if expected["rows"] != [want] or expected["pass"] is not True:
            return [f"stalk rows {expected['rows']} != [{want}] with pass true"]
        return []


def _composition(missing, d):
    cuts = (0, *sorted(missing), d)
    return tuple(b - a for a, b in zip(cuts, cuts[1:]))


@dataclass(frozen=True)
class KComplex(Workload):
    d: int = 4
    q: int = 3

    def argv(self, seed):  # (d, q) fixes the input; the seed is not used
        return ["kcomplex", "--d", str(self.d), "--q", str(self.q)]

    def _complexes(self):
        """I0 -> term dimensions, from coset counts of the missing reflections."""
        out = {}
        reflections = range(1, self.d)
        for r in range(self.d - 1):
            for i0 in combinations(reflections, r):
                pool = [i for i in reflections if i not in i0]
                dims = [1] + [
                    sum(q_multinomial(_composition(t, self.d), self.q) for t in combinations(pool, k))
                    for k in range(1, len(pool) + 1)
                ]
                out[i0] = dims
        return out

    def units(self):
        return sum(sum(dims) for dims in self._complexes().values())

    def cross_check(self, expected):
        problems = []
        complexes = self._complexes()
        reports = {tuple(rep["I0"]): rep for rep in expected["reports"]}
        if set(reports) != set(complexes) or expected["pass"] is not True:
            problems.append(f"reports for I0 in {sorted(reports)}, pass={expected['pass']}")
        for i0, rep in reports.items():
            dims = complexes.get(i0)
            if rep["dims"] != dims:
                problems.append(f"I0={list(i0)}: dims {rep['dims']} != {dims}")
                continue
            # homology sits in the top degree only, so it equals the Euler characteristic
            top = abs(sum((-1) ** j * x for j, x in enumerate(dims)))
            if rep["homology"] != [0] * (len(dims) - 1) + [top] or rep["pass"] is not True:
                problems.append(f"I0={list(i0)}: homology {rep['homology']}, top should be {top}")
        steinberg = self.q ** (self.d * (self.d - 1) // 2)
        if reports.get((), {}).get("homology", [None])[-1] != steinberg:
            problems.append(f"I0=[]: top homology is not q^(d(d-1)/2) = {steinberg}")
        return problems


@dataclass(frozen=True)
class Table(Workload):
    base: tuple[int, ...] = (8, -1)
    mults: tuple[int, ...] = (1, 8)
    q: int = 2
    ns: tuple[int, ...] = (1, 2, 3)

    def argv(self, seed):
        span = ["--q", str(self.q), "--n", f"{self.ns[0]}..{self.ns[-1]}"]
        if seed == DEFAULT_SEED:
            return ["table", "--drinfeld", str(sum(self.mults)), *span]
        values = draw_values(seed, self.name, self.base, self.mults)
        flat = [v for v, m in zip(values, self.mults) for _ in range(m)]
        return ["table", "--g", ",".join(map(str, flat)), *span]

    def extract(self, report):
        return {side: {k: v for k, v in body.items() if k != "g"} for side, body in report.items()}

    def units(self):
        return multinomial(self.mults)  # one open summand per Kostant representative

    def cross_check(self, expected):
        problems = []
        entries = expected["open"]["entries"]
        if len(entries) != self.units():
            problems.append(f"{len(entries)} open summands, expected {self.units()}")
        # minimal coset representatives have Poincare polynomial [d]!_q / prod [m]!_q
        if sum(self.q ** e["length"] for e in entries) != q_multinomial(self.mults, self.q):
            problems.append("open summand lengths do not give the q-multinomial")
        for n in self.ns:
            total = q_multinomial(self.mults, self.q**n)
            traces = [expected[side]["traces"][str(n)] for side in ("open", "closed")]
            if sum(traces) != total:
                problems.append(f"n={n}: open + closed traces {traces} != {total}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Zeta(
            "zeta_d3",
            "zeta --g 2,1,-3 --q 2 --n 1..4: flag classification with early exit, "
            "5424 flags over GF(2^n) tested against 14 rational subspaces until the first hit",
            "flags",
        ),
        Stalk(
            "stalk_d4",
            "stalk --g 3,1,-1,-3 --q 2 --n 1: all 315 flags tested against all 65 subspaces, "
            "stalk posets and 945 small exact ranks",
            "flags",
        ),
        KComplex(
            "kcomplex_d4",
            "kcomplex --d 4 --q 3: exact rational rank of dense 0/+-1 matrices up to 2080 "
            "columns for all seven proper I0, no finite-field classification",
            "complex dims",
        ),
        Table(
            "table_d9",
            "table --drinfeld 9 --q 2 --n 1..3: the formula engine, where Kostant "
            "representatives are found by filtering all 9! permutations",
            "summands",
        ),
    )
}
