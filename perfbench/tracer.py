"""Traced entry point: run the perdom CLI with spans around each layer.

Usage: python3 perfbench/tracer.py OUT_DIR RUN_ID -- <perdom arguments>

The package is imported from ``src/`` of the checkout, its public layer
functions are wrapped from outside (module globals, every ``from ... import``
binding in other perdom modules, and class attributes for methods), and
``perdom.cli.main`` runs with the given arguments.  Spans (name, start, end,
parent) are kept in flat arrays in memory and written to OUT_DIR when the
run ends, together with the counters and the run id; ``run.py`` turns them
into per-layer metrics.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (span name, module, attribute); "Class.method" patches a class attribute.
TIMED = (
    ("cli", "perdom.cli", "main"),
    ("flagenum.count_points", "perdom.flagenum", "count_points"),
    ("slopes.induced", "perdom.slopes", "induced_type"),
    ("slopes.induced", "perdom.slopes", "induced_degree"),
    ("exactalg.subspaces.rref", "perdom.exactalg.subspaces", "rref"),
    ("exactalg.subspaces.intersect", "perdom.exactalg.subspaces", "SubspaceGF.intersect"),
    ("exactalg.gf.make_field", "perdom.exactalg.gf", "make_field"),
    ("exactalg.rational.matmul", "perdom.exactalg.rational", "mat_mul_exact"),
    ("complexes.coset_space", "perdom.complexes", "coset_space"),
    ("complexes.build_K", "perdom.complexes", "build_K"),
    ("complexes.verify_K", "perdom.complexes", "verify_K"),
    ("complexes.stalk_report", "perdom.complexes", "stalk_report"),
    ("complexes.build_stalk", "perdom.complexes", "build_stalk"),
    ("complexes.stalk_homology", "perdom.complexes", "stalk_homology"),
    ("complexes.quillen_witness", "perdom.complexes", "quillen_witness"),
    ("weyl.kostant_reps", "perdom.weyl", "kostant_reps"),
    ("cohomology.tables", "perdom.cohomology", "table_open"),
    ("cohomology.tables", "perdom.cohomology", "table_closed"),
    ("cohomology.traces", "perdom.cohomology", "trace_prediction"),
)
# Counted only: these run millions of times, so a span per call would cost
# more than the call itself.
COUNTED = (
    ("exactalg.gf.neg.calls", "perdom.exactalg.gf", "FieldSpec.neg"),
    ("exactalg.gf.inv.calls", "perdom.exactalg.gf", "FieldSpec.inv"),
    ("exactalg.gf.add.calls", "perdom.exactalg.gf", "FieldSpec.add"),
    ("exactalg.gf.sub.calls", "perdom.exactalg.gf", "FieldSpec.sub"),
    ("exactalg.gf.mul.calls", "perdom.exactalg.gf", "FieldSpec.mul"),
    ("exactalg.gf.pow.calls", "perdom.exactalg.gf", "FieldSpec.pow"),
    ("weyl.length.calls", "perdom.weyl", "length"),
)
# Generator functions: one span per resume, one count per item yielded.
GENERATORS = (("flagenum.enumerate", "flagenum.flags", "perdom.flagenum", "enumerate_flags"),)
RANK = ("exactalg.rational.rank", "perdom.exactalg.rational", "rational_rank")
COUNTING_SPAN = "traced.counting"


class Tracer:
    """Spans in flat arrays: name id, parent index (-1 for a root), start, end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, itertools.count] = {}
        self.sums: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def counter(self, name: str) -> itertools.count:
        return self.counters.setdefault(name, itertools.count())

    def _opener(self, name: str):
        nid = self.name_id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def open_span() -> int:
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx: int):
            ends[idx] = clock()
            stack.pop()

        return open_span, close_span

    def timed(self, name: str, fn, before=None):
        open_span, close_span = self._opener(name)
        if before is not None:
            open_count, close_count = self._opener(COUNTING_SPAN)

        def wrapper(*args, **kwargs):
            if before is not None:
                idx = open_count()
                try:
                    before(*args, **kwargs)
                finally:
                    close_count(idx)
            idx = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)

        return wrapper

    def counted(self, name: str, fn):
        tick = self.counter(name).__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def generator(self, name: str, item_counter: str, fn):
        open_span, close_span = self._opener(name)
        tick = self.counter(item_counter).__next__

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    tick()
                    yield item
            finally:
                it.close()

        return wrapper

    def write(self, out_dir: Path, run_id: str, exit_code: int):
        with open(out_dir / "spans.bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {
            "run_id": run_id,
            "exit_code": exit_code,
            "names": self.names,
            "spans": len(self.start),
            "counters": {**{k: next(c) for k, c in self.counters.items()}, **self.sums},
        }
        (out_dir / "trace.json").write_text(json.dumps(meta, sort_keys=True) + "\n")


def _rank_shape_counter(tracer: Tracer):
    sums = tracer.sums
    sums["exactalg.rational.rank.entries"] = 0
    sums["exactalg.rational.rank.nnz"] = 0

    def before(rows):
        if hasattr(rows, "shape"):  # numpy array
            rows_n, cols_n = rows.shape
            nz = int((rows != 0).sum())
        else:
            rows_n = len(rows)
            cols_n = len(rows[0]) if rows_n else 0
            nz = sum(len(r) - list(r).count(0) for r in rows)
        sums["exactalg.rational.rank.entries"] += rows_n * cols_n
        sums["exactalg.rational.rank.nnz"] += nz

    return before


def _resolve(module, attr: str):
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer):
    """Wrap every traced function and rebind each perdom name that held it."""
    import importlib

    import perdom.cli  # noqa: F401  (imports every layer module)

    plans = [(mod, attr, lambda f, n=name: tracer.timed(n, f)) for name, mod, attr in TIMED]
    plans += [(mod, attr, lambda f, n=name: tracer.counted(n, f)) for name, mod, attr in COUNTED]
    plans += [(mod, attr, lambda f, n=span, c=items: tracer.generator(n, c, f))
              for span, items, mod, attr in GENERATORS]
    plans.append((RANK[1], RANK[2],
                  lambda f: tracer.timed(RANK[0], f, before=_rank_shape_counter(tracer))))
    replaced: dict[int, tuple] = {}
    for mod_name, attr, wrap in plans:
        try:
            module = importlib.import_module(mod_name)
            owner, leaf = _resolve(module, attr)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            # a renamed layer function shows up as a zero-call metric
            print(f"tracer: {mod_name}.{attr} not found", file=sys.stderr)
            continue
        setattr(owner, leaf, wrap(original))
        if owner is module:  # methods are reached through their class only
            replaced[id(original)] = (original, getattr(owner, leaf))
    for name, module in list(sys.modules.items()):
        if not name.startswith("perdom"):
            continue
        for key, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT_DIR RUN_ID -- <perdom arguments>", file=sys.stderr)
        return 2
    out_dir, run_id, cli_args = Path(argv[0]), argv[1], argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    install(tracer)
    import perdom.cli

    code = 1
    try:
        code = perdom.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.write(out_dir, run_id, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
