"""Acceptance suite: the ten end-to-end criteria and the closed-strata count.

The checks live in one registry, `perdom.checks.CHECKS`, which `verify-all`
runs too; this suite runs every entry as `check(False, SS)`, on its full grid
under ss, and holds no grid, pinned value or comparison of its own.  The
negative controls substitute a broken layer in `tests/test_cli.py` and need
no hook in the registry.  Each entry prints a PASS/FAIL line with its
criterion label and runtime: run `pytest tests/test_acceptance.py -s` to see
the lines.
"""

import time
from contextlib import contextmanager

import pytest

from perdom.checks import CHECKS, SS


@contextmanager
def criterion(label, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label}: {name} [{time.perf_counter() - start:.2f}s]")
        raise
    print(f"PASS {label}: {name} [{time.perf_counter() - start:.2f}s]")


LABEL = {
    "rank-3 mixed-slope table reproduced exactly": "criterion 1",
    "hyperplane-complement tables follow the closed-form tower": "criterion 2",
    "Frobenius traces equal brute-force counts": "criterion 3",
    "low-degree vanishing with a single Steinberg top": "criterion 4",
    "a Bruhat-smaller element lands in a larger degree": "criterion 5",
    "prefix-map bijection and order reversal": "criterion 6",
    "parabolic sets shrink along the order, with the length bound": "criterion 7",
    "induction complex homology concentrated on top": "criteria 8, 9",
    "stalk complexes contract with a witness": "criterion 10",
    "closed-stratum cell counts match the length generating sum": "closed strata",
}


def criteria(label):
    """The criterion numbers a label names: "criterion 3" or "criteria 8, 9"."""
    word, _, numbers = label.partition(" ")
    return [int(n) for n in numbers.split(",")] if word in ("criterion", "criteria") else []


def test_every_check_has_one_label():
    names = [name for name, _ in CHECKS]
    assert len(set(names)) == len(names)
    assert set(LABEL) == set(names)
    assert sorted(n for name in names for n in criteria(LABEL[name])) == list(range(1, 11))


@pytest.mark.parametrize("name,check", CHECKS, ids=[check.__name__ for _, check in CHECKS])
def test_verify_all_check_full_grid(name, check):
    with criterion(LABEL[name], name):
        assert check(False, SS)
